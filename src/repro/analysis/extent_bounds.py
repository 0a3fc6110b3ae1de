"""Feasible cardinality ranges: how many ``tau`` elements can exist?

The Section-1 inconsistency is a clash of cardinality ranges: D1 forces
``|ext(subject)| = 2|ext(teacher)| >= 2`` while Sigma1 forces
``|ext(subject)| <= |ext(teacher)|``. This module computes, for any
element type, the exact set of achievable ``|ext(tau)|`` values (an
integer interval, possibly unbounded above *within a probe limit*) over
all documents satisfying the specification — the interaction between DTD
and constraints, quantified.

Implementation: binary search over thresholds, each step an exact
consistency check of the encoding with one extra row (``ext(tau) <= k``
or ``>= k``). No changes to the solver are needed, and every step
inherits the solver's exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.constraints.ast import Constraint
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.dtd.model import DTD
from repro.encoding.combined import build_encoding
from repro.encoding.dtd_system import ext_var
from repro.errors import InvalidConstraintError
from repro.ilp.condsys import solve_conditional_system
from repro.ilp.model import VarId


@dataclass(frozen=True)
class ExtentBounds:
    """The achievable range of ``|ext(tau)|``.

    ``minimum`` is exact. ``maximum`` is exact when not ``None``; ``None``
    means "at least ``probe_limit`` is achievable" — for DTDs with stars
    or recursion the extent is typically genuinely unbounded, but the
    probe cannot distinguish unbounded from astronomically large.
    """

    element_type: str
    minimum: int
    maximum: int | None
    probe_limit: int

    def __contains__(self, count: int) -> bool:
        if count < self.minimum:
            return False
        return self.maximum is None or count <= self.maximum

    def __str__(self) -> str:
        upper = "unbounded" if self.maximum is None else str(self.maximum)
        return f"|ext({self.element_type})| in [{self.minimum}, {upper}]"


def _feasible_with(
    dtd: DTD,
    constraints: list[Constraint],
    extra_row: tuple[dict[VarId, int], str, int],
    config: CheckerConfig,
) -> tuple[bool, dict[VarId, int] | None]:
    """Consistency of the spec with one extra linear row on the encoding."""
    encoding = build_encoding(dtd, constraints, config.max_setrep_attrs)
    coeffs, sense, rhs = extra_row
    if sense == "<=":
        encoding.condsys.base.add_le(coeffs, rhs, label="extent-probe")
    else:
        encoding.condsys.base.add_ge(coeffs, rhs, label="extent-probe")
    result, _stats = solve_conditional_system(
        encoding.condsys,
        backend=config.backend,
        max_support_nodes=config.max_support_nodes,
        lp_prune=config.lp_prune,
    )
    return result.feasible, (result.values if result.feasible else None)


def extent_bounds(
    dtd: DTD,
    constraints: Iterable[Constraint],
    element_type: str,
    probe_limit: int = 4096,
    config: CheckerConfig | None = None,
) -> ExtentBounds | None:
    """The feasible range of ``|ext(element_type)|`` under ``(D, Sigma)``.

    Returns ``None`` when the specification is inconsistent (no documents
    exist at all). Only unary constraint classes are supported (the same
    fragment as :func:`repro.checkers.check_consistency`).

    >>> from repro.workloads.examples import teachers_dtd_d1
    >>> bounds = extent_bounds(teachers_dtd_d1(), [], "subject")
    >>> bounds.minimum
    2
    >>> bounds.maximum is None   # teacher* makes it unbounded
    True
    """
    config = config or DEFAULT_CONFIG
    if element_type not in set(dtd.element_types):
        raise InvalidConstraintError(
            f"{element_type!r} is not an element type of the DTD"
        )
    constraints = list(constraints)
    var = ext_var(element_type)

    feasible, values = _feasible_with(
        dtd, constraints, ({var: 1}, ">=", 0), config
    )
    if not feasible:
        return None
    assert values is not None
    seed_count = values.get(var, 0)

    # Minimum: binary search on `ext <= k` over [0, seed_count].
    low, high = 0, seed_count
    while low < high:
        mid = (low + high) // 2
        ok, _ = _feasible_with(dtd, constraints, ({var: 1}, "<=", mid), config)
        if ok:
            high = mid
        else:
            low = mid + 1
    minimum = low

    # Maximum: probe the limit; if reachable, call it unbounded (within
    # the probe); otherwise binary search on `ext >= k`.
    ok, _ = _feasible_with(
        dtd, constraints, ({var: 1}, ">=", probe_limit), config
    )
    if ok:
        return ExtentBounds(element_type, minimum, None, probe_limit)
    low, high = max(minimum, seed_count), probe_limit - 1
    # Invariant: `ext >= low` feasible, `ext >= high + 1` infeasible.
    while low < high:
        mid = (low + high + 1) // 2
        ok, _ = _feasible_with(dtd, constraints, ({var: 1}, ">=", mid), config)
        if ok:
            low = mid
        else:
            high = mid - 1
    return ExtentBounds(element_type, minimum, low, probe_limit)
