"""``repro.api`` — the stable one-call facade over the toolkit.

The library grew four entry layers (checkers, analysis, the session
engine, the wire protocol), each with its own calling convention.  This
module is the narrow waist the CLI subcommands and the service's
:class:`~repro.service.session.SpecSession` dispatch both route
through: four verbs over one :class:`Spec` value, keyword-only
configuration, typed results.

* :func:`check` — is the specification consistent?  Returns the
  checker's :class:`~repro.checkers.results.ConsistencyResult`.
* :func:`implies` — does the specification imply ``phi``?  Returns an
  :class:`~repro.checkers.results.ImplicationResult`.
* :func:`diagnose` — why is it broken / what is redundant?  Returns a
  :class:`~repro.analysis.diagnostics.DiagnosticsReport`.
* :func:`repair` — what is the cheapest edit after which it is
  consistent?  Returns a :class:`~repro.analysis.repair.Repair`.

A :class:`Spec` is just ``(DTD, Sigma)`` with parsing helpers; every
verb also accepts a bare :class:`~repro.dtd.model.DTD` (empty Sigma) or
a ``(dtd, constraints)`` pair, so callers holding parsed objects never
wrap them by hand.

>>> spec = Spec.parse(
...     "<!ELEMENT r (a, a)><!ELEMENT a EMPTY>"
...     "<!ATTLIST r k CDATA #REQUIRED><!ATTLIST a k CDATA #REQUIRED>",
...     "a.k -> a\\na.k <= r.k",
... )
>>> check(spec).consistent
False
>>> sorted(str(phi) for phi in diagnose(spec).mus)
['a.k -> a', 'a.k <= r.k']
>>> fix = repair(spec)
>>> (fix.found, fix.cost, [action.describe() for action in fix.actions])
(True, 1, ['delete constraint a.k -> a'])
>>> implies(spec, "a.k -> a").implied    # an inconsistent spec implies all
True
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.checkers.implication import implies as _implies
from repro.checkers.results import ConsistencyResult, ImplicationResult
from repro.constraints.ast import Constraint
from repro.constraints.parser import parse_constraint, parse_constraints
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError

if TYPE_CHECKING:  # the analysis layer loads on first diagnose/mus/repair
    from repro.analysis.diagnostics import DiagnosticsReport, DiagnosticsStats
    from repro.analysis.repair import Repair, RepairStats

__all__ = [
    "Spec",
    "check",
    "implies",
    "diagnose",
    "mus",
    "repair",
]


@dataclass(frozen=True)
class Spec:
    """One XML specification: a DTD plus a constraint set Sigma."""

    dtd: DTD
    constraints: tuple[Constraint, ...] = ()

    @staticmethod
    def parse(
        dtd_text: str, constraints_text: str = "", *, root: str | None = None
    ) -> "Spec":
        """Build a :class:`Spec` from the two text syntaxes the CLI reads
        (``<!ELEMENT>``/``<!ATTLIST>`` declarations; one constraint per
        line, ``#`` comments)."""
        return Spec(
            dtd=parse_dtd(dtd_text, root=root),
            constraints=tuple(parse_constraints(constraints_text)),
        )

    def with_constraints(self, constraints: Iterable[Constraint]) -> "Spec":
        """The same DTD under a different Sigma."""
        return Spec(dtd=self.dtd, constraints=tuple(constraints))


def as_spec(spec: "Spec | DTD | tuple") -> Spec:
    """Coerce the accepted spec shapes into a :class:`Spec`.

    Accepts a :class:`Spec`, a bare :class:`~repro.dtd.model.DTD`
    (empty Sigma), or a ``(dtd, constraints)`` pair.
    """
    if isinstance(spec, Spec):
        return spec
    if isinstance(spec, DTD):
        return Spec(dtd=spec)
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], DTD):
        return Spec(dtd=spec[0], constraints=tuple(spec[1]))
    raise ReproError(
        "expected a Spec, a DTD, or a (dtd, constraints) pair, "
        f"got {type(spec).__name__}"
    )


def check(
    spec: "Spec | DTD | tuple", *, config: CheckerConfig | None = None
) -> ConsistencyResult:
    """Is the specification consistent — does any document satisfy it?"""
    resolved = as_spec(spec)
    return check_consistency(
        resolved.dtd, list(resolved.constraints), config or DEFAULT_CONFIG
    )


def implies(
    spec: "Spec | DTD | tuple",
    phi: "Constraint | str",
    *,
    config: CheckerConfig | None = None,
) -> ImplicationResult:
    """Does every document satisfying the specification satisfy ``phi``?

    ``phi`` may be a parsed constraint or its text syntax.
    """
    resolved = as_spec(spec)
    parsed = parse_constraint(phi) if isinstance(phi, str) else phi
    return _implies(
        resolved.dtd, list(resolved.constraints), parsed, config or DEFAULT_CONFIG
    )


def diagnose(
    spec: "Spec | DTD | tuple",
    *,
    config: CheckerConfig | None = None,
    mus_method: str = "quickxplain",
) -> DiagnosticsReport:
    """Specification health: a minimal conflict when inconsistent, the
    redundant constraints when consistent."""
    from repro.analysis.diagnostics import diagnose as _diagnose

    resolved = as_spec(spec)
    return _diagnose(
        resolved.dtd,
        list(resolved.constraints),
        config,
        mus_method=mus_method,
    )


def mus(
    spec: "Spec | DTD | tuple",
    *,
    config: CheckerConfig | None = None,
    method: str = "quickxplain",
    stats: DiagnosticsStats | None = None,
) -> list[Constraint]:
    """A minimal inconsistent subset of the specification's Sigma."""
    from repro.analysis.diagnostics import mus as _mus

    resolved = as_spec(spec)
    return _mus(
        resolved.dtd,
        list(resolved.constraints),
        config,
        method=method,
        stats=stats,
    )


def repair(
    spec: "Spec | DTD | tuple",
    *,
    config: CheckerConfig | None = None,
    weights: Mapping | None = None,
    core_method: str = "quickxplain",
    stats: RepairStats | None = None,
) -> Repair:
    """A minimum-weight edit making the specification consistent.

    The edit space is constraint deletions, cardinality loosenings
    (required child → optional) and attribute-requirement drops; the
    returned :class:`~repro.analysis.repair.Repair` carries the applied
    ``(dtd, constraints)``, a human-readable diff, and the verification
    verdict.  See :func:`repro.analysis.repair.minimal_repair` for the
    search and the ``weights`` contract.
    """
    from repro.analysis.repair import minimal_repair

    resolved = as_spec(spec)
    return minimal_repair(
        resolved.dtd,
        list(resolved.constraints),
        config,
        weights=weights,
        core_method=core_method,
        stats=stats,
    )
