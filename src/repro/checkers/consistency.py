"""Consistency checking: the XML SPECIFICATION CONSISTENCY problem.

Dispatch (Sections 3–5 of the paper):

* empty Sigma / keys only (any arity): linear time (Theorem 3.5);
* unary keys, foreign keys, inclusion constraints, negated keys, negated
  inclusion constraints: the linear-integer encoding ``Psi(D, Sigma)``
  solved with support branching and connectivity cuts (Theorems 4.1, 4.7,
  5.1; NP-complete, so exponential worst case with good typical behaviour);
* multi-attribute keys **and** foreign keys: undecidable (Theorem 3.1) —
  :class:`UndecidableProblemError` points callers to
  :func:`repro.checkers.bounded.bounded_consistency`.

Every "consistent" answer from the unary path is backed by an actual
witness tree, synthesized and re-verified against both the DTD and the
constraints, so encoder or solver bugs surface as hard errors rather than
wrong answers.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import fields

from repro.constraints.ast import Constraint
from repro.constraints.classes import (
    ConstraintClass,
    classify,
    validate_constraints,
)
from repro.constraints.satisfaction import violations
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.checkers.results import ConsistencyResult
from repro.dtd.analysis import has_valid_tree
from repro.dtd.model import DTD
from repro.encoding.combined import ConsistencyEncoding, build_encoding
from repro.errors import SolverError, UndecidableProblemError
from repro.ilp.condsys import CondSolveStats, solve_conditional_system
from repro.witness.synthesize import synthesize_witness
from repro.witness.values import make_all_values_distinct


def dtd_has_valid_tree(dtd: DTD) -> bool:
    """Theorem 3.5(1): is there any finite tree with ``T |= D``?

    Linear time (productivity fixpoint on the associated grammar).
    """
    return has_valid_tree(dtd)


#: The checker stats keys that differ from their :class:`CondSolveStats`
#: attribute; every other counter is reported under its own name.
STAT_RENAMES = {
    "leaves_solved": "leaves",
    "cuts_added": "cuts",
    "shortcut_hit": "shortcut",
}

#: ``(stats key, CondSolveStats attribute)`` in reporting order.
_STAT_FIELDS = tuple(
    (STAT_RENAMES.get(f.name, f.name), f.name) for f in fields(CondSolveStats)
)


def _stat_map(stats: CondSolveStats) -> dict[str, int | bool]:
    """The solver counters a :class:`ConsistencyResult` reports."""
    return {key: getattr(stats, name) for key, name in _STAT_FIELDS}


def _verify(
    witness, encoding: ConsistencyEncoding, constraints: list[Constraint]
) -> None:
    report = encoding.validator.validate(witness)
    if not report:
        raise SolverError(
            "internal error: synthesized witness does not conform to the DTD: "
            + "; ".join(report.errors[:3])
        )
    violated = violations(witness, constraints)
    if violated:
        raise SolverError(
            "internal error: synthesized witness violates constraints: "
            + "; ".join(str(phi) for phi in violated[:3])
        )


def _keys_only(
    dtd: DTD, constraints: list[Constraint], config: CheckerConfig
) -> ConsistencyResult:
    """Theorem 3.5(2): satisfiable iff the DTD has any valid tree."""
    if not has_valid_tree(dtd):
        return ConsistencyResult(
            False,
            method="keys-only (Thm 3.5)",
            message="the DTD admits no finite tree",
        )
    if not config.want_witness:
        return ConsistencyResult(True, method="keys-only (Thm 3.5)")
    # Build a minimal valid tree via the encoding with empty Sigma, then
    # make all values distinct so every key holds.
    encoding = build_encoding(dtd, [], max_setrep_attrs=config.max_setrep_attrs)
    result, stats = solve_conditional_system(
        encoding.condsys,
        backend=config.backend,
        max_support_nodes=config.max_support_nodes,
        lp_prune=config.lp_prune,
    )
    if not result.feasible:  # pragma: no cover - has_valid_tree said yes
        raise SolverError("encoding disagrees with the emptiness check")
    witness = synthesize_witness(encoding, result.values)
    make_all_values_distinct(witness, dtd)
    _verify(witness, encoding, constraints)
    return ConsistencyResult(
        True,
        witness=witness,
        method="keys-only (Thm 3.5)",
        stats=_stat_map(stats),
    )


def check_consistency(
    dtd: DTD,
    constraints: Iterable[Constraint] = (),
    config: CheckerConfig | None = None,
) -> ConsistencyResult:
    """Is there a finite XML tree with ``T |= D`` and ``T |= Sigma``?

    >>> from repro.dtd.model import DTD
    >>> from repro.constraints.parser import parse_constraints
    >>> d = DTD.build(
    ...     "teachers",
    ...     {"teachers": "(teacher+)", "teacher": "(teach, research)",
    ...      "teach": "(subject, subject)", "subject": "(#PCDATA)",
    ...      "research": "(#PCDATA)"},
    ...     attrs={"teacher": ["name"], "subject": ["taught_by"]},
    ... )
    >>> sigma = parse_constraints('''
    ...     teacher.name -> teacher
    ...     subject.taught_by -> subject
    ...     subject.taught_by => teacher.name
    ... ''')
    >>> check_consistency(d, sigma).consistent   # Section 1, (D1, Sigma1)
    False
    """
    config = config or DEFAULT_CONFIG
    constraints = list(constraints)
    validate_constraints(dtd, constraints)
    cls = classify(constraints)

    if cls in (ConstraintClass.EMPTY, ConstraintClass.K):
        return _keys_only(dtd, constraints, config)
    if cls == ConstraintClass.K_FK:
        raise UndecidableProblemError(
            "consistency for multi-attribute keys and foreign keys is "
            "undecidable (Theorem 3.1); use "
            "repro.checkers.bounded.bounded_consistency for a bounded search"
        )

    encoding = build_encoding(
        dtd, constraints, max_setrep_attrs=config.max_setrep_attrs
    )
    result, stats = solve_conditional_system(
        encoding.condsys,
        backend=config.backend,
        max_support_nodes=config.max_support_nodes,
        lp_prune=config.lp_prune,
    )
    stat_map = _stat_map(stats)
    method = f"ilp-encoding ({cls.value})"
    if not result.feasible:
        return ConsistencyResult(
            False, method=method, message=result.message, stats=stat_map
        )
    if not config.want_witness:
        return ConsistencyResult(True, method=method, stats=stat_map)
    witness = synthesize_witness(encoding, result.values)
    _verify(witness, encoding, constraints)
    return ConsistencyResult(
        True, witness=witness, method=method, stats=stat_map
    )
