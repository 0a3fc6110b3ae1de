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
from repro.encoding.combined import build_encoding
from repro.errors import SolverError, UndecidableProblemError
from repro.ilp.condsys import solve_conditional_system
from repro.witness.synthesize import synthesize_witness
from repro.witness.values import make_all_values_distinct
from repro.xmltree.validate import conforms


def dtd_has_valid_tree(dtd: DTD) -> bool:
    """Theorem 3.5(1): is there any finite tree with ``T |= D``?

    Linear time (productivity fixpoint on the associated grammar).
    """
    return has_valid_tree(dtd)


def _verify(witness, dtd: DTD, constraints: list[Constraint]) -> None:
    report = conforms(witness, dtd)
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
        incremental=config.incremental,
        exact_warm=config.exact_warm,
    )
    if not result.feasible:  # pragma: no cover - has_valid_tree said yes
        raise SolverError("encoding disagrees with the emptiness check")
    witness = synthesize_witness(encoding, result.values)
    make_all_values_distinct(witness, dtd)
    if config.verify_witness:
        _verify(witness, dtd, constraints)
    return ConsistencyResult(
        True,
        witness=witness,
        method="keys-only (Thm 3.5)",
        stats={"dfs_nodes": stats.dfs_nodes, "leaves": stats.leaves_solved},
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
    return check_consistency_encoded(encoding, config)


def check_consistency_encoded(
    encoding,
    config: CheckerConfig | None = None,
    workspace=None,
) -> ConsistencyResult:
    """The ILP branch of :func:`check_consistency` on a prebuilt encoding.

    The session-layer hot path (:mod:`repro.service`): callers that hold
    a cached :class:`~repro.encoding.combined.ConsistencyEncoding` — and
    optionally a warm :class:`~repro.ilp.condsys.SolveWorkspace` over its
    base system — skip validation, classification and re-encoding and go
    straight to the solve.  With ``workspace=None`` this is *exactly* the
    code path :func:`check_consistency` takes after building the
    encoding, so results and stats are identical to the one-shot call;
    with a warm workspace, assembly is skipped and pooled cuts carry
    over, so the verdict (and any witness's validity) is unchanged but
    the work counters reflect the warm state.

    The caller is responsible for having validated ``encoding``'s
    constraints against its DTD (``build_encoding`` already does).
    """
    config = config or DEFAULT_CONFIG
    constraints = encoding.constraints
    cls = classify(constraints)
    result, stats = solve_conditional_system(
        encoding.condsys,
        backend=config.backend,
        max_support_nodes=config.max_support_nodes,
        lp_prune=config.lp_prune,
        incremental=config.incremental,
        exact_warm=config.exact_warm,
        workspace=workspace,
        jobs=config.jobs,
    )
    stat_map: dict[str, int | bool] = {
        "dfs_nodes": stats.dfs_nodes,
        "leaves": stats.leaves_solved,
        "cuts": stats.cuts_added,
        "lp_prunes": stats.lp_prunes,
        "shortcut": stats.shortcut_hit,
        "assemblies": stats.assemblies,
        "bound_patch_solves": stats.bound_patch_solves,
        "lp_solves": stats.lp_solves,
        "mip_solves": stats.mip_solves,
        "cut_pool_hits": stats.cut_pool_hits,
        "propagation_visits": stats.propagation_visits,
        "lp_probe_decided": stats.lp_probe_decided,
        "exact_nodes": stats.exact_nodes,
        "exact_pivots": stats.exact_pivots,
        "exact_warm_solves": stats.exact_warm_solves,
        "workers_spawned": stats.workers_spawned,
        "parallel_waves": stats.parallel_waves,
        "cuts_merged": stats.cuts_merged,
        "cut_merge_duplicates": stats.cut_merge_duplicates,
        "workers_crashed": stats.workers_crashed,
        "workers_respawned": stats.workers_respawned,
        "tasks_requeued": stats.tasks_requeued,
        "parallel_degraded": stats.parallel_degraded,
    }
    method = f"ilp-encoding ({cls.value})"
    if not result.feasible:
        return ConsistencyResult(
            False, method=method, message=result.message, stats=stat_map
        )
    if not config.want_witness:
        return ConsistencyResult(True, method=method, stats=stat_map)
    witness = synthesize_witness(encoding, result.values)
    if config.verify_witness:
        _verify(witness, encoding.dtd, constraints)
    return ConsistencyResult(
        True, witness=witness, method=method, stats=stat_map
    )
