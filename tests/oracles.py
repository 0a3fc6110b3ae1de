"""Differential oracles: the reference engines the product is tested against.

The product answers every consistency, implication, diagnostics and
repair question with one engine: assemble ``Psi(D, Sigma)`` once, patch
bounds, toggle rows (DESIGN.md sections 4-6).  The oracles below decide
the same questions the slow, simple way.  They are swapped in at seams
the product already has, so no flag or hook exists for them in
``src/repro``:

* :func:`legacy_rebuild` — replaces the checkers' module-level
  ``solve_conditional_system`` with :func:`solve_rebuild`, the
  from-scratch support search: a fresh :class:`LinearSystem` (and one
  assembly) per search node, rescan-to-fixpoint propagation, and
  connectivity cuts that die with their leaf;
* :func:`exact_cold` — replaces the warm certified twin's solve
  (``condsys._ExactTwin.solve``) with a cold certified solve of the
  materialized leaf, refactorized at every branch-and-bound node;
* :func:`rebuild_engines` — makes the toggle engines of diagnostics and
  repair (``_ToggleProbe``, ``_RepairProbe``) raise
  :class:`ComplexityLimitError`, so both take the automatic rebuild
  fallback that non-unary or over-cap specifications already take: one
  full checker call per probed subset or edit set;
* :func:`deletion_filter` — replaces the QuickXplain MUS filter of
  ``mus``, ``diagnose`` and repair's core extraction
  (``diagnostics._minimal_core``, which ``repair`` imports) with
  :func:`deletion`, the linear filter that probes exactly ``|Sigma|``
  subsets;
* :func:`wide_cores` — widens every repair core with every loosening
  outside the hitting set, whether or not its child can reach the
  conflict (``repair._loosening_reaches`` answers yes to all).

Each is a context manager that patches module attributes and restores
them on exit.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from contextlib import contextmanager
from dataclasses import replace

import repro.analysis.diagnostics as diagnostics
import repro.analysis.repair as repair
import repro.checkers.consistency as consistency
import repro.checkers.implication as implication
import repro.ilp.condsys as condsys
from repro.budget import check_deadline
from repro.constraints.ast import Constraint
from repro.errors import ComplexityLimitError, SolverError
from repro.ilp.assembled import AssembledSystem
from repro.ilp.condsys import (
    CondSolveStats,
    ConditionalSystem,
    _branching_order,
    _connectivity_cut,
    _unreachable_positive,
)
from repro.ilp.model import BoundPatch, LinearSystem, SolveResult, VarId


@contextmanager
def _patched(*targets: tuple[object, str, object]):
    """Set ``owner.name = value`` for each target; restore on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    for owner, name, value in targets:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


# ---------------------------------------------------------------------------
# legacy-rebuild: the from-scratch support search
# ---------------------------------------------------------------------------


def _leaf_rows(
    cs: ConditionalSystem, assignment: Mapping[str, bool]
) -> LinearSystem:
    """The plain ILP once every element type's support is decided."""
    leaf = cs.base.copy()
    for tau, present in assignment.items():
        ext = cs.ext_var[tau]
        if present:
            leaf.add_ge({ext: 1}, 1, label=f"support:{tau}")
            for var in cs.requires_if_present.get(tau, ()):
                leaf.add_ge({var: 1}, 1, label=f"attr-total:{tau}")
        else:
            leaf.add_eq({ext: 1}, 0, label=f"absent:{tau}")
    return leaf


def _partial_rows(
    cs: ConditionalSystem, assignment: Mapping[str, bool | None]
) -> LinearSystem:
    """Relaxation used for pruning: only decided supports constrained."""
    partial = cs.base.copy()
    for tau, decided in assignment.items():
        if decided is None:
            continue
        ext = cs.ext_var[tau]
        if decided:
            partial.add_ge({ext: 1}, 1)
            for var in cs.requires_if_present.get(tau, ()):
                partial.add_ge({var: 1}, 1)
        else:
            partial.add_eq({ext: 1}, 0)
    return partial


def _propagate(
    cs: ConditionalSystem, assignment: dict[str, bool | None]
) -> bool:
    """Unit-propagate support clauses by rescanning to a fixpoint; False
    on conflict.  The reference for ``condsys._propagate_indexed``."""
    changed = True
    while changed:
        changed = False
        for clause in cs.clauses:
            if assignment.get(clause.premise) is not True:
                continue
            if any(assignment.get(a) is True for a in clause.alternatives):
                continue
            open_alts = [
                a for a in clause.alternatives if assignment.get(a) is None
            ]
            if not open_alts:
                return False
            if len(open_alts) == 1:
                assignment[open_alts[0]] = True
                changed = True
    return True


def _solve_leaf(
    cs: ConditionalSystem,
    leaf: LinearSystem,
    solve: Callable[[LinearSystem], SolveResult],
    stats: CondSolveStats,
    max_cut_rounds: int,
) -> SolveResult:
    """Solve a from-scratch leaf ILP, iterating connectivity cuts locally;
    cuts found here are discarded when the leaf is abandoned."""
    for _ in range(max_cut_rounds):
        stats.leaves_solved += 1
        stats.assemblies += 1
        result = solve(leaf)
        if not result.feasible:
            return result
        unreachable = _unreachable_positive(cs, result.values)
        if not unreachable:
            return result
        cut = _connectivity_cut(cs, unreachable)
        if not cut:
            # No occurrence site can ever feed U from outside: with these
            # supports fixed positive, no tree exists.
            return SolveResult(
                "infeasible",
                message=f"positive types {sorted(unreachable)} cannot be connected",
            )
        stats.cuts_added += 1
        leaf.add_ge(cut, 1, label=f"connect:{','.join(sorted(unreachable)[:4])}")
    raise SolverError("connectivity cut loop did not converge")


def _make_solver(
    backend: str, stats: CondSolveStats
) -> Callable[[LinearSystem], SolveResult]:
    """A robust solve function: HiGHS with exact fallback, or exact only.

    The float side assembles each leaf system fresh (one
    :class:`AssembledSystem` per call) and falls back to the rational
    simplex when its answer is in doubt; work counters land in ``stats``.
    """
    from repro.ilp.exact import ExactStats, solve_exact

    def solve(system: LinearSystem) -> SolveResult:
        exact_stats = ExactStats()
        result = None
        if backend == "scipy":
            assembled = AssembledSystem(system)
            result = assembled.solve_int({})
            stats.book_solves(assembled)
        if result is None or result.status == "error":
            result = solve_exact(system, stats=exact_stats)
        stats.exact_nodes += exact_stats.nodes
        stats.exact_pivots += exact_stats.pivots
        stats.exact_warm_solves += exact_stats.warm_solves
        return result

    return solve


def solve_rebuild(
    cs: ConditionalSystem,
    backend: str = "scipy",
    max_support_nodes: int = 20000,
    max_cut_rounds: int = 200,
    lp_prune: bool = True,
    active_rows: frozenset[int] | None = None,
    workspace=None,
    inactive_clauses: frozenset[int] = frozenset(),
) -> tuple[SolveResult, CondSolveStats]:
    """Drop-in for ``condsys.solve_conditional_system``: the from-scratch
    reference search.

    Deactivated rows and clauses are simply absent from every rebuilt
    system.  ``workspace`` is accepted and ignored: the oracle keeps no
    state across calls.
    """
    del workspace
    if backend not in ("scipy", "exact"):
        raise SolverError(f"unknown backend {backend!r}")
    stats = CondSolveStats()
    inactive_rows = (
        frozenset(cs.toggleable_rows - active_rows)
        if active_rows is not None
        else frozenset()
    )
    if inactive_rows or inactive_clauses:
        cs = replace(
            cs,
            base=cs.base.copy(drop_rows=inactive_rows),
            clauses=tuple(
                clause
                for i, clause in enumerate(cs.clauses)
                if i not in inactive_clauses
            ),
        )

    assignment: dict[str, bool | None] = {tau: None for tau in cs.element_types}
    for tau in cs.forced_true:
        assignment[tau] = True
    for tau in cs.forced_false:
        if assignment.get(tau) is True:
            return (
                SolveResult(
                    "infeasible",
                    message=f"type {tau} is both required and unusable",
                ),
                stats,
            )
        assignment[tau] = False
    assignment[cs.root] = True

    solve = _make_solver(backend, stats)
    if not _propagate(cs, assignment):
        return SolveResult("infeasible", message="support propagation conflict"), stats

    # Shortcut: the maximal support (everything not forced out present) is
    # often feasible and found in one leaf solve.
    maximal = dict(assignment)
    for tau in cs.element_types:
        if maximal[tau] is None:
            maximal[tau] = True
    if _propagate(cs, maximal) and all(v is not None for v in maximal.values()):
        result = _solve_leaf(
            cs, _leaf_rows(cs, maximal), solve, stats, max_cut_rounds  # type: ignore[arg-type]
        )
        if result.feasible:
            stats.shortcut_hit = True
            return result, stats

    order = _branching_order(cs)

    def undecided(current: Mapping[str, bool | None]) -> str | None:
        for tau in order:
            if current[tau] is None:
                return tau
        return None

    stack: list[dict[str, bool | None]] = [assignment]
    while stack:
        current = stack.pop()
        stats.dfs_nodes += 1
        if stats.dfs_nodes > max_support_nodes:
            raise ComplexityLimitError(
                f"support search exceeded {max_support_nodes} nodes"
            )
        check_deadline()
        if not _propagate(cs, current):
            continue
        if lp_prune:
            stats.assemblies += 1
            probe = AssembledSystem(_partial_rows(cs, current))
            status = probe.lp_probe({}, want_values=False)[0]
            stats.book_solves(probe)
            if status == "infeasible":
                stats.lp_prunes += 1
                continue
        choice = undecided(current)
        if choice is None:
            result = _solve_leaf(
                cs, _leaf_rows(cs, current), solve, stats, max_cut_rounds  # type: ignore[arg-type]
            )
            if result.feasible:
                return result, stats
            continue
        with_false = dict(current)
        with_false[choice] = False
        with_true = dict(current)
        with_true[choice] = True
        stack.append(with_false)
        stack.append(with_true)
    return SolveResult("infeasible", message="support search exhausted"), stats


@contextmanager
def legacy_rebuild():
    """Decide every checker solve with :func:`solve_rebuild`."""
    with _patched(
        (consistency, "solve_conditional_system", solve_rebuild),
        (implication, "solve_conditional_system", solve_rebuild),
    ):
        yield


# ---------------------------------------------------------------------------
# exact-cold: certified solves without warm starts
# ---------------------------------------------------------------------------


def _solve_leaf_exact_cold(
    twin: condsys._ExactTwin,
    patches: Mapping[VarId, BoundPatch],
    active: set[int],
    stats: CondSolveStats,
    inactive_rows: frozenset[int] = frozenset(),
) -> SolveResult:
    """``_ExactTwin.solve`` without the warm basis: a cold certified
    solve of the materialized leaf."""
    from repro.ilp.exact import ExactStats, solve_exact

    exact_stats = ExactStats()
    result = solve_exact(
        twin._assembled.materialize(patches, active, inactive_rows),
        warm=False,
        stats=exact_stats,
    )
    stats.exact_nodes += exact_stats.nodes
    stats.exact_pivots += exact_stats.pivots
    return result


@contextmanager
def exact_cold():
    """Certify every leaf with a cold solve of the materialized system."""
    with _patched((condsys._ExactTwin, "solve", _solve_leaf_exact_cold)):
        yield


# ---------------------------------------------------------------------------
# rebuild engines: diagnostics and repair through full checker calls
# ---------------------------------------------------------------------------


def _no_toggle_engine(*args, **kwargs):
    raise ComplexityLimitError("toggle engine replaced by the rebuild oracle")


@contextmanager
def rebuild_engines():
    """Route ``diagnose``/``mus``/``redundant_constraints`` and
    ``minimal_repair`` through their rebuild fallback."""
    with _patched(
        (diagnostics, "_ToggleProbe", _no_toggle_engine),
        (repair, "_RepairProbe", _no_toggle_engine),
    ):
        yield


# ---------------------------------------------------------------------------
# deletion filter: the linear MUS reference
# ---------------------------------------------------------------------------


def deletion(
    check: Callable[[list[Constraint]], bool], sigma: list[Constraint]
) -> list[Constraint]:
    """The linear deletion filter: exactly ``|Sigma|`` probes.

    Drop each constraint in turn and keep it out while the rest stays
    inconsistent.  Its probe count is the baseline the QuickXplain gates
    (``benchmarks/bench_parallel.py``) compare against.  The function's
    name is the ``mus_method``/``core_method`` stats label under
    :func:`deletion_filter`.
    """
    current = list(sigma)
    index = 0
    while index < len(current):
        candidate = current[:index] + current[index + 1:]
        if check(candidate):
            index += 1  # constraint is necessary for the conflict
        else:
            current = candidate  # still inconsistent without it: drop
    return current


@contextmanager
def deletion_filter():
    """Shrink every MUS and repair core with :func:`deletion`."""
    with _patched(
        (diagnostics, "_minimal_core", deletion),
        (repair, "_minimal_core", deletion),
    ):
        yield


# ---------------------------------------------------------------------------
# wide cores: every loosening in every repair core
# ---------------------------------------------------------------------------


def _every_loosening(dtd):
    return lambda child, named: True


@contextmanager
def wide_cores():
    """Keep every loosening in repair's cores, reachable or not."""
    with _patched((repair, "_loosening_reaches", _every_loosening)):
        yield
