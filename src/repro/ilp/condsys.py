"""Conditional linear systems with tree-connectivity side conditions.

The combined system of Theorem 4.1 is ``Psi(D, Sigma) = Psi_DN ∪ C_Sigma ∪
{ |ext(tau)| > 0 -> |ext(tau.l)| > 0 }``. Two features fall outside plain
ILP:

1. the **conditionals** — the paper big-M-encodes them with the
   (astronomical) Papadimitriou bound; we instead branch on the *support*:
   which element types have ``|ext(tau)| >= 1``. Once supports are fixed,
   each conditional becomes a plain linear row.
2. the **connectivity side condition** — an integer solution is realizable
   as a tree only if every positive element type is reachable from the root
   through positive occurrence variables (DESIGN.md section 3; this repairs
   the glossed step in the paper's Lemma 4.5). With supports fixed we
   enforce it with iterated connectivity cuts: whenever the solution leaves
   a positive set ``U`` unreachable, the valid inequality
   ``sum(occ edges entering U from outside) >= 1`` is added and the leaf is
   re-solved.

The search propagates *support clauses* (Horn-style implications derived
from the DTD rules and the inclusion constraints) and prunes with LP
relaxations; every answer is exact because pruning only uses definite LP
infeasibility and every leaf solution is verified integer-exactly.

Incremental core (DESIGN.md section 4): every per-node delta is a
*variable-bound* change, so the base system is assembled exactly once
(:class:`repro.ilp.assembled.AssembledSystem`) and each DFS node or LP
prune patches bound arrays instead of rebuilding matrices.  Connectivity
cuts go into a pool shared across leaves: a cut learned for an unreachable
set ``U`` is valid for *any* solution in which some member of ``U`` is
present (the root-to-member path must enter ``U`` from outside), so each
pool entry carries ``U`` as its guard and is activated exactly when the
current support decisions intersect it.  A single LP probe of the root
relaxation decides most instances outright: definite infeasibility refutes
the whole search, and an integral vertex that passes the exact row check,
the conditionals and the connectivity check is already a realizable answer.

The certified backend shares the same shape (DESIGN.md section 5): a
lazily-built :class:`repro.ilp.exact.ExactAssembledSystem` twin takes the
identical ``(patches, active)`` pair per leaf and re-solves by dual-simplex
bound patches on a warm basis, with pool cuts mirrored so indices align;
``exact_warm=False`` falls back to cold solves of materialized leaves for
differential testing.

Toggleable rows (DESIGN.md section 6) extend the bound-patch discipline to
row *subsets*: a :class:`ConditionalSystem` may register base rows as
toggleable, and :func:`solve_conditional_system` takes ``active_rows`` —
the subset to keep — plus a :class:`SolveWorkspace` that shares the
assembled system, the certified twin and the cut pool across calls.  This
is the diagnostics workload: one assembly of ``Psi(D, Sigma ∪ ¬Sigma)``,
then one patched re-solve per probed constraint subset.

Parallel support-branch solving (DESIGN.md section 7): support branches
are independent, so ``solve_conditional_system(..., jobs=N)`` expands the
root of the search into a frontier of propagated subproblems and fans
them across a fork-based :class:`WorkerPool`.  Neither the persistent
HiGHS instances nor the live exact factorization are shareable across
workers, so each worker owns a full workspace — its own
:class:`SolveWorkspace` built worker-side over the pickled base (the
equivalent of :meth:`SolveWorkspace.clone` for state that cannot cross
the process boundary), with its own :class:`AssembledSystem`,
lazily-built :class:`ExactAssembledSystem` twin and *local* cut pool;
pools are
reconciled at wave boundaries by :meth:`_CutPool.merge` — a guarded
dedup keyed on the canonical coefficient form and the guard set — so a
cut learned on one branch prunes sibling branches dispatched in later
waves.  Verdicts are schedule-independent: the frontier partitions the
support completions exactly, merged cuts are valid under every subset
(their justification is structural), and a feasible answer from any
worker is exact-checked like every other leaf.
"""

from __future__ import annotations

import contextvars
import os
import queue
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.budget import check_deadline
from repro.errors import (
    BudgetExceededError,
    ComplexityLimitError,
    SolverError,
    WorkerCrashError,
)
from repro.service.faults import fault_active, fault_seconds
from repro.ilp.assembled import AssembledSystem
from repro.ilp.model import (
    BoundPatch,
    LinearSystem,
    SolveResult,
    VarId,
    canonical_coeffs,
)

if TYPE_CHECKING:  # the rational simplex loads on its first solve
    from repro.ilp.exact import ExactAssembledSystem


@dataclass(frozen=True)
class SupportClause:
    """``s(premise) -> OR s(a) for a in alternatives``.

    An empty alternative set means the premise can never be present.
    """

    premise: str
    alternatives: frozenset[str]


@dataclass
class ConditionalSystem:
    """A linear system plus support conditionals and connectivity data.

    Attributes
    ----------
    base:
        The unconditional linear rows (``Psi_DN`` and ``C_Sigma``).
    ext_var:
        Maps each node symbol (element types and the text symbol) to its
        ``|ext(.)|`` variable.
    root:
        The root element type (its extent is pinned to 1 in ``base``).
    element_types:
        All element types of the simplified DTD — the support search
        branches exactly over these.
    edges:
        Occurrence sites ``(occ_var, parent_symbol, child_symbol)`` used
        for connectivity checking and cuts.
    requires_if_present:
        Per element type, variables forced ``>= 1`` when the type is
        present (the ``|ext(tau.l)|`` conditionals).
    clauses:
        Support implications for propagation/pruning (sound, not complete —
        completeness comes from exhaustive branching).
    forced_true / forced_false:
        Types whose support is fixed up front (the root and types forced by
        negated constraints; unusable types respectively).
    toggleable_rows:
        Base-row indices registered as toggleable (the per-constraint
        ``C_Sigma`` and negated-constraint rows).  ``active_rows`` on
        :func:`solve_conditional_system` selects a subset of these; rows
        outside this set are always active.
    toggleable_clauses:
        Indices into :attr:`clauses` of the support clauses contributed by
        toggleable constraints.  Clauses outside this set depend only on
        the DTD and stay active under every probe, which lets workspace
        batches cache their closure.
    """

    base: LinearSystem
    ext_var: dict[str, VarId]
    root: str
    element_types: tuple[str, ...]
    edges: tuple[tuple[VarId, str, str], ...]
    requires_if_present: dict[str, tuple[VarId, ...]] = field(default_factory=dict)
    clauses: tuple[SupportClause, ...] = ()
    forced_true: frozenset[str] = frozenset()
    forced_false: frozenset[str] = frozenset()
    toggleable_rows: frozenset[int] = frozenset()
    toggleable_clauses: frozenset[int] = frozenset()


@dataclass
class CondSolveStats:
    """Search statistics, reported for benchmarks and diagnostics."""

    dfs_nodes: int = 0
    leaves_solved: int = 0
    cuts_added: int = 0
    lp_prunes: int = 0
    shortcut_hit: bool = False
    #: Full matrix assemblies performed (1 on the incremental path).
    assemblies: int = 0
    #: Solves served by patching the assembled system's bound arrays.
    bound_patch_solves: int = 0
    #: HiGHS runs of the LP-relaxation engine (probes and LP-first solves).
    lp_solves: int = 0
    #: HiGHS MIP runs: integer solves whose LP vertex was fractional.
    mip_solves: int = 0
    #: Leaf solves at which a cut learned by an *earlier* leaf was active.
    cut_pool_hits: int = 0
    #: Clause examinations during unit propagation (worklist work).
    propagation_visits: int = 0
    #: The root LP probe decided the instance by itself.
    lp_probe_decided: bool = False
    #: Branch-and-bound nodes expanded by the certified exact backend.
    exact_nodes: int = 0
    #: Dual-simplex pivots performed by the certified exact backend.
    exact_pivots: int = 0
    #: Exact LP re-solves served warm from a carried-over basis.
    exact_warm_solves: int = 0
    #: Worker processes this solve fanned subproblems across (0 when the
    #: search ran sequentially — including jobs>1 calls decided before any
    #: branching happened).
    workers_spawned: int = 0
    #: Frontier dispatch rounds; cut pools are reconciled between waves.
    parallel_waves: int = 0
    #: Worker-discovered cuts accepted into the shared pool by the merge
    #: policy (post-dedup).
    cuts_merged: int = 0
    #: Worker-discovered cuts dropped as duplicates during merges.
    cut_merge_duplicates: int = 0
    #: Worker processes that died mid-solve (detected by exitcode).
    workers_crashed: int = 0
    #: Replacement workers forked after a crash (bounded by the pool's
    #: respawn budget).
    workers_respawned: int = 0
    #: Tasks requeued because the worker running them died.
    tasks_requeued: int = 0
    #: The pool was lost beyond recovery and the solve re-ran on the
    #: sequential ``jobs=1`` path (verdict byte-identical by construction).
    parallel_degraded: bool = False

    def book_solves(
        self, assembled: AssembledSystem, before: tuple[int, int] = (0, 0)
    ) -> None:
        """Add the HiGHS runs ``assembled`` made since ``before``."""
        lp, mip = assembled.solve_counts
        self.lp_solves += lp - before[0]
        self.mip_solves += mip - before[1]

    def absorb(self, worker: "CondSolveStats | Mapping[str, int | bool]") -> None:
        """Fold a worker's counters into this (parent) stats object.

        Integer counters add; boolean flags OR.  Used when reconciling the
        per-worker :class:`CondSolveStats` of a parallel solve, so the
        parent's totals account for all work done anywhere.
        """
        values = worker if isinstance(worker, Mapping) else asdict(worker)
        for name, value in values.items():
            current = getattr(self, name)
            if isinstance(current, bool):
                setattr(self, name, current or bool(value))
            else:
                setattr(self, name, current + int(value))


def _leaf_rows(
    cs: ConditionalSystem, assignment: Mapping[str, bool]
) -> LinearSystem:
    """The plain ILP once every element type's support is decided.

    This is the from-scratch (``incremental=False``) construction, kept as
    the reference the bound-patching path is differentially tested against.
    """
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


def _bound_patches(
    cs: ConditionalSystem, assignment: Mapping[str, bool | None]
) -> dict[VarId, BoundPatch]:
    """The decided part of an assignment as variable-bound patches.

    ``support:tau`` becomes ``lower(ext) = 1``, ``absent:tau`` becomes
    ``upper(ext) = 0`` and each ``attr-total`` conditional becomes
    ``lower(var) = 1`` — no new rows, ever.
    """
    patches: dict[VarId, BoundPatch] = {}

    def tighten(var: VarId, lo: int | None, hi: int | None) -> None:
        old_lo, old_hi = patches.get(var, (None, None))
        if lo is not None and (old_lo is None or lo > old_lo):
            old_lo = lo
        if hi is not None and (old_hi is None or hi < old_hi):
            old_hi = hi
        patches[var] = (old_lo, old_hi)

    for tau, decided in assignment.items():
        if decided is None:
            continue
        ext = cs.ext_var[tau]
        if decided:
            tighten(ext, 1, None)
            for var in cs.requires_if_present.get(tau, ()):
                tighten(var, 1, None)
        else:
            tighten(ext, None, 0)
    return patches


def _unreachable_positive(
    cs: ConditionalSystem, values: Mapping[VarId, int]
) -> frozenset[str]:
    """Positive symbols not reachable from the root via positive edges."""
    positive = {
        symbol for symbol, var in cs.ext_var.items() if values.get(var, 0) > 0
    }
    if cs.root not in positive:
        return frozenset(positive)
    adjacency: dict[str, set[str]] = {}
    for occ_var, parent, child in cs.edges:
        if values.get(occ_var, 0) > 0:
            adjacency.setdefault(parent, set()).add(child)
    reached = {cs.root}
    frontier = [cs.root]
    while frontier:
        node = frontier.pop()
        for child in adjacency.get(node, ()):
            if child in reached:
                continue
            reached.add(child)
            frontier.append(child)
    return frozenset(positive - reached)


def _connectivity_cut(
    cs: ConditionalSystem, unreachable: frozenset[str]
) -> dict[VarId, int]:
    """``sum(occ edges entering U from outside) >= 1`` coefficient map."""
    cut: dict[VarId, int] = {}
    for occ_var, parent, child in cs.edges:
        if child in unreachable and parent not in unreachable:
            cut[occ_var] = cut.get(occ_var, 0) + 1
    return cut


def _satisfies_conditionals(
    cs: ConditionalSystem, values: Mapping[VarId, int]
) -> bool:
    """Do the values satisfy every ``present -> required`` conditional?"""
    for tau in cs.element_types:
        if values.get(cs.ext_var[tau], 0) > 0:
            for var in cs.requires_if_present.get(tau, ()):
                if values.get(var, 0) < 1:
                    return False
    return True


class _ExactTwin:
    """Lazily-built certified twin of an :class:`AssembledSystem`.

    The warm exact backend (:class:`ExactAssembledSystem`) shares the base
    system and the cut-pool indices with the float engine, so a leaf can be
    handed the *same* patch lists either way.  Construction is deferred to
    the first exact solve (most scipy-backed searches never need it); cuts
    learned before that are replayed at build time and cuts learned after
    are mirrored by :meth:`notify_cut`, keeping pool indices aligned.
    """

    def __init__(self, assembled: AssembledSystem):
        self._assembled = assembled
        self._exact: ExactAssembledSystem | None = None

    @property
    def built(self) -> bool:
        return self._exact is not None

    def get(self) -> ExactAssembledSystem:
        if self._exact is None:
            from repro.ilp.exact import ExactAssembledSystem

            self._exact = ExactAssembledSystem(self._assembled.system)
            for i in range(self._assembled.num_cuts):
                row = self._assembled.cut_row(i)
                self._exact.add_cut(dict(row.coeffs), row.rhs, label=row.label)
        return self._exact

    def notify_cut(self, coeffs: Mapping[VarId, int], rhs: int, label: str) -> None:
        if self._exact is not None:
            self._exact.add_cut(coeffs, rhs, label=label)

    def solve(
        self,
        patches: Mapping[VarId, BoundPatch],
        active: set[int],
        stats: CondSolveStats,
        inactive_rows: frozenset[int] = frozenset(),
    ) -> SolveResult:
        """Warm certified solve, with work counters folded into ``stats``."""
        exact = self.get()
        before = (exact.stats.nodes, exact.stats.pivots, exact.stats.warm_solves)
        result = exact.solve_int(patches, active, inactive_rows=inactive_rows)
        stats.exact_nodes += exact.stats.nodes - before[0]
        stats.exact_pivots += exact.stats.pivots - before[1]
        stats.exact_warm_solves += exact.stats.warm_solves - before[2]
        return result


@dataclass(frozen=True)
class CutRecord:
    """One connectivity cut in transferable form (DESIGN.md section 7).

    The currency of the two-level cut pool: workers
    :meth:`~_CutPool.export` their locally-discovered cuts as records, the
    parent :meth:`~_CutPool.merge`\\ s them into the shared pool, and the
    next dispatch wave seeds sibling workers with the merged set.  The
    right-hand side is always 1 (``sum(occ entering U) >= 1``), so a
    record is fully determined by its coefficients, guard and label.
    """

    coeffs: tuple[tuple[VarId, int], ...]
    guard: frozenset[str]
    label: str = ""

    @property
    def key(self) -> tuple:
        """Dedup key: canonical coefficient form plus the guard set."""
        return (self.coeffs, self.guard)


#: Origin marker for cuts that arrived via :meth:`_CutPool.merge` rather
#: than local discovery — distinct from every real leaf id (those are
#: >= 1), so merged cuts always count as shared-pool hits.
_MERGED_ORIGIN = -1


class _CutPool:
    """Connectivity cuts shared across leaves, with presence guards.

    A cut learned for unreachable set ``U`` asserts ``sum(occ entering U
    from outside) >= 1`` — valid for every tree-realizable solution in
    which *some* element type of ``U`` is present (the root-to-node path
    must cross into ``U``), and trivially violated when all of ``U`` is
    absent (totality zeroes every entering edge).  Each entry therefore
    carries its guard and is only activated for nodes whose decided-present
    set intersects it.  Entries are mirrored into the certified exact twin
    (when built) so both backends agree on cut indices.

    Pools are single-owner (they drive a single-owner
    :class:`AssembledSystem`), but their *contents* move between owners:
    :meth:`export` renders every entry as a :class:`CutRecord` and
    :meth:`merge` imports foreign records under the dedup policy —
    a record is accepted iff no entry with the same canonical
    coefficients *and* guard exists.  Merging never reorders or removes
    existing entries, so cut indices already handed to the engines stay
    valid, and the merge result is independent of the order in which
    worker pools are reconciled (set union under a canonical key).
    """

    def __init__(self, assembled: AssembledSystem, exact_twin: "_ExactTwin | None" = None):
        self._assembled = assembled
        self._exact_twin = exact_twin
        self._guards: list[frozenset[str]] = []
        self._origin: list[int] = []
        self._records: list[CutRecord] = []
        self._keys: set[tuple] = set()

    def __len__(self) -> int:
        return len(self._guards)

    def add(
        self, coeffs: Mapping[VarId, int], guard: frozenset[str], origin_leaf: int,
        label: str = "",
    ) -> None:
        self._assembled.add_cut(coeffs, 1, label=label)
        if self._exact_twin is not None:
            self._exact_twin.notify_cut(coeffs, 1, label)
        self._guards.append(guard)
        self._origin.append(origin_leaf)
        record = CutRecord(canonical_coeffs(coeffs), guard, label)
        self._records.append(record)
        self._keys.add(record.key)

    def export(self) -> tuple[CutRecord, ...]:
        """Every pool entry as a transferable :class:`CutRecord`."""
        return tuple(self._records)

    def merge(self, records: Iterable[CutRecord]) -> tuple[int, int]:
        """Import foreign cut records; returns ``(accepted, duplicates)``.

        The dedup policy keys on ``(canonical coefficients, guard)``: two
        workers that hit the same unreachable set independently learn
        byte-identical cuts, and exactly one survives.  Accepted records
        append to the assembled system (and the exact twin) like locally
        learned cuts, but carry the :data:`_MERGED_ORIGIN` marker so
        ``shared_hits`` counts them as foreign knowledge.
        """
        accepted = duplicates = 0
        for record in records:
            if record.key in self._keys:
                duplicates += 1
                continue
            self.add(
                dict(record.coeffs), record.guard, _MERGED_ORIGIN,
                label=record.label,
            )
            accepted += 1
        return accepted, duplicates

    def active_for(self, present: set[str]) -> set[int]:
        return {
            i for i, guard in enumerate(self._guards) if guard & present
        }

    def shared_hits(self, active: set[int], current_leaf: int) -> int:
        """How many active cuts were learned by a different leaf?"""
        return sum(1 for i in active if self._origin[i] != current_leaf)


class SolveWorkspace:
    """Persistent solver state shared across related solve calls.

    Batch callers — diagnostics probing many constraint subsets of one
    specification — create a workspace once and pass it to every
    :func:`solve_conditional_system` call.  All calls then share one
    :class:`AssembledSystem` (the single base assembly), one lazily-built
    certified twin (whose warm basis carries across subsets), and one
    connectivity-cut pool: a cut's validity argument is purely structural
    (any tree with a member of its guard present must enter the guard set
    from outside), so cuts learned under one row subset remain valid under
    every other.

    ``take_assembly_charge`` books the one-time assembly to exactly one
    call's stats, so summing per-call ``assemblies`` over a batch reports
    precisely 1 — the invariant the diagnostics acceptance test asserts.
    """

    def __init__(self, base: LinearSystem):
        self.assembled = AssembledSystem(base)
        self.exact_twin = _ExactTwin(self.assembled)
        self.pool = _CutPool(self.assembled, self.exact_twin)
        self.leaf_counter = 0
        self.solve_calls = 0
        self._assembly_charged = False
        self._checked_out = False
        # Both caches key by the clause tuple *value* (SupportClause is
        # hashable): batch callers keep one tuple object alive across
        # probes, so the hash is computed over an interned object, and a
        # recreated equal tuple still hits — never a stale entry (an
        # id()-keyed cache could serve a dead tuple's reused address).
        self._clause_indices: dict[tuple[SupportClause, ...], _ClauseIndex] = {}
        self._closure_cache: dict[tuple, tuple] = {}

    def base_closures(
        self,
        cs: ConditionalSystem,
        clause_index: "_ClauseIndex",
        stats: CondSolveStats,
    ) -> tuple:
        """Support closures under the always-active clauses, cached.

        Returns ``(ok, closure, maximal)``: the propagation closure of
        ``{root} ∪ forced_false`` and the all-present maximal completion,
        both computed with every toggleable clause disabled.  Those inputs
        are constraint-subset independent (only ``forced_true`` and the
        active clause set vary between probes), so each probe merely
        overlays its forced supports and re-examines its active toggleable
        clauses instead of re-deriving the DTD skeleton.
        """
        key = (cs.clauses, cs.root, cs.forced_false)
        cached = self._closure_cache.get(key)
        if cached is None:
            closure: dict[str, bool | None] = {
                tau: None for tau in cs.element_types
            }
            for tau in cs.forced_false:
                closure[tau] = False
            closure[cs.root] = True
            ok = _propagate_indexed(
                clause_index, closure, [cs.root, *cs.forced_false], stats,
                cs.toggleable_clauses,
            )
            maximal: dict[str, bool | None] | None = {
                tau: tau not in cs.forced_false for tau in cs.element_types
            }
            if not _propagate_indexed(
                clause_index, maximal, list(cs.element_types), stats,
                cs.toggleable_clauses,
            ) or not all(value is not None for value in maximal.values()):
                maximal = None
            cached = (ok, closure, maximal)
            self._closure_cache[key] = cached
        return cached

    def clause_index(self, clauses: tuple[SupportClause, ...]) -> "_ClauseIndex":
        """Memoized propagation index — batch callers keep the full clause
        tuple stable across probes (clause subsets are selected via
        ``inactive_clauses``, not by rebuilding the tuple), so every probe
        after the first reuses one index."""
        index = self._clause_indices.get(clauses)
        if index is None:
            index = _ClauseIndex(clauses)
            self._clause_indices[clauses] = index
        return index

    @property
    def assemblies(self) -> int:
        """Base-matrix assemblies performed over the workspace lifetime."""
        return self.assembled.assemblies

    def take_assembly_charge(self) -> int:
        """1 on the first call, 0 after — books the assembly exactly once."""
        if self._assembly_charged:
            return 0
        self._assembly_charged = True
        return self.assembled.assemblies

    def clone(self) -> "SolveWorkspace":
        """An independent workspace over the same base system.

        The in-process form of the parallel executor's ownership rule
        (DESIGN.md section 7): persistent HiGHS instances and the live
        exact factorization are single-owner state, so concurrent use
        requires a full clone — its own assembly, its own lazily-built
        certified twin, its own cut pool — never a shared handle.  The
        clone starts with a *copy* of this pool's cuts (imported through
        the merge policy, so they count as foreign knowledge) and
        afterwards evolves independently; reconciliation is explicit,
        via ``parent.pool.merge(clone.pool.export())``.  Fork workers
        cannot receive a clone object (live solver state does not cross
        the process boundary), so they re-derive the equivalent state
        worker-side — a fresh workspace over the pickled base, seeded
        with the parent pool's exported cut records; ``clone()`` is the
        same operation for same-process callers.

        The clone pays its own base assembly: cloning is how a batch
        *chooses* to trade one assembly per worker for parallel progress.

        >>> base = LinearSystem()
        >>> _ = base.add_ge({("ext", "r"): 1}, 1)
        >>> parent = SolveWorkspace(base)
        >>> worker = parent.clone()
        >>> worker.assembled is parent.assembled
        False
        >>> worker.assembled.system is parent.assembled.system
        True
        """
        clone = SolveWorkspace(self.assembled.system)
        clone.pool.merge(self.pool.export())
        return clone

    def export_cuts(self) -> tuple[CutRecord, ...]:
        """Every pooled connectivity cut as a transferable record.

        The cross-*request* face of the two-level cut pool (DESIGN.md
        sections 7-8): a long-lived session exports a workspace's cuts
        after each solve and re-seeds future workspaces over the same
        DTD skeleton with them.  A connectivity cut's justification is
        purely structural — any tree with a member of its guard present
        must enter the guard set from outside — so the records stay
        valid for *every* constraint set encoded over the same DTD.
        """
        return self.pool.export()

    def adopt_cuts(self, records: Iterable[CutRecord]) -> tuple[int, int]:
        """Seed this workspace with previously exported cut records.

        Returns ``(accepted, duplicates)`` under the standard merge
        policy (dedup on canonical coefficients + guard).  Records whose
        variables do not exist in this workspace's base system are
        skipped rather than imported: a cut can only mention columns the
        assembled matrix actually has (cuts over one DTD's skeleton all
        share those columns; foreign records from other DTDs never
        transfer).
        """
        known = set(self.assembled.system.variables)
        portable = [
            record
            for record in records
            if all(var in known for var, _ in record.coeffs)
        ]
        return self.pool.merge(portable)

    def checkout(self) -> "_WorkspaceLease":
        """Claim exclusive use of this workspace for one solve sequence.

        Persistent HiGHS instances and the live exact factorization are
        single-owner state; a long-lived service holding workspaces
        across requests must never let two requests patch the same
        instance concurrently.  ``checkout()`` returns a context manager
        that marks the workspace busy for its duration and raises
        :class:`SolverError` on overlapping claims — turning a silent
        data race into a hard error at the boundary where request
        scheduling went wrong.

        >>> base = LinearSystem()
        >>> _ = base.add_ge({("ext", "r"): 1}, 1)
        >>> ws = SolveWorkspace(base)
        >>> with ws.checkout():
        ...     with ws.checkout():
        ...         pass
        Traceback (most recent call last):
            ...
        repro.errors.SolverError: workspace is already checked out
        """
        return _WorkspaceLease(self)


class _WorkspaceLease:
    """Context manager enforcing single-owner workspace checkout."""

    def __init__(self, workspace: SolveWorkspace):
        self._workspace = workspace

    def __enter__(self) -> SolveWorkspace:
        if self._workspace._checked_out:
            raise SolverError("workspace is already checked out")
        self._workspace._checked_out = True
        return self._workspace

    def __exit__(self, *exc_info) -> None:
        self._workspace._checked_out = False


def _pool_worker(
    task_queue, result_queue, initializer: Callable, payload: object
) -> None:
    """Worker main loop (the fork target of :class:`WorkerPool`).

    Initializes once, then serves ``(index, fn, task)`` items from its
    *own* task queue until the ``None`` sentinel.  Task attribution is
    parent-side (the parent records what it assigned to whom before the
    worker ever sees it), so a worker that dies without answering leaves
    no ambiguity about which task it took down — even when it dies too
    abruptly to flush any message (``os._exit``, SIGKILL, segfault).
    """
    try:
        initializer(payload)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        result_queue.put(
            ("init_failed", os.getpid(), type(exc).__name__, str(exc))
        )
        return
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, fn, task = item
        try:
            value = fn(task)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            result_queue.put(
                ("failed", os.getpid(), index, type(exc).__name__, str(exc))
            )
        else:
            result_queue.put(("done", os.getpid(), index, value))


def _rebuild_exception(kind: str, message: str) -> Exception:
    """A worker exception, reconstructed by class name on the parent side.

    Library exception types round-trip (so callers' ``except`` clauses
    behave as they would have under in-process execution); anything else
    is wrapped in :class:`SolverError`.
    """
    from repro import errors as errors_module

    cls = getattr(errors_module, kind, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except Exception:  # noqa: BLE001 - exotic signature
            pass
    return SolverError(f"worker task failed: {kind}: {message}")


class _WorkerSlot:
    """One pool slot: its process, its private task queue, and the index
    of the task currently assigned to it (``None`` when idle)."""

    __slots__ = ("process", "tasks", "busy")

    def __init__(self, process, tasks):
        self.process = process
        self.tasks = tasks
        self.busy: int | None = None


class WorkerPool:
    """Fork-based pool of solver worker processes (DESIGN.md sections 7/9).

    Owns raw ``fork``-context processes, one private task queue each —
    not ``multiprocessing.Pool``, whose ``map`` blocks forever when a
    worker dies mid-task — and pins the process-ownership rules of the
    parallel executor:

    * every worker is initialized exactly once with a pickled payload
      (``initializer(payload)``) and builds its own single-owner solver
      state there — per-worker :class:`SolveWorkspace` clones, never
      shared handles, because neither the persistent HiGHS instances nor
      the live exact factorization are safe to share across processes;
    * tasks are dispatched with :meth:`map`, which preserves task order
      in its results, so callers get deterministic result alignment
      regardless of which worker ran which task;
    * a worker that dies (any exitcode: segfault, OOM kill, ``os._exit``)
      is detected by reaping its exitcode.  Attribution is parent-side
      — the parent assigns one task at a time per worker and remembers
      the assignment — so the lost task is known without relying on any
      message the dying worker managed to flush; it is requeued for the
      surviving workers, and a replacement is forked while the respawn
      budget (one respawn per original slot) lasts.  Only when every
      worker is dead with work still outstanding does :meth:`map` raise
      :class:`~repro.errors.WorkerCrashError` — the signal for callers
      to degrade to their sequential path.  ``crashes``, ``respawns``
      and ``requeues`` count the recovery work for the stats surface.

    Fork is required (workers must inherit the imported solver stack
    cheaply); on platforms without it callers degrade to the sequential
    path — :meth:`available` is the gate.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Callable,
        payload: object,
        respawn_limit: int | None = None,
    ):
        if jobs < 2:
            raise SolverError("WorkerPool needs at least 2 workers")
        self.jobs = jobs
        self.crashes = 0
        self.respawns = 0
        self.requeues = 0
        self._respawn_limit = jobs if respawn_limit is None else respawn_limit
        # Deferred like the exact backend: a one-worker search never forks.
        import multiprocessing

        self._ctx = multiprocessing.get_context("fork")
        self._initializer = initializer
        self._payload = payload
        self._results = self._ctx.Queue()
        self._slots = [self._spawn() for _ in range(jobs)]

    def _spawn(self) -> _WorkerSlot:
        tasks = self._ctx.Queue()
        process = self._ctx.Process(
            target=_pool_worker,
            args=(tasks, self._results, self._initializer, self._payload),
            daemon=True,
        )
        process.start()
        return _WorkerSlot(process, tasks)

    @staticmethod
    def available() -> bool:
        """Can a fork pool be built on this platform?"""
        import multiprocessing

        return (
            hasattr(os, "fork")
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def map(self, fn: Callable, tasks: Sequence) -> list:
        """Run ``fn`` over ``tasks``; results come back in task order.

        Survives worker deaths per the class recovery policy; raises
        :class:`~repro.errors.WorkerCrashError` only when the pool is
        lost beyond recovery (every verdict already collected stays
        collected — the caller's sequential fallback recomputes, it
        never double-counts).
        """
        tasks = list(tasks)
        if not self._slots:
            raise WorkerCrashError(
                "worker pool has no live workers", self.crashes, self.respawns
            )
        results: list = [None] * len(tasks)
        finished: set[int] = set()
        pending: list[int] = list(reversed(range(len(tasks))))
        self._dispatch(fn, tasks, pending)
        while len(finished) < len(tasks):
            try:
                message = self._results.get(timeout=0.05)
            except queue.Empty:
                self._reap(pending)
                self._dispatch(fn, tasks, pending)
                continue
            tag = message[0]
            if tag == "done":
                _, pid, index, value = message
                self._release(pid)
                # A task can legitimately complete twice: its first
                # worker died *after* answering but before the answer
                # was read, so the task was conservatively requeued.
                # First answer wins (both are the same deterministic
                # computation).
                if index not in finished:
                    finished.add(index)
                    results[index] = value
                self._dispatch(fn, tasks, pending)
            elif tag == "failed":
                _, pid, _, kind, text = message
                self._release(pid)
                raise _rebuild_exception(kind, text)
            elif tag == "init_failed":
                _, _, kind, text = message
                raise SolverError(
                    f"worker initialization failed: {kind}: {text}"
                )
        return results

    def _dispatch(self, fn: Callable, tasks: list, pending: list[int]) -> None:
        """Hand each idle worker its next task (one at a time per worker,
        so a crash forfeits at most one task)."""
        for slot in self._slots:
            if not pending:
                return
            if slot.busy is None:
                index = pending.pop()
                slot.busy = index
                slot.tasks.put((index, fn, tasks[index]))

    def _release(self, pid: int) -> None:
        """Mark the slot that answered from ``pid`` idle again."""
        for slot in self._slots:
            if slot.process.pid == pid:
                slot.busy = None
                return

    def _reap(self, pending: list[int]) -> None:
        """Collect dead workers: requeue their tasks, respawn replacements.

        Raises :class:`WorkerCrashError` when no worker survives and the
        respawn budget is spent — the unrecoverable case.
        """
        survivors = []
        for slot in self._slots:
            if slot.process.exitcode is None:
                survivors.append(slot)
                continue
            slot.process.join()
            self.crashes += 1
            if slot.busy is not None:
                self.requeues += 1
                pending.append(slot.busy)
            slot.tasks.close()
            slot.tasks.cancel_join_thread()
            if self.respawns < self._respawn_limit:
                self.respawns += 1
                survivors.append(self._spawn())
        self._slots = survivors
        if not survivors:
            raise WorkerCrashError(
                f"all workers died ({self.crashes} crash(es); "
                "respawn budget spent)",
                self.crashes,
                self.respawns,
            )

    def close(self) -> None:
        for slot in self._slots:
            slot.process.terminate()
        for slot in self._slots:
            slot.process.join(timeout=5.0)
            slot.tasks.close()
            slot.tasks.cancel_join_thread()
        self._slots = []
        self._results.close()
        self._results.cancel_join_thread()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def effective_parallelism() -> int:
    """CPU cores actually available to this process.

    The one detection primitive every parallel gate derives from —
    benchmark speedup skips (``benchmarks/conftest.py``), the jobs
    sweeps of the differential fuzz harness, and the serving benchmarks
    all consult it, so local runs and CI's cgroup-limited 2-core runners
    skip (or downscale) the same way.  Prefers ``os.sched_getaffinity``
    (which sees CPU-set limits the way container runtimes apply them)
    and falls back to ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


#: The ambient per-wave latency observer (None = nobody watching).  Set
#: by the service layer around a solve so the parallel dispatcher can
#: report wave timings without the solver depending on the metrics
#: module; travels through a ContextVar for the same reason the request
#: deadline does (per-executor-thread, no parameter threading).
_WAVE_OBSERVER: contextvars.ContextVar[Callable[[float, int], None] | None] = (
    contextvars.ContextVar("repro_wave_observer", default=None)
)


@contextmanager
def wave_observer_scope(observer: Callable[[float, int], None] | None):
    """Run a block with ``observer(elapsed_seconds, wave_width)`` called
    after every parallel wave dispatched inside it.

    The hook feeds the service's :class:`~repro.service.metrics.StatsCollector`
    (wave-latency histogram) and the ``--jobs auto`` controller; it is
    observational only — observer exceptions are swallowed, and solver
    results and :class:`CondSolveStats` are byte-identical with or
    without a scope open.
    """
    if observer is None:
        yield
        return
    token = _WAVE_OBSERVER.set(observer)
    try:
        yield
    finally:
        _WAVE_OBSERVER.reset(token)


def _notify_wave(elapsed: float, width: int) -> None:
    observer = _WAVE_OBSERVER.get()
    if observer is None:
        return
    try:
        observer(elapsed, width)
    except Exception:  # pragma: no cover - observers must not break solves
        pass


def parallel_sweep_allowed(jobs: int) -> bool:
    """Should a correctness sweep run a ``jobs``-worker configuration here?

    Worker counts up to 2 always run (pool-engagement coverage must
    survive single-core containers); beyond that, counts above twice the
    effective cores are pure oversubscription — they exercise no new
    schedule and dominate CI wall clock on 2-core runners — and are
    skipped.  Wall-clock *speedup* gates are stricter (they need
    ``effective_parallelism() >= jobs``; see ``benchmarks/conftest.py``).
    Both guards read :func:`effective_parallelism`, so local runs and CI
    runners skip the same way.
    """
    return jobs <= 2 or jobs <= 2 * effective_parallelism()


def fanout_map(
    fn: Callable,
    tasks: Sequence,
    jobs: int,
    initializer: Callable,
    payload: object,
) -> list:
    """One-shot fan-out of independent tasks over a :class:`WorkerPool`.

    The shared executor entry point for batch callers
    (:func:`repro.checkers.implication.implies_all`, the diagnostics
    audit): build a pool of at most ``min(jobs, len(tasks))`` workers,
    initialize each with ``payload``, map, tear down.  Results are in
    task order.  Callers gate on :meth:`WorkerPool.available` and fall
    back to their sequential loop when it is false.
    """
    workers = min(jobs, len(tasks))
    if workers < 2:
        raise SolverError("fanout_map needs >= 2 workers and >= 2 tasks")
    with WorkerPool(workers, initializer, payload) as pool:
        return pool.map(fn, tasks)


#: Per-process state of a branch worker, set by :func:`_init_branch_worker`
#: (runs once per worker under the fork context) and read by every
#: :func:`_branch_task` the worker executes.
_BRANCH_WORKER: dict = {}


def _init_branch_worker(payload: tuple) -> None:
    """Worker initializer: adopt the instance and build owned solver state."""
    cs, params = payload
    _BRANCH_WORKER["cs"] = cs
    _BRANCH_WORKER["params"] = params
    _BRANCH_WORKER["workspace"] = SolveWorkspace(cs.base)


#: Exception classes a worker may legitimately raise, shipped back by
#: name so the parent can decide *after* the wave whether a sibling's
#: feasible verdict makes the error moot (a feasible answer is sound
#: regardless of what happened on other branches).
_RAISABLE = {
    "ComplexityLimitError": ComplexityLimitError,
    "SolverError": SolverError,
    "BudgetExceededError": BudgetExceededError,
}


def _branch_task(task: tuple) -> tuple:
    """Solve one frontier subproblem inside a worker process.

    ``task`` is ``(assignment_items, seed_cuts)``: a propagated partial
    support assignment plus the shared pool's current cut records.  The
    worker merges the seeds into its local pool (dedup makes re-seeding
    across waves free), runs the ordinary sequential subtree search on
    its own workspace, and ships back the verdict, its work counters and
    the cuts it *discovered* (everything past the seed watermark).

    Expected solver exceptions (complexity budget, cut-loop divergence)
    are returned as ``("raised", ..., kind)`` rather than raised: the
    parent must see the whole wave before deciding, because a sibling's
    exact-checked feasible answer outranks this subtree's failure.
    """
    if fault_active("worker.kill"):
        os._exit(113)
    cs = _BRANCH_WORKER["cs"]
    params = _BRANCH_WORKER["params"]
    workspace = _BRANCH_WORKER["workspace"]
    assignment_items, seed_cuts = task
    workspace.pool.merge(seed_cuts)
    watermark = len(workspace.pool)
    stats = CondSolveStats()
    stats.assemblies = workspace.take_assembly_charge()

    def next_leaf_id() -> int:
        workspace.leaf_counter += 1
        return workspace.leaf_counter

    try:
        result = _dfs_search(
            cs,
            [(dict(assignment_items), None)],
            clause_index=workspace.clause_index(cs.clauses),
            assembled=workspace.assembled,
            pool=workspace.pool,
            exact_twin=workspace.exact_twin,
            next_leaf_id=next_leaf_id,
            stats=stats,
            **params,
        )
        status, values, message = result.status, result.values, result.message
        kind = ""
    except (ComplexityLimitError, SolverError, BudgetExceededError) as exc:
        status, values, message = "raised", {}, str(exc)
        kind = type(exc).__name__
    discovered = workspace.pool.export()[watermark:]
    return status, values, message, asdict(stats), discovered, kind


class _ClauseIndex:
    """Premise/alternative -> clause index, for worklist propagation.

    ``by_symbol`` watches every symbol occurrence (used for externally
    decided seeds, which may be ``False``); ``by_premise`` watches the
    premise only — sufficient for symbols the worklist itself derives,
    which are always ``True`` (a ``True`` alternative merely satisfies
    its clause, so those clauses need no re-examination).
    """

    def __init__(self, clauses: tuple[SupportClause, ...]):
        self.clauses = clauses
        by_symbol: dict[str, list[int]] = {}
        by_premise: dict[str, list[int]] = {}
        for index, clause in enumerate(clauses):
            by_symbol.setdefault(clause.premise, []).append(index)
            by_premise.setdefault(clause.premise, []).append(index)
            for alternative in clause.alternatives:
                by_symbol.setdefault(alternative, []).append(index)
        self.by_symbol = {
            symbol: tuple(indices) for symbol, indices in by_symbol.items()
        }
        self.by_premise = {
            symbol: tuple(indices) for symbol, indices in by_premise.items()
        }


def _propagate_indexed(
    index: _ClauseIndex,
    assignment: dict[str, bool | None],
    seeds: list[str],
    stats: CondSolveStats,
    disabled: frozenset[int] = frozenset(),
    extra_clause_ids: tuple[int, ...] = (),
) -> bool:
    """Worklist unit propagation from the seed symbols; False on conflict.

    Only clauses watching a changed symbol are re-examined, replacing the
    all-clauses rescan-until-fixpoint of the original implementation.
    Sound for the same reason: a clause's state only changes when one of
    its symbols (premise or alternative) changes value.  Seeds carry the
    full watch list (they may be ``False`` decisions, which shrink a
    clause's open alternatives); symbols derived *during* propagation are
    always ``True`` and only activate clauses premised on them.
    ``extra_clause_ids`` are examined unconditionally up front — callers
    resuming from a cached closure pass the clauses whose activation the
    closure did not see.
    """
    clauses = index.clauses
    by_symbol = index.by_symbol
    by_premise = index.by_premise
    visits = 0
    queue: list[tuple[str, bool]] = [(symbol, False) for symbol in seeds]
    pending = list(extra_clause_ids)
    conflict = False
    while pending or queue:
        if pending:
            scan = (pending.pop(),)
        else:
            symbol, derived = queue.pop()
            watchers = by_premise if derived else by_symbol
            scan = watchers.get(symbol, ())
        for clause_id in scan:
            if clause_id in disabled:
                continue  # clause belongs to a deactivated constraint
            clause = clauses[clause_id]
            visits += 1
            if assignment.get(clause.premise) is not True:
                continue
            satisfied = False
            open_alts: list[str] = []
            for alternative in clause.alternatives:
                value = assignment.get(alternative)
                if value is True:
                    satisfied = True
                    break
                if value is None:
                    open_alts.append(alternative)
            if satisfied:
                continue
            if not open_alts:
                conflict = True
                break
            if len(open_alts) == 1:
                assignment[open_alts[0]] = True
                queue.append((open_alts[0], True))
        if conflict:
            break
    stats.propagation_visits += visits
    return not conflict


def _propagate(
    cs: ConditionalSystem, assignment: dict[str, bool | None]
) -> bool:
    """Unit-propagate support clauses; False on conflict.

    Reference implementation (rescan to fixpoint), kept for the
    ``incremental=False`` path and as the differential oracle for
    :func:`_propagate_indexed`.
    """
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
    """Solve a from-scratch leaf ILP, iterating connectivity cuts locally.

    Used by the ``incremental=False`` reference path; cuts found here are
    discarded when the leaf is abandoned.
    """
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


def _solve_leaf_exact_cold(
    assembled: AssembledSystem,
    patches: Mapping[VarId, BoundPatch],
    active: set[int],
    stats: CondSolveStats,
    inactive_rows: frozenset[int] = frozenset(),
) -> SolveResult:
    """Cold certified solve on a materialized leaf (reference path)."""
    from repro.ilp.exact import ExactStats, solve_exact

    exact_stats = ExactStats()
    result = solve_exact(
        assembled.materialize(patches, active, inactive_rows),
        warm=False,
        stats=exact_stats,
    )
    stats.exact_nodes += exact_stats.nodes
    stats.exact_pivots += exact_stats.pivots
    return result


def _solve_leaf_assembled(
    cs: ConditionalSystem,
    assembled: AssembledSystem,
    pool: _CutPool,
    assignment: Mapping[str, bool],
    backend: str,
    stats: CondSolveStats,
    max_cut_rounds: int,
    leaf_id: int,
    exact_twin: _ExactTwin,
    exact_warm: bool,
    inactive_rows: frozenset[int] = frozenset(),
) -> SolveResult:
    """Solve a leaf by patching bounds on the assembled system.

    Connectivity cuts discovered here go into the shared pool (guarded by
    their unreachable set) so later leaves inherit them for free.  Both
    backends take the same ``(patches, active, inactive_rows)`` triple: the
    float engine patches its bound arrays and row bounds, the certified
    engine dual-simplex-patches a warm basis (``exact_warm=False`` falls
    back to a cold solve of the materialized leaf, the reference the fuzz
    harness checks against).
    """
    patches = _bound_patches(cs, assignment)
    present = {tau for tau, decided in assignment.items() if decided}
    # The foreign active set is fixed for the whole leaf (cuts added during
    # the rounds carry this leaf's id), so count the pool hit once.
    if pool.shared_hits(pool.active_for(present), leaf_id):
        stats.cut_pool_hits += 1

    def certify(active: set[int]) -> SolveResult:
        if exact_warm:
            return exact_twin.solve(patches, active, stats, inactive_rows)
        return _solve_leaf_exact_cold(assembled, patches, active, stats, inactive_rows)

    for _ in range(max_cut_rounds):
        stats.leaves_solved += 1
        active = pool.active_for(present)
        if backend == "exact":
            result = certify(active)
        else:
            stats.bound_patch_solves += 1
            before = assembled.solve_counts
            result = assembled.solve_int(patches, active, inactive_rows)
            stats.book_solves(assembled, before)
            if result.status == "error":
                # Floating-point trouble: certify with the exact solver.
                result = certify(active)
        if not result.feasible:
            return result
        unreachable = _unreachable_positive(cs, result.values)
        if not unreachable:
            return result
        cut = _connectivity_cut(cs, unreachable)
        if not cut:
            return SolveResult(
                "infeasible",
                message=f"positive types {sorted(unreachable)} cannot be connected",
            )
        stats.cuts_added += 1
        guard = unreachable & set(cs.element_types)
        if not guard:  # pragma: no cover - totality makes this impossible
            raise SolverError("connectivity cut with no element-type guard")
        pool.add(
            cut,
            frozenset(guard),
            leaf_id,
            label=f"connect:{','.join(sorted(unreachable)[:4])}",
        )
    raise SolverError("connectivity cut loop did not converge")


def _make_solver(
    backend: str, exact_warm: bool, stats: CondSolveStats
) -> Callable[[LinearSystem], SolveResult]:
    """A robust solve function: HiGHS with exact fallback, or exact only.

    The float side assembles each leaf system fresh (one
    :class:`AssembledSystem` per call) and falls back to the rational
    simplex when its answer is in doubt.  ``exact_warm`` selects basis
    reuse *within* each certified solve (the rebuild path constructs a
    fresh system per leaf, so there is no state to carry across calls);
    work counters land in ``stats``.
    """
    if backend not in ("exact", "scipy"):
        raise SolverError(f"unknown backend {backend!r}")
    from repro.ilp.exact import ExactStats, solve_exact

    def solve(system: LinearSystem) -> SolveResult:
        exact_stats = ExactStats()
        result = None
        if backend == "scipy":
            assembled = AssembledSystem(system)
            result = assembled.solve_int({})
            stats.book_solves(assembled)
        if result is None or result.status == "error":
            result = solve_exact(system, warm=exact_warm, stats=exact_stats)
        stats.exact_nodes += exact_stats.nodes
        stats.exact_pivots += exact_stats.pivots
        stats.exact_warm_solves += exact_stats.warm_solves
        return result

    return solve


def solve_conditional_system(
    cs: ConditionalSystem,
    backend: str = "scipy",
    max_support_nodes: int = 20000,
    max_cut_rounds: int = 200,
    lp_prune: bool = True,
    incremental: bool = True,
    exact_warm: bool = True,
    active_rows: frozenset[int] | None = None,
    workspace: SolveWorkspace | None = None,
    inactive_clauses: frozenset[int] = frozenset(),
    jobs: int = 1,
) -> tuple[SolveResult, CondSolveStats]:
    """Decide the conditional system; return a realizable solution if any.

    The returned solution (when feasible) satisfies the active base rows,
    all conditionals, and the connectivity side condition — i.e. it is
    realizable as an XML tree by :mod:`repro.witness`.

    ``jobs`` fans independent support branches across a fork-based
    :class:`WorkerPool` of that many processes (DESIGN.md section 7).
    The *verdict* is identical to ``jobs=1`` — the frontier partitions
    the support completions exactly and every worker runs the same
    sequential subtree search — but work counters reflect the schedule
    (``workers_spawned``, ``parallel_waves``, ``cuts_merged``), and a
    feasible instance may return a different — equally valid, still
    exact-checked — witness.  The one carve-out is the resource budget:
    ``max_support_nodes`` bounds each worker's subtree individually, so
    near the budget a parallel run may complete a search the sequential
    run aborts with :class:`ComplexityLimitError` (it never flips a
    completed verdict).  Parallelism engages only when the search
    actually branches: instances decided by the root LP probe or the
    maximal-support shortcut, callers holding a ``workspace`` (single-
    owner state), and platforms without ``fork`` all take the sequential
    path unchanged.

    >>> trivial = LinearSystem()
    >>> _ = trivial.add_ge({("ext", "r"): 1}, 1)
    >>> cs_jobs = ConditionalSystem(
    ...     base=trivial, ext_var={"r": ("ext", "r")}, root="r",
    ...     element_types=("r",), edges=(),
    ... )
    >>> result, stats = solve_conditional_system(cs_jobs, jobs=4)
    >>> (result.status, stats.workers_spawned)   # decided pre-branching
    ('feasible', 0)

    ``active_rows`` selects the subset of ``cs.toggleable_rows`` to keep
    active for this call (``None`` = all of them; rows never registered as
    toggleable are always active), and ``inactive_clauses`` disables the
    support clauses (by index into ``cs.clauses``) contributed by the
    deactivated constraints — a clause from a deactivated constraint could
    wrongly prune a feasible completion, so callers must disable the two
    together; ``cs.forced_true`` must likewise be filtered by the caller
    (via ``dataclasses.replace``).  ``workspace`` shares the assembled
    system, the certified twin, the connectivity-cut pool and the clause
    index across calls — the diagnostics batch shape: one assembly, many
    row subsets.

    ``incremental=False`` selects the from-scratch reference path (one
    matrix assembly per solve, no cut sharing; deactivated rows are
    dropped from the rebuilt systems); ``exact_warm=False`` selects the
    cold per-node refactorization path of the certified backend.  All
    exist for differential testing and ablation, and must always agree
    with the defaults.

    >>> sys = LinearSystem()
    >>> blocked = sys.add_eq({("ext", "r"): 1}, 0, label="toggle-me")
    >>> sys.add_ge({("ext", "r"): 1}, 1)
    1
    >>> cs = ConditionalSystem(
    ...     base=sys, ext_var={"r": ("ext", "r")}, root="r",
    ...     element_types=("r",), edges=(),
    ...     toggleable_rows=frozenset({blocked}),
    ... )
    >>> solve_conditional_system(cs)[0].status          # ext == 0 and >= 1
    'infeasible'
    >>> result, stats = solve_conditional_system(cs, active_rows=frozenset())
    >>> (result.status, stats.assemblies)
    ('feasible', 1)
    """
    if backend not in ("scipy", "exact"):
        raise SolverError(f"unknown backend {backend!r}")
    stats = CondSolveStats()
    inactive_rows = (
        frozenset(cs.toggleable_rows - active_rows)
        if active_rows is not None
        else frozenset()
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

    if incremental:
        try:
            return _solve_incremental(
                cs, assignment, backend, max_support_nodes, max_cut_rounds,
                lp_prune, stats, exact_warm, inactive_rows, workspace,
                inactive_clauses, jobs,
            )
        except WorkerCrashError as crash:
            # The pool was lost beyond recovery.  Degrade to the
            # sequential path *from scratch* (partial wave results and
            # merged cuts are discarded — re-deriving them is the cheap
            # price of the byte-identical-to-``jobs=1`` guarantee).
            result, seq_stats = solve_conditional_system(
                cs,
                backend=backend,
                max_support_nodes=max_support_nodes,
                max_cut_rounds=max_cut_rounds,
                lp_prune=lp_prune,
                incremental=incremental,
                exact_warm=exact_warm,
                active_rows=active_rows,
                workspace=workspace,
                inactive_clauses=inactive_clauses,
                jobs=1,
            )
            seq_stats.parallel_degraded = True
            seq_stats.workers_crashed += crash.crashes
            seq_stats.workers_respawned += crash.respawns
            return result, seq_stats
    # The from-scratch reference path stays sequential regardless of
    # ``jobs`` — it exists to be the simplest possible oracle.
    return _solve_rebuild(
        cs, assignment, backend, max_support_nodes, max_cut_rounds,
        lp_prune, stats, exact_warm, inactive_rows, inactive_clauses,
    )


def _branching_order(cs: ConditionalSystem) -> list[str]:
    """Constrained types first (their supports interact with Sigma), then
    DTD order — via a precomputed position map, not repeated .index()."""
    involved = set(cs.requires_if_present) | {
        clause.premise for clause in cs.clauses
    }
    position = {tau: i for i, tau in enumerate(cs.element_types)}
    return sorted(
        cs.element_types,
        key=lambda tau: (tau not in involved, position[tau]),
    )


def _maximal_support(
    cs: ConditionalSystem,
    clause_index: _ClauseIndex,
    assignment: Mapping[str, bool | None],
    stats: CondSolveStats,
    inactive_clauses: frozenset[int] = frozenset(),
) -> dict[str, bool | None] | None:
    """The maximal completion (everything undecided present), propagated;
    ``None`` when it conflicts or leaves a symbol undecided."""
    maximal = dict(assignment)
    for tau in cs.element_types:
        if maximal[tau] is None:
            maximal[tau] = True
    if _propagate_indexed(
        clause_index, maximal, list(cs.element_types), stats, inactive_clauses
    ) and all(value is not None for value in maximal.values()):
        return maximal
    return None


def _solve_incremental(
    cs: ConditionalSystem,
    assignment: dict[str, bool | None],
    backend: str,
    max_support_nodes: int,
    max_cut_rounds: int,
    lp_prune: bool,
    stats: CondSolveStats,
    exact_warm: bool,
    inactive_rows: frozenset[int],
    workspace: SolveWorkspace | None,
    inactive_clauses: frozenset[int],
    jobs: int = 1,
) -> tuple[SolveResult, CondSolveStats]:
    """Assemble-once/bound-patch support search (DESIGN.md section 4);
    with ``jobs > 1`` the branching phase fans out per section 7."""
    clause_index = (
        workspace.clause_index(cs.clauses)
        if workspace is not None
        else _ClauseIndex(cs.clauses)
    )
    maximal_view: dict[str, bool | None] | None | str = "unset"
    base_maximal: dict[str, bool | None] | None = None
    use_closure = workspace is not None
    active_toggle_clauses: tuple[int, ...] = ()
    if use_closure:
        # Resume from the cached always-active closure: overlay this
        # probe's forced supports and re-examine only its active
        # toggleable clauses (the closure was computed with all of them
        # disabled).
        closure_ok, closure, base_maximal = workspace.base_closures(
            cs, clause_index, stats
        )
        if not closure_ok:
            return (
                SolveResult("infeasible", message="support propagation conflict"),
                stats,
            )
        merged = dict(closure)
        seeds = []
        for tau, value in assignment.items():
            if value is not None and merged.get(tau) is None:
                merged[tau] = value
                seeds.append(tau)
        assignment = merged
        active_toggle_clauses = tuple(cs.toggleable_clauses - inactive_clauses)
    else:
        seeds = [tau for tau, value in assignment.items() if value is not None]
    if not _propagate_indexed(
        clause_index, assignment, seeds, stats, inactive_clauses,
        active_toggle_clauses,
    ):
        return (
            SolveResult("infeasible", message="support propagation conflict"),
            stats,
        )
    root_patches = _bound_patches(cs, assignment)

    if workspace is not None:
        if workspace.assembled.system is not cs.base:
            raise SolverError(
                "workspace was assembled from a different base system"
            )
        assembled = workspace.assembled
        exact_twin = workspace.exact_twin
        pool = workspace.pool
        stats.assemblies = workspace.take_assembly_charge()
        workspace.solve_calls += 1
    else:
        assembled = AssembledSystem(cs.base)
        stats.assemblies = assembled.assemblies
        exact_twin = _ExactTwin(assembled)
        pool = _CutPool(assembled, exact_twin)

    def next_leaf_id() -> int:
        if workspace is not None:
            workspace.leaf_counter += 1
            return workspace.leaf_counter
        nonlocal leaf_counter
        leaf_counter += 1
        return leaf_counter

    leaf_counter = 0

    # Single LP probe of the root relaxation: definite infeasibility
    # refutes every support completion at once, and an integral vertex
    # that passes the exact checks is already a realizable answer.
    root_probed = False
    if lp_prune and backend == "scipy":
        before = assembled.solve_counts
        status, candidate = assembled.lp_probe(
            root_patches, set(), inactive_rows=inactive_rows, verified=True
        )
        stats.bound_patch_solves += 1
        stats.book_solves(assembled, before)
        root_probed = status != "unknown"
        if status == "infeasible":
            stats.lp_probe_decided = True
            return (
                SolveResult("infeasible", message="root LP relaxation infeasible"),
                stats,
            )
        if (
            status == "feasible"
            and candidate is not None  # verified: already exact-checked
            and _satisfies_conditionals(cs, candidate)
            and not _unreachable_positive(cs, candidate)
        ):
            stats.shortcut_hit = True
            stats.lp_probe_decided = True
            return SolveResult("feasible", candidate), stats

    # Shortcut: the maximal support (everything not forced out present) is
    # often feasible and found in one leaf solve.
    if maximal_view == "unset":
        if use_closure:
            # The cached all-present completion is fully decided; only the
            # probe's active toggleable clauses still need a conflict scan.
            if base_maximal is not None and _propagate_indexed(
                clause_index, dict(base_maximal), [], stats,
                inactive_clauses, active_toggle_clauses,
            ):
                maximal_view = dict(base_maximal)
            else:
                maximal_view = None
        else:
            maximal_view = _maximal_support(
                cs, clause_index, assignment, stats, inactive_clauses
            )
    if maximal_view is not None:
        result = _solve_leaf_assembled(
            cs, assembled, pool, maximal_view, backend, stats,  # type: ignore[arg-type]
            max_cut_rounds, next_leaf_id(), exact_twin, exact_warm,
            inactive_rows,
        )
        if result.feasible:
            stats.shortcut_hit = True
            return result, stats

    stack = [(assignment, None)]
    skip_first_lp = root_probed
    if jobs > 1 and workspace is None and WorkerPool.available():
        frontier = _frontier(
            cs, assignment, clause_index, stats, inactive_clauses,
            target=2 * jobs,
        )
        if len(frontier) >= 2:
            result = _solve_parallel(
                cs, frontier, pool, stats, backend, max_support_nodes,
                max_cut_rounds, lp_prune, exact_warm, inactive_rows,
                inactive_clauses, jobs,
            )
            return result, stats
        # The instance did not split: fall through to the sequential DFS,
        # seeded with the frontier (its expansion work — propagation and
        # node counts — is kept, not redone; an empty frontier means every
        # child conflicted, which the empty stack reports as infeasible).
        stack = [(entry, None) for entry in frontier]
        skip_first_lp = False  # the root probe covered the root, not these

    result = _dfs_search(
        cs,
        stack,
        clause_index=clause_index,
        assembled=assembled,
        pool=pool,
        exact_twin=exact_twin,
        next_leaf_id=next_leaf_id,
        stats=stats,
        backend=backend,
        max_support_nodes=max_support_nodes,
        max_cut_rounds=max_cut_rounds,
        lp_prune=lp_prune,
        exact_warm=exact_warm,
        inactive_rows=inactive_rows,
        inactive_clauses=inactive_clauses,
        skip_first_lp=skip_first_lp,
    )
    return result, stats


def _dfs_search(
    cs: ConditionalSystem,
    stack: list[tuple[dict[str, bool | None], str | None]],
    *,
    clause_index: _ClauseIndex,
    assembled: AssembledSystem,
    pool: _CutPool,
    exact_twin: _ExactTwin,
    next_leaf_id: Callable[[], int],
    stats: CondSolveStats,
    backend: str,
    max_support_nodes: int,
    max_cut_rounds: int,
    lp_prune: bool,
    exact_warm: bool,
    inactive_rows: frozenset[int],
    inactive_clauses: frozenset[int],
    skip_first_lp: bool = False,
) -> SolveResult:
    """Exhaust the support subtrees rooted at the given stack entries.

    The sequential DFS core, shared verbatim by the single-process path
    (one root entry) and by every parallel worker (one frontier
    subproblem per call, against the worker's own workspace).  Stack
    entries carry the symbol decided last, seeding propagation;
    ``skip_first_lp`` elides the first node's LP probe when the caller
    just probed the identical relaxation (the root LP probe).
    """
    order = _branching_order(cs)

    def undecided(current: Mapping[str, bool | None]) -> str | None:
        for tau in order:
            if current[tau] is None:
                return tau
        return None

    first_node = True
    while stack:
        current, decided = stack.pop()
        stats.dfs_nodes += 1
        if stats.dfs_nodes > max_support_nodes:
            raise ComplexityLimitError(
                f"support search exceeded {max_support_nodes} nodes"
            )
        delay = fault_seconds("solve.delay")
        if delay:
            time.sleep(delay)
        check_deadline()
        seeds = (
            [decided]
            if decided is not None
            else [tau for tau, value in current.items() if value is not None]
        )
        if not _propagate_indexed(
            clause_index, current, seeds, stats, inactive_clauses
        ):
            continue
        if lp_prune and not (first_node and skip_first_lp and len(pool) == 0):
            patches = _bound_patches(cs, current)
            decided_true = {
                tau for tau, value in current.items() if value is True
            }
            active = pool.active_for(decided_true)
            before = assembled.solve_counts
            status, _ = assembled.lp_probe(
                patches, active, want_values=False, inactive_rows=inactive_rows
            )
            stats.bound_patch_solves += 1
            stats.book_solves(assembled, before)
            if status == "infeasible":
                stats.lp_prunes += 1
                first_node = False
                continue
        first_node = False
        choice = undecided(current)
        if choice is None:
            result = _solve_leaf_assembled(
                cs, assembled, pool, current, backend, stats,  # type: ignore[arg-type]
                max_cut_rounds, next_leaf_id(), exact_twin, exact_warm,
                inactive_rows,
            )
            if result.feasible:
                return result
            continue
        with_false = dict(current)
        with_false[choice] = False
        with_true = dict(current)
        with_true[choice] = True
        stack.append((with_false, choice))
        stack.append((with_true, choice))
    return SolveResult("infeasible", message="support search exhausted")


def _frontier(
    cs: ConditionalSystem,
    assignment: dict[str, bool | None],
    clause_index: _ClauseIndex,
    stats: CondSolveStats,
    inactive_clauses: frozenset[int],
    target: int,
) -> list[dict[str, bool | None]]:
    """Partition the remaining search space into >= ``target`` subproblems.

    Breadth-first expansion along the branching order, with unit
    propagation applied to every child (conflicting children are dropped,
    exactly as the DFS would drop them).  The returned assignments cover
    the support completions of ``assignment`` *exactly* — each completion
    extends precisely one frontier entry — so solving every entry is
    equivalent to the sequential search, whatever the dispatch order.

    Node accounting: each node is counted in ``stats.dfs_nodes`` exactly
    once — conflicted children here (they are dropped and never popped
    again), surviving entries when whoever searches them (a worker's
    subtree DFS, or the sequential fallback) pops them.
    """
    order = _branching_order(cs)

    def undecided(current: Mapping[str, bool | None]) -> str | None:
        for tau in order:
            if current[tau] is None:
                return tau
        return None

    pending: list[dict[str, bool | None]] = [dict(assignment)]
    decided: list[dict[str, bool | None]] = []
    while pending and len(pending) + len(decided) < target:
        current = pending.pop(0)
        choice = undecided(current)
        if choice is None:
            decided.append(current)
            continue
        for value in (True, False):
            child = dict(current)
            child[choice] = value
            if _propagate_indexed(
                clause_index, child, [choice], stats, inactive_clauses
            ):
                pending.append(child)
            else:
                stats.dfs_nodes += 1  # dropped here, never popped again
    return decided + pending


def _solve_parallel(
    cs: ConditionalSystem,
    frontier: list[dict[str, bool | None]],
    pool: _CutPool,
    stats: CondSolveStats,
    backend: str,
    max_support_nodes: int,
    max_cut_rounds: int,
    lp_prune: bool,
    exact_warm: bool,
    inactive_rows: frozenset[int],
    inactive_clauses: frozenset[int],
    jobs: int,
) -> SolveResult:
    """Fan the support search across a worker pool (DESIGN.md section 7).

    Takes the root's frontier of propagated subproblems (>= 2 entries;
    the caller built it with :func:`_frontier` and runs sequentially
    otherwise) and dispatches them in waves of ``jobs`` tasks.  Between
    waves the
    two-level cut pool is reconciled: worker-discovered cuts merge into
    the shared pool (guarded dedup on canonical coefficients + guard),
    and the next wave's tasks are seeded with the merged set, so a cut
    learned on one branch prunes siblings dispatched later.  A feasible
    verdict short-circuits after the wave that found it; infeasible
    requires every subproblem exhausted — the same exhaustiveness
    argument as the sequential DFS, so verdicts are schedule-independent.

    Error semantics: a subtree that exhausts its work budget (or hits a
    solver failure) does not abort the solve — the search continues, and
    the error is re-raised only if *no* subproblem produces a feasible
    answer (an exact-checked witness is sound regardless of sibling
    failures; an "infeasible" with an unexplored subtree is not).  The
    ``max_support_nodes`` budget bounds each worker's subtree search
    individually — a deliberate resource-policy difference from the
    sequential path's single global budget, so a parallel run may finish
    a search the sequential run would abort (never the reverse verdict).
    """
    params = dict(
        backend=backend,
        max_support_nodes=max_support_nodes,
        max_cut_rounds=max_cut_rounds,
        lp_prune=lp_prune,
        exact_warm=exact_warm,
        inactive_rows=inactive_rows,
        inactive_clauses=inactive_clauses,
    )
    workers = min(jobs, len(frontier))
    stats.workers_spawned = workers
    found: SolveResult | None = None
    pending_error: tuple[str, str] | None = None
    with WorkerPool(workers, _init_branch_worker, (cs, params)) as executor:
        for start in range(0, len(frontier), workers):
            check_deadline()
            wave = frontier[start:start + workers]
            stats.parallel_waves += 1
            seed = pool.export()
            tasks = [(tuple(entry.items()), seed) for entry in wave]
            wave_started = time.monotonic()
            try:
                outcomes = executor.map(_branch_task, tasks)
            finally:
                stats.workers_crashed = executor.crashes
                stats.workers_respawned = executor.respawns
                stats.tasks_requeued = executor.requeues
                _notify_wave(time.monotonic() - wave_started, len(wave))
            for status, values, message, worker_stats, fresh, kind in outcomes:
                stats.absorb(worker_stats)
                accepted, duplicates = pool.merge(fresh)
                stats.cuts_merged += accepted
                stats.cut_merge_duplicates += duplicates
                if status == "feasible" and found is None:
                    found = SolveResult(status, values, message)
                elif status == "raised" and pending_error is None:
                    pending_error = (kind, message)
            if found is not None:
                # An exact-checked feasible answer is sound whatever
                # happened on sibling branches — errors become moot.
                return found
    if pending_error is not None:
        kind, message = pending_error
        raise _RAISABLE.get(kind, SolverError)(message)
    return SolveResult("infeasible", message="support search exhausted")


def _solve_rebuild(
    cs: ConditionalSystem,
    assignment: dict[str, bool | None],
    backend: str,
    max_support_nodes: int,
    max_cut_rounds: int,
    lp_prune: bool,
    stats: CondSolveStats,
    exact_warm: bool,
    inactive_rows: frozenset[int] = frozenset(),
    inactive_clauses: frozenset[int] = frozenset(),
) -> tuple[SolveResult, CondSolveStats]:
    """From-scratch reference path: rebuild a LinearSystem per node."""
    if inactive_rows or inactive_clauses:
        # Deactivated rows and clauses are simply absent from every
        # rebuilt system — the rebuild twin of the toggles on the hot path.
        cs = replace(
            cs,
            base=cs.base.copy(drop_rows=inactive_rows),
            clauses=tuple(
                clause
                for i, clause in enumerate(cs.clauses)
                if i not in inactive_clauses
            ),
        )
    solve = _make_solver(backend, exact_warm, stats)

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
