"""Specification diagnostics: *why* is a spec broken, *what* is redundant.

The paper motivates static validation with "repeated failures are due to a
bad specification" (Section 1) and closes proposing a design theory for
XML specifications (Section 6). Two concrete tools toward that:

* :func:`mus` — a minimal subset of Sigma that is already
  inconsistent with the DTD (a MUS): the smallest story to tell the
  schema author.  The default ``method="quickxplain"`` finds it by
  QuickXplain divide-and-conquer (DESIGN.md section 7) — probe counts
  scale with the *core* size rather than ``|Sigma|``;
  ``method="deletion"`` is the classic linear filter, exactly
  ``|Sigma|`` probes, kept as the reference.
* :func:`redundant_constraints` — constraints implied by the rest of the
  specification (over the DTD): safe to drop, or a hint that the author
  expected them to add strength they do not add. One implication probe per
  expanded constraint; the per-constraint probes are independent, so
  ``CheckerConfig(jobs=N)`` fans them across a worker pool, each worker
  probing on its own assembled system.

Both are **subset-probing** workloads: every probe decides consistency of
the *same* specification with some constraints removed (and, for
implication, one negation added).  The default engine therefore assembles
``Psi(D, Sigma ∪ ¬Sigma)`` exactly once, with every constraint's rows
registered as toggleable (DESIGN.md section 6), and serves each probe by
row-bound flips on the persistent solver state — one base assembly per
call (per worker, when parallel) instead of one per subset.
``toggled=False`` selects the re-encode-per-subset reference path, kept
as the differential oracle (:mod:`tests.test_diagnostics_differential`)
and the benchmark baseline (``benchmarks/bench_diagnostics.py``).

Both operate on the decidable unary classes; specifications outside them
(multi-attribute constraints) automatically fall back to the rebuild path,
which dispatches through the checkers' own fragment logic.

>>> from repro.dtd.model import DTD
>>> from repro.constraints.parser import parse_constraints
>>> d = DTD.build("r", {"r": "(a*, b*, c*)", "a": "EMPTY", "b": "EMPTY",
...                     "c": "EMPTY"}, attrs={t: ["x"] for t in "abc"})
>>> sigma = parse_constraints("a.x <= b.x\\nb.x <= c.x\\na.x <= c.x")
>>> report = diagnose(d, sigma)
>>> (report.consistent, [str(phi) for phi in report.redundant])
(True, ['a.x <= c.x'])
>>> report.stats.assemblies                   # one assembly, many probes
1
>>> report.stats.probes >= 4
True
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from collections.abc import Callable, Iterable

from repro.constraints.ast import Constraint
from repro.constraints.classes import expand_foreign_keys
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.checkers.consistency import check_consistency, dtd_has_valid_tree
from repro.checkers.implication import _negate, implies
from repro.dtd.model import DTD
from repro.encoding.combined import build_encoding
from repro.errors import (
    ComplexityLimitError,
    InvalidConstraintError,
    WorkerCrashError,
)
from repro.ilp.condsys import (
    CondSolveStats,
    SolveWorkspace,
    WorkerPool,
    fanout_map,
    solve_conditional_system,
)


@dataclass
class DiagnosticsStats:
    """Work counters for one diagnostics call.

    ``assemblies`` counts full base-matrix assemblies — exactly 1 on the
    sequential toggled path no matter how many subsets are probed (the
    acceptance invariant of DESIGN.md section 6; with ``jobs > 1`` each
    worker pays one assembly for its own probe, so the count is at most
    ``1 + workers_spawned``); the rebuild path pays one per
    consistency/implication call.  ``probes`` counts subset solves;
    ``mus_probes`` the subset probes spent inside the MUS filter alone,
    the counter the QuickXplain-vs-deletion benchmark gates on
    (``mus_method`` names the filter that ran).
    """

    method: str = "toggled"
    mus_method: str = ""
    assemblies: int = 0
    probes: int = 0
    mus_probes: int = 0
    dfs_nodes: int = 0
    leaves_solved: int = 0
    bound_patch_solves: int = 0
    lp_solves: int = 0
    mip_solves: int = 0
    cuts_added: int = 0
    cut_pool_hits: int = 0
    lp_prunes: int = 0
    lp_probe_decided: int = 0
    exact_nodes: int = 0
    exact_pivots: int = 0
    workers_spawned: int = 0

    def merge_solve(self, solve: CondSolveStats) -> None:
        """Fold one :class:`CondSolveStats` into the running totals."""
        self.probes += 1
        self.assemblies += solve.assemblies
        self.dfs_nodes += solve.dfs_nodes
        self.leaves_solved += solve.leaves_solved
        self.bound_patch_solves += solve.bound_patch_solves
        self.lp_solves += solve.lp_solves
        self.mip_solves += solve.mip_solves
        self.cuts_added += solve.cuts_added
        self.cut_pool_hits += solve.cut_pool_hits
        self.lp_prunes += solve.lp_prunes
        self.lp_probe_decided += int(solve.lp_probe_decided)
        self.exact_nodes += solve.exact_nodes
        self.exact_pivots += solve.exact_pivots

    def merge_checker(self, stats: dict | None) -> None:
        """Fold a checker result's stats dict (rebuild path) in."""
        self.probes += 1
        if not stats:
            return
        self.assemblies += stats.get("assemblies", 0)
        self.dfs_nodes += stats.get("dfs_nodes", 0)
        self.leaves_solved += stats.get("leaves", 0)
        self.bound_patch_solves += stats.get("bound_patch_solves", 0)
        self.lp_solves += stats.get("lp_solves", 0)
        self.mip_solves += stats.get("mip_solves", 0)
        self.cuts_added += stats.get("cuts", 0)
        self.cut_pool_hits += stats.get("cut_pool_hits", 0)
        self.lp_prunes += stats.get("lp_prunes", 0)
        self.lp_probe_decided += int(stats.get("lp_probe_decided", False))
        self.exact_nodes += stats.get("exact_nodes", 0)
        self.exact_pivots += stats.get("exact_pivots", 0)

    def absorb(self, worker: "DiagnosticsStats | dict") -> None:
        """Fold a worker's counters in (parallel audit reconciliation).

        Integer counters add; the ``method``/``mus_method`` labels are the
        parent's business and are left untouched.  Keys this class does
        not declare (e.g. namespaced ``repair.*`` counters riding along
        in a wire payload) are skipped rather than flat-merged — folding
        an unknown counter into a same-named field would silently shadow
        the caller's own numbers.
        """
        values = worker if isinstance(worker, dict) else asdict(worker)
        for name, value in values.items():
            if isinstance(value, str) or not hasattr(self, name):
                continue
            setattr(self, name, getattr(self, name) + int(value))

    def as_dict(self) -> dict[str, int | str]:
        """Flat rendering for ``--stats`` output and benchmarks."""
        return {
            "method": self.method,
            "mus_method": self.mus_method or "-",
            "assemblies": self.assemblies,
            "probes": self.probes,
            "mus_probes": self.mus_probes,
            "dfs_nodes": self.dfs_nodes,
            "leaves_solved": self.leaves_solved,
            "bound_patch_solves": self.bound_patch_solves,
            "lp_solves": self.lp_solves,
            "mip_solves": self.mip_solves,
            "cuts_added": self.cuts_added,
            "cut_pool_hits": self.cut_pool_hits,
            "lp_prunes": self.lp_prunes,
            "lp_probe_decided": self.lp_probe_decided,
            "exact_nodes": self.exact_nodes,
            "exact_pivots": self.exact_pivots,
            "workers_spawned": self.workers_spawned,
        }


def _use_toggles(
    toggled: bool, sigma: list[Constraint], config: CheckerConfig
) -> bool:
    """Route to the toggled engine?  Requires unary constraints (the only
    encodable fragment) and the incremental solver core — a workspace is
    persistent bound-patched state, so ``config.incremental=False`` (the
    from-scratch ablation) selects the rebuild path, whose checker calls
    honor the flag."""
    return (
        toggled
        and config.incremental
        and all(phi.is_unary() for phi in sigma)
    )


class _ToggleProbe:
    """One assembled ``Psi(D, Sigma ∪ ¬Sigma)``, probed under row toggles.

    Built once per diagnostics call: the union system carries rows for
    every constraint of ``sigma`` (foreign keys through their expanded
    inclusion + key parts) and — when ``with_negations`` — for the
    negation of every part, each registered as a toggle group.  A probe
    activates a subset of those groups and re-solves through a shared
    :class:`~repro.ilp.condsys.SolveWorkspace`; support clauses and forced
    supports contributed by deactivated constraints are filtered out of
    the :class:`ConditionalSystem` view, since they are only sound while
    their constraint is active.
    """

    def __init__(
        self,
        dtd: DTD,
        sigma: list[Constraint],
        config: CheckerConfig,
        with_negations: bool,
        stats: DiagnosticsStats,
    ):
        self._config = config
        self.stats = stats
        self.parts: dict[Constraint, tuple[Constraint, ...]] = {
            phi: tuple(expand_foreign_keys([phi])) for phi in sigma
        }
        self.negations: dict[Constraint, tuple[Constraint, ...]] = {}
        union: list[Constraint] = []
        seen: set[Constraint] = set()

        def push(phi: Constraint) -> None:
            if phi not in seen:
                seen.add(phi)
                union.append(phi)

        for phi in sigma:
            for part in self.parts[phi]:
                push(part)
        if with_negations:
            for phi in sigma:
                negs = tuple(_negate(part) for part in self.parts[phi])
                self.negations[phi] = negs
                for neg in negs:
                    push(neg)
        self.encoding = build_encoding(
            dtd, union, max_setrep_attrs=config.max_setrep_attrs
        )
        self._toggleable_clauses = frozenset(
            clause_id
            for toggle in self.encoding.toggles.values()
            for clause_id in toggle.clause_ids
        )
        self.workspace = SolveWorkspace(self.encoding.condsys.base)

    def active_parts(self, constraints: Iterable[Constraint]) -> frozenset[Constraint]:
        """The expanded toggle groups of a subset of the original Sigma."""
        return frozenset(
            part for phi in constraints for part in self.parts[phi]
        )

    def consistent(self, active: frozenset[Constraint]) -> bool:
        """One subset probe: is the DTD plus the active constraints SAT?"""
        condsys = self.encoding.condsys
        toggles = [self.encoding.toggles[phi] for phi in active]
        active_rows = frozenset(
            row for toggle in toggles for row in toggle.rows
        )
        active_clauses = {
            clause_id for toggle in toggles for clause_id in toggle.clause_ids
        }
        forced: frozenset[str] = frozenset().union(
            *(toggle.forced_true for toggle in toggles)
        ) if toggles else frozenset()
        result, solve_stats = solve_conditional_system(
            replace(condsys, forced_true=forced),
            backend=self._config.backend,
            max_support_nodes=self._config.max_support_nodes,
            lp_prune=self._config.lp_prune,
            exact_warm=self._config.exact_warm,
            active_rows=active_rows,
            workspace=self.workspace,
            inactive_clauses=frozenset(self._toggleable_clauses - active_clauses),
        )
        self.stats.merge_solve(solve_stats)
        return result.feasible


#: MUS filter names accepted by ``method=``.
_MUS_METHODS = ("quickxplain", "deletion")

#: A subset-consistency oracle: ``check(subset) -> True`` iff the DTD plus
#: exactly those constraints is satisfiable.  Both MUS filters are written
#: against this shape, so the toggled engine and the rebuild oracle drive
#: the *same* filter code.
_SubsetCheck = Callable[[list[Constraint]], bool]


def _require_mus_method(method: str) -> None:
    """Reject unknown filter names before any expensive work happens."""
    if method not in _MUS_METHODS:
        raise InvalidConstraintError(
            f"unknown MUS method {method!r}; expected one of {_MUS_METHODS}"
        )


def _mus_deletion(check: _SubsetCheck, sigma: list[Constraint]) -> list[Constraint]:
    """The linear deletion filter: exactly ``|Sigma|`` probes.

    Kept as the reference filter — its probe count is the baseline the
    QuickXplain gate (``benchmarks/bench_parallel.py``) compares against.
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


def _mus_quickxplain(check: _SubsetCheck, sigma: list[Constraint]) -> list[Constraint]:
    """QuickXplain divide-and-conquer (Junker 2004; DESIGN.md section 7).

    Preconditions (the callers establish both): the full set is
    inconsistent, and the DTD alone is consistent.  Probes backgrounds —
    prefixes of the splitting tree — instead of every single-deletion
    subset, so the probe count scales as ``O(k + k·log(|Sigma|/k))`` for
    a core of size ``k``: far below the deletion filter's ``|Sigma|``
    whenever the conflict is small and the specification is large.  Like
    the deletion filter it returns a *minimal* inconsistent subset; when
    an instance has several MUSes the two filters may legitimately pick
    different (individually minimal) ones.
    """

    def qx(
        background: list[Constraint],
        just_added: bool,
        constraints: list[Constraint],
    ) -> list[Constraint]:
        if just_added and not check(background):
            return []  # background alone already inconsistent
        if len(constraints) == 1:
            return list(constraints)
        half = len(constraints) // 2
        first, second = constraints[:half], constraints[half:]
        part2 = qx(background + first, bool(first), second)
        part1 = qx(background + part2, bool(part2), first)
        return part1 + part2

    return qx([], False, list(sigma))


def _minimal_core(
    check: _SubsetCheck, sigma: list[Constraint], method: str
) -> list[Constraint]:
    """Dispatch to the selected MUS filter (full set known UNSAT)."""
    _require_mus_method(method)
    if method == "quickxplain":
        return _mus_quickxplain(check, sigma)
    return _mus_deletion(check, sigma)


def _probe_check(probe: _ToggleProbe) -> _SubsetCheck:
    """Subset oracle over toggle probes, counting MUS-phase probes."""

    def check(subset: list[Constraint]) -> bool:
        probe.stats.mus_probes += 1
        return probe.consistent(probe.active_parts(subset))

    return check


def _rebuild_check(
    dtd: DTD, config: CheckerConfig, stats: DiagnosticsStats
) -> _SubsetCheck:
    """Subset oracle over full checker calls (the rebuild reference).

    Probes run with ``jobs=1``: the subset probe is the intended unit of
    parallelism, and a worker pool per probe would cost more than it
    saves."""
    probe_config = replace(config, want_witness=False, jobs=1)

    def check(subset: list[Constraint]) -> bool:
        stats.mus_probes += 1
        result = check_consistency(dtd, subset, probe_config)
        stats.merge_checker(result.stats)
        return result.consistent

    return check


def _is_redundant(probe: _ToggleProbe, sigma: list[Constraint], index: int) -> bool:
    """Is ``sigma[index]`` implied by the rest? (one probe per component's
    negation: implied iff every negation is inconsistent with the rest)."""
    phi = sigma[index]
    rest = sigma[:index] + sigma[index + 1:]
    rest_parts = probe.active_parts(rest)
    return all(
        not probe.consistent(rest_parts | {negated})
        for negated in probe.negations[phi]
    )


def _redundancy_filter(
    probe: _ToggleProbe, sigma: list[Constraint]
) -> list[Constraint]:
    """Implication audit via probes: ``phi`` is implied by the rest iff
    every component's negation is inconsistent with the rest's rows."""
    return [
        phi
        for index, phi in enumerate(sigma)
        if _is_redundant(probe, sigma, index)
    ]


#: Per-process state of a diagnostics worker: its own union probe over the
#: full specification, built once by :func:`_init_diagnostics_worker`.
_DIAGNOSTICS_WORKER: dict = {}


def _init_diagnostics_worker(payload: tuple) -> None:
    """Build this worker's own ``Psi(D, Sigma ∪ ¬Sigma)`` probe.

    The parent constructed the identical probe before fanning out, so
    this cannot fail in the worker only (same deterministic inputs).
    """
    dtd, sigma, config = payload
    _DIAGNOSTICS_WORKER["sigma"] = sigma
    _DIAGNOSTICS_WORKER["probe"] = _ToggleProbe(
        dtd, sigma, config, with_negations=True, stats=DiagnosticsStats()
    )


def _diagnostics_task(indices: tuple[int, ...]) -> tuple[list[bool], dict]:
    """Audit a chunk of constraint indices on this worker's probe."""
    probe = _DIAGNOSTICS_WORKER["probe"]
    sigma = _DIAGNOSTICS_WORKER["sigma"]
    stats = DiagnosticsStats()
    stats.assemblies = probe.workspace.take_assembly_charge()
    probe.stats = stats
    flags = [_is_redundant(probe, sigma, index) for index in indices]
    return flags, asdict(stats)


def _redundancy_filter_parallel(
    dtd: DTD,
    probe: _ToggleProbe,
    sigma: list[Constraint],
    config: CheckerConfig,
    stats: DiagnosticsStats,
) -> list[Constraint]:
    """Fan the per-constraint audit probes across a worker pool.

    Each worker owns a full probe (its own assembly and workspace — the
    single-owner rule of DESIGN.md section 7), so ``stats.assemblies``
    grows to at most ``1 + workers``; the verdicts are the sequential
    ones exactly, since every probe is independent and each worker runs
    the identical sequential probe code.  The parent's ``probe`` is only
    consulted as the fallback when the pool cannot be built.
    """
    jobs = min(config.jobs, len(sigma))
    if jobs < 2 or not WorkerPool.available():
        return _redundancy_filter(probe, sigma)
    chunks = [tuple(range(start, len(sigma), jobs)) for start in range(jobs)]
    worker_config = replace(config, jobs=1)
    stats.workers_spawned += jobs
    try:
        results = fanout_map(
            _diagnostics_task,
            chunks,
            jobs,
            _init_diagnostics_worker,
            (dtd, sigma, worker_config),
        )
    except WorkerCrashError:
        # Pool lost beyond recovery: the parent's probe answers the
        # whole audit sequentially (identical verdicts by construction).
        return _redundancy_filter(probe, sigma)
    redundant_indices: set[int] = set()
    for chunk, (flags, worker_stats) in zip(chunks, results):
        stats.absorb(worker_stats)
        redundant_indices.update(
            index for index, flag in zip(chunk, flags) if flag
        )
    return [phi for index, phi in enumerate(sigma) if index in redundant_indices]


def mus(
    dtd: DTD,
    constraints: Iterable[Constraint],
    config: CheckerConfig | None = None,
    *,
    method: str = "quickxplain",
    toggled: bool = True,
    stats: DiagnosticsStats | None = None,
) -> list[Constraint]:
    """A minimal inconsistent subset of ``Sigma`` (a MUS).

    The single MUS entry point: ``method`` and ``toggled`` select the
    filter and the engine.

    Requires the full set to be inconsistent with the DTD (raises
    :class:`InvalidConstraintError` otherwise). The result may be empty
    when the DTD alone has no valid tree — then no constraints are to
    blame at all.

    ``method`` selects the filter: ``"quickxplain"`` (default) probes
    divide-and-conquer backgrounds — ``O(k + k·log(|Sigma|/k))`` probes
    for a core of size ``k`` — while ``"deletion"`` is the classic linear
    filter, exactly ``|Sigma|`` probes.  Both return minimal cores; on
    specifications with several distinct MUSes they may return different
    (individually minimal) ones.  ``toggled=False`` selects the
    rebuild-per-subset reference path (one full checker call per probe);
    the default probes constraint subsets by row toggles on a single
    assembled system.  ``stats``, when supplied, is filled with the
    call's work counters — ``mus_probes`` isolates the filter's probe
    count, the number the QuickXplain benchmark gate compares.

    >>> from repro.workloads.examples import teachers_dtd_d1, sigma1_constraints
    >>> stats = DiagnosticsStats()
    >>> core = mus(teachers_dtd_d1(), sigma1_constraints(), stats=stats)
    >>> sorted(str(phi) for phi in core)
    ['subject.taught_by -> subject', 'subject.taught_by => teacher.name']
    >>> (stats.mus_method, stats.assemblies)  # one persistent system
    ('quickxplain', 1)
    """
    _require_mus_method(method)
    config = config or DEFAULT_CONFIG
    stats = stats if stats is not None else DiagnosticsStats()
    stats.mus_method = method
    current = list(constraints)
    if _use_toggles(toggled, current, config):
        try:
            probe = _ToggleProbe(
                dtd, current, config, with_negations=False, stats=stats
            )
        except ComplexityLimitError:
            probe = None  # union setrep block over cap: rebuild instead
        if probe is not None:
            if probe.consistent(probe.active_parts(current)):
                raise InvalidConstraintError(
                    "the specification is consistent; there is no inconsistent subset"
                )
            if not dtd_has_valid_tree(dtd):
                return []
            return _minimal_core(_probe_check(probe), current, method)
    return _minimal_unsat_core_rebuild(dtd, current, config, stats, method)


def _minimal_unsat_core_rebuild(
    dtd: DTD,
    current: list[Constraint],
    config: CheckerConfig,
    stats: DiagnosticsStats,
    method: str = "deletion",
) -> list[Constraint]:
    """Reference path: one full consistency check per probed subset."""
    stats.method = "rebuild"
    stats.mus_method = method
    probe = replace(config, want_witness=False, jobs=1)
    result = check_consistency(dtd, current, probe)
    stats.merge_checker(result.stats)
    if result.consistent:
        raise InvalidConstraintError(
            "the specification is consistent; there is no inconsistent subset"
        )
    if not dtd_has_valid_tree(dtd):
        return []
    check = _rebuild_check(dtd, config, stats)
    return _minimal_core(check, current, method)


def redundant_constraints(
    dtd: DTD,
    constraints: Iterable[Constraint],
    config: CheckerConfig | None = None,
    *,
    toggled: bool = True,
    stats: DiagnosticsStats | None = None,
) -> list[Constraint]:
    """Constraints implied by the remaining ones over the DTD.

    Note the subtlety: redundancy here is *relative to the whole rest*, so
    two mutually-implied constraints can both be reported (either one may
    be dropped, not both).  The toggled default decides each implication
    by activating the rest's rows plus the query's negated rows on the one
    assembled union system; ``toggled=False`` re-encodes per query.  The
    per-constraint probes are independent, so ``config.jobs > 1`` fans
    them across a worker pool (each worker on its own assembly) with
    identical verdicts.
    """
    config = config or DEFAULT_CONFIG
    stats = stats if stats is not None else DiagnosticsStats()
    sigma = list(constraints)
    if _use_toggles(toggled, sigma, config):
        try:
            probe = _ToggleProbe(
                dtd, sigma, config, with_negations=True, stats=stats
            )
        except ComplexityLimitError:
            probe = None  # union setrep block over cap: rebuild instead
        if probe is not None:
            if config.jobs > 1:
                return _redundancy_filter_parallel(
                    dtd, probe, sigma, config, stats
                )
            return _redundancy_filter(probe, sigma)
    return _redundant_constraints_rebuild(dtd, sigma, config, stats)


def _redundant_constraints_rebuild(
    dtd: DTD,
    sigma: list[Constraint],
    config: CheckerConfig,
    stats: DiagnosticsStats,
) -> list[Constraint]:
    """Reference path: one full implication call per constraint (each
    probe at ``jobs=1`` — a pool per probe would invert the speedup)."""
    stats.method = "rebuild"
    probe = replace(config, want_witness=False, jobs=1)
    redundant: list[Constraint] = []
    for index, phi in enumerate(sigma):
        rest = sigma[:index] + sigma[index + 1:]
        result = implies(dtd, rest, phi, probe)
        stats.merge_checker(result.stats)
        if result.implied:
            redundant.append(phi)
    return redundant


@dataclass
class DiagnosticsReport:
    """Combined specification health report."""

    consistent: bool
    mus: list[Constraint] = field(default_factory=list)
    redundant: list[Constraint] = field(default_factory=list)
    dtd_satisfiable: bool = True
    stats: DiagnosticsStats = field(default_factory=DiagnosticsStats)

    def summary(self) -> str:
        """Human-readable multi-line rendering."""
        lines = []
        if not self.dtd_satisfiable:
            lines.append("the DTD alone admits no finite document")
        elif self.consistent:
            lines.append("specification is CONSISTENT")
        else:
            lines.append("specification is INCONSISTENT; minimal conflict:")
            for phi in self.mus:
                lines.append(f"  - {phi}")
        if self.redundant:
            lines.append("redundant constraints (implied by the rest):")
            for phi in self.redundant:
                lines.append(f"  - {phi}")
        return "\n".join(lines)


def diagnose(
    dtd: DTD,
    constraints: Iterable[Constraint],
    config: CheckerConfig | None = None,
    *,
    toggled: bool = True,
    mus_method: str = "quickxplain",
) -> DiagnosticsReport:
    """Full specification health check.

    For consistent specifications, reports redundancies; for inconsistent
    ones, a minimal conflicting subset — found by the ``mus_method``
    filter (QuickXplain by default; ``"deletion"`` for the linear
    reference filter).  The whole report — the initial consistency
    verdict plus every MUS/redundancy probe — is served from one
    assembled system (``report.stats.assemblies == 1`` on the sequential
    toggled path); ``toggled=False`` is the re-encode-per-subset
    reference, which drives the *same* filters through full checker
    calls.  ``config.jobs > 1`` fans the redundancy audit's independent
    probes across a worker pool (one assembly per worker); the MUS
    filter stays sequential — each of its probes depends on the answers
    before it.
    """
    _require_mus_method(mus_method)
    config = config or DEFAULT_CONFIG
    sigma = list(constraints)
    stats = DiagnosticsStats()
    if not dtd_has_valid_tree(dtd):
        return DiagnosticsReport(
            consistent=False, dtd_satisfiable=False, stats=stats
        )
    if _use_toggles(toggled, sigma, config):
        try:
            probe = _ToggleProbe(
                dtd, sigma, config, with_negations=True, stats=stats
            )
        except ComplexityLimitError:
            probe = None  # union setrep block over cap: rebuild instead
        if probe is not None:
            if probe.consistent(probe.active_parts(sigma)):
                redundant = (
                    _redundancy_filter_parallel(dtd, probe, sigma, config, stats)
                    if config.jobs > 1
                    else _redundancy_filter(probe, sigma)
                )
                return DiagnosticsReport(
                    consistent=True, redundant=redundant, stats=stats
                )
            stats.mus_method = mus_method
            return DiagnosticsReport(
                consistent=False,
                mus=_minimal_core(_probe_check(probe), sigma, mus_method),
                stats=stats,
            )
    return _diagnose_rebuild(dtd, sigma, config, stats, mus_method)


def _diagnose_rebuild(
    dtd: DTD,
    sigma: list[Constraint],
    config: CheckerConfig,
    stats: DiagnosticsStats,
    mus_method: str = "quickxplain",
) -> DiagnosticsReport:
    """Reference path: full checker calls per subset (each at ``jobs=1``)."""
    stats.method = "rebuild"
    probe = replace(config, want_witness=False, jobs=1)
    result = check_consistency(dtd, sigma, probe)
    stats.merge_checker(result.stats)
    if result.consistent:
        return DiagnosticsReport(
            consistent=True,
            redundant=_redundant_constraints_rebuild(dtd, sigma, config, stats),
            stats=stats,
        )
    return DiagnosticsReport(
        consistent=False,
        mus=_minimal_unsat_core_rebuild(
            dtd, list(sigma), config, stats, mus_method
        ),
        stats=stats,
    )
