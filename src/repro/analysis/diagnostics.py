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

Each search is written once, against a probe that answers
``consistent(subset)`` and ``is_redundant(sigma, index)``.  The toggled
probe (:class:`_ToggleProbe`) covers the decidable unary classes; for
specifications outside them (multi-attribute constraints), and for unions
whose set-representation block exceeds ``max_setrep_attrs``, the rebuild
probe (:class:`_RebuildProbe`) answers with one full checker call per
question, dispatched through the checkers' own fragment logic.  The
differential tests and the benchmark baseline force the rebuild probe
through ``tests/oracles.py``.  Both probes sum their work into one
counter record, :class:`SolverCounters`, which the repair search shares.

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

from dataclasses import asdict, dataclass, field, fields, replace
from collections.abc import Callable, Iterable
from typing import ClassVar, TypeVar

from repro.constraints.ast import Constraint
from repro.constraints.classes import expand_foreign_keys
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.checkers.consistency import (
    STAT_RENAMES,
    check_consistency,
    dtd_has_valid_tree,
)
from repro.checkers.implication import implies, negate_constraint
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
class SolverCounters:
    """The work counters every analysis call sums over its probes.

    ``method`` names the probe engine (``"toggled"`` or ``"rebuild"``),
    ``probes`` counts subset solves, and the solver counters are the
    :class:`CondSolveStats` fields of each solve, summed.  Subclasses add
    their own fields and name the key order of :meth:`as_dict` (the
    ``stats`` wire payload) in ``_LAYOUT``.
    """

    method: str = "toggled"
    probes: int = 0
    assemblies: int = 0
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

    _LAYOUT: ClassVar[tuple[str, ...]] = ()

    def add_solve(self, solve: CondSolveStats) -> None:
        """Fold one toggled probe's :class:`CondSolveStats` in."""
        self.probes += 1
        for name in SOLVER_COUNTERS:
            setattr(self, name, getattr(self, name) + int(getattr(solve, name)))

    def add_checker(self, stats: dict | None) -> None:
        """Fold one checker result's stats dict (a rebuild probe) in."""
        self.probes += 1
        stats = stats or {}
        for key, name in _CHECKER_KEYS:
            setattr(self, name, getattr(self, name) + int(stats.get(key, 0)))

    def checker_stats(self) -> dict[str, int]:
        """The solver counters under a checker result's stats keys."""
        return {key: getattr(self, name) for key, name in _CHECKER_KEYS}

    def absorb(self, other: "SolverCounters | dict") -> None:
        """Fold another record's integer counters in (parallel workers).

        String labels stay the caller's.  Keys this record does not
        declare (a newer worker's counters, or namespaced ``repair.*``
        counters riding along in a wire payload) are skipped rather than
        folded into a same-named field.
        """
        values = other if isinstance(other, dict) else asdict(other)
        for name, value in values.items():
            if isinstance(value, str) or not hasattr(self, name):
                continue
            setattr(self, name, getattr(self, name) + int(value))

    def as_dict(self) -> dict[str, int | str]:
        """Flat rendering for ``--stats`` output, benchmarks and the wire;
        an unset label renders as ``"-"``."""
        values = {name: getattr(self, name) for name in self._LAYOUT}
        return {
            name: (value or "-") if isinstance(value, str) else value
            for name, value in values.items()
        }


#: The solver counters of :class:`SolverCounters`, in field order.
SOLVER_COUNTERS = tuple(
    f.name for f in fields(SolverCounters) if f.name not in ("method", "probes")
)

#: ``(checker stats key, counter)`` for each of :data:`SOLVER_COUNTERS`.
_CHECKER_KEYS = tuple(
    (STAT_RENAMES.get(name, name), name) for name in SOLVER_COUNTERS
)


@dataclass
class DiagnosticsStats(SolverCounters):
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

    mus_method: str = ""
    mus_probes: int = 0
    workers_spawned: int = 0

    # SOLVER_COUNTERS[0] is ``assemblies``.
    _LAYOUT: ClassVar[tuple[str, ...]] = (
        "method", "mus_method", "assemblies", "probes", "mus_probes",
        *SOLVER_COUNTERS[1:], "workers_spawned",
    )


_P = TypeVar("_P")


def _toggled(
    sigma: list[Constraint], build: Callable[[], _P]
) -> _P | None:
    """The toggled probe ``build()`` makes, or ``None`` when the rebuild
    probe must answer instead: ``sigma`` is outside the unary fragment
    (the only encodable one), or the union's set-representation block
    exceeds ``max_setrep_attrs``."""
    if all(phi.is_unary() for phi in sigma):
        try:
            return build()
        except ComplexityLimitError:
            pass
    return None


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
    their constraint is active.  ``repair_sites`` registers every rule
    row as a toggle too (the repair probe).
    """

    def __init__(
        self,
        dtd: DTD,
        sigma: list[Constraint],
        config: CheckerConfig,
        with_negations: bool,
        stats: SolverCounters,
        repair_sites: bool = False,
    ):
        self._config = config
        self.stats = stats
        self.parts: dict[Constraint, tuple[Constraint, ...]] = {
            phi: tuple(expand_foreign_keys([phi])) for phi in sigma
        }
        self.negations: dict[Constraint, tuple[Constraint, ...]] = {
            phi: tuple(negate_constraint(part) for part in self.parts[phi])
            for phi in sigma
        } if with_negations else {}
        union = [part for phi in sigma for part in self.parts[phi]]
        union += [neg for negs in self.negations.values() for neg in negs]
        self.encoding = build_encoding(
            dtd,
            list(dict.fromkeys(union)),
            max_setrep_attrs=config.max_setrep_attrs,
            repair_sites=repair_sites,
        )
        self.workspace = SolveWorkspace(self.encoding.condsys.base)

    def active_parts(self, constraints: Iterable[Constraint]) -> frozenset[Constraint]:
        """The expanded toggle groups of a subset of the original Sigma."""
        return frozenset(
            part for phi in constraints for part in self.parts[phi]
        )

    def solve(
        self,
        parts: frozenset[Constraint],
        loosened: frozenset[int] = frozenset(),
        **overrides,
    ) -> bool:
        """One re-solve with exactly ``parts`` (and the rule sites not
        ``loosened``) active; ``overrides`` replace further fields of the
        :class:`ConditionalSystem` view."""
        active_rows, inactive_clauses, forced = self.encoding.toggle_view(
            parts, loosened
        )
        result, solve_stats = solve_conditional_system(
            replace(self.encoding.condsys, forced_true=forced, **overrides),
            backend=self._config.backend,
            max_support_nodes=self._config.max_support_nodes,
            lp_prune=self._config.lp_prune,
            active_rows=active_rows,
            workspace=self.workspace,
            inactive_clauses=inactive_clauses,
        )
        self.stats.add_solve(solve_stats)
        return result.feasible

    def consistent(self, subset: Iterable[Constraint]) -> bool:
        """Is the DTD plus the constraints of ``subset`` satisfiable?"""
        return self.solve(self.active_parts(subset))

    def is_redundant(self, sigma: list[Constraint], index: int) -> bool:
        """Is ``sigma[index]`` implied by the rest?  Implied iff every
        component's negation is inconsistent with the rest's rows."""
        rest = self.active_parts(sigma[:index] + sigma[index + 1:])
        return all(
            not self.solve(rest | {negated})
            for negated in self.negations[sigma[index]]
        )


class _RebuildProbe:
    """The probe outside the toggled engine: one full checker call per
    question, dispatched through the checkers' own fragment logic."""

    def __init__(self, dtd: DTD, config: CheckerConfig, stats: SolverCounters):
        self._dtd = dtd
        self._config = replace(config, want_witness=False)
        self.stats = stats
        stats.method = "rebuild"

    def consistent(self, subset: Iterable[Constraint]) -> bool:
        result = check_consistency(self._dtd, list(subset), self._config)
        self.stats.add_checker(result.stats)
        return result.consistent

    def is_redundant(self, sigma: list[Constraint], index: int) -> bool:
        rest = sigma[:index] + sigma[index + 1:]
        result = implies(self._dtd, rest, sigma[index], self._config)
        self.stats.add_checker(result.stats)
        return result.implied


def _probe(
    dtd: DTD,
    sigma: list[Constraint],
    config: CheckerConfig,
    stats: DiagnosticsStats,
    with_negations: bool,
) -> "_ToggleProbe | _RebuildProbe":
    """The toggled probe when it applies, else the rebuild probe."""
    probe = _toggled(
        sigma,
        lambda: _ToggleProbe(dtd, sigma, config, with_negations, stats),
    )
    return probe if probe is not None else _RebuildProbe(dtd, config, stats)


#: MUS filter names accepted by ``method=``.
_MUS_METHODS = ("quickxplain", "deletion")

#: A subset-consistency oracle: ``check(subset) -> True`` iff the DTD plus
#: exactly those constraints is satisfiable.  Both MUS filters are written
#: against this shape, so the toggled engine and the rebuild fallback drive
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


def _mus_check(probe: "_ToggleProbe | _RebuildProbe") -> _SubsetCheck:
    """Subset oracle over a probe, counting MUS-phase probes."""

    def check(subset: list[Constraint]) -> bool:
        probe.stats.mus_probes += 1
        return probe.consistent(subset)

    return check


def _redundancy_filter(
    probe: "_ToggleProbe | _RebuildProbe", sigma: list[Constraint]
) -> list[Constraint]:
    """The constraints of ``sigma`` that the rest implies."""
    return [
        phi
        for index, phi in enumerate(sigma)
        if probe.is_redundant(sigma, index)
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
    flags = [probe.is_redundant(sigma, index) for index in indices]
    return flags, asdict(stats)


def _redundancy_audit(
    dtd: DTD,
    probe: "_ToggleProbe | _RebuildProbe",
    sigma: list[Constraint],
    config: CheckerConfig,
    stats: DiagnosticsStats,
) -> list[Constraint]:
    """The redundancy audit; toggled with ``config.jobs > 1``, its
    per-constraint probes fan across a worker pool.

    Each worker owns a full probe (its own assembly and workspace — the
    single-owner rule of DESIGN.md section 7), so ``stats.assemblies``
    grows to at most ``1 + workers``; the verdicts are the sequential
    ones exactly, since every probe is independent and each worker runs
    the identical sequential probe code.  The parent's ``probe`` answers
    sequentially when the pool cannot be built, and always on the
    rebuild path.
    """
    jobs = min(config.jobs, len(sigma))
    if isinstance(probe, _RebuildProbe) or jobs < 2 or not WorkerPool.available():
        return _redundancy_filter(probe, sigma)
    chunks = [tuple(range(start, len(sigma), jobs)) for start in range(jobs)]
    stats.workers_spawned += jobs
    try:
        results = fanout_map(
            _diagnostics_task,
            chunks,
            jobs,
            _init_diagnostics_worker,
            (dtd, sigma, config),
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
    stats: DiagnosticsStats | None = None,
) -> list[Constraint]:
    """A minimal inconsistent subset of ``Sigma`` (a MUS).

    The single MUS entry point: ``method`` selects the filter.

    Requires the full set to be inconsistent with the DTD (raises
    :class:`InvalidConstraintError` otherwise). The result may be empty
    when the DTD alone has no valid tree — then no constraints are to
    blame at all.

    ``method`` selects the filter: ``"quickxplain"`` (default) probes
    divide-and-conquer backgrounds — ``O(k + k·log(|Sigma|/k))`` probes
    for a core of size ``k`` — while ``"deletion"`` is the classic linear
    filter, exactly ``|Sigma|`` probes.  Both return minimal cores; on
    specifications with several distinct MUSes they may return different
    (individually minimal) ones.  Subsets are probed by row toggles on a
    single assembled system (one full checker call per probe outside the
    unary fragment).  ``stats``, when supplied, is filled with the
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
    sigma = list(constraints)
    probe = _probe(dtd, sigma, config, stats, with_negations=False)
    if probe.consistent(sigma):
        raise InvalidConstraintError(
            "the specification is consistent; there is no inconsistent subset"
        )
    if not dtd_has_valid_tree(dtd):
        return []
    return _minimal_core(_mus_check(probe), sigma, method)


def redundant_constraints(
    dtd: DTD,
    constraints: Iterable[Constraint],
    config: CheckerConfig | None = None,
    *,
    stats: DiagnosticsStats | None = None,
) -> list[Constraint]:
    """Constraints implied by the remaining ones over the DTD.

    Note the subtlety: redundancy here is *relative to the whole rest*, so
    two mutually-implied constraints can both be reported (either one may
    be dropped, not both).  Each implication is decided by activating the
    rest's rows plus the query's negated rows on the one assembled union
    system.  The per-constraint probes are independent, so
    ``config.jobs > 1`` fans them across a worker pool (each worker on its
    own assembly) with identical verdicts.
    """
    config = config or DEFAULT_CONFIG
    stats = stats if stats is not None else DiagnosticsStats()
    sigma = list(constraints)
    probe = _probe(dtd, sigma, config, stats, with_negations=True)
    return _redundancy_audit(dtd, probe, sigma, config, stats)


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
    mus_method: str = "quickxplain",
) -> DiagnosticsReport:
    """Full specification health check.

    For consistent specifications, reports redundancies; for inconsistent
    ones, a minimal conflicting subset — found by the ``mus_method``
    filter (QuickXplain by default; ``"deletion"`` for the linear
    reference filter).  The whole report — the initial consistency
    verdict plus every MUS/redundancy probe — is served from one
    assembled system (``report.stats.assemblies == 1`` on the sequential
    toggled path); the rebuild fallback drives the *same* filters through
    full checker calls.  ``config.jobs > 1`` fans the redundancy audit's
    independent probes across a worker pool (one assembly per worker);
    the MUS filter stays sequential — each of its probes depends on the
    answers before it.
    """
    _require_mus_method(mus_method)
    config = config or DEFAULT_CONFIG
    sigma = list(constraints)
    stats = DiagnosticsStats()
    if not dtd_has_valid_tree(dtd):
        return DiagnosticsReport(
            consistent=False, dtd_satisfiable=False, stats=stats
        )
    probe = _probe(dtd, sigma, config, stats, with_negations=True)
    if probe.consistent(sigma):
        redundant = _redundancy_audit(dtd, probe, sigma, config, stats)
        return DiagnosticsReport(consistent=True, redundant=redundant, stats=stats)
    stats.mus_method = mus_method
    return DiagnosticsReport(
        consistent=False,
        mus=_minimal_core(_mus_check(probe), sigma, mus_method),
        stats=stats,
    )
