"""Minimal repairs: *how to fix* an inconsistent specification.

The diagnostics layer (:mod:`repro.analysis.diagnostics`) tells the schema
author *which* constraints conflict; this module computes minimal
**repairs** in the spirit of Bravo–Cheney–Fundulaki: a smallest (or
minimum-weight) set of edits that restores consistency, drawn from three
edit families:

* :class:`DeleteConstraint` — drop one constraint of Sigma;
* :class:`LoosenChild` — make a required child optional in one content
  model (``(a, b)`` becomes ``(a?, b)``), the cardinality loosening;
* :class:`DropAttribute` — remove one attribute requirement ``tau.l``
  (constraints naming it go with it).

Every candidate edit is probed on **one** shared assembly: constraint
deletions reuse the :class:`~repro.encoding.combined.ConsistencyEncoding`
toggle registry exactly as the MUS filter does, and DTD edits ride the
``repair_sites=True`` shadow rows — deactivating a rule-equation row
leaves its one-sided shadow, which *is* the loosened DTD's projection —
plus a per-probe recomputation of the unusable-type closure.  A probe is
therefore one re-solve on the persistent workspace
(``stats.assemblies == 1`` for the whole search, the invariant
``benchmarks/bench_repair.py`` gates).

The search is the implicit-hitting-set loop, MUS-guided: whenever a
candidate edit set probes infeasible, the engine shrinks a constraint-MUS
of the edited spec with the **same** QuickXplain filter that powers
:func:`~repro.analysis.diagnostics.mus` (deleting a
constraint *is* one of the edits, so the filter runs unchanged over the
edit oracle — the divide-and-conquer is exactly dual), then widens it to
a *core*: the edits that could neutralize that MUS.  A repair must hit
every discovered core — missing one would leave the MUS intact over a
DTD at least as strict, hence inconsistent by monotonicity — so the
engine alternates exact min-weight hitting sets with core extraction
until a hitting set probes consistent; positive weights make that set
both minimum-weight and inclusion-minimal.  The result is applied and
re-checked end to end before being returned (``verified``).

>>> from repro.dtd.model import DTD
>>> from repro.constraints.parser import parse_constraints
>>> d = DTD.build("r", {"r": "(a, a)", "a": "EMPTY"},
...               attrs={"r": ["k"], "a": ["k"]})
>>> sigma = parse_constraints("a.k -> a\\na.k <= r.k")
>>> rep = minimal_repair(d, sigma)
>>> (rep.found, rep.cost, [act.describe() for act in rep.actions])
(True, 1, ['delete constraint a.k -> a'])
>>> rep.verified and rep.stats.assemblies == 1
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar
from collections.abc import Iterable, Mapping

from repro.analysis.diagnostics import (
    SOLVER_COUNTERS,
    SolverCounters,
    _minimal_core,
    _toggled,
    _ToggleProbe,
)
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.constraints.ast import (
    Constraint,
    ForeignKey,
    InclusionConstraint,
    Key,
    NegInclusion,
    NegKey,
)
from repro.constraints.classes import validate_constraints
from repro.dtd.analysis import required_children
from repro.dtd.model import DTD
from repro.dtd.serializer import dtd_to_string
from repro.dtd.simplify import AltRule, EpsRule, OneRule, SeqRule
from repro.encoding.cardinality import attr_var
from repro.errors import SolverError
from repro.regex.ast import (
    TEXT_SYMBOL,
    Concat,
    Epsilon,
    Name,
    Optional,
    Plus,
    Regex,
    Star,
    Text,
    Union,
)


# ---------------------------------------------------------------------------
# Edit actions
# ---------------------------------------------------------------------------


class RepairAction:
    """Base class of the three edit families.  Frozen and hashable, so
    actions can key weight mappings and probe memo tables."""

    __slots__ = ()

    #: Short family name; also a valid key in ``minimal_repair(weights=...)``
    #: to weight a whole family at once.
    kind: str = ""

    def describe(self) -> str:
        """One-line human rendering, used in summaries and wire payloads."""
        raise NotImplementedError

    def as_dict(self) -> dict[str, str]:
        """JSON-able rendering for the service wire format."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class DeleteConstraint(RepairAction):
    """Remove one constraint of Sigma (foreign keys as a whole)."""

    constraint: Constraint

    kind = "delete"

    def describe(self) -> str:
        return f"delete constraint {self.constraint}"

    def as_dict(self) -> dict[str, str]:
        return {"kind": "delete", "constraint": str(self.constraint)}


@dataclass(frozen=True, slots=True)
class LoosenChild(RepairAction):
    """Make every occurrence of ``child`` optional in ``P(element_type)``."""

    element_type: str
    child: str

    kind = "loosen"

    def describe(self) -> str:
        return f"make child {self.child} optional in content of {self.element_type}"

    def as_dict(self) -> dict[str, str]:
        return {
            "kind": "loosen",
            "element_type": self.element_type,
            "child": self.child,
        }


@dataclass(frozen=True, slots=True)
class DropAttribute(RepairAction):
    """Remove attribute ``attr`` from ``R(element_type)``; constraints
    naming ``element_type.attr`` are removed with it."""

    element_type: str
    attr: str

    kind = "drop"

    def describe(self) -> str:
        return f"drop attribute {self.element_type}.{self.attr}"

    def as_dict(self) -> dict[str, str]:
        return {
            "kind": "drop",
            "element_type": self.element_type,
            "attr": self.attr,
        }


def _attr_refs(phi: Constraint) -> frozenset[tuple[str, str]]:
    """Every ``(element_type, attribute)`` pair a constraint names."""
    if isinstance(phi, Key):
        return frozenset((phi.element_type, attr) for attr in phi.attrs)
    if isinstance(phi, ForeignKey):
        return _attr_refs(phi.inclusion)
    if isinstance(phi, InclusionConstraint):
        return frozenset(
            [(phi.child_type, attr) for attr in phi.child_attrs]
            + [(phi.parent_type, attr) for attr in phi.parent_attrs]
        )
    if isinstance(phi, NegKey):
        return frozenset([(phi.element_type, phi.attr)])
    if isinstance(phi, NegInclusion):
        return frozenset(
            [
                (phi.child_type, phi.child_attr),
                (phi.parent_type, phi.parent_attr),
            ]
        )
    raise TypeError(f"unknown constraint {phi!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Stats and result types
# ---------------------------------------------------------------------------


@dataclass
class RepairStats(SolverCounters):
    """Work counters for one repair call.

    ``assemblies`` counts base-matrix assemblies charged by *search
    probes* — exactly 1 on the toggled path no matter how many edit
    subsets are probed (the ``bench_repair.py`` gate); the final
    apply-and-re-check verification is a deliberate fresh checker call
    and is tracked separately as ``verify_checks``, never as a probe
    assembly.  ``probes`` counts distinct subset solves (memo hits are
    ``probe_cache_hits``), ``core_probes`` the probes spent inside the
    core-shrinking filter (the dual-MUS phase), ``cores`` and
    ``hitting_sets`` the iterations of the implicit-hitting-set loop.
    """

    core_method: str = ""
    candidates: int = 0
    probe_cache_hits: int = 0
    core_probes: int = 0
    cores: int = 0
    hitting_sets: int = 0
    verify_checks: int = 0

    # SOLVER_COUNTERS[0] is ``assemblies``.
    _LAYOUT: ClassVar[tuple[str, ...]] = (
        "method", "core_method", "candidates", "assemblies", "probes",
        "probe_cache_hits", "core_probes", "cores", "hitting_sets",
        "verify_checks", *SOLVER_COUNTERS[1:],
    )


@dataclass
class Repair:
    """The result of :func:`minimal_repair`.

    ``found`` is the headline verdict (``bool(repair)``); when true,
    ``actions`` is a minimum-weight edit set, ``dtd``/``constraints``
    are the repaired specification, ``diff`` a human-readable edit diff
    and ``verified`` records that re-running the full consistency
    checker on the repaired specification returned consistent.
    ``consistent_before`` short-circuits everything: the input needed no
    repair and the edit set is empty.
    """

    consistent_before: bool
    found: bool
    actions: tuple[RepairAction, ...]
    cost: int
    dtd: DTD
    constraints: list[Constraint]
    diff: str
    verified: bool
    stats: RepairStats = field(default_factory=RepairStats)

    def __bool__(self) -> bool:
        return self.found

    def summary(self) -> str:
        """Human-readable multi-line rendering (CLI / spec_doctor)."""
        if self.consistent_before:
            return "specification is already consistent; nothing to repair"
        if not self.found:
            return "no repair exists within the edit space"
        lines = [f"minimal repair (cost {self.cost}):"]
        for action in self.actions:
            lines.append(f"  - {action.describe()}")
        if self.diff:
            lines.append("edit diff:")
            lines.extend(f"  {line}" for line in self.diff.splitlines())
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-able rendering — the service wire payload body."""
        return {
            "consistent_before": self.consistent_before,
            "found": self.found,
            "cost": self.cost,
            "verified": self.verified,
            "actions": [action.as_dict() for action in self.actions],
            "diff": self.diff,
            "dtd": dtd_to_string(self.dtd),
            "constraints": [str(phi) for phi in self.constraints],
            "summary": self.summary(),
            "stats": self.stats.as_dict(),
        }


# ---------------------------------------------------------------------------
# Applying repairs
# ---------------------------------------------------------------------------


def _wrap_optional(expr: Regex, symbol: str) -> Regex:
    """Wrap every ``Name(symbol)`` occurrence of ``expr`` in ``?``."""
    if isinstance(expr, Name):
        return Optional(expr) if expr.symbol == symbol else expr
    if isinstance(expr, (Epsilon, Text)):
        return expr
    if isinstance(expr, Concat):
        return Concat(tuple(_wrap_optional(item, symbol) for item in expr.items))
    if isinstance(expr, Union):
        return Union(tuple(_wrap_optional(item, symbol) for item in expr.items))
    if isinstance(expr, Star):
        return Star(_wrap_optional(expr.item, symbol))
    if isinstance(expr, Plus):
        return Plus(_wrap_optional(expr.item, symbol))
    if isinstance(expr, Optional):
        return Optional(_wrap_optional(expr.item, symbol))
    raise TypeError(f"unknown regex node {expr!r}")  # pragma: no cover


def apply_repair(
    dtd: DTD,
    constraints: Iterable[Constraint],
    actions: Iterable[RepairAction],
) -> tuple[DTD, list[Constraint]]:
    """Apply an edit set to ``(dtd, Sigma)``, returning the new spec.

    Deterministic and purely structural: deletions filter Sigma,
    loosenings rewrite the content-model AST (every occurrence of the
    child gains ``?``), attribute drops shrink ``R(tau)`` and remove the
    constraints that name the dropped attribute.

    >>> from repro.dtd.model import DTD
    >>> from repro.constraints.parser import parse_constraints
    >>> d = DTD.build("r", {"r": "(a, b)", "a": "EMPTY", "b": "EMPTY"},
    ...               attrs={"a": ["k"]})
    >>> d2, s2 = apply_repair(d, parse_constraints("a.k -> a"),
    ...                       [LoosenChild("r", "a"), DropAttribute("a", "k")])
    >>> (str(d2.content["r"]), sorted(d2.attrs("a")), s2)
    ('a?, b', [], [])
    """
    content = dict(dtd.content)
    attrs_of = {tau: set(attrs) for tau, attrs in dtd.attrs_of.items()}
    deleted: set[Constraint] = set()
    dropped: set[tuple[str, str]] = set()
    for action in actions:
        if isinstance(action, DeleteConstraint):
            deleted.add(action.constraint)
        elif isinstance(action, LoosenChild):
            content[action.element_type] = _wrap_optional(
                content[action.element_type], action.child
            )
        elif isinstance(action, DropAttribute):
            attrs_of.setdefault(action.element_type, set()).discard(action.attr)
            dropped.add((action.element_type, action.attr))
        else:
            raise TypeError(f"unknown repair action {action!r}")
    new_sigma = [
        phi
        for phi in constraints
        if phi not in deleted and not (_attr_refs(phi) & dropped)
    ]
    attribute_names = sorted({attr for attrs in attrs_of.values() for attr in attrs})
    new_dtd = DTD(
        element_types=dtd.element_types,
        attributes=tuple(attribute_names),
        content=content,
        attrs_of={tau: frozenset(attrs) for tau, attrs in attrs_of.items()},
        root=dtd.root,
    )
    return new_dtd, new_sigma


def _edit_diff(
    dtd: DTD,
    sigma: list[Constraint],
    new_dtd: DTD,
    new_sigma: list[Constraint],
) -> str:
    """Line-level before/after diff of the declarations and Sigma."""
    old_lines = dtd_to_string(dtd).splitlines()
    new_lines = dtd_to_string(new_dtd).splitlines()
    lines = [f"- {line}" for line in old_lines if line not in new_lines]
    lines.extend(f"+ {line}" for line in new_lines if line not in old_lines)
    remaining = list(new_sigma)
    for phi in sigma:
        if phi in remaining:
            remaining.remove(phi)
        else:
            lines.append(f"- constraint: {phi}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The toggled probe engine: one assembly, every edit a row flip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Candidate:
    """One universe entry: the action plus its precompiled probe effect."""

    action: RepairAction
    #: Original constraints this action removes from Sigma.
    removes: frozenset[Constraint] = frozenset()
    #: Rule-site indices this action deactivates (loosenings).
    sites: frozenset[int] = frozenset()
    #: ``(tau, attr)`` requirements this action drops.
    drops: frozenset[tuple[str, str]] = frozenset()


class _RepairProbe(_ToggleProbe):
    """One assembled ``Psi(D, Sigma)`` with every constraint row *and*
    every rule row toggleable (``repair_sites=True``), probed through a
    single persistent :class:`~repro.ilp.condsys.SolveWorkspace`.

    A probe applies a set of edits: deleted constraints' rows, clauses
    and forced supports are filtered exactly as in the diagnostics
    engine; loosened rule rows are deactivated (their one-sided shadow
    row keeps the upper bound — the loosened DTD's projection) together
    with their support clauses, and the unusable-type closure is
    recomputed for the loosened grammar (a type whose children became
    optional may become productive); dropped attribute requirements are
    filtered out of ``requires_if_present``.  Probe results are memoized
    — the hitting-set loop re-probes the same edit sets freely.
    """

    def __init__(
        self,
        dtd: DTD,
        sigma: list[Constraint],
        config: CheckerConfig,
        stats: RepairStats,
    ):
        super().__init__(
            dtd, sigma, config, with_negations=False, stats=stats,
            repair_sites=True,
        )
        self._sites_of: dict[str, list[int]] = {}
        for index, site in enumerate(self.encoding.sites):
            self._sites_of.setdefault(site.parent, []).append(index)
        self._forced_false_cache: dict[frozenset[int], frozenset[str]] = {}
        self._probe_cache: dict[
            tuple[frozenset[Constraint], frozenset[int], frozenset[tuple[str, str]]],
            bool,
        ] = {}

    # -- candidate compilation ------------------------------------------

    def _owners(self, tau: str) -> frozenset[str]:
        """``tau`` plus the generated types its content model expanded
        into — the rule scope of one original content model."""
        simple = self.encoding.simple
        owners = {tau}
        frontier = [tau]
        while frontier:
            current = frontier.pop()
            for symbol in simple.rules[current].symbols():
                if (
                    symbol == TEXT_SYMBOL
                    or symbol in owners
                    or simple.is_original(symbol)
                ):
                    continue
                owners.add(symbol)
                frontier.append(symbol)
        return frozenset(owners)

    def site_indices(self, tau: str, child: str) -> frozenset[int]:
        """The rule sites a ``LoosenChild(tau, child)`` edit deactivates:
        every site in ``tau``'s rule scope that constrains ``child``."""
        owners = self._owners(tau)
        return frozenset(
            index
            for index, site in enumerate(self.encoding.sites)
            if site.parent in owners
            and any(symbol == child for _, symbol in site.children)
        )

    # -- per-probe unusable-type closure --------------------------------

    def _forced_false(self, loosened: frozenset[int]) -> frozenset[str]:
        """Unusable types of the loosened grammar (memoized).

        Support clauses only exclude a type from being its *own* child
        requirement, so mutually-recursive unproductive types are caught
        exclusively by this closure — recomputing it per loosening set
        is a correctness requirement, not an optimization.
        """
        if not loosened:
            return self.encoding.condsys.forced_false
        cached = self._forced_false_cache.get(loosened)
        if cached is not None:
            return cached
        simple = self.encoding.simple

        def symbol_ok(symbol: str, productive: set[str]) -> bool:
            return symbol == TEXT_SYMBOL or symbol in productive

        productive: set[str] = set()
        changed = True
        while changed:
            changed = False
            for tau in simple.types:
                if tau in productive:
                    continue
                rule = simple.rules[tau]
                if isinstance(rule, EpsRule):
                    ok = True
                elif isinstance(rule, OneRule):
                    (index,) = self._sites_of[tau]
                    ok = index in loosened or symbol_ok(rule.symbol, productive)
                elif isinstance(rule, SeqRule):
                    first, second = self._sites_of[tau]
                    ok = (
                        first in loosened or symbol_ok(rule.first, productive)
                    ) and (
                        second in loosened or symbol_ok(rule.second, productive)
                    )
                elif isinstance(rule, AltRule):
                    (index,) = self._sites_of[tau]
                    ok = (
                        index in loosened
                        or symbol_ok(rule.left, productive)
                        or symbol_ok(rule.right, productive)
                    )
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown rule {rule!r}")
                if ok:
                    productive.add(tau)
                    changed = True
        if simple.root not in productive:
            usable: set[str] = set()
        else:
            usable = {simple.root}
            frontier = [simple.root]
            while frontier:
                tau = frontier.pop()
                for symbol in simple.rules[tau].symbols():
                    if (
                        symbol != TEXT_SYMBOL
                        and symbol in productive
                        and symbol not in usable
                    ):
                        usable.add(symbol)
                        frontier.append(symbol)
        result = frozenset(set(simple.types) - usable)
        self._forced_false_cache[loosened] = result
        return result

    # -- the probe ------------------------------------------------------

    def feasible(
        self,
        removed: frozenset[Constraint],
        loosened: frozenset[int],
        dropped: frozenset[tuple[str, str]],
    ) -> bool:
        """Is the edited specification consistent?  One re-solve on the
        shared workspace (memoized by the edit's normalized effect)."""
        key = (removed, loosened, dropped)
        cached = self._probe_cache.get(key)
        if cached is not None:
            self.stats.probe_cache_hits += 1
            return cached
        condsys = self.encoding.condsys
        overrides: dict = {"forced_false": self._forced_false(loosened)}
        if dropped:
            dropped_vars = {attr_var(tau, attr) for tau, attr in dropped}
            overrides["requires_if_present"] = {
                tau: tuple(var for var in vars_ if var not in dropped_vars)
                for tau, vars_ in condsys.requires_if_present.items()
            }
        feasible = self.solve(
            self.active_parts(phi for phi in self.parts if phi not in removed),
            loosened,
            **overrides,
        )
        self._probe_cache[key] = feasible
        return feasible


# ---------------------------------------------------------------------------
# The implicit-hitting-set search
# ---------------------------------------------------------------------------


def _min_hitting_set(
    cores: list[frozenset[int]], weights: list[int]
) -> frozenset[int]:
    """Exact minimum-weight hitting set over the discovered cores.

    Deterministic branch-and-bound: branch on the first unhit core (in
    discovery order), elements in index order; among equal-weight optima
    the lexicographically smallest index tuple wins, so repeated calls —
    and therefore whole repair runs — are reproducible byte for byte.
    Core counts are small (one per loop iteration), so the exact search
    is far cheaper than a single solver probe.
    """
    best_cost: int | None = None
    best_key: tuple[int, ...] | None = None

    def search(chosen: tuple[int, ...], cost: int, remaining: list[frozenset[int]]) -> None:
        nonlocal best_cost, best_key
        if best_cost is not None and (
            cost > best_cost or (cost == best_cost and remaining)
        ):
            return
        if not remaining:
            key = tuple(sorted(chosen))
            if (
                best_cost is None
                or cost < best_cost
                or (cost == best_cost and best_key is not None and key < best_key)
            ):
                best_cost, best_key = cost, key
            return
        core = remaining[0]
        for element in sorted(core):
            search(
                chosen + (element,),
                cost + weights[element],
                [c for c in remaining[1:] if element not in c],
            )

    search((), 0, list(cores))
    return frozenset(best_key or ())


def _search(
    feasible,
    universe_size: int,
    weights: list[int],
    extract_core,
    stats: RepairStats,
) -> tuple[str, tuple[int, ...]]:
    """The implicit-hitting-set loop over edit indices.

    ``feasible(applied)`` decides consistency with an edit index set
    applied; it must be monotone increasing (more edits never hurt) and
    memoized (the loop legitimately re-asks).  Returns
    ``("consistent", ())``, ``("none", ())`` or ``("found", indices)``.

    A *core* is a set of edits every repair must intersect — here
    MUS-guided: when a candidate hitting set probes infeasible,
    ``extract_core`` shrinks a constraint-MUS of the edited spec and
    widens it to the edits that could neutralize it.  Missing a core
    entirely would, by monotonicity, leave that MUS intact over a DTD at
    least as strict — still broken — so cores are sound pruning.  Each
    new core is disjoint from the current hitting set, so the loop
    strictly progresses, and the first feasible hitting set is a
    minimum-weight, inclusion-minimal repair (with positive weights, a
    cheaper strict subset would contradict optimality).
    """
    everything = frozenset(range(universe_size))
    if feasible(frozenset()):
        return ("consistent", ())
    if not feasible(everything):
        return ("none", ())
    cores: list[frozenset[int]] = []
    while True:
        stats.hitting_sets += 1
        hit = _min_hitting_set(cores, weights)
        if feasible(hit):
            return ("found", tuple(sorted(hit)))
        core = extract_core(hit)
        if not core or core & hit or core in cores:  # pragma: no cover
            raise SolverError("repair search failed to make progress")
        cores.append(core)
        stats.cores += 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _candidate_universe(
    dtd: DTD, sigma: list[Constraint]
) -> list[_Candidate]:
    """The edit universe, in deterministic order: constraint deletions
    (Sigma order), cardinality loosenings (type-sorted, child-sorted —
    only *required* children, optional ones have nothing to loosen),
    attribute drops (declaration order, only attributes Sigma names —
    dropping an unreferenced attribute cannot affect consistency)."""
    universe: list[_Candidate] = []
    seen: set[Constraint] = set()
    for phi in sigma:
        if phi in seen:
            continue
        seen.add(phi)
        universe.append(
            _Candidate(action=DeleteConstraint(phi), removes=frozenset([phi]))
        )
    for tau in dtd.element_types:
        for child in sorted(required_children(dtd, tau)):
            universe.append(_Candidate(action=LoosenChild(tau, child)))
    referenced = frozenset(pair for phi in sigma for pair in _attr_refs(phi))
    for tau, attr in dtd.attribute_pairs():
        if (tau, attr) not in referenced:
            continue
        removes = frozenset(
            phi for phi in sigma if (tau, attr) in _attr_refs(phi)
        )
        universe.append(
            _Candidate(
                action=DropAttribute(tau, attr),
                removes=removes,
                drops=frozenset([(tau, attr)]),
            )
        )
    return universe


def _resolve_weights(
    universe: list[_Candidate],
    weights: Mapping[RepairAction | str, int] | None,
) -> list[int]:
    """Per-candidate positive weights: exact action match first, then the
    family name (``"delete"``/``"loosen"``/``"drop"``), default 1."""
    resolved: list[int] = []
    weights = weights or {}
    for candidate in universe:
        value = weights.get(candidate.action, weights.get(candidate.action.kind, 1))
        if not isinstance(value, int) or value < 1:
            raise ValueError(
                f"repair weights must be positive integers, got {value!r} "
                f"for {candidate.action.describe()!r}"
            )
        resolved.append(value)
    return resolved


def minimal_repair(
    dtd: DTD,
    constraints: Iterable[Constraint],
    config: CheckerConfig | None = None,
    *,
    weights: Mapping[RepairAction | str, int] | None = None,
    stats: RepairStats | None = None,
) -> Repair:
    """A minimum-weight repair of ``(dtd, Sigma)``.

    Searches constraint deletions, cardinality loosenings and attribute
    drops for a smallest edit set restoring consistency; with the default
    unit weights the result is cardinality-minimal, and ``weights``
    (keyed by action instance or by family name) selects weighted-minimal
    repairs instead.  Edit sets are
    probed by row toggles on one assembled system; outside the unary
    fragment the apply-and-recheck fallback runs one full checker call
    per probed edit set.  The returned repair is always applied and
    re-checked before this function returns; a verification failure
    raises :class:`SolverError` (it would be an internal probe-exactness
    bug, never a wrong answer).
    """
    config = config or DEFAULT_CONFIG
    stats = stats if stats is not None else RepairStats()
    stats.core_method = _minimal_core.__name__
    sigma = list(constraints)
    validate_constraints(dtd, sigma)
    universe = _candidate_universe(dtd, sigma)
    stats.candidates = len(universe)
    weight_list = _resolve_weights(universe, weights)

    probe = _toggled(sigma, lambda: _RepairProbe(dtd, sigma, config, stats))
    if probe is not None:
        compiled = [
            _Candidate(
                action=candidate.action,
                removes=candidate.removes,
                sites=(
                    probe.site_indices(
                        candidate.action.element_type, candidate.action.child
                    )
                    if isinstance(candidate.action, LoosenChild)
                    else frozenset()
                ),
                drops=candidate.drops,
            )
            for candidate in universe
        ]

        def feasible(applied: frozenset[int]) -> bool:
            removed: set[Constraint] = set()
            loosened: set[int] = set()
            dropped: set[tuple[str, str]] = set()
            for index in applied:
                entry = compiled[index]
                removed.update(entry.removes)
                loosened.update(entry.sites)
                dropped.update(entry.drops)
            return probe.feasible(
                frozenset(removed), frozenset(loosened), frozenset(dropped)
            )

    else:
        stats.method = "rebuild"
        probe_config = replace(config, want_witness=False)
        rebuild_cache: dict[frozenset[int], bool] = {}

        def feasible(applied: frozenset[int]) -> bool:
            cached = rebuild_cache.get(applied)
            if cached is not None:
                stats.probe_cache_hits += 1
                return cached
            edited_dtd, edited_sigma = apply_repair(
                dtd, sigma, [universe[index].action for index in sorted(applied)]
            )
            result = check_consistency(edited_dtd, edited_sigma, probe_config)
            stats.add_checker(result.stats)
            rebuild_cache[applied] = result.consistent
            return result.consistent

    delete_index: dict[Constraint, int] = {}
    loosen_indices: list[int] = []
    drop_pairs: dict[int, tuple[str, str]] = {}
    for index, candidate in enumerate(universe):
        action = candidate.action
        if isinstance(action, DeleteConstraint):
            delete_index[action.constraint] = index
        elif isinstance(action, LoosenChild):
            loosen_indices.append(index)
        else:
            drop_pairs[index] = (action.element_type, action.attr)

    def extract_core(hit: frozenset[int]) -> frozenset[int]:
        """A MUS-guided core: shrink a constraint-MUS of the hit-edited
        spec (deleting a constraint = applying its delete edit, so the
        MUS filter runs unchanged over the index oracle), then
        widen to every edit that could neutralize the MUS — its members'
        deletions, attribute drops its members name, and all remaining
        loosenings (a repair avoiding all of these keeps the MUS intact
        over a DTD at least as strict, hence stays inconsistent)."""
        removed_h: set[Constraint] = set()
        for index in hit:
            removed_h.update(universe[index].removes)
        active = [phi for phi in delete_index if phi not in removed_h]

        def check(subset: list[Constraint]) -> bool:
            stats.core_probes += 1
            keep = frozenset(subset)
            extra = frozenset(
                delete_index[phi] for phi in active if phi not in keep
            )
            return feasible(hit | extra)

        mus: list[Constraint] = []
        if active and check([]):
            mus = _minimal_core(check, active)
        mus_refs: set[tuple[str, str]] = set()
        for phi in mus:
            mus_refs.update(_attr_refs(phi))
        core = {delete_index[phi] for phi in mus}
        core.update(
            index
            for index, pair in drop_pairs.items()
            if index not in hit and pair in mus_refs
        )
        core.update(index for index in loosen_indices if index not in hit)
        return frozenset(core - hit)

    status, chosen = _search(
        feasible, len(universe), weight_list, extract_core, stats
    )
    if status == "consistent":
        return Repair(
            consistent_before=True,
            found=True,
            actions=(),
            cost=0,
            dtd=dtd,
            constraints=sigma,
            diff="",
            verified=True,
            stats=stats,
        )
    if status == "none":
        return Repair(
            consistent_before=False,
            found=False,
            actions=(),
            cost=0,
            dtd=dtd,
            constraints=sigma,
            diff="",
            verified=False,
            stats=stats,
        )
    actions = tuple(universe[index].action for index in chosen)
    cost = sum(weight_list[index] for index in chosen)
    new_dtd, new_sigma = apply_repair(dtd, sigma, actions)
    stats.verify_checks += 1
    verify_config = replace(config, want_witness=False)
    verdict = check_consistency(new_dtd, new_sigma, verify_config)
    if not verdict.consistent:
        raise SolverError(
            "internal error: minimal repair failed verification — the "
            "probe engine and the checker disagree on the edited spec: "
            + "; ".join(action.describe() for action in actions)
        )
    return Repair(
        consistent_before=False,
        found=True,
        actions=actions,
        cost=cost,
        dtd=new_dtd,
        constraints=new_sigma,
        diff=_edit_diff(dtd, sigma, new_dtd, new_sigma),
        verified=True,
        stats=stats,
    )
