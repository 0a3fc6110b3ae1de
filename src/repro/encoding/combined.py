"""Assembly of ``Psi(D, Sigma)`` (Lemma 4.6, Theorem 4.1, Theorem 5.1).

:func:`build_encoding` turns a DTD and a set of *unary* constraints into a
single :class:`~repro.ilp.condsys.ConditionalSystem`:

* ``Psi_DN`` rows for the simplified DTD (:mod:`repro.encoding.dtd_system`);
* ``C_Sigma`` rows, negated-key rows and attribute-totality conditionals
  (:mod:`repro.encoding.cardinality`);
* the ``z_theta`` set-representation block when negated inclusion
  constraints are present (:mod:`repro.encoding.setrep`);
* support clauses and forced/forbidden supports for the search.

The resulting system is solvable iff an XML tree conforming to ``D`` and
satisfying ``Sigma`` exists; a feasible solution is realizable as an actual
witness tree by :mod:`repro.witness`.

The ``Psi_DN`` block depends only on the DTD, so it is memoized per DTD
text (:func:`encoding_cache_stats` reports hit rates): batch callers such
as :func:`repro.checkers.implication.implies_all` re-encode only the
constraint rows per query.  The cached system is never handed out directly
— every :func:`build_encoding` call copies it before the constraint
encoders append rows.  The block also assembles its rows into CSR arrays
once (:func:`repro.ilp.assembled.freeze_row_prefix`); the copy shares
them read-only, so assembling an encoding assembles only its ``C_Sigma``
rows, indexes its support clauses once, and keeps the DTD's
conformance checker.  One lock guards the cache, so server threads may
share it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.constraints.ast import (
    Constraint,
    ForeignKey,
    InclusionConstraint,
    Key,
    NegInclusion,
    NegKey,
)
from repro.constraints.classes import expand_foreign_keys, validate_constraints
from repro.dtd.analysis import usable_types
from repro.dtd.model import DTD
from repro.dtd.simplify import SimpleDTD, simplify_dtd
from repro.encoding.cardinality import encode_constraints
from repro.encoding.dtd_system import DTDSystem, RuleSite, encode_dtd, ext_var
from repro.encoding.setrep import SetRepBlock, encode_set_representation
from repro.errors import InvalidConstraintError
from repro.ilp.assembled import BlockEngine, LiveEngines, freeze_row_prefix
from repro.ilp.condsys import ConditionalSystem, _ClauseIndex
from repro.xmltree.validate import TreeValidator


@dataclass(frozen=True)
class ConstraintToggle:
    """One constraint's toggleable contribution to ``Psi(D, Sigma)``.

    ``rows`` are stable base-row indices (``C_Sigma`` and set-representation
    rows); ``clause_ids`` index into ``condsys.clauses``; ``forced_true``
    are the element types the constraint forces present.  Deactivating a
    constraint means dropping all three from the probe: rows by bound
    toggles on the assembled system, clauses and forced supports by
    filtering the :class:`~repro.ilp.condsys.ConditionalSystem` view (they
    are only sound while their constraint is active).
    """

    rows: tuple[int, ...] = ()
    clause_ids: tuple[int, ...] = ()
    forced_true: frozenset[str] = frozenset()


@dataclass
class ConsistencyEncoding:
    """Everything the solver and the witness synthesizer need."""

    dtd: DTD
    simple: SimpleDTD
    condsys: ConditionalSystem
    keys: list[Key]
    inclusions: list[InclusionConstraint]
    neg_keys: list[NegKey]
    neg_inclusions: list[NegInclusion]
    setrep: SetRepBlock | None
    constraints: list[Constraint]
    #: Toggle registry, keyed by *expanded* unary constraint (foreign keys
    #: appear through their inclusion + key components).
    toggles: dict[Constraint, ConstraintToggle] = field(default_factory=dict)
    #: Rule-site provenance (``repair_sites=True`` only): every ``Psi_DN``
    #: rule row, in encoder order, for the repair engine's loosening probes.
    sites: tuple[RuleSite, ...] = ()
    #: Per-site toggle (``repair_sites=True`` only): deactivating it leaves
    #: the site's one-sided shadow row, turning the rule equation into the
    #: loosened (children-optional) projection.
    site_toggles: dict[int, ConstraintToggle] = field(default_factory=dict)
    #: The DTD's cached ``T |= D`` checker (shared by every encoding over
    #: an equal DTD), for re-verifying witnesses and counterexamples.
    validator: TreeValidator | None = None

    def toggle_view(
        self, active: Iterable[Constraint], loosened: frozenset[int] = frozenset()
    ) -> tuple[frozenset[int], frozenset[int], frozenset[str]]:
        """``(active_rows, inactive_clauses, forced_true)`` of a probe that
        keeps the toggles of the ``active`` expanded constraints and of
        every rule site not ``loosened``; the arguments a toggled
        :func:`~repro.ilp.condsys.solve_conditional_system` call takes."""
        toggles = [self.toggles[phi] for phi in active]
        kept = toggles + [
            toggle
            for index, toggle in self.site_toggles.items()
            if index not in loosened
        ]
        active_clauses = {
            clause_id for toggle in kept for clause_id in toggle.clause_ids
        }
        return (
            frozenset(row for toggle in kept for row in toggle.rows),
            self.condsys.toggleable_clauses - active_clauses,
            frozenset().union(*(toggle.forced_true for toggle in toggles)),
        )


@dataclass
class _DTDBlock:
    """The constraint-independent part of the encoding, cached per DTD.

    ``dtd_system.system`` carries its assembled rows as ``row_prefix``;
    ``clause_index`` indexes ``dtd_system.clauses`` for propagation (each
    solve extends it with its ``C_Sigma`` clauses), ``validator`` holds
    the content-model automata of Definition 2.2's ``T |= D``, and
    ``engine`` is the HiGHS LP instance of ``Psi_DN`` each solve leases
    as its warm start (evicted with the block; its HiGHS instance is kept
    only while among the :data:`LIVE_ENGINE_LIMIT` most recently leased).
    """

    simple: SimpleDTD
    dtd_system: DTDSystem
    forced_false: frozenset[str]
    ext_vars: dict[str, object]
    clause_index: _ClauseIndex
    validator: TreeValidator
    engine: BlockEngine


#: Entry bound of the per-DTD caches: the ``Psi_DN`` blocks here and the
#: parsed-DTD memo (:func:`repro.service.registry.parsed_dtd`).  Bounded so
#: long-running services do not accumulate state for every DTD they saw.
DTD_CACHE_LIMIT = 128

#: LRU cache of ``Psi_DN`` blocks, keyed by the DTD's canonical text
#: (:attr:`~repro.dtd.model.DTD.text`; equal DTDs, root included, share an
#: entry).  ``_CACHE_LOCK`` guards it and the counters: the server's
#: executor threads look up, insert and evict concurrently.
_DTD_BLOCK_CACHE: "OrderedDict[str, _DTDBlock]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}
_CACHE_LOCK = threading.Lock()

#: How many blocks' LP engines keep a live HiGHS instance (~220 KB each;
#: the others keep only their canonical basis and rebuild the instance
#: on their next lease).  Above the 6 recurring DTDs of a served edit
#: stream; a batch over dozens of DTDs holds 8 instances, not dozens.
LIVE_ENGINE_LIMIT = 8
_LIVE_ENGINES = LiveEngines(LIVE_ENGINE_LIMIT)


def encoding_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the per-DTD ``Psi_DN`` cache, and how many
    solves leased a block's LP engine (``engine_leases``) or built a
    private stand-in because it was leased already (``engine_private``)."""
    with _CACHE_LOCK:
        stats = dict(_CACHE_STATS)
    return {**stats, **_LIVE_ENGINES.counts()}


def clear_encoding_cache() -> None:
    """Drop all cached ``Psi_DN`` blocks and reset the counters."""
    with _CACHE_LOCK:
        _DTD_BLOCK_CACHE.clear()
        _CACHE_STATS["hits"] = 0
        _CACHE_STATS["misses"] = 0
        _LIVE_ENGINES.clear()


def canonical_spec(dtd: DTD, constraints: list[Constraint]) -> str:
    """The canonical text form of a ``(DTD, Sigma)`` specification.

    The DTD is rendered in declaration syntax (root first, a stable
    round-trip of :func:`repro.dtd.serializer.dtd_to_string`) and the
    constraints in the library's text syntax, one per line, *in order*:
    constraint order is part of a specification's identity because
    order-sensitive consumers (the MUS filters, toggle row ids) would
    otherwise serve one ordering's answers for another.

    >>> from repro.dtd.model import DTD
    >>> d = DTD.build("r", {"r": "(a)", "a": "EMPTY"}, attrs={"a": ["k"]})
    >>> print(canonical_spec(d, []))
    <!ELEMENT r (a)>
    <!ELEMENT a EMPTY>
    <!ATTLIST a k CDATA #REQUIRED>
    <BLANKLINE>
    """
    return "\n".join([dtd.text, *(str(phi) for phi in constraints)])


def fingerprint_of(canonical: str) -> str:
    """The fingerprint of a :func:`canonical_spec` text (sha256, hex)."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_fingerprint(dtd: DTD, constraints: list[Constraint]) -> str:
    """A stable hex fingerprint of ``(DTD, Sigma)`` — the session cache key.

    Two structurally equal specifications (same DTD value, same
    constraints in the same order) always produce the same fingerprint,
    across processes and runs; any difference in root, content models,
    attributes, or the constraint sequence produces a different one.

    >>> from repro.dtd.model import DTD
    >>> d = DTD.build("r", {"r": "(a)", "a": "EMPTY"}, attrs={"a": ["k"]})
    >>> fp = spec_fingerprint(d, [])
    >>> fp == spec_fingerprint(d, []) and len(fp) == 64
    True
    """
    return fingerprint_of(canonical_spec(dtd, constraints))


def _dtd_block(dtd: DTD) -> _DTDBlock:
    """The cached DTD-only encoding block (simplify + ``Psi_DN`` + usability).

    A miss builds outside the lock; if another thread cached the same DTD
    meanwhile, its block wins (both are equal values).
    """
    key = dtd.text
    with _CACHE_LOCK:
        block = _DTD_BLOCK_CACHE.get(key)
        if block is not None:
            _CACHE_STATS["hits"] += 1
            _DTD_BLOCK_CACHE.move_to_end(key)
            return block
        _CACHE_STATS["misses"] += 1
    simple = simplify_dtd(dtd)
    dtd_system = encode_dtd(simple)
    freeze_row_prefix(dtd_system.system)
    usable = usable_types(simple.to_dtd())
    block = _DTDBlock(
        simple=simple,
        dtd_system=dtd_system,
        forced_false=frozenset(set(simple.types) - set(usable)),
        ext_vars={symbol: ext_var(symbol) for symbol in simple.symbols()},
        clause_index=_ClauseIndex(dtd_system.clauses),
        validator=TreeValidator(dtd),
        engine=BlockEngine(dtd_system.system, _LIVE_ENGINES),
    )
    with _CACHE_LOCK:
        block = _DTD_BLOCK_CACHE.setdefault(key, block)
        _DTD_BLOCK_CACHE.move_to_end(key)
        if len(_DTD_BLOCK_CACHE) > DTD_CACHE_LIMIT:
            _DTD_BLOCK_CACHE.popitem(last=False)
    return block


def split_unary(
    constraints: list[Constraint],
) -> tuple[list[Key], list[InclusionConstraint], list[NegKey], list[NegInclusion]]:
    """Split an FK-expanded constraint list by kind, rejecting multi-attribute."""
    keys: list[Key] = []
    inclusions: list[InclusionConstraint] = []
    neg_keys: list[NegKey] = []
    neg_inclusions: list[NegInclusion] = []
    for phi in constraints:
        if not phi.is_unary():
            raise InvalidConstraintError(
                f"the linear-integer encoding handles unary constraints only "
                f"(Theorem 3.1 makes the multi-attribute problem undecidable): {phi}"
            )
        if isinstance(phi, Key):
            if phi not in keys:
                keys.append(phi)
        elif isinstance(phi, InclusionConstraint):
            if phi not in inclusions:
                inclusions.append(phi)
        elif isinstance(phi, NegKey):
            if phi not in neg_keys:
                neg_keys.append(phi)
        elif isinstance(phi, NegInclusion):
            if phi not in neg_inclusions:
                neg_inclusions.append(phi)
        elif isinstance(phi, ForeignKey):  # pragma: no cover - expanded earlier
            raise InvalidConstraintError("foreign keys must be expanded first")
        else:
            raise InvalidConstraintError(f"unknown constraint {phi!r}")
    return keys, inclusions, neg_keys, neg_inclusions


def build_encoding(
    dtd: DTD,
    constraints: list[Constraint],
    max_setrep_attrs: int = 12,
    repair_sites: bool = False,
) -> ConsistencyEncoding:
    """Build ``Psi(D, Sigma)`` for unary ``Sigma`` over ``dtd``.

    ``repair_sites=True`` additionally registers every ``Psi_DN`` rule
    row as a toggleable *site* and appends, per site, a permanent
    one-sided shadow row (``ext(tau) - sum(children) >= 0``): with the
    equality row active the system is byte-identical in meaning to the
    plain encoding, and with it deactivated the shadow keeps the upper
    bound while dropping the lower — exactly the projection of the DTD
    with that site's children made optional.  This is the repair
    engine's probe surface (:mod:`repro.analysis.repair`); the cached
    ``Psi_DN`` block stays pristine because shadow rows are appended to
    the per-call copy only.

    >>> from repro.dtd.model import DTD
    >>> from repro.constraints.parser import parse_constraints
    >>> d = DTD.build("r", {"r": "(a)", "a": "EMPTY"}, attrs={"a": ["k"]})
    >>> enc = build_encoding(d, parse_constraints("a.k -> a"))
    >>> enc.condsys.base.num_rows >= 3
    True
    """
    validate_constraints(dtd, constraints)
    expanded = expand_foreign_keys(constraints)
    keys, inclusions, neg_keys, neg_inclusions = split_unary(expanded)

    block = _dtd_block(dtd)
    # The cached system is pristine Psi_DN; the constraint encoders append
    # rows, so they get a (cheap, shallow) copy, which keeps the block's
    # assembled rows as its row prefix.
    system = block.dtd_system.system.copy()
    cardinality = encode_constraints(
        dtd, system, keys, inclusions, neg_keys, neg_inclusions
    )
    setrep: SetRepBlock | None = None
    if neg_inclusions:
        setrep = encode_set_representation(
            system, inclusions, neg_inclusions, max_active=max_setrep_attrs
        )

    # The toggle registry: every expanded constraint's rows, support
    # clauses (offset past the DTD-derived clauses, which are always
    # active) and forced supports, under stable identifiers.
    dtd_clause_count = len(block.dtd_system.clauses)
    toggles: dict[Constraint, ConstraintToggle] = {}
    for phi in [*keys, *inclusions, *neg_keys, *neg_inclusions]:
        rows = cardinality.rows_of.get(phi, ())
        if setrep is not None:
            rows = rows + setrep.rows_of.get(phi, ())
        toggles[phi] = ConstraintToggle(
            rows=rows,
            clause_ids=tuple(
                dtd_clause_count + i for i in cardinality.clauses_of.get(phi, ())
            ),
            forced_true=cardinality.forced_of.get(phi, frozenset()),
        )

    # Repair mode: shadow rows + per-site toggles over the rule rows.
    sites: tuple[RuleSite, ...] = ()
    site_toggles: dict[int, ConstraintToggle] = {}
    if repair_sites:
        sites = block.dtd_system.sites
        for index, site in enumerate(sites):
            coeffs = dict(system.row(site.row).coeffs)
            system.add_ge(coeffs, 0, label=f"shadow:{site.parent}:{index}")
            site_toggles[index] = ConstraintToggle(
                rows=(site.row,),
                clause_ids=(site.clause,) if site.clause is not None else (),
            )

    toggleable_rows = frozenset(
        row for toggle in toggles.values() for row in toggle.rows
    ) | frozenset(
        row for toggle in site_toggles.values() for row in toggle.rows
    )
    toggleable_clauses = frozenset(
        clause_id
        for toggle in toggles.values()
        for clause_id in toggle.clause_ids
    ) | frozenset(
        clause_id
        for toggle in site_toggles.values()
        for clause_id in toggle.clause_ids
    )
    condsys = ConditionalSystem(
        base=system,
        ext_var=dict(block.ext_vars),
        root=block.simple.root,
        element_types=block.simple.types,
        edges=block.dtd_system.edges,
        requires_if_present=cardinality.requires_if_present,
        clauses=block.dtd_system.clauses + cardinality.clauses,
        forced_true=cardinality.forced_true,
        forced_false=block.forced_false,
        toggleable_rows=toggleable_rows,
        toggleable_clauses=toggleable_clauses,
        clause_prefix=block.clause_index,
        engine=block.engine,
    )
    return ConsistencyEncoding(
        dtd=dtd,
        simple=block.simple,
        condsys=condsys,
        keys=keys,
        inclusions=inclusions,
        neg_keys=neg_keys,
        neg_inclusions=neg_inclusions,
        setrep=setrep,
        constraints=list(constraints),
        toggles=toggles,
        sites=sites,
        site_toggles=site_toggles,
        validator=block.validator,
    )
