"""One specification's resident state: the ``SpecSession``.

A session pins one ``(DTD, Sigma)`` pair — identified by its canonical
:func:`~repro.encoding.combined.spec_fingerprint` — and answers
``check`` / ``implies`` / ``diagnose`` / ``repair`` / ``validate``
requests against it, dispatching each solve through the
:mod:`repro.api` facade.  Requests and responses are JSON-ready dicts (the wire form of
``repro serve``), so a session *is* the service engine; the asyncio
layer only schedules calls into it.

Two reuse modes:

* ``"replay"`` (default) — deterministic cross-request caching only:
  the parsed spec, its validation, the per-DTD ``Psi_DN`` encoding
  block, and a bounded response cache keyed by the full request.  A
  novel request runs the *exact* one-shot checker path, so every
  response is byte-identical to the direct
  :class:`~repro.checkers.config.CheckerConfig` call — repeats are
  served from the cache, stats included.
* ``"warm"`` — additionally keeps per-query
  :class:`~repro.ilp.condsys.SolveWorkspace`\\ s (assembled HiGHS
  matrix + lazily-built exact twin) in a bounded LRU, and carries the
  session-level connectivity-cut pool into every new workspace.  A
  repeated ``implies`` that misses the response cache re-solves by
  bound patches on the warm assembly; novel queries start from the
  accumulated cuts.  Verdicts and witnesses stay correct (cuts are
  structurally valid for every constraint set over the same DTD, and
  all witnesses are re-verified), but the solver *work counters* then
  reflect the warm state rather than a cold start.

Sessions are single-owner: a :class:`threading.RLock` serializes
requests, and warm workspaces are claimed through
:meth:`~repro.ilp.condsys.SolveWorkspace.checkout` so an ownership bug
raises instead of racing.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from repro import api
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.checkers.consistency import check_consistency, check_consistency_encoded
from repro.checkers.implication import implies_all, implies_validated
from repro.checkers.results import ConsistencyResult
from repro.constraints.ast import Constraint
from repro.constraints.classes import (
    ConstraintClass,
    classify,
    validate_constraints,
)
from repro.constraints.parser import parse_constraint
from repro.constraints.satisfaction import violations
from repro.dtd.model import DTD
from repro.encoding.combined import (
    build_encoding,
    canonical_spec,
    spec_fingerprint,
)
from repro.errors import ReproError
from repro.ilp.condsys import SolveWorkspace, wave_observer_scope
from repro.xmltree.parse import parse_xml
from repro.xmltree.serialize import tree_to_string
from repro.xmltree.validate import conforms

if TYPE_CHECKING:  # a server attaches these; a one-shot call never does
    from repro.service.metrics import AdaptiveJobsController, StatsCollector

#: The reuse modes a session can run in.
MODES = ("replay", "warm")

#: CheckerConfig fields a request may override per call.
_CONFIG_FIELDS = frozenset(f.name for f in fields(CheckerConfig))


@dataclass
class SessionStats:
    """Counters for one session's cross-request behaviour."""

    requests: int = 0
    cache_hits: int = 0
    workspaces_built: int = 0
    workspaces_reused: int = 0
    workspaces_dropped: int = 0
    cuts_carried: int = 0
    batch_requests: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "workspaces_built": self.workspaces_built,
            "workspaces_reused": self.workspaces_reused,
            "workspaces_dropped": self.workspaces_dropped,
            "cuts_carried": self.cuts_carried,
            "batch_requests": self.batch_requests,
        }


def merge_config(base: CheckerConfig, overrides: dict | None) -> CheckerConfig:
    """``base`` with a request's config overrides applied.

    Unknown keys raise :class:`ReproError` (a client typo must not be
    silently ignored — it would change which answer the client thinks
    it asked for).
    """
    if not overrides:
        return base
    unknown = set(overrides) - _CONFIG_FIELDS
    if unknown:
        names = ", ".join(sorted(unknown))
        raise ReproError(f"unknown config override(s): {names}")
    return replace(base, **overrides)


def _error_payload(exc: Exception) -> dict:
    """The canonical error body — one rendering for singles and batches.

    The protocol layer wraps the same body into error responses, so a
    query that fails inside a coalesced batch answers byte-identically
    to the same query sent alone.  Failure modes with a stable wire
    contract (deadlines, load shedding) carry a ``wire_type`` class
    attribute that replaces the Python class name, and an optional
    ``retry_after`` hint (seconds) rides along for shed requests.
    """
    error: dict = {
        "type": getattr(exc, "wire_type", None) or type(exc).__name__,
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"error": error}


class SpecSession:
    """Resident checking state for one ``(DTD, Sigma)`` specification.

    >>> from repro.dtd.model import DTD
    >>> from repro.constraints.parser import parse_constraints
    >>> d = DTD.build("db", {"db": "(item*)", "item": "EMPTY"},
    ...               attrs={"item": ["id"]})
    >>> session = SpecSession(d, parse_constraints("item.id -> item"))
    >>> session.check()["consistent"]
    True
    >>> first = session.implies("item.id -> item")
    >>> first["implied"], session.stats.cache_hits
    (True, 0)
    >>> session.implies("item.id -> item") == first   # served from cache
    True
    >>> session.stats.cache_hits
    1
    """

    def __init__(
        self,
        dtd: DTD,
        constraints: list[Constraint] | tuple[Constraint, ...] = (),
        config: CheckerConfig | None = None,
        mode: str = "replay",
        max_cached_responses: int = 512,
        max_workspaces: int = 32,
        max_response_bytes: int = 64 * 1024 * 1024,
        auto_jobs: bool = False,
        collector: StatsCollector | None = None,
    ):
        if mode not in MODES:
            raise ReproError(f"unknown session mode {mode!r} (use one of {MODES})")
        self.dtd = dtd
        self.sigma = list(constraints)
        #: The facade value the session dispatches through: every
        #: non-warm solve goes `session -> repro.api -> engine`, the
        #: same path a library caller takes.
        self.spec = api.Spec(dtd=dtd, constraints=tuple(constraints))
        validate_constraints(dtd, self.sigma)
        self.config = config or DEFAULT_CONFIG
        self.mode = mode
        self.fingerprint = spec_fingerprint(dtd, self.sigma)
        self.stats = SessionStats()
        #: ``--jobs auto``: requests without an explicit jobs override
        #: solve at the controller's current level (see
        #: :meth:`_effective_config`); ``False`` leaves the fixed-jobs
        #: path byte-for-byte untouched.
        self.auto_jobs = bool(auto_jobs)
        #: Optional :class:`~repro.service.metrics.StatsCollector` the
        #: session pushes wave latencies and pool counters into.
        self.collector = collector
        self._jobs_controller: AdaptiveJobsController | None = None
        self._spec_bytes = len(canonical_spec(dtd, self.sigma).encode("utf-8"))
        self._max_cached_responses = max_cached_responses
        self._max_workspaces = max_workspaces
        #: Per-session cap on the response cache's resident bytes (keys
        #: included), so one session cannot grow unboundedly between the
        #: registry's admission-time budget scans.
        self._max_response_bytes = max_response_bytes
        self._lock = threading.RLock()
        #: request key -> rendered response JSON (the byte-identity store).
        self._responses: "OrderedDict[tuple, str]" = OrderedDict()
        self._response_bytes = 0
        #: warm mode: workspace key -> (encoding, SolveWorkspace).
        self._workspaces: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: warm mode: session-level cut pool, keyed for dedup.
        self._cut_records: dict[tuple, object] = {}

    # -- bookkeeping --------------------------------------------------------

    def approx_bytes(self) -> int:
        """Rough resident size, the registry's eviction currency.

        Sums the canonical spec text, the cached responses (keys
        included — a ``validate`` key retains the whole document text),
        and a per-workspace estimate from the base system's shape (rows
        and columns of the assembled matrix plus pooled cuts).  An
        estimate is enough: eviction needs relative weight, not
        accounting.  Takes the session lock: callers (the registry's
        eviction scan, the ``stats`` op) run on other threads than the
        executor thread mutating the warm-workspace LRU.
        """
        with self._lock:
            total = self._spec_bytes + self._response_bytes
            for encoding, workspace in self._workspaces.values():
                base = encoding.condsys.base
                total += 48 * base.num_rows + 24 * base.num_vars
                total += 64 * len(workspace.pool)
            return total

    def service_stats(self) -> dict[str, int]:
        """The session's cross-request counters plus cache occupancy."""
        with self._lock:
            payload = self.stats.as_dict()
            payload["cached_responses"] = len(self._responses)
            payload["warm_workspaces"] = len(self._workspaces)
            payload["cut_records"] = len(self._cut_records)
            payload["approx_bytes"] = self.approx_bytes()
            if self._jobs_controller is not None:
                payload["effective_jobs"] = self._jobs_controller.current()
            return payload

    @property
    def jobs_controller(self) -> AdaptiveJobsController:
        """The session's adaptive-jobs controller (created on first use)."""
        if self._jobs_controller is None:
            from repro.service.metrics import AdaptiveJobsController

            self._jobs_controller = AdaptiveJobsController(collector=self.collector)
        return self._jobs_controller

    def _effective_config(self, overrides: dict | None) -> CheckerConfig:
        """:func:`merge_config` plus resolution of ``"jobs": "auto"``.

        The adaptive marker — from a per-request override or the
        session-wide ``auto_jobs`` flag — becomes the controller's
        *current* concrete level before the config object is built, so
        :class:`~repro.checkers.config.CheckerConfig` (and every response
        cache key derived from it) only ever holds plain ints and the
        fixed-jobs path is untouched.
        """
        auto = bool(overrides) and overrides.get("jobs") == "auto"
        if auto:
            overrides = dict(overrides)
        elif self.auto_jobs and not (overrides and "jobs" in overrides):
            overrides = dict(overrides or {})
            auto = True
        if auto:
            overrides["jobs"] = self.jobs_controller.current()
        return merge_config(self.config, overrides)

    @contextmanager
    def _solve_scope(self):
        """Instrument one genuinely-solved request (cache hits skip this).

        Opens a :func:`~repro.ilp.condsys.wave_observer_scope` so parallel
        waves report their latency, and times the whole solve for the
        adaptive-jobs controller — on every exit path, including solver
        errors (a budget-exceeded solve was slow; the controller should
        hear about it).
        """
        controller = self._jobs_controller
        collector = self.collector
        if controller is None and collector is None:
            yield
            return

        def observe(seconds: float, width: int) -> None:
            if controller is not None:
                controller.observe_wave(seconds, width)
            if collector is not None:
                collector.observe_wave(seconds)

        started = time.perf_counter()
        try:
            with wave_observer_scope(observe):
                yield
        finally:
            if controller is not None:
                controller.observe_solve(time.perf_counter() - started)

    def _absorb(self, payload: dict) -> dict:
        """Forward a solved payload's pool counters to the collector."""
        if self.collector is not None:
            self.collector.absorb_solver_stats(payload.get("stats"))
        return payload

    @staticmethod
    def _entry_bytes(key: tuple, rendered: str) -> int:
        """One cache entry's weight: response JSON plus the key itself
        (a ``validate`` key retains the entire document text)."""
        return len(rendered) + sum(len(str(part)) for part in key)

    def _remember(self, key: tuple, payload: dict) -> dict:
        """Record a response; return the cache's canonical copy."""
        rendered = json.dumps(payload, sort_keys=True)
        self._responses[key] = rendered
        self._response_bytes += self._entry_bytes(key, rendered)
        while len(self._responses) > 1 and (
            len(self._responses) > self._max_cached_responses
            or self._response_bytes > self._max_response_bytes
        ):
            dropped_key, dropped = self._responses.popitem(last=False)
            self._response_bytes -= self._entry_bytes(dropped_key, dropped)
        return json.loads(rendered)

    def _recall(self, key: tuple) -> dict | None:
        rendered = self._responses.get(key)
        if rendered is None:
            return None
        self._responses.move_to_end(key)
        self.stats.cache_hits += 1
        return json.loads(rendered)

    # -- request entry points ----------------------------------------------

    def check(self, config: dict | None = None) -> dict:
        """Consistency of the session's specification."""
        with self._lock:
            self.stats.requests += 1
            effective = self._effective_config(config)
            key = ("check", effective)
            cached = self._recall(key)
            if cached is not None:
                return cached
            with self._solve_scope():
                if self.mode == "warm":
                    result = self._warm_consistency(
                        self.dtd, self.sigma, effective, workspace_key=("check",)
                    )
                else:
                    result = api.check(self.spec, config=effective)
            payload = {
                "consistent": result.consistent,
                "method": result.method,
                "message": result.message,
                "stats": dict(result.stats),
                "witness": (
                    tree_to_string(result.witness)
                    if result.witness is not None
                    else None
                ),
            }
            return self._absorb(self._remember(key, payload))

    def implies(self, phi: str | Constraint, config: dict | None = None) -> dict:
        """Is ``phi`` implied by the session's specification?"""
        with self._lock:
            self.stats.requests += 1
            return self._implies_locked(phi, self._effective_config(config))

    def implies_batch(self, phis: list, config: dict | None = None) -> list[dict]:
        """Batch implication — the coalesced form the server's batcher uses.

        Per-query responses are identical to asking :meth:`implies` one
        by one (``implies_all`` runs the same validated per-query path),
        but the batch validates once, shares the per-DTD encoding block,
        and — with ``jobs > 1`` in the session config — fans the misses
        across the PR-4 worker pool in one ``implies_all`` call.
        """
        with self._lock:
            self.stats.requests += 1
            self.stats.batch_requests += 1
            effective = self._effective_config(config)
            responses: list[dict] = []
            misses: list[tuple[int, Constraint]] = []
            for phi in phis:
                try:
                    parsed = self._parse_phi(phi)
                except ReproError as exc:
                    responses.append(_error_payload(exc))
                    continue
                key = ("implies", str(parsed), effective)
                cached = self._recall(key)
                if cached is None:
                    misses.append((len(responses), parsed))
                responses.append(cached)  # placeholder when None
            if len(misses) > 1 and self.mode != "warm":
                # The coalesced path: one ``implies_all`` call over the
                # batch's *distinct* missed queries — it validates once,
                # shares the per-DTD encoding block, and fans over the
                # PR-4 worker pool when ``jobs > 1``; queries repeated
                # within the batch are solved once and the duplicates
                # replay the recorded response (counted as cache hits,
                # exactly as the sequential loop would have served
                # them).  Any ReproError from the batch call (an
                # undecidable query poisons it whole) falls back to the
                # per-query loop below, which isolates errors per
                # request.
                unique: dict[str, Constraint] = {}
                for _, parsed in misses:
                    unique.setdefault(str(parsed), parsed)
                try:
                    with self._solve_scope():
                        results = implies_all(
                            self.dtd, self.sigma, list(unique.values()), effective
                        )
                except ReproError:
                    pass
                else:
                    first: dict[str, dict] = {}
                    for parsed, result in zip(unique.values(), results):
                        key = ("implies", str(parsed), effective)
                        first[str(parsed)] = self._absorb(
                            self._remember(key, self._implication_payload(result))
                        )
                    for index, parsed in misses:
                        payload = first.pop(str(parsed), None)
                        if payload is None:  # an intra-batch repeat
                            payload = self._recall(("implies", str(parsed), effective))
                        responses[index] = payload
                    misses = []
            for index, parsed in misses:
                try:
                    responses[index] = self._implies_locked(parsed, effective)
                except ReproError as exc:
                    responses[index] = _error_payload(exc)
            return responses

    def diagnose(
        self,
        config: dict | None = None,
        rebuild: bool = False,
        mus_method: str = "quickxplain",
    ) -> dict:
        """Specification health report (MUS / redundancy audit)."""
        with self._lock:
            self.stats.requests += 1
            effective = self._effective_config(config)
            key = ("diagnose", bool(rebuild), mus_method, effective)
            cached = self._recall(key)
            if cached is not None:
                return cached
            with self._solve_scope():
                report = api.diagnose(
                    self.spec,
                    config=effective,
                    toggled=not rebuild,
                    mus_method=mus_method,
                )
            payload = {
                "consistent": report.consistent,
                "dtd_satisfiable": report.dtd_satisfiable,
                "mus": [str(phi) for phi in report.mus],
                "redundant": [str(phi) for phi in report.redundant],
                "summary": report.summary(),
                "stats": report.stats.as_dict(),
            }
            return self._absorb(self._remember(key, payload))

    def repair(
        self,
        config: dict | None = None,
        core_method: str = "quickxplain",
        rebuild: bool = False,
        weights: dict | None = None,
    ) -> dict:
        """A minimum-weight repair of the session's specification.

        ``weights`` is the wire form of the engine's weight mapping:
        action-family name (``"delete"`` / ``"loosen"`` / ``"drop"``)
        to a positive integer.  Responses are cached like every other
        op — the key covers the filter, the engine, the weights and the
        effective config, so a repeat is a byte replay.
        """
        with self._lock:
            self.stats.requests += 1
            effective = self._effective_config(config)
            weight_key = tuple(sorted((weights or {}).items()))
            key = ("repair", core_method, bool(rebuild), weight_key, effective)
            cached = self._recall(key)
            if cached is not None:
                return cached
            try:
                with self._solve_scope():
                    result = api.repair(
                        self.spec,
                        config=effective,
                        weights=weights,
                        core_method=core_method,
                        toggled=not rebuild,
                    )
            except ValueError as exc:
                # A bad weights mapping is a client error, not a crash:
                # surface it with the structured wire contract.
                raise ReproError(str(exc)) from None
            payload = result.as_dict()
            payload["summary"] = result.summary()
            if self.collector is not None:
                self.collector.absorb_repair_stats(payload)
            return self._absorb(self._remember(key, payload))

    def validate(self, document: str) -> dict:
        """Does a concrete document conform to the DTD and satisfy Sigma?"""
        with self._lock:
            self.stats.requests += 1
            key = ("validate", document)
            cached = self._recall(key)
            if cached is not None:
                return cached
            tree = parse_xml(document)
            report = conforms(tree, self.dtd)
            violated = violations(tree, self.sigma)
            payload = {
                "conforms": bool(report),
                "errors": list(report.errors),
                "satisfies": not violated,
                "violations": [str(phi) for phi in violated],
            }
            return self._remember(key, payload)

    def describe(self) -> dict:
        """The session's identity card (the ``open`` response)."""
        return {
            "fingerprint": self.fingerprint,
            "root": self.dtd.root,
            "element_types": len(self.dtd.element_types),
            "constraints": len(self.sigma),
            "mode": self.mode,
        }

    # -- persistence (repro.service.persist) --------------------------------

    def export_persistent(self) -> tuple[list[tuple[tuple, str]], list]:
        """The session state worth surviving a restart, in insertion order.

        Two pieces: the rendered response cache (the byte-identity store
        — replaying a rendered string is what makes a restored session's
        answers byte-identical) and the portable cut records (so a warm
        session's accumulated connectivity cuts keep pruning after the
        restart).  Warm workspaces are deliberately *not* exported: they
        hold live solver handles (HiGHS instances, exact factorizations)
        that cannot meaningfully cross a process boundary, and rebuilding
        one from the restored cut records is exactly the cold-start path
        the differential suite pins.
        """
        with self._lock:
            return (
                list(self._responses.items()),
                list(self._cut_records.values()),
            )

    def restore_persistent(
        self, responses: list[tuple[tuple, str]], cuts: list
    ) -> None:
        """Adopt a snapshot's response cache and cut records (cold caches
        only — never called on a session that has already answered)."""
        with self._lock:
            for key, rendered in responses:
                if key in self._responses:
                    continue
                self._responses[key] = rendered
                self._response_bytes += self._entry_bytes(key, rendered)
            for record in cuts:
                self._cut_records.setdefault(record.key, record)

    # -- fleet cut transport (repro.service.fleet) ---------------------------

    def export_cuts_wire(self) -> dict:
        """The session's cut pool in portable form (the ``export_cuts`` op).

        The fleet router pulls these at wave boundaries and pushes the
        union back through :meth:`adopt_cuts_wire`, so shards solving
        chunks of one ``implies_all`` share connectivity cuts exactly as
        the in-process worker pool merges them between waves.  Packed
        with the snapshot encoding
        (:func:`~repro.service.persist.pack_value`), and never cached:
        the pool grows between calls.
        """
        from repro.service import persist

        with self._lock:
            self.stats.requests += 1
            return {
                "cuts": [
                    persist.pack_value(record)
                    for record in self._cut_records.values()
                ]
            }

    def adopt_cuts_wire(self, packed: list) -> dict:
        """Merge foreign packed cut records (the ``adopt_cuts`` op).

        Set-union under the canonical record key, like
        :meth:`~repro.ilp.condsys._CutPool.merge`: duplicates are
        counted, never re-adopted, so the sync is idempotent and
        order-independent.  Adopted records seed the next warm
        workspace; replay-mode sessions accept them too (their pools
        simply stay unused until a warm restart restores them).
        """
        from repro.ilp.condsys import CutRecord
        from repro.service import persist

        adopted = duplicates = 0
        with self._lock:
            self.stats.requests += 1
            for item in packed:
                record = persist.unpack_value(item)
                if not isinstance(record, CutRecord):
                    raise ReproError(
                        "adopt_cuts entries must be packed cut records"
                    )
                if record.key in self._cut_records:
                    duplicates += 1
                else:
                    self._cut_records[record.key] = record
                    adopted += 1
        return {"adopted": adopted, "duplicates": duplicates}

    # -- internals ----------------------------------------------------------

    def _parse_phi(self, phi: str | Constraint) -> Constraint:
        return parse_constraint(phi) if isinstance(phi, str) else phi

    def _implication_payload(self, result) -> dict:
        return {
            "implied": result.implied,
            "method": result.method,
            "message": result.message,
            "stats": dict(result.stats),
            "counterexample": (
                tree_to_string(result.counterexample)
                if result.counterexample is not None
                else None
            ),
        }

    def _implies_locked(self, phi: str | Constraint, effective: CheckerConfig) -> dict:
        parsed = self._parse_phi(phi)
        key = ("implies", str(parsed), effective)
        cached = self._recall(key)
        if cached is not None:
            return cached
        validate_constraints(self.dtd, [*self.sigma, parsed])
        consistency = self._warm_probe if self.mode == "warm" else None
        with self._solve_scope():
            result = implies_validated(
                self.dtd, self.sigma, parsed, effective, consistency
            )
        return self._absorb(self._remember(key, self._implication_payload(result)))

    def _warm_probe(
        self, dtd: DTD, constraints: list[Constraint], config: CheckerConfig
    ) -> ConsistencyResult:
        """Negation-consistency probe served from warm per-query state.

        Keyed by the probe's final constraint (the negated query — the
        rest is always the session's Sigma), so a repeated query lands
        on its own warm workspace and re-solves by bound patches.
        """
        marker = str(constraints[-1]) if constraints else ""
        return self._warm_consistency(
            dtd, constraints, config, workspace_key=("implies", marker)
        )

    def _warm_consistency(
        self,
        dtd: DTD,
        constraints: list[Constraint],
        config: CheckerConfig,
        workspace_key: tuple,
    ) -> ConsistencyResult:
        """Consistency with per-query workspace + session cut carry-over."""
        cls = classify(constraints)
        if cls in (ConstraintClass.EMPTY, ConstraintClass.K, ConstraintClass.K_FK):
            # Linear-time fragments and the undecidable refusal: nothing
            # for a workspace to amortize — take the one-shot path.
            return check_consistency(dtd, constraints, config)
        key = (*workspace_key, config.max_setrep_attrs)
        entry = self._workspaces.get(key)
        if entry is None:
            encoding = build_encoding(
                dtd, constraints, max_setrep_attrs=config.max_setrep_attrs
            )
            workspace = SolveWorkspace(encoding.condsys.base)
            accepted, _ = workspace.adopt_cuts(self._cut_records.values())
            self.stats.cuts_carried += accepted
            self.stats.workspaces_built += 1
            self._workspaces[key] = entry = (encoding, workspace)
            while len(self._workspaces) > self._max_workspaces:
                self._workspaces.popitem(last=False)
                self.stats.workspaces_dropped += 1
        else:
            self._workspaces.move_to_end(key)
            self.stats.workspaces_reused += 1
        encoding, workspace = entry
        with workspace.checkout():
            result = check_consistency_encoded(encoding, config, workspace)
        for record in workspace.export_cuts():
            self._cut_records.setdefault(record.key, record)
        return result
