"""One specification's resident state: the ``SpecSession``.

A session pins one ``(DTD, Sigma)`` pair — identified by its canonical
:func:`~repro.encoding.combined.spec_fingerprint` — and answers
``check`` / ``implies`` / ``diagnose`` / ``repair`` / ``validate``
requests against it, dispatching each solve through the
:mod:`repro.api` facade.  Requests and responses are JSON-ready dicts:
each response is the api result's ``as_dict()``, the wire form of
``repro serve`` and of the one-shot CLI alike.  A session *is* the
service engine; the asyncio layer only schedules calls into it.

The session keeps deterministic cross-request state only: the parsed
spec, its validation, the per-DTD ``Psi_DN`` encoding block, and a
bounded response cache keyed by the full request.  A novel request runs
the *exact* one-shot checker path, so every response is byte-identical
to the direct :class:`~repro.checkers.config.CheckerConfig` call —
repeats are served from the cache, stats included.  The paper reduces
every question to integer feasibility of ``Psi(D, Sigma)`` (Lemma 4.5,
Theorem 5.1), so an answer is a pure function of the request and a
replay is always correct.

Sessions are single-owner: a :class:`threading.RLock` serializes
requests.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Callable

from repro import api
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.constraints.ast import Constraint
from repro.constraints.classes import validate_constraints
from repro.constraints.parser import parse_constraint
from repro.dtd.model import DTD
from repro.encoding.combined import canonical_spec, fingerprint_of
from repro.errors import ReproError
from repro.xmltree.validate import TreeValidator

if TYPE_CHECKING:  # a server attaches these; a one-shot call never does
    from repro.service.metrics import StatsCollector

#: CheckerConfig fields a request may override per call.
_CONFIG_FIELDS = frozenset(f.name for f in fields(CheckerConfig))

#: The solver backends a ``backend`` override may name.
_BACKENDS = ("scipy", "exact")


@dataclass
class SessionStats:
    """Counters for one session's cross-request behaviour."""

    requests: int = 0
    cache_hits: int = 0
    batch_requests: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "batch_requests": self.batch_requests,
        }


def _overrides_object(overrides: object) -> dict:
    """A request's ``config`` as a dict (``None`` means no overrides)."""
    if overrides is None:
        return {}
    if not isinstance(overrides, dict):
        raise ReproError(
            f"config must be an object of overrides, got {type(overrides).__name__}"
        )
    return overrides


def _check_override(name: str, value: object) -> None:
    """Reject an override whose value does not fit its field's type."""
    default = getattr(DEFAULT_CONFIG, name)
    if name == "backend":
        ok, expected = value in _BACKENDS, f"one of {list(_BACKENDS)}"
    elif isinstance(default, bool):
        ok, expected = isinstance(value, bool), "a boolean"
    else:
        floor = 0 if name == "max_setrep_attrs" else 1
        ok = isinstance(value, int) and not isinstance(value, bool) and value >= floor
        expected = f"an integer >= {floor}"
    if not ok:
        raise ReproError(f"config override {name!r} must be {expected}, got {value!r}")


def merge_config(base: CheckerConfig, overrides: dict | None) -> CheckerConfig:
    """``base`` with a request's config overrides applied.

    ``overrides`` must be an object; unknown keys and values of the
    wrong type raise :class:`ReproError` (a client typo must not be
    silently ignored — it would change which answer the client thinks
    it asked for, and a response cached under a malformed key would
    never be asked for again).  Booleans must be booleans, counts must
    be integers (never booleans) of at least 1 — 0 for
    ``max_setrep_attrs`` — and ``backend`` must name a backend.
    """
    overrides = _overrides_object(overrides)
    if not overrides:
        return base
    unknown = set(overrides) - _CONFIG_FIELDS
    if unknown:
        names = ", ".join(sorted(unknown))
        raise ReproError(f"unknown config override(s): {names}")
    for name, value in overrides.items():
        _check_override(name, value)
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
        max_cached_responses: int = 512,
        max_response_bytes: int = 64 * 1024 * 1024,
        collector: StatsCollector | None = None,
        dtd_text: str | None = None,
    ):
        self.dtd = dtd
        self.sigma = list(constraints)
        #: The facade value the session dispatches through: every
        #: solve goes `session -> repro.api -> engine`, the
        #: same path a library caller takes.
        self.spec = api.Spec(dtd=dtd, constraints=tuple(constraints))
        validate_constraints(dtd, self.sigma)
        #: ``T |= D`` for the ``validate`` op; keeps its automata across
        #: documents.
        self._validator = TreeValidator(dtd)
        self.config = config or DEFAULT_CONFIG
        # ``dtd_text`` is ``dtd_to_string(dtd)`` when the caller has it.
        canonical = canonical_spec(dtd, self.sigma, dtd_text)
        self.fingerprint = fingerprint_of(canonical)
        self.stats = SessionStats()
        #: Optional :class:`~repro.service.metrics.StatsCollector` the
        #: session pushes repair counters into.
        self.collector = collector
        self._spec_bytes = len(canonical.encode("utf-8"))
        self._max_cached_responses = max_cached_responses
        #: Per-session cap on the response cache's resident bytes (keys
        #: included), so one session cannot grow unboundedly between the
        #: registry's admission-time budget scans.
        self._max_response_bytes = max_response_bytes
        self._lock = threading.RLock()
        #: request key -> rendered response JSON (the byte-identity store).
        self._responses: "OrderedDict[tuple, str]" = OrderedDict()
        self._response_bytes = 0
        #: Told each new :meth:`approx_bytes` value, under the session
        #: lock: the owning registry's running byte total.
        self.on_resize: Callable[[SpecSession, int], None] | None = None

    # -- bookkeeping --------------------------------------------------------

    def approx_bytes(self) -> int:
        """Rough resident size, the registry's eviction currency.

        The canonical spec text plus the cached responses (keys
        included — a ``validate`` key retains the whole document text).
        An estimate is enough: eviction needs relative weight, not
        accounting.  Takes the session lock: callers (the ``stats`` op)
        run on other threads than the executor thread mutating the
        response cache.
        """
        with self._lock:
            return self._spec_bytes + self._response_bytes

    def _resized(self) -> None:
        """Report a response-cache change (the session lock is held)."""
        if self.on_resize is not None:
            self.on_resize(self, self._spec_bytes + self._response_bytes)

    def service_stats(self) -> dict[str, int]:
        """The session's cross-request counters plus cache occupancy."""
        with self._lock:
            payload = self.stats.as_dict()
            payload["cached_responses"] = len(self._responses)
            payload["approx_bytes"] = self.approx_bytes()
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
        self._resized()
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
            effective = merge_config(self.config, config)
            key = ("check", effective)
            cached = self._recall(key)
            if cached is not None:
                return cached
            payload = api.check(self.spec, config=effective).as_dict()
            return self._remember(key, payload)

    def implies(self, phi: str | Constraint, config: dict | None = None) -> dict:
        """Is ``phi`` implied by the session's specification?"""
        with self._lock:
            self.stats.requests += 1
            return self._implies_locked(phi, merge_config(self.config, config))

    def implies_batch(self, phis: list, config: dict | None = None) -> list[dict]:
        """Batch implication — the form the server's batcher coalesces into.

        Each query is answered exactly as :meth:`implies` would answer it
        alone: a first pass serves cache hits and collects the misses,
        then each miss runs the single-query path, so a query repeated
        within the batch replays its first answer while the response
        cache still holds it, and is solved again once evicted.  A
        query that fails answers its error payload in its slot; the rest
        of the batch still runs.
        """
        with self._lock:
            # Each coalesced query is one served operation: session.requests
            # must not depend on how the batcher happened to group them.
            self.stats.requests += len(phis)
            self.stats.batch_requests += 1
            effective = merge_config(self.config, config)
            responses: list[dict] = []
            misses: list[tuple[int, Constraint]] = []
            for phi in phis:
                try:
                    parsed = self._parse_phi(phi)
                except ReproError as exc:
                    responses.append(_error_payload(exc))
                    continue
                cached = self._recall(("implies", str(parsed), effective))
                if cached is None:
                    misses.append((len(responses), parsed))
                responses.append(cached)  # placeholder when None
            for index, parsed in misses:
                try:
                    responses[index] = self._implies_locked(parsed, effective)
                except ReproError as exc:
                    responses[index] = _error_payload(exc)
            return responses

    def diagnose(self, config: dict | None = None) -> dict:
        """Specification health report (MUS / redundancy audit)."""
        with self._lock:
            self.stats.requests += 1
            effective = merge_config(self.config, config)
            key = ("diagnose", effective)
            cached = self._recall(key)
            if cached is not None:
                return cached
            report = api.diagnose(self.spec, config=effective)
            return self._remember(key, report.as_dict())

    def repair(
        self, config: dict | None = None, weights: dict | None = None
    ) -> dict:
        """A minimum-weight repair of the session's specification.

        ``weights`` is the wire form of the engine's weight mapping:
        action-family name (``"delete"`` / ``"loosen"`` / ``"drop"``)
        to a positive integer.  Responses are cached like every other
        op — the key covers the weights and the effective
        config, so a repeat is a byte replay.
        """
        with self._lock:
            self.stats.requests += 1
            effective = merge_config(self.config, config)
            weight_key = tuple(sorted((weights or {}).items()))
            key = ("repair", weight_key, effective)
            cached = self._recall(key)
            if cached is not None:
                return cached
            try:
                result = api.repair(self.spec, config=effective, weights=weights)
            except ValueError as exc:
                # A bad weights mapping is a client error, not a crash:
                # surface it with the structured wire contract.
                raise ReproError(str(exc)) from None
            payload = result.as_dict()
            if self.collector is not None:
                self.collector.absorb_repair_stats(payload)
            return self._remember(key, payload)

    def validate(self, document: str) -> dict:
        """Does a concrete document conform to the DTD and satisfy Sigma?"""
        with self._lock:
            self.stats.requests += 1
            key = ("validate", document)
            cached = self._recall(key)
            if cached is not None:
                return cached
            payload = api.validate(self.spec, document, validator=self._validator)
            return self._remember(key, payload)

    def describe(self) -> dict:
        """The session's identity card (the ``open`` response)."""
        return {
            "fingerprint": self.fingerprint,
            "root": self.dtd.root,
            "element_types": len(self.dtd.element_types),
            "constraints": len(self.sigma),
        }

    # -- persistence (repro.service.persist) --------------------------------

    def export_persistent(self) -> list[tuple[tuple, str]]:
        """The rendered response cache, in insertion order.

        The byte-identity store is the session state worth surviving a
        restart: replaying a rendered string is what makes a restored
        session's answers byte-identical.
        """
        with self._lock:
            return list(self._responses.items())

    def restore_persistent(self, responses: list[tuple[tuple, str]]) -> None:
        """Adopt a snapshot's response cache (cold caches only — never
        called on a session that has already answered)."""
        with self._lock:
            for key, rendered in responses:
                if key in self._responses:
                    continue
                self._responses[key] = rendered
                self._response_bytes += self._entry_bytes(key, rendered)
            self._resized()

    # -- internals ----------------------------------------------------------

    def _parse_phi(self, phi: str | Constraint) -> Constraint:
        return parse_constraint(phi) if isinstance(phi, str) else phi

    def _implies_locked(self, phi: str | Constraint, effective: CheckerConfig) -> dict:
        parsed = self._parse_phi(phi)
        key = ("implies", str(parsed), effective)
        cached = self._recall(key)
        if cached is not None:
            return cached
        payload = api.implies(self.spec, parsed, config=effective).as_dict()
        return self._remember(key, payload)
