"""Cross-request session cache: fingerprint-keyed, LRU + byte budget.

The registry is the service's working set.  Every request resolves to a
:class:`~repro.service.session.SpecSession` through
:meth:`SessionRegistry.session_for`: a canonical
:func:`~repro.encoding.combined.spec_fingerprint` of the request's
``(DTD, Sigma)`` either hits a resident session (``session_hits``) or
admits a new one, evicting least-recently-used sessions while the
registry exceeds its session count or byte budget
(``sessions_evicted``).  An evicted specification is not an error — the
next request for it simply re-admits a cold session, whose answers are
byte-identical to the evicted one's (the differential suite replays
exactly this).

The registry takes specifications as text only (``<!ELEMENT ...>``
declarations and constraint lines), the form every request carries.
Resolving text pays for the specification's constraints, not for
its DTD: the registry memoizes each ``(dtd_text, root)`` to the parsed
:class:`~repro.dtd.model.DTD` and its canonical text, so a request over
a DTD seen before neither re-parses nor re-serializes it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache

from repro.checkers.config import CheckerConfig
from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import dtd_to_string
from repro.encoding.combined import (
    DTD_CACHE_LIMIT,
    canonical_spec,
    fingerprint_of,
    spec_fingerprint,
)
from repro.errors import ReproError
from repro.service.session import SpecSession


@lru_cache(maxsize=1024)
def fingerprint_for(
    dtd_text: str, constraints_text: str = "", root: str | None = None
) -> str:
    """The canonical spec fingerprint of a textual specification.

    The same identity :meth:`SessionRegistry.session_for` keys on, but
    *without admitting a session* — the fleet router shards requests by
    this value before any backend has parsed the spec.  Memoized: the
    router fingerprints every inline request on its event loop, and a
    repeated spec must not re-parse.
    """
    dtd = parse_dtd(dtd_text, root=root)
    return spec_fingerprint(dtd, parse_constraints(constraints_text))


class SessionRegistry:
    """LRU cache of :class:`SpecSession`\\ s keyed by spec fingerprint.

    >>> registry = SessionRegistry(max_sessions=2)
    >>> dtd = "<!ELEMENT r (a*)> <!ELEMENT a EMPTY> <!ATTLIST a k CDATA #REQUIRED>"
    >>> first = registry.session_for(dtd, "a.k -> a")
    >>> registry.session_for(dtd, "a.k -> a") is first   # same spec: cache hit
    True
    >>> registry.core_stats()["session_hits"]
    1
    """

    def __init__(
        self,
        max_sessions: int = 32,
        max_bytes: int = 256 * 1024 * 1024,
        config: CheckerConfig | None = None,
        max_cached_responses: int = 512,
    ):
        if max_sessions < 1:
            raise ReproError("the registry needs room for at least one session")
        self.max_sessions = max_sessions
        self.max_bytes = max_bytes
        self.config = config
        self.collector = None
        self._max_cached_responses = max_cached_responses
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[str, SpecSession]" = OrderedDict()
        #: ``(dtd_text, root)`` -> ``(DTD, dtd_to_string(DTD))``, least
        #: recently used first, at most ``DTD_CACHE_LIMIT`` entries.
        self._dtds: "OrderedDict[tuple[str, str | None], tuple[DTD, str]]" = (
            OrderedDict()
        )
        #: Running byte total of the resident sessions, and each one's
        #: share of it (updated through ``SpecSession.on_resize``), so
        #: admission never rescans or locks every session.
        self._bytes = 0
        self._sizes: dict[str, int] = {}
        self._hits = 0
        self._opened = 0
        self._evicted = 0
        #: Folded counters of evicted sessions, so the ``session.*``
        #: aggregates (:meth:`session_counters`) stay monotone when the
        #: LRU sheds a resident session.
        self._retired: dict[str, int] = {}

    # -- resolution ---------------------------------------------------------

    def session_for(
        self, dtd_text: str, constraints_text: str = "", root: str | None = None
    ) -> SpecSession:
        """The resident session for a textual spec; admit if absent.

        ``dtd_text`` is ``<!ELEMENT ...>`` declarations and
        ``constraints_text`` constraint lines.  The DTD goes through the
        registry's parsed-DTD memo (:meth:`parsed_dtd`).
        """
        dtd, dtd_text = self.parsed_dtd(dtd_text, root)
        sigma = parse_constraints(constraints_text)
        fingerprint = fingerprint_of(canonical_spec(dtd, sigma, dtd_text))
        with self._lock:
            session = self._sessions.get(fingerprint)
            if session is not None:
                self._sessions.move_to_end(fingerprint)
                self._hits += 1
                return session
            session = SpecSession(
                dtd,
                sigma,
                config=self.config,
                max_cached_responses=self._max_cached_responses,
                collector=self.collector,
                dtd_text=dtd_text,
            )
            self._opened += 1
            self._sessions[fingerprint] = session
            self._sizes[fingerprint] = size = session.approx_bytes()
            self._bytes += size
            session.on_resize = self._resized
            self._shrink_locked()
            return session

    def parsed_dtd(self, text: str, root: str | None = None) -> tuple[DTD, str]:
        """``parse_dtd(text, root)`` and its ``dtd_to_string``, memoized.

        Parse errors are raised, never cached.  A DTD value is immutable,
        so every session over the same text shares one object.
        """
        key = (text, root)
        with self._lock:
            entry = self._dtds.get(key)
            if entry is not None:
                self._dtds.move_to_end(key)
                return entry
        dtd = parse_dtd(text, root=root)
        entry = (dtd, dtd_to_string(dtd))
        with self._lock:
            self._dtds[key] = entry
            self._dtds.move_to_end(key)
            if len(self._dtds) > DTD_CACHE_LIMIT:
                self._dtds.popitem(last=False)
        return entry

    def get(self, fingerprint: str) -> SpecSession | None:
        """The resident session with this fingerprint, if any (no admit)."""
        with self._lock:
            session = self._sessions.get(fingerprint)
            if session is not None:
                self._sessions.move_to_end(fingerprint)
                self._hits += 1
            return session

    def evict(self, fingerprint: str) -> bool:
        """Drop one session by fingerprint; ``True`` if it was resident."""
        with self._lock:
            session = self._sessions.pop(fingerprint, None)
            if session is None:
                return False
            self._retire_locked(session)
            self._evicted += 1
            return True

    def _resized(self, session: SpecSession, size: int) -> None:
        """A resident session's new ``approx_bytes`` (its ``on_resize``)."""
        with self._lock:
            fingerprint = session.fingerprint
            if self._sessions.get(fingerprint) is session:
                self._bytes += size - self._sizes[fingerprint]
                self._sizes[fingerprint] = size

    def _retire_locked(self, session: SpecSession) -> None:
        """Fold an evicted session's counters into the retired totals
        (same critical section as the eviction, so :meth:`session_counters`
        can never observe the drop) and take its bytes off the total."""
        self._bytes -= self._sizes.pop(session.fingerprint)
        for key, value in session.stats.as_dict().items():
            if value:
                self._retired[key] = self._retired.get(key, 0) + value

    def _shrink_locked(self) -> None:
        """Evict LRU sessions while over the count or byte budget.

        The just-admitted session (most recently used) is never evicted:
        a single oversized spec must still be answerable, it simply
        leaves no room for neighbours.
        """
        while len(self._sessions) > self.max_sessions:
            _, session = self._sessions.popitem(last=False)
            self._retire_locked(session)
            self._evicted += 1
        while len(self._sessions) > 1 and self._bytes > self.max_bytes:
            _, session = self._sessions.popitem(last=False)
            self._retire_locked(session)
            self._evicted += 1

    def attach_collector(self, collector) -> None:
        """Adopt a :class:`~repro.service.metrics.StatsCollector`.

        Future *and* resident sessions push into it (the server calls
        this at construction; a registry built first stays collector-free
        and pays nothing).
        """
        with self._lock:
            self.collector = collector
            for session in self._sessions.values():
                session.collector = collector

    # -- introspection ------------------------------------------------------

    def approx_bytes(self) -> int:
        """Estimated resident size of every session (see ``approx_bytes``)."""
        return self._bytes

    def fingerprints(self) -> list[str]:
        """Resident fingerprints, least recently used first."""
        with self._lock:
            return list(self._sessions)

    def core_stats(self) -> dict[str, int]:
        """Registry-only counters; the session aggregates live in
        :meth:`session_counters`."""
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "sessions_opened": self._opened,
                "session_hits": self._hits,
                "sessions_evicted": self._evicted,
                "approx_bytes": self.approx_bytes(),
                "max_sessions": self.max_sessions,
                "max_bytes": self.max_bytes,
            }

    def session_counters(self) -> dict[str, int]:
        """Aggregate ``session.*`` counters: live sessions plus retired
        (evicted) totals — monotone across eviction — and the live-only
        ``cached_responses`` occupancy gauge."""
        with self._lock:
            totals = dict(self._retired)
            cached = 0
            for session in self._sessions.values():
                for key, value in session.stats.as_dict().items():
                    totals[key] = totals.get(key, 0) + value
                cached += len(session._responses)  # single-read, GIL-atomic
            for key in ("requests", "cache_hits", "batch_requests"):
                totals.setdefault(key, 0)
            totals["cached_responses"] = cached
            return totals
