"""Central metrics: one collector for every counter the service emits.

Before this module, observability counters were scattered across three
stats dicts — :class:`~repro.service.server.ServerStats`, the registry's
``stats()`` payload (which *merged* registry counters with per-session
aggregates into one flat dict), and the solver's
:class:`~repro.ilp.condsys.CondSolveStats` riding on responses.  The
:class:`StatsCollector` absorbs them behind namespaced keys —
``server.*``, ``registry.*``, ``session.*``, ``pool.*`` — so no key can
shadow another, and adds the two things a scrape surface needs that
point-in-time dicts cannot give:

* **latency histograms** — fixed-bucket per-op request latency
  (:class:`LatencyHistogram`);
* **monotone session aggregates** — evicted sessions are *retired* into
  the collector (:meth:`StatsCollector.retire_session`), so
  ``session.requests`` and friends never step backwards when the LRU
  sheds a resident session.

The rendered surface is the Prometheus text exposition format
(:func:`render_prometheus`), served at ``GET /metrics`` by the HTTP
front end; the scrape is a pure read (no locks shared with the solver
hot path beyond the collector's own mutex).  The shape follows scrapy's
engine/stats split: components push increments into one process-wide
collector; the exporter only ever reads.

This module also closes the adaptive-parallelism loop
(:class:`AdaptiveJobsController`): observed solve latency grows or
shrinks a session's effective ``jobs``, complementing the server's
adaptive batch width (DESIGN.md section 10).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass

from repro.ilp.condsys import effective_parallelism

#: Histogram bucket upper bounds, in seconds.  Spaced for a service whose
#: warm cache hits answer in well under a millisecond and whose cold
#: branch-and-bound solves run seconds: sub-ms resolution at the fast
#: end, coarse decades at the slow end, ``+Inf`` implied.
HISTOGRAM_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """One documented metric: wire key, exposition name, type, help."""

    key: str
    name: str
    kind: str
    help: str


def _spec(key: str, kind: str, help_text: str) -> MetricSpec:
    name = "repro_" + key.replace(".", "_")
    if kind == COUNTER:
        name += "_total"
    return MetricSpec(key=key, name=name, kind=kind, help=help_text)


#: Every documented scalar metric, keyed by its namespaced wire name.
#: The ``stats`` op's ``counters`` payload and the ``/metrics`` scrape
#: are both generated from (supersets of) this table, and
#: ``tests/test_service_metrics.py`` round-trips it: each entry must be
#: present in a scrape, carry this type, and — for counters — be
#: monotone across scrapes.
METRICS: dict[str, MetricSpec] = {
    spec.key: spec
    for spec in (
        # -- server.*: the front end (admission, batching, lifecycle) --
        _spec("server.requests", COUNTER, "Requests received (all ops)."),
        _spec("server.responses", COUNTER, "Responses written."),
        _spec("server.errors", COUNTER, "Responses carrying ok=false."),
        _spec("server.batches", COUNTER, "Session-queue drains dispatched."),
        _spec(
            "server.batches_coalesced",
            COUNTER,
            "Drains that coalesced 2+ implies into one implies_all.",
        ),
        _spec(
            "server.batch_width_sum",
            COUNTER,
            "Total requests across all drained batches.",
        ),
        _spec(
            "server.requests_shed",
            COUNTER,
            "Requests answered overloaded by admission control.",
        ),
        _spec(
            "server.connections_shed",
            COUNTER,
            "Connections shed at the connection cap.",
        ),
        _spec(
            "server.deadline_expired",
            COUNTER,
            "Requests answered budget_exceeded.",
        ),
        _spec(
            "server.sessions_restored",
            COUNTER,
            "Sessions restored from a state snapshot.",
        ),
        _spec("server.snapshots_saved", COUNTER, "State snapshots written."),
        _spec(
            "server.batch_width",
            GAUGE,
            "Widest batch drained so far (high-water mark).",
        ),
        _spec("server.inflight", GAUGE, "Requests currently admitted."),
        _spec("server.connections", GAUGE, "Open client connections."),
        _spec(
            "server.batch_limit",
            GAUGE,
            "Current adaptive batch width limit.",
        ),
        _spec(
            "server.accepting",
            GAUGE,
            "1 while admitting requests, 0 once shutdown began.",
        ),
        # -- registry.*: the cross-request session cache ---------------
        _spec("registry.sessions_opened", COUNTER, "Sessions built (cache misses)."),
        _spec("registry.session_hits", COUNTER, "Fingerprint cache hits."),
        _spec("registry.sessions_evicted", COUNTER, "Sessions evicted (LRU/bytes)."),
        _spec("registry.sessions", GAUGE, "Resident sessions."),
        _spec("registry.approx_bytes", GAUGE, "Approximate resident bytes."),
        _spec("registry.max_sessions", GAUGE, "Session cap."),
        _spec("registry.max_bytes", GAUGE, "Byte budget."),
        # -- session.*: aggregated across live AND retired sessions ----
        _spec("session.requests", COUNTER, "Session-level operations served."),
        _spec("session.cache_hits", COUNTER, "Response-cache hits (byte replays)."),
        _spec(
            "session.batch_requests",
            COUNTER,
            "Requests answered through coalesced implies_batch.",
        ),
        _spec("session.cached_responses", GAUGE, "Resident response-cache entries."),
        # -- repair.*: the minimal-repair engine (namespaced — never
        # flat-merged into session.* where same-named solver counters
        # would shadow) ------------------------------------------------
        _spec("repair.requests", COUNTER, "Repair ops genuinely solved."),
        _spec(
            "repair.found",
            COUNTER,
            "Repair ops that returned a verified consistency-restoring edit.",
        ),
        _spec("repair.probes", COUNTER, "Candidate-subset probes in repair searches."),
        _spec(
            "repair.probe_cache_hits",
            COUNTER,
            "Repair probes answered from the probe memo.",
        ),
        _spec("repair.cores", COUNTER, "Conflict cores extracted during repair."),
        _spec(
            "repair.hitting_sets",
            COUNTER,
            "Minimum hitting sets computed during repair.",
        ),
        _spec(
            "repair.assemblies",
            COUNTER,
            "Base-matrix assemblies paid by repair searches.",
        ),
        _spec(
            "repair.verify_checks",
            COUNTER,
            "Full consistency checks verifying applied repairs.",
        ),
        # -- router.*: the fleet shard router (repro fleet) ------------
        _spec("router.requests", COUNTER, "Requests received by the router."),
        _spec("router.responses", COUNTER, "Responses written by the router."),
        _spec("router.errors", COUNTER, "Routed responses carrying ok=false."),
        _spec(
            "router.requests_shed",
            COUNTER,
            "Requests shed by the router's admission control.",
        ),
        _spec(
            "router.connections_shed",
            COUNTER,
            "Connections shed at the router's connection cap.",
        ),
        _spec("router.routed", COUNTER, "Requests forwarded to a backend."),
        _spec(
            "router.replays",
            COUNTER,
            "Idempotent replays after a dropped backend connection.",
        ),
        _spec("router.reconnects", COUNTER, "Backend links re-established."),
        _spec(
            "router.backends_lost",
            COUNTER,
            "Backends removed from the ring as unreachable.",
        ),
        _spec(
            "router.reroutes",
            COUNTER,
            "Requests rerouted to a surviving backend after a loss.",
        ),
        _spec("router.waves", COUNTER, "implies_all fan-out waves dispatched."),
        _spec(
            "router.wave_chunks",
            COUNTER,
            "Chunks dispatched across all fan-out waves.",
        ),
        _spec("router.backends", GAUGE, "Live backends on the ring."),
        _spec("router.inflight", GAUGE, "Requests admitted by the router."),
        _spec(
            "router.accepting",
            GAUGE,
            "1 while the router admits requests, 0 once shutdown began.",
        ),
        # -- pool.*: the fork-based solver pool + adaptive jobs --------
        _spec("pool.workers_spawned", COUNTER, "Worker processes forked."),
        _spec("pool.jobs_grown", COUNTER, "Adaptive-jobs growth steps."),
        _spec("pool.jobs_shrunk", COUNTER, "Adaptive-jobs shrink steps."),
        _spec(
            "pool.effective_jobs",
            GAUGE,
            "Current adaptive jobs level (auto sessions; 0 = never engaged).",
        ),
    )
}

#: The repair-engine counters a session forwards into ``repair.*``
#: after each genuinely-solved repair request.
_REPAIR_STAT_KEYS = (
    "probes",
    "probe_cache_hits",
    "cores",
    "hitting_sets",
    "assemblies",
    "verify_checks",
)

#: Histogram families (rendered after the scalars).
OP_LATENCY = MetricSpec(
    key="op_latency",
    name="repro_request_latency_seconds",
    kind=HISTOGRAM,
    help="Wire-request latency by op (admission to response payload).",
)


class LatencyHistogram:
    """A fixed-bucket latency histogram (Prometheus ``histogram`` shape).

    ``counts[i]`` is the number of observations <= ``buckets[i]``
    (*non*-cumulative storage; :meth:`snapshot` cumulates), plus one
    overflow slot for ``+Inf``.  Mutation is O(log buckets) and is done
    under the owning collector's lock.

    >>> h = LatencyHistogram()
    >>> h.observe(0.0007); h.observe(0.3); h.observe(999.0)
    >>> h.count, [b for b, _ in h.snapshot()][:2]
    (3, [0.0005, 0.001])
    """

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...] = HISTOGRAM_BUCKETS):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(self.buckets, seconds)] += 1
        self.total += seconds
        self.count += 1

    def snapshot(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out, running = [], 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class StatsCollector:
    """The process-wide sink for pushed counters and histograms.

    Components *push* (``inc``/``set_gauge``/``observe_op``/
    ``absorb_solver_stats``/``retire_session``); the
    exporter *pulls* (:meth:`counters`, :meth:`render`).  All methods
    are thread-safe: sessions mutate from executor threads while the
    event loop renders a scrape.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._op_latency: dict[str, LatencyHistogram] = {}

    # -- pushes --------------------------------------------------------

    def inc(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to the namespaced counter ``key``."""
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def set_gauge(self, key: str, value: float) -> None:
        with self._lock:
            self._gauges[key] = value

    def observe_op(self, op: str, seconds: float) -> None:
        """Record one wire request's latency under its op label."""
        with self._lock:
            histogram = self._op_latency.get(op)
            if histogram is None:
                histogram = self._op_latency[op] = LatencyHistogram()
            histogram.observe(seconds)

    def absorb_solver_stats(self, stats: dict | None) -> None:
        """Fold one solved response's ``workers_spawned`` (the diagnostics
        audit's fan-out) into ``pool.workers_spawned``; cache hits carry
        no new solver work and are never absorbed."""
        spawned = (stats or {}).get("workers_spawned", 0)
        if spawned:
            self.inc("pool.workers_spawned", spawned)

    def absorb_repair_stats(self, payload: dict) -> None:
        """Fold one solved repair response into the ``repair.*`` counters.

        Takes the wire payload (the :class:`~repro.analysis.repair.Repair`
        dict): the outcome flags become ``repair.requests`` /
        ``repair.found`` and the engine's work counters land under their
        own namespace — deliberately *not* merged into ``session.*``,
        where same-named solver counters (``assemblies``, ``probes``)
        would be shadowed.
        """
        stats = payload.get("stats") or {}
        with self._lock:
            self._counters["repair.requests"] = (
                self._counters.get("repair.requests", 0) + 1
            )
            if payload.get("found"):
                self._counters["repair.found"] = (
                    self._counters.get("repair.found", 0) + 1
                )
            for key in _REPAIR_STAT_KEYS:
                value = stats.get(key, 0)
                if value:
                    full = f"repair.{key}"
                    self._counters[full] = self._counters.get(full, 0) + value

    def retire_session(self, stats: dict[str, int]) -> None:
        """Accumulate an evicted session's counters so ``session.*``
        aggregates stay monotone after the LRU drops it."""
        with self._lock:
            for key, value in stats.items():
                if value:
                    full = f"session.{key}"
                    self._counters[full] = self._counters.get(full, 0) + value

    # -- pulls ---------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """A point-in-time copy of the pushed counters and gauges."""
        with self._lock:
            merged = dict(self._counters)
            merged.update(self._gauges)
            return merged

    def render(self, counters: dict[str, float] | None = None) -> str:
        """The Prometheus text exposition for ``counters`` (defaulting
        to the collector's own pushed state) plus the histograms."""
        if counters is None:
            counters = self.counters()
        with self._lock:
            ops = {
                op: (h.snapshot(), h.total, h.count)
                for op, h in sorted(self._op_latency.items())
            }
        return render_prometheus(counters, ops)


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _format_value(bound)


def render_prometheus(counters, op_histograms=None) -> str:
    """Render the documented metrics in text exposition format 0.0.4.

    Every entry of :data:`METRICS` is emitted (absent keys as 0, so a
    scraper sees a stable series set from the first scrape); undocumented
    ``counters`` keys are ignored rather than exported untyped.
    """
    lines: list[str] = []
    for spec in METRICS.values():
        value = counters.get(spec.key, 0)
        lines.append(f"# HELP {spec.name} {spec.help}")
        lines.append(f"# TYPE {spec.name} {spec.kind}")
        lines.append(f"{spec.name} {_format_value(value)}")
    name = OP_LATENCY.name
    lines.append(f"# HELP {name} {OP_LATENCY.help}")
    lines.append(f"# TYPE {name} {OP_LATENCY.kind}")
    for op, (snapshot, total, count) in (op_histograms or {}).items():
        for bound, cumulative in snapshot:
            le = f'le="{_format_bound(bound)}"'
            lines.append(f'{name}_bucket{{op="{op}", {le}}} {cumulative}')
        lines.append(f'{name}_sum{{op="{op}"}} {_format_value(total)}')
        lines.append(f'{name}_count{{op="{op}"}} {count}')
    return "\n".join(lines) + "\n"


class AdaptiveJobsController:
    """Latency-driven ``jobs`` tuning for one session (``--jobs auto``).

    The AutoThrottle-shaped AIMD loop, one level up from the server's
    adaptive batch width: when a solve runs longer
    than ``target_latency``, there is enough work outstanding to justify
    another worker — grow additively.  When solves come back fast, the
    spec is cheap and forked workers are overhead — decay multiplicatively
    toward 1.  The level is clamped to ``[1, ceiling]`` where ``ceiling``
    is :func:`~repro.ilp.condsys.effective_parallelism` (the CPUs this
    process may actually use), so auto mode can never oversubscribe.

    The controller only ever *suggests* a concrete integer
    (:meth:`current`); sessions resolve it into the per-request
    ``CheckerConfig`` before cache keys are formed, so the fixed-jobs
    path and response byte-identity are untouched.

    >>> ctl = AdaptiveJobsController(target_latency=0.1, ceiling=4)
    >>> for _ in range(8):
    ...     ctl.observe_solve(1.0)
    >>> ctl.current()
    4
    >>> for _ in range(8):
    ...     ctl.observe_solve(0.001)
    >>> ctl.current()
    1
    """

    def __init__(
        self,
        target_latency: float = 0.25,
        ceiling: int | None = None,
        collector: StatsCollector | None = None,
    ):
        if target_latency < 0:
            raise ValueError("target_latency cannot be negative")
        self.target_latency = target_latency
        self.ceiling = max(1, ceiling if ceiling is not None else effective_parallelism())
        self.collector = collector
        self._lock = threading.Lock()
        self._level = 1.0
        self.grown = 0
        self.shrunk = 0

    def current(self) -> int:
        """The jobs level a new request should solve with (in ``[1, ceiling]``)."""
        with self._lock:
            return max(1, min(self.ceiling, int(self._level)))

    def _adjust(self, slow: bool) -> None:
        with self._lock:
            before = max(1, min(self.ceiling, int(self._level)))
            if slow:
                self._level = min(float(self.ceiling), self._level + 1.0)
            else:
                self._level = max(1.0, self._level * 0.75)
            after = max(1, min(self.ceiling, int(self._level)))
            if after > before:
                self.grown += 1
            elif after < before:
                self.shrunk += 1
        if self.collector is not None:
            if after > before:
                self.collector.inc("pool.jobs_grown")
            elif after < before:
                self.collector.inc("pool.jobs_shrunk")
            self.collector.set_gauge("pool.effective_jobs", self.current())

    def observe_solve(self, seconds: float) -> None:
        """One full solve completed (any jobs level)."""
        self._adjust(slow=seconds > self.target_latency)
