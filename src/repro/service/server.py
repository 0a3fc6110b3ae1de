"""The asyncio front end: ``repro serve`` (DESIGN.md sections 8 and 9).

Line-delimited JSON requests arrive over stdio or a localhost TCP
socket; each is dispatched against the shared
:class:`~repro.service.registry.SessionRegistry`.  Solver work runs in a
small thread pool so the event loop stays responsive, under two
scheduling rules:

* **per-session serialization** — requests queue by the spec identity
  they were sent with (a ``session`` fingerprint or the inline texts,
  see :func:`_queue_key`), and one drainer task per queue feeds the
  executor one job per batch, which resolves the session and runs the
  op; the session's own lock serializes queues that name one spec in
  different texts, so its response cache never races;
* **batch coalescing** — while a queue is busy, newly arrived
  ``implies`` requests with the same config (and deadline) pile up in
  its queue; the drainer pops them *together* and answers them with one
  ``implies_batch`` call (which validates once, shares the encoding
  block, and fans across the PR-4 worker pool when ``jobs > 1``).
  ``batches_coalesced`` counts multi-request batches and
  ``batch_width`` the widest one.  Batch width adapts to observed
  drain latency (the AutoThrottle shape): when batches take longer
  than ``batch_target_latency`` per drain, the width limit shrinks
  toward keeping each drain responsive, and grows back when drains are
  fast — so a slow spec cannot turn coalescing into head-of-line
  blocking.

Production hardening (DESIGN.md section 9):

* **admission control** — a global in-flight cap and bounded
  per-session queues; over-limit requests are answered immediately
  with a structured ``overloaded`` error carrying a ``retry_after``
  hint instead of queueing without bound, and a connection cap sheds
  over-limit TCP connects the same way;
* **deadlines** — a request may carry ``deadline`` seconds (or inherit
  the server default); expired work answers ``budget_exceeded``
  through the solver's cooperative cancellation (:mod:`repro.budget`)
  instead of wedging the drainer, and queued requests whose deadline
  passed are answered without solving at all;
* **deterministic shutdown** — ``shutdown`` stops admitting, waits for
  every in-flight response to be written, snapshots sessions (when a
  state file is configured), then stops: no grace-period timers;
* **crash-safe persistence** — with ``state_file`` set, sessions are
  restored on start and snapshotted on shutdown (plus every
  ``autosave_interval`` seconds); see :mod:`repro.service.persist`.

Responses may complete out of request order across a connection; the
echoed ``id`` is the correlation key.  ``shutdown`` stops the server —
the trust model is a localhost/stdio tool, not an internet service.
"""

from __future__ import annotations

import asyncio
import contextlib
import copy
import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.budget import Deadline, deadline_scope
from repro.errors import BudgetExceededError, OverloadedError
from repro.ilp.condsys import effective_parallelism
from repro.service import persist, protocol
from repro.service.faults import fault_active, fault_seconds
from repro.service.metrics import StatsCollector
from repro.service.registry import SessionRegistry
from repro.service.session import SpecSession


@contextlib.contextmanager
def _protocol_stdout():
    """The stdio protocol stream, safe from native writes to fd 1.

    Native code writes to file descriptor 1 directly, past ``sys.stdout``
    (the vendored HiGHS MIP prints a diagnostic line there even with its
    output switched off), and would interleave non-JSON bytes with the
    responses.  So the protocol goes to a private duplicate of fd 1,
    which also becomes ``sys.stdout`` (Python-level announcements keep
    their place in the stream), while fd 1 itself points at stderr until
    serving ends.  A ``sys.stdout`` not backed by fd 1 is used as is.
    """
    original = sys.stdout
    try:
        fd = original.fileno()
    except (AttributeError, OSError, ValueError):
        fd = None
    if fd != 1:
        yield original
        return
    original.flush()
    private = os.fdopen(os.dup(1), "w", encoding=original.encoding)
    os.dup2(2, 1)
    sys.stdout = private
    try:
        yield private
    finally:
        private.flush()
        os.dup2(private.fileno(), 1)
        sys.stdout = original
        private.close()


@dataclass
class ServerStats:
    """Front-end counters (the solver's own counters ride on responses)."""

    requests: int = 0
    responses: int = 0
    errors: int = 0
    batches: int = 0
    batches_coalesced: int = 0
    batch_width: int = 0
    batch_width_sum: int = 0
    requests_shed: int = 0
    connections_shed: int = 0
    deadline_expired: int = 0
    sessions_restored: int = 0
    snapshots_saved: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "batches": self.batches,
            "batches_coalesced": self.batches_coalesced,
            "batch_width": self.batch_width,
            "batch_width_sum": self.batch_width_sum,
            "requests_shed": self.requests_shed,
            "connections_shed": self.connections_shed,
            "deadline_expired": self.deadline_expired,
            "sessions_restored": self.sessions_restored,
            "snapshots_saved": self.snapshots_saved,
        }


def _queue_key(request: dict) -> object:
    """The per-session queue a request joins: its spec identity as sent.

    The ``session`` fingerprint, or the inline ``(dtd, constraints,
    root)`` texts — nothing is parsed, so the key costs no solver work.
    Two textual variants of one spec get two queues; both resolve to the
    same :class:`SpecSession`, whose lock serializes them.  A field that
    is not text (a list, a number, an object) gets a queue of its own,
    where resolution reports the error: values of different types may
    compare equal (``1 == True``) yet fail differently.
    """
    fingerprint = request.get("session")
    if fingerprint is not None:
        key = ("session", fingerprint)
    else:
        key = (
            "spec",
            request.get("dtd"),
            request.get("constraints", ""),
            request.get("root"),
        )
    if all(part is None or isinstance(part, str) for part in key):
        return key
    return object()


class _SessionQueue:
    """Pending operations for one spec identity, drained one batch at a time.

    The queue is bounded (``server.queue_depth``): a submit against a
    full queue sheds with :class:`~repro.errors.OverloadedError` rather
    than queueing without bound — the per-session half of admission
    control (the global half is the server's in-flight cap).  Each batch
    costs one executor job (:meth:`_serve`), which resolves the session
    and runs the batch.
    """

    def __init__(self, server: "CheckingServer", key: object):
        self.server = server
        self.key = key
        self.pending: deque = deque()
        self.draining = False

    def submit(self, request: dict) -> "asyncio.Future":
        if len(self.pending) >= self.server.queue_depth:
            raise OverloadedError(
                f"session queue full ({self.server.queue_depth} pending)",
                retry_after=self.server.retry_hint(),
            )
        future = asyncio.get_running_loop().create_future()
        self.pending.append((request, future))
        if not self.draining:
            self.draining = True
            asyncio.get_running_loop().create_task(self._drain())
        return future

    def _take_batch(self) -> list:
        """The next unit of work: a coalesced ``implies`` run or one op.

        When the head is an ``implies``, every pending ``implies`` with
        the same config *and* deadline joins it — up to the adaptive
        width limit — (requests are independent, so pulling them
        forward past other queued ops only changes completion order,
        which the protocol does not promise).
        """
        head, head_future = self.pending.popleft()
        if head.get("op") != "implies":
            return [(head, head_future)]
        batch = [(head, head_future)]
        config = head.get("config")
        budget = head.get("deadline")
        limit = self.server.batch_limit()
        rest = deque()
        while self.pending:
            request, future = self.pending.popleft()
            if (
                len(batch) < limit
                and request.get("op") == "implies"
                and request.get("config") == config
                and request.get("deadline") == budget
            ):
                batch.append((request, future))
            else:
                rest.append((request, future))
        self.pending = rest
        return batch

    def _run_one(
        self, session: SpecSession, request: dict, deadline: Deadline | None
    ) -> dict:
        with deadline_scope(deadline):
            return protocol.perform(session, request)

    def _run_batch(
        self,
        session: SpecSession,
        phis: list,
        config: dict | None,
        deadline: Deadline | None,
    ) -> list[dict]:
        protocol.check_jobs_cap(session, config)
        with deadline_scope(deadline):
            return session.implies_batch(phis, config)

    def _serve(self, requests: list[dict]) -> tuple[SpecSession, list, int]:
        """The drainer's one executor job: resolve, then run the batch.

        Returns the session, one outcome per request (a payload or an
        exception; an op failure is one object shared by the batch) and
        how many requests ran.  A request whose deadline expired while
        queued is answered without solving: the client already stopped
        waiting, and the drainer owes its time to requests that can
        still make their budgets.  A spec that does not resolve raises:
        every request of the batch names the same spec text.
        """
        session = protocol.resolve_session(self.server.registry, requests[0])
        outcomes: list = [None] * len(requests)
        live = []
        for index, request in enumerate(requests):
            deadline = request.get("_deadline")
            if deadline is not None and deadline.expired():
                outcomes[index] = deadline.exceeded()
            else:
                live.append(index)
        if not live:
            return session, outcomes, 0
        deadline = min(
            (
                requests[index]["_deadline"]
                for index in live
                if requests[index].get("_deadline") is not None
            ),
            key=lambda d: d.expires_at,
            default=None,
        )
        try:
            if len(live) > 1:
                phis = [requests[index]["phi"] for index in live]
                config = requests[live[0]].get("config")
                payloads = self._run_batch(session, phis, config, deadline)
            else:
                payloads = [self._run_one(session, requests[live[0]], deadline)]
        except Exception as exc:  # noqa: BLE001 - per-request delivery
            payloads = [exc] * len(live)
        for index, payload in zip(live, payloads):
            outcomes[index] = payload
        return session, outcomes, len(live)

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while self.pending:
                delay = fault_seconds("drain.delay")
                if delay:
                    await asyncio.sleep(delay)
                batch = self._take_batch()
                requests = [request for request, _ in batch]
                started = time.monotonic()
                try:
                    session, outcomes, width = await loop.run_in_executor(
                        self.server.executor, self._serve, requests
                    )
                except Exception as exc:  # noqa: BLE001 - the spec did not resolve
                    for index, (_, future) in enumerate(batch):
                        if not future.done():
                            future.set_exception(
                                exc if index == 0 else _copy_exception(exc)
                            )
                    continue
                for (_, future), outcome in zip(batch, outcomes):
                    if future.done():
                        continue
                    if isinstance(outcome, Exception):
                        future.set_exception(_copy_exception(outcome))
                    else:
                        future.set_result((session, outcome))
                if not width:
                    continue  # every request had expired while queued
                stats = self.server.stats
                stats.batches += 1
                if width > 1:
                    stats.batches_coalesced += 1
                stats.batch_width = max(stats.batch_width, width)
                stats.batch_width_sum += width
                self.server.observe_drain(time.monotonic() - started, width)
        finally:
            self.draining = False
            if not self.pending and self.server._queues.get(self.key) is self:
                del self.server._queues[self.key]


def _copy_exception(exc: Exception) -> Exception:
    """A per-future clone (one exception object must not be shared by
    several futures: tracebacks would chain confusingly)."""
    try:
        return type(exc)(str(exc))
    except Exception:  # noqa: BLE001 - exotic signature; shallow-copy it
        try:
            clone = copy.copy(exc)
            clone.__traceback__ = None
            return clone
        except Exception:  # noqa: BLE001 - uncopyable; reuse the original
            return exc


class RequestServer:
    """Transport machinery shared by every line-protocol front end.

    One subclass is the single-process :class:`CheckingServer`; the
    other is the fleet's shard router
    (:class:`~repro.service.fleet.FleetRouter`).  The base owns what a
    front end *is* — a localhost TCP listener and/or a stdio pump
    feeding :meth:`handle_request`, a connection cap that sheds with a
    structured ``overloaded`` answer, the deterministic
    drain-then-stop shutdown, and the background-thread lifecycle the
    tests and the README quickstarts use — while subclasses supply what
    a request *means*.

    Subclass surface:

    * :meth:`handle_request` (required) — answer one request line;
    * :meth:`render_metrics` (optional) — the ``GET /metrics`` body;
    * ``self.stats`` (required) — any object with a
      ``connections_shed`` counter attribute;
    * the lifecycle hooks ``_on_serving_start`` / ``_on_serving_stop``
      (first transport up, last transport down), ``_flush_on_drain``
      (awaited by the deterministic drain before the stop event fires)
      and ``_release_resources`` (after a background thread joins).
    """

    def __init__(self, max_connections: int = 64):
        self.max_connections = max_connections
        self._per_item_latency = 0.05
        self._inflight = 0
        self._connections = 0
        self._accepting = True
        self._draining = False
        self._answers: set = set()
        self._serving = 0
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._thread_loop: asyncio.AbstractEventLoop | None = None
        self._thread_ready = threading.Event()
        self.address: tuple[str, int] | None = None

    # -- subclass surface ----------------------------------------------------

    async def handle_request(self, line: str) -> dict:
        """Decode, dispatch and answer one request line."""
        raise NotImplementedError

    def render_metrics(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        raise NotImplementedError

    def _on_serving_start(self) -> None:
        """First transport coming up on this loop (state restore etc.)."""

    def _on_serving_stop(self) -> None:
        """Last transport going down (snapshot, cancel housekeeping)."""

    async def _flush_on_drain(self) -> None:
        """Awaited after every answer flushed, before the stop event."""

    def _release_resources(self) -> None:
        """Release executors/links after a background thread joined."""

    # -- admission -----------------------------------------------------------

    def retry_hint(self) -> float:
        """``retry_after`` seconds for shed responses: roughly one
        observed per-request drain latency, floored at 50ms."""
        return round(max(0.05, self._per_item_latency), 3)

    # -- shutdown ------------------------------------------------------------

    def _register_answer(self, task: "asyncio.Task") -> None:
        self._answers.add(task)
        task.add_done_callback(self._answers.discard)

    def _begin_shutdown(self) -> None:
        """Deterministic drain: refuse new work, flush queued futures and
        pending response writes, snapshot, then stop — no timers."""
        if self._draining:
            return
        self._draining = True
        self._accepting = False
        asyncio.get_running_loop().create_task(self._drain_then_stop())

    async def _drain_then_stop(self) -> None:
        current = asyncio.current_task()
        while True:
            pending = [
                task
                for task in self._answers
                if not task.done() and task is not current
            ]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        await self._flush_on_drain()
        if self._stop is not None:
            self._stop.set()

    # -- transports ----------------------------------------------------------

    def _serving_setup(self) -> asyncio.Event:
        """Shared transport bring-up: one stop event, one start hook —
        however many front ends (line TCP, stdio, HTTP, metrics-only
        HTTP) serve on this loop."""
        if self._stop is None:
            self._stop = asyncio.Event()
        self._serving += 1
        self._on_serving_start()
        return self._stop

    def _serving_teardown(self) -> None:
        """Reference-counted shutdown of the shared serving state; the
        last transport out runs the stop hook."""
        self._serving -= 1
        if self._serving > 0:
            return
        self._on_serving_stop()
        self._stop = None

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Serve on a localhost TCP socket until ``shutdown`` arrives.

        ``self.address`` carries the bound ``(host, port)`` once
        listening (``port=0`` binds an ephemeral port).
        """
        stop = self._serving_setup()
        server = await asyncio.start_server(self._handle_connection, host, port)
        sockname = server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        try:
            async with server:
                await stop.wait()
        finally:
            self._serving_teardown()

    async def _handle_connection(self, reader, writer) -> None:
        if self._connections >= self.max_connections:
            self.stats.connections_shed += 1
            shed = OverloadedError(
                f"connection limit reached ({self.max_connections})",
                retry_after=self.retry_hint(),
            )
            try:
                line = protocol.encode(protocol.error_response(None, shed))
                writer.write((line + "\n").encode("utf-8"))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._connections += 1
        write_lock = asyncio.Lock()
        tasks = []

        async def answer(line: str) -> None:
            response = await self.handle_request(line)
            if fault_active("conn.drop"):
                writer.close()
                return
            try:
                async with write_lock:
                    writer.write((protocol.encode(response) + "\n").encode("utf-8"))
                    await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the response has nowhere to go

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                task = asyncio.ensure_future(answer(text))
                self._register_answer(task)
                tasks.append(task)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            # Server shutdown cancels connection handlers mid-read; the
            # deterministic drain already flushed queued responses.
            pass
        finally:
            self._connections -= 1
            writer.close()

    async def serve_stdio(self, stdin=None, stdout=None) -> None:
        """Serve over stdin/stdout until EOF or ``shutdown``.

        stdin is pumped by a dedicated *daemon* thread rather than the
        default executor: a blocked ``readline`` must not keep the
        process alive after a ``shutdown`` request (``asyncio.run``
        joins default-executor threads on exit; it never joins a
        daemon).  Without an explicit ``stdout``, responses go to a
        private duplicate of fd 1 (see :func:`_protocol_stdout`).
        """
        stdin = stdin or sys.stdin
        stop = self._serving_setup()
        loop = asyncio.get_running_loop()
        lines: asyncio.Queue = asyncio.Queue()
        write_lock = asyncio.Lock()
        tasks = []

        def pump() -> None:
            while True:
                line = stdin.readline()
                try:
                    loop.call_soon_threadsafe(lines.put_nowait, line)
                except RuntimeError:
                    return  # loop already closed; nothing left to feed
                if not line:
                    return

        threading.Thread(target=pump, name="repro-stdin", daemon=True).start()

        async def answer(line: str) -> None:
            response = await self.handle_request(line)
            async with write_lock:
                stdout.write(protocol.encode(response) + "\n")
                stdout.flush()

        claimed = contextlib.ExitStack()
        stdout = stdout or claimed.enter_context(_protocol_stdout())
        try:
            while not stop.is_set():
                read = asyncio.ensure_future(lines.get())
                stopped = asyncio.ensure_future(stop.wait())
                done, _ = await asyncio.wait(
                    {read, stopped}, return_when=asyncio.FIRST_COMPLETED
                )
                stopped.cancel()
                if read not in done:
                    read.cancel()
                    break
                line = read.result()
                if not line:
                    break
                if line.strip():
                    task = asyncio.ensure_future(answer(line.strip()))
                    self._register_answer(task)
                    tasks.append(task)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._serving_teardown()
            claimed.close()

    # -- background lifecycle (tests, benchmarks, the README quickstart) -----

    def start_background(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Run the TCP server on a daemon thread; returns the address.

        >>> from repro.service.registry import SessionRegistry
        >>> server = CheckingServer(SessionRegistry(max_sessions=4))
        >>> host, port = server.start_background()
        >>> port > 0
        True
        >>> server.close()
        """
        if self._thread is not None:
            raise RuntimeError("server is already running")

        def run() -> None:
            async def main() -> None:
                self._thread_loop = asyncio.get_running_loop()
                started = asyncio.ensure_future(self.serve_tcp(host, port))
                while self.address is None and not started.done():
                    await asyncio.sleep(0.001)
                self._thread_ready.set()
                await started

            try:
                asyncio.run(main())
            finally:
                self._thread_ready.set()

        self._thread = threading.Thread(target=run, name="repro-serve", daemon=True)
        self._thread.start()
        self._thread_ready.wait(timeout=10.0)
        if self.address is None:
            raise RuntimeError("server failed to start")
        return self.address

    def close(self) -> None:
        """Stop a background server and release its resources.

        Routes through the same deterministic drain as the ``shutdown``
        op (answer everything received, snapshot, then stop) — setting
        the stop event directly would race a drain already in flight
        and could cancel its snapshot mid-write.
        """
        if self._thread is not None and self._thread_loop is not None:
            try:
                self._thread_loop.call_soon_threadsafe(self._begin_shutdown)
            except RuntimeError:
                pass  # loop already closed
            self._thread.join(timeout=10.0)
            self._thread = None
            self._thread_loop = None
        self._release_resources()


class CheckingServer(RequestServer):
    """The resident checking service over a :class:`SessionRegistry`.

    Admission, deadline and persistence knobs (all optional):

    ``max_inflight``
        Global cap on requests admitted but not yet answered; beyond it
        requests shed with ``overloaded`` + ``retry_after``.
    ``queue_depth``
        Per-session pending-queue bound (the second shedding layer).
    ``max_connections``
        Concurrent TCP connection cap; over-limit connects receive one
        structured shed response and are closed.
    ``default_deadline``
        Seconds granted to requests that do not carry their own
        ``deadline`` field (``None`` = unbounded).
    ``state_file``
        Path for crash-safe session snapshots: loaded on serve start,
        written on shutdown and every ``autosave_interval`` seconds.
    ``batch_target_latency`` / ``max_batch_width``
        The adaptive coalescing controller's target per-drain latency
        and hard width ceiling.
    """

    def __init__(
        self,
        registry: SessionRegistry | None = None,
        executor_threads: int | None = None,
        max_inflight: int = 256,
        queue_depth: int = 128,
        max_connections: int = 64,
        default_deadline: float | None = None,
        state_file: str | None = None,
        autosave_interval: float | None = None,
        batch_target_latency: float = 0.5,
        max_batch_width: int = 32,
        collector: StatsCollector | None = None,
    ):
        super().__init__(max_connections=max_connections)
        # One-shot CLI commands never import the analysis layer; a server
        # loads it here, before it listens, so the first served
        # diagnose/repair does not pay for the import inside a request.
        import repro.analysis.repair  # noqa: F401  (imports diagnostics too)

        self.registry = registry or SessionRegistry()
        self.stats = ServerStats()
        #: The process-wide metrics sink (DESIGN.md section 10): sessions
        #: push pool counters into it, the server adds
        #: per-op request latency, and ``GET /metrics`` / the ``stats``
        #: op's ``counters`` payload read from it.
        self.collector = collector or self.registry.collector or StatsCollector()
        self.registry.attach_collector(self.collector)
        self.executor = ThreadPoolExecutor(
            max_workers=executor_threads or max(2, min(8, effective_parallelism())),
            thread_name_prefix="repro-serve",
        )
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.default_deadline = default_deadline
        self.state_file = state_file
        self.autosave_interval = autosave_interval
        self.batch_target_latency = batch_target_latency
        self.max_batch_width = max_batch_width
        self._batch_limit = float(max_batch_width)
        self._state_loaded = False
        self._queues: dict[str, _SessionQueue] = {}
        self._autosave: "asyncio.Future | None" = None

    # -- admission and adaptation -------------------------------------------

    def batch_limit(self) -> int:
        """The adaptive coalescing width limit, as an integer >= 1."""
        return max(1, int(self._batch_limit))

    def observe_drain(self, elapsed: float, width: int) -> None:
        """Feed one drain's latency into the width controller.

        The AutoThrottle averaging shape: the next limit is the mean of
        the current limit and the width that would hit the target
        latency at the observed per-item cost — fast drains grow the
        window toward ``max_batch_width``, slow drains shrink it toward
        answering each request promptly.
        """
        per_item = max(elapsed / max(width, 1), 1e-6)
        self._per_item_latency = 0.5 * self._per_item_latency + 0.5 * per_item
        proposed = (self._batch_limit + self.batch_target_latency / per_item) / 2.0
        self._batch_limit = min(float(self.max_batch_width), max(1.0, proposed))

    def _admit(self) -> None:
        """Admission control: raise :class:`OverloadedError` to shed."""
        if not self._accepting:
            raise OverloadedError(
                "server is draining for shutdown",
                retry_after=self.retry_hint(),
            )
        if self._inflight >= self.max_inflight:
            raise OverloadedError(
                f"server at capacity ({self.max_inflight} requests in flight)",
                retry_after=self.retry_hint(),
            )

    def _deadline_for(self, request: dict) -> Deadline | None:
        seconds = request.get("deadline", self.default_deadline)
        if seconds is None:
            return None
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise protocol.ProtocolError("'deadline' must be a number of seconds")
        if seconds < 0:
            raise protocol.ProtocolError("'deadline' cannot be negative")
        return Deadline.after(float(seconds))

    # -- request handling ---------------------------------------------------

    async def handle_request(self, line: str) -> dict:
        """Decode, dispatch and answer one request line."""
        self.stats.requests += 1
        request_id = None
        op = None
        started = time.monotonic()
        try:
            request = protocol.parse_request(line)
            request_id = request.get("id")
            op = request["op"]
            if op == "stats":
                response = protocol.ok_response(request, self.stats_payload(), None)
            elif op == "shutdown":
                response = protocol.ok_response(request, {"stopping": True}, None)
                self._begin_shutdown()
            else:
                # _admit reserves the in-flight slot before the first
                # await: concurrent arrivals must not all pass the cap
                # check while none has yet been counted.
                self._admit()
                self._inflight += 1
                try:
                    request["_deadline"] = self._deadline_for(request)
                    key = _queue_key(request)
                    queue = self._queues.get(key)
                    if queue is None:
                        queue = self._queues[key] = _SessionQueue(self, key)
                    session, payload = await queue.submit(request)
                finally:
                    self._inflight -= 1
                if "error" in payload:
                    self.stats.errors += 1
                    if payload["error"].get("type") == "budget_exceeded":
                        self.stats.deadline_expired += 1
                    response = {
                        "id": request_id,
                        "ok": False,
                        **payload,
                    }
                else:
                    response = protocol.ok_response(request, payload, session)
        except OverloadedError as exc:
            self.stats.requests_shed += 1
            response = protocol.error_response(request_id, exc)
        except Exception as exc:  # noqa: BLE001 - every request gets an answer
            self.stats.errors += 1
            if isinstance(exc, BudgetExceededError):
                self.stats.deadline_expired += 1
            response = protocol.error_response(request_id, exc)
        self.stats.responses += 1
        if op in protocol.SESSION_OPS:
            # Wire-request latency by op, shed and errored requests
            # included — the scrape measures what clients experienced,
            # not just what the solver solved.
            self.collector.observe_op(op, time.monotonic() - started)
        return response

    def stats_payload(self) -> dict:
        """Registry, server and per-session counters (the ``stats`` op).

        The nested sections are the original wire shape; ``registry``
        holds registry counters only, and the session aggregates live in
        ``counters``, the namespaced flat view (``server.*``,
        ``registry.*``, ``session.*``, ``pool.*``) in which no key can
        shadow another — the same dict a ``/metrics`` scrape renders.
        """
        sessions = {}
        for fingerprint in self.registry.fingerprints():
            session = self.registry._sessions.get(fingerprint)
            if session is not None:
                sessions[fingerprint] = session.service_stats()
        server_stats = self.stats.as_dict()
        server_stats["inflight"] = self._inflight
        server_stats["connections"] = self._connections
        server_stats["batch_limit"] = self.batch_limit()
        server_stats["accepting"] = self._accepting
        return {
            "registry": self.registry.core_stats(),
            "server": server_stats,
            "sessions": sessions,
            "counters": self.metrics_snapshot(),
        }

    def metrics_snapshot(self) -> dict:
        """Every counter the service owns, flat and namespaced.

        ``server.*`` from :class:`ServerStats` plus the live gauges,
        ``registry.*`` from the registry's own counters (no session
        aggregates mixed in), ``session.*`` aggregated monotonically
        across live *and* evicted sessions, and ``pool.*`` / gauges from
        the pushed collector state.
        """
        snapshot = dict(self.collector.counters())
        server_stats = self.stats.as_dict()
        server_stats["inflight"] = self._inflight
        server_stats["connections"] = self._connections
        server_stats["batch_limit"] = self.batch_limit()
        server_stats["accepting"] = int(self._accepting)
        for key, value in server_stats.items():
            snapshot[f"server.{key}"] = value
        for key, value in self.registry.core_stats().items():
            snapshot[f"registry.{key}"] = value
        for key, value in self.registry.session_counters().items():
            snapshot[f"session.{key}"] = value
        return snapshot

    def render_metrics(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        return self.collector.render(self.metrics_snapshot())

    # -- persistence --------------------------------------------------------

    def _load_state(self) -> None:
        """Restore sessions from the snapshot, once per server lifetime."""
        if self.state_file is None or self._state_loaded:
            return
        self._state_loaded = True
        self.stats.sessions_restored += persist.load_snapshot(
            self.registry, self.state_file
        )

    def _save_state(self) -> None:
        """Write the snapshot; a failed save never takes the service down."""
        if self.state_file is None:
            return
        try:
            persist.save_snapshot(self.registry, self.state_file)
            self.stats.snapshots_saved += 1
        except Exception:  # noqa: BLE001 - serving outranks snapshotting
            pass

    async def _autosave_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.autosave_interval)
            await loop.run_in_executor(self.executor, self._save_state)

    # -- transport lifecycle hooks ------------------------------------------

    def _on_serving_start(self) -> None:
        """First transport up: restore state, start the autosave task."""
        self._load_state()
        if self.state_file and self.autosave_interval and self._autosave is None:
            self._autosave = asyncio.ensure_future(self._autosave_loop())

    def _on_serving_stop(self) -> None:
        """Last transport out cancels autosave and snapshots (unless the
        deterministic drain already did)."""
        if self._autosave is not None:
            self._autosave.cancel()
            self._autosave = None
        if not self._draining:
            # Stopped without a shutdown op (embedder called ``close``
            # or stdin hit EOF): still snapshot before the loop dies.
            self._save_state()

    async def _flush_on_drain(self) -> None:
        await asyncio.get_running_loop().run_in_executor(
            self.executor, self._save_state
        )

    def _release_resources(self) -> None:
        self.executor.shutdown(wait=False)
