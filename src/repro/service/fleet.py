"""The checking fleet: a shard router over ``repro serve`` backends.

``repro fleet`` fronts N independent single-process
:class:`~repro.service.server.CheckingServer` backends with one router
speaking the *same* line protocol (and, via
:class:`~repro.service.http.HTTPFrontend`, the same HTTP/JSON surface).
Clients cannot tell the difference: the differential suite
(``tests/test_fleet_differential.py``) pins every routed response
byte-identical to a single backend's answer.

Three responsibilities live here (DESIGN.md section 11):

* **sharding** — sessions are consistent-hashed by their canonical
  :func:`~repro.encoding.combined.spec_fingerprint`
  (:class:`~repro.service.router.HashRing`), so each backend's registry
  only holds its own ring segment's working set and the fleet's total
  session capacity scales with N;
* **wave fan-out** — a multi-``phi`` ``implies_all`` batch is split into
  chunks dispatched across the live backends, each of which answers its
  chunk in its own process.  If any chunk answers an error, the router falls back
  to forwarding the whole batch to the ring owner: one authoritative,
  byte-identical answer;
* **fault tolerance** — a dead backend (connect refused, connection
  dropped repeatedly) is removed from the ring; its in-flight requests —
  idempotent by construction: every operation is a pure function of the
  session state plus the request — are replayed and the segment reroutes
  to the surviving backends.  The fleet degrades to fewer shards with
  identical verdicts; it never drops or double-answers a request.

The router inherits admission control and transports from
:class:`~repro.service.server.RequestServer`: the same shed messages,
``retry_after`` hints and deterministic drain as a single backend, so
overload behaviour is byte-identical too.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

from repro.errors import OverloadedError, ReproError
from repro.service import protocol
from repro.service.metrics import StatsCollector
from repro.service.registry import fingerprint_for
from repro.service.router import DEFAULT_REPLICAS, HashRing
from repro.service.server import RequestServer

__all__ = [
    "BackendLink",
    "BackendLostError",
    "FleetRouter",
    "RouterStats",
    "spawn_backends",
]


class BackendLostError(ReproError):
    """A backend is unreachable (connect refused or repeated drops)."""


class _LinkDown(Exception):
    """Internal: the link's socket died with responses outstanding."""


@dataclass
class RouterStats:
    """Router-side counters (the ``router.*`` metrics namespace)."""

    requests: int = 0
    responses: int = 0
    errors: int = 0
    requests_shed: int = 0
    connections_shed: int = 0
    routed: int = 0
    replays: int = 0
    reconnects: int = 0
    backends_lost: int = 0
    reroutes: int = 0
    waves: int = 0
    wave_chunks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {field.name: getattr(self, field.name) for field in fields(self)}


class BackendLink:
    """One multiplexed line-protocol connection to a backend.

    The router rewrites request ids to private ``link-N`` correlation
    keys (the client-facing id is reattached to the response by the
    router), so many concurrent routed requests share one socket and
    out-of-order backend responses resolve the right futures.

    A dead socket fails every outstanding future; :meth:`call` replays
    the request — every fleet operation is idempotent — on a fresh
    connection up to :data:`ATTEMPTS` times before declaring the
    backend lost.
    """

    ATTEMPTS = 3

    def __init__(self, spec: str, stats: RouterStats | None = None):
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            raise ReproError(f"backend spec {spec!r} is not HOST:PORT")
        self.spec = spec
        self.host = host
        self.port = int(port)
        self.stats = stats or RouterStats()
        self._counter = itertools.count(1)
        self._connect_lock: asyncio.Lock | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._connected_once = False

    async def call(self, request: dict) -> dict:
        """Send one request (id rewritten); return the decoded response.

        Raises :class:`BackendLostError` when the backend cannot be
        reached or drops the connection :data:`ATTEMPTS` times.
        """
        payload = dict(request)
        for attempt in range(self.ATTEMPTS):
            if attempt:
                self.stats.replays += 1
            payload["id"] = f"link-{next(self._counter)}"
            try:
                return await self._call_once(payload)
            except _LinkDown:
                continue
        raise BackendLostError(
            f"backend {self.spec} dropped the connection "
            f"{self.ATTEMPTS} times"
        )

    def detach(self) -> None:
        """Close the socket (loop context); pending futures fail over."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- internals -----------------------------------------------------------

    async def _ensure_connected(self) -> None:
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
        async with self._connect_lock:
            if self._writer is not None:
                return
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError as exc:
                raise BackendLostError(
                    f"backend {self.spec} is unreachable: {exc}"
                ) from None
            self._writer = writer
            self._pending = {}
            if self._connected_once:
                self.stats.reconnects += 1
            self._connected_once = True
            asyncio.ensure_future(self._read_loop(reader, writer, self._pending))

    async def _read_loop(self, reader, writer, pending: dict) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except ValueError:
                    continue  # a torn line during backend death
                future = pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            if self._writer is writer:
                self._writer = None
            for future in pending.values():
                if not future.done():
                    future.set_exception(_LinkDown())
            pending.clear()

    async def _call_once(self, payload: dict) -> dict:
        await self._ensure_connected()
        writer = self._writer
        pending = self._pending
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        pending[payload["id"]] = future
        try:
            writer.write((protocol.encode(payload) + "\n").encode("utf-8"))
            await writer.drain()
        except (ConnectionError, OSError):
            pending.pop(payload["id"], None)
            if self._writer is writer:
                self._writer = None
            raise _LinkDown() from None
        return await future


class FleetRouter(RequestServer):
    """A line-protocol front end that shards requests across backends.

    ``backends`` are ``HOST:PORT`` specs of running ``repro serve``
    processes.  ``wave_chunk`` is the number of ``phis`` per fan-out
    chunk; ``shutdown_backends`` makes the router's own ``shutdown``
    propagate to the fleet (the ``--spawn`` mode owns its backends).
    """

    def __init__(
        self,
        backends: list[str] | tuple[str, ...],
        *,
        max_inflight: int = 256,
        max_connections: int = 64,
        wave_chunk: int = 4,
        replicas: int = DEFAULT_REPLICAS,
        shutdown_backends: bool = False,
        collector: StatsCollector | None = None,
    ):
        super().__init__(max_connections=max_connections)
        if not backends:
            raise ReproError("a fleet needs at least one backend")
        self.stats = RouterStats()
        self.collector = collector or StatsCollector()
        self.max_inflight = max_inflight
        self.wave_chunk = max(1, wave_chunk)
        self.shutdown_backends = shutdown_backends
        self.ring = HashRing(backends, replicas=replicas)
        self._links = {
            spec: BackendLink(spec, self.stats) for spec in self.ring.backends()
        }

    # -- admission (same messages as CheckingServer: shed bytes match) -------

    def _admit(self) -> None:
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

    # -- request handling ----------------------------------------------------

    async def handle_request(self, line: str) -> dict:
        """Decode one request line; route it and reattach the client id."""
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
                self._admit()
                self._inflight += 1
                try:
                    response = await self._route(request)
                finally:
                    self._inflight -= 1
                if not response.get("ok", False):
                    self.stats.errors += 1
        except OverloadedError as exc:
            self.stats.requests_shed += 1
            response = protocol.error_response(request_id, exc)
        except Exception as exc:  # noqa: BLE001 - every request gets an answer
            self.stats.errors += 1
            response = protocol.error_response(request_id, exc)
        self.stats.responses += 1
        if op in protocol.SESSION_OPS:
            self.collector.observe_op(op, time.monotonic() - started)
        return response

    def _routing_key(self, request: dict) -> str:
        """The ring key: the spec fingerprint when computable.

        An unparseable inline spec routes by its raw text — *some*
        backend must answer, and any backend produces the canonical
        error bytes for it.
        """
        fingerprint = request.get("session")
        if isinstance(fingerprint, str) and fingerprint:
            return fingerprint
        dtd = request.get("dtd")
        if not isinstance(dtd, str):
            return ""
        try:
            return fingerprint_for(
                dtd,
                request.get("constraints", ""),
                root=request.get("root"),
            )
        except Exception:  # noqa: BLE001 - the backend owns the error answer
            return dtd

    async def _route(self, request: dict) -> dict:
        op = request["op"]
        key = self._routing_key(request)
        phis = request.get("phis")
        if (
            op == "implies_all"
            and isinstance(phis, list)
            and len(phis) > self.wave_chunk
            and len(self.ring) > 1
        ):
            return await self._fan_out(request, key)
        return await self._forward(request, key)

    async def _forward(self, request: dict, key: str) -> dict:
        """Route one request to the ring owner; reroute on backend loss."""
        payload = {k: v for k, v in request.items() if k != "id"}
        while True:
            backend = self.ring.owner(key)
            if backend is None:
                raise ReproError("no live backends left in the fleet")
            try:
                response = await self._links[backend].call(payload)
            except BackendLostError:
                self._lose_backend(backend)
                self.stats.reroutes += 1
                continue
            self.stats.routed += 1
            # The backend echoed the link's private id in first position;
            # reassigning the existing key keeps its position, so the
            # re-encoded line is byte-identical to a direct answer.
            response["id"] = request.get("id")
            return response

    # -- wave fan-out ----------------------------------------------------

    async def _fan_out(self, request: dict, key: str) -> dict:
        """Answer one multi-phi ``implies_all`` as waves across the fleet.

        Chunks of ``wave_chunk`` phis are dispatched concurrently, one
        wave of ``len(live)`` chunks at a time, so a backend lost
        mid-batch only shrinks the next wave.  Any chunk-level
        error triggers the authoritative fallback: the whole original
        batch is forwarded to the ring owner, whose answer is
        byte-identical to a single-backend serve.
        """
        phis = request["phis"]
        base = {k: v for k, v in request.items() if k not in ("id", "phis")}
        chunks = [
            phis[i : i + self.wave_chunk]
            for i in range(0, len(phis), self.wave_chunk)
        ]
        merged: list = []
        fingerprint = None
        cursor = 0
        while cursor < len(chunks):
            live = self.ring.backends()
            if len(live) < 2:
                # Fleet degraded to one (or zero) shards mid-batch:
                # the remaining chunks gain nothing from fan-out.
                return await self._forward(request, key)
            wave = chunks[cursor : cursor + len(live)]
            cursor += len(wave)
            calls = []
            for index, chunk in enumerate(wave):
                payload = dict(base)
                payload["phis"] = chunk
                calls.append(self._chunk_call(payload, live[index % len(live)], key))
            responses = await asyncio.gather(*calls)
            self.stats.waves += 1
            self.stats.wave_chunks += len(wave)
            for response in responses:
                if not response.get("ok", False):
                    # One authoritative answer for the whole batch keeps
                    # error payloads byte-identical (a deadline split
                    # across chunks is not the deadline the client set).
                    return await self._forward(request, key)
                if fingerprint is None:
                    fingerprint = response.get("service", {}).get("session")
                merged.extend(response["result"]["results"])
        return {
            "id": request.get("id"),
            "ok": True,
            "result": {"results": merged},
            "service": {"session": fingerprint},
        }

    async def _chunk_call(self, payload: dict, backend: str, key: str) -> dict:
        """One chunk against its assigned backend, rerouting on loss."""
        while True:
            if backend not in self.ring:
                backend = self.ring.owner(key)
                if backend is None:
                    raise ReproError("no live backends left in the fleet")
            try:
                response = await self._links[backend].call(payload)
            except BackendLostError:
                self._lose_backend(backend)
                self.stats.reroutes += 1
                continue
            self.stats.routed += 1
            return response

    def _lose_backend(self, backend: str) -> None:
        if backend in self.ring:
            self.ring.remove(backend)
            self.stats.backends_lost += 1

    # -- introspection -------------------------------------------------------

    def stats_payload(self) -> dict:
        """The router's ``stats`` op: its own counters, never proxied."""
        router = self.stats.as_dict()
        router["backends"] = len(self.ring)
        router["inflight"] = self._inflight
        router["connections"] = self._connections
        router["accepting"] = self._accepting
        return {
            "router": router,
            "backends": self.ring.backends(),
            "counters": self.metrics_snapshot(),
        }

    def metrics_snapshot(self) -> dict:
        """The namespaced flat counters a ``/metrics`` scrape renders."""
        snapshot = dict(self.collector.counters())
        for key, value in self.stats.as_dict().items():
            snapshot[f"router.{key}"] = value
        snapshot["router.backends"] = len(self.ring)
        snapshot["router.inflight"] = self._inflight
        snapshot["router.accepting"] = int(self._accepting)
        return snapshot

    def render_metrics(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        return self.collector.render(self.metrics_snapshot())

    # -- lifecycle hooks -----------------------------------------------------

    async def _flush_on_drain(self) -> None:
        if not self.shutdown_backends:
            return
        for backend in self.ring.backends():
            try:
                await self._links[backend].call({"op": "shutdown"})
            except ReproError:
                pass  # already gone; the drain owes it nothing

    def _on_serving_stop(self) -> None:
        for link in self._links.values():
            link.detach()


# -- spawning a local fleet (`repro fleet --spawn N`, tests, benchmarks) -----

_ANNOUNCE = re.compile(r"listening on ([0-9.]+):([0-9]+)")


def _scrape_address(proc: subprocess.Popen, timeout: float) -> str:
    """Read a backend's announced line address; kill it on timeout."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        while True:
            line = proc.stdout.readline()
            if not line:
                raise ReproError(
                    "backend exited before announcing its port "
                    f"(exit code {proc.poll()})"
                )
            match = _ANNOUNCE.search(line)
            if match:
                return f"{match.group(1)}:{match.group(2)}"
    finally:
        watchdog.cancel()


def spawn_backends(
    count: int,
    *,
    host: str = "127.0.0.1",
    env: dict[str, str] | None = None,
    startup_timeout: float = 30.0,
) -> tuple[list[subprocess.Popen], list[str]]:
    """Start ``count`` ``repro serve`` subprocesses on ephemeral ports.

    Returns ``(processes, specs)`` where each spec is the announced
    ``HOST:PORT``.  ``env`` entries override the inherited environment
    (the chaos tests arm ``REPRO_FAULTS`` on one backend this way).
    The caller owns the processes; on a scrape failure every spawned
    process is killed before the error propagates.
    """
    if count < 1:
        raise ReproError("a fleet needs at least one backend")
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    base_env = dict(os.environ)
    existing = base_env.get("PYTHONPATH")
    base_env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    if env:
        base_env.update(env)
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        host,
        "--port",
        "0",
    ]
    processes: list[subprocess.Popen] = []
    specs: list[str] = []
    try:
        for _ in range(count):
            processes.append(
                subprocess.Popen(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    env=base_env,
                    text=True,
                )
            )
        for proc in processes:
            specs.append(_scrape_address(proc, startup_timeout))
    except Exception:
        for proc in processes:
            proc.kill()
        raise
    return processes, specs
