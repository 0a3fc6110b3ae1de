"""The HTTP/JSON front end: ``repro serve --http PORT`` (stdlib-only).

``POST /v1/{check,implies,implies_all,validate,diagnose,open,stats}``
maps onto the *same* dispatch as the line protocol —
:meth:`~repro.service.server.CheckingServer.handle_request` — so every
service property carries over by construction rather than by parallel
implementation: the coalesced ``implies_batch`` batching (concurrent HTTP
``implies`` land in the same per-session queue the line protocol
drains), admission control (shed requests answer ``429`` with a
``Retry-After`` header from the same ``retry_after`` hint), deadlines
(``504`` for ``budget_exceeded``), structured errors (``400``), and
**byte-identical verdict payloads**: the response body *is* the line
protocol's encoded response line (``tests/test_service_differential.py``
compares the raw bytes).

``GET /metrics`` renders the collector's Prometheus text exposition
(DESIGN.md section 10); :class:`HTTPFrontend` with ``metrics_only=True``
backs ``repro serve --metrics-port``, a scrape-only listener that can
bind separately from the serving surface.

The parser is a deliberate HTTP/1.1 subset for the same trust model as
the rest of the service (a localhost tool, not an internet edge):
``Content-Length`` bodies only (no chunked encoding), keep-alive with
sequential request handling per connection, no TLS.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading

from repro.service import protocol
from repro.faults import fault_active
from repro.service.server import CheckingServer, RequestServer

#: Largest accepted request body; a localhost guard, not a DoS defence.
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


def status_for(response: dict) -> int:
    """The HTTP status carrying a line-protocol response envelope."""
    if response.get("ok"):
        return 200
    error = response.get("error") or {}
    return {"overloaded": 429, "budget_exceeded": 504}.get(error.get("type"), 400)


class _BadRequest(Exception):
    """An HTTP-layer refusal (never reaches the session API)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class HTTPFrontend:
    """One HTTP listener over a :class:`RequestServer`.

    Several front ends may serve the same server on one event loop (the
    CLI runs ``--port``, ``--http`` and ``--metrics-port`` together);
    they share the server's stop event, state restore and autosave task
    through ``_serving_setup``/``_serving_teardown``.  The server may be
    a single-process :class:`CheckingServer` or the fleet's shard router
    — the front end only uses the shared transport surface.
    """

    def __init__(self, server: RequestServer, metrics_only: bool = False):
        self.server = server
        #: ``True``: expose only ``GET /metrics`` (the ``--metrics-port``
        #: listener); ``/v1`` requests answer 404 and the connection cap
        #: does not apply — a scrape must work while serving is saturated.
        self.metrics_only = metrics_only
        self.address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._thread_ready = threading.Event()

    # -- serving ------------------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Serve HTTP until the owning server stops (``shutdown`` op,
        :meth:`close`, or a line-protocol front end stopping the loop)."""
        stop = self.server._serving_setup()
        listener = await asyncio.start_server(self._handle_connection, host, port)
        sockname = listener.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        try:
            async with listener:
                await stop.wait()
        finally:
            self.server._serving_teardown()

    async def _handle_connection(self, reader, writer) -> None:
        server = self.server
        if not self.metrics_only and server._connections >= server.max_connections:
            server.stats.connections_shed += 1
            shed = protocol.error_response(
                None,
                _connection_shed_error(server),
            )
            await self._write_response(
                writer, 429, shed, keep_alive=False, retry_after=server.retry_hint()
            )
            writer.close()
            return
        if not self.metrics_only:
            server._connections += 1
        try:
            while True:
                try:
                    method, target, headers = await _read_head(reader)
                    if method is None:
                        break
                    body = await _read_body(reader, headers)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                except _BadRequest as exc:
                    # A framing error leaves the stream position unknown:
                    # answer and close rather than misparse what follows.
                    await self._answer_refusal(writer, exc, keep_alive=False)
                    break
                keep_alive = headers.get("connection", "").lower() != "close"
                served = await self._dispatch(
                    writer, method, target, body, keep_alive
                )
                if not served or not keep_alive:
                    break
        except asyncio.CancelledError:
            # Server shutdown cancels connection handlers mid-read; the
            # deterministic drain already flushed in-flight responses.
            pass
        finally:
            if not self.metrics_only:
                server._connections -= 1
            writer.close()

    async def _dispatch(
        self, writer, method: str, target: str, body: bytes, keep_alive: bool
    ) -> bool:
        """Route one request; ``False`` means the connection must close."""
        server = self.server
        path = target.split("?", 1)[0]
        if path == "/metrics":
            if method not in ("GET", "HEAD"):
                await self._answer_refusal(
                    writer,
                    _BadRequest(405, "use GET for /metrics"),
                    keep_alive=keep_alive,
                )
                return True
            text = server.render_metrics()
            await _write_raw(
                writer,
                200,
                text.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
                keep_alive=keep_alive,
                head_only=method == "HEAD",
            )
            return True
        if self.metrics_only or not path.startswith("/v1/"):
            await self._answer_refusal(
                writer, _BadRequest(404, f"no route for {path}"), keep_alive=keep_alive
            )
            return True
        op = path[len("/v1/") :]
        if op not in protocol.ALL_OPS:
            await self._answer_refusal(
                writer, _BadRequest(404, f"unknown op {op!r}"), keep_alive=keep_alive
            )
            return True
        if method != "POST":
            await self._answer_refusal(
                writer,
                _BadRequest(405, f"use POST for /v1/{op}"),
                keep_alive=keep_alive,
            )
            return True
        try:
            request = _request_from_body(op, body)
        except _BadRequest as exc:
            await self._answer_refusal(writer, exc, keep_alive=keep_alive)
            return True
        # The line-protocol dispatch point: byte-identity of the verdict
        # payload follows from sharing it, and registering the answer
        # task keeps the deterministic shutdown drain exhaustive across
        # transports.
        task = asyncio.ensure_future(
            self._answer(writer, json.dumps(request), keep_alive)
        )
        server._register_answer(task)
        return await task

    async def _answer(self, writer, line: str, keep_alive: bool) -> bool:
        response = await self.server.handle_request(line)
        if fault_active("conn.drop"):
            writer.close()
            return False
        retry_after = None
        if not response.get("ok"):
            retry_after = (response.get("error") or {}).get("retry_after")
        await self._write_response(
            writer,
            status_for(response),
            response,
            keep_alive=keep_alive,
            retry_after=retry_after,
        )
        return True

    async def _answer_refusal(
        self, writer, refusal: _BadRequest, keep_alive: bool
    ) -> None:
        """An HTTP-layer error, still in the structured error envelope."""
        body = {
            "id": None,
            "ok": False,
            "error": {"type": "protocol", "message": str(refusal)},
        }
        await self._write_response(
            writer, refusal.status, body, keep_alive=keep_alive
        )

    async def _write_response(
        self,
        writer,
        status: int,
        response: dict,
        keep_alive: bool,
        retry_after: float | None = None,
    ) -> None:
        payload = (protocol.encode(response) + "\n").encode("utf-8")
        extra = []
        if retry_after is not None:
            extra.append(f"Retry-After: {max(1, math.ceil(retry_after))}")
        await _write_raw(
            writer,
            status,
            payload,
            content_type="application/json",
            keep_alive=keep_alive,
            extra_headers=extra,
        )

    # -- background lifecycle (tests, benchmarks, the README quickstart) ----

    def start_background(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        line_port: int | None = None,
    ) -> tuple[str, int]:
        """Run this front end on a daemon thread; returns its address.

        With ``line_port`` set (0 = ephemeral), the owning server's line
        protocol serves on the same loop — the differential tests drive
        both transports against one live server this way, and
        ``server.address`` then carries the line-protocol address.

        >>> from repro.service.registry import SessionRegistry
        >>> front = HTTPFrontend(CheckingServer(SessionRegistry()))
        >>> host, port = front.start_background()
        >>> port > 0
        True
        >>> front.close()
        """
        if self._thread is not None:
            raise RuntimeError("HTTP front end is already running")
        server = self.server

        def run() -> None:
            async def main() -> None:
                server._thread_loop = asyncio.get_running_loop()
                transports = [asyncio.ensure_future(self.serve(host, port))]
                if line_port is not None:
                    transports.append(
                        asyncio.ensure_future(server.serve_tcp(host, line_port))
                    )

                def ready() -> bool:
                    if self.address is None:
                        return False
                    return line_port is None or server.address is not None

                while not ready() and not any(t.done() for t in transports):
                    await asyncio.sleep(0.001)
                self._thread_ready.set()
                await asyncio.gather(*transports)

            try:
                asyncio.run(main())
            finally:
                self._thread_ready.set()

        self._thread = threading.Thread(target=run, name="repro-http", daemon=True)
        self._thread.start()
        self._thread_ready.wait(timeout=10.0)
        if self.address is None:
            raise RuntimeError("HTTP front end failed to start")
        return self.address

    def close(self) -> None:
        """Stop a background front end through the owning server's
        deterministic drain, then release its resources."""
        server = self.server
        if self._thread is not None and server._thread_loop is not None:
            try:
                server._thread_loop.call_soon_threadsafe(server._begin_shutdown)
            except RuntimeError:
                pass  # loop already closed
            self._thread.join(timeout=10.0)
            self._thread = None
            server._thread_loop = None
        server._release_resources()


def _connection_shed_error(server: RequestServer):
    from repro.errors import OverloadedError

    return OverloadedError(
        f"connection limit reached ({server.max_connections})",
        retry_after=server.retry_hint(),
    )


def _request_from_body(op: str, body: bytes) -> dict:
    """The line-protocol request dict for one ``POST /v1/{op}`` body."""
    if not body:
        payload: object = {}
    else:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(400, f"request body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _BadRequest(400, "request body must be a JSON object")
    if payload.get("op", op) != op:
        raise _BadRequest(
            400, f"body op {payload['op']!r} contradicts the /v1/{op} path"
        )
    return {**payload, "op": op}


async def _read_head(reader):
    """Parse one request head; ``(None, None, None)`` on a clean EOF."""
    line = await reader.readline()
    if not line:
        return None, None, None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _BadRequest(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if not raw:
            return None, None, None
        if raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


async def _read_body(reader, headers: dict[str, str]) -> bytes:
    if "transfer-encoding" in headers:
        raise _BadRequest(400, "chunked bodies are not supported; send Content-Length")
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError:
        raise _BadRequest(400, f"bad Content-Length {raw_length!r}") from None
    if length < 0:
        raise _BadRequest(400, "Content-Length cannot be negative")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    if length == 0:
        return b""
    return await reader.readexactly(length)


async def _write_raw(
    writer,
    status: int,
    payload: bytes,
    content_type: str,
    keep_alive: bool,
    extra_headers: list[str] | None = None,
    head_only: bool = False,
) -> None:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(extra_headers or [])
    blob = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
    if not head_only:
        blob += payload
    try:
        writer.write(blob)
        await writer.drain()
    except (ConnectionError, OSError):
        pass  # client went away; the response has nowhere to go
