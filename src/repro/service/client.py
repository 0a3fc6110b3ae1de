"""A small synchronous client for the line-delimited JSON protocol.

For scripts, benchmarks and the README quickstart; anything async can
speak the protocol directly over ``asyncio.open_connection`` (the
concurrent-client stress test does).
"""

from __future__ import annotations

import json
import socket


class ServiceClient:
    """One TCP connection to a running :class:`CheckingServer`.

    ``call`` sends one request and waits for its response; ``call_many``
    sends a burst first and then collects every response, re-ordered by
    request id — the client-side shape that lets the server's batcher
    coalesce the burst into one ``implies_batch`` call.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")
        self._auto_id = 0

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, request: dict) -> object:
        if "id" not in request:
            self._auto_id += 1
            request = {"id": f"auto-{self._auto_id}", **request}
        self._file.write(json.dumps(request) + "\n")
        return request["id"]

    def _read(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, request: dict) -> dict:
        """Send one request; return its response."""
        self._send(request)
        self._file.flush()
        return self._read()

    def call_many(self, requests: list[dict]) -> list[dict]:
        """Send a burst of requests; return responses in request order."""
        ids = [self._send(request) for request in requests]
        self._file.flush()
        by_id = {}
        for _ in ids:
            response = self._read()
            by_id[response.get("id")] = response
        return [by_id[request_id] for request_id in ids]
