"""Fleet-vs-single differential: routing must not change a single byte.

A :class:`~repro.service.fleet.FleetRouter` over N backends speaks the
same line protocol (and, via :class:`~repro.service.http.HTTPFrontend`,
the same HTTP surface) as one ``repro serve`` process.  This suite pins
the strongest form of that claim: for every operation — successes,
structured errors, shed answers, expired deadlines — the *raw response
bytes* through a fleet at N in {1, 2, 3} equal a single backend's, on
both transports.  Expected bytes come from a fresh reference
:class:`CheckingServer` answering the same requests, so a drift on
either side fails the comparison.
"""

import asyncio
import json
import math

import pytest

from repro.dtd.serializer import dtd_to_string
from repro.service.fleet import FleetRouter
from repro.service.http import HTTPFrontend
from repro.service.registry import SessionRegistry, fingerprint_for
from repro.service.server import CheckingServer
from repro.workloads.examples import figure1_tree, teachers_dtd_d1
from repro.workloads.generators import wide_flat_dtd
from repro.xmltree.serialize import tree_to_string

SIGMA1 = (
    "teacher.name -> teacher\n"
    "subject.taught_by -> subject\n"
    "subject.taught_by => teacher.name"
)
KEYS = "teacher.name -> teacher\nsubject.taught_by -> subject"
CHAIN = "t0.x <= t1.x\nt1.x <= t2.x"
CHAIN_PHIS = [
    "t0.x <= t2.x",
    "t2.x <= t0.x",
    "t0.x <= t1.x",
    "t1.x <= t0.x",
    "t1.x <= t2.x",
    "t2.x <= t1.x",
]


def _specs() -> dict:
    return {
        "inconsistent": (dtd_to_string(teachers_dtd_d1()), SIGMA1),
        "consistent": (dtd_to_string(teachers_dtd_d1()), KEYS),
        "chain": (dtd_to_string(wide_flat_dtd(4)), CHAIN),
    }


def _request_suite() -> list:
    """Every op, every spec, plus the interesting error shapes."""
    suite = []
    doc = tree_to_string(figure1_tree())
    for name, (dtd_text, sigma_text) in _specs().items():
        spec = {"dtd": dtd_text, "constraints": sigma_text}
        suite.append({"op": "open", **spec})
        suite.append({"op": "check", **spec})
        suite.append({"op": "diagnose", **spec})
        if name == "chain":
            suite.append({"op": "implies_all", **spec, "phis": CHAIN_PHIS})
            suite.append({"op": "implies", **spec, "phi": CHAIN_PHIS[0]})
        else:
            phi = "subject.taught_by <= teacher.name"
            suite.append({"op": "implies", **spec, "phi": phi})
            suite.append({"op": "validate", **spec, "document": doc})
    dtd_text, sigma_text = _specs()["consistent"]
    spec = {"dtd": dtd_text, "constraints": sigma_text}
    # Structured errors must route byte-identically too.
    suite.append({"op": "check", "dtd": "<!ELEMENT broken"})
    suite.append({"op": "implies", **spec, "phi": "not a constraint"})
    suite.append({"op": "implies", **spec})  # missing phi
    suite.append({"op": "check", "session": "no-such-fingerprint"})
    suite.append({"op": "check", **spec, "deadline": 0.0})
    suite.append({"op": "implies_all", **spec, "phis": "not-a-list"})
    # A session op by fingerprint after the inline open above warmed it.
    suite.append(
        {
            "op": "implies",
            "session": fingerprint_for(dtd_text, sigma_text),
            "phi": "subject.taught_by <= teacher.name",
        }
    )
    return suite


def _line_exchange(address, requests) -> list:
    """Raw response lines (bytes), one request at a time, one connection."""

    async def run():
        reader, writer = await asyncio.open_connection(*address)
        lines = []
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode("utf-8"))
            await writer.drain()
            lines.append(await reader.readline())
        writer.close()
        return lines

    return asyncio.run(run())


class _Fleet:
    """N in-process backends plus a router, all on background threads."""

    def __init__(self, n: int, start: bool = True, **router_kwargs):
        self.backends = []
        specs = []
        for _ in range(n):
            backend = CheckingServer(SessionRegistry())
            host, port = backend.start_background()
            self.backends.append(backend)
            specs.append(f"{host}:{port}")
        self.router = FleetRouter(specs, **router_kwargs)
        # The HTTP tests attach an HTTPFrontend instead, which runs the
        # router on its own loop (start=False leaves it unstarted).
        self.address = self.router.start_background() if start else None

    def close(self) -> None:
        self.router.close()
        for backend in self.backends:
            backend.close()

    def __enter__(self) -> "_Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fleet_line_protocol_is_byte_identical_to_single_serve(n):
    requests = [
        {"id": index, **request}
        for index, request in enumerate(_request_suite())
    ]
    reference = CheckingServer(SessionRegistry())
    reference.start_background()
    try:
        with _Fleet(n, wave_chunk=2) as fleet:
            fleet_bytes = _line_exchange(fleet.address, requests)
            single_bytes = _line_exchange(reference.address, requests)
            for request, ours, theirs in zip(requests, fleet_bytes, single_bytes):
                assert ours == theirs, (n, request["op"])
            if n > 1:
                # The 6-phi chain batch fanned out across the backends.
                assert fleet.router.stats.waves >= 1
                assert fleet.router.stats.wave_chunks >= 2
    finally:
        reference.close()


def test_multi_wave_fan_out_stays_byte_identical():
    """wave_chunk=1 over 3 backends forces multiple waves for one batch;
    the merged answer must still be the single server's exact bytes."""
    dtd_text, sigma_text = _specs()["chain"]
    request = {
        "id": "batch",
        "op": "implies_all",
        "dtd": dtd_text,
        "constraints": sigma_text,
        "phis": CHAIN_PHIS,
    }
    reference = CheckingServer(SessionRegistry())
    reference.start_background()
    try:
        with _Fleet(3, wave_chunk=1) as fleet:
            [ours] = _line_exchange(fleet.address, [request])
            [theirs] = _line_exchange(reference.address, [request])
            assert ours == theirs
            assert fleet.router.stats.waves >= 2
    finally:
        reference.close()


def test_fleet_shard_affinity_reuses_backend_sessions():
    """The same spec always lands on the same backend: re-asking is a
    response-cache hit *somewhere* in the fleet, and only one backend
    ever admits the session."""
    dtd_text, sigma_text = _specs()["consistent"]
    request = {"op": "check", "dtd": dtd_text, "constraints": sigma_text}
    with _Fleet(3) as fleet:
        first = _line_exchange(fleet.address, [{"id": 1, **request}])
        second = _line_exchange(fleet.address, [{"id": 1, **request}])
        assert first == second
        opened = [
            backend.registry.core_stats()["sessions_opened"]
            for backend in fleet.backends
        ]
        hits = [
            backend.registry.core_stats()["session_hits"]
            for backend in fleet.backends
        ]
        assert sum(opened) == 1, opened
        assert sum(hits) >= 1, hits


# ---------------------------------------------------------------------------
# Admission edges: shed and deadline answers match a single backend's bytes
# ---------------------------------------------------------------------------


def test_router_shed_bytes_match_single_server_shed():
    """max_inflight=0 on the router vs max_inflight=0 on a single
    server: the overloaded envelope (message, retry_after) is
    byte-identical — the router reuses the server's admission wording
    and hint formula."""
    dtd_text, sigma_text = _specs()["consistent"]
    request = {
        "id": "shed",
        "op": "check",
        "dtd": dtd_text,
        "constraints": sigma_text,
    }
    reference = CheckingServer(SessionRegistry(), max_inflight=0)
    reference.start_background()
    try:
        with _Fleet(2, max_inflight=0) as fleet:
            [ours] = _line_exchange(fleet.address, [request])
            [theirs] = _line_exchange(reference.address, [request])
            assert ours == theirs
            payload = json.loads(ours)
            assert payload["error"]["type"] == "overloaded"
            assert fleet.router.stats.requests_shed == 1
    finally:
        reference.close()


def _http_exchange(address, request, path=None):
    import http.client

    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST",
            path or f"/v1/{request['op']}",
            body=json.dumps(request),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def test_fleet_http_bodies_match_single_serve_http():
    """The HTTP front end composes with the router unchanged: for every
    suite request the status and body equal a single server's HTTP
    answer (which the service differential suite already pins to the
    line protocol)."""
    requests = [
        {"id": index, **request}
        for index, request in enumerate(_request_suite())
    ]
    reference = CheckingServer(SessionRegistry())
    reference_front = HTTPFrontend(reference)
    reference_address = reference_front.start_background()
    try:
        with _Fleet(2, wave_chunk=2, start=False) as fleet:
            front = HTTPFrontend(fleet.router)
            address = front.start_background()
            try:
                for request in requests:
                    ours = _http_exchange(address, request)
                    theirs = _http_exchange(reference_address, request)
                    assert ours == theirs or (
                        ours[0] == theirs[0] and ours[2] == theirs[2]
                    ), request["op"]
            finally:
                front.close()
    finally:
        reference_front.close()


def test_fleet_http_shed_answers_429_with_retry_after():
    dtd_text, sigma_text = _specs()["consistent"]
    request = {
        "id": "shed",
        "op": "check",
        "dtd": dtd_text,
        "constraints": sigma_text,
    }
    with _Fleet(2, max_inflight=0, start=False) as fleet:
        front = HTTPFrontend(fleet.router)
        address = front.start_background()
        try:
            status, headers, body = _http_exchange(address, request)
            assert status == 429
            payload = json.loads(body)
            assert payload["error"]["type"] == "overloaded"
            assert int(headers["Retry-After"]) == max(
                1, math.ceil(payload["error"]["retry_after"])
            )
        finally:
            front.close()


def test_fleet_http_budget_exceeded_answers_504():
    dtd_text, sigma_text = _specs()["consistent"]
    request = {
        "id": "late",
        "op": "check",
        "dtd": dtd_text,
        "constraints": sigma_text,
        "deadline": 0.0,
    }
    reference = CheckingServer(SessionRegistry())
    reference_front = HTTPFrontend(reference)
    reference_address = reference_front.start_background()
    try:
        with _Fleet(2, start=False) as fleet:
            front = HTTPFrontend(fleet.router)
            address = front.start_background()
            try:
                status, _, body = _http_exchange(address, request)
                ref_status, _, ref_body = _http_exchange(
                    reference_address, request
                )
                assert (status, body) == (ref_status, ref_body)
                assert status == 504
                assert json.loads(body)["error"]["type"] == "budget_exceeded"
            finally:
                front.close()
    finally:
        reference_front.close()


# ---------------------------------------------------------------------------
# Router-local surface
# ---------------------------------------------------------------------------


def test_stats_op_answers_router_counters_locally():
    with _Fleet(2) as fleet:
        dtd_text, sigma_text = _specs()["consistent"]
        _line_exchange(
            fleet.address,
            [{"id": 1, "op": "check", "dtd": dtd_text, "constraints": sigma_text}],
        )
        [raw] = _line_exchange(fleet.address, [{"id": 2, "op": "stats"}])
        payload = json.loads(raw)
        assert payload["ok"]
        router = payload["result"]["router"]
        assert router["backends"] == 2
        assert router["routed"] >= 1
        assert payload["result"]["counters"]["router.backends"] == 2
        metrics = fleet.router.render_metrics()
        assert "repro_router_routed_total" in metrics
        assert "repro_router_backends 2" in metrics
