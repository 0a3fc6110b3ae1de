"""Service-vs-direct differential: the byte-identity contract.

Every request type replayed through the ``repro serve`` front end must
return byte-identical verdicts, witnesses and solver stats to the direct
:class:`~repro.checkers.config.CheckerConfig` path — including repeats
(served from the response cache) and requests issued after a session was
LRU-evicted and re-admitted.  Expected payloads are built here from
direct checker calls, independently of the session layer's own
serialization, so a drift on either side fails the comparison.
"""

import asyncio
import http.client
import json
import math

from repro.analysis.diagnostics import diagnose
from repro.checkers.consistency import check_consistency
from repro.checkers.implication import implies
from repro.constraints.parser import parse_constraint, parse_constraints
from repro.constraints.satisfaction import violations
from repro.dtd.serializer import dtd_to_string
from repro.service.http import HTTPFrontend
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.workloads.examples import figure1_tree, teachers_dtd_d1
from repro.workloads.generators import wide_flat_dtd
from repro.xmltree.parse import parse_xml
from repro.xmltree.serialize import tree_to_string
from repro.xmltree.validate import conforms

SIGMA1 = (
    "teacher.name -> teacher\n"
    "subject.taught_by -> subject\n"
    "subject.taught_by => teacher.name"
)
KEYS = "teacher.name -> teacher\nsubject.taught_by -> subject"
CHAIN = "t0.x <= t1.x\nt1.x <= t2.x"


def _specs():
    d1 = teachers_dtd_d1()
    wide = wide_flat_dtd(4)
    return {
        "inconsistent": (d1, SIGMA1),
        "consistent": (d1, KEYS),
        "chain": (wide, CHAIN),
    }


def _tree_text(tree):
    return tree_to_string(tree) if tree is not None else None


def _expected_check(dtd, sigma_text):
    result = check_consistency(dtd, parse_constraints(sigma_text))
    return {
        "consistent": result.consistent,
        "method": result.method,
        "message": result.message,
        "stats": dict(result.stats),
        "witness": _tree_text(result.witness),
    }


def _expected_implies(dtd, sigma_text, phi_text):
    result = implies(
        dtd, parse_constraints(sigma_text), parse_constraint(phi_text)
    )
    return {
        "implied": result.implied,
        "method": result.method,
        "message": result.message,
        "stats": dict(result.stats),
        "counterexample": _tree_text(result.counterexample),
    }


def _expected_diagnose(dtd, sigma_text):
    report = diagnose(dtd, parse_constraints(sigma_text))
    return {
        "consistent": report.consistent,
        "dtd_satisfiable": report.dtd_satisfiable,
        "mus": [str(phi) for phi in report.mus],
        "redundant": [str(phi) for phi in report.redundant],
        "summary": report.summary(),
        "stats": report.stats.as_dict(),
    }


def _expected_validate(dtd, sigma_text, document):
    tree = parse_xml(document)
    report = conforms(tree, dtd)
    violated = violations(tree, parse_constraints(sigma_text))
    return {
        "conforms": bool(report),
        "errors": list(report.errors),
        "satisfies": not violated,
        "violations": [str(phi) for phi in violated],
    }


def _request_suite():
    """(request, expected-payload) pairs covering every request type."""
    suite = []
    doc = tree_to_string(figure1_tree())
    for name, (dtd, sigma_text) in _specs().items():
        dtd_text = dtd_to_string(dtd)
        spec = {"dtd": dtd_text, "constraints": sigma_text}
        suite.append(
            ({"op": "check", **spec}, _expected_check(dtd, sigma_text))
        )
        suite.append(
            ({"op": "diagnose", **spec}, _expected_diagnose(dtd, sigma_text))
        )
        if name == "chain":
            for phi in ("t0.x <= t2.x", "t2.x <= t0.x"):
                suite.append(
                    (
                        {"op": "implies", **spec, "phi": phi},
                        _expected_implies(dtd, sigma_text, phi),
                    )
                )
        else:
            phi = "subject.taught_by <= teacher.name"
            suite.append(
                (
                    {"op": "implies", **spec, "phi": phi},
                    _expected_implies(dtd, sigma_text, phi),
                )
            )
            suite.append(
                (
                    {"op": "validate", **spec, "document": doc},
                    _expected_validate(dtd, sigma_text, doc),
                )
            )
    return suite


def _replay(server, requests):
    """Feed request dicts through the server's dispatch; return responses."""

    async def run():
        responses = []
        for index, request in enumerate(requests):
            line = json.dumps({"id": index, **request})
            responses.append(await server.handle_request(line))
        return responses

    return asyncio.run(run())


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


def test_every_request_type_is_byte_identical_to_direct():
    suite = _request_suite()
    server = CheckingServer(SessionRegistry())
    # Each request twice: novel (a real solve) and repeated (the response
    # cache) must both be byte-identical to the direct path.
    requests = [request for request, _ in suite] * 2
    responses = _replay(server, requests)
    expectations = [expected for _, expected in suite] * 2
    for request, response, expected in zip(
        requests, responses, expectations
    ):
        assert response["ok"], response
        assert _canon(response["result"]) == _canon(expected), request["op"]
    hits = sum(
        session["cache_hits"]
        for session in server.stats_payload()["sessions"].values()
    )
    assert hits == len(suite), "second round must come from the cache"
    server.executor.shutdown(wait=False)


def test_byte_identity_survives_eviction_and_readmission():
    suite = [
        (request, expected)
        for request, expected in _request_suite()
        if request["op"] in ("check", "implies")
    ]
    server = CheckingServer(SessionRegistry(max_sessions=1))
    # Interleave specs so every request evicts the previous session, then
    # replay the whole sequence once more: each re-admission is a cold
    # session whose answers must still match the direct path.
    requests = [request for request, _ in suite] * 2
    responses = _replay(server, requests)
    expectations = [expected for _, expected in suite] * 2
    for request, response, expected in zip(
        requests, responses, expectations
    ):
        assert response["ok"], response
        assert _canon(response["result"]) == _canon(expected), request["op"]
    stats = server.registry.core_stats()
    assert stats["sessions"] == 1
    # Three specs rotate through a one-slot registry twice: every
    # admission beyond the first evicted the previous resident.
    assert stats["sessions_opened"] >= 6
    assert stats["sessions_evicted"] == stats["sessions_opened"] - 1
    server.executor.shutdown(wait=False)


def test_errors_are_identical_alone_and_inside_batches():
    dtd_text = dtd_to_string(teachers_dtd_d1())
    spec = {"dtd": dtd_text, "constraints": KEYS}
    bad_phi = "nosuch.attr -> nosuch"
    server = CheckingServer(SessionRegistry())
    single, batch = _replay(
        server,
        [
            {"op": "implies", **spec, "phi": bad_phi},
            {"op": "implies_all", **spec, "phis": [bad_phi, KEYS.splitlines()[0]]},
        ],
    )
    assert not single["ok"]
    inline = batch["result"]["results"][0]
    assert single["error"] == inline["error"]
    assert batch["result"]["results"][1]["implied"] is True
    server.executor.shutdown(wait=False)


# ---------------------------------------------------------------------------
# HTTP front end: the body IS the line protocol's response line
# ---------------------------------------------------------------------------


def _http_exchange(address, request):
    """POST one request dict to ``/v1/{op}``: (status, headers, raw body)."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST",
            f"/v1/{request['op']}",
            body=json.dumps(request),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _line_exchange(address, requests):
    """Raw response lines (bytes) over the line protocol, one connection."""

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


def test_http_body_is_byte_identical_to_line_protocol_for_every_op():
    """Both transports against ONE live server: the HTTP response body
    for every request type equals the line protocol's raw response line
    for the same request (same id), byte for byte — including the stats
    block, because the second transport is served from the session's
    response cache."""
    server = CheckingServer(SessionRegistry())
    front = HTTPFrontend(server)
    http_address = front.start_background(line_port=0)
    try:
        suite = _request_suite()
        requests = [
            {"id": index, **request}
            for index, (request, _) in enumerate(suite)
        ]
        line_bytes = _line_exchange(server.address, requests)
        for request, raw, (_, expected) in zip(requests, line_bytes, suite):
            status, headers, body = _http_exchange(http_address, request)
            assert status == 200, body
            assert headers["Content-Type"] == "application/json"
            assert body == raw, request["op"]
            payload = json.loads(body)
            assert payload["ok"], payload
            assert _canon(payload["result"]) == _canon(expected), request["op"]
    finally:
        front.close()


def test_http_overload_shed_is_byte_identical_and_answers_429():
    """A shed request carries the same ``overloaded`` envelope on both
    transports; HTTP additionally maps it to 429 with a ``Retry-After``
    header derived from the in-band ``retry_after`` hint."""
    dtd, sigma_text = _specs()["consistent"]
    server = CheckingServer(SessionRegistry(), max_inflight=0)
    front = HTTPFrontend(server)
    http_address = front.start_background(line_port=0)
    try:
        request = {
            "id": "shed",
            "op": "check",
            "dtd": dtd_to_string(dtd),
            "constraints": sigma_text,
        }
        [raw] = _line_exchange(server.address, [request])
        status, headers, body = _http_exchange(http_address, request)
        assert status == 429
        assert body == raw
        payload = json.loads(body)
        assert payload["ok"] is False
        assert payload["error"]["type"] == "overloaded"
        assert int(headers["Retry-After"]) == max(
            1, math.ceil(payload["error"]["retry_after"])
        )
    finally:
        front.close()


def test_http_budget_exceeded_is_byte_identical_and_answers_504():
    dtd, sigma_text = _specs()["consistent"]
    server = CheckingServer(SessionRegistry())
    front = HTTPFrontend(server)
    http_address = front.start_background(line_port=0)
    try:
        request = {
            "id": "late",
            "op": "check",
            "dtd": dtd_to_string(dtd),
            "constraints": sigma_text,
            "deadline": 0.0,
        }
        [raw] = _line_exchange(server.address, [request])
        status, _, body = _http_exchange(http_address, request)
        assert status == 504
        assert body == raw
        payload = json.loads(body)
        assert payload["error"]["type"] == "budget_exceeded"
    finally:
        front.close()


# ---------------------------------------------------------------------------
# HTTP protocol edges: every refusal is structured, correct, non-fatal
# ---------------------------------------------------------------------------


def _raw_http(address, blob: bytes) -> bytes:
    """One raw exchange: send ``blob``, read until the server closes."""
    import socket

    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(blob)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


def _refusal(address, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_http_refusals_are_structured_and_leave_the_server_serving():
    """Every HTTP-layer refusal (unknown route/op, wrong method, bad
    JSON, contradictory body op) answers the structured ``protocol``
    error envelope with the right status — and the server keeps
    answering real requests afterwards."""
    server = CheckingServer(SessionRegistry())
    front = HTTPFrontend(server)
    address = front.start_background()
    try:
        cases = [
            ("POST", "/nope", None, 404),
            ("POST", "/v1/frobnicate", None, 404),
            ("GET", "/v1/check", None, 405),
            ("PUT", "/metrics", None, 405),
            ("POST", "/v1/check", b"not json", 400),
            ("POST", "/v1/check", b'["a list"]', 400),
            ("POST", "/v1/check", b'{"op": "implies"}', 400),
        ]
        for method, path, body, expected_status in cases:
            status, payload = _refusal(address, method, path, body=body)
            assert status == expected_status, (method, path, payload)
            assert payload["ok"] is False
            assert payload["error"]["type"] == "protocol"
            assert payload["error"]["message"]
        # None of those reached the session API, and serving still works.
        status, payload = _refusal(
            address, "POST", "/v1/stats", body=b"{}"
        )
        assert status == 200 and payload["ok"], payload
        assert payload["result"]["server"]["errors"] == 0
    finally:
        front.close()


def test_http_framing_errors_answer_then_close():
    """Framing errors (oversized/chunked/garbled Content-Length, bad
    request line) leave the stream position unknown: the server answers
    one structured refusal and closes the connection."""
    from repro.service.http import MAX_BODY_BYTES

    server = CheckingServer(SessionRegistry())
    front = HTTPFrontend(server)
    address = front.start_background()
    try:
        blobs = [
            (
                f"POST /v1/check HTTP/1.1\r\nContent-Length: "
                f"{MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
                b"413",
            ),
            (
                b"POST /v1/check HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                b"400",
            ),
            (
                b"POST /v1/check HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                b"400",
            ),
            (
                b"POST /v1/check HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                b"400",
            ),
            (b"garbage\r\n\r\n", b"400"),
        ]
        for blob, status in blobs:
            raw = _raw_http(address, blob)
            assert raw.startswith(b"HTTP/1.1 " + status), (blob, raw[:60])
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"Connection: close" in head
            payload = json.loads(body)
            assert payload["ok"] is False
            assert payload["error"]["type"] == "protocol"
    finally:
        front.close()


def test_http_head_metrics_and_metrics_only_listener():
    """``HEAD /metrics`` answers headers only; a ``metrics_only`` front
    end (the ``--metrics-port`` listener) scrapes but refuses ``/v1``."""
    server = CheckingServer(SessionRegistry())
    front = HTTPFrontend(server, metrics_only=True)
    address = front.start_background()
    try:
        conn = http.client.HTTPConnection(*address, timeout=10)
        try:
            conn.request("HEAD", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert int(response.getheader("Content-Length")) > 0
            assert response.read() == b""
            conn.request("GET", "/metrics")
            scrape = conn.getresponse()
            assert scrape.status == 200
            assert b"repro_server_requests_total" in scrape.read()
        finally:
            conn.close()
        status, payload = _refusal(address, "POST", "/v1/check", body=b"{}")
        assert status == 404
        assert payload["error"]["type"] == "protocol"
    finally:
        front.close()
