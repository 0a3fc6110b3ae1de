"""The server's dispatch: one executor job per request, keyed by spec text.

A served request queues under the spec identity it was sent with (its
``session`` fingerprint or its inline texts) and costs one executor job,
which resolves the session and runs the op.  These tests pin what that
must not change: error bodies for specs that do not resolve, answers for
textual variants of one spec, and the registry's eviction decisions,
which now read a running byte total instead of rescanning every session.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.constraints.parser import parse_constraints
from repro.dtd.parser import parse_dtd
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.service.session import SpecSession

DTD_TEXT = """<!ELEMENT db (item*, ref*)>
<!ELEMENT item EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST item id CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>"""
SIGMA_TEXT = "item.id -> item\nref.to <= item.id"

#: Textual variants of one canonical spec.
VARIANTS = [
    (DTD_TEXT, SIGMA_TEXT),
    ("\n\n" + DTD_TEXT.replace("\n", "\n  ") + "\n", SIGMA_TEXT),
    (DTD_TEXT, "\n  item.id -> item  \n\nref.to <= item.id\n"),
]


class _CountingExecutor(ThreadPoolExecutor):
    """A thread pool that counts the jobs submitted to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submissions = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submissions += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def counted_server():
    server = CheckingServer(SessionRegistry())
    server.executor.shutdown()
    server.executor = _CountingExecutor(max_workers=2)
    host, port = server.start_background()
    try:
        yield server, host, port
    finally:
        server.close()


def _request(op: str, **fields) -> dict:
    return {"op": op, "dtd": DTD_TEXT, "constraints": SIGMA_TEXT, **fields}


class TestOneExecutorJob:
    def test_each_served_op_makes_one_submission(self, counted_server):
        server, host, port = counted_server
        requests = [
            _request("open"),
            _request("check"),
            _request("check"),  # a response-cache hit
            _request("implies", phi="ref.to <= item.id"),
            _request("implies", phi="ref.to -> ref"),
            _request("implies", phi="ref.to -> ref"),  # a hit
            {"op": "check", "session": None},  # by fingerprint, set below
            {"op": "check", "dtd": "<!ELEMENT broken"},  # does not resolve
        ]
        with ServiceClient(host, port) as client:
            fingerprint = client.call({"id": 0, **requests[0]})["result"]["fingerprint"]
            requests[-2]["session"] = fingerprint
            for request_id, request in enumerate(requests[1:], start=1):
                before = server.executor.submissions
                response = client.call({"id": request_id, **request})
                assert response["ok"] is ("broken" not in str(request)), response
                assert server.executor.submissions - before == 1, request

    def test_a_coalesced_burst_costs_one_submission_per_batch(self, counted_server):
        server, host, port = counted_server
        phis = ["ref.to <= item.id", "ref.to -> ref", "item.id <= ref.to"] * 4
        with ServiceClient(host, port) as client:
            client.call({"id": "warm", **_request("open")})
            before = server.executor.submissions
            batches = server.stats.batches
            responses = client.call_many(
                [{"id": i, **_request("implies", phi=phi)} for i, phi in enumerate(phis)]
            )
        assert all(response["ok"] for response in responses)
        assert server.executor.submissions - before == server.stats.batches - batches
        assert server.stats.batch_width_sum >= len(phis)


#: Spec fields that are not text: each reaches the client as the
#: ``ProtocolError`` naming the field that resolving it directly raises.
NON_TEXT = [
    ("dtd", [DTD_TEXT]),
    ("dtd", 5),
    ("dtd", {"text": DTD_TEXT}),
    ("constraints", [SIGMA_TEXT]),
    ("constraints", 2.5),
    ("constraints", {"x": 1}),
    ("root", 1),
    ("root", True),
    ("root", ["db"]),
    ("session", ["fingerprint"]),
    ("session", 7),
    ("session", {"id": 1}),
]


def _direct_error(request: dict) -> dict:
    try:
        protocol.resolve_session(SessionRegistry(), request)
    except Exception as exc:  # noqa: BLE001 - the body under test
        return protocol.error_response(request["id"], exc)
    raise AssertionError(f"{request} resolved")


def test_non_text_spec_fields_answer_their_resolution_error():
    requests = [
        {"id": i, **_request("implies", phi="ref.to -> ref"), field: value}
        for i, (field, value) in enumerate(NON_TEXT)
    ]
    server = CheckingServer(SessionRegistry())
    host, port = server.start_background()
    try:
        with ServiceClient(host, port) as client:
            # One burst: ``root`` 1 and True compare equal, yet must not
            # share a queue (or a coalesced resolution).
            responses = client.call_many(requests)
    finally:
        server.close()
    for (field, _), request, response in zip(NON_TEXT, requests, responses):
        assert protocol.encode(response) == protocol.encode(_direct_error(request))
        assert response["error"]["type"] == "ProtocolError"
        assert f"request field {field!r} must be text" in response["error"]["message"]
    assert server.stats.errors == len(requests)


@pytest.mark.parametrize("document", [5, None, ["<db/>"]])
def test_a_non_text_document_answers_a_protocol_error(document):
    request = {"id": 1, **_request("validate"), "document": document}
    parsed = protocol.parse_request(json.dumps(request))
    session = protocol.resolve_session(SessionRegistry(), parsed)
    with pytest.raises(protocol.ProtocolError) as raised:
        protocol.perform(session, parsed)
    body = protocol.error_response(1, raised.value)["error"]
    assert body["type"] == "ProtocolError"
    assert body["message"] == (
        f"request field 'document' must be text, got {type(document).__name__}"
    )


def test_textual_variants_answer_alike_and_admit_one_session():
    requests = []
    for i in range(12):
        dtd, sigma = VARIANTS[i % len(VARIANTS)]
        if i % 2:
            requests.append(
                {"id": i, "op": "implies", "dtd": dtd, "constraints": sigma,
                 "phi": ["ref.to -> ref", "ref.to <= item.id"][i % 4 // 2]}
            )
        else:
            requests.append({"id": i, "op": "check", "dtd": dtd, "constraints": sigma})
    reference = SpecSession(parse_dtd(DTD_TEXT), parse_constraints(SIGMA_TEXT))
    server = CheckingServer(SessionRegistry())
    host, port = server.start_background()
    try:
        with ServiceClient(host, port) as client:
            responses = client.call_many(requests)
    finally:
        server.close()
    fingerprints = {response["service"]["session"] for response in responses}
    assert fingerprints == {reference.fingerprint}
    for request, response in zip(requests, responses):
        if request["op"] == "check":
            expected = reference.check()
        else:
            expected = reference.implies(request["phi"])
        assert json.dumps(response["result"], sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
    assert server.registry.core_stats()["sessions_opened"] == 1


class _RescanRegistry(SessionRegistry):
    """The byte budget read by summing every session on each admit."""

    def _shrink_locked(self) -> None:
        while len(self._sessions) > self.max_sessions:
            _, session = self._sessions.popitem(last=False)
            self._retire_locked(session)
            self._evicted += 1
        while len(self._sessions) > 1 and sum(
            session.approx_bytes() for session in self._sessions.values()
        ) > self.max_bytes:
            _, session = self._sessions.popitem(last=False)
            self._retire_locked(session)
            self._evicted += 1


def test_running_byte_total_evicts_as_the_rescan_does():
    lines = ["item.id -> item", "ref.to -> ref", "ref.to <= item.id", "item.id <= ref.to"]
    specs = [
        (DTD_TEXT, "\n".join(lines[j] for j in range(4) if mask >> j & 1))
        for mask in range(16)
    ]
    registries = [
        SessionRegistry(max_bytes=3000),
        _RescanRegistry(max_bytes=3000),
    ]
    for step in range(48):
        observed = []
        for registry in registries:
            session = registry.session_for(*specs[step * 5 % len(specs)])
            if step % 3 == 1:
                session.check()
            elif step % 3 == 2:
                session.implies("ref.to -> ref")
            observed.append((registry.fingerprints(), registry.core_stats()))
            assert registry.approx_bytes() == sum(
                s.approx_bytes() for s in registry._sessions.values()
            )
        assert observed[0] == observed[1]
    # Every eviction was the byte budget's: 16 specs fit 32 sessions.
    assert registries[0].core_stats()["sessions_evicted"] > 5


def test_running_byte_total_survives_threads_racing_admission():
    """More threads than cores answer, admit and evict on one registry,
    switching every few microseconds: the running total still equals the
    sum over resident sessions (a lost update would leave it off)."""
    lines = ["item.id -> item", "ref.to -> ref", "ref.to <= item.id", "item.id <= ref.to"]
    specs = [
        (DTD_TEXT, "\n".join(lines[j] for j in range(4) if mask >> j & 1))
        for mask in range(16)
    ]
    registry = SessionRegistry(max_bytes=4000)
    errors: list[BaseException] = []

    def work(offset: int) -> None:
        try:
            for step in range(40):
                session = registry.session_for(*specs[(offset + step * 3) % 16])
                session.check()
                session.implies(lines[step % 4])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k * 5,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert registry.approx_bytes() == sum(
        session.approx_bytes() for session in registry._sessions.values()
    )
    assert registry.core_stats()["sessions_evicted"] > 0
