"""Restart recovery: snapshots restore byte-identical service state.

The differential contract of DESIGN.md section 9: fill a session through
a server configured with a state file, stop the server (which snapshots
atomically), start a *fresh* server over a *fresh* registry from the
same file, and replay the same requests — every response must be
byte-identical to the pre-restart one, served from the restored cache
without re-solving.  A corrupted, truncated, version-skewed, or missing
snapshot must restore nothing and cold-start cleanly — restart safety
can never depend on snapshot integrity.
"""

import asyncio
import json
import os
import time

from repro.dtd.serializer import dtd_to_string
from repro.service.persist import (
    SNAPSHOT_VERSION,
    _checksum,
    load_snapshot,
    save_snapshot,
)
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.workloads.examples import figure1_tree, teachers_dtd_d1
from repro.workloads.generators import wide_flat_dtd
from repro.xmltree.serialize import tree_to_string

KEYS = "teacher.name -> teacher\nsubject.taught_by -> subject"
CHAIN = "t0.x <= t1.x\nt1.x <= t2.x"


def _request_suite():
    """Requests covering every cacheable op, with deterministic ids."""
    d1_text = dtd_to_string(teachers_dtd_d1())
    wide_text = dtd_to_string(wide_flat_dtd(4))
    doc = tree_to_string(figure1_tree())
    d1 = {"dtd": d1_text, "constraints": KEYS}
    wide = {"dtd": wide_text, "constraints": CHAIN}
    return [
        {"id": "check-d1", "op": "check", **d1},
        {"id": "validate-d1", "op": "validate", **d1, "document": doc},
        {"id": "diagnose-d1", "op": "diagnose", **d1},
        {"id": "check-wide", "op": "check", **wide},
        {"id": "imp-1", "op": "implies", **wide, "phi": "t0.x <= t2.x"},
        {"id": "imp-2", "op": "implies", **wide, "phi": "t2.x <= t0.x"},
    ]


async def _roundtrip(host, port, requests):
    reader, writer = await asyncio.open_connection(host, port)
    for request in requests:
        writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    responses = {}
    for _ in requests:
        line = await reader.readline()
        assert line, "server closed mid-burst"
        response = json.loads(line)
        responses[response["id"]] = response
    writer.close()
    return responses


def _serve_and_collect(state_file, requests, shutdown=True):
    server = CheckingServer(SessionRegistry(), state_file=state_file)
    host, port = server.start_background()
    try:
        burst = list(requests)
        if shutdown:
            burst.append({"id": "bye", "op": "shutdown"})
        responses = asyncio.run(_roundtrip(host, port, burst))
        responses.pop("bye", None)
        if shutdown:
            # A shutdown op drains deterministically and stops the loop
            # (after snapshotting); the server thread must exit on its
            # own, no grace timers involved.
            server._thread.join(timeout=30)
            assert not server._thread.is_alive()
        stats = server.stats_payload()
        return responses, stats
    finally:
        server.close()


def test_restart_recovery_is_byte_identical(tmp_path):
    state = str(tmp_path / "sessions.json")
    requests = _request_suite()
    before, stats_before = _serve_and_collect(state, requests)
    assert stats_before["server"]["snapshots_saved"] >= 1
    assert os.path.exists(state)

    after, stats_after = _serve_and_collect(state, requests)
    assert stats_after["server"]["sessions_restored"] == 2
    assert after == before, "restart changed a response byte"
    # Every replayed request hit the restored response cache: the new
    # process never re-solved anything.
    hits = sum(
        entry["cache_hits"] for entry in stats_after["sessions"].values()
    )
    assert hits == len(requests)


def test_corrupt_snapshot_cold_starts_cleanly(tmp_path):
    state = str(tmp_path / "sessions.json")
    requests = _request_suite()
    before, _ = _serve_and_collect(state, requests)
    with open(state, "r+", encoding="utf-8") as handle:
        handle.seek(0)
        handle.write("{garbage")
    after, stats = _serve_and_collect(state, requests)
    assert stats["server"]["sessions_restored"] == 0
    assert after == before, (
        "a cold start must still answer identically (just slower)"
    )


def test_checksum_mismatch_restores_nothing(tmp_path):
    state = str(tmp_path / "sessions.json")
    _serve_and_collect(state, _request_suite())
    envelope = json.loads(open(state, encoding="utf-8").read())
    envelope["payload"]["mode"] = "warm"  # tampered payload, stale checksum
    with open(state, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    registry = SessionRegistry()
    assert load_snapshot(registry, state) == 0


def _with_config_fields(value, fields):
    """Give every packed config the ``fields`` an older snapshot carried."""
    if isinstance(value, list):
        if len(value) == 2 and value[0] == "config" and isinstance(value[1], dict):
            return ["config", {**value[1], **fields}]
        return [_with_config_fields(item, fields) for item in value]
    if isinstance(value, dict):
        return {key: _with_config_fields(item, fields) for key, item in value.items()}
    return value


def test_version_skew_restores_nothing(tmp_path):
    state = str(tmp_path / "sessions.json")
    _serve_and_collect(state, _request_suite())
    written = json.loads(open(state, encoding="utf-8").read())
    envelope = dict(written, version=SNAPSHOT_VERSION + 1)
    with open(state, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    registry = SessionRegistry()
    assert load_snapshot(registry, state) == 0

    # A version-1 snapshot, written before the reference-engine switches
    # left CheckerConfig: its configs name fields that no longer exist.
    # It is a clean cold start, and the registry answers as if there had
    # never been a file.
    payload = _with_config_fields(
        written["payload"], {"incremental": True, "exact_warm": True}
    )
    assert "exact_warm" in json.dumps(payload)
    envelope = {"version": 1, "checksum": _checksum(payload), "payload": payload}
    with open(state, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    registry = SessionRegistry()
    assert load_snapshot(registry, state) == 0
    session = registry.session_for(dtd_to_string(teachers_dtd_d1()), KEYS)
    assert session.check()["consistent"] is True
    assert session.stats.cache_hits == 0

    # A version-2 snapshot, written while sessions still had a reuse mode
    # and a cut pool: the payload names the mode and each session carries
    # packed cut records.  It cold-starts the same way.
    payload = dict(written["payload"], mode="warm")
    payload["sessions"] = [
        dict(entry, cuts=[["cut", ["t", []], ["f", [["s", "a"]]], "conn"]])
        for entry in payload["sessions"]
    ]
    envelope = {"version": 2, "checksum": _checksum(payload), "payload": payload}
    with open(state, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    registry = SessionRegistry()
    assert load_snapshot(registry, state) == 0
    session = registry.session_for(dtd_to_string(teachers_dtd_d1()), KEYS)
    assert session.check()["consistent"] is True
    assert session.stats.cache_hits == 0

    # A version-3 snapshot, written while CheckerConfig still had a
    # ``jobs`` field: every packed config carries it.  It cold-starts the
    # same way.
    payload = _with_config_fields(written["payload"], {"jobs": 2})
    assert '"jobs": 2' in json.dumps(payload)
    envelope = {"version": 3, "checksum": _checksum(payload), "payload": payload}
    with open(state, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    registry = SessionRegistry()
    assert load_snapshot(registry, state) == 0
    session = registry.session_for(dtd_to_string(teachers_dtd_d1()), KEYS)
    assert session.check()["consistent"] is True
    assert session.stats.cache_hits == 0

    # A version-4 snapshot, written while CheckerConfig still had a
    # ``verify_witness`` field and diagnose keys named their MUS filter.
    # It cold-starts the same way.
    payload = _with_config_fields(written["payload"], {"verify_witness": True})
    payload = json.loads(
        json.dumps(payload).replace(
            '["s", "diagnose"]', '["s", "diagnose"], ["s", "quickxplain"]'
        )
    )
    assert '"verify_witness": true' in json.dumps(payload)
    assert '["s", "quickxplain"]' in json.dumps(payload)
    envelope = {"version": 4, "checksum": _checksum(payload), "payload": payload}
    with open(state, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    registry = SessionRegistry()
    assert load_snapshot(registry, state) == 0
    session = registry.session_for(dtd_to_string(teachers_dtd_d1()), KEYS)
    assert session.diagnose()["consistent"] is True
    assert session.stats.cache_hits == 0


def test_missing_snapshot_is_a_cold_start(tmp_path):
    state = str(tmp_path / "never-written.json")
    responses, stats = _serve_and_collect(state, _request_suite()[:1],
                                          shutdown=False)
    assert stats["server"]["sessions_restored"] == 0
    assert responses["check-d1"]["ok"] is True


def test_snapshot_round_trip_without_a_server(tmp_path):
    """The persist layer alone: registry out, registry in, same cache."""
    state = str(tmp_path / "direct.json")
    registry = SessionRegistry()
    session = registry.session_for(dtd_to_string(wide_flat_dtd(4)), CHAIN)
    payload = session.implies("t0.x <= t2.x", None)
    config_payload = session.implies(
        "t1.x <= t2.x", {"want_witness": False}
    )
    assert save_snapshot(registry, state) == 1

    restored_registry = SessionRegistry()
    assert load_snapshot(restored_registry, state) == 1
    restored = restored_registry.session_for(
        dtd_to_string(wide_flat_dtd(4)), CHAIN
    )
    assert restored.implies("t0.x <= t2.x", None) == payload
    assert (
        restored.implies("t1.x <= t2.x", {"want_witness": False})
        == config_payload
    )
    stats = restored.service_stats()
    assert stats["cache_hits"] == 2, (
        "restored responses must replay from cache, not re-solve"
    )


def test_autosave_snapshots_while_serving(tmp_path):
    state = str(tmp_path / "autosave.json")
    server = CheckingServer(
        SessionRegistry(), state_file=state, autosave_interval=0.05
    )
    host, port = server.start_background()
    try:
        asyncio.run(_roundtrip(host, port, _request_suite()[:1]))
        deadline = time.monotonic() + 5.0
        while not os.path.exists(state):
            assert time.monotonic() < deadline, "autosave never fired"
            time.sleep(0.02)
        registry = SessionRegistry()
        assert load_snapshot(registry, state) == 1
    finally:
        server.close()
