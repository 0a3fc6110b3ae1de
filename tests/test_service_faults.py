"""Chaos suite: armed faults, structured answers, identical verdicts.

Every hardening claim of DESIGN.md section 9 is exercised by arming its
failure through :mod:`repro.service.faults` and asserting the recovery
story end to end:

* ``worker.kill`` — a pool worker dies holding a task; the pool detects
  it by exitcode, requeues the task and respawns; a kill *storm*
  exhausts the respawn budget and ``implies_all`` degrades to its
  sequential loop — in both cases the answers equal the fault-free
  ``jobs=1`` baseline;
* deadlines — expired requests answer ``budget_exceeded`` (pre-queue
  and mid-solve via ``solve.delay``), never wedging the drainer;
* overload (``drain.delay`` + a tiny in-flight cap) — shed requests
  answer ``overloaded`` with a ``retry_after`` hint, admitted ones
  still answer correctly, and *every* request gets a structured answer;
* ``conn.drop`` — a dropped connection loses its bytes, not the server;
* ``persist.corrupt`` — a corrupted snapshot is a cold start, and the
  cold session still answers correctly.
"""

import asyncio
import json
import os
from dataclasses import replace

import pytest

from repro.budget import Deadline, deadline_scope
from repro.checkers.config import CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.checkers.implication import (
    _implication_task,
    _init_implication_worker,
    implies_all,
)
from repro.constraints.parser import parse_constraints
from repro.dtd.serializer import dtd_to_string
from repro.errors import BudgetExceededError, WorkerCrashError
from repro.ilp import condsys
from repro.ilp.condsys import WorkerPool, fanout_map
from repro.service import faults
from repro.service.faults import FaultRegistry, parse_faults
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.workloads.generators import wide_flat_dtd

needs_fork = pytest.mark.skipif(
    not WorkerPool.available(), reason="worker pool needs fork start method"
)

#: The differential-fuzz branchy instance: its support search genuinely
#: branches (certified pipeline, LP pruning off), so DFS nodes are
#: guaranteed to exist for faults to hit.
_ACTIVE = 3
PARALLEL = CheckerConfig(
    want_witness=False, backend="exact", lp_prune=False, jobs=2
)
SEQUENTIAL = replace(PARALLEL, jobs=1)
_CONFIG_WIRE = {
    "want_witness": False,
    "backend": "exact",
    "lp_prune": False,
    "jobs": 2,
}


def _chain():
    return [f"t{i}.x <= t{(i + 1) % _ACTIVE}.x" for i in range(_ACTIVE)]


def _branchy_spec():
    dtd = wide_flat_dtd(_ACTIVE + 2)
    sigma = parse_constraints("\n".join(_chain() + ["t0.x !<= t1.x"]))
    return dtd, sigma


#: Every pairwise inclusion over the chain: six independent queries, so
#: ``jobs=2`` forks a real pool for ``worker.kill`` to hit.
_PHIS_TEXT = [
    f"t{i}.x <= t{j}.x"
    for i in range(_ACTIVE)
    for j in range(_ACTIVE)
    if i != j
]


def _batch():
    dtd = wide_flat_dtd(_ACTIVE + 2)
    sigma = parse_constraints("\n".join(_chain()))
    return dtd, sigma, parse_constraints("\n".join(_PHIS_TEXT))


def _kill_fired(registry) -> bool:
    """Did the armed ``worker.kill*1`` consume its token?"""
    return not os.path.exists(os.path.join(registry.token_dir, "worker.kill.0"))


@pytest.fixture
def arm():
    """Arm fault points for one test; always disarm afterwards."""
    try:
        yield faults.install
    finally:
        faults.reset()


async def _roundtrip(host, port, requests):
    reader, writer = await asyncio.open_connection(host, port)
    for request in requests:
        writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    responses = []
    for _ in requests:
        line = await reader.readline()
        if not line:
            break
        responses.append(json.loads(line))
    writer.close()
    return responses


# ---------------------------------------------------------------------------
# The registry itself
# ---------------------------------------------------------------------------


def test_fault_grammar_round_trips():
    specs = parse_faults("worker.kill*2, drain.delay=0.25, conn.drop")
    assert specs["worker.kill"].times == 2
    assert specs["worker.kill"].value is None
    assert specs["drain.delay"].times is None
    assert specs["drain.delay"].value == 0.25
    assert specs["conn.drop"].times is None
    assert parse_faults("solve.delay=0.1*3")["solve.delay"] == parse_faults(
        "solve.delay=0.1*3"
    )["solve.delay"]


def test_fault_grammar_rejects_junk():
    with pytest.raises(ValueError):
        parse_faults("worker.kill*-1")
    with pytest.raises(ValueError):
        parse_faults("worker.kill*soon")
    with pytest.raises(ValueError):
        parse_faults("=0.5")


def test_limited_faults_fire_exactly_n_times_across_registries(tmp_path):
    """Token files make ``*N`` counts global to every process sharing the
    directory: two registries (standing in for parent + forked child)
    jointly consume exactly N firings."""
    token_dir = str(tmp_path / "tokens")
    specs = parse_faults("worker.kill*3")
    parent = FaultRegistry(specs, token_dir=token_dir, create_tokens=True)
    child = FaultRegistry(specs, token_dir=token_dir, create_tokens=False)
    fired = sum(
        1
        for registry in (parent, child, parent, child, parent, child)
        if registry.fire("worker.kill") is not None
    )
    assert fired == 3


def test_unarmed_probes_are_noops():
    faults.reset()
    assert faults.fault_active("worker.kill") is False
    assert faults.fault_seconds("drain.delay") is None


# ---------------------------------------------------------------------------
# Worker-crash recovery (DESIGN.md section 9: detect, requeue, respawn)
# ---------------------------------------------------------------------------


@needs_fork
def test_single_worker_kill_recovers_without_degrading(arm, monkeypatch):
    """One kill inside ``implies_all``'s pool: the pool reaps the dead
    worker, requeues its task and respawns, and the batch answers with
    the jobs=1 results (verdicts and per-query stats)."""
    pools = []

    class RecordingPool(WorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(condsys, "WorkerPool", RecordingPool)
    dtd, sigma, phis = _batch()
    arm("worker.kill*1")
    results = implies_all(dtd, sigma, phis, PARALLEL)
    faults.reset()
    baseline = implies_all(dtd, sigma, phis, SEQUENTIAL)
    [pool] = pools
    assert pool.crashes == 1
    assert pool.respawns == 1
    assert pool.requeues >= 1
    assert results == baseline


@needs_fork
def test_kill_storm_degrades_to_sequential_with_identical_verdict(arm):
    """When every worker (and every respawn) dies, ``fanout_map`` raises
    :class:`WorkerCrashError`, and ``implies_all`` falls back to its
    sequential loop and still returns the jobs=1 results."""
    dtd, sigma, phis = _batch()
    arm("worker.kill*100")
    with pytest.raises(WorkerCrashError):
        fanout_map(
            _implication_task,
            list(range(len(phis))),
            2,
            _init_implication_worker,
            (dtd, sigma, phis, PARALLEL),
        )
    results = implies_all(dtd, sigma, phis, PARALLEL)
    faults.reset()
    assert results == implies_all(dtd, sigma, phis, SEQUENTIAL)


# ---------------------------------------------------------------------------
# Deadlines: cooperative cancellation, pre-queue and mid-solve
# ---------------------------------------------------------------------------


def test_mid_solve_deadline_cancels_cooperatively(arm):
    """``solve.delay`` stretches every DFS node past the budget: the solver
    notices at its next check and raises instead of running on."""
    dtd, sigma = _branchy_spec()
    arm("solve.delay=0.05")
    with pytest.raises(BudgetExceededError):
        with deadline_scope(Deadline.after(0.02)):
            check_consistency(dtd, sigma, SEQUENTIAL)


def test_expired_request_answers_budget_exceeded_through_server():
    dtd, sigma = _branchy_spec()
    server = CheckingServer(SessionRegistry())
    host, port = server.start_background()
    try:
        responses = asyncio.run(
            _roundtrip(
                host,
                port,
                [
                    {
                        "id": "late",
                        "op": "check",
                        "dtd": dtd_to_string(dtd),
                        "constraints": "\n".join(str(phi) for phi in sigma),
                        "deadline": 0.0,
                    },
                    {
                        "id": "fine",
                        "op": "open",
                        "dtd": dtd_to_string(dtd),
                        "constraints": "\n".join(str(phi) for phi in sigma),
                    },
                ],
            )
        )
        by_id = {r["id"]: r for r in responses}
        assert by_id["late"]["ok"] is False
        assert by_id["late"]["error"]["type"] == "budget_exceeded"
        assert by_id["fine"]["ok"] is True, (
            "an expired request must not wedge the drainer"
        )
        assert server.stats_payload()["server"]["deadline_expired"] == 1
    finally:
        server.close()


# ---------------------------------------------------------------------------
# Overload: shed with structure, answer everything
# ---------------------------------------------------------------------------


def test_overload_sheds_with_retry_after_and_answers_everything(arm):
    """A slow drainer (``drain.delay``) plus a tiny in-flight cap forces
    shedding; every request still gets exactly one structured answer."""
    dtd, sigma = _branchy_spec()
    dtd_text = dtd_to_string(dtd)
    sigma_text = "\n".join(str(phi) for phi in sigma)
    arm("drain.delay=0.2*10")
    server = CheckingServer(SessionRegistry(), max_inflight=2)
    host, port = server.start_background()
    try:
        requests = [
            {
                "id": index,
                "op": "implies",
                "dtd": dtd_text,
                "constraints": sigma_text,
                "phi": "t0.x <= t1.x",
            }
            for index in range(8)
        ]
        responses = asyncio.run(_roundtrip(host, port, requests))
        assert len(responses) == len(requests), (
            "under overload every request still gets an answer"
        )
        shed = [
            r
            for r in responses
            if not r["ok"] and r["error"]["type"] == "overloaded"
        ]
        answered = [r for r in responses if r["ok"]]
        assert shed, "the in-flight cap never shed"
        assert answered, "shedding must not starve admitted requests"
        assert len(shed) + len(answered) == len(requests)
        for response in shed:
            assert response["error"]["retry_after"] > 0
        for response in answered:
            assert response["result"]["implied"] is True
        stats = server.stats_payload()["server"]
        assert stats["requests_shed"] == len(shed)
        assert stats["errors"] == 0, "sheds are load feedback, not errors"
    finally:
        server.close()


# ---------------------------------------------------------------------------
# Dropped connections and corrupted snapshots
# ---------------------------------------------------------------------------


def test_dropped_connection_loses_bytes_not_the_server(arm):
    dtd, sigma = _branchy_spec()
    dtd_text = dtd_to_string(dtd)
    sigma_text = "\n".join(str(phi) for phi in sigma)
    arm("conn.drop*1")
    server = CheckingServer(SessionRegistry())
    host, port = server.start_background()

    async def drop_then_retry():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            (
                json.dumps(
                    {
                        "id": 1,
                        "op": "open",
                        "dtd": dtd_text,
                        "constraints": sigma_text,
                    }
                )
                + "\n"
            ).encode()
        )
        await writer.drain()
        line = await reader.readline()
        writer.close()
        assert not line, "the armed fault should have dropped the connection"
        # The client's recovery story: reconnect and retry.
        return await _roundtrip(
            host,
            port,
            [
                {
                    "id": 2,
                    "op": "open",
                    "dtd": dtd_text,
                    "constraints": sigma_text,
                }
            ],
        )

    try:
        responses = asyncio.run(drop_then_retry())
        assert responses[0]["ok"] is True
    finally:
        server.close()


def test_dropped_http_connection_loses_bytes_not_the_server(arm):
    """The same ``conn.drop`` story over the HTTP front end: the armed
    drop closes the socket before the response bytes, and a retry on a
    fresh connection answers normally."""
    import http.client

    from repro.service.http import HTTPFrontend

    dtd, sigma = _branchy_spec()
    request = {
        "id": 1,
        "op": "open",
        "dtd": dtd_to_string(dtd),
        "constraints": "\n".join(str(phi) for phi in sigma),
    }
    server = CheckingServer(SessionRegistry())
    front = HTTPFrontend(server)
    host, port = front.start_background()
    arm("conn.drop*1")
    try:
        first = http.client.HTTPConnection(host, port, timeout=10)
        try:
            first.request("POST", "/v1/open", body=json.dumps(request))
            with pytest.raises((ConnectionError, http.client.BadStatusLine)):
                first.getresponse()
        finally:
            first.close()
        # The client's recovery story: reconnect and retry.
        retry = http.client.HTTPConnection(host, port, timeout=10)
        try:
            retry.request(
                "POST", "/v1/open", body=json.dumps({**request, "id": 2})
            )
            response = retry.getresponse()
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["ok"] is True
        finally:
            retry.close()
    finally:
        faults.reset()
        front.close()


def test_corrupt_snapshot_is_a_cold_start_that_still_answers(arm, tmp_path):
    from repro.service.persist import load_snapshot, save_snapshot

    dtd, sigma = _branchy_spec()
    registry = SessionRegistry()
    session = registry.session_for(
        dtd_to_string(dtd), "\n".join(str(phi) for phi in sigma)
    )
    session.implies("t0.x <= t1.x", None)
    state = str(tmp_path / "snapshot.json")
    arm("persist.corrupt")
    save_snapshot(registry, state)
    faults.reset()
    assert os.path.exists(state)
    cold = SessionRegistry()
    assert load_snapshot(cold, state) == 0, (
        "a corrupt snapshot restores nothing (and raises nothing)"
    )
    # The cold registry still answers the same question correctly.
    fresh = cold.session_for(
        dtd_to_string(dtd), "\n".join(str(phi) for phi in sigma)
    )
    assert fresh.implies("t0.x <= t1.x", None)["implied"] is True


# ---------------------------------------------------------------------------
# Mixed faults through the full service: the headline invariant
# ---------------------------------------------------------------------------


@needs_fork
def test_faulted_service_still_matches_fault_free_verdicts(arm):
    """Worker kills and drain delays at once: every ``implies_all``
    request answers, and the verdicts equal the fault-free sequential
    baseline."""
    dtd, sigma, phis = _batch()
    dtd_text = dtd_to_string(dtd)
    sigma_text = "\n".join(str(phi) for phi in sigma)
    baseline = [r.implied for r in implies_all(dtd, sigma, phis, SEQUENTIAL)]
    armed = arm("worker.kill*1,drain.delay=0.02*2")
    server = CheckingServer(SessionRegistry())
    host, port = server.start_background()
    try:
        responses = asyncio.run(
            _roundtrip(
                host,
                port,
                [
                    {
                        "id": index,
                        "op": "implies_all",
                        "dtd": dtd_text,
                        "constraints": sigma_text,
                        "phis": _PHIS_TEXT,
                        "config": _CONFIG_WIRE,
                    }
                    for index in range(3)
                ],
            )
        )
        assert len(responses) == 3
        for response in responses:
            assert response["ok"] is True, response
            verdicts = [r["implied"] for r in response["result"]["results"]]
            assert verdicts == baseline, (
                "faulted verdict diverged from the fault-free baseline"
            )
        assert _kill_fired(armed), "no pool worker was killed"
    finally:
        server.close()
