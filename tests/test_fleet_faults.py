"""Fleet chaos: backend death and dropped connections.

The router's fault contract (DESIGN.md section 11): a backend that dies
— SIGKILL mid-wave, or a connection dropped by the ``conn.drop`` fault
point — must never change what a client observes beyond latency.  In-flight requests are
idempotent and replay; a lost backend's ring segment reroutes to the
survivors; verdicts stay pinned to the single-backend answer; and no
request is dropped or answered twice.

Backends here are real ``repro serve`` subprocesses
(:func:`~repro.service.fleet.spawn_backends`), faults armed through each
victim's environment so only it misbehaves.  The router runs in-process
where its counters can be asserted exactly.
"""

import asyncio
import json
import signal
import threading
import time

from repro.dtd.serializer import dtd_to_string
from repro.service.fleet import FleetRouter, spawn_backends
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.workloads.generators import wide_flat_dtd

#: The branchy chaos instance (same family as tests/test_service_faults):
#: range constraints force the ILP path, so ``solve.delay`` has DFS nodes
#: to stretch.
_ACTIVE = 3


def _branchy_texts() -> tuple[str, str]:
    dtd = wide_flat_dtd(_ACTIVE + 2)
    chain = [f"t{i}.x <= t{(i + 1) % _ACTIVE}.x" for i in range(_ACTIVE)]
    return dtd_to_string(dtd), "\n".join(chain)


def _batch_request(request_id="batch") -> dict:
    dtd_text, sigma_text = _branchy_texts()
    phis = []
    for i in range(_ACTIVE):
        for j in range(_ACTIVE):
            if i != j:
                phis.append(f"t{i}.x <= t{j}.x")
    return {
        "id": request_id,
        "op": "implies_all",
        "dtd": dtd_text,
        "constraints": sigma_text,
        "phis": phis,
    }


def _line_exchange(address, requests) -> list:
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


def _burst_exchange(address, requests) -> list:
    """Send every request before reading any response (overlap at the
    router); returns raw response lines in arrival order."""

    async def run():
        reader, writer = await asyncio.open_connection(*address)
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode("utf-8"))
        await writer.drain()
        lines = []
        for _ in requests:
            line = await reader.readline()
            if not line:
                break
            lines.append(line)
        writer.close()
        return lines

    return asyncio.run(run())


def _reference_bytes(requests) -> list:
    """The pinned answers: a fresh in-process single server."""
    reference = CheckingServer(SessionRegistry())
    reference.start_background()
    try:
        return _line_exchange(reference.address, requests)
    finally:
        reference.close()


def _cleanup(processes) -> None:
    for proc in processes:
        proc.kill()
    for proc in processes:
        proc.wait(timeout=10.0)


def test_conn_drop_is_replayed_not_surfaced():
    """``conn.drop*1`` on a backend closes one answered connection
    without writing the response; the router replays the idempotent
    request on a fresh connection and the client sees the exact
    single-server bytes, exactly once."""
    procs, specs = spawn_backends(1, env={"REPRO_FAULTS": "conn.drop*1"})
    try:
        router = FleetRouter(specs)
        router.start_background()
        try:
            request = _batch_request("dropped")
            [ours] = _line_exchange(router.address, [request])
            [pinned] = _reference_bytes([request])
            assert ours == pinned
            assert router.stats.replays >= 1
            assert router.stats.reconnects >= 1
            assert router.stats.backends_lost == 0
            assert len(router.ring) == 1
        finally:
            router.close()
    finally:
        _cleanup(procs)


def test_backend_sigkill_mid_wave_reroutes_with_pinned_bytes():
    """SIGKILL one of three backends while a fanned batch is in flight:
    its chunks replay onto the survivors, the ring drops to two, and the
    merged answer — plus every later request — still carries the
    single-server bytes."""
    victim_procs, victim_specs = spawn_backends(
        1, env={"REPRO_FAULTS": "solve.delay=0.05"}
    )
    procs, specs = spawn_backends(2)
    procs += victim_procs
    try:
        router = FleetRouter(specs + victim_specs, wave_chunk=1)
        router.start_background()
        try:
            batch = _batch_request("mid-wave")
            follow_up = _batch_request("after-kill")
            result: dict = {}

            def client():
                result["lines"] = _line_exchange(router.address, [batch])

            thread = threading.Thread(target=client)
            thread.start()
            # Land the kill while the victim's slow chunks are in
            # flight (its solve.delay stretches every DFS node).
            time.sleep(0.3)
            victim_procs[0].send_signal(signal.SIGKILL)
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "batch never completed after the kill"

            [pinned_batch] = _reference_bytes([batch])
            assert result["lines"] == [pinned_batch]

            # The next fan-out touches every ring member: the dead
            # backend is detected (if the kill landed between waves)
            # and the fleet answers from the survivors.
            [ours] = _line_exchange(router.address, [follow_up])
            [pinned] = _reference_bytes([follow_up])
            assert ours == pinned
            assert router.stats.backends_lost == 1
            assert router.stats.reroutes >= 1
            assert len(router.ring) == 2
        finally:
            router.close()
    finally:
        _cleanup(procs)


def test_kill_under_concurrent_load_answers_every_request_exactly_once():
    """Distinct specs spread across the ring; the victim dies while
    requests overlap.  Every request id is answered exactly once, every
    answer is ok=true, and each equals the single-server bytes."""
    victim_procs, victim_specs = spawn_backends(
        1, env={"REPRO_FAULTS": "solve.delay=0.05"}
    )
    procs, specs = spawn_backends(2)
    procs += victim_procs
    try:
        router = FleetRouter(specs + victim_specs)
        router.start_background()
        try:
            dtd_text, sigma_text = _branchy_texts()
            requests = []
            for index in range(8):
                # Distinct spec per request -> distinct fingerprint ->
                # the ring spreads them across all three backends.
                requests.append(
                    {
                        "id": f"load-{index}",
                        "op": "implies",
                        "dtd": dtd_to_string(wide_flat_dtd(_ACTIVE + 2 + index)),
                        "constraints": sigma_text,
                        "phi": "t0.x <= t2.x",
                    }
                )
            result: dict = {}

            def client():
                result["lines"] = _burst_exchange(router.address, requests)

            thread = threading.Thread(target=client)
            thread.start()
            time.sleep(0.2)
            victim_procs[0].send_signal(signal.SIGKILL)
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "burst never completed after the kill"

            lines = result["lines"]
            assert len(lines) == len(requests), "a request was dropped"
            answered = [json.loads(line)["id"] for line in lines]
            assert sorted(answered) == sorted(r["id"] for r in requests), (
                "an id was dropped or double-answered"
            )
            for line in lines:
                assert json.loads(line)["ok"] is True, line
            pinned = _reference_bytes(requests)
            ours_by_id = {json.loads(line)["id"]: line for line in lines}
            for request, expected in zip(requests, pinned):
                assert ours_by_id[request["id"]] == expected, request["id"]
            assert router.stats.backends_lost <= 1
        finally:
            router.close()
    finally:
        _cleanup(procs)


def test_all_backends_dead_answers_structured_error_not_silence():
    """With every backend gone the router still answers: a structured
    error naming the empty fleet, not a hang or a dropped connection."""
    procs, specs = spawn_backends(1)
    try:
        router = FleetRouter(specs)
        router.start_background()
        try:
            _cleanup(procs)
            procs = []
            request = _batch_request("orphan")
            [raw] = _line_exchange(router.address, [request])
            payload = json.loads(raw)
            assert payload["ok"] is False
            assert "no live backends" in payload["error"]["message"]
            assert router.stats.backends_lost == 1
            assert len(router.ring) == 0
        finally:
            router.close()
    finally:
        _cleanup(procs)
