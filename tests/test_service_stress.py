"""Concurrent-client stress: coalescing stats, no cross-session leakage.

Twelve asyncio clients share one TCP server across three sessions whose
specifications give *different* verdicts for the same query text — so
any cross-session mix-up (a response cache serving another spec's entry)
flips a verdict and fails the per-client assertions.  The batcher must
demonstrably coalesce (``batches_coalesced``, ``batch_width``) while
per-session serialization keeps single-owner state safe.
"""

import asyncio
import json

from repro.constraints.parser import parse_constraints
from repro.dtd.serializer import dtd_to_string
from repro.encoding.combined import spec_fingerprint
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.workloads.generators import wide_flat_dtd

CLIENTS = 12
PHI_FORWARD = "t0.x <= t1.x"
PHI_BACKWARD = "t1.x <= t0.x"


def _specs():
    """Three sessions over one DTD, distinguished only by Sigma.

    The same two query texts get a different verdict pair from each
    spec, so a response leaking across sessions is caught immediately.
    """
    dtd = wide_flat_dtd(3)
    dtd_text = dtd_to_string(dtd)
    specs = []
    for sigma_text, verdicts in (
        (PHI_FORWARD, {PHI_FORWARD: True, PHI_BACKWARD: False}),
        ("", {PHI_FORWARD: False, PHI_BACKWARD: False}),
        (PHI_BACKWARD, {PHI_FORWARD: False, PHI_BACKWARD: True}),
    ):
        fingerprint = spec_fingerprint(dtd, parse_constraints(sigma_text))
        specs.append((dtd_text, sigma_text, fingerprint, verdicts))
    return specs


async def _client(host, port, spec, client_id):
    dtd_text, sigma_text, fingerprint, verdicts = spec
    reader, writer = await asyncio.open_connection(host, port)
    requests = []
    for index in range(6):
        phi = PHI_FORWARD if index % 2 == 0 else PHI_BACKWARD
        requests.append(
            {
                "id": f"{client_id}-{index}",
                "op": "implies",
                "dtd": dtd_text,
                "constraints": sigma_text,
                "phi": phi,
            }
        )
    requests.append(
        {
            "id": f"{client_id}-check",
            "op": "check",
            "dtd": dtd_text,
            "constraints": sigma_text,
        }
    )
    # Send the whole burst before reading anything: that is the client
    # shape the batcher coalesces.
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
    for request in requests:
        response = responses[request["id"]]
        assert response["ok"], response
        assert response["service"]["session"] == fingerprint, (
            f"client {client_id}: answered by a foreign session"
        )
        if request["op"] == "implies":
            assert response["result"]["implied"] == verdicts[request["phi"]], (
                f"client {client_id}: cross-session verdict leak for "
                f"{request['phi']!r}"
            )
        else:
            assert response["result"]["consistent"] is True
    return len(responses)


def test_shutdown_drains_deterministically():
    """Shutdown mid-burst: every request already received is answered
    (solved or shed — always structured), then the server stops on its
    own.  No grace-period timer is involved, so this cannot flake on a
    loaded machine: the stop is gated on the drain, not on a clock."""
    dtd_text, sigma_text, fingerprint, verdicts = _specs()[0]
    server = CheckingServer(SessionRegistry())
    host, port = server.start_background()

    async def burst():
        reader, writer = await asyncio.open_connection(host, port)
        requests = [
            {
                "id": f"pre-{index}",
                "op": "implies",
                "dtd": dtd_text,
                "constraints": sigma_text,
                "phi": PHI_FORWARD,
            }
            for index in range(5)
        ]
        requests.append({"id": "bye", "op": "shutdown"})
        requests.append(
            {
                "id": "late",
                "op": "implies",
                "dtd": dtd_text,
                "constraints": sigma_text,
                "phi": PHI_FORWARD,
            }
        )
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        responses = {}
        while True:
            line = await reader.readline()
            if not line:
                break
            response = json.loads(line)
            responses[response["id"]] = response
        writer.close()
        return responses

    try:
        responses = asyncio.run(burst())
        # Every line the server read before stopping got an answer.
        for index in range(5):
            response = responses[f"pre-{index}"]
            assert response["ok"], response
            assert response["result"]["implied"] == verdicts[PHI_FORWARD]
        assert responses["bye"]["ok"]
        assert responses["bye"]["result"] == {"stopping": True}
        # A request read after shutdown is shed with structure, never
        # silently dropped mid-drain.
        if "late" in responses:
            late = responses["late"]
            assert not late["ok"]
            assert late["error"]["type"] == "overloaded"
        # The drain gates the stop: the serving thread exits by itself.
        server._thread.join(timeout=30)
        assert not server._thread.is_alive()
    finally:
        server.close()


def test_concurrent_clients_coalesce_without_leaking():
    server = CheckingServer(SessionRegistry())
    host, port = server.start_background()
    specs = _specs()

    async def run():
        return await asyncio.gather(
            *(
                _client(host, port, specs[index % len(specs)], index)
                for index in range(CLIENTS)
            )
        )

    try:
        answered = asyncio.run(run())
        assert sum(answered) == CLIENTS * 7
        stats = server.stats_payload()
        assert stats["server"]["errors"] == 0
        assert stats["registry"]["sessions"] == len(specs)
        assert stats["registry"]["sessions_evicted"] == 0
        # The batcher demonstrably coalesced concurrent implies.
        assert stats["server"]["batches_coalesced"] >= 1, stats["server"]
        assert stats["server"]["batch_width"] >= 2
        # Every request was answered by the session it addressed.
        per_session = stats["sessions"]
        assert len(per_session) == len(specs)
        assert (
            sum(entry["requests"] for entry in per_session.values())
            <= CLIENTS * 7
        )
    finally:
        server.close()
