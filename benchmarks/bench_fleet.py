"""Fleet benchmarks (ISSUE 9 acceptance gate).

The distributed fleet's claim is *throughput by sharding*: disjoint
sessions hash to different backends, so two backend processes solve two
different specs at the same wall-clock moment — real process
parallelism, not thread interleaving under one GIL.  Gated here:

1. **Two backends beat one on disjoint sessions.**  Sixteen concurrent
   clients, each on its own spec (sixteen distinct fingerprints, so the
   ring spreads them), replay an implication stream through the router.
   The same stream through a two-backend fleet must reach at least 1.5x
   the aggregate throughput of a one-backend fleet (ideal is ~2x; 1.5x
   leaves room for routing overhead and an uneven ring split).  Like
   every wall-clock gate in this suite, the timing claim needs
   hardware: it skips loudly below two effective cores via the shared
   guard in ``benchmarks/conftest.py``.  The sharding *correctness*
   gate below always runs.

2. **The ring actually spreads the sessions.**  After the same stream,
   every backend has opened sessions — the speedup above is sharding,
   not one hot backend with a bystander.

Every benchmark asserts the correctness of the answers it times, per
the suite's fast-nonsense policy.
"""

import asyncio
import json
import time

from repro.dtd.serializer import dtd_to_string
from repro.service.fleet import FleetRouter, spawn_backends
from repro.workloads.generators import wide_flat_dtd

#: Aggregate-throughput factor a two-backend fleet must clear over a
#: single backend on disjoint sessions (ideal ~2x on two free cores).
_FLEET_GATE = 1.5

#: Chain width: ~30ms a solve, so sixteen clients x three queries give
#: each backend ~700ms of real CPU work — large against the router's
#: per-request overhead (~100us), small enough for CI.
_WIDTH = 12

_CLIENTS = 16

#: Three genuine solves per client (distinct phis, no response-cache
#: hits), every one implied by the chain.
_QUERIES = [f"t0.x <= t{j}.x" for j in (3, 6, 9)]


def _disjoint_specs() -> list:
    """Sixteen specs with sixteen distinct fingerprints over one DTD.

    The shared DTD keeps the encoding cache comparison fair between the
    one- and two-backend runs; the varying final constraint makes every
    fingerprint distinct so the ring has sixteen keys to spread.
    """
    dtd_text = dtd_to_string(wide_flat_dtd(_WIDTH))
    pairs = [
        (a, b)
        for a in range(_WIDTH - 1)
        for b in range(_WIDTH - 1)
        if b not in (a, a + 1)
    ]
    specs = []
    for index in range(_CLIENTS):
        a, b = pairs[index]
        chain = [f"t{j}.x <= t{j + 1}.x" for j in range(_WIDTH - 2)]
        chain.append(f"t{a}.x <= t{b}.x")
        specs.append((dtd_text, "\n".join(chain)))
    return specs


async def _client(host, port, dtd_text, sigma_text) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    for phi in _QUERIES:
        request = {
            "id": phi,
            "op": "implies",
            "dtd": dtd_text,
            "constraints": sigma_text,
            "phi": phi,
        }
        writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        response = json.loads(await reader.readline())
        assert response["ok"], response
        assert response["result"]["implied"] is True, phi
    writer.close()


def _run_stream(backends: int) -> tuple:
    """Replay the sixteen-client stream through a ``backends``-wide
    fleet; return (elapsed seconds, router, per-backend session counts).
    """
    specs = _disjoint_specs()
    processes, addresses = spawn_backends(backends)
    try:
        router = FleetRouter(addresses)
        host, port = router.start_background()
        try:

            async def burst():
                await asyncio.gather(
                    *(
                        _client(host, port, dtd_text, sigma_text)
                        for dtd_text, sigma_text in specs
                    )
                )

            start = time.perf_counter()
            asyncio.run(burst())
            elapsed = time.perf_counter() - start

            async def backend_sessions():
                counts = []
                for address in addresses:
                    backend_host, _, backend_port = address.rpartition(":")
                    reader, writer = await asyncio.open_connection(
                        backend_host, int(backend_port)
                    )
                    writer.write(b'{"op": "stats"}\n')
                    await writer.drain()
                    payload = json.loads(await reader.readline())
                    writer.close()
                    counts.append(
                        payload["result"]["registry"]["sessions_opened"]
                    )
                return counts

            sessions = asyncio.run(backend_sessions())
            stats = router.stats
        finally:
            router.close()
        return elapsed, stats, sessions
    finally:
        for process in processes:
            process.kill()
        for process in processes:
            process.wait(timeout=10.0)


def test_ring_spreads_disjoint_sessions_across_both_backends():
    """Gate 2 (always runs): sixteen disjoint sessions land on *both*
    backends, and every request routed — the throughput claim's
    precondition, asserted independently of core count."""
    _, stats, sessions = _run_stream(2)
    assert stats.routed == _CLIENTS * len(_QUERIES)
    assert stats.backends_lost == 0
    assert sum(sessions) == _CLIENTS, sessions
    assert min(sessions) >= 1, (
        f"one backend sat idle: per-backend sessions {sessions}"
    )


def test_two_backend_fleet_throughput_vs_single_backend(speedup_gate):
    """Gate 1: the two-backend fleet reaches >= 1.5x the aggregate
    throughput of a single backend on the disjoint-session stream.

    Hardware requirements (two effective cores) are decided by the
    shared guard in ``benchmarks/conftest.py``."""
    speedup_gate(2)
    single = min(_run_stream(1)[0] for _ in range(2))
    fleet = min(_run_stream(2)[0] for _ in range(2))
    speedup = single / fleet
    assert speedup >= _FLEET_GATE, (
        f"single backend {single * 1000:.0f}ms vs two-backend fleet "
        f"{fleet * 1000:.0f}ms ({speedup:.2f}x < {_FLEET_GATE}x)"
    )
