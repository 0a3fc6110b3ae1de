"""Serving benchmarks (ISSUE 5 acceptance gates).

Two claims of the long-lived checking service are gated here:

1. **Resident sessions beat cold one-shots.**  On the registrar
   workload, a resident session's ``implies`` (p50, a full re-solve —
   the response cache is cleared between repeats, so this is *not* the
   trivial cached-repeat case; the parsed spec and the per-DTD encoding
   block stay resident) is at least 5x faster than a cold one-shot CLI
   invocation (fresh interpreter, fresh parse, fresh encode and
   assembly — what every request paid before the service existed).  In
   practice the gap is two orders of magnitude; 5x leaves room for slow
   CI containers.
2. **Coalescing beats sequential one-shots.**  A stream of 32 requests
   (eight distinct queries re-asked by 32 concurrent clients) answered
   through the server's per-session batcher achieves at least 2x the
   aggregate throughput of the *same stream* issued as sequential
   one-shots (fresh parse, fresh session and cleared encoding caches
   per request — the cold-start cost the service amortizes).  This is a
   structural amortization claim (validate once, share the encoding
   block, coalesce into ``implies_all``, answer exact repeats from the
   response cache), not a parallelism claim, so it runs on any core
   count.

3. **Shedding keeps admitted requests fast.**  (ISSUE 6.)  With a tiny
   in-flight cap and a flood of concurrent clients, over-limit requests
   are shed immediately with a structured ``overloaded`` answer — so
   the requests that *are* admitted never wait behind an unbounded
   backlog.  Gate: the shed-mode p50 for admitted requests stays within
   2x of the uncontended warm p50 (an unbounded queue would multiply it
   by the backlog depth instead).

4. **The HTTP front end is a thin skin.**  (ISSUE 8.)  Both transports
   share the same dispatch and the same live session; on cache-hit
   repeats (transport overhead isolated from solving) the warm HTTP
   p50 stays within 2x of the warm line-protocol p50 (+1ms floor).

5. **Scrapes don't perturb serving.**  (ISSUE 8.)  A continuous
   ``GET /metrics`` scraper hammering the collector while 32 concurrent
   clients replay cached queries moves the admitted p50 by at most 10%
   (best-of-N on both sides, small floor) — the collector snapshot is
   a lock-scoped copy, never a pause of the serving path.

Every benchmark asserts the correctness of the answers it times, per
the suite's fast-nonsense policy.  Gates 2-5 also assert deterministic
counters beside their wall-clock ratio, which hold on any host however
loaded: the server's executor (wrapped to count submissions) takes one
job per batch, every answered request sits in exactly one batch, shed
requests and scrapes take none, and the coalesced burst coalesces.
"""

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.constraints.parser import parse_constraints
from repro.dtd.serializer import dtd_to_string
from repro.encoding.combined import clear_encoding_cache
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.service.session import SpecSession
from repro.workloads.generators import registrar_mus_family, wide_flat_dtd

#: The resident-vs-cold speedup the service must clear (measured: >> 20x).
_WARM_GATE = 5.0

#: Aggregate-throughput factor for the coalesced 32-client batch.
_BATCH_GATE = 2.0

_CLIENTS = 32


class _CountingExecutor(ThreadPoolExecutor):
    """The server's thread pool, counting the jobs submitted to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submissions = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submissions += 1
        return super().submit(fn, *args, **kwargs)


def _counted_server(**kwargs) -> CheckingServer:
    """A server whose executor counts submissions: the deterministic
    companion of each wall-clock gate (one executor job per batch, so
    ``submissions == batches`` and every answered request sits in
    exactly one batch)."""
    server = CheckingServer(SessionRegistry(), **kwargs)
    workers = server.executor._max_workers
    server.executor.shutdown()
    server.executor = _CountingExecutor(max_workers=workers)
    return server


def _assert_one_job_per_batch(server: CheckingServer, answered: int) -> None:
    stats = server.stats_payload()["server"]
    assert server.executor.submissions == stats["batches"], stats
    assert stats["batch_width_sum"] == answered, stats


def _registrar_spec():
    """The registrar workload: the |Sigma| = 12 MUS-hunt family."""
    dtd, sigma = registrar_mus_family(8)
    phis = [str(phi) for phi in sigma[:4]]
    return dtd, sigma, phis


def test_resident_session_implies_p50_vs_cold_cli(tmp_path):
    """Gate 1: a resident session's re-solved ``implies`` p50 >= 5x
    faster than the cold one-shot CLI on the registrar workload."""
    dtd, sigma, phis = _registrar_spec()
    dtd_path = tmp_path / "registrar.dtd"
    sigma_path = tmp_path / "registrar.sig"
    dtd_path.write_text(dtd_to_string(dtd))
    sigma_path.write_text("\n".join(str(phi) for phi in sigma) + "\n")

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def cold_once() -> float:
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "implies",
                str(dtd_path),
                str(sigma_path),
                phis[0],
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert "implied: True" in proc.stdout
        return elapsed

    cold_p50 = statistics.median(cold_once() for _ in range(5))

    session = SpecSession(dtd, sigma)
    assert session.implies(phis[0])["implied"] is True  # warm the DTD block

    def warm_once() -> float:
        # Clear only the response cache: the repeat must re-solve (the
        # resident spec and encoding block are reused), not just replay
        # a recorded answer.
        session._responses.clear()
        session._response_bytes = 0
        start = time.perf_counter()
        payload = session.implies(phis[0])
        elapsed = time.perf_counter() - start
        assert payload["implied"] is True
        return elapsed

    warm_p50 = statistics.median(warm_once() for _ in range(9))
    assert session.stats.cache_hits == 0

    speedup = cold_p50 / warm_p50
    assert speedup >= _WARM_GATE, (
        f"cold one-shot CLI p50 {cold_p50 * 1000:.1f}ms vs resident-session "
        f"implies p50 {warm_p50 * 1000:.1f}ms: {speedup:.1f}x < {_WARM_GATE}x"
    )


def _chain_workload():
    """The 32-request client stream over one chain specification.

    Thirty-two requests drawn from eight distinct implication queries —
    the serving shape the ISSUE motivates (many clients re-asking a
    stable spec), and the shape where the service's two amortizations
    both engage: coalescing shares validation and the encoding block
    across a batch, and the response cache answers exact repeats.  The
    one-shot side replays the *same* stream, paying a cold start per
    request (fresh parse, cleared encoding caches) the way the
    pre-service CLI did.
    """
    dtd = wide_flat_dtd(9)
    sigma_text = "\n".join(f"t{i}.x <= t{i + 1}.x" for i in range(7))
    distinct = []
    for i in range(8):
        for j in range(8):
            if i != j and len(distinct) < 8:
                distinct.append((f"t{i}.x <= t{j}.x", j > i))
    stream = [distinct[index % len(distinct)] for index in range(_CLIENTS)]
    return dtd, sigma_text, stream


def test_coalesced_batch_throughput_vs_sequential_one_shots():
    """Gate 2: 32 concurrent clients through the batcher >= 2x aggregate
    throughput over 32 sequential one-shot solves."""
    dtd, sigma_text, phis = _chain_workload()
    dtd_text = dtd_to_string(dtd)

    # -- one-shot side: fresh parse, cold encoding caches, per query ----
    from repro.dtd.parser import parse_dtd

    def one_shots() -> float:
        start = time.perf_counter()
        for phi, expected in phis:
            clear_encoding_cache()
            cold = SpecSession(parse_dtd(dtd_text), parse_constraints(sigma_text))
            assert cold.implies(phi)["implied"] is expected
        return time.perf_counter() - start

    sequential = min(one_shots() for _ in range(2))

    # -- coalesced side: 32 concurrent clients against one server -------
    server = _counted_server()
    host, port = server.start_background()

    async def client(phi: str, expected: bool) -> None:
        reader, writer = await asyncio.open_connection(host, port)
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
        writer.close()
        assert response["ok"], response
        assert response["result"]["implied"] is expected, phi

    async def burst() -> None:
        await asyncio.gather(
            *(client(phi, expected) for phi, expected in phis)
        )

    try:
        # Warm the session admission (parse + validate) but none of the
        # 32 query answers, then time the full concurrent burst.
        server.registry.session_for(dtd_text, sigma_text)
        start = time.perf_counter()
        asyncio.run(burst())
        coalesced = time.perf_counter() - start
        stats = server.stats_payload()["server"]
        assert stats["errors"] == 0
        assert stats["batches_coalesced"] >= 1, stats
        assert stats["batch_width"] >= 2
        _assert_one_job_per_batch(server, len(phis))
    finally:
        server.close()

    throughput_gain = sequential / coalesced
    assert throughput_gain >= _BATCH_GATE, (
        f"32 sequential one-shots {sequential * 1000:.0f}ms vs coalesced "
        f"batch {coalesced * 1000:.0f}ms: {throughput_gain:.2f}x < "
        f"{_BATCH_GATE}x aggregate throughput"
    )


#: Shed-mode admitted-request p50 must stay within this factor of the
#: uncontended warm p50 (plus a 5ms floor absorbing event-loop noise on
#: sub-millisecond baselines).
_OVERLOAD_GATE = 2.0


def test_shed_mode_keeps_admitted_request_latency_bounded():
    """Gate 3: under a client flood with ``max_inflight=1``, admitted
    requests answer at uncontended speed (within 2x) while the rest shed
    with structured ``overloaded`` + ``retry_after`` answers."""
    dtd = wide_flat_dtd(9)
    sigma_text = "\n".join(f"t{i}.x <= t{i + 1}.x" for i in range(7))
    dtd_text = dtd_to_string(dtd)
    # 56 distinct queries (every ordered pair), each a genuine solve on
    # first ask; verdict is "implied" exactly when j > i on the chain.
    pairs = [
        (f"t{i}.x <= t{j}.x", j > i)
        for i in range(8)
        for j in range(8)
        if i != j
    ]

    server = _counted_server(max_inflight=1, queue_depth=1)
    host, port = server.start_background()

    def request_for(index: int) -> tuple[dict, bool]:
        phi, expected = pairs[index % len(pairs)]
        return (
            {
                "id": index,
                "op": "implies",
                "dtd": dtd_text,
                "constraints": sigma_text,
                "phi": phi,
            },
            expected,
        )

    async def timed_call(reader, writer, request):
        start = time.perf_counter()
        writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        line = await reader.readline()
        return time.perf_counter() - start, json.loads(line)

    async def uncontended(indices):
        reader, writer = await asyncio.open_connection(host, port)
        samples = []
        for index in indices:
            request, expected = request_for(index)
            elapsed, response = await timed_call(reader, writer, request)
            assert response["ok"], response
            assert response["result"]["implied"] is expected
            samples.append(elapsed)
        writer.close()
        return samples

    async def flood(indices):
        connections = [
            await asyncio.open_connection(host, port) for _ in indices
        ]

        async def one(connection, index):
            reader, writer = connection
            request, expected = request_for(index)
            elapsed, response = await timed_call(reader, writer, request)
            writer.close()
            if response["ok"]:
                assert response["result"]["implied"] is expected
                return ("admitted", elapsed)
            assert response["error"]["type"] == "overloaded", response
            assert response["error"]["retry_after"] > 0
            return ("shed", elapsed)

        return await asyncio.gather(
            *(one(conn, idx) for conn, idx in zip(connections, indices))
        )

    try:
        # Uncontended warm p50: sequential distinct solves after warmup.
        server.registry.session_for(dtd_text, sigma_text)
        warm_samples = asyncio.run(uncontended(range(12)))
        warm_p50 = statistics.median(warm_samples[2:])

        # Shed mode: bursts of 8 simultaneous clients against cap 1.
        admitted, shed = [], 0
        next_index = 12
        for _ in range(20):
            outcomes = asyncio.run(
                flood(range(next_index, next_index + 8))
            )
            next_index += 8
            for kind, elapsed in outcomes:
                if kind == "admitted":
                    admitted.append(elapsed)
                else:
                    shed += 1
            if len(admitted) >= 8:
                break
        assert shed > 0, "the flood never triggered shedding"
        assert admitted, "shedding starved every request"
        stats = server.stats_payload()["server"]
        assert stats["requests_shed"] == shed
        assert stats["errors"] == 0, "sheds must not count as errors"
        # A shed request never reaches the executor.
        _assert_one_job_per_batch(server, len(warm_samples) + len(admitted))

        admitted_p50 = statistics.median(admitted)
        bound = _OVERLOAD_GATE * max(warm_p50, 0.005)
        assert admitted_p50 <= bound, (
            f"shed-mode admitted p50 {admitted_p50 * 1000:.1f}ms vs "
            f"uncontended warm p50 {warm_p50 * 1000:.1f}ms: exceeds "
            f"{_OVERLOAD_GATE}x (+5ms floor) — admission control is not "
            "keeping the queue ahead of admitted requests short"
        )
    finally:
        server.close()


#: Warm HTTP p50 must stay within this factor of the warm line p50
#: (plus a 1ms floor absorbing scheduler noise on sub-millisecond
#: cache-hit roundtrips).
_HTTP_GATE = 2.0

#: A concurrent scraper may move the admitted p50 by at most this factor
#: (again with a small floor: at cache-hit speed a single descheduling
#: is a larger fraction than any real perturbation).
_SCRAPE_GATE = 1.10


def test_warm_http_p50_within_2x_of_warm_line_p50():
    """Gate 4: cache-hit repeats over both transports against ONE live
    server; the HTTP skin (head parse, body frame, answer task) must not
    double the line protocol's roundtrip."""
    import http.client

    from repro.service.http import HTTPFrontend

    dtd, sigma_text, _ = _chain_workload()
    dtd_text = dtd_to_string(dtd)
    request = {
        "id": 0,
        "op": "implies",
        "dtd": dtd_text,
        "constraints": sigma_text,
        "phi": "t0.x <= t1.x",
    }
    body = json.dumps(request)

    server = _counted_server()
    front = HTTPFrontend(server)
    http_address = front.start_background(line_port=0)
    try:
        host, port = server.address

        async def line_samples(repeats: int) -> list:
            reader, writer = await asyncio.open_connection(host, port)
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                writer.write((body + "\n").encode())
                await writer.drain()
                response = json.loads(await reader.readline())
                samples.append(time.perf_counter() - start)
                assert response["ok"] and response["result"]["implied"] is True
            writer.close()
            return samples

        # First ask pays the solve; everything timed after it is a
        # response-cache hit, so both medians measure transport overhead.
        asyncio.run(line_samples(1))
        line_p50 = statistics.median(asyncio.run(line_samples(21)))

        connection = http.client.HTTPConnection(*http_address, timeout=30)
        try:
            samples = []
            for _ in range(21):
                start = time.perf_counter()
                connection.request("POST", "/v1/implies", body=body)
                response = connection.getresponse()
                payload = json.loads(response.read())
                samples.append(time.perf_counter() - start)
                assert response.status == 200
                assert payload["ok"] and payload["result"]["implied"] is True
            http_p50 = statistics.median(samples)
        finally:
            connection.close()
        # Both transports: one executor job per request, all but the
        # first answered from the response cache.
        _assert_one_job_per_batch(server, 1 + 21 + 21)
        assert server.stats.batches == 1 + 21 + 21
        assert server.registry.session_counters()["cache_hits"] == 21 + 21

        bound = _HTTP_GATE * max(line_p50, 0.001)
        assert http_p50 <= bound, (
            f"warm HTTP p50 {http_p50 * 1000:.2f}ms vs warm line p50 "
            f"{line_p50 * 1000:.2f}ms: exceeds {_HTTP_GATE}x (+1ms floor) — "
            "the HTTP skin is no longer thin"
        )
    finally:
        front.close()


def test_metrics_scrape_does_not_perturb_admitted_latency():
    """Gate 5: a continuous ``/metrics`` scraper beside 32 concurrent
    cached-query clients moves the admitted p50 by <= 10% (best-of-N)."""
    from repro.service.http import HTTPFrontend

    dtd, sigma_text, stream = _chain_workload()
    dtd_text = dtd_to_string(dtd)

    server = _counted_server()
    front = HTTPFrontend(server)
    http_address = front.start_background(line_port=0)
    try:
        host, port = server.address

        async def warm() -> None:
            reader, writer = await asyncio.open_connection(host, port)
            for index, (phi, expected) in enumerate(stream):
                request = {
                    "id": index,
                    "op": "implies",
                    "dtd": dtd_text,
                    "constraints": sigma_text,
                    "phi": phi,
                }
                writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"], response
                assert response["result"]["implied"] is expected
            writer.close()

        async def scraper(http_host: str, http_port: int) -> None:
            # ~50 scrapes/sec: orders of magnitude above any production
            # cadence, but paced — a busy loop would measure CPU theft on
            # a small container, not collector interference.
            reader, writer = await asyncio.open_connection(http_host, http_port)
            try:
                while True:
                    writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
                    await writer.drain()
                    length = 0
                    while True:
                        header = await reader.readline()
                        if header.lower().startswith(b"content-length:"):
                            length = int(header.split(b":", 1)[1])
                        if header in (b"\r\n", b"\n"):
                            break
                    page = await reader.readexactly(length)
                    assert b"repro_server_requests_total" in page
                    await asyncio.sleep(0.02)
            except asyncio.CancelledError:
                writer.close()
                raise

        async def admitted_p50(with_scraper: bool) -> float:
            scrape_task = None
            if with_scraper:
                scrape_task = asyncio.ensure_future(scraper(*http_address))
            samples = []

            async def client(offset: int) -> None:
                reader, writer = await asyncio.open_connection(host, port)
                for round_number in range(6):
                    phi, expected = stream[(offset + round_number) % len(stream)]
                    request = {
                        "id": offset,
                        "op": "implies",
                        "dtd": dtd_text,
                        "constraints": sigma_text,
                        "phi": phi,
                    }
                    start = time.perf_counter()
                    writer.write((json.dumps(request) + "\n").encode())
                    await writer.drain()
                    response = json.loads(await reader.readline())
                    samples.append(time.perf_counter() - start)
                    assert response["ok"], response
                    assert response["result"]["implied"] is expected
                writer.close()

            try:
                await asyncio.gather(*(client(i) for i in range(_CLIENTS)))
            finally:
                if scrape_task is not None:
                    scrape_task.cancel()
                    await asyncio.gather(scrape_task, return_exceptions=True)
            return statistics.median(samples)

        asyncio.run(warm())
        # Best-of-N on both sides, rounds interleaved so machine drift
        # (page cache, thermal, CI neighbours) cancels instead of biasing
        # one mode.
        quiet_rounds, scraped_rounds = [], []
        for _ in range(5):
            quiet_rounds.append(asyncio.run(admitted_p50(False)))
            scraped_rounds.append(asyncio.run(admitted_p50(True)))
        quiet = min(quiet_rounds)
        scraped = min(scraped_rounds)
        # Scrapes make no executor job; every query is one cached answer.
        answered = len(stream) + 10 * _CLIENTS * 6
        _assert_one_job_per_batch(server, answered)
        assert server.registry.session_counters()["requests"] == answered

        # 10% relative plus a 2ms absolute floor: at single-digit-ms
        # baselines on a shared container, one descheduling is already
        # larger than any genuine collector interference.
        bound = _SCRAPE_GATE * quiet + 0.002
        assert scraped <= bound, (
            f"admitted p50 under scrape {scraped * 1000:.2f}ms vs quiet "
            f"{quiet * 1000:.2f}ms: scraping perturbs serving beyond "
            f"{(_SCRAPE_GATE - 1) * 100:.0f}% (+2ms floor)"
        )
    finally:
        front.close()
