"""Golden-file round-trip for the metrics surface (ISSUE 8).

The contract under test: every metric documented in
:data:`repro.service.metrics.METRICS` is present in a ``GET /metrics``
scrape, carries its documented type, and — for counters — is monotone
across scrapes under load (including across session eviction, the case
the retired-counter accumulation exists for).  The scrape is re-parsed
with a tiny test-side exposition parser, so a formatting regression
(missing ``# TYPE``, label syntax, counter suffix) fails here rather
than in a real Prometheus server.
"""

from __future__ import annotations

import http.client
from pathlib import Path

import pytest

from repro.service.client import ServiceClient
from repro.service.http import HTTPFrontend
from repro.service.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM_BUCKETS,
    METRICS,
    AdaptiveJobsController,
    LatencyHistogram,
    StatsCollector,
    render_prometheus,
)
from repro.service.registry import SessionRegistry
from repro.service.server import CheckingServer
from repro.ilp.condsys import effective_parallelism

GOLDEN = Path(__file__).parent / "data" / "metrics_golden.prom"

DTD = """
<!ELEMENT db (item*, extra*)>
<!ELEMENT item EMPTY>
<!ELEMENT extra EMPTY>
<!ATTLIST item id CDATA #REQUIRED>
<!ATTLIST extra ref CDATA #REQUIRED>
"""
SIGMA = "item.id -> item\nextra.ref <= item.id"


# -- the tiny exposition parser ------------------------------------------


def parse_exposition(text: str):
    """``(types, samples)``: metric name -> type, and
    ``(name, sorted-label-tuple) -> float`` for every sample line."""
    types: dict[str, str] = {}
    samples: dict[tuple, float] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
        elif line.startswith("#") or not line:
            continue
        else:
            name_part, value = line.rsplit(" ", 1)
            if "{" in name_part:
                name, raw = name_part[:-1].split("{", 1)
                labels = tuple(sorted(part.strip() for part in raw.split(",")))
            else:
                name, labels = name_part, ()
            samples[(name, labels)] = float(value)
    return types, samples


def scrape(address) -> str:
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        return response.read().decode("utf-8")
    finally:
        conn.close()


def apply_load(address, round_number: int) -> int:
    """One load round: a coalescible implies burst plus the other ops.

    Returns the number of session-op requests sent (each lands in the
    per-op latency histograms exactly once).
    """
    del round_number  # repeats replay from cache; the wire counters still move
    with ServiceClient(*address) as client:
        burst = [
            {
                "op": "implies",
                "dtd": DTD,
                "constraints": SIGMA,
                "phi": ["item.id -> item", "extra.ref <= item.id"][i % 2],
            }
            for i in range(4)
        ]
        responses = client.call_many(burst)
        assert all(r["ok"] for r in responses), responses
        single = [
            {"op": "check", "dtd": DTD, "constraints": SIGMA},
            {"op": "validate", "dtd": DTD, "constraints": SIGMA,
             "document": '<db><item id="a"/></db>'},
            {"op": "open", "dtd": DTD, "constraints": SIGMA},
        ]
        for request in single:
            assert client.call(request)["ok"]
    return len(burst) + len(single)


@pytest.fixture
def served():
    server = CheckingServer(SessionRegistry(max_sessions=4))
    front = HTTPFrontend(server)
    address = front.start_background(line_port=0)
    try:
        yield front, address, server.address
    finally:
        front.close()


# -- the golden file ------------------------------------------------------


def test_zero_state_render_matches_golden_file():
    """The empty-collector exposition is byte-stable (names, types, help
    text, ordering); regenerate with
    ``python -c "from repro.service.metrics import render_prometheus;
    print(render_prometheus({}), end='')" > tests/data/metrics_golden.prom``.
    """
    assert render_prometheus({}) == GOLDEN.read_text()


def test_golden_file_documents_every_metric():
    types, samples = parse_exposition(GOLDEN.read_text())
    for spec in METRICS.values():
        assert types.get(spec.name) == spec.kind, spec.key
        assert (spec.name, ()) in samples, spec.key


# -- the live round trip --------------------------------------------------


def test_every_documented_metric_present_typed_and_monotone(served):
    front, address, line_address = served
    sent = apply_load(line_address, 1)
    first_types, first = parse_exposition(scrape(address))
    apply_load(line_address, 2)
    second_types, second = parse_exposition(scrape(address))

    for spec in METRICS.values():
        assert first_types.get(spec.name) == spec.kind, spec.key
        assert (spec.name, ()) in first, f"{spec.key} missing from scrape"
        if spec.kind == COUNTER:
            assert second[(spec.name, ())] >= first[(spec.name, ())], spec.key
    assert set(first_types.values()) <= {COUNTER, GAUGE, "histogram"}

    # Spot-check the load actually moved the counters the ISSUE names.
    assert second[("repro_server_requests_total", ())] > first[
        ("repro_server_requests_total", ())
    ]
    assert first[("repro_registry_session_hits_total", ())] >= 0
    assert second[("repro_session_requests_total", ())] >= sent


def test_op_latency_histogram_counts_requests(served):
    front, address, line_address = served
    apply_load(line_address, 1)
    types, samples = parse_exposition(scrape(address))
    assert types["repro_request_latency_seconds"] == "histogram"
    implies_count = samples[("repro_request_latency_seconds_count", ('op="implies"',))]
    assert implies_count == 4.0
    # Buckets are cumulative and end at +Inf == _count.
    inf = samples[
        ("repro_request_latency_seconds_bucket", ('le="+Inf"', 'op="implies"'))
    ]
    assert inf == implies_count
    running = 0.0
    for bound in HISTOGRAM_BUCKETS:
        rendered = int(bound) if bound == int(bound) else bound
        le = f'le="{rendered}"'
        cumulative = samples[
            ("repro_request_latency_seconds_bucket", (le, 'op="implies"'))
        ]
        assert cumulative >= running
        running = cumulative
    assert samples[("repro_request_latency_seconds_sum", ('op="implies"',))] >= 0


def test_stats_op_counters_are_namespaced_and_match_scrape(served):
    front, address, line_address = served
    apply_load(line_address, 1)
    with ServiceClient(*line_address) as client:
        payload = client.call({"op": "stats"})["result"]
    counters = payload["counters"]
    assert counters, "stats op lost its namespaced counters"
    prefixes = {key.split(".", 1)[0] for key in counters}
    assert prefixes <= {"server", "registry", "session", "pool"}, prefixes
    # No flat-merge shadowing: the nested legacy sections carry a
    # 'sessions'/'session_hits' collision surface; the flat view cannot.
    assert all("." in key for key in counters)
    # The scrape and the stats op read the same snapshot: keys that the
    # stats op itself does not advance must agree exactly.
    _, samples = parse_exposition(scrape(address))
    for key in ("session.requests", "session.cache_hits", "registry.sessions_opened"):
        name = "repro_" + key.replace(".", "_") + "_total"
        assert samples[(name, ())] == counters[key], key


def test_session_counters_stay_monotone_across_eviction():
    server = CheckingServer(SessionRegistry(max_sessions=1))
    front = HTTPFrontend(server)
    address = front.start_background(line_port=0)
    try:
        specs = [
            (DTD, SIGMA),
            ("<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>\n<!ATTLIST a k CDATA #REQUIRED>",
             "a.k -> a"),
        ]
        last = None
        with ServiceClient(*server.address) as client:
            for round_number in range(4):
                dtd, sigma = specs[round_number % 2]
                response = client.call(
                    {"op": "check", "dtd": dtd, "constraints": sigma}
                )
                assert response["ok"]
                _, samples = parse_exposition(scrape(address))
                value = samples[("repro_session_requests_total", ())]
                if last is not None:
                    assert value > last, "eviction rolled session.* backwards"
                last = value
        assert server.registry.core_stats()["sessions_evicted"] >= 3
    finally:
        front.close()


# -- unit: histogram, collector, controller -------------------------------


def test_latency_histogram_buckets():
    histogram = LatencyHistogram()
    histogram.observe(0.0)
    histogram.observe(0.3)
    histogram.observe(1e9)
    snapshot = dict(histogram.snapshot())
    assert snapshot[0.0005] == 1
    assert snapshot[0.5] == 2
    assert snapshot[float("inf")] == 3
    assert histogram.count == 3
    assert histogram.total == pytest.approx(0.3 + 1e9)


def test_collector_absorbs_solver_stats_and_retires_sessions():
    collector = StatsCollector()
    collector.absorb_solver_stats({"workers_spawned": 2, "dfs_nodes": 99})
    collector.absorb_solver_stats({"workers_spawned": 1})
    collector.absorb_solver_stats(None)
    collector.retire_session({"requests": 5, "cache_hits": 2})
    counters = collector.counters()
    assert counters["pool.workers_spawned"] == 3
    assert "pool.dfs_nodes" not in counters  # only pool counters cross over
    assert counters["session.requests"] == 5


def test_adaptive_controller_clamps_to_effective_parallelism():
    ceiling = effective_parallelism()
    controller = AdaptiveJobsController(target_latency=0.01)
    assert controller.ceiling == max(1, ceiling)
    for _ in range(64):
        controller.observe_solve(10.0)
        assert 1 <= controller.current() <= ceiling
    for _ in range(64):
        controller.observe_solve(0.0)
        assert 1 <= controller.current() <= ceiling
    assert controller.current() == 1


def test_adaptive_controller_grows_and_shrinks_with_latency():
    collector = StatsCollector()
    controller = AdaptiveJobsController(
        target_latency=0.1, ceiling=4, collector=collector
    )
    for _ in range(6):
        controller.observe_solve(1.0)
    assert controller.current() == 4
    assert controller.grown >= 3
    for _ in range(12):
        controller.observe_solve(0.001)
    assert controller.current() == 1
    assert controller.shrunk >= 1
    counters = collector.counters()
    assert counters["pool.jobs_grown"] == controller.grown
    assert counters["pool.jobs_shrunk"] == controller.shrunk
    assert counters["pool.effective_jobs"] == 1
