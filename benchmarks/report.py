#!/usr/bin/env python3
"""Regenerate the paper-shaped summary: Figure 5 plus Figures 1-4.

This standalone harness (not collected by pytest) runs every reproduced
experiment once, measures wall-clock times across the scale sweeps, and
prints a Figure-5-style table plus one line per qualitative experiment.
Its output is the reproduction record for the paper's figures.

Run:  python benchmarks/report.py

Solver perf regression tracking::

    python benchmarks/report.py --write-baseline   # (re)write BENCH_solver.json
    python benchmarks/report.py --compare          # fail on >20% regression
    python benchmarks/report.py --compare --check-only   # CI: counters only

The baseline file records wall time plus the solver's ``dfs_nodes`` and
``leaves_solved`` counters per benchmark, so both time *and* search-effort
regressions are visible.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from collections.abc import Callable
from pathlib import Path

from repro.analysis.diagnostics import diagnose
from repro.checkers.bounded import bounded_consistency
from repro.checkers.consistency import check_consistency, dtd_has_valid_tree
from repro.checkers.implication import implies, implies_all
from repro.checkers.config import CheckerConfig
from repro.dtd.model import DTD
from repro.checkers.keys_only import implies_key_keys_only, keys_only_consistent
from repro.constraints.ast import Key
from repro.constraints.parser import parse_constraint, parse_constraints
from repro.constraints.satisfaction import satisfies_all
from repro.errors import UndecidableProblemError
from repro.reductions.lip import (
    brute_force_binary_solution,
    lip_to_xml,
    random_lip_instance,
)
from repro.relational.constraints import RelKey
from repro.relational.model import RelationSchema, Schema
from repro.relational.reductions import (
    consistency_to_implication,
    relational_implication_to_xml,
)
from repro.workloads.examples import (
    figure1_tree,
    recursive_dtd_d2,
    school_constraints_d3,
    school_document,
    school_dtd_d3,
    sigma1_constraints,
    teachers_dtd_d1,
)
from repro.workloads.generators import (
    fixed_dtd_constraint_family,
    keys_only_family,
    registrar_mus_family,
    star_schema_family,
    teachers_family,
    wide_flat_dtd,
)
from repro.xmltree.validate import conforms

_FAST = CheckerConfig(want_witness=False)


def _time(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median wall-clock milliseconds over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def _series(label: str, points: list[tuple[int, float]], verdict: str) -> None:
    rendered = "  ".join(f"{scale}:{ms:8.2f}ms" for scale, ms in points)
    print(f"  {label:<42} {verdict:<12} {rendered}")


def figure5() -> None:
    print("=" * 100)
    print("Figure 5 — main results (measured; times are medians of 3 runs)")
    print("=" * 100)

    print("\nconsistency row")
    print("-" * 100)

    # Column: multi-attribute keys + foreign keys (undecidable).
    d3, sigma3 = school_dtd_d3(), school_constraints_d3()
    try:
        check_consistency(d3, sigma3)
        verdict = "BUG"
    except UndecidableProblemError:
        verdict = "refused"
    points = [
        (n, _time(lambda n=n: bounded_consistency(d3, sigma3, n)))
        for n in (4, 6, 8)
    ]
    _series("C_K,FK (undecidable; bounded search/nodes)", points, verdict)

    # Column: unary keys + foreign keys (NP-complete).
    points = []
    for dims in (1, 2, 4, 8):
        dtd, sigma = star_schema_family(dims, consistent=True)
        points.append((dims, _time(lambda d=dtd, s=sigma: check_consistency(d, s, _FAST))))
    _series("C^unary_K,FK consistent (star schema/dims)", points, "all SAT")
    points = []
    for subjects in (2, 4, 8, 16):
        dtd, sigma = teachers_family(subjects, consistent=False)
        points.append(
            (subjects, _time(lambda d=dtd, s=sigma: check_consistency(d, s, _FAST)))
        )
    _series("C^unary_K,FK inconsistent (teachers/subjects)", points, "all UNSAT")

    # Column: primary unary (same complexity, Cor. 4.8) via the Figure-4 family.
    points = []
    for size in (2, 3, 4):
        instance = random_lip_instance(size, size, 0.5, seed=size * 7)
        reduction = lip_to_xml(instance)
        oracle = brute_force_binary_solution(instance) is not None
        result = check_consistency(reduction.dtd, reduction.sigma, _FAST)
        assert result.consistent == oracle
        points.append(
            (
                size,
                _time(
                    lambda r=reduction: check_consistency(r.dtd, r.sigma, _FAST)
                ),
            )
        )
    _series("primary C^unary_K,FK (Thm 4.7 family/m=n)", points, "oracle-ok")

    # Column: fixed DTD (PTIME).
    points = []
    for count in (4, 16, 64, 128):
        dtd, sigma = fixed_dtd_constraint_family(count)
        points.append(
            (count, _time(lambda d=dtd, s=sigma: check_consistency(d, s, _FAST)))
        )
    _series("fixed DTD, unary (PTIME /|Sigma|)", points, "all SAT")

    # Column: keys only (linear time).
    points = []
    for scale in (4, 16, 64, 256):
        dtd, sigma = keys_only_family(scale)
        points.append(
            (scale, _time(lambda d=dtd, s=sigma: keys_only_consistent(d, s)))
        )
    _series("C_K keys only (linear /scale)", points, "all SAT")

    print("\nimplication row")
    print("-" * 100)

    # Keys only: linear.
    points = []
    for scale in (4, 16, 64, 256):
        dtd, sigma = keys_only_family(scale)
        phi = Key(f"rec{scale // 2}", ("a", "b", "c"))
        points.append(
            (scale, _time(lambda d=dtd, s=sigma, p=phi: implies_key_keys_only(d, s, p)))
        )
    _series("C_K implication (linear /scale)", points, "all implied")

    # Unary keys (coNP, Thm 4.10) and inclusions (Thm 5.4).
    points = []
    for dims in (1, 2, 4):
        dtd, sigma = star_schema_family(dims, consistent=True)
        phi = parse_constraint("dim0.id -> dim0")
        points.append(
            (dims, _time(lambda d=dtd, s=sigma, p=phi: implies(d, s, p, _FAST)))
        )
    _series("unary key implication (coNP /dims)", points, "all implied")
    points = []
    for dims in (1, 2, 4):
        dtd, sigma = star_schema_family(dims, consistent=True)
        phi = parse_constraint("fact.ref0 <= dim0.id")
        points.append(
            (dims, _time(lambda d=dtd, s=sigma, p=phi: implies(d, s, p, _FAST)))
        )
    _series("unary IC implication (Thm 5.1 /dims)", points, "all implied")


def qualitative() -> None:
    print()
    print("=" * 100)
    print("Figures 1-4 and the worked examples")
    print("=" * 100)

    d1, sigma1 = teachers_dtd_d1(), sigma1_constraints()
    doc = figure1_tree()
    line1 = (
        f"F1  Figure-1 doc: conforms={bool(conforms(doc, d1))}, "
        f"satisfies Sigma1={satisfies_all(doc, sigma1)}; "
        f"(D1,Sigma1) consistent={check_consistency(d1, sigma1).consistent}"
    )
    print(line1)

    d2 = recursive_dtd_d2()
    print(f"D2  has valid tree={dtd_has_valid_tree(d2)} (expected False)")

    d3 = school_dtd_d3()
    doc3 = school_document()
    witness = bounded_consistency(d3, school_constraints_d3(), max_nodes=4)
    print(
        f"D3  document valid={bool(conforms(doc3, d3))}, "
        f"satisfies={satisfies_all(doc3, school_constraints_d3())}, "
        f"bounded witness nodes={witness.size() if witness else None}"
    )

    schema = Schema((RelationSchema("R", ("x", "y")),))
    red = relational_implication_to_xml(schema, [], RelKey("R", ("x",)))
    found = bounded_consistency(red.dtd, red.sigma, max_nodes=10)
    red2 = relational_implication_to_xml(
        schema, [RelKey("R", ("x",))], RelKey("R", ("x",))
    )
    gone = bounded_consistency(red2.dtd, red2.sigma, max_nodes=8)
    print(
        f"F2  Thm 3.1: not-implied -> consistent={found is not None}; "
        f"implied -> consistent={gone is not None}"
    )

    checks = []
    for consistent in (True, False):
        dtd, sigma = teachers_family(2, consistent=consistent)
        r = consistency_to_implication(dtd)
        lhs = check_consistency(dtd, sigma).consistent
        rhs = implies(r.dtd_prime, [*sigma, r.ell, r.phi2], r.phi1).implied
        checks.append(lhs == (not rhs))
    print(f"F3  Lemma 3.3 equivalence on SAT/UNSAT inputs: {checks}")

    agreements = 0
    for seed in range(8):
        instance = random_lip_instance(3, 3, 0.55, seed=seed)
        reduction = lip_to_xml(instance)
        oracle = brute_force_binary_solution(instance) is not None
        got = check_consistency(reduction.dtd, reduction.sigma, _FAST).consistent
        agreements += got == oracle
    print(f"F4  Thm 4.7: checker vs brute-force oracle agreement: {agreements}/8")

    sigma_neg = parse_constraints("t0.x <= t1.x\nt1.x <= t0.x\nt0.x !<= t1.x")
    wide = DTD.build(
        "r", {"r": "(t0*, t1*)", "t0": "EMPTY", "t1": "EMPTY"},
        attrs={"t0": ["x"], "t1": ["x"]},
    )
    print(
        "T51 negated-inclusion contradiction detected: "
        f"{not check_consistency(wide, sigma_neg).consistent}"
    )


# ---------------------------------------------------------------------------
# Solver perf regression tracking (BENCH_solver.json)
# ---------------------------------------------------------------------------

_BASELINE_PATH = Path(__file__).parent / "BENCH_solver.json"

#: Wall-clock of the same three workloads measured at the seed commit
#: (09ce4bb, pre-incremental solver) on the reference container — kept so
#: the recorded speedup of the assemble-once/bound-patch core stays
#: visible in the baseline file.
_SEED_MS = {
    "figure5_implication": 27.33,
    "figure5_unary": 39.06,
    "theorem51_negations": 47.21,
}

#: Fail --compare when current wall time exceeds baseline by this factor.
_REGRESSION_FACTOR = 1.20


#: Shared wide-DTD builder (one definition for benchmarks and tests).
_wide_dtd = wide_flat_dtd


def _solver_workloads() -> dict[str, Callable[[], list]]:
    """The three solver-spine workloads tracked by BENCH_solver.json.

    Instances are built outside the timed closures (pytest-benchmark
    style): only the checker calls are measured.  Each closure returns the
    checker results so search counters can be aggregated.
    """
    impl_cases = []
    for dims in (1, 2, 4):
        dtd, sigma = star_schema_family(dims, consistent=True)
        phis = [
            parse_constraint("dim0.id -> dim0"),
            parse_constraint("fact.ref0 <= dim0.id"),
        ]
        impl_cases.append((dtd, sigma, phis))

    unary_cases = []
    for dims in (1, 2, 4, 8):
        unary_cases.append(star_schema_family(dims, consistent=True))
        unary_cases.append(star_schema_family(dims, consistent=False))
    for subjects in (2, 4, 8, 16):
        unary_cases.append(teachers_family(subjects, consistent=False))

    # Certified-pipeline cases (exact backend, no float assistance): the
    # closed-chain contradictions re-solve one system under many bound
    # patches, which is precisely what the warm-started simplex speeds up.
    exact_config = CheckerConfig(
        want_witness=False, backend="exact", lp_prune=False
    )
    exact_cases = []
    for active in (2, 3, 4):
        chain = [f"t{i}.x <= t{(i + 1) % active}.x" for i in range(active)]
        exact_cases.append(
            (
                _wide_dtd(active),
                parse_constraints("\n".join(chain + ["t0.x !<= t1.x"])),
            )
        )
    exact_cases.append(
        (
            _wide_dtd(2),
            parse_constraints("t0.x !-> t0\nt1.x !-> t1"),
        )
    )

    neg_cases = []
    for scale in (2, 4, 6, 8):
        neg_cases.append(
            (
                _wide_dtd(scale),
                parse_constraints(
                    "\n".join(f"t{i}.x !-> t{i}" for i in range(scale))
                ),
            )
        )
    for active in (2, 4, 6, 8):
        neg_cases.append(
            (
                _wide_dtd(active),
                parse_constraints(
                    "\n".join(
                        f"t{i}.x !<= t{(i + 1) % active}.x"
                        for i in range(active)
                    )
                ),
            )
        )
    for active in (2, 4, 6):
        chain = [f"t{i}.x <= t{i + 1}.x" for i in range(active)]
        neg_cases.append(
            (
                _wide_dtd(active + 1),
                parse_constraints(
                    "\n".join(chain + [f"t{active}.x !<= t0.x"])
                ),
            )
        )

    # Diagnostics cases (ISSUE 3): subset-probing workloads served by row
    # toggles on one assembled system — an audit with vacuous keys plus
    # independent negated keys, an inclusion chain with its transitive
    # shortcut, and a MUS hunt buried under filler keys (the families of
    # benchmarks/bench_diagnostics.py at report-friendly sizes).
    diag_cases = []
    for scale in (6, 8):
        parts = [f"t{i}*" for i in range(scale)] + [f"s{i}" for i in range(scale)]
        content = {"r": "(" + ", ".join(parts) + ")"}
        content.update({f"t{i}": "EMPTY" for i in range(scale)})
        content.update({f"s{i}": "EMPTY" for i in range(scale)})
        attrs = {f"t{i}": ["x"] for i in range(scale)}
        attrs.update({f"s{i}": ["x"] for i in range(scale)})
        diag_cases.append(
            (
                DTD.build("r", content, attrs=attrs),
                parse_constraints(
                    "\n".join(
                        [f"s{i}.x -> s{i}" for i in range(scale)]
                        + [f"t{i}.x !-> t{i}" for i in range(scale)]
                    )
                ),
            )
        )
    chain = [f"t{i}.x <= t{i + 1}.x" for i in range(5)] + ["t0.x <= t5.x"]
    diag_cases.append((_wide_dtd(6), parse_constraints("\n".join(chain))))
    diag_cases.append(registrar_mus_family(8))

    class _DiagResult:
        """Adapter: expose DiagnosticsStats under the checker-stats keys."""

        def __init__(self, report):
            assert report.stats.assemblies <= 1, "toggled path regressed"
            self.stats = report.stats.checker_stats()

    # Multi-branch implication batch: twelve queries whose certified
    # support searches branch (LP pruning off), answered in one process.
    par_dtd = _wide_dtd(5)
    par_sigma = parse_constraints(
        "\n".join(f"t{i}.x <= t{i + 1}.x" for i in range(3))
    )
    par_phis = []
    for i in range(3):
        for j in range(i + 1, 4):
            par_phis.append(parse_constraint(f"t{i}.x <= t{j}.x"))
            par_phis.append(parse_constraint(f"t{j}.x <= t{i}.x"))
    par_config = CheckerConfig(want_witness=False, backend="exact", lp_prune=False)

    # QuickXplain MUS case (ISSUE 4): the registrar conflict buried under
    # filler keys; probes must stay below the deletion filter's |Sigma|.
    from repro.analysis.diagnostics import DiagnosticsStats, mus

    qx_dtd, qx_sigma = diag_cases[-1]

    class _MusResult:
        """Adapter: run + verify one QuickXplain MUS, expose its counters."""

        def __init__(self, dtd, sigma):
            mus_stats = DiagnosticsStats()
            core = mus(dtd, sigma, stats=mus_stats)
            assert len(core) == 2, "registrar core regressed"
            assert mus_stats.mus_probes < len(sigma), (
                "quickxplain probe count regressed to the deletion filter's"
            )
            self.stats = mus_stats.checker_stats()

    # Repair case (ISSUE 10): the registrar conflict repaired end to end
    # — hitting sets, shadow-row probes, core extraction and the final
    # verification check, all on one assembled workspace.
    from repro.analysis.repair import RepairStats, minimal_repair

    class _RepairResult:
        """Adapter: run + verify one minimal repair, expose its counters."""

        def __init__(self, dtd, sigma):
            repair_stats = RepairStats()
            repair = minimal_repair(dtd, sigma, stats=repair_stats)
            assert repair.found and repair.verified, "registrar repair regressed"
            assert repair.cost == 1, "registrar repair cost regressed"
            assert repair_stats.assemblies == 1, "repair re-assembled"
            self.stats = repair_stats.checker_stats()

    # Service case (ISSUE 5): the serving hot path — one replay-mode
    # session answering the 32-request stream (8 distinct implication
    # queries, 24 exact repeats).  Counters are deterministic: the eight
    # misses run the ordinary solver path, and the 24 response-cache
    # hits replay their recorded stats (so a caching regression shows up
    # as a wall-time regression, and a solver regression as a counter
    # regression).
    from repro.service.session import SpecSession

    service_dtd = _wide_dtd(9)
    service_sigma = parse_constraints(
        "\n".join(f"t{i}.x <= t{i + 1}.x" for i in range(7))
    )
    service_phis = []
    for i in range(8):
        for j in range(8):
            if i != j and len(service_phis) < 8:
                service_phis.append(f"t{i}.x <= t{j}.x")
    service_stream = [service_phis[k % 8] for k in range(32)]

    class _ServiceResult:
        """Adapter: expose a response payload's solver counters."""

        def __init__(self, payload):
            self.stats = payload["stats"]

    def _service_workload() -> list:
        session = SpecSession(service_dtd, service_sigma)
        payloads = [session.implies(phi) for phi in service_stream]
        assert session.stats.cache_hits == len(service_stream) - 8, (
            "response cache regressed"
        )
        return [_ServiceResult(payload) for payload in payloads]

    # Metrics case (ISSUE 8): the same 32-request stream answered through
    # the *full* server dispatch — admission control, deadline plumbing,
    # per-op latency histograms and the namespaced collector — followed
    # by one Prometheus render.  Search counters stay byte-identical to
    # the `service` entry (the collector observes, it never steers), so
    # this entry isolates the observability overhead on the serving hot
    # path: a collector regression shows up as wall time against the
    # same counters.
    from repro.dtd.serializer import dtd_to_string
    from repro.service.registry import SessionRegistry
    from repro.service.server import CheckingServer

    metrics_dtd_text = dtd_to_string(service_dtd)
    metrics_sigma_text = "\n".join(str(phi) for phi in service_sigma)

    def _metrics_workload() -> list:
        server = CheckingServer(SessionRegistry())

        async def replay():
            responses = []
            for index, phi in enumerate(service_stream):
                line = json.dumps(
                    {
                        "id": index,
                        "op": "implies",
                        "dtd": metrics_dtd_text,
                        "constraints": metrics_sigma_text,
                        "phi": phi,
                    }
                )
                responses.append(await server.handle_request(line))
            return responses

        responses = asyncio.run(replay())
        rendered = server.render_metrics()
        assert (
            f"repro_server_requests_total {len(service_stream)}" in rendered
        ), "the scrape lost the request counter"
        assert 'op="implies"' in rendered, "per-op histograms regressed"
        server.executor.shutdown(wait=False)
        for response in responses:
            assert response["ok"], response
        return [_ServiceResult(response["result"]) for response in responses]

    # Fleet case: the routed serving path — eight disjoint sessions
    # sharded over two live backends plus one fanned ``implies_all``
    # batch (wave dispatch, chunk merge).
    # Search counters stay deterministic (the ring split is a pure
    # function of the fingerprints), so this entry isolates the
    # router's wire overhead: a routing regression shows up as wall
    # time against unchanged counters.
    from repro.service.fleet import FleetRouter

    fleet_specs = []
    for index in range(8):
        chain = [f"t{i}.x <= t{i + 1}.x" for i in range(7)]
        chain.append(f"t{index}.x <= t{(index + 2) % 8}.x")
        fleet_specs.append("\n".join(chain))
    fleet_batch = [f"t0.x <= t{j}.x" for j in range(2, 8)]

    def _fleet_workload() -> list:
        backends = [CheckingServer(SessionRegistry()) for _ in range(2)]
        addresses = [
            "%s:%d" % backend.start_background() for backend in backends
        ]
        router = FleetRouter(addresses, wave_chunk=2)
        router.start_background()
        try:

            async def replay():
                host, port = router.address
                reader, writer = await asyncio.open_connection(host, port)
                responses = []
                for index, sigma_text in enumerate(fleet_specs):
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "id": index,
                                    "op": "implies",
                                    "dtd": metrics_dtd_text,
                                    "constraints": sigma_text,
                                    "phi": "t0.x <= t4.x",
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                writer.write(
                    (
                        json.dumps(
                            {
                                "id": "batch",
                                "op": "implies_all",
                                "dtd": metrics_dtd_text,
                                "constraints": fleet_specs[0],
                                "phis": fleet_batch,
                            }
                        )
                        + "\n"
                    ).encode()
                )
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
                writer.close()
                return responses

            responses = asyncio.run(replay())
            assert router.stats.waves >= 1, "the batch never fanned out"
            assert router.stats.backends_lost == 0
        finally:
            router.close()
            for backend in backends:
                backend.close()
        results = []
        for response in responses:
            assert response["ok"], response
            result = response["result"]
            if "results" in result:
                for item in result["results"]:
                    assert item["implied"] is True
                    results.append(_ServiceResult(item))
            else:
                assert result["implied"] is True
                results.append(_ServiceResult(result))
        return results

    return {
        "figure5_implication": lambda: [
            result
            for dtd, sigma, phis in impl_cases
            for result in implies_all(dtd, sigma, phis, _FAST)
        ],
        "figure5_unary": lambda: [
            check_consistency(dtd, sigma, _FAST) for dtd, sigma in unary_cases
        ],
        "theorem51_negations": lambda: [
            check_consistency(dtd, sigma, _FAST) for dtd, sigma in neg_cases
        ],
        "exact_warmstart": lambda: [
            check_consistency(dtd, sigma, exact_config)
            for dtd, sigma in exact_cases
        ],
        "diagnostics": lambda: [
            _DiagResult(diagnose(dtd, sigma, _FAST)) for dtd, sigma in diag_cases
        ],
        "implication_batch": lambda: implies_all(
            par_dtd, par_sigma, par_phis, par_config
        ),
        "quickxplain": lambda: [_MusResult(qx_dtd, qx_sigma)],
        "repair": lambda: [_RepairResult(qx_dtd, qx_sigma)],
        "service": _service_workload,
        "metrics": _metrics_workload,
        "fleet": _fleet_workload,
    }


def _time_min(fn: Callable[[], object], repeats: int = 9) -> float:
    """Best-of-N wall-clock milliseconds — far more stable than a median
    at the few-millisecond scale the incremental solver runs at."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - start) * 1000)
    return best


def solver_benchmarks() -> dict[str, dict[str, float | int]]:
    """Measure the tracked workloads: wall time plus search counters."""
    measurements: dict[str, dict[str, float | int]] = {}
    for name, workload in _solver_workloads().items():
        results = workload()  # warm-up (fills the encoding cache) + counters
        dfs_nodes = sum(r.stats.get("dfs_nodes", 0) for r in results)
        leaves = sum(r.stats.get("leaves", 0) for r in results)
        entry: dict[str, float | int] = {
            "ms": round(_time_min(workload), 3),
            "dfs_nodes": dfs_nodes,
            "leaves_solved": leaves,
            "exact_nodes": sum(r.stats.get("exact_nodes", 0) for r in results),
            "exact_pivots": sum(
                r.stats.get("exact_pivots", 0) for r in results
            ),
        }
        seed_ms = _SEED_MS.get(name)
        if seed_ms is not None:
            entry["seed_ms"] = seed_ms
            entry["speedup_vs_seed"] = round(seed_ms / entry["ms"], 2)
        measurements[name] = entry
    return measurements


def write_baseline(path: Path = _BASELINE_PATH) -> None:
    """Write BENCH_solver.json from a fresh measurement."""
    payload = {
        "note": (
            "Solver-spine benchmark baseline; regenerate with "
            "`python benchmarks/report.py --write-baseline`, check with "
            "`--compare` (fails on >20% wall-time regression). Absolute ms "
            "are machine-relative: regenerate on the machine that runs "
            "--compare before comparing across hosts. seed_ms was measured "
            "at the pre-incremental seed commit on the reference container."
        ),
        "benchmarks": solver_benchmarks(),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written to {path}")
    for name, entry in payload["benchmarks"].items():
        print(
            f"  {name:<24} {entry['ms']:8.2f}ms  dfs_nodes={entry['dfs_nodes']}"
            f"  leaves={entry['leaves_solved']}"
            + (
                f"  speedup_vs_seed={entry['speedup_vs_seed']}x"
                if "speedup_vs_seed" in entry
                else ""
            )
        )


#: Slack on the deterministic search counters before --compare fails: the
#: workloads are fixed, so any growth means solver behavior changed, but a
#: few extra nodes from solver-version drift should not hard-fail the gate.
_COUNTER_SLACK = 8


def compare_with_baseline(
    path: Path = _BASELINE_PATH, check_only: bool = False
) -> int:
    """Re-measure; fail (exit 1) on >20% wall-time regression or on
    search-effort growth (``dfs_nodes``/``leaves_solved``) beyond slack.

    ``check_only`` drops the wall-time gate and keeps the correctness
    and search-counter gates — the CI mode: absolute milliseconds are
    machine-relative (the committed baseline was measured on the dev
    container), but the deterministic counters must match anywhere.
    """
    if not path.exists():
        print(f"no baseline at {path}; run --write-baseline first", file=sys.stderr)
        return 2
    baseline = json.loads(path.read_text())["benchmarks"]
    current = solver_benchmarks()
    failed = False
    for name, entry in current.items():
        base = baseline.get(name)
        if base is None:
            print(f"  {name:<24} NEW {entry['ms']:8.2f}ms (not in baseline)")
            continue
        ratio = entry["ms"] / base["ms"]
        problems = []
        if ratio > _REGRESSION_FACTOR and not check_only:
            problems.append(f"time (>{int((_REGRESSION_FACTOR - 1) * 100)}%)")
        for counter, slack in (
            ("dfs_nodes", _COUNTER_SLACK),
            ("leaves_solved", _COUNTER_SLACK),
            ("exact_nodes", _COUNTER_SLACK),
            # Pivot counts are larger in magnitude; allow matching slack.
            ("exact_pivots", _COUNTER_SLACK * 8),
        ):
            baseline_count = base.get(counter, 0)
            if entry.get(counter, 0) > baseline_count + slack:
                problems.append(
                    f"{counter} {baseline_count} -> {entry.get(counter, 0)}"
                )
        verdict = "ok" if not problems else "REGRESSION: " + ", ".join(problems)
        failed = failed or bool(problems)
        print(
            f"  {name:<24} {base['ms']:8.2f}ms -> {entry['ms']:8.2f}ms "
            f"({ratio:5.2f}x)  dfs={entry['dfs_nodes']} leaves={entry['leaves_solved']}  "
            f"{verdict}"
        )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="measure the solver workloads and write BENCH_solver.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="measure and fail on >20%% wall-time regression vs the baseline",
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="with --compare: drop the wall-time gate, keep the "
        "correctness and search-counter gates (the CI mode — baseline "
        "milliseconds are machine-relative, counters are not)",
    )
    args = parser.parse_args(argv)
    if args.write_baseline:
        write_baseline()
        return 0
    if args.compare:
        return compare_with_baseline(check_only=args.check_only)
    figure5()
    qualitative()
    return 0


if __name__ == "__main__":
    sys.exit(main())
