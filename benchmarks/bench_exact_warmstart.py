"""Warm-started certified simplex benchmarks (ISSUE 2 acceptance gate).

The exact backend re-solves one system many times: per support leaf, per
connectivity-cut round, and per branch-and-bound node.  Warm starts turn
each re-solve into a handful of dual-simplex pivots on the parent's
factorized basis; cold starts refactorize from the all-slack basis every
node (the :func:`tests.oracles.exact_cold` oracle, which certifies every
materialized leaf from scratch).  These benchmarks time the certified
pipeline both ways on the Theorem-5.1 negation families of
``bench_theorem51_negations.py`` and assert the headline claim: **>= 2x
node-throughput for warm over cold**.

Runs are fully certified end to end (``lp_prune=False`` keeps the float
engine out of the loop entirely), so what is measured is exactly the
rational simplex the warm-start rewrite targets.  Every benchmark also
asserts the verdicts, per the suite's fast-nonsense policy.
"""

import time
from contextlib import nullcontext

import pytest

from repro.checkers.config import CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from tests.oracles import exact_cold

CERTIFIED = CheckerConfig(want_witness=False, backend="exact", lp_prune=False)


def _wide_dtd(num_types: int) -> DTD:
    content = {"r": "(" + ", ".join(f"t{i}*" for i in range(num_types)) + ")"}
    content.update({f"t{i}": "EMPTY" for i in range(num_types)})
    return DTD.build(
        "r", content, attrs={f"t{i}": ["x"] for i in range(num_types)}
    )


def _closed_chain(active: int):
    """An inclusion cycle closed into contradiction — UNSAT, so the
    support search visits many leaves and the exact backend re-solves
    the same system under many different bound patches."""
    chain = [f"t{i}.x <= t{(i + 1) % active}.x" for i in range(active)]
    return (
        _wide_dtd(active),
        parse_constraints("\n".join(chain + ["t0.x !<= t1.x"])),
    )


def _negated_keys(scale: int):
    """One negated key per type — SAT with a two-per-type witness."""
    return (
        _wide_dtd(scale),
        parse_constraints("\n".join(f"t{i}.x !-> t{i}" for i in range(scale))),
    )


def _throughput_workload():
    """The negation instances whose certified searches do real work."""
    cases = [(_closed_chain(active), False) for active in (2, 3, 4, 5, 6)]
    cases += [(_negated_keys(scale), True) for scale in (2, 3)]
    return cases


@pytest.mark.parametrize("active", [2, 4, 6])
def test_exact_warm_closed_chain(benchmark, active):
    dtd, sigma = _closed_chain(active)
    result = benchmark(check_consistency, dtd, sigma, CERTIFIED)
    assert not result.consistent


@pytest.mark.parametrize("scale", [2, 4])
def test_exact_warm_negated_keys(benchmark, scale):
    dtd, sigma = _negated_keys(scale)
    result = benchmark(check_consistency, dtd, sigma, CERTIFIED)
    assert result.consistent


@pytest.mark.parametrize("active", [2, 4])
def test_exact_cold_closed_chain(benchmark, active):
    """Cold ablation of the same instances, for the comparison table."""
    dtd, sigma = _closed_chain(active)
    with exact_cold():
        result = benchmark(check_consistency, dtd, sigma, CERTIFIED)
    assert not result.consistent


def _run_workload(engine) -> tuple[float, int, int]:
    """(best-of-3 seconds, exact nodes, exact pivots) over the workload,
    run inside the ``engine`` context."""
    best = float("inf")
    nodes = pivots = 0
    with engine():
        for _ in range(3):
            start = time.perf_counter()
            nodes = pivots = 0
            for (dtd, sigma), expected in _throughput_workload():
                result = check_consistency(dtd, sigma, CERTIFIED)
                assert result.consistent == expected
                nodes += result.stats["exact_nodes"]
                pivots += result.stats["exact_pivots"]
            best = min(best, time.perf_counter() - start)
    return best, nodes, pivots


def test_warm_node_throughput_at_least_2x_cold():
    """The acceptance claim: warm-started branch and bound pushes >= 2x
    the nodes per second of cold-start on the negations workload.

    Measured margin on the reference container is ~3x, so the 2x gate
    has headroom against scheduler noise; pivots-per-node (deterministic
    for a fixed workload) is asserted too, pinning the mechanism and not
    just the clock.
    """
    warm_time, warm_nodes, warm_pivots = _run_workload(nullcontext)
    cold_time, cold_nodes, cold_pivots = _run_workload(exact_cold)
    # The two modes may legitimately explore slightly different trees
    # (alternate optimal LP vertices branch differently), so the gates
    # below are per-node rates, never tree-shape equality.
    # The mechanism: warm re-solves need far fewer pivots per node.
    assert (warm_pivots / warm_nodes) * 2 <= cold_pivots / cold_nodes, (
        f"warm {warm_pivots}/{warm_nodes} vs cold {cold_pivots}/{cold_nodes} "
        "pivots per node"
    )
    warm_throughput = warm_nodes / warm_time
    cold_throughput = cold_nodes / cold_time
    assert warm_throughput >= 2 * cold_throughput, (
        f"warm {warm_throughput:.1f} nodes/s vs cold {cold_throughput:.1f} "
        f"nodes/s ({warm_throughput / cold_throughput:.2f}x < 2x)"
    )
