"""Minimal-repair benchmarks (ISSUE 10 acceptance gate).

The repair search probes many candidate edit sets of *one*
specification.  The toggled engine (DESIGN.md section 12) assembles
``Psi`` with shadow rows once and serves every probe — hitting-set
tests and MUS extractions alike — by row-bound flips on that one
persistent workspace, so the acceptance invariants are:

* **exactly one base assembly per ``minimal_repair`` call**, no matter
  how many candidate sets the hitting-set loop probes, and
* **repair wall-clock <= 3x a single diagnose-MUS call** on the
  registrar family (measured ~2.5x: each hitting-set round costs one
  probe plus one core extraction, both row-toggle re-solves), and
* **at most 4k cores** for the inconsistent ``k``-dimension star schema
  (a deterministic counter, k = 2..5).

Every benchmark asserts the correctness of the answer it times, per the
suite's fast-nonsense policy.
"""

import time

import pytest

from repro.analysis.diagnostics import mus
from repro.analysis.repair import DeleteConstraint, RepairStats, minimal_repair
from repro.workloads.generators import registrar_mus_family, star_schema_family


def _assert_registrar_repair(repair) -> None:
    """The registrar conflict has a canonical unit-cost fix: delete one
    of the two core constraints (the filler keys all survive)."""
    assert repair.found and repair.verified
    assert repair.cost == 1
    [action] = repair.actions
    assert isinstance(action, DeleteConstraint)
    assert str(action.constraint) in (
        "approval.stamp -> approval",
        "approval.stamp => auditor.aid",
    )


@pytest.mark.parametrize("filler", [8, 16])
def test_repair_registrar(benchmark, filler):
    dtd, sigma = registrar_mus_family(filler)
    repair = benchmark(minimal_repair, dtd, sigma)
    _assert_registrar_repair(repair)


def test_repair_single_assembly():
    """One ``minimal_repair`` call = one base assembly, with the probe
    memo visibly engaged (re-probing a loosening-free candidate set is a
    cache hit, not a solve)."""
    dtd, sigma = registrar_mus_family(16)
    stats = RepairStats()
    repair = minimal_repair(dtd, sigma, stats=stats)
    _assert_registrar_repair(repair)
    assert stats.method == "toggled"
    assert stats.assemblies == 1, (
        f"{stats.assemblies} assemblies for {stats.probes} probes"
    )
    assert stats.probes >= 1
    assert stats.cores >= 1 and stats.hitting_sets >= 1
    assert stats.verify_checks == 1  # the applied repair is re-checked once


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_star_repair_cores_grow_linearly(dims):
    """A deterministic counter gate: each repair core keeps only the
    loosenings whose child can reach its MUS, so the inconsistent star
    schema needs at most 4 cores per dimension (widening every core with
    every loosening took 9, 29, 82 and 216 cores for 2..5 dimensions)."""
    dtd, sigma = star_schema_family(dims, consistent=False)
    stats = RepairStats()
    repair = minimal_repair(dtd, sigma, stats=stats)
    assert repair.found and repair.verified and repair.cost == dims
    assert stats.cores <= 4 * dims, f"{stats.cores} cores for {dims} dimensions"


def _best_of_3(fn, *args, **kwargs) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def test_repair_within_3x_of_diagnose_mus():
    """The acceptance gate: a full repair search — hitting sets, core
    extractions, verification — lands within 3x of one MUS call on the
    same assembled-workspace machinery (measured ~2.5x, so the gate has
    headroom against scheduler noise)."""
    dtd, sigma = registrar_mus_family(16)
    _assert_registrar_repair(minimal_repair(dtd, sigma))  # warm caches

    mus_time = _best_of_3(mus, dtd, sigma)
    repair_time = _best_of_3(minimal_repair, dtd, sigma)
    ratio = repair_time / mus_time
    assert ratio <= 3.0, (
        f"repair {repair_time * 1000:.1f}ms vs mus {mus_time * 1000:.1f}ms "
        f"({ratio:.2f}x > 3x)"
    )
