"""Batch fan-out benchmarks: ``implies_all`` queries across workers.

Independent queries inside one implication batch and subset probes
inside one diagnostics audit are embarrassingly parallel once every
worker owns its solver state (DESIGN.md section 7); a single solve is
one sequential search.  This file gates the three claims of the
parallel layer:

1. **Correctness is schedule-independent.**  On the multi-branch
   implication workload, ``jobs=4`` returns verdicts *and complete
   per-query stats* — including connectivity-cut counts — byte-identical
   to ``jobs=1`` (each query runs the ordinary sequential path inside
   exactly one worker).
2. **The wall clock actually drops.**  ``>= 2x`` at 4 workers on the
   multi-branch implication workload.  Wall-clock speedup needs
   hardware: the timing gate runs only when >= 4 CPU cores are
   available (it is *skipped, loudly,* on smaller containers — the
   correctness gates above always run; fork-less platforms skip too,
   since ``jobs`` degrades to sequential there).
3. **QuickXplain beats the deletion filter.**  On every ``|Sigma| >= 8``
   registrar instance the QuickXplain MUS probe count is strictly below
   the deletion filter's ``|Sigma|`` probes, with equal cores.

Every benchmark asserts the correctness of the answer it times, per the
suite's fast-nonsense policy.
"""

import time

import pytest

from repro.analysis.diagnostics import DiagnosticsStats, mus
from repro.checkers.config import CheckerConfig
from repro.checkers.implication import implies_all
from repro.constraints.parser import parse_constraint, parse_constraints
from repro.workloads.generators import registrar_mus_family, wide_flat_dtd

#: Worker count of the headline gate.
_JOBS = 4

#: Required wall-clock speedup at 4 workers (ideal is ~4x; 2x leaves
#: headroom for pool startup and scheduler noise).
_SPEEDUP_GATE = 2.0


def _implication_workload():
    """The multi-branch implication batch the speedup gate runs on.

    An inclusion chain over a wide DTD, queried with every transitive
    inclusion (implied: the negation-consistency probe must *exhaust*
    its support branches) and every reverse inclusion (not implied: a
    witness exists).  Decided on the certified exact pipeline with LP
    pruning off, so every query does genuine branch-and-bound work —
    the workload shape where fanning queries across workers pays.
    """
    chain_length = 5
    dtd = wide_flat_dtd(chain_length + 2)
    sigma = parse_constraints(
        "\n".join(f"t{i}.x <= t{i + 1}.x" for i in range(chain_length))
    )
    phis = []
    expected = []
    for i in range(chain_length):
        for j in range(i + 1, chain_length + 1):
            phis.append(parse_constraint(f"t{i}.x <= t{j}.x"))
            expected.append(True)
            phis.append(parse_constraint(f"t{j}.x <= t{i}.x"))
            expected.append(False)
    return dtd, sigma, phis, expected


def _config(jobs: int) -> CheckerConfig:
    return CheckerConfig(
        want_witness=False, backend="exact", lp_prune=False, jobs=jobs
    )


def test_parallel_implication_verdicts_and_cut_counts_identical():
    """The correctness half of the gate, hardware-independent: ``jobs=4``
    answers the batch with verdicts and *complete* per-query stats —
    dfs nodes, leaves, exact pivots, connectivity-cut counts — equal to
    ``jobs=1``, in the same order."""
    dtd, sigma, phis, expected = _implication_workload()
    sequential = implies_all(dtd, sigma, phis, _config(1))
    parallel = implies_all(dtd, sigma, phis, _config(_JOBS))
    assert [r.implied for r in sequential] == expected
    assert [r.implied for r in parallel] == expected
    for index, (seq, par) in enumerate(zip(sequential, parallel)):
        assert par.stats == seq.stats, (
            f"query {index}: parallel stats diverged from sequential "
            f"(cuts {par.stats.get('cuts')} vs {seq.stats.get('cuts')})"
        )


def test_parallel_implication_speedup_at_4_workers(speedup_gate):
    """The headline gate: >= 2x wall clock at 4 workers on the
    multi-branch implication workload (sequential cost ~2s, pool
    overhead ~0.25s, so the ideal-parallel margin is wide).  Hardware
    requirements (fork + >= 4 effective cores) are decided by the shared
    guard in ``benchmarks/conftest.py``, so this skips exactly when the
    fuzz sweeps downscale."""
    speedup_gate(_JOBS)
    dtd, sigma, phis, expected = _implication_workload()

    def run(jobs: int) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            results = implies_all(dtd, sigma, phis, _config(jobs))
            best = min(best, time.perf_counter() - start)
            assert [r.implied for r in results] == expected
        return best

    sequential = run(1)
    parallel = run(_JOBS)
    speedup = sequential / parallel
    assert speedup >= _SPEEDUP_GATE, (
        f"sequential {sequential * 1000:.0f}ms vs {_JOBS} workers "
        f"{parallel * 1000:.0f}ms ({speedup:.2f}x < {_SPEEDUP_GATE}x)"
    )


# ---------------------------------------------------------------------------
# QuickXplain vs deletion filter (probe-count gate)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("filler", [4, 8, 12, 20])
def test_quickxplain_probes_strictly_below_deletion(filler):
    """On every |Sigma| >= 8 instance the QuickXplain filter probes
    strictly fewer subsets than the deletion filter (which always pays
    exactly |Sigma|), returning the same 2-element core."""
    dtd, sigma = registrar_mus_family(filler)
    assert len(sigma) >= 8
    qx_stats, del_stats = DiagnosticsStats(), DiagnosticsStats()
    core = mus(dtd, sigma, stats=qx_stats)
    reference = mus(
        dtd, sigma, method="deletion", stats=del_stats
    )
    assert sorted(str(phi) for phi in core) == sorted(
        str(phi) for phi in reference
    ) == ["approval.stamp -> approval", "approval.stamp => auditor.aid"]
    assert del_stats.mus_probes == len(sigma)
    assert qx_stats.mus_probes < del_stats.mus_probes, (
        f"|Sigma|={len(sigma)}: quickxplain {qx_stats.mus_probes} probes "
        f"vs deletion {del_stats.mus_probes}"
    )
    assert qx_stats.assemblies == 1  # still one assembled system


def test_quickxplain_scales_sublinearly():
    """The probe count grows with log(|Sigma|), not |Sigma|: doubling the
    filler must not double the QuickXplain probes (it does exactly double
    the deletion filter's)."""
    counts = []
    for filler in (8, 16, 32):
        dtd, sigma = registrar_mus_family(filler)
        stats = DiagnosticsStats()
        mus(dtd, sigma, stats=stats)
        counts.append(stats.mus_probes)
    assert counts[2] < 2 * counts[0], f"probe counts not sublinear: {counts}"
