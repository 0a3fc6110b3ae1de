"""Toggleable-row diagnostics benchmarks (ISSUE 3 acceptance gate).

The diagnostics workloads — the MUS deletion filter and the redundancy
audit — probe many constraint subsets of *one* specification.  The
toggled engine (DESIGN.md section 6) assembles ``Psi(D, Sigma ∪ ¬Sigma)``
once and serves every probe by row-bound flips on persistent solver
state; the rebuild path (the automatic fallback, forced here by
:func:`tests.oracles.rebuild_engines`) re-encodes and re-assembles per
probe through full ``check_consistency``/``implies`` calls.

The headline gate: **>= 3x wall-clock speedup for the toggled redundancy
audit over the rebuild path** on audit-sized specifications (9+
constraints), together with the structural assertions that make the
mechanism — not just the clock — visible: identical answers from both
paths, and exactly one base assembly per toggled call regardless of how
many subsets are probed.  Every benchmark asserts the correctness of the
answer it times, per the suite's fast-nonsense policy.
"""

import time
from contextlib import nullcontext

import pytest

from repro.analysis.diagnostics import (
    DiagnosticsStats,
    diagnose,
    mus,
    redundant_constraints,
)
from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from repro.workloads.generators import registrar_mus_family
from tests.oracles import rebuild_engines


def _mixed_dtd(num_types: int) -> DTD:
    """n unbounded collection types plus n singleton types."""
    parts = [f"t{i}*" for i in range(num_types)] + [
        f"s{i}" for i in range(num_types)
    ]
    content = {"r": "(" + ", ".join(parts) + ")"}
    content.update({f"t{i}": "EMPTY" for i in range(num_types)})
    content.update({f"s{i}": "EMPTY" for i in range(num_types)})
    attrs = {f"t{i}": ["x"] for i in range(num_types)}
    attrs.update({f"s{i}": ["x"] for i in range(num_types)})
    return DTD.build("r", content, attrs=attrs)


def _audit_keys_negkeys(n: int):
    """Keys on singleton types (vacuously implied -> all redundant) plus
    independent negated keys on the collection types (none redundant)."""
    lines = [f"s{i}.x -> s{i}" for i in range(n)]
    lines += [f"t{i}.x !-> t{i}" for i in range(n)]
    return _mixed_dtd(n), parse_constraints("\n".join(lines)), n


def _audit_inclusion_chain(n: int):
    """An inclusion chain plus its transitive shortcut (the one redundancy)."""
    content = {"r": "(" + ", ".join(f"t{i}*" for i in range(n)) + ")"}
    content.update({f"t{i}": "EMPTY" for i in range(n)})
    dtd = DTD.build("r", content, attrs={f"t{i}": ["x"] for i in range(n)})
    lines = [f"t{i}.x <= t{i + 1}.x" for i in range(n - 1)]
    lines += [f"t0.x <= t{n - 1}.x"]
    return dtd, parse_constraints("\n".join(lines)), 1


#: The MUS workload: the spec-doctor conflict (two approvals per order,
#: one auditor) buried under ``n`` innocent filler keys — one shared
#: definition in :mod:`repro.workloads.generators`.
_mus_registrar = registrar_mus_family


#: The audit cases the speedup gate runs over: (dtd, sigma, #redundant).
_AUDIT_CASES = [
    _audit_keys_negkeys(12),
    _audit_keys_negkeys(16),
    _audit_inclusion_chain(8),
    _audit_inclusion_chain(9),
]

_MUS_CASES = [_mus_registrar(16), _mus_registrar(24)]


def _canonical(constraints) -> list[str]:
    return sorted(str(phi) for phi in constraints)


@pytest.mark.parametrize("n", [8, 12])
def test_toggled_audit(benchmark, n):
    dtd, sigma, expected = _audit_keys_negkeys(n)
    redundant = benchmark(redundant_constraints, dtd, sigma)
    assert len(redundant) == expected


@pytest.mark.parametrize("n", [8])
def test_rebuild_audit_ablation(benchmark, n):
    """Rebuild ablation of the same audit, for the comparison table."""
    dtd, sigma, expected = _audit_keys_negkeys(n)
    with rebuild_engines():
        redundant = benchmark(redundant_constraints, dtd, sigma)
    assert len(redundant) == expected


@pytest.mark.parametrize("n", [16])
def test_toggled_mus(benchmark, n):
    dtd, sigma = _mus_registrar(n)
    core = benchmark(mus, dtd, sigma, method="deletion")
    # The stamp key + the FK into the singleton auditor (|approval| >= 2
    # forced by the DTD, <= 1 forced by key-through-FK): a 2-element MUS.
    assert _canonical(core) == [
        "approval.stamp -> approval",
        "approval.stamp => auditor.aid",
    ]


def test_diagnose_single_assembly_end_to_end():
    """One ``diagnose`` call = one assembly, on both report shapes."""
    for dtd, sigma, _ in _AUDIT_CASES[:1]:
        report = diagnose(dtd, sigma)
        assert report.consistent
        assert report.stats.assemblies == 1
    for dtd, sigma in _MUS_CASES[:1]:
        report = diagnose(dtd, sigma)
        assert not report.consistent
        assert report.stats.assemblies == 1


def _audit_round(engine) -> tuple[float, list[list[str]], list[DiagnosticsStats]]:
    """(seconds, canonical answers, per-call stats) of one pass over the
    audit cases inside the ``engine`` context."""
    answers: list[list[str]] = []
    stats_list: list[DiagnosticsStats] = []
    with engine():
        start = time.perf_counter()
        for dtd, sigma, _ in _AUDIT_CASES:
            stats = DiagnosticsStats()
            answers.append(_canonical(redundant_constraints(dtd, sigma, stats=stats)))
            stats_list.append(stats)
        elapsed = time.perf_counter() - start
    return elapsed, answers, stats_list


def _run_audits(engines, rounds: int = 3) -> list[tuple]:
    """Best-of-``rounds`` seconds, answers and per-call stats per engine.

    The rounds are interleaved (first engine, second engine, first
    engine, ...), so a drift in host speed lands on every side alike
    instead of on whichever side happened to run last.
    """
    results = [(float("inf"), [], []) for _ in engines]
    for _ in range(rounds):
        for index, engine in enumerate(engines):
            seconds, answers, stats_list = _audit_round(engine)
            results[index] = (
                min(results[index][0], seconds),
                answers,
                stats_list,
            )
    return results


def test_toggled_redundancy_audit_at_least_3x_rebuild():
    """The acceptance gate: toggling rows on one assembled system runs the
    redundancy audit >= 3x faster than re-encoding per subset.

    Measured margin on the reference container is ~3.3-3.6x, so the 3x
    gate has headroom against scheduler noise.  The mechanism is pinned
    alongside the clock: both paths return identical redundant sets, the
    expected count per family, and the toggled path performs exactly one
    base assembly per call while probing |Sigma| subsets.
    """
    toggled, rebuild = _run_audits((nullcontext, rebuild_engines))
    toggled_time, toggled_answers, toggled_stats = toggled
    rebuild_time, rebuild_answers, rebuild_stats = rebuild

    assert toggled_answers == rebuild_answers
    for (_, sigma, expected), answer in zip(_AUDIT_CASES, toggled_answers):
        assert len(answer) == expected
    for stats, (_, sigma, _) in zip(toggled_stats, _AUDIT_CASES):
        assert stats.method == "toggled"
        assert stats.assemblies == 1, (
            f"{stats.assemblies} assemblies for {stats.probes} probes"
        )
        assert stats.probes >= len(sigma)
    for stats in rebuild_stats:
        assert stats.method == "rebuild"
        assert stats.assemblies > 1  # the cost the toggles retire

    speedup = rebuild_time / toggled_time
    assert speedup >= 3.0, (
        f"toggled audit {toggled_time * 1000:.1f}ms vs rebuild "
        f"{rebuild_time * 1000:.1f}ms ({speedup:.2f}x < 3x)"
    )


def test_toggled_mus_matches_rebuild_and_saves_assemblies():
    """MUS rides the same machinery: identical answers, one assembly."""
    for dtd, sigma in _MUS_CASES:
        stats = DiagnosticsStats()
        core = mus(dtd, sigma, method="deletion", stats=stats)
        with rebuild_engines():
            oracle = mus(dtd, sigma, method="deletion")
        assert _canonical(core) == _canonical(oracle)
        assert stats.assemblies == 1
        assert stats.probes == len(sigma) + 1
