"""Differential testing of the toggled diagnostics engine.

The toggled engine (one assembled ``Psi(D, Sigma ∪ ¬Sigma)``, row-bound
flips per subset; DESIGN.md section 6) must return *identical* MUS and
redundancy answers to the rebuild-per-subset oracle — the automatic
rebuild fallback, forced by :func:`tests.oracles.rebuild_engines`, which
decides every probe with a full ``check_consistency``/``implies`` call.
Random instances come from the same generator family as
:mod:`tests.test_differential_fuzz`.

Alongside the oracle agreement, the acceptance invariant is asserted on
every toggled call: **exactly one base assembly**, no matter how many
subsets the deletion filter and the redundancy audit probe.
"""

import pytest

from repro.analysis.diagnostics import (
    DiagnosticsStats,
    diagnose,
    mus,
    redundant_constraints,
)
from repro.analysis.repair import minimal_repair
from repro.checkers.config import CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from repro.errors import ComplexityLimitError, InvalidConstraintError
from repro.workloads.generators import (
    random_dtd,
    random_unary_constraints,
    registrar_mus_family,
)
from tests.oracles import deletion_filter, rebuild_engines

#: Seeded sweep size, chunked for readable failure granularity.
NUM_SEEDS = 60
CHUNK = 15


def _instance(seed: int):
    """The seeded instance family (same shape as the solver fuzz sweep)."""
    dtd = random_dtd(seed, num_types=3 + seed % 3)
    sigma = random_unary_constraints(
        seed * 31 + 7,
        dtd,
        num_keys=seed % 3,
        num_fks=(seed + 1) % 3,
        num_neg_keys=seed % 2,
        num_neg_inclusions=(seed + 1) % 2,
    )
    return dtd, sigma


def _canonical(constraints) -> list[str]:
    return sorted(str(phi) for phi in constraints)


@pytest.mark.parametrize("start", range(0, NUM_SEEDS, CHUNK))
def test_diagnose_matches_rebuild_oracle(start):
    """Toggled ``diagnose`` == rebuild ``diagnose`` on seeded instances,
    with exactly one assembly per toggled call."""
    checked = 0
    for seed in range(start, start + CHUNK):
        dtd, sigma = _instance(seed)
        try:
            toggled = diagnose(dtd, sigma)
            with rebuild_engines():
                rebuild = diagnose(dtd, sigma)
        except (InvalidConstraintError, ComplexityLimitError):
            continue  # outside the decidable/capped fragment: skip uniformly
        checked += 1
        assert toggled.consistent == rebuild.consistent, f"seed {seed}"
        assert _canonical(toggled.mus) == _canonical(rebuild.mus), f"seed {seed}"
        assert _canonical(toggled.redundant) == _canonical(rebuild.redundant), (
            f"seed {seed}"
        )
        assert toggled.stats.method == "toggled", f"seed {seed}"
        assert toggled.stats.assemblies == 1, (
            f"seed {seed}: {toggled.stats.assemblies} assemblies for "
            f"{toggled.stats.probes} probes"
        )
        assert rebuild.stats.method == "rebuild"
    assert checked > 0


def test_mus_single_assembly_and_oracle_agreement():
    """MUS standalone: toggle-driven deletion filter equals the oracle and
    performs one assembly for the whole filter."""
    dtd = DTD.build(
        "r", {"r": "(a*, b*)", "a": "EMPTY", "b": "EMPTY"},
        attrs={"a": ["x"], "b": ["y"]},
    )
    sigma = parse_constraints(
        "a.x -> a\na.x !-> a\nb.y -> b\na.x <= a.x"
    )
    stats = DiagnosticsStats()
    with deletion_filter():
        core = mus(dtd, sigma, stats=stats)
        with rebuild_engines():
            oracle = mus(dtd, sigma)
    assert _canonical(core) == _canonical(oracle) == ["a.x !-> a", "a.x -> a"]
    assert stats.assemblies == 1
    assert stats.probes == len(sigma) + 1  # full set + one deletion probe each


def test_redundancy_single_assembly_and_oracle_agreement():
    dtd = DTD.build(
        "r", {"r": "(a*, b*, c*)", "a": "EMPTY", "b": "EMPTY", "c": "EMPTY"},
        attrs={t: ["x"] for t in "abc"},
    )
    sigma = parse_constraints("a.x <= b.x\nb.x <= c.x\na.x <= c.x")
    stats = DiagnosticsStats()
    redundant = redundant_constraints(dtd, sigma, stats=stats)
    with rebuild_engines():
        oracle = redundant_constraints(dtd, sigma)
    assert _canonical(redundant) == _canonical(oracle) == ["a.x <= c.x"]
    assert stats.assemblies == 1
    assert stats.probes == len(sigma)  # one implication probe per constraint


def test_foreign_key_redundancy_probes_both_components():
    """An FK is redundant only when both its inclusion and key components
    are implied — the toggled engine probes each component's negation."""
    dtd = DTD.build(
        "r", {"r": "(f*, d)", "f": "EMPTY", "d": "EMPTY"},
        attrs={"f": ["ref"], "d": ["id"]},
    )
    # d is a singleton, so d.id -> d holds vacuously; the FK is then
    # implied by its own inclusion component being restated.
    sigma = parse_constraints("f.ref => d.id\nf.ref <= d.id\nd.id -> d")
    toggled = redundant_constraints(dtd, sigma)
    with rebuild_engines():
        oracle = redundant_constraints(dtd, sigma)
    assert _canonical(toggled) == _canonical(oracle)
    assert "f.ref => d.id" in _canonical(toggled)


def test_exact_backend_probes_match_scipy():
    """The toggled probes agree across solver backends (the certified twin
    takes the same row toggles as the float engine)."""
    exact = CheckerConfig(want_witness=False, backend="exact")
    for seed in (3, 7, 11, 19):
        dtd, sigma = _instance(seed)
        try:
            scipy_report = diagnose(dtd, sigma)
            exact_report = diagnose(dtd, sigma, exact)
        except (InvalidConstraintError, ComplexityLimitError):
            continue
        assert scipy_report.consistent == exact_report.consistent, f"seed {seed}"
        assert _canonical(scipy_report.mus) == _canonical(exact_report.mus)
        assert _canonical(scipy_report.redundant) == _canonical(
            exact_report.redundant
        )
        assert exact_report.stats.assemblies <= 1


def test_multi_attribute_specs_fall_back_to_rebuild():
    """Outside the unary fragment the rebuild path answers (keys-only
    dispatch in the checkers), flagged in the stats."""
    dtd = DTD.build(
        "r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x", "y"]}
    )
    sigma = parse_constraints("a[x,y] -> a")
    report = diagnose(dtd, sigma)
    assert report.consistent
    assert report.stats.method == "rebuild"


def test_inconsistent_subset_requires_inconsistency():
    dtd = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x"]})
    with pytest.raises(InvalidConstraintError, match="consistent"):
        mus(dtd, parse_constraints("a.x -> a"))


# ---------------------------------------------------------------------------
# QuickXplain vs the deletion filter (DESIGN.md section 7)
# ---------------------------------------------------------------------------


def _assert_valid_mus(dtd, sigma, core, seed):
    """Semantic MUS check: inconsistent, and every element necessary.

    QuickXplain and the deletion filter both return *minimal* inconsistent
    subsets, but on specifications with several distinct MUSes they may
    legitimately return different ones — equivalence is semantic, not
    syntactic, so each result is verified against the checker directly.
    """
    config = CheckerConfig(want_witness=False)
    assert set(core) <= set(sigma), f"seed {seed}: core not a subset"
    assert not check_consistency(dtd, core, config).consistent, (
        f"seed {seed}: reported core is not inconsistent"
    )
    for index in range(len(core)):
        subset = core[:index] + core[index + 1:]
        assert check_consistency(dtd, subset, config).consistent, (
            f"seed {seed}: core element {core[index]} is not necessary"
        )


def test_quickxplain_equals_deletion_on_seeded_instances():
    """Both filters return valid minimal cores on every seeded
    inconsistent instance, with identical consistency verdicts.  (Probe
    counts are not compared here — QuickXplain's constant factor can
    exceed the deletion filter's on tiny Sigma; the |Sigma| >= 8 payoff
    is gated in test_quickxplain_saves_probes_on_large_specifications
    and benchmarks/bench_parallel.py.)"""
    checked = 0
    for seed in range(NUM_SEEDS):
        dtd, sigma = _instance(seed)
        try:
            report = diagnose(dtd, sigma)
        except (InvalidConstraintError, ComplexityLimitError):
            continue
        if report.consistent or not report.dtd_satisfiable:
            continue
        qx_stats, del_stats = DiagnosticsStats(), DiagnosticsStats()
        qx = mus(dtd, sigma, stats=qx_stats)
        with deletion_filter():
            deletion = mus(dtd, sigma, stats=del_stats)
        assert qx_stats.mus_method == "quickxplain"
        assert del_stats.mus_method == "deletion"
        _assert_valid_mus(dtd, sigma, qx, seed)
        _assert_valid_mus(dtd, sigma, deletion, seed)
        checked += 1
    assert checked > 0


def test_quickxplain_toggled_matches_rebuild_oracle():
    """The toggled QuickXplain run and the rebuild-per-subset QuickXplain
    run drive the same filter over the same subset oracle, so their cores
    are identical — not just both-minimal."""
    checked = 0
    for seed in range(NUM_SEEDS):
        dtd, sigma = _instance(seed)
        try:
            report = diagnose(dtd, sigma)
        except (InvalidConstraintError, ComplexityLimitError):
            continue
        if report.consistent or not report.dtd_satisfiable:
            continue
        toggled = mus(dtd, sigma)
        with rebuild_engines():
            rebuild = mus(dtd, sigma)
        assert _canonical(toggled) == _canonical(rebuild), f"seed {seed}"
        checked += 1
    assert checked > 0


def test_quickxplain_saves_probes_on_large_specifications():
    """On |Sigma| >= 8 with a small conflict, QuickXplain probes strictly
    fewer subsets than the deletion filter (the section-7 payoff; the
    benchmark gate re-asserts this with the full registrar family)."""
    dtd, sigma = registrar_mus_family(8)
    assert len(sigma) >= 8
    qx_stats, del_stats = DiagnosticsStats(), DiagnosticsStats()
    qx = mus(dtd, sigma, stats=qx_stats)
    with deletion_filter():
        deletion = mus(dtd, sigma, stats=del_stats)
    assert _canonical(qx) == _canonical(deletion)
    assert del_stats.mus_probes == len(sigma)
    assert qx_stats.mus_probes < del_stats.mus_probes, (
        f"quickxplain {qx_stats.mus_probes} probes vs deletion "
        f"{del_stats.mus_probes}"
    )


def test_deletion_filter_reaches_mus_diagnose_and_repair():
    """The oracle swaps the one MUS filter everywhere it runs, and the
    ``mus_method``/``core_method`` stats name the filter that ran."""
    dtd, sigma = registrar_mus_family(4)
    outside = (diagnose(dtd, sigma), minimal_repair(dtd, sigma))
    with deletion_filter():
        inside = (diagnose(dtd, sigma), minimal_repair(dtd, sigma))
    for (report, repair), name in zip((outside, inside), ("quickxplain", "deletion")):
        assert report.stats.mus_method == name
        assert repair.stats.core_method == name
    assert _canonical(outside[0].mus) == _canonical(inside[0].mus)
    assert outside[1].actions == inside[1].actions
    assert diagnose(dtd, sigma).stats.mus_method == "quickxplain"  # restored
