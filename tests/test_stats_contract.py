"""The stats contract of diagnose, MUS and repair.

The ``stats`` dicts of ``diagnose`` and ``repair`` responses are wire
bytes: their keys, key order and values on a fixed input are part of the
answer.  This pins the key sets of the three stats renderings (the
diagnostics record, the repair record and a checker result's dict) and
the full toggled dicts on the paper's Section-1 example (D1, Sigma1).
"""

import repro.analysis.diagnostics as diagnostics
from repro.analysis.diagnostics import DiagnosticsStats, diagnose
from repro.analysis.repair import RepairStats, minimal_repair
from repro.checkers.consistency import check_consistency
from tests.oracles import rebuild_engines

DIAGNOSTICS_KEYS = [
    "method", "mus_method", "assemblies", "probes", "mus_probes",
    "dfs_nodes", "leaves_solved", "bound_patch_solves", "lp_solves",
    "mip_solves", "cuts_added", "cut_pool_hits", "lp_prunes",
    "lp_probe_decided", "exact_nodes", "exact_pivots", "workers_spawned",
]

REPAIR_KEYS = [
    "method", "core_method", "candidates", "assemblies", "probes",
    "probe_cache_hits", "core_probes", "cores", "hitting_sets",
    "verify_checks", "dfs_nodes", "leaves_solved", "bound_patch_solves",
    "lp_solves", "mip_solves", "cuts_added", "cut_pool_hits", "lp_prunes",
    "lp_probe_decided", "exact_nodes", "exact_pivots",
]

CHECKER_KEYS = [
    "dfs_nodes", "leaves", "cuts", "lp_prunes", "shortcut", "assemblies",
    "bound_patch_solves", "lp_solves", "mip_solves", "cut_pool_hits",
    "propagation_visits", "lp_probe_decided", "exact_nodes",
    "exact_pivots", "exact_warm_solves",
]


def test_key_sets_in_order(d1, sigma1):
    assert list(DiagnosticsStats().as_dict()) == DIAGNOSTICS_KEYS
    assert list(RepairStats().as_dict()) == REPAIR_KEYS
    assert list(check_consistency(d1, sigma1).stats) == CHECKER_KEYS


def test_empty_records_render_labels_and_zeros():
    empty = DiagnosticsStats().as_dict()
    assert (empty["method"], empty["mus_method"]) == ("toggled", "-")
    assert all(empty[key] == 0 for key in DIAGNOSTICS_KEYS[2:])
    empty = RepairStats().as_dict()
    assert (empty["method"], empty["core_method"]) == ("toggled", "-")
    assert all(empty[key] == 0 for key in REPAIR_KEYS[2:])


def test_toggled_diagnose_stats_on_d1_sigma1(d1, sigma1):
    assert list(diagnose(d1, sigma1).stats.as_dict().items()) == [
        ("method", "toggled"), ("mus_method", "quickxplain"),
        ("assemblies", 1), ("probes", 5), ("mus_probes", 4),
        ("dfs_nodes", 0), ("leaves_solved", 0), ("bound_patch_solves", 5),
        ("lp_solves", 5), ("mip_solves", 0), ("cuts_added", 0),
        ("cut_pool_hits", 0), ("lp_prunes", 0), ("lp_probe_decided", 5),
        ("exact_nodes", 0), ("exact_pivots", 0), ("workers_spawned", 0),
    ]


def test_toggled_repair_stats_on_d1_sigma1(d1, sigma1):
    assert list(minimal_repair(d1, sigma1).as_dict()["stats"].items()) == [
        ("method", "toggled"), ("core_method", "quickxplain"),
        ("candidates", 9), ("assemblies", 1), ("probes", 7),
        ("probe_cache_hits", 2), ("core_probes", 5), ("cores", 1),
        ("hitting_sets", 2), ("verify_checks", 1), ("dfs_nodes", 0),
        ("leaves_solved", 0), ("bound_patch_solves", 7), ("lp_solves", 7),
        ("mip_solves", 0), ("cuts_added", 0), ("cut_pool_hits", 0),
        ("lp_prunes", 0), ("lp_probe_decided", 7), ("exact_nodes", 0),
        ("exact_pivots", 0),
    ]


def test_rebuild_diagnose_checks_full_sigma_once(d1, sigma1, monkeypatch):
    """The rebuild path decides the full specification with one checker
    call, then shrinks the core: as many probes as the toggled path."""
    sizes = []
    checker = diagnostics.check_consistency

    def counting(dtd, subset, config):
        sizes.append(len(subset))
        return checker(dtd, subset, config)

    monkeypatch.setattr(diagnostics, "check_consistency", counting)
    with rebuild_engines():
        report = diagnose(d1, sigma1)
    assert report.stats.method == "rebuild"
    assert sizes.count(len(sigma1)) == 1
    assert report.stats.probes == 5
    assert report.stats.mus_probes == 4
