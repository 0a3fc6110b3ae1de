"""Differential testing of the minimal-repair engine.

The toggled repair search (one assembled ``Psi`` with per-site shadow
rows, probed by row-bound flips; DESIGN.md section 12) must agree with
the rebuild oracle — the apply-and-recheck fallback, forced by
:func:`tests.oracles.rebuild_engines`, which applies every candidate
edit set structurally and re-runs the full checker — and, on small
universes, with brute-force subset enumeration (the minimality oracle).
Every repair the engine reports is re-applied here and re-checked
against the consistency checker, the ultimate ground truth.

The service surface rides along: the ``repair`` wire op must be
byte-identical through one server and through a fleet, and the
deprecated MUS entry points must keep answering (with a warning) while
they delegate to :func:`repro.analysis.diagnostics.mus`.
"""

import asyncio
import itertools
import json

import pytest

from repro.analysis.repair import (
    DeleteConstraint,
    RepairStats,
    _candidate_universe,
    apply_repair,
    minimal_repair,
)
from repro.checkers.config import CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from repro.dtd.serializer import dtd_to_string
from repro.errors import ComplexityLimitError, InvalidConstraintError
from repro.workloads.examples import teachers_dtd_d1
from repro.workloads.generators import random_dtd, random_unary_constraints
from tests.oracles import rebuild_engines

#: The big consistency-restoration sweep (engine vs the checker itself).
NUM_SEEDS = 200
SWEEP_CHUNK = 50
#: The rebuild-oracle sweep (each seed pays a rebuild-per-probe search).
ORACLE_SEEDS = 45
ORACLE_CHUNK = 15

SIGMA1 = (
    "teacher.name -> teacher\n"
    "subject.taught_by -> subject\n"
    "subject.taught_by => teacher.name"
)

_CONFIG = CheckerConfig(want_witness=False)


def _instance(seed: int):
    """Seeded family biased toward inconsistency (keys + FKs on a DTD
    with required children force the Section-1 counting conflicts)."""
    dtd = random_dtd(seed, num_types=4)
    sigma = random_unary_constraints(
        seed * 37 + 11,
        dtd,
        num_keys=2,
        num_fks=2,
        num_neg_keys=1,
        num_neg_inclusions=seed % 2,
    )
    return dtd, sigma


def _canonical_actions(repair) -> list[str]:
    return sorted(action.describe() for action in repair.actions)


def _spec_consistent(dtd, sigma) -> bool:
    return check_consistency(dtd, sigma, _CONFIG).consistent


@pytest.mark.parametrize("start", range(0, NUM_SEEDS, SWEEP_CHUNK))
def test_repair_restores_consistency_seeded_sweep(start):
    """Every repair the toggled engine reports is applied here and
    re-checked consistent; unit weights mean cost == |actions|; one
    assembly per search regardless of probe count."""
    checked = repaired = 0
    for seed in range(start, start + SWEEP_CHUNK):
        dtd, sigma = _instance(seed)
        stats = RepairStats()
        try:
            repair = minimal_repair(dtd, sigma, stats=stats)
        except (InvalidConstraintError, ComplexityLimitError):
            continue  # outside the decidable/capped fragment: skip uniformly
        checked += 1
        if repair.consistent_before:
            assert not repair.actions
            assert _spec_consistent(dtd, sigma), f"seed {seed}"
            continue
        assert repair.found, f"seed {seed}: deleting all of Sigma always repairs"
        repaired += 1
        assert repair.verified, f"seed {seed}"
        assert repair.cost == len(repair.actions), f"seed {seed}"
        new_dtd, new_sigma = apply_repair(dtd, sigma, repair.actions)
        assert dtd_to_string(new_dtd) == dtd_to_string(repair.dtd), f"seed {seed}"
        assert _spec_consistent(new_dtd, new_sigma), (
            f"seed {seed}: applied repair is not consistent"
        )
        if stats.method == "toggled":
            assert stats.assemblies == 1, (
                f"seed {seed}: {stats.assemblies} assemblies for "
                f"{stats.probes} probes"
            )
    assert checked > 0 and repaired > 0


@pytest.mark.parametrize("start", range(0, ORACLE_SEEDS, ORACLE_CHUNK))
def test_repair_matches_rebuild_oracle(start):
    """Toggled search == rebuild search on (found, cost, actions): both
    drive the same deterministic hitting-set loop, so the shadow-row
    probes must agree with apply-and-recheck on every candidate set."""
    checked = 0
    for seed in range(start, start + ORACLE_CHUNK):
        dtd, sigma = _instance(seed)
        try:
            toggled = minimal_repair(dtd, sigma)
            with rebuild_engines():
                rebuild = minimal_repair(dtd, sigma)
        except (InvalidConstraintError, ComplexityLimitError):
            continue
        checked += 1
        assert toggled.consistent_before == rebuild.consistent_before, f"seed {seed}"
        assert toggled.found == rebuild.found, f"seed {seed}"
        assert toggled.cost == rebuild.cost, f"seed {seed}"
        assert _canonical_actions(toggled) == _canonical_actions(rebuild), (
            f"seed {seed}"
        )
    assert checked > 0


def test_repair_minimality_brute_force():
    """The minimality oracle: on small candidate universes, no strictly
    smaller edit set restores consistency (enumerated exhaustively)."""
    verified = 0
    for seed in range(24):
        dtd, sigma = _instance(seed)
        try:
            repair = minimal_repair(dtd, sigma)
        except (InvalidConstraintError, ComplexityLimitError):
            continue
        if repair.consistent_before or not repair.found:
            continue
        universe = _candidate_universe(dtd, list(sigma))
        if len(universe) > 16:
            continue  # keep the enumeration cheap
        for size in range(repair.cost):
            for combo in itertools.combinations(universe, size):
                cand_dtd, cand_sigma = apply_repair(
                    dtd, sigma, [c.action for c in combo]
                )
                assert not _spec_consistent(cand_dtd, cand_sigma), (
                    f"seed {seed}: cheaper repair "
                    f"{[c.action.describe() for c in combo]} beats "
                    f"cost {repair.cost}"
                )
        verified += 1
    assert verified > 0


def test_repair_jobs_sweep_identical_answers():
    """The repaired specification is byte-identical at every worker
    count (stats may differ: workers pay their own assemblies)."""
    dtd, sigma = teachers_dtd_d1(), parse_constraints(SIGMA1)
    baseline = minimal_repair(dtd, sigma).as_dict()
    baseline.pop("stats")
    for jobs in (2, 4):
        config = CheckerConfig(want_witness=False, jobs=jobs)
        payload = minimal_repair(dtd, sigma, config).as_dict()
        payload.pop("stats")
        assert payload == baseline, f"jobs={jobs}"


def test_repair_weights_steer_the_search():
    """Unit weights delete the cheapest constraint; pricing deletions out
    forces the engine into DTD edits (the paper's Section-1 story: keep
    the constraints, relax 'exactly two subjects')."""
    dtd, sigma = teachers_dtd_d1(), parse_constraints(SIGMA1)
    default = minimal_repair(dtd, sigma)
    assert default.found and default.cost == 1
    assert isinstance(default.actions[0], DeleteConstraint)

    weighted = minimal_repair(dtd, sigma, weights={"delete": 5})
    assert weighted.found and weighted.verified
    assert not any(
        isinstance(action, DeleteConstraint) for action in weighted.actions
    )
    new_dtd, new_sigma = apply_repair(dtd, sigma, weighted.actions)
    assert _spec_consistent(new_dtd, new_sigma)
    assert len(new_sigma) == len(list(sigma))  # every constraint survives

    with pytest.raises(ValueError, match="positive integers"):
        minimal_repair(dtd, sigma, weights={"delete": 0})


def test_repair_consistent_input_short_circuits():
    dtd = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x"]})
    repair = minimal_repair(dtd, parse_constraints("a.x -> a"))
    assert repair.consistent_before and not repair.actions
    assert repair.summary() == (
        "specification is already consistent; nothing to repair"
    )


# ---------------------------------------------------------------------------
# The repair wire op: byte-identical through serve and fleet
# ---------------------------------------------------------------------------


def _line_exchange(address, requests) -> list:
    async def run():
        reader, writer = await asyncio.open_connection(*address)
        lines = []
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode("utf-8"))
            await writer.drain()
            lines.append(await reader.readline())
        writer.close()
        return lines

    return asyncio.run(run())


def _repair_requests() -> list:
    dtd_text = dtd_to_string(teachers_dtd_d1())
    spec = {"dtd": dtd_text, "constraints": SIGMA1}
    consistent = {"dtd": dtd_text, "constraints": "teacher.name -> teacher"}
    return [
        {"id": 1, "op": "repair", **spec},
        {"id": 2, "op": "repair", **spec, "weights": {"delete": 5}},
        {"id": 3, "op": "repair", **consistent},
        {"id": 4, "op": "repair", **spec, "weights": "not-an-object"},
        {"id": 5, "op": "repair", **spec, "weights": {"delete": 0}},
        {"id": 6, "op": "repair", **spec},  # response-cache replay
    ]


def test_repair_wire_op_byte_identical_serve_and_fleet():
    from repro.service.fleet import FleetRouter
    from repro.service.registry import SessionRegistry
    from repro.service.server import CheckingServer

    requests = _repair_requests()
    reference = CheckingServer(SessionRegistry())
    reference.start_background()
    backends, specs = [], []
    try:
        for _ in range(2):
            backend = CheckingServer(SessionRegistry())
            host, port = backend.start_background()
            backends.append(backend)
            specs.append(f"{host}:{port}")
        router = FleetRouter(specs)
        address = router.start_background()
        try:
            fleet_bytes = _line_exchange(address, requests)
            single_bytes = _line_exchange(reference.address, requests)
        finally:
            router.close()
        for request, ours, theirs in zip(requests, fleet_bytes, single_bytes):
            assert ours == theirs, request
        payloads = [json.loads(raw) for raw in single_bytes]
        assert payloads[0]["ok"] and payloads[0]["result"]["found"]
        assert payloads[0]["result"]["verified"]
        assert any(
            action["kind"] == "delete"
            for action in payloads[0]["result"]["actions"]
        )
        assert not any(
            action["kind"] == "delete"
            for action in payloads[1]["result"]["actions"]
        )
        assert payloads[2]["result"]["consistent_before"]
        assert not payloads[3]["ok"]
        assert "weights" in payloads[3]["error"]["message"]
        assert not payloads[4]["ok"]  # ValueError -> structured error
        assert payloads[5] == payloads[0] or (
            payloads[5]["result"] == payloads[0]["result"]
        )
    finally:
        for backend in backends:
            backend.close()
        reference.close()
