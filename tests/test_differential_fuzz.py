"""Differential fuzzing of four deciders: two product paths, two oracles.

Random DTD/constraint instances from :mod:`repro.workloads.generators`
are decided four ways:

* ``exact-warm``   — certified revised simplex, parent-basis warm starts,
  on the assembled system (the product's exact backend);
* ``exact-cold``   — same simplex, cold refactorization of every
  materialized leaf at every branch-and-bound node (the
  :func:`tests.oracles.exact_cold` oracle the warm path must match);
* ``highs-inc``    — HiGHS float solves on the assembled system with
  exact re-verification (the default production path);
* ``legacy-reb``   — from-scratch rebuild per support node (the
  :func:`tests.oracles.legacy_rebuild` oracle).

Every instance must get the *same* sat/unsat verdict from all four, and
each "consistent" answer is backed by a synthesized witness re-verified
against the DTD and constraints (``verify_witness=True`` raises on any
invalid tree), so a divergence anywhere in encoder, patch plumbing or
simplex shows up as a hard failure naming the seed.

``tests/data/differential_corpus.json`` is the regression corpus: seeds
that previously exposed interesting behaviour (cut learning, exact
fallbacks, deep support searches) or — should one ever appear — a
verdict divergence.  Corpus entries replay with the exact generator
parameters recorded at capture time, independent of the sweep below.
"""

import json
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import pytest

from repro.checkers.config import CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.errors import InvalidConstraintError
from repro.ilp.condsys import parallel_sweep_allowed
from repro.workloads.generators import random_dtd, random_unary_constraints
from tests.oracles import exact_cold, legacy_rebuild

#: The four deciders under differential test: a checker configuration
#: and the oracle context it runs in (``nullcontext`` = the product as
#: shipped).  Witnesses are synthesized and re-verified on one exact and
#: one float path; the other two run verdict-only so 200+ instances fit
#: the tier-1 budget.
DECIDERS = {
    "exact-warm": (
        CheckerConfig(want_witness=True, verify_witness=True, backend="exact"),
        nullcontext,
    ),
    "exact-cold": (CheckerConfig(want_witness=False, backend="exact"), exact_cold),
    "highs-inc": (
        CheckerConfig(want_witness=True, verify_witness=True, backend="scipy"),
        nullcontext,
    ),
    "legacy-reb": (
        CheckerConfig(want_witness=False, backend="scipy"),
        legacy_rebuild,
    ),
}

CORPUS_PATH = Path(__file__).parent / "data" / "differential_corpus.json"

#: 200 seeded instances, chunked for readable failure granularity.
NUM_SEEDS = 200
CHUNK = 25


def _instance(seed: int, num_types: int | None = None, **params):
    """The seeded instance family of the sweep (shared with the corpus)."""
    dtd = random_dtd(seed, num_types=num_types or (3 + seed % 3))
    sigma = random_unary_constraints(
        seed * 31 + 7,
        dtd,
        num_keys=params.get("num_keys", seed % 3),
        num_fks=params.get("num_fks", (seed + 1) % 3),
        num_neg_keys=params.get("num_neg_keys", seed % 2),
        num_neg_inclusions=params.get("num_neg_inclusions", (seed + 1) % 2),
    )
    return dtd, sigma


def _cross_check(seed: int, dtd, sigma) -> str:
    """All four verdicts must agree; returns the agreed verdict."""
    verdicts = {}
    for name, (config, oracle) in DECIDERS.items():
        with oracle():
            result = check_consistency(dtd, sigma, config)
        verdicts[name] = result.consistent
    if len(set(verdicts.values())) != 1:
        raise AssertionError(
            f"seed {seed}: deciders diverge: {verdicts} "
            f"(record this seed in {CORPUS_PATH.name})"
        )
    return "sat" if next(iter(verdicts.values())) else "unsat"


@pytest.mark.parametrize("start", range(0, NUM_SEEDS, CHUNK))
def test_differential_sweep(start):
    """Seeds ``[start, start+CHUNK)``: identical verdicts from all four
    deciders, witnesses verified where synthesized."""
    checked = 0
    for seed in range(start, start + CHUNK):
        dtd, sigma = _instance(seed)
        try:
            _cross_check(seed, dtd, sigma)
        except InvalidConstraintError:
            # The random draw produced a constraint outside the unary
            # class for this DTD; the specification is rejected uniformly
            # before any solver runs, so there is nothing to compare.
            continue
        checked += 1
    assert checked > 0


def test_corpus_replays_clean():
    """The regression corpus: previously-interesting seeds, pinned with
    their exact generator parameters and expected verdicts."""
    corpus = json.loads(CORPUS_PATH.read_text())
    assert corpus["entries"], "corpus must never be empty"
    for entry in corpus["entries"]:
        dtd, sigma = _instance(
            entry["seed"],
            num_types=entry["num_types"],
            num_keys=entry["num_keys"],
            num_fks=entry["num_fks"],
            num_neg_keys=entry["num_neg_keys"],
            num_neg_inclusions=entry["num_neg_inclusions"],
        )
        verdict = _cross_check(entry["seed"], dtd, sigma)
        assert verdict == entry["verdict"], (
            f"corpus seed {entry['seed']} ({entry['note']}): expected "
            f"{entry['verdict']}, got {verdict}"
        )


def test_configs_cover_the_advertised_matrix():
    """The harness really drives warm/cold x incremental/rebuild: each
    oracle leaves its mark in the work counters of a branchy instance
    (LP pruning off, so the support search really visits leaves)."""
    dtd, sigma = _branchy_cases()[0]
    stats = {}
    for name, (config, oracle) in DECIDERS.items():
        with oracle():
            stats[name] = check_consistency(
                dtd, sigma, replace(config, lp_prune=False)
            ).stats
    assert DECIDERS["exact-warm"][0].backend == "exact"
    assert DECIDERS["exact-cold"][0].backend == "exact"
    assert stats["exact-warm"]["exact_warm_solves"] > 0
    assert stats["exact-cold"]["exact_nodes"] > 0
    assert stats["exact-cold"]["exact_warm_solves"] == 0
    assert stats["highs-inc"]["assemblies"] == 1
    assert stats["legacy-reb"]["assemblies"] > 1


# ---------------------------------------------------------------------------
# Parallel executor sweep (DESIGN.md section 7): jobs ∈ {1, 2, 4}
# ---------------------------------------------------------------------------

#: Worker counts under differential test — every answer must equal the
#: ``jobs=1`` answer at each of them.  Counts that are pure
#: oversubscription for this container's cores are dropped by the shared
#: guard (the same ``effective_parallelism`` arithmetic the benchmark
#: timing gates in ``benchmarks/conftest.py`` use, so local and CI runs
#: skip identically; ``jobs=2`` always stays for pool-engagement
#: coverage).
JOBS_SWEEP = tuple(
    jobs for jobs in (1, 2, 4) if parallel_sweep_allowed(jobs)
)


def _branchy_cases():
    """Instances whose support search genuinely branches (the certified
    pipeline with LP pruning off)."""
    from repro.constraints.parser import parse_constraints
    from repro.workloads.generators import wide_flat_dtd

    cases = []
    for active in (3, 4):
        chain = [f"t{i}.x <= t{(i + 1) % active}.x" for i in range(active)]
        cases.append(
            (
                wide_flat_dtd(active + 2),
                parse_constraints("\n".join(chain + ["t0.x !<= t1.x"])),
            )
        )
    return cases


def test_jobs_sweep_verdicts_match_sequential():
    """A single solve is one sequential search at every ``jobs`` value:
    ``SpecSession.check()`` payloads — verdict, witness and stats — are
    byte-identical to ``jobs=1``, on the branchy instances and on a slice
    of the random fuzz family, on both backends."""
    from repro.service.registry import SessionRegistry

    cases = _branchy_cases() + [_instance(seed) for seed in (1, 5, 9, 14)]
    bases = (
        CheckerConfig(backend="exact", lp_prune=False),
        CheckerConfig(),
    )
    compared = 0
    for base in bases:
        registry = SessionRegistry(config=base)
        for dtd, sigma in cases:
            try:
                session = registry.session_for(dtd, sigma)
            except InvalidConstraintError:
                continue
            expected = json.dumps(session.check(), sort_keys=True)
            for jobs in JOBS_SWEEP[1:]:
                got = session.check({"jobs": jobs})
                assert json.dumps(got, sort_keys=True) == expected, (
                    f"jobs={jobs} payload diverged from jobs=1"
                )
                compared += 1
    assert compared > 0


def test_jobs_sweep_witnesses_stay_verified():
    """Feasible answers at ``jobs=4`` synthesize and re-verify like any
    sequential one, and — the search being the same sequential search —
    carry the ``jobs=1`` witness unchanged."""
    from repro.xmltree.serialize import tree_to_string

    checked = 0
    for seed in (2, 4, 8):
        dtd, sigma = _instance(seed)
        witnesses = {}
        for jobs in (1, 4):
            verifying = CheckerConfig(
                want_witness=True, verify_witness=True, lp_prune=False, jobs=jobs
            )
            try:
                result = check_consistency(dtd, sigma, verifying)
            except InvalidConstraintError:
                break
            if not result.consistent:
                break
            assert result.witness is not None  # verified inside the checker
            witnesses[jobs] = tree_to_string(result.witness)
        if len(witnesses) == 2:
            assert witnesses[4] == witnesses[1], f"seed {seed}: witness diverged"
            checked += 1
    assert checked > 0


def test_implies_all_jobs_sweep_verdicts_and_stats_identical():
    """Batch implication under the worker pool: every worker runs the
    identical sequential per-query path, so not only the verdicts but the
    complete per-query stats dicts must match ``jobs=1`` exactly."""
    from repro.checkers.implication import implies_all
    from repro.constraints.parser import parse_constraint
    from repro.workloads.generators import star_schema_family

    dtd, sigma = star_schema_family(3, consistent=True)
    phis = [parse_constraint(f"dim{i}.id -> dim{i}") for i in range(3)]
    phis += [parse_constraint(f"fact.ref{i} <= dim{i}.id") for i in range(3)]
    baseline = implies_all(
        dtd, sigma, phis, CheckerConfig(want_witness=False, jobs=1)
    )
    for jobs in JOBS_SWEEP[1:]:
        parallel = implies_all(
            dtd, sigma, phis, CheckerConfig(want_witness=False, jobs=jobs)
        )
        assert [r.implied for r in parallel] == [r.implied for r in baseline]
        for query, (seq, par) in enumerate(zip(baseline, parallel)):
            assert par.stats == seq.stats, (
                f"jobs={jobs} query={query}: stats diverged from sequential"
            )


# ---------------------------------------------------------------------------
# ``--jobs auto``: the adaptive level never changes an answer (ISSUE 8)
# ---------------------------------------------------------------------------


def test_auto_jobs_sessions_match_jobs1_and_stay_clamped():
    """The ``--jobs auto`` property: adaptive sessions return the jobs=1
    verdicts across branchy and random fuzz instances, and the
    controller's level stays inside ``[1, effective_parallelism()]``
    throughout.  Levels resolve to concrete ints per request, so while
    the controller sits at 1 the response is *byte-identical* to the
    fixed jobs=1 session (same cache key, same stats block); above 1 the
    jobs-sweep contract applies (same verdict and method — a worker may
    surface a different branch's witness)."""
    from repro.ilp.condsys import effective_parallelism
    from repro.service.metrics import AdaptiveJobsController
    from repro.service.registry import SessionRegistry

    base = CheckerConfig(
        want_witness=False, backend="exact", lp_prune=False, jobs=1
    )
    baseline = SessionRegistry(config=base)
    adaptive = SessionRegistry(config=base, auto_jobs=True)
    ceiling = max(1, effective_parallelism())
    cases = _branchy_cases() + [_instance(seed) for seed in (1, 3, 5, 9, 14)]
    compared = 0
    for dtd, sigma in cases:
        try:
            ref = baseline.session_for(dtd, sigma)
        except InvalidConstraintError:
            # Out-of-class draws are rejected uniformly on both sides,
            # before any controller is consulted.
            with pytest.raises(InvalidConstraintError):
                adaptive.session_for(dtd, sigma)
            continue
        session = adaptive.session_for(dtd, sigma)
        # A zero target marks every solve slow, so the controller climbs
        # as far as this container's CPU ceiling allows during the sweep.
        session._jobs_controller = AdaptiveJobsController(target_latency=0.0)
        for _ in range(3):
            level = session.jobs_controller.current()
            assert 1 <= level <= ceiling
            expected = ref.check()
            got = session.check()
            if level == 1:
                assert json.dumps(got, sort_keys=True) == json.dumps(
                    expected, sort_keys=True
                )
            else:
                assert got["consistent"] == expected["consistent"]
                assert got["method"] == expected["method"]
            compared += 1
        assert 1 <= session.jobs_controller.current() <= ceiling
    assert compared > 0


def test_auto_jobs_controller_moves_and_keeps_the_verdict():
    """Movement, independent of this container's CPU count: a two-level
    ceiling with a hair-trigger target must actually grow the controller
    after the first solve, and the request at jobs=2 replays the jobs=1
    answer from the response cache (``jobs`` cannot change a single
    solve, so it is not part of the key) with the direct verdict."""
    from repro.service.metrics import AdaptiveJobsController
    from repro.service.registry import SessionRegistry

    base = CheckerConfig(
        want_witness=False, backend="exact", lp_prune=False, jobs=1
    )
    dtd, sigma = _branchy_cases()[0]
    registry = SessionRegistry(config=base, auto_jobs=True)
    session = registry.session_for(dtd, sigma)
    session._jobs_controller = AdaptiveJobsController(
        target_latency=0.0, ceiling=2
    )
    first = session.check()
    assert session.jobs_controller.grown >= 1
    assert session.jobs_controller.current() == 2
    second = session.check()
    assert session.stats.cache_hits == 1, "every level shares one answer"
    assert second == first
    baseline = check_consistency(dtd, sigma, base)
    assert first["consistent"] == baseline.consistent
    assert second["consistent"] == baseline.consistent
    assert second["method"] == first["method"]
