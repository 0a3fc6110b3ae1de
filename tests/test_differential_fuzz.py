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
against the DTD and constraints (the checker raises on any invalid
tree), so a divergence anywhere in encoder, patch plumbing or
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
from repro.workloads.generators import random_dtd, random_unary_constraints
from tests.oracles import exact_cold, legacy_rebuild

#: The four deciders under differential test: a checker configuration
#: and the oracle context it runs in (``nullcontext`` = the product as
#: shipped).  Witnesses are synthesized and re-verified on one exact and
#: one float path; the other two run verdict-only so 200+ instances fit
#: the tier-1 budget.
DECIDERS = {
    "exact-warm": (
        CheckerConfig(want_witness=True, backend="exact"),
        nullcontext,
    ),
    "exact-cold": (CheckerConfig(want_witness=False, backend="exact"), exact_cold),
    "highs-inc": (
        CheckerConfig(want_witness=True, backend="scipy"),
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
