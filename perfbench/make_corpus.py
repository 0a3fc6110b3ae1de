"""Regenerate ``perfbench/corpus.json``: the benchmark's inputs and answers.

The corpus is the fixed input set every benchmark run replays (a run's
``--seed`` only orders it and places the repeats), together with the
expected answer of every operation.  Answers are taken from instances known
by construction where they exist (D1/Sigma1 is inconsistent; the
``consistent`` flag of ``teachers_family``/``star_schema_family``; the
2-element MUS of ``registrar_mus_family``).  Every other answer is computed
by the program and cross-checked here: each "consistent" / "not implied"
answer must come with a witness or counterexample that conforms to the DTD,
satisfies Sigma and (for implication) violates phi.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_corpus.py
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

from repro import api
from repro.checkers.implication import implies_all
from repro.constraints.parser import parse_constraint
from repro.constraints.satisfaction import satisfies, violations
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import dtd_to_string
from repro.service import protocol
from repro.service.registry import SessionRegistry
from repro.workloads.examples import sigma1_constraints, teachers_dtd_d1
from repro.workloads.generators import (
    random_dtd,
    random_unary_constraints,
    registrar_mus_family,
    star_schema_family,
    teachers_family,
)
from repro.workloads.realistic import (
    bibliography_constraints,
    bibliography_dtd,
    inconsistent_bibliography,
)
from repro.xmltree.validate import conforms

OUT = Path(__file__).with_name("corpus.json")

#: Seed of the corpus itself.  A run's ``--seed`` never reaches this file.
CORPUS_SEED = 20011

#: ``serve_edit`` requests costing more than this in process (about 30
#: times the median request) are left out: one such request, recurring
#: in every pass over the corpus, would alone make up the ten slowest
#: samples of a run, so the tail percentile would sit on the boundary
#: between that request and the rest instead of inside the heavy mode.
SERVE_COST_CAP_MS = 100.0


def sigma_text(constraints) -> str:
    return "\n".join(str(phi) for phi in constraints)


def random_phi(rng: random.Random, dtd) -> str:
    """A unary key or inclusion over the DTD's attribute pairs."""
    pairs = dtd.attribute_pairs()
    tau, attr = rng.choice(pairs)
    if rng.random() < 0.5:
        return f"{tau}.{attr} -> {tau}"
    other, other_attr = rng.choice(pairs)
    return f"{tau}.{attr} <= {other}.{other_attr}"


def require_witness(tree, dtd, sigma, phi=None) -> None:
    """A positive answer's tree must conform, satisfy Sigma, refute phi."""
    if tree is None or not conforms(tree, dtd) or violations(tree, sigma):
        raise SystemExit("witness cross-check failed")
    if phi is not None and satisfies(tree, phi):
        raise SystemExit("counterexample satisfies phi")


def answer_check(dtd_text: str, sigma: str) -> bool:
    spec = api.Spec.parse(dtd_text, sigma)
    result = api.check(spec)
    if result.consistent:
        require_witness(result.witness, spec.dtd, list(spec.constraints))
    return result.consistent


def answer_implies(dtd_text: str, sigma: str, phi_text: str) -> bool:
    spec = api.Spec.parse(dtd_text, sigma)
    phi = parse_constraint(phi_text)
    result = api.implies(spec, phi)
    if not result.implied:
        require_witness(
            result.counterexample, spec.dtd, list(spec.constraints), phi
        )
    return result.implied


def spec_entry(name: str, dtd, sigma) -> dict:
    text = dtd_to_string(dtd)
    if parse_dtd(text) != dtd:
        raise SystemExit(f"{name}: DTD text does not round-trip")
    return {"name": name, "dtd": text, "constraints": sigma_text(sigma)}


def cold_cli_corpus(rng: random.Random) -> list[dict]:
    """One-shot CLI invocations: paper examples, families, random specs."""
    named = [
        ("d1_sigma1", teachers_dtd_d1(), sigma1_constraints(), False),
        ("bibliography", bibliography_dtd(), bibliography_constraints(), True),
        ("bibliography_broken", *inconsistent_bibliography(), False),
    ]
    for size in (2, 3):
        for consistent in (True, False):
            named.append(
                (f"teachers_{size}_{consistent}", *teachers_family(size, consistent),
                 consistent)
            )
            named.append(
                (f"star_{size}_{consistent}",
                 *star_schema_family(size, consistent), consistent)
            )
    ops = []
    for name, dtd, sigma, known in named:
        entry = spec_entry(name, dtd, sigma)
        got = answer_check(entry["dtd"], entry["constraints"])
        if got != known:
            raise SystemExit(f"{name}: checker disagrees with construction")
        ops.append({**entry, "op": "check", "expected": got})
    for name, dtd, sigma, _ in named[:2]:
        entry = spec_entry(name, dtd, sigma)
        phi = random_phi(rng, dtd)
        ops.append({**entry, "op": "implies", "phi": phi,
                    "expected": answer_implies(entry["dtd"], entry["constraints"], phi)})
    for index in range(16):
        seed = CORPUS_SEED + 100 + index
        dtd = random_dtd(seed, num_types=6)
        sigma = random_unary_constraints(seed, dtd, 2, 2, int(index % 3 == 0))
        entry = spec_entry(f"random_{index}", dtd, sigma)
        if index % 2:
            phi = random_phi(rng, dtd)
            ops.append({**entry, "op": "implies", "phi": phi,
                        "expected": answer_implies(entry["dtd"], entry["constraints"], phi)})
        else:
            ops.append({**entry, "op": "check",
                        "expected": answer_check(entry["dtd"], entry["constraints"])})
    return ops


def serve_edit_corpus(rng: random.Random) -> dict:
    """A small DTD pool, each DTD recurring under many distinct Sigmas."""
    pool = {"bibliography": bibliography_dtd()}
    for index in range(5):
        pool[f"random_dtd_{index}"] = random_dtd(CORPUS_SEED + 200 + index, num_types=6)
    dtds = {name: dtd_to_string(dtd) for name, dtd in pool.items()}
    requests = []
    for position, (name, dtd) in enumerate(pool.items()):
        seen: set[str] = set()
        seed = CORPUS_SEED + 1000 * (1 + position)
        while len(seen) < 60:
            seed += 1
            sigma = sigma_text(
                random_unary_constraints(seed, dtd, 2, 2, int(rng.random() < 0.3))
            )
            if sigma in seen:
                continue
            if len(seen) % 2:
                request = {"dtd": name, "constraints": sigma, "op": "check",
                           "expected": answer_check(dtds[name], sigma)}
            else:
                phi = random_phi(rng, dtd)
                request = {"dtd": name, "constraints": sigma, "op": "implies",
                           "phi": phi,
                           "expected": answer_implies(dtds[name], sigma, phi)}
            if served_cost_ms(dtds[name], request) > SERVE_COST_CAP_MS:
                continue
            seen.add(sigma)
            requests.append(request)
    return {"dtds": dtds, "requests": requests}


def served_cost_ms(dtd_text: str, entry: dict) -> float:
    """Median in-process time of the request through the protocol path."""
    request = {"id": 0, "op": entry["op"], "dtd": dtd_text,
               "constraints": entry["constraints"]}
    if "phi" in entry:
        request["phi"] = entry["phi"]
    line = json.dumps(request)
    times = []
    for _ in range(3):
        registry = SessionRegistry()
        started = time.perf_counter()
        parsed = protocol.parse_request(line)
        session = protocol.resolve_session(registry, parsed)
        protocol.encode(protocol.ok_response(parsed, protocol.perform(session, parsed),
                                             session))
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def audit_answers(dtd_text: str, sigma: str, candidates: list[str]) -> dict:
    spec = api.Spec.parse(dtd_text, sigma)
    phis = [parse_constraint(text) for text in candidates]
    verdicts = []
    for phi, result in zip(phis, implies_all(spec.dtd, list(spec.constraints), phis)):
        if not result.implied:
            require_witness(result.counterexample, spec.dtd, list(spec.constraints), phi)
        verdicts.append(result.implied)
    report = api.diagnose(spec)
    answers = {"implied": verdicts, "consistent": report.consistent,
               "mus": sorted(str(phi) for phi in report.mus)}
    if not report.consistent:
        fix = api.repair(spec)
        if not (fix.found and fix.verified):
            raise SystemExit("repair did not verify")
        answers["repair_cost"] = fix.cost
    return answers


def batch_audit_corpus(rng: random.Random) -> list[dict]:
    """Specs to audit: MUS/repair families plus random unary specs."""
    named = [("d1_sigma1", teachers_dtd_d1(), sigma1_constraints(), False, None)]
    for filler in (2, 4, 6, 8):
        dtd, sigma = registrar_mus_family(filler)
        mus = ["approval.stamp -> approval", "approval.stamp => auditor.aid"]
        named.append((f"registrar_{filler}", dtd, sigma, False, mus))
    for size in (2, 3, 4):
        for consistent in (True, False):
            named.append((f"teachers_{size}_{consistent}",
                          *teachers_family(size, consistent), consistent, None))
    for size in (2, 3):
        for consistent in (True, False):
            named.append((f"star_{size}_{consistent}",
                          *star_schema_family(size, consistent), consistent, None))
    for index in range(24):
        seed = CORPUS_SEED + 300 + index
        dtd = random_dtd(seed, num_types=6)
        sigma = random_unary_constraints(seed, dtd, 2, 2, index % 2)
        named.append((f"random_{index}", dtd, sigma, None, None))
    specs = []
    for name, dtd, sigma, known, known_mus in named:
        entry = spec_entry(name, dtd, sigma)
        candidates = [random_phi(rng, dtd) for _ in range(4)]
        answers = audit_answers(entry["dtd"], entry["constraints"], candidates)
        if known is not None and answers["consistent"] != known:
            raise SystemExit(f"{name}: checker disagrees with construction")
        if known_mus is not None and answers["mus"] != sorted(known_mus):
            raise SystemExit(f"{name}: MUS disagrees with construction")
        specs.append({**entry, "candidates": candidates, "expected": answers})
    return specs


def main() -> int:
    # One generator per workload, so regenerating one section leaves the
    # others' inputs unchanged.
    corpus = {
        "corpus_seed": CORPUS_SEED,
        "cold_cli": cold_cli_corpus(random.Random(CORPUS_SEED + 1)),
        "serve_edit": serve_edit_corpus(random.Random(CORPUS_SEED + 2)),
        "batch_audit": batch_audit_corpus(random.Random(CORPUS_SEED + 3)),
    }
    OUT.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
