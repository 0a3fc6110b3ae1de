"""Replay one pass of the ``batch_audit`` specs in process and hash the answers.

Audits the 39 specs of ``perfbench/corpus.json`` (only read) in corpus
order, the way ``perfbench/audit_worker.py`` does: ``implies_all`` over
each spec's candidate constraints, ``diagnose``, and ``repair`` when the
spec is inconsistent.  Prints one JSON line with two digests:

* ``answers_sha256`` over the answers alone: implication verdicts,
  consistency, MUS, redundant constraints, repair actions and cost;
* ``sha256`` over the answers plus every stats dict (implication,
  diagnostics and repair counters).

``--rebuild`` runs the same pass under ``tests.oracles.rebuild_engines()``,
so diagnose and repair decide every probe with full checker calls.  The
two modes must agree on ``answers_sha256``; their stats differ by design::

    PYTHONPATH=src python benchmarks/audit_replay.py
    PYTHONPATH=src python benchmarks/audit_replay.py --rebuild
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus.json"


def audit(spec, candidates) -> tuple[dict, dict]:
    """One spec's answers and stats dicts."""
    from repro import api
    from repro.checkers.implication import implies_all

    results = implies_all(spec.dtd, list(spec.constraints), candidates)
    report = api.diagnose(spec)
    answers = {
        "implied": [result.implied for result in results],
        "consistent": report.consistent,
        "mus": [str(phi) for phi in report.mus],
        "redundant": [str(phi) for phi in report.redundant],
    }
    stats = {
        "implies": [result.stats for result in results],
        "diagnose": report.stats.as_dict(),
    }
    if not report.consistent:
        fix = api.repair(spec)
        answers["repair"] = {
            "found": fix.found,
            "verified": fix.verified,
            "cost": fix.cost,
            "actions": [action.as_dict() for action in fix.actions],
        }
        stats["repair"] = fix.stats.as_dict()
    return answers, stats


def replay(rebuild: bool = False) -> dict:
    """Audit every spec once; return the two digests."""
    from repro import api
    from repro.constraints.parser import parse_constraint

    entries = json.loads(CORPUS.read_text())["batch_audit"]
    answers_digest = hashlib.sha256()
    digest = hashlib.sha256()
    if rebuild:
        sys.path.insert(0, str(ROOT))
        from tests.oracles import rebuild_engines

        engines = rebuild_engines()
    else:
        engines = contextlib.nullcontext()
    with engines:
        for entry in entries:
            spec = api.Spec.parse(entry["dtd"], entry["constraints"])
            candidates = [parse_constraint(text) for text in entry["candidates"]]
            answers, stats = audit(spec, candidates)
            answers_line = json.dumps(answers)
            answers_digest.update((answers_line + "\n").encode("utf-8"))
            line = json.dumps({"answers": answers, "stats": stats})
            digest.update((line + "\n").encode("utf-8"))
    return {
        "specs": len(entries),
        "answers_sha256": answers_digest.hexdigest(),
        "sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rebuild",
        action="store_true",
        help="decide diagnose and repair probes with full checker calls",
    )
    args = parser.parse_args(argv)
    print(json.dumps({"rebuild": args.rebuild, **replay(args.rebuild)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
