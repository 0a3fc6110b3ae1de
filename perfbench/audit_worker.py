"""The library process of the ``batch_audit`` workload.

Started by ``run.py`` as ``python perfbench/audit_worker.py ORDER_FILE``
with the checkout's ``src`` on ``PYTHONPATH``.  It imports the library,
parses the audit specs, audits two of them as warm-up and prints
``ready``.  On ``go SECONDS`` it audits specs in the order the file gives
(cycling) until SECONDS have passed, printing one JSON line per spec, then a
``done`` line with its own CPU time and peak RSS.  ``quit`` ends it without
a run.  One audit is ``implies_all`` over the spec's candidate constraints,
``diagnose``, and ``repair`` when the spec is inconsistent.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from repro import api
from repro.checkers.implication import implies_all
from repro.constraints.parser import parse_constraint

CORPUS = Path(__file__).resolve().with_name("corpus.json")


def audit(spec, candidates) -> dict:
    implied = [r.implied for r in implies_all(spec.dtd, list(spec.constraints), candidates)]
    report = api.diagnose(spec)
    answers = {
        "implied": implied,
        "consistent": report.consistent,
        "mus": sorted(str(phi) for phi in report.mus),
    }
    if not report.consistent:
        fix = api.repair(spec)
        answers["repair_cost"] = fix.cost
        answers["verified"] = bool(fix.found and fix.verified)
    return answers


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(order_file: str) -> int:
    entries = json.loads(CORPUS.read_text())["batch_audit"]
    specs = [
        (api.Spec.parse(e["dtd"], e["constraints"]),
         [parse_constraint(text) for text in e["candidates"]])
        for e in entries
    ]
    order = json.loads(Path(order_file).read_text())
    for spec, candidates in specs[:2]:
        audit(spec, candidates)
    emit({"ready": True})
    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds = float(command[1])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_before = usage.ru_utime + usage.ru_stime
    started = time.perf_counter()
    done = 0
    while time.perf_counter() - started < seconds:
        index = order[done % len(order)]
        spec, candidates = specs[index]
        op_started = time.perf_counter()
        try:
            answers = audit(spec, candidates)
        except Exception as exc:  # noqa: BLE001 - an op error is a failed op
            emit({"i": index, "error": f"{type(exc).__name__}: {exc}"})
        else:
            emit({"i": index, "ms": (time.perf_counter() - op_started) * 1e3,
                  "answers": answers})
        done += 1
    elapsed = time.perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_SELF)
    emit({"done": True, "elapsed_s": elapsed,
          "cpu_s": usage.ru_utime + usage.ru_stime - cpu_before,
          "peak_rss_mb": usage.ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
