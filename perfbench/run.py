"""Benchmark of the ``repro`` toolkit: three closed-loop workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_edit --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``cold_cli`` -- one ``python -m repro check|implies`` child at a time;
* ``serve_edit`` -- one ``repro serve --port 0`` process, one client
  connection sending inline ``check``/``implies`` requests;
* ``batch_audit`` -- the library in one single-threaded process running
  ``implies_all``, ``diagnose`` and ``repair`` per specification.

``--trace 0`` times the workload end to end; ``--trace 1`` replays its
inputs through each layer with spans around the calls (see ``tracing.py``).
Inputs and expected answers come from ``corpus.json``; ``--seed`` orders
them.  The lines before the last describe the run; the last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the program is not in the current directory.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import BenchError, checkout_root, load_corpus, work_dir
from workloads import WORKLOADS

UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_query"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = checkout_root()
        sys.path.insert(0, str(root / "src"))
        work = work_dir(root)
        corpus = load_corpus()
        if args.trace:
            from tracing import SHOULD_MOVE as should_move
            from tracing import traced_run

            metrics, attempted, failed, notes = traced_run(
                root, work, corpus, args.workload, args.seed)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, attempted, failed, notes = WORKLOADS[args.workload](
                root, work, corpus, args.seed, args.seconds)
            units = UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        moves = f"   [should move: {should_move[name]}]" if args.trace else ""
        print(f"  {name} = {value:.6g} {units[name]}{moves}")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
