"""The traced run: one workload's inputs replayed through each layer.

The replay calls the program's layers in pipeline order from here, in
process: ``dtd`` (parse) -> ``constraints`` (parse) -> ``encoding``
(fingerprint, build) -> ``ilp`` (assemble, solve) -> ``witness``
(synthesize, verify) -> ``checkers`` (``implies_all``) -> ``analysis``
(diagnose, repair) -> ``service`` (the request through the protocol
functions).  A span (name, start, end, parent span, op id) is recorded
around each call; spans stay in memory and are written to the work
directory when the run ends.  The same replay also runs untraced; the
gap between the traced and untraced totals is the tracing overhead (the
end-to-end runs never trace).  The op set is fixed for a seed rather than
bounded by ``--seconds``, so every count repeats exactly between two
traced runs with the same seed.  ``cli`` is timed
from fresh interpreters, and ``service.transport_ms`` from a served replay
of the same requests.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro import api
from repro.checkers.implication import implies_all, negate_constraint
from repro.constraints.parser import parse_constraint, parse_constraints
from repro.constraints.satisfaction import violations
from repro.dtd.parser import parse_dtd
from repro.encoding.combined import (
    build_encoding,
    clear_encoding_cache,
    encoding_cache_stats,
    spec_fingerprint,
)
from repro.ilp.assembled import assemble_arrays
from repro.ilp.condsys import solve_conditional_system
from repro.service import protocol
from repro.service.registry import SessionRegistry
from repro.witness.synthesize import synthesize_witness
from repro.xmltree.validate import conforms

from common import (
    Server,
    cycled,
    program_env,
    run_child,
    serve_stream,
    wire_request,
)

#: Ops replayed per traced run.
SERVE_EDIT_OPS = 120

#: Per-layer metric -> the end-to-end metric and workload it should move.
SHOULD_MOVE = {
    "cli.interpreter_ms": "nothing (control floor for cold_cli)",
    "cli.import_ms": "cold_cli p50/cpu; setup_s on serve_edit and batch_audit",
    "cli.import_rss_mb": "cold_cli peak_rss_mb",
    "dtd.parse_ms": "serve_edit p50",
    "constraints.parse_ms": "serve_edit p50",
    "encoding.fingerprint_ms": "serve_edit p50",
    "encoding.build_ms": "serve_edit p50, batch_audit throughput",
    "encoding.rows": "serve_edit p50, batch_audit throughput",
    "encoding.dtd_block_hit_ratio": "workload property: high on serve_edit, ~0 on cold_cli",
    "ilp.assemble_ms": "serve_edit p50",
    "ilp.solve_ms": "serve_edit p50 and tail, batch_audit throughput",
    "witness.synthesize_ms": "serve_edit p50 (consistent answers)",
    "witness.verify_ms": "serve_edit p50 (consistent answers)",
    "witness.nodes": "serve_edit p50 (consistent answers)",
    "checkers.implies_all_ms_per_query": "batch_audit throughput",
    "analysis.diagnose_ms": "batch_audit p50 and throughput",
    "analysis.repair_ms": "batch_audit p50 and throughput",
    "service.inproc_ms": "serve_edit p50",
    "service.transport_ms": "serve_edit p50 and throughput",
    "service.session_hit_ratio": "workload property (about the designed repeat share)",
    "service.registry_evictions": "workload property",
    "trace.overhead_ratio": "nothing (cost of the spans themselves)",
}
SHOULD_MOVE.update(
    {f"ilp.{name}": "serve_edit tail, batch_audit throughput"
     for name in ("dfs_nodes", "leaves_solved", "assemblies", "bound_patch_solves",
                  "cut_pool_hits", "propagation_visits", "exact_pivots",
                  "lp_probe_decided_ratio")}
)
SHOULD_MOVE.update(
    {f"analysis.{name}": "batch_audit throughput"
     for name in ("probes", "mus_probes", "assemblies", "repair_core_probes",
                  "repair_hitting_sets", "repair_probe_cache_hit_ratio")}
)

SAMPLES = 3


class Tracer:
    """In-memory span recorder; a disabled one only runs the body."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (name, start, end, parent, self.op_id)

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's (s)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child_time[index])
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(json.dumps({"span": index, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "op": op_id}) + "\n")


def trace_ops(corpus: dict, workload: str, seed: int) -> list[dict]:
    """The workload's inputs as uniform ops, in the workload's order."""
    ops = []
    if workload == "cold_cli":
        for entry in cycled(corpus["cold_cli"], seed, len(corpus["cold_cli"])):
            ops.append({"kind": entry["op"], "dtd": entry["dtd"],
                        "constraints": entry["constraints"],
                        "phis": [entry["phi"]] if "phi" in entry else [],
                        "expected": entry["expected"], "fresh_process": True})
    elif workload == "serve_edit":
        stream = serve_stream(corpus["serve_edit"]["requests"], seed, SERVE_EDIT_OPS)
        for request_id, (index, _) in enumerate(stream):
            entry = corpus["serve_edit"]["requests"][index]
            request = wire_request(corpus, index, request_id)
            ops.append({"kind": entry["op"], "dtd": request["dtd"],
                        "constraints": entry["constraints"],
                        "phis": [entry["phi"]] if "phi" in entry else [],
                        "expected": entry["expected"], "fresh_process": False})
    else:
        for entry in cycled(corpus["batch_audit"], seed, len(corpus["batch_audit"])):
            ops.append({"kind": "audit", "dtd": entry["dtd"],
                        "constraints": entry["constraints"],
                        "phis": entry["candidates"], "expected": entry["expected"],
                        "fresh_process": False})
    for request_id, op in enumerate(ops):
        request = {"id": request_id, "dtd": op["dtd"], "constraints": op["constraints"]}
        if op["kind"] == "audit":
            request.update(op="implies_all", phis=op["phis"])
        else:
            request["op"] = op["kind"]
            if op["phis"]:
                request["phi"] = op["phis"][0]
        op["request"] = request
    return ops


def _expected_consistent(op: dict) -> bool:
    """Whether the op's encoded system (Sigma, plus not-phi) is feasible."""
    if op["kind"] == "check":
        return op["expected"]
    if op["kind"] == "implies":
        return not op["expected"]
    return op["expected"]["consistent"]


class Replay:
    """One pass of the layer pipeline over the ops."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: dict[str, float] = {}
        self.failures: list[str] = []
        self.inproc_s: list[float] = []
        clear_encoding_cache()
        self.registry = SessionRegistry()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def run(self, ops: list[dict]) -> float:
        """Replay every op; return the total wall time (s)."""
        total = 0.0
        for op_id, op in enumerate(ops):
            started = time.perf_counter()
            self.tracer.op_id = op_id
            with self.tracer.span("op"):
                self.one(op)
            total += time.perf_counter() - started
        return total

    def one(self, op: dict) -> None:
        span = self.tracer.span
        if op["fresh_process"]:
            # A one-shot CLI call starts with empty caches.
            clear_encoding_cache()
            self.registry = SessionRegistry()
        with span("dtd.parse"):
            dtd = parse_dtd(op["dtd"])
        with span("constraints.parse"):
            sigma = parse_constraints(op["constraints"])
            phis = [parse_constraint(text) for text in op["phis"]]
        with span("encoding.fingerprint"):
            spec_fingerprint(dtd, sigma)
        target = sigma
        if op["kind"] == "implies":
            target = [*sigma, negate_constraint(phis[0])]
        cache_before = encoding_cache_stats()
        with span("encoding.build"):
            encoding = build_encoding(dtd, target)
        cache_after = encoding_cache_stats()
        self.count("dtd_block_hits", cache_after["hits"] - cache_before["hits"])
        self.count("dtd_block_lookups", sum(cache_after.values()) - sum(cache_before.values()))
        self.count("encoding.rows", encoding.condsys.base.num_rows)
        with span("ilp.assemble"):
            assemble_arrays(encoding.condsys.base)
        with span("ilp.solve"):
            result, stats = solve_conditional_system(encoding.condsys)
        for name in ("dfs_nodes", "leaves_solved", "assemblies", "bound_patch_solves",
                     "cut_pool_hits", "propagation_visits", "exact_pivots"):
            self.count(f"ilp.{name}", getattr(stats, name))
        self.count("lp_probe_decided", int(stats.lp_probe_decided))
        self.count("solves", 1)
        if result.feasible != _expected_consistent(op):
            self.failures.append(f"solver verdict differs on {op['request']['id']}")
        if result.feasible:
            with span("witness.synthesize"):
                witness = synthesize_witness(encoding, result.values)
            with span("witness.verify"):
                valid = bool(conforms(witness, dtd)) and not violations(
                    witness, target)
            self.count("witness.nodes", witness.size())
            if not valid:
                self.failures.append(f"witness rejected on {op['request']['id']}")
        if phis:
            with span("checkers.implies_all"):
                implies_all(dtd, sigma, phis)
            self.count("queries", len(phis))
        with span("analysis.diagnose"):
            report = api.diagnose((dtd, sigma))
        for name in ("probes", "mus_probes", "assemblies"):
            self.count(f"analysis.{name}", getattr(report.stats, name))
        if not report.consistent:
            with span("analysis.repair"):
                fix = api.repair((dtd, sigma))
            self.count("analysis.repair_core_probes", fix.stats.core_probes)
            self.count("analysis.repair_hitting_sets", fix.stats.hitting_sets)
            self.count("repair_probes", fix.stats.probes)
            self.count("repair_probe_cache_hits", fix.stats.probe_cache_hits)
        line = json.dumps(op["request"])
        started = time.perf_counter()
        with span("service.inproc"):
            request = protocol.parse_request(line)
            session = protocol.resolve_session(self.registry, request)
            payload = protocol.perform(session, request)
            protocol.encode(protocol.ok_response(request, payload, session))
        self.inproc_s.append(time.perf_counter() - started)


def _cli_layer(root: Path) -> dict:
    env = program_env(root)
    interpreter, imports, rss = [], [], []
    run_child([sys.executable, "-c", "import repro.cli"], env, root, 60.0)
    for _ in range(SAMPLES):
        _, _, wall, _, _ = run_child([sys.executable, "-c", "pass"], env, root, 60.0)
        interpreter.append(wall * 1e3)
        _, _, wall, _, peak = run_child(
            [sys.executable, "-c", "import repro.cli"], env, root, 60.0)
        imports.append(wall * 1e3)
        rss.append(peak)
    return {
        "cli.interpreter_ms": statistics.median(interpreter),
        "cli.import_ms": statistics.median(imports),
        "cli.import_rss_mb": statistics.median(rss),
    }


def _served(root: Path, work: Path, ops: list[dict]) -> tuple[list[float], dict, int]:
    """Round-trip times of the ops' requests through ``repro serve``."""
    server = Server(root, work / "trace-serve.log", 60.0)
    try:
        rtts, failed = [], 0
        for op in ops:
            sent = time.perf_counter()
            response = server.call(op["request"])
            rtts.append(time.perf_counter() - sent)
            failed += not _served_verdict_ok(op, response)
        stats = server.call({"id": "bench-stats", "op": "stats"})
        counters = stats["result"]["counters"] if stats and stats.get("ok") else {}
    finally:
        server.close()
    return rtts, counters, failed


def _served_verdict_ok(op: dict, response: dict | None) -> bool:
    if not response or not response.get("ok"):
        return False
    result = response["result"]
    if op["kind"] == "check":
        return result.get("consistent") is op["expected"]
    if op["kind"] == "implies":
        return result.get("implied") is op["expected"]
    implied = [answer.get("implied") for answer in result.get("results", [])]
    return implied == op["expected"]["implied"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_run(root: Path, work: Path, corpus: dict, workload: str, seed: int):
    """Returns ``(metrics, attempted, failed, notes)`` like a timed run."""
    ops = trace_ops(corpus, workload, seed)
    Replay(Tracer(False)).run(ops)  # lazy imports and the program's own memos
    # Untraced and traced passes in ABBA order, so host speed drifting
    # during the run cancels out of the overhead; spans and counts come
    # from the first traced pass.
    totals = {False: 0.0, True: 0.0}
    replays = []
    for enabled in (False, True, True, False):
        replay = Replay(Tracer(enabled))
        totals[enabled] += replay.run(ops)
        replays.append(replay)
    untraced_s, traced_s = totals[False], totals[True]
    traced = replays[1]
    tracer = traced.tracer
    tracer.dump(work / f"trace-{workload}-{seed}.jsonl")
    rtts, counters, served_failed = _served(root, work, ops)

    self_ms = {name: statistics.fmean(values) * 1e3
               for name, values in tracer.self_times().items()}
    counts = traced.counts
    metrics = dict(_cli_layer(root))
    for name in ("dtd.parse", "constraints.parse", "encoding.fingerprint",
                 "encoding.build", "ilp.assemble", "ilp.solve", "witness.synthesize",
                 "witness.verify", "analysis.diagnose", "analysis.repair",
                 "service.inproc"):
        metrics[f"{name}_ms"] = self_ms.get(name, 0.0)
    metrics["encoding.rows"] = counts["encoding.rows"]
    metrics["encoding.dtd_block_hit_ratio"] = _ratio(
        counts["dtd_block_hits"], counts["dtd_block_lookups"])
    for name in ("dfs_nodes", "leaves_solved", "assemblies", "bound_patch_solves",
                 "cut_pool_hits", "propagation_visits", "exact_pivots"):
        metrics[f"ilp.{name}"] = counts[f"ilp.{name}"]
    metrics["ilp.lp_probe_decided_ratio"] = _ratio(counts["lp_probe_decided"],
                                                   counts["solves"])
    metrics["witness.nodes"] = counts.get("witness.nodes", 0)
    metrics["checkers.implies_all_ms_per_query"] = _ratio(
        sum(tracer.self_times().get("checkers.implies_all", [])) * 1e3,
        counts.get("queries", 0))
    for name in ("probes", "mus_probes", "assemblies"):
        metrics[f"analysis.{name}"] = counts[f"analysis.{name}"]
    metrics["analysis.repair_core_probes"] = counts.get("analysis.repair_core_probes", 0)
    metrics["analysis.repair_hitting_sets"] = counts.get("analysis.repair_hitting_sets", 0)
    metrics["analysis.repair_probe_cache_hit_ratio"] = _ratio(
        counts.get("repair_probe_cache_hits", 0),
        counts.get("repair_probes", 0) + counts.get("repair_probe_cache_hits", 0))
    metrics["service.transport_ms"] = (
        statistics.fmean(rtts) - statistics.fmean(traced.inproc_s)) * 1e3
    metrics["service.session_hit_ratio"] = _ratio(
        counters.get("session.cache_hits", 0), counters.get("session.requests", 0))
    metrics["service.registry_evictions"] = counters.get("registry.sessions_evicted", 0)
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s

    failures = [failure for replay in replays for failure in replay.failures]
    failed = len(failures) + served_failed
    notes = [
        f"replay of {len(ops)} {workload} ops, two passes each: {traced_s:.3f} s "
        f"traced, {untraced_s:.3f} s untraced ({len(tracer.spans)} spans a pass)",
        *failures[:5],
    ]
    return metrics, len(ops), failed, notes
