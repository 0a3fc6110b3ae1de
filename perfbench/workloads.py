"""The three timed end-to-end workloads.

Each function runs one workload for ``seconds`` of timed ops after its
set-up and returns ``(metrics, attempted, failed, notes)``.  ``notes`` are
the workload properties a claim cites (hit shares, the consistent /
inconsistent split, which percentile ``latency_tail_ms`` is).  An op that
errors, times out, exits with code 2 or answers differently from the
corpus counts as failed.
"""

from __future__ import annotations

import functools
import json
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BenchError,
    Server,
    cycled,
    latency_metrics,
    proc_cpu_s,
    proc_peak_rss_mb,
    program_env,
    run_child,
    serve_stream,
    wire_request,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

CLI_TIMEOUT_S = 60.0
SERVE_TIMEOUT_S = 10.0
AUDIT_TIMEOUT_S = 60.0


def _split_note(verdicts: list[bool], yes: str, no: str) -> str:
    positive = sum(verdicts)
    return f"answers: {positive} {yes} / {len(verdicts) - positive} {no}"


def _common(latencies: list[float], elapsed: float, cpu_s: float, rss: float,
            setups: list[float]) -> tuple[dict, str]:
    metrics, note = latency_metrics(latencies)
    metrics["throughput_ops_s"] = len(latencies) / elapsed
    metrics["cpu_ms_per_op"] = cpu_s * 1e3 / len(latencies)
    metrics["peak_rss_mb"] = rss
    metrics["setup_s"] = statistics.median(setups)
    return metrics, note


# -- cold_cli -------------------------------------------------------------------


def cold_cli(root: Path, work: Path, corpus: dict, seed: int, seconds: float):
    """One ``python -m repro check|implies`` child at a time, cold each time.

    Set-up is what every invocation pays before it can check: a fresh
    interpreter importing ``repro.cli`` (median of :data:`SETUPS`, after
    one untimed import that leaves the byte-code cache in place).
    """
    env = program_env(root)
    entries = corpus["cold_cli"]
    spec_dir = work / "cold_cli"
    spec_dir.mkdir(exist_ok=True)
    argvs = []
    for entry in entries:
        dtd = spec_dir / f"{entry['name']}.dtd"
        sigma = spec_dir / f"{entry['name']}.sigma"
        dtd.write_text(entry["dtd"])
        sigma.write_text(entry["constraints"] + "\n")
        argv = [sys.executable, "-m", "repro", entry["op"], str(dtd), str(sigma)]
        if entry["op"] == "implies":
            argv.append(entry["phi"])
        argvs.append(argv)

    import_argv = [sys.executable, "-c", "import repro.cli"]
    run_child(import_argv, env, root, CLI_TIMEOUT_S)
    setups = []
    for _ in range(SETUPS):
        code, _, wall, _, _ = run_child(import_argv, env, root, CLI_TIMEOUT_S)
        if code != 0:
            raise BenchError("python -c 'import repro.cli' failed")
        setups.append(wall)

    order = cycled(list(range(len(entries))), seed, 100_000)
    latencies = []
    cpu_total, rss_peak, failed = 0.0, 0.0, 0
    started = time.perf_counter()
    for index in order:
        if time.perf_counter() - started >= seconds:
            break
        entry = entries[index]
        code, out, wall, cpu, rss = run_child(argvs[index], env, root, CLI_TIMEOUT_S)
        latencies.append(wall * 1e3)
        cpu_total += cpu
        rss_peak = max(rss_peak, rss)
        word = "consistent" if entry["op"] == "check" else "implied"
        answer = {0: True, 1: False}.get(code)
        if answer is None or f"{word}: {answer}" not in out or answer != entry["expected"]:
            failed += 1
    elapsed = time.perf_counter() - started
    metrics, tail_note = _common(latencies, elapsed, cpu_total, rss_peak, setups)
    checks = [entries[i]["expected"] for i in order[: len(latencies)]
              if entries[i]["op"] == "check"]
    implies = [entries[i]["expected"] for i in order[: len(latencies)]
               if entries[i]["op"] == "implies"]
    notes = [
        tail_note,
        "check " + _split_note(checks, "consistent", "inconsistent"),
        "implies " + _split_note(implies, "implied", "not implied"),
    ]
    return metrics, len(latencies), failed, notes


# -- serve_edit -----------------------------------------------------------------


def _serve_counters(server: Server) -> dict:
    response = server.call({"id": "bench-stats", "op": "stats"})
    if not response or not response.get("ok"):
        raise BenchError("the stats op failed")
    return response["result"]["counters"]


def _warm_up(server: Server, dtds: dict) -> None:
    """Cache every pool DTD's encoding block under an empty Sigma (a
    specification no timed request sends)."""
    for text in dtds.values():
        response = server.call({"id": "bench-warm", "op": "check", "dtd": text,
                                "constraints": ""})
        if not response or not response.get("ok"):
            raise BenchError("warm-up request failed")


def serve_edit(root: Path, work: Path, corpus: dict, seed: int, seconds: float):
    """One ``repro serve`` process, one closed-loop client connection."""
    requests = corpus["serve_edit"]["requests"]
    dtds = corpus["serve_edit"]["dtds"]
    stream = serve_stream(requests, seed, 200_000)
    setups = []
    server = None
    try:
        for attempt in range(SETUPS):
            if server is not None:
                server.close()
                server = None
            started = time.perf_counter()
            server = Server(root, work / f"serve-{attempt}.log", SERVE_TIMEOUT_S)
            _warm_up(server, dtds)
            setups.append(time.perf_counter() - started)
        before = _serve_counters(server)
        cpu_before = server.cpu_s()
        latencies, answers = [], []
        started = time.perf_counter()
        for request_id, (index, _) in enumerate(stream):
            if time.perf_counter() - started >= seconds:
                break
            request = wire_request(corpus, index, request_id)
            sent = time.perf_counter()
            response = server.call(request)
            latencies.append((time.perf_counter() - sent) * 1e3)
            answers.append(response)
        elapsed = time.perf_counter() - started
        cpu = server.cpu_s() - cpu_before
        after = _serve_counters(server)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.close()

    done = stream[: len(latencies)]
    checked = [_serve_answer(corpus, index, response)
               for (index, _), response in zip(done, answers)]
    failed = sum(not ok for ok, _ in checked)
    rejected = sum(not conforming for _, conforming in checked)
    metrics, tail_note = _common(latencies, elapsed, cpu, rss, setups)
    requests_served = after["session.requests"] - before["session.requests"]
    hits = after["session.cache_hits"] - before["session.cache_hits"]
    repeats = sum(repeat for _, repeat in done)
    seen_dtds = set(dtds)  # the warm-up sent every pool DTD
    recurring = 0
    for index, _ in done:
        recurring += requests[index]["dtd"] in seen_dtds
        seen_dtds.add(requests[index]["dtd"])
    checks = [requests[i]["expected"] for i, _ in done if requests[i]["op"] == "check"]
    implies = [requests[i]["expected"] for i, _ in done if requests[i]["op"] == "implies"]
    notes = [
        tail_note,
        f"session-cache hit share {hits / max(1, requests_served):.3f} "
        f"({hits} of {requests_served}); designed verbatim-repeat share "
        f"{repeats / len(done):.3f}",
        f"DTD recurrence share {recurring / len(done):.3f} (timed requests whose "
        f"DTD an earlier request, warm-up included, already sent; pool of "
        f"{len(dtds)} DTDs)",
        f"registry evictions during the run: "
        f"{after['registry.sessions_evicted'] - before['registry.sessions_evicted']}",
        "check " + _split_note(checks, "consistent", "inconsistent"),
        "implies " + _split_note(implies, "implied", "not implied"),
        f"served documents the program's validator rejects after parsing: "
        f"{rejected} (empty #PCDATA text does not survive serialization; "
        "not counted as failed)",
    ]
    return metrics, len(latencies), failed, notes


def _serve_answer(corpus: dict, index: int, response: dict | None) -> tuple[bool, bool]:
    """``(answer ok, document conforms)`` for one served response.

    The answer is ok when the verdict matches the corpus and a positive
    answer's document satisfies Sigma and (for implication) refutes phi.
    Whether that document, parsed back from the wire, conforms to the DTD
    is reported apart: a witness whose ``#PCDATA`` elements hold empty
    text serializes to ``<a></a>``, which the program's own validator then
    rejects, so conformance is a known defect of the text round trip rather
    than a wrong answer.
    """
    if not response or not response.get("ok"):
        return False, True
    entry = corpus["serve_edit"]["requests"][index]
    result = response["result"]
    if entry["op"] == "check":
        if result.get("consistent") is not entry["expected"]:
            return False, True
        if not entry["expected"]:
            return True, True
        return _document(corpus, entry, result.get("witness"))
    if result.get("implied") is not entry["expected"]:
        return False, True
    if entry["expected"]:
        return True, True
    return _document(corpus, entry, result.get("counterexample"))


def _document(corpus: dict, entry: dict, document: str | None) -> tuple[bool, bool]:
    """Check a served witness / counterexample with the library's own
    ``violations``, ``satisfies`` and ``conforms`` (after the timed window)."""
    if document is None:
        return False, True
    return _check_document(corpus["serve_edit"]["dtds"][entry["dtd"]],
                           entry["constraints"], entry.get("phi"), document)


@functools.lru_cache(maxsize=4096)
def _check_document(dtd_text: str, sigma: str, phi: str | None,
                    document: str) -> tuple[bool, bool]:
    from repro.constraints.parser import parse_constraint, parse_constraints
    from repro.constraints.satisfaction import satisfies, violations
    from repro.dtd.parser import parse_dtd
    from repro.xmltree.parse import parse_xml
    from repro.xmltree.validate import conforms

    tree = parse_xml(document)
    ok = not violations(tree, parse_constraints(sigma))
    if phi is not None:
        ok = ok and not satisfies(tree, parse_constraint(phi))
    return ok, bool(conforms(tree, parse_dtd(dtd_text)))


# -- batch_audit ----------------------------------------------------------------


class _Worker:
    """One ``audit_worker.py`` library process; a thread queues its lines."""

    def __init__(self, root: Path, order_file: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("audit_worker.py")),
             str(order_file)],
            cwd=root, env=program_env(root), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("{"):
                self._lines.put(json.loads(line))
        self._lines.put(None)

    def read(self, timeout: float) -> dict | None:
        """The next JSON line; ``None`` on timeout or end of output."""
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            return None

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("quit")
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdin.close()
        self.proc.stdout.close()


def batch_audit(root: Path, work: Path, corpus: dict, seed: int, seconds: float):
    """The library in its own single-threaded process, auditing specs."""
    specs = corpus["batch_audit"]
    order_file = work / "batch_audit_order.json"
    order = cycled(list(range(len(specs))), seed, 20_000)
    order_file.write_text(json.dumps(order))
    setups = []
    worker = None
    try:
        for _ in range(SETUPS):
            if worker is not None:
                worker.close()
            started = time.perf_counter()
            worker = _Worker(root, order_file)
            if not (worker.read(120.0) or {}).get("ready"):
                raise BenchError("audit worker did not get ready")
            setups.append(time.perf_counter() - started)
        worker.send(f"go {seconds}")
        go = time.perf_counter()
        latencies, failed, done = [], 0, None
        verdicts = []
        while done is None:
            line = worker.read(AUDIT_TIMEOUT_S + seconds)
            if line is None:
                # A timed-out or crashed op is a failed op; it ends the run.
                failed += 1
                verdicts.append(None)
                latencies.append((time.perf_counter() - go) * 1e3)
                done = {"elapsed_s": time.perf_counter() - go}
                if worker.proc.poll() is None:
                    done["cpu_s"] = proc_cpu_s(worker.proc.pid)
                    done["peak_rss_mb"] = proc_peak_rss_mb(worker.proc.pid)
                    worker.proc.kill()
                else:
                    done["cpu_s"], done["peak_rss_mb"] = 0.0, 0.0
            elif line.get("done"):
                done = line
            else:
                expected = specs[line["i"]]["expected"]
                verdicts.append(expected["consistent"])
                if "error" in line:
                    failed += 1
                    continue
                latencies.append(line["ms"])
                if not _audit_answer_ok(expected, line["answers"]):
                    failed += 1
    finally:
        if worker is not None:
            worker.close()
    attempted = len(verdicts)
    metrics, tail_note = _common(latencies, done["elapsed_s"], done["cpu_s"],
                                 done["peak_rss_mb"], setups)
    metrics["throughput_ops_s"] = attempted / done["elapsed_s"]
    metrics["cpu_ms_per_op"] = done["cpu_s"] * 1e3 / attempted
    split = [v for v in verdicts if v is not None]
    notes = [tail_note, "specs " + _split_note(split, "consistent", "inconsistent")]
    return metrics, attempted, failed, notes


def _audit_answer_ok(expected: dict, answers: dict) -> bool:
    if answers["implied"] != expected["implied"]:
        return False
    if answers["consistent"] != expected["consistent"] or answers["mus"] != expected["mus"]:
        return False
    if expected["consistent"]:
        return "repair_cost" not in answers
    return answers.get("verified") is True and answers["repair_cost"] == expected["repair_cost"]


WORKLOADS = {"cold_cli": cold_cli, "serve_edit": serve_edit, "batch_audit": batch_audit}
