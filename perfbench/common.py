"""Shared pieces of the benchmark: inputs, child processes, statistics.

Nothing here imports ``repro``: the end-to-end runs drive the program only
through its command line, its wire protocol and a separate library process.
"""

from __future__ import annotations

import json
import os
import random
import re
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

#: Scratch files (CLI spec files, server logs, span dumps); inside the
#: checkout and named in the root ``.gitignore``.
WORK_DIR_NAME = ".perfbench_work"

#: Share of ``serve_edit`` requests that repeat a recent request verbatim.
REPEAT_SHARE = 0.2
#: A repeat copies one of this many most recent distinct requests, so it
#: always finds its session resident (the registry keeps 32 by default).
REPEAT_WINDOW = 8


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad input, dead child)."""


def checkout_root() -> Path:
    """The checkout the benchmark runs from: the program must be there."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {root / 'src' / 'repro'}")
    return root


def work_dir(root: Path) -> Path:
    path = root / WORK_DIR_NAME
    path.mkdir(exist_ok=True)
    return path


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text())


def program_env(root: Path) -> dict:
    """Environment for a program child: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# -- op streams -------------------------------------------------------------


def cycled(items: list, seed: int, count: int) -> list:
    """``count`` items: seeded shuffles of ``items`` back to back."""
    rng = random.Random(seed)
    out: list = []
    while len(out) < count:
        order = list(items)
        rng.shuffle(order)
        out.extend(order)
    return out[:count]


def serve_stream(requests: list[dict], seed: int, count: int) -> list[tuple[int, bool]]:
    """``(corpus index, is_repeat)`` pairs for ``serve_edit``.

    Distinct requests come in seeded shuffles of the corpus; before each
    one, with probability :data:`REPEAT_SHARE`, a verbatim repeat of one of
    the last :data:`REPEAT_WINDOW` distinct requests is inserted.
    """
    rng = random.Random(seed)
    order: list[int] = []
    stream: list[tuple[int, bool]] = []
    recent: list[int] = []
    while len(stream) < count:
        if not order:
            order = list(range(len(requests)))
            rng.shuffle(order)
        if recent and rng.random() < REPEAT_SHARE:
            stream.append((rng.choice(recent), True))
            continue
        index = order.pop()
        stream.append((index, False))
        recent = (recent + [index])[-REPEAT_WINDOW:]
    return stream[:count]


def wire_request(corpus: dict, index: int, request_id: int) -> dict:
    """The line-protocol request for ``serve_edit`` corpus entry ``index``."""
    entry = corpus["serve_edit"]["requests"][index]
    request = {
        "id": request_id,
        "op": entry["op"],
        "dtd": corpus["serve_edit"]["dtds"][entry["dtd"]],
        "constraints": entry["constraints"],
    }
    if entry["op"] == "implies":
        request["phi"] = entry["phi"]
    return request


# -- statistics ---------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``: the value at sorted
    rank ``n - 10`` (1-based rank ``n - 10``, ten larger samples).  With
    ten or fewer samples there is no such percentile; the median stands in
    and the count beyond it is reported as is.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        rank = max(1, (n + 1) // 2)
    else:
        rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def latency_metrics(latencies_ms: list[float]) -> tuple[dict, str]:
    value, percentile, beyond = tail(latencies_ms)
    note = (
        f"latency_tail_ms is p{percentile:.2f} of {len(latencies_ms)} ops "
        f"({beyond} samples beyond it)"
    )
    return {
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": value,
    }, note


# -- child processes ----------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (all its threads)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float):
    """Run one child to completion; return its outcome and resource use.

    Returns ``(exit code or None on timeout, stdout, wall s, cpu s, peak
    rss MB)``.  The child is reaped with ``wait4`` so its own CPU time and
    peak RSS are read exactly; on timeout it is killed and reaped.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    timed_out = False
    try:
        out, _ = _read_until_eof(proc, timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out = b""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    cpu = usage.ru_utime + usage.ru_stime
    code = None if timed_out else proc.returncode
    return code, out.decode("utf-8", "replace"), wall, cpu, usage.ru_maxrss / 1024.0


def _read_until_eof(proc: subprocess.Popen, timeout: float):
    """Drain stdout until EOF (the child is exiting) within ``timeout``."""
    import selectors

    deadline = time.monotonic() + timeout
    chunks = []
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            if not selector.select(remaining):
                continue
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                return b"".join(chunks), None
            chunks.append(chunk)


_ANNOUNCE = re.compile(r"^listening on (\S+):(\d+)$", re.M)


class Server:
    """One ``repro serve --port 0`` child and one line-protocol connection."""

    def __init__(self, root: Path, log: Path, op_timeout: float):
        self.op_timeout = op_timeout
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=program_env(root), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self._sock = None
        try:
            self.address = self._await_announce(log, time.monotonic() + 120)
            self._connect()
        except (BenchError, OSError):
            self.proc.kill()
            self.proc.wait()
            self._log.close()
            raise

    def _await_announce(self, log: Path, deadline: float) -> tuple[str, int]:
        while time.monotonic() < deadline:
            match = _ANNOUNCE.search(log.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode}")
            time.sleep(0.002)
        raise BenchError("server did not announce its port")

    def _connect(self) -> None:
        self._sock = socket.create_connection(self.address, timeout=self.op_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.setblocking(False)
        self._pending = b""

    def _disconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def call(self, request: dict) -> dict | None:
        """One request; ``None`` when it timed out or the link broke.

        The client polls its socket instead of sleeping in ``recv``: a
        sleeping client adds its own wake-up delay, which varies with the
        host, to every latency.  Between polls it yields its CPU, so a
        server thread waiting for that CPU is not held up by the poll.
        After a failure the connection is replaced, so a late answer to the
        failed request cannot be read as the answer to the next one.
        """
        deadline = time.perf_counter() + self.op_timeout
        try:
            self._sock.sendall(json.dumps(request).encode() + b"\n")
            while b"\n" not in self._pending:
                if time.perf_counter() > deadline:
                    raise TimeoutError("no answer within the op timeout")
                try:
                    chunk = self._sock.recv(1 << 20)
                except BlockingIOError:
                    os.sched_yield()
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                self._pending += chunk
            line, _, self._pending = self._pending.partition(b"\n")
            return json.loads(line)
        except (OSError, ValueError):
            self._disconnect()
            try:
                self._connect()
            except OSError:
                pass
            return None

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        """``shutdown`` op, then kill if the process is still there."""
        try:
            if self.proc.poll() is None and self._sock is not None:
                self.call({"id": "bench-shutdown", "op": "shutdown"})
        finally:
            self._disconnect()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self._log.close()
