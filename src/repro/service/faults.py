"""Deterministic fault injection for the service's failure paths.

Every hardening claim of DESIGN.md section 9 — worker-crash recovery,
deadline cancellation, load shedding, snapshot resilience — needs its
failure to be *triggerable on demand*, or the recovery code rots
untested.  This registry names the fault points and arms them from one
environment variable, so the chaos suite (and an operator reproducing
an incident) can inject exactly one failure, deterministically::

    REPRO_FAULTS="worker.kill*1"          # kill one worker, once
    REPRO_FAULTS="drain.delay=0.2"        # every drain sleeps 200ms
    REPRO_FAULTS="conn.drop*2,solve.delay=0.01"

Grammar: comma-separated ``point``, ``point*N`` (fire at most N times),
``point=value`` and ``point=value*N`` (a float payload, e.g. a delay in
seconds).  Fault points currently wired:

========================  ====================================================
``worker.kill``           a pool worker ``os._exit``\\ s holding a task
                          (:func:`repro.ilp.condsys._pool_worker`)
``solve.delay``           the DFS sleeps ``value`` seconds per node (used to
                          force deadline expiry mid-solve)
``drain.delay``           the server's session drainer sleeps ``value``
                          seconds before running a batch
``conn.drop``             the TCP handler closes the connection instead of
                          answering a request
``persist.corrupt``       the snapshot writer corrupts the file it just
                          wrote atomically (load must cold-start cleanly)
========================  ====================================================

Armed counts must survive process boundaries: a killed worker's
*respawned* replacement must not re-fire a ``*1`` fault, even though it
is a fresh fork.  Limited faults therefore consume *token files* from a
shared directory — ``os.unlink`` is atomic, so exactly one process wins
each token, whichever side of a fork it is on.  The directory travels in
``REPRO_FAULTS_DIR`` so spawned subprocesses share it too.

When ``REPRO_FAULTS`` is unset every probe is a no-op costing one
``None`` check — the production hot path pays nothing.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

__all__ = [
    "FaultSpec",
    "FaultRegistry",
    "install",
    "reset",
    "fault_active",
    "fault_seconds",
]


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault point: fire ``times`` times (None = unlimited),
    optionally carrying a float ``value`` (e.g. a delay in seconds)."""

    point: str
    times: int | None = None
    value: float | None = None


def parse_faults(text: str) -> dict[str, FaultSpec]:
    """Parse the ``REPRO_FAULTS`` grammar; raise ``ValueError`` on junk.

    >>> parse_faults("worker.kill*1,drain.delay=0.25")
    ... # doctest: +NORMALIZE_WHITESPACE
    {'worker.kill': FaultSpec(point='worker.kill', times=1, value=None),
     'drain.delay': FaultSpec(point='drain.delay', times=None, value=0.25)}
    """
    specs: dict[str, FaultSpec] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        times: int | None = None
        value: float | None = None
        if "*" in entry:
            entry, times_text = entry.rsplit("*", 1)
            times = int(times_text)
            if times < 0:
                raise ValueError(f"fault count cannot be negative: {times}")
        if "=" in entry:
            entry, value_text = entry.split("=", 1)
            value = float(value_text)
        point = entry.strip()
        if not point:
            raise ValueError("fault spec names no point")
        specs[point] = FaultSpec(point=point, times=times, value=value)
    return specs


class FaultRegistry:
    """The armed fault points plus their cross-process token store."""

    def __init__(
        self,
        specs: dict[str, FaultSpec],
        token_dir: str | None = None,
        create_tokens: bool = False,
    ):
        self.specs = specs
        self.token_dir = token_dir
        needs_tokens = any(spec.times is not None for spec in specs.values())
        if needs_tokens and self.token_dir is None:
            self.token_dir = tempfile.mkdtemp(prefix="repro-faults-")
            create_tokens = True
        if create_tokens and self.token_dir is not None:
            os.makedirs(self.token_dir, exist_ok=True)
            for spec in specs.values():
                if spec.times is None:
                    continue
                for index in range(spec.times):
                    token = os.path.join(self.token_dir, f"{spec.point}.{index}")
                    with open(token, "w"):
                        pass

    def fire(self, point: str) -> FaultSpec | None:
        """Consume one firing of ``point``; ``None`` when it stays quiet.

        Unlimited faults always fire; limited faults race for a token
        file (atomic ``unlink``), so N armed firings fire exactly N
        times across every process sharing the token directory.
        """
        spec = self.specs.get(point)
        if spec is None:
            return None
        if spec.times is None:
            return spec
        if self.token_dir is None:
            return None
        for index in range(spec.times):
            try:
                os.unlink(os.path.join(self.token_dir, f"{point}.{index}"))
            except FileNotFoundError:
                continue
            return spec
        return None


#: Process-wide registry.  ``None`` with ``_INITIALIZED`` True means no
#: faults are armed; forked children inherit whatever the parent held.
_REGISTRY: FaultRegistry | None = None
_INITIALIZED = False


def _current() -> FaultRegistry | None:
    global _REGISTRY, _INITIALIZED
    if not _INITIALIZED:
        _INITIALIZED = True
        text = os.environ.get("REPRO_FAULTS", "")
        if text:
            token_dir = os.environ.get("REPRO_FAULTS_DIR")
            _REGISTRY = FaultRegistry(
                parse_faults(text),
                token_dir=token_dir,
                create_tokens=token_dir is None,
            )
            if _REGISTRY.token_dir is not None:
                # Export the store so spawned children share the counts.
                os.environ["REPRO_FAULTS_DIR"] = _REGISTRY.token_dir
    return _REGISTRY


def install(text: str, token_dir: str | None = None) -> FaultRegistry:
    """Arm fault points for this process tree (the chaos suite's entry).

    Also exports ``REPRO_FAULTS``/``REPRO_FAULTS_DIR`` so forked workers
    and spawned subprocesses observe the same armed set and share token
    counts.  Call :func:`reset` when done.
    """
    global _REGISTRY, _INITIALIZED
    reset()
    registry = FaultRegistry(
        parse_faults(text), token_dir=token_dir, create_tokens=True
    )
    os.environ["REPRO_FAULTS"] = text
    if registry.token_dir is not None:
        os.environ["REPRO_FAULTS_DIR"] = registry.token_dir
    _REGISTRY = registry
    _INITIALIZED = True
    return registry


def reset() -> None:
    """Disarm every fault point and drop the token store."""
    global _REGISTRY, _INITIALIZED
    if _REGISTRY is not None and _REGISTRY.token_dir is not None:
        shutil.rmtree(_REGISTRY.token_dir, ignore_errors=True)
    _REGISTRY = None
    _INITIALIZED = True
    os.environ.pop("REPRO_FAULTS", None)
    os.environ.pop("REPRO_FAULTS_DIR", None)


def fault_active(point: str) -> bool:
    """Should ``point`` fire now?  Consumes one armed firing.

    >>> fault_active("worker.kill")   # nothing armed: never fires
    False
    """
    registry = _current()
    return registry is not None and registry.fire(point) is not None


def fault_seconds(point: str) -> float | None:
    """The float payload of ``point`` if it fires now, else ``None``."""
    registry = _current()
    if registry is None:
        return None
    spec = registry.fire(point)
    return None if spec is None else spec.value
