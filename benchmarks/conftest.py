"""Benchmark suite configuration.

Every benchmark asserts the *correctness* of the answer it times, so a
regression in a decision procedure fails the benchmark run rather than
silently producing fast nonsense. Run with:

    pytest benchmarks/ --benchmark-only

This conftest is also the one home of the **hardware skip guard** for
wall-clock gates: both the local suite and CI's cgroup-limited 2-core
runners decide "can this speedup gate mean anything here?" through
:func:`parallel_speedup_skip_reason`, which reads the same
:func:`repro.service.server.effective_parallelism` primitive that sizes
the server's executor — so local runs and CI skip identically instead
of drifting between ``os.cpu_count()`` and affinity masks.
"""

import pytest


def parallel_speedup_skip_reason(processes: int) -> "str | None":
    """Why a ``processes``-process wall-clock gate cannot run here, or ``None``.

    Speedup gates need real hardware: ``effective_parallelism()`` cores
    (affinity-aware — what CI's 2-core runners actually grant).
    Correctness gates never skip on cores; only timing claims do.
    """
    from repro.service.server import effective_parallelism

    cores = effective_parallelism()
    if cores < processes:
        return (
            f"wall-clock speedup needs >= {processes} effective CPU cores, "
            f"container has {cores}; the correctness gates still ran"
        )
    return None


@pytest.fixture
def speedup_gate():
    """Callable fixture: ``speedup_gate(processes)`` skips when the
    hardware cannot support a ``processes``-process wall-clock claim."""

    def gate(processes: int) -> None:
        reason = parallel_speedup_skip_reason(processes)
        if reason is not None:
            pytest.skip(reason)

    return gate


@pytest.fixture
def no_witness_config():
    """Pure decision timing: skip witness synthesis."""
    from repro.checkers.config import CheckerConfig

    return CheckerConfig(want_witness=False)
