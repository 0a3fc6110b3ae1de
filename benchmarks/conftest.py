"""Benchmark suite configuration.

Every benchmark asserts the *correctness* of the answer it times, so a
regression in a decision procedure fails the benchmark run rather than
silently producing fast nonsense. Run with:

    pytest benchmarks/ --benchmark-only

``--jobs N`` threads the worker count (DESIGN.md section 7) through the
shared checker-config fixtures; it changes the timing of the figure
benches that run an ``implies_all`` batch (a single solve is sequential
at any ``jobs``):

    pytest benchmarks/ --benchmark-only --jobs 4

This conftest is also the one home of the **hardware skip guard** for
wall-clock gates: both the local suite and CI's cgroup-limited 2-core
runners decide "can this speedup gate mean anything here?" through
:func:`parallel_speedup_skip_reason`, which reads the same
:func:`repro.ilp.condsys.effective_parallelism` primitive the
differential fuzz sweeps use to trim oversubscribed worker counts — so
local runs and CI skip identically instead of drifting between
``os.cpu_count()`` and affinity masks.
"""

import pytest


def parallel_speedup_skip_reason(jobs: int) -> "str | None":
    """Why a ``jobs``-worker wall-clock gate cannot run here, or ``None``.

    Speedup gates need real hardware: ``effective_parallelism()`` cores
    (affinity-aware — what CI's 2-core runners actually grant) and a
    ``fork`` start method.  Correctness gates never skip on cores; only
    timing claims do.
    """
    from repro.ilp.condsys import WorkerPool, effective_parallelism

    if not WorkerPool.available():
        return "no fork start method: jobs degrades to sequential here"
    cores = effective_parallelism()
    if cores < jobs:
        return (
            f"wall-clock speedup needs >= {jobs} effective CPU cores, "
            f"container has {cores}; the correctness gates still ran"
        )
    return None


@pytest.fixture
def speedup_gate():
    """Callable fixture: ``speedup_gate(jobs)`` skips when the hardware
    cannot support a ``jobs``-worker wall-clock claim."""

    def gate(jobs: int) -> None:
        reason = parallel_speedup_skip_reason(jobs)
        if reason is not None:
            pytest.skip(reason)

    return gate


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for implies_all batches; the shared "
        "checker-config fixtures pass this through (answers are "
        "jobs-independent)",
    )


@pytest.fixture
def jobs(request):
    """The worker count selected with ``--jobs`` (default 1)."""
    return request.config.getoption("--jobs")


@pytest.fixture
def no_witness_config(jobs):
    """Pure decision timing: skip witness synthesis."""
    from repro.checkers.config import CheckerConfig

    return CheckerConfig(want_witness=False, jobs=jobs)
