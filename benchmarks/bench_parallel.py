"""MUS filter benchmarks: QuickXplain against the deletion filter.

On every ``|Sigma| >= 8`` registrar instance the QuickXplain MUS probe
count is strictly below the deletion filter's ``|Sigma|`` probes, with
equal cores, and it grows with ``log(|Sigma|)`` rather than ``|Sigma|``.
The deletion filter is the reference in ``tests/oracles.py``, swapped in
by :func:`tests.oracles.deletion_filter`; run from the repo root with
``python -m pytest`` so ``tests`` is importable.

Every benchmark asserts the correctness of the answer it times, per the
suite's fast-nonsense policy.
"""

import pytest

from repro.analysis.diagnostics import DiagnosticsStats, mus
from repro.workloads.generators import registrar_mus_family
from tests.oracles import deletion_filter


# ---------------------------------------------------------------------------
# QuickXplain vs deletion filter (probe-count gate)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("filler", [4, 8, 12, 20])
def test_quickxplain_probes_strictly_below_deletion(filler):
    """On every |Sigma| >= 8 instance the QuickXplain filter probes
    strictly fewer subsets than the deletion filter (which always pays
    exactly |Sigma|), returning the same 2-element core."""
    dtd, sigma = registrar_mus_family(filler)
    assert len(sigma) >= 8
    qx_stats, del_stats = DiagnosticsStats(), DiagnosticsStats()
    core = mus(dtd, sigma, stats=qx_stats)
    with deletion_filter():
        reference = mus(dtd, sigma, stats=del_stats)
    assert sorted(str(phi) for phi in core) == sorted(
        str(phi) for phi in reference
    ) == ["approval.stamp -> approval", "approval.stamp => auditor.aid"]
    assert del_stats.mus_probes == len(sigma)
    assert qx_stats.mus_probes < del_stats.mus_probes, (
        f"|Sigma|={len(sigma)}: quickxplain {qx_stats.mus_probes} probes "
        f"vs deletion {del_stats.mus_probes}"
    )
    assert qx_stats.assemblies == 1  # still one assembled system


def test_quickxplain_scales_sublinearly():
    """The probe count grows with log(|Sigma|), not |Sigma|: doubling the
    filler must not double the QuickXplain probes (it does exactly double
    the deletion filter's)."""
    counts = []
    for filler in (8, 16, 32):
        dtd, sigma = registrar_mus_family(filler)
        stats = DiagnosticsStats()
        mus(dtd, sigma, stats=stats)
        counts.append(stats.mus_probes)
    assert counts[2] < 2 * counts[0], f"probe counts not sublinear: {counts}"
