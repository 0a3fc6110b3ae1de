"""Configuration for the decision procedures."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckerConfig:
    """Tuning knobs shared by the checkers.

    Every solve runs the one production engine: the assemble-once,
    bound-patched support search with a warm-started certified backend
    (DESIGN.md sections 4-5).  The from-scratch and cold reference
    engines it is differentially tested against are test code
    (``tests/oracles.py``), not configuration.

    Attributes
    ----------
    backend:
        ``"scipy"`` (default: HiGHS, through the binding scipy vendors,
        loaded directly) or ``"exact"`` (rational simplex; certified,
        slower). The HiGHS backend already falls back to the exact one
        when float rounding is in doubt.
    want_witness:
        Synthesize an actual witness tree for consistent instances (and
        counterexample trees for refuted implications). Disable for pure
        yes/no benchmarking.
    verify_witness:
        Re-verify every synthesized witness against the DTD and the
        constraints; a failure raises :class:`SolverError` (it would be an
        internal bug, never a wrong answer).
    max_setrep_attrs:
        Cap on attribute pairs in the set-representation block (its size
        is ``2^n - 1``; the problem is NP-complete).
    max_support_nodes:
        Cap on support-search nodes before giving up with
        :class:`ComplexityLimitError`.
    lp_prune:
        Prune support branches whose LP relaxation is definitely
        infeasible (sound; large speedup on inconsistent instances).
    jobs:
        Worker processes for the batch fan-outs (DESIGN.md section 7):
        with ``jobs > 1``, :func:`repro.checkers.implication.implies_all`
        fans its queries, and the diagnostics redundancy audit its
        probes, across a fork-based worker pool.  Each worker runs the
        ordinary sequential solve, so results and per-query stats are
        identical to ``jobs=1``.  A single consistency or implication
        solve is always one sequential search and ignores ``jobs``.
        ``1`` (the default) is fully sequential, and platforms without
        ``fork`` degrade to it silently.
    """

    backend: str = "scipy"
    want_witness: bool = True
    verify_witness: bool = True
    max_setrep_attrs: int = 12
    max_support_nodes: int = 20000
    lp_prune: bool = True
    jobs: int = 1


#: Default configuration used when callers pass ``None``.
DEFAULT_CONFIG = CheckerConfig()
