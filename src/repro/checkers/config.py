"""Configuration for the decision procedures."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckerConfig:
    """Tuning knobs shared by the checkers.

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
    incremental:
        Use the assemble-once/bound-patch solver core (shared connectivity
        cut pool, persistent solver state). ``False`` selects the
        from-scratch reference path — one matrix rebuild per search node —
        kept for differential testing and ablation.
    exact_warm:
        Warm-start the certified rational simplex: branch-and-bound
        children reuse their parent's factorized basis via dual-simplex
        bound patches, and consecutive leaf solves share one persistent
        basis. ``False`` refactorizes cold at every node — the reference
        path the differential fuzz harness checks against.
    jobs:
        Worker processes for the parallel executor (DESIGN.md section 7).
        With ``jobs > 1``, batch checkers (:func:`repro.checkers.
        implication.implies_all`, the diagnostics audit) fan independent
        queries across a fork-based worker pool, and a single consistency
        solve fans independent support branches across per-worker
        workspace clones with a mergeable cut pool.  Completed verdicts
        are always identical to ``jobs=1``; only wall-clock and the
        work-schedule counters change (``max_support_nodes`` bounds each
        worker's subtree individually, so near the budget a parallel run
        may finish a search the sequential run aborts).  ``1`` (the
        default) is fully sequential, and platforms without ``fork``
        degrade to it silently.
    """

    backend: str = "scipy"
    want_witness: bool = True
    verify_witness: bool = True
    max_setrep_attrs: int = 12
    max_support_nodes: int = 20000
    lp_prune: bool = True
    incremental: bool = True
    exact_warm: bool = True
    jobs: int = 1


#: Default configuration used when callers pass ``None``.
DEFAULT_CONFIG = CheckerConfig()
