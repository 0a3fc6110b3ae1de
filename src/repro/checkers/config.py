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
        loaded directly) or ``"exact"`` (every leaf ILP solved by the
        rational simplex; slower). The HiGHS backend already falls back
        to the exact one when float rounding is in doubt. ``"exact"``
        alone does not certify a verdict end to end: while ``lp_prune``
        is on, the support search still drops branches on HiGHS's float
        LP infeasibility, so a negative answer may rest on a float
        prune. ``backend="exact", lp_prune=False`` is the configuration
        certified end to end: it makes no HiGHS call at all.
    want_witness:
        Synthesize an actual witness tree for consistent instances (and
        counterexample trees for refuted implications). Disable for pure
        yes/no benchmarking. Every synthesized tree is re-verified against
        the DTD and the constraints before it is returned; a failure
        raises :class:`SolverError` (it would be an internal bug, never a
        wrong answer).
    max_setrep_attrs:
        Cap on attribute pairs in the set-representation block (its size
        is ``2^n - 1``; the problem is NP-complete).
    max_support_nodes:
        Cap on support-search nodes before giving up with
        :class:`ComplexityLimitError`.
    lp_prune:
        Prune support branches whose LP relaxation HiGHS reports
        infeasible (large speedup on inconsistent instances), under
        either backend.  The prune trusts a float verdict; turn it off
        with ``backend="exact"`` for a search in rational arithmetic.
    """

    backend: str = "scipy"
    want_witness: bool = True
    max_setrep_attrs: int = 12
    max_support_nodes: int = 20000
    lp_prune: bool = True


#: Default configuration used when callers pass ``None``.
DEFAULT_CONFIG = CheckerConfig()
