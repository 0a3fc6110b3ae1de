"""Tests for the conditional-system solver (support branching + cuts)."""

import pytest

from repro.errors import ComplexityLimitError
from repro.ilp.condsys import (
    ConditionalSystem,
    SupportClause,
    solve_conditional_system,
)
from repro.ilp.model import LinearSystem


def _tiny_system(require_attr: bool):
    """r -> a?: ext(r) = 1 = occ_a + skip; ext(a) = occ_a.

    When ``require_attr`` the single conditional demands an attribute
    value for present ``a`` that another row forbids, so only the
    a-absent support is feasible.
    """
    base = LinearSystem()
    base.add_eq({("ext", "r"): 1}, 1)
    base.add_eq({("ext", "a"): 1, ("occ", 1, "a", "r"): -1}, 0)
    base.add_le({("occ", 1, "a", "r"): 1}, 1)
    base.add_le({("attr", "a", "l"): 1, ("ext", "a"): -1}, 0)
    if require_attr:
        base.add_le({("attr", "a", "l"): 1}, 0)  # no values allowed
    return ConditionalSystem(
        base=base,
        ext_var={"r": ("ext", "r"), "a": ("ext", "a")},
        root="r",
        element_types=("r", "a"),
        edges=((("occ", 1, "a", "r"), "r", "a"),),
        requires_if_present={"a": (("attr", "a", "l"),)},
    )


class TestSupportBranching:
    def test_conditional_satisfiable_with_presence(self):
        result, stats = solve_conditional_system(_tiny_system(require_attr=False))
        assert result.feasible
        # The answer is served either by a leaf solve or by the root LP
        # probe on the assembled system.
        assert stats.leaves_solved >= 1 or stats.bound_patch_solves >= 1

    def test_conditional_forces_absence(self):
        result, _ = solve_conditional_system(_tiny_system(require_attr=False))
        assert result.feasible
        # With the attribute forbidden, a present `a` would need
        # attr >= 1 and attr <= 0: only ext(a) = 0 remains feasible.
        result2, _ = solve_conditional_system(_tiny_system(require_attr=True))
        assert result2.feasible
        assert result2.values[("ext", "a")] == 0

    def test_forced_true_conflicts_with_forbidden_attr(self):
        condsys = _tiny_system(require_attr=True)
        forced = ConditionalSystem(
            base=condsys.base,
            ext_var=condsys.ext_var,
            root=condsys.root,
            element_types=condsys.element_types,
            edges=condsys.edges,
            requires_if_present=condsys.requires_if_present,
            forced_true=frozenset({"a"}),
        )
        result, _ = solve_conditional_system(forced)
        assert result.infeasible

    def test_forced_true_and_false_clash(self):
        condsys = _tiny_system(require_attr=False)
        clashed = ConditionalSystem(
            base=condsys.base,
            ext_var=condsys.ext_var,
            root=condsys.root,
            element_types=condsys.element_types,
            edges=condsys.edges,
            forced_true=frozenset({"a"}),
            forced_false=frozenset({"a"}),
        )
        result, _ = solve_conditional_system(clashed)
        assert result.infeasible

    def test_clause_propagation_conflict(self):
        condsys = _tiny_system(require_attr=False)
        contradictory = ConditionalSystem(
            base=condsys.base,
            ext_var=condsys.ext_var,
            root=condsys.root,
            element_types=condsys.element_types,
            edges=condsys.edges,
            clauses=(SupportClause("r", frozenset()),),  # root needs nothing available
        )
        result, _ = solve_conditional_system(contradictory)
        assert result.infeasible

    def test_node_budget_raises(self):
        # require_attr makes the maximal-support shortcut infeasible, so
        # the DFS must run — and a zero budget must be reported.  LP
        # pruning is disabled so the root probe cannot answer first.
        condsys = _tiny_system(require_attr=True)
        with pytest.raises(ComplexityLimitError):
            solve_conditional_system(condsys, max_support_nodes=0, lp_prune=False)

    def test_exact_backend_agrees(self):
        for require in (False, True):
            scipy_result, _ = solve_conditional_system(_tiny_system(require))
            exact_result, _ = solve_conditional_system(
                _tiny_system(require), backend="exact"
            )
            assert scipy_result.feasible == exact_result.feasible


class TestConnectivityCuts:
    def _cycle_system(self):
        """A self-feeding type: ext(a) = occ(a under a) with no root path.

        The pure counting system accepts ext(a) = k for any k; only the
        connectivity machinery rejects positive k. A second row forces
        ext(a) >= 1, so the whole system must come out infeasible.
        """
        base = LinearSystem()
        base.add_eq({("ext", "r"): 1}, 1)
        base.add_eq({("ext", "a"): 1, ("occ", 1, "a", "a"): -1}, 0)
        base.add_ge({("ext", "a"): 1}, 1)
        return ConditionalSystem(
            base=base,
            ext_var={"r": ("ext", "r"), "a": ("ext", "a")},
            root="r",
            element_types=("r", "a"),
            edges=((("occ", 1, "a", "a"), "a", "a"),),
        )

    def test_unreachable_cycle_rejected(self):
        result, stats = solve_conditional_system(self._cycle_system())
        assert result.infeasible

    def test_cut_loop_finds_connected_solution(self):
        # Same shape, but with a root edge available: the solver may first
        # find the disconnected solution, then the cut forces occ(a under r).
        base = LinearSystem()
        base.add_eq({("ext", "r"): 1}, 1)
        base.add_eq(
            {("ext", "a"): 1, ("occ", 1, "a", "a"): -1, ("occ", 1, "a", "r"): -1},
            0,
        )
        base.add_le({("occ", 1, "a", "r"): 1}, 1)
        base.add_ge({("ext", "a"): 1}, 2)
        condsys = ConditionalSystem(
            base=base,
            ext_var={"r": ("ext", "r"), "a": ("ext", "a")},
            root="r",
            element_types=("r", "a"),
            edges=(
                (("occ", 1, "a", "a"), "a", "a"),
                (("occ", 1, "a", "r"), "r", "a"),
            ),
        )
        result, _stats = solve_conditional_system(condsys)
        assert result.feasible
        assert result.values[("occ", 1, "a", "r")] >= 1


class TestCertifiedConfiguration:
    """What ``backend="exact"`` certifies: every leaf solve, but not the
    support search's LP prunes unless ``lp_prune`` is off."""

    def test_only_exact_without_lp_prune_avoids_highs(self):
        from repro.checkers.config import CheckerConfig
        from repro.checkers.consistency import check_consistency
        from repro.workloads.generators import teachers_family

        dtd, sigma = teachers_family(4, consistent=False)
        expected = check_consistency(dtd, sigma).consistent
        certified = check_consistency(
            dtd, sigma, CheckerConfig(backend="exact", lp_prune=False)
        )
        assert certified.consistent == expected
        for counter in ("lp_solves", "mip_solves", "bound_patch_solves"):
            assert certified.stats[counter] == 0, counter
        assert certified.stats["exact_nodes"] >= 1
        # With the default lp_prune, the exact backend's verdict here
        # rests on a HiGHS float prune.
        pruned = check_consistency(dtd, sigma, CheckerConfig(backend="exact"))
        assert pruned.consistent == expected
        assert pruned.stats["lp_prunes"] >= 1
