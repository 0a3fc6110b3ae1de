"""Differential and unit tests for the assemble-once/bound-patch core.

The incremental path (assembled system, shared connectivity-cut pool, root
LP probe, indexed propagation) must return exactly the same feasibility
answers — with valid witnesses — as the from-scratch rebuild oracle
(:func:`tests.oracles.legacy_rebuild`) across the workload generators.
These tests are the contract that keeps the two interchangeable.
"""

import pytest

from repro.checkers.config import CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.encoding.combined import (
    build_encoding,
    clear_encoding_cache,
    encoding_cache_stats,
)
from repro.errors import InvalidConstraintError
from repro.ilp.assembled import AssembledSystem
from repro.ilp.condsys import (
    ConditionalSystem,
    SupportClause,
    _ClauseIndex,
    _CutPool,
    _ExactTwin,
    _propagate_indexed,
    CondSolveStats,
    solve_conditional_system,
)
from repro.ilp.model import LinearSystem
from repro.workloads.generators import (
    fixed_dtd_constraint_family,
    keys_only_family,
    random_dtd,
    random_unary_constraints,
    star_schema_family,
    teachers_family,
)
from tests.oracles import _propagate, legacy_rebuild, solve_rebuild

VERIFYING = CheckerConfig(want_witness=True, verify_witness=True)
FAST = CheckerConfig(want_witness=False)


def _agree(dtd, sigma, want_witness=True):
    """Both paths must agree; witnesses are synthesized and re-verified
    (verify_witness raises on any invalid tree), proving realizability."""
    config = VERIFYING if want_witness else FAST
    a = check_consistency(dtd, sigma, config)
    with legacy_rebuild():
        b = check_consistency(dtd, sigma, config)
    assert a.consistent == b.consistent, (
        f"incremental={a.consistent} rebuild={b.consistent}: {a.message!r} "
        f"vs {b.message!r}"
    )
    if a.consistent and want_witness:
        assert a.witness is not None and b.witness is not None
    return a


class TestDifferentialAcrossWorkloads:
    @pytest.mark.parametrize("dims", [1, 2, 4])
    @pytest.mark.parametrize("consistent", [True, False])
    def test_star_schema(self, dims, consistent):
        dtd, sigma = star_schema_family(dims, consistent=consistent)
        result = _agree(dtd, sigma)
        assert result.consistent == consistent

    @pytest.mark.parametrize("subjects", [2, 4, 8])
    @pytest.mark.parametrize("consistent", [True, False])
    def test_teachers(self, subjects, consistent):
        dtd, sigma = teachers_family(subjects, consistent=consistent)
        result = _agree(dtd, sigma)
        assert result.consistent == consistent

    @pytest.mark.parametrize("count", [4, 16])
    def test_fixed_dtd(self, count):
        dtd, sigma = fixed_dtd_constraint_family(count)
        assert _agree(dtd, sigma).consistent

    @pytest.mark.parametrize("scale", [4, 16])
    def test_keys_only(self, scale):
        dtd, sigma = keys_only_family(scale)
        assert _agree(dtd, sigma).consistent

    @pytest.mark.parametrize("seed", range(12))
    def test_random_specifications(self, seed):
        """Seeded random DTDs with random unary constraint mixes."""
        dtd = random_dtd(seed, num_types=5)
        sigma = random_unary_constraints(
            seed, dtd, num_keys=2, num_fks=2, num_neg_keys=seed % 2,
            num_neg_inclusions=seed % 3,
        )
        try:
            _agree(dtd, sigma)
        except InvalidConstraintError:
            pytest.skip("random draw hit a constraint outside the unary class")

    @pytest.mark.parametrize("dims", [1, 2])
    def test_exact_backend_agrees_with_incremental_scipy(self, dims):
        dtd, sigma = star_schema_family(dims, consistent=True)
        scipy_result = check_consistency(dtd, sigma, FAST)
        exact_result = check_consistency(
            dtd, sigma, CheckerConfig(want_witness=False, backend="exact")
        )
        assert scipy_result.consistent == exact_result.consistent


def _recursive_cut_system():
    """Two self-feeding types that both need cuts to connect via the root.

    ``ext(a) = occ(a under a) + occ(a under r)`` and the same for ``b``;
    both extents are forced ``>= 2``, so the min-sum solver is drawn to
    the disconnected solution and the connectivity machinery must repair
    it for *both* types.
    """
    base = LinearSystem()
    base.add_eq({("ext", "r"): 1}, 1)
    for tau in ("a", "b"):
        base.add_eq(
            {
                ("ext", tau): 1,
                ("occ", 1, tau, tau): -1,
                ("occ", 1, tau, "r"): -1,
            },
            0,
        )
        base.add_le({("occ", 1, tau, "r"): 1}, 1)
        base.add_ge({("ext", tau): 1}, 2)
    return ConditionalSystem(
        base=base,
        ext_var={"r": ("ext", "r"), "a": ("ext", "a"), "b": ("ext", "b")},
        root="r",
        element_types=("r", "a", "b"),
        edges=(
            (("occ", 1, "a", "a"), "a", "a"),
            (("occ", 1, "a", "r"), "r", "a"),
            (("occ", 1, "b", "b"), "b", "b"),
            (("occ", 1, "b", "r"), "r", "b"),
        ),
    )


class TestCutFixpoint:
    def test_cut_fixpoint_connects_both_components(self):
        result, stats = solve_conditional_system(_recursive_cut_system())
        assert result.feasible
        assert result.values[("occ", 1, "a", "r")] >= 1
        assert result.values[("occ", 1, "b", "r")] >= 1
        assert stats.cuts_added >= 1

    def test_cut_fixpoint_agrees_with_rebuild(self):
        cs = _recursive_cut_system()
        inc, _ = solve_conditional_system(cs)
        reb, _ = solve_rebuild(_recursive_cut_system())
        assert inc.feasible == reb.feasible

    def test_cut_rounds_budget_raises(self):
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            solve_conditional_system(
                _recursive_cut_system(), max_cut_rounds=1, lp_prune=False
            )

    def test_pool_guard_excludes_absent_supports(self):
        """A pooled cut must not refute supports where its guard is absent.

        Same shape as the recursive system, but ``a`` may also be absent
        (no ``ext(a) >= 2`` row); a cut learned while ``a`` was present
        must not block the a-absent leaf.
        """
        base = LinearSystem()
        base.add_eq({("ext", "r"): 1}, 1)
        base.add_eq(
            {("ext", "a"): 1, ("occ", 1, "a", "a"): -1}, 0
        )  # a only feeds itself: positive a can never connect
        condsys = ConditionalSystem(
            base=base,
            ext_var={"r": ("ext", "r"), "a": ("ext", "a")},
            root="r",
            element_types=("r", "a"),
            edges=((("occ", 1, "a", "a"), "a", "a"),),
        )
        result, _ = solve_conditional_system(condsys)
        assert result.feasible
        assert result.values[("ext", "a")] == 0


class TestCutPool:
    """Direct coverage of guarded activation and sharing accounting
    (previously only exercised indirectly through whole searches)."""

    def _pool(self):
        system = LinearSystem()
        system.add_le({"u": 1, "v": 1, "w": 1}, 10)
        assembled = AssembledSystem(system)
        return assembled, _CutPool(assembled)

    def test_guarded_activation_intersects_present_set(self):
        _, pool = self._pool()
        pool.add({"u": 1}, frozenset({"a", "b"}), origin_leaf=1)
        pool.add({"v": 1}, frozenset({"c"}), origin_leaf=1)
        pool.add({"w": 1}, frozenset({"b", "c"}), origin_leaf=2)
        assert pool.active_for({"a"}) == {0}
        assert pool.active_for({"b"}) == {0, 2}
        assert pool.active_for({"c"}) == {1, 2}
        assert pool.active_for({"a", "c"}) == {0, 1, 2}
        assert pool.active_for({"z"}) == set()
        assert pool.active_for(set()) == set()

    def test_shared_hits_counts_only_foreign_cuts(self):
        _, pool = self._pool()
        pool.add({"u": 1}, frozenset({"a"}), origin_leaf=1)
        pool.add({"v": 1}, frozenset({"a"}), origin_leaf=2)
        pool.add({"w": 1}, frozenset({"a"}), origin_leaf=2)
        active = pool.active_for({"a"})
        assert pool.shared_hits(active, current_leaf=1) == 2
        assert pool.shared_hits(active, current_leaf=2) == 1
        assert pool.shared_hits(active, current_leaf=3) == 3
        assert pool.shared_hits(set(), current_leaf=1) == 0

    def test_pool_len_tracks_entries(self):
        _, pool = self._pool()
        assert len(pool) == 0
        pool.add({"u": 1}, frozenset({"a"}), origin_leaf=1)
        assert len(pool) == 1

    def test_cuts_append_rows_to_assembled_system(self):
        system = LinearSystem()
        system.add_le({"u": 1}, 10)
        assembled = AssembledSystem(system)
        pool = _CutPool(assembled)
        pool.add({"u": 1}, frozenset({"a"}), origin_leaf=1, label="connect:a")
        assert assembled.num_cuts == 1
        assert assembled.cut_row(0).label == "connect:a"
        # Activation semantics flow through to solves.
        assert assembled.solve_int({}, {0}).values["u"] == 1
        assert assembled.solve_int({}, set()).values["u"] == 0

    def test_cuts_mirror_into_exact_twin_once_built(self):
        system = LinearSystem()
        system.add_le({"u": 1}, 10)
        assembled = AssembledSystem(system)
        twin = _ExactTwin(assembled)
        pool = _CutPool(assembled, twin)
        pool.add({"u": 1}, frozenset({"a"}), origin_leaf=1)
        assert not twin.built  # lazily constructed
        exact = twin.get()
        assert exact.num_cuts == 1  # pre-build cut replayed
        pool.add({"u": 1}, frozenset({"b"}), origin_leaf=2)
        assert exact.num_cuts == 2  # post-build cut mirrored
        # Same activation semantics as the float engine.
        assert exact.solve_int({}, {0}).values["u"] == 1
        assert exact.solve_int({}, {0, 1}).values["u"] == 1
        assert exact.solve_int({}, set()).values["u"] == 0

    def test_guard_sharing_observed_in_search_stats(self):
        """End-to-end: a cut learned by one leaf is active at a later
        leaf with an intersecting present set (cut_pool_hits > 0)."""
        base = LinearSystem()
        base.add_eq({("ext", "r"): 1}, 1)
        # Two self-feeding types; only `a` has a root edge, capped at 0,
        # so a-present leaves are infeasible after the cut fires, and the
        # search must descend past them re-using the pooled cut.
        for tau in ("a", "b"):
            base.add_eq(
                {
                    ("ext", tau): 1,
                    ("occ", 1, tau, tau): -1,
                    ("occ", 1, tau, "r"): -1,
                },
                0,
            )
        base.add_le({("occ", 1, "a", "r"): 1}, 0)
        base.add_ge({("ext", "a"): 1, ("ext", "b"): 1}, 1)
        condsys = ConditionalSystem(
            base=base,
            ext_var={"r": ("ext", "r"), "a": ("ext", "a"), "b": ("ext", "b")},
            root="r",
            element_types=("r", "a", "b"),
            edges=(
                (("occ", 1, "a", "a"), "a", "a"),
                (("occ", 1, "a", "r"), "r", "a"),
                (("occ", 1, "b", "b"), "b", "b"),
                (("occ", 1, "b", "r"), "r", "b"),
            ),
        )
        result, stats = solve_conditional_system(condsys, lp_prune=False)
        assert result.feasible
        assert result.values[("ext", "b")] >= 1
        assert stats.cuts_added >= 1


class TestPropagation:
    def _assignment(self, *pairs):
        assignment = {"p": None, "q": None, "s": None, "t": None}
        assignment.update(dict(pairs))
        return assignment

    @pytest.mark.parametrize(
        "clauses,start",
        [
            # Unit chain: p -> q, q -> s.
            (
                (
                    SupportClause("p", frozenset({"q"})),
                    SupportClause("q", frozenset({"s"})),
                ),
                (("p", True),),
            ),
            # Conflict: premise true, no alternatives.
            ((SupportClause("p", frozenset()),), (("p", True),)),
            # Conflict discovered through cascaded units.
            (
                (
                    SupportClause("p", frozenset({"q"})),
                    SupportClause("q", frozenset({"s", "t"})),
                ),
                (("p", True), ("s", False), ("t", False)),
            ),
            # Satisfied clause: nothing to do.
            (
                (SupportClause("p", frozenset({"q", "s"})),),
                (("p", True), ("q", True)),
            ),
            # Premise false/undecided: clause dormant.
            (
                (SupportClause("p", frozenset({"q"})),),
                (("p", False), ("q", False)),
            ),
        ],
    )
    def test_indexed_matches_rescan(self, clauses, start):
        """The worklist propagator agrees with the rescan reference on
        both the conflict verdict and the resulting assignment."""
        cs = ConditionalSystem(
            base=LinearSystem(),
            ext_var={},
            root="p",
            element_types=("p", "q", "s", "t"),
            edges=(),
            clauses=clauses,
        )
        reference = self._assignment(*start)
        indexed = self._assignment(*start)
        ok_reference = _propagate(cs, reference)
        stats = CondSolveStats()
        seeds = [sym for sym, val in indexed.items() if val is not None]
        ok_indexed = _propagate_indexed(_ClauseIndex(clauses), indexed, seeds, stats)
        assert ok_indexed == ok_reference
        if ok_indexed:
            assert indexed == reference
        assert stats.propagation_visits >= 0

    def test_propagation_conflict_refutes_system(self):
        """End-to-end: a clause conflict is reported as infeasibility."""
        base = LinearSystem()
        base.add_eq({("ext", "r"): 1}, 1)
        condsys = ConditionalSystem(
            base=base,
            ext_var={"r": ("ext", "r")},
            root="r",
            element_types=("r",),
            edges=(),
            clauses=(SupportClause("r", frozenset()),),
        )
        result, _ = solve_conditional_system(condsys)
        assert result.infeasible
        assert "propagation conflict" in result.message


class TestEncodingCache:
    def test_cache_hits_across_repeated_builds(self):
        clear_encoding_cache()
        dtd, sigma = star_schema_family(2, consistent=True)
        build_encoding(dtd, sigma)
        before = encoding_cache_stats()
        build_encoding(dtd, sigma)
        after = encoding_cache_stats()
        assert after["hits"] == before["hits"] + 1

    def test_cached_block_is_not_shared_mutably(self):
        """Mutating one encoding's base must not leak into the next."""
        dtd, sigma = star_schema_family(1, consistent=True)
        first = build_encoding(dtd, sigma)
        rows_before = first.condsys.base.num_rows
        first.condsys.base.add_ge({("ext", "fact"): 1}, 5, label="mutation")
        second = build_encoding(dtd, sigma)
        assert second.condsys.base.num_rows == rows_before

    def test_value_keyed_cache_hits_equal_dtds(self):
        clear_encoding_cache()
        dtd_a, sigma = star_schema_family(1, consistent=True)
        dtd_b, _ = star_schema_family(1, consistent=True)
        assert dtd_a is not dtd_b
        build_encoding(dtd_a, sigma)
        build_encoding(dtd_b, sigma)
        assert encoding_cache_stats()["hits"] >= 1


class TestAssembledSystem:
    def test_patched_bounds_tighten_only(self):
        system = LinearSystem()
        system.add_ge({"x": 1, "y": 1}, 2)
        system.set_upper("y", 3)
        assembled = AssembledSystem(system)
        result = assembled.solve_int({"x": (None, 0)})
        assert result.feasible
        assert result.values["x"] == 0 and result.values["y"] == 2
        result = assembled.solve_int({"x": (None, 0), "y": (None, 1)})
        assert result.infeasible

    def test_contradictory_patch_is_infeasible(self):
        system = LinearSystem()
        system.add_ge({"x": 1}, 0)
        assembled = AssembledSystem(system)
        assert assembled.solve_int({"x": (2, 1)}).infeasible

    def test_cut_activation_toggles(self):
        system = LinearSystem()
        system.add_le({"x": 1}, 5)
        assembled = AssembledSystem(system)
        cut = assembled.add_cut({"x": 1}, 3, label="test-cut")
        active = assembled.solve_int({}, {cut})
        assert active.feasible and active.values["x"] == 3
        inactive = assembled.solve_int({}, set())
        assert inactive.feasible and inactive.values["x"] == 0

    def test_materialize_matches_patched_solve(self):
        system = LinearSystem()
        system.add_eq({"x": 1, "y": -2}, 0)
        assembled = AssembledSystem(system)
        cut = assembled.add_cut({"y": 1}, 2)
        patches = {"x": (2, None)}
        from repro.ilp.exact import solve_exact

        direct = assembled.solve_int(patches, {cut})
        materialized = solve_exact(assembled.materialize(patches, {cut}))
        assert direct.feasible and materialized.feasible
        assert not assembled.check_values(materialized.values, patches, {cut})

    def test_lp_probe_statuses(self):
        system = LinearSystem()
        system.add_ge({"x": 1}, 1)
        assembled = AssembledSystem(system)
        status, values = assembled.lp_probe({})
        assert status == "feasible" and values["x"] == 1
        status, values = assembled.lp_probe({"x": (None, 0)})
        assert status == "infeasible" and values is None
