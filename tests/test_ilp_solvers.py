"""The HiGHS and exact ILP backends agree — unit and property tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.ilp.assembled import AssembledSystem
from repro.ilp.exact import solve_exact
from repro.ilp.model import LinearSystem


def _both(system):
    return AssembledSystem(system).solve_int({}), solve_exact(system)


class TestKnownSystems:
    def test_simple_feasible(self):
        system = LinearSystem()
        system.add_eq({"x": 1, "y": 1}, 5)
        system.add_ge({"x": 1}, 2)
        for result in _both(system):
            assert result.feasible
            assert result.values["x"] + result.values["y"] == 5
            assert result.values["x"] >= 2

    def test_simple_infeasible(self):
        system = LinearSystem()
        system.add_le({"x": 1}, 1)
        system.add_ge({"x": 1}, 2)
        for result in _both(system):
            assert result.infeasible

    def test_parity_infeasibility(self):
        # 2x = 2y + 1 has no integer solution; LP relaxation is feasible.
        system = LinearSystem()
        system.add_eq({"x": 2, "y": -2}, 1)
        for result in _both(system):
            assert result.infeasible
        assert AssembledSystem(system).lp_probe({})[0] == "feasible"

    def test_integrality_forces_larger_solution(self):
        # 3x >= 2, x integer: minimum is 1, not 2/3.
        system = LinearSystem()
        system.add_ge({"x": 3}, 2)
        for result in _both(system):
            assert result.feasible
            assert result.values["x"] == 1

    def test_empty_system_feasible(self):
        system = LinearSystem()
        for result in _both(system):
            assert result.feasible

    def test_constant_false_row(self):
        system = LinearSystem()
        system.add_ge({}, 1)
        for result in _both(system):
            assert result.infeasible

    def test_upper_bounds_respected(self):
        system = LinearSystem()
        system.add_ge({"x": 1, "y": 1}, 10)
        system.set_upper("x", 3)
        for result in _both(system):
            assert result.feasible
            assert result.values["x"] <= 3
            assert result.values["x"] + result.values["y"] >= 10

    def test_minimization_prefers_small(self):
        system = LinearSystem()
        system.add_ge({"x": 1}, 4)
        result = AssembledSystem(system).solve_int({})
        assert result.values["x"] == 4

    def test_exact_node_limit_raises(self):
        # 2x + 3y = 1 over nonnegative integers: the root LP is fractional
        # (gcd preprocessing cannot cut it), so branching is required and a
        # one-node budget must be reported as exhausted.
        system = LinearSystem()
        system.add_eq({"x": 2, "y": 3}, 1)
        with pytest.raises(SolverError):
            solve_exact(system, node_limit=1)

    def test_gcd_preprocessing_catches_divisibility(self):
        system = LinearSystem()
        system.add_eq({"x": 6, "y": 9}, 5)
        assert solve_exact(system).infeasible


class TestLpInfeasible:
    """The LP relaxation probe that prunes the support search."""

    def test_definitely_infeasible_lp(self):
        system = LinearSystem()
        system.add_le({"x": 1}, 1)
        system.add_ge({"x": 1}, 3)
        probe = AssembledSystem(system).lp_probe({}, want_values=False)
        assert probe == ("infeasible", None)

    def test_feasible_lp_not_pruned(self):
        system = LinearSystem()
        system.add_ge({"x": 1}, 3)
        status, candidate = AssembledSystem(system).lp_probe({})
        assert status == "feasible"
        assert candidate == {"x": 3}


@st.composite
def _random_systems(draw):
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 4))
    names = [f"v{i}" for i in range(num_vars)]
    system = LinearSystem()
    for _ in range(num_rows):
        coeffs = {
            name: draw(st.integers(-3, 3)) for name in names
        }
        rhs = draw(st.integers(-6, 6))
        sense = draw(st.sampled_from(["le", "ge", "eq"]))
        if sense == "le":
            system.add_le(coeffs, rhs)
        elif sense == "ge":
            system.add_ge(coeffs, rhs)
        else:
            system.add_eq(coeffs, rhs)
    for name in names:
        system.ensure_var(name)
        system.set_upper(name, 8)  # keep brute force cheap
    return system


def _brute_force_feasible(system) -> bool:
    from itertools import product

    names = list(system.variables)
    for values in product(range(9), repeat=len(names)):
        assignment = dict(zip(names, values))
        if not system.check(assignment):
            return True
    return False


def _presolve_failure_system():
    """``3·v0 + 2·v1 + 3·v2 = 1`` over ``0 <= v <= 8``: integer-infeasible
    with a fractional LP relaxation, and a model on which the vendored
    HiGHS MIP presolve answers ``kSolveError`` (presolve off decides it)."""
    system = LinearSystem()
    system.add_eq({"v0": 3, "v1": 2, "v2": 3}, 1)
    for name in ("v0", "v1", "v2"):
        system.ensure_var(name)
        system.set_upper(name, 8)
    return system


class TestBackendAgreement:
    @settings(max_examples=60, deadline=None)
    @given(system=_random_systems())
    @example(system=_presolve_failure_system())
    def test_scipy_exact_and_brute_force_agree(self, system):
        expected = _brute_force_feasible(system)
        highs_result = AssembledSystem(system).solve_int({})
        assert highs_result.status in ("feasible", "infeasible")
        assert highs_result.feasible == expected
        exact_result = solve_exact(system, node_limit=20000)
        assert exact_result.feasible == expected
        if expected:
            assert not system.check(highs_result.values)
            assert not system.check(exact_result.values)


class TestLpFirstSolveInt:
    """``solve_int`` decides from the LP relaxation and runs the MIP only
    on a fractional (or check-failing) vertex."""

    def test_lp_infeasible_never_builds_the_mip_engine(self):
        system = LinearSystem()
        system.add_le({"x": 1}, 1)
        system.add_ge({"x": 1}, 3)
        assembled = AssembledSystem(system)
        assert assembled.solve_int({}).status == "infeasible"
        assert assembled._int_engine is None
        assert assembled.solve_counts == (1, 0)

    def test_integral_vertex_never_builds_the_mip_engine(self):
        system = LinearSystem()
        system.add_ge({"x": 1, "y": 1}, 4)
        assembled = AssembledSystem(system)
        result = assembled.solve_int({"y": (None, 1)})
        assert result.feasible and result.values["x"] + result.values["y"] == 4
        assert assembled._int_engine is None
        assert assembled.solve_counts == (1, 0)

    def test_fractional_vertex_runs_the_mip(self):
        # 2x >= 1: the LP vertex is x = 0.5, which rounds to 0 and fails
        # the exact check; the MIP answers x = 1.
        system = LinearSystem()
        system.add_ge({"x": 2}, 1)
        assembled = AssembledSystem(system)
        result = assembled.solve_int({})
        assert result.status == "feasible"
        assert result.values == {"x": 1}
        assert assembled.check_values(result.values, {}, set()) == []
        assert assembled.solve_counts == (1, 1)

    def test_parity_row_never_feasible(self):
        # 2x = 1: the LP vertex x = 0.5 rounds to an infeasible point, and
        # the MIP refutes the row.
        system = LinearSystem()
        system.add_eq({"x": 2}, 1)
        assembled = AssembledSystem(system)
        assert assembled.solve_int({}).status == "infeasible"
        assert assembled.solve_counts == (1, 1)

    def test_presolve_failure_is_decided(self):
        assembled = AssembledSystem(_presolve_failure_system())
        assert assembled.solve_int({}).status == "infeasible"
        assert assembled.mip_solves == 1
        # The retry restores the instance's presolve setting.
        assert assembled._int_engine._h.getOptionValue("presolve")[1] == "choose"

    def test_cuts_replay_into_the_lazy_mip_engine(self):
        # 2x + 2y >= 1 is integer-feasible; the cut 2x + 2y <= 1 (as
        # -2x - 2y >= -1) leaves an LP-feasible, integer-infeasible system.
        # Both LP vertices are fractional, so every solve reaches the MIP.
        system = LinearSystem()
        system.add_ge({"x": 2, "y": 2}, 1)
        assembled = AssembledSystem(system)
        assert assembled.lp_probe({})[0] == "feasible"
        cut = assembled.add_cut({"x": -2, "y": -2}, -1)
        assert assembled._int_engine is None

        with_cut = system.copy()
        with_cut.add_ge({"x": -2, "y": -2}, -1)
        reference = AssembledSystem(with_cut).solve_int({})
        assert reference.status == "infeasible"
        for _ in range(2):  # toggle the replayed cut off and on again
            assert assembled.solve_int({}, {cut}).status == reference.status
            relaxed = assembled.solve_int({}, set())
            assert relaxed.status == "feasible"
            assert system.check(relaxed.values) == []
        assert assembled._int_engine is not None
        assert assembled.mip_solves == 4


class TestToggleableRows:
    """Base-row (de)activation on both assembled backends (DESIGN.md §6)."""

    def _system(self):
        system = LinearSystem()
        system.add_ge({"x": 1}, 1, label="keep")      # always active
        blocking = system.add_le({"x": 1}, 0, label="toggle")
        return system, blocking

    def test_assembled_row_toggles_and_reactivation(self):
        system, blocking = self._system()
        assembled = AssembledSystem(system)
        off = frozenset({blocking})
        # Alternate active/inactive several times: the engine state must
        # track the requested set, not just the first solve's.
        for _ in range(3):
            assert assembled.solve_int({}).status == "infeasible"
            relaxed = assembled.solve_int({}, inactive_rows=off)
            assert relaxed.status == "feasible"
            assert relaxed.values["x"] == 1
        status, _ = assembled.lp_probe({}, inactive_rows=off)
        assert status == "feasible"
        assert assembled.lp_probe({})[0] == "infeasible"
        assert assembled.assemblies == 1

    def test_assembled_check_and_materialize_skip_inactive(self):
        system, blocking = self._system()
        assembled = AssembledSystem(system)
        off = frozenset({blocking})
        assert assembled.check_values({"x": 1}, {}, set(), off) == []
        assert assembled.check_values({"x": 1}, {}, set()) != []
        materialized = assembled.materialize({}, set(), off)
        assert materialized.num_rows == system.num_rows - 1
        assert solve_exact(materialized).feasible

    def test_exact_row_toggles_on_live_basis(self):
        from repro.ilp.exact import ExactAssembledSystem

        system, blocking = self._system()
        exact = ExactAssembledSystem(system)
        off = frozenset({blocking})
        for _ in range(3):
            assert exact.solve_int({}).status == "infeasible"
            relaxed = exact.solve_int({}, inactive_rows=off)
            assert relaxed.status == "feasible"
            assert relaxed.values["x"] == 1

    def test_exact_gcd_row_respects_toggle(self):
        from repro.ilp.exact import ExactAssembledSystem

        system = LinearSystem()
        gcd_row = system.add_eq({"x": 2}, 1, label="no-integer-point")
        exact = ExactAssembledSystem(system)
        assert exact.solve_int({}).status == "infeasible"
        relaxed = exact.solve_int({}, inactive_rows=frozenset({gcd_row}))
        assert relaxed.status == "feasible"

    def test_condsys_toggles_only_registered_rows(self):
        from repro.ilp.condsys import ConditionalSystem, solve_conditional_system

        system = LinearSystem()
        always = system.add_eq({("ext", "r"): 1}, 1, label="root")
        blocking = system.add_le({("ext", "r"): 1}, 0, label="toggle")
        cs = ConditionalSystem(
            base=system,
            ext_var={"r": ("ext", "r")},
            root="r",
            element_types=("r",),
            edges=(),
            toggleable_rows=frozenset({blocking}),
        )
        for incremental in (True, False):
            result, _ = solve_conditional_system(cs, incremental=incremental)
            assert result.status == "infeasible"
            # Untoggleable rows stay active even under an empty active set.
            result, _ = solve_conditional_system(
                cs, active_rows=frozenset(), incremental=incremental
            )
            assert result.status == "feasible"
            assert result.values[("ext", "r")] == 1
        assert always == 0  # stable ids are plain row indices

    def test_workspace_shares_one_assembly_across_subsets(self):
        from repro.ilp.condsys import (
            ConditionalSystem,
            SolveWorkspace,
            solve_conditional_system,
        )

        system = LinearSystem()
        system.add_ge({("ext", "r"): 1}, 1, label="root")
        toggles = [
            system.add_ge({("ext", "r"): 1}, bound, label=f"ge-{bound}")
            for bound in (2, 3)
        ]
        cs = ConditionalSystem(
            base=system,
            ext_var={"r": ("ext", "r")},
            root="r",
            element_types=("r",),
            edges=(),
            toggleable_rows=frozenset(toggles),
        )
        workspace = SolveWorkspace(cs.base)
        total_assemblies = 0
        for active in (frozenset(), frozenset({toggles[0]}), frozenset(toggles)):
            result, stats = solve_conditional_system(
                cs, active_rows=active, workspace=workspace
            )
            total_assemblies += stats.assemblies
            expected = max([1] + [3 if t == toggles[1] else 2 for t in active])
            assert result.feasible
            assert result.values[("ext", "r")] == expected
        assert total_assemblies == 1
        assert workspace.assemblies == 1

    def test_workspace_rejects_foreign_base(self):
        from repro.ilp.condsys import (
            ConditionalSystem,
            SolveWorkspace,
            solve_conditional_system,
        )

        system = LinearSystem()
        system.add_eq({("ext", "r"): 1}, 1)
        cs = ConditionalSystem(
            base=system,
            ext_var={"r": ("ext", "r")},
            root="r",
            element_types=("r",),
            edges=(),
        )
        with pytest.raises(SolverError, match="different base"):
            solve_conditional_system(
                cs, workspace=SolveWorkspace(system.copy())
            )


class _Mentions:
    """A coefficient "map" whose ``items()`` may name a variable twice (a
    row like ``2*x - x``); :class:`LinearSystem` stores the terms as given."""

    def __init__(self, pairs):
        self._pairs = pairs

    def items(self):
        return list(self._pairs)


_NAMES = ("v0", "v1", "v2", "v3")
_coeff = st.integers(-5, 5)


@st.composite
def _checked_points(draw):
    """A random small system (empty rows, duplicate mentions, negative
    coefficients), optional cuts, a bound-patch map, a set of inactive
    rows, and an integer point to check against all of it."""
    num_vars = draw(st.integers(1, len(_NAMES)))
    names = _NAMES[:num_vars]
    system = LinearSystem()
    for name in names:
        system.ensure_var(name)
        if draw(st.booleans()):
            system.set_upper(name, draw(st.integers(0, 6)))
    for _ in range(draw(st.integers(0, 5))):
        terms = draw(st.lists(st.tuples(st.sampled_from(names), _coeff), max_size=5))
        add = draw(st.sampled_from([system.add_le, system.add_ge, system.add_eq]))
        add(_Mentions(terms), draw(st.integers(-8, 8)))
    assembled = AssembledSystem(system)
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.dictionaries(st.sampled_from(names), _coeff, min_size=1))
        assembled.add_cut(terms, draw(st.integers(-4, 4)))
    active = draw(st.sets(st.integers(0, max(assembled.num_cuts - 1, 0))))
    active &= set(range(assembled.num_cuts))
    inactive = draw(st.frozensets(st.integers(0, max(system.num_rows - 1, 0))))
    patches = draw(
        st.dictionaries(
            st.sampled_from(names),
            st.tuples(
                st.none() | st.integers(0, 4), st.none() | st.integers(0, 6)
            ),
        )
    )
    point = draw(
        st.lists(
            st.integers(-2, 7) | st.just(2**52),
            min_size=num_vars,
            max_size=num_vars,
        )
    )
    return assembled, patches, active, inactive, point


class TestVectorCheck:
    """The numpy row residual of ``_vector_check`` is exact: wherever its
    magnitude guard lets it answer, it agrees with the pure-Python check."""

    @settings(max_examples=300, deadline=None)
    @given(case=_checked_points())
    def test_agrees_with_exact_check(self, case):
        assembled, patches, active, inactive, point = case
        x = np.array(point, dtype=np.float64)
        verdict = assembled._vector_check(x, patches, active, inactive)
        if verdict is None:  # magnitude guard: the caller checks exactly
            assert max(point) == 2**52
            return
        values = dict(zip(assembled.system.variables, point))
        exact = assembled.check_values(values, patches, active, inactive)
        assert verdict == (exact == []), exact

    def test_duplicate_mentions_merge(self):
        system = LinearSystem()
        row = system.add_eq(_Mentions([("x", 2), ("y", 1), ("x", -1)]), 3)
        assembled = AssembledSystem(system)
        assert assembled._vector_check(np.array([1.0, 2.0]), {}, set(), frozenset())
        assert not assembled._vector_check(
            np.array([2.0, 2.0]), {}, set(), frozenset()
        )
        assert assembled._vector_check(
            np.array([2.0, 2.0]), {}, set(), frozenset({row})
        )
