"""Consistency checker tests: paper examples, families, negations."""

import pytest

from repro import api
from repro.checkers.consistency import check_consistency, dtd_has_valid_tree
from repro.checkers.primary import check_consistency_primary
from repro.constraints.parser import parse_constraints
from repro.constraints.satisfaction import satisfies_all
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.errors import InvalidConstraintError, UndecidableProblemError
from repro.workloads.generators import (
    fixed_dtd_constraint_family,
    star_schema_family,
    teachers_family,
)
from repro.xmltree.validate import conforms


class TestPaperExamples:
    def test_d1_sigma1_inconsistent(self, d1, sigma1):
        # The Section 1 headline: 2|ext(teacher)| = |ext(subject)| clashes
        # with |ext(subject)| <= |ext(teacher)|.
        result = check_consistency(d1, sigma1)
        assert not result.consistent

    def test_d1_alone_consistent_with_witness(self, d1):
        result = check_consistency(d1, [])
        assert result.consistent
        assert result.witness is not None
        assert conforms(result.witness, d1)

    def test_d1_keys_only_consistent(self, d1, sigma1):
        keys = [phi for phi in sigma1 if type(phi).__name__ == "Key"]
        result = check_consistency(d1, keys)
        assert result.consistent
        assert satisfies_all(result.witness, keys)

    def test_d2_empty_and_inconsistent(self, d2):
        assert not dtd_has_valid_tree(d2)
        assert not check_consistency(d2, []).consistent

    def test_d3_multiattr_raises_undecidable(self, d3, sigma3):
        with pytest.raises(UndecidableProblemError, match="Theorem 3.1"):
            check_consistency(d3, sigma3)

    def test_d3_keys_only_fragment_decidable(self, d3, sigma3):
        keys = [phi for phi in sigma3 if type(phi).__name__ == "Key"]
        result = check_consistency(d3, keys)
        assert result.consistent
        assert satisfies_all(result.witness, keys)


class TestWitnessQuality:
    def test_witness_satisfies_constraints(self, d1):
        sigma = parse_constraints(
            "teacher.name -> teacher\nsubject.taught_by <= teacher.name"
        )
        result = check_consistency(d1, sigma)
        assert result.consistent
        assert conforms(result.witness, d1)
        assert satisfies_all(result.witness, sigma)

    def test_no_witness_when_disabled(self, d1, fast_config):
        result = check_consistency(d1, [], fast_config)
        assert result.consistent
        assert result.witness is None

    def test_stats_populated(self, d1, sigma1):
        result = check_consistency(d1, sigma1)
        assert "dfs_nodes" in result.stats


class TestFamilies:
    @pytest.mark.parametrize("subjects", [2, 3, 5])
    def test_teachers_family_inconsistent(self, subjects):
        dtd, sigma = teachers_family(subjects, consistent=False)
        assert not check_consistency(dtd, sigma).consistent

    @pytest.mark.parametrize("subjects", [2, 4])
    def test_teachers_family_consistent_variant(self, subjects):
        dtd, sigma = teachers_family(subjects, consistent=True)
        result = check_consistency(dtd, sigma)
        assert result.consistent
        assert satisfies_all(result.witness, sigma)

    @pytest.mark.parametrize("dims", [1, 3])
    def test_star_schema_consistent(self, dims):
        dtd, sigma = star_schema_family(dims, consistent=True)
        result = check_consistency(dtd, sigma)
        assert result.consistent
        assert satisfies_all(result.witness, sigma)

    def test_star_schema_inconsistent_variant(self):
        dtd, sigma = star_schema_family(2, consistent=False)
        assert not check_consistency(dtd, sigma).consistent

    @pytest.mark.parametrize("count", [0, 5, 12])
    def test_fixed_dtd_family_consistent(self, count):
        dtd, sigma = fixed_dtd_constraint_family(count)
        result = check_consistency(dtd, sigma)
        assert result.consistent


class TestNegations:
    def _flat(self, num_b=1):
        return DTD.build(
            "r", {"r": "(a*, b*)", "a": "EMPTY", "b": "EMPTY"},
            attrs={"a": ["x"], "b": ["y"]},
        )

    def test_negkey_needs_two_elements(self):
        result = check_consistency(self._flat(), parse_constraints("a.x !-> a"))
        assert result.consistent
        values = result.witness.attr_values("a", "x")
        assert len(values) >= 2
        assert len(set(values)) < len(values)

    def test_key_and_negkey_clash(self):
        result = check_consistency(
            self._flat(), parse_constraints("a.x -> a\na.x !-> a")
        )
        assert not result.consistent

    def test_negkey_impossible_when_single_element(self):
        d = DTD.build("r", {"r": "(a)", "a": "EMPTY"}, attrs={"a": ["x"]})
        assert not check_consistency(d, parse_constraints("a.x !-> a")).consistent

    def test_neg_inclusion_realized_setwise(self):
        result = check_consistency(self._flat(), parse_constraints("a.x !<= b.y"))
        assert result.consistent
        tree = result.witness
        assert tree.ext_attr("a", "x") - tree.ext_attr("b", "y")

    def test_inclusion_and_negation_clash(self):
        result = check_consistency(
            self._flat(), parse_constraints("a.x <= b.y\na.x !<= b.y")
        )
        assert not result.consistent

    def test_self_negated_inclusion_inconsistent(self):
        result = check_consistency(self._flat(), parse_constraints("a.x !<= a.x"))
        assert not result.consistent

    def test_mixed_negations_with_keys(self):
        sigma = parse_constraints(
            """
            a.x -> a
            b.y !-> b
            a.x !<= b.y
            """
        )
        result = check_consistency(self._flat(), sigma)
        assert result.consistent
        assert satisfies_all(result.witness, sigma)


class TestConnectivityRepair:
    """DESIGN.md section 3: the naive paper encoding would answer wrongly."""

    def test_unproductive_cycle_cannot_supply_values(self):
        d = DTD.build(
            "r", {"r": "(a | b)", "a": "(a)", "b": "EMPTY"},
            attrs={"a": ["m"], "b": ["l"]},
        )
        result = check_consistency(d, parse_constraints("b.l <= a.m"))
        assert not result.consistent

    def test_productive_recursion_reachable_is_fine(self):
        d = DTD.build(
            "r", {"r": "(b, c?)", "c": "(a)", "a": "(a?)", "b": "EMPTY"},
            attrs={"a": ["m"], "b": ["l"]},
        )
        result = check_consistency(d, parse_constraints("b.l <= a.m"))
        assert result.consistent
        assert len(result.witness.ext("a")) >= 1

    def test_recursive_consistent_spec_minimal_witness(self):
        # Recursion used productively: chain of a's each with unique id.
        d = DTD.build("r", {"r": "(a)", "a": "(a?)"}, attrs={"a": ["id"]})
        result = check_consistency(d, parse_constraints("a.id -> a"))
        assert result.consistent
        assert conforms(result.witness, d)


class TestPrimaryRestriction:
    def test_wrapper_accepts_primary_sets(self, d1, sigma1):
        result = check_consistency_primary(d1, sigma1)
        assert not result.consistent
        assert "primary" in result.method

    def test_wrapper_rejects_double_keys(self):
        d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x", "y"]})
        sigma = parse_constraints("a.x -> a\na.y -> a")
        with pytest.raises(InvalidConstraintError, match="primary"):
            check_consistency_primary(d, sigma)


class TestBackends:
    def test_exact_backend_agrees_on_paper_example(self, d1, sigma1, exact_config):
        assert not check_consistency(d1, sigma1, exact_config).consistent

    def test_exact_backend_consistent_case(self, exact_config):
        dtd, sigma = teachers_family(2, consistent=True)
        result = check_consistency(dtd, sigma, exact_config)
        assert result.consistent
        assert satisfies_all(result.witness, sigma)


_PARITY_DTD = """<!ELEMENT r ((a, a)*, b, (b, b)*)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>
"""
# Keys plus mutual inclusions force |ext(a)| = |ext(b)|, but the DTD makes
# |ext(a)| even and |ext(b)| odd: LP-feasible, integer-infeasible.
_PARITY_SIGMA = "a.x -> a\nb.y -> b\na.x <= b.y\nb.y <= a.x"


class TestSolveCounters:
    """``lp_solves``/``mip_solves`` split the HiGHS runs by engine."""

    def test_lp_decided_spec_runs_no_mip(self, d1, sigma1):
        result = check_consistency(d1, sigma1)
        assert not result.consistent
        assert result.stats["lp_solves"] >= 1
        assert result.stats["mip_solves"] == 0
        assert result.stats["bound_patch_solves"] >= result.stats["lp_solves"]

    def test_fractional_relaxation_runs_the_mip(self):
        dtd = parse_dtd(_PARITY_DTD)
        sigma = parse_constraints(_PARITY_SIGMA)
        result = check_consistency(dtd, sigma)
        assert not result.consistent
        assert result.stats["mip_solves"] >= 1

    def test_diagnose_and_repair_report_the_split(self):
        spec = (parse_dtd(_PARITY_DTD), parse_constraints(_PARITY_SIGMA))
        diagnosis = api.diagnose(spec).stats.as_dict()
        assert diagnosis["mip_solves"] >= 1
        assert diagnosis["lp_solves"] >= diagnosis["mip_solves"]
        fixed = api.repair(spec).stats.as_dict()
        assert fixed["mip_solves"] >= 1
        assert fixed["lp_solves"] >= fixed["mip_solves"]
