"""Implication checker tests (Theorems 3.5(3), 4.10, 5.4; Lemma 3.3)."""

import pytest

from repro.checkers.consistency import check_consistency
from repro.checkers.implication import implies, implies_all
from repro.checkers.primary import implies_primary
from repro.constraints.ast import Key
from repro.constraints.parser import parse_constraint, parse_constraints
from repro.constraints.satisfaction import satisfies, satisfies_all
from repro.dtd.model import DTD
from repro.errors import InvalidConstraintError, UndecidableProblemError
from repro.relational.reductions import consistency_to_implication
from repro.workloads.generators import teachers_family
from repro.xmltree.validate import conforms


@pytest.fixture
def flat():
    return DTD.build(
        "r", {"r": "(a*, b*)", "a": "EMPTY", "b": "EMPTY"},
        attrs={"a": ["x", "z"], "b": ["y"]},
    )


class TestKeysOnly:
    def test_superkey_subsumption(self, d3):
        sigma = [parse_constraint("course[dept] -> course")]
        phi = parse_constraint("course[dept,course_no] -> course")
        result = implies(d3, sigma, phi)
        assert result.implied
        assert "subsumed" in result.message

    def test_subkey_not_implied_with_counterexample(self, d3):
        sigma = [parse_constraint("course[dept,course_no] -> course")]
        phi = parse_constraint("course[dept] -> course")
        result = implies(d3, sigma, phi)
        assert not result.implied
        tree = result.counterexample
        assert conforms(tree, d3)
        assert satisfies_all(tree, sigma)
        assert not satisfies(tree, phi)

    def test_single_occurrence_type_implies_any_key(self):
        # Only one 'a' element can ever exist: every key on it holds.
        d = DTD.build("r", {"r": "(a)", "a": "EMPTY"}, attrs={"a": ["x"]})
        result = implies(d, [], Key("a", ("x",)))
        assert result.implied
        assert "two" in result.message

    def test_empty_dtd_implies_everything(self, d2):
        d2_with_attr = DTD.build(
            "db", {"db": "(foo)", "foo": "(foo)"}, attrs={"foo": ["k"]}
        )
        assert implies(d2_with_attr, [], Key("foo", ("k",))).implied

    def test_unrelated_key_not_implied(self, d3):
        sigma = [parse_constraint("student[student_id] -> student")]
        phi = parse_constraint("course[dept] -> course")
        assert not implies(d3, sigma, phi).implied


class TestUnaryConeNP:
    def test_fk_implied_by_its_parts(self, flat):
        sigma = parse_constraints("a.x <= b.y\nb.y -> b")
        assert implies(flat, sigma, parse_constraint("a.x => b.y")).implied

    def test_fk_fails_without_key_part(self, flat):
        sigma = parse_constraints("a.x <= b.y")
        result = implies(flat, sigma, parse_constraint("a.x => b.y"))
        assert not result.implied
        assert "key component" in result.message

    def test_fk_fails_without_inclusion_part(self, flat):
        sigma = parse_constraints("b.y -> b")
        result = implies(flat, sigma, parse_constraint("a.x => b.y"))
        assert not result.implied
        assert "inclusion component" in result.message

    def test_inclusion_transitivity(self, flat):
        sigma = parse_constraints("a.x <= a.z\na.z <= b.y")
        assert implies(flat, sigma, parse_constraint("a.x <= b.y")).implied

    def test_inclusion_not_symmetric(self, flat):
        sigma = parse_constraints("a.x <= b.y")
        result = implies(flat, sigma, parse_constraint("b.y <= a.x"))
        assert not result.implied
        counterexample = result.counterexample
        assert satisfies_all(counterexample, sigma)
        assert not satisfies(counterexample, parse_constraint("b.y <= a.x"))

    def test_dtd_forces_key_implication(self):
        # Only one 'a' element possible: a.x -> a holds vacuously, even
        # though Sigma says nothing.
        d = DTD.build("r", {"r": "(a?, b*)", "a": "EMPTY", "b": "EMPTY"},
                      attrs={"a": ["x"], "b": ["y"]})
        sigma = parse_constraints("b.y <= a.x")
        assert implies(d, sigma, parse_constraint("a.x -> a")).implied

    def test_cardinality_interaction_implication(self):
        # D1-style: teach has exactly 2 subjects, so |ext(subject)| =
        # 2|ext(teacher)| > |ext(teacher)|; with taught_by ⊆ name,
        # taught_by cannot be a key of subject... it CAN fail to be: so
        # the implication of the subject key must be refuted — but with
        # the FK present the spec is inconsistent, hence everything is
        # implied.
        dtd, sigma = teachers_family(2, consistent=False)
        result = implies(dtd, sigma, parse_constraint("teacher.name !-> teacher"))
        assert result.implied  # inconsistent premises imply anything

    def test_negated_phi_supported(self, flat):
        # phi itself may be a negation: (D, {a.x -> a}) |- not(a.x -> a)?
        sigma = parse_constraints("a.x -> a")
        result = implies(flat, sigma, parse_constraint("a.x !-> a"))
        assert not result.implied

    def test_implication_via_inconsistent_sigma(self, flat):
        sigma = parse_constraints("a.x -> a\na.x !-> a")
        assert implies(flat, sigma, parse_constraint("b.y -> b")).implied


class TestLemma33Equivalence:
    """Consistency of (D, Sigma) iff non-implication over D' (Figure 3)."""

    @pytest.mark.parametrize("consistent", [True, False])
    def test_round_trip(self, consistent):
        dtd, sigma = teachers_family(2, consistent=consistent)
        reduction = consistency_to_implication(dtd)
        lhs = check_consistency(dtd, sigma).consistent
        implication = implies(
            reduction.dtd_prime,
            [*sigma, reduction.ell, reduction.phi2],
            reduction.phi1,
        )
        assert lhs == (not implication.implied)

    @pytest.mark.parametrize("consistent", [True, False])
    def test_round_trip_second_form(self, consistent):
        dtd, sigma = teachers_family(2, consistent=consistent)
        reduction = consistency_to_implication(dtd)
        lhs = check_consistency(dtd, sigma).consistent
        implication = implies(
            reduction.dtd_prime,
            [*sigma, reduction.ell, reduction.phi1],
            reduction.phi2,
        )
        assert lhs == (not implication.implied)


class TestImpliesAll:
    def test_batch_matches_individual_calls(self):
        from repro.workloads.generators import star_schema_family

        dtd, sigma = star_schema_family(2, consistent=True)
        phis = parse_constraints(
            "dim0.id -> dim0\n"
            "fact.ref0 <= dim0.id\n"
            "dim0.id <= fact.ref0\n"
            "dim1.id -> dim1"
        )
        batch = implies_all(dtd, sigma, phis)
        singles = [implies(dtd, sigma, phi) for phi in phis]
        assert [r.implied for r in batch] == [r.implied for r in singles]
        assert [r.implied for r in batch] == [True, True, False, True]

    def test_batch_counterexamples_are_real(self):
        from repro.workloads.generators import star_schema_family

        dtd, sigma = star_schema_family(1, consistent=True)
        phi = parse_constraint("dim0.id <= fact.ref0")
        (result,) = implies_all(dtd, sigma, [phi])
        assert not result.implied
        tree = result.counterexample
        assert tree is not None
        assert conforms(tree, dtd)
        assert satisfies_all(tree, sigma)
        assert not satisfies(tree, phi)

    def test_batch_validates_whole_specification(self):
        dtd = DTD.build(
            "r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x"]}
        )
        with pytest.raises(InvalidConstraintError):
            implies_all(dtd, [], [parse_constraint("b.y -> b")])

    def test_repeated_queries_are_answered_once_like_a_loop(self, monkeypatch):
        from repro.checkers import implication
        from repro.workloads.generators import star_schema_family
        from repro.xmltree.serialize import tree_to_string

        def rendered(result):
            tree = result.counterexample
            return (
                result.implied,
                result.method,
                result.message,
                result.stats,
                tree_to_string(tree) if tree is not None else None,
            )

        dtd, sigma = star_schema_family(2, consistent=True)
        phis = parse_constraints(
            "dim1.id -> dim1\n"
            "dim0.id <= fact.ref0\n"
            "dim1.id -> dim1\n"
            "fact.ref0 <= dim0.id\n"
            "dim0.id <= fact.ref0"
        )
        loop = [implies(dtd, sigma, phi) for phi in phis]
        answered = []
        real = implication.implies_validated

        def counting(dtd, sigma, phi, config=None):
            answered.append(phi)
            return real(dtd, sigma, phi, config)

        monkeypatch.setattr(implication, "implies_validated", counting)
        batch = implies_all(dtd, sigma, phis)
        assert [rendered(r) for r in batch] == [rendered(r) for r in loop]
        assert answered == list(dict.fromkeys(phis))

    def test_empty_batch(self):
        dtd = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x"]})
        assert implies_all(dtd, [], []) == []


class TestUndecidableFragments:
    def test_multiattr_fk_sigma_raises(self, d3, sigma3):
        phi = parse_constraint("student[student_id] -> student")
        with pytest.raises(UndecidableProblemError):
            implies(d3, sigma3, phi)

    def test_multiattr_fk_phi_raises(self, d3):
        phi = parse_constraint("enroll[student_id,dept] => student[student_id,student_id]")
        with pytest.raises(Exception):
            # Either undecidable or invalid (duplicate attrs) — both refuse.
            implies(d3, [], phi)


class TestPrimaryWrapper:
    def test_primary_implication(self, flat):
        sigma = parse_constraints("a.x <= b.y\nb.y -> b")
        result = implies_primary(flat, sigma, parse_constraint("a.x => b.y"))
        assert result.implied
        assert "primary" in result.method

    def test_primary_violation_rejected(self, flat):
        sigma = parse_constraints("a.x -> a\na.z -> a")
        with pytest.raises(InvalidConstraintError):
            implies_primary(flat, sigma, parse_constraint("b.y -> b"))
