"""Tests for extent-bounds analysis and specification diagnostics."""

import pytest

from repro import api
from repro.analysis.diagnostics import (
    diagnose,
    mus,
    redundant_constraints,
)
from repro.analysis.extent_bounds import extent_bounds
from repro.checkers.consistency import check_consistency
from repro.constraints.parser import parse_constraint, parse_constraints
from repro.dtd.model import DTD
from repro.errors import InvalidConstraintError
from tests.oracles import deletion_filter


class TestExtentBounds:
    def test_d1_subject_bounds(self, d1):
        bounds = extent_bounds(d1, [], "subject")
        # Each teacher teaches exactly two subjects; one teacher minimum.
        assert bounds.minimum == 2
        assert bounds.maximum is None  # teacher* is unbounded

    def test_d1_with_sigma1_fragment(self, d1):
        # The key alone: |subject| still = 2|teacher|.
        sigma = parse_constraints("subject.taught_by -> subject")
        bounds = extent_bounds(d1, sigma, "subject")
        assert bounds.minimum == 2

    def test_inconsistent_spec_returns_none(self, d1, sigma1):
        assert extent_bounds(d1, sigma1, "subject") is None

    def test_fixed_count(self):
        d = DTD.build("r", {"r": "(a, a, a)", "a": "EMPTY"})
        bounds = extent_bounds(d, [], "a")
        assert bounds.minimum == 3
        assert bounds.maximum == 3

    def test_bounded_range_via_choice(self):
        d = DTD.build("r", {"r": "(a?, a?)", "a": "EMPTY"})
        bounds = extent_bounds(d, [], "a")
        assert bounds.minimum == 0
        assert bounds.maximum == 2
        assert 1 in bounds
        assert 3 not in bounds

    def test_constraint_raises_minimum(self):
        # A negated key demands at least two a's.
        d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x"]})
        bounds = extent_bounds(d, parse_constraints("a.x !-> a"), "a")
        assert bounds.minimum == 2

    def test_constraint_caps_maximum(self):
        # fact count pinned to 1 by the DTD; dim.id -> dim with
        # dim.id <= fact.ref forces |dim| <= |fact| = 1.
        d = DTD.build(
            "r", {"r": "(fact, dim*)", "fact": "EMPTY", "dim": "EMPTY"},
            attrs={"fact": ["ref"], "dim": ["id"]},
        )
        sigma = parse_constraints("dim.id -> dim\ndim.id <= fact.ref")
        bounds = extent_bounds(d, sigma, "dim")
        assert bounds.maximum == 1

    def test_unknown_type_rejected(self, d1):
        with pytest.raises(InvalidConstraintError):
            extent_bounds(d1, [], "ghost")

    def test_str_rendering(self):
        d = DTD.build("r", {"r": "(a)", "a": "EMPTY"})
        assert "in [1, 1]" in str(extent_bounds(d, [], "a"))


class TestMus:
    def test_sigma1_core(self, d1, sigma1):
        core = mus(d1, sigma1)
        assert sorted(str(phi) for phi in core) == [
            "subject.taught_by -> subject",
            "subject.taught_by => teacher.name",
        ]
        # The subset itself is inconsistent and removing anything fixes it.
        assert not check_consistency(d1, core).consistent
        for index in range(len(core)):
            rest = core[:index] + core[index + 1:]
            assert check_consistency(d1, rest).consistent

    def test_consistent_input_rejected(self, d1):
        with pytest.raises(InvalidConstraintError, match="consistent"):
            mus(d1, [])

    def test_empty_dtd_blames_nothing(self, d2):
        d2a = DTD.build("db", {"db": "(foo)", "foo": "(foo)"},
                        attrs={"foo": ["k"]})
        core = mus(d2a, parse_constraints("foo.k -> foo"))
        assert core == []

    def test_direct_contradiction(self):
        d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x"]})
        sigma = parse_constraints("a.x -> a\na.x !-> a\na.x <= a.x")
        with deletion_filter():
            core = mus(d, sigma)
        assert sorted(str(phi) for phi in core) == ["a.x !-> a", "a.x -> a"]


class TestRedundancy:
    def test_subsumed_inclusion_redundant(self):
        d = DTD.build(
            "r", {"r": "(a*, b*, c*)", "a": "EMPTY", "b": "EMPTY", "c": "EMPTY"},
            attrs={t: ["x"] for t in "abc"},
        )
        sigma = parse_constraints("a.x <= b.x\nb.x <= c.x\na.x <= c.x")
        redundant = redundant_constraints(d, sigma)
        assert [str(phi) for phi in redundant] == ["a.x <= c.x"]

    def test_mutually_implied_pair_both_reported(self):
        d = DTD.build("r", {"r": "(a)", "a": "EMPTY"}, attrs={"a": ["x", "y"]})
        # Only one 'a' element can exist, so both keys hold vacuously.
        sigma = parse_constraints("a.x -> a\na.y -> a")
        redundant = redundant_constraints(d, sigma)
        assert len(redundant) == 2

    def test_independent_constraints_not_redundant(self):
        d = DTD.build(
            "r", {"r": "(a*, b*)", "a": "EMPTY", "b": "EMPTY"},
            attrs={"a": ["x"], "b": ["y"]},
        )
        sigma = parse_constraints("a.x -> a\nb.y -> b")
        assert redundant_constraints(d, sigma) == []


class TestDiagnose:
    def test_inconsistent_report(self, d1, sigma1):
        report = diagnose(d1, sigma1)
        assert not report.consistent
        assert len(report.mus) == 2
        assert "INCONSISTENT" in report.summary()

    def test_consistent_report_with_redundancy(self):
        d = DTD.build(
            "r", {"r": "(a*, b*, c*)", "a": "EMPTY", "b": "EMPTY", "c": "EMPTY"},
            attrs={t: ["x"] for t in "abc"},
        )
        sigma = parse_constraints("a.x <= b.x\nb.x <= c.x\na.x <= c.x")
        report = diagnose(d, sigma)
        assert report.consistent
        assert [str(phi) for phi in report.redundant] == ["a.x <= c.x"]
        assert "CONSISTENT" in report.summary()
        assert "redundant" in report.summary()

    def test_unsatisfiable_dtd_report(self, d2):
        report = diagnose(d2, [])
        assert not report.consistent
        assert not report.dtd_satisfiable
        assert "no finite document" in report.summary()

    @pytest.mark.parametrize("body", ["(a)", "EMPTY"])
    def test_sigma_is_validated_before_the_dtd_verdict(self, body):
        # Whether or not the DTD admits a tree, a constraint naming an
        # attribute the DTD lacks is an input error, as for every op.
        d = DTD.build("r", {"r": "(a)", "a": body}, attrs={"a": ["k"]})
        sigma = parse_constraints("a.nosuch -> a")
        for op in (api.check, api.diagnose, api.mus, api.repair):
            with pytest.raises(InvalidConstraintError, match="nosuch"):
                op((d, sigma))
