"""Witness synthesis tests: skeleton assembly and value assignment."""

import pytest

from repro.dtd.analysis import has_valid_tree
from repro.dtd.model import DTD
from repro.dtd.simplify import simplify_dtd
from repro.encoding.combined import build_encoding
from repro.encoding.dtd_system import encode_dtd, ext_var
from repro.errors import SolverError
from repro.ilp.assembled import AssembledSystem
from repro.ilp.condsys import solve_conditional_system
from repro.witness.skeleton import assemble_skeleton
from repro.witness.synthesize import synthesize_witness
from repro.workloads.generators import random_dtd
from repro.xmltree.validate import conforms
from tests.helpers import synthesize_any_tree


class TestSkeleton:
    def test_realizes_solved_counts(self, d1):
        simple = simplify_dtd(d1)
        result = AssembledSystem(encode_dtd(simple).system).solve_int({})
        assert result.feasible
        tree = assemble_skeleton(simple, result.values)
        for symbol in simple.types:
            assert len(tree.ext(symbol)) == result.values[ext_var(symbol)]

    def test_rejects_root_count_other_than_one(self, d1):
        simple = simplify_dtd(d1)
        with pytest.raises(SolverError, match="root count"):
            assemble_skeleton(simple, {ext_var(simple.root): 0})

    def test_rejects_inconsistent_pools(self, d1):
        simple = simplify_dtd(d1)
        result = AssembledSystem(encode_dtd(simple).system).solve_int({})
        values = dict(result.values)
        # Claim an extra teacher without a pool slot for it.
        values[ext_var("teacher")] += 1
        with pytest.raises(SolverError):
            assemble_skeleton(simple, values)

    def test_alt_choice_backtracking(self):
        """The DESIGN.md deadlock example: a greedy Alt choice strands
        nodes; backtracking (or the lookahead heuristic) must recover."""
        d = DTD.build(
            "r",
            {"r": "(a)", "a": "(b | c)", "b": "(a?)", "c": "EMPTY"},
        )
        simple = simplify_dtd(d)
        system = encode_dtd(simple).system.copy()
        # Force ext(a) = 2: a1 under r, a2 under b1; c1 under a2.
        system.add_ge({ext_var("a"): 1}, 2)
        result = AssembledSystem(system).solve_int({})
        assert result.feasible
        tree = assemble_skeleton(simple, result.values)
        assert len(tree.ext("a")) == result.values[ext_var("a")]


class TestSynthesizePipeline:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_dtd_witnesses_conform(self, seed):
        dtd = random_dtd(seed, num_types=5)
        if not has_valid_tree(dtd):
            return
        tree, _values, _simple = synthesize_any_tree(dtd)
        report = conforms(tree, dtd)
        assert report, report.errors

    def test_attribute_totality_in_witness(self, d1):
        tree, _values, _simple = synthesize_any_tree(d1)
        for teacher in tree.ext("teacher"):
            assert "name" in teacher.attrs
        for subject in tree.ext("subject"):
            assert "taught_by" in subject.attrs

    def test_key_values_distinct(self):
        d = DTD.build("r", {"r": "(a, a, a)", "a": "EMPTY"}, attrs={"a": ["k"]})
        from repro.constraints.parser import parse_constraints

        encoding = build_encoding(d, parse_constraints("a.k -> a"))
        result, _ = solve_conditional_system(encoding.condsys)
        assert result.feasible
        tree = synthesize_witness(encoding, result.values)
        values = tree.attr_values("a", "k")
        assert len(values) == 3
        assert len(set(values)) == 3

    def test_inclusion_values_nested(self):
        d = DTD.build(
            "r", {"r": "(a, a, b, b, b)", "a": "EMPTY", "b": "EMPTY"},
            attrs={"a": ["x"], "b": ["y"]},
        )
        from repro.constraints.parser import parse_constraints

        encoding = build_encoding(d, parse_constraints("a.x <= b.y"))
        result, _ = solve_conditional_system(encoding.condsys)
        tree = synthesize_witness(encoding, result.values)
        assert tree.ext_attr("a", "x") <= tree.ext_attr("b", "y")
