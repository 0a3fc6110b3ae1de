"""Stress tests for skeleton assembly: deep recursion and Alt chains."""

import pytest

from repro.constraints.parser import parse_constraints
from repro.checkers.consistency import check_consistency
from repro.dtd.model import DTD
from repro.dtd.simplify import simplify_dtd
from repro.encoding.dtd_system import encode_dtd, ext_var
from repro.ilp.assembled import AssembledSystem
from repro.witness.skeleton import assemble_skeleton
from repro.xmltree.transform import splice_types
from repro.xmltree.validate import conforms


def _contract(tree, simple):
    """Remove generated types so the tree speaks the original DTD."""
    return splice_types(tree, lambda label: not simple.is_original(label))


class TestLargeSkeletons:
    @pytest.mark.parametrize("count", [10, 100, 500])
    def test_wide_star(self, count):
        """Many siblings under one star: linear assembly."""
        d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"})
        simple = simplify_dtd(d)
        system = encode_dtd(simple).system.copy()
        system.add_ge({ext_var("a"): 1}, count)
        solution = AssembledSystem(system).solve_int({})
        assert solution.feasible
        tree = assemble_skeleton(simple, solution.values)
        assert len(tree.ext("a")) >= count

    @pytest.mark.parametrize("depth", [10, 60])
    def test_deep_recursion(self, depth):
        """A recursive chain a -> a?: depth equals the requested count."""
        d = DTD.build("r", {"r": "(a)", "a": "(a?)"})
        simple = simplify_dtd(d)
        system = encode_dtd(simple).system.copy()
        system.add_ge({ext_var("a"): 1}, depth)
        solution = AssembledSystem(system).solve_int({})
        assert solution.feasible
        tree = _contract(assemble_skeleton(simple, solution.values), simple)
        assert len(tree.ext("a")) >= depth
        assert conforms(tree, d)

    def test_alt_chain_with_interleaved_recursion(self):
        """Alternating choice types feeding each other — the shape that
        punishes bad Alt-branch ordering."""
        d = DTD.build(
            "r",
            {
                "r": "(a)",
                "a": "(b | c)",
                "b": "(a?)",
                "c": "(a?)",
            },
        )
        simple = simplify_dtd(d)
        system = encode_dtd(simple).system.copy()
        system.add_ge({ext_var("a"): 1}, 12)
        solution = AssembledSystem(system).solve_int({})
        assert solution.feasible
        tree = _contract(assemble_skeleton(simple, solution.values), simple)
        assert conforms(tree, d)
        assert len(tree.ext("a")) >= 12


class TestEndToEndLargeWitnesses:
    def test_negkey_forcing_large_extent(self):
        """Constraints demanding many elements flow through the pipeline."""
        d = DTD.build(
            "r", {"r": "(item*)", "item": "EMPTY"}, attrs={"item": ["sku", "lot"]}
        )
        # sku keyed, lot anti-keyed: at least two items with a lot collision
        # while skus stay unique.
        sigma = parse_constraints("item.sku -> item\nitem.lot !-> item")
        result = check_consistency(d, sigma)
        assert result.consistent
        items = result.witness.ext("item")
        skus = [node.attrs["sku"] for node in items]
        lots = [node.attrs["lot"] for node in items]
        assert len(set(skus)) == len(items)
        assert len(set(lots)) < len(items)

    def test_mutual_fk_forces_equal_extents(self):
        d = DTD.build(
            "r", {"r": "(a*, b, b)", "a": "EMPTY", "b": "EMPTY"},
            attrs={"a": ["x"], "b": ["y"]},
        )
        sigma = parse_constraints(
            "a.x -> a\nb.y -> b\na.x => b.y\nb.y => a.x"
        )
        result = check_consistency(d, sigma)
        assert result.consistent
        assert len(result.witness.ext("a")) == 2  # pinned by |ext(b)| = 2
