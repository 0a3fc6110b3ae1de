"""Witness synthesis scaling: the constructive side of Lemma 4.5.

The decision procedures only need feasibility; producing an actual
document adds skeleton assembly (backtracking over Alt choices), tree
contraction (Lemma 4.3) and value assignment (Lemma 4.4). This bench
measures that constructive pipeline as witness sizes grow — near-linear
growth validates the assembly heuristic (the worst case is exponential in
adversarial Alt nests, exercised in tests, not here).
"""

import pytest

from repro.dtd.model import DTD
from repro.dtd.simplify import simplify_dtd
from repro.encoding.combined import build_encoding
from repro.encoding.dtd_system import encode_dtd, ext_var
from repro.constraints.parser import parse_constraints
from repro.ilp.assembled import AssembledSystem
from repro.ilp.condsys import solve_conditional_system
from repro.witness.skeleton import assemble_skeleton
from repro.witness.synthesize import synthesize_witness


@pytest.mark.parametrize("count", [10, 100, 1000])
def test_star_assembly_scaling(benchmark, count):
    """Wide trees: one star, `count` children."""
    d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"})
    simple = simplify_dtd(d)
    system = encode_dtd(simple).system.copy()
    system.add_ge({ext_var("a"): 1}, count)
    solution = AssembledSystem(system).solve_int({})
    assert solution.feasible

    tree = benchmark(assemble_skeleton, simple, solution.values)
    assert len(tree.ext("a")) >= count


@pytest.mark.parametrize("depth", [10, 50, 200])
def test_recursion_assembly_scaling(benchmark, depth):
    """Deep trees: a right-recursive chain of the requested depth."""
    d = DTD.build("r", {"r": "(a)", "a": "(a?)"})
    simple = simplify_dtd(d)
    system = encode_dtd(simple).system.copy()
    system.add_ge({ext_var("a"): 1}, depth)
    solution = AssembledSystem(system).solve_int({})
    assert solution.feasible

    tree = benchmark(assemble_skeleton, simple, solution.values)
    assert len(tree.ext("a")) >= depth


@pytest.mark.parametrize("count", [10, 100, 500])
def test_full_pipeline_with_values(benchmark, count):
    """Solve + skeleton + contraction + keyed value assignment."""
    d = DTD.build("r", {"r": "(item*)", "item": "EMPTY"},
                  attrs={"item": ["sku"]})
    sigma = parse_constraints("item.sku -> item")
    encoding = build_encoding(d, sigma)
    encoding.condsys.base.add_ge({ext_var("item"): 1}, count, label="scale")
    result, _stats = solve_conditional_system(encoding.condsys)
    assert result.feasible

    tree = benchmark(synthesize_witness, encoding, result.values)
    items = tree.ext("item")
    assert len(items) >= count
    assert len({node.attrs["sku"] for node in items}) == len(items)
