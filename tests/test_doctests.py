"""Run every docstring example in the package as a test.

The docstrings double as the API documentation; their examples must stay
executable and truthful (one of them once claimed the wrong consistency
verdict — this test exists so that cannot recur).
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def _module_names():
    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if modinfo.name.endswith("__main__"):
            continue  # importing it runs the CLI
        yield modinfo.name


@pytest.mark.parametrize("module_name", sorted(_module_names()))
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module_name}"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.analysis.diagnostics",
        "repro.ilp.assembled",
        "repro.ilp.condsys",
    ],
)
def test_diagnostics_layer_modules_keep_examples(module_name):
    """The toggleable-row layer documents itself with runnable examples;
    this guard keeps them from being silently dropped (the sweep above
    would vacuously pass on an example-free module)."""
    module = importlib.import_module(module_name)
    examples = sum(
        len(test.examples) for test in doctest.DocTestFinder().find(module)
    )
    assert examples > 0, f"{module_name} lost its doctest examples"


def _surface_examples(obj) -> int:
    """Runnable doctest examples attached directly to one API object."""
    return sum(
        len(test.examples) for test in doctest.DocTestFinder().find(obj)
    )


def test_parallel_surface_keeps_examples():
    """The section-7 public surface documents itself with runnable
    examples: the batch entry point and the QuickXplain MUS.  The
    module sweep above executes them; this guard keeps them from being
    silently dropped."""
    from repro.analysis.diagnostics import mus
    from repro.checkers.implication import implies_all

    for obj, needle in (
        (implies_all, "distinct query"),
        (mus, "quickxplain"),
    ):
        assert _surface_examples(obj) > 0, f"{obj.__qualname__} lost its example"
        assert needle in (obj.__doc__ or ""), (
            f"{obj.__qualname__} no longer documents {needle!r}"
        )
