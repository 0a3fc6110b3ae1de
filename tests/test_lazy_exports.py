"""The lazy (PEP 562) export contract of ``repro``, ``repro.analysis``,
``repro.ilp`` and ``repro.service``: every ``__all__`` name resolves,
``dir()`` lists exactly ``__all__``, star-imports bind every name, and
unknown names still raise ``AttributeError``.

Each check runs in a fresh interpreter: in the test process every module
has long since been imported, which would hide a broken export table.
"""

import subprocess
import sys
import textwrap

import pytest

PACKAGES = ["repro", "repro.analysis", "repro.ilp", "repro.service"]


def _python(code: str, *argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_dir_is_all(package):
    out = _python(
        """
        import importlib, sys, types
        package = importlib.import_module(sys.argv[1])
        names = list(package.__all__)
        assert len(set(names)) == len(names), "duplicate __all__ entries"
        assert dir(package) == sorted(names), dir(package)
        for name in names:
            value = getattr(package, name)
            # Only ``repro.api`` is exported as a module; any other module
            # here means a submodule shadowed the name it shares.
            assert not isinstance(value, types.ModuleType) or name == "api", name
        assert dir(package) == sorted(names), dir(package)
        try:
            package.no_such_export
        except AttributeError as error:
            assert "no_such_export" in str(error)
        else:
            raise AssertionError("unknown name resolved")
        print("ok", len(names))
        """,
        package,
    )
    assert out.split()[0] == "ok"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    out = _python(
        """
        import importlib, sys
        scope = {}
        exec(f"from {sys.argv[1]} import *", scope)
        package = importlib.import_module(sys.argv[1])
        missing = [name for name in package.__all__ if name not in scope]
        assert not missing, missing
        assert all(scope[name] is getattr(package, name) for name in package.__all__)
        print("ok")
        """,
        package,
    )
    assert out.split() == ["ok"]


def test_import_repro_loads_only_the_export_hooks():
    out = _python(
        """
        import sys
        import repro
        print(sorted(name for name in sys.modules if name.startswith("repro.")))
        """
    )
    assert out.strip() == "['repro._lazy']"


def test_submodule_imported_first_does_not_shadow_its_function():
    # ``repro.analysis.extent_bounds`` is both a submodule and the
    # function it defines; importing the submodule directly must not
    # leave the package exporting the module object.
    out = _python(
        """
        import repro.analysis.extent_bounds
        from repro.analysis import extent_bounds
        from repro import extent_bounds as top
        print(callable(extent_bounds), extent_bounds is top,
              type(extent_bounds).__name__)
        """
    )
    assert out.split() == ["True", "True", "function"]


def test_public_facades_keep_working():
    out = _python(
        """
        import repro
        from repro import DTD, Spec, check_consistency, diagnose

        spec = repro.Spec.parse(
            "<!ELEMENT r (a, a)><!ELEMENT a EMPTY>"
            "<!ATTLIST r k CDATA #REQUIRED><!ATTLIST a k CDATA #REQUIRED>",
            "a.k -> a\\na.k <= r.k",
        )
        assert Spec is repro.api.Spec
        assert not repro.api.check(spec).consistent
        assert not check_consistency(spec.dtd, list(spec.constraints)).consistent
        assert sorted(map(str, diagnose(spec.dtd, list(spec.constraints)).mus)) == [
            "a.k -> a",
            "a.k <= r.k",
        ]
        assert isinstance(spec.dtd, DTD)
        print("ok")
        """
    )
    assert out.split() == ["ok"]
