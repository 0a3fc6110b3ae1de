"""Cold start: the CLI never imports ``scipy.optimize``, and the HiGHS core
loaded by :mod:`repro.ilp.assembled` is the one scipy itself uses.  A
positive ``check`` or a negative ``implies`` — both re-verify an integer
point — import no scipy Python package and none of the analysis layer.

The CLI also starts numpy's OpenBLAS on one thread, while the library leaves
its host's BLAS threading alone.

Each check runs in a fresh interpreter, because ``sys.modules`` of the test
process has long since imported everything.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.dtd.serializer import dtd_to_string
from repro.workloads.examples import teachers_dtd_d1
from repro.workloads.realistic import bibliography_constraints, bibliography_dtd

SIGMA1 = (
    "teacher.name -> teacher\n"
    "subject.taught_by -> subject\n"
    "subject.taught_by => teacher.name\n"
)


def _python(
    code: str, *argv: str, stdin: str = "", env: dict | None = None
) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        capture_output=True,
        input=stdin,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_cli_skips_scipy_optimize():
    proc = _python(
        """
        import sys
        import repro.cli
        print("scipy.optimize" in sys.modules)
        """
    )
    assert proc.stdout.split() == ["False"]


def test_solver_layers_import_no_service_module():
    """The library facade and the checkers never load the service layer:
    the fault registry they consult lives in :mod:`repro.faults`."""
    proc = _python(
        """
        import sys
        import repro.api
        import repro.checkers.implication
        print(sorted(m for m in sys.modules if m.startswith("repro.service")))
        """
    )
    assert proc.stdout.split() == ["[]"]


def test_check_skips_scipy_optimize(tmp_path):
    dtd_path = tmp_path / "d1.dtd"
    dtd_path.write_text(dtd_to_string(teachers_dtd_d1()))
    sigma_path = tmp_path / "sigma1.txt"
    sigma_path.write_text(SIGMA1)
    # ``python -m repro check`` in-process, then inspect what it imported.
    proc = _python(
        """
        import runpy, sys
        sys.argv = ["repro", "check", *sys.argv[1:]]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            print("exit", stop.code)
        print("scipy.optimize" in sys.modules)
        print("scipy.optimize._highspy._core" in sys.modules)
        """,
        str(dtd_path),
        str(sigma_path),
    )
    lines = proc.stdout.splitlines()
    assert "consistent: False" in lines[0]
    # The check reached the float solver, yet only its core was loaded.
    assert lines[-3:] == ["exit 1", "False", "True"]


#: Modules a one-shot ``check``/``implies`` has no use for.
_UNUSED_ON_CHECK = (
    "scipy.sparse",
    "scipy.optimize",
    "repro.analysis.diagnostics",
    "repro.analysis.repair",
    "repro.service",
    "repro.service.session",
    "repro.service.registry",
)


def _run_cli(*argv: str) -> tuple[list[str], dict[str, bool]]:
    """``python -m repro ARGV`` in a fresh interpreter: its output lines and
    which of the watched modules it imported."""
    watched = (*_UNUSED_ON_CHECK, "scipy.optimize._highspy._core")
    proc = _python(
        """
        import runpy, sys
        watched = sys.argv[1].split(",")
        sys.argv = ["repro", *sys.argv[2:]]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            print("exit", stop.code)
        for name in watched:
            print(name, name in sys.modules)
        """,
        ",".join(watched),
        *argv,
    )
    lines = proc.stdout.splitlines()
    loaded = {}
    for line in lines[-len(watched):]:
        name, flag = line.split()
        loaded[name] = flag == "True"
    return lines[: -len(watched)], loaded


def _write_spec(tmp_path, name, dtd, constraints):
    dtd_path = tmp_path / f"{name}.dtd"
    dtd_path.write_text(dtd_to_string(dtd))
    sigma_path = tmp_path / f"{name}.txt"
    sigma_path.write_text("".join(f"{phi}\n" for phi in constraints))
    return str(dtd_path), str(sigma_path)


@pytest.mark.parametrize(
    "command, expected",
    [
        ("check-bibliography", ["consistent: True", "ilp-encoding", "exit 0"]),
        ("check-d1-empty-sigma", ["consistent: True", "exit 0"]),
        ("implies-bibliography", ["implied: False", "ilp-encoding", "exit 1"]),
    ],
)
def test_positive_check_and_refuted_implication_stay_lean(tmp_path, command, expected):
    if command == "check-d1-empty-sigma":
        argv = ["check", *_write_spec(tmp_path, "d1", teachers_dtd_d1(), [])]
    else:
        spec = _write_spec(
            tmp_path, "bib", bibliography_dtd(), bibliography_constraints()
        )
        argv = (
            ["check", *spec]
            if command == "check-bibliography"
            else ["implies", *spec, "article.venue_id -> article"]
        )
    lines, loaded = _run_cli(*argv)
    output = "\n".join(lines)
    for needle in expected:
        assert needle in output, output
    assert not [name for name in _UNUSED_ON_CHECK if loaded[name]], loaded
    assert loaded["scipy.optimize._highspy._core"]


def test_serve_loads_analysis_before_the_first_request():
    # The only request is ``shutdown``: whatever analysis code is loaded
    # afterwards was loaded at start-up, not by a diagnose/repair request.
    proc = _python(
        """
        import sys
        from repro.cli import main

        watched = ("repro.analysis.diagnostics", "repro.analysis.repair")
        print(*(name in sys.modules for name in watched), file=sys.stderr)
        code = main(["serve"])
        print(code, *(name in sys.modules for name in watched), file=sys.stderr)
        """,
        stdin='{"id": 1, "op": "shutdown"}\n',
    )
    before, after = proc.stderr.strip().splitlines()[-2:]
    assert before.split() == ["False", "False"]
    assert after.split() == ["0", "True", "True"]
    assert '"id": 1' in proc.stdout


_ONE_CORE = """
    import sys

    def load_repro():
        from repro.ilp.assembled import AssembledSystem, _highs
        return AssembledSystem, _highs

    def load_scipy():
        import scipy.optimize
        return scipy.optimize

    if sys.argv[1] == "scipy-first":
        optimize = load_scipy()
        AssembledSystem, core = load_repro()
    else:
        AssembledSystem, core = load_repro()
        optimize = load_scipy()

    import numpy as np
    from scipy.optimize._highspy import _highs_wrapper
    from repro.ilp.model import LinearSystem

    name = "scipy.optimize._highspy._core"
    copies = {
        id(module)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", None) == name
    }
    assert sys.modules[name] is core, "repro holds a second core"
    assert _highs_wrapper._h is core, "scipy holds a second core"
    assert len(copies) == 1, copies

    result = optimize.milp(
        c=np.ones(1), integrality=np.ones(1), bounds=optimize.Bounds(2, 5)
    )
    assert result.status == 0 and round(result.x[0]) == 2

    system = LinearSystem()
    system.add_ge({"x": 3}, 2)
    solved = AssembledSystem(system).solve_int({})
    assert (solved.status, solved.values) == ("feasible", {"x": 1})
    print("ok")
"""


def test_one_core_when_scipy_optimize_imported_first():
    assert _python(_ONE_CORE, "scipy-first").stdout.split() == ["ok"]


def test_one_core_when_repro_imported_first():
    assert _python(_ONE_CORE, "repro-first").stdout.split() == ["ok"]


def test_missing_core_names_the_scipy_requirement(tmp_path):
    # A scipy package without the vendored binding shadows the real one.
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    proc = _python(
        """
        import sys
        sys.path.insert(0, sys.argv[1])
        try:
            import repro.ilp.assembled
        except ImportError as error:
            print(error)
        """,
        str(tmp_path),
    )
    assert "scipy>=1.15" in proc.stdout
    assert "scipy.optimize._highspy._core" in proc.stdout


_BLAS_VARIABLE = "OPENBLAS_NUM_THREADS"

needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/<pid>/task to count"
)


def _env_without_blas_setting(**extra: str) -> dict:
    """This process's environment minus ``OPENBLAS_NUM_THREADS``: once the
    test process has imported ``repro.cli`` its children would inherit it."""
    env = {key: value for key, value in os.environ.items() if key != _BLAS_VARIABLE}
    env.update(extra)
    return env


@needs_proc_tasks
def test_import_cli_starts_no_blas_threads():
    proc = _python(
        """
        import os
        import repro.cli
        import numpy
        print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
        """,
        env=_env_without_blas_setting(),
    )
    assert proc.stdout.split() == ["1", "1"]


def test_import_cli_keeps_a_callers_blas_setting():
    proc = _python(
        """
        import os
        import repro.cli
        print(os.environ["OPENBLAS_NUM_THREADS"])
        """,
        env=_env_without_blas_setting(**{_BLAS_VARIABLE: "3"}),
    )
    assert proc.stdout.split() == ["3"]


def test_library_leaves_blas_threading_alone():
    proc = _python(
        """
        import os, sys
        import repro.api
        from repro.workloads.examples import sigma1_constraints, teachers_dtd_d1

        result = repro.api.check_consistency(teachers_dtd_d1(), sigma1_constraints())
        print(result.consistent, "numpy" in sys.modules)
        print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
        """,
        env=_env_without_blas_setting(),
    )
    assert proc.stdout.split() == ["False", "True", "unset"]


def _served_thread_count(env: dict) -> int:
    """Threads of a ``repro serve --port 0`` process once it has announced
    its port; the server is then shut down over its own protocol."""
    from repro.service.client import ServiceClient

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        announced = server.stdout.readline()
        assert announced.startswith("listening on "), announced
        threads = len(os.listdir(f"/proc/{server.pid}/task"))
        host, port = announced.split()[-1].rsplit(":", 1)
        with ServiceClient(host, int(port)) as client:
            assert client.call({"id": 1, "op": "shutdown"})["ok"]
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    return threads


@needs_proc_tasks
def test_served_process_starts_no_blas_threads():
    scrubbed = _served_thread_count(_env_without_blas_setting())
    pinned = _served_thread_count(_env_without_blas_setting(**{_BLAS_VARIABLE: "1"}))
    assert scrubbed == pinned
