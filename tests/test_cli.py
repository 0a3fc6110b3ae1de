"""CLI tests: every subcommand, exit codes, file outputs."""

import json

import pytest

from repro import api
from repro.checkers.config import CheckerConfig
from repro.cli import main
from repro.dtd.serializer import dtd_to_string
from repro.service.session import SpecSession
from repro.workloads.examples import (
    figure1_tree,
    school_document,
    school_dtd_d3,
    sigma1_constraints,
    teachers_dtd_d1,
)
from repro.workloads.realistic import bibliography_constraints, bibliography_dtd
from repro.xmltree.parse import parse_xml
from repro.xmltree.serialize import tree_to_string

SIGMA1_TEXT = """
teacher.name -> teacher
subject.taught_by -> subject
subject.taught_by => teacher.name
"""

KEYS_TEXT = """
teacher.name -> teacher
subject.taught_by -> subject
"""


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.dtd"
    path.write_text(dtd_to_string(teachers_dtd_d1()))
    return str(path)


@pytest.fixture
def sigma1_file(tmp_path):
    path = tmp_path / "sigma1.txt"
    path.write_text(SIGMA1_TEXT)
    return str(path)


@pytest.fixture
def keys_file(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text(KEYS_TEXT)
    return str(path)


class TestCheck:
    def test_inconsistent_exit_code(self, d1_file, sigma1_file, capsys):
        assert main(["check", d1_file, sigma1_file]) == 1
        assert "consistent: False" in capsys.readouterr().out

    def test_consistent_with_witness_file(self, d1_file, keys_file, tmp_path, capsys):
        witness_path = tmp_path / "witness.xml"
        code = main(
            ["check", d1_file, keys_file, "--witness", str(witness_path)]
        )
        assert code == 0
        assert "consistent: True" in capsys.readouterr().out
        tree = parse_xml(witness_path.read_text())
        assert tree.root.label == "teachers"

    def test_dtd_only(self, d1_file, capsys):
        assert main(["check", d1_file]) == 0

    def test_missing_file_is_usage_error(self, d1_file, tmp_path, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("teacher.name -> teacher # caf\u00e9\n".encode("latin-1"))
        for argv in (
            ["check", "/nonexistent.dtd"],
            ["check", str(tmp_path)],  # a directory
            ["check", str(latin1)],  # not UTF-8, as the DTD
            ["check", d1_file, str(latin1)],  # ... and as the constraints
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, argv

    def test_bad_dtd_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.dtd"
        bad.write_text("not a dtd at all")
        assert main(["check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_flag_prints_solver_counters(self, d1_file, sigma1_file, capsys):
        assert main(["check", d1_file, sigma1_file, "--stats"]) == 1
        out = capsys.readouterr().out
        assert "solver stats:" in out
        assert "dfs_nodes=" in out
        assert "bound_patch_solves=" in out

    def test_stats_flag_splits_lp_and_mip_solves(
        self, d1_file, sigma1_file, keys_file, capsys
    ):
        # The root LP relaxation refutes D1/Sigma1: no MIP run at all.
        assert main(["check", d1_file, sigma1_file, "--stats"]) == 1
        out = capsys.readouterr().out
        assert "lp_solves=1" in out
        assert "mip_solves=0" in out
        # A keys-only spec (Theorem 3.5) solves the empty-Sigma encoding
        # for its witness and reports the same counter map.
        assert main(["check", d1_file, keys_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "lp_solves=" in out
        assert "mip_solves=" in out

    def test_profile_alias(self, d1_file, sigma1_file, capsys):
        assert main(["check", d1_file, sigma1_file, "--profile"]) == 1
        assert "solver stats:" in capsys.readouterr().out

    def test_keys_only_check_reports_no_solver_stats(self, d1_file, keys_file, capsys):
        # The keys-only fragment may answer without the ILP solver.
        assert main(["check", d1_file, keys_file, "--stats"]) == 0
        assert "solver stats:" in capsys.readouterr().out

    def test_exact_backend_flag(self, d1_file, sigma1_file, capsys):
        assert main(
            ["check", d1_file, sigma1_file, "--backend", "exact", "--stats"]
        ) == 1
        out = capsys.readouterr().out
        assert "consistent: False" in out
        assert "exact_pivots=" in out

    @pytest.mark.parametrize(
        "command, flag", [("check", "--cold"), ("diagnose", "--rebuild")]
    )
    def test_reference_engine_flags_are_gone(
        self, d1_file, sigma1_file, command, flag
    ):
        # The reference engines are test oracles now (tests/oracles.py):
        # their old flags are usage errors.
        with pytest.raises(SystemExit) as exit_info:
            main([command, d1_file, sigma1_file, flag])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "command, extra",
        [("check", []), ("implies", ["a.x -> a"]), ("fix", [])],
    )
    def test_jobs_flag_is_gone_from_single_solves(
        self, d1_file, sigma1_file, command, extra
    ):
        # One check/implies/fix is one sequential solve: `--jobs` would
        # do nothing there, so it is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main([command, d1_file, sigma1_file, *extra, "--jobs", "2"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("value", ["2", "auto"])
    @pytest.mark.parametrize("command", ["diagnose", "serve", "fleet"])
    def test_jobs_flag_is_gone_from_batch_commands(
        self, d1_file, sigma1_file, command, value
    ):
        # Every batch runs in the caller's process: there is no worker
        # count to set, so `--jobs` is a usage error everywhere.
        files = [d1_file, sigma1_file] if command == "diagnose" else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, *files, "--jobs", value])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "command, extra",
        [("check", []), ("implies", ["a.x -> a"]), ("diagnose", []), ("fix", [])],
    )
    def test_session_flag_is_gone_from_one_shot_commands(
        self, d1_file, sigma1_file, command, extra
    ):
        # A one-shot command builds no session, so there is no session
        # fingerprint or cache counter to print: `--session` is a usage
        # error.
        with pytest.raises(SystemExit) as exit_info:
            main([command, d1_file, sigma1_file, *extra, "--session"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command", ["serve", "fleet"])
    def test_session_mode_flag_is_gone(self, command):
        # Sessions have one mode (replay); `--mode` is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--mode", "warm"])
        assert exit_info.value.code == 2

    def test_cut_transport_ops_are_gone(self):
        from repro.service.client import ServiceClient
        from repro.service.registry import SessionRegistry
        from repro.service.server import CheckingServer

        server = CheckingServer(SessionRegistry())
        host, port = server.start_background()
        try:
            with ServiceClient(host, port) as client:
                for op in ("export_cuts", "adopt_cuts"):
                    response = client.call(
                        {"op": op, "dtd": dtd_to_string(teachers_dtd_d1())}
                    )
                    assert response["ok"] is False
                    assert response["error"]["type"] == "ProtocolError"
                    assert f"unknown op {op!r}" in response["error"]["message"]
        finally:
            server.close()


class TestVia:
    """`--via HOST:PORT` sends the command's solver flags over the wire."""

    @pytest.fixture
    def server_address(self):
        from repro.service.registry import SessionRegistry
        from repro.service.server import CheckingServer

        server = CheckingServer(SessionRegistry())
        host, port = server.start_background()
        yield f"{host}:{port}"
        server.close()

    def test_backend_reaches_the_server(
        self, d1_file, sigma1_file, server_address, capsys
    ):
        args = ["check", d1_file, sigma1_file, "--via", server_address, "--stats"]
        assert main([*args, "--backend", "exact"]) == 1
        out = capsys.readouterr().out
        assert "consistent: False" in out
        assert "exact_nodes=1" in out
        # The default backend never runs the exact engine.
        assert main(args) == 1
        assert "exact_nodes=0" in capsys.readouterr().out


class TestValidate:
    def test_valid_document(self, d1_file, keys_file, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        tree = figure1_tree()
        # Make taught_by values distinct so the subject key holds.
        subjects = tree.ext("subject")
        subjects[0].attrs["taught_by"] = "Joe"
        subjects[1].attrs["taught_by"] = "Joe2"
        doc.write_text(tree_to_string(tree))
        # Figure-1 variant violates the FK (Joe2 is no teacher), so use keys only.
        assert main(["validate", d1_file, str(doc), keys_file]) == 0

    def test_figure1_violates_sigma1(self, d1_file, sigma1_file, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        doc.write_text(tree_to_string(figure1_tree()))
        assert main(["validate", d1_file, str(doc), sigma1_file]) == 1
        out = capsys.readouterr().out
        assert "conforms to DTD: True" in out
        assert "violated" in out

    def test_sigma_that_does_not_fit_the_dtd_is_usage_error(
        self, d1_file, tmp_path, capsys
    ):
        doc = tmp_path / "doc.xml"
        doc.write_text(tree_to_string(figure1_tree()))
        sigma = tmp_path / "bad.txt"
        sigma.write_text("teacher.nosuch -> teacher\n")
        assert main(["validate", d1_file, str(doc), str(sigma)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"<teachers>caf\xe9</teachers>", b"<teachers>&#xFFFFFFFF;</teachers>"],
        ids=["not-utf8", "bad-char-ref"],
    )
    def test_unreadable_document_is_usage_error(self, d1_file, tmp_path, capsys, content):
        doc = tmp_path / "doc.xml"
        doc.write_bytes(content)
        assert main(["validate", d1_file, str(doc)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nonconforming_document(self, d1_file, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        doc.write_text("<teachers/>")
        assert main(["validate", d1_file, str(doc)]) == 1

    def test_school_document(self, tmp_path):
        dtd_path = tmp_path / "d3.dtd"
        dtd_path.write_text(dtd_to_string(school_dtd_d3()))
        doc = tmp_path / "school.xml"
        doc.write_text(tree_to_string(school_document()))
        assert main(["validate", str(dtd_path), str(doc)]) == 0

    def test_check_witness_validates(self, d1_file, keys_file, tmp_path, capsys):
        # D1's research and subject elements are (#PCDATA): the witness
        # writes them as empty elements, which must still conform.
        witness = tmp_path / "w.xml"
        assert main(["check", d1_file, keys_file, "--witness", str(witness)]) == 0
        assert "></" in witness.read_text()
        capsys.readouterr()
        assert main(["validate", d1_file, str(witness), keys_file]) == 0
        assert "conforms to DTD: True" in capsys.readouterr().out


class TestImplies:
    def test_implied(self, d1_file, sigma1_file, capsys):
        code = main(
            ["implies", d1_file, sigma1_file, "subject.taught_by <= teacher.name"]
        )
        assert code == 0
        assert "implied: True" in capsys.readouterr().out

    def test_not_implied_prints_counterexample(self, d1_file, keys_file, capsys):
        code = main(
            ["implies", d1_file, keys_file, "subject.taught_by <= teacher.name"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "implied: False" in out
        assert "counterexample" in out

    def test_stats_flag_on_implies(self, d1_file, sigma1_file, capsys):
        code = main(
            [
                "implies", d1_file, sigma1_file,
                "subject.taught_by <= teacher.name", "--stats",
            ]
        )
        assert code == 0
        assert "solver stats:" in capsys.readouterr().out

    def test_counterexample_to_file(self, d1_file, keys_file, tmp_path, capsys):
        target = tmp_path / "cx.xml"
        code = main(
            [
                "implies", d1_file, keys_file,
                "subject.taught_by <= teacher.name",
                "--counterexample", str(target),
            ]
        )
        assert code == 1
        assert parse_xml(target.read_text()).root.label == "teachers"


class TestDiagnoseAndBounds:
    def test_diagnose_inconsistent(self, d1_file, sigma1_file, capsys):
        assert main(["diagnose", d1_file, sigma1_file]) == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT" in out
        assert "subject.taught_by => teacher.name" in out

    def test_diagnose_consistent(self, d1_file, keys_file, capsys):
        assert main(["diagnose", d1_file, keys_file]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_bounds(self, d1_file, capsys):
        assert main(["bounds", d1_file, "--type", "subject"]) == 0
        out = capsys.readouterr().out
        assert "|ext(subject)| in [2, unbounded]" in out

    def test_bounds_inconsistent(self, d1_file, sigma1_file, capsys):
        code = main(
            ["bounds", d1_file, sigma1_file, "--type", "subject"]
        )
        assert code == 1


class TestWireDrift:
    """The one-shot CLI prints ``api.<op>(...).as_dict()``; the server
    answers with ``SpecSession``'s payload.  Both must be the same JSON."""

    SPECS = {
        "d1_sigma1": (
            teachers_dtd_d1,
            sigma1_constraints,
            ["subject.taught_by <= teacher.name"],
        ),
        "bibliography": (
            bibliography_dtd,
            bibliography_constraints,
            ["person.pid -> person", "article.venue_id -> article"],
        ),
    }

    @staticmethod
    def _same(cli_payload, session_payload):
        assert json.dumps(cli_payload, sort_keys=True) == json.dumps(
            session_payload, sort_keys=True
        )

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_every_op_matches_the_session_payload(self, name):
        make_dtd, make_sigma, phis = self.SPECS[name]
        dtd, sigma = make_dtd(), make_sigma()
        spec = api.Spec(dtd=dtd, constraints=tuple(sigma))
        config = CheckerConfig(backend="scipy")
        session = SpecSession(dtd, sigma)

        checked = api.check(spec, config=config)
        self._same(checked.as_dict(), session.check())

        verdicts = set()
        for phi in phis:
            result = api.implies(spec, phi, config=config)
            verdicts.add(result.implied)
            self._same(result.as_dict(), session.implies(phi))
        # Bibliography covers a refuted implication (with its
        # counterexample); D1/Sigma1 is inconsistent and implies all.
        assert verdicts == ({True} if name == "d1_sigma1" else {True, False})

        if checked.consistent:
            document = checked.as_dict()["witness"]
        else:
            document = tree_to_string(figure1_tree())
        self._same(api.validate(spec, document), session.validate(document))

        self._same(api.diagnose(spec, config=config).as_dict(), session.diagnose())
        self._same(api.repair(spec, config=config).as_dict(), session.repair())
