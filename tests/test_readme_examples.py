"""Execute the README's code examples so the docs cannot rot.

The README's Python blocks are doctest sessions; ``doctest.testfile``
picks every ``>>>`` example out of the markdown and runs it against the
installed package.  A shell-block smoke check also keeps the CLI tour
honest: every ``python -m repro <sub>`` line must name a real
subcommand, and every referenced repository path must exist.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_exists_and_links_resolve():
    text = README.read_text()
    for target in re.findall(r"\]\(([A-Za-z0-9_/.]+)\)", text):
        if target.startswith("http"):
            continue
        assert (README.parent / target).exists(), f"dead README link: {target}"


def test_readme_doctests_pass():
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.ELLIPSIS
    )
    assert result.attempted > 0, "README lost its executable examples"
    assert result.failed == 0, f"{result.failed} README example(s) failed"


def test_readme_cli_tour_names_real_subcommands():
    from repro.cli import build_parser

    parser = build_parser()
    subcommands = set()
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        subcommands.update(action.choices)
    used = set(re.findall(r"python -m repro (\w+)", README.read_text()))
    used.discard("--help")
    assert used, "README lost its CLI tour"
    assert used <= subcommands, f"README mentions unknown subcommands: {used - subcommands}"


def test_readme_flags_exist_in_cli():
    """Every solver flag the README documents parses on `diagnose`."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["diagnose", "d.dtd", "s.txt", "--stats", "--backend", "exact",
         "--jobs", "4"]
    )
    assert args.stats
    assert args.backend == "exact"
    assert args.jobs == 4


def test_readme_serving_section_is_executable():
    """The Serving quickstart is a real doctest session (started server,
    two clients, cache-hit stats), executed by the doctest runner above;
    this guard keeps its load-bearing pieces from being edited away."""
    text = README.read_text()
    assert "## Serving" in text
    assert "start_background()" in text
    assert "ServiceClient" in text
    assert "session_hits" in text
    assert "repro serve" in text
    assert "--session" in text


def test_readme_operating_section_is_executable():
    """The operations quickstart is a real doctest session (deadline
    shed, restart from a snapshot) plus the shell knobs; this guard
    keeps its load-bearing pieces from being edited away."""
    text = README.read_text()
    assert "### Operating the service" in text
    assert "budget_exceeded" in text
    assert "sessions_restored" in text
    assert "REPRO_FAULTS" in text
    for flag in (
        "--max-inflight",
        "--queue-depth",
        "--max-connections",
        "--deadline",
        "--state-file",
        "--autosave-interval",
    ):
        assert flag in text, f"README lost the {flag} knob"


def test_readme_serve_knobs_parse_in_cli():
    """Every operations flag the README documents parses on `serve`."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--max-inflight", "256", "--queue-depth", "128",
         "--max-connections", "64", "--deadline", "30",
         "--state-file", "sessions.json", "--autosave-interval", "300"]
    )
    assert args.max_inflight == 256
    assert args.queue_depth == 128
    assert args.max_connections == 64
    assert args.deadline == 30.0
    assert args.state_file == "sessions.json"
    assert args.autosave_interval == 300.0


def test_readme_observability_section_is_executable():
    """The Observability quickstart is a real doctest session (HTTP
    front end, POST /v1/implies, a /metrics scrape) plus the multi-
    listener shell block; this guard keeps its load-bearing pieces from
    being edited away."""
    text = README.read_text()
    assert "## Observability" in text
    assert "HTTPFrontend" in text
    assert "/v1/implies" in text
    assert "/metrics" in text
    assert "metrics_golden.prom" in text
    for flag in ("--http", "--metrics-port", "--jobs auto"):
        assert flag in text, f"README lost the {flag} knob"


def test_readme_observability_knobs_parse_in_cli():
    """The HTTP/metrics/adaptive-jobs flags the README documents parse
    on `serve` (and a numeric --jobs still parses as an int)."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--port", "7801", "--http", "8080",
         "--metrics-port", "9102", "--jobs", "auto"]
    )
    assert args.http == 8080
    assert args.metrics_port == 9102
    assert args.jobs == "auto"
    assert parser.parse_args(["serve", "--jobs", "4"]).jobs == 4


def test_readme_scaling_section_is_executable():
    """The Scaling quickstart is a real doctest session: the README must
    keep a `diagnose --jobs` shell example (which must parse) and a
    `jobs=` Python example, and the doctest runner above executes the
    latter."""
    from repro.cli import build_parser

    text = README.read_text()
    assert "## Scaling" in text
    scaling = text.split("## Scaling", 1)[1].split("\n## ", 1)[0]
    [line] = [
        row for row in scaling.splitlines()
        if row.startswith("python -m repro") and "--jobs 4" in row
    ]
    argv = line.split()[3:]
    assert argv[0] == "diagnose"
    assert build_parser().parse_args(argv).jobs == 4
    assert "jobs=2" in text
    assert "mus(wide, bloated" in text


def test_readme_repair_section_is_executable():
    """The Repair quickstart is a real doctest session (the api facade,
    a verified cost-1 repair, the weighted DTD-edit variant), executed
    by the doctest runner above; this guard keeps its load-bearing
    pieces from being edited away."""
    text = README.read_text()
    assert "## Repair" in text
    assert "api.repair" in text
    assert "minimal repair (cost 1):" in text
    assert "weights={" in text
    assert "repro fix" in text
    assert "bench_repair.py" in text


def test_readme_fix_flags_parse_in_cli():
    """The repair flags the README documents parse on `fix` and
    `diagnose`."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["fix", "d.dtd", "s.txt", "--output", "fixed.dtd", "--stats"]
    )
    assert args.output == "fixed.dtd" and args.stats
    assert parser.parse_args(
        ["diagnose", "d.dtd", "s.txt", "--repair"]
    ).repair


def test_readme_fleet_section_is_executable():
    """The Fleet quickstart is a real doctest session (two backends, a
    router, a byte-identity check, router counters), executed by the
    doctest runner above; this guard keeps its load-bearing pieces from
    being edited away."""
    text = README.read_text()
    assert "## Fleet" in text
    assert "FleetRouter" in text
    assert "byte-identical via the fleet" in text
    assert "repro fleet" in text
    assert "bench_fleet.py" in text
    for flag in ("--backends", "--spawn", "--via"):
        assert flag in text, f"README lost the {flag} knob"


def test_readme_fleet_knobs_parse_in_cli():
    """Every fleet flag the README documents parses on `fleet`, and
    `--via` parses on the one-shot commands."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["fleet", "--backends", "127.0.0.1:7801,127.0.0.1:7802",
         "--port", "7800", "--http", "8080"]
    )
    assert args.backends == "127.0.0.1:7801,127.0.0.1:7802"
    assert args.port == 7800
    assert args.http == 8080
    assert parser.parse_args(["fleet", "--spawn", "4"]).spawn == 4
    via = parser.parse_args(
        ["implies", "d.dtd", "s.txt", "a.k -> a", "--via", "127.0.0.1:7800"]
    )
    assert via.via == "127.0.0.1:7800"
