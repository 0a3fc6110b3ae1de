"""Command-line interface: static and dynamic XML specification checking.

Subcommands (also available as ``python -m repro``):

* ``check DTD [CONSTRAINTS]`` — consistency of the specification; with
  ``--witness FILE`` writes a synthesized satisfying document;
* ``validate DTD DOCUMENT [CONSTRAINTS]`` — does a concrete document
  conform to the DTD and satisfy the constraints?
* ``implies DTD CONSTRAINTS PHI`` — is the constraint ``PHI`` implied?
  With ``--counterexample FILE`` writes a refuting document;
* ``diagnose DTD CONSTRAINTS`` — minimal inconsistent subset (QuickXplain
  divide-and-conquer) or redundancy report, probed by row toggles on one
  assembled system (``--stats`` prints the work counters, ``--jobs N``
  fans the redundancy audit across worker processes);
* ``fix DTD [CONSTRAINTS]`` — minimum-weight repair of an inconsistent
  specification: constraint deletions plus DTD edits (cardinality
  loosenings, attribute-requirement drops), searched by toggle probes
  on one assembled system and re-verified with the full checker
  (``--output`` / ``--constraints-out`` write the repaired spec);
* ``bounds DTD [CONSTRAINTS] --type TAU`` — feasible range of
  ``|ext(TAU)|``;
* ``serve`` — the long-lived checking service: line-delimited JSON over
  stdio (default) or a localhost TCP socket (``--port``), with
  cross-request session caching and request batching (DESIGN.md
  section 8);
* ``fleet`` — a shard router over N ``repro serve`` backends
  (``--backends HOST:PORT,...`` and/or ``--spawn N``): the same line
  and HTTP protocols, sessions consistent-hashed by spec fingerprint,
  ``implies_all`` batches fanned across the fleet in waves (DESIGN.md
  section 11).

``check``/``implies``/``diagnose``/``fix``/``validate`` accept
``--via HOST:PORT`` to route through a running ``serve`` or ``fleet``
endpoint instead of solving in-process.

``check``/``implies``/``diagnose``/``fix``/``validate`` are thin clients of the
same session API the server runs on: each command resolves its
``(DTD, Sigma)`` through the process-wide
:func:`~repro.service.registry.default_registry`, so one-shot
invocations behave exactly as before while embedders calling
:func:`main` repeatedly get session reuse for free (``--session`` prints
the fingerprint and hit counters).

DTD files use ``<!ELEMENT>``/``<!ATTLIST>`` syntax; constraint files use
the library's text syntax (one constraint per line, ``#`` comments).
Exit codes: 0 = positive answer (consistent / valid / implied),
1 = negative answer, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.checkers.config import CheckerConfig
from repro.constraints.parser import parse_constraints
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError
from repro.service.registry import SessionRegistry, default_registry
from repro.service.session import SpecSession


def _load_dtd(path: str, root: str | None):
    return parse_dtd(Path(path).read_text(), root=root)


def _load_constraints(path: str | None):
    if path is None:
        return []
    return parse_constraints(Path(path).read_text())


def _print_stats(stats: dict) -> None:
    """Render the solver counters carried by a checker result."""
    if not stats:
        print("solver stats: (none; decided without the ILP solver)")
        return
    rendered = "  ".join(f"{key}={value}" for key, value in sorted(stats.items()))
    print(f"solver stats: {rendered}")


def _config_overrides(args: argparse.Namespace) -> dict | None:
    """The per-request config overrides selected by the solver flags.

    Only non-default selections are sent, so a plain invocation shares
    the session's (default-config) response-cache entries.
    """
    overrides: dict = {}
    if getattr(args, "backend", "scipy") != "scipy":
        overrides["backend"] = args.backend
    if getattr(args, "jobs", 1) != 1:
        # "auto" rides through as the adaptive marker; the session
        # resolves it to a concrete level per request.
        overrides["jobs"] = args.jobs
    return overrides or None


def _jobs_value(text: str) -> "int | str":
    """``--jobs`` accepts a worker count or the adaptive ``auto``."""
    if text == "auto":
        return "auto"
    return int(text)


def _session_for(args: argparse.Namespace) -> SpecSession:
    """Resolve the command's spec through the process-wide registry."""
    dtd = _load_dtd(args.dtd, args.root)
    sigma = _load_constraints(getattr(args, "constraints", None))
    return default_registry().session_for(dtd, sigma)


def _wire_spec(args: argparse.Namespace) -> dict:
    """The inline-spec fields of a wire request (``--via`` routing)."""
    request: dict = {"dtd": Path(args.dtd).read_text()}
    constraints = getattr(args, "constraints", None)
    if constraints is not None:
        request["constraints"] = Path(constraints).read_text()
    if args.root is not None:
        request["root"] = args.root
    return request


def _via_payload(args: argparse.Namespace, request: dict) -> tuple[dict, str]:
    """Run one wire request against the ``--via`` service.

    Returns ``(result, session_fingerprint)``; a structured error
    answer is surfaced as a :class:`ReproError` (exit code 2), the same
    contract as a local parse or solve failure.
    """
    from repro.service.client import ServiceClient

    host, _, port = args.via.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"--via must be HOST:PORT, got {args.via!r}")
    config = _config_overrides(args)
    if config:
        request["config"] = config
    try:
        with ServiceClient(host, int(port)) as client:
            response = client.call(request)
    except (ConnectionError, OSError) as exc:
        raise ReproError(f"cannot reach service at {args.via}: {exc}") from None
    if not response.get("ok", False):
        error = response.get("error", {})
        raise ReproError(
            f"service answered {error.get('type', 'error')}: "
            f"{error.get('message', 'remote call failed')}"
        )
    return response["result"], response.get("service", {}).get("session", "")


def _print_session(session: SpecSession) -> None:
    """The ``--session`` line: fingerprint plus cross-request counters."""
    stats = session.stats
    print(
        f"session: {session.fingerprint}  "
        f"[requests={stats.requests} cache_hits={stats.cache_hits}]"
    )


def _cmd_check(args: argparse.Namespace) -> int:
    if args.via:
        payload, fingerprint = _via_payload(args, {**_wire_spec(args), "op": "check"})
    else:
        session = _session_for(args)
        payload = session.check(_config_overrides(args))
    print(f"consistent: {payload['consistent']}   [{payload['method']}]")
    if payload["message"]:
        print(f"note: {payload['message']}")
    if args.stats:
        _print_stats(payload["stats"])
    if args.session_info:
        if args.via:
            print(f"session: {fingerprint}  [via={args.via}]")
        else:
            _print_session(session)
    if payload["consistent"] and args.witness:
        assert payload["witness"] is not None
        Path(args.witness).write_text(payload["witness"] + "\n")
        print(f"witness written to {args.witness}")
    return 0 if payload["consistent"] else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    document = Path(args.document).read_text()
    if args.via:
        payload, _ = _via_payload(
            args, {**_wire_spec(args), "op": "validate", "document": document}
        )
        has_sigma = args.constraints is not None
    else:
        session = _session_for(args)
        payload = session.validate(document)
        has_sigma = bool(session.sigma)
    print(f"conforms to DTD: {payload['conforms']}")
    for error in payload["errors"]:
        print(f"  - {error}")
    if has_sigma:
        print(f"satisfies constraints: {payload['satisfies']}")
        for phi in payload["violations"]:
            print(f"  - violated: {phi}")
    return 0 if payload["conforms"] and payload["satisfies"] else 1


def _cmd_implies(args: argparse.Namespace) -> int:
    if args.via:
        payload, fingerprint = _via_payload(
            args, {**_wire_spec(args), "op": "implies", "phi": args.phi}
        )
    else:
        session = _session_for(args)
        payload = session.implies(args.phi, _config_overrides(args))
    print(f"implied: {payload['implied']}   [{payload['method']}]")
    if payload["message"]:
        print(f"note: {payload['message']}")
    if args.stats:
        _print_stats(payload["stats"])
    if args.session_info:
        if args.via:
            print(f"session: {fingerprint}  [via={args.via}]")
        else:
            _print_session(session)
    if not payload["implied"] and payload["counterexample"] is not None:
        if args.counterexample:
            Path(args.counterexample).write_text(
                payload["counterexample"] + "\n"
            )
            print(f"counterexample written to {args.counterexample}")
        else:
            print("counterexample document:")
            print(payload["counterexample"])
    return 0 if payload["implied"] else 1


def _repair_payload(args: argparse.Namespace, session=None) -> tuple[dict, str]:
    """One repair answer, via the service or the local session."""
    if args.via:
        return _via_payload(args, {**_wire_spec(args), "op": "repair"})
    session = session if session is not None else _session_for(args)
    payload = session.repair(_config_overrides(args))
    return payload, session.fingerprint


def _cmd_diagnose(args: argparse.Namespace) -> int:
    if args.via:
        payload, fingerprint = _via_payload(
            args, {**_wire_spec(args), "op": "diagnose"}
        )
        session = None
    else:
        session = _session_for(args)
        payload = session.diagnose(_config_overrides(args))
    print(payload["summary"])
    if args.repair and not payload["consistent"]:
        fix, _ = _repair_payload(args, session)
        print(fix["summary"])
    if args.stats:
        _print_stats(payload["stats"])
    if args.session_info:
        if args.via:
            print(f"session: {fingerprint}  [via={args.via}]")
        else:
            _print_session(session)
    return 0 if payload["consistent"] else 1


def _cmd_fix(args: argparse.Namespace) -> int:
    payload, fingerprint = _repair_payload(args)
    print(payload["summary"])
    if payload["found"] and not payload["verified"]:  # pragma: no cover
        print("warning: repaired specification failed re-verification")
    if args.stats:
        _print_stats(payload["stats"])
    if args.session_info:
        if args.via:
            print(f"session: {fingerprint}  [via={args.via}]")
        else:
            print(f"session: {fingerprint}")
    if payload["found"] and args.output:
        Path(args.output).write_text(payload["dtd"] + "\n")
        print(f"repaired DTD written to {args.output}")
    if payload["found"] and args.constraints_out:
        text = "\n".join(payload["constraints"])
        Path(args.constraints_out).write_text(text + ("\n" if text else ""))
        print(f"repaired constraints written to {args.constraints_out}")
    return 0 if payload["found"] or payload["consistent_before"] else 1


def _run_transports(
    server,
    host: str,
    port: int | None,
    http: int | None,
    metrics_port: int | None,
    stdio_fallback: bool = True,
) -> int:
    """Serve any mix of front ends on one loop, announcing bound ports.

    Shared by ``serve`` (a :class:`CheckingServer`) and ``fleet`` (a
    :class:`~repro.service.fleet.FleetRouter`): line TCP (``port``),
    HTTP/JSON (``http``), a scrape-only metrics listener
    (``metrics_port``), or stdio when no ports were requested and
    ``stdio_fallback`` allows it.  All transports share one stop event
    and one snapshot lifecycle.
    """
    import asyncio

    from repro.service.http import HTTPFrontend

    async def run() -> None:
        transports = []
        fronts: list = []
        if port is not None:
            transports.append(asyncio.ensure_future(server.serve_tcp(host, port)))
            fronts.append(("listening", server))
        if http is not None:
            front = HTTPFrontend(server)
            transports.append(asyncio.ensure_future(front.serve(host, http)))
            fronts.append(("http", front))
        if metrics_port is not None:
            front = HTTPFrontend(server, metrics_only=True)
            transports.append(
                asyncio.ensure_future(front.serve(host, metrics_port))
            )
            fronts.append(("metrics", front))
        if port is None and http is None and stdio_fallback:
            transports.append(asyncio.ensure_future(server.serve_stdio()))

        def pending() -> list:
            return [
                (kind, owner) for kind, owner in fronts if owner.address is None
            ]

        while pending() and not any(task.done() for task in transports):
            await asyncio.sleep(0.001)
        for kind, owner in fronts:
            if owner.address is not None:
                # Announce each bound port (0 binds ephemerally).
                print(
                    f"{kind} on {owner.address[0]}:{owner.address[1]}",
                    flush=True,
                )
        await asyncio.gather(*transports)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Deferred: only `serve` needs the asyncio server (and its thread
    # pool); the one-shot commands stay off that import cost.
    from repro.service.server import CheckingServer

    auto_jobs = args.jobs == "auto"
    config = CheckerConfig(
        backend=args.backend,
        jobs=1 if auto_jobs else args.jobs,
    )
    registry = SessionRegistry(
        max_sessions=args.max_sessions,
        max_bytes=args.max_bytes,
        config=config,
        auto_jobs=auto_jobs,
    )
    server = CheckingServer(
        registry,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        max_connections=args.max_connections,
        default_deadline=args.deadline,
        state_file=args.state_file,
        autosave_interval=args.autosave_interval,
    )

    return _run_transports(
        server, args.host, args.port, args.http, args.metrics_port
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.service.fleet import FleetRouter, spawn_backends

    backends = [
        spec.strip() for spec in (args.backends or "").split(",") if spec.strip()
    ]
    processes: list = []
    try:
        if args.spawn:
            extra: list[str] = []
            if args.jobs != 1:
                extra += ["--jobs", str(args.jobs)]
            processes, spawned = spawn_backends(
                args.spawn,
                host=args.host,
                extra_args=tuple(extra),
            )
            backends += spawned
        router = FleetRouter(
            backends,
            max_inflight=args.max_inflight,
            max_connections=args.max_connections,
            wave_chunk=args.wave_chunk,
            # Spawned backends are the fleet's own: the router's
            # shutdown drains them too.  Externally-owned backends
            # outlive their router.
            shutdown_backends=bool(args.spawn),
        )
        return _run_transports(
            router,
            args.host,
            args.port,
            args.http,
            args.metrics_port,
            stdio_fallback=False,
        )
    finally:
        for proc in processes:
            proc.terminate()
        for proc in processes:
            try:
                proc.wait(timeout=10.0)
            except Exception:  # noqa: BLE001 - last resort for a hung backend
                proc.kill()


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis.extent_bounds import extent_bounds

    dtd = _load_dtd(args.dtd, args.root)
    sigma = _load_constraints(args.constraints)
    bounds = extent_bounds(dtd, sigma, args.type, probe_limit=args.probe_limit)
    if bounds is None:
        print("the specification is inconsistent: no documents exist")
        return 1
    print(bounds)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XML integrity constraints in the presence of DTDs "
        "(Fan & Libkin, PODS 2001).",
    )
    parser.add_argument(
        "--root", default=None, help="root element type (default: first declared)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_session_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--session",
            action="store_true",
            dest="session_info",
            help="print the spec's session fingerprint and cross-request "
            "cache counters (the command resolves through the same "
            "session API `repro serve` runs on)",
        )

    def add_via_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--via",
            default=None,
            metavar="HOST:PORT",
            help="route the command through a running `repro serve` or "
            "`repro fleet` line endpoint instead of solving in-process "
            "(the answer bytes come from the service's session cache)",
        )

    def add_solver_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--backend",
            choices=["scipy", "exact"],
            default="scipy",
            help="ILP backend: HiGHS floats with exact re-verification "
            "(default) or the certified rational simplex",
        )

    def add_jobs_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--jobs",
            type=_jobs_value,
            default=1,
            metavar="N",
            help="worker processes for the batch fan-outs (implies_all "
            "queries and redundancy-audit probes fan across N fork-based "
            "workers; answers are identical to --jobs 1), or 'auto' to "
            "grow/shrink the level from observed solve latency (never "
            "beyond the effective CPU count)",
        )

    p_check = sub.add_parser("check", help="consistency of (DTD, constraints)")
    p_check.add_argument("dtd")
    p_check.add_argument("constraints", nargs="?", default=None)
    p_check.add_argument("--witness", help="write a satisfying document here")
    p_check.add_argument(
        "--stats",
        "--profile",
        action="store_true",
        dest="stats",
        help="print solver statistics (dfs_nodes, leaves, cuts, lp_prunes, "
        "assembly/cut-pool/propagation and exact node/pivot counters)",
    )
    add_solver_flags(p_check)
    add_session_flag(p_check)
    add_via_flag(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_validate = sub.add_parser("validate", help="validate a document")
    p_validate.add_argument("dtd")
    p_validate.add_argument("document")
    p_validate.add_argument("constraints", nargs="?", default=None)
    add_via_flag(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_implies = sub.add_parser("implies", help="constraint implication")
    p_implies.add_argument("dtd")
    p_implies.add_argument("constraints")
    p_implies.add_argument("phi", help="the constraint to test, in text syntax")
    p_implies.add_argument(
        "--counterexample", help="write a refuting document here"
    )
    p_implies.add_argument(
        "--stats",
        "--profile",
        action="store_true",
        dest="stats",
        help="print solver statistics for the underlying consistency solve",
    )
    add_solver_flags(p_implies)
    add_session_flag(p_implies)
    add_via_flag(p_implies)
    p_implies.set_defaults(func=_cmd_implies)

    p_diagnose = sub.add_parser("diagnose", help="specification health report")
    p_diagnose.add_argument("dtd")
    p_diagnose.add_argument("constraints")
    p_diagnose.add_argument(
        "--stats",
        "--profile",
        action="store_true",
        dest="stats",
        help="print diagnostics work counters (assemblies, subset probes, "
        "patched re-solves, cut-pool and exact node/pivot counters)",
    )
    p_diagnose.add_argument(
        "--repair",
        action="store_true",
        help="when the specification is inconsistent, additionally "
        "propose a minimum-weight repair (constraint deletions and DTD "
        "edits) — the `repro fix` engine riding on the health report",
    )
    add_solver_flags(p_diagnose)
    add_jobs_flag(p_diagnose)
    add_session_flag(p_diagnose)
    add_via_flag(p_diagnose)
    p_diagnose.set_defaults(func=_cmd_diagnose)

    p_fix = sub.add_parser(
        "fix",
        help="minimum-weight repair of an inconsistent specification "
        "(constraint deletions, cardinality loosenings, attribute drops)",
    )
    p_fix.add_argument("dtd")
    p_fix.add_argument("constraints", nargs="?", default=None)
    p_fix.add_argument(
        "--output",
        metavar="FILE",
        help="write the repaired DTD here",
    )
    p_fix.add_argument(
        "--constraints-out",
        metavar="FILE",
        help="write the repaired constraint set here",
    )
    p_fix.add_argument(
        "--stats",
        "--profile",
        action="store_true",
        dest="stats",
        help="print repair work counters (probes, cores, hitting sets, "
        "assemblies, verification checks)",
    )
    add_solver_flags(p_fix)
    add_session_flag(p_fix)
    add_via_flag(p_fix)
    p_fix.set_defaults(func=_cmd_fix)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived checking service (line-delimited JSON; "
        "stdio by default, TCP with --port)",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1; the protocol is a "
        "localhost trust model)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="serve on a TCP port instead of stdio (0 binds an "
        "ephemeral port; the bound address is announced on stdout)",
    )
    p_serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="N",
        help="additionally serve HTTP/JSON on this port: POST /v1/{op} "
        "answers the line protocol's exact response bytes (429 + "
        "Retry-After when shed, 504 on budget_exceeded), GET /metrics "
        "serves the Prometheus text exposition (0 binds ephemerally)",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="serve GET /metrics alone on a separate port (a scrape-only "
        "listener outside the serving connection cap)",
    )
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        default=32,
        metavar="N",
        help="resident session cap; least-recently-used sessions are "
        "evicted beyond it (default: 32)",
    )
    p_serve.add_argument(
        "--max-bytes",
        type=int,
        default=256 * 1024 * 1024,
        metavar="B",
        help="approximate byte budget across resident sessions "
        "(default: 256 MiB)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        metavar="N",
        help="global admission cap: requests admitted but not yet "
        "answered; beyond it requests shed with a structured "
        "'overloaded' error and a retry_after hint (default: 256)",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=128,
        metavar="N",
        help="per-session pending-queue bound; over-limit submits shed "
        "instead of queueing without bound (default: 128)",
    )
    p_serve.add_argument(
        "--max-connections",
        type=int,
        default=64,
        metavar="N",
        help="concurrent TCP connection cap; over-limit connects get "
        "one structured shed response and are closed (default: 64)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline; expired work answers "
        "'budget_exceeded' via cooperative cancellation instead of "
        "running on (requests may override with their own 'deadline' "
        "field; default: unbounded)",
    )
    p_serve.add_argument(
        "--state-file",
        default=None,
        metavar="PATH",
        help="crash-safe session snapshot: restored on start, written "
        "atomically on shutdown; a corrupt or version-skewed file is a "
        "cold start, never an error (default: no persistence)",
    )
    p_serve.add_argument(
        "--autosave-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="additionally snapshot every N seconds while serving "
        "(requires --state-file; default: only at shutdown)",
    )
    add_solver_flags(p_serve)
    add_jobs_flag(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="shard router over N `repro serve` backends (same line and "
        "HTTP protocols; sessions consistent-hashed by spec fingerprint)",
    )
    p_fleet.add_argument(
        "--backends",
        default=None,
        metavar="HOST:PORT,...",
        help="comma-separated specs of already-running `repro serve "
        "--port` backends to shard across",
    )
    p_fleet.add_argument(
        "--spawn",
        type=int,
        default=None,
        metavar="N",
        help="additionally spawn N local backends on ephemeral ports; "
        "the router owns them (its shutdown drains them too)",
    )
    p_fleet.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1)",
    )
    p_fleet.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="line-protocol port for the router (default: 0 = ephemeral; "
        "the bound address is announced on stdout)",
    )
    p_fleet.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="N",
        help="additionally serve HTTP/JSON on this port (POST /v1/{op}, "
        "GET /metrics; same surface as `repro serve --http`)",
    )
    p_fleet.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="serve GET /metrics alone on a separate port",
    )
    p_fleet.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        metavar="N",
        help="router admission cap; beyond it requests shed with the "
        "same structured 'overloaded' answer as a single backend "
        "(default: 256)",
    )
    p_fleet.add_argument(
        "--max-connections",
        type=int,
        default=64,
        metavar="N",
        help="concurrent client connection cap at the router "
        "(default: 64)",
    )
    p_fleet.add_argument(
        "--wave-chunk",
        type=int,
        default=4,
        metavar="N",
        help="phis per chunk when fanning an implies_all batch across "
        "the fleet in waves (default: 4)",
    )
    p_fleet.add_argument(
        "--jobs",
        type=_jobs_value,
        default=1,
        metavar="N",
        help="worker processes per --spawn backend (or 'auto')",
    )
    p_fleet.set_defaults(func=_cmd_fleet)

    p_bounds = sub.add_parser("bounds", help="feasible |ext(tau)| range")
    p_bounds.add_argument("dtd")
    p_bounds.add_argument("constraints", nargs="?", default=None)
    p_bounds.add_argument("--type", required=True, help="element type tau")
    p_bounds.add_argument("--probe-limit", type=int, default=4096)
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
