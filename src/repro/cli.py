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
  assembled system (``--stats`` prints the work counters);
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

Solved in-process, ``check``/``implies``/``validate``/``diagnose``/``fix``
parse the spec, call the matching :mod:`repro.api` verb and print its
result's ``as_dict()`` — the same wire dict ``repro serve`` answers
with, so the two cannot drift apart.  No session, registry or response
cache is built for a one-shot command; a spec's fingerprint comes from
the wire ``open`` op.

DTD files use ``<!ELEMENT>``/``<!ATTLIST>`` syntax; constraint files use
the library's text syntax (one constraint per line, ``#`` comments).
Exit codes: 0 = positive answer (consistent / valid / implied),
1 = negative answer, 2 = usage or input error (including an input file
that cannot be read or is not UTF-8 text).

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the caller
already set it, so every CLI process (and every ``fleet`` backend it
spawns) runs numpy's OpenBLAS on one thread: repro never calls BLAS, and
the per-core workers OpenBLAS would otherwise start spin ~70 ms of CPU
per cold call.  The library itself leaves its host's BLAS threading alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread (see above), set before the first import that loads
# numpy: ``repro.checkers.config`` reaches ``repro.ilp.assembled``.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro import api  # noqa: E402
from repro.checkers.config import CheckerConfig  # noqa: E402
from repro.constraints.classes import validate_constraints  # noqa: E402
from repro.constraints.parser import parse_constraints  # noqa: E402
from repro.dtd.parser import parse_dtd  # noqa: E402
from repro.errors import ReproError  # noqa: E402


def _read(path: str) -> str:
    """An input file's text; every input is UTF-8, whatever the locale."""
    return Path(path).read_text(encoding="utf-8")


def _load_dtd(path: str, root: str | None):
    return parse_dtd(_read(path), root=root)


def _load_constraints(path: str | None):
    if path is None:
        return []
    return parse_constraints(_read(path))


def _load_spec(args: argparse.Namespace) -> api.Spec:
    """The command's ``(DTD, Sigma)``.

    Sigma is checked against the DTD here, before any solve, so every
    command rejects an ill-fitting Sigma the same way (``validate``
    would not check it otherwise).
    """
    dtd = _load_dtd(args.dtd, args.root)
    sigma = _load_constraints(getattr(args, "constraints", None))
    validate_constraints(dtd, sigma)
    return api.Spec(dtd=dtd, constraints=tuple(sigma))


def _config(args: argparse.Namespace) -> CheckerConfig:
    return CheckerConfig(backend=args.backend)


def _print_stats(stats: dict) -> None:
    """Render the solver counters carried by a checker result."""
    if not stats:
        print("solver stats: (none; decided without the ILP solver)")
        return
    rendered = "  ".join(f"{key}={value}" for key, value in sorted(stats.items()))
    print(f"solver stats: {rendered}")


def _config_overrides(args: argparse.Namespace) -> dict | None:
    """The wire config overrides selected by the solver flags.

    Only non-default selections are sent, so a plain invocation shares
    the service's (default-config) response-cache entries.
    """
    overrides: dict = {}
    if getattr(args, "backend", "scipy") != "scipy":
        overrides["backend"] = args.backend
    return overrides or None


def _wire_spec(args: argparse.Namespace) -> dict:
    """The inline-spec fields of a wire request (``--via`` routing)."""
    request: dict = {"dtd": _read(args.dtd)}
    constraints = getattr(args, "constraints", None)
    if constraints is not None:
        request["constraints"] = _read(constraints)
    if args.root is not None:
        request["root"] = args.root
    return request


def _via_payload(args: argparse.Namespace, request: dict) -> dict:
    """Run one wire request against the ``--via`` service.

    Returns the answer's wire dict; a structured error answer is
    surfaced as a :class:`ReproError` (exit code 2), the same contract
    as a local parse or solve failure.
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
    return response["result"]


def _cmd_check(args: argparse.Namespace) -> int:
    if args.via:
        payload = _via_payload(args, {**_wire_spec(args), "op": "check"})
    else:
        payload = api.check(_load_spec(args), config=_config(args)).as_dict()
    print(f"consistent: {payload['consistent']}   [{payload['method']}]")
    if payload["message"]:
        print(f"note: {payload['message']}")
    if args.stats:
        _print_stats(payload["stats"])
    if payload["consistent"] and args.witness:
        assert payload["witness"] is not None
        Path(args.witness).write_text(payload["witness"] + "\n")
        print(f"witness written to {args.witness}")
    return 0 if payload["consistent"] else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    document = _read(args.document)
    if args.via:
        payload = _via_payload(
            args, {**_wire_spec(args), "op": "validate", "document": document}
        )
        has_sigma = args.constraints is not None
    else:
        spec = _load_spec(args)
        payload = api.validate(spec, document)
        has_sigma = bool(spec.constraints)
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
        payload = _via_payload(
            args, {**_wire_spec(args), "op": "implies", "phi": args.phi}
        )
    else:
        result = api.implies(_load_spec(args), args.phi, config=_config(args))
        payload = result.as_dict()
    print(f"implied: {payload['implied']}   [{payload['method']}]")
    if payload["message"]:
        print(f"note: {payload['message']}")
    if args.stats:
        _print_stats(payload["stats"])
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


def _repair_payload(args: argparse.Namespace, spec=None) -> dict:
    """One repair answer, via the service or solved in-process."""
    if args.via:
        return _via_payload(args, {**_wire_spec(args), "op": "repair"})
    spec = spec if spec is not None else _load_spec(args)
    return api.repair(spec, config=_config(args)).as_dict()


def _cmd_diagnose(args: argparse.Namespace) -> int:
    spec = None
    if args.via:
        payload = _via_payload(args, {**_wire_spec(args), "op": "diagnose"})
    else:
        spec = _load_spec(args)
        payload = api.diagnose(spec, config=_config(args)).as_dict()
    print(payload["summary"])
    if args.repair and not payload["consistent"]:
        print(_repair_payload(args, spec)["summary"])
    if args.stats:
        _print_stats(payload["stats"])
    return 0 if payload["consistent"] else 1


def _cmd_fix(args: argparse.Namespace) -> int:
    payload = _repair_payload(args)
    print(payload["summary"])
    if payload["found"] and not payload["verified"]:  # pragma: no cover
        print("warning: repaired specification failed re-verification")
    if args.stats:
        _print_stats(payload["stats"])
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
    from repro.service.registry import SessionRegistry
    from repro.service.server import CheckingServer

    registry = SessionRegistry(
        max_sessions=args.max_sessions,
        max_bytes=args.max_bytes,
        config=CheckerConfig(backend=args.backend),
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
            processes, spawned = spawn_backends(args.spawn, host=args.host)
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
            "(default) or the rational simplex for every leaf solve; "
            "support branches are still pruned on HiGHS float LP "
            "verdicts, so only the library's CheckerConfig(backend='exact', "
            "lp_prune=False) is certified end to end",
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
    except (ReproError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
