"""Replay the ``serve_edit`` request stream in process and hash the answers.

Builds the same stream the end-to-end benchmark sends to ``repro serve``
(``perfbench/common.py``'s ``serve_stream`` and ``wire_request`` over
``perfbench/corpus.json``, both only read) and answers each request
through :mod:`repro.service.protocol`, the dispatch a served request
takes, without the transport.  Prints one JSON line: the request count,
the sha256 over every encoded response line, and the summed work
counters of the answers.

Two runs that print the same line gave the same bytes for every
response.  Compare a change against its parent, or a warm run against
``--cold``, which answers every request from a new registry after
``clear_encoding_cache()`` — the per-DTD caches must not change a byte::

    PYTHONPATH=src python benchmarks/served_replay.py --requests 3000
    PYTHONPATH=src python benchmarks/served_replay.py --requests 300 --cold
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The work counters summed over every response's ``stats``.
COUNTERS = ("assemblies", "bound_patch_solves", "lp_solves", "mip_solves")


def _stream(requests: int, seed: int) -> list[dict]:
    # The benchmark's own stream builder; no bytecode is written under
    # perfbench/.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT))
    from perfbench.common import load_corpus, serve_stream, wire_request

    corpus = load_corpus()
    stream = serve_stream(corpus["serve_edit"]["requests"], seed, requests)
    return [
        wire_request(corpus, index, request_id)
        for request_id, (index, _) in enumerate(stream)
    ]


def replay(requests: list[dict], cold: bool = False) -> dict:
    """Answer ``requests`` in order; return the digest and counter sums."""
    from repro.encoding.combined import clear_encoding_cache
    from repro.service import protocol
    from repro.service.registry import SessionRegistry

    registry = SessionRegistry()
    digest = hashlib.sha256()
    totals = dict.fromkeys(COUNTERS, 0)
    for request in requests:
        if cold:
            clear_encoding_cache()
            registry = SessionRegistry()
        parsed = protocol.parse_request(json.dumps(request))
        try:
            session = protocol.resolve_session(registry, parsed)
            result = protocol.perform(session, parsed)
            response = protocol.ok_response(parsed, result, session)
        except Exception as exc:  # noqa: BLE001 - errors are answers too
            response = protocol.error_response(parsed.get("id"), exc)
        digest.update((protocol.encode(response) + "\n").encode("utf-8"))
        stats = response.get("result", {}).get("stats") or {}
        for name in COUNTERS:
            totals[name] += int(stats.get(name, 0))
    return {"sha256": digest.hexdigest(), "counters": totals}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--cold",
        action="store_true",
        help="a new registry and cleared per-DTD caches for every request",
    )
    args = parser.parse_args(argv)
    outcome = replay(_stream(args.requests, args.seed), cold=args.cold)
    print(
        json.dumps(
            {
                "requests": args.requests,
                "seed": args.seed,
                "cold": args.cold,
                **outcome,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
