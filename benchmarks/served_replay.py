"""Replay the ``serve_edit`` request stream in process and hash the answers.

Builds the same stream the end-to-end benchmark sends to ``repro serve``
(``perfbench/common.py``'s ``serve_stream`` and ``wire_request`` over
``perfbench/corpus.json``, both only read) and answers each request
through :mod:`repro.service.protocol`, the dispatch a served request
takes, without the transport.  Prints one JSON line: the request count,
the sha256 over every encoded response line, and the summed work
counters of the answers.

Two runs that print the same line gave the same bytes for every
response.  Compare a change against its parent, a warm run against
``--cold``, which answers every request from a new registry after
``clear_encoding_cache()`` and ``parsed_dtd.cache_clear()`` — the per-DTD
caches must not change a byte —
or against ``--threads N``, where N threads share one registry (and the
per-DTD LP engines) and the digest is still taken in stream order —
neither may contention::

    PYTHONPATH=src python benchmarks/served_replay.py --requests 3000
    PYTHONPATH=src python benchmarks/served_replay.py --requests 300 --cold
    PYTHONPATH=src python benchmarks/served_replay.py --requests 300 --threads 2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
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


def _answer(registry, request: dict) -> dict:
    from repro.service import protocol

    parsed = protocol.parse_request(json.dumps(request))
    try:
        session = protocol.resolve_session(registry, parsed)
        result = protocol.perform(session, parsed)
        return protocol.ok_response(parsed, result, session)
    except Exception as exc:  # noqa: BLE001 - errors are answers too
        return protocol.error_response(parsed.get("id"), exc)


def _answers(requests: list[dict], cold: bool, threads: int):
    """Every request's response, in stream order."""
    from repro.encoding.combined import clear_encoding_cache
    from repro.service.registry import SessionRegistry, parsed_dtd

    registry = SessionRegistry()
    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            yield from pool.map(lambda request: _answer(registry, request), requests)
        return
    for request in requests:
        if cold:
            clear_encoding_cache()
            parsed_dtd.cache_clear()
            registry = SessionRegistry()
        yield _answer(registry, request)


def replay(requests: list[dict], cold: bool = False, threads: int = 1) -> dict:
    """Answer ``requests`` (on ``threads`` threads sharing one registry);
    return the digest over the responses in stream order and the counter
    sums."""
    from repro.service import protocol

    digest = hashlib.sha256()
    totals = dict.fromkeys(COUNTERS, 0)
    for response in _answers(requests, cold, threads):
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
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="answer the stream on N threads sharing one registry",
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.cold and args.threads > 1:
        parser.error("--cold answers one request at a time; drop --threads")
    outcome = replay(
        _stream(args.requests, args.seed), cold=args.cold, threads=args.threads
    )
    print(
        json.dumps(
            {
                "requests": args.requests,
                "seed": args.seed,
                "cold": args.cold,
                "threads": args.threads,
                **outcome,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
