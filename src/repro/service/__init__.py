"""Long-lived checking service: resident sessions over the one-shot core.

The paper's checkers decide one ``(DTD, Sigma)`` question per call; real
XML tooling asks *streams* of questions against specifications that
change rarely.  This package turns the pipeline into a resident engine
(DESIGN.md section 8):

* :class:`~repro.service.session.SpecSession` — one specification's
  cached state: the parsed spec, its canonical fingerprint and a
  byte-identical response cache;
* :class:`~repro.service.registry.SessionRegistry` — the cross-request
  cache: sessions keyed by ``(DTD, Sigma)`` fingerprint with LRU +
  byte-budget eviction;
* :class:`~repro.service.server.CheckingServer` — the asyncio front end
  (``repro serve``): line-delimited JSON over stdio or a localhost TCP
  socket, with a per-session batcher that coalesces concurrent
  ``implies`` requests into single ``implies_all`` fan-outs;
* :class:`~repro.service.client.ServiceClient` — a small synchronous
  client for scripts, benchmarks and the README quickstart;
* :class:`~repro.service.fleet.FleetRouter` — the distributed fleet's
  shard router (``repro fleet``): sessions consistent-hashed across N
  backend servers, ``implies_all`` batches fanned out in waves, dead
  backends rerouted with byte-identical answers (DESIGN.md section 11);
* :mod:`~repro.service.persist` — crash-safe session snapshots
  (atomic writes, self-verifying envelope, corrupt file = cold start);
* :mod:`~repro.service.faults` — the deterministic fault-injection
  registry behind the chaos suite (DESIGN.md section 9).

The CLI's ``check``/``implies``/``diagnose`` commands are thin clients
of the same session API, so the service and the one-shot path cannot
drift: a request replayed through ``repro serve`` returns byte-identical
verdicts, witnesses and solver stats to the direct
:class:`~repro.checkers.config.CheckerConfig` path
(``tests/test_service_differential.py`` enforces this).
"""

from repro._lazy import lazy_exports

__all__ = [
    "CheckingServer",
    "FleetRouter",
    "ServiceClient",
    "SessionRegistry",
    "SpecSession",
    "load_snapshot",
    "save_snapshot",
]

#: Exported name -> defining submodule.  Resolution is lazy (PEP 562) so
#: that the CLI's one-shot commands — thin clients of the session layer
#: only — never pay for importing the asyncio server or its thread-pool
#: machinery on their cold path (the exact path the serving benchmarks
#: compare against).
_EXPORTS = {
    "CheckingServer": "repro.service.server",
    "FleetRouter": "repro.service.fleet",
    "ServiceClient": "repro.service.client",
    "SessionRegistry": "repro.service.registry",
    "SpecSession": "repro.service.session",
    "load_snapshot": "repro.service.persist",
    "save_snapshot": "repro.service.persist",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, __all__)
