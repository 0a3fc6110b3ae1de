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
  ``implies`` requests into single ``SpecSession.implies_batch`` calls;
* :class:`~repro.service.client.ServiceClient` — a small synchronous
  client for scripts, benchmarks and the README quickstart;
* :class:`~repro.service.fleet.FleetRouter` — the distributed fleet's
  shard router (``repro fleet``): sessions consistent-hashed across N
  backend servers, ``implies_all`` batches fanned out in waves, dead
  backends rerouted with byte-identical answers (DESIGN.md section 11);
* :mod:`~repro.service.persist` — crash-safe session snapshots
  (atomic writes, self-verifying envelope, corrupt file = cold start).

A session answers with each :mod:`repro.api` result's ``as_dict()``,
and the CLI's one-shot commands print the same dicts without building a
session, so the service and the one-shot path cannot drift: a request
replayed through ``repro serve`` returns byte-identical verdicts,
witnesses and solver stats to the direct
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
#: that importing one submodule never pays for the asyncio server or its
#: thread-pool machinery (the CLI's one-shot commands import no part of
#: this package at all).
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
