"""Wire protocol of ``repro serve``: line-delimited JSON requests.

One request per line, one response line per request.  A request names an
operation and a specification — either inline (``dtd`` text plus
optional ``constraints`` text and ``root``) or by the ``session``
fingerprint of a previously opened session::

    {"id": 1, "op": "open", "dtd": "<!ELEMENT r (a*)>...",
     "constraints": "a.k -> a"}
    {"id": 2, "op": "implies", "session": "<fingerprint>",
     "phi": "a.k -> a"}

Responses echo the ``id`` and wrap either the operation's payload or an
error::

    {"id": 2, "ok": true, "result": {"implied": true, ...},
     "service": {"session": "<fingerprint>"}}
    {"id": 7, "ok": false, "error": {"type": "ParseError", "message": ...}}

Operations: ``open`` (admit/refresh a session, returns its identity
card), ``check``, ``implies`` (one ``phi``), ``implies_all`` (a ``phis``
list, answered as one coalesced batch), ``diagnose``, ``repair`` (a
minimum-weight consistency-restoring edit; an optional ``weights``
object maps action family to a positive integer cost),
``validate`` (a ``document``), ``stats`` (registry + server counters) and
``shutdown``.
Responses may arrive out of request order when requests from one
connection overlap — the ``id`` is the correlation key.

Any session operation may carry a ``config`` object of
:class:`~repro.checkers.config.CheckerConfig` overrides, each value of
its field's type.

Any session operation may carry ``"deadline": <seconds>`` — a
wall-clock budget for that request.  Work that outlives its budget is
cancelled cooperatively and answered with error type
``budget_exceeded`` (the server may also apply a default deadline).
Under overload the server sheds rather than queueing without bound:
shed requests are answered with error type ``overloaded`` plus a
``retry_after`` hint in seconds — a load signal, not a verdict.
"""

from __future__ import annotations

import json

from repro.errors import ReproError
from repro.service.registry import SessionRegistry
from repro.service.session import SpecSession, _error_payload

#: Operations that resolve a session before running.
SESSION_OPS = frozenset(
    {
        "open",
        "check",
        "implies",
        "implies_all",
        "diagnose",
        "repair",
        "validate",
    }
)

#: Every operation the server answers.
ALL_OPS = SESSION_OPS | {"stats", "shutdown"}

#: The request fields that name a specification; each must be text.
SPEC_FIELDS = ("session", "dtd", "constraints", "root")


class ProtocolError(ReproError):
    """A request the server cannot even dispatch (bad JSON, bad shape)."""


def parse_request(line: str) -> dict:
    """Decode one request line; raise :class:`ProtocolError` when unusable."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    op = request.get("op")
    if op not in ALL_OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {sorted(ALL_OPS)})")
    return request


def resolve_session(registry: SessionRegistry, request: dict) -> SpecSession:
    """The session a request addresses — by fingerprint or inline spec."""
    for name in SPEC_FIELDS:
        value = request.get(name)
        if value is not None and not isinstance(value, str):
            raise ProtocolError(
                f"request field {name!r} must be text, got {type(value).__name__}"
            )
    fingerprint = request.get("session")
    if fingerprint is not None:
        session = registry.get(fingerprint)
        if session is None:
            raise ProtocolError(
                f"unknown session {fingerprint!r} (it may have been "
                "evicted; re-open it by sending the spec inline)"
            )
        return session
    dtd = request.get("dtd")
    if dtd is None:
        raise ProtocolError("request needs either 'session' or inline 'dtd'")
    return registry.session_for(
        dtd, request.get("constraints", ""), root=request.get("root")
    )


def perform(session: SpecSession, request: dict) -> dict:
    """Run one session operation; returns the result payload."""
    op = request["op"]
    config = request.get("config")
    if op == "open":
        return session.describe()
    if op == "check":
        return session.check(config)
    if op == "implies":
        if "phi" not in request:
            raise ProtocolError("op 'implies' needs a 'phi'")
        return session.implies(request["phi"], config)
    if op == "implies_all":
        phis = request.get("phis")
        if not isinstance(phis, list):
            raise ProtocolError("op 'implies_all' needs a 'phis' list")
        return {"results": session.implies_batch(phis, config)}
    if op == "diagnose":
        return session.diagnose(config)
    if op == "repair":
        weights = request.get("weights")
        if weights is not None and not isinstance(weights, dict):
            raise ProtocolError("op 'repair' takes 'weights' as an object")
        return session.repair(config, weights=weights)
    if op == "validate":
        if "document" not in request:
            raise ProtocolError("op 'validate' needs a 'document'")
        return session.validate(request["document"])
    raise ProtocolError(f"op {op!r} is not a session operation")


def ok_response(request: dict, result: dict, session: SpecSession | None) -> dict:
    """The success envelope for one request."""
    response = {"id": request.get("id"), "ok": True, "result": result}
    if session is not None:
        response["service"] = {"session": session.fingerprint}
    return response


def error_response(request_id, exc: Exception) -> dict:
    """The failure envelope; the body matches batch-inline errors."""
    return {"id": request_id, "ok": False, **_error_payload(exc)}


def encode(response: dict) -> str:
    """One response as a single line (no embedded newlines)."""
    return json.dumps(response, separators=(", ", ": "))
