"""Crash-safe session snapshots: the service's state that survives restarts.

A long-lived ``repro serve`` process accumulates value that is expensive
to lose: per-spec response caches, the byte-identity store behind the
served speedups.  This module persists exactly that — and nothing live —
to one JSON snapshot file:

* **atomic writes** — the snapshot is rendered to a sibling temp file
  and moved into place with ``os.replace``, so a crash mid-write leaves
  the previous snapshot intact, never a torn file;
* **self-verifying envelope** — ``{"version", "checksum", "payload"}``
  with a SHA-256 over the canonical payload rendering; a version skew,
  checksum mismatch, truncation, or plain junk makes :func:`load_snapshot`
  return *zero sessions restored*, never raise — a corrupt snapshot is a
  cold start, not an outage (DESIGN.md section 9);
* **portable contents only** — rendered response strings, replayed
  verbatim, so restored answers are byte-identical to the pre-restart
  session's.  Everything else is rebuilt on demand, exactly as a cold
  session would.

The ``persist.corrupt`` fault point (:mod:`repro.service.faults`)
deliberately garbles the file *after* the atomic rename, so the chaos
suite can prove the load path's corruption tolerance end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict

from repro.checkers.config import CheckerConfig
from repro.dtd.serializer import dtd_to_string
from repro.errors import ReproError
from repro.service.faults import fault_active

__all__ = ["SNAPSHOT_VERSION", "save_snapshot", "load_snapshot"]

#: Bump on any change to the payload shape; a mismatched snapshot is
#: silently treated as absent (cold start), never migrated in place.
SNAPSHOT_VERSION = 3


# -- value packing -----------------------------------------------------------
#
# Response-cache keys are tuples mixing strings, bools, ints and
# CheckerConfig instances.  JSON has neither tuples nor configs, so every
# value travels as a ``[tag, ...]`` pair and is rebuilt exactly (tuple
# identity matters: the restored keys must compare equal to the keys live
# requests build).


def _pack(value) -> list:
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["fl", value]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, tuple):
        return ["t", [_pack(item) for item in value]]
    if isinstance(value, CheckerConfig):
        return ["config", asdict(value)]
    raise ReproError(f"cannot persist value of type {type(value).__name__}")


def _unpack(encoded: list):
    tag, *rest = encoded
    if tag in ("b", "i", "fl", "s"):
        return rest[0]
    if tag == "t":
        return tuple(_unpack(item) for item in rest[0])
    if tag == "config":
        return CheckerConfig(**rest[0])
    raise ReproError(f"unknown persisted value tag {tag!r}")


# -- snapshot assembly -------------------------------------------------------


def snapshot_payload(registry) -> dict:
    """The registry's persistent state as a JSON-ready payload."""
    sessions = []
    for fingerprint in registry.fingerprints():
        session = registry.get(fingerprint)
        if session is None:  # evicted between the two calls
            continue
        responses = session.export_persistent()
        sessions.append(
            {
                "fingerprint": session.fingerprint,
                "dtd": dtd_to_string(session.dtd),
                "root": session.dtd.root,
                "constraints": [str(phi) for phi in session.sigma],
                "responses": [[_pack(key), rendered] for key, rendered in responses],
            }
        )
    return {"sessions": sessions}


def _checksum(payload: dict) -> str:
    rendered = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(rendered).hexdigest()


def save_snapshot(registry, path: str) -> int:
    """Atomically write the registry's snapshot; return sessions saved.

    Crash-safety: the envelope is written to a temp file in the target
    directory and moved into place with ``os.replace`` (atomic on POSIX),
    so readers only ever observe the old snapshot or the complete new
    one.  The ``persist.corrupt`` fault point garbles the file after the
    rename — the chaos suite's handle on the corruption-tolerance story.
    """
    payload = snapshot_payload(registry)
    envelope = {
        "version": SNAPSHOT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=".repro-snapshot-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except FileNotFoundError:
            pass
        raise
    if fault_active("persist.corrupt"):
        with open(path, "r+", encoding="utf-8") as handle:
            handle.seek(0)
            handle.write("{corrupted")
    return len(payload["sessions"])


def load_snapshot(registry, path: str) -> int:
    """Restore sessions from ``path`` into ``registry``; return how many.

    Deliberately forgiving: a missing file, unreadable JSON, version
    skew, checksum mismatch, or an individually malformed session entry
    all mean *that state is not restored* — the service cold-starts the
    affected sessions and keeps serving.  Nothing here raises on bad
    snapshot bytes.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
        if envelope.get("version") != SNAPSHOT_VERSION:
            return 0
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return 0
        if envelope.get("checksum") != _checksum(payload):
            return 0
    except (OSError, ValueError):
        return 0
    restored = 0
    for entry in payload.get("sessions", ()):
        try:
            session = registry.session_for(
                entry["dtd"],
                "\n".join(entry["constraints"]),
                root=entry["root"],
            )
            if session.fingerprint != entry["fingerprint"]:
                continue  # the spec no longer canonicalizes the same way
            responses = [
                (_unpack(key), rendered) for key, rendered in entry["responses"]
            ]
            session.restore_persistent(responses)
            restored += 1
        except Exception:  # noqa: BLE001 - one bad entry must not spread
            continue
    return restored
