"""The serving wire protocol: versioned JSON envelopes over pipes.

Router and workers exchange **only JSON text** — no pickled live
objects ever crosses a process boundary: requests/results travel as
the flat dictionaries below, counters as flat ``metrics()`` snapshots.
No profile crosses it; a profile stays in the process that recorded
it.  Keeping the wire
format inspectable and version-stamped means a router and worker from
different builds fail loudly (a :class:`~repro.errors.VMError` naming
the version mismatch) instead of silently mis-decoding each other.

Message envelope::

    {"v": 1, "type": "<msg type>", ...payload...}

Types: ``ready`` (worker → router, once after boot), ``run`` (router →
worker, a chunk of requests), ``done`` (worker → router, per-request
results + counters), ``pull_trace`` / ``trace`` (the worker's buffered
trace events + metrics snapshot + its monotonic-clock reading, its own
``trace_v`` version stamp inside the envelope — the fleet-trace merge
frame, see :mod:`repro.obs.trace`), ``crash`` (router → worker, fault
injection: hard-exit mid-loop), ``shutdown`` (router → worker, clean
exit), ``error`` (worker → router, an exception message instead of
results).
"""

from __future__ import annotations

import json
import math

from repro.errors import VMError
from repro.llm.batching import Request

MSG_JSON_VERSION = 1

#: Message types either side may legally emit.
MSG_TYPES = frozenset(
    {
        "ready", "run", "done", "pull_trace", "trace",
        "crash", "shutdown", "error",
    }
)


def send_msg(conn, msg_type: str, **payload) -> None:
    """Send one enveloped JSON message over a ``multiprocessing``
    connection (as bytes: the payload is text, never a pickle)."""
    if msg_type not in MSG_TYPES:
        raise VMError(f"unknown serving message type: {msg_type!r}")
    body = {"v": MSG_JSON_VERSION, "type": msg_type}
    body.update(payload)
    conn.send_bytes(json.dumps(body).encode("utf-8"))


def recv_msg(conn) -> dict:
    """Receive and validate one enveloped message (blocking)."""
    raw = conn.recv_bytes()
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise VMError(f"malformed serving message: {exc}") from exc
    if not isinstance(body, dict) or "type" not in body:
        raise VMError("serving message missing a type")
    version = body.get("v")
    if version != MSG_JSON_VERSION:
        raise VMError(
            f"serving protocol version mismatch: peer sent v={version!r}, "
            f"this build speaks v={MSG_JSON_VERSION}"
        )
    if body["type"] not in MSG_TYPES:
        raise VMError(f"unknown serving message type: {body['type']!r}")
    return body


# ---------------------------------------------------------------------------
# Request / result wire formats
# ---------------------------------------------------------------------------

def request_to_wire(request: Request) -> dict:
    """A request as a flat JSON-safe dict.  ``slo_s=inf`` (best-effort)
    maps to ``null`` — strict JSON has no Infinity."""
    return {
        "rid": request.rid,
        "arrival_s": request.arrival_s,
        "prompt_tokens": request.prompt_tokens,
        "output_tokens": request.output_tokens,
        "priority": request.priority,
        "slo_s": None if math.isinf(request.slo_s) else request.slo_s,
    }


def request_from_wire(data: dict) -> Request:
    try:
        slo = data["slo_s"]
        return Request(
            arrival_s=float(data["arrival_s"]),
            prompt_tokens=int(data["prompt_tokens"]),
            output_tokens=int(data["output_tokens"]),
            rid=int(data["rid"]),
            priority=int(data["priority"]),
            slo_s=math.inf if slo is None else float(slo),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise VMError(f"malformed wire request: {exc}") from exc


def result_to_wire(result) -> dict:
    """A :class:`~repro.llm.batching.RequestResult` as a flat dict.
    Latencies are the worker's simulated timings; the digest is the
    bit-exactness witness the router checks against its oracle."""
    return {
        "rid": result.request.rid,
        "ttft_s": result.ttft_s,
        "latency_s": result.latency_s,
        "digest": result.output_digest,
    }
