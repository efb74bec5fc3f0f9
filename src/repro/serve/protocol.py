"""Wire protocol of the query service: newline-delimited JSON.

One request per line, one response line per request, in order. A request
is a JSON object with an ``op`` field plus that operation's parameters;
an optional ``id`` (any JSON scalar) is echoed back so pipelining clients
can match answers. Responses are *envelopes*::

    {"id": ..., "ok": true,  "op": "membership",
     "result": {...},
     "snapshot": {"id": 3, "wal_seq": 17},
     "io": {"read_ios": 2, "write_ios": 0, "bytes_read": 8192},
     "elapsed_ms": 0.41}

    {"id": ..., "ok": false,
     "error": {"type": "bad_request", "message": "..."}}

``snapshot`` names the pinned version the answer is exact for, and ``io``
is the request's charged-I/O bill (the Aggarwal–Vitter block counts the
whole repo accounts in — queries are billed per request, not per server).

Operations
----------
``membership``  u, v, k        — is edge (u, v) in the k-truss?
``trussness``   u, v           — trussness of edge (u, v) (null if absent)

``membership``, ``trussness`` and ``stats`` also accept
``precision: "approx" | "exact"`` (default ``exact``). Approx answers
come from per-snapshot sampled estimator state and carry
``{estimate, ci, confidence, samples}`` instead of a point value — the
sublinear tier for graphs whose full decomposition is too expensive to
consult per query.
``community``   q[, k, connectivity, include_edges]
                               — truss community containing vertex q
``hierarchy``   [k]            — trussness level profile, or one level's
                                 edge/community counts
``export``      [k]            — charged dump of (edges, trussness), the
                                 whole snapshot or one trussness level
``stats``                      — snapshot metadata (n, m, k_max, ...)
``metrics``                    — the server process's metrics registry
                                 snapshot (``serve.*`` instruments and
                                 the rest; zero bill, never cached)
``shutdown``                   — ask the server to drain and exit

A request line may hold at most :data:`MAX_LINE_BYTES` bytes before its
newline. The server enforces that one cap (it is the stream limit of
``repro serve``'s listener): an over-long line is skipped through its
newline and answered ``bad_request`` with ``id: null``, and the
connection goes on with the next line.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from ..errors import ServeError

#: op -> (required params, optional params with defaults)
OPERATIONS: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]] = {
    "membership": (("u", "v", "k"), {"precision": "exact"}),
    "trussness": (("u", "v"), {"precision": "exact"}),
    "community": (
        ("q",),
        {"k": None, "connectivity": "vertex", "include_edges": False},
    ),
    "hierarchy": ((), {"k": None}),
    "export": ((), {"k": None}),
    "stats": ((), {"precision": "exact"}),
    "metrics": ((), {}),
    "shutdown": ((), {}),
}

_INT_PARAMS = ("u", "v", "q", "k")

#: Answer tiers of the ``precision`` parameter: ``exact`` replays the
#: snapshot's decomposition; ``approx`` answers from sampled estimator
#: state with a confidence interval (sublinear charged I/O).
PRECISIONS = ("exact", "approx")

#: Maximum request line, newline excluded (1 MiB is generous for a
#: protocol whose largest request is a handful of integers). This is the
#: cap the server enforces: its listener's stream limit.
MAX_LINE_BYTES = 1 << 20

#: The ``bad_request`` message of a line past :data:`MAX_LINE_BYTES`.
OVERSIZED_LINE = f"request line exceeds {MAX_LINE_BYTES} bytes"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line into a dict (bad input raises ServeError)."""
    if len(line) - line.endswith(b"\n") > MAX_LINE_BYTES:
        raise ServeError(OVERSIZED_LINE)
    try:
        request = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ServeError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    return request


def validate_request(request: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Check *request* against :data:`OPERATIONS`; returns (op, params).

    Integer parameters are range-checked for type only — graph bounds are
    the engine's job (it knows the snapshot).
    """
    op = request.get("op")
    if not isinstance(op, str) or op not in OPERATIONS:
        known = ", ".join(sorted(OPERATIONS))
        raise ServeError(f"unknown op {op!r}; known: {known}")
    required, optional = OPERATIONS[op]
    params: Dict[str, Any] = {}
    for name in required:
        if name not in request:
            raise ServeError(f"{op}: missing required parameter {name!r}")
        params[name] = request[name]
    for name, default in optional.items():
        params[name] = request.get(name, default)
    for name in _INT_PARAMS:
        if name in params and params[name] is not None:
            value = params[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ServeError(
                    f"{op}: parameter {name!r} must be an integer, "
                    f"got {value!r}"
                )
    if "precision" in params and params["precision"] not in PRECISIONS:
        raise ServeError(
            f"{op}: unknown precision {params['precision']!r}; "
            f"known: {', '.join(PRECISIONS)}"
        )
    if op == "membership" and params["k"] < 2:
        raise ServeError(f"membership: k must be >= 2, got {params['k']}")
    if op == "community":
        if params["connectivity"] not in ("vertex", "triangle"):
            raise ServeError(
                f"community: unknown connectivity {params['connectivity']!r}"
            )
        if params["k"] is not None and params["k"] < 2:
            raise ServeError(f"community: k must be >= 2, got {params['k']}")
        if not isinstance(params["include_edges"], bool):
            raise ServeError("community: include_edges must be a boolean")
    if op in ("hierarchy", "export") and (
        params["k"] is not None and params["k"] < 2
    ):
        raise ServeError(f"{op}: k must be >= 2, got {params['k']}")
    return op, params


def encode_envelope(envelope: Dict[str, Any]) -> bytes:
    """Serialise a response envelope as one ``\\n``-terminated line."""
    return json.dumps(envelope, separators=(",", ":")).encode() + b"\n"


def error_envelope(
    request_id: Any, error_type: str, message: str
) -> Dict[str, Any]:
    """The failure half of the protocol (``ok: false``)."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }


def ok_envelope(
    request_id: Any,
    op: str,
    result: Dict[str, Any],
    snapshot: Dict[str, Any],
    io: Dict[str, int],
    elapsed_ms: float,
) -> Dict[str, Any]:
    """The success half of the protocol (``ok: true``)."""
    return {
        "id": request_id,
        "ok": True,
        "op": op,
        "result": result,
        "snapshot": snapshot,
        "io": io,
        "elapsed_ms": round(elapsed_ms, 3),
    }


def request_id_of(request: Optional[Dict[str, Any]]) -> Any:
    """The echoable ``id`` of a request (None when absent/unusable)."""
    if not isinstance(request, dict):
        return None
    request_id = request.get("id")
    if isinstance(request_id, (str, int, float)) or request_id is None:
        return request_id
    return None
