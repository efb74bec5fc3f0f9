"""Blocking client for the query service (tests, CI scripts, benchmarks).

A thin socket wrapper speaking the newline-delimited JSON protocol:
:meth:`TrussClient.request` sends one request and blocks for its
response line; the convenience methods build the request dicts. Raising
on error envelopes is opt-in per call (``check=``) so tests can assert
error shapes.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional

from ..errors import ServeError
from .engine import QueryAnswer


class TrussClient:
    """One connection to a :class:`~repro.serve.server.TrussServer`.

    Example
    -------
    ::

        with TrussClient(host, port) as client:
            answer = client.membership(0, 4, k=3)
            print(answer.result["member"], answer.read_ios)
    """

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._recv = self._sock.makefile("rb")

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._recv.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TrussClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # raw protocol
    # ------------------------------------------------------------------ #

    def request_raw(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request dict, return the raw response envelope."""
        line = json.dumps(request, separators=(",", ":")).encode() + b"\n"
        self._sock.sendall(line)
        response = self._recv.readline()
        if not response:
            raise ServeError("server closed the connection")
        return json.loads(response)

    def request(
        self, request: Dict[str, Any], check: bool = True
    ) -> QueryAnswer:
        """Send a request; decode into a :class:`QueryAnswer`.

        With *check* (default) an error envelope raises
        :class:`~repro.errors.ServeError`.
        """
        envelope = self.request_raw(request)
        if not check and not envelope.get("ok"):
            error = envelope.get("error", {})
            return QueryAnswer(
                op=str(request.get("op")),
                result={"error": error},
                snapshot_id=0, wal_seq=0, read_ios=0, write_ios=0,
                elapsed_ms=0.0,
            )
        return QueryAnswer.from_envelope(envelope)

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    def membership(
        self, u: int, v: int, k: int, precision: str = "exact", **extra
    ) -> QueryAnswer:
        """Is edge (u, v) in the k-truss? ``precision="approx"`` answers
        from sampled estimator state with a confidence interval."""
        return self.request({
            "op": "membership", "u": u, "v": v, "k": k,
            "precision": precision, **extra,
        })

    def trussness(
        self, u: int, v: int, precision: str = "exact", **extra
    ) -> QueryAnswer:
        """Trussness of edge (u, v); approx answers carry
        ``{estimate, ci, confidence, samples}`` instead of a point."""
        return self.request({
            "op": "trussness", "u": u, "v": v,
            "precision": precision, **extra,
        })

    def community(
        self,
        q: int,
        k: Optional[int] = None,
        connectivity: str = "vertex",
        include_edges: bool = False,
        **extra,
    ) -> QueryAnswer:
        request = {
            "op": "community", "q": q, "connectivity": connectivity,
            "include_edges": include_edges, **extra,
        }
        if k is not None:
            request["k"] = k
        return self.request(request)

    def hierarchy(self, k: Optional[int] = None, **extra) -> QueryAnswer:
        request = {"op": "hierarchy", **extra}
        if k is not None:
            request["k"] = k
        return self.request(request)

    def stats(self, precision: str = "exact", **extra) -> QueryAnswer:
        return self.request({"op": "stats", "precision": precision, **extra})

    def metrics(self, **extra) -> QueryAnswer:
        """The server process's metrics registry snapshot as ``result``
        (``{"counters", "gauges", "histograms"}``)."""
        return self.request({"op": "metrics", **extra})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit; returns the raw ack."""
        return self.request_raw({"op": "shutdown"})
