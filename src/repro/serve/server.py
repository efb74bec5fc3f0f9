"""Asyncio TCP front end of the query service (``repro serve``).

One connection carries any number of newline-delimited JSON requests;
responses come back in request order per connection (a connection
answers one request at a time). Where a request runs is the engine's
call, through one duck-typed method the server looks up once:

* **on the event loop** — requests for which the engine's
  ``answers_on_loop(request)`` is true. :class:`QueryEngine` says so for
  exact ``membership`` / ``trussness`` / ``stats`` (their result-cache
  hits included) and ``metrics``: a point lookup reads one adjacency
  slice plus one trussness cell, ``O(deg/B)`` blocks, so handing it to a
  thread would cost more than the answer. These requests have **no
  timeout**; they cannot run long;
* **on the default thread pool** (`run_in_executor`) under the
  per-query timeout — everything else: ``community`` / ``hierarchy`` /
  ``export``, ``precision: "approx"`` requests (the first one builds the
  estimator), and every request of an engine without the method (a
  test double, say). The event loop stays free to accept and read other
  connections meanwhile, and the engine's per-request pin/context design
  makes concurrent execution safe.

``serve.dispatch{path=loop|executor}`` counts the two paths, each
request once its answer is written.

Lifecycle guarantees:

* **per-query timeout** (``query_timeout``, executor path only): a
  query past budget is answered with a ``timeout`` error envelope (its
  worker finishes in the background; the connection stays usable);
* **error envelopes**: malformed input and engine errors answer
  ``bad_request``, unexpected exceptions answer ``internal`` — a bad
  request never kills the connection, let alone the server. A line past
  :data:`~repro.serve.protocol.MAX_LINE_BYTES` (the listener's stream
  limit) is skipped through its newline and answered ``bad_request``
  with ``id: null``;
* **graceful shutdown** (the ``shutdown`` op, or :meth:`TrussServer.stop`):
  the listener closes first, in-flight requests drain and answer, then
  connections close and :meth:`serve_forever` returns.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, Optional, Tuple

from ..errors import ServeError
from ..observability.metrics import global_metrics
from .engine import QueryEngine
from .protocol import (
    MAX_LINE_BYTES,
    OVERSIZED_LINE,
    decode_line,
    encode_envelope,
    error_envelope,
    request_id_of,
)


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at end of stream), or None for a
    line past the stream limit, which is then skipped through its newline.

    ``StreamReader.readline`` will not do: past the limit it raises
    ``ValueError`` whether or not the newline has arrived yet, and when it
    has not, the line's tail would read as the next request.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # an unterminated last line, or b"" at EOF
    except asyncio.LimitOverrunError as exc:
        overrun = exc.consumed
    while True:
        try:
            await reader.readexactly(overrun)
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            overrun = exc.consumed


class TrussServer:
    """The asyncio TCP server wrapping a :class:`QueryEngine` (or any
    object with its ``execute(request)`` method). An engine with an
    ``answers_on_loop(request)`` method has the requests it accepts run
    on the event loop; the rest run on the thread pool.

    *host* and *port* name the listener (port ``0`` asks the OS for an
    ephemeral one); *query_timeout* is the executor path's per-query
    budget in seconds, ``None`` for no limit. Bad values raise
    :class:`ServeError` here, before anything binds.

    Example
    -------
    ::

        server = TrussServer(engine, host="127.0.0.1", port=0)
        asyncio.run(server.serve_forever())   # until a shutdown request
    """

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        query_timeout: Optional[float] = 30.0,
    ) -> None:
        if not host:
            raise ServeError("host must be a non-empty address")
        if not 0 <= port <= 65535:
            raise ServeError(f"port must be in [0, 65535], got {port}")
        if query_timeout is not None and query_timeout <= 0:
            raise ServeError(
                f"query_timeout must be positive or None, got {query_timeout}"
            )
        self.engine = engine
        self._on_loop = getattr(engine, "answers_on_loop", None)
        self.host = host
        self.port = port
        self.query_timeout = query_timeout
        self.address: Optional[tuple] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._inflight = 0
        self._drained: Optional[asyncio.Event] = None
        self.requests_served = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> tuple:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise ServeError("server already started")
        self._shutdown = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES,
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) drains us."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()
            # Stop accepting, then let in-flight work answer before the
            # connections go away.
            self._server.close()
            await self._server.wait_closed()
            await self._drained.wait()
        self._server = None

    def stop(self) -> None:
        """Trigger the graceful-shutdown sequence from outside."""
        if self._shutdown is not None:
            self._shutdown.set()

    @property
    def stopping(self) -> bool:
        return self._shutdown is not None and self._shutdown.is_set()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    def _track(self, delta: int) -> None:
        self._inflight += delta
        if self._inflight == 0:
            self._drained.set()
        else:
            self._drained.clear()
        global_metrics().gauge("serve.inflight").set(self._inflight)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self.stopping:
                try:
                    line = await _read_line(reader)
                except ConnectionResetError:
                    break
                if line is None:
                    global_metrics().counter(
                        "serve.errors", type="bad_request"
                    ).inc()
                    writer.write(encode_envelope(
                        error_envelope(None, "bad_request", OVERSIZED_LINE)
                    ))
                elif not line:
                    break
                elif not line.strip():
                    continue
                else:
                    # In flight until its answer is handed to the transport;
                    # the dispatch is counted after that, off the answer's
                    # path.
                    self._track(+1)
                    try:
                        envelope, path = await self._answer(line)
                        writer.write(encode_envelope(envelope))
                    finally:
                        self._track(-1)
                    if path is not None:
                        global_metrics().counter(
                            "serve.dispatch", path=path
                        ).inc()
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _answer(
        self, line: bytes
    ) -> Tuple[Dict[str, Any], Optional[str]]:
        """One request line's envelope, and the path the engine ran it on
        (``"loop"`` / ``"executor"``; None when no engine ran)."""
        request: Optional[Dict[str, Any]] = None
        path: Optional[str] = None
        try:
            request = decode_line(line)
            if request.get("op") == "shutdown":
                self.stop()
                return {
                    "id": request_id_of(request),
                    "ok": True,
                    "op": "shutdown",
                    "result": {"draining": True},
                }, None
            if self._on_loop is not None and self._on_loop(request):
                path = "loop"
                envelope = self.engine.execute(request)
            else:
                path = "executor"
                loop = asyncio.get_running_loop()
                future = loop.run_in_executor(None, self.engine.execute, request)
                envelope = await asyncio.wait_for(future, self.query_timeout)
            self.requests_served += 1
            return envelope, path
        except asyncio.TimeoutError:
            error = ("timeout", f"query exceeded {self.query_timeout}s")
        except ServeError as exc:
            error = ("bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - a query must never kill the server
            error = ("internal", f"{type(exc).__name__}: {exc}")
        global_metrics().counter("serve.errors", type=error[0]).inc()
        return error_envelope(request_id_of(request), *error), path

def run_server(
    engine: QueryEngine, on_started=None, **options: Any
) -> TrussServer:
    """Blocking convenience: start, announce, serve until shutdown.

    *options* are :class:`TrussServer`'s ``host``, ``port`` and
    ``query_timeout``. *on_started* is called with the bound
    ``(host, port)`` once the listener is up (the CLI prints it; tests
    grab the ephemeral port).
    """
    server = TrussServer(engine, **options)

    async def _main() -> None:
        address = await server.start()
        if on_started is not None:
            on_started(address)
        await server.serve_forever()

    asyncio.run(_main())
    return server
