"""Open-loop load generator: one thread, one TCP connection.

Requests are encoded before a phase starts. The send loop sleeps in
``select`` until shortly before the next send time, then spins, and stamps
each response line as it arrives; parsing waits until the phase is over.
Each request is timed from its *scheduled* send time, which charges a
stall to every request queued behind it.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

clock = time.perf_counter

#: How long before a send time the loop stops sleeping and starts to spin.
#: A 1 ms spin kept the client busy most of the time at 1000 req/s and left
#: the server one of the two cores; its latencies then moved with the
#: scheduler from run to run. Late timer wake-ups cost more lag with this
#: shorter spin, but a steady amount.
SPIN_S = 0.0002
#: How long after the last send the loop waits for missing answers.
DRAIN_S = 30.0


@dataclass
class PhaseResult:
    """Raw timestamps of one phase (all from ``time.perf_counter``)."""

    due: List[float]       #: scheduled send time of each request
    sent: List[float]      #: when each request was handed to the socket
    received: List[float]  #: when each response line arrived (in order)
    payload: bytes         #: every response line, in order

    @property
    def latencies(self) -> List[float]:
        return [r - d for d, r in zip(self.due, self.received)]

    @property
    def lags(self) -> List[float]:
        return [s - d for d, s in zip(self.due, self.sent)]


def poisson_offsets(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Send offsets of a Poisson process of *rate* per second over *duration*."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration]


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


def drive(sock: socket.socket, lines: Sequence[bytes], offsets: Sequence[float]) -> PhaseResult:
    """Send ``lines[i]`` at ``offsets[i]`` seconds from now; collect replies.

    Returns once every request has its response line, or DRAIN_S after
    the last send (the result then holds fewer ``received`` stamps).
    """
    count = len(lines)
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    start = clock() + 0.005
    due = [start + float(offset) for offset in offsets]
    sent = [0.0] * count
    received: List[float] = []
    chunks: List[bytes] = []
    outgoing = bytearray()
    next_index = 0
    deadline = None
    try:
        while len(received) < count:
            now = clock()
            while next_index < count and due[next_index] <= now:
                outgoing += lines[next_index]
                sent[next_index] = now
                next_index += 1
            if outgoing:
                try:
                    del outgoing[:sock.send(outgoing)]
                except BlockingIOError:
                    pass
            if next_index == count and deadline is None:
                deadline = now + DRAIN_S
            if deadline is not None and now > deadline:
                break
            if next_index < count:
                timeout = due[next_index] - now - SPIN_S
            else:
                timeout = deadline - now
            if outgoing:
                timeout = min(timeout, SPIN_S)
            if selector.select(max(timeout, 0.0)):
                data = sock.recv(1 << 20)
                stamp = clock()
                if not data:
                    raise ConnectionError("server closed the connection")
                received.extend([stamp] * data.count(b"\n"))
                chunks.append(data)
    finally:
        selector.unregister(sock)
        selector.close()
    return PhaseResult(due, sent, received, b"".join(chunks))
