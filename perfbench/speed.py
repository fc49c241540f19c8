"""How fast the machine runs right now, from a fixed reference routine.

Shared hosts speed up and slow down by tens of percent over minutes.  On
the 2-vCPU VM this benchmark was built on, identical passes a few minutes
apart differed by up to 1.7x in wall time, and a reference routine that
uses nothing from ``repro`` slowed down in step with them.  The benchmark
therefore times that routine before and after every pass, and reports each
pass's timings scaled to a machine on which the routine takes
:data:`NOMINAL_S`.  A change to ``repro`` cannot move the routine, so a
scaled figure moves with the code under test rather than with the
neighbours.

The routine has two halves, because the host slows different kinds of
work by different amounts: an interpreter loop, like the ensemble
drivers, and small messages bounced between two threads over a local
socket pair, like the sweep service.  On that VM the sum tracked pass
times better than either half alone, on both kinds of workload.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time

#: Seconds the reference routine takes on the machine the figures are
#: scaled to (about its median on that VM).
NOMINAL_S = 0.100

#: Round trips of the socket half of the routine.
ROUND_TRIPS = 1500


def _interpreter_loop() -> int:
    acc = 0
    for i in range(800_000):
        acc += i
    return acc


def _ping_pong() -> None:
    """Bounce a small message between two threads ROUND_TRIPS times."""
    # Datagrams keep message boundaries: one recv per send.
    left, right = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
    message = json.dumps({"values": list(range(40))}).encode()

    def echo() -> None:
        for _ in range(ROUND_TRIPS):
            right.sendall(right.recv(65536))

    peer = threading.Thread(target=echo, name="speed-echo")
    peer.start()
    try:
        for _ in range(ROUND_TRIPS):
            left.sendall(message)
            left.recv(65536)
    finally:
        peer.join()
        left.close()
        right.close()


def _routine() -> None:
    _interpreter_loop()
    _ping_pong()


class SpeedReference:
    """Timings of the reference routine, taken between passes."""

    def __init__(self) -> None:
        #: One list of routine times per :meth:`sample` call, in order.
        self.groups: list[list[float]] = []

    def sample(self, reps: int = 2) -> None:
        """Time the routine ``reps`` times."""
        group = []
        for _ in range(reps):
            started = time.perf_counter()
            _routine()
            group.append(time.perf_counter() - started)
        self.groups.append(group)

    def recent(self) -> float:
        """Slowness over the last two samplings: those just before and
        just after a pass."""
        return statistics.median(
            t for group in self.groups[-2:] for t in group
        ) / NOMINAL_S

    def slowness(self) -> float:
        """Median routine time over :data:`NOMINAL_S`; above 1 is slow."""
        return statistics.median(
            t for group in self.groups for t in group
        ) / NOMINAL_S
