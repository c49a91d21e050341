"""A fixed reference kernel that measures how fast the machine runs right now.

The host this benchmark was written on gives it two vCPUs of a shared
machine, and its speed drifts: a fixed pure-Python loop took anywhere from
0.9 to 1.8 s within one minute, and the shift often lasts for minutes.  Raw
wall times from two runs of the same code then differ by a third.

So every timed piece of work is preceded by ``reps`` repetitions of this
kernel, and the run reports ``wall time * REFERENCE_MS_PER_REP / (kernel
time per rep)``: the time the work would take on a machine where one rep
takes ``REFERENCE_MS_PER_REP``.  The kernel does the kinds of work crossdock
does (integer parsing, adjacency lists in a dict, a heap, a sort of tuples),
depends on nothing in crossdock, and its input is fixed, so a change to the
library moves the work's time but never the kernel's.
"""

from __future__ import annotations

import heapq
import time

# One rep's wall time on the 2-vCPU Intel Xeon box the benchmark was written
# on, rounded.  It only sets the scale of the reported times.
REFERENCE_MS_PER_REP = 4.0

_TEXT = " ".join(str(i * 7919 % 10007) for i in range(3000))


def _kernel() -> tuple[int, int]:
    values = [int(token) for token in _TEXT.split()]
    adjacency: dict[int, list[int]] = {}
    for index, value in enumerate(values):
        adjacency.setdefault(value % 500, []).append(index)
    heap: list[tuple[int, int]] = []
    for key, members in adjacency.items():
        heapq.heappush(heap, (len(members), key))
    popped = [heapq.heappop(heap) for _ in range(len(heap))]
    ordered = sorted(zip(values, range(len(values))))
    return popped[0][1], ordered[0][1]


def time_reps(reps: int) -> float:
    """Wall seconds per rep of the kernel, over ``reps`` reps run now."""
    start = time.perf_counter()
    for _ in range(reps):
        _kernel()
    return (time.perf_counter() - start) / reps


def scale(wall_s: float, rep_s: float) -> float:
    """``wall_s`` expressed at the reference speed, in seconds."""
    return wall_s * (REFERENCE_MS_PER_REP / 1000.0) / rep_s
