"""Fixed reference loops that measure how fast the host runs right now.

The benchmark's host is a share of a machine whose speed changes many times
a second, by up to about 1.6x, and how much of a run falls in slow spells
differs from run to run by more than the metrics' bounds.  The process's
CPU time moves with its wall time, and pinning it to one CPU does not help,
so neither removes it.  The end-to-end latencies are therefore reported in
*calibration units* (``cal``): each operation's wall time divided by the
mean of :meth:`Calibration.unit_seconds` timed just before and just after
it (a slow operation may span a change).  A slow spell lengthens both
alike, while a change to the program moves only the operation.

The unit is the time of two loops.  One is interpreter work on data that
fits in the core's cache (integer arithmetic and dict stores); the other
reads a buffer much larger than the cache at pseudo-random offsets.  Slow
spells hit the program's memory-heavy operations (encryption, TANE,
inserts) harder than its cache-resident ones, and the interpreter loop
alone under-corrected them; of the loops tried (these two, string
formatting with SHA-256, tuple and list allocation, pure integer
arithmetic, random reads of a large list, and mixes of them) this pair
tracked the operations of the three workloads best.  Neither loop
allocates a container the garbage collector tracks, so neither pays for a
collection of the program's heap.  The loops are benchmark code and touch
nothing of the program.
"""

from __future__ import annotations

import time
from typing import Callable

#: Iterations of the interpreter loop; about a millisecond on a current core.
COMPUTE_ITERATIONS = 8000
#: Random reads of the buffer; one to three milliseconds, depending on how
#: contended memory is.
MEMORY_READS = 6000
#: Size of the buffer; a power of two, well above a core's share of cache.
BUFFER_BYTES = 32 << 20
#: Repetitions of each loop per calibration; the fastest one counts.
REPEATS = 3


def _compute_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for index in range(COMPUTE_ITERATIONS):
        table[index & 1023] = index
        total += index * index
    return total + len(table)


def _memory_loop(buffer: bytes) -> int:
    mask = len(buffer) - 1
    offset = total = 0
    for _ in range(MEMORY_READS):
        # A full-period linear congruential walk over the buffer's offsets.
        offset = (offset * 1103515245 + 12345) & mask
        total += buffer[offset]
    return total


def _fastest(loop: Callable[[], int]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best


class Calibration:
    """The reference loops and the buffer the memory loop reads."""

    def __init__(self) -> None:
        self._buffer = bytes(range(256)) * (BUFFER_BYTES // 256)

    def unit_seconds(self) -> float:
        """Wall time of both loops, each the fastest of :data:`REPEATS`."""
        return _fastest(_compute_loop) + _fastest(lambda: _memory_loop(self._buffer))
