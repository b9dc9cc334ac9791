"""Host-speed calibration interleaved with a workload.

A shared host's speed drifts by up to 1.7x over tens of seconds as
other tenants come and go, far beyond any useful regression bound. The
benchmark therefore runs a short, fixed calibration (five kernels owned
by the benchmark, none of them the program's code) every few
milliseconds of the timed window, and reports times in *reference-host*
seconds: each stretch of wall time between two calibration marks is
divided by the host's slowdown measured at those marks, and the
calibration itself is cut out.

The slowdown at a mark is the geometric mean, over the kernels, of the
kernel's time divided by its time on the reference host
(``REFERENCE_NS``; ``python3 perfbench/hostspeed.py`` measures them
again). The kernels cover what the program spends its time on:
interpreter dispatch over dicts and bytes, method calls, small numpy
calls, cache-missing gathers and C-level hashing.

A change to the program moves the workload's time and not the
kernels', so it shows in full in the normalised numbers.

Inside a workload the kernels run with caches the workload has just
evicted (and, on the paced cluster, right after the loop slept), so the
slowdown reads above 1 even on a quiet reference host: about 1.15-1.2
on sim-gcc and serve-lbm and about 2 on cluster-paced. Reference-host
figures are therefore faster than the wall-clock ones by that much.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import statistics
import sys
from bisect import bisect_right
from time import perf_counter_ns

import numpy as np

_BYTES = bytes(range(64))
_SMALL = np.arange(8, dtype=np.uint64)
_TABLE = np.arange(1 << 19, dtype=np.uint32)  # 2 MB: misses the L2
_GATHER = np.arange(8192, dtype=np.int64) * 40503 % (1 << 19)  # scattered
_HASHED = bytes(16384)


class _Item:
    __slots__ = ("a",)

    def __init__(self, a: int) -> None:
        self.a = a

    def step(self, x: int) -> int:
        return (self.a + x) & 0xFFFF


_ITEMS = [_Item(i) for i in range(16)]


def _dict_bytes() -> int:
    table = {}
    acc = 0
    for i in range(300):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + (acc & 0xFF)
        acc = (acc * 31 + _BYTES[i & 63] + len(table)) & 0xFFFFFFFF
        acc ^= int.from_bytes(_BYTES[i & 31:(i & 31) + 8], "little") & 0xFFFF
    return acc


def _calls() -> int:
    acc = 0
    for i in range(2000):
        acc = _ITEMS[i & 15].step(acc)
    return acc


def _numpy_small() -> int:
    acc = 0
    for i in range(100):
        acc += int(np.bitwise_xor(_SMALL, i).sum())
    return acc


def _gather() -> int:
    acc = 0
    for _ in range(8):
        acc += int(np.take(_TABLE, _GATHER).sum())
    return acc


def _hash() -> None:
    for _ in range(16):
        hashlib.sha256(_HASHED).digest()


KERNELS = (
    ("dict_bytes", _dict_bytes),
    ("calls", _calls),
    ("numpy_small", _numpy_small),
    ("gather", _gather),
    ("hash", _hash),
)

#: Median kernel times (ns) on the reference host: 2-vCPU Intel Xeon
#: VM, Python 3.11, numpy 2.4, quiet.
REFERENCE_NS = {
    "dict_bytes": 190_000,
    "calls": 190_000,
    "numpy_small": 200_000,
    "gather": 125_000,
    "hash": 210_000,
}


def measure() -> dict:
    """One pass over the kernels: nanoseconds per kernel."""
    out = {}
    for name, kernel in KERNELS:
        start = perf_counter_ns()
        kernel()
        out[name] = perf_counter_ns() - start
    return out


class HostSpeed:
    """Calibration marks of one timed window and the arithmetic that
    turns wall intervals into reference-host seconds."""

    def __init__(self) -> None:
        self.starts = []  # mark start, ns
        self.ends = []  # mark end, ns
        self.factors = []  # host slowdown at the mark (1.0 = reference)
        self._cut = [0]  # calibration ns before each mark, cumulative
        measure()  # warm the kernels: first calls are slow

    def mark(self) -> float:
        """Calibrate now; returns the slowdown."""
        start = perf_counter_ns()
        times = measure()
        end = perf_counter_ns()
        factor = math.exp(
            sum(math.log(times[name] / REFERENCE_NS[name]) for name, _ in KERNELS)
            / len(KERNELS)
        )
        self.starts.append(start)
        self.ends.append(end)
        self.factors.append(factor)
        self._cut.append(self._cut[-1] + end - start)
        return factor

    def calibration_s(self) -> float:
        return self._cut[-1] / 1e9

    def slowdown(self) -> float:
        """Median slowdown over the marks so far."""
        return statistics.median(self.factors) if self.factors else 1.0

    def seconds(self, t0_ns: int, t1_ns: int) -> float:
        """Reference-host seconds of the wall interval [t0, t1]:
        calibration cut out, each stretch between marks divided by the
        slowdown measured around it."""
        starts, ends, factors = self.starts, self.ends, self.factors
        count = len(factors)
        if not count:
            return (t1_ns - t0_ns) / 1e9
        total = 0.0
        # Gap k runs from the end of mark k to the start of mark k + 1
        # (gap -1 precedes the first mark); marks are disjoint and ordered.
        k = bisect_right(ends, t0_ns) - 1
        while k < count:
            lo = max(t0_ns, ends[k]) if k >= 0 else t0_ns
            hi = min(t1_ns, starts[k + 1]) if k + 1 < count else t1_ns
            if lo >= t1_ns:
                break
            if hi > lo:
                if k < 0:
                    factor = factors[0]
                elif k + 1 < count:
                    factor = math.sqrt(factors[k] * factors[k + 1])
                else:
                    factor = factors[-1]
                total += (hi - lo) / factor
            k += 1
        return total / 1e9

    async def ticker(self, period_s: float) -> None:
        """Mark every *period_s* on the running event loop until
        cancelled."""
        while True:
            await asyncio.sleep(period_s)
            self.mark()


def main() -> int:
    """Print each kernel's median over 200 passes: the numbers to put in
    ``REFERENCE_NS`` on a quiet reference host."""
    HostSpeed()
    runs = [measure() for _ in range(200)]
    for name, _ in KERNELS:
        print(f"{name:12} {statistics.median(run[name] for run in runs):10.0f} ns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
