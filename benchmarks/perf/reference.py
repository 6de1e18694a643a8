"""The machine-speed reference: what a fixed piece of memory-bound Python
costs right now.

This VM shares its host's caches and memory with other tenants, and for
tens of seconds to minutes at a time everything memory-bound in it runs
15-30 % slower (measured over 4 minutes of back-to-back ``tpch_joins_cold``
passes: the 15 s windows' ``stmt_s_geomean`` ranged 14.1-18.6 ms, spread
22 %; two consecutive 10-run sets had medians 18 % apart).  No bound the
driver allows survives that, and nothing inside a 20 s run can average it
out.  A cache-cold pass over Python objects slows down by the same factor
as the workloads do, so every timed sample is divided by the slowdown the
probe showed immediately before and after it: the same windows then
ranged 14.3-15.1 ms, spread 4 %.  (A warm or arithmetic-only kernel does
not feel the contention and corrects nothing; a pure pointer chase feels
it twice as much and over-corrects.)

Reported times are therefore *seconds on a machine on which the probe
takes its nominal time* — this box when its host is quiet.  The nominal
only fixes the scale and cancels out of any comparison of two commits;
``harness.slowdown`` (per layer) is the mean factor of the run, so
value x slowdown is what a stopwatch showed.

What the probe costs must not depend on the program under test, or a
change to the program's memory footprint would move the divisor:

* it allocates nothing — it reads rows built when this module is
  imported, so the state of the heap does not matter;
* it first evicts the core's private caches by scanning 4 MiB, so it
  starts equally cold whatever ran before it.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
import time

_ROWS = [(i, i % 7, f"k{i}") for i in range(12000)]
_EVICT = bytearray(4 << 20)

#: Seconds one probe takes on the reference machine; alone, and with the
#: probe running on both vCPUs at once (see :class:`Paired`).
NOMINAL = 0.00058
PAIRED_NOMINAL = 0.00065


def probe() -> float:
    """Seconds the reference work takes right now."""
    _EVICT.find(1)
    counts = [0] * 7
    start = time.perf_counter()
    for row in _ROWS:
        counts[row[1]] += len(row[2])
    return time.perf_counter() - start


def slowdown(probes, nominal: float = NOMINAL) -> float:
    """The machine's slowdown factor across an interval, from the probes
    taken at its ends (and inside it, if any)."""
    return statistics.fmean(probes) / nominal


@contextlib.contextmanager
def slowdown_around():
    """``with slowdown_around() as factor:`` — afterwards ``factor[0]`` is
    the slowdown across the block."""
    factor = [1.0]
    before = probe()
    try:
        yield factor
    finally:
        factor[0] = slowdown((before, probe()))


class Paired:
    """The probe on both vCPUs at once: here and in a helper process, the
    slower of the two counting.

    A served workload keeps both vCPUs busy (server and load generator),
    so its speed follows what the two cores deliver together.
    """

    def __init__(self):
        self.helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def probe(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        here = probe()
        return max(here, float(self.helper.stdout.readline()))

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()


if __name__ == "__main__":  # the helper process of Paired
    for _ in sys.stdin:
        print(probe(), flush=True)
