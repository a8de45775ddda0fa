"""Host speed reference: fixed work timed beside the program.

The virtual machines this benchmark runs on share their physical cores,
and their speed drifts with the neighbours' load: on the 2-vCPU VM the
benchmark was built on, every operation class, a set-up and a fixed
pure-Python loop all slow down together by up to ~40% for minutes at a
time, and even the fastest repeat of an operation moves with them.  No
statistic over the program's own timings can take that out.

So every run also times fixed, benchmark-owned work that runs no
``repro`` code, at points where it does not overlap a timed operation:

* analysis_batch times :func:`kernel` — a few milliseconds of the three
  kinds of work the program does: interpreted Python, big-integer
  bitset ANDs with popcounts, and numpy word operations — in the
  worker, on its CPU, after each operation;
* serve_hot times requests to ``refserver.py``, a reference service on
  the service's CPU whose requests run four kernels, between rotations.
  The request path (an idle CPU woken by a loopback connection) is what
  a sporadically used service goes through; the kernel alone, timed on
  the service's CPU, did not follow the service's drift.

A run's speed factor is the reference's nominal time over its median
time in the run.  Reported times are multiplied by it (closed-loop
rates divided), so the metrics read as seconds on the nominal host.  A
change to the program cannot move the reference, and the raw timings
are printed and kept in each run's record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on the calibration host (a 2-vCPU x86-64 VM,
#: Python 3.11, numpy 2.4 with OpenBLAS) in a quiet spell.  It only
#: fixes the scale of the reported seconds.
NOMINAL_S = 0.0024

#: Median latency of a ``refserver.py`` request there; the same role.
REFERENCE_NOMINAL_S = 0.0148

_A = (1 << 60000) // 7
_B = (1 << 60001) // 11
_WORDS = np.arange(1 << 15, dtype=np.uint64)


def kernel() -> int:
    """The reference work: ~2.4 ms on the calibration host."""
    total = 0
    for i in range(15000):
        total += i * i
    for _ in range(150):
        total += (_A & _B).bit_count()
    for _ in range(20):
        total += int((_WORDS ^ (_WORDS >> np.uint64(3))).sum())
    return total


class HostSpeed:
    """Kernel timings of one process."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)

    def median_s(self) -> float:
        return statistics.median(self.samples)


def factor(result: dict) -> float:
    """A run's scale from measured seconds to seconds on the nominal
    host: from its kernel timings, or for serve_hot from its requests
    to the reference service."""
    if "reference_s" in result:
        return REFERENCE_NOMINAL_S / result["reference_s"]
    return NOMINAL_S / result["kernel_s"]
