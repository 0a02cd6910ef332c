"""Fixed speed probes of the machine, independent of sympwalk.

The CPU speed this benchmark sees drifts by tens of percent over minutes
on a shared host, and not by the same factor for every kind of work.  Each
worker times every probe right after its CLI call (after reading its peak
memory); the benchmark scales a time by REFERENCE_S[kind] over the probe
time of the kind whose drift tracks it (measured over runs on this host),
which reports it at one reference machine speed:

- "mixed": big-integer Fractions, dict and tuple churn, batched small
  float64 products and elementwise integer arrays; tracks worker set-up
  (interpreter, numpy and sympwalk imports) and the numpy-bound chain and
  Monte Carlo stepping workloads.
- "bigint": class-size-like products and Fraction sums of large integers;
  tracks the pure-Python classifier and bound workloads, whose drift the
  mixed probe follows too loosely.

Changing a probe changes every time it scales, so the probes are frozen.
"""

import time
from fractions import Fraction

import numpy as np

# probe times that define the reference speed: about their times on the
# 2-vCPU Xeon VM the recorded baseline comes from
REFERENCE_S = {"mixed": 0.08, "bigint": 0.05}


def _mixed():
    acc = Fraction(0)
    for i in range(1, 350):
        acc += Fraction(3 ** (i % 40), i * i + 1)
    counts = {}
    for i in range(30000):
        key = (i % 251, i % 13)
        counts[key] = counts.get(key, 0) + 1
    batch = (np.arange(500 * 36) % 5).reshape(500, 6, 6).astype(np.float64)
    move = (np.arange(36) % 3).reshape(6, 6).astype(np.float64)
    for _ in range(75):
        np.mod((move.T @ batch) @ move, 5)
    lanes = np.arange(20_000) % 7
    for _ in range(120):
        lanes = np.mod(lanes * 3 + 1, 7)


def _bigint():
    q = 9
    for _ in range(120):
        total = Fraction(0)
        for n in range(1, 12):
            order = 1
            for i in range(n):
                order *= q ** n - q ** i
            for j in range(1, 10):
                total += Fraction(order, (q ** j - 1) * (q ** (j + 1) - 1))


KERNELS = {"mixed": _mixed, "bigint": _bigint}


def probe_s():
    """Time of every probe kernel, by kind."""
    times = {}
    for kind, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        times[kind] = time.perf_counter() - t0
    return times
