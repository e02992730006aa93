"""A fixed reference load that measures how fast the machine is right now.

    python3 perfbench/reference.py

Reads one line at a time from stdin; for each it moves itself to the CPU
the line names (if it names one), runs `load()` once and writes the seconds
it took as one line to stdout. It exits at end of input.
The worker runs it in a process of its own, which never imports transnum,
after every job, so that the job latencies can be scaled by the speed the
machine had around each job (run.py). The load mixes what the three
workloads spend their time on: interpreted float stepping, exact Fraction
arithmetic and vectorized numpy, each about a millisecond on a 2-vCPU box.
"""

import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

GRID = np.linspace(0.0, 1.0, 1 << 14, endpoint=False)


def _stepping(steps=3000):
    x, y, acc = 0.1, 0.2, 0.0
    for _ in range(steps):
        x = (x + 0.6180339887498949 + 0.1 * math.sin(2.0 * math.pi * y)) % 1.0
        y = (y + x) % 1.0
        acc += x - y
    return acc


def _fractions(terms=200):
    s = Fraction(0)
    for i in range(1, terms):
        s += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return s


def _vectorized(rounds=4):
    acc = 0.0
    for k in range(rounds):
        y = np.sin(2.0 * np.pi * (GRID + 0.1 * k))
        acc += float(np.abs(np.cumsum(y)).max())
    return acc


def load():
    _stepping()
    _fractions()
    _vectorized()


def main():
    load()  # warm-up
    for line in sys.stdin:
        if line.strip():
            try:
                os.sched_setaffinity(0, {int(line)})
            except OSError:  # the CPU is not ours to use: run where we are
                pass
        start = time.perf_counter()
        load()
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
