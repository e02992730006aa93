#!/usr/bin/env python3
"""Time the orbit kernel per map family, in microseconds per step.

Every kernel has one source: a scalar function on floats that numba compiles
when it is installed and that otherwise runs as ordinary Python. This script
times `_kernels.orbit_chunk` on the backend in use; when that is the compiled
one, it runs itself again with TRANSNUM_NO_NUMBA=1 to time the interpreted
path as well. It imports the package from the checkout's src/ directory:

    python3 benchmarks/bench_kernels.py --steps 100000
"""

import argparse
import math
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from transnum import _kernels  # noqa: E402
from transnum.families import (  # noqa: E402
    TrigPolynomial,
    arnold_circle,
    rigid_rotation,
    sinusoidal_shear,
    skew_translation,
    torus_affine,
)

GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0

CASES = [
    ("rigid T^2", rigid_rotation([0.3, 0.61]), (1.0, 0.0)),
    ("affine parabolic", torus_affine([[1, 0], [2, 1]], [0.25, 0.0]), (1.0, 0.0)),
    ("circle + sine", arnold_circle(0.3, 0.9), (1.0, 0.0)),
    ("sine shear", sinusoidal_shear(0.1), (1.0, 0.0)),
    ("skew golden", skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))), (0.0, 1.0)),
]


def us_per_step(lift, avec, steps, repeat):
    """Best-of-`repeat` cost of one orbit step. The orbit starts away from
    its home point, so the return check runs on every step."""
    code, params = lift.kernel_spec
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        _kernels.orbit_chunk(code, params, avec, 0.0, (0.1, 0.1), (0.9, 0.9), 0, steps, 0.0, -1, math.nan, 1e-10)
        best = min(best, time.perf_counter() - start)
    return best / steps * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=100_000, help="orbit length")
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    args = parser.parse_args()
    if args.steps < 1 or args.repeat < 1:
        parser.error("--steps and --repeat must be positive")

    backend = "compiled (numba)" if _kernels.JIT_ENABLED else "interpreted"
    _kernels.warmup()
    print(f"transnum orbit kernel, {backend}: {args.steps} steps, best of {args.repeat}")
    rows = [("case", "us/step")]
    rows += [(label, f"{us_per_step(lift, avec, args.steps, args.repeat):.4f}") for label, lift, avec in CASES]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for i, row in enumerate(rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))

    if _kernels.JIT_ENABLED:
        print()
        env = dict(os.environ, TRANSNUM_NO_NUMBA="1")
        subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env, check=True)


if __name__ == "__main__":
    main()
