#!/usr/bin/env python3
"""Time both forms of each map family's one formula, and the quadrature.

Every family's step has one source: a scalar function on floats that numba
compiles when it is installed and that otherwise runs as ordinary Python.
This script times
  - `_kernels.orbit_chunk` per family, in microseconds per orbit step, on the
    backend in use (when that is the compiled one, it runs itself again with
    TRANSNUM_NO_NUMBA=1 to time the interpreted path as well);
  - each family's numpy evaluator, the same step run by numpy, on a 1024^2
    grid of points (1024^2 points of the circle for the Arnold family), in
    nanoseconds per point, after one untimed call;
  - the gk-eval quadrature, whose derivative is the complex step through
    that evaluator, in microseconds per `gal_kedra_quadrature` call (mean
    of QUADRATURE_CALLS calls) at its default node cap, with the node count
    its Gauss–Legendre rule took;
  - the push-forward check of `rot-mean`, `measure_invariance_residual`
    against Lebesgue measure at m = 128 per axis on T^2 (skew map), in
    milliseconds per call;
  - map builds: each family constructor, `sample_map` in dimensions 1 and
    2 and `config.build_bundle_map` of a rigid sweep row, in microseconds
    per build (the affine map once with its matrix memoized and once with
    the memo cleared before each build), next to the seeded residual
    suites of `gk-check` that build them, in microseconds per draw;
  - the orbit walk of `dynamics._orbit_columns`, which images each point
    once, by the map's column step: a 4096-point orbit mean of the golden skew map with its
    push-forward check, in milliseconds per call, and a 10^4-step perturbed
    average of the same map, in microseconds per step;
  - the local translation number of the golden skew map from (0.2, 0.7),
    in milliseconds per call: read from its coefficients by
    `local_translation_number` (with its 16-step orbit), and by the orbit
    route alone (`dynamics._orbit_limit`), run to its stopping rule;
  - the Gal-Kedra check of `split-check`: a 12-pair `splitting_check` on
    two T^2 generators against Lebesgue measure at m = 64 per axis in
    milliseconds per pair (its two invariance checks included), once with
    pairs of one-letter words and once with pairs of two-letter words, which
    image every grid block letter by letter;
  - the grid scans of each family, at 1024^2 points of T^2 (2048 points of
    the circle for the Arnold family): a Lebesgue mean (one midpoint grid,
    no push-forward check) and a certified seminorm, each in milliseconds
    per call and in the tracemalloc peak of one call, by the grid routes
    (`dynamics._walked_mean`, `distortion._grid_seminorm`), which the
    benchmark decks no longer run on a built-in family, and next to them by
    the coefficient routes that `rot-mean` and `seminorm` take;
  - the word-norm BFS of `translation_length_estimate` (one ball, then the
    powers looked up in it) on rational affine generating sets in dimensions
    1, 2 and 3, in microseconds per ball element;
  - the generic orbit step (composed maps and the isotopy route of
    `rot-homovec`) on the skew isotopy's time-1 map, in microseconds per
    orbit step: one orbit, which runs the kernel chunk's loop with the
    map's numpy evaluator as its step, stacks of B = 16, 256 and 4096
    orbits stepped together, and one orbit of an affine map of T^3, which
    runs as a one-row stack;
  - the interpreted orbit step that the block sums of the weighted
    Birkhoff average ride on: the skew and Arnold kernel chunks in
    nanoseconds per step, and one generic orbit in microseconds per step;
  - steps to tolerance of the two window rules, plain (S_n/n) against
    weighted (the block average since the previous checkpoint), on the
    golden skew from (0.2, 0.7) and on arnold(0.3, 0.9) from 0: the
    checkpoint where each rule's gap first meets the tolerance, and the
    error there against the limit (0.3 for the skew map, the weighted
    value at 2^18 steps for the Arnold map);
  - the command-line front end: in-process `cli.main` on a `seifert-class`
    run, in milliseconds per call, and, over the seed-1 pass-0 jobs of
    each perfbench deck, `config.config_from_text` of each job's config in
    microseconds per job and `reports.render(report, "record")` of each
    report those jobs make in microseconds per record;
  - `rot-local` sweeps, whose rows run as stacks, in rows per second, with
    the count of each verdict: 200 rigid rows over the map's vector, the
    same 200 over the point, and 10,000 rows of arnold(omega, 0.9) at
    --max-iterations 4096;
  - the period cap of the tongue test (`dynamics.LOCK_PERIODS`, set here
    for the run only): for caps 1, 8, 16 and 64, the 10,000-row Arnold
    sweep's rows/s and verdict counts, and the cost of the test on a map it
    cannot settle, in ms per orbit alone and per row of a stack of all the
    sweep's unsettled rows.
It imports the package from the checkout's src/ directory, and the decks
from its perfbench/jobs.py:

    python3 benchmarks/bench_kernels.py --steps 100000
"""

import argparse
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

from transnum import (  # noqa: E402
    CochainPerturbation,
    CohomologyClass,
    ExactAffineAutomorphism,
    BundleAutomorphism,
    InvariantMeasure,
    _kernels,
    ball_norms,
    cli,
    coboundary_residual_suite,
    cocycle_residual_suite,
    skew_isotopy,
    gal_kedra_quadrature,
    mean_translation_number,
    measure_invariance_residual,
    perturbed_rho_power_average,
    seminorm,
    splitting_check,
    translation_length_estimate,
)
import jobs  # noqa: E402
from transnum import config, dynamics, families, galkedra, reports  # noqa: E402
from transnum.distortion import _grid_seminorm  # noqa: E402
from transnum.dynamics import _PythonOrbit, _walked_mean  # noqa: E402
from transnum.families import (  # noqa: E402
    TrigPolynomial,
    arnold_circle,
    rigid_rotation,
    sample_map,
    sinusoidal_shear,
    skew_translation,
    torus_affine,
)

GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0
SIDE = 1024  # evaluator grids have SIDE^2 points, as a 1024 seminorm grid on T^2
QUADRATURE_CALLS = 100  # gal_kedra_quadrature calls per timed repetition
RESIDUAL_M = 128  # the rot-mean default grid
GRID_SIDES = {2: 1024, 1: 2048}  # points per axis of the grid-scan table, by dimension
SUITE_DRAWS = 200  # draws per timed residual suite
SPLIT_PAIRS, SPLIT_M = 12, 64  # pairs and points per axis of the timed split-check
BUILDS = 2000  # builds per timed map build
ORBIT_POINTS, PERTURBED_STEPS = 4096, 10_000  # the timed orbit mean and perturbed average


def _affine_unmemoized():
    families._unimodular.cache_clear()
    return torus_affine([[1, 0], [2, 1]], [0.25, 0.0])


def _build_cases():
    """(case, build) of each timed map build."""
    rng = np.random.default_rng(1)
    row = config.config_from_text("[class]\nentries = 1\n[map]\nfamily = rigid\nvector = 0.5\n")
    return [
        ("rigid_rotation, T^2", lambda: rigid_rotation([0.3, 0.61])),
        ("torus_affine, memoized matrix", lambda: torus_affine([[1, 0], [2, 1]], [0.25, 0.0])),
        ("torus_affine, memo cleared", _affine_unmemoized),
        ("arnold_circle", lambda: arnold_circle(0.3, 0.9)),
        ("sinusoidal_shear", lambda: sinusoidal_shear(0.1)),
        ("skew_translation, degree 1", lambda: skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,)))),
        ("sample_map, dimension 1", lambda: sample_map(rng, (1,))),
        ("sample_map, dimension 2", lambda: sample_map(rng, (1, 0))),
        ("config.build_bundle_map, rigid sweep row", lambda: config.build_bundle_map(row)),
    ]

CASES = [
    ("rigid T^2", rigid_rotation([0.3, 0.61]), (1.0, 0.0)),
    ("affine parabolic", torus_affine([[1, 0], [2, 1]], [0.25, 0.0]), (1.0, 0.0)),
    ("circle + sine", arnold_circle(0.3, 0.9), (1.0, 0.0)),
    ("sine shear", sinusoidal_shear(0.1), (1.0, 0.0)),
    ("skew golden", skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))), (0.0, 1.0)),
]


def _word_set(dim):
    """(class, generators, radius): p/7 data plus the fiber translation, the
    groups and radii of the word-norm slots of perfbench's exact-words."""
    q = Fraction(1, 7)
    if dim == 1:
        gens = [ExactAffineAutomorphism(((1,),), (3 * q,), -1)]
        a, radius = (1,), 10
    elif dim == 2:
        gens = [
            ExactAffineAutomorphism(((1, 0), (1, 1)), (2 * q, 5 * q)),
            ExactAffineAutomorphism(((1, 0), (-2, 1)), (4 * q, q)),
        ]
        a, radius = (1, 0), 5
    else:
        gens = [ExactAffineAutomorphism(((2, 1, 0), (1, 1, 0), (0, 0, 1)), (q, 3 * q, 6 * q), -1)]
        a, radius = (0, 0, 1), 6
    gens.append(ExactAffineAutomorphism.fiber_translation(dim, 1))
    return CohomologyClass(a), gens, radius


WORD_SETS = [(f"dimension {dim}", *_word_set(dim)) for dim in (1, 2, 3)]


SEIFERT_TEXT = "[seifert]\ngenus = 1\npairs = (2,1) (3,1) (2,-1) (3,-1)\n"


def _sweep_text(map_keys, parameter, rows):
    """A circle map's rot-local sweep over `parameter` (section.key) in [0, 1)."""
    return (
        f"[class]\nentries = 1\n[map]\n{map_keys}[point]\nx = 0.3\n[sweep]\ncommand = rot-local\n"
        f"parameter = {parameter}\nvalues = linspace:0:1:{rows}\n"
    )


RIGID_KEYS = "family = rigid\nvector = 0.5\n"
SWEEPS = [
    # (case, config, rows, extra flags, calls per timing)
    ("200 rigid rows", _sweep_text(RIGID_KEYS, "map.vector", 200), 200, [], 20),
    ("200 rigid rows over point.x", _sweep_text(RIGID_KEYS, "point.x", 200), 200, [], 20),
    (
        "10,000 arnold(omega, 0.9) rows, 4096 steps",
        _sweep_text("family = arnold\nomega = 0\nk = 0.9\n", "map.omega", 10_000),
        10_000,
        ["--max-iterations", "4096"],
        1,
    ),
]
GENERIC_STEPS = [(None, 4096), (16, 4096), (256, 1024), (4096, 256)]  # (stack size B, steps)
T3_AFFINE = torus_affine([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [0.1, 0.2, 0.3])  # preserves the class (0, 1, 0)
TOLERANCES = (1e-6, 1e-9, 1e-12)
TOLERANCE_CAP = 2**18  # steps; also the Arnold map's reference
# (label, class, lift, start, limit or None for the weighted value at the cap)
TOLERANCE_CASES = [
    ("skew golden from (0.2, 0.7)", (0, 1), CASES[-1][1], [0.2, 0.7], 0.3),
    ("arnold(0.3, 0.9) from 0", (1,), CASES[2][1], [0.0], None),
]
LOCK_CAPS = (1, 8, 16, 64)
VERDICTS = ("exact-locked", "exact-periodic", "converged", "not-converged")


def s_per_call(command, text, repeat, calls, extra=()):
    """Best-of-`repeat` mean cost of in-process `cli.main` on the config
    `text` (record written to a file), in seconds per call, and the
    results of the last call."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "run.ini"), os.path.join(tmp, "out.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, "--config", path, "--format", "record", "--out", out, *extra]
        best = math.inf
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(calls):
                if cli.main(argv) != 0:
                    raise SystemExit(f"transnum {command} failed on the benchmark config")
            best = min(best, (time.perf_counter() - start) / calls)
        with open(out, encoding="utf-8") as fh:
            results = json.load(fh)["results"]
    return best, results


def deck_front_end(workload, repeat, calls=20):
    """(us per config read, us per record render), best of `repeat` rounds
    of `calls` passes, over the seed-1 pass-0 jobs of a perfbench deck: the
    config texts of its jobs, and the reports its jobs make (each job runs
    once, in process, to make them)."""
    deck = jobs.deck(workload, 1, 0)
    texts = [job["config"] for job in deck if job["config"] is not None]
    made = []
    render = cli.render
    cli.render = lambda report, fmt: (made.append(report), render(report, fmt))[1]
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            path = os.path.join(tmp, "job.ini")
            for job in deck:
                if job["config"] is not None:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(job["config"])
                try:
                    cli.main([a.replace("{config}", path) for a in job["argv"]])
                except SystemExit:  # argparse refuses bad argv this way
                    pass
    finally:
        cli.render = render

    def best(work, count):
        cost = math.inf
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(calls):
                work()
            cost = min(cost, (time.perf_counter() - start) / calls)
        return cost / count * 1e6

    read = best(lambda: [config.config_from_text(text) for text in texts], len(texts))
    write = best(lambda: [reports.render(report, "record") for report in made], len(made))
    return read, write


def sweep_row(text, n, extra, calls, repeat):
    """(rows/s, count of each verdict) of one sweep."""
    cost, results = s_per_call("sweep", text, repeat, calls, extra)
    counts = collections.Counter(row[-2] for row in results["rows"])
    return [f"{n / cost:.0f}", *(str(counts[v]) for v in VERDICTS)]


def ms_per_unsettled(omegas, k, repeat):
    """(ms per orbit alone, ms per row of one stack) of the tongue test on
    the maps arnold(omega, k) it cannot settle, or None when it settles all."""
    omegas = np.asarray(omegas, dtype=float)
    ks = np.full(len(omegas), k)
    open_rows = [i for i, lock in enumerate(dynamics._grid_locks(omegas, ks)) if lock is None]
    if not open_rows:
        return None
    one, many = omegas[open_rows[:1]], omegas[open_rows]

    def best(om, calls):
        kk = ks[: len(om)]
        costs = []
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(calls):
                dynamics._grid_locks(om, kk)
            costs.append((time.perf_counter() - start) / calls)
        return min(costs) * 1e3

    return best(one, 20), best(many, 1) / len(open_rows)


def us_per_generic_step(rows, steps, repeat, lift=None):
    """Best-of-`repeat` cost of one orbit step of a lift stepped by its
    numpy evaluator, by default the skew isotopy's time-1 map: one orbit on
    an (n,) point when `rows` is None (on T^1 and T^2 the kernel chunk's
    loop, on T^3 a one-row stack), else a (rows, n) stack, whose step cost
    is split over its rows. The starts are irrational, so the return check
    runs on every step."""
    lift = lift or skew_isotopy(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))).terminal
    n = lift.dimension
    if rows is None:
        x0 = np.array([0.1, 0.2, 0.3][:n])
    else:
        x0 = (np.arange(rows)[:, None] * np.array([GOLDEN, GOLDEN**2, GOLDEN**3][:n]) + 0.1) % 1.0
    best = math.inf
    for _ in range(repeat):
        orbit = _PythonOrbit(x0, evaluator=lift.evaluator, avec=(0, 1, 0)[:n])
        start = time.perf_counter()
        orbit.run_to(steps)
        best = min(best, time.perf_counter() - start)
    return best / (steps * (rows or 1)) * 1e6


def steps_to_tolerance(entries, lift, x0, limit):
    """Rows (tolerance, plain steps, plain error, weighted steps, weighted
    error) of one orbit, run through the doubling checkpoints up to
    TOLERANCE_CAP as the window rule runs it. A rule stops at the first
    checkpoint n >= SCAN_HORIZON whose estimate is within the tolerance of
    the previous checkpoint's; '-' when none does."""
    orbit = dynamics._make_orbit(CohomologyClass(entries), BundleAutomorphism(lift), x0)
    points, n = [], 1
    while n <= TOLERANCE_CAP:
        orbit.run_to(n)
        points.append((n, orbit.s / n, orbit.block))
        n *= 2
    if limit is None:
        limit = points[-1][2]

    def stop(column, tol):
        for (_, *prev), (n, *est) in zip(points, points[1:]):
            if n >= dynamics.SCAN_HORIZON and abs(est[column] - prev[column]) <= tol:
                return str(n), f"{abs(est[column] - limit):.1e}"
        return "-", "-"

    return [(f"{tol:.0e}", *stop(0, tol), *stop(1, tol)) for tol in TOLERANCES]


def us_per_element(a, gens, radius, repeat):
    """Best-of-`repeat` cost of translation_length_estimate(a, gens, t) with
    t the fiber translation and powers up to 4, per element of the ball."""
    size = len(ball_norms(a, gens, radius))
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        translation_length_estimate(a, gens, gens[-1], max_power=4, radius=radius)
        best = min(best, time.perf_counter() - start)
    return size, best / size * 1e6


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


def ns_per_point(lift, repeat):
    """Best-of-`repeat` cost of the numpy evaluator on a corner grid of
    SIDE^2 points (SIDE x SIDE on the 2-torus, SIDE^2 on the circle)."""
    dim = lift.dimension
    m = SIDE if dim == 2 else SIDE * SIDE
    pts = np.stack(np.meshgrid(*[np.arange(m) / m] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    lift.evaluator(pts)  # untimed: the first call pays one-time costs
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        lift.evaluator(pts)
        best = min(best, time.perf_counter() - start)
    return best / len(pts) * 1e9


def quadrature_call(lift, avec, repeat):
    """(best-of-`repeat` mean cost in microseconds, node count) of
    gal_kedra_quadrature(a, lift, h) at its default node cap, with h a
    rigid rotation of the same dimension."""
    a = CohomologyClass([int(e) for e in avec[: lift.dimension]])
    h = rigid_rotation([0.23, 0.41][: lift.dimension])
    x = [0.1, 0.7][: lift.dimension]
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(QUADRATURE_CALLS):
            quad = gal_kedra_quadrature(a, lift, h, x)
        best = min(best, time.perf_counter() - start)
    return best / QUADRATURE_CALLS * 1e6, quad.nodes


def ms_per_residual(lift, repeat, calls=10):
    """Best-of-`repeat` mean cost of one Lebesgue measure_invariance_residual
    call at RESIDUAL_M points per axis."""
    mu = InvariantMeasure.lebesgue()
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            measure_invariance_residual(lift, mu, quadrature_points=RESIDUAL_M)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e3


def us_per_draw(suite, repeat):
    """Best-of-`repeat` cost of a seeded residual suite of SUITE_DRAWS draws
    (T^1 and T^2 in turn), per draw."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        suite(1, SUITE_DRAWS)
        best = min(best, time.perf_counter() - start)
    return best / SUITE_DRAWS * 1e6


def us_per_build(build, repeat):
    """Best-of-`repeat` mean cost of BUILDS calls of `build()`, per call."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(BUILDS):
            build()
        best = min(best, (time.perf_counter() - start) / BUILDS)
    return best * 1e6


def orbit_walk_costs(repeat):
    """(best-of-`repeat` ms per ORBIT_POINTS-point orbit mean with its
    push-forward check, best-of-`repeat` us per step of a PERTURBED_STEPS
    perturbed average) of the golden skew map from (0.2, 0.7)."""
    a, g, x = CohomologyClass([0, 1]), BundleAutomorphism(CASES[-1][1]), [0.2, 0.7]
    mu = InvariantMeasure.dirac_orbit(x, ORBIT_POINTS)
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0, (0.1,), (0.05,)), axis=1)
    best_mean = best_avg = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        mean_translation_number(a, g, mu)
        mid = time.perf_counter()
        perturbed_rho_power_average(a, g, x, pert, PERTURBED_STEPS)
        best_mean, best_avg = min(best_mean, mid - start), min(best_avg, time.perf_counter() - mid)
    return best_mean * 1e3, best_avg / PERTURBED_STEPS * 1e6


def ms_per_local_limit(route, repeat, calls=20):
    """(best-of-`repeat` mean ms per call of `route(a, g, x)` over `calls`
    calls, the last call's report), a local limit of the golden skew map
    from (0.2, 0.7)."""
    a, g, x = CohomologyClass([0, 1]), BundleAutomorphism(CASES[-1][1]), [0.2, 0.7]
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            rep = route(a, g, x)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e3, rep


def ms_per_split_pair(repeat, letters):
    """Best-of-`repeat` cost of a SPLIT_PAIRS-pair splitting_check against
    Lebesgue measure at SPLIT_M points per axis, per pair, whose pairs are
    words of `letters` (1 or 2) letters: with galkedra.WORD_LENGTH set to 1
    for the run, the check draws its generators as they are, the golden
    skew and the sine shear for one letter, and their two products for two
    letters."""
    a = CohomologyClass([0, 1])
    skew, shear = BundleAutomorphism(CASES[-1][1]), BundleAutomorphism(sinusoidal_shear(0.1), 1)
    gens = [skew, shear] if letters == 1 else [skew.compose(shear), shear.compose(skew)]
    mu = InvariantMeasure.lebesgue()
    best = math.inf
    word_length, galkedra.WORD_LENGTH = galkedra.WORD_LENGTH, 1
    try:
        for _ in range(repeat):
            start = time.perf_counter()
            splitting_check(a, gens, mu, pairs=SPLIT_PAIRS, quadrature_points=SPLIT_M, seed=1)
            best = min(best, time.perf_counter() - start)
    finally:
        galkedra.WORD_LENGTH = word_length
    return best / SPLIT_PAIRS * 1e3


def grid_scan_costs(scan, repeat):
    """(best-of-`repeat` ms per call, tracemalloc peak in MiB of one more
    call) of `scan()`; the traced call is not timed."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        scan()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        scan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best * 1e3, peak / 2**20


def print_table(rows):
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for i, row in enumerate(rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))


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
    print_table(rows)

    if _kernels.JIT_ENABLED:
        print()
        env = dict(os.environ, TRANSNUM_NO_NUMBA="1")
        subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env, check=True)
        return

    print()
    print(f"numpy evaluators on {SIDE}^2 points and the gk-eval quadrature, best of {args.repeat}")
    rows = [("case", "evaluator ns/point", "quadrature us/call", "nodes")]
    for label, lift, avec in CASES:
        us, nodes = quadrature_call(lift, avec, args.repeat)
        rows.append((label, f"{ns_per_point(lift, args.repeat):.2f}", f"{us:.1f}", str(nodes)))
    print_table(rows)

    print()
    print(f"invariance residual (Lebesgue, m = {RESIDUAL_M} per axis on T^2), best of {args.repeat}")
    label, lift, _ = CASES[-1]
    print_table([("case", "ms/call"), (label, f"{ms_per_residual(lift, args.repeat):.3f}")])

    print()
    print(f"map builds and the gk-check suites that draw them, best of {args.repeat}")
    rows = [("case", "cost", "unit")]
    rows += [(label, f"{us_per_build(build, args.repeat):.2f}", "us/build") for label, build in _build_cases()]
    rows += [
        (f"{name} suite, {SUITE_DRAWS} draws", f"{us_per_draw(suite, args.repeat):.1f}", "us/draw")
        for name, suite in (("coboundary", coboundary_residual_suite), ("cocycle", cocycle_residual_suite))
    ]
    print_table(rows)

    print()
    print(f"orbit walk (golden skew from (0.2, 0.7), each point imaged once), best of {args.repeat}")
    mean_ms, avg_us = orbit_walk_costs(args.repeat)
    rows = [("case", "cost", "unit")]
    rows.append((f"orbit mean, {ORBIT_POINTS} points, push-forward check", f"{mean_ms:.3f}", "ms/call"))
    rows.append((f"perturbed average, {PERTURBED_STEPS} steps", f"{avg_us:.2f}", "us/step"))
    print_table(rows)

    print()
    print(f"local translation number (golden skew from (0.2, 0.7)), best of {args.repeat}")
    rows = [("route", "verdict", "iterations", "ms/call")]
    for label, route in (("closed form", dynamics.local_translation_number), ("orbit (_orbit_limit)", dynamics._orbit_limit)):
        cost, rep = ms_per_local_limit(route, args.repeat)
        rows.append((label, rep.verdict, str(rep.iterations), f"{cost:.3f}"))
    print_table(rows)

    print()
    print(f"Gal-Kedra split-check at m = {SPLIT_M}, best of {args.repeat}")
    rows = [("case", "ms/pair")]
    rows += [
        (f"split-check, {SPLIT_PAIRS} pairs of {k}-letter words", f"{ms_per_split_pair(args.repeat, k):.3f}")
        for k in (1, 2)
    ]
    print_table(rows)

    print()
    print(f"grid scans (Lebesgue mean, certified seminorm), best of {args.repeat}; peak of one call under tracemalloc")
    mu = InvariantMeasure.lebesgue()
    rows = [("case", "route", "grid", "mean ms/call", "mean peak MiB", "seminorm ms/call", "seminorm peak MiB")]
    for label, lift, avec in CASES:
        a, g = CohomologyClass([int(e) for e in avec[: lift.dimension]]), BundleAutomorphism(lift)
        m = GRID_SIDES[lift.dimension]
        grid = f"{m}^{lift.dimension}" if lift.dimension > 1 else str(m)
        routes = (
            ("grid", _walked_mean, _grid_seminorm),
            ("coefficients", mean_translation_number, seminorm),
        )
        for route, mean_of, sup_of in routes:
            mean = grid_scan_costs(lambda: mean_of(a, g, mu, m, check_invariance=False), args.repeat)
            sup = grid_scan_costs(lambda: sup_of(a, g, m, "certified"), args.repeat)
            rows.append((label, route, grid, *(f"{v:.3f}" for v in mean + sup)))
    print_table(rows)

    print()
    print(f"word-norm BFS (translation_length_estimate, powers 1..4), best of {args.repeat}")
    rows = [("case", "radius", "ball elements", "us/element")]
    for label, a, gens, radius in WORD_SETS:
        size, cost = us_per_element(a, gens, radius, args.repeat)
        rows.append((label, str(radius), str(size), f"{cost:.2f}"))
    print_table(rows)

    print()
    print(f"generic orbit step (skew isotopy, time-1 map; an affine map of T^3), best of {args.repeat}")
    rows = [("orbits", "steps", "us per orbit step")]
    rows += [
        ("one, kernel chunk loop" if b is None else f"B = {b}", str(steps), f"{us_per_generic_step(b, steps, args.repeat):.3f}")
        for b, steps in GENERIC_STEPS
    ]
    cost = us_per_generic_step(None, 4096, args.repeat, T3_AFFINE)
    rows.append(("one on T^3, one-row stack", "4096", f"{cost:.3f}"))
    print_table(rows)

    print()
    print(f"interpreted orbit step under the block sums, best of {args.repeat}")
    skew, arnold = CASES[-1], CASES[2]
    rows = [("case", "steps", "cost", "unit")]
    rows += [
        (f"{label} kernel chunk", str(args.steps), f"{us_per_step(lift, avec, args.steps, args.repeat) * 1e3:.0f}", "ns/step")
        for label, lift, avec in (skew, arnold)
    ]
    rows.append(("generic step, one orbit", "4096", f"{us_per_generic_step(None, 4096, args.repeat):.2f}", "us/step"))
    print_table(rows)

    print()
    print(f"steps to tolerance, plain against weighted window (cap {TOLERANCE_CAP} steps)")
    rows = [("case", "tolerance", "plain steps", "plain error", "weighted steps", "weighted error")]
    for label, entries, lift, x0, limit in TOLERANCE_CASES:
        rows += [(label, *row) for row in steps_to_tolerance(entries, lift, x0, limit)]
    print_table(rows)

    print()
    print(f"command-line front end (in-process cli.main), best of {args.repeat}")
    cost = s_per_call("seifert-class", SEIFERT_TEXT, args.repeat, 20)[0] * 1e3
    print_table([("case", "ms/call"), ("seifert-class", f"{cost:.3f}")])
    print()
    print(f"config read and record render over each perfbench deck's seed-1 pass-0 jobs, best of {args.repeat}")
    costs = {workload: deck_front_end(workload, args.repeat) for workload in jobs.WORKLOADS}
    rows = [("case", *jobs.WORKLOADS, "unit")]
    rows.append(("config read", *(f"{costs[w][0]:.1f}" for w in jobs.WORKLOADS), "us/job"))
    rows.append(("record render", *(f"{costs[w][1]:.1f}" for w in jobs.WORKLOADS), "us/record"))
    print_table(rows)

    print()
    print(f"rot-local sweeps (in-process cli.main), best of {args.repeat}")
    rows = [("case", "rows", "rows/s", *VERDICTS)]
    for label, text, n, extra, calls in SWEEPS:
        rows.append((label, str(n), *sweep_row(text, n, extra, calls, args.repeat)))
    print_table(rows)

    print()
    label, text, n, extra, calls = SWEEPS[-1]
    print(f"tongue test period cap (LOCK_PERIODS, now {dynamics.LOCK_PERIODS}): {label}, best of {args.repeat}")
    omegas = np.linspace(0.0, 1.0, n)
    rows = [("cap", "rows/s", *VERDICTS, "ms/unsettled orbit", "ms/unsettled row, stacked")]
    default = dynamics.LOCK_PERIODS
    try:
        for cap in LOCK_CAPS:
            dynamics.LOCK_PERIODS = cap
            costs = ms_per_unsettled(omegas, 0.9, args.repeat)
            cells = ("-", "-") if costs is None else (f"{costs[0]:.3f}", f"{costs[1]:.4f}")
            rows.append((str(cap), *sweep_row(text, n, extra, calls, args.repeat), *cells))
    finally:
        dynamics.LOCK_PERIODS = default
    print_table(rows)


if __name__ == "__main__":
    main()
