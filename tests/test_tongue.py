"""The exact-locked verdict: a grid orbit, rounded outward, proves that an
Arnold circle map is mode-locked at p/q. The tests check the rounding bound
and the proofs themselves against 50-digit arithmetic."""

import json
import math
import os
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import example, given, strategies as st

from transnum import (
    VERDICT_EXACT_LOCKED,
    BundleAutomorphism,
    CohomologyClass,
    Coefficients,
    _kernels,
    arnold_circle,
    cli,
    local_translation_number,
    local_translation_numbers,
)
from transnum import dynamics
from transnum.dynamics import LOCK_GRID, LOCK_PERIODS, _arnold_step_error

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
REACH = LOCK_PERIODS + 2  # the largest |y| the grid orbits reach

mpmath.mp.dps = 50


def exact_step(omega, k, y):
    """F(y) = y + omega + k sin(2 pi y) / 2 pi of the float parameters, in 50 digits."""
    y = mpmath.mpf(float(y))
    return y + mpmath.mpf(float(omega)) + mpmath.mpf(float(k)) * mpmath.sin(2 * mpmath.pi * y) / (2 * mpmath.pi)


def exact_displacement(omega, k, y, q):
    """D_q(y) = F^q(y) - y in 50 digits."""
    x = mpmath.mpf(float(y))
    for _ in range(q):
        x = exact_step(omega, k, x)
    return x - mpmath.mpf(float(y))


@given(
    st.floats(-0.5, 0.5),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.lists(st.floats(-REACH, REACH), min_size=1, max_size=32),
)
@example(0.5, 0.999999, [REACH, -REACH, 0.25, 0.0])
@example(-0.5, -0.999999, [REACH - 0.25, 1e-300, -3.75])
def test_step_error_bounds_one_rounded_step(omega, k, ys):
    """|fl(F(y)) - F(y)| <= e(y), and the outward steps fl(fl(F(y)) -+ e(y))
    stay below and above F(y), with F evaluated as the grid evaluates it:
    the numpy step on a row of points with (1, 1) parameter columns."""
    y = np.array([ys])
    image, _ = _kernels.np_step(_kernels.CIRCLE_SINE, (np.array([[omega]]), np.array([[k]])), y, 0.0)
    slope, offset = _arnold_step_error(np.array([[omega]]), np.array([[k]]))
    e = slope * np.abs(y) + offset
    lower, upper = image + -e, image + e
    for yi, r, ei, lo, hi in zip(ys, image[0], e[0], lower[0], upper[0]):
        truth = exact_step(omega, k, yi)
        assert abs(mpmath.mpf(float(r)) - truth) <= ei
        assert mpmath.mpf(float(lo)) <= truth <= mpmath.mpf(float(hi))


def test_the_grid_orbits_are_widened_by_the_step_bound(monkeypatch):
    """The proof reads the orbits rounded outward by `_arnold_step_error`: a
    widening of 0.2 per step hides the 0/1 tongue of arnold(0.05, 0.9),
    whose D_1 spans only 0.05 -+ 0.143."""

    def lock():
        return dynamics._grid_locks(np.array([0.05]), np.array([0.9]))[0]

    assert lock().rotation == 0
    monkeypatch.setattr(dynamics, "_arnold_step_error", lambda omega, k: (0.0, 0.2))
    assert lock() is None


def corpus():
    """Arnold maps over the tongues of periods up to 5 and between them,
    integer parts of omega and negative k included."""
    omegas = np.linspace(-1.6, 1.6, 65)
    return [(float(o), k) for k in (0.35, 0.7, 0.95, -0.9) for o in omegas]


def check_proof(omega, k, rep, entry, shift):
    """The report's rational and its witnesses, against 50-digit arithmetic:
    D_q - p changes sign between the two witness grid points."""
    proof = rep.tongue
    q, rotation = proof.period, proof.rotation
    assert rep.rational == entry * rotation + shift and rep.error_bound == 0.0
    assert (rotation * q).denominator == 1 and proof.grid == LOCK_GRID
    p = int(rotation * q)
    below = exact_displacement(omega, k, proof.below / proof.grid, q) - p
    above = exact_displacement(omega, k, proof.above / proof.grid, q) - p
    assert below < 0 < above


def test_every_exact_locked_report_changes_sign_between_its_witnesses():
    a = CohomologyClass([-2])
    maps = [(o, k) for o, k in corpus()]
    autos = [BundleAutomorphism(arnold_circle(o, k), 1) for o, k in maps]
    reports = local_translation_numbers(a, autos, [[0.3]] * len(autos), max_iterations=64)
    locked = [(m, rep) for m, rep in zip(maps, reports) if rep.verdict == VERDICT_EXACT_LOCKED]
    periods = {rep.tongue.period for _, rep in locked}
    assert len(locked) > len(maps) // 4 and {1, 2, 3} <= periods
    for (omega, k), rep in locked:
        check_proof(omega, k, rep, -2, 1)


def test_a_single_call_names_its_proof_and_adds_the_integer_part_of_omega():
    rep = local_translation_number(CohomologyClass([3]), BundleAutomorphism(arnold_circle(2.05, 0.9), -1), [0.3])
    assert rep.verdict == VERDICT_EXACT_LOCKED and rep.converged
    assert rep.rational == 3 * 2 - 1 and rep.value == 5.0 and rep.iterations == dynamics.SCAN_HORIZON
    assert (rep.tongue.rotation, rep.tongue.period) == (2, 1)
    check_proof(2.05, 0.9, rep, 3, -1)


def test_a_real_class_gets_no_tongue_test():
    a = CohomologyClass([1.0], coefficients=Coefficients.REAL)
    rep = local_translation_number(a, BundleAutomorphism(arnold_circle(0.05, 0.9), 0.5), [0.3], max_iterations=64)
    assert rep.verdict != VERDICT_EXACT_LOCKED and rep.tongue is None


def test_exact_returns_keep_priority_and_the_tongue_beats_a_settled_window():
    # 0 is a fixed point: the return at step 1 wins over the tongue
    rep = local_translation_number(CohomologyClass([1]), BundleAutomorphism(arnold_circle(0.0, 0.9)), [0.0])
    assert rep.verdict == "exact-periodic" and rep.tongue is None
    # a window that settles by step 16 gives way to the tongue's proof
    rep = local_translation_number(
        CohomologyClass([1]), BundleAutomorphism(arnold_circle(0.0, 0.9)), [0.3], tolerance=1.0
    )
    assert rep.verdict == VERDICT_EXACT_LOCKED and rep.iterations == dynamics.SCAN_HORIZON
    # ... and stands where the tongue proves nothing
    rep = local_translation_number(
        CohomologyClass([1]), BundleAutomorphism(arnold_circle(0.3, 0.9)), [0.2], tolerance=1.0
    )
    assert rep.verdict == "converged" and rep.iterations == dynamics.SCAN_HORIZON


def test_a_locked_orbit_stays_exact_at_the_default_tolerance():
    # the orbit settles at the attracting fixed point within a few steps, so
    # the block averages at the horizon are 7e-9 apart: a converged window at
    # the default tolerance, which the exact verdict must take precedence over
    a, g = CohomologyClass([1]), BundleAutomorphism(arnold_circle(0.02, 0.95))
    orbit = dynamics._make_orbit(a, g, [0.5])
    blocks = []
    for n in (1, 2, 4, 8, 16):  # the checkpoints up to the horizon
        orbit.run_to(n)
        blocks.append(orbit.block)
    assert n == dynamics.SCAN_HORIZON and abs(blocks[-1] - blocks[-2]) <= dynamics.WINDOW_TOLERANCE
    rep = local_translation_number(a, g, [0.5])
    assert rep.verdict == VERDICT_EXACT_LOCKED and rep.rational == 0
    assert rep.iterations == dynamics.SCAN_HORIZON


def test_the_tongue_test_runs_at_a_cap_below_the_horizon():
    rep = local_translation_number(
        CohomologyClass([1]), BundleAutomorphism(arnold_circle(0.05, 0.9)), [0.3], max_iterations=5
    )
    assert rep.verdict == VERDICT_EXACT_LOCKED and rep.iterations == 5


def test_the_tongue_test_runs_once_when_the_cap_is_past_the_horizon(tmp_path, monkeypatch):
    """With --max-iterations 20 the checkpoints are 1, 2, 4, 8, 16 and 20;
    only 16, the first to reach the horizon, runs the tongue test."""
    calls = []
    locks = dynamics._grid_locks

    def counting(omega, k):
        calls.append(len(omega))
        return locks(omega, k)

    monkeypatch.setattr(dynamics, "_grid_locks", counting)
    path = tmp_path / "slow.ini"
    path.write_text("[class]\nentries = 1\n[map]\nfamily = arnold\nomega = 0.3\nk = 0.9\n[point]\nx = 0.2\n")
    out = tmp_path / "out.json"
    argv = ["rot-local", "--config", str(path), "--tolerance", "1e-12", "--max-iterations", "20"]
    assert cli.main(argv + ["--format", "record", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["results"]["rot"]["iterations"] == 20
    assert calls == [1]


def test_a_stack_whose_rows_leave_early_gets_each_rows_lone_report():
    """The tongue test reads each open row's omega, k and shift at its
    current position in the stack: every fourth row (k = 0, omega in 1/4,
    1/2 and 1/8) returns and leaves before the horizon, and the rows after
    it move up. Other rows lie in tongues or are random."""
    rng = np.random.default_rng(25)
    a = CohomologyClass([-2])
    rows = 2 * dynamics.STACK_MIN_ROWS
    params = []
    for i in range(rows):
        if i % 4 == 0:
            params.append(((0.25, 0.5, 0.125)[i // 4 % 3], 0.0))
        elif i % 4 == 1:
            params.append(((0.05, 0.5, 2.05, -0.98)[i // 4 % 4], 0.9))
        else:
            params.append((rng.uniform(-1.5, 1.5), rng.uniform(-0.95, 0.95)))
    maps = [BundleAutomorphism(arnold_circle(o, k), int(rng.integers(-2, 3))) for o, k in params]
    points = [[x] for x in rng.uniform(0.0, 1.0, rows)]
    stacked = local_translation_numbers(a, maps, points, max_iterations=256)
    fields = ("verdict", "rational", "tongue", "iterations", "periodic_base")
    for i, (g, x, rep) in enumerate(zip(maps, points, stacked)):
        lone = local_translation_number(a, g, x, max_iterations=256)
        assert [getattr(rep, f) for f in fields] == [getattr(lone, f) for f in fields], i
        if i % 4 == 0:
            assert rep.verdict == "exact-periodic" and rep.iterations < dynamics.SCAN_HORIZON
        elif i % 4 == 1:
            assert rep.verdict == VERDICT_EXACT_LOCKED


def test_the_record_names_the_period_and_the_grid(tmp_path):
    path = tmp_path / "locked.ini"
    path.write_text("[class]\nentries = 1\n[map]\nfamily = arnold\nomega = 0.5\nk = 0.9\nshift = 1\n[point]\nx = 0.1\n")
    out = tmp_path / "out.json"
    assert cli.main(["rot-local", "--config", str(path), "--format", "record", "--out", str(out)]) == 0
    rot = json.loads(out.read_text())["results"]["rot"]
    assert rot["verdict"] == "exact-locked" and rot["exact"] is True and "error_bound" not in rot
    assert rot["rational"] == "3/2" and rot["tongue"] == {"period": 2, "grid": LOCK_GRID}


def locked_slots():
    """The locked Arnold rot-local jobs of the orbit-sweep decks (those run
    to 2^14 steps), passes 0-2 of seeds 1 and 2718."""
    sys.path.insert(0, PERFBENCH)
    try:
        import jobs
    finally:
        sys.path.remove(PERFBENCH)
    return [
        job
        for seed in (1, 2718)
        for p in range(3)
        for job in jobs.deck("orbit-sweep", seed, p)
        if job["kind"] == "rot-local/arnold" and str(1 << 14) in job["argv"]
    ]


def test_perfbench_locked_slots_are_exact_locked_at_their_shift(tmp_path):
    slots = locked_slots()
    assert len(slots) == 30
    path, out = tmp_path / "job.ini", tmp_path / "out.json"
    for job in slots:
        path.write_text(job["config"])
        argv = [str(path) if arg == "{config}" else arg for arg in job["argv"]]
        assert cli.main(argv + ["--out", str(out)]) == 0, job["config"]
        rot = json.loads(out.read_text())["results"]["rot"]
        shift = int(re.search(r"^shift = (-?\d+)$", job["config"], re.M).group(1))
        assert rot["verdict"] == "exact-locked" and Fraction(rot["rational"]) == shift, job["config"]


def test_sin_and_cos_stay_within_sin_ulps_of_their_200_bit_values():
    """The rounding budget's assumption about the host's sin and cos
    (`dynamics.SIN_ULPS`): numpy's float64 sin and cos on arrays of several
    lengths, contiguous and strided, so that the vector loops and their tails
    run, and math.sin and math.cos on scalars (the interpreted kernel
    step). The arguments cover the phases 2 pi y of the grid orbits."""
    rng = np.random.default_rng(7)
    reach = 2.0 * math.pi * REACH
    worst = 0.0
    with mpmath.workprec(200):

        def ulps(got, x, exact_fn):
            exact = exact_fn(mpmath.mpf(float(x)))
            return float(abs(mpmath.mpf(float(got)) - exact) / mpmath.mpf(math.ulp(float(exact))))

        for size in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 256):
            x = rng.uniform(-reach, reach, size=2 * size)
            for np_fn, exact_fn in ((np.sin, mpmath.sin), (np.cos, mpmath.cos)):
                for xs in (x[:size], x[::2]):
                    worst = max(worst, *(ulps(r, t, exact_fn) for r, t in zip(np_fn(xs), xs)))
        for t in rng.uniform(-reach, reach, size=100):
            worst = max(worst, ulps(math.sin(t), t, mpmath.sin), ulps(math.cos(t), t, mpmath.cos))
    assert worst <= dynamics.SIN_ULPS
