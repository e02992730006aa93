"""The orbit engine: one orbit on (n,) state, run by the one loop of the
kernels, or B orbits on a (B, n) stack, checked against the per-point loop
they replaced."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from transnum import (
    BundleAutomorphism,
    CohomologyClass,
    Coefficients,
    TrigPolynomial,
    _kernels,
    arnold_circle,
    dynamics,
    homological_translation,
    local_translation_number,
    periodic_rot,
    rho_power_average,
    rigid_rotation,
    shear_isotopy,
    sinusoidal_shear,
    skew_isotopy,
    skew_translation,
    straight_isotopy,
    torus_affine,
)
from transnum.dynamics import RETURN_TOLERANCE, _PythonOrbit
from transnum.torus import reduce_point, torus_distance

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
POLY = TrigPolynomial(0.3, (0.05, -0.02), (0.1, 0.04))


def reference_orbit(evaluator, avec, shift, x0, steps, block_start=0):
    """The per-point loop: one point, `reduce_point` and `torus_distance` on
    every step. The increment is summed as the kernel sums it: the shift
    first, then avec_j (y_j - x_j) for each coordinate in turn. The steps
    from block_start on form one block of the weighted average, sum w inc /
    sum w."""
    home = reduce_point(x0)
    x, s, first, s_return = home.copy(), 0.0, -1, math.nan
    ws = wsum = 0.0
    for i in range(steps):
        y = np.asarray(evaluator(x))
        inc = shift
        for a_j, d_j in zip(avec, (y - x).tolist()):
            inc += a_j * d_j
        s += inc
        if i >= block_start:
            t = (i - block_start + 0.5) / (steps - block_start)
            w = math.exp(-1.0 / (t * (1.0 - t)))
            ws += w * inc
            wsum += w
        x = reduce_point(y)
        if first < 0 and torus_distance(x, home) <= RETURN_TOLERANCE:
            first, s_return = i + 1, s
    return x, s, first, s_return, ws / wsum


# (label, lift, class entries, fiber shift)
CASES = [
    (
        "rigid after skew",
        rigid_rotation([0.3, 0.61]).compose(skew_translation(GOLDEN, POLY)),
        (1, -2),
        1.0,
    ),
    ("arnold after arnold", arnold_circle(0.3, 0.9).compose(arnold_circle(0.1, 0.5)), (2,), -1.0),
    (
        "affine after sine shear",
        torus_affine([[1, 0], [1, 1]], [0.2, 0.1]).compose(sinusoidal_shear(0.1)),
        (1, 0),
        0.25,
    ),
    ("inverse arnold", arnold_circle(0.3, 0.9).invert(), (1,), 0.5),
    ("affine on T^3", torus_affine([[1, 0, 0], [1, 1, 0], [0, 0, 1]], [0.1, 0.2, 0.3]), (1, 0, 2), 2.0),
    ("straight isotopy", straight_isotopy([GOLDEN, 0.37]).terminal, (1, 1), 0.0),
    ("shear isotopy", shear_isotopy(0.2).terminal, (1, 0), 0.0),
    ("skew isotopy", skew_isotopy(GOLDEN, POLY).terminal, (-1, 1), 0.0),
    # returns exactly: 0.25 + 0.5 turns a quarter of the circle back home in 4 steps
    ("rigid after rigid", rigid_rotation([0.25]).compose(rigid_rotation([0.5])), (1,), 3.0),
    # from the origin, np.mod(-1e-20, 1.0) rounds to 1.0, which must fold to 0.0
    ("tiny backward turn", rigid_rotation([-1e-20, 0.25]).compose(rigid_rotation([0.0, 0.0])), (1, 1), 0.0),
]
STEPS = 301  # odd, so a point left at 1.0 by a missing fold still shows
# Newton's method in the inverse's evaluator runs until every point of the
# call has converged, so a row of a stack need not get its lone orbit's bits
STACK_CASES = [case for case in CASES if case[0] != "inverse arnold"]


def starts(dimension, count=6, seed=7):
    """Random cover points, some outside [0, 1)^n and one at the origin."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 2.5, size=(count, dimension))
    pts[0] = 0.0
    return pts


@pytest.mark.parametrize("label, lift, entries, shift", CASES, ids=[c[0] for c in CASES])
def test_one_orbit_matches_the_per_point_loop_bit_for_bit(label, lift, entries, shift):
    for x0 in starts(lift.dimension):
        orbit = _PythonOrbit(x0, evaluator=lift.evaluator, avec=entries, shift=shift)
        # two chunks, so the state carried between calls is exercised too
        orbit.run_to(STEPS // 3)
        orbit.run_to(STEPS)
        x, s, first, s_return, block = reference_orbit(lift.evaluator, entries, shift, x0, STEPS, STEPS // 3)
        # on T^3 the orbit is a one-row stack, so its state is read through rows()
        ((o_s, o_first, o_s_return, o_block),) = orbit.rows()
        assert np.array_equal(orbit.x.reshape(x.shape), x)
        assert type(o_s) is float and o_s == s
        assert type(o_block) is float and o_block == block
        assert type(o_first) is int and o_first == first
        assert type(o_s_return) is float
        assert o_s_return == s_return or (math.isnan(s_return) and math.isnan(o_s_return))


@pytest.mark.parametrize("label, lift, entries, shift", STACK_CASES, ids=[c[0] for c in STACK_CASES])
def test_each_row_of_a_stack_matches_its_own_orbit_bit_for_bit(label, lift, entries, shift):
    x0 = starts(lift.dimension)
    shifts = shift + np.arange(len(x0), dtype=float)
    stack = _PythonOrbit(x0, evaluator=lift.evaluator, avec=entries, shift=shifts)
    stack.run_to(STEPS // 3)
    stack.run_to(STEPS)
    assert stack.size == len(x0)
    for (s, first, s_return, block), x, row, c in zip(stack.rows(), stack.x, x0, shifts):
        ref_x, ref_s, ref_first, ref_s_return, ref_block = reference_orbit(
            lift.evaluator, entries, c, row, STEPS, STEPS // 3
        )
        assert np.array_equal(x, ref_x) and s == ref_s and first == ref_first and block == ref_block
        assert s_return == ref_s_return or (math.isnan(s_return) and math.isnan(ref_s_return))


def test_the_exact_return_is_found_at_its_step():
    lift = rigid_rotation([0.25]).compose(rigid_rotation([0.5]))
    orbit = _PythonOrbit(np.array([0.1]), evaluator=lift.evaluator, avec=(1,), shift=3.0)
    orbit.run_to(10)
    assert orbit.first_return == 4
    assert abs(orbit.s_return - 4 * 3.75) < 1e-12


def test_dropping_rows_keeps_the_others_on_their_orbits():
    lift = skew_translation(GOLDEN, POLY)
    evaluator = lift.evaluator
    x0 = starts(2)
    stack = _PythonOrbit(x0, evaluator=evaluator, avec=(0, 1), shift=np.arange(6.0))
    stack.run_to(50)
    stack.keep([1, 4])
    stack.run_to(STEPS)
    for (s, _, _, _), row, c in zip(stack.rows(), x0[[1, 4]], (1.0, 4.0)):
        assert s == reference_orbit(evaluator, (0, 1), c, row, STEPS)[1]


def state_bytes(orbit):
    """Bytes held by the orbit's own state: points, sums and returns."""
    return sum(
        np.asarray(getattr(orbit, name)).nbytes for name in ("x0", "x", "s", "first_return", "s_return")
    )


@pytest.mark.parametrize("rows", [None, 64])
def test_engine_state_does_not_grow_with_the_step_count(rows):
    lift = skew_isotopy(GOLDEN, POLY).terminal
    x0 = np.array([0.1, 0.2]) if rows is None else starts(2, rows)
    orbit = _PythonOrbit(x0, evaluator=lift.evaluator, avec=(0, 1))
    orbit.run_to(16)
    before = state_bytes(orbit)
    tracemalloc.start()
    try:
        orbit.run_to(4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state_bytes(orbit) == before
    # a step's temporaries are a few (B, n) arrays, never a per-step record
    assert peak < 64 * 1024 + 16 * before


def test_a_real_class_steps_with_float_entries():
    a = CohomologyClass((0.5, GOLDEN), Coefficients.REAL)
    lift = rigid_rotation([0.3, 0.61]).compose(skew_translation(GOLDEN, POLY))
    x0 = np.array([0.4, 0.9])
    orbit = _PythonOrbit(x0, evaluator=lift.evaluator, avec=a.entries, shift=0.125)
    orbit.run_to(STEPS)
    assert orbit.s == reference_orbit(lift.evaluator, a.entries, 0.125, x0, STEPS)[1]


def test_every_single_orbit_loop_is_the_kernel_chunk():
    assert _kernels.lift_chunk.__code__ is _kernels._orbit_chunk_impl.__code__
    assert _kernels.lift_chunk is not _kernels._orbit_chunk_impl


def test_the_limits_step_single_orbits_of_t1_and_t2_through_the_chunk(monkeypatch):
    """A built-in family runs `orbit_chunk`, any other lift `lift_chunk`,
    and no single orbit of T^1 or T^2 takes the stack's step."""
    calls = []

    def counting(name):
        chunk = getattr(_kernels, name)

        def run(*args):
            calls.append(name)
            return chunk(*args)

        return run

    for name in ("orbit_chunk", "lift_chunk"):
        monkeypatch.setattr(_kernels, name, counting(name))

    def no_stack(self, steps):
        raise AssertionError("a single orbit took the stack step")

    monkeypatch.setattr(_PythonOrbit, "_advance_stack", no_stack)
    composed = BundleAutomorphism(rigid_rotation([0.25]).compose(rigid_rotation([0.5])), 3)
    a1, a2 = CohomologyClass((1,)), CohomologyClass((1, 0))
    runs = [
        ("orbit_chunk", lambda: local_translation_number(a1, BundleAutomorphism(arnold_circle(0.3, 0.5)), [0.1])),
        ("lift_chunk", lambda: local_translation_number(a1, composed, [0.1])),
        ("lift_chunk", lambda: dynamics.local_translation_numbers(a1, [composed], [[0.1]])),
        ("lift_chunk", lambda: rho_power_average(a1, composed, [0.1], 50)),
        ("lift_chunk", lambda: periodic_rot(a1, composed, [0.1], 4)),
        # the isotopy route steps the time-1 map with its numpy evaluator
        ("lift_chunk", lambda: homological_translation(a2, shear_isotopy(0.2), [0.1, 0.3], max_iterations=64)),
    ]
    for name, run in runs:
        calls.clear()
        run()
        assert calls and set(calls) == {name}


def test_a_single_orbit_of_t3_runs_as_a_one_row_stack():
    a = CohomologyClass((1, 0, 2))
    # a period-4 map: rho is the constant <a, v> + 1 = 0.25 + 2 * 0.75 + 1
    g = BundleAutomorphism(torus_affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0.25, 0.5, 0.75]), 1)
    x = [0.1, 0.2, 0.3]
    orbit = dynamics._make_orbit(a, g, x)
    assert orbit.x0.shape == (1, 3) and orbit.size == 1
    average = rho_power_average(a, g, x, 8)
    assert type(average) is float and average == 2.75
    rational = periodic_rot(a, g, x, 4)
    assert type(rational) is Fraction and rational == Fraction(11, 4)
