"""Pointwise displacement, orbit limits, exact periodic detection, means."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from transnum import (
    BundleAutomorphism,
    BundlePoint,
    CochainPerturbation,
    CohomologyClass,
    Coefficients,
    InvariantMeasure,
    LiftedMap,
    NotPeriodicError,
    PreconditionError,
    TrigPolynomial,
    ValidationError,
    VERDICT_CONVERGED,
    VERDICT_EXACT_PERIODIC,
    VERDICT_NOT_CONVERGED,
    arnold_circle,
    fiber_translation,
    local_translation_number,
    mean_homological_translation,
    mean_translation_number,
    measure_invariance_residual,
    periodic_rot,
    perturbed_rho,
    perturbed_rho_power_average,
    rho,
    rho_many,
    rho_power_average,
    rigid_rotation,
    shear_isotopy,
    sinusoidal_shear,
    skew_isotopy,
    skew_translation,
    splitting_check,
    straight_isotopy,
    theta,
    torus_affine,
)
from transnum import _kernels, dynamics
from transnum.dynamics import (
    POINT_CAP,
    QUADRATURE_POINTS,
    _default_test_functions,
    _finite_mean,
    _measure_mean,
    _walked_mean,
)
from transnum.families import sample_class_entries, sample_fiber_shift, sample_map
from transnum.torus import reduce_point

A1 = CohomologyClass([1])
A1R = CohomologyClass([1.0], coefficients=Coefficients.REAL)
A10 = CohomologyClass([1, 0])
A01 = CohomologyClass([0, 1])
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def auto(lift, shift=0):
    return BundleAutomorphism(lift, shift)


# -- rho ---------------------------------------------------------------------


def test_rho_of_rigid_rotation_is_the_pairing_with_the_class():
    g = auto(rigid_rotation([0.3]))
    assert rho(A1, g, [0.11]) == pytest.approx(0.3, abs=1e-15)


def test_rho_of_fiber_translation_is_the_shift():
    for r in range(-3, 4):
        assert rho(A1, fiber_translation(1, r), [0.42]) == r
    rng = np.random.default_rng(7)
    for r in rng.uniform(-2, 2, size=5):
        assert rho(A1R, fiber_translation(1, float(r)), [0.42]) == pytest.approx(r)


def test_integer_fiber_rejects_fractional_translation():
    with pytest.raises(PreconditionError):
        rho(A1, fiber_translation(1, 0.5), [0.0])
    with pytest.raises(PreconditionError):
        rho(A1, fiber_translation(1, Fraction(1, 3)), [0.0])
    # integer-valued shifts are fine in any representation
    assert rho(A1, fiber_translation(1, 2.0), [0.0]) == 2.0


def test_rho_of_sinusoidal_shear_at_the_crest():
    g = auto(sinusoidal_shear(0.1))
    assert rho(A10, g, [0.0, 0.25]) == pytest.approx(0.1, abs=1e-15)
    assert rho(A10, g, [0.0, 0.75]) == pytest.approx(-0.1, abs=1e-15)


def test_rho_is_deck_invariant_when_the_class_is_preserved():
    g = auto(torus_affine([[1, 0], [2, 1]], [0.25, 0.0]), 1)
    x = np.array([0.37, 0.81])
    base = rho(A10, g, x)
    for m in ([3, -2], [-1, 5], [10, 10]):
        assert rho(A10, g, x + np.asarray(m, float)) == pytest.approx(base, abs=1e-12)


def test_rho_many_matches_the_scalar_loop():
    g = auto(sinusoidal_shear(0.1), 2)
    pts = np.random.default_rng(3).uniform(0, 1, size=(40, 2))
    vec = rho_many(A10, g, pts)
    for p, v in zip(pts, vec):
        assert v == pytest.approx(rho(A10, g, p), abs=1e-14)


def test_rho_cocycle_identity():
    g = auto(sinusoidal_shear(0.1), 1)
    h = auto(torus_affine([[1, 0], [2, 1]], [0.25, 0.0]), 2)
    gh = g.compose(h)
    x = np.array([0.31, 0.77])
    lhs = rho(A10, gh, x)
    rhs = rho(A10, g, h.lift(x)) + rho(A10, h, x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# -- local limits ------------------------------------------------------------


def test_rational_rotation_is_detected_exactly():
    cases = [
        (0.3, Fraction(3, 10)),
        (0.5, Fraction(1, 2)),
        (2.0 / 5.0, Fraction(2, 5)),
        (3.0 / 7.0, Fraction(3, 7)),
    ]
    for omega, expected in cases:
        rep = local_translation_number(A1, auto(rigid_rotation([omega])), [0.2])
        assert rep.verdict == VERDICT_EXACT_PERIODIC, omega
        assert rep.rational == expected
        assert rep.error_bound == 0.0
        assert rep.value == pytest.approx(float(expected), abs=1e-12)


def test_golden_rotation_converges_with_negligible_error():
    rep = local_translation_number(A1, auto(rigid_rotation([GOLDEN])), [0.0])
    assert rep.verdict == VERDICT_CONVERGED
    assert rep.rational is None
    assert rep.value == pytest.approx(GOLDEN, abs=1e-12)
    assert rep.error_bound <= 1e-9


def test_exact_periodicity_needs_the_integer_fiber_group():
    rep = local_translation_number(A1R, auto(rigid_rotation([0.5])), [0.2])
    assert rep.verdict == VERDICT_CONVERGED
    assert rep.rational is None
    assert rep.value == pytest.approx(0.5, abs=1e-12)


def test_fixed_point_of_circle_map_gives_zero_exactly():
    g = auto(arnold_circle(0.0, 0.9))
    rep = local_translation_number(A1, g, [0.0])
    assert rep.verdict == VERDICT_EXACT_PERIODIC
    assert rep.rational == Fraction(0, 1)
    assert rep.value == 0.0
    assert rep.error_bound == 0.0


def test_limit_is_invariant_under_the_choice_of_cover_representative():
    g = auto(rigid_rotation([GOLDEN]))
    a = local_translation_number(A1, g, [0.3])
    b = local_translation_number(A1, g, [7.3])
    assert a.value == pytest.approx(b.value, abs=1e-12)
    assert a.verdict == b.verdict


def test_power_homogeneity_with_fiber_shifts():
    g = auto(sinusoidal_shear(0.1), 2)
    base = local_translation_number(A10, g, [0.1, 0.15]).value
    for k in (1, 2, 3):
        rep = local_translation_number(A10, g.power(k), [0.1, 0.15])
        assert rep.value == pytest.approx(k * base, abs=1e-12)


def test_composing_with_a_central_translation_adds_its_amount():
    g = auto(rigid_rotation([GOLDEN]))
    base = local_translation_number(A1, g, [0.0]).value
    shifted = g.compose(fiber_translation(1, 2))
    assert local_translation_number(A1, shifted, [0.0]).value == pytest.approx(
        base + 2, abs=1e-12
    )
    g_real = auto(rigid_rotation([GOLDEN]))
    base_real = local_translation_number(A1R, g_real, [0.0]).value
    shifted_real = g_real.compose(fiber_translation(1, 0.37))
    assert local_translation_number(A1R, shifted_real, [0.0]).value == pytest.approx(
        base_real + 0.37, abs=1e-12
    )


def test_additivity_at_a_common_fixed_base_point():
    g = auto(arnold_circle(0.0, 0.5), 3)
    h = auto(arnold_circle(0.0, 0.9), -1)
    rg = local_translation_number(A1, g, [0.0])
    rh = local_translation_number(A1, h, [0.0])
    rgh = local_translation_number(A1, g.compose(h), [0.0])
    assert (rg.rational, rh.rational) == (Fraction(3), Fraction(-1))
    assert rgh.rational == rg.rational + rh.rational


def test_slow_orbit_reports_not_converged_with_its_window():
    # a composed lift has no kernel spec, so no tongue test; at 100 steps the
    # block averages of this unlocked orbit are still far apart
    rep = local_translation_number(
        A1,
        auto(arnold_circle(0.3, 0.9).compose(arnold_circle(0.1, 0.5))),
        [0.2],
        tolerance=1e-12,
        max_iterations=100,
    )
    assert rep.verdict == VERDICT_NOT_CONVERGED
    assert rep.iterations == 100
    assert len(rep.window) >= 2
    assert rep.error_bound > 0
    assert rep.rational is None


def test_block_average_settles_an_orbit_that_creeps_to_a_fixed_point():
    # the orbit from 0.1 moves 0.4 in all before it settles at the attracting
    # fixed point 1/2, so the plain average creeps like 0.4/n; the weighted
    # average of the block since the previous checkpoint sees only the
    # settled orbit
    rep = local_translation_number(
        A1,
        auto(arnold_circle(0.0, 0.5).compose(arnold_circle(0.0, 0.5))),
        [0.1],
        tolerance=1e-12,
        max_iterations=100,
    )
    assert rep.verdict == VERDICT_CONVERGED and rep.iterations == 64
    assert abs(rep.value) <= 1e-12
    assert rep.plain_average == pytest.approx(0.4 / 64, rel=1e-9)


def test_diagnostics_attach_the_height_average():
    # (theta(x^) + rho_x(g^n))/n reads the plain sum, not the block average
    g = auto(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))))
    start = BundlePoint(np.array([0.2, 0.7]), 2)
    plain = local_translation_number(A01, g, start)
    rep = local_translation_number(A01, g, start, diagnostics=True)
    assert plain.height_average is None
    n = rep.iterations
    height = (theta(A01, start) + n * rho_power_average(A01, g, start.cover, n)) / n
    assert rep.height_average == pytest.approx(height, abs=1e-12)
    assert abs(rep.height_average - rep.value - theta(A01, start) / n) > 1e-6


def test_raw_power_average_tracks_the_orbit_sum():
    g = auto(rigid_rotation([GOLDEN]), 1)
    n = 257
    assert rho_power_average(A1, g, [0.0], n) == pytest.approx(
        GOLDEN + 1.0, abs=1.0 / n
    )
    with pytest.raises(ValidationError):
        rho_power_average(A1, g, [0.0], 0)


# Bit-level pins of the orbit engine: float.hex of value, error bound and
# window, with iterations, verdict and (q, s_q) of a detected return. They
# fix the floating-point operation order of every family step, of the
# generic step of composed maps and of the stopping rule.
POLY1 = TrigPolynomial(0.3, (0.05,), (0.1,))
POLY3 = TrigPolynomial(0.1, (0.05, -0.02, 0.01), (0.1, 0.03, -0.04))
A12 = CohomologyClass([1, 2])
PINNED_LOCAL = [
    ("rigid-circle", A1, auto(rigid_rotation([0.3]), 1), [0.1], {},
     ("0x1.4cccccccccccdp+0", "0x0.0p+0", 10, "exact-periodic",
      ("0x1.4cccccccccccdp+0", "0x1.4cccccccccccdp+0"), (10, "0x1.a000000000000p+3"))),
    ("rigid-torus", A12, auto(rigid_rotation([0.3, GOLDEN])), [0.1, 0.9], {},
     ("0x1.893bc03fcb61dp+0", "0x1.0000000000000p-52", 16, "converged",
      ("0x1.893bc03fcb61cp+0", "0x1.893bc03fcb61dp+0"), None)),
    ("affine-circle", A1, auto(torus_affine([[1]], [0.37])), [0.6], {},
     ("0x1.7ae147ae147aep-2", "0x1.0000000000000p-54", 16, "converged",
      ("0x1.7ae147ae147adp-2", "0x1.7ae147ae147aep-2"), None)),
    ("affine-torus", A10, auto(torus_affine([[1, 0], [2, 1]], [GOLDEN, 0.1])), [0.4, 0.7], {},
     ("0x1.3c6ef372fe950p-1", "0x1.0000000000000p-53", 16, "converged",
      ("0x1.3c6ef372fe951p-1", "0x1.3c6ef372fe950p-1"), None)),
    ("arnold", A1, auto(arnold_circle(0.3, 0.9)), [0.2], {"max_iterations": 2**14},
     ("0x1.1a820f0dd2160p-2", "0x1.d14db9f280000p-21", 512, "converged",
      ("0x1.1a81d4e41ad7bp-2", "0x1.1a820f0dd2160p-2"), None)),
    # in the 0/1 tongue: the grid proves rot = 0 at the first checkpoint past the horizon
    ("arnold-locked", A1, auto(arnold_circle(0.05, 0.9)), [0.3], {"max_iterations": 2**12, "tolerance": 1e-15},
     ("0x0.0p+0", "0x0.0p+0", 16, "exact-locked", ("0x0.0p+0", "0x0.0p+0"), None)),
    ("sinshear", A10, auto(sinusoidal_shear(0.1)), [0.3, 0.2], {},
     ("0x1.858d80f69dd99p-4", "0x1.8000000000000p-55", 16, "converged",
      ("0x1.858d80f69dd96p-4", "0x1.858d80f69dd99p-4"), None)),
    ("skew", A01, auto(skew_translation(GOLDEN, POLY1)), [0.2, 0.7], {"tolerance": 1e-12, "max_iterations": 2**12},
     ("0x1.3333333333339p-2", "0x1.a000000000000p-51", 1024, "converged",
      ("0x1.333333333332cp-2", "0x1.3333333333339p-2"), None)),
    ("skew-degree3", A01, auto(skew_translation(GOLDEN, POLY3)), [0.15, 0.4], {"tolerance": 1e-12, "max_iterations": 2**12},
     ("0x1.9999999999996p-4", "0x1.0000000000000p-51", 2048, "converged",
      ("0x1.99999999999b6p-4", "0x1.9999999999996p-4"), None)),
    ("composed", A1, auto(arnold_circle(0.3, 0.9).compose(arnold_circle(0.1, 0.5))), [0.2], {},
     ("0x1.6179cfa873716p-2", "0x1.979c43f780000p-21", 1024, "converged",
      ("0x1.617a029bfbf05p-2", "0x1.6179cfa873716p-2"), None)),
    ("exact-periodic", A1, auto(rigid_rotation([0.25]), 2), [0.0], {},
     ("0x1.2000000000000p+1", "0x0.0p+0", 4, "exact-periodic",
      ("0x1.2000000000000p+1", "0x1.2000000000000p+1"), (4, "0x1.2000000000000p+3"))),
]


@pytest.mark.parametrize("name, a, g, x, kwargs, pinned", PINNED_LOCAL, ids=[c[0] for c in PINNED_LOCAL])
def test_local_translation_number_is_pinned_bit_for_bit(name, a, g, x, kwargs, pinned):
    # a skew map's limit is read from its coefficients; its orbit stays pinned
    route = dynamics._orbit_limit if name.startswith("skew") else local_translation_number
    rep = route(a, g, x, **kwargs)
    base = rep.periodic_base
    got = (
        rep.value.hex(),
        rep.error_bound.hex(),
        rep.iterations,
        rep.verdict,
        tuple(w.hex() for w in rep.window),
        None if base is None else (base[0], base[1].hex()),
    )
    assert got == pinned


def test_power_averages_and_periodic_rot_are_pinned_bit_for_bit():
    skew = auto(skew_translation(GOLDEN, POLY1))
    affine = auto(torus_affine([[1, 0], [2, 1]], [GOLDEN, 0.1]))
    assert rho_power_average(A01, skew, [0.2, 0.7], 1000).hex() == "0x1.3332d1236d58dp-2"
    assert rho_power_average(A1, auto(arnold_circle(0.3, 0.9)), [0.2], 777).hex() == "0x1.1ab8121b0dcc8p-2"
    assert rho_power_average(A10, affine, [0.4, 0.7], 500).hex() == "0x1.3c6ef372fe955p-1"
    assert periodic_rot(A12, auto(rigid_rotation([0.25, 0.5]), 1), [0.1, 0.3], 4) == Fraction(9, 4)
    assert periodic_rot(A1, auto(arnold_circle(0.0, 0.5), 3), [0.0], 1) == Fraction(3)


def test_orbit_memory_does_not_grow_with_the_step_cap():
    # rot = 0.2759 lies between 1/4 and 2/7, so no period below 11 proves it
    # locked and the orbit never returns. From 2^17 steps on, the block
    # averages agree to rounding, but the rounding of sums of 2^16 and 2^17
    # terms keeps their gap (2.7e-15 at 2^18) far above 1e-16, less than two
    # units in the last place of the value, so the kernel runs to the cap
    assert dynamics.LOCK_PERIODS < 11
    g = auto(arnold_circle(0.3, 0.9))
    tracemalloc.start()
    try:
        rep = local_translation_number(A1, g, [0.2], tolerance=1e-16, max_iterations=2**18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iterations == 2**18 and rep.verdict == VERDICT_NOT_CONVERGED
    assert peak < 64 * 1024


# -- exact rationals at periodic points --------------------------------------


def test_periodic_rot_on_the_half_rotation():
    g = auto(rigid_rotation([0.5]))
    assert periodic_rot(A1, g, [0.1], 2) == Fraction(1, 2)
    # a multiple of the true period reduces to the same fraction
    assert periodic_rot(A1, g, [0.1], 4) == Fraction(1, 2)


def test_periodic_rot_of_a_pure_translation_at_period_one():
    assert periodic_rot(A1, fiber_translation(1, 3), [0.9], 1) == Fraction(3)


def test_periodic_rot_two_fifths():
    g = auto(rigid_rotation([0.4]))
    assert periodic_rot(A1, g, [0.13], 5) == Fraction(2, 5)


def test_periodic_rot_rejects_non_periodic_points():
    g = auto(rigid_rotation([GOLDEN]))
    with pytest.raises(NotPeriodicError):
        periodic_rot(A1, g, [0.0], 3)


def test_periodic_rot_needs_integer_fibers_and_a_positive_period():
    g = auto(rigid_rotation([0.5]))
    with pytest.raises(ValidationError):
        periodic_rot(A1R, g, [0.1], 2)
    with pytest.raises(ValidationError):
        periodic_rot(A1, g, [0.1], 0)


@given(p=st.integers(-6, 6), q=st.integers(1, 9))
def test_periodic_rot_recovers_every_small_fraction(p, q):
    g = auto(rigid_rotation([p / q]))
    assert periodic_rot(A1, g, [0.05], q) == Fraction(p, q)


# -- means over invariant measures -------------------------------------------


def test_mean_of_skew_translation_is_the_constant_term():
    g = auto(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))))
    rep = mean_translation_number(A01, g, InvariantMeasure.lebesgue())
    assert rep.value == pytest.approx(0.3, abs=1e-12)
    assert rep.error_bound <= 1e-9
    assert rep.measure_kind == "lebesgue"
    assert not rep.invariance_warning


def test_mean_of_a_fiber_translation_is_its_amount():
    for mu in (
        InvariantMeasure.lebesgue(),
        InvariantMeasure.dirac_orbit([0.3], 1),
        InvariantMeasure.empirical([[0.1], [0.8]], [0.5, 0.5]),
    ):
        rep = mean_translation_number(A1, fiber_translation(1, 2), mu)
        assert rep.value == pytest.approx(2.0, abs=1e-12)


def test_mean_over_a_periodic_orbit_measure():
    g = auto(rigid_rotation([0.5]))
    mu = InvariantMeasure.dirac_orbit([0.1], 2)
    rep = mean_translation_number(A1, g, mu)
    assert rep.value == pytest.approx(0.5, abs=1e-13)
    assert rep.invariance_residual <= 1e-12
    assert not rep.invariance_warning


def test_mean_over_an_invariant_empirical_pair():
    g = auto(rigid_rotation([0.5]))
    mu = InvariantMeasure.empirical([[0.1], [0.6]], [0.5, 0.5])
    rep = mean_translation_number(A1, g, mu)
    assert rep.value == pytest.approx(0.5, abs=1e-13)
    assert rep.invariance_residual <= 1e-12


def test_non_invariant_empirical_measure_sets_the_warning_flag():
    g = auto(sinusoidal_shear(0.1))
    mu = InvariantMeasure.empirical([[0.3, 0.25]])
    rep = mean_translation_number(A10, g, mu)
    assert rep.value == pytest.approx(0.1, abs=1e-13)
    assert rep.invariance_warning
    assert rep.invariance_residual > 1e-3


@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
def test_a_fiber_shift_that_is_not_finite_is_refused_on_a_real_class(shift):
    # an integer class refuses it as a non-integer; a real class refuses it
    # before a Lebesgue mean forms its exact constant term
    a = CohomologyClass([0.5, 0.25], coefficients="real")
    g = auto(rigid_rotation([0.1, 0.2]), shift)
    with pytest.raises(ValidationError, match="finite"):
        mean_translation_number(a, g, InvariantMeasure.lebesgue())
    with pytest.raises(ValidationError, match="finite"):
        local_translation_number(a, g, [0.1, 0.2])


def test_empirical_weights_are_validated():
    with pytest.raises(ValidationError):
        InvariantMeasure.empirical([[0.1], [0.2]], [0.7, 0.7])
    with pytest.raises(ValidationError):
        InvariantMeasure.empirical([[0.1], [0.2]], [1.5, -0.5])
    with pytest.raises(ValidationError, match="finite"):
        InvariantMeasure.empirical([[0.1, 0.2], [0.3, 0.4]], [float("nan"), 0.5])
    with pytest.raises(ValidationError, match="finite"):
        InvariantMeasure.empirical([[0.1, float("nan")], [0.3, 0.4]])
    with pytest.raises(ValidationError):
        InvariantMeasure.dirac_orbit([0.1], 0)
    with pytest.raises(ValidationError, match="period"):
        InvariantMeasure.dirac_orbit([0.1], POINT_CAP + 1)


def test_lebesgue_invariance_residual_vanishes_for_rotations():
    res = measure_invariance_residual(rigid_rotation([0.37, 0.61]), InvariantMeasure.lebesgue())
    assert res <= 1e-9


def test_genuine_orbit_measure_has_zero_pushforward_residual():
    res = measure_invariance_residual(
        rigid_rotation([0.25]), InvariantMeasure.dirac_orbit([0.05], 4)
    )
    assert res <= 1e-12


BUMPY = LiftedMap(
    evaluator=lambda x: np.asarray(x) + 0.05 * np.sin(2.0 * np.pi * np.asarray(x)),
    matrix=[[1, 0], [0, 1]],
    label="bumpy",
)


def put(out, values):
    """An integrand's values, written into the array `_measure_mean` hands it."""
    out[...] = values


@pytest.mark.parametrize(
    "mu",
    [
        InvariantMeasure.lebesgue(),
        InvariantMeasure.dirac_orbit([0.1, 0.35], 3),
        InvariantMeasure.empirical([[0.1, 0.2], [0.6, 0.7], [0.3, 0.9]], [0.5, 0.25, 0.25]),
    ],
    ids=lambda mu: mu.kind,
)
def test_invariance_residual_is_the_per_probe_difference_of_measure_means(mu):
    expected = 0.0
    for f, j in ((f, j) for f in _default_test_functions(2) for j in (0, 1)):  # cos, then sin
        pushed, _ = _measure_mean(lambda xs, ys, out, _f=f, _j=j: put(out, _f([reduce_point(y) for y in ys])[_j]), mu, 2, 64, BUMPY)
        plain, _ = _measure_mean(lambda xs, ys, out, _f=f, _j=j: put(out, _f(xs)[_j]), mu, 2, 64, BUMPY)
        if mu.kind == "lebesgue":
            # a nonconstant degree-1 character sums to exactly 0 over the
            # 64^2 midpoint grid: the residual takes that 0, not its rounding
            assert abs(plain) <= 1e-15
            plain = 0.0
        expected = max(expected, abs(pushed - plain))
    assert expected > 1e-3
    assert measure_invariance_residual(BUMPY, mu, quadrature_points=64) == expected


@pytest.mark.parametrize(
    "mu",
    [InvariantMeasure.dirac_orbit([0.1, 0.35], 64), InvariantMeasure.empirical([[0.1, 0.2], [0.6, 0.7]], [0.5, 0.5])],
    ids=lambda mu: mu.kind,
)
def test_a_checked_finite_mean_reads_its_points_once(mu):
    """The push-forward residual of an orbit or empirical mean reads the
    mean's points and images: no second walk, no second evaluation."""
    calls = []

    def evaluator(x):
        calls.append(np.shape(x))
        return BUMPY.evaluator(x)

    lift = LiftedMap(evaluator, np.eye(2, dtype=int), label="counted bumpy")
    g = auto(lift)
    plain = mean_translation_number(A10, g, mu, check_invariance=False)
    unchecked = len(calls)
    rep = mean_translation_number(A10, g, mu)
    assert len(calls) == 2 * unchecked
    assert rep.value == plain.value and rep.error_bound == plain.error_bound
    assert rep.invariance_residual == measure_invariance_residual(lift, mu)
    assert rep.invariance_residual > 1e-3 and rep.invariance_warning


def exact_dot(w, v):
    """sum_i w_i v_i, rounded once: each product split exactly into two
    floats (Dekker), then one math.fsum."""
    split = 2.0**27 + 1.0

    def halves(x):
        c = split * x
        hi = c - (c - x)
        return hi, x - hi

    p = w * v
    (wh, wl), (vh, vl) = halves(w), halves(v)
    err = ((wh * vh - p) + wh * vl + wl * vh) + wl * vl
    return math.fsum(np.concatenate([p, err]))


@pytest.mark.parametrize("weighted", [False, True], ids=["pairwise", "dot"])
def test_finite_mean_bounds_the_sum_that_runs(weighted):
    rng = np.random.default_rng(11)
    n = 2**20
    values = rng.uniform(-1.0, 3.0, n)
    values[0] = 3.0
    weights = rng.uniform(0.0, 1.0, n) if weighted else None
    if weighted:
        weights /= math.fsum(weights)
        truth = exact_dot(weights, values)
    else:
        truth = math.fsum(values) / n
    value, err = _finite_mean(values, weights)
    assert abs(value - truth) <= err
    # the rounding of the sum grows with the number of values
    few = _finite_mean(values[:16], None if weights is None else np.full(16, 1 / 16))
    assert few[1] < err


def test_lebesgue_mean_of_a_lift_without_lipschitz_data_is_an_estimate():
    assert BUMPY.displacement_lipschitz is None and BUMPY.lipschitz_bound is None
    rep = mean_translation_number(A10, auto(BUMPY), InvariantMeasure.lebesgue(), 64)
    assert rep.error_bound is None
    assert abs(rep.value) <= 1e-15  # the mean of 0.05 sin(2 pi x) is 0
    # finite sums keep their rounding bound
    orbit = mean_translation_number(A10, auto(BUMPY), InvariantMeasure.dirac_orbit([0.1, 0.35], 3))
    assert orbit.error_bound is not None


CUSP = TrigPolynomial(0.0, (0.2, 0.05), (0.1, 0.0))
# c of mean 0 and degree below the period: a skew orbit of omega = 1/10 closes
CLOSING = TrigPolynomial(0.0, (0.2,), (0.1,))
# two orbits of the quarter-lattice translations, weighted 3/20 and 1/10 per point
QUARTER_LATTICE = [(i / 2, j / 2) for i in (0, 1) for j in (0, 1)]
ROUTE_CASES = {
    # name: (class, mean map, isotopy, splitting generators, measure, m)
    "lebesgue": (
        CohomologyClass([1, 2]),
        auto(skew_translation(0.3, CUSP), 1),
        shear_isotopy(0.2),
        [auto(sinusoidal_shear(0.17), 1), auto(skew_translation(0.41, CUSP))],
        InvariantMeasure.lebesgue(),
        64,
    ),
    "lebesgue-aliased": (
        CohomologyClass([2]),
        auto(arnold_circle(0.3, 0.4), 1),
        straight_isotopy([0.37]),
        [auto(rigid_rotation([0.5]), 1), auto(rigid_rotation([1.5]))],
        InvariantMeasure.lebesgue(),
        2,
    ),
    "dirac_orbit": (
        A10,
        auto(sinusoidal_shear(0.1), 1),
        skew_isotopy(0.1, CUSP),
        [auto(skew_translation(0.1, CLOSING), 1), auto(rigid_rotation([0.7, 0.2]))],
        InvariantMeasure.dirac_orbit([0.05, 0.2], 10),
        64,
    ),
    "empirical": (
        CohomologyClass([1, -1]),
        auto(skew_translation(0.3, CUSP), 2),
        shear_isotopy(0.2),
        [auto(rigid_rotation([0.5, 0.0]), 1), auto(rigid_rotation([0.0, 0.5]))],
        InvariantMeasure.empirical(
            [(0.1 + u, 0.35 + v) for u, v in QUARTER_LATTICE] + [(0.2 + u, 0.05 + v) for u, v in QUARTER_LATTICE],
            [0.15] * 4 + [0.1] * 4,
        ),
        64,
    ),
}
# float.hex of the mean's value, error bound and residual, the homological
# mean's value and bound, the invariance residual and the two splitting
# residuals, as every measure route gave them before the routes shared a walk;
# the bounds of the orbit and empirical means are those of `_finite_mean`,
# whose rounding of the sum grows with the number of points
ROUTE_BITS = {
    "lebesgue": [
        "0x1.4cccccccccccdp+0", "0x1.97a791655db6ep-44", "0x1.c000000000000p-54", "0x1.0e40000000000p-61",
        "0x1.ecf15b517f253p-45", "0x1.c000000000000p-54", "0x1.0000000000000p-52", "0x1.2800000000000p-52",
    ],
    "lebesgue-aliased": [
        "0x1.999999999999ap+0", "0x1.6cccccccccccdp-46", "0x1.904b34fed8476p+0", "0x1.7ae147ae147afp-1",
        "0x1.95851eb851eb9p-47", "0x1.904b34fed8476p+0", "0x0.0p+0", "0x0.0p+0",
    ],
    "dirac_orbit": [
        "0x1.1858d80f69ddap+0", "0x1.0de13eab51becp-47", "0x1.eff0424826e5cp-6", "0x1.9999999999998p-4",
        "0x1.4b33333333334p-49", "0x1.eff0424826e5cp-6", "0x1.0000000000000p-51", "0x1.099999999999ap-51",
    ],
    "empirical": [
        "0x1.2748d24174cd3p+1", "0x1.3a835b0253e70p-47", "0x1.26b685dcba49bp-52", "-0x1.2641e0c728e74p-57",
        "0x1.40b8ab04fbe3ap-49", "0x1.26b685dcba49bp-52", "0x1.8000000000000p-50", "0x1.799999999999ap-50",
    ],
}


@pytest.mark.parametrize("name", list(ROUTE_CASES))
def test_every_measure_route_keeps_its_bits(name):
    a, g, iso, generators, mu, m = ROUTE_CASES[name]
    rep = _walked_mean(a, g, mu, m)
    hom = mean_homological_translation(a, iso, mu, m)
    split = splitting_check(a, generators, mu, pairs=6, quadrature_points=m, seed=3)
    got = [
        rep.value,
        rep.error_bound,
        rep.invariance_residual,
        hom.value,
        hom.error_bound,
        measure_invariance_residual(g.lift, mu, m),
        split.additivity_residual,
        split.mean_cocycle_residual,
    ]
    assert [float.hex(v) for v in got] == ROUTE_BITS[name]
    public = mean_translation_number(a, g, mu, m)
    if mu.kind != "lebesgue":
        assert public == rep
    else:  # a built-in family: its constant term, inside the grid route's bound
        assert public.error_bound == 0.0 and public.value == float(public.rational)
        assert abs(public.rational - Fraction(rep.value)) <= Fraction(rep.error_bound)
        # a skew map preserves Lebesgue measure by its Jacobian; an Arnold map keeps its probes
        source, residual = (None, got[5]) if name == "lebesgue-aliased" else ("jacobian", 0.0)
        assert (public.invariance_source, public.invariance_residual) == (source, residual)


def test_squaring_chart_map_visibly_breaks_lebesgue_invariance():
    square = LiftedMap(
        evaluator=lambda x: np.asarray(x, dtype=float) ** 2,
        matrix=[[1]],
        label="square-chart",
    )
    mu = InvariantMeasure.lebesgue()
    coarse = measure_invariance_residual(square, mu, quadrature_points=512)
    fine = measure_invariance_residual(square, mu, quadrature_points=2048)
    assert coarse > 0.1
    # the residual is a property of the map, not a quadrature artifact
    assert abs(coarse - fine) < 0.01


# -- perturbed primitives ----------------------------------------------------


def test_zero_perturbation_changes_nothing():
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0))
    g = auto(rigid_rotation([0.3]), 1)
    x = [0.17]
    assert perturbed_rho(A1, g, x, pert) == rho(A1, g, x)


def test_perturbed_rho_worked_example():
    # rho = 0.5 and beta = 0.025 sin(2 pi x) moves it by -0.05 across the step
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0, (0.0,), (0.025,)))
    g = auto(rigid_rotation([0.5]))
    assert perturbed_rho(A1, g, [0.25], pert) == pytest.approx(0.45, abs=1e-12)


def test_perturbation_telescopes_away_over_a_closed_orbit():
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0, (0.0,), (0.025,)))
    g = auto(rigid_rotation([0.5]))
    for n in (2, 4, 8):
        avg = perturbed_rho_power_average(A1, g, [0.25], pert, n)
        assert avg == pytest.approx(rho_power_average(A1, g, [0.25], n), abs=1e-14)


def test_perturbed_average_stays_within_the_sup_bound_window():
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0, (0.1,), (0.05,)))
    g = auto(rigid_rotation([GOLDEN]))
    n = 1000
    plain = rho_power_average(A1, g, [0.0], n)
    moved = perturbed_rho_power_average(A1, g, [0.0], pert, n)
    assert abs(moved - plain) <= 2.0 * pert.sup_bound / n + 1e-12


def per_point_perturbed_average(a, g, x, pert, n):
    """The perturbed average summed as a per-point loop: each step images
    the point, reads beta with `pert.value` and pairs with np.dot. The
    library reads the orbit in blocks; this is the reference it must equal
    bit for bit."""
    c = float(g.fiber_shift)
    cur = reduce_point(np.atleast_1d(np.asarray(x, dtype=float)))
    s, b_cur = 0.0, pert.value(cur)
    for _ in range(n):
        image = g.lift(cur)
        nxt = reduce_point(image)
        b_next = pert.value(nxt)
        s += float(np.dot(a.vector, image - cur)) + c + b_next - b_cur
        cur, b_cur = nxt, b_next
    return s / n


def stacked_orbit_mean(a, g, x, q):
    """(value, error) of the q-orbit mean of rho with the orbit walked
    point by point and its stack imaged again by one `evaluate_many`."""
    pts, cur = np.empty((q, a.dimension)), reduce_point(np.asarray(x, dtype=float))
    for i in range(q):
        pts[i] = cur
        cur = reduce_point(g.lift(cur))
    values = dynamics._rho_values(pts.T, g.lift.evaluate_many(pts).T, a.vector, float(g.fiber_shift))
    return _finite_mean(values, None)


def sampled_pairs(count, seed):
    """(class, map, point) of `count` sampled built-in maps on T^1 and T^2 in turn."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        a = CohomologyClass(sample_class_entries(rng, 1 + i % 2))
        g = auto(sample_map(rng, a.entries), sample_fiber_shift(rng))
        yield a, g, rng.uniform(0.0, 1.0, size=a.dimension)


@pytest.mark.parametrize("block", [dynamics.GRID_BLOCK, 97], ids=["one-block", "blocks-of-97"])
def test_block_walks_equal_the_per_point_routes_to_the_bit(block, monkeypatch):
    monkeypatch.setattr(dynamics, "GRID_BLOCK", block)
    for i, (a, g, x) in enumerate(sampled_pairs(16, 2718)):
        pert = CochainPerturbation.from_trig(TrigPolynomial(0.01 * i, (0.1,), (0.2,)), axis=a.dimension - 1)
        n = 300 + 7 * i
        assert perturbed_rho_power_average(a, g, x, pert, n) == per_point_perturbed_average(a, g, x, pert, n)
        rep = _walked_mean(a, g, InvariantMeasure.dirac_orbit(x, 50 + i), QUADRATURE_POINTS, check_invariance=False)
        assert (rep.value, rep.error_bound) == stacked_orbit_mean(a, g, x, 50 + i)


def test_perturbed_rho_images_its_point_once_and_equals_the_two_call_route():
    for i, (a, g, x) in enumerate(sampled_pairs(16, 1009)):
        pert = CochainPerturbation.from_trig(TrigPolynomial(0.01 * i, (0.1,), (0.2,)), axis=a.dimension - 1)
        calls = []

        def evaluator(p, _f=g.lift.evaluator):
            calls.append(np.shape(p))
            return _f(p)

        counted = auto(LiftedMap(evaluator, g.lift.matrix), g.fiber_shift)
        two_calls = rho(a, g, x) + pert.value(reduce_point(g.lift(x))) - pert.value(reduce_point(x))
        assert perturbed_rho(a, counted, x, pert) == two_calls
        assert len(calls) == 1


def test_perturbed_average_memory_does_not_grow_with_n(monkeypatch):
    # a smaller block keeps the traced run short: the two n walk 5 and 20
    # blocks, and the peak holds one block whatever n is
    monkeypatch.setattr(dynamics, "GRID_BLOCK", 1 << 8)
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0, (0.1,), (0.05,)), axis=1)
    g = auto(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))))
    peaks = []
    for n in (1250, 5000):
        tracemalloc.start()
        try:
            perturbed_rho_power_average(A01, g, [0.2, 0.7], pert, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 4 * 1024 and peaks[1] < 64 * 1024, peaks


def counted(lift, imaged):
    """lift with an evaluator that appends the number of points of each call to `imaged`."""

    def evaluator(x):
        imaged.append(np.size(x) // lift.dimension)
        return lift.evaluator(x)

    return LiftedMap(evaluator, lift.matrix, label=f"counted {lift.label}")


def test_an_orbit_measure_images_each_point_once(monkeypatch):
    monkeypatch.setattr(dynamics, "GRID_BLOCK", 64)  # 300 points walk 5 blocks
    imaged = []
    lift = counted(BUMPY, imaged)
    mu = InvariantMeasure.dirac_orbit([0.1, 0.35], 300)
    rep = mean_translation_number(A10, auto(lift), mu)  # the mean and its probes read one walk
    assert imaged == [1] * 300 and rep.invariance_residual > 1e-3
    imaged.clear()
    measure_invariance_residual(lift, mu)
    assert imaged == [1] * 300


def test_an_orbit_measure_of_a_word_images_each_point_once_letter_by_letter(monkeypatch):
    monkeypatch.setattr(dynamics, "GRID_BLOCK", 64)  # 300 points walk 5 blocks
    imaged, stacks = [], []
    np_step, evaluate_many = _kernels.np_step, LiftedMap.evaluate_many

    def counted_step(code, params, x0, x1):
        imaged.append((code, np.size(x0)))
        return np_step(code, params, x0, x1)

    def counted_stack(self, points):
        stacks.append(len(points))
        return evaluate_many(self, points)

    monkeypatch.setattr(_kernels, "np_step", counted_step)
    monkeypatch.setattr(LiftedMap, "evaluate_many", counted_stack)
    skew = skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,)))
    shear, rigid = sinusoidal_shear(0.1), rigid_rotation([0.2, 0.45])
    word = skew.compose(shear).compose(rigid)
    mu = InvariantMeasure.dirac_orbit([0.1, 0.35], 300)
    rep = mean_translation_number(A01, auto(word, 2), mu)  # the mean and its probes read one walk
    # each point once, by its three letters in turn, and no stack
    letters = [(_kernels.RIGID, 1), (_kernels.SINE_SHEAR, 1), (_kernels.SKEW, 1)]
    assert imaged == letters * 300 and stacks == []
    # the same bits as the orbit walked point by point and its stack imaged
    # again, each letter's evaluator after the other's on the whole stack
    monkeypatch.undo()
    stacked = LiftedMap(lambda x: skew.evaluator(shear.evaluator(rigid.evaluator(x))), np.eye(2, dtype=int))
    assert (rep.value, rep.error_bound) == stacked_orbit_mean(A01, auto(stacked, 2), [0.1, 0.35], 300)


WRONG_SHAPES = [lambda x: np.asarray(x)[..., :1] + 0.3, lambda x: float(np.asarray(x)[0]) + 0.3]


@pytest.mark.parametrize("image", WRONG_SHAPES, ids=["one-coordinate", "scalar"])
def test_an_evaluator_of_the_wrong_shape_is_refused_on_an_orbit(image):
    g = auto(LiftedMap(image, np.eye(2, dtype=int), label="short"))
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0, (0.1,), (0.05,)))
    with pytest.raises(ValidationError, match="shape"):
        mean_translation_number(A10, g, InvariantMeasure.dirac_orbit([0.1, 0.35], 5))
    with pytest.raises(ValidationError, match="shape"):
        perturbed_rho_power_average(A10, g, [0.1, 0.35], pert, 5)


@pytest.mark.parametrize("image", WRONG_SHAPES, ids=["one-coordinate", "scalar"])
def test_an_evaluator_of_the_wrong_shape_is_refused_at_a_point_and_on_a_limit(image):
    # the class (1, 1) pairs both coordinates, which a short image would drop
    a = CohomologyClass([1, 1])
    g = auto(LiftedMap(image, np.eye(2, dtype=int), label="short"))
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0, (0.1,), (0.05,)))
    with pytest.raises(ValidationError, match="shape"):
        rho(a, g, [0.1, 0.35])
    with pytest.raises(ValidationError, match="shape"):
        perturbed_rho(a, g, [0.1, 0.35], pert)
    with pytest.raises(ValidationError, match="shape"):
        local_translation_number(a, g, [0.1, 0.35])


def test_a_hand_built_orbit_checks_its_shape_once_at_the_start():
    calls = []

    def evaluator(x):
        calls.append(np.shape(x))
        return BUMPY.evaluator(x)

    g = auto(LiftedMap(evaluator, np.eye(2, dtype=int)))
    rep = local_translation_number(A10, g, [0.1, 0.35], max_iterations=64)
    # one call per step, and one on the start: the check
    assert calls == [(2,)] * (rep.iterations + 1)


def test_a_beta_of_the_wrong_shape_is_refused_in_the_perturbed_average():
    pert = CochainPerturbation(func=lambda pts: 0.1 * np.asarray(pts)[:, :1], sup_bound=0.1)
    with pytest.raises(ValidationError, match="shape"):
        perturbed_rho_power_average(A10, auto(rigid_rotation([0.3, 0.1])), [0.1, 0.35], pert, 5)


def test_understated_sup_bound_is_rejected():
    with pytest.raises(ValidationError):
        CochainPerturbation(func=lambda pts: np.full(pts.shape[0], 2.0), sup_bound=1.0)


def test_sup_bound_check_samples_the_second_dimension_when_the_first_does_not_fit():
    def beta(pts):
        if pts.shape[1] != 2:
            raise IndexError("a function on T^2")
        return np.full(pts.shape[0], 2.0)

    with pytest.raises(ValidationError):
        CochainPerturbation(func=beta, sup_bound=1.0)


def test_sup_bound_check_propagates_other_errors():
    def beta(pts):
        raise ZeroDivisionError("broken beta")

    with pytest.raises(ZeroDivisionError):
        CochainPerturbation(func=beta, sup_bound=1.0)
