"""The coefficient routes of built-in families: exact Lebesgue means and
certified sups, checked against the grid routes and dense samples."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from transnum import (
    BundleAutomorphism,
    CohomologyClass,
    InvariantMeasure,
    MODE_CERTIFIED,
    TrigPolynomial,
    arnold_circle,
    mean_translation_number,
    rho_many,
    rigid_rotation,
    seminorm,
    sinusoidal_shear,
    skew_translation,
    torus_affine,
)
from transnum.distortion import _grid_seminorm
from transnum.dynamics import _displacement_coefficients, _lebesgue_bound, _walked_mean

LEBESGUE = InvariantMeasure.lebesgue()
DENSE = 1 << 20

entries = st.integers(-3, 3)
shifts = st.integers(-3, 3)
reals = st.floats(-2.0, 2.0, allow_nan=False)
coefficients = st.floats(-0.5, 0.5, allow_nan=False)


@st.composite
def rigid_maps(draw):
    n = draw(st.integers(1, 3))
    a = CohomologyClass([draw(entries) for _ in range(n)])
    return a, BundleAutomorphism(rigid_rotation([draw(reals) for _ in range(n)]), draw(shifts))


@st.composite
def affine_maps(draw):
    """x -> M x + v with M lower unitriangular, which fixes a = (a_0, 0, ..., 0)."""
    n = draw(st.integers(1, 3))
    matrix = [[1 if i == j else (draw(st.integers(-2, 2)) if j < i else 0) for j in range(n)] for i in range(n)]
    a = CohomologyClass([draw(entries)] + [0] * (n - 1))
    return a, BundleAutomorphism(torus_affine(matrix, [draw(reals) for _ in range(n)]), draw(shifts))


@st.composite
def arnold_maps(draw):
    k = draw(st.floats(-0.95, 0.95, allow_nan=False))
    return CohomologyClass([draw(entries)]), BundleAutomorphism(arnold_circle(draw(reals), k), draw(shifts))


@st.composite
def sinshear_maps(draw):
    a = CohomologyClass([draw(entries), draw(entries)])
    return a, BundleAutomorphism(sinusoidal_shear(draw(coefficients)), draw(shifts))


@st.composite
def skew_maps(draw):
    d = draw(st.integers(0, 4))
    poly = TrigPolynomial(
        draw(coefficients),
        tuple(draw(coefficients) for _ in range(d)),
        tuple(draw(coefficients) for _ in range(d)),
    )
    a = CohomologyClass([draw(entries), draw(entries)])
    return a, BundleAutomorphism(skew_translation(draw(reals), poly), draw(shifts))


built_in_maps = st.one_of(rigid_maps(), affine_maps(), arnold_maps(), sinshear_maps(), skew_maps())


def dense_points(axis, n, rng):
    """DENSE points whose axis coordinate runs over the grid j / DENSE, which
    holds the corner points of every power-of-two grid; the other
    coordinates are random."""
    pts = rng.uniform(0.0, 1.0, size=(DENSE, n))
    pts[:, axis] = np.arange(DENSE) / DENSE
    return pts


@settings(max_examples=40)
@given(case=built_in_maps)
def test_the_coefficient_mean_lies_within_the_grid_bound(case):
    a, g = case
    d = len(_displacement_coefficients(a, g.lift, g.fiber_shift)[2])
    exact = mean_translation_number(a, g, LEBESGUE)
    assert exact.error_bound == 0.0 and exact.value == float(exact.rational)
    for m in (d + 1, 64):
        grid = _walked_mean(a, g, LEBESGUE, m, check_invariance=False)
        bound = _lebesgue_bound(a, g.lift, float(g.fiber_shift), m)
        assert abs(exact.rational - Fraction(grid.value)) <= Fraction(bound), m


@settings(max_examples=40)
@given(case=built_in_maps, pick=st.sampled_from(["1", "2", "2d", "2d+1", "64"]))
def test_the_coefficient_sup_lies_between_a_dense_maximum_and_its_certified_side(case, pick):
    a, g = case
    axis, _, pairs = _displacement_coefficients(a, g.lift, g.fiber_shift)
    d = len(pairs)
    m = {"2d": max(1, 2 * d), "2d+1": 2 * d + 1}.get(pick) or int(pick)
    rep = seminorm(a, g, m, MODE_CERTIFIED)
    dense = float(np.max(np.abs(rho_many(a, g, dense_points(axis, a.dimension, np.random.default_rng(m))))))
    # the certified side bounds the sup and every computed value of rho
    assert rep.rigorous and max(rep.estimate, dense) <= rep.certified_upper
    if d <= 1:  # the closed form: the certified side is the crest up to rounding
        assert rep.certified_upper <= dense * (1 + 1e-10) + 1e-12
    elif m > 2 * d:  # Bernstein-Szego: a corner point sees the crest within 1/cos(pi d / m)
        assert rep.certified_upper <= dense / np.cos(np.pi * d / m) + 1e-12
    # the grid route's certified side is an upper bound too, with its cell term
    assert dense <= _grid_seminorm(a, g, min(m, 64), MODE_CERTIFIED).certified_upper + 1e-12
