"""The two-variable displacement cocycle: identities, quadrature, splitting."""

import dataclasses
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transnum import dynamics, galkedra
from transnum import (
    BundleAutomorphism,
    ClassNotPreserved,
    LiftedMap,
    CohomologyClass,
    Coefficients,
    InvariantMeasure,
    PreconditionError,
    TrigPolynomial,
    ValidationError,
    arnold_circle,
    coboundary_residual,
    coboundary_residual_suite,
    cocycle_residual,
    cocycle_residual_suite,
    fiber_translation,
    gal_kedra,
    gal_kedra_many,
    gal_kedra_quadrature,
    identity_lift,
    quasimorphism_defect,
    rho,
    rigid_rotation,
    sinusoidal_shear,
    skew_translation,
    splitting_check,
    torus_affine,
)
from transnum.families import sample_class_entries, sample_fiber_shift, sample_map
from transnum.galkedra import _complex_step
from transnum.torus import reduce_point

A1 = CohomologyClass([1])
A10 = CohomologyClass([1, 0])
A01 = CohomologyClass([0, 1])
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

SHEAR = sinusoidal_shear(0.1)
QUARTER_TURN = rigid_rotation([0.0, 0.25])
AFFINE = torus_affine([[1, 0], [2, 1]], [0.25, 0.0])


def test_identity_in_either_slot_gives_zero():
    e = identity_lift(2)
    x = [0.3, 0.7]
    assert gal_kedra(A10, e, SHEAR, x) == 0.0
    assert gal_kedra(A10, SHEAR, e, x) == 0.0


def test_shear_against_quarter_turn_worked_example():
    # the shear displacement is 0.1 sin(2 pi x_2); moving x_2 from 0 to 1/4
    # sweeps that displacement from 0 up to its crest
    value = gal_kedra(A10, SHEAR, QUARTER_TURN, [0.3, 0.0])
    assert value == pytest.approx(0.1, abs=1e-15)


def test_rigid_first_slot_means_no_cocycle_at_all():
    # constant displacement: the difference is pure cancellation noise
    g = rigid_rotation([GOLDEN, 0.2])
    assert abs(gal_kedra(A10, g, AFFINE, [0.1, 0.9])) <= 1e-15
    assert abs(gal_kedra_quadrature(A10, g, AFFINE, [0.1, 0.9], segments=50)) <= 1e-15


def test_quadrature_recovers_the_closed_form():
    closed = gal_kedra(A10, SHEAR, QUARTER_TURN, [0.3, 0.0])
    quad = gal_kedra_quadrature(A10, SHEAR, QUARTER_TURN, [0.3, 0.0])
    assert quad == pytest.approx(closed, abs=1e-6)


def test_quadrature_is_exact_for_affine_maps():
    closed = gal_kedra(A10, AFFINE, QUARTER_TURN, [0.6, 0.35])
    quad = gal_kedra_quadrature(A10, AFFINE, QUARTER_TURN, [0.6, 0.35], segments=7)
    assert quad == pytest.approx(closed, abs=1e-12)


DERIVATIVE_CASES = [
    ("rigid", rigid_rotation([GOLDEN, 0.2]), [0.3, 0.8]),
    ("affine", AFFINE, [0.6, 0.35]),
    ("arnold", arnold_circle(0.3, 0.9), [0.2]),
    ("arnold-inverse", arnold_circle(0.3, 0.9).invert(), [0.7]),
    ("sinshear", SHEAR, [0.3, 0.1]),
    ("skew", skew_translation(GOLDEN, TrigPolynomial(0.1, (0.05, -0.02, 0.01), (0.1, 0.03, -0.04))), [0.15, 0.4]),
    ("composed", SHEAR.compose(skew_translation(0.3, TrigPolynomial(0.2, (0.1,), (0.05,)))), [0.45, 0.6]),
]


@pytest.mark.parametrize("name, g, x", DERIVATIVE_CASES, ids=[c[0] for c in DERIVATIVE_CASES])
def test_complex_step_matches_a_central_difference(name, g, x):
    rng = np.random.default_rng(7)
    pts = np.asarray(x) + rng.uniform(-1.0, 1.0, size=(16, len(x)))
    v = rng.uniform(-1.0, 1.0, size=len(x))
    dt = 1e-6
    central = (g.evaluate_many(pts + dt * v) - g.evaluate_many(pts - dt * v)) / (2.0 * dt)
    assert np.max(np.abs(_complex_step(g, pts, v) - central)) <= 1e-7


def test_quadrature_refuses_a_real_only_evaluator():
    real_only = LiftedMap(evaluator=lambda x: np.asarray(x).real + 0.25, matrix=[[1]], label="real-only")
    with pytest.raises(ValidationError):
        gal_kedra_quadrature(A1, real_only, rigid_rotation([0.5]), [0.1])


def test_quadrature_validates_segments():
    with pytest.raises(ValidationError):
        gal_kedra_quadrature(A10, SHEAR, QUARTER_TURN, [0.0, 0.0], segments=0)
    with pytest.raises(ValidationError, match=str(dynamics.POINT_CAP)):
        gal_kedra_quadrature(A10, SHEAR, QUARTER_TURN, [0.0, 0.0], segments=10**12)


# -- the Gauss–Legendre rule and its error bound ------------------------------


def test_a_built_in_pair_reports_its_nodes_and_bound():
    quad = gal_kedra_quadrature(A10, SHEAR, QUARTER_TURN, [0.3, 0.0])
    assert isinstance(quad, galkedra.LineIntegral) and isinstance(quad, float)
    assert quad.nodes == 8
    assert 0.0 < quad.error_bound <= 1e-12
    assert abs(quad - 0.1) <= quad.error_bound
    # the cap takes the rule below its first count
    capped = gal_kedra_quadrature(A10, SHEAR, QUARTER_TURN, [0.3, 0.0], segments=3)
    assert capped.nodes == 3 and abs(capped - 0.1) <= capped.error_bound


def test_a_lift_without_coefficients_takes_the_cap_and_no_bound():
    word = SHEAR.compose(skew_translation(0.3, TrigPolynomial(0.2, (0.1,), (0.05,))))
    for segments, nodes in ((10_000, galkedra.GAUSS_MAX_NODES), (20, 20)):
        quad = gal_kedra_quadrature(A10, word, QUARTER_TURN, [0.45, 0.6], segments=segments)
        assert quad.nodes == nodes and quad.error_bound is None
    closed = gal_kedra(A10, word, QUARTER_TURN, [0.45, 0.6])
    assert abs(quad - closed) <= 1e-12


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    prev, cur = mpmath.mpf(1), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, n * (x * cur - prev) / (x * x - 1)


def test_the_float_nodes_and_weights_are_within_their_allowance():
    # every node count the rule can take: GAUSS_NODE_COUNTS, or any cap below
    u = dynamics.UNIT_ROUNDOFF
    with mpmath.workprec(200):
        for n in range(1, galkedra.GAUSS_MAX_NODES + 1):
            t, w = galkedra._gauss_rule(n)
            assert not t.flags.writeable and abs(sum(w) - 1.0) <= n * u
            node_error = weight_error = mpmath.mpf(0)
            for ti, wi in zip(t, w):
                s = mpmath.mpf(2 * float(ti) - 1.0) if n > 1 else mpmath.mpf(0)
                for _ in range(4):  # Newton from the float node: 2^-53, 2^-106, ...
                    p, dp = _legendre(n, s)
                    s -= p / dp
                node_error = max(node_error, abs(mpmath.mpf(float(ti)) - (s + 1) / 2))
                weight_error += abs(mpmath.mpf(float(wi)) - 1 / ((1 - s * s) * dp * dp))
            assert node_error <= galkedra.GAUSS_NODE_ULPS * u, n
            assert weight_error <= galkedra.GAUSS_WEIGHT_ULPS * u, n


OMEGA = 2.099


def test_the_truncation_bound_of_n_nodes_has_exponent_two_n_minus_two():
    # Trefethen's I_m takes m + 1 nodes. At 8 nodes int_{-1}^{1} cos(OMEGA s) ds
    # errs by 2.97e-13, on [0, 1] by half that: above the rho^(-2n) value
    # and below the rho^(-2(n - 1)) value, both at rho = 16, the best of
    # GAUSS_RHOS here. |cos(OMEGA (2 t - 1))| <= cosh(2 OMEGA sigma) on
    # |Im t| <= sigma.
    t, w = galkedra._gauss_rule(8)
    with mpmath.workprec(200):
        error = float(abs(mpmath.mpf(float(np.dot(w, np.cos(OMEGA * (2.0 * t - 1.0))))) - mpmath.sin(OMEGA) / OMEGA))
    assert error == pytest.approx(2.97e-13 / 2, rel=0.01)
    bound = galkedra._gauss_truncation(8, lambda sigma: math.cosh(2.0 * OMEGA * sigma))
    at_16 = 0.5 * (64 / 15) * math.cosh(OMEGA * (16 - 1 / 16) / 2) * 16.0**-14 / (16.0**2 - 1)
    assert bound == pytest.approx(at_16, rel=1e-12)
    assert bound / 16**2 < error <= bound


# (a, g, g's pairs (A_k, B_k) and their axis, h, x): v = h(x) - x moves
# that axis by 1.2 and 0.9
TRUNCATION_CASES = {
    "sinshear": (A10, SHEAR, [(0.0, 0.1)], 1, AFFINE, [0.6, 0.35]),
    "skew": (
        CohomologyClass([1, 2]),
        skew_translation(0.3, TrigPolynomial(0.2, (0.05, -0.02), (0.1, 0.03))),
        [(0.1, 0.2), (-0.04, 0.06)],
        0,
        rigid_rotation([0.9, 0.2]),
        [0.15, 0.4],
    ),
}


@pytest.mark.parametrize("name", list(TRUNCATION_CASES))
def test_the_truncation_bound_reads_the_sup_of_the_integrand(name):
    # at 4 nodes the truncation term dwarfs the rounding term, so the bound is
    # the least over GAUSS_RHOS of (32/15) M rho^-6 / (rho^2 - 1), with
    # M = 2 pi s sum_k k hypot(A_k, B_k) cosh(2 pi k s (rho - 1/rho) / 4)
    a, g, pairs, axis, h, x = TRUNCATION_CASES[name]
    s = abs(h(np.asarray(x))[axis] - x[axis])

    def sup(rho):
        sigma = (rho - 1 / rho) / 4
        return 2 * math.pi * s * sum(k * math.hypot(*p) * math.cosh(2 * math.pi * k * s * sigma) for k, p in enumerate(pairs, 1))

    want = min((32 / 15) * sup(rho) * rho**-6 / (rho * rho - 1) for rho in galkedra.GAUSS_RHOS)
    quad = gal_kedra_quadrature(a, g, h, x, segments=4)
    assert quad.nodes == 4
    assert quad.error_bound == pytest.approx(want, rel=1e-6)
    assert abs(quad - gal_kedra(a, g, h, x)) <= quad.error_bound


unit = st.floats(0.0, 1.0)
small = st.floats(-0.3, 0.3)
TAU = 2 * mpmath.pi


def _rigid(v):
    return rigid_rotation(list(v)), lambda y: [mpmath.mpf(t) for t in v]


def _arnold(omega, k):
    return arnold_circle(omega, k), lambda y: [omega + k / TAU * mpmath.sin(TAU * y[0])]


def _shear(eps):
    return sinusoidal_shear(eps), lambda y: [eps * mpmath.sin(TAU * y[1]), 0]


def _skew(omega, poly):
    def disp(y):
        terms = zip(poly.cos_coeffs, poly.sin_coeffs)
        c = sum(a * mpmath.cos(TAU * k * y[0]) + b * mpmath.sin(TAU * k * y[0]) for k, (a, b) in enumerate(terms, 1))
        return [omega, poly.constant + c]

    return skew_translation(omega, poly), disp


def _affine(c, v):
    return torus_affine([[1, 0], [c, 1]], list(v)), lambda y: [v[0], c * y[0] + v[1]]


polys = st.integers(1, 3).flatmap(
    lambda d: st.builds(TrigPolynomial, small, st.tuples(*[small] * d), st.tuples(*[small] * d))
)


@st.composite
def quadrature_pairs(draw):
    """(a, (g, disp_g), h, x): built-in maps fixing a, with g's displacement
    in 200-bit arithmetic. On T^2 the shears [[1, 0], [c, 1]] fix a = (a_0, 0),
    and as h they move x by up to 3 along y, the axis of a sinshear g."""
    if draw(st.booleans()):
        a = CohomologyClass([draw(st.sampled_from([-2, -1, 1, 2]))])
        maps = st.one_of(st.builds(_rigid, st.tuples(st.floats(-1.0, 1.0))), st.builds(_arnold, unit, st.floats(-0.9, 0.9)))
        x = [draw(unit)]
    else:
        a0, a1 = draw(st.sampled_from([-2, -1, 1, 2])), draw(st.sampled_from([-2, -1, 0, 0, 1, 2]))
        a = CohomologyClass([a0, a1])
        options = [st.builds(_rigid, st.tuples(unit, unit)), st.builds(_shear, small), st.builds(_skew, unit, polys)]
        if a1 == 0:
            options.append(st.builds(_affine, st.integers(-2, 2), st.tuples(unit, unit)))
        maps = st.one_of(options)
        x = [draw(unit), draw(unit)]
    return a, draw(maps), draw(maps)[0], x


@settings(max_examples=300)
@given(pair=quadrature_pairs(), segments=st.one_of(st.integers(1, galkedra.GAUSS_MAX_NODES), st.just(10_000)))
def test_the_line_integral_lies_within_its_error_bound(pair, segments):
    # against the 200-bit integral along the float segment x~ + t v:
    # rho_g(x~ + v) - rho_g(x~), with rho_g = <a, g(y) - y>
    a, (g, disp), h, x = pair
    quad = gal_kedra_quadrature(a, g, h, x, segments=segments)
    assert quad.nodes <= segments and quad.error_bound is not None
    xt = np.asarray(x, dtype=float)
    v = h(xt) - xt
    with mpmath.workprec(200):
        start = [mpmath.mpf(float(t)) for t in xt]
        end = [s + mpmath.mpf(float(t)) for s, t in zip(start, v)]

        def rho_g(y):
            return sum(e * d for e, d in zip(a.entries, disp(y)))

        error = abs(mpmath.mpf(float(quad)) - (rho_g(end) - rho_g(start)))
        assert error <= quad.error_bound


def test_value_does_not_depend_on_the_chosen_lifts():
    x = [0.42, 0.17]
    base = gal_kedra(A10, SHEAR, AFFINE, x)
    for m in ([1, -2], [3, 0]):
        deck = rigid_rotation([float(v) for v in m])
        assert gal_kedra(A10, deck.compose(SHEAR), AFFINE, x) == pytest.approx(
            base, abs=1e-12
        )
        assert gal_kedra(A10, SHEAR, deck.compose(AFFINE), x) == pytest.approx(
            base, abs=1e-12
        )


def test_vectorized_evaluation_matches_the_scalar_one():
    pts = np.random.default_rng(11).uniform(0, 1, size=(30, 2))
    vec = gal_kedra_many(A10, SHEAR, AFFINE, pts)
    for p, v in zip(pts, vec):
        assert v == pytest.approx(gal_kedra(A10, SHEAR, AFFINE, p), abs=1e-14)


def test_coboundary_identity_with_real_class_and_fractional_shifts():
    a = CohomologyClass([0.7, 0.0], coefficients=Coefficients.REAL)
    g = BundleAutomorphism(SHEAR, 2.5)
    h = BundleAutomorphism(AFFINE, -1.3)
    assert coboundary_residual(a, g, h, [0.21, 0.68]) <= 1e-12
    assert coboundary_residual(a, h, g, [0.21, 0.68]) <= 1e-12


def test_cocycle_identity_for_three_distinct_maps():
    res = cocycle_residual(A10, SHEAR, AFFINE, QUARTER_TURN, [0.15, 0.55])
    assert res <= 1e-12


def test_seeded_residual_suites_stay_at_float_noise():
    cob = coboundary_residual_suite(seed=5, count=200)
    coc = cocycle_residual_suite(seed=6, count=200)
    assert cob.count == 200 and coc.count == 200
    assert cob.dimensions == (1, 2)
    assert cob.max_residual <= 1e-12
    assert coc.max_residual <= 1e-12


def test_defect_vanishes_on_commuting_rotations():
    els = [
        BundleAutomorphism(rigid_rotation([GOLDEN, 0.2]), 1),
        BundleAutomorphism(rigid_rotation([0.1, 0.7])),
    ]
    assert quasimorphism_defect(A10, els, [0.0, 0.0]) <= 1e-12


def test_defect_sees_genuine_non_additivity():
    els = [BundleAutomorphism(SHEAR), BundleAutomorphism(QUARTER_TURN)]
    assert quasimorphism_defect(A10, els, [0.0, 0.0]) > 0.01
    with pytest.raises(ValidationError):
        quasimorphism_defect(A10, [], [0.0, 0.0])


# -- additivity of the mean on measure-preserving groups ----------------------


def test_splitting_on_a_commuting_rotation_group():
    gens = [
        BundleAutomorphism(rigid_rotation([GOLDEN, 0.2]), 1),
        BundleAutomorphism(rigid_rotation([0.1, 0.7])),
    ]
    rep = splitting_check(A10, gens, InvariantMeasure.lebesgue(), pairs=25, seed=1)
    assert rep.additivity_residual <= 1e-9
    assert rep.mean_cocycle_residual <= 1e-9
    assert rep.splitting_residual == rep.additivity_residual
    assert rep.measure_kind == "lebesgue"
    assert all(r <= 1e-9 for r in rep.generator_invariance)


def test_splitting_on_skew_translations_over_one_rotation():
    gens = [
        BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,)))),
        BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(-0.1, (0.2,), ())), 1),
    ]
    rep = splitting_check(A01, gens, InvariantMeasure.lebesgue(), pairs=25, seed=2)
    assert rep.additivity_residual <= 1e-6
    assert rep.mean_cocycle_residual <= 1e-6


def test_splitting_on_the_central_translation_alone():
    rep = splitting_check(
        A1, [fiber_translation(1, 2)], InvariantMeasure.lebesgue(), pairs=10
    )
    assert rep.additivity_residual <= 1e-12
    assert rep.mean_cocycle_residual <= 1e-12


def test_splitting_refuses_measure_breaking_generators():
    gens = [BundleAutomorphism(arnold_circle(0.3, 0.9))]
    with pytest.raises(PreconditionError):
        splitting_check(A1, gens, InvariantMeasure.lebesgue(), pairs=5)
    with pytest.raises(ValidationError):
        splitting_check(A1, [], InvariantMeasure.lebesgue())


def test_splitting_means_skip_the_unread_error_bound(monkeypatch):
    """The residuals are those of the walked means (`dynamics._walked_mean`),
    bit for bit, and no `_lebesgue_bound` is computed for them."""
    gens = [
        BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,)))),
        BundleAutomorphism(sinusoidal_shear(0.1), 1),
    ]
    mu = InvariantMeasure.lebesgue()
    rng = np.random.default_rng(4)
    want = 0.0
    for _ in range(6):
        gw, hw = galkedra._random_word(rng, gens), galkedra._random_word(rng, gens)
        fg, fh, fgh = (
            dynamics._walked_mean(A01, w, mu, quadrature_points=16, check_invariance=False).value
            for w in (gw, hw, gw.compose(hw))
        )
        want = max(want, abs(fgh - fg - fh))
    monkeypatch.setattr(dynamics, "_lebesgue_bound", None)  # any call would fail
    rep = splitting_check(A01, gens, mu, pairs=6, quadrature_points=16, seed=4)
    assert rep.additivity_residual == want


def test_splitting_refuses_words_that_move_the_class():
    # [[1, 1], [0, 1]] preserves Lebesgue measure and sends (1, 0) to (1, 1)
    gens = [BundleAutomorphism(torus_affine([[1, 1], [0, 1]], [0.0, 0.0]))]
    with pytest.raises(ClassNotPreserved):
        splitting_check(A10, gens, InvariantMeasure.lebesgue(), pairs=1)


# -- each check images every point once ---------------------------------------


def counting(lift, calls, key):
    """lift with an evaluator that counts its calls in calls[key]; no kernel
    spec, so grids are imaged through the evaluator too."""

    def evaluator(x, _f=lift.evaluator):
        calls[key] += 1
        return _f(x)

    return dataclasses.replace(lift, evaluator=evaluator, kernel_spec=None)


def test_a_cocycle_draw_images_six_times():
    calls = Counter()
    g, h, k = (counting(f, calls, key) for f, key in ((SHEAR, "g"), (QUARTER_TURN, "h"), (AFFINE, "k")))
    cocycle_residual(A10, g, h, k, [0.15, 0.55])
    # k(x); h(x), h(kx); g(x), g(hx), g(hkx)
    assert calls == {"k": 1, "h": 2, "g": 3}


def test_a_coboundary_draw_images_three_times():
    calls = Counter()
    g = BundleAutomorphism(counting(SHEAR, calls, "g"), 1)
    h = BundleAutomorphism(counting(QUARTER_TURN, calls, "h"))
    coboundary_residual(A10, g, h, [0.15, 0.55])
    # h(x); g(x), g(hx)
    assert calls == {"h": 1, "g": 2}


def test_a_splitting_pair_walks_the_grid_once():
    calls = Counter()
    gens = [
        BundleAutomorphism(counting(rigid_rotation([0.3, 0.1]), calls, "u"), 1),
        BundleAutomorphism(counting(sinusoidal_shear(0.2), calls, "v")),
    ]
    splitting_check(A10, gens, InvariantMeasure.lebesgue(), pairs=12, quadrature_points=64, seed=3)
    # 64^2 points are one grid block: one call per letter of gw, hw, gw on
    # each pair's grid, and one per generator for the invariance checks;
    # four grid walks per pair made 128
    assert sum(calls.values()) == 56


def residual_corpus(seed, count):
    """(class, four lifts, point) draws of built-in maps on T^1 and T^2;
    the fourth lift is the composite of two drawn ones."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        dim = 1 + i % 2
        entries = sample_class_entries(rng, dim)
        g, h, k, w = (sample_map(rng, entries) for _ in range(4))
        yield CohomologyClass(entries), (g, h, k, k.compose(w)), rng.uniform(0.0, 1.0, size=dim)


def test_residuals_equal_the_expressions_over_composed_maps_bit_for_bit():
    for a, (g, h, k, kw), x in residual_corpus(seed=11, count=60):
        for f1, f2, f3 in ((g, h, k), (kw, g, h), (h, kw, g)):
            want = abs(
                gal_kedra(a, f2, f3, x)
                - gal_kedra(a, f1.compose(f2), f3, x)
                + gal_kedra(a, f1, f2.compose(f3), x)
                - gal_kedra(a, f1, f2, x)
            )
            assert cocycle_residual(a, f1, f2, f3, x) == want
        rng = np.random.default_rng(len(a.entries))
        u, v = (BundleAutomorphism(f, sample_fiber_shift(rng)) for f in (g, kw))
        for b, c in ((u, v), (v, u)):
            want = abs(gal_kedra(a, b.lift, c.lift, x) - (rho(a, b.compose(c), x) - rho(a, b, x) - rho(a, c, x)))
            assert coboundary_residual(a, b, c, x) == want


def test_defect_equals_the_expression_over_composed_words_bit_for_bit():
    for seed, (a, lifts, x) in enumerate(residual_corpus(seed=12, count=20)):
        els = [BundleAutomorphism(f, s) for f, s in zip(lifts, (0, 1, -2, 3))]
        rng = np.random.default_rng(seed)
        want = 0.0
        for _ in range(16):
            gw, hw = galkedra._random_word(rng, els), galkedra._random_word(rng, els)
            want = max(want, abs(rho(a, gw, x) + rho(a, hw, x) - rho(a, gw.compose(hw), x)))
        assert quasimorphism_defect(a, els, x, samples=16, seed=seed) == want


# a rotation of period 10 (up to rounding) and its orbit as an empirical measure
TENTH = rigid_rotation([0.1, 0.3])
TENTH_ORBIT = [reduce_point(np.array([0.05 + 0.1 * i, 0.2 + 0.3 * i])) for i in range(10)]
SPLIT_MEASURES = {
    "lebesgue": (
        A01,
        [
            BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,)))),
            BundleAutomorphism(sinusoidal_shear(0.1), 1),
        ],
        InvariantMeasure.lebesgue(),
    ),
    "empirical": (
        A10,
        [BundleAutomorphism(TENTH, 1), BundleAutomorphism(TENTH.compose(TENTH))],
        InvariantMeasure.empirical(TENTH_ORBIT),
    ),
    "dirac_orbit": (
        A10,
        [BundleAutomorphism(TENTH, 1), BundleAutomorphism(rigid_rotation([0.7, 0.2]))],
        InvariantMeasure.dirac_orbit([0.05, 0.2], 10),
    ),
}


@pytest.mark.parametrize("kind", list(SPLIT_MEASURES))
def test_splitting_residuals_equal_the_per_mean_values(kind):
    """Each pair's four means, each read as its own mean, give the report's
    residuals bit for bit."""
    a, gens, mu = SPLIT_MEASURES[kind]
    rng = np.random.default_rng(5)
    want_add = want_mean_cocycle = 0.0
    for _ in range(8):
        gw, hw = galkedra._random_word(rng, gens), galkedra._random_word(rng, gens)
        fg, fh, fgh = (
            dynamics._walked_mean(a, w, mu, quadrature_points=16, check_invariance=False).value
            for w in (gw, hw, gw.compose(hw))
        )
        def integrand(xs, gx, out):
            # G of the stacked points, in the shape the coordinates broadcast to
            pts = np.stack(np.broadcast_arrays(*xs), axis=-1)
            out[...] = gal_kedra_many(a, gw.lift, hw.lift, pts.reshape(-1, a.dimension)).reshape(pts.shape[:-1])

        mean_g, _ = dynamics._measure_mean(integrand, mu, a.dimension, 16, gw.lift)
        want_add = max(want_add, abs(fgh - fg - fh))
        want_mean_cocycle = max(want_mean_cocycle, abs(mean_g - (fgh - fg - fh)))
    rep = splitting_check(a, gens, mu, pairs=8, quadrature_points=16, seed=5)
    assert rep.additivity_residual == want_add
    assert rep.mean_cocycle_residual == want_mean_cocycle
    assert rep.additivity_residual <= 1e-6


COUNT_REFUSALS = {
    "splitting pairs": lambda: splitting_check(A1, [fiber_translation(1, 2)], InvariantMeasure.lebesgue(), pairs=0),
    "defect samples": lambda: quasimorphism_defect(A10, [BundleAutomorphism(SHEAR)], [0.0, 0.0], samples=0),
    "coboundary draws": lambda: coboundary_residual_suite(seed=1, count=0),
    "cocycle draws": lambda: cocycle_residual_suite(seed=1, count=0),
    "suite dimensions": lambda: coboundary_residual_suite(seed=1, count=4, dimensions=()),
}


@pytest.mark.parametrize("name", list(COUNT_REFUSALS))
def test_a_check_over_no_draws_is_refused(name):
    # the max over no draws would be a vacuous residual of 0
    with pytest.raises(ValidationError, match="at least one"):
        COUNT_REFUSALS[name]()
