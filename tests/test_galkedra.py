"""The two-variable displacement cocycle: identities, quadrature, splitting."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

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
