"""Bundle model basics: heights, canonical forms, lifts and equivariance."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from transnum import (
    BundlePoint,
    Coefficients,
    CohomologyClass,
    ClassNotPreserved,
    DimensionMismatch,
    LiftedMap,
    ValidationError,
    canonicalize,
    check_equivariance,
    identity_lift,
    preserves_class,
    require_preserves_class,
    reduce_point,
    rigid_rotation,
    theta,
    torus_affine,
    torus_distance,
)


def test_theta_is_the_linear_height():
    a = CohomologyClass((1, 0))
    assert theta(a, BundlePoint(np.array([0.25, 0.7]), 0)) == pytest.approx(0.25)


def test_theta_raises_by_fiber_translation():
    a = CohomologyClass((1, 0))
    p = BundlePoint(np.array([0.25, 0.7]), 0)
    shifted = BundlePoint(p.cover, p.fiber + 2)
    assert theta(a, shifted) == theta(a, p) + 2


def test_theta_is_deck_invariant():
    a = CohomologyClass((1, 0))
    assert theta(a, BundlePoint(np.array([1.25, 0.7]), -1)) == pytest.approx(0.25)


def test_canonicalize_moves_floor_into_fiber():
    a = CohomologyClass((2, 5))
    c = canonicalize(a, BundlePoint(np.array([1.0, 1.0]), 0))
    assert np.allclose(c.cover, [0.0, 0.0])
    assert c.fiber == 7  # <(2,5), (1,1)> added exactly, as an int


cover_strategy = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=3
)


@given(cover_strategy, st.integers(-4, 4))
def test_canonicalize_is_idempotent_and_preserves_theta(cover, fiber):
    a = CohomologyClass(tuple(range(1, len(cover) + 1)))
    p = BundlePoint(np.asarray(cover), fiber)
    c = canonicalize(a, p)
    assert np.all((c.cover >= 0.0) & (c.cover < 1.0))
    again = canonicalize(a, c)
    assert np.array_equal(again.cover, c.cover) and again.fiber == c.fiber
    assert abs(theta(a, c) - theta(a, p)) <= 1e-12 * (1.0 + abs(theta(a, p)))


@given(cover_strategy)
def test_canonicalize_keeps_integer_fibers_integral(cover):
    a = CohomologyClass(tuple([3] * len(cover)))
    c = canonicalize(a, BundlePoint(np.asarray(cover), 2))
    assert isinstance(c.fiber, int)


def test_torus_distance_wraps():
    assert torus_distance([0.95], [0.05]) == pytest.approx(0.1)
    assert torus_distance([0.2, 0.9], [0.2, 0.1]) == pytest.approx(0.2)
    assert torus_distance([0.4], [0.4]) == 0.0


def test_reduce_point_lands_in_unit_box():
    assert np.allclose(reduce_point([-0.25, 1.5]), [0.75, 0.5])


def test_shear_preserves_exactly_the_expected_classes():
    shear = torus_affine([[1, 0], [1, 1]], [0.0, 0.0])
    assert preserves_class(CohomologyClass((1, 0)), shear)
    assert not preserves_class(CohomologyClass((0, 1)), shear)
    with pytest.raises(ClassNotPreserved):
        require_preserves_class(CohomologyClass((0, 1)), shear)


def test_preserves_class_is_exact_for_huge_entries():
    # 8 * 2**61 wraps to 0 in int64, which would fake M^T a = a; the exact
    # integer path must still see the class move
    shear = torus_affine([[1, 0], [2**61, 1]], [0.0, 0.0])
    assert preserves_class(CohomologyClass((1, 0)), shear)
    assert not preserves_class(CohomologyClass((1, 8)), shear)


def numpy_preserves_class(a, m):
    """M^T a = a in the object-array form the plain-int check replaced."""
    mt = np.asarray(m).T.astype(object)
    n = a.dimension
    image = [sum(int(mt[i, j]) * int(a.entries[j]) for j in range(n)) for i in range(n)]
    return all(image[i] == a.entries[i] for i in range(n))


def test_preserves_class_agrees_with_the_numpy_form_on_random_integer_matrices():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(1, 5))
        a = CohomologyClass(tuple(int(e) for e in rng.integers(-3, 4, size=n)))
        m = rng.integers(-2, 3, size=(n, n))
        if rng.random() < 0.5:
            # M = I + v u^T has M^T a = a + u <v, a>: it keeps a when v is orthogonal to a
            avec = np.array(a.entries)
            w = rng.integers(-2, 3, size=n)
            v = w * int(avec @ avec) - avec * int(w @ avec)
            m = np.eye(n, dtype=np.int64) + np.outer(v, rng.integers(-2, 3, size=n))
        expected = numpy_preserves_class(a, m)
        seen.add(expected)
        assert preserves_class(a, m) is expected
        assert preserves_class(a, tuple(map(tuple, m.tolist()))) is expected
    assert seen == {True, False}


def test_rigid_preserves_every_class():
    g = rigid_rotation([0.3, 0.7])
    assert preserves_class(CohomologyClass((2, -3)), g)
    assert preserves_class(CohomologyClass((0.5, 0.25), Coefficients.REAL), g)


def test_real_class_requires_real_matching():
    a = CohomologyClass((0.5, 1.0), Coefficients.REAL)
    shear = torus_affine([[1, 0], [1, 1]], [0.0, 0.0])
    # M^T a = (0.5 + 1.0, 1.0) != a
    assert not preserves_class(a, shear)


def test_integer_class_rejects_float_entries():
    with pytest.raises(ValidationError):
        CohomologyClass((1.5, 0))


def test_equivariance_of_builtin_families():
    for lift in (
        rigid_rotation([0.3, 0.4]),
        torus_affine([[1, 0], [2, 1]], [0.25, 0.0]),
    ):
        rep = check_equivariance(lift, samples=200, seed=5)
        assert rep.max_residual <= 1e-12


def test_equivariance_catches_a_broken_lift():
    import dataclasses

    base = rigid_rotation([0.3])
    broken = dataclasses.replace(base, evaluator=lambda x: np.sin(x))
    rep = check_equivariance(broken, samples=100, seed=1)
    assert rep.max_residual > 0.1
    assert not rep.ok


def test_identity_lift_and_matrix_dimensions():
    ident = identity_lift(2)
    x = np.array([0.3, 0.9])
    assert np.array_equal(ident(x), x)
    with pytest.raises(DimensionMismatch):
        theta(CohomologyClass((1,)), BundlePoint(np.array([0.1, 0.2]), 0))


def test_composition_matches_pointwise_and_multiplies_matrices():
    f = torus_affine([[1, 1], [0, 1]], [0.1, 0.2])
    g = torus_affine([[1, 0], [1, 1]], [0.0, 0.5])
    fg = f.compose(g)
    x = np.array([0.3, 0.7])
    assert np.allclose(fg(x), f(g(x)))
    assert np.array_equal(fg.matrix, f.matrix @ g.matrix)
    # the composed lift is still a genuine lift
    assert check_equivariance(fg, samples=100, seed=3).max_residual <= 1e-12


def test_group_closure_on_the_affine_family():
    a = CohomologyClass((1, 0))
    maps = [
        torus_affine([[1, 0], [1, 1]], [0.0, 0.25]),
        rigid_rotation([0.5, 0.1]),
        torus_affine([[1, 0], [-2, 1]], [0.3, 0.0]),
    ]
    for f in maps:
        require_preserves_class(a, f)
    prod = maps[0]
    for g in maps[1:]:
        prod = prod.compose(g)
        assert preserves_class(a, prod)


def test_inverse_round_trip():
    f = torus_affine([[2, 1], [1, 1]], [0.25, 0.5])
    finv = f.invert()
    x = np.array([0.123, 0.456])
    assert np.allclose(finv(f(x)), x, atol=1e-12)
    assert np.allclose(f(finv(x)), x, atol=1e-12)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1e30, 0], [0, 1.0]], "outside the int64 range"),
        ([[2.0**63, 0], [0, 1.0]], "outside the int64 range"),
        ([[1, 0], [0, 2**64]], "outside the int64 range"),
        ([[np.inf, 0], [0, 1.0]], "integer entries"),
        ([[np.nan, 0], [0, 1.0]], "integer entries"),
        ([[0.5, 0], [0, 1.0]], "integer entries"),
    ],
    ids=["1e30", "2^63", "2^64-int", "inf", "nan", "half"],
)
def test_lifted_map_refuses_a_matrix_the_int64_cast_would_change(matrix, message):
    with pytest.raises(ValidationError, match=message):
        LiftedMap(evaluator=np.asarray, matrix=matrix)


@pytest.mark.parametrize("corner", [2**62, -(2**62) - 1], ids=["2^63", "-2^63-2"])
def test_compose_refuses_a_matrix_product_outside_int64(corner):
    # the square's corner is 2 * corner: int64 arithmetic would wrap it silently
    f = torus_affine([[1, 0], [corner, 1]], [0.1, 0.2])
    with pytest.raises(ValidationError, match="outside the int64 range"):
        f.compose(f)
    # the ends of the range are kept exactly
    end = torus_affine([[1, 0], [-(2**62), 1]], [0.1, 0.2])
    assert end.compose(end).matrix.tolist() == [[1, 0], [-(2**63), 1]]


def test_lifted_map_keeps_integer_valued_floats_and_the_int64_ends():
    lift = LiftedMap(evaluator=np.asarray, matrix=np.array([[-(2.0**63), 0], [3.0, 1]]))
    assert lift.matrix.dtype == np.int64
    assert lift.matrix.tolist() == [[-(2**63), 0], [3, 1]]
    big = 2**63 - 1
    assert LiftedMap(evaluator=np.asarray, matrix=[[big, 0], [0, 1]]).matrix[0, 0] == big


def test_evaluate_many_agrees_with_scalar_calls():
    g = torus_affine([[1, 0], [3, 1]], [0.2, 0.1])
    pts = np.random.default_rng(0).uniform(-2, 2, size=(17, 2))
    batch = g.evaluate_many(pts)
    for p, q in zip(pts, batch):
        assert np.allclose(g(p), q)


def test_evaluate_many_refuses_an_evaluator_that_does_not_broadcast():
    first_point_only = LiftedMap(evaluator=lambda x: np.atleast_2d(x)[0] + 0.25, matrix=[[1]])
    pts = np.array([[0.1], [0.2], [0.3]])
    assert np.array_equal(first_point_only(pts[0]), pts[0] + 0.25)
    with pytest.raises(ValidationError, match="broadcast"):
        first_point_only.evaluate_many(pts)


def test_evaluate_many_propagates_other_errors():
    calls = []

    def broken(x):
        calls.append(np.shape(x))
        raise ZeroDivisionError("broken evaluator")

    with pytest.raises(ZeroDivisionError):
        LiftedMap(evaluator=broken, matrix=[[1]]).evaluate_many(np.zeros((3, 1)))
    assert calls == [(3, 1)]  # not retried point by point
