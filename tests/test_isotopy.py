"""Winding of isotopy arcs and the two routes to a translation number."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from transnum import (
    CohomologyClass,
    InvariantMeasure,
    TrigPolynomial,
    ValidationError,
    VERDICT_EXACT_PERIODIC,
    arc_of,
    delta_phi,
    homological_translation,
    induced_bundle_map,
    local_translation_number,
    mean_homological_translation,
    mean_translation_number,
    shear_isotopy,
    skew_isotopy,
    straight_isotopy,
)
from transnum.dynamics import _walked_mean

A1 = CohomologyClass([1])
A10 = CohomologyClass([1, 0])
A01 = CohomologyClass([0, 1])
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
POLY = TrigPolynomial(0.3, (0.05,), (0.1,))


def test_winding_reads_off_the_endpoint_displacement():
    assert delta_phi(A1, np.array([[0.2], [1.7]])) == 1.5
    assert delta_phi(A1, np.array([[0.3], [0.3], [0.3]])) == 0.0
    a = CohomologyClass([2, -1])
    path = np.array([[0.0, 0.0], [0.25, 0.1], [0.5, 1.0]])
    assert delta_phi(a, path) == 0.0


def test_winding_input_validation():
    with pytest.raises(ValidationError):
        delta_phi(A1, np.array([0.1, 0.2]))
    with pytest.raises(ValidationError):
        delta_phi(A10, np.array([[0.1], [0.2]]))
    with pytest.raises(ValidationError):
        delta_phi(A1, np.array([[0.1]]))


@given(
    data=st.data(),
    dim=st.integers(1, 3),
    length=st.integers(4, 10),
)
def test_winding_is_additive_under_concatenation(data, dim, length):
    coords = st.floats(-10, 10, allow_nan=False, width=32)
    path = np.array(
        data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=length, max_size=length))
    )
    split = data.draw(st.integers(1, length - 2))
    a = CohomologyClass(data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
    whole = delta_phi(a, path)
    parts = delta_phi(a, path[: split + 1]) + delta_phi(a, path[split:])
    assert whole == pytest.approx(parts, abs=1e-10)


def test_arc_endpoints_are_the_identity_and_terminal_images():
    iso = shear_isotopy(0.1)
    x = np.array([0.2, 0.25])
    arc = arc_of(iso, x, samples=17)
    assert arc.shape == (17, 2)
    assert np.allclose(arc[0], x, atol=0)
    assert np.allclose(arc[-1], iso.terminal(x), atol=1e-15)
    with pytest.raises(ValidationError):
        arc_of(iso, x, samples=1)


def test_straight_isotopy_translates_by_the_class_pairing():
    rep = homological_translation(A10, straight_isotopy([0.3, 0.4]), [0.0, 0.0])
    assert rep.verdict == VERDICT_EXACT_PERIODIC
    assert rep.rational == Fraction(3, 10)
    assert rep.value == pytest.approx(0.3, abs=1e-12)


def test_trivial_isotopy_has_zero_translation():
    rep = homological_translation(A1, straight_isotopy([0.0]), [0.4])
    assert rep.rational == Fraction(0, 1)
    assert rep.value == 0.0


def test_both_routes_agree_for_the_half_translation():
    iso = straight_isotopy([0.5])
    homological = homological_translation(A1, iso, [0.1])
    endpoint = local_translation_number(A1, induced_bundle_map(iso), [0.1])
    assert induced_bundle_map(iso).fiber_shift == 0
    assert homological.rational == endpoint.rational == Fraction(1, 2)


def test_both_routes_agree_for_the_shear():
    iso = shear_isotopy(0.1)
    x = [0.2, 0.25]
    homological = homological_translation(A10, iso, x)
    endpoint = local_translation_number(A10, induced_bundle_map(iso), x)
    assert homological.rational == endpoint.rational == Fraction(1, 10)


def test_both_routes_agree_for_a_periodic_skew_product():
    iso = skew_isotopy(0.5, POLY)
    x = [0.15, 0.4]
    homological = homological_translation(A01, iso, x)
    endpoint = local_translation_number(A01, induced_bundle_map(iso), x)
    assert homological.value == pytest.approx(endpoint.value, abs=1e-12)
    assert homological.value == pytest.approx(0.3, abs=1e-12)


def test_mean_winding_of_the_straight_isotopy():
    rep = mean_homological_translation(A10, straight_isotopy([0.3, 0.4]), InvariantMeasure.lebesgue())
    assert rep.value == pytest.approx(0.3, abs=1e-12)
    assert rep.error_bound <= 1e-9


def test_mean_winding_of_the_shear_vanishes():
    rep = mean_homological_translation(A10, shear_isotopy(0.1), InvariantMeasure.lebesgue())
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_mean_winding_matches_the_bundle_mean_for_the_skew():
    iso = skew_isotopy(GOLDEN, POLY)
    via_arcs = mean_homological_translation(A01, iso, InvariantMeasure.lebesgue())
    via_bundle = mean_translation_number(
        A01, induced_bundle_map(iso), InvariantMeasure.lebesgue(), check_invariance=False
    )
    assert via_arcs.value == pytest.approx(0.3, abs=1e-9)
    assert via_arcs.value == pytest.approx(
        via_bundle.value, abs=via_arcs.error_bound + via_bundle.error_bound + 1e-12
    )


@pytest.mark.parametrize(
    "iso, a",
    [(straight_isotopy([0.3, 0.4]), A10), (shear_isotopy(0.1), A10), (skew_isotopy(GOLDEN, POLY), A01)],
    ids=["straight", "shear", "skew"],
)
@pytest.mark.parametrize("m", [1, 2, 128])
def test_mean_winding_is_the_bundle_mean_with_its_bound(iso, a, m):
    # the winding is rho of the induced bundle map, read from the same grid
    via_arcs = mean_homological_translation(a, iso, InvariantMeasure.lebesgue(), m)
    via_bundle = _walked_mean(a, induced_bundle_map(iso), InvariantMeasure.lebesgue(), m, check_invariance=False)
    assert (via_arcs.value, via_arcs.error_bound) == (via_bundle.value, via_bundle.error_bound)
    # the time-1 map's public mean is its constant term, inside the grid's bound
    exact = mean_translation_number(a, induced_bundle_map(iso), InvariantMeasure.lebesgue(), m).rational
    assert abs(exact - Fraction(via_arcs.value)) <= Fraction(via_arcs.error_bound)
