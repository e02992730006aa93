"""The translation number of a skew map read from its coefficients.

For (x, y) -> (x + omega, y + c(x)) with c of degree d, a float omega is
p/q with q a power of 2, and the mean of e(k x) along x + n p/q vanishes
unless q divides k. So when every term of c at such a k is 0 (in particular
when q > d) the limit at every point is the constant term of rho, which
`local_translation_number` reports as `exact-closed-form`; the orbit stays
the independent route, run only to SCAN_HORIZON steps."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transnum import (
    BundleAutomorphism,
    CohomologyClass,
    TrigPolynomial,
    VERDICT_EXACT_CLOSED_FORM,
    ValidationError,
    arnold_circle,
    cli,
    homological_translation,
    local_translation_number,
    local_translation_numbers,
    rho_power_average,
    rigid_rotation,
    shear_isotopy,
    sinusoidal_shear,
    skew_isotopy,
    skew_translation,
    straight_isotopy,
)
from transnum import dynamics
from transnum.isotopy import endpoint_translation

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
A01 = CohomologyClass([0, 1])
N = 2**16

coefficient = st.one_of(st.just(0.0), st.floats(-0.5, 0.5))
generic_omega = st.floats(0.001, 0.999)
# p / 2^m in [0, 1], short dyadics included: q = 1, 2, 4 do not exceed d = 3
dyadic_omega = st.integers(0, 4).flatmap(lambda m: st.integers(0, 2**m).map(lambda p: p / 2**m))


@st.composite
def skew_pairs(draw):
    """(class, skew automorphism, point) of degree 1-3, omega generic or dyadic."""
    d = draw(st.integers(1, 3))
    poly = TrigPolynomial(
        draw(st.floats(-1.0, 1.0)),
        tuple(draw(coefficient) for _ in range(d)),
        tuple(draw(coefficient) for _ in range(d)),
    )
    omega = draw(st.one_of(generic_omega, dyadic_omega))
    a = CohomologyClass([draw(st.integers(-3, 3)), draw(st.integers(-3, 3).filter(bool))])
    g = BundleAutomorphism(skew_translation(omega, poly), draw(st.integers(-2, 2)))
    return a, g, [draw(st.floats(0.0, 0.999)), draw(st.floats(0.0, 0.999))]


def birkhoff_constant(pairs, omega) -> float:
    """C with |rho_x(g^n)/n - limit| <= C/n for a closed-form skew map whose
    rho has the (cos, sin) pairs `pairs`: |sum_{i<n} e(k (x + i omega))|
    <= 1/|sin(pi k omega)|. A pair whose k the orbit does not average away
    is 0 wherever the closed form applies."""
    return sum(math.hypot(*pair) / abs(math.sin(math.pi * k * omega)) for k, pair in enumerate(pairs, 1) if any(pair))


@settings(max_examples=40, deadline=None)
@given(skew_pairs())
def test_the_closed_form_is_the_limit_of_the_plain_average(pair):
    a, g, x = pair
    rational = dynamics._closed_form_rot(a, g.lift, g.fiber_shift)
    omega = float(g.lift.kernel_spec[1][0])
    q = Fraction(omega).denominator
    pairs = dynamics._displacement_coefficients(a, g.lift, g.fiber_shift)[2]
    assert (rational is None) == any(any(pairs[k - 1]) for k in range(q, len(pairs) + 1, q))
    rep = local_translation_number(a, g, x)
    if rational is None:
        assert rep.verdict != VERDICT_EXACT_CLOSED_FORM
        return
    gap = abs(float(rational) - rho_power_average(a, g, x, N))
    assert gap <= birkhoff_constant(pairs, omega) / N + 1e-9
    assert rep.verdict == VERDICT_EXACT_CLOSED_FORM and rep.rational == rational
    assert (rep.value, rep.error_bound) == (float(rational), 0.0) and rep.iterations <= dynamics.SCAN_HORIZON


def test_a_served_report_keeps_the_short_orbit_run():
    g = BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))))
    x = [0.2, 0.7]
    rep = local_translation_number(A01, g, x)
    orbit = dynamics._orbit_limit(A01, g, x, max_iterations=dynamics.SCAN_HORIZON)
    assert rep.rational == Fraction(0.3) and rep.value == 0.3
    assert (rep.iterations, rep.window, rep.plain_average) == (16, orbit.window, orbit.plain_average)
    assert rep.converged
    # a cap below the horizon cuts the orbit there
    assert local_translation_number(A01, g, x, max_iterations=5).iterations == 5
    with pytest.raises(ValidationError):
        local_translation_number(A01, g, x, max_iterations=0)


def test_a_short_dyadic_omega_is_declined_and_keeps_its_x_dependent_limit():
    # omega = 1/4 keeps cos(8 pi x) constant along the orbit, so the limit
    # is c(x) itself and differs from point to point
    g = BundleAutomorphism(skew_translation(0.25, TrigPolynomial(0.3, (0.0, 0.0, 0.0, 0.35), (0.0, 0.0, 0.0, 0.0))))
    assert dynamics._closed_form_rot(A01, g.lift, g.fiber_shift) is None
    values = []
    for x0 in (0.0, 0.1):
        rep = local_translation_number(A01, g, [x0, 0.7])
        assert rep.verdict != VERDICT_EXACT_CLOSED_FORM and rep.rational is None
        assert rep.value == pytest.approx(0.3 + 0.35 * math.cos(8 * math.pi * x0), abs=1e-12)
        values.append(rep.value)
    assert abs(values[0] - values[1]) > 0.5


@pytest.mark.parametrize(
    "a, g, x",
    [
        (A01, BundleAutomorphism(rigid_rotation([0.3, GOLDEN])), [0.2, 0.7]),
        (A01, BundleAutomorphism(sinusoidal_shear(0.1)), [0.2, 0.7]),
        (CohomologyClass([1]), BundleAutomorphism(arnold_circle(0.3, 0.5)), [0.2]),
        (A01, BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.1,), (0.0,))).compose(
            skew_translation(0.2, TrigPolynomial(0.1, (0.0,), (0.2,))))), [0.2, 0.7]),
    ],
    ids=["rigid", "sinshear", "arnold", "composed-skews"],
)
def test_other_maps_have_no_closed_form(a, g, x):
    assert dynamics._closed_form_rot(a, g.lift, g.fiber_shift) is None
    assert local_translation_number(a, g, x).verdict != VERDICT_EXACT_CLOSED_FORM


def test_a_batch_serves_its_skew_rows_and_keeps_each_rows_report():
    maps = [
        BundleAutomorphism(skew_translation(GOLDEN + 0.01 * i, TrigPolynomial(0.1 * i, (0.05,), (0.1,))))
        for i in range(40)
    ]
    maps += [BundleAutomorphism(skew_translation(0.5, TrigPolynomial(0.3, (0.0, 0.2), (0.0, 0.0))))]
    points = [[0.01 * i, 0.5] for i in range(len(maps))]
    reports = local_translation_numbers(A01, maps, points)
    for g, x, rep in zip(maps, points, reports):
        alone = local_translation_number(A01, g, x)
        assert (rep.verdict, rep.rational, rep.iterations) == (alone.verdict, alone.rational, alone.iterations)
    assert all(rep.verdict == VERDICT_EXACT_CLOSED_FORM for rep in reports[:-1])
    assert reports[-1].verdict != VERDICT_EXACT_CLOSED_FORM


def test_rot_local_of_a_skew_map_records_the_exact_closed_form(tmp_path):
    path = tmp_path / "skew.ini"
    path.write_text(
        "[class]\nentries = 1 1\n[map]\nfamily = skew\nomega = 0.41421356\ncoeffs = 0.3 0.05 0.1\nshift = 1\n"
        "[point]\nx = 0.2 0.7\n"
    )
    out = tmp_path / "record.json"
    assert cli.main(["rot-local", "--config", str(path), "--format", "record", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    rot = results["rot"]
    assert rot["exact"] is True and "error_bound" not in rot
    assert Fraction(rot["rational"]) == Fraction(0.41421356) + Fraction(0.3) + 1
    assert rot["verdict"] == results["headline"]["verdict"] == VERDICT_EXACT_CLOSED_FORM
    assert rot["iterations"] == dynamics.SCAN_HORIZON


@pytest.mark.parametrize(
    "a, iso, x",
    [
        (CohomologyClass([1, 2]), straight_isotopy([0.3, GOLDEN]), [0.1, 0.9]),
        (CohomologyClass([1, 0]), shear_isotopy(0.1), [0.2, 0.3]),
        (A01, skew_isotopy(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))), [0.2, 0.7]),
        (CohomologyClass([1, 1]), skew_isotopy(0.5254244115515501, TrigPolynomial(-0.2, (0.1,), (0.05,))), [0.15, 0.4]),
    ],
    ids=["straight", "shear", "skew", "skew-mixed-class"],
)
def test_the_endpoint_route_stays_on_the_orbit_bit_for_bit_with_the_arcs(a, iso, x):
    for tolerance in (1e-6, 1e-9):
        hom = homological_translation(a, iso, x, tolerance=tolerance)
        end = endpoint_translation(a, iso, x, tolerance=tolerance)
        assert end.verdict != VERDICT_EXACT_CLOSED_FORM
        fields = lambda r: (r.value.hex(), r.error_bound, r.iterations, r.verdict, r.window, r.plain_average.hex())
        assert fields(end) == fields(hom)
