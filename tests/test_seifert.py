"""Euler numbers and the exact fiber-detecting class on H_1."""

from fractions import Fraction

import numpy as np
import pytest

from transnum import (
    NonzeroEulerNumber,
    RelationConvention,
    SeifertData,
    ValidationError,
    construct_h1_class,
    euler_number,
    random_zero_euler_data,
    verify_homomorphism,
)


def test_euler_numbers_are_exact_fractions():
    assert euler_number(SeifertData(0, ((2, 1), (2, -1)))) == 0
    assert euler_number(SeifertData(0, ((3, 1),))) == Fraction(-1, 3)
    assert euler_number(SeifertData(2, ((2, 1), (3, 1), (6, 1), (1, -1)))) == 0
    assert euler_number(SeifertData(0, ((5, 3), (5, -2)))) == Fraction(-1, 5)


def test_mirrored_pair_example():
    phi = construct_h1_class(SeifertData(0, ((2, 1), (2, -1))))
    assert phi.value_h == 4
    assert phi.values_q == (-2, 2)
    assert phi.convention is RelationConvention.H_POSITIVE
    assert phi.values_ab == ()


def test_trivial_pair_example():
    phi = construct_h1_class(SeifertData(0, ((1, 0),)))
    assert phi.value_h == 1
    assert phi.values_q == (0,)


def test_platonic_style_example():
    phi = construct_h1_class(SeifertData(0, ((2, 1), (3, 1), (6, 1), (1, -1))))
    assert phi.value_h == 36
    assert phi.values_q == (-18, -12, -6, 36)


def test_genus_contributes_zeroed_surface_generators():
    phi = construct_h1_class(SeifertData(2, ((2, 1), (2, -1))))
    assert phi.values_ab == (0, 0, 0, 0)
    report = verify_homomorphism(phi.data, phi)
    assert report["surface_generators"] == (Fraction(0),) * 4


def test_opposite_convention_flips_the_exceptional_values():
    data = SeifertData(0, ((2, 1), (2, -1)))
    phi = construct_h1_class(data, RelationConvention.H_NEGATIVE)
    assert phi.values_q == (2, -2)
    report = verify_homomorphism(data, phi)
    assert report["exceptional"] == (Fraction(0), Fraction(0))
    assert report["long_relation"] == 0
    assert report["centrality"] == 0


def test_all_residuals_vanish_on_the_worked_examples():
    for data in (
        SeifertData(0, ((2, 1), (2, -1))),
        SeifertData(0, ((1, 0),)),
        SeifertData(0, ((2, 1), (3, 1), (6, 1), (1, -1))),
    ):
        phi = construct_h1_class(data)
        report = verify_homomorphism(data, phi)
        assert all(r == 0 for r in report["exceptional"])
        assert report["long_relation"] == 0


def test_wrong_sign_residual_is_visible_and_exact():
    data = SeifertData(0, ((2, 1), (3, 1), (6, 1), (1, -1)))
    phi = construct_h1_class(data)
    flipped = verify_homomorphism(
        data,
        type(phi)(
            values_q=phi.values_q,
            value_h=phi.value_h,
            values_ab=phi.values_ab,
            convention=RelationConvention.H_NEGATIVE,
            data=data,
        ),
    )
    # alpha_j q_j - beta_j h = -2 beta_j A against the verified +: residual
    # is exactly twice the relation's h-term
    total = phi.value_h
    expected = tuple(Fraction(-2 * b * total) for _, b in data.pairs)
    assert flipped["exceptional"] == expected


def test_nonzero_euler_number_is_refused_with_the_sum_attached():
    with pytest.raises(NonzeroEulerNumber) as err:
        construct_h1_class(SeifertData(0, ((3, 1),)))
    assert err.value.euler_number == Fraction(-1, 3)
    assert "beta_j/alpha_j" in str(err.value)


def test_phi_does_not_depend_on_pair_order():
    base = SeifertData(0, ((2, 1), (3, 1), (6, 1), (1, -1)))
    phi = construct_h1_class(base)
    table = dict(zip(base.pairs, phi.values_q))
    shuffled = SeifertData(0, ((6, 1), (1, -1), (2, 1), (3, 1)))
    phi2 = construct_h1_class(shuffled)
    assert phi2.value_h == phi.value_h
    assert [table[p] for p in shuffled.pairs] == list(phi2.values_q)


def test_padding_with_trivial_pairs_scales_nothing():
    plain = construct_h1_class(SeifertData(0, ((2, 1), (2, -1))))
    padded = construct_h1_class(SeifertData(0, ((2, 1), (2, -1), (1, 0))))
    assert padded.value_h == plain.value_h
    assert padded.values_q == plain.values_q + (0,)


def test_random_zero_euler_constructions_all_verify():
    rng = np.random.default_rng(12)
    for _ in range(50):
        data = random_zero_euler_data(rng)
        assert euler_number(data) == 0
        phi = construct_h1_class(data)
        assert phi.value_h != 0
        report = verify_homomorphism(data, phi)
        assert all(r == 0 for r in report["exceptional"])
        assert report["long_relation"] == 0


def test_data_validation():
    with pytest.raises(ValidationError):
        SeifertData(-1, ((2, 1),))
    with pytest.raises(ValidationError):
        SeifertData(0, ((0, 1),))
    with pytest.raises(ValidationError):
        SeifertData(0, ())
    with pytest.raises(ValidationError):
        SeifertData(True, ((2, 1),))
