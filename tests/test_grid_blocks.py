"""The blocked tensor grid: its points, and the means and seminorms read from it."""

import tracemalloc

import numpy as np
import pytest

from transnum import (
    BundleAutomorphism,
    CohomologyClass,
    InvariantMeasure,
    TrigPolynomial,
    ValidationError,
    _kernels,
    arnold_circle,
    gal_kedra_many,
    mean_translation_number,
    measure_invariance_residual,
    rho_many,
    rigid_rotation,
    seminorm,
    sinusoidal_shear,
    skew_translation,
    torus_affine,
)
from transnum.dynamics import GRID_BLOCK, _default_test_functions, _grid_blocks, _measure_mean
from transnum.torus import reduce_point

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
LEBESGUE = InvariantMeasure.lebesgue()
SKEW = skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,)))


def meshgrid_grid(n, m, offset):
    """The whole grid as one meshgrid stack: the reference for the blocks."""
    axes = [(np.arange(m) + offset) / m] * n
    return np.stack([ax.ravel() for ax in np.meshgrid(*axes, indexing="ij")], axis=-1)


def concatenated(n, m, offset):
    blocks = [blk.copy() for blk in _grid_blocks(n, m, offset)]
    assert all(blk.ndim == 2 and blk.shape[1] == n and 0 < len(blk) <= GRID_BLOCK for blk in blocks)
    return np.concatenate(blocks)


GRID_SHAPES = [(n, m) for n in (1, 2) for m in (1, 3, 1000, 1024)] + [(3, 1), (3, 3), (3, 40)]


@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("n, m", GRID_SHAPES)
def test_blocks_concatenate_to_the_meshgrid_grid_bit_for_bit(n, m, offset):
    got, want = concatenated(n, m, offset), meshgrid_grid(n, m, offset)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_blocks_split_a_row_whose_tail_exceeds_one_block():
    # m^(n-1) = 40000 > GRID_BLOCK: the first axis alone cannot index the blocks
    assert 200**2 > GRID_BLOCK
    got, want = concatenated(3, 200, 0.5), meshgrid_grid(3, 200, 0.5)
    assert got.tobytes() == want.tobytes()


def test_block_grid_validates_before_the_first_block():
    with pytest.raises(ValidationError, match="at least one point"):
        _grid_blocks(2, 0, 0.0)
    with pytest.raises(ValidationError, match="too large"):
        _grid_blocks(2, 4097, 0.0)


# every built-in family, a composed map and a 3-torus affine map, each with
# a class it fixes; m is chosen so that the grid spans several blocks with a
# short last one, at the fine and at the coarse resolution
CASES = [
    ("rigid", CohomologyClass([1, 0]), BundleAutomorphism(rigid_rotation([0.3, 0.61]), 1), 300),
    ("affine", CohomologyClass([1, 0]), BundleAutomorphism(torus_affine([[1, 0], [2, 1]], [0.25, 0.1])), 300),
    ("arnold", CohomologyClass([1]), BundleAutomorphism(arnold_circle(0.3, 0.9), -2), 50_000),
    ("sinshear", CohomologyClass([1, 0]), BundleAutomorphism(sinusoidal_shear(0.1)), 300),
    ("skew", CohomologyClass([0, 1]), BundleAutomorphism(SKEW), 300),
    (
        "composed",
        CohomologyClass([0, 1]),
        BundleAutomorphism(SKEW.compose(rigid_rotation([0.1, 0.2])), 3),
        300,
    ),
    (
        "affine T^3",
        CohomologyClass([0, 0, 1]),
        BundleAutomorphism(torus_affine([[2, 1, 0], [1, 1, 0], [0, 0, 1]], [0.1, 0.3, 0.6])),
        30,
    ),
]


def reference_mean(integrand, n, m):
    """(value, error) of a Lebesgue mean read off whole meshgrid stacks."""
    value = float(np.mean(integrand(meshgrid_grid(n, m, 0.5))))
    coarse = float(np.mean(integrand(meshgrid_grid(n, max(1, m // 2), 0.5))))
    return value, abs(value - coarse) / 3.0 + 32.0 * np.finfo(float).eps * (1.0 + abs(value))


@pytest.mark.parametrize("name, a, g, m", CASES, ids=[c[0] for c in CASES])
def test_lebesgue_mean_matches_the_whole_grid_bit_for_bit(name, a, g, m):
    value, err = reference_mean(lambda pts: rho_many(a, g, pts), a.dimension, m)
    rep = mean_translation_number(a, g, LEBESGUE, quadrature_points=m, check_invariance=False)
    assert (rep.value, rep.error_bound) == (value, err)


@pytest.mark.parametrize("name, a, g, m", CASES, ids=[c[0] for c in CASES])
def test_seminorm_matches_the_whole_grid_bit_for_bit(name, a, g, m, monkeypatch):
    # the numpy scan, also where the compiled grid kernel would take over
    monkeypatch.setattr(_kernels, "JIT_ENABLED", False)
    want = float(np.max(np.abs(rho_many(a, g, meshgrid_grid(a.dimension, m, 0.0)))))
    assert seminorm(a, g, m).estimate == want


def test_gal_kedra_mean_matches_the_whole_grid_bit_for_bit():
    a, h = CohomologyClass([0, 1]), rigid_rotation([0.23, 0.41])

    def integrand(pts):
        return gal_kedra_many(a, SKEW, h, pts)

    assert _measure_mean(integrand, LEBESGUE, 2, 300) == reference_mean(integrand, 2, 300)


def test_invariance_residual_reads_the_same_grid():
    m = 200  # 40000 midpoints: three blocks
    pts = meshgrid_grid(2, m, 0.5)
    moved = reduce_point(SKEW.evaluate_many(pts))
    want = max(abs(float(np.mean(f(moved))) - float(np.mean(f(pts)))) for f in _default_test_functions(2))
    assert measure_invariance_residual(SKEW, LEBESGUE, quadrature_points=m) == want


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seminorm_memory_does_not_grow_with_the_grid(monkeypatch):
    monkeypatch.setattr(_kernels, "JIT_ENABLED", False)
    g = BundleAutomorphism(SKEW)
    peak = traced_peak(lambda: seminorm(CohomologyClass([0, 1]), g, 2048, "certified"))
    assert peak < 4 * 2**20  # the 2048^2 points alone would take 64 MiB


def test_lebesgue_mean_holds_one_float_per_point():
    g = BundleAutomorphism(SKEW)
    m = 1024
    peak = traced_peak(
        lambda: mean_translation_number(CohomologyClass([0, 1]), g, LEBESGUE, m, check_invariance=False)
    )
    assert peak < 8 * m * m + 2 * 2**20
