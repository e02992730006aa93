"""The blocked tensor grid: its points, and the means and seminorms read from it."""

import math
import tracemalloc
from fractions import Fraction

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
from transnum import dynamics, galkedra
from transnum.distortion import _grid_seminorm
from transnum.dynamics import (
    GRID_BLOCK,
    _column_image,
    _default_test_functions,
    _grid_blocks,
    _grid_columns,
    _measure_mean,
    _walked_mean,
)
from transnum.galkedra import _gal_kedra_rows
from transnum.torus import LiftedMap, _StepEvaluator, identity_lift, preserves_class, reduce_point

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
LEBESGUE = InvariantMeasure.lebesgue()
SKEW = skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,)))


def meshgrid_grid(n, m, offset):
    """The whole grid as one meshgrid stack: the reference for the blocks."""
    axes = [(np.arange(m) + offset) / m] * n
    return np.stack([ax.ravel() for ax in np.meshgrid(*axes, indexing="ij")], axis=-1)


def stacked(cols):
    """The (k, n) row-major point stack that coordinates broadcast to."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, len(cols))


def concatenated(n, m, offset):
    blocks = [stacked(cols) for cols in _grid_blocks(n, m, offset)]
    assert all(blk.shape[1] == n and 0 < len(blk) <= GRID_BLOCK for blk in blocks)
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

# The built-in families of dimension 1 and 2, each with a class it fixes (the
# cat map fixes only 0); each images grid blocks from its axis columns.
SKEW3 = skew_translation(0.3, TrigPolynomial(-0.2, (0.05, -0.03, 0.02), (0.1, 0.04, -0.01)))
KERNEL_FAMILIES = [
    ("rigid", CohomologyClass([1, 0]), BundleAutomorphism(rigid_rotation([0.3, 0.61]), 1)),
    ("affine", CohomologyClass([1, 0]), BundleAutomorphism(torus_affine([[1, 0], [2, 1]], [0.25, 0.1]))),
    ("affine-cat", CohomologyClass([0, 0]), BundleAutomorphism(torus_affine([[2, 1], [1, 1]], [0.25, 0.1]), 2)),
    ("affine-shear", CohomologyClass([0, 1]), BundleAutomorphism(torus_affine([[1, -3], [0, 1]], [0.7, 0.45]))),
    ("sinshear", CohomologyClass([1, 0]), BundleAutomorphism(sinusoidal_shear(0.1))),
    ("skew", CohomologyClass([0, 1]), BundleAutomorphism(SKEW)),
    ("skew-degree-3", CohomologyClass([0, 1]), BundleAutomorphism(SKEW3, -1)),
    ("rigid-circle", CohomologyClass([1]), BundleAutomorphism(rigid_rotation([0.3]), 1)),
    ("affine-circle", CohomologyClass([1]), BundleAutomorphism(torus_affine([[1]], [0.25]))),
    ("arnold", CohomologyClass([1]), BundleAutomorphism(arnold_circle(0.3, 0.9), -2)),
]
# m on both sides of the one-block split: m^2 = GRID_BLOCK at m = 128 on T^2,
# m = GRID_BLOCK on the circle
SIDES = {2: (1, 3, 128, 129, 300, 1024), 1: (1, 3, 1024, GRID_BLOCK, GRID_BLOCK + 1, 50_000)}
assert 128**2 == GRID_BLOCK
CASES += [
    (f"{name}-m{m}", a, g, m)
    for name, a, g in KERNEL_FAMILIES
    for m in SIDES[a.dimension]
    if (name, m) not in {(c[0], c[3]) for c in CASES}
]
# a real class whose entries are both non-integer: a_j (y_j - x_j) rounds, so
# a matrix product that fused a multiply and an add would change the last bit
REAL = CohomologyClass([0.3, 0.7], coefficients="real")
CASES += [
    ("rigid-real-class", REAL, BundleAutomorphism(rigid_rotation([0.3, 0.61]), 0.25), 300),
    ("sinshear-real-class", REAL, BundleAutomorphism(sinusoidal_shear(0.1), -0.4), 300),
    ("skew-real-class", REAL, BundleAutomorphism(SKEW3, 0.1), 300),
]
TORUS_FAMILIES = [(name, g.lift) for name, a, g in KERNEL_FAMILIES if a.dimension == 2]


def reference_mean(integrand, n, m):
    """The midpoint mean read off the whole meshgrid stack."""
    return float(np.mean(integrand(meshgrid_grid(n, m, 0.5))))


@pytest.mark.parametrize("name, a, g, m", CASES, ids=[c[0] for c in CASES])
def test_lebesgue_mean_matches_the_whole_grid_bit_for_bit(name, a, g, m):
    value = reference_mean(lambda pts: rho_many(a, g, pts), a.dimension, m)
    rep = _walked_mean(a, g, LEBESGUE, quadrature_points=m, check_invariance=False)
    assert rep.value == value
    # the public mean reads a built-in family's constant term, exactly
    public = mean_translation_number(a, g, LEBESGUE, quadrature_points=m, check_invariance=False)
    if g.lift.kernel_spec is None:
        assert public == rep
    else:
        assert public.rational == exact_mean(a, g) and public.value == float(public.rational)


def mean_displacement_and_degree(g, n):
    """(v, d) for a built-in family: v its mean displacement, the translation
    part (for an affine map, M^T a = a cancels the (M - I) x of rho), and d
    the degree of rho as a trigonometric polynomial."""
    code, params = g.lift.kernel_spec
    if code == _kernels.RIGID:
        return params, 0
    if code == _kernels.AFFINE:
        return params[n * n :], 0
    if code == _kernels.CIRCLE_SINE:
        return params[:1], 1
    if code == _kernels.SINE_SHEAR:
        return [0.0, 0.0], 1
    return [params[0], params[2]], int(params[1])


def exact_mean(a, g):
    """The Lebesgue mean <a, v> + shift of rho, in exact arithmetic on the
    float parameters."""
    v, _ = mean_displacement_and_degree(g, a.dimension)
    return sum(Fraction(e) * Fraction(float(t)) for e, t in zip(a.entries, v)) + Fraction(g.fiber_shift)


@pytest.mark.parametrize("name, a, g", KERNEL_FAMILIES, ids=[c[0] for c in KERNEL_FAMILIES])
def test_lebesgue_bound_contains_the_exact_mean(name, a, g):
    _, d = mean_displacement_and_degree(g, a.dimension)
    for m in sorted({1, d, d + 1, 128} - {0}):
        rep = _walked_mean(a, g, LEBESGUE, quadrature_points=m, check_invariance=False)
        assert abs(Fraction(rep.value) - exact_mean(a, g)) <= Fraction(rep.error_bound), m
        public = mean_translation_number(a, g, LEBESGUE, quadrature_points=m, check_invariance=False)
        assert (public.rational, public.error_bound) == (exact_mean(a, g), 0.0), m
        if m > d:  # the rule is exact: the bound is the rounding term alone
            assert rep.error_bound <= 1e-12, m
        else:  # the grid aliases rho: the midpoint Lipschitz bound
            cell = a.one_norm * g.lift.displacement_lipschitz * math.sqrt(a.dimension / 12) / m
            assert cell < rep.error_bound <= cell + 1e-12, m


def test_a_composed_word_gets_the_lipschitz_bound():
    # rho of this word is not a trigonometric polynomial: c(x0 + eps sin(2 pi x1))
    a, g = CohomologyClass([0, 1]), BundleAutomorphism(SKEW.compose(sinusoidal_shear(0.2)), 1)
    reference = mean_translation_number(a, g, LEBESGUE, quadrature_points=1024, check_invariance=False)
    for m in (1, 2, 4, 16, 64):
        rep = mean_translation_number(a, g, LEBESGUE, quadrature_points=m, check_invariance=False)
        cell = a.one_norm * g.lift.displacement_lipschitz * math.sqrt(2 / 12) / m
        assert cell < rep.error_bound <= cell + 1e-12, m
        assert abs(rep.value - reference.value) <= rep.error_bound - reference.error_bound, m


@pytest.mark.parametrize("name, a, g, m", CASES, ids=[c[0] for c in CASES])
def test_seminorm_matches_the_whole_grid_bit_for_bit(name, a, g, m):
    want = float(np.max(np.abs(rho_many(a, g, meshgrid_grid(a.dimension, m, 0.0)))))
    assert _grid_seminorm(a, g, m).estimate == want
    # the public seminorm of a built-in family scans the same corners of its
    # one axis, from the coefficients: the same maximum up to rounding
    public = seminorm(a, g, m).estimate
    assert public == want if g.lift.kernel_spec is None else abs(public - want) <= 1e-13


def test_gal_kedra_mean_matches_the_whole_grid_bit_for_bit():
    a, h = CohomologyClass([0, 1]), rigid_rotation([0.23, 0.41])

    def integrand(xs, gx, out):  # the column images of h, then of SKEW after h
        hx = _column_image(h)(xs)
        out[...] = _gal_kedra_rows(a.vector, xs, hx, gx, _column_image(SKEW)(hx))

    # the error of a Lebesgue mean depends on the integrand: the caller bounds it
    want = reference_mean(lambda pts: gal_kedra_many(a, SKEW, h, pts), 2, 300)
    assert _measure_mean(integrand, LEBESGUE, 2, 300, SKEW) == (want, None)


def reference_residual(lift, m):
    """The Lebesgue invariance residual of a T^2 map read off the whole
    meshgrid stack. Every probe has frequencies in {-1, 0, 1}, and some entry
    is nonzero, so its mean over the unmoved midpoint grid is exactly 0 once
    m >= 2; at m = 1 it is computed."""
    assert lift.dimension == 2
    pts = meshgrid_grid(2, m, 0.5)
    moved = reduce_point(lift.evaluate_many(pts))
    return max(
        abs(float(np.mean(after)) - (float(np.mean(before)) if m == 1 else 0.0))
        for f in _default_test_functions(2)
        for after, before in zip(f(moved.T), f(pts.T))
    )


def test_invariance_residual_reads_the_same_grid():
    m = 200  # 40000 midpoints: three blocks
    assert measure_invariance_residual(SKEW, LEBESGUE, quadrature_points=m) == reference_residual(SKEW, m)


@pytest.mark.parametrize("m", SIDES[2])
@pytest.mark.parametrize("name, lift", TORUS_FAMILIES, ids=[c[0] for c in TORUS_FAMILIES])
def test_invariance_residual_of_each_torus_family_matches_the_whole_grid_bit_for_bit(name, lift, m):
    assert measure_invariance_residual(lift, LEBESGUE, quadrature_points=m) == reference_residual(lift, m)


# Words of 2-4 letters: the built-in letters of T^1 and T^2 compose to one
# column step (`torus._StepEvaluator`), which images grid columns letter by
# letter; a word with an Arnold-inverse, identity or hand-built letter keeps
# the stacking adapter of `_column_image`.
COLUMN_LETTERS = {n: [g.lift for _, a, g in KERNEL_FAMILIES if a.dimension == n] for n in (1, 2)}
ADAPTER_LETTERS = {
    1: [
        ("arnold-inverse", arnold_circle(0.3, 0.9).invert()),
        ("identity", identity_lift(1)),
        ("hand-built", LiftedMap(lambda x: x + 0.2 + 0.05 * np.sin(2 * np.pi * x), [[1]])),
    ],
    2: [
        ("identity", identity_lift(2)),
        ("hand-built", LiftedMap(lambda x: x + 0.1 * np.cos(2 * np.pi * x[..., ::-1]), [[1, 0], [0, 1]])),
    ],
}


def word_cases(seed=5):
    rng = np.random.default_rng(seed)
    cases = []
    for n in (1, 2):
        column, adapter = COLUMN_LETTERS[n], ADAPTER_LETTERS[n]
        for length in (2, 2, 3, 3, 4, 4):
            letters = [column[i] for i in rng.integers(len(column), size=length)]
            cases.append((f"T{n}-{length}-letters-{len(cases)}", letters))
        for tag, extra in adapter:
            letters = [column[i] for i in rng.integers(len(column), size=int(rng.integers(1, 4)))]
            letters.insert(int(rng.integers(len(letters) + 1)), extra)
            cases.append((f"T{n}-{len(letters)}-letters-{tag}", letters))
    return cases


# each built-in family alone, as a one-letter word, then the words
IMAGE_CASES = [(name, [g.lift]) for name, _, g in KERNEL_FAMILIES] + word_cases()


def word_of(letters):
    """The word that applies letters[0] first."""
    word = letters[0]
    for letter in letters[1:]:
        word = letter.compose(word)
    return word


@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("name, letters", IMAGE_CASES, ids=[c[0] for c in IMAGE_CASES])
def test_column_images_equal_evaluate_many_on_every_block(name, letters, offset, monkeypatch):
    word, n = word_of(letters), letters[0].dimension
    column = all(isinstance(letter.evaluator, _StepEvaluator) for letter in letters)
    assert isinstance(word.evaluator, _StepEvaluator) == column
    m = SIDES[n][-2]  # several blocks, the last one short
    calls = counted_evaluate_many(monkeypatch)
    blocks = [(xs, ys) for xs, ys in _grid_columns(word, n, m, offset)]
    # a column step stacks no point; the adapter stacks each block once
    assert calls == [] if column else sum(calls) == m**n
    for xs, ys in blocks:
        images = stacked(np.broadcast_arrays(*xs, *ys)[n:])  # ys broadcast to the block
        assert len(ys) == n and images.tobytes() == word.evaluate_many(stacked(xs)).tobytes()
        pts = stacked(xs)
        for letter in letters:  # the letters' stacks, one after another
            pts = letter.evaluate_many(pts)
        assert images.tobytes() == pts.tobytes()
    assert len(blocks) > 1


@pytest.mark.parametrize("n, m", [(1, 3), (1, 20_000), (2, 3), (2, 300), (3, 40), (3, 200)])
def test_axis_columns_broadcast_to_the_block(n, m):
    blocks = list(_grid_blocks(n, m, 0.5))
    for cols in blocks:
        assert len(cols) == n and all(c.ndim == 2 for c in cols)
        rows = len(cols[0])
        if n <= 2:  # the kernel families' blocks: rows of axis 0 by the whole of axis 1
            assert cols[0].shape == (rows, 1) and (n == 1 or cols[1].shape == (1, m))
    grid = np.concatenate([stacked(cols) for cols in blocks])
    assert grid.tobytes() == meshgrid_grid(n, m, 0.5).tobytes()


def counted_evaluate_many(monkeypatch):
    """The point counts of every LiftedMap.evaluate_many call from now on."""
    calls = []
    evaluate_many = LiftedMap.evaluate_many

    def counted(self, points):
        calls.append(len(points))
        return evaluate_many(self, points)

    monkeypatch.setattr(LiftedMap, "evaluate_many", counted)
    return calls


@pytest.mark.parametrize("name, a, g", KERNEL_FAMILIES, ids=[c[0] for c in KERNEL_FAMILIES])
def test_kernel_family_grids_make_no_evaluate_many_call(name, a, g, monkeypatch):
    # a lift's only stack route is `evaluate_many` on its stacked points
    # (`_column_image`); a mean past the residual's grid, its residual and a
    # seminorm scan of a built-in family read the blocks' axis columns
    calls = counted_evaluate_many(monkeypatch)
    m = 2 * dynamics.QUADRATURE_POINTS
    rep = _walked_mean(a, g, LEBESGUE, m)
    sup = _grid_seminorm(a, g, m, "certified")
    assert calls == [] and rep.invariance_residual is not None and sup.rigorous
    # nor do the coefficient routes, nor the probes that an Arnold mean keeps
    rep = mean_translation_number(a, g, LEBESGUE, m)
    sup = seminorm(a, g, m, "certified")
    assert calls == [] and rep.invariance_residual is not None and sup.rigorous


# the circle map of the Arnold family does not preserve Lebesgue measure
SPLIT_FAMILIES = [c for c in KERNEL_FAMILIES if c[0] != "arnold"]


@pytest.mark.parametrize("name, a, g", SPLIT_FAMILIES, ids=[c[0] for c in SPLIT_FAMILIES])
def test_one_letter_split_pairs_make_no_evaluate_many_call(name, a, g, monkeypatch):
    monkeypatch.setattr(galkedra, "WORD_LENGTH", 1)
    calls = counted_evaluate_many(monkeypatch)
    rigid = BundleAutomorphism(rigid_rotation([0.1] * a.dimension), 1)
    rep = galkedra.splitting_check(a, [g, rigid], LEBESGUE, pairs=6, quadrature_points=200)
    assert calls == [] and rep.additivity_residual <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_split_pairs_of_built_in_words_make_no_evaluate_many_call(n, monkeypatch):
    # every built-in family of T^n that preserves Lebesgue measure and fixes the
    # class; split-check draws words of up to WORD_LENGTH letters of them
    a = CohomologyClass([1] + [0] * (n - 1))
    gens = [g for _, c, g in SPLIT_FAMILIES if c.dimension == n and preserves_class(a, g.lift)]
    assert len(gens) == (2 if n == 1 else 5)
    calls = counted_evaluate_many(monkeypatch)
    rep = galkedra.splitting_check(a, gens, LEBESGUE, pairs=12, quadrature_points=64, seed=4)
    assert calls == [] and rep.additivity_residual <= 1e-12


def test_hand_built_lifts_image_every_block_with_evaluate_many(monkeypatch):
    _, a, g, m = next(c for c in CASES if c[0] == "affine T^3")
    n = a.dimension
    calls = counted_evaluate_many(monkeypatch)
    _walked_mean(a, g, LEBESGUE, m, check_invariance=False)
    assert len(calls) > 1 and sum(calls) == m**n
    calls.clear()
    _grid_seminorm(a, g, m)
    assert len(calls) > 1 and sum(calls) == m**n
    calls.clear()
    measure_invariance_residual(g.lift, LEBESGUE, quadrature_points=m)
    assert sum(calls) == m**n


@pytest.mark.parametrize("name, a, g", KERNEL_FAMILIES, ids=[c[0] for c in KERNEL_FAMILIES])
def test_lebesgue_mean_and_its_residual_share_one_grid(name, a, g, monkeypatch):
    shapes = []
    grid_blocks = dynamics._grid_blocks

    def counted(*args):
        shapes.append(args)
        return grid_blocks(*args)

    monkeypatch.setattr(dynamics, "_grid_blocks", counted)
    m = dynamics.QUADRATURE_POINTS
    _walked_mean(a, g, LEBESGUE, m)
    assert shapes == [(a.dimension, m, 0.5)]
    # a finer mean grid leaves the residual its own grid at the cap
    shapes.clear()
    _walked_mean(a, g, LEBESGUE, 2 * m)
    assert shapes == [(a.dimension, 2 * m, 0.5), (a.dimension, m, 0.5)]
    # the coefficient mean reads no grid; an Arnold map's residual reads its own
    probes = [(a.dimension, m, 0.5)] if name == "arnold" else []
    for points in (m, 2 * m):
        shapes.clear()
        mean_translation_number(a, g, LEBESGUE, points)
        assert shapes == probes


@pytest.mark.parametrize(
    "lift, m", [(SKEW, 1), (rigid_rotation([0.3]), 1), (arnold_circle(0.3, 0.9), 2)], ids=["T2-m1", "circle-m1", "circle-m2"]
)
def test_grids_the_probes_alias_on_keep_their_unmoved_means(lift, m):
    # the circle's probes reach degree 2, so m = 2 aliases there too
    pts = meshgrid_grid(lift.dimension, m, 0.5)
    moved = reduce_point(lift.evaluate_many(pts))
    probes = _default_test_functions(lift.dimension)
    unmoved = [float(np.mean(v)) for f in probes for v in f(pts.T)]
    assert max(map(abs, unmoved)) == 1.0
    want = max(abs(float(np.mean(v)) - u) for v, u in zip((v for f in probes for v in f(moved.T)), unmoved))
    assert measure_invariance_residual(lift, LEBESGUE, quadrature_points=m) == want


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seminorm_memory_does_not_grow_with_the_grid():
    g = BundleAutomorphism(SKEW)
    peak = traced_peak(lambda: _grid_seminorm(CohomologyClass([0, 1]), g, 2048, "certified"))
    assert peak < 4 * 2**20  # the 2048^2 points alone would take 64 MiB
    # the coefficient route scans 2048 points of one axis
    peak = traced_peak(lambda: seminorm(CohomologyClass([0, 1]), g, 2048, "certified"))
    assert peak < 2**18


def test_lebesgue_mean_holds_one_float_per_point():
    g = BundleAutomorphism(SKEW)
    m = 1024
    peak = traced_peak(lambda: _walked_mean(CohomologyClass([0, 1]), g, LEBESGUE, m, check_invariance=False))
    assert peak < 8 * m * m + 2 * 2**20
    # the coefficient mean holds no grid at all
    peak = traced_peak(
        lambda: mean_translation_number(CohomologyClass([0, 1]), g, LEBESGUE, m, check_invariance=False)
    )
    assert peak < 2**16
