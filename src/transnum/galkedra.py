"""The two-variable displacement cocycle on the base group and its checks.

For base lifts g, h fixing the class a, define at a base point x (cover x~)

    G_x(g, h) = <a, g(h(x~)) - g(x~)> - <a, h(x~) - x~>,

the line integral of g*alpha - alpha from x to h(x) for the constant form
alpha = sum a_i dx_i. Writing F_g(y) = <a, g(y) - y>, this is
F_g(h(x~)) - F_g(x~), which makes two exact identities transparent:

 * coboundary: G_x(g, h) = rho_x(g h) - rho_x(g) - rho_x(h) for any lifts
   of g, h to the bundle (the fiber shifts cancel), using the convention
   (delta c)(g, h) = c(h) - c(g h) + c(g) for 1-cochains, so G = -delta rho;
 * cocycle: (delta G)(g, h, k) = G(h, k) - G(gh, k) + G(g, hk) - G(g, h)
   vanishes identically.

`gal_kedra_quadrature` re-derives the same number as an honest line
integral along the straight segment (midpoint rule, with the derivative of
g along the segment taken by the complex step through g's own evaluator),
which is the module's independent cross-check.

The residual checks (`coboundary_residual`, `cocycle_residual`,
`quasimorphism_defect`, `splitting_check`) image each point once under each
map and read every term from that one set of images: a composed map's image
is the image of an image, g(h(x)). So a residual measures the rounding noise
of one computation of the images, not the spread between two computations
of them; the quadrature above stays the independent route. Each pair of
`splitting_check` reads its four value rows F(g), F(h), F(gh) and G from
one walk of mu's points under g (`dynamics._measure_rows`): four m^n
floats, 128 KiB on T^2 at the default m = 64. Every row is computed from
coordinates, one array per axis, with h(x) and g(h(x)) from
`dynamics._column_image`, so on a grid a pair of words of built-in maps
images axis columns letter by letter and stacks no point. An orbit measure
is the orbit of each mean's own map, so there F(h) and F(gh) walk their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    INVARIANCE_TOLERANCE,
    POINT_CAP,
    BundleAutomorphism,
    InvariantMeasure,
    _add_shifts,
    _average,
    _checked_shift,
    _column_image,
    _cover_of,
    _map_shift,
    _measure_rows,
    _rho_values,
    measure_invariance_residual,
)
from .errors import PreconditionError, ValidationError
from .families import sample_class_entries, sample_fiber_shift, sample_map
from .torus import CohomologyClass, LiftedMap, require_preserves_class

__all__ = [
    "gal_kedra",
    "gal_kedra_many",
    "gal_kedra_quadrature",
    "coboundary_residual",
    "cocycle_residual",
    "quasimorphism_defect",
    "SplittingReport",
    "splitting_check",
    "ResidualSuite",
    "coboundary_residual_suite",
    "cocycle_residual_suite",
]

# Draws of a seeded check (suite draws, splitting pairs) and the suites' tori.
CHECK_COUNT = 100
CHECK_DIMENSIONS = (1, 2)
# Points per axis of a splitting check's Lebesgue grid.
SPLIT_QUADRATURE_POINTS = 64
QUADRATURE_SEGMENTS = 10_000
WORD_LENGTH = 2


def gal_kedra(a: CohomologyClass, g: LiftedMap, h: LiftedMap, x) -> float:
    """Closed-form G_x(g, h); lift-independent because both matrices fix a."""
    require_preserves_class(a, g)
    require_preserves_class(a, h)
    xt = _cover_of(x, a.dimension)
    hx = h(xt)
    return float(_gal_kedra_rows(a.vector, xt, hx, g(xt), g(hx)))


def gal_kedra_many(a: CohomologyClass, g: LiftedMap, h: LiftedMap, points: np.ndarray) -> np.ndarray:
    """Vectorized G over an (N, n) stack of base points."""
    require_preserves_class(a, g)
    require_preserves_class(a, h)
    pts = np.asarray(points, dtype=float)
    gx, hx = g.evaluate_many(pts), h.evaluate_many(pts)
    return _gal_kedra_rows(a.vector, pts.T, hx.T, gx.T, g.evaluate_many(hx).T)


def _gal_kedra_rows(av: np.ndarray, xs, hx, gx, ghx):
    """G from the coordinates of points and of their images under h, g and
    gh, one entry per axis as `_rho_values` takes them: the coordinates of
    one point, the columns of a stack or a grid block's axis columns. Both
    pairings sum in `_rho_values`' axis order, and its shift 0.0 changes no
    nonzero value."""
    return _rho_values(gx, ghx, av, 0.0) - _rho_values(xs, hx, av, 0.0)


# complex-step size: a power of two, so h v and Im(.)/h round nowhere
_COMPLEX_STEP = 2.0**-200


def _complex_step(g: LiftedMap, pts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dg(p) v for every row p of the (N, n) stack: Im g(p + i h v) / h."""
    image = np.asarray(g.evaluator(pts + (1j * _COMPLEX_STEP) * v))
    if not np.iscomplexobj(image):
        raise ValidationError(
            f"lift {g.label!r} returned real values for complex points; "
            "the quadrature needs a complex-safe evaluator"
        )
    return image.imag / _COMPLEX_STEP


def gal_kedra_quadrature(
    a: CohomologyClass,
    g: LiftedMap,
    h: LiftedMap,
    x,
    segments: int = QUADRATURE_SEGMENTS,
) -> float:
    """Midpoint line integral of g*alpha - alpha from x~ to h(x~).

    The integrand at gamma(t) = x~ + t v (v = h(x~) - x~) is
    <a, Dg(gamma(t)) v> - <a, v>. The derivative is the complex step
    Dg(p) v = Im g(p + i h v) / h with h = 2^-200: no subtraction, so it is
    accurate to rounding, and exact for linear maps because h is a power of
    two. g's evaluator must therefore accept complex points; one that
    returns real values would give a silent zero derivative and is refused."""
    if not 1 <= segments <= POINT_CAP:
        raise ValidationError(f"need from 1 to {POINT_CAP} segments, got {segments}")
    require_preserves_class(a, g)
    require_preserves_class(a, h)
    xt = _cover_of(x, a.dimension)
    v = h(xt) - xt
    ts = (np.arange(segments) + 0.5) / segments
    pts = xt[None, :] + ts[:, None] * v[None, :]
    av = a.vector
    integrand = _complex_step(g, pts, v) @ av - float(np.dot(av, v))
    return float(np.mean(integrand))


def _pair_shifts(a: CohomologyClass, g: BundleAutomorphism, h: BundleAutomorphism) -> tuple:
    """The float fiber shifts of g, h and gh, after `dynamics._map_shift`'s
    checks of g and of h: each lift fixes a and each shift lies in the fiber
    group. The lift of gh fixes a whenever both do, so it is not checked
    again; its shift is the sum of theirs, checked like every shift."""
    sg, sh = _map_shift(a, g), _map_shift(a, h)
    return sg, sh, _checked_shift(a, _add_shifts(g.fiber_shift, h.fiber_shift))


def _require_count(count: int, what: str) -> None:
    if count < 1:
        raise ValidationError(f"need at least one {what}, got {count}")


def _require_suite(count: int, dimensions) -> None:
    _require_count(count, "draw")
    if not dimensions:
        raise ValidationError("need at least one dimension")


def coboundary_residual(
    a: CohomologyClass, g: BundleAutomorphism, h: BundleAutomorphism, x
) -> float:
    """|G_x(g, h) - (rho_x(gh) - rho_x(g) - rho_x(h))|; exactly zero in
    exact arithmetic, so the residual is pure floating-point noise. Three
    images are read: h(x), g(x) and gh(x) = g(h(x))."""
    sg, sh, sgh = _pair_shifts(a, g, h)
    xt = _cover_of(x, a.dimension)
    av = a.vector
    hx, gx = h.lift(xt), g.lift(xt)
    ghx = g.lift(hx)
    value = _gal_kedra_rows(av, xt, hx, gx, ghx)
    target = _rho_values(xt, ghx, av, sgh) - _rho_values(xt, gx, av, sg) - _rho_values(xt, hx, av, sh)
    return float(abs(value - target))


def cocycle_residual(a: CohomologyClass, g: LiftedMap, h: LiftedMap, k: LiftedMap, x) -> float:
    """|G(h,k) - G(gh,k) + G(g,hk) - G(g,h)| at x; identically zero. Six
    images are read: k(x), h(x), g(x), h(k(x)), g(h(x)) and g(h(k(x)))."""
    for f in (g, h, k):
        require_preserves_class(a, f)
    xt = _cover_of(x, a.dimension)
    av = a.vector
    kx, hx, gx = k(xt), h(xt), g(xt)
    hkx = h(kx)
    ghx, ghkx = g(hx), g(hkx)
    return float(abs(
        _gal_kedra_rows(av, xt, kx, hx, hkx)
        - _gal_kedra_rows(av, xt, kx, ghx, ghkx)
        + _gal_kedra_rows(av, xt, hkx, gx, ghkx)
        - _gal_kedra_rows(av, xt, hx, gx, ghx)
    ))


def _random_word(rng, elements: Sequence[BundleAutomorphism]) -> BundleAutomorphism:
    """A product of 1..WORD_LENGTH elements drawn uniformly from the set."""
    length = int(rng.integers(1, WORD_LENGTH + 1))
    out = elements[int(rng.integers(len(elements)))]
    for _ in range(length - 1):
        out = out.compose(elements[int(rng.integers(len(elements)))])
    return out


def quasimorphism_defect(
    a: CohomologyClass,
    elements: Sequence[BundleAutomorphism],
    x,
    samples: int = 64,
    seed: int = 0,
) -> float:
    """max |rho_x(g) + rho_x(h) - rho_x(gh)| over sampled words in the set.

    The defect of rho_x as a quasimorphism on the group the elements
    generate, probed on random words of up to WORD_LENGTH letters. Each
    sample reads h(x), g(x) and gh(x) = g(h(x))."""
    if not elements:
        raise ValidationError("need at least one element")
    _require_count(samples, "sample")
    xt = _cover_of(x, a.dimension)
    av = a.vector
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        gw, hw = _random_word(rng, elements), _random_word(rng, elements)
        sg, sh, sgh = _pair_shifts(a, gw, hw)
        hx, gx = hw.lift(xt), gw.lift(xt)
        ghx = gw.lift(hx)
        defect = abs(_rho_values(xt, gx, av, sg) + _rho_values(xt, hx, av, sh) - _rho_values(xt, ghx, av, sgh))
        worst = max(worst, float(defect))
    return worst


@dataclass(frozen=True)
class SplittingReport:
    """Additivity of the mean translation number on a measure-preserving set.

    additivity_residual is max |F(gh) - F(g) - F(h)| over the sampled pairs;
    mean_cocycle_residual checks the exact identity
    int G_x(g,h) dmu = F(gh) - F(g) - F(h) as a computation cross-check."""

    additivity_residual: float
    mean_cocycle_residual: float
    pairs: int
    generator_invariance: tuple
    measure_kind: str

    @property
    def splitting_residual(self) -> float:
        return self.additivity_residual


def splitting_check(
    a: CohomologyClass,
    generators: Sequence[BundleAutomorphism],
    mu: InvariantMeasure,
    *,
    pairs: int = CHECK_COUNT,
    quadrature_points: int = SPLIT_QUADRATURE_POINTS,
    seed: int = 0,
) -> SplittingReport:
    """Sample pairs of words in the generators and test F(gh) = F(g) + F(h)
    for F the mean translation number against mu.

    Every generator's base map must preserve mu (push-forward residual at
    most INVARIANCE_TOLERANCE), otherwise the premise of additivity fails
    and the check refuses to run. Each pair's four means are read from one
    walk of mu's points (`_pair_means`)."""
    if not generators:
        raise ValidationError("need at least one generator")
    _require_count(pairs, "pair")
    inv = tuple(
        measure_invariance_residual(g.lift, mu, quadrature_points=quadrature_points)
        for g in generators
    )
    for g, r in zip(generators, inv):
        if r > INVARIANCE_TOLERANCE:
            raise PreconditionError(
                f"generator {g.label!r} does not preserve the measure "
                f"(push-forward residual {r:.3e})"
            )
    rng = np.random.default_rng(seed)
    worst_add = 0.0
    worst_mean_cocycle = 0.0
    for _ in range(pairs):
        gw, hw = _random_word(rng, generators), _random_word(rng, generators)
        fg, fh, fgh, mean_g = _pair_means(a, gw, hw, mu, quadrature_points)
        worst_add = max(worst_add, abs(fgh - fg - fh))
        worst_mean_cocycle = max(worst_mean_cocycle, abs(mean_g - (fgh - fg - fh)))
    return SplittingReport(
        additivity_residual=worst_add,
        mean_cocycle_residual=worst_mean_cocycle,
        pairs=pairs,
        generator_invariance=inv,
        measure_kind=mu.kind,
    )


def _pair_means(
    a: CohomologyClass, g: BundleAutomorphism, h: BundleAutomorphism, mu: InvariantMeasure, m: int
) -> tuple:
    """The means of rho for g, h and gh against mu (the values of the walked
    means, `dynamics._walked_mean`, also for built-in maps, whose exact
    `mean_translation_number` would read no grid; without the error bounds
    the residuals never read) and the mean of G(g, h).

    One walk of mu's points x under g (`_measure_rows`) gives the four rows
    F(g), F(h), F(gh) and G of m^n (or N) floats, all read from coordinates:
    h images x once and g images h(x) once (`_column_image`, so on a grid a
    word of built-in maps images axis columns), and each row's mean
    is taken over that row alone as a 1-D array, as a single mean is. An
    orbit measure is walked under each mean's own map, so F(h) and F(gh)
    walk the orbits of h and gh, while F(g) and G share g's walk."""
    sg, sh, sgh = _pair_shifts(a, g, h)
    av, n = a.vector, a.dimension
    h_image, g_image = _column_image(h.lift), _column_image(g.lift)

    def means(lift, func, count):
        rows, weights = _measure_rows(func, count, mu, n, m, lift)
        return [_average(v, weights) for v in rows]

    def rows(xs, gx, out):
        hx = h_image(xs)
        ghx = g_image(hx)
        _rho_values(xs, gx, av, sg, out[0])
        _rho_values(xs, hx, av, sh, out[1])
        _rho_values(xs, ghx, av, sgh, out[2])
        out[3][...] = _gal_kedra_rows(av, xs, hx, gx, ghx)

    fg, fh, fgh, mean_g = means(g.lift, rows, 4)
    if mu.kind == "dirac_orbit":
        (fh,) = means(h.lift, lambda xs, ys, out: _rho_values(xs, ys, av, sh, out[0]), 1)
        (fgh,) = means(g.lift.compose(h.lift), lambda xs, ys, out: _rho_values(xs, ys, av, sgh, out[0]), 1)
    return fg, fh, fgh, mean_g


# --------------------------------------------------------------------------
# seeded residual suites (shared by the CLI check command and the tests)


@dataclass(frozen=True)
class ResidualSuite:
    max_residual: float
    count: int
    dimensions: tuple


def coboundary_residual_suite(seed: int, count: int, dimensions=CHECK_DIMENSIONS) -> ResidualSuite:
    """Random classes, maps, shifts, points; worst coboundary residual."""
    _require_suite(count, dimensions)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        dim = dimensions[i % len(dimensions)]
        entries = sample_class_entries(rng, dim)
        a = CohomologyClass(entries)
        g = BundleAutomorphism(sample_map(rng, entries), sample_fiber_shift(rng))
        h = BundleAutomorphism(sample_map(rng, entries), sample_fiber_shift(rng))
        x = rng.uniform(0.0, 1.0, size=dim)
        worst = max(worst, coboundary_residual(a, g, h, x))
    return ResidualSuite(max_residual=worst, count=count, dimensions=tuple(dimensions))


def cocycle_residual_suite(seed: int, count: int, dimensions=CHECK_DIMENSIONS) -> ResidualSuite:
    """Random triples of base lifts; worst cocycle residual."""
    _require_suite(count, dimensions)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        dim = dimensions[i % len(dimensions)]
        entries = sample_class_entries(rng, dim)
        a = CohomologyClass(entries)
        g = sample_map(rng, entries)
        h = sample_map(rng, entries)
        k = sample_map(rng, entries)
        x = rng.uniform(0.0, 1.0, size=dim)
        worst = max(worst, cocycle_residual(a, g, h, k, x))
    return ResidualSuite(max_residual=worst, count=count, dimensions=tuple(dimensions))
