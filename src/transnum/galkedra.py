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
integral along the straight segment (Gauss–Legendre, with the derivative of
g along the segment taken by the complex step through g's own evaluator),
which is the module's independent cross-check. For a built-in g it also
carries a proven error bound: the truncation bound of the rule on a
Bernstein ellipse, with the integrand's size there read from g's
coefficients, plus a rounding term (`_gauss_plan`).

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

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    INVARIANCE_TOLERANCE,
    POINT_CAP,
    UNIT_ROUNDOFF,
    BundleAutomorphism,
    InvariantMeasure,
    _add_shifts,
    _average,
    _checked_shift,
    _column_image,
    _cover_of,
    _displacement_lipschitz,
    _displacement_pairs,
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
    "LineIntegral",
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
# The Gauss–Legendre rule of `gal_kedra_quadrature`: the node counts it
# tries in turn, the most it takes, and the Bernstein ellipse parameters rho
# its truncation bound tries (`_gauss_truncation`).
GAUSS_NODE_COUNTS = (8, 16, 32, 64)
GAUSS_MAX_NODES = GAUSS_NODE_COUNTS[-1]
GAUSS_RHOS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
# numpy's float nodes and weights, moved to [0, 1] (`_gauss_rule`), against
# their exact values: each node is within GAUSS_NODE_ULPS u and the weights'
# errors sum to at most GAUSS_WEIGHT_ULPS u, u = UNIT_ROUNDOFF. The test
# suite checks both against 200-bit values for every n from 1 to
# GAUSS_MAX_NODES; measured, the worst are 0.90 u (6 nodes) and 85 u
# (48 nodes), and 14, 11, 18 and 79 u at 8, 16, 32 and 64 nodes.
GAUSS_NODE_ULPS = 1.0
GAUSS_WEIGHT_ULPS = 128.0
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


class LineIntegral(float):
    """The value of `gal_kedra_quadrature`, a float that also carries the
    node count of its Gauss–Legendre rule (`nodes`) and a bound on its
    distance from the line integral along the float segment
    (`error_bound`, None without one)."""

    __slots__ = ("nodes", "error_bound")

    def __new__(cls, value: float, nodes: int, error_bound: Optional[float]):
        out = super().__new__(cls, value)
        out.nodes, out.error_bound = nodes, error_bound
        return out


def gal_kedra_quadrature(
    a: CohomologyClass,
    g: LiftedMap,
    h: LiftedMap,
    x,
    segments: int = GAUSS_MAX_NODES,
) -> LineIntegral:
    """Gauss–Legendre line integral of g*alpha - alpha from x~ to h(x~),
    with a bound on its error.

    The integrand at gamma(t) = x~ + t v (v = h(x~) - x~), t in [0, 1], is
    <a, Dg(gamma(t)) v> - <a, v>. The derivative is the complex step
    Dg(p) v = Im g(p + i h v) / h with h = 2^-200: no subtraction, so it is
    accurate to rounding, and exact for linear maps because h is a power of
    two. g's evaluator must therefore accept complex points; one that
    returns real values would give a silent zero derivative and is refused.

    `segments` (1 to POINT_CAP) caps the node count. For a built-in g the
    count and the error bound come from g's coefficients (`_gauss_plan`):
    only the bound reads them, the values at the nodes do not, so the
    integral stays a route independent of the closed form. Any other lift
    (words, inverses, hand-built lifts) takes min(segments,
    GAUSS_MAX_NODES) nodes and gets no bound."""
    if not 1 <= segments <= POINT_CAP:
        raise ValidationError(f"need from 1 to {POINT_CAP} segments, got {segments}")
    require_preserves_class(a, g)
    require_preserves_class(a, h)
    xt = _cover_of(x, a.dimension)
    v = h(xt) - xt
    nodes, bound = _gauss_plan(a, g, xt, v, segments)
    t, w = _gauss_rule(nodes)
    av = a.vector
    integrand = _complex_step(g, xt[None, :] + t[:, None] * v[None, :], v) @ av - float(np.dot(av, v))
    return LineIntegral(np.dot(w, integrand), nodes, bound)


@functools.cache
def _gauss_rule(n: int) -> tuple:
    """numpy's n-point Gauss–Legendre nodes s and weights w on [-1, 1],
    moved to [0, 1] as (s + 1) / 2 and w / 2, read-only since every call
    shares them."""
    s, w = np.polynomial.legendre.leggauss(n)
    t, w = (s + 1.0) / 2.0, w / 2.0
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gauss_truncation(n: int, sup) -> float:
    """A bound on |int_0^1 f dt - sum_i w_i f(t_i)| for the exact n-point
    Gauss–Legendre rule on [0, 1], for f analytic in every Bernstein
    ellipse, where `sup(sigma)` bounds |f| on the strip |Im t| <= sigma.

    On [-1, 1], with f analytic in E_rho and |f| <= M there, the rule of
    m + 1 points errs by at most (64/15) M rho^(-2m) / (rho^2 - 1)
    (Trefethen, Approximation Theory and Approximation Practice, SIAM
    2013, Thm 19.3), so n points give the exponent -2(n - 1). Moving
    [-1, 1] to [0, 1] halves the integral, and E_rho to an ellipse inside
    the strip |Im t| <= (rho - 1/rho) / 4. Any rho > 1 gives a bound; this
    is the least over GAUSS_RHOS."""
    return min(
        (32.0 / 15.0) * sup((rho - 1.0 / rho) / 4.0) * rho ** (-2 * (n - 1)) / (rho * rho - 1.0)
        for rho in GAUSS_RHOS
    )


# math.cosh overflows past this argument
_COSH_LIMIT = 710.0


def _gauss_plan(a: CohomologyClass, g: LiftedMap, xt: np.ndarray, v: np.ndarray, segments: int) -> tuple:
    """(n, error bound) of the Gauss–Legendre integral of
    f(t) = <a, Dg(x~ + t v) v> - <a, v> over [0, 1].

    For a built-in g, rho_g = <a, g(y) - y> = C + sum_k A_k cos 2 pi k y_j
    + B_k sin 2 pi k y_j in one axis j (`dynamics._displacement_pairs`),
    and f(t) = d/dt rho_g(x~ + t v). With s = |v_j|, |A_k cos z + B_k sin z|
    <= hypot(A_k, B_k) cosh(Im z), so on |Im t| <= sigma

        |f| <= 2 pi s sum_k k hypot(A_k, B_k) cosh(2 pi k s sigma),

    which `_gauss_truncation` turns into the truncation bound; rigid and
    affine g have no pairs, and f = 0. n is the least of GAUSS_NODE_COUNTS
    (each capped by `segments`) whose truncation bound is below the
    rounding term, else the largest; the bound is the sum of the two.

    The rounding term, first order in u = UNIT_ROUNDOFF, with F = 2 pi s
    sum k hypot(A_k, B_k) >= |f| and L = 4 pi^2 s sum k^2 hypot(A_k, B_k)
    >= |df/dy_j| on the real segment, P = |x~_j| + s >= |y_j| there, and
    T = |a|_1 (3 |v|_sup + Lip |v|_2) >= |a|_1 (2 |v|_sup + |Dg v|_sup)
    (Lip = `dynamics._displacement_lipschitz`, Euclidean-in, sup-out):
      - the weighted sum: np.dot takes each product through at most n
        roundings, in any order, and the weights sum to 1: n u F;
      - the weights: within GAUSS_WEIGHT_ULPS u in all, GAUSS_WEIGHT_ULPS u F;
      - the nodes: each within GAUSS_NODE_ULPS u of the exact node, which
        moves y_j by at most GAUSS_NODE_ULPS u s <= GAUSS_NODE_ULPS u P,
        and f by L times that;
      - each value's own rounding: 16 u (1 + T) + 8 u L P, an allowance in
        `dynamics._finite_mean`'s style, not derived here. The first part
        covers the complex step and the pairings with a, whose terms are
        at most T in size; the second the rounding of the point x~ + t v
        (at most 2 u P in y_j) and of the angles 2 pi k y_j in g's
        evaluator, each of which moves f by at most L times its share;
      - u F more covers the second-order terms.
    A lift without a coefficient table or a displacement Lipschitz
    constant gets min(segments, GAUSS_MAX_NODES) nodes and no bound, as
    does a truncation bound that overflows."""
    counts = sorted({min(c, segments) for c in GAUSS_NODE_COUNTS})
    coefficients = _displacement_pairs(a, g)
    lip = _displacement_lipschitz(g)
    if coefficients is None or lip is None:
        return counts[-1], None
    axis, pairs = coefficients
    sizes = [(k, math.hypot(c, d)) for k, (c, d) in enumerate(pairs, 1)]
    s = abs(float(v[axis]))
    slope = 2.0 * math.pi * s

    def sup(sigma):
        if sizes and slope * len(sizes) * sigma > _COSH_LIMIT:
            return math.inf
        return slope * sum(k * size * math.cosh(slope * k * sigma) for k, size in sizes)

    f_top = slope * sum(k * size for k, size in sizes)
    f_lip = 2.0 * math.pi * slope * sum(k * k * size for k, size in sizes)
    reach = abs(float(xt[axis])) + s
    terms = a.one_norm * (3.0 * float(np.max(np.abs(v))) + lip * float(np.linalg.norm(v)))
    fixed = 16.0 * (1.0 + terms) + (8.0 + GAUSS_NODE_ULPS) * f_lip * reach + (1.0 + GAUSS_WEIGHT_ULPS) * f_top
    for n in counts:
        rounding = UNIT_ROUNDOFF * (fixed + n * f_top)
        truncation = _gauss_truncation(n, sup)
        if truncation < rounding:
            break
    bound = truncation + rounding
    return n, bound if math.isfinite(bound) else None


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
