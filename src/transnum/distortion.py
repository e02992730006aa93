"""Seminorms from the displacement cocycle and undistortion certificates.

The seminorm of a bundle automorphism is sup_x |rho(x)|. A maximum over a
corner grid is a lower bound (Estimate mode); Certified mode adds a true
upper bound. The rho of a built-in map is a trigonometric polynomial in
one coordinate, so its seminorm is read from its coefficients
(`_coefficient_seminorm`): the estimate scans the m corner points of that
axis, and the upper bound is the exact constant at degree 0, the crest
|c_0| + hypot(a_1, b_1) at degree 1, and the scan's maximum over
cos(pi d / m) at degree d > 1 once m > 2d (Bernstein-Szego), with a cell
term only below that, each rounded outward. Any other lift scans the m^n
corner grid (`_grid_seminorm`), and its upper bound adds a per-cell
increment bound:

    sup |rho| <= max_grid |rho| + |a|_1 * L * (cell diameter) / 2,

where L is a Lipschitz constant for the displacement field g - id when the
lift carries one, else (1 + Lip(g)) as a fallback. On the torus every point
lies within half a cell diagonal of a corner-grid node, which is what makes
the /2 radius valid; corner grids also nest under doubling, so Estimate
mode is monotone under refinement on both routes.

The certificate combines a translation-number lower bound with seminorm
upper bounds over a finite symmetric generating set S: subadditivity along
words gives |g^n|_S >= n |rot(g)| / C for C = max over S of the seminorm,
hence translation length tau(g) >= |rot(g)| / C > 0 means g is undistorted
relative to S. Inverses never need separate grids: rho_x(s^-1) =
-rho_{s^-1 x}(s), so both maps share one sup.

Word norms themselves are computed exactly for affine automorphisms with
rational data (integer matrix, Fraction translation and fiber shift), by
breadth-first search over canonical forms: a translation may be reduced
mod 1 if the fiber shift absorbs <a, floor>, which is exactly the deck
relation of the bundle. The search runs on plain integers: with D and E the
lcm of the generators' translation and shift denominators, every word lies
on the lattice (integer matrix, (1/D) Z^n, (1/E) Z), so a state is
(M, D v, E c) and its key, the flat tuple (M, D v mod D, E c + E <a, floor>),
stands for `canonical_key` one to one. Since every generator fixes a, the
deck relation is a congruence, and the frontier holds reduced keys only.
The BFS expands one whole layer at a time with array arithmetic
(`_Lattice.layer`): int64 while a bound derived there from the frontier's
largest entries stays below 2^62, Python ints (`dtype=object`) for a layer
past it, so no product ever wraps. The dedupe, goal and cap tests then walk
the layer in the order a word-by-word search would discover it.
`ball_norms` decodes the keys once, at the end; `translation_length_estimate`
looks the powers g^n up in the integer table, so one ball gives |g|_S and
every |g^n|_S.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._kernels import RIGID, TWO_PI
from .dynamics import (
    GRID_BLOCK,
    SIN_ULPS,
    UNIT_ROUNDOFF,
    BundleAutomorphism,
    ConvergenceReport,
    _displacement_coefficients,
    _displacement_lipschitz,
    _grid_columns,
    _map_shift,
    _power,
    _require_grid,
    _rho_values,
    _rounding_scale,
    local_translation_number,
)
from .errors import (
    CertificateUnavailable,
    ClassNotPreserved,
    DimensionMismatch,
    SearchBudgetExceeded,
    ValidationError,
)
from .families import torus_affine
from .torus import CohomologyClass, _exact_det, _exact_inverse, preserves_class

__all__ = [
    "SeminormReport",
    "seminorm",
    "UndistortionCertificate",
    "undistortion_certificate",
    "ExactAffineAutomorphism",
    "word_norm_bfs",
    "ball_norms",
    "TranslationLengthReport",
    "translation_length_estimate",
]

MODE_ESTIMATE = "estimate"
MODE_CERTIFIED = "certified"

VERDICT_CERTIFIED = "undistorted-certified"
VERDICT_NONE = "no-certificate"

GRID_RESOLUTION = 256
BFS_RADIUS = 12
BFS_CAP = 200_000


@dataclass(frozen=True)
class SeminormReport:
    """estimate is a maximum of |rho| over corner points; in certified mode
    certified_upper bounds sup |rho|, and cell_term is the Lipschitz cell
    term it includes (0.0 where none is needed)."""

    estimate: float
    certified_upper: Optional[float]
    cell_term: Optional[float]
    mode: str
    grid_resolution: int
    rigorous: bool


def seminorm(
    a: CohomologyClass,
    g: BundleAutomorphism,
    grid_resolution: int = GRID_RESOLUTION,
    mode: str = MODE_ESTIMATE,
) -> SeminormReport:
    """sup_x |rho(x)|: from the coefficients of a lift with a kernel spec
    (`_coefficient_seminorm`), by a scan of the m^n corner grid for any
    other lift (`_grid_seminorm`). Both check the grid of m =
    grid_resolution points per axis, m >= 1 and m^n <= POINT_CAP."""
    if g.lift.kernel_spec is None:
        return _grid_seminorm(a, g, grid_resolution, mode)
    m, shift = _seminorm_inputs(a, g, grid_resolution, mode)
    return _coefficient_seminorm(a, g, m, mode, shift)


def _seminorm_inputs(a: CohomologyClass, g: BundleAutomorphism, grid_resolution, mode: str) -> tuple:
    """(m, fiber shift as a float) after the checks of every seminorm
    route: the mode, `dynamics._map_shift`'s (g preserves a and its shift
    lies in the fiber group) and the grid."""
    if mode not in (MODE_ESTIMATE, MODE_CERTIFIED):
        raise ValidationError(f"mode must be {MODE_ESTIMATE!r} or {MODE_CERTIFIED!r}")
    shift = _map_shift(a, g)
    m = int(grid_resolution)
    _require_grid(a.dimension, m)
    return m, shift


def _grid_seminorm(
    a: CohomologyClass,
    g: BundleAutomorphism,
    grid_resolution: int,
    mode: str = MODE_ESTIMATE,
) -> SeminormReport:
    """sup |rho| by a scan of the m^n corner grid; certified mode adds the
    cell bound |a|_1 L sqrt(n) / (2m), L = `_displacement_lipschitz`.

    The scan runs over the corner grid in blocks of at most GRID_BLOCK
    points, read as `dynamics._grid_columns` gives them: a built-in
    family's rho is computed from the block's axis columns and their
    images, so no point or image stack is built. It keeps only each block's
    max |rho|, so it holds O(GRID_BLOCK) values at a time whatever the
    resolution."""
    m, shift = _seminorm_inputs(a, g, grid_resolution, mode)
    n, avec = a.dimension, a.vector
    blocks = _grid_columns(g.lift, n, m, 0.0)
    est = float(np.max([np.max(np.abs(_rho_values(xs, ys, avec, shift))) for xs, ys in blocks]))
    if mode == MODE_ESTIMATE:
        return SeminormReport(est, None, None, mode, m, rigorous=False)
    disp_lip = _displacement_lipschitz(g.lift)
    if disp_lip is None:
        raise CertificateUnavailable(f"certified seminorm for {g.label!r} needs a Lipschitz bound")
    cell_term = a.one_norm * disp_lip * (math.sqrt(n) / m) / 2.0
    return SeminormReport(est, est + cell_term, cell_term, mode, m, rigorous=True)


def _coefficient_seminorm(a: CohomologyClass, g: BundleAutomorphism, m: int, mode: str, shift: float) -> SeminormReport:
    """sup |rho| of a lift with a kernel spec, read from its coefficients
    (`dynamics._displacement_coefficients`): rho(x) = T(x_axis), with
    T(t) = C + sum_{k <= d} A_k cos(2 pi k t) + B_k sin(2 pi k t).

    The estimate is max |T| over the m corner points t_j = j/m of the one
    axis, the corner grid's projection, each T(t_j) evaluated from the
    coefficients; at degree 0 it is |C|. Corner points nest under doubling,
    so the estimate is monotone under refinement. With u = UNIT_ROUNDOFF
    and S = |C| + sum_k |A_k| + |B_k|, which bounds |T| and each of its
    partial sums, each computed T(t_j) is within E = (8 pi d + 2 SIN_ULPS +
    2d + 6) u S of the exact value: the angle 2 pi k t_j takes four
    relative roundings (t_j, TWO_PI and two products), so it is off by at
    most 8 pi d u and moves term k by at most that times |A_k| + |B_k|; cos
    and sin are within SIN_ULPS ulps of values at most 1 in size (2 SIN_ULPS
    u each); each product and each of the 2d adds rounds once; C is rounded
    once and each A_k, B_k within 3 u (a product, and for arnold a division
    by TWO_PI, which is within u of 2 pi); one u S more covers the
    second-order terms.

    The certified side bounds M = sup |T|:
      - degree 0: M = |C|, rounded up to a float;
      - degree 1: M = |C| + hypot(A_1, B_1), the crest of one phase-shifted
        sinusoid; the float C, pair and hypot (within 1 ulp) leave it
        within 8 u S;
      - degree d > 1 and m > 2d: M <= (max_j |T(t_j)| + E) / cos(pi d / m).
        In theta = 2 pi t the Bernstein-Szego inequality T'^2 + d^2 T^2 <=
        d^2 M^2 (Borwein and Erdelyi, Polynomials and Polynomial
        Inequalities, GTM 161) gives |T(theta* + s)| >= M cos(d s) for
        d |s| <= pi/2 from a maximum theta*, and a corner point lies within
        pi/m of theta*. The float cosine is lowered by 16 u (its angle
        within 5 u, its value within 2 SIN_ULPS u);
      - degree d > 1 and m <= 2d: M <= max_j |T(t_j)| + E + L / (2m), the
        cell term, with L = sum_k 2 pi k hypot(A_k, B_k) >= |T'|, since
        every t lies within 1/(2m) of a corner point. The float L is within
        (d + 4) u of the sum (its d adds, TWO_PI, the product by k and
        hypot), and the cell term takes (d + 6) u more.
    The upper bound adds (w + n + 3) u R to M's bound
    (`dynamics._rounding_scale`), the rounding of any one computed value of
    rho and one u R for second order, so it bounds every |rho| that a grid
    scan or an orbit computes too; then it is rounded up by 8 u, which
    covers the few float operations on nonnegative terms above. A rigid map
    by the vector 0 takes R = 0: x + 0 - x is 0 to the bit, so every
    computed rho is the shift, and the bound is |C| exactly."""
    _, constant, pairs = _displacement_coefficients(a, g.lift, g.fiber_shift)
    d = len(pairs)
    est = abs(float(constant)) if d == 0 else _axis_max(float(constant), pairs, m)
    if mode == MODE_ESTIMATE:
        return SeminormReport(est, None, None, mode, m, rigorous=False)
    u = UNIT_ROUNDOFF
    spread = abs(float(constant)) + sum(abs(ak) + abs(bk) for ak, bk in pairs)  # S
    cell_term = 0.0
    if d == 0:
        top = abs(float(constant))
        if Fraction(top) < abs(constant):
            top = math.nextafter(top, math.inf)
    elif d == 1:
        top = abs(float(constant)) + math.hypot(*pairs[0]) + 8 * u * spread
    else:
        top = est + (8 * math.pi * d + 2 * SIN_ULPS + 2 * d + 6) * u * spread
        if m > 2 * d:
            top /= math.cos(math.pi * d / m) - 16 * u
        else:
            lip = sum(TWO_PI * k * math.hypot(ak, bk) for k, (ak, bk) in enumerate(pairs, start=1))
            cell_term = lip / (2 * m) * (1.0 + (d + 6) * u)
            top += cell_term
    _, scale, w = _rounding_scale(a, g.lift, shift)
    code, params = g.lift.kernel_spec
    if code == RIGID and not np.any(params):
        scale = 0.0  # x + 0 - x is 0 to the bit, so every computed rho is the shift
    upper = top + (w + a.dimension + 3) * u * scale
    if scale:
        upper *= 1.0 + 8 * u
    return SeminormReport(est, upper, cell_term, mode, m, rigorous=True)


def _axis_max(constant: float, pairs: list, m: int) -> float:
    """max |constant + sum_k A_k cos(2 pi k t) + B_k sin(2 pi k t)| over the
    corner points t = j/m, j < m, in blocks of at most GRID_BLOCK points."""
    best = 0.0
    for start in range(0, m, GRID_BLOCK):
        t = np.arange(start, min(start + GRID_BLOCK, m)) / m
        values = constant
        for k, (ak, bk) in enumerate(pairs, start=1):
            angle = TWO_PI * k * t
            values = values + (ak * np.cos(angle) + bk * np.sin(angle))
        best = max(best, float(np.max(np.abs(values))))
    return best


@dataclass(frozen=True)
class UndistortionCertificate:
    """Verdict plus everything needed to re-check it by hand.

    tau_lower_bound > 0 with rigorous bounds is the certificate; the
    verdict never claims distortion, only the absence of a certificate.
    `rigorous` needs both sides: a certified seminorm for every generator
    and an exact rot (one with a `rational`: exact-closed-form,
    exact-periodic or exact-locked), since the window gap of any other
    verdict is a heuristic, not a bound."""

    verdict: str
    rigorous: bool
    tau_lower_bound: float
    seminorm_constant: float
    rot_value: float
    rot_error: Optional[float]
    rot_verdict: str
    generator_bounds: tuple
    generating_set_label: str
    note: str = (
        "bounds transfer to inverses exactly (the displacement of the inverse "
        "is the negated displacement along the inverse orbit), so the set is "
        "treated as symmetric without extra grids"
    )


def undistortion_certificate(
    a: CohomologyClass,
    g: BundleAutomorphism,
    generating_set: Sequence,
    x,
    *,
    grid_resolution: int = GRID_RESOLUTION,
    generating_set_label: str = "user-supplied generating set",
    rot_kwargs: Optional[dict] = None,
) -> UndistortionCertificate:
    """Certify tau(g) >= (|rot| - err)/C relative to the generating set.

    generating_set entries are BundleAutomorphisms or (label, automorphism)
    pairs. Bounds degrade to non-rigorous grid estimates when a generator
    has no Lipschitz data, and rot to a heuristic when its verdict is a
    window estimate; the verdict is then still emitted but flagged."""
    if not generating_set:
        raise ValidationError("generating set must be nonempty")
    labeled = []
    for i, item in enumerate(generating_set):
        if isinstance(item, tuple):
            labeled.append((str(item[0]), item[1]))
        else:
            labeled.append((f"s{i + 1}", item))
    bounds = []
    all_rigorous = True
    for name, s in labeled:
        try:
            rep = seminorm(a, s, grid_resolution, MODE_CERTIFIED)
            bounds.append((name, rep.certified_upper, True))
        except CertificateUnavailable:
            rep = seminorm(a, s, grid_resolution, MODE_ESTIMATE)
            bounds.append((name, rep.estimate, False))
            all_rigorous = False
    constant = max(b for _, b, _r in bounds)
    rot = local_translation_number(a, g, x, **(rot_kwargs or {}))
    usable = rot.converged
    exact_rot = rot.rational is not None
    if constant > 0.0 and usable:
        tau_lb = max(0.0, (abs(rot.value) - rot.error_bound) / constant)
    else:
        tau_lb = 0.0
    verdict = VERDICT_CERTIFIED if tau_lb > 0.0 else VERDICT_NONE
    return UndistortionCertificate(
        verdict=verdict,
        rigorous=all_rigorous and exact_rot and verdict == VERDICT_CERTIFIED,
        tau_lower_bound=tau_lb,
        seminorm_constant=constant,
        rot_value=rot.value,
        rot_error=rot.error_bound,
        rot_verdict=rot.verdict,
        generator_bounds=tuple(bounds),
        generating_set_label=generating_set_label,
    )


# --------------------------------------------------------------------------
# exact affine automorphisms and word geometry


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    if isinstance(v, str):
        return Fraction(v)
    raise ValidationError(f"exact arithmetic needs int/Fraction/str, got {type(v).__name__}")


def _int_matrix(rows) -> tuple:
    out = []
    for row in rows:
        r = []
        for v in row:
            if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                r.append(int(v))
            else:
                raise ValidationError("matrix entries must be integers")
        out.append(tuple(r))
    n = len(out)
    if any(len(r) != n for r in out):
        raise ValidationError("matrix must be square")
    return tuple(out)


@dataclass(frozen=True)
class ExactAffineAutomorphism:
    """x -> M x + v on the base with a rational fiber shift; all exact.

    Two data sets present the same bundle automorphism when translations
    differ by an integer vector m and the shifts by <a, m>; `canonical_key`
    quotients by that relation (for an integer class a), and the BFS keys
    are its integer form."""

    matrix: tuple
    translation: tuple
    fiber_shift: Fraction = Fraction(0)

    def __post_init__(self):
        m = _int_matrix(self.matrix)
        if abs(_exact_det(m)) != 1:
            raise ValidationError("affine automorphism needs |det M| = 1")
        v = tuple(_frac(t) for t in self.translation)
        if len(v) != len(m):
            raise ValidationError("translation length must match matrix size")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", v)
        object.__setattr__(self, "fiber_shift", _frac(self.fiber_shift))

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, dimension: int) -> "ExactAffineAutomorphism":
        eye = tuple(tuple(int(i == j) for j in range(dimension)) for i in range(dimension))
        return cls(eye, (Fraction(0),) * dimension, Fraction(0))

    @classmethod
    def fiber_translation(cls, dimension: int, r) -> "ExactAffineAutomorphism":
        out = cls.identity(dimension)
        return cls(out.matrix, out.translation, _frac(r))

    def compose(self, other: "ExactAffineAutomorphism") -> "ExactAffineAutomorphism":
        if self.dimension != other.dimension:
            raise DimensionMismatch("dimension mismatch in composition")
        n = self.dimension
        m = tuple(
            tuple(sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        v = tuple(
            sum(self.matrix[i][k] * other.translation[k] for k in range(n)) + self.translation[i]
            for i in range(n)
        )
        return ExactAffineAutomorphism(m, v, self.fiber_shift + other.fiber_shift)

    def inverse(self) -> "ExactAffineAutomorphism":
        minv = _exact_inverse(self.matrix)
        n = self.dimension
        v = tuple(
            -sum(minv[i][k] * self.translation[k] for k in range(n)) for i in range(n)
        )
        return ExactAffineAutomorphism(minv, v, -self.fiber_shift)

    def power(self, k: int) -> "ExactAffineAutomorphism":
        return _power(self, k, ExactAffineAutomorphism.identity(self.dimension))

    def canonical_key(self, a: CohomologyClass):
        if not a.is_integral():
            raise ValidationError("canonical forms need an integer class")
        if a.dimension != self.dimension:
            raise DimensionMismatch("class/automorphism dimension mismatch")
        floors = [math.floor(t) for t in self.translation]
        v_red = tuple(t - f for t, f in zip(self.translation, floors))
        shift = self.fiber_shift + sum(
            ai * fi for ai, fi in zip(a.entries, floors)
        )
        return (self.matrix, v_red, shift)

    def to_bundle_automorphism(self) -> BundleAutomorphism:
        lift = torus_affine(
            [list(r) for r in self.matrix], [float(t) for t in self.translation]
        )
        return BundleAutomorphism(lift, self.fiber_shift)


def _require_fixes_class(a: CohomologyClass, maps) -> None:
    """Refuse a map whose matrix moves a: it is no automorphism of the bundle."""
    for s in maps:
        if not preserves_class(a, s.matrix):
            raise ClassNotPreserved(f"matrix {s.matrix} moves the class {a.entries}")


def _symmetrized(a: CohomologyClass, generators):
    seen = {}
    for s in generators:
        for t in (s, s.inverse()):
            seen.setdefault(t.canonical_key(a), t)
    return list(seen.values())


class _Lattice:
    """Integer coordinates for the group a symmetric generating set spans.

    Matrices are integral, so every word's translation lies in (1/D) Z^n
    and its fiber shift in (1/E) Z, with D and E the lcm of the generators'
    translation and shift denominators. A state (flat M, D v, E c) holds
    only ints. Its key is one flat tuple of n^2 + n + 1 ints: flat M, the
    residues D v mod D and E c + E <a, floor>, with floor = floor(v). That
    is the deck relation applied exactly as `canonical_key` applies it, so
    keys and canonical keys correspond one to one, and a key is itself the
    state of the reduced representative of its element.

    `layer` steps a whole frontier of keys by every letter at once, in
    int64 while a bound on every value of the layer stays below 2^62 and
    in Python ints (`dtype=object`) above it. Write mu = max |M_s| over the
    letters s, m = max |M| over the frontier, tau = max |D v_s|,
    gamma = max |E c_s|, kappa = max |E c| over the frontier's keys and
    A = |a|_1. For a key with residues 0 <= r < D:
      - every partial sum of (M_s M)_ij is at most n mu m;
      - every partial sum of M_s r + D v_s is at most
        T = n mu (D - 1) + tau;
      - its floors f = (M_s r + D v_s) // D satisfy |f| <= F = T // D + 1,
        and |D f| <= T + D;
      - every partial sum of E c + E c_s + E <a, f> is at most
        kappa + gamma + E A F.
    So B = max(n mu m, T + D, kappa + gamma + E A F, E) bounds every
    intermediate and every input (the letters' entries too: mu <= n mu m
    since m >= 1 for a unimodular M, and |a_i| <= E A F). Below 2^62 the
    sum of any two such values stays below 2^63, and int64 is exact."""

    def __init__(self, a: CohomologyClass, gens):
        self.entries = a.entries
        self.dimension = n = a.dimension
        self.tden = math.lcm(*(t.denominator for s in gens for t in s.translation))
        self.sden = math.lcm(*(s.fiber_shift.denominator for s in gens))
        states = [self.state(s) for s in gens]
        self._mu = max(abs(e) for m, _, _ in states for e in m)
        self._tau = max(abs(e) for _, t, _ in states for e in t)
        self._gamma = max(abs(c) for _, _, c in states)
        self._a1 = sum(map(abs, self.entries))
        dtype = np.int64 if max(self._mu, self._tau, self._gamma, self._a1) < 2**62 else object
        self._letters = (
            np.array([m for m, _, _ in states], dtype=dtype).reshape(-1, n, n),
            np.array([t for _, t, _ in states], dtype=dtype),
            np.array([c for _, _, c in states], dtype=dtype),
            np.array(self.entries, dtype=dtype),
        )

    def state(self, g: ExactAffineAutomorphism) -> Optional[tuple]:
        """(flat M, D v, E c), or None when g lies off the lattice."""
        if g.dimension != self.dimension:
            raise DimensionMismatch("class/automorphism dimension mismatch")
        t = [v * self.tden for v in g.translation]
        c = g.fiber_shift * self.sden
        if c.denominator != 1 or any(v.denominator != 1 for v in t):
            return None
        flat = tuple(e for row in g.matrix for e in row)
        return flat, tuple(int(v) for v in t), int(c)

    def key(self, m: tuple, t, c: int) -> tuple:
        d = self.tden
        floors = [v // d for v in t]
        residues = [v - d * f for v, f in zip(t, floors)]
        return (*m, *residues, c + self.sden * sum(map(operator.mul, self.entries, floors)))

    def key_of(self, g: ExactAffineAutomorphism) -> Optional[tuple]:
        """The key of g, or None (which no ball element has) off the lattice."""
        st = self.state(g)
        return None if st is None else self.key(*st)

    def decode(self, key: tuple) -> tuple:
        """The `canonical_key` that an integer key stands for."""
        n = self.dimension
        matrix = tuple(key[i * n:(i + 1) * n] for i in range(n))
        return (
            matrix,
            tuple(Fraction(r, self.tden) for r in key[n * n:-1]),
            Fraction(key[-1], self.sden),
        )

    def layer(self, frontier: np.ndarray) -> np.ndarray:
        """Keys of s g for every key g of the (F, K) frontier and every
        letter s, as an (F L, K) array in frontier-major, letter-minor
        order; int64 when the class docstring's bound B stays below 2^62,
        else Python ints."""
        n = self.dimension
        nn = n * n
        d, e = self.tden, self.sden
        largest = np.abs(frontier).max(axis=0)
        m, kappa = int(largest[:nn].max()), int(largest[-1])
        t_bound = n * self._mu * (d - 1) + self._tau
        bound = max(
            n * self._mu * m,
            t_bound + d,
            kappa + self._gamma + e * self._a1 * (t_bound // d + 1),
            e,
        )
        dtype = np.int64 if bound < 2**62 else object
        keys = frontier.astype(dtype, copy=False)
        ms, ts, cs, pairing = (x.astype(dtype, copy=False) for x in self._letters)
        nf, nl = len(keys), len(ms)
        # s after g: M_s M, M_s r + D v_s, E c + E c_s, then reduced
        t = np.matmul(ms, keys[:, None, nn:nn + n, None])[..., 0] + ts
        floors = t // d
        out = np.empty((nf, nl, nn + n + 1), dtype=dtype)
        out[..., :nn] = np.matmul(ms, keys[:, None, :nn].reshape(nf, 1, n, n)).reshape(nf, nl, nn)
        out[..., nn:-1] = t - d * floors
        out[..., -1] = keys[:, None, -1] + cs + e * (floors @ pairing)
        return out.reshape(nf * nl, nn + n + 1)


def _bfs(a: CohomologyClass, generators, radius: int, cap: int, target=None):
    """(lattice, integer key -> word norm) over the BFS ball of the
    symmetrized set, stopping early once `target` is reached (a target off
    the lattice is never reached). Every generator and the target must fix a.

    The search runs one layer at a time: `_Lattice.layer` computes every
    product of the frontier's keys with the letters in one pass of array
    arithmetic, and the dedupe, the goal test and the cap walk its rows in
    frontier-major, letter-minor order, the order in which a word-by-word
    search discovers them. The frontier holds reduced keys: with M_s^T a = a
    for every letter, <a, M_s f> = <a, f>, so the deck relation is a
    congruence and the product of reduced representatives has the key of
    the product of the words."""
    if not generators:
        raise ValidationError("need at least one generator")
    gens = _symmetrized(a, generators)
    _require_fixes_class(a, generators if target is None else [*generators, target])
    lattice = _Lattice(a, gens)
    ident = lattice.key_of(ExactAffineAutomorphism.identity(lattice.dimension))
    norms = {ident: 0}
    goal = None if target is None else lattice.key_of(target)
    frontier = np.array([ident], dtype=np.int64)
    depth = 0
    while len(frontier) and depth < radius and goal not in norms:
        depth += 1
        rows = lattice.layer(frontier)
        keep = []
        for i, k in enumerate(map(tuple, rows.tolist())):
            if k not in norms:
                norms[k] = depth
                if k == goal:
                    return lattice, norms
                keep.append(i)
                if len(norms) > cap:
                    raise SearchBudgetExceeded(
                        f"BFS ball exceeded {cap} elements at radius {depth}"
                    )
        frontier = rows[keep]
    return lattice, norms


def ball_norms(
    a: CohomologyClass,
    generators: Sequence[ExactAffineAutomorphism],
    radius: int = BFS_RADIUS,
    cap: int = BFS_CAP,
) -> dict:
    """BFS ball of the symmetrized set: canonical key -> word-norm.

    Raises SearchBudgetExceeded when the visited set outgrows `cap`."""
    lattice, norms = _bfs(a, generators, radius, cap)
    return {lattice.decode(k): v for k, v in norms.items()}


def word_norm_bfs(
    a: CohomologyClass,
    generators: Sequence[ExactAffineAutomorphism],
    target: ExactAffineAutomorphism,
    radius: int = BFS_RADIUS,
    cap: int = BFS_CAP,
) -> Optional[int]:
    """Length of the shortest word in the symmetrized set equal to target
    (as a bundle automorphism); None when not found within the radius."""
    lattice, norms = _bfs(a, generators, radius, cap, target)
    return norms.get(lattice.key_of(target))


@dataclass(frozen=True)
class TranslationLengthReport:
    """|g^n|_S / n for n = 1..max_power; the estimate is the running min
    (subadditivity drives the sequence down to the true length)."""

    norms: tuple
    estimate: Optional[float]
    complete: bool


def translation_length_estimate(
    a: CohomologyClass,
    generators: Sequence[ExactAffineAutomorphism],
    g: ExactAffineAutomorphism,
    max_power: int = 10,
    radius: int = BFS_RADIUS,
    cap: int = BFS_CAP,
) -> TranslationLengthReport:
    _require_fixes_class(a, [g])
    lattice, table = _bfs(a, generators, radius, cap)
    rows = []
    best: Optional[float] = None
    complete = True
    power = ExactAffineAutomorphism.identity(g.dimension)
    for n in range(1, max_power + 1):
        power = power.compose(g)
        norm = table.get(lattice.key_of(power))
        rows.append((n, norm))
        if norm is None:
            complete = False
        else:
            ratio = norm / n
            best = ratio if best is None else min(best, ratio)
    return TranslationLengthReport(norms=tuple(rows), estimate=best, complete=complete)
