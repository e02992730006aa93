"""Translation numbers of bundle automorphisms: pointwise limits and means.

A bundle automorphism over the class a is a pair (lift, fiber_shift): the
lift moves the base torus, the shift translates fibers. Its displacement
cocycle at a base point x with chosen cover representative x~ is

    rho(x) = <a, lift(x~) - x~> + fiber_shift,

independent of the representative because the matrix part fixes a. Powers
accumulate along the orbit, rho_x(g^n) = sum_{i<n} rho(g^i x), and the
local translation number is the limit of rho_x(g^n)/n. Three exact rules
come before the window estimate:

  - a skew map whose base rotation averages every term of its speed away
    has the constant term of rho as its limit at every point, read from its
    coefficients (`_closed_form_rot`, `exact-closed-form`); its orbit still
    runs, but only SCAN_HORIZON steps, as the independent route;
  - an orbit watched for an exact return to x: a period-q return whose
    accumulated displacement is within 1e-9 of an integer p (integer-fiber
    bundles only) is reported as the exact rational p/q
    (`exact-periodic`);
  - the orbits of an Arnold circle map on an integer class: a grid orbit,
    rounded outward, that proves F^q - p has a fixed point, so the rotation
    number of F is p/q (`exact-locked`).

Every other verdict is a window estimate, by window doubling.

The displacement of every built-in family is a trigonometric polynomial in
one coordinate (`_displacement_coefficients`), so its Lebesgue mean is its
constant term, an exact rational of the float data, and the Jacobian
proves its Lebesgue invariance except for Arnold maps. Every other mean
uses midpoint tensor quadrature (Lebesgue), bounded by the trigonometric
degree or the Lipschitz constant of the displacement (`_lebesgue_bound`),
or exact finite sums (orbit and empirical measures), and carries a
push-forward invariance residual so a non-invariant measure is flagged
rather than silently averaged. Every walked mean, residual and
splitting pair reads mu's points through one walk, `_measure_rows`: the
only code that knows where a measure's points come from. It reads them in
blocks of at most GRID_BLOCK points, each given by coordinates, one array
per axis, with those of its images: a grid block's axis columns
(`_grid_columns`), a block of an orbit's points (`_orbit_columns`), or the
columns of the sample stack. Every block is imaged by `_column_image`, the
lift's column step: a built-in family, or a word of them, images a grid
block letter by letter without stacking a point, and only a hand-built
evaluator is given stacks. An orbit images each of its points once, and
the next point is that image reduced mod 1. The perturbed Birkhoff average
reads the same orbit blocks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatch,
    NonIntegerFiberError,
    NotPeriodicError,
    PreconditionError,
    ValidationError,
)
from .torus import (
    BundlePoint,
    CohomologyClass,
    LiftedMap,
    _StepEvaluator,
    identity_lift,
    reduce_point,
    require_preserves_class,
    theta,
    torus_distance,
)

__all__ = [
    "BundleAutomorphism",
    "fiber_translation",
    "rho",
    "rho_many",
    "rho_power_average",
    "perturbed_rho_power_average",
    "ConvergenceReport",
    "local_translation_number",
    "local_translation_numbers",
    "periodic_rot",
    "InvariantMeasure",
    "MeanReport",
    "mean_translation_number",
    "measure_invariance_residual",
    "CochainPerturbation",
    "perturbed_rho",
    "VERDICT_CONVERGED",
    "VERDICT_EXACT_CLOSED_FORM",
    "VERDICT_EXACT_LOCKED",
    "VERDICT_EXACT_PERIODIC",
    "VERDICT_NOT_CONVERGED",
    "TongueProof",
]

VERDICT_CONVERGED = "converged"
VERDICT_EXACT_CLOSED_FORM = "exact-closed-form"
VERDICT_EXACT_LOCKED = "exact-locked"
VERDICT_EXACT_PERIODIC = "exact-periodic"
VERDICT_NOT_CONVERGED = "not-converged"

INTEGER_FIBER_TOLERANCE = 1e-9
# An orbit has returned once it is this close to its start (torus sup metric).
RETURN_TOLERANCE = 1e-10
# The window verdict waits for this many steps, so short exact periods are seen.
SCAN_HORIZON = 16
# Window tolerances of the limits of rigid and affine maps and of all others.
EXACT_WINDOW_TOLERANCE = 1e-9
WINDOW_TOLERANCE = 1e-6
MAX_ITERATIONS = 10**5
# Orbits of one family step together once there are this many of them: below
# it, a stack's numpy overhead per step (about 25 us) costs more than stepping
# each orbit with the kernel (break-even measured at 16 rows for 64-step rigid
# orbits and at 32 rows for 4096-step Arnold orbits).
STACK_MIN_ROWS = 32
# Midpoint points per axis of a Lebesgue mean; also the cap of the invariance grid.
QUADRATURE_POINTS = 128
# Tensor grids are evaluated in blocks of at most this many points, so a scan
# of any size holds one block of points and their images at a time.
GRID_BLOCK = 1 << 14
# A tensor grid or an orbit measure holds at most this many points.
POINT_CAP = 1 << 24
# A measure counts as preserved when its push-forward residual is at most this.
INVARIANCE_TOLERANCE = 1e-6
# The tongue test of Arnold maps (`_grid_locks`): a grid of LOCK_GRID + 1
# points is iterated for periods q = 1 .. LOCK_PERIODS. The cap comes from
# the period table of `benchmarks/bench_kernels.py` (2-vCPU Xeon, no numba).
# On a 10,000-row sweep of arnold(omega, 0.9), caps of 1, 8, 16 and 64
# prove 2866, 4676, 4956 and 5116 rows. A map the test cannot settle costs
# 0.08, 0.42, 0.56 and 2.0 ms per orbit.
LOCK_PERIODS = 8
LOCK_GRID = 256
# Rounding budget of the tongue test. Every float operation of the step is
# correctly rounded (unit roundoff 2^-53), except numpy's float64 sin, which
# is assumed to be within SIN_ULPS units in the last place; numpy on common
# platforms stays within one, and the test suite checks the step bound
# `_arnold_step_error` against 50-digit arithmetic.
UNIT_ROUNDOFF = 2.0**-53
SIN_ULPS = 4


@dataclass(frozen=True)
class BundleAutomorphism:
    """A lifted base map plus a fiber translation; compose, invert, power."""

    lift: LiftedMap
    fiber_shift: object = 0
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(
                self, "label", f"({self.lift.label}, shift={self.fiber_shift})"
            )

    @property
    def dimension(self) -> int:
        return self.lift.dimension

    def compose(self, other: "BundleAutomorphism") -> "BundleAutomorphism":
        """self after other; fiber shifts add (exactly, for int/Fraction)."""
        return BundleAutomorphism(
            self.lift.compose(other.lift), _add_shifts(self.fiber_shift, other.fiber_shift)
        )

    def inverse(self) -> "BundleAutomorphism":
        return BundleAutomorphism(self.lift.invert(), _neg_shift(self.fiber_shift))

    def power(self, k: int) -> "BundleAutomorphism":
        return _power(self, k, BundleAutomorphism(identity_lift(self.dimension), 0))


def _power(g, k: int, identity):
    """g^k by repeated composition, for anything with compose and inverse;
    k = 0 gives `identity`."""
    if k == 0:
        return identity
    base = g if k > 0 else g.inverse()
    out = base
    for _ in range(abs(k) - 1):
        out = out.compose(base)
    return out


def _add_shifts(a, b):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a + b
    return float(a) + float(b)


def _neg_shift(a):
    if isinstance(a, (int, Fraction)):
        return -a
    return -float(a)


def fiber_translation(dimension: int, r) -> BundleAutomorphism:
    """The automorphism fixing the base and moving every fiber by r."""
    return BundleAutomorphism(identity_lift(dimension), r, label=f"T[{r}]")


def _checked_shift(a: CohomologyClass, c) -> float:
    """Validate a fiber shift c against the fiber group and return it as
    float; a shift that is not finite is refused on every class."""
    if not math.isfinite(c):
        raise ValidationError(f"a fiber shift must be finite, got {c}")
    if a.is_integral():
        if isinstance(c, float) and not c.is_integer():
            raise PreconditionError(
                f"integer-fiber bundle cannot be translated by non-integer {c}"
            )
        if isinstance(c, Fraction) and c.denominator != 1:
            raise PreconditionError(
                f"integer-fiber bundle cannot be translated by non-integer {c}"
            )
    return float(c)


def _cover_of(x, dimension: int) -> np.ndarray:
    if isinstance(x, BundlePoint):
        cover = x.cover
    else:
        cover = np.atleast_1d(np.asarray(x, dtype=float))
    if cover.shape != (dimension,):
        raise DimensionMismatch(
            f"point of shape {cover.shape} on a {dimension}-torus"
        )
    return cover


def rho(a: CohomologyClass, g: BundleAutomorphism, x) -> float:
    """Fiber displacement <a, lift(x~) - x~> + shift at a single point."""
    c, cover = _orbit_start(a, g, x)
    return float(_rho_values(cover, g.lift(cover), a.vector, c))


def rho_many(a: CohomologyClass, g: BundleAutomorphism, points: np.ndarray) -> np.ndarray:
    """Vectorized rho over an (N, n) stack of base points."""
    c = _map_shift(a, g)
    pts = np.asarray(points, dtype=float)
    return _rho_values(pts.T, g.lift.evaluate_many(pts).T, a.vector, c)


def _rho_values(xs, ys, avec, shift: float, out=None):
    """rho from the coordinates x_j of points and y_j of their images under
    a lift whose class and fiber shift are checked: sum_j a_j (y_j - x_j)
    in axis order, then + shift. xs and ys hold one entry per axis, and the
    entries broadcast together: the coordinates of one point, the columns
    of an (N, n) stack (`stack.T`), or a grid block's axis columns and
    their images (`_grid_columns`). Each value takes the same roundings
    whichever form holds it; a matrix product would leave their order (and
    any fused multiply-add) to the BLAS library. Given `out` (a row slice
    that `_measure_rows` hands out), the shift is added straight into it,
    so each value is written once."""
    total = None
    for a_j, x_j, y_j in zip(avec, xs, ys):
        term = a_j * (y_j - x_j)
        total = term if total is None else total + term
    return total + shift if out is None else np.add(total, shift, out=out)


# --------------------------------------------------------------------------
# orbit accumulation


class _PythonOrbit:
    """Running rho-sums along one base orbit, or along a stack of B orbits,
    in memory that does not grow with the number of steps: the only record
    of the rows it steps, which `_translation_limits` reads.

    Keeps the reduced base point, the running sum, the first step index at
    which the orbit re-enters the RETURN_TOLERANCE ball around its start
    (-1 before that), and the running sum at that step: the only partial sum
    the limit reads. An orbit of a built-in family has a `kernel` (code,
    params); one orbit on T^1 or T^2 runs `_kernels._orbit_chunk_impl`, as
    `_kernels.orbit_chunk` with the kernel's family step, or, for any other
    `evaluator`, as `_kernels.lift_chunk`, which calls the evaluator once
    per step on the (n,) point. A stack of B orbits, a (B, n) array of
    starts, calls its evaluator once per step on the whole stack and keeps
    its sums, return indices and return sums as (B,) arrays; its `shift`
    may be a (B,) column, and so may each parameter of its `kernel`, from
    which the stack builds its `_StepEvaluator`. One orbit on T^n, n >= 3,
    runs as a one-row stack. Each step adds shift + sum_j avec_j (y_j - x_j)
    in the kernel's order; `rows()` reads every form the same way.

    Each `run_to` advances one block of steps, whose weighted Birkhoff
    average sum w inc / sum w, with w = `_kernels.block_weight`, is kept as
    `block` (nan before the first block); the weights need the block's
    length, which `run_to` knows before the block starts."""

    def __init__(self, x0: np.ndarray, *, avec, shift=0.0, kernel: Optional[tuple] = None, evaluator=None):
        self.x0 = reduce_point(x0)
        if self.x0.ndim == 1 and self.x0.size > 2:
            self.x0 = self.x0[None]  # the chunk's point is a pair: T^3 and up run as a stack
        self.x = self.x0.copy()
        stack = self.x0.shape[:-1]
        self.s = np.zeros(stack) if stack else 0.0
        self.count = 0
        self.first_return = np.full(stack, -1) if stack else -1
        self.s_return = np.full(stack, math.nan) if stack else math.nan
        self.block = np.full(stack, math.nan) if stack else math.nan
        self.kernel = kernel
        self._evaluator = _StepEvaluator(kernel) if kernel is not None and stack else evaluator
        self._avec = _kernels.pair(avec) if self.x0.ndim == 1 else [float(t) for t in avec]
        self.shift = shift

    @property
    def size(self) -> int:
        """The number of orbits: 1, or B for a (B, n) stack."""
        return 1 if self.x0.ndim == 1 else len(self.x0)

    def rows(self) -> list:
        """(s, first_return, s_return, block) of each orbit, as Python numbers."""
        if self.x0.ndim == 1:
            return [(self.s, self.first_return, self.s_return, self.block)]
        return list(zip(self.s.tolist(), self.first_return.tolist(), self.s_return.tolist(), self.block.tolist()))

    def keep(self, rows) -> None:
        """Drop every orbit of a stack but `rows` (indices, in order), with
        their kernel's parameter columns; a stack given only an evaluator
        keeps it, its parameters shared by all rows."""
        rows = np.asarray(rows)
        self.x0, self.x, self.s = self.x0[rows], self.x[rows], self.s[rows]
        self.first_return, self.s_return, self.block = self.first_return[rows], self.s_return[rows], self.block[rows]
        if self.kernel is not None:
            code, params = self.kernel
            self.kernel = (code, [t[rows] if isinstance(t, np.ndarray) else t for t in params])
            self._evaluator = _StepEvaluator(self.kernel)
        if isinstance(self.shift, np.ndarray):
            self.shift = self.shift[rows]

    def run_to(self, n: int) -> None:
        if n > self.count:
            self._advance(n - self.count)

    def _advance(self, steps: int) -> None:
        if self.x.ndim == 1:
            if self.kernel is None:
                chunk, (code, params) = _kernels.lift_chunk, (self._evaluator, self.x0.size)
            else:
                chunk, (code, params) = _kernels.orbit_chunk, self.kernel
            point, self.s, self.first_return, self.s_return, self.block = chunk(
                code, params, self._avec, self.shift, _kernels.pair(self.x), _kernels.pair(self.x0),
                self.count, steps, self.s, self.first_return, self.s_return, RETURN_TOLERANCE,
            )
            self.x = np.array(point[: self.x0.size])
        else:
            self._advance_stack(steps)
        self.count += steps

    def _advance_stack(self, steps: int) -> None:
        """The generic step of a (B, n) stack: one evaluator call per step
        on the whole stack, whose sums and returns are (B,) arrays."""
        evaluator, avec, shift, home = self._evaluator, self._avec, self.shift, self.x0
        weight = _kernels.block_weight
        x, s, first, s_return = self.x, self.s, self.first_return, self.s_return
        searching = bool(np.any(first < 0))
        ws = wsum = 0.0
        for i in range(steps):
            y = np.asarray(evaluator(x))
            inc = shift
            for a_j, y_j, x_j in zip(avec, y.T, x.T):
                inc = inc + a_j * (y_j - x_j)
            s = s + inc
            w = weight(i, steps)
            ws = ws + w * inc  # every row shares the scalar weight
            wsum = wsum + w
            x = np.mod(y, 1.0)
            x[x >= 1.0] = 0.0  # np.mod(-tiny, 1.0) rounds to 1.0
            if searching:
                gap = np.abs(x - home)
                hit = np.minimum(gap, 1.0 - gap).max(axis=-1) <= RETURN_TOLERANCE
                if np.count_nonzero(hit):
                    hit = hit & (first < 0)
                    first = np.where(hit, self.count + i + 1, first)
                    s_return = np.where(hit, s, s_return)
                    searching = bool(np.any(first < 0))
        self.x, self.s, self.first_return, self.s_return = x, s, first, s_return
        self.block = ws / wsum


def _map_shift(a: CohomologyClass, g: BundleAutomorphism) -> float:
    """g's fiber shift as a float, after the checks that depend only on the
    class and the map: g preserves the class and its shift lies in the
    fiber group."""
    require_preserves_class(a, g.lift)
    return _checked_shift(a, g.fiber_shift)


def _orbit_start(a: CohomologyClass, g: BundleAutomorphism, x0) -> tuple:
    """(fiber shift as a float, cover point) of the orbit of x0 under g,
    after the checks every orbit needs: `_map_shift`'s, and x0 lies on the
    class's torus."""
    return _map_shift(a, g), _cover_of(x0, a.dimension)


def _kernel_family(lift: LiftedMap) -> Optional[tuple]:
    """(code, skew degree or None) when the kernel step runs the lift's
    orbits: built-in families in dimensions 1 and 2. Rigid and affine maps of
    higher dimension have constant displacement and stop within 32 steps."""
    spec = lift.kernel_spec
    if spec is None or lift.dimension > 2:
        return None
    code, params = spec
    return code, float(params[1]) if code == _kernels.SKEW else None


def _make_orbit(a: CohomologyClass, g: BundleAutomorphism, x0) -> _PythonOrbit:
    return _group_orbit(a, [g], [_orbit_start(a, g, x0)])


def _group_orbit(a: CohomologyClass, maps: list, starts: list) -> _PythonOrbit:
    """The orbit of a group of rows whose maps share one `_kernel_family`,
    from their checked `_orbit_start`s. One row runs alone: with its
    lift's kernel for a built-in family in dimension 1 or 2, else with its
    lift's evaluator, whose shape the lift checks once, on the start. More
    rows, of one such family, run as one stack whose kernel holds their
    stacked parameter columns: one `np_step` call per step."""
    family = _kernel_family(maps[0].lift)
    if len(maps) == 1:
        (g,), ((c, cover),) = maps, starts
        if family is None:
            g.lift(cover)  # the one shape check, once: lift_chunk calls the bare evaluator
            return _PythonOrbit(cover, evaluator=g.lift.evaluator, avec=a.entries, shift=c)
        return _PythonOrbit(cover, kernel=g.lift.kernel_spec, avec=a.entries, shift=c)
    code, degree = family
    columns = _parameter_columns([g.lift.kernel_spec[1] for g in maps], degree)
    shifts = np.array([c for c, _ in starts])
    return _PythonOrbit(np.stack([cover for _, cover in starts]), kernel=(code, columns), avec=a.entries, shift=shifts)


def _parameter_columns(params: list, degree: Optional[float]) -> list:
    """The kernel parameters of a group of maps of one family as columns
    for `_kernels.np_step`: column j holds parameter j of every map, in
    order. A skew group's degree (`degree`, None for other families) stays
    one float, since np_step loops over it."""
    columns = list(np.array(params, dtype=float).T.copy())
    if degree is not None:
        columns[1] = degree
    return columns


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a translation-number limit.

    value/error_bound are the window estimate, the weighted Birkhoff
    average of the last block of steps, and its gap to the previous block's
    (0 for the exact verdicts, exact-periodic, exact-locked and
    exact-closed-form, where `rational` holds the exact value); the gap is a
    heuristic, not a bound. An exact-closed-form report keeps the window,
    plain average and iterations of the short orbit run beside it.
    A limit stopped after its first block has no previous block, and its
    error_bound is None: no bound is claimed.
    `window` keeps the final two block estimates so a not-converged outcome
    stays inspectable. `plain_average` is the plain Birkhoff average
    rho_x(g^n)/n at n = iterations, the independent route to the same
    limit. `tongue` is the grid proof behind an exact-locked verdict.
    `height_average` (diagnostics only) is the average of the bundle height
    theta along the orbit, (theta(x^) + rho_x(g^n))/n; it has the same
    limit as the plain average but differs at finite n by theta(x^)/n, i.e.
    it depends on the chosen height and base fiber."""

    value: float
    error_bound: Optional[float]
    iterations: int
    verdict: str
    plain_average: float
    rational: Optional[Fraction] = None
    window: tuple = ()
    periodic_base: Optional[tuple] = None
    height_average: Optional[float] = None
    tongue: Optional["TongueProof"] = None

    @property
    def converged(self) -> bool:
        return self.verdict in (
            VERDICT_CONVERGED, VERDICT_EXACT_PERIODIC, VERDICT_EXACT_LOCKED, VERDICT_EXACT_CLOSED_FORM
        )


def _integer_cycle(s_q: float) -> Optional[int]:
    """The integer p that a cycle's fiber displacement s_q stands for, when
    s_q is within INTEGER_FIBER_TOLERANCE of it; else None."""
    nearest = round(s_q)
    return int(nearest) if abs(s_q - nearest) <= INTEGER_FIBER_TOLERANCE else None


@dataclass(frozen=True)
class TongueProof:
    """Why an exact-locked verdict holds: with q = period, p = q rotation
    and y_i = i/grid, the outward-rounded q-step grid orbits give
    F^q(y_below) - y_below < p < F^q(y_above) - y_above, so F^q - p has a
    fixed point between the two points and the rotation number of the
    circle lift F is exactly `rotation` = p/q."""

    rotation: Fraction
    period: int
    grid: int
    below: int
    above: int


def _arnold_step_error(omega, k) -> tuple:
    """(slope, offset) of the bound e(y) = slope |y| + offset on the rounding
    of one outward step of the tongue test, |fl(fl(F(y)) +- e(y)) - (F(y) +-
    e(y))|. Here F(y) = y + omega + k sin(2 pi y) / 2 pi is the exact lift
    of the float parameters, and fl(F(y)) is `_kernels.np_step` on floats:
    fl(fl(y + omega) + fl(fl(k sin(fl(TWO_PI y))) / TWO_PI)). Needs
    |omega| <= 1/2 and |k| < 1.

    With u = UNIT_ROUNDOFF and S = SIN_ULPS, absolute errors, first order:
      - |TWO_PI - 2 pi| <= 4u (half an ulp of TWO_PI), so the product
        a = fl(TWO_PI y) is within (4 + 6.3) u |y| of 2 pi y;
      - numpy's sin adds S ulps of a value below 1, at most S u, so the
        computed sine is within S u + 10.3 u |y| of sin(2 pi y);
      - the product by k and the division by TWO_PI (each rounding once)
        and TWO_PI against 2 pi in the denominator leave the sine term
        within |k| u (0.16 S + 0.43 + 1.65 |y|) of k sin(2 pi y) / 2 pi;
      - the adds y + omega and + sine term round by u (|y| + |omega|) and
        u (|y| + |omega| + 0.17);
      - the outward add +- e rounds by u (|y| + |omega| + 0.17) more.
    Together: u (3 |y| + 3 |omega| + 0.51 + |k| (0.16 S + 0.43 + 1.65 |y|)).
    e(y) = u ((4 + 2 |k|) |y| + 4 |omega| + 1 + |k| (S/4 + 1)) rounds each
    coefficient up; its margin of at least 0.49 u covers the second-order
    terms and the rounding of e itself. It holds while |y| stays within
    LOCK_PERIODS + 2, the lift the grid reaches, where numpy's sin is
    assumed within its budget."""
    k = np.abs(k)
    slope = UNIT_ROUNDOFF * (4.0 + 2.0 * k)
    return slope, UNIT_ROUNDOFF * (4.0 * np.abs(omega) + 1.0 + k * (SIN_ULPS / 4.0 + 1.0))


def _grid_locks(omega: np.ndarray, k: np.ndarray) -> list:
    """For each row i of the (B,) parameter columns: the TongueProof of
    arnold(omega[i], k[i]) when one of the periods q <= LOCK_PERIODS
    proves its rotation number, else None.

    The integer part of omega is moved out of the lift (it adds to the
    rotation number), leaving |omega| <= 1/2 and lifts within q + 2 of 0.
    The grid y_i = i/LOCK_GRID, i = 0 .. LOCK_GRID, is iterated twice, one
    orbit rounded down and one up by `_arnold_step_error`, as one (2B, m+1)
    stack through `_kernels.np_step` on the parameter columns; F is
    increasing for |k| < 1, so the true orbit of each grid point stays
    between the two, and D_q(y) = F^q(y) - y between D-_q and D+_q, the
    rounded differences of the two orbits and y. At the first q where an
    integer p has D+_q(y_i) < p < D-_q(y_j) for two grid points, the
    intermediate value theorem gives a fixed point of F^q - p between them.
    Rounding is monotone, so a rounded difference strictly below (above)
    the float p puts the exact one there too. Rows run in blocks of at most
    GRID_BLOCK grid points."""
    turns = np.round(omega)
    omega = omega - turns  # exact: |omega - turns| <= 1/2 is on omega's own float grid
    y = np.arange(LOCK_GRID + 1) / LOCK_GRID
    rows = max(1, GRID_BLOCK // (2 * len(y)))
    locks = []
    for b in range(0, len(omega), rows):
        locks += _block_locks(turns[b : b + rows], omega[b : b + rows], k[b : b + rows], y)
    return locks


def _block_locks(turns, omega, k, y) -> list:
    """`_grid_locks` on one block of rows."""
    size = len(omega)
    # rows 0 .. size - 1 run the lower orbits, the next size rows the upper
    omega2, k2 = (np.concatenate([t, t])[:, None] for t in (omega, k))
    outward = np.repeat([-1.0, 1.0], size)[:, None]
    slope, offset = (outward * t for t in _arnold_step_error(omega2, k2))
    orbit = np.tile(y, (2 * size, 1))
    locks = [None] * size
    open_rows = np.ones(size, dtype=bool)
    for q in range(1, LOCK_PERIODS + 1):
        image, _ = _kernels.np_step(_kernels.CIRCLE_SINE, (omega2, k2), orbit, 0.0)
        orbit = image + (slope * np.abs(orbit) + offset)
        diff = orbit - y
        lower, upper = diff[:size], diff[size:]
        p = np.floor(upper.min(axis=1)) + 1.0  # the least integer above min D+
        proven = open_rows & (lower.max(axis=1) > p)
        for i in np.flatnonzero(proven):
            rotation = int(turns[i]) + Fraction(int(p[i]), q)
            locks[i] = TongueProof(rotation, q, LOCK_GRID, int(upper[i].argmin()), int(lower[i].argmax()))
        open_rows &= ~proven
        if not open_rows.any():
            break
    return locks


def _tongue_locks(a: CohomologyClass, orbit: _PythonOrbit, positions: list) -> list:
    """The tongue test of the orbits of Arnold maps on an integer class: for
    each position of `orbit`'s current rows, (rational, TongueProof) when
    `_grid_locks` proves the map's rotation number rho(F), else None; the
    rational is a rho(F) + shift. The map's omega and k and the fiber shift
    are read from the orbit's kernel and shift at those positions. None for
    every row of any other family or class."""
    if orbit.kernel is None or orbit.kernel[0] != _kernels.CIRCLE_SINE or not a.is_integral():
        return [None] * len(positions)
    omega, k, shift = (
        np.broadcast_to(np.asarray(t, dtype=float), (orbit.size,))[positions]
        for t in (*orbit.kernel[1][:2], orbit.shift)
    )
    (entry,) = a.entries
    return [
        None if lock is None else (entry * lock.rotation + Fraction(float(c)), lock)
        for c, lock in zip(shift, _grid_locks(omega, k))
    ]


def _exact_report(verdict: str, rational: Fraction, iterations: int, s: float, q: int, s_q: float, tongue=None):
    """The report of an exact verdict, exact-periodic or exact-locked, after
    `iterations` steps whose running sum is s, on an orbit whose periodic
    base is its first return (q, s_q) when q > 0."""
    return ConvergenceReport(
        value=float(rational),
        error_bound=0.0,
        iterations=iterations,
        verdict=verdict,
        rational=rational,
        window=(float(rational), float(rational)),
        periodic_base=(q, s_q) if q > 0 else None,
        plain_average=s / iterations,
        tongue=tongue,
    )


def _translation_limits(orbit: _PythonOrbit, a: CohomologyClass, tolerance: float, max_iterations: int) -> list:
    """Window-doubling limit with exact-return preemption, one report per
    orbit of `orbit`, read from the orbit's rows.

    Checkpoints double (1, 2, 4, ...) up to max_iterations. An orbit whose
    first return q has been detected (`_PythonOrbit.rows`) has the periodic
    base (q, s_q), which never changes once set: if the fiber displacement
    s_q over the q-cycle is within INTEGER_FIBER_TOLERANCE of an integer p
    (and the fiber group of `a` is Z), the limit is exactly p/q.
    Otherwise the estimate at a checkpoint is the weighted Birkhoff average
    over the block of steps since the previous one (`_PythonOrbit.block`),
    which converges faster than any power of 1/n on quasi-periodic orbits
    (Das, Saiki, Sander and Yorke, Nonlinearity 30, 2017; Das and Yorke,
    Nonlinearity 31, 2018), and the window gap is its distance to the
    previous block's: a heuristic, reported as `error_bound` (None after
    the first block, which has no previous one). The plain
    average rho_x(g^n)/n is reported alongside as `plain_average`. The
    doubling verdict is withheld until min(SCAN_HORIZON, max_iterations)
    steps have been scanned so short exact periods are not shadowed by an
    early stable window. At the first checkpoint that reaches it, every
    orbit that no exact rule stopped, converged or not, goes through
    `_tongue_locks` once: an orbit it proves stops there as exact-locked.
    An orbit of a stack leaves it at the checkpoint where its limit stops;
    the only state kept here of a live orbit is its previous block
    estimate."""
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    horizon = min(SCAN_HORIZON, max_iterations)
    integral = a.is_integral()

    def report(n, s, q, s_q, est, est_prev):
        """The report at checkpoint n of an orbit whose block estimates are
        est and, before it, est_prev; None while the orbit runs on."""
        p = _integer_cycle(s_q) if q > 0 and integral else None
        if p is not None:
            return _exact_report(VERDICT_EXACT_PERIODIC, Fraction(p, q), q, s_q, q, s_q)
        diff = None if est_prev is None else abs(est - est_prev)  # one block has no gap
        converged = diff is not None and diff <= tolerance and n >= horizon
        if not converged and n < max_iterations:
            return None
        return ConvergenceReport(
            value=est,
            error_bound=diff,
            iterations=n,
            verdict=VERDICT_CONVERGED if converged else VERDICT_NOT_CONVERGED,
            window=(est,) if est_prev is None else (est_prev, est),
            periodic_base=(q, s_q) if q > 0 else None,
            plain_average=s / n,
        )

    reports = [None] * orbit.size
    live = list(range(orbit.size))  # the index in `reports` of each row of the orbit
    previous = [None] * orbit.size  # each row's previous block estimate
    last, n = 0, 1
    while True:
        orbit.run_to(n)
        rows = orbit.rows()
        found = [report(n, *row, est_prev) for row, est_prev in zip(rows, previous)]
        if last < horizon <= n:
            # an exact verdict takes precedence over a converged window
            open_rows = [k for k, rep in enumerate(found) if rep is None or rep.rational is None]
            for k, lock in zip(open_rows, _tongue_locks(a, orbit, open_rows)):
                if lock is not None:
                    rational, proof = lock
                    found[k] = _exact_report(VERDICT_EXACT_LOCKED, rational, n, *rows[k][:3], proof)
        stay = [k for k, rep in enumerate(found) if rep is None]
        for row, rep in zip(live, found):
            if rep is not None:
                reports[row] = rep
        if not stay:
            return reports
        if len(stay) < len(live):
            orbit.keep(stay)
            live = [live[k] for k in stay]
        previous = [rows[k][3] for k in stay]
        last, n = n, min(2 * n, max_iterations)


def _default_tolerance(g: BundleAutomorphism) -> float:
    spec = g.lift.kernel_spec
    if spec is not None and spec[0] in (_kernels.RIGID, _kernels.AFFINE):
        return EXACT_WINDOW_TOLERANCE
    return WINDOW_TOLERANCE


def local_translation_number(
    a: CohomologyClass,
    g: BundleAutomorphism,
    x,
    *,
    tolerance: Optional[float] = None,
    max_iterations: int = MAX_ITERATIONS,
    diagnostics: bool = False,
) -> ConvergenceReport:
    """Limit of rho_x(g^n)/n at the point x: `local_translation_numbers` of
    the one pair (g, x). With `diagnostics`, the report also carries the
    height average (`ConvergenceReport.height_average`)."""
    (report,) = local_translation_numbers(a, [g], [x], tolerance=tolerance, max_iterations=max_iterations)
    if diagnostics:
        fiber = x.fiber if isinstance(x, BundlePoint) else 0
        start = BundlePoint(_cover_of(x, a.dimension), fiber)
        height_avg = report.plain_average + theta(a, start) / report.iterations
        report = dataclasses.replace(report, height_average=height_avg)
    return report


def _closed_form_rot(a: CohomologyClass, lift: LiftedMap, shift) -> Optional[Fraction]:
    """The limit of rho_x(g^n)/n of a skew map, the same at every point x,
    read from its coefficients; None for every other map and for a skew map
    whose limit depends on x.

    For (x, y) -> (x + omega, y + c(x)), rho is a trigonometric polynomial
    in x (`_displacement_coefficients`: constant term C, pairs (A_k, B_k)
    for k = 1 .. d) summed along the base orbit x + n omega. A float omega
    is p/q in lowest terms, q a power of 2, and the mean of e(k t) over the
    q points t = x + n p/q is 0 unless q divides k (Weyl). So when every pair
    with q | k is 0, as it is when q > d or when every pair is 0, the limit
    at every point is C: an exact rational of the float data. Otherwise the
    pairs with q | k leave an x-dependent term and the orbit answers."""
    spec = lift.kernel_spec
    if spec is None or spec[0] != _kernels.SKEW:
        return None
    _, constant, pairs = _displacement_coefficients(a, lift, shift)
    q = Fraction(float(spec[1][0])).denominator
    if any(pairs[k - 1] != (0.0, 0.0) for k in range(q, len(pairs) + 1, q)):
        return None
    return constant


def local_translation_numbers(
    a: CohomologyClass,
    maps: list,
    points: list,
    *,
    tolerance: Optional[float] = None,
    max_iterations: int = MAX_ITERATIONS,
    starts: Optional[list] = None,
) -> list:
    """The limit of rho_x(g^n)/n for each map g and point x, in order.

    Defaults: tolerance EXACT_WINDOW_TOLERANCE for the affine-exact
    families, WINDOW_TOLERANCE otherwise; orbit returns detected within
    RETURN_TOLERANCE. The window check is a heuristic stopping rule, not a
    certificate. Three verdicts are exact, with `error_bound` 0 and the
    value in `rational`: exact-closed-form (a skew map whose limit
    `_closed_form_rot` reads from its coefficients), exact-periodic (the
    orbit returns to x) and, for Arnold maps on an integer class,
    exact-locked (`_grid_locks` proves the rotation number).

    Every pair is checked first, in order, unless `starts` holds what
    `_orbit_start` gave for each pair: a caller that has checked the pairs
    passes those on. A pair with a closed form still runs its orbit, the
    independent route, but only to min(SCAN_HORIZON, max_iterations)
    steps, whose window, plain average and iterations its report keeps.
    Every other pair runs its orbit to its own stopping rule
    (`_orbit_limits`)."""
    if len(maps) != len(points):
        raise ValidationError(f"{len(maps)} maps but {len(points)} points")
    if starts is None:
        starts = [_orbit_start(a, g, x) for g, x in zip(maps, points)]
    closed = [_closed_form_rot(a, g.lift, g.fiber_shift) for g in maps]
    reports = [None] * len(maps)
    for served, cap in ((False, max_iterations), (True, min(SCAN_HORIZON, max_iterations))):
        rows = [i for i, rational in enumerate(closed) if (rational is not None) == served]
        limits = _orbit_limits(a, [maps[i] for i in rows], [starts[i] for i in rows], tolerance, cap)
        for i, report in zip(rows, limits):
            rational = closed[i]
            reports[i] = report if rational is None else dataclasses.replace(
                report,
                value=float(rational),
                error_bound=0.0,
                verdict=VERDICT_EXACT_CLOSED_FORM,
                rational=rational,
            )
    return reports


def _orbit_limits(
    a: CohomologyClass, maps: list, starts: list, tolerance: Optional[float], max_iterations: int
) -> list:
    """The orbit route of `local_translation_numbers`: each pair's limit by
    `_translation_limits`, from its checked `_orbit_start`.

    The orbits of the maps that the kernel step would run (built-in
    families in dimensions 1 and 2) and that share a family (and, for skew
    maps, a degree) are stepped together when there are at least
    STACK_MIN_ROWS of them (`_group_orbit`), each orbit leaving the stack
    at the checkpoint where its limit stops. The tongue test of Arnold maps
    runs the stack's open orbits as one grid stack. The other orbits run
    one by one, and every one of them on T^1 or T^2 runs the one loop
    `_kernels._orbit_chunk_impl`.

    Each report is the one the pair gets alone: bit for bit for rigid and
    affine maps, whose stacked step does the kernel's arithmetic; the sine
    families take numpy's sin and cos where the kernel takes math's, and
    the two need not agree to the last bit on every platform."""
    reports = [None] * len(maps)
    groups = {}
    for i, g in enumerate(maps):
        groups.setdefault(_kernel_family(g.lift), []).append(i)
    for family, rows in groups.items():
        stacked = family is not None and len(rows) >= STACK_MIN_ROWS
        for group in [rows] if stacked else [[i] for i in rows]:
            orbit = _group_orbit(a, [maps[i] for i in group], [starts[i] for i in group])
            tol = _default_tolerance(maps[group[0]]) if tolerance is None else tolerance
            for i, report in zip(group, _translation_limits(orbit, a, tol, max_iterations)):
                reports[i] = report
    return reports


def _orbit_limit(
    a: CohomologyClass,
    g: BundleAutomorphism,
    x,
    tolerance: Optional[float] = None,
    max_iterations: int = MAX_ITERATIONS,
) -> ConvergenceReport:
    """The orbit route's limit of the one pair (g, x), also where a closed
    form would serve it: `_orbit_limits` from the pair's checked start."""
    (report,) = _orbit_limits(a, [g], [_orbit_start(a, g, x)], tolerance, max_iterations)
    return report


def rho_power_average(a: CohomologyClass, g: BundleAutomorphism, x, n: int) -> float:
    """rho_x(g^n)/n without any stopping rule: the raw Birkhoff estimate."""
    if n < 1:
        raise ValidationError("need n >= 1")
    orbit = _make_orbit(a, g, x)
    orbit.run_to(n)
    ((s, *_),) = orbit.rows()
    return s / n


def periodic_rot(a: CohomologyClass, g: BundleAutomorphism, x, period: int) -> Fraction:
    """Exact rational translation number at a q-periodic base point.

    Requires the integer fiber group: the q-step displacement must land
    within INTEGER_FIBER_TOLERANCE of an integer, and the base orbit must
    close up within RETURN_TOLERANCE."""
    if not a.is_integral():
        raise ValidationError("periodic_rot is defined for integer-fiber bundles")
    if period < 1:
        raise ValidationError("period must be >= 1")
    orbit = _make_orbit(a, g, x)
    orbit.run_to(period)
    dist = torus_distance(orbit.x, orbit.x0)
    if dist > RETURN_TOLERANCE:
        raise NotPeriodicError(
            f"point is not {period}-periodic: distance {dist:.3e} after {period} steps"
        )
    ((s, *_),) = orbit.rows()
    p = _integer_cycle(s)
    if p is None:
        raise NonIntegerFiberError(
            f"fiber displacement {s!r} over the cycle is not an integer"
        )
    return Fraction(p, period)


# --------------------------------------------------------------------------
# means over invariant measures


@dataclass(frozen=True)
class InvariantMeasure:
    """Lebesgue, a finite orbit, or a weighted empirical cloud."""

    kind: str
    point: Optional[np.ndarray] = None
    period: Optional[int] = None
    samples: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    @classmethod
    def lebesgue(cls) -> "InvariantMeasure":
        return cls(kind="lebesgue")

    @classmethod
    def dirac_orbit(cls, point, period: int) -> "InvariantMeasure":
        if not 1 <= period <= POINT_CAP:
            raise ValidationError(f"orbit measure needs a period from 1 to {POINT_CAP}, got {period}")
        return cls(
            kind="dirac_orbit",
            point=reduce_point(np.atleast_1d(np.asarray(point, dtype=float))),
            period=int(period),
        )

    @classmethod
    def empirical(cls, samples, weights=None) -> "InvariantMeasure":
        pts = np.atleast_2d(np.asarray(samples, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise ValidationError("samples must be finite")
        if weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (pts.shape[0],):
                raise ValidationError("one weight per sample required")
            if not np.all(np.isfinite(w) & (w >= 0)):
                raise ValidationError("weights must be finite and nonnegative")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise ValidationError("weights must sum to 1 within 1e-12")
        return cls(kind="empirical", samples=reduce_point(pts), weights=w)


def _grid_blocks(dimension: int, m: int, offset: float):
    """The (m^n, n) grid of points ((i_1 + offset)/m, ..., (i_n + offset)/m)
    in row-major order, as blocks of at most GRID_BLOCK points, each given
    by its axis columns: offset 0 gives the corner grid, 0.5 the midpoint
    grid. The grid is checked before the first block is asked for.

    The trailing axes whose grid fits in a block (at most n - 1 of them) form
    the tail grid; each block takes whole rows of the head grid by the whole
    tail grid. Its axis columns are one array per coordinate, (rows, 1) for
    a head axis and (1, tail points) for a tail axis, which broadcast to the
    block's points. On T^2 these are the block's rows of axis 0 and the
    whole axis 1; on the circle, the block's points as a (k, 1) column."""
    _require_grid(dimension, m)
    axis = (np.arange(m) + offset) / m
    tail_dims = dimension - 1
    while m**tail_dims > GRID_BLOCK:
        tail_dims -= 1
    head, tail = _axis_grid(axis, dimension - tail_dims), _axis_grid(axis, tail_dims)
    rows = min(len(head), GRID_BLOCK // len(tail))
    tail_cols = tuple(tail[None, :, j] for j in range(tail_dims))
    return (
        tuple(head[i : i + rows, j : j + 1] for j in range(dimension - tail_dims)) + tail_cols
        for i in range(0, len(head), rows)
    )


def _require_grid(dimension: int, m: int) -> None:
    """Refuse a grid of m points per axis on T^n that is empty or too large."""
    if m < 1:
        raise ValidationError("a grid needs at least one point per axis")
    if m**dimension > POINT_CAP:
        raise ValidationError(f"grid {m}^{dimension} too large; lower the resolution")


def _axis_grid(axis: np.ndarray, d: int) -> np.ndarray:
    """The (m^d, d) row-major tensor grid of `axis` in d coordinates."""
    m = len(axis)
    return axis[np.indices((m,) * d).reshape(d, m**d).T]


def _column_image(lift: LiftedMap) -> Callable:
    """The map from the coordinates xs of points (one array per axis, which
    broadcast together) to those of their images under lift, one array per
    axis, with the values of `lift.evaluate_many` on the points: the one
    route by which grids, orbits and samples are imaged. A column step
    (`torus._StepEvaluator`: a built-in family in dimension 1 or 2, or a
    word of them) is its own `image`, so no point or image stack is built,
    each sin and cos of a grid block runs once per grid coordinate, and an
    image coordinate that depends on one axis stays a column. A hand-built
    evaluator gets the stacking adapter: `evaluate_many` on the broadcast
    points, or a call of the lift on one point, through its shape check."""
    if isinstance(lift.evaluator, _StepEvaluator):
        return lift.evaluator.image

    def image(xs) -> tuple:
        shape = np.broadcast_shapes(*(np.shape(x) for x in xs))
        pts = np.empty((*shape, len(xs)))
        for j, x in enumerate(xs):
            pts[..., j] = x
        out = lift.evaluate_many(pts.reshape(-1, len(xs))) if shape else lift(pts)
        return tuple(out.T.reshape(len(xs), *shape))

    return image


def _grid_columns(lift: LiftedMap, dimension: int, m: int, offset: float):
    """(xs, ys) of each block of the grid `_grid_blocks` gives: its axis
    columns and their images under lift (`_column_image`), which broadcast
    together to the block."""
    image = _column_image(lift)
    return ((xs, image(xs)) for xs in _grid_blocks(dimension, m, offset))


def _orbit_columns(lift: LiftedMap, point: np.ndarray, count: int):
    """(xs, ys) of each block of at most GRID_BLOCK points of the orbit of
    the reduced `point` under lift, `count` points in all: the columns of
    the block's point stack and of their images, one row per axis. Each
    point is imaged once, by the lift's column image of its coordinates
    (`_column_image`), and the next point is that image reduced mod 1."""
    image, cur = _column_image(lift), point
    for start in range(0, count, GRID_BLOCK):
        images = np.empty((min(GRID_BLOCK, count - start), len(point)))
        pts = np.empty_like(images)
        pts[0] = cur
        for i in range(len(images)):
            images[i] = image(cur)
            cur = reduce_point(images[i])
        pts[1:] = reduce_point(images[:-1])  # as each was reduced in the walk
        yield pts.T, images.T


def _measure_rows(func: Callable, count: int, mu: InvariantMeasure, dimension: int, m: int, lift: LiftedMap):
    """(rows, weights) of mu's points, the one walk every mean, residual and
    splitting pair reads them through. func takes the coordinates xs of
    points and ys of their images under lift, one array per axis, and
    `out`, one array per value, and writes each of its `count` values over
    the points into its array (`_rho_values` with `out`, or `_put`); rows
    is the (count, points) array they fill, weights None meaning equal
    weights.

    The points come in blocks, and rows is filled block by block: `out`
    holds the block's slice of each row, shaped as the block's columns
    broadcast, so each value is written once, straight into its row. On
    Lebesgue measure the blocks are those of the midpoint grid at m points
    per axis, as axis columns (`_grid_columns`), and the grid is never built
    whole. An orbit measure is walked under lift in blocks of its points
    (`_orbit_columns`), each imaged once. An empirical measure is one block:
    the columns of its sample stack and their images. Every block is imaged
    by `_column_image`."""
    if mu.kind == "lebesgue":
        blocks, size, weights = _grid_columns(lift, dimension, m, 0.5), m**dimension, None  # checks the grid
    else:
        support = mu.point if mu.kind == "dirac_orbit" else mu.samples
        if support is not None and support.shape[-1] != dimension:
            raise DimensionMismatch(
                f"the {mu.kind} measure lives on T^{support.shape[-1]}, the map on T^{dimension}"
            )
        if mu.kind == "dirac_orbit":
            blocks, size, weights = _orbit_columns(lift, mu.point, mu.period), mu.period, None
        elif mu.kind == "empirical":
            blocks, size, weights = [(mu.samples.T, _column_image(lift)(mu.samples.T))], len(mu.samples), mu.weights
        else:
            raise ValidationError(f"unknown measure kind {mu.kind!r}")
    rows, i = np.empty((count, size)), 0
    for xs, ys in blocks:
        shape = np.broadcast_shapes(*(np.shape(x) for x in xs))
        k = math.prod(shape)
        func(xs, ys, [row[i : i + k].reshape(shape) for row in rows])
        i += k
    return rows, weights


def _put(out, values) -> None:
    """Write each of `values` into its array of `out`, broadcasting."""
    for o, v in zip(out, values):
        o[...] = v


def _average(values: np.ndarray, weights: Optional[np.ndarray]) -> float:
    return float(np.mean(values)) if weights is None else float(np.dot(weights, values))


def _finite_mean(values: np.ndarray, weights: Optional[np.ndarray]) -> tuple:
    """(value, error) of the mean of N values (`_average`). With u =
    UNIT_ROUNDOFF and V = max |values|, the error adds the rounding of the
    sum that runs, which grows with N, to 16 u (1 + V), an allowance for the
    rounding of each value that is not derived here:
      - equal weights: numpy's pairwise mean takes each value through at
        most 25 + ceil(log2 N) roundings of the sum (counted as in
        `_lebesgue_bound`) and one of the division by N, so it is off by at
        most (26 + ceil(log2 N)) u V to first order; one u V more covers the
        second-order terms;
      - weights w (nonnegative, summing to 1 within 1e-12, as
        `InvariantMeasure.empirical` checks): np.dot leaves the order of its
        products and adds to the BLAS library, and in any order a product
        takes at most N roundings, so the dot product is off by at most
        gamma_N sum_i w_i |v_i| <= N u V / (1 - N u) (1 + 1e-12); one u V
        more covers the 1e-12 and the rounding of the bound."""
    count, top = len(values), float(np.max(np.abs(values)))
    u = UNIT_ROUNDOFF
    if weights is None:
        rounding = (27 + math.ceil(math.log2(count))) * u * top
    else:
        rounding = (count * u / (1.0 - count * u) + u) * top
    return _average(values, weights), rounding + 16.0 * u * (1.0 + top)


def _measure_mean(
    integrand_many: Callable,
    mu: InvariantMeasure,
    dimension: int,
    quadrature_points: int,
    base_map: LiftedMap,
):
    """(value, error) of an integrand against mu, read from one walk of
    its points (`_measure_rows`); orbit measures are walked under
    `base_map`. The integrand takes the coordinates of the points and of
    their images under `base_map`, one array per axis, as rho does
    (`_rho_values`), and an array of the points' shape, which it fills
    with its values.

    A Lebesgue mean is the midpoint rule at m = quadrature_points per axis,
    one pass over the grid whose values go into one array of m^n floats;
    its mean is the value. Its error is None here, because it depends on
    the integrand: the means of rho bound it with `_lebesgue_bound`. A
    finite sum (orbit or empirical measure) is exact up to rounding, which
    `_finite_mean` bounds."""
    (values,), weights = _measure_rows(
        lambda xs, ys, out: integrand_many(xs, ys, out[0]), 1, mu, dimension, quadrature_points, base_map
    )
    if mu.kind == "lebesgue":
        return _average(values, None), None
    return _finite_mean(values, weights)


def _displacement_lipschitz(lift: LiftedMap) -> Optional[float]:
    """A bound on Lip(lift - id), Euclidean-in and sup-out: the lift's
    `displacement_lipschitz`, else 1 + its `lipschitz_bound`; None when it
    carries neither."""
    if lift.displacement_lipschitz is not None:
        return lift.displacement_lipschitz
    if lift.lipschitz_bound is not None:
        return 1.0 + lift.lipschitz_bound
    return None


def _displacement_coefficients(a: CohomologyClass, lift: LiftedMap, shift) -> Optional[tuple]:
    """(axis, constant, pairs) of rho = <a, lift(x) - x> + shift as a
    trigonometric polynomial in the one coordinate t = x_axis,

        rho(x) = constant + sum_k A_k cos(2 pi k t) + B_k sin(2 pi k t),

    read from the kernel spec of a lift that has one (in any dimension),
    else None. constant is a Fraction of the float parameters, the class
    entries and the shift, so it is exact; axis and pairs are those of
    `_displacement_pairs`:
      - rigid and affine maps: <a, v> + shift (M^T a = a cancels the
        (M - I) x of an affine map);
      - arnold: a_0 omega + shift;
      - sinshear: shift;
      - skew: a_0 omega + a_1 c_0 + shift."""
    found = _displacement_pairs(a, lift)
    if found is None:
        return None
    axis, pairs = found
    code, params = lift.kernel_spec
    params = [float(t) for t in params]
    exact = [Fraction(e) for e in a.entries]
    constant = Fraction(shift)
    if code in (_kernels.RIGID, _kernels.AFFINE):
        n = lift.dimension
        v = params[n * n :] if code == _kernels.AFFINE else params
        constant += sum(e * Fraction(t) for e, t in zip(exact, v))
    elif code == _kernels.CIRCLE_SINE:
        constant += exact[0] * Fraction(params[0])
    elif code == _kernels.SKEW:
        constant += exact[0] * Fraction(params[0]) + exact[1] * Fraction(params[2])
    return axis, constant, pairs


def _displacement_pairs(a: CohomologyClass, lift: LiftedMap) -> Optional[tuple]:
    """(axis, pairs) of rho = <a, lift(x) - x> (`_displacement_coefficients`)
    without its exact constant term, or None without a kernel spec. pairs
    lists the float (A_k, B_k) for k = 1 .. d, so len(pairs) is the degree d
    of rho, which `_rounding_scale` and `_lebesgue_bound` read (`_degree`):
      - rigid and affine maps: no pairs, in x_0;
      - arnold: (0, a_0 k / 2 pi), in x_0;
      - sinshear: (0, a_0 eps), in x_1;
      - skew: (a_1 a_k, a_1 b_k), in x_0."""
    if lift.kernel_spec is None:
        return None
    code, params = lift.kernel_spec
    if code in (_kernels.RIGID, _kernels.AFFINE):
        return 0, []
    a0 = float(a.entries[0])
    if code == _kernels.CIRCLE_SINE:
        return 0, [(0.0, a0 * float(params[1]) / _kernels.TWO_PI)]
    if code == _kernels.SINE_SHEAR:
        return 1, [(0.0, a0 * float(params[0]))]
    a1, c = float(a.entries[1]), [float(t) for t in params[2:]]
    return 0, [(a1 * c[2 * k - 1], a1 * c[2 * k]) for k in range(1, int(params[1]) + 1)]


# Kernel families whose Jacobian determinant is 1 in size at every point, so
# they preserve Lebesgue measure: the identity of a rigid map, an affine
# map's M with |det M| = 1 (checked when it is built), and the unipotent
# triangular Jacobians of sinshear and skew maps. An Arnold map's is
# 1 + k cos(2 pi x).
_JACOBIAN_ONE = (_kernels.RIGID, _kernels.AFFINE, _kernels.SINE_SHEAR, _kernels.SKEW)


def _jacobian_preserves(lift: LiftedMap, mu: InvariantMeasure) -> bool:
    """Whether the Jacobian proves that lift preserves mu: Lebesgue measure
    under a kernel family of `_JACOBIAN_ONE`, in any dimension. Every other
    pair (Arnold maps, lifts without a kernel spec, orbit and empirical
    measures) needs the push-forward probes."""
    return mu.kind == "lebesgue" and lift.kernel_spec is not None and lift.kernel_spec[0] in _JACOBIAN_ONE


def _rounding_scale(a: CohomologyClass, lift: LiftedMap, shift: float) -> Optional[tuple]:
    """(L, R, w) of the rounding of one computed value of rho (see
    `_lebesgue_bound`), or None without L = `_displacement_lipschitz`: R
    bounds |rho| and every computed value, and each image coordinate is
    taken to be within w u B of the exact image, so each computed value is
    within (w + n + 2) u R of rho."""
    lip = _displacement_lipschitz(lift)
    if lip is None:
        return None
    n = lift.dimension
    center = np.full(n, 0.5)
    disp = float(np.max(np.abs(lift(center) - center))) + lip * math.sqrt(n) / 2.0
    scale = a.one_norm * (1.0 + disp + lip) + abs(shift)
    return lip, scale, 4 + (_degree(a, lift) or 0) + (n + 1) * math.sqrt(n)


def _degree(a: CohomologyClass, lift: LiftedMap) -> Optional[int]:
    """The degree of rho = <a, lift(x) - x> as a trigonometric polynomial,
    the number of pairs `_displacement_pairs` lists, or None without a
    kernel spec."""
    found = _displacement_pairs(a, lift)
    return None if found is None else len(found[1])


def _lebesgue_bound(a: CohomologyClass, lift: LiftedMap, shift: float, m: int) -> Optional[float]:
    """A bound on |value - int rho| for the midpoint mean (`_measure_mean`)
    of rho = <a, lift(x) - x> + shift at m points per axis on T^n, or None,
    which marks the mean as an estimate. With L = `_displacement_lipschitz`:

      - exact degree: when rho is a trigonometric polynomial of degree d
        (the d pairs of `_displacement_pairs`) and m > d, the
        midpoint rule is exact, since each character e^(2 pi i k.x) with
        some 0 < |k_j| < m sums to 0 over the grid (Trefethen and Weideman,
        SIAM Review 56, 2014). The bound is the rounding term alone;
      - Lipschitz: otherwise, |rho(x) - rho(c)| <= |a|_1 L |x - c| on a cell
        of side h = 1/m with center c, and the mean of |x - c| over the cell
        is at most sqrt(n h^2 / 12) (Jensen), so the rule is off by at most
        |a|_1 L sqrt(n/12) / m, plus the rounding term;
      - neither: without L the bound is None.

    The rounding term, first order in u = UNIT_ROUNDOFF. The grid lies in
    the unit cube, |x_j| < 1. With c its center, each displacement
    coordinate is at most D = |lift(c) - c|_sup + L sqrt(n) / 2 there (one
    image, of c), and B = 1 + D + L. Each value is
    fl(fl(<a, fl(fl(lift(x)) - x)>) + shift):
      - each image coordinate is assumed within w u B of the exact image of
        the float parameters, w = 4 + d + (n + 1) sqrt(n) (d = 0 when the
        degree is unknown). A first-order count for the built-in families
        gives 1 for rigid, 3.1 for arnold and 3.5 for sinshear (adds within
        u (1 + D); angles within 2.7 u of relative error move each trig term
        by at most 2.7 u times its share of L; SIN_ULPS ulps of sin and cos
        move it by at most 4 u / 2 pi times that share), d + 4 for skew (the
        same, plus d adds of the running sum of c, each within u (D + L)),
        and (n + 1) sqrt(n) for affine (n + 1 roundings of |M x| + |v| <=
        1 + sqrt(n) L + D). Any other lift is assumed within the same w;
      - the difference with x rounds by u D <= u B;
      - the pairing with a (n products and n - 1 adds, in any order) adds
        n u |a|_1 B, and the shift add u R, where R = |a|_1 B + |shift|
        bounds |rho| and every computed value;
      - numpy's pairwise sum of the N = m^n values takes each value through
        at most 25 roundings inside a 128-value block (15 in its unrolled
        lane, 3 joining the 8 lanes, 7 for the block's tail) and one per
        halving above it, ceil(log2 N): (25 + ceil(log2 N)) u N R in the
        sum, that over N in the mean; the division by N rounds by u R.
    Together: u R (w + n + 28 + ceil(log2 N)); the term takes one u R more,
    which covers the second-order terms and the rounding of D and R."""
    rounding = _rounding_scale(a, lift, shift)
    if rounding is None:
        return None
    lip, scale, w = rounding
    n = lift.dimension
    ulps = w + n + 29 + math.ceil(math.log2(m**n))
    bound = ulps * UNIT_ROUNDOFF * scale
    degree = _degree(a, lift)
    if degree is None or m <= degree:
        bound += a.one_norm * lip * math.sqrt(n / 12.0) / m
    return bound


def _probe_frequencies(dimension: int) -> list:
    """The frequency vectors k of the push-forward probes."""
    if dimension == 1:
        return [(1,), (2,)]
    ks = [tuple(int(j == axis) for j in range(dimension)) for axis in range(dimension)]
    return ks + [(1,) * dimension, (1, -1) + (0,) * (dimension - 2)]


def _default_test_functions(dimension: int):
    """Low-degree trigonometric probes for the push-forward test, one per
    frequency k of `_probe_frequencies`: each maps the coordinates xs of
    points (one array per axis) to the pair (cos 2 pi k.x, sin 2 pi k.x),
    computing the phase 2 pi k.x once. k.x sums k_j x_j over the nonzero
    k_j in axis order; on T^1 and T^2 it takes at most one rounding, since
    the entries of k are -1, 0, 1 or 2."""

    def probe(xs, _k):
        dot = None
        for k_j, x_j in zip(_k, xs):
            if k_j:
                term = x_j if k_j == 1 else k_j * x_j
                dot = term if dot is None else dot + term
        phase = 2.0 * np.pi * dot
        return np.cos(phase), np.sin(phase)

    return [lambda xs, _k=k: probe(xs, _k) for k in _probe_frequencies(dimension)]


def _aliased(dimension: int, m: int) -> bool:
    """Whether the midpoint grid at m points per axis aliases a probe: m at
    most some |k_j|, so the probe's unmoved mean need not vanish."""
    return m <= max(abs(j) for k in _probe_frequencies(dimension) for j in k)


def measure_invariance_residual(
    base_map: LiftedMap,
    mu: InvariantMeasure,
    quadrature_points: int = QUADRATURE_POINTS,
) -> float:
    """max_f |int f(g x) dmu - int f dmu| over the probe functions, all read
    from one walk of mu's points and one evaluation of g on them
    (`_measure_rows`).

    On Lebesgue measure the points are the midpoint grid at m =
    quadrature_points per axis. Over that grid the mean of a probe of
    frequency k is a product of sums of e^(2 pi i k_j (i + 1/2) / m) over
    each axis, which vanishes unless m divides every k_j. So once m exceeds
    every |k_j| (m >= 2 on T^n for n >= 2, m >= 3 on the circle, whose
    probes reach degree 2), each unmoved mean is exactly 0 and only the
    images are kept; below that the same walk keeps the grid's points too
    (`_probed_rows`)."""
    return _probed_rows(lambda xs, ys, out: None, 0, mu, quadrature_points, base_map)[2]


def _probed_rows(lead: Callable, count: int, mu: InvariantMeasure, m: int, lift: LiftedMap) -> tuple:
    """(rows, weights, residual) of one walk of mu's points under lift
    (`_measure_rows`, at m points per axis on Lebesgue measure): the first
    `count` rows, which lead(xs, ys, out) writes into out[:count], their
    weights, and the push-forward residual (`_probe_residual`) read from the
    probe rows after them. Those hold the image coordinates reduced mod 1
    (`_moved`), then the points' coordinates unless every unmoved mean is 0
    (a Lebesgue grid that `_aliased` does not flag)."""
    n = lift.dimension
    unmoved = mu.kind != "lebesgue" or _aliased(n, m)

    def rows_of(xs, ys, out):
        lead(xs, ys, out)
        _put(out[count:], (*_moved(ys), *xs) if unmoved else _moved(ys))

    rows, weights = _measure_rows(rows_of, count + (2 * n if unmoved else n), mu, n, m, lift)
    probes = rows[count:]
    return rows[:count], weights, _probe_residual(probes[n:] if unmoved else None, probes[:n], weights)


def _moved(ys) -> tuple:
    """Image coordinates reduced mod 1, each in the shape it comes in: a
    grid block's image column is reduced once per grid coordinate."""
    return tuple(reduce_point(y) for y in ys)


def _probe_residual(xs, moved, weights: Optional[np.ndarray]) -> float:
    """max_f |mean of f(moved) - mean of f(xs)| over the probe functions,
    read from coordinate rows as `_measure_rows` gives them: xs those of the
    points, moved those of their images reduced mod 1 (`_moved`); xs None
    marks unmoved means that are 0."""
    worst = 0.0
    for probe in _default_test_functions(len(moved)):
        before = (0.0, 0.0) if xs is None else [_average(v, weights) for v in probe(xs)]
        for v, u in zip(probe(moved), before):
            worst = max(worst, abs(_average(v, weights) - u))
    return worst


@dataclass(frozen=True)
class MeanReport:
    """A mean translation number and a bound on |value - mean|.

    A Lebesgue mean read from coefficients (`mean_translation_number`) is
    exact: `rational` holds it, value is its float and error_bound 0.0.
    Otherwise rational is None, and error_bound is the rounding of the
    finite sum for orbit and empirical measures (`_finite_mean`), which
    grows with the number of points. For Lebesgue means on the grid
    (`_lebesgue_bound`) it has three sources: the exact degree (rho a
    trigonometric polynomial of degree below the grid, so only rounding is
    left), the midpoint Lipschitz bound plus rounding, or None, for a lift
    without Lipschitz data, which marks the value as an estimate.

    invariance_source is "jacobian" when the Jacobian of a
    Lebesgue-preserving family (`_JACOBIAN_ONE`) proves invariance_residual
    exactly 0, and None when the residual, if checked, comes from the
    push-forward probes."""

    value: float
    error_bound: Optional[float]
    measure_kind: str
    invariance_residual: Optional[float] = None
    invariance_warning: bool = False
    rational: Optional[Fraction] = None
    invariance_source: Optional[str] = None


def mean_translation_number(
    a: CohomologyClass,
    g: BundleAutomorphism,
    mu: InvariantMeasure,
    quadrature_points: int = QUADRATURE_POINTS,
    check_invariance: bool = True,
) -> MeanReport:
    """Integral of rho against mu.

    The Lebesgue mean of a lift with a kernel spec is the constant term of
    rho (`_displacement_coefficients`), an exact rational of the float data
    that no grid is read for; quadrature_points is still checked as a grid
    would be. The Jacobian proves such a map's Lebesgue invariance
    (`_JACOBIAN_ONE`); an Arnold map keeps the push-forward residual, read
    at min(quadrature_points, QUADRATURE_POINTS) points per axis. Every
    other mean is read from one walk of mu's points (`_walked_mean`). A
    push-forward residual above INVARIANCE_TOLERANCE sets the warning
    flag."""
    if mu.kind != "lebesgue" or g.lift.kernel_spec is None:
        return _walked_mean(a, g, mu, quadrature_points, check_invariance)
    _map_shift(a, g)
    _require_grid(a.dimension, quadrature_points)
    _, rational, _ = _displacement_coefficients(a, g.lift, g.fiber_shift)
    residual = source = None
    if check_invariance and _jacobian_preserves(g.lift, mu):
        residual, source = 0.0, "jacobian"
    elif check_invariance:
        residual = measure_invariance_residual(g.lift, mu, min(quadrature_points, QUADRATURE_POINTS))
    return MeanReport(
        value=float(rational),
        error_bound=0.0,
        measure_kind=mu.kind,
        invariance_residual=residual,
        invariance_warning=residual is not None and residual > INVARIANCE_TOLERANCE,
        rational=rational,
        invariance_source=source,
    )


def _walked_mean(
    a: CohomologyClass,
    g: BundleAutomorphism,
    mu: InvariantMeasure,
    quadrature_points: int,
    check_invariance: bool = True,
) -> MeanReport:
    """The integral of rho against mu read from a walk of mu's points: the
    grid route of a Lebesgue mean, and the only route of orbit and
    empirical means.

    For orbit measures the mean is the exact cycle average; for Lebesgue it
    is midpoint quadrature in one pass over the m^n grid. The push-forward
    residual reads the same points and images as the mean does (one walk,
    one evaluation, `_probed_rows`), except on a Lebesgue grid finer than
    QUADRATURE_POINTS per axis, where it takes its own grid at that cap. Its
    error_bound (`_lebesgue_bound`) is a rounding bound when rho is a trigonometric
    polynomial of known degree d < m (every built-in family: 0 for rigid and
    affine maps, 1 for arnold and sinshear, the degree of c for skew), the
    midpoint Lipschitz bound |a|_1 L sqrt(n/12)/m plus rounding for any
    other lift with Lipschitz data, and None, an estimate, for a lift
    without."""
    shift = _map_shift(a, g)
    lebesgue = mu.kind == "lebesgue"

    def rho_of(xs, ys, out):
        _rho_values(xs, ys, a.vector, shift, out)

    if check_invariance and not (lebesgue and quadrature_points > QUADRATURE_POINTS):
        (values,), weights, residual = _probed_rows(
            lambda xs, ys, out: rho_of(xs, ys, out[0]), 1, mu, quadrature_points, g.lift
        )
        value, err = (_average(values, None), None) if lebesgue else _finite_mean(values, weights)
    else:
        value, err = _measure_mean(rho_of, mu, a.dimension, quadrature_points, g.lift)
        residual = measure_invariance_residual(g.lift, mu, QUADRATURE_POINTS) if check_invariance else None
    if lebesgue:
        err = _lebesgue_bound(a, g.lift, shift, quadrature_points)
    return MeanReport(
        value=value,
        error_bound=err,
        measure_kind=mu.kind,
        invariance_residual=residual,
        invariance_warning=residual is not None and residual > INVARIANCE_TOLERANCE,
    )


# --------------------------------------------------------------------------
# primitive perturbations


@dataclass(frozen=True)
class CochainPerturbation:
    """A periodic function beta changing the primitive: rho gains
    beta(g x) - beta(x). sup_bound must dominate |beta| (spot-checked)."""

    func: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    label: str = "beta"

    def __post_init__(self):
        rng = np.random.default_rng(0)
        # crude sample check in dimensions 1 and 2; real enforcement is the caller's
        for dim in (1, 2):
            try:
                pts = rng.uniform(0.0, 1.0, size=(64, dim))
                vals = np.asarray(self.func(pts), dtype=float)
            except (TypeError, ValueError, IndexError):
                continue
            if vals.shape == (64,) and float(np.max(np.abs(vals))) > self.sup_bound + 1e-12:
                raise ValidationError("sup_bound smaller than sampled |beta|")
            break

    @classmethod
    def from_trig(cls, poly, axis: int = 0, label: str = "beta") -> "CochainPerturbation":
        def f(pts, _p=poly, _ax=axis):
            pts = np.asarray(pts, dtype=float)
            if pts.ndim == 1:
                return _p(pts[_ax])
            return _p(pts[..., _ax])

        return cls(func=f, sup_bound=poly.sup_bound, label=label)

    def value(self, point) -> float:
        pts = reduce_point(point)
        return float(np.asarray(self.func(pts[None, :]))[0])


def perturbed_rho(a: CohomologyClass, g: BundleAutomorphism, x, pert: CochainPerturbation) -> float:
    """rho computed against the shifted primitive: rho + beta(g x) - beta(x),
    from one image of x."""
    c, cover = _orbit_start(a, g, x)
    image = g.lift(cover)
    base = float(_rho_values(cover, image, a.vector, c))
    return base + pert.value(reduce_point(image)) - pert.value(reduce_point(cover))


def perturbed_rho_power_average(
    a: CohomologyClass, g: BundleAutomorphism, x, pert: CochainPerturbation, n: int
) -> float:
    """Birkhoff average of the perturbed rho, accumulated term by term.

    Telescoping makes this (rho_x(g^n) + beta(g^n x) - beta(x))/n exactly;
    summing the perturbed terms instead keeps the computation honest to the
    definition and keeps float cancellation visible. The orbit is read in
    blocks (`_orbit_columns`), so memory does not grow with n: each block's
    terms rho(x) + beta(g x) - beta(x) are formed together, with one call of
    beta on the block's points and the point after them, and added to the
    sum one at a time, in orbit order."""
    if n < 1:
        raise ValidationError("need n >= 1")
    c, cover = _orbit_start(a, g, x)
    s = 0.0
    for xs, ys in _orbit_columns(g.lift, reduce_point(cover), n):
        beta = np.asarray(pert.func(np.vstack([xs.T, reduce_point(ys[:, -1])])), dtype=float)
        if beta.shape != (xs.shape[1] + 1,):
            raise ValidationError(f"beta maps {xs.shape[1] + 1} points to values of shape {beta.shape}")
        terms = _rho_values(xs, ys, a.vector, c) + beta[1:] - beta[:-1]
        terms[0] += s
        s = float(np.cumsum(terms)[-1])  # a running sum: sequential, unlike np.sum
    return s / n
