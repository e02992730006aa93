"""Translation numbers of bundle automorphisms: pointwise limits and means.

A bundle automorphism over the class a is a pair (lift, fiber_shift): the
lift moves the base torus, the shift translates fibers. Its displacement
cocycle at a base point x with chosen cover representative x~ is

    rho(x) = <a, lift(x~) - x~> + fiber_shift,

independent of the representative because the matrix part fixes a. Powers
accumulate along the orbit, rho_x(g^n) = sum_{i<n} rho(g^i x), and the
local translation number is the limit of rho_x(g^n)/n. The driver below
estimates it by window doubling, but first watches the orbit for an exact
return to x: a period-q return whose accumulated displacement is within
1e-9 of an integer p (integer-fiber bundles only) is reported as the exact
rational p/q instead of a floating estimate. The orbits of an Arnold circle
map on an integer class get a second exact rule: a grid orbit, rounded
outward, that proves F^q - p has a fixed point, so the rotation number of F
is p/q (`exact-locked`). Every other verdict is a window estimate.

Means over an invariant measure use midpoint tensor quadrature (Lebesgue),
bounded by the trigonometric degree or the Lipschitz constant of the
displacement (`_lebesgue_bound`), or exact finite sums (orbit and empirical
measures), and carry a push-forward invariance residual so a non-invariant
measure is flagged rather than silently averaged. Every mean, residual and
splitting pair reads mu's points through one walk, `_measure_rows`: the
only code that knows where a measure's points come from. Each of them reads
coordinates, one array per axis: a grid block's axis columns, or the
columns of an orbit's or a sample's point stack. `_column_image` maps
coordinates to those of their images, so a built-in family images a grid
block without stacking a point.
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
from .families import _StepEvaluator
from .torus import (
    BundlePoint,
    CohomologyClass,
    LiftedMap,
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
    "VERDICT_EXACT_LOCKED",
    "VERDICT_EXACT_PERIODIC",
    "VERDICT_NOT_CONVERGED",
    "TongueProof",
]

VERDICT_CONVERGED = "converged"
VERDICT_EXACT_LOCKED = "exact-locked"
VERDICT_EXACT_PERIODIC = "exact-periodic"
VERDICT_NOT_CONVERGED = "not-converged"

INTEGER_FIBER_TOLERANCE = 1e-9
# An orbit has returned once it is this close to its start (torus sup metric).
RETURN_TOLERANCE = 1e-10
# The window verdict waits for this many steps, so short exact periods are seen.
SCAN_HORIZON = 16
# Window tolerance of the limits whose maps are not affine-exact.
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
    """Validate a fiber shift c against the fiber group and return it as float."""
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
    require_preserves_class(a, g.lift)
    c = _checked_shift(a, g.fiber_shift)
    cover = _cover_of(x, a.dimension)
    return float(np.dot(a.vector, g.lift(cover) - cover)) + c


def rho_many(a: CohomologyClass, g: BundleAutomorphism, points: np.ndarray) -> np.ndarray:
    """Vectorized rho over an (N, n) stack of base points."""
    require_preserves_class(a, g.lift)
    pts = np.asarray(points, dtype=float)
    return _rho_values(pts.T, g.lift.evaluate_many(pts).T, a.vector, _checked_shift(a, g.fiber_shift))


def _rho_values(xs, ys, avec, shift: float):
    """rho from the coordinates x_j of points and y_j of their images under
    a lift whose class and fiber shift are checked: sum_j a_j (y_j - x_j)
    in axis order, then + shift. xs and ys hold one entry per axis, and the
    entries broadcast together: the coordinates of one point, the columns
    of an (N, n) stack (`stack.T`), or a grid block's axis columns and
    their images (`_grid_columns`). Each value takes the same roundings
    whichever form holds it; a matrix product would leave their order (and
    any fused multiply-add) to the BLAS library."""
    total = None
    for a_j, x_j, y_j in zip(avec, xs, ys):
        term = a_j * (y_j - x_j)
        total = term if total is None else total + term
    return total + shift


# --------------------------------------------------------------------------
# orbit accumulation


class _PythonOrbit:
    """Running rho-sums along one base orbit, or along a stack of B orbits,
    in memory that does not grow with the number of steps.

    Keeps the reduced base point, the running sum, the first step index at
    which the orbit re-enters the RETURN_TOLERANCE ball around its start
    (-1 before that), and the running sum at that step: the only partial sum
    the limit reads. One orbit on T^1 or T^2 runs `_kernels._orbit_chunk_impl`:
    a `kernel` (code, params) runs it as `_kernels.orbit_chunk`, with the
    built-in family step; any other `evaluator` runs it as
    `_kernels.lift_chunk`, which calls the evaluator once per step on the
    (n,) point. A stack of B orbits, a (B, n) array of starts, calls
    `evaluator` once per step on the whole stack and keeps its sums, return
    indices and return sums as (B,) arrays; its `shift` may be a (B,)
    column. One orbit on T^n, n >= 3, runs as a one-row stack. Each step
    adds shift + sum_j avec_j (y_j - x_j) in the kernel's order; `rows()`
    reads every form the same way.

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
        self._kernel = kernel
        self._evaluator = evaluator
        self._avec = _kernels.pair(avec) if self.x0.ndim == 1 else [float(t) for t in avec]
        self._shift = shift

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
        """Drop every orbit of a stack but `rows` (indices, in order); the
        evaluator of a stack must offer `take(rows)` for its parameters."""
        rows = np.asarray(rows)
        self.x0, self.x, self.s = self.x0[rows], self.x[rows], self.s[rows]
        self.first_return, self.s_return, self.block = self.first_return[rows], self.s_return[rows], self.block[rows]
        self._evaluator = self._evaluator.take(rows)
        if isinstance(self._shift, np.ndarray):
            self._shift = self._shift[rows]

    def run_to(self, n: int) -> None:
        if n > self.count:
            self._advance(n - self.count)

    def _advance(self, steps: int) -> None:
        if self.x.ndim == 1:
            if self._kernel is None:
                chunk, (code, params) = _kernels.lift_chunk, (self._evaluator, self.x0.size)
            else:
                chunk, (code, params) = _kernels.orbit_chunk, self._kernel
            point, self.s, self.first_return, self.s_return, self.block = chunk(
                code, params, self._avec, self._shift, _kernels.pair(self.x), _kernels.pair(self.x0),
                self.count, steps, self.s, self.first_return, self.s_return, RETURN_TOLERANCE,
            )
            self.x = np.array(point[: self.x0.size])
        else:
            self._advance_stack(steps)
        self.count += steps

    def _advance_stack(self, steps: int) -> None:
        """The generic step of a (B, n) stack: one evaluator call per step
        on the whole stack, whose sums and returns are (B,) arrays."""
        evaluator, avec, shift, home = self._evaluator, self._avec, self._shift, self.x0
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


def _orbit_start(a: CohomologyClass, g: BundleAutomorphism, x0) -> tuple:
    """(fiber shift as a float, cover point) of the orbit of x0 under g,
    after the checks every orbit needs: g preserves the class, its shift
    lies in the fiber group and x0 lies on the class's torus."""
    require_preserves_class(a, g.lift)
    c = _checked_shift(a, g.fiber_shift)
    return c, _cover_of(x0, a.dimension)


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
    orbit, _ = _group_orbit(a, [g], [_orbit_start(a, g, x0)])
    return orbit


def _group_orbit(a: CohomologyClass, maps: list, starts: list) -> tuple:
    """(orbit, tongue prover) of a group of rows whose maps share one
    `_kernel_family`, from their checked `_orbit_start`s. One row runs
    alone: the kernel step for a built-in family in dimension 1 or 2, else
    its lift's evaluator. More rows, of one such family, run as one stack:
    one `np_step` call per step on their stacked parameters. The prover is
    `_tongue_prover`'s for the rows' family, None for any other lift."""
    family = _kernel_family(maps[0].lift)
    if len(maps) == 1:
        (g,), ((c, cover),) = maps, starts
        if family is None:
            return _PythonOrbit(cover, evaluator=g.lift.evaluator, avec=a.entries, shift=c), None
        code, params = g.lift.kernel_spec
        return _PythonOrbit(cover, kernel=(code, params), avec=a.entries, shift=c), _tongue_prover(a, code, params, c)
    code, degree = family
    columns = list(np.array([g.lift.kernel_spec[1] for g in maps], dtype=float).T.copy())
    if degree is not None:
        columns[1] = degree  # np_step loops over one skew degree
    shifts = np.array([c for c, _ in starts])
    orbit = _PythonOrbit(
        np.stack([cover for _, cover in starts]),
        evaluator=_StepEvaluator(code, columns),
        avec=a.entries,
        shift=shifts,
    )
    return orbit, _tongue_prover(a, code, columns, shifts)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a translation-number limit.

    value/error_bound are the window estimate, the weighted Birkhoff
    average of the last block of steps, and its gap to the previous block's
    (0 for the exact verdicts, exact-periodic and exact-locked, where
    `rational` holds the exact value); the gap is a heuristic, not a bound.
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
        return self.verdict in (VERDICT_CONVERGED, VERDICT_EXACT_PERIODIC, VERDICT_EXACT_LOCKED)


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


def _tongue_prover(a: CohomologyClass, code: int, params, shift) -> Optional[Callable]:
    """The tongue test of the orbits of Arnold maps on an integer class:
    a function from a list of orbit indices to, for each, (rational,
    TongueProof) when `_grid_locks` proves the map's rotation number rho(F),
    else None; the rational is a rho(F) + shift. `params` holds the
    family's parameters and `shift` the fiber shift, each a float for one
    orbit or a (B,) column for a stack. None for every other family or
    class."""
    if code != _kernels.CIRCLE_SINE or not a.is_integral():
        return None
    omega, k = (np.atleast_1d(np.asarray(t, dtype=float)) for t in params[:2])
    shifts = np.broadcast_to(np.asarray(shift, dtype=float), omega.shape)
    (entry,) = a.entries

    def prove(rows):
        locks = _grid_locks(omega[rows], k[rows])
        return [
            None if lock is None else (entry * lock.rotation + Fraction(float(shifts[r])), lock)
            for r, lock in zip(rows, locks)
        ]

    return prove


def _translation_limits(
    orbit: _PythonOrbit,
    tolerance: float,
    max_iterations: int,
    integer_eligible: bool,
    tongue: Optional[Callable] = None,
) -> list:
    """Window-doubling limit with exact-return preemption, one report per
    orbit of `orbit`.

    Checkpoints double (1, 2, 4, ...) up to max_iterations. At each
    checkpoint a detected first return q is inspected once: if the fiber
    displacement over the q-cycle is within INTEGER_FIBER_TOLERANCE of an
    integer p (and the fiber group is Z), the limit is exactly p/q.
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
    early stable window. At that first checkpoint, every orbit that no
    exact rule stopped, converged or not, is handed to `tongue`
    (`_tongue_prover`), once: an orbit it proves stops there as
    exact-locked. An orbit of a stack leaves it at the checkpoint where its
    limit stops."""
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    horizon = min(SCAN_HORIZON, max_iterations)

    def verdict(n, s, q, s_q, est, state):
        """The report at checkpoint n, whose block estimate is est, or None
        while the orbit runs on; `state` is [previous estimate, periodic
        base seen]."""
        est_prev, periodic_seen = state
        if q > 0 and periodic_seen is None:
            p = _integer_cycle(s_q) if integer_eligible else None
            if p is not None:
                frac = Fraction(p, q)
                return ConvergenceReport(
                    value=float(frac),
                    error_bound=0.0,
                    iterations=q,
                    verdict=VERDICT_EXACT_PERIODIC,
                    rational=frac,
                    window=(float(frac), float(frac)),
                    periodic_base=(q, s_q),
                    plain_average=s_q / q,
                )
            state[1] = periodic_seen = (q, s_q)
        diff = None if est_prev is None else abs(est - est_prev)  # one block has no gap
        if diff is not None and diff <= tolerance and n >= horizon:
            return ConvergenceReport(
                value=est,
                error_bound=diff,
                iterations=n,
                verdict=VERDICT_CONVERGED,
                window=(est_prev, est),
                periodic_base=periodic_seen,
                plain_average=s / n,
            )
        if n >= max_iterations:
            return ConvergenceReport(
                value=est,
                error_bound=diff,
                iterations=n,
                verdict=VERDICT_NOT_CONVERGED,
                window=(est_prev, est) if est_prev is not None else (est,),
                periodic_base=periodic_seen,
                plain_average=s / n,
            )
        state[0] = est
        return None

    def locked(n, s, rational, proof, state):
        return ConvergenceReport(
            value=float(rational),
            error_bound=0.0,
            iterations=n,
            verdict=VERDICT_EXACT_LOCKED,
            rational=rational,
            window=(float(rational), float(rational)),
            periodic_base=state[1],
            plain_average=s / n,
            tongue=proof,
        )

    states = [[None, None] for _ in range(orbit.size)]
    reports = [None] * orbit.size
    live = list(range(orbit.size))
    n = 1
    while True:
        orbit.run_to(n)
        rows = orbit.rows()
        found = [verdict(n, *row_state, states[row]) for row, row_state in zip(live, rows)]
        if tongue is not None and n >= horizon:
            # an exact verdict takes precedence over a converged window
            open_rows = [k for k, rep in enumerate(found) if rep is None or rep.rational is None]
            for k, proof in zip(open_rows, tongue([live[k] for k in open_rows])):
                if proof is not None:
                    found[k] = locked(n, rows[k][0], *proof, states[live[k]])
            tongue = None  # tried once, at the first checkpoint past the horizon
        stay = []
        for k, (row, report) in enumerate(zip(live, found)):
            if report is None:
                stay.append(k)
            else:
                reports[row] = report
        if not stay:
            return reports
        if len(stay) < len(live):
            orbit.keep(stay)
            live = [live[k] for k in stay]
        n = min(2 * n, max_iterations)


def _default_tolerance(g: BundleAutomorphism) -> float:
    spec = g.lift.kernel_spec
    if spec is not None and spec[0] in (_kernels.RIGID, _kernels.AFFINE):
        return 1e-9
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

    Defaults: tolerance 1e-9 for the affine-exact families, WINDOW_TOLERANCE
    otherwise; orbit returns detected within RETURN_TOLERANCE. The window
    check is a heuristic stopping rule, not a certificate. Two verdicts are
    exact, with `error_bound` 0 and the value in `rational`: exact-periodic
    (the orbit returns to x) and, for Arnold maps on an integer class,
    exact-locked (`_grid_locks` proves the rotation number).

    Every pair is checked first, in order, unless `starts` holds what
    `_orbit_start` gave for each pair: a caller that has checked the pairs
    passes those on. The orbits of the maps that the kernel step would run
    (built-in families in dimensions 1 and 2) and that share a family (and,
    for skew maps, a degree) are then stepped together when there are at
    least STACK_MIN_ROWS of them (`_group_orbit`), each orbit leaving the
    stack at the checkpoint where its limit stops. The tongue test of Arnold
    maps runs the stack's open orbits as one grid stack. The other orbits
    run one by one, and every one of them on T^1 or T^2 runs the one loop
    `_kernels._orbit_chunk_impl`.

    Each report is the one the pair gets alone: bit for bit for rigid and
    affine maps, whose stacked step does the kernel's arithmetic; the sine
    families take numpy's sin and cos where the kernel takes math's, and
    the two need not agree to the last bit on every platform."""
    if len(maps) != len(points):
        raise ValidationError(f"{len(maps)} maps but {len(points)} points")
    if starts is None:
        starts = [_orbit_start(a, g, x) for g, x in zip(maps, points)]
    reports = [None] * len(maps)
    groups = {}
    for i, g in enumerate(maps):
        groups.setdefault(_kernel_family(g.lift), []).append(i)
    for family, rows in groups.items():
        stacked = family is not None and len(rows) >= STACK_MIN_ROWS
        for group in [rows] if stacked else [[i] for i in rows]:
            orbit, tongue = _group_orbit(a, [maps[i] for i in group], [starts[i] for i in group])
            tol = _default_tolerance(maps[group[0]]) if tolerance is None else tolerance
            for i, report in zip(group, _translation_limits(orbit, tol, max_iterations, a.is_integral(), tongue)):
                reports[i] = report
    return reports


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
    axis, with the values of `lift.evaluate_many` on the points. A built-in
    family in dimension 1 or 2 (`_kernel_family`) runs its numpy step
    (`_StepEvaluator.image`) on xs, so no point or image stack is built, each
    sin and cos of a grid block runs once per grid coordinate, and an image
    coordinate that depends on one axis stays a column (x_0 + omega of a
    skew map). Any other lift stacks the broadcast points once and runs
    `evaluate_many` on the stack."""
    if _kernel_family(lift) is not None:
        return _StepEvaluator(*lift.kernel_spec).image

    def image(xs) -> tuple:
        shape = np.broadcast_shapes(*(np.shape(x) for x in xs))
        pts = np.empty((*shape, len(xs)))
        for j, x in enumerate(xs):
            pts[..., j] = x
        return tuple(lift.evaluate_many(pts.reshape(-1, len(xs))).T.reshape(len(xs), *shape))

    return image


def _grid_columns(lift: LiftedMap, dimension: int, m: int, offset: float):
    """(xs, ys) of each block of the grid `_grid_blocks` gives: its axis
    columns and their images under lift (`_column_image`), which broadcast
    together to the block."""
    image = _column_image(lift)
    return ((xs, image(xs)) for xs in _grid_blocks(dimension, m, offset))


def _measure_rows(func: Callable, mu: InvariantMeasure, dimension: int, m: int, lift: LiftedMap):
    """(rows, weights) of mu's points, the one walk every mean, residual and
    splitting pair reads them through. func takes the coordinates xs of
    points and ys of their images under lift, one array per axis, and
    returns a tuple of values that broadcast to the points; rows holds each
    of them over all of mu's points, weights None meaning equal weights.

    On Lebesgue measure the points are the midpoint grid at m points per
    axis, walked block by block as axis columns (`_grid_columns`), and rows
    is one (values, m^n) array filled in grid order: each value is written
    once, straight into the block's slice of its row, so the grid is never
    built whole. An orbit measure is walked under lift point by point, and
    an empirical one reads its samples; xs and ys are then the columns of
    the stack of points and of its images, which come from one
    `evaluate_many`."""
    if mu.kind == "lebesgue":
        rows, i = None, 0
        for xs, ys in _grid_columns(lift, dimension, m, 0.5):
            vals = func(xs, ys)
            if rows is None:  # the grid's size is checked
                rows = np.empty((len(vals), m**dimension))
            shape = np.broadcast_shapes(*(np.shape(x) for x in xs))
            size = math.prod(shape)
            for row, v in zip(rows, vals):
                row[i : i + size].reshape(shape)[...] = v
            i += size
        return rows, None
    support = mu.point if mu.kind == "dirac_orbit" else mu.samples
    if support is not None and support.shape[-1] != dimension:
        raise DimensionMismatch(
            f"the {mu.kind} measure lives on T^{support.shape[-1]}, the map on T^{dimension}"
        )
    if mu.kind == "dirac_orbit":
        pts, weights = np.empty((mu.period, dimension)), None
        cur = mu.point.copy()
        for i in range(mu.period):
            pts[i] = cur
            cur = reduce_point(lift(cur))
    elif mu.kind == "empirical":
        pts, weights = mu.samples, mu.weights
    else:
        raise ValidationError(f"unknown measure kind {mu.kind!r}")
    return func(pts.T, lift.evaluate_many(pts).T), weights


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
    (`_rho_values`), and returns values that broadcast to the points.

    A Lebesgue mean is the midpoint rule at m = quadrature_points per axis,
    one pass over the grid whose values go into one array of m^n floats;
    its mean is the value. Its error is None here, because it depends on
    the integrand: the means of rho bound it with `_lebesgue_bound`. A
    finite sum (orbit or empirical measure) is exact up to rounding, which
    `_finite_mean` bounds."""
    (values,), weights = _measure_rows(
        lambda xs, ys: (integrand_many(xs, ys),), mu, dimension, quadrature_points, base_map
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


def _displacement_degree(lift: LiftedMap) -> Optional[int]:
    """The degree of rho = <a, lift(x) - x> + shift as a trigonometric
    polynomial, for a lift with a kernel spec (in any dimension), else None:
    0 for rigid and affine maps, whose rho is the constant <a, v> + shift
    because M^T a = a; 1 for arnold and sinshear maps; the degree of c,
    params[1], for skew maps."""
    if lift.kernel_spec is None:
        return None
    code, params = lift.kernel_spec
    if code in (_kernels.RIGID, _kernels.AFFINE):
        return 0
    return int(params[1]) if code == _kernels.SKEW else 1


def _lebesgue_bound(a: CohomologyClass, lift: LiftedMap, shift: float, m: int) -> Optional[float]:
    """A bound on |value - int rho| for the midpoint mean (`_measure_mean`)
    of rho = <a, lift(x) - x> + shift at m points per axis on T^n, or None,
    which marks the mean as an estimate. With L = `_displacement_lipschitz`:

      - exact degree: when rho is a trigonometric polynomial of degree d
        (`_displacement_degree`) and m > d, the midpoint rule is exact, since
        each character e^(2 pi i k.x) with some 0 < |k_j| < m sums to 0 over
        the grid (Trefethen and Weideman, SIAM Review 56, 2014). The bound is
        the rounding term alone;
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
    lip = _displacement_lipschitz(lift)
    if lip is None:
        return None
    n = lift.dimension
    degree = _displacement_degree(lift)
    center = np.full(n, 0.5)
    disp = float(np.max(np.abs(lift(center) - center))) + lip * math.sqrt(n) / 2.0
    scale = a.one_norm * (1.0 + disp + lip) + abs(shift)
    ulps = 4 + (degree or 0) + (n + 1) * math.sqrt(n) + n + 29 + math.ceil(math.log2(m**n))
    bound = ulps * UNIT_ROUNDOFF * scale
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
    images are kept; below that the same walk keeps the grid's points too."""
    n = base_map.dimension
    unmoved = mu.kind != "lebesgue" or _aliased(n, quadrature_points)
    rows, weights = _measure_rows(
        lambda xs, ys: (*_moved(ys), *xs) if unmoved else _moved(ys), mu, n, quadrature_points, base_map
    )
    return _probe_residual(rows[n:] if unmoved else None, rows[:n], weights)


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

    error_bound is the rounding of the finite sum for orbit and empirical
    measures (`_finite_mean`), which grows with the number of points. For
    Lebesgue means (`_lebesgue_bound`) it has three sources:
    the exact degree (rho a trigonometric polynomial of degree below the
    grid, so only rounding is left), the midpoint Lipschitz bound plus
    rounding, or None, for a lift without Lipschitz data, which marks the
    value as an estimate."""

    value: float
    error_bound: Optional[float]
    measure_kind: str
    invariance_residual: Optional[float] = None
    invariance_warning: bool = False


def mean_translation_number(
    a: CohomologyClass,
    g: BundleAutomorphism,
    mu: InvariantMeasure,
    quadrature_points: int = QUADRATURE_POINTS,
    check_invariance: bool = True,
) -> MeanReport:
    """Integral of rho against mu.

    For orbit measures the mean is the exact cycle average; for Lebesgue it
    is midpoint quadrature in one pass over the grid. The push-forward
    residual reads the same points and images as the mean does (one walk,
    one evaluation), except on a Lebesgue grid finer than
    QUADRATURE_POINTS per axis, where it takes its own grid at that cap. Its
    error_bound (`_lebesgue_bound`) is a rounding bound when rho is a trigonometric
    polynomial of known degree d < m (every built-in family: 0 for rigid and
    affine maps, 1 for arnold and sinshear, the degree of c for skew), the
    midpoint Lipschitz bound |a|_1 L sqrt(n/12)/m plus rounding for any
    other lift with Lipschitz data, and None, an estimate, for a lift
    without. A push-forward residual above INVARIANCE_TOLERANCE sets the
    warning flag."""
    require_preserves_class(a, g.lift)
    shift = _checked_shift(a, g.fiber_shift)
    avec, n = a.vector, a.dimension

    def rho_of(xs, ys):
        return _rho_values(xs, ys, avec, shift)

    residual = None
    lebesgue = mu.kind == "lebesgue"
    if lebesgue and not (check_invariance and quadrature_points <= QUADRATURE_POINTS):
        value, _ = _measure_mean(rho_of, mu, n, quadrature_points, base_map=g.lift)
        err = _lebesgue_bound(a, g.lift, shift, quadrature_points)
        if check_invariance:
            residual = measure_invariance_residual(g.lift, mu, quadrature_points=QUADRATURE_POINTS)
    else:
        # the residual reads the coordinates of the mean's points and images
        unmoved = not lebesgue or _aliased(n, quadrature_points)

        def rows_of(xs, ys):
            return (rho_of(xs, ys), *_moved(ys), *xs) if unmoved else (rho_of(xs, ys), *_moved(ys))

        rows, weights = _measure_rows(rows_of, mu, n, quadrature_points, g.lift)
        if lebesgue:
            value, err = _average(rows[0], None), _lebesgue_bound(a, g.lift, shift, quadrature_points)
        else:
            value, err = _finite_mean(rows[0], weights)
        if check_invariance:
            residual = _probe_residual(rows[1 + n :] if unmoved else None, rows[1 : 1 + n], weights)
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
    """rho computed against the shifted primitive: rho + beta(g x) - beta(x)."""
    base = rho(a, g, x)
    cover = _cover_of(x, a.dimension)
    image = reduce_point(g.lift(cover))
    return base + pert.value(image) - pert.value(reduce_point(cover))


def perturbed_rho_power_average(
    a: CohomologyClass, g: BundleAutomorphism, x, pert: CochainPerturbation, n: int
) -> float:
    """Birkhoff average of the perturbed rho, accumulated term by term.

    Telescoping makes this (rho_x(g^n) + beta(g^n x) - beta(x))/n exactly;
    summing the perturbed terms instead keeps the computation honest to the
    definition and keeps float cancellation visible."""
    if n < 1:
        raise ValidationError("need n >= 1")
    require_preserves_class(a, g.lift)
    c = _checked_shift(a, g.fiber_shift)
    avec = a.vector
    cur = reduce_point(_cover_of(x, a.dimension))
    s = 0.0
    b_cur = pert.value(cur)
    for _ in range(n):
        image = g.lift(cur)
        nxt = reduce_point(image)
        b_next = pert.value(nxt)
        s += float(np.dot(avec, image - cur)) + c + b_next - b_cur
        cur, b_cur = nxt, b_next
    return s / n
