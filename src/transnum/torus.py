"""Flat bundles over the torus T^n = R^n / Z^n and the maps that act on them.

The bundle attached to a coefficient vector a = (a_1, ..., a_n) (integer or
real entries) is the quotient of R^n x A by the deck action

    m . (x, k) = (x + m, k - <a, m>),        m in Z^n,

with A = Z or R the fiber group. A point of the total space is represented
by a (cover, fiber) pair; `canonicalize` moves the cover coordinates into
[0,1)^n while adjusting the fiber by <a, floor(cover)>, and

    theta(cover, fiber) = <a, cover> + fiber

is a well-defined global height: deck moves cancel exactly, and the fiber
translation T_r raises it by r.

Maps of the base enter as lifts: g_tilde : R^n -> R^n together with an
integer matrix M satisfying g_tilde(x + m) = g_tilde(x) + M m. Such a lift
acts on the bundle attached to `a` precisely when M^T a = a
(`preserves_class`); `check_equivariance` spot-checks the displacement
identity on random cover points. Lifts compose and (when a factory is
registered) invert; Lipschitz data rides along so the sup-norm module can
certify grid bounds.

The evaluator of a built-in family of T^1 or T^2, and of a word of them, is
a column step (`_StepEvaluator`), which maps the coordinates of points, one
array per axis, to those of their images, letter by letter. Any other
evaluator is a hand-built callable on (..., n) stacks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import ClassNotPreserved, DimensionMismatch, ValidationError

__all__ = [
    "Coefficients",
    "CohomologyClass",
    "BundlePoint",
    "LiftedMap",
    "EquivarianceReport",
    "reduce_point",
    "torus_distance",
    "theta",
    "canonicalize",
    "identity_lift",
    "preserves_class",
    "require_preserves_class",
    "check_equivariance",
]


class Coefficients(enum.Enum):
    """Fiber group of the bundle: integer or real translations."""

    INTEGER = "integer"
    REAL = "real"


@dataclass(frozen=True)
class CohomologyClass:
    """Constant-coefficient degree-one class, stored as its period vector.

    `entries` are the pairings with the n coordinate loops. Integer kind
    demands integer entries (kept as python ints so downstream exact
    arithmetic never touches floats)."""

    entries: tuple
    coefficients: Coefficients = Coefficients.INTEGER

    def __post_init__(self):
        ent = tuple(self.entries)
        if not ent:
            raise ValidationError("class needs at least one entry")
        if self.coefficients is Coefficients.INTEGER:
            for e in ent:
                if not isinstance(e, (int, np.integer)) or isinstance(e, bool):
                    raise ValidationError(
                        f"integer coefficients require integer entries, got {e!r}"
                    )
            ent = tuple(int(e) for e in ent)
        else:
            ent = tuple(float(e) for e in ent)
        object.__setattr__(self, "entries", ent)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)

    @property
    def one_norm(self) -> float:
        return float(np.abs(self.vector).sum())

    def is_integral(self) -> bool:
        return self.coefficients is Coefficients.INTEGER


def _int64_matrix(matrix, what: str) -> np.ndarray:
    """`matrix` as a new int64 array. An array of an integer dtype passes
    as is; any other must hold integer values inside the int64 range, which
    a cast would otherwise truncate or wrap without a word. The test reads
    the caller's own entries, so a big int is named as it was given."""
    m = np.asarray(matrix)
    if m.dtype.kind == "i":
        return m.astype(np.int64)
    entries = np.asarray(matrix, dtype=object)
    for entry in entries.ravel().tolist():
        if entry % 1:  # also NaN for NaN and +-inf
            raise ValidationError(f"{what} must have integer entries, got {entry}")
        if not -(2**63) <= entry < 2**63:
            raise ValidationError(f"{what} entry {entry} is outside the int64 range")
    return entries.astype(np.int64)


def reduce_point(x) -> np.ndarray:
    """Canonical representative of a torus point: coordinates in [0,1)."""
    arr = np.asarray(x, dtype=float)
    out = np.mod(arr, 1.0)
    # np.mod(-tiny, 1.0) rounds to 1.0; fold that back onto 0.0
    return np.where(out >= 1.0, 0.0, out)


def torus_distance(x, y) -> float:
    """Sup metric on T^n with per-coordinate wraparound."""
    d = np.abs(reduce_point(x) - reduce_point(y))
    d = np.minimum(d, 1.0 - d)
    return float(d.max())


@dataclass(frozen=True)
class BundlePoint:
    """Point of the total space as a (cover, fiber) pair.

    cover lives in R^n (not necessarily reduced); fiber is an int for A = Z,
    otherwise a float or Fraction."""

    cover: np.ndarray
    fiber: object = 0

    def __post_init__(self):
        object.__setattr__(self, "cover", np.atleast_1d(np.asarray(self.cover, dtype=float)))

    @property
    def dimension(self) -> int:
        return int(self.cover.shape[0])


def _class_pairing(a: CohomologyClass, m: np.ndarray):
    """<a, m> for an integer vector m, exact when the class is integral."""
    if a.is_integral():
        return sum(int(ai) * int(mi) for ai, mi in zip(a.entries, m))
    return float(np.dot(a.vector, np.asarray(m, dtype=float)))


def theta(a: CohomologyClass, p: BundlePoint) -> float:
    """Global height <a, cover> + fiber; adds r under the fiber translation."""
    if p.dimension != a.dimension:
        raise DimensionMismatch(f"point dim {p.dimension} vs class dim {a.dimension}")
    return float(np.dot(a.vector, p.cover)) + float(p.fiber)


def canonicalize(a: CohomologyClass, p: BundlePoint) -> BundlePoint:
    """Equivalent representative with cover in [0,1)^n.

    Subtracting m = floor(cover) from the cover must add <a, m> to the fiber
    for theta to be unchanged; integer classes keep the adjustment exact."""
    if p.dimension != a.dimension:
        raise DimensionMismatch(f"point dim {p.dimension} vs class dim {a.dimension}")
    m = np.floor(p.cover).astype(np.int64)
    cover = p.cover - m
    # tiny negative coordinates round cover - floor(cover) up to exactly 1.0;
    # bump those into the next cell so the contract cover in [0,1) holds
    carry = cover >= 1.0
    if np.any(carry):
        m = m + carry.astype(np.int64)
        cover = np.where(carry, 0.0, cover)
    pay = _class_pairing(a, m)
    fiber = p.fiber
    if isinstance(fiber, (int, np.integer)) and isinstance(pay, int):
        fiber = int(fiber) + pay
    elif isinstance(fiber, Fraction):
        fiber = fiber + pay
    else:
        fiber = float(fiber) + float(pay)
    return BundlePoint(cover, fiber)


class _StepEvaluator:
    """Column step of a built-in family of T^1 or T^2, or of a word of them:
    `_kernels.np_step` of each letter (code, params) in turn, the first
    letter first. `image` maps coordinates, real or complex; calling the
    step maps a (..., n) stack through `image`.

    A parameter is a float, or a (B,) column giving row i of a (B, n) stack
    its own value (the skew degree stays one float)."""

    __slots__ = ("letters",)

    def __init__(self, *letters):
        self.letters = tuple(
            (code, tuple(t if isinstance(t, np.ndarray) else float(t) for t in params)) for code, params in letters
        )

    def __call__(self, x):
        x = np.asarray(x)
        out = x.astype(complex if x.dtype.kind == "c" else float)
        # .T[j] is coordinate j of every point: a scalar for one point, which
        # numpy steps faster than the 0-d array that x[..., j] would give
        out_cols = out.T
        for j, y in enumerate(self.image(x.T)):
            out_cols[j] = y
        return out

    def image(self, cols) -> tuple:
        """The image of the coordinates `cols` (one array per axis,
        broadcasting against each other), one array per axis. An image
        coordinate keeps the shape of what it depends on: the rigid image of
        a grid block's axis columns is two columns again."""
        torus = len(cols) > 1  # on the circle the step's second entry is 0.0
        for code, params in self.letters:
            y0, y1 = _kernels.np_step(code, params, cols[0], cols[1] if torus else 0.0)
            cols = (y0, y1) if torus else (y0,)
        return cols


@dataclass(frozen=True)
class LiftedMap:
    """Lift of a torus map: evaluator on cover coordinates plus its matrix.

    evaluator must broadcast over leading axes (points stacked as (..., n));
    calling the map and `evaluate_many` refuse one whose output shape
    differs from its input's (`_image`). A column step (`_StepEvaluator`)
    also images coordinates, which is how grids, orbits and samples are
    imaged. Calling the map casts its input to float; the evaluator itself
    should also accept complex points, because derivatives are taken by the
    complex step Im g(x + i h v) / h (see `galkedra.gal_kedra_quadrature`).
    lipschitz_bound bounds Lip(g) and displacement_lipschitz bounds
    Lip(g - id), both Euclidean-in / sup-out; either may be None when
    unknown. kernel_spec = (code, params) routes orbit work through the
    scalar step of `_kernels` (compiled with numba when it is installed,
    interpreted otherwise) for the built-in families in dimensions 1 and 2.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    matrix: np.ndarray
    label: str = "map"
    lipschitz_bound: Optional[float] = None
    displacement_lipschitz: Optional[float] = None
    kernel_spec: Optional[tuple] = None
    inverse_factory: Optional[Callable[[], "LiftedMap"]] = None

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("matrix part must be square")
        object.__setattr__(self, "matrix", _int64_matrix(m, "matrix part"))

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[0])

    def __call__(self, x) -> np.ndarray:
        return self._image(np.asarray(x, dtype=float))

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Apply the lift to an (N, n) stack in one evaluator call."""
        return self._image(np.asarray(points, dtype=float))

    def _image(self, pts: np.ndarray) -> np.ndarray:
        """The evaluator's image of the float points `pts`, after the one
        shape check: an image whose shape is not the points' is refused."""
        out = np.asarray(self.evaluator(pts), dtype=float)
        if out.shape != pts.shape:
            raise ValidationError(
                f"evaluator of {self.label!r} maps points of shape {pts.shape} to shape "
                f"{out.shape}; it must broadcast over (..., n) stacks"
            )
        return out

    def compose(self, other: "LiftedMap") -> "LiftedMap":
        """self after other; matrices multiply, Lipschitz data propagates.
        The matrix product is formed in Python ints, so an entry outside
        int64 is refused (`_int64_matrix`) rather than wrapped. Two column
        steps compose to the word of their letters; any other evaluator
        composes as a callable on stacks."""
        if self.dimension != other.dimension:
            raise DimensionMismatch("cannot compose lifts of different dimensions")
        f, g = self, other
        lip = None
        if f.lipschitz_bound is not None and g.lipschitz_bound is not None:
            lip = f.lipschitz_bound * g.lipschitz_bound
        # Lip(fg - id) <= Lip(f - id) Lip(g) + Lip(g - id)
        disp = None
        if (
            f.displacement_lipschitz is not None
            and g.lipschitz_bound is not None
            and g.displacement_lipschitz is not None
        ):
            disp = f.displacement_lipschitz * g.lipschitz_bound + g.displacement_lipschitz
        inv = None
        if f.inverse_factory is not None and g.inverse_factory is not None:
            inv = lambda _f=f, _g=g: _g.invert().compose(_f.invert())
        if isinstance(f.evaluator, _StepEvaluator) and isinstance(g.evaluator, _StepEvaluator):
            evaluator = _StepEvaluator(*g.evaluator.letters, *f.evaluator.letters)
        else:
            evaluator = lambda x, _f=f.evaluator, _g=g.evaluator: _f(_g(x))
        return LiftedMap(
            evaluator=evaluator,
            matrix=[[sum(map(mul, row, col)) for col in zip(*g.matrix.tolist())] for row in f.matrix.tolist()],
            label=f"{f.label}*{g.label}",
            lipschitz_bound=lip,
            displacement_lipschitz=disp,
            kernel_spec=None,
            inverse_factory=inv,
        )

    def invert(self) -> "LiftedMap":
        if self.inverse_factory is None:
            raise ValidationError(f"no inverse registered for lift {self.label!r}")
        return self.inverse_factory()


def identity_lift(dimension: int) -> LiftedMap:
    eye = np.eye(dimension, dtype=np.int64)
    return LiftedMap(
        evaluator=np.asarray,
        matrix=eye,
        label="id",
        lipschitz_bound=1.0,
        displacement_lipschitz=0.0,
        kernel_spec=None,
        inverse_factory=lambda: identity_lift(dimension),
    )


def _exact_det(m: tuple) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination: after step k every entry below row k is a k+1 by k+1 minor,
    so each division by the previous pivot is exact and all work stays in
    ints."""
    n = len(m)
    mat = [list(row) for row in m]
    sign, prev = 1, 1
    for i in range(n):
        piv = next((r for r in range(i, n) if mat[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            mat[i], mat[piv] = mat[piv], mat[i]
            sign = -sign
        p, top = mat[i][i], mat[i]
        for row in mat[i + 1:]:
            f = row[i]
            for c in range(i + 1, n):
                row[c] = (row[c] * p - f * top[c]) // prev
        prev = p
    return sign * prev


def _exact_inverse(m: tuple) -> tuple:
    """Inverse of a unimodular integer matrix: its adjugate times det = +-1."""
    n = len(m)
    det = _exact_det(m)

    def minor(r: int, c: int) -> tuple:
        return tuple(row[:c] + row[c + 1:] for i, row in enumerate(m) if i != r)

    return tuple(
        tuple((-1) ** (i + j) * det * _exact_det(minor(j, i)) for j in range(n)) for i in range(n)
    )


def preserves_class(a: CohomologyClass, lift_or_matrix) -> bool:
    """Exact test of M^T a = a (integer arithmetic for integral classes)."""
    m = lift_or_matrix.matrix if isinstance(lift_or_matrix, LiftedMap) else lift_or_matrix
    if len(m) != a.dimension:
        raise DimensionMismatch(f"matrix dim {len(m)} vs class dim {a.dimension}")
    if a.is_integral():
        # (M^T a)_i = <column i of M, a>, in Python ints
        columns = zip(*(m.tolist() if isinstance(m, np.ndarray) else m))
        return all(sum(map(mul, col, a.entries)) == e for col, e in zip(columns, a.entries))
    image = np.asarray(m).T.astype(float) @ a.vector
    return bool(np.all(image == a.vector))


def require_preserves_class(a: CohomologyClass, lift: LiftedMap) -> None:
    if not preserves_class(a, lift):
        raise ClassNotPreserved(
            f"lift {lift.label!r} has matrix part that moves the class {a.entries}"
        )


@dataclass(frozen=True)
class EquivarianceReport:
    max_residual: float
    samples: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


def check_equivariance(
    lift: LiftedMap,
    samples: int = 16,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> EquivarianceReport:
    """Spot-check g(x + m) = g(x) + M m on random cover points and shifts."""
    rng = np.random.default_rng(seed)
    n = lift.dimension
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(-2.0, 2.0, size=n)
        m = rng.integers(-3, 4, size=n)
        lhs = lift(x + m)
        rhs = lift(x) + lift.matrix @ m
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return EquivarianceReport(max_residual=worst, samples=samples, tolerance=tolerance)
