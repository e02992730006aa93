"""Built-in lifted map families: one formula each, in `_kernels`.

Each constructor returns a LiftedMap whose kernel spec (code, params) runs
the family's step in the orbit kernel, and whose evaluator is the column
step (`torus._StepEvaluator`) that runs the same step (`_kernels.np_step`)
on coordinates: of grid blocks, orbits, samples or point stacks. Rigid and
affine maps of dimension 3 or more, which the step cannot take, keep the
stack evaluators x + v and x @ M.T + v. The evaluators accept complex
points, so derivatives come from the complex step rather than from
hand-written Jacobians. Each map also carries Lipschitz constants for
itself and its displacement field, and an inverse factory.
Everything here is a lift to R^n of a torus homeomorphism; equivariance is
by construction but `check_equivariance` will happily re-verify.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError
from .torus import LiftedMap, _StepEvaluator, _exact_det, _exact_inverse, _int64_matrix

__all__ = [
    "TrigPolynomial",
    "rigid_rotation",
    "torus_affine",
    "arnold_circle",
    "sinusoidal_shear",
    "skew_translation",
    "sample_class_entries",
    "sample_map",
    "sample_map_spec",
    "map_from_spec",
    "sample_fiber_shift",
]

TWO_PI = 2.0 * math.pi
# A float above 2^52 in size has no fractional part left, so a translation
# that large has already lost its action on the torus.
TRANSLATION_LIMIT = 2.0**52


def _translation(value, what: str):
    """`value` (a float or a list of them) when every entry is finite and
    at most TRANSLATION_LIMIT in size."""
    for t in value if isinstance(value, list) else (value,):
        if not abs(t) <= TRANSLATION_LIMIT:  # also refuses NaN
            raise ValidationError(f"{what} must be finite and at most 2^52 in size, got {value}")
    return value


def _vector(vector, what: str) -> tuple:
    """(v, entries): `vector` as a new 1-D float array and as a list of
    floats, after the translation check."""
    v = np.array(vector, dtype=float, ndmin=1)
    if v.ndim != 1:
        raise ValidationError(f"{what} must be a flat list of numbers, got shape {v.shape}")
    return v, _translation(v.tolist(), what)


@dataclass(frozen=True)
class TrigPolynomial:
    """c(x) = constant + sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x)."""

    constant: float = 0.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        ca, sa = tuple(map(float, self.cos_coeffs)), tuple(map(float, self.sin_coeffs))
        if len(ca) != len(sa):
            # pad the shorter list so degree bookkeeping stays trivial
            d = max(len(ca), len(sa))
            ca = ca + (0.0,) * (d - len(ca))
            sa = sa + (0.0,) * (d - len(sa))
        constant = float(self.constant)
        _translation([constant, *ca, *sa], "trig polynomial coefficients")
        object.__setattr__(self, "cos_coeffs", ca)
        object.__setattr__(self, "sin_coeffs", sa)
        object.__setattr__(self, "constant", constant)

    @property
    def degree(self) -> int:
        return len(self.cos_coeffs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.constant)
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            ang = TWO_PI * k * x
            out = out + a * np.cos(ang) + b * np.sin(ang)
        return out

    @property
    def sup_bound(self) -> float:
        return abs(self.constant) + sum(
            math.hypot(a, b) for a, b in zip(self.cos_coeffs, self.sin_coeffs)
        )

    @property
    def derivative_bound(self) -> float:
        return sum(
            TWO_PI * k * math.hypot(a, b)
            for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1)
        )

    def shifted(self, delta: float) -> "TrigPolynomial":
        """The polynomial x -> c(x + delta), recombined coefficient-wise."""
        ca, sa = [], []
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            beta = TWO_PI * k * delta
            ca.append(a * math.cos(beta) + b * math.sin(beta))
            sa.append(b * math.cos(beta) - a * math.sin(beta))
        return TrigPolynomial(self.constant, tuple(ca), tuple(sa))

    def scaled(self, t: float) -> "TrigPolynomial":
        """The polynomial x -> t c(x)."""
        return TrigPolynomial(
            t * self.constant,
            tuple(t * a for a in self.cos_coeffs),
            tuple(t * b for b in self.sin_coeffs),
        )

    def __neg__(self) -> "TrigPolynomial":
        return self.scaled(-1.0)

    def kernel_params(self) -> list:
        out = [self.constant]
        for a, b in zip(self.cos_coeffs, self.sin_coeffs):
            out.extend((a, b))
        return out


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """The n x n int64 identity, shared read-only: `LiftedMap` stores its
    own copy of a matrix part (`_int64_matrix`)."""
    eye = np.eye(n, dtype=np.int64)
    eye.flags.writeable = False
    return eye


def rigid_rotation(vector) -> LiftedMap:
    """x -> x + v. Displacement is constant, so its Lipschitz constant is 0."""
    v, entries = _vector(vector, "rigid vector")
    if len(entries) > 2:  # the kernel step takes pairs only
        evaluator = lambda x, _v=v: np.asarray(x) + _v
    else:
        evaluator = _StepEvaluator((_kernels.RIGID, entries))
    return LiftedMap(
        evaluator=evaluator,
        matrix=_identity(len(entries)),
        label=f"rigid{tuple(round(t, 6) for t in entries)}",
        lipschitz_bound=1.0,
        displacement_lipschitz=0.0,
        kernel_spec=(_kernels.RIGID, v),
        inverse_factory=lambda _v=v: rigid_rotation(-_v),
    )


@functools.lru_cache(maxsize=256)
def _unimodular(rows: tuple) -> tuple:
    """(inverse, float matrix, Lip, displacement Lip) of the integer matrix
    with these rows, after refusing |det| != 1 and an inverse beyond int64.

    Computed once per distinct matrix, so the arrays are read-only; a
    refusal raises, and is never stored."""
    det = _exact_det(rows)
    if abs(det) != 1:
        raise ValidationError(f"matrix must be invertible over the integers, det={det}")
    try:
        minv = np.array(_exact_inverse(rows), dtype=np.int64)
    except OverflowError:
        raise ValidationError("the inverse matrix has entries beyond int64") from None
    mf = np.array(rows, dtype=float)
    # the largest singular value, which is what np.linalg.norm(., 2) returns
    lip = float(np.linalg.svd(mf, compute_uv=False)[0])
    disp = float(np.linalg.svd(mf - np.eye(len(rows)), compute_uv=False)[0])
    minv.flags.writeable = mf.flags.writeable = False
    return minv, mf, lip, disp


def torus_affine(matrix, vector) -> LiftedMap:
    """x -> M x + v with M an integer matrix, |det M| = 1."""
    m = _int64_matrix(matrix, "affine matrix")
    v, entries = _vector(vector, "affine vector")
    n = len(entries)
    if m.shape != (n, n):
        raise ValidationError("matrix/vector dimensions disagree")
    minv, mf, lip, disp = _unimodular(tuple(map(tuple, m.tolist())))
    params = np.concatenate((mf.ravel(), v))
    if n > 2:  # the kernel step takes pairs only
        evaluator = lambda x, _m=mf, _v=v: np.asarray(x) @ _m.T + _v
    else:
        evaluator = _StepEvaluator((_kernels.AFFINE, params.tolist()))
    return LiftedMap(
        evaluator=evaluator,
        matrix=m,
        label="affine",
        lipschitz_bound=lip,
        displacement_lipschitz=disp,
        kernel_spec=(_kernels.AFFINE, params),
        inverse_factory=lambda _mi=minv, _v=v: torus_affine(_mi, -(_mi.astype(float) @ _v)),
    )


def arnold_circle(omega: float, k: float) -> LiftedMap:
    """Circle lift x -> x + omega + (k / 2 pi) sin(2 pi x); needs |k| < 1."""
    omega, k = _translation(float(omega), "arnold omega"), float(k)
    if not abs(k) < 1.0:
        raise ValidationError(f"|k| must be < 1 for an invertible circle map, got {k}")
    forward = _StepEvaluator((_kernels.CIRCLE_SINE, (omega, k)))

    def inverse(_o=omega, _k=k):
        def ev_inv(y):
            # Newton's method on the forward map; its derivative is 1 + k cos(2 pi x).
            # The step is measured against max(1, |y|): float spacing near a
            # large y is far above any absolute tolerance. Each point stops
            # at its own convergence, so its image does not depend on the
            # other points of the call.
            y = np.asarray(y)
            scale = np.maximum(1.0, np.abs(y))
            x = y - _o
            live = np.ones(y.shape, dtype=bool)
            for _ in range(60):
                step = (forward(x) - y) / (1.0 + _k * np.cos(TWO_PI * x))
                x = np.where(live, x - step, x)
                live &= ~(np.abs(step) < 1e-15 * scale)
                if not live.any():
                    break
            return x

        return LiftedMap(
            evaluator=ev_inv,
            matrix=_identity(1),
            label=f"circle+sine({_o},{_k})^-1",
            lipschitz_bound=1.0 / (1.0 - abs(_k)),
            displacement_lipschitz=abs(_k) / (1.0 - abs(_k)),
            kernel_spec=None,
            inverse_factory=lambda: arnold_circle(_o, _k),
        )

    return LiftedMap(
        evaluator=forward,
        matrix=_identity(1),
        label=f"circle+sine({omega},{k})",
        lipschitz_bound=1.0 + abs(k),
        displacement_lipschitz=abs(k),
        kernel_spec=(_kernels.CIRCLE_SINE, np.array([omega, k])),
        inverse_factory=inverse,
    )


def sinusoidal_shear(epsilon: float) -> LiftedMap:
    """(x, y) -> (x + eps sin(2 pi y), y); inverse is the shear with -eps."""
    eps = _translation(float(epsilon), "sinshear epsilon")
    return LiftedMap(
        evaluator=_StepEvaluator((_kernels.SINE_SHEAR, (eps,))),
        matrix=_identity(2),
        label=f"sineshear({eps})",
        lipschitz_bound=1.0 + TWO_PI * abs(eps),
        displacement_lipschitz=TWO_PI * abs(eps),
        kernel_spec=(_kernels.SINE_SHEAR, np.array([eps])),
        inverse_factory=lambda _e=eps: sinusoidal_shear(-_e),
    )


def skew_translation(omega: float, poly: TrigPolynomial) -> LiftedMap:
    """(x, y) -> (x + omega, y + c(x)) with c a trigonometric polynomial."""
    omega = _translation(float(omega), "skew omega")
    if not isinstance(poly, TrigPolynomial):
        raise ValidationError("skew translation needs a TrigPolynomial second-axis speed")
    params = [omega, float(poly.degree), *poly.kernel_params()]
    slope = poly.derivative_bound
    return LiftedMap(
        evaluator=_StepEvaluator((_kernels.SKEW, params)),
        matrix=_identity(2),
        label=f"skew({omega})",
        lipschitz_bound=1.0 + slope,
        displacement_lipschitz=slope,
        kernel_spec=(_kernels.SKEW, np.array(params)),
        inverse_factory=lambda _o=omega, _c=poly: skew_translation(
            -_o, -(_c.shifted(-_o))
        ),
    )


# --- seeded samplers used by the residual suites and the test corpus ------


def sample_class_entries(rng, dimension: int):
    """Random nonzero integer class entries in [-3, 3].

    On T^n for n >= 2 the last entry is pinned to zero so lower-triangular
    integer shears (which fix exactly those classes) stay available."""
    while True:
        ent = [int(e) for e in rng.integers(-3, 4, size=dimension)]
        if dimension >= 2:
            ent[-1] = 0
        if any(ent):
            return tuple(ent)


def sample_map_spec(rng, entries) -> tuple:
    """(code, params) of a random built-in map whose matrix part fixes the
    given integer class: the kernel spec of the map `map_from_spec` builds
    from it, params as a tuple of floats (an affine map's are its matrix,
    row-major, then its vector)."""
    dimension = len(entries)
    # a family is drawn by its index: rng.integers(n) reads the stream as
    # rng.choice of an n-entry list does, at about a fifth of the cost
    if dimension == 1:
        if rng.integers(2) == 0:
            return _kernels.RIGID, (float(rng.uniform(0.0, 1.0)),)
        return _kernels.CIRCLE_SINE, (float(rng.uniform(0.0, 1.0)), float(rng.uniform(-0.9, 0.9)))
    if dimension == 2:
        kind = rng.integers(4 if entries[1] == 0 else 3)  # rigid, sinshear, skew, affine
        if kind == 0:
            return _kernels.RIGID, tuple(rng.uniform(0.0, 1.0, size=2).tolist())
        if kind == 1:
            return _kernels.SINE_SHEAR, (float(rng.uniform(-0.3, 0.3)),)
        if kind == 2:
            constant = float(rng.uniform(-0.5, 0.5))
            cos_coeffs = rng.uniform(-0.3, 0.3, size=2).tolist()
            sin_coeffs = rng.uniform(-0.3, 0.3, size=2).tolist()
            pairs = [t for ab in zip(cos_coeffs, sin_coeffs) for t in ab]
            return _kernels.SKEW, (float(rng.uniform(0.0, 1.0)), 2.0, constant, *pairs)
        shear = float(rng.integers(-2, 3))
        return _kernels.AFFINE, (1.0, 0.0, shear, 1.0, *rng.uniform(0.0, 1.0, size=2).tolist())
    return _kernels.RIGID, tuple(rng.uniform(0.0, 1.0, size=dimension).tolist())


def map_from_spec(code: int, params) -> LiftedMap:
    """The built-in map of the kernel spec (code, params), as
    `sample_map_spec` gives it."""
    if code == _kernels.RIGID:
        return rigid_rotation(list(params))
    if code == _kernels.AFFINE:
        n = math.isqrt(len(params))  # n^2 + n params
        return torus_affine(np.reshape(params[: n * n], (n, n)), list(params[n * n :]))
    if code == _kernels.CIRCLE_SINE:
        return arnold_circle(*params)
    if code == _kernels.SINE_SHEAR:
        return sinusoidal_shear(*params)
    return skew_translation(params[0], TrigPolynomial(params[2], params[3::2], params[4::2]))


def sample_map(rng, entries) -> LiftedMap:
    """Random built-in map whose matrix part fixes the given integer class."""
    return map_from_spec(*sample_map_spec(rng, entries))


def sample_fiber_shift(rng) -> int:
    """Random integer fiber shift in [-3, 3]."""
    return int(rng.integers(-3, 4))
