"""Homological translation vectors from isotopies of the identity.

An isotopy here is a family g_t of torus maps with g_0 = id, presented by
its lift on cover coordinates (every built-in time slice is equivariant
with matrix I). The pairing of the class a with the arc an orbit point
sweeps under one pass of the isotopy is

    delta_phi(arc) = <a, lift(1, x~) - x~>,

the winding of the arc against a. Concatenating the arcs at x, g(x),
g^2(x), ... (g the terminal map) and averaging gives the homological
translation number at x; it agrees with the local translation number of
the induced bundle automorphism whose fiber shift is normalized to 0 (the
lift that follows the isotopy upstairs starting from the identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import (
    BundleAutomorphism,
    ConvergenceReport,
    DEFAULT_RETURN_TOLERANCE,
    DEFAULT_SCAN_HORIZON,
    InvariantMeasure,
    MeanReport,
    _measure_mean,
    _PythonOrbit,
    _translation_limit,
)
from .errors import ValidationError
from .families import TrigPolynomial, rigid_rotation, sinusoidal_shear, skew_translation
from .torus import CohomologyClass, LiftedMap, require_preserves_class

__all__ = [
    "Isotopy",
    "straight_isotopy",
    "shear_isotopy",
    "skew_isotopy",
    "arc_of",
    "delta_phi",
    "induced_bundle_map",
    "homological_translation",
    "mean_homological_translation",
]


@dataclass(frozen=True)
class Isotopy:
    """lift(t, points) with lift(0, .) = id; `terminal` is the time-1 map."""

    lift: Callable[[float, np.ndarray], np.ndarray]
    terminal: LiftedMap
    label: str = "isotopy"

    @property
    def dimension(self) -> int:
        return self.terminal.dimension


def straight_isotopy(vector) -> Isotopy:
    v = np.atleast_1d(np.asarray(vector, dtype=float))

    def lift(t, pts, _v=v):
        return np.asarray(pts, dtype=float) + t * _v

    return Isotopy(lift=lift, terminal=rigid_rotation(v), label="straight")


def shear_isotopy(epsilon: float) -> Isotopy:
    eps = float(epsilon)

    def lift(t, pts, _e=eps):
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        out[..., 0] = pts[..., 0] + t * _e * np.sin(2.0 * np.pi * pts[..., 1])
        return out

    return Isotopy(lift=lift, terminal=sinusoidal_shear(eps), label="shear")


def skew_isotopy(omega: float, poly: TrigPolynomial) -> Isotopy:
    om = float(omega)

    def lift(t, pts, _o=om, _c=poly):
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        out[..., 0] = pts[..., 0] + t * _o
        out[..., 1] = pts[..., 1] + t * _c(pts[..., 0])
        return out

    return Isotopy(lift=lift, terminal=skew_translation(om, poly), label="skewpath")


def arc_of(iso: Isotopy, x, samples: int = 33) -> np.ndarray:
    """Sampled lift of the arc t -> g_t(x), as a (samples, n) array."""
    if samples < 2:
        raise ValidationError("an arc needs at least two samples")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ts = np.linspace(0.0, 1.0, samples)
    return np.stack([iso.lift(float(t), x) for t in ts])


def delta_phi(a: CohomologyClass, path: np.ndarray) -> float:
    """Winding of a lifted path against the class: <a, end - start>.

    Additive under concatenation by construction; only the endpoints of the
    lift matter."""
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValidationError("path must be a (samples, n) array with samples >= 2")
    if pts.shape[1] != a.dimension:
        raise ValidationError("path dimension does not match the class")
    return float(np.dot(a.vector, pts[-1] - pts[0]))


def induced_bundle_map(iso: Isotopy) -> BundleAutomorphism:
    """Time-1 bundle automorphism with the isotopy-normalized fiber shift 0."""
    return BundleAutomorphism(iso.terminal, 0, label=f"lifted({iso.label})")


def homological_translation(
    a: CohomologyClass,
    iso: Isotopy,
    x,
    *,
    tolerance: float = 1e-6,
    max_iterations: int = 10**5,
    return_tolerance: float = DEFAULT_RETURN_TOLERANCE,
    scan_horizon: int = DEFAULT_SCAN_HORIZON,
) -> ConvergenceReport:
    """Average winding (1/n) sum delta_phi(arc at g^i x) as n grows.

    Runs the same window-doubling driver as the local translation number,
    but every step is evaluated through the isotopy's time-1 lift, so the
    agreement between the two is a genuine two-route check."""
    require_preserves_class(a, iso.terminal)
    avec = a.vector

    def step(cur, _iso=iso, _a=avec):
        image = _iso.lift(1.0, cur)
        return image, float(np.dot(_a, image - cur))

    orbit = _PythonOrbit(np.atleast_1d(np.asarray(x, dtype=float)), return_tolerance, step=step)
    return _translation_limit(
        orbit,
        tolerance,
        max_iterations,
        scan_horizon,
        integer_eligible=a.is_integral(),
    )


def mean_homological_translation(
    a: CohomologyClass,
    iso: Isotopy,
    mu: InvariantMeasure,
    quadrature_points: int = 128,
) -> MeanReport:
    """Integral of the single-arc winding x -> delta_phi(arc at x) over mu."""
    require_preserves_class(a, iso.terminal)
    avec = a.vector

    def integrand(pts, _iso=iso, _a=avec):
        pts = np.asarray(pts, dtype=float)
        return (_iso.lift(1.0, pts) - pts) @ _a

    value, err = _measure_mean(
        integrand, mu, a.dimension, quadrature_points, base_map=iso.terminal
    )
    return MeanReport(value=value, error_bound=err, measure_kind=mu.kind)
