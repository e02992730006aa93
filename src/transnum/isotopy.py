"""Homological translation vectors from isotopies of the identity.

An isotopy here is a family g_t of torus maps with g_0 = id, presented by
its lifts on cover coordinates: each built-in isotopy is its own map family
with the parameters scaled by t (rigid, sine shear, skew translation), so
no formula is written here, and every time slice is equivariant with
matrix I. The pairing of the class a with the arc an orbit point
sweeps under one pass of the isotopy is

    delta_phi(arc) = <a, g_1(x~) - x~>,

the winding of the arc against a. Concatenating the arcs at x, g(x),
g^2(x), ... (g the terminal map) and averaging gives the homological
translation number at x; it agrees with the local translation number of
the induced bundle automorphism whose fiber shift is normalized to 0 (the
lift that follows the isotopy upstairs starting from the identity), which
`endpoint_translation` reads from that map's orbit, also where a closed
form would serve it. Its mean over a measure is that map's mean
translation number, always read through the one measure walk
`dynamics._measure_rows`, also where the time-1 map's mean could be read
from its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import (
    BundleAutomorphism,
    ConvergenceReport,
    InvariantMeasure,
    MAX_ITERATIONS,
    MeanReport,
    QUADRATURE_POINTS,
    WINDOW_TOLERANCE,
    _PythonOrbit,
    _cover_of,
    _orbit_limit,
    _translation_limits,
    _walked_mean,
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
    "endpoint_translation",
    "mean_homological_translation",
]


@dataclass(frozen=True)
class Isotopy:
    """The path t -> at(t) of lifts, with at(0) = id; `terminal` = at(1)."""

    at: Callable[[float], LiftedMap]
    label: str = "isotopy"
    terminal: LiftedMap = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "terminal", self.at(1.0))

    @property
    def dimension(self) -> int:
        return self.terminal.dimension


def straight_isotopy(vector) -> Isotopy:
    """At time t, the rigid rotation by t v."""
    v = np.atleast_1d(np.asarray(vector, dtype=float))
    return Isotopy(at=lambda t, _v=v: rigid_rotation(t * _v), label="straight")


def shear_isotopy(epsilon: float) -> Isotopy:
    """At time t, the sine shear with t eps."""
    eps = float(epsilon)
    return Isotopy(at=lambda t, _e=eps: sinusoidal_shear(t * _e), label="shear")


def skew_isotopy(omega: float, poly: TrigPolynomial) -> Isotopy:
    """At time t, the skew translation with t omega and t c."""
    om = float(omega)
    return Isotopy(
        at=lambda t, _o=om, _c=poly: skew_translation(t * _o, _c.scaled(t)), label="skewpath"
    )


def arc_of(iso: Isotopy, x, samples: int = 33) -> np.ndarray:
    """Sampled lift of the arc t -> g_t(x), as a (samples, n) array."""
    if samples < 2:
        raise ValidationError("an arc needs at least two samples")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ts = np.linspace(0.0, 1.0, samples)
    return np.stack([iso.at(float(t))(x) for t in ts])


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
    tolerance: float = WINDOW_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> ConvergenceReport:
    """Average winding (1/n) sum delta_phi(arc at g^i x) as n grows.

    Runs the same window-doubling driver and, on T^1 and T^2, the same
    orbit loop as the local translation number, but steps the time-1 map
    with its numpy evaluator (`_kernels.lift_chunk`), while the endpoint
    route (`endpoint_translation`) steps it with the kernel's family step:
    the agreement between the two is a check of one evaluation of the map
    against the other. Neither reads a closed form, also where the time-1
    map has one: both report the orbit's window."""
    require_preserves_class(a, iso.terminal)
    x = _cover_of(x, a.dimension)
    orbit = _PythonOrbit(x, evaluator=iso.terminal.evaluator, avec=a.entries)
    (report,) = _translation_limits(orbit, a, tolerance, max_iterations)
    return report


def endpoint_translation(
    a: CohomologyClass,
    iso: Isotopy,
    x,
    *,
    tolerance: Optional[float] = None,
    max_iterations: int = MAX_ITERATIONS,
) -> ConvergenceReport:
    """The local translation number of the induced bundle map at x, always
    by its orbit (`dynamics._orbit_limit`), with the default tolerance of
    `local_translation_number`: the endpoint route that
    `homological_translation` is checked against."""
    return _orbit_limit(a, induced_bundle_map(iso), x, tolerance, max_iterations)


def mean_homological_translation(
    a: CohomologyClass,
    iso: Isotopy,
    mu: InvariantMeasure,
    quadrature_points: int = QUADRATURE_POINTS,
) -> MeanReport:
    """Integral of the single-arc winding x -> delta_phi(arc at x) over mu.

    The winding is rho of the induced bundle map, whose fiber shift is 0, so
    this is the walked mean of `mean_translation_number` (`_walked_mean`):
    the winding summed over mu's points (`dynamics._measure_rows`), value
    and bound, without the invariance check. It reads the grid whatever the
    time-1 map, so on Lebesgue measure it stays a computation apart from
    the coefficient mean of the endpoint map."""
    return _walked_mean(a, induced_bundle_map(iso), mu, quadrature_points, check_invariance=False)
