"""Hot numeric kernels: the per-family step, the orbit loop and grid sups.

There is one source for each kernel: a plain scalar function on floats.
When numba is importable (the optional `jit` extra) it is compiled with
numba.njit; otherwise, or with TRANSNUM_NO_NUMBA=1, the same functions run
as ordinary Python, with `params` passed as a tuple of Python floats so no
step touches a numpy scalar. Both ways perform the same floating-point
operations in the same order.

`_step_impl` is the only place a family's formula is written. `np_step` runs
the same code object with numpy's sin and cos, so it maps whole coordinate
arrays (real or complex) at once; `families` builds the numpy evaluators
from it, and complex input gives the complex-step derivative.

`_orbit_chunk_impl` is the only loop that steps one orbit of T^1 or T^2.
`orbit_chunk` runs it with the family step, compiled when numba is there;
`lift_chunk` runs the same code object, always interpreted, with a step
that calls any lift's numpy evaluator on the (n,) point: composed maps,
inverses and the time-1 maps of isotopies. The loop's orbit has returned
at the first step whose reduced point is within the return tolerance of its
start in the torus sup metric, where a coordinate distance d counts as
min(d, 1 - d); it tests x0 first and x1 only when x0 is back. A NaN
coordinate fails every comparison, so it is never a return.

Built-in map families of dimension 1 and 2 are encoded as (code, params)
pairs so the kernels stay monomorphic:

  code 0  rigid translation        params = v (n)
  code 1  integer affine           params = M row-major (n*n), then v (n)
  code 2  circle + sine nudge      params = (omega, k)
  code 3  sine shear of T^2        params = (eps,)
  code 4  skew translation of T^2  params = (omega, d, c0, a1, b1, ..., ad, bd)

For code 4 the second coordinate advances by the trigonometric polynomial
c(x) = c0 + sum_k (a_k cos 2*pi*k*x + b_k sin 2*pi*k*x). Points and class
vectors travel as pairs (x0, x1); on the circle the second entry is 0.0,
which adds exact zeros only.
"""

from __future__ import annotations

import math
import os
import types
from math import cos, exp, sin

import numpy as np

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via env flag instead
    numba = None
    _HAVE_NUMBA = False

JIT_ENABLED = _HAVE_NUMBA and os.environ.get("TRANSNUM_NO_NUMBA", "") not in (
    "1",
    "true",
    "yes",
)


def _maybe_jit(fn):
    if JIT_ENABLED:
        return numba.njit(cache=True)(fn)
    return fn


RIGID = 0
AFFINE = 1
CIRCLE_SINE = 2
SINE_SHEAR = 3
SKEW = 4

TWO_PI = 2.0 * math.pi


def _step_impl(code, params, x0, x1):
    """Lifted image (y0, y1) of the cover point (x0, x1)."""
    if code == SKEW:
        c = params[2]
        k = 1
        while k <= params[1]:  # a while loop is the cheaper one interpreted
            ang = TWO_PI * k * x0
            # not +=, which would add into a parameter column in place
            c = c + (params[2 * k + 1] * cos(ang) + params[2 * k + 2] * sin(ang))
            k += 1
        return x0 + params[0], x1 + c
    if code == CIRCLE_SINE:
        return x0 + params[0] + params[1] * sin(TWO_PI * x0) / TWO_PI, x1
    if code == SINE_SHEAR:
        return x0 + params[0] * sin(TWO_PI * x1), x1
    if code == RIGID:
        if len(params) == 1:
            return x0 + params[0], x1
        return x0 + params[0], x1 + params[1]
    if len(params) == 2:
        return 0.0 + params[0] * x0 + params[1], x1
    return (
        0.0 + params[0] * x0 + params[1] * x1 + params[4],
        0.0 + params[2] * x0 + params[3] * x1 + params[5],
    )


def _orbit_chunk_impl(code, params, avec, shift, point, home, start, count, s, first_return, s_return, return_tol):
    """Advance the reduced base point `count` steps, accumulating displacement.

    The increment per step is <a, g(x)-x> + shift, added to the running sum
    s. The first global step index (1-based) whose point lies within
    return_tol of `home` in the torus sup metric is kept as first_return
    (-1 while there is none), and s at that step as s_return: coordinate j
    is back when its distance d_j = |x_j - home_j| has d_j <= return_tol or
    d_j > 1/2 and 1 - d_j <= return_tol, tested for x1 only once x0 is
    back. For finite points and return_tol >= 0 this is max_j min(d_j,
    1 - d_j) <= return_tol, with the same float operations; a NaN
    coordinate is never a return. The chunk's
    steps also form one block of the weighted Birkhoff average: step i
    weighs `block_weight(i, count)`, and `block` is sum w inc / sum w over
    the chunk (nan for an empty one). Returns (point, s, first_return,
    s_return, block); no per-step values are kept.
    """
    a0, a1 = avec
    x0, x1 = point
    h0, h1 = home
    ws = 0.0
    wsum = 0.0
    for i in range(count):
        y0, y1 = _step(code, params, x0, x1)
        inc = shift + a0 * (y0 - x0) + a1 * (y1 - x1)
        s += inc
        t = (i + 0.5) / count  # block_weight(i, count), inlined
        w = exp(-1.0 / (t * (1.0 - t)))
        ws += w * inc
        wsum += w
        x0 = y0 % 1.0
        if x0 >= 1.0:  # -tiny % 1.0 rounds to 1.0
            x0 = 0.0
        x1 = y1 % 1.0
        if x1 >= 1.0:
            x1 = 0.0
        if first_return < 0:
            d0 = abs(x0 - h0)
            if d0 <= return_tol or (d0 > 0.5 and 1.0 - d0 <= return_tol):
                d1 = abs(x1 - h1)
                if d1 <= return_tol or (d1 > 0.5 and 1.0 - d1 <= return_tol):
                    first_return = start + i + 1
                    s_return = s
    block = ws / wsum if count > 0 else math.nan
    return (x0, x1), s, first_return, s_return, block


def block_weight(i, count):
    """The weight of step i (0-based) of a block of `count` steps in the
    weighted Birkhoff average of Das and Yorke: w(t) = exp(-1/(t(1-t))) at
    the midpoint t = (i + 1/2)/count. The weighted average sum w f / sum w
    of a smooth f along a quasi-periodic orbit converges faster than any
    power of 1/count, where the plain average converges like 1/count."""
    t = (i + 0.5) / count
    return exp(-1.0 / (t * (1.0 - t)))


def _grid_sup_abs_rho_impl(code, params, avec, shift, m, n):
    """max |<a, g(x)-x> + shift| over the corner grid (i_1/m, ..., i_n/m)."""
    a0, a1 = avec
    best = 0.0
    for flat in range(m**n):
        x0 = (flat % m) / m
        x1 = ((flat // m) % m) / m if n == 2 else 0.0
        y0, y1 = _step(code, params, x0, x1)
        acc = shift + a0 * (y0 - x0) + a1 * (y1 - x1)
        if acc < 0.0:
            acc = -acc
        if acc > best:
            best = acc
    return best


def _lift_step(evaluator, dimension, x0, x1):
    """The step of any lift in `_step`'s form: `evaluator` maps the (n,)
    point (x0,) or (x0, x1); on the circle the second entry stays x1 = 0.0."""
    if dimension == 1:
        return np.asarray(evaluator(np.array((x0,)))).item(), x1
    y0, y1 = np.asarray(evaluator(np.array((x0, x1)))).tolist()
    return y0, y1


_step = _maybe_jit(_step_impl)
# the step on coordinate arrays: same code, numpy's elementwise sin and cos
np_step = types.FunctionType(_step_impl.__code__, {**globals(), "sin": np.sin, "cos": np.cos}, "np_step")
_orbit_chunk = _maybe_jit(_orbit_chunk_impl)
# the orbit loop of any lift on T^1 or T^2: the same code, interpreted, whose
# step calls the lift's evaluator; `code` is the evaluator, `params` the dimension
lift_chunk = types.FunctionType(_orbit_chunk_impl.__code__, {**globals(), "_step": _lift_step}, "lift_chunk")
_grid_sup_abs_rho = _maybe_jit(_grid_sup_abs_rho_impl)


def pair(values) -> tuple:
    """The first two entries of a length-1 or length-2 vector as floats,
    padded with 0.0."""
    return float(values[0]), float(values[1]) if len(values) > 1 else 0.0


def _params(params):
    if JIT_ENABLED:
        return np.asarray(params, dtype=float)
    return tuple(float(p) for p in params)


def orbit_chunk(code, params, avec, shift, point, home, start, count, s, first_return, s_return, return_tol):
    return _orbit_chunk(
        code, _params(params), avec, shift, point, home, start, count, s, first_return, s_return, return_tol
    )


def grid_sup_abs_rho(code, params, avec, shift, m, n):
    return _grid_sup_abs_rho(code, _params(params), pair(avec), shift, m, n)


def warmup():
    """Compile the kernels on a tiny input (no-op on the interpreted path)."""
    orbit_chunk(RIGID, (0.5,), (1.0, 0.0), 0.0, (0.0, 0.0), (0.0, 0.0), 0, 2, 0.0, -1, math.nan, 1e-10)
    grid_sup_abs_rho(RIGID, (0.5,), (1.0,), 0.0, 4, 1)
