"""Seeded job decks for the three workloads, each job with its own truth.

A job is a plain dict so it can travel to the worker process as JSON:

    id       position in the deck
    kind     category label (command/family), used in the per-kind table
    argv     arguments for transnum.cli.main; "{config}" marks the INI path
    config   INI text written before the timed loop (None for none)
    expect   exit codes that are acceptable for this job
    check    what checks.py compares the output against

Truths are computed here, from the generated parameters, with plain Python,
exact fractions and (for dense samples) numpy. Nothing in this module
imports the package under test.

`deck(workload, seed, pass_index)` gives every pass the same slots (the
command, family and sizes that set a job's cost, in the same order) with
values drawn afresh from (seed, pass_index), so no execution repeats an
earlier input and a cache keyed on inputs cannot serve a later pass.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Exit codes of the command line: 0 ok, 3 did not converge, 4 refused.
EXIT_OK, EXIT_NOT_CONVERGED, EXIT_REFUSED = 0, 3, 4


def _f(x: float) -> str:
    return repr(float(x))


def _ints(values) -> str:
    return " ".join(str(int(v)) for v in values)


def _floats(values) -> str:
    return " ".join(_f(v) for v in values)


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _job(kind, argv, config, expect, check):
    return {"kind": kind, "argv": argv, "config": config, "expect": expect, "check": check}


# --------------------------------------------------------------------------
# map families: INI section text, displacement, closed forms


class Family:
    """One built-in map with parameters drawn from the seed.

    rho(x) is <a, g(x) - x> + shift with the benchmark's own evaluator (x
    may be a list of coordinate arrays, as in dense_sup);
    rot_truth is the closed-form translation number at the start point
    (None for Arnold maps, which have no closed form); sup_truth is the
    closed-form sup |rho| over the torus; mean is the Lebesgue mean of rho
    (None where Lebesgue measure is not invariant). `ergodic` is a constant C
    with |rho_x(g^n)/n - rot| <= C/n for every n: 0 where rho is constant
    along orbits, and the trigonometric Birkhoff-sum bound for skew maps."""

    def __init__(self, name, params, section, rho, rot_truth, sup_truth, dim, mean=None, ergodic=0.0):
        self.name = name
        self.mean = mean
        self.ergodic = ergodic
        self.params = params
        self.section = section
        self.rho = rho
        self.rot_truth = rot_truth
        self.sup_truth = sup_truth
        self.dim = dim


def rigid(rng, a, shift, dim):
    v = [rng.uniform(0.0, 1.0) for _ in range(dim)]
    value = math.fsum(ai * vi for ai, vi in zip(a, v)) + shift
    return Family(
        "rigid", v, f"family = rigid\nvector = {_floats(v)}\nshift = {shift}\n",
        lambda x: value, lambda x0: value, abs(value), dim, mean=value,
    )


def affine(rng, a, shift):
    """x -> M x + v on T^2 with M = [[1, 0], [m, 1]]; needs a = (a1, 0)."""
    m = rng.choice([-2, -1, 1, 2])
    v = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
    value = a[0] * v[0] + shift
    section = f"family = affine\nmatrix = 1 0 ; {m} 1\nvector = {_floats(v)}\nshift = {shift}\n"
    return Family(
        "affine", (m, v), section, lambda x: value, lambda x0: value, abs(value), 2, mean=value
    )


def sinshear(rng, a, shift):
    eps = rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])

    def rho(x, _e=eps):
        return a[0] * _e * np.sin(TWO_PI * x[1]) + shift

    return Family(
        "sinshear", eps, f"family = sinshear\nepsilon = {_f(eps)}\nshift = {shift}\n",
        rho, rho, abs(shift) + abs(a[0] * eps), 2, mean=float(shift),
    )


def skew(rng, a, shift):
    """(x, y) -> (x + omega, y + c0 + a1 cos 2 pi x + b1 sin 2 pi x)."""
    omega = rng.uniform(0.2, 0.8)
    c0 = rng.uniform(-0.5, 0.5)
    ca, cb = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)

    def rho(x):
        c = c0 + ca * np.cos(TWO_PI * x[0]) + cb * np.sin(TWO_PI * x[0])
        return a[0] * omega + a[1] * c + shift

    mean = a[0] * omega + a[1] * c0 + shift
    section = f"family = skew\nomega = {_f(omega)}\ncoeffs = {_floats([c0, ca, cb])}\nshift = {shift}\n"
    # |sum_{j<n} cos(t + 2 pi j omega)| <= 1 / |sin(pi omega)|
    ergodic = abs(a[1]) * math.hypot(ca, cb) / abs(math.sin(math.pi * omega))
    return Family(
        "skew", (omega, c0, ca, cb), section, rho, lambda x0: mean,
        abs(mean) + abs(a[1]) * math.hypot(ca, cb), 2, mean=mean, ergodic=ergodic,
    )


def arnold(rng, shift, locked):
    """Circle map x + omega + k sin(2 pi x) / 2 pi with k in [0.5, 0.95].

    locked=True puts omega inside the 0/1 tongue (|omega| < k / 2 pi), where
    the orbit is attracted to a fixed point. `fam.start` is then a point on
    the wider arc between the repelling and the attracting fixed point, 80%
    of the way out: the orbit travels at least 0.4 before it settles, so the
    window gap S/n - S/(n/2) stays above 1e-6 up to n = 10^5 and the window
    rule runs to max_iterations whatever the draw."""
    k = rng.uniform(0.5, 0.95)
    start = rng.uniform(0.0, 1.0)
    if locked:
        omega = rng.uniform(0.2, 0.8) * k / TWO_PI * rng.choice([-1.0, 1.0])
        s = math.asin(-TWO_PI * omega / k)
        attract = (math.pi - s) / TWO_PI
        below = (math.pi - 2.0 * s) / TWO_PI  # arc from the repeller up to it
        offset = -0.8 * below if below >= 0.5 else 0.8 * (1.0 - below)
        start = (attract + offset) % 1.0
    else:
        omega = rng.uniform(0.2, 0.8)

    def rho(x):
        return omega + k * np.sin(TWO_PI * x[0]) / TWO_PI + shift

    sup = max(abs(omega + shift + k / TWO_PI), abs(omega + shift - k / TWO_PI))
    fam = Family(
        "arnold", (omega, k), f"family = arnold\nomega = {_f(omega)}\nk = {_f(k)}\nshift = {shift}\n",
        rho, lambda x0: None, sup, 1,
    )
    fam.range = (omega + shift - k / TWO_PI, omega + shift + k / TWO_PI)
    fam.start = start
    return fam


def two_d_family(rng, a, shift, name):
    if name == "rigid":
        return rigid(rng, a, shift, 2)
    if name == "affine":
        return affine(rng, a, shift)
    if name == "sinshear":
        return sinshear(rng, a, shift)
    return skew(rng, a, shift)


def _class_2d(rng, name):
    """Integer class on T^2 that the family preserves (affine needs a2 = 0)."""
    a1 = rng.choice([-2, -1, 1, 2])
    a2 = 0 if name == "affine" else rng.choice([-2, -1, 1, 2])
    return (a1, a2)


def _class_section(a) -> str:
    return f"[class]\nkind = integer\nentries = {_ints(a)}\n"


def dense_sup(fam: Family, samples: int = 1 << 14) -> float:
    """sup |rho| over a dense low-discrepancy sample of the torus."""
    i = np.arange(samples, dtype=float)
    x = [((i + 0.5) / samples + j * GOLDEN * i) % 1.0 for j in range(fam.dim)]
    return float(np.max(np.abs(fam.rho(x))))


# --------------------------------------------------------------------------
# orbit-sweep


def _rot_local(name, fam, a, x0, steps=None):
    """rot-local at the default stopping rule, or, given `steps`, for exactly
    that many steps: no window gap meets a tolerance of 1e-12 that early, so
    the job's cost does not depend on the draw."""
    cfg = _class_section(a) + "[map]\n" + fam.section + f"[point]\nx = {_floats(x0)}\n"
    argv = ["rot-local", "--config", "{config}", "--format", "record"]
    if steps is not None:
        argv += ["--max-iterations", str(steps), "--tolerance", "1e-12"]
    if name == "arnold":
        return _job(
            "rot-local/arnold", argv, cfg, [EXIT_OK, EXIT_NOT_CONVERGED],
            {"type": "rot", "truth": None, "range": list(fam.range)},
        )
    return _job(
        f"rot-local/{name}", argv, cfg, [EXIT_OK, EXIT_NOT_CONVERGED],
        {"type": "rot", "truth": fam.rot_truth(x0), "ergodic": fam.ergodic},
    )


def _rigid_rational(rng):
    dim = rng.choice([1, 2])
    q = rng.randint(2, 12)
    p = [rng.randint(1, q - 1) for _ in range(dim)]
    a = [rng.choice([-2, -1, 1, 2]) for _ in range(dim)]
    shift = rng.randint(-2, 2)
    x0 = [rng.uniform(0.0, 1.0) for _ in range(dim)]
    truth = Fraction(sum(ai * pi for ai, pi in zip(a, p)), q) + shift
    vector = " ".join(f"{pi}/{q}" for pi in p)
    cfg = (
        _class_section(a)
        + f"[map]\nfamily = rigid\nvector = {vector}\nshift = {shift}\n"
        + f"[point]\nx = {_floats(x0)}\n"
    )
    return _job(
        "rot-local/rigid-rational", ["rot-local", "--config", "{config}", "--format", "record"],
        cfg, [EXIT_OK], {"type": "rot", "truth": float(truth), "exact": _frac_text(truth)},
    )


def _homovec(rng, kind):
    """rot-homovec: isotopy winding vs the endpoint map, generic step path."""
    if kind == "straight":
        a = [rng.choice([-2, -1, 1, 2]) for _ in range(2)]
        v = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
        section = f"kind = straight\nvector = {_floats(v)}\n"
        truth = math.fsum(ai * vi for ai, vi in zip(a, v))
        x0 = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
        ergodic = 0.0
    elif kind == "shear":
        a = [rng.choice([-2, -1, 1, 2]), rng.choice([-1, 1])]
        eps = rng.uniform(0.05, 0.3)
        section = f"kind = shear\nepsilon = {_f(eps)}\n"
        x0 = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
        truth = a[0] * eps * math.sin(TWO_PI * x0[1])
        ergodic = 0.0
    else:
        a = [rng.choice([-2, -1, 1, 2]), rng.choice([-1, 1])]
        fam = skew(rng, a, 0)
        omega, c0, ca, cb = fam.params
        section = f"kind = skew\nomega = {_f(omega)}\ncoeffs = {_floats([c0, ca, cb])}\n"
        x0 = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
        truth = fam.rot_truth(x0)
        ergodic = fam.ergodic
    cfg = _class_section(a) + "[isotopy]\n" + section + f"[point]\nx = {_floats(x0)}\n"
    argv = ["rot-homovec", "--config", "{config}", "--format", "record", "--max-iterations", "1024"]
    return _job(
        f"rot-homovec/{kind}", argv,
        cfg, [EXIT_OK, EXIT_NOT_CONVERGED], {"type": "homovec", "truth": truth, "ergodic": ergodic},
    )


def _sweep(rng, rows):
    """rot-local over `rows` rigid circle rotations, rendered as CSV."""
    a = rng.choice([-2, -1, 1, 2])
    shift = rng.randint(-1, 1)
    lo = rng.uniform(0.0, 0.1)
    hi = rng.uniform(0.9, 1.0)
    cfg = (
        _class_section([a])
        + f"[map]\nfamily = rigid\nvector = 0.5\nshift = {shift}\n"
        + f"[point]\nx = {_f(rng.uniform(0.0, 1.0))}\n"
        + f"[sweep]\ncommand = rot-local\nparameter = map.vector\nvalues = linspace:{_f(lo)}:{_f(hi)}:{rows}\n"
    )
    return _job(
        "sweep/rot-local-csv", ["sweep", "--config", "{config}", "--format", "csv"], cfg, [EXIT_OK],
        {"type": "sweep", "a": a, "shift": shift, "lo": lo, "hi": hi, "rows": rows},
    )


def orbit_sweep(rng: random.Random) -> list:
    """Orbit-engine jobs. Locked Arnold maps run exactly 2^14 steps; skew
    and unlocked Arnold maps, whose stopping step would depend on the draw,
    run exactly 2^12, so every slot's cost, and the slot that job_tail_ms
    falls on, stays the same from pass to pass and seed to seed. No slot
    runs much longer than the sweep, so a 30 s run gives each slot dozens of
    runs to take the median of."""
    jobs = []
    for name in ("rigid", "affine", "sinshear", "skew"):
        for _ in range(6 if name == "skew" else 5):
            a = _class_2d(rng, name)
            fam = two_d_family(rng, a, rng.randint(-1, 1), name)
            x0 = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
            cap = 1 << 12 if name == "skew" else None
            jobs.append(_rot_local(name, fam, a, x0, cap))
    for i in range(8):
        locked = i < 5
        fam = arnold(rng, rng.randint(-1, 1), locked)
        steps = 1 << 14 if locked else 1 << 12
        jobs.append(_rot_local("arnold", fam, (1,), [fam.start], steps))
    jobs += [_rigid_rational(rng) for _ in range(10)]
    jobs += [_homovec(rng, kind) for kind in ("straight", "shear", "skew", "skew")]
    jobs.append(_sweep(rng, 200))
    return jobs


# --------------------------------------------------------------------------
# quadrature-checks


def _measure_preserving(rng, name):
    a = _class_2d(rng, name)
    return a, two_d_family(rng, a, rng.randint(-1, 1), name)


def _rot_mean_lebesgue(rng, grid, name):
    a, fam = _measure_preserving(rng, name)
    cfg = _class_section(a) + "[map]\n" + fam.section + "[measure]\nkind = lebesgue\n"
    return _job(
        f"rot-mean/lebesgue-{grid}",
        ["rot-mean", "--config", "{config}", "--format", "record", "--grid", str(grid)],
        cfg, [EXIT_OK], {"type": "mean", "truth": fam.mean},
    )


def _rot_mean_orbit(rng):
    """Orbit measure of a q-periodic rigid rotation: the exact cycle average."""
    q = rng.randint(3, 40)
    p = [rng.randint(1, q - 1), rng.randint(1, q - 1)]
    a = [rng.choice([-2, -1, 1, 2]) for _ in range(2)]
    shift = rng.randint(-1, 1)
    truth = Fraction(a[0] * p[0] + a[1] * p[1], q) + shift
    start = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
    cfg = (
        _class_section(a)
        + f"[map]\nfamily = rigid\nvector = {p[0]}/{q} {p[1]}/{q}\nshift = {shift}\n"
        + f"[measure]\nkind = dirac-orbit\npoint = {_floats(start)}\nperiod = {q}\n"
    )
    return _job(
        "rot-mean/orbit", ["rot-mean", "--config", "{config}", "--format", "record"],
        cfg, [EXIT_OK], {"type": "mean", "truth": float(truth)},
    )


def _rot_mean_empirical(rng, name, n):
    """Weighted sample cloud: the mean is the weighted sum of rho."""
    a = _class_2d(rng, name)
    fam = two_d_family(rng, a, rng.randint(-1, 1), name)
    pts = [[rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)] for _ in range(n)]
    raw = [rng.randint(1, 9) for _ in range(n)]
    weights = [Fraction(r, sum(raw)) for r in raw]
    truth = math.fsum(float(w) * fam.rho(p) for w, p in zip(weights, pts))
    samples = " ; ".join(_floats(p) for p in pts)
    cfg = (
        _class_section(a) + "[map]\n" + fam.section
        + f"[measure]\nkind = empirical\nsamples = {samples}\nweights = {_floats(float(w) for w in weights)}\n"
    )
    return _job(
        "rot-mean/empirical", ["rot-mean", "--config", "{config}", "--format", "record"],
        cfg, [EXIT_OK], {"type": "mean", "truth": truth},
    )


def _gk_eval(rng, name_g, name_h, segments):
    """G(g, h) at a point: closed form and quadrature against our own G."""
    a = (rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2]))
    g = two_d_family(rng, a, 0, name_g)
    h = two_d_family(rng, a, 0, name_h)
    x = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
    # G_x(g, h) = rho_g(h x) - rho_g(x) with rho the shift-free displacement
    hx = [x[0] + _disp(h, x, 0), x[1] + _disp(h, x, 1)]
    truth = g.rho(hx) - g.rho(x)
    cfg = (
        _class_section(a) + "[map]\n" + g.section + "[map.h]\n" + h.section
        + f"[point]\nx = {_floats(x)}\n"
    )
    return _job(
        "gk-eval", ["gk-eval", "--config", "{config}", "--format", "record", "--grid", str(segments)],
        cfg, [EXIT_OK], {"type": "gk-eval", "truth": truth},
    )


def _disp(fam: Family, x, axis):
    """Coordinate `axis` of g(x) - x for the 2-D families used by gk-eval."""
    if fam.name == "rigid":
        return fam.params[axis]
    if fam.name == "sinshear":
        return fam.params * math.sin(TWO_PI * x[1]) if axis == 0 else 0.0
    omega, c0, ca, cb = fam.params
    if axis == 0:
        return omega
    return c0 + ca * math.cos(TWO_PI * x[0]) + cb * math.sin(TWO_PI * x[0])


def _gk_check(rng, count, dims):
    cfg = f"[check]\ncount = {count}\ndimensions = {dims}\n"
    return _job(
        "gk-check",
        ["gk-check", "--config", "{config}", "--format", "record", "--seed", str(rng.randint(0, 10**6))],
        cfg, [EXIT_OK], {"type": "gk-check", "count": count, "limit": 1e-12},
    )


def _split_check(rng, names, pairs):
    a = (rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2]))
    sections = ""
    for label, name in zip(("u", "v"), names):
        sections += f"[map.{label}]\n" + two_d_family(rng, a, rng.randint(-1, 1), name).section
    cfg = (
        _class_section(a) + sections
        + f"[generators]\nmaps = u v\n[measure]\nkind = lebesgue\n[check]\ncount = {pairs}\n"
    )
    return _job(
        "split-check", ["split-check", "--config", "{config}", "--format", "record", "--seed", str(rng.randint(0, 999))],
        cfg, [EXIT_OK], {"type": "split", "limit": 1e-6, "pairs": pairs},
    )


def _seminorm(rng, grid, name):
    """Certified seminorm; grids above 1024 are used on the circle only, where
    2048^1 corners are cheap, so peak memory stays that of a 1024^2 grid."""
    if name == "arnold":
        a, fam = (1,), arnold(rng, rng.randint(-1, 1), locked=rng.random() < 0.5)
    elif name == "rigid-circle":
        a = (rng.choice([-2, -1, 1, 2]),)
        fam = rigid(rng, a, rng.randint(-1, 1), 1)
    else:
        a, fam = _measure_preserving(rng, name)
    cfg = _class_section(a) + "[map]\n" + fam.section + "[seminorm]\nmode = certified\n"
    return _job(
        f"seminorm/{grid}",
        ["seminorm", "--config", "{config}", "--format", "record", "--grid", str(grid)],
        cfg, [EXIT_OK], {"type": "seminorm", "sup": fam.sup_truth, "dense_sup": dense_sup(fam)},
    )


def _distortion_cert(rng, name, gen_names):
    """Certificate for a rigid or skew map against two generators."""
    a = (rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2]))
    g = two_d_family(rng, a, rng.choice([-1, 1]), name)
    gens = [two_d_family(rng, a, rng.randint(-1, 1), n) for n in gen_names]
    x0 = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
    cfg = (
        _class_section(a) + "[map]\n" + g.section
        + "[map.s]\n" + gens[0].section + "[map.t]\n" + gens[1].section
        + f"[generators]\nmaps = s t\n[point]\nx = {_floats(x0)}\n"
    )
    argv = ["distortion-cert", "--config", "{config}", "--format", "record", "--max-iterations", "4096"]
    return _job(
        "distortion-cert", argv,
        cfg, [EXIT_OK, EXIT_NOT_CONVERGED],
        {
            "type": "cert",
            "truth": g.rot_truth(x0),
            "ergodic": g.ergodic,
            "dense_sup": max(dense_sup(f) for f in gens),
        },
    )


def quadrature_checks(rng: random.Random) -> list:
    """Vectorized means, grids and cocycle checks. Every slot fixes its
    command, family and sizes, which set its cost; the seed draws the
    values. The slow tier is the six 1024^2 grids."""
    fams = ("rigid", "affine", "sinshear", "skew")
    jobs = []
    for grid in (128, 256, 512):
        jobs += [_rot_mean_lebesgue(rng, grid, name) for name in fams[grid == 512:]]
    jobs += [_rot_mean_lebesgue(rng, 1024, name) for name in fams]
    jobs += [_rot_mean_orbit(rng) for _ in range(3)]
    jobs += [_rot_mean_empirical(rng, name, n) for name, n in (("sinshear", 64), ("skew", 128), ("skew", 256))]
    jobs += [
        _gk_eval(rng, g, h, segments)
        for g, h, segments in (
            ("rigid", "skew", 10_000), ("skew", "sinshear", 10_000), ("sinshear", "rigid", 20_000),
            ("skew", "skew", 20_000), ("sinshear", "sinshear", 40_000),
        )
    ]
    jobs += [_gk_check(rng, count, dims) for count, dims in ((20, "1 2"), (30, "2"), (40, "1"))]
    jobs += [_split_check(rng, names, 12) for names in (("rigid", "skew"), ("sinshear", "skew"), ("rigid", "sinshear"))]
    for grid, names in ((256, ("rigid", "skew")), (512, ("affine", "sinshear")), (2048, ("arnold", "rigid-circle"))):
        jobs += [_seminorm(rng, grid, name) for name in names]
    jobs += [_seminorm(rng, 1024, name) for name in ("sinshear", "skew")]
    jobs += [_distortion_cert(rng, g, gens) for g, gens in (("rigid", ("sinshear", "skew")), ("skew", ("rigid", "sinshear")))]
    return jobs


# --------------------------------------------------------------------------
# exact-words: exact affine arithmetic of our own


def _compose(s, t):
    """s after t for (M, v, shift) triples with Fraction entries."""
    ms, vs, cs = s
    mt, vt, ct = t
    n = len(ms)
    m = tuple(tuple(sum(ms[i][k] * mt[k][j] for k in range(n)) for j in range(n)) for i in range(n))
    v = tuple(sum(ms[i][k] * vt[k] for k in range(n)) + vs[i] for i in range(n))
    return (m, v, cs + ct)


def _inverse(s):
    m, v, c = s
    n = len(m)
    if n == 1:
        inv = ((m[0][0],),)
    elif n == 2:
        (p, q), (r, t) = m
        det = p * t - q * r
        inv = ((t * det, -q * det), (-r * det, p * det))
    else:
        inv = _inverse_block3(m)
    vi = tuple(-sum(inv[i][k] * v[k] for k in range(n)) for i in range(n))
    return (inv, vi, -c)


def _inverse_block3(m):
    """Inverse of [[A, 0], [0, 1]] with A in GL2(Z)."""
    a = ((m[0][0], m[0][1]), (m[1][0], m[1][1]))
    (ai, _, _) = _inverse((a, (Fraction(0), Fraction(0)), Fraction(0)))
    return ((ai[0][0], ai[0][1], 0), (ai[1][0], ai[1][1], 0), (0, 0, 1))


def _rot(a, s):
    """Translation number <a, v> + shift: a homomorphism on this group
    because every matrix fixes a."""
    return sum(ai * vi for ai, vi in zip(a, s[1])) + s[2]


def _affine_section(name, s) -> str:
    m, v, c = s
    rows = " ; ".join(_ints(r) for r in m)
    return (
        f"[affine.{name}]\nmatrix = {rows}\ntranslation = {' '.join(_frac_text(t) for t in v)}\n"
        f"shift = {_frac_text(c)}\n"
    )


def _word_set(rng, dim):
    """Generators whose translation numbers lie in [-1, 1], plus the fiber
    translation t = T[1]. The group structure is fixed per dimension (so
    BFS ball sizes, hence job costs, do not drift with the seed); only the
    numerators of the translations are drawn. Dimension 1 and 2 groups grow
    polynomially; dimension 3 carries a hyperbolic SL2(Z) block and grows
    exponentially."""
    q = 7

    def num():
        return Fraction(rng.randint(1, q - 1), q)

    if dim == 1:
        a = (1,)
        gens = [(((1,),), (num(),), Fraction(rng.choice([0, -1])))]
    elif dim == 2:
        # s1^2 s2 has the identity matrix; an integral x-translation there
        # would collapse the group (a ball of 73-129 instead of 287 at radius 4)
        a = (1, 0)
        v1 = (num(), num())
        v2 = (num(), num())
        while (2 * v1[0] + v2[0]).denominator == 1:
            v2 = (num(), num())
        gens = [(((1, 0), (1, 1)), v1, Fraction(0)), (((1, 0), (-2, 1)), v2, Fraction(0))]
    else:
        a = (0, 0, 1)
        m = ((2, 1, 0), (1, 1, 0), (0, 0, 1))
        gens = [(m, (num(), num(), num()), Fraction(rng.choice([0, -1])))]
    n = len(a)
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens.append((eye, (Fraction(0),) * n, Fraction(1)))
    return a, gens


def _word_norm(rng, dim, length, radius, powers):
    a, gens = _word_set(rng, dim)
    names = [f"s{i}" for i in range(len(gens))]
    symmetric = gens + [_inverse(s) for s in gens]
    if length == 0:
        target, wlen = gens[-1], 1  # the fiber translation: |t^n| = n exactly
    else:
        # a reduced word: no letter is followed by its own inverse
        k = len(gens)
        letters = [rng.randrange(2 * k)]
        while len(letters) < length:
            nxt = rng.randrange(2 * k)
            if nxt != (letters[-1] + k) % (2 * k):
                letters.append(nxt)
        target = symmetric[letters[0]]
        for i in letters[1:]:
            target = _compose(symmetric[i], target)
        wlen = length
    max_rot = max(abs(_rot(a, s)) for s in gens)  # >= 1: t is a generator
    rot_w = abs(_rot(a, target))
    cfg = _class_section(a) + "".join(_affine_section(n, s) for n, s in zip(names, gens))
    cfg += _affine_section("w", target)
    cfg += f"[generators]\naffine = {' '.join(names)}\ntarget = w\n"
    if powers:
        cfg += f"powers = {powers}\n"
    return _job(
        f"word-norm/dim{dim}",
        ["word-norm", "--config", "{config}", "--format", "record", "--max-iterations", str(radius)],
        cfg, [EXIT_OK],
        {
            "type": "word-norm", "upper": wlen, "lower": math.ceil(rot_w / max_rot), "radius": radius,
            "fiber_powers": length == 0, "powers": powers,
            # |w^n| >= n |rot(w)| / max |rot(s)|, since rot is a homomorphism
            "power_lower": [math.ceil(n * rot_w / max_rot) for n in range(1, powers + 1)],
        },
    )


def _zero_euler_pairs(rng, mirrored, multiples):
    """Seifert pairs with sum beta/alpha = 0: mirrored pairs (alpha, +-beta)
    and integer pairs (alpha, m alpha) closed off by (1, -sum m)."""
    pairs = []
    for _ in range(mirrored):
        alpha, beta = rng.randint(2, 7), rng.randint(1, 5)
        pairs += [(alpha, beta), (alpha, -beta)]
    if multiples:
        total = 0
        for _ in range(multiples):
            alpha, m = rng.randint(2, 5), rng.choice([-2, -1, 1, 2])
            pairs.append((alpha, m * alpha))
            total += m
        pairs.append((1, -total))
    rng.shuffle(pairs)
    return pairs


def _seifert(rng, zero, mirrored, multiples):
    pairs = _zero_euler_pairs(rng, mirrored, multiples)
    if not zero:
        alpha = rng.randint(2, 7)
        beta = rng.choice([b for b in range(1, alpha) if math.gcd(b, alpha) == 1])
        pairs.insert(rng.randrange(len(pairs) + 1), (alpha, beta))
    genus = rng.randint(0, 3)
    text = " ".join(f"({a},{b})" for a, b in pairs)
    cfg = f"[seifert]\ngenus = {genus}\npairs = {text}\n"
    argv = ["seifert-class", "--config", "{config}", "--format", "record"]
    if not zero:
        return _job("seifert-class/refusal", argv, cfg, [EXIT_REFUSED], {"type": "refusal"})
    h = math.prod(alpha for alpha, _ in pairs)
    # h-positive relations alpha_j q_j + beta_j h = 0 force q_j = -h beta_j / alpha_j
    q = [_frac_text(Fraction(-h * beta, alpha)) for alpha, beta in pairs]
    return _job(
        "seifert-class", argv, cfg, [EXIT_OK],
        {"type": "seifert", "h": h, "q": q, "genus": genus, "pairs": len(pairs)},
    )


def exact_words(rng: random.Random) -> list:
    """Exact Fraction work: BFS word norms and Seifert data. The twelve
    word-norm slots are the slow tiers (dimension 2, then 3, then 1), so the
    slot with ten slots beyond it, where job_tail_ms falls, is a BFS job."""
    jobs = []
    # (dimension, word length, BFS radius, powers); length 0 means the
    # fiber translation itself, whose powers have norm exactly n. Every job
    # asks for powers, so the whole ball is built and its cost is set by the
    # radius, not by where the target happens to lie.
    for dim, length, radius, powers in (
        (1, 0, 10, 8), (1, 4, 8, 2), (1, 5, 8, 2), (1, 3, 8, 2), (1, 4, 8, 2),
        (3, 0, 6, 5), (3, 3, 6, 2), (3, 4, 6, 2),
        (2, 0, 5, 4), (2, 3, 5, 2), (2, 4, 5, 2), (2, 3, 5, 2),
    ):
        jobs.append(_word_norm(rng, dim, length, radius, powers))
    # the number of pairs sets a Seifert job's cost, so it is fixed per slot
    shapes = [(1 + i % 3, i % 3) for i in range(24)]
    jobs += [_seifert(rng, True, mirrored, multiples) for mirrored, multiples in shapes]
    jobs += [_seifert(rng, False, mirrored, multiples) for mirrored, multiples in shapes[:8]]
    return jobs


WORKLOADS = {
    "orbit-sweep": orbit_sweep,
    "quadrature-checks": quadrature_checks,
    "exact-words": exact_words,
}


def deck(workload: str, seed: int, pass_index: int = 0) -> list:
    """Pass `pass_index` of the workload: its slots in an order set by the
    seed alone, numbered, with values drawn from (seed, pass_index)."""
    jobs = WORKLOADS[workload](random.Random(f"{workload}/{seed}/{pass_index}"))
    random.Random(f"order/{workload}/{seed}").shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
