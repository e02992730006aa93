"""The weighted Birkhoff block average against the plain average.

At a checkpoint n the window rule reads the weighted average of the block
of steps since the previous checkpoint, w(t) = exp(-1/(t(1-t))); the plain
average rho_x(g^n)/n is kept beside it. On quasi-periodic orbits the first
converges faster than any power of 1/n and the second like 1/n.

The comparison is asymptotic. A block of n/2 steps is short of the scale
set by the orbit's small divisors until n is large enough: at 256 steps a
degree-3 skew map whose 3 omega lies within 0.015 of 1 still has a block
error of 3e-2 against 5e-3 for the plain average. The corpus is compared at
the checkpoints 4096 and 16384, around the step caps of the benchmark's
orbit jobs."""

import math

import numpy as np
import pytest

from transnum import (
    BundleAutomorphism,
    CohomologyClass,
    TrigPolynomial,
    VERDICT_CONVERGED,
    arnold_circle,
    skew_translation,
)
from transnum import dynamics

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CHECKPOINTS = (4096, 16384)
REFERENCE_STEPS = 2**18


def estimates(a, g, x, last):
    """{n: (block average, plain average)} at the doubling checkpoints up
    to `last`, run as the window rule runs them: one block per checkpoint."""
    orbit = dynamics._make_orbit(a, g, x)
    out, n = {}, 1
    while n <= last:
        orbit.run_to(n)
        out[n] = (orbit.block, orbit.s / n)
        n *= 2
    return out


def skew_corpus(count=12, seed=18):
    """(class, map, start, closed-form limit) of irrational skew maps of
    degree 1 to 3: the limit is a_x omega + a_y c0 + shift."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        degree = 1 + i % 3
        omega = float(rng.uniform(0.2, 0.8))
        c0 = float(rng.uniform(-0.5, 0.5))
        cos_c, sin_c = (tuple(float(v) for v in rng.uniform(-0.1, 0.1, degree)) for _ in range(2))
        a = CohomologyClass([int(rng.choice([-2, -1, 1, 2])), int(rng.choice([-2, -1, 1, 2]))])
        shift = int(rng.integers(-1, 2))
        g = BundleAutomorphism(skew_translation(omega, TrigPolynomial(c0, cos_c, sin_c)), shift)
        truth = a.entries[0] * omega + a.entries[1] * c0 + shift
        cases.append((a, g, rng.uniform(0.0, 1.0, 2), truth))
    return cases


def arnold_corpus(count=6, seed=18):
    """(map, start) of Arnold maps with k in [0.5, 0.95] that the tongue
    test does not prove locked."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        omega, k = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 0.95))
        if dynamics._grid_locks(np.array([omega]), np.array([k]))[0] is None:
            cases.append((BundleAutomorphism(arnold_circle(omega, k)), rng.uniform(0.0, 1.0, 1)))
    return cases


@pytest.mark.parametrize("case", range(12))
def test_block_average_beats_the_plain_average_on_skew_maps(case):
    a, g, x, truth = skew_corpus()[case]
    for n, (block, plain) in estimates(a, g, x, CHECKPOINTS[-1]).items():
        if n in CHECKPOINTS:
            assert abs(block - truth) <= abs(plain - truth), n
    assert abs(block - truth) <= 1e-13


@pytest.mark.parametrize("case", range(6))
def test_block_average_beats_the_plain_average_on_unlocked_arnold_maps(case):
    g, x = arnold_corpus()[case]
    a = CohomologyClass([1])
    reference = estimates(a, g, x, REFERENCE_STEPS)
    limit = reference[REFERENCE_STEPS][0]
    for n in CHECKPOINTS:
        block, plain = reference[n]
        assert abs(block - limit) <= abs(plain - limit), n


def test_the_golden_skew_settles_at_a_tight_tolerance_well_before_the_cap():
    g = BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(0.3, (0.05,), (0.1,))))
    a, x = CohomologyClass([0, 1]), [0.2, 0.7]
    # the orbit route: local_translation_number reads this map's limit from its coefficients
    rep = dynamics._orbit_limit(a, g, x, 1e-12, 4096)
    assert rep.verdict == VERDICT_CONVERGED and rep.iterations <= 1024
    assert abs(rep.value - 0.3) <= 1e-15
    # the plain route is the independent one, still off by about C/n
    assert abs(rep.plain_average - 0.3) > 1e-6
