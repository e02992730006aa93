"""Desk-scale acceptance checks for the whole toolkit.

Each test prints exactly one verdict line (run with ``pytest -v -s`` to see
them) and asserts the same condition, so the suite doubles as an acceptance
report and as a hard gate.  Stated runtime budgets are enforced with the
kernels pre-compiled; the ``warm_kernels`` fixture takes care of that.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from transnum import (
    BundleAutomorphism,
    CochainPerturbation,
    CohomologyClass,
    ExactAffineAutomorphism,
    InvariantMeasure,
    NonzeroEulerNumber,
    SeifertData,
    TrigPolynomial,
    VERDICT_EXACT_PERIODIC,
    arnold_circle,
    cli,
    coboundary_residual_suite,
    cocycle_residual_suite,
    construct_h1_class,
    euler_number,
    fiber_translation,
    gal_kedra,
    gal_kedra_quadrature,
    homological_translation,
    induced_bundle_map,
    local_translation_number,
    mean_homological_translation,
    mean_translation_number,
    periodic_rot,
    perturbed_rho_power_average,
    random_zero_euler_data,
    rho_power_average,
    rigid_rotation,
    skew_isotopy,
    skew_translation,
    splitting_check,
    straight_isotopy,
    translation_length_estimate,
    undistortion_certificate,
    verify_homomorphism,
)
from transnum.families import sample_class_entries, sample_fiber_shift, sample_map

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
A1 = CohomologyClass([1])
FIBER_2D = CohomologyClass([0, 1])


def verdict(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def _warm(warm_kernels):
    return warm_kernels


def test_01_coboundary_identity():
    start = time.perf_counter()
    suite = coboundary_residual_suite(seed=2026, count=1000, dimensions=(1, 2))
    elapsed = time.perf_counter() - start
    ok = suite.max_residual <= 1e-12 and elapsed < 5.0
    verdict(
        "coboundary identity over 1000 seeded draws",
        ok,
        f"max residual {suite.max_residual:.3e} <= 1e-12, {elapsed:.2f}s < 5s",
    )


def test_02_cocycle_condition():
    start = time.perf_counter()
    suite = cocycle_residual_suite(seed=2027, count=1000, dimensions=(1, 2))
    elapsed = time.perf_counter() - start
    ok = suite.max_residual <= 1e-12 and elapsed < 5.0
    verdict(
        "two-cocycle condition over 1000 seeded triples",
        ok,
        f"max residual {suite.max_residual:.3e} <= 1e-12, {elapsed:.2f}s < 5s",
    )


def test_03_rotation_recovery():
    start = time.perf_counter()
    problems = []
    for p, q in ((1, 2), (2, 5), (3, 7)):
        rep = local_translation_number(
            A1, BundleAutomorphism(rigid_rotation([p / q]), 0), [0.3]
        )
        if rep.rational != Fraction(p, q) or rep.error_bound != 0.0:
            problems.append(f"{p}/{q} -> {rep.rational}")
    rep = local_translation_number(
        A1, BundleAutomorphism(rigid_rotation([GOLDEN]), 0), [0.1]
    )
    err = abs(rep.value - GOLDEN)
    if err > 1e-12 or rep.iterations > 16:
        problems.append(f"golden err {err:.2e} after {rep.iterations} steps")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    verdict(
        "rotation recovery (exact rationals, fast irrational limit)",
        ok,
        problems[0] if problems else f"golden err {err:.2e} in {rep.iterations} it, {elapsed:.2f}s < 1s",
    )


def test_04_periodic_rationality():
    cases = [
        (A1, BundleAutomorphism(rigid_rotation([0.5]), 0), [0.2], 2),
        (A1, BundleAutomorphism(rigid_rotation([0.4]), 1), [0.0], 5),
        (A1, BundleAutomorphism(rigid_rotation([3.0 / 7.0]), 0), [0.9], 7),
        (A1, BundleAutomorphism(arnold_circle(0.0, 0.9), 0), [0.0], 1),
        (A1, fiber_translation(1, 2), [0.37], 1),
        (
            CohomologyClass([1, 1]),
            BundleAutomorphism(rigid_rotation([0.5, 0.25]), 0),
            [0.1, 0.2],
            4,
        ),
    ]
    problems = []
    for a, g, x, q in cases:
        rep = local_translation_number(a, g, x)
        if rep.verdict != VERDICT_EXACT_PERIODIC:
            problems.append(f"{g.label}: verdict {rep.verdict}")
            continue
        if q % rep.rational.denominator != 0:
            problems.append(f"{g.label}: denominator {rep.rational.denominator} !| {q}")
        if periodic_rot(a, g, x, q) != rep.rational:
            problems.append(f"{g.label}: periodic_rot disagrees")
    verdict(
        "periodic orbits give rationals with denominator dividing the period",
        not problems,
        problems[0] if problems else f"{len(cases)} cases, all cross-checked exactly",
    )


def test_05_mean_local_consistency():
    start = time.perf_counter()
    g = BundleAutomorphism(
        skew_translation(GOLDEN, TrigPolynomial(0.3, (), (0.1,))), 0
    )
    mean = mean_translation_number(
        FIBER_2D, g, InvariantMeasure.lebesgue(), quadrature_points=1024
    )
    mean_err = abs(mean.value - 0.3)
    rng = np.random.default_rng(2028)
    local_err = max(
        abs(rho_power_average(FIBER_2D, g, rng.uniform(0.0, 1.0, size=2), 10**5) - 0.3)
        for _ in range(10)
    )
    elapsed = time.perf_counter() - start
    ok = mean_err <= 1e-9 and local_err <= 1e-3 and elapsed < 10.0
    verdict(
        "mean and local limits agree on the golden skew product",
        ok,
        f"mean err {mean_err:.2e} <= 1e-9, worst local err {local_err:.2e} <= 1e-3, "
        f"{elapsed:.2f}s < 10s",
    )


def test_06_primitive_independence():
    n = 10**4
    pert = CochainPerturbation.from_trig(TrigPolynomial(0.0, (), (0.2,)))
    bound = 2.0 * 0.2 / n + 1e-9
    rng = np.random.default_rng(2029)
    worst = 0.0
    for i in range(10):
        dim = 1 + i % 2
        a = CohomologyClass(sample_class_entries(rng, dim))
        g = BundleAutomorphism(sample_map(rng, a.entries), sample_fiber_shift(rng))
        x = rng.uniform(0.0, 1.0, size=dim)
        gap = abs(
            perturbed_rho_power_average(a, g, x, pert, n)
            - rho_power_average(a, g, x, n)
        )
        worst = max(worst, gap)
    verdict(
        "changing the primitive moves finite averages by at most 2 sup|beta|/n",
        worst <= bound,
        f"worst gap {worst:.3e} <= {bound:.3e} over 10 random maps",
    )


def test_07_homological_equality():
    problems = []
    details = []

    def compare(label, a, iso, x, **limit_kwargs):
        arc_route = homological_translation(a, iso, x, **limit_kwargs)
        map_route = local_translation_number(
            a, induced_bundle_map(iso), x, **limit_kwargs
        )
        gap = abs(arc_route.value - map_route.value)
        details.append(f"{label} {gap:.1e}")
        if gap > 1e-9:
            problems.append(f"{label}: routes differ by {gap:.2e}")

    a10 = CohomologyClass([1, 0])
    compare("straight", a10, straight_isotopy([0.3, 0.4]), [0.2, 0.7])
    periodic_poly = TrigPolynomial(0.3, (0.05,), (0.1,))
    compare("periodic skew", FIBER_2D, skew_isotopy(0.5, periodic_poly), [0.2, 0.25])
    # the generic non-periodic case: pin both routes to the same full budget
    golden_iso = skew_isotopy(GOLDEN, periodic_poly)
    compare(
        "golden skew",
        FIBER_2D,
        golden_iso,
        [0.2, 0.7],
        tolerance=-1.0,
        max_iterations=4096,
    )

    mu = InvariantMeasure.lebesgue()
    for label, a, iso in (
        ("straight", a10, straight_isotopy([0.3, 0.4])),
        ("golden skew", FIBER_2D, golden_iso),
    ):
        arc_mean = mean_homological_translation(a, iso, mu)
        map_mean = mean_translation_number(a, induced_bundle_map(iso), mu)
        gap = abs(arc_mean.value - map_mean.value)
        details.append(f"mean {label} {gap:.1e}")
        if gap > 1e-9:
            problems.append(f"mean {label}: {gap:.2e}")

    verdict(
        "winding along arcs equals the translation number of the endpoint",
        not problems,
        problems[0] if problems else "; ".join(details),
    )


def test_08_splitting_additivity():
    mu = InvariantMeasure.lebesgue()
    skews = [
        BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(0.3, (), (0.1,))), 0),
        BundleAutomorphism(skew_translation(GOLDEN, TrigPolynomial(-0.1, (0.2,), ())), 1),
    ]
    rotations = [
        BundleAutomorphism(rigid_rotation([0.3, GOLDEN]), 0),
        BundleAutomorphism(rigid_rotation([0.1, 0.7]), 2),
    ]
    worst = 0.0
    for gens in (skews, rotations):
        rep = splitting_check(FIBER_2D, gens, mu, pairs=100, seed=11)
        worst = max(worst, rep.additivity_residual)
    verdict(
        "mean translation number is additive on measure-preserving sets",
        worst <= 1e-6,
        f"worst additivity residual {worst:.3e} <= 1e-6 over 2x100 pairs",
    )


def test_09_undistortion_certificate():
    unit = BundleAutomorphism(rigid_rotation([0.0]), 1)
    third = BundleAutomorphism(rigid_rotation([1.0 / 3.0]), 0)
    cert = undistortion_certificate(
        A1, unit, [("t", unit), ("r", third)], [0.0]
    )
    exact_gens = [
        ExactAffineAutomorphism(((1,),), (Fraction(1, 3),)),
        ExactAffineAutomorphism.fiber_translation(1, 1),
    ]
    target = ExactAffineAutomorphism.fiber_translation(1, 1)
    report = translation_length_estimate(A1, exact_gens, target, max_power=10, radius=12)
    problems = []
    if not (cert.rigorous and cert.tau_lower_bound >= 1.0):
        problems.append(f"tau bound {cert.tau_lower_bound} not a rigorous >= 1")
    for n, norm in report.norms:
        if norm is None or norm < n * cert.tau_lower_bound - 1e-12:
            problems.append(f"|g^{n}| = {norm} < {n} * tau")
    verdict(
        "unit fiber translation is certified undistorted and the word norms agree",
        not problems,
        problems[0]
        if problems
        else f"tau >= {cert.tau_lower_bound}, |g^n| = n for n <= 10, complete={report.complete}",
    )


def test_10_seifert_constructor():
    worked = [
        SeifertData(0, ((2, 1), (2, -1))),
        SeifertData(0, ((1, 0),)),
        SeifertData(0, ((2, 1), (3, 1), (6, 1), (1, -1))),
    ]
    rng = np.random.default_rng(2030)
    corpus = worked + [random_zero_euler_data(rng) for _ in range(20)]
    problems = []
    for data in corpus:
        phi = construct_h1_class(data)
        residuals = verify_homomorphism(data, phi)
        flat = list(residuals["exceptional"]) + [residuals["long_relation"]]
        if any(r != 0 for r in flat):
            problems.append(f"{data}: nonzero residual")
        expected_h = math.prod(alpha for alpha, _ in data.pairs)
        if phi.value_h != expected_h or phi.value_h == 0:
            problems.append(f"{data}: h = {phi.value_h}")
    try:
        construct_h1_class(SeifertData(0, ((3, 1),)))
        problems.append("nonzero euler number was not refused")
    except NonzeroEulerNumber as exc:
        if exc.euler_number != Fraction(-1, 3):
            problems.append(f"refusal reports {exc.euler_number}, not -1/3")
    verdict(
        "fiber-class construction is exact on a zero-euler corpus and refuses otherwise",
        not problems,
        problems[0] if problems else f"{len(corpus)} datasets verified exactly",
    )


def test_11_quadrature_oracle_agreement():
    rng = np.random.default_rng(2031)
    worst = 0.0
    for i in range(100):
        dim = 1 + i % 2
        entries = sample_class_entries(rng, dim)
        a = CohomologyClass(entries)
        g = sample_map(rng, entries)
        h = sample_map(rng, entries)
        x = rng.uniform(0.0, 1.0, size=dim)
        closed = gal_kedra(a, g, h, x)
        quad = gal_kedra_quadrature(a, g, h, x, segments=10_000)
        worst = max(worst, abs(closed - quad))
    verdict(
        "closed-form two-cocycle matches the line-integral oracle",
        worst <= 1e-6,
        f"worst gap {worst:.3e} <= 1e-6 over 100 random pairs",
    )


def test_12_determinism(tmp_path):
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(["gk-check", "--seed", "7", "--format", "record", "--out", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    identical = payloads[0] == payloads[1]
    rerun = coboundary_residual_suite(seed=7, count=50) == coboundary_residual_suite(
        seed=7, count=50
    )
    digest = json.loads(payloads[0])["inputs_digest"][:12]
    verdict(
        "seeded reports are byte-identical across runs",
        identical and rerun,
        f"two gk-check payloads match (digest {digest}...), suites reproduce",
    )
