"""The scalar kernels: family steps, the orbit loop and the grid sup.

The interpreted source is reachable as `fn.py_func` when numba compiled it,
and is `fn` itself otherwise; the compiled path must tell the same story.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from transnum import ValidationError, _kernels, families
from transnum.families import (
    TrigPolynomial,
    arnold_circle,
    rigid_rotation,
    sample_map,
    sinusoidal_shear,
    skew_translation,
    torus_affine,
)

# (lift, class vector, distinctive probe points) for every family with a kernel code
CASES = [
    (rigid_rotation([0.3, -0.7]), [1.0, 2.0], np.array([[0.1, 0.9], [0.25, 0.5]])),
    (rigid_rotation([0.37]), [1.0], np.array([[0.1], [0.95]])),
    (torus_affine([[1, 0], [2, 1]], [0.25, 0.0]), [1.0, 0.0], np.array([[0.4, 0.7]])),
    (torus_affine([[1]], [-0.61]), [1.0], np.array([[0.4], [0.0]])),
    (arnold_circle(0.22, 0.8), [1.0], np.array([[0.15], [0.6]])),
    (sinusoidal_shear(0.1), [1.0, 0.0], np.array([[0.3, 0.25], [0.8, 0.75]])),
    (
        skew_translation(0.37, TrigPolynomial(0.3, (0.05,), (0.1,))),
        [0.0, 1.0],
        np.array([[0.2, 0.6], [0.9, 0.1]]),
    ),
    (
        skew_translation(0.61, TrigPolynomial(0.1, (0.05, -0.02, 0.01), (0.1, 0.03, -0.04))),
        [1.0, 1.0],
        np.array([[0.15, 0.4], [0.7, 0.95]]),
    ),
]


def _interpreted(fn):
    return getattr(fn, "py_func", fn)


def _params(lift):
    code, params = lift.kernel_spec
    return code, _kernels._params(params)


def _reference_step(code, params, x, y):
    """The family step written array-indexed, as the reference for its operation order."""
    n = x.shape[0]
    if code == 0:
        for j in range(n):
            y[j] = x[j] + params[j]
    elif code == 1:
        for i in range(n):
            s = 0.0
            for j in range(n):
                s += params[i * n + j] * x[j]
            y[i] = s + params[n * n + i]
    elif code == 2:
        y[0] = x[0] + params[0] + params[1] * np.sin(2.0 * np.pi * x[0]) / (2.0 * np.pi)
    elif code == 3:
        y[0] = x[0] + params[0] * np.sin(2.0 * np.pi * x[1])
        y[1] = x[1]
    else:
        y[0] = x[0] + params[0]
        c = params[2]
        for k in range(1, int(params[1]) + 1):
            ang = 2.0 * np.pi * k * x[0]
            c += params[1 + 2 * k] * np.cos(ang) + params[2 + 2 * k] * np.sin(ang)
        y[1] = x[1] + c


def _reference_orbit(lift, avec, shift, x, steps, return_tol=1e-10):
    """The orbit loop written array-indexed, as the reference; keeps every
    sum, and the weighted average of the steps as one block."""
    code, params = lift.kernel_spec
    params = np.asarray(params, dtype=float)
    x = np.array(x, dtype=float)
    home = x.copy()
    y = np.empty_like(x)
    sums = []
    s = 0.0
    first_return = -1
    ws = wsum = 0.0
    for i in range(steps):
        _reference_step(code, params, x, y)
        acc = shift
        for j in range(x.size):
            acc += avec[j] * (y[j] - x[j])
        s += acc
        sums.append(s)
        t = (i + 0.5) / steps
        w = math.exp(-1.0 / (t * (1.0 - t)))
        ws += w * acc
        wsum += w
        x = y % 1.0
        x[x >= 1.0] = 0.0
        d = np.abs(x - home)
        if first_return < 0 and np.max(np.minimum(d, 1.0 - d)) <= return_tol:
            first_return = i + 1
    return x, s, first_return, sums, ws / wsum


def _run_orbit(chunk_fn, lift, avec, shift, steps):
    code, params = _params(lift)
    point = _kernels.pair(np.full(lift.dimension, 0.1))
    return chunk_fn(
        code, params, _kernels.pair(avec), float(shift), point, point, 0, steps, 0.0, -1, math.nan, 1e-10
    )


def test_every_builtin_family_registers_a_kernel():
    for lift, _, _ in CASES:
        assert lift.kernel_spec is not None
        code, params = lift.kernel_spec
        assert isinstance(code, int)
        assert np.asarray(params, dtype=float).ndim == 1


def test_interpreted_step_matches_the_family_evaluator():
    step = _interpreted(_kernels._step)
    for lift, _, pts in CASES:
        code, params = _params(lift)
        for p in pts:
            out = step(code, params, *_kernels.pair(p))
            assert np.allclose(out[: lift.dimension], lift(p), atol=1e-12), lift.label
            if lift.dimension == 1:
                assert out[1] == 0.0


UNIMODULAR = {1: ([[1]], [[-1]]), 2: ([[1, 0], [2, 1]], [[2, 1], [1, 1]], [[0, 1], [-1, 0]])}
coord = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def family_maps(draw):
    """A built-in map with random parameters, and a random point of its cover."""
    name = draw(st.sampled_from(["arnold", "sinshear", "skew", "rigid", "affine"]))
    dim = 1 if name == "arnold" else 2 if name in ("sinshear", "skew") else draw(st.integers(1, 2))
    if name == "arnold":
        lift = arnold_circle(draw(coord), draw(st.floats(-0.99, 0.99)))
    elif name == "sinshear":
        lift = sinusoidal_shear(draw(coord))
    elif name == "skew":
        degree = draw(st.integers(1, 3))
        small = st.lists(st.floats(-0.5, 0.5), min_size=degree, max_size=degree)
        poly = TrigPolynomial(draw(st.floats(-1.0, 1.0)), tuple(draw(small)), tuple(draw(small)))
        lift = skew_translation(draw(coord), poly)
    elif name == "rigid":
        lift = rigid_rotation(draw(st.lists(coord, min_size=dim, max_size=dim)))
    else:
        matrix = draw(st.sampled_from(UNIMODULAR[dim]))
        lift = torus_affine(matrix, draw(st.lists(coord, min_size=dim, max_size=dim)))
    return lift, np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))


@given(family_maps())
def test_numpy_evaluator_runs_the_kernel_step(case):
    # one formula per family: the numpy evaluator and the orbit kernel's step
    # agree to rounding (bit for bit where np.sin/np.cos match math.sin/cos)
    lift, x = case
    code, params = _params(lift)
    want = np.array(_kernels._step(code, params, *_kernels.pair(x))[: lift.dimension])
    got = lift.evaluator(x[None, :])[0]
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(want))), lift.label


def test_affine_evaluator_gives_every_stack_the_step_bits():
    # a matmul may fuse the multiply-adds of a long stack, which the step never does
    lift = torus_affine([[1, -3], [0, 1]], [0.7, 0.45])
    pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(1 << 14, 2))
    code, params = _params(lift)
    stacked = lift.evaluator(pts)
    alone = np.array([lift.evaluator(p) for p in pts])
    step = np.array([_kernels._step_impl(code, params, *p) for p in pts])
    assert stacked.tobytes() == alone.tobytes() == step.tobytes()


@pytest.mark.parametrize("k", [1.0, -1.5, math.inf, math.nan])
def test_arnold_rejects_noninvertible_and_nonfinite_k(k):
    with pytest.raises(ValidationError):
        arnold_circle(0.3, k)


# NaN, the infinities and the first floats past 2^52 in size: every
# translation check refuses them, whatever the type of the value it reads
REFUSED_TRANSLATIONS = [math.nan, math.inf, -math.inf, 2.0**53, -(2.0**53), 1e308]


@pytest.mark.parametrize("epsilon", REFUSED_TRANSLATIONS)
def test_sinshear_rejects_nonfinite_and_huge_epsilon(epsilon):
    with pytest.raises(ValidationError, match="at most 2\\^52"):
        sinusoidal_shear(epsilon)


@pytest.mark.parametrize("slot", ["constant", "cos", "sin"])
@pytest.mark.parametrize("value", REFUSED_TRANSLATIONS)
def test_trig_polynomial_rejects_nonfinite_and_huge_coefficients(slot, value):
    coeffs = {"constant": 0.3, "cos": (0.05,), "sin": (0.1,)}
    coeffs[slot] = value if slot == "constant" else (0.05, value)
    with pytest.raises(ValidationError, match="at most 2\\^52"):
        TrigPolynomial(coeffs["constant"], coeffs["cos"], coeffs["sin"])


POLY = TrigPolynomial(0.3, (0.05,), (0.1,))
# every other translation slot of a constructor, as a function of its value
TRANSLATION_SLOTS = {
    "rigid vector, first": lambda t: rigid_rotation([t, 0.3]),
    "rigid vector, last": lambda t: rigid_rotation([0.3, t]),
    "rigid vector, circle": lambda t: rigid_rotation(t),
    "rigid vector, array": lambda t: rigid_rotation(np.array([0.3, t])),
    "affine vector, first": lambda t: torus_affine([[1, 0], [2, 1]], [t, 0.2]),
    "affine vector, last": lambda t: torus_affine([[1, 0], [2, 1]], np.array([0.2, t])),
    "affine vector, T^3": lambda t: torus_affine(np.eye(3, dtype=int), [0.1, 0.2, t]),
    "arnold omega": lambda t: arnold_circle(t, 0.5),
    "arnold omega, numpy": lambda t: arnold_circle(np.float64(t), 0.5),
    "skew omega": lambda t: skew_translation(t, POLY),
    "skew coefficient": lambda t: skew_translation(0.3, TrigPolynomial(0.3, (0.05, t), (0.1, 0.2))),
}


@pytest.mark.parametrize("value", REFUSED_TRANSLATIONS)
@pytest.mark.parametrize("slot", sorted(TRANSLATION_SLOTS))
def test_every_translation_slot_refuses_nonfinite_and_huge_values(slot, value):
    with pytest.raises(ValidationError, match="at most 2\\^52"):
        TRANSLATION_SLOTS[slot](value)


def test_range_checks_keep_the_largest_allowed_values():
    assert sinusoidal_shear(-(2.0**52)).kernel_spec[1][0] == -(2.0**52)
    assert TrigPolynomial(2.0**52, (-(2.0**52),), ()).cos_coeffs == (-(2.0**52),)
    for slot, build in TRANSLATION_SLOTS.items():
        assert -(2.0**52) in build(-(2.0**52)).kernel_spec[1], slot


@pytest.mark.parametrize(
    "build",
    [lambda v: rigid_rotation(v), lambda v: torus_affine([[1, 0], [2, 1]], v)],
    ids=["rigid", "affine"],
)
@pytest.mark.parametrize("vector", [[[0.1, 0.2]], [[0.1], [0.2]], [[0.1, 0.2], [0.3, 0.4]]])
def test_a_nested_vector_is_refused(build, vector):
    with pytest.raises(ValidationError, match="flat list"):
        build(vector)


def test_affine_matrix_of_integer_valued_floats_is_accepted_and_a_fraction_refused():
    f = torus_affine(np.array([[1.0, 0.0], [2.0, 1.0]]), [0.25, 0.0])
    assert f.matrix.dtype == np.int64 and f.matrix.tolist() == [[1, 0], [2, 1]]
    with pytest.raises(ValidationError, match="integer entries"):
        torus_affine(np.array([[1.0, 0.0], [2.5, 1.0]]), [0.25, 0.0])


@pytest.mark.parametrize(
    "matrix, message",
    [([[1, 1], [0, 2]], "det=2"), ([[1, 0], [-(2**63), 1]], "inverse matrix has entries beyond int64")],
    ids=["det 2", "inverse past int64"],
)
def test_affine_refusals_are_never_memoized(matrix, message):
    # a refusal raises inside the memo, so the second call checks again
    for _ in range(2):
        with pytest.raises(ValidationError, match=message):
            torus_affine(matrix, [0.1, 0.2])


def test_the_affine_memo_shares_only_read_only_arrays():
    f = torus_affine([[1, 0], [2, 1]], [0.25, 0.5])
    g = torus_affine([[1, 0], [2, 1]], [0.25, 0.5])
    assert f.matrix is not g.matrix and f.matrix.flags.writeable
    for array in families._unimodular(((1, 0), (2, 1)))[:2]:
        assert not array.flags.writeable
    assert f.invert().matrix.tolist() == [[1, 0], [-2, 1]]
    x = np.array([0.3, 0.7])
    assert np.allclose(f.invert()(f(x)), x, atol=1e-12)


# (seed, class entries, family label, kernel params as float.hex): four
# sample_map draws per class from one stream per seed, recorded when the
# family was still drawn with rng.choice, so the gk-check suites and the
# acceptance corpora keep their maps bit for bit
SAMPLE_STREAM = [
    (3, (1,), "circle+sine", ("0x1.e4fce8296f7e8p-3", "0x1.15a79066a7255p-1")),
    (3, (1,), "rigid", ("0x1.2a112473bd0c0p-1",)),
    (3, (1,), "rigid", ("0x1.bb85a0ed542cap-2",)),
    (3, (1,), "rigid", ("0x1.ea8c6c6a7c232p-2",)),
    (3, (1, 0), "sineshear", ("0x1.203f9761b8034p-3",)),
    (3, (1, 0), "rigid", ("0x1.d199c08085e40p-4", "0x1.909e1f6dcefa4p-2")),
    (3, (1, 0), "affine", ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.b8f68d41ae326p-2", "0x1.2c70dcc35529cp-1")),
    (3, (1, 0), "rigid", ("0x1.e99bdc9383739p-1", "0x1.2305a13f2511ap-2")),
    (3, (0, 1), "skew", ("0x1.31901717c6896p-2", "0x1.0000000000000p+1", "0x1.303984a28f560p-3", "0x1.e2386e530b218p-4", "-0x1.3248d48358d36p-2", "-0x1.fd68d427a7b72p-4", "0x1.22e4dcb695a85p-2")),
    (3, (0, 1), "rigid", ("0x1.c88e5a7a16118p-1", "0x1.2b9a7a135348bp-1")),
    (3, (0, 1), "rigid", ("0x1.e29f0038fa8c4p-2", "0x1.8beaf6d66174ap-1")),
    (3, (0, 1), "sineshear", ("0x1.fca32de5a4730p-4",)),
    (14, (1,), "rigid", ("0x1.719c00c69d052p-2",)),
    (14, (1,), "circle+sine", ("0x1.67cd723e2d66fp-1", "0x1.4be2ae68da677p-1")),
    (14, (1,), "rigid", ("0x1.18c310005d984p-1",)),
    (14, (1,), "circle+sine", ("0x1.864df1e625883p-1", "0x1.8eb5ee7978f66p-2")),
    (14, (1, 0), "affine", ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.25195683983eep-1", "0x1.7e1df6e1bb3f9p-1")),
    (14, (1, 0), "affine", ("0x1.0000000000000p+0", "0x0.0p+0", "-0x1.0000000000000p+1", "0x1.0000000000000p+0", "0x1.4b33563000434p-1", "0x1.78dc7b5972e73p-1")),
    (14, (1, 0), "affine", ("0x1.0000000000000p+0", "0x0.0p+0", "-0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.03ad6db9ac0e9p-1", "0x1.d46b7b0152a58p-3")),
    (14, (1, 0), "affine", ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f14c2bcbb8fe5p-1", "0x1.31e1d7c71e7f8p-2")),
    (14, (0, 1), "sineshear", ("0x1.e13714bfa7766p-3",)),
    (14, (0, 1), "sineshear", ("0x1.f94a8b0bf9540p-6",)),
    (14, (0, 1), "rigid", ("0x1.562a3462de002p-1", "0x1.f8f56b7b9f740p-6")),
    (14, (0, 1), "sineshear", ("-0x1.a96a3aee1a480p-3",)),
]


def test_sample_map_draws_the_recorded_stream():
    got = []
    for seed in (3, 14):
        rng = np.random.default_rng(seed)
        for entries in ((1,), (1, 0), (0, 1)):
            for _ in range(4):
                f = sample_map(rng, entries)
                got.append((seed, entries, f.label.split("(")[0], tuple(float(p).hex() for p in f.kernel_spec[1])))
    assert got == SAMPLE_STREAM


def test_rigid_label_prints_plain_rounded_floats():
    assert rigid_rotation([0.3, 0.61]).label == "rigid(0.3, 0.61)"
    assert rigid_rotation([1 / 3]).label == "rigid(0.333333,)"


@pytest.mark.parametrize("y", [0.4, 10.0, 1000.0, 1e6])
def test_arnold_inverse_round_trip_is_within_a_few_ulps(y):
    f = arnold_circle(0.3, 0.9)
    x = f.invert().evaluator(np.array([[y]]))
    assert abs(f.evaluator(x)[0, 0] - y) <= 4 * np.spacing(max(1.0, abs(y)))


def test_arnold_inverse_of_many_points_is_each_point_alone():
    """Newton's method stops each point at its own convergence, so a point's
    image does not depend on the points evaluated with it."""
    inverse = arnold_circle(0.3, 0.9).invert()
    ys = np.random.default_rng(24).uniform(-50.0, 50.0, size=(256, 1))
    many = inverse.evaluate_many(ys)
    alone = np.array([inverse.evaluate_many(y[None])[0] for y in ys])
    assert np.array_equal(many, alone)


def test_arnold_inverse_stops_well_before_its_cap(monkeypatch):
    # Newton's loop runs one forward step per iteration and is capped at 60
    calls = []
    step = _kernels.np_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    inverse = arnold_circle(0.3, 0.9).invert()
    monkeypatch.setattr(_kernels, "np_step", counting)
    inverse.evaluator(np.array([[1000.0]]))
    assert 0 < len(calls) <= 10


def test_step_keeps_the_reference_operation_order():
    step = _interpreted(_kernels._step)
    for lift, _, pts in CASES:
        code, params = _params(lift)
        for p in pts:
            want = np.empty_like(p)
            _reference_step(code, np.asarray(lift.kernel_spec[1], dtype=float), p, want)
            got = step(code, params, *_kernels.pair(p))
            assert list(got[: lift.dimension]) == list(want), lift.label


@pytest.mark.skipif(not _kernels.JIT_ENABLED, reason="numba disabled or missing")
def test_jitted_step_matches_the_interpreted_step(warm_kernels):
    for lift, _, pts in CASES:
        code, params = _params(lift)
        for p in pts:
            a = _kernels._step.py_func(code, params, *_kernels.pair(p))
            b = _kernels._step(code, params, *_kernels.pair(p))
            assert np.allclose(a, b, atol=5e-14), lift.label


def test_orbit_matches_the_reference_loop_bit_for_bit():
    for lift, avec, _ in CASES:
        point, s, first_return, s_return, block = _run_orbit(_kernels.orbit_chunk, lift, avec, 0.25, 300)
        x, ref_s, ref_first, sums, ref_block = _reference_orbit(lift, avec, 0.25, np.full(lift.dimension, 0.1), 300)
        assert s == ref_s, lift.label
        assert block == ref_block, lift.label
        assert list(point[: lift.dimension]) == list(x), lift.label
        assert first_return == ref_first, lift.label
        if first_return > 0:
            assert s_return == sums[first_return - 1], lift.label


def test_orbit_resumes_across_chunks_exactly():
    lift, avec, _ = CASES[-1]
    whole = _run_orbit(_kernels.orbit_chunk, lift, avec, 0.0, 100)
    code, params = _params(lift)
    point = home = _kernels.pair([0.1, 0.1])
    state = (point, 0.0, -1, math.nan)
    start = 0
    for count in (1, 1, 2, 4, 8, 16, 32, 36):
        state = _kernels.orbit_chunk(
            code, params, _kernels.pair(avec), 0.0, state[0], home, start, count, state[1], state[2], state[3], 1e-10
        )
        start += count
    assert state[:3] == whole[:3]


@pytest.mark.skipif(not _kernels.JIT_ENABLED, reason="numba disabled or missing")
def test_orbit_chunks_agree_between_paths(warm_kernels):
    for lift, avec, _ in CASES:
        py = _run_orbit(_kernels._orbit_chunk.py_func, lift, avec, 0.0, 300)
        jit = _run_orbit(_kernels._orbit_chunk, lift, avec, 0.0, 300)
        # libm vs numba's math can differ in the last ulp per step; 300 steps stay tiny
        assert np.allclose(py[0], jit[0], atol=1e-10), lift.label
        assert abs(py[1] - jit[1]) <= 1e-10
        assert py[2] == jit[2]


@pytest.mark.skipif(not _kernels.JIT_ENABLED, reason="numba disabled or missing")
def test_grid_sup_agrees_between_paths(warm_kernels):
    for lift, avec, _ in CASES:
        code, params = _params(lift)
        dim = lift.dimension
        py = _kernels._grid_sup_abs_rho.py_func(code, params, _kernels.pair(avec), 0.5, 32, dim)
        jit = _kernels._grid_sup_abs_rho(code, params, _kernels.pair(avec), 0.5, 32, dim)
        assert abs(py - jit) <= 1e-12, lift.label


def test_grid_sup_matches_a_dense_numpy_scan():
    grid = _interpreted(_kernels._grid_sup_abs_rho)
    for lift, avec, _ in CASES:
        code, params = _params(lift)
        dim = lift.dimension
        axes = np.meshgrid(*[np.arange(16) / 16] * dim, indexing="ij")
        pts = np.stack([ax.ravel() for ax in axes], axis=-1)
        want = np.max(np.abs((lift.evaluate_many(pts) - pts) @ np.asarray(avec) + 0.5))
        got = grid(code, params, _kernels.pair(avec), 0.5, 16, dim)
        assert got == pytest.approx(want, abs=1e-12), lift.label


def test_orbit_first_return_detects_rational_rotation():
    lift = rigid_rotation([0.5])
    _, s, first_return, s_return, _ = _run_orbit(_kernels.orbit_chunk, lift, [1.0], 0.0, 8)
    assert first_return == 2
    assert s_return == 1.0
    assert s == pytest.approx(4.0)  # eight half-steps


def test_negative_tiny_image_folds_onto_zero():
    # -1e-20 % 1.0 rounds to 1.0; the reduced point must stay in [0, 1)
    assert (-1e-20) % 1.0 == 1.0
    code, params = _params(rigid_rotation([-1e-20, -1e-20]))
    point, s, first_return, s_return, _ = _kernels.orbit_chunk(
        code, params, (1.0, 1.0), 0.0, (0.0, 0.0), (0.0, 0.0), 0, 1, 0.0, -1, math.nan, 1e-10
    )
    assert point == (0.0, 0.0)
    assert first_return == 1 and s_return == s == -2e-20


def test_env_flag_disables_the_jit_path():
    env = dict(os.environ, TRANSNUM_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "from transnum import _kernels; print(_kernels.JIT_ENABLED)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_results_identical_under_both_paths_for_rigid():
    # rigid arithmetic has no libm in it, so the scalar kernel and the
    # array reference must agree exactly, running sum by running sum
    lift = rigid_rotation([0.3, 0.4])
    ref = _reference_orbit(lift, [1.0, 2.0], 1.0, [0.1, 0.1], 50)
    for steps in (1, 7, 50):
        got = _run_orbit(_kernels.orbit_chunk, lift, [1.0, 2.0], 1.0, steps)
        assert got[1] == ref[3][steps - 1]
