"""Displacement seminorm, undistortion certificates, exact word geometry."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from transnum import _kernels, distortion
from transnum.distortion import _grid_seminorm
from transnum import (
    BundleAutomorphism,
    CertificateUnavailable,
    ClassNotPreserved,
    CohomologyClass,
    ExactAffineAutomorphism,
    LiftedMap,
    MODE_CERTIFIED,
    MODE_ESTIMATE,
    PreconditionError,
    SearchBudgetExceeded,
    ValidationError,
    ball_norms,
    fiber_translation,
    rho,
    rigid_rotation,
    seminorm,
    TrigPolynomial,
    sinusoidal_shear,
    skew_translation,
    translation_length_estimate,
    undistortion_certificate,
    word_norm_bfs,
)

A1 = CohomologyClass([1])
A10 = CohomologyClass([1, 0])
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def auto(lift, shift=0):
    return BundleAutomorphism(lift, shift)


# -- seminorm ------------------------------------------------------------------


def test_seminorm_of_a_rotation_is_the_absolute_pairing():
    g = auto(rigid_rotation([0.3, 0.4]), 1)
    est = seminorm(A10, g)
    cert = seminorm(A10, g, mode=MODE_CERTIFIED)
    assert est.estimate == pytest.approx(1.3, abs=1e-12)
    assert est.certified_upper is None and est.cell_term is None
    assert not est.rigorous
    # constant displacement: no cell correction at all
    assert cert.rigorous
    assert cert.cell_term == 0.0
    assert cert.certified_upper == pytest.approx(1.3, abs=1e-12)


def test_seminorm_of_a_central_translation_is_its_amount():
    rep = seminorm(A1, fiber_translation(1, 2), mode=MODE_CERTIFIED)
    assert rep.estimate == 2.0
    assert rep.certified_upper == 2.0


def test_seminorm_of_the_shear_hits_the_crest():
    g = auto(sinusoidal_shear(0.1))
    rep = _grid_seminorm(A10, g, grid_resolution=256, mode=MODE_CERTIFIED)
    # 1/4 lies on the corner grid, so the scan finds the crest exactly
    assert rep.estimate == pytest.approx(0.1, abs=1e-15)
    assert rep.certified_upper >= 0.1
    assert rep.certified_upper <= 0.11
    assert rep.certified_upper == rep.estimate + rep.cell_term
    # the coefficients give the crest |a_0 eps| itself, with no cell term
    public = seminorm(A10, g, grid_resolution=256, mode=MODE_CERTIFIED)
    assert public.estimate == pytest.approx(0.1, abs=1e-15) and public.cell_term == 0.0
    assert 0.1 <= public.certified_upper <= 0.1 + 1e-14


def test_seminorm_estimate_grows_along_nested_grids():
    g = auto(sinusoidal_shear(0.07), 1)
    values = [_grid_seminorm(A10, g, grid_resolution=m).estimate for m in (64, 128, 256)]
    assert values[0] <= values[1] <= values[2]
    # the coefficient scan of the one axis nests the same way
    values = [seminorm(A10, g, grid_resolution=m).estimate for m in (64, 128, 256)]
    assert values[0] <= values[1] <= values[2]


def test_seminorm_validates_its_inputs():
    g = auto(rigid_rotation([0.3]))
    with pytest.raises(ValidationError):
        seminorm(A1, g, grid_resolution=0)
    with pytest.raises(ValidationError):
        seminorm(A1, g, mode="exact")


@pytest.fixture
def compiled_scan(monkeypatch):
    """The seminorm's compiled-scan branch, with a grid kernel that must not run."""

    def refuse(*args):
        raise AssertionError("the grid kernel ran on input the seminorm refuses")

    monkeypatch.setattr(_kernels, "JIT_ENABLED", True)
    monkeypatch.setattr(_kernels, "grid_sup_abs_rho", refuse)


def test_compiled_seminorm_refuses_a_fractional_shift_on_an_integer_class(compiled_scan):
    with pytest.raises(PreconditionError, match="non-integer"):
        seminorm(A10, auto(rigid_rotation([0.3, 0.1]), 0.5))


def test_compiled_seminorm_refuses_a_grid_past_the_point_cap(compiled_scan):
    with pytest.raises(ValidationError, match="too large"):
        seminorm(A10, auto(rigid_rotation([0.3, 0.1])), grid_resolution=4097)


def test_seminorm_symmetry_and_subadditivity():
    g = auto(sinusoidal_shear(0.1))
    h = auto(rigid_rotation([0.2, 0.3]))
    sg = seminorm(A10, g).estimate
    sginv = seminorm(A10, g.inverse()).estimate
    assert sg == pytest.approx(sginv, abs=1e-12)
    sgh = seminorm(A10, g.compose(h)).estimate
    sh = seminorm(A10, h).estimate
    assert sgh <= sg + sh + 1e-12


def test_certified_mode_needs_lipschitz_data():
    bare = LiftedMap(
        evaluator=lambda x: np.asarray(x, dtype=float) + 0.25,
        matrix=[[1]],
        label="bare-quarter",
    )
    assert seminorm(A1, auto(bare)).estimate == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(CertificateUnavailable):
        seminorm(A1, auto(bare), mode=MODE_CERTIFIED)


# -- undistortion certificates -------------------------------------------------


def test_unit_translation_is_certified_against_itself():
    cert = undistortion_certificate(
        A1, fiber_translation(1, 1), [("t", fiber_translation(1, 1))], [0.0]
    )
    assert cert.verdict == "undistorted-certified"
    assert cert.rigorous
    assert cert.tau_lower_bound == 1.0
    assert cert.rot_error == 0.0
    assert cert.generator_bounds == (("t", 1.0, True),)


def test_irrational_rotation_certificate_is_essentially_sharp():
    g = auto(rigid_rotation([GOLDEN]))
    cert = undistortion_certificate(A1, g, [g], [0.0])
    assert cert.verdict == "undistorted-certified"
    assert 1.0 - 1e-9 <= cert.tau_lower_bound <= 1.0 + 1e-12
    assert cert.generator_bounds[0][0] == "s1"


def test_a_window_estimate_of_rot_makes_no_rigorous_certificate():
    # omega = 1/2 keeps the cos 4 pi x term of c along the orbit, so no
    # closed form serves it and the orbit converges by its window gap, a
    # heuristic: the seminorm side is rigorous, the rot side is not, and
    # neither is the certificate
    a = CohomologyClass([1, 1])
    g = BundleAutomorphism(skew_translation(0.5, TrigPolynomial(-0.2156875910881545, (0.1, 0.05), (0.05, 0.02))), 1)
    cert = undistortion_certificate(a, g, [("s", g)], [0.2, 0.7])
    assert cert.rot_verdict == "converged" and cert.verdict == "undistorted-certified"
    assert cert.generator_bounds[0][2] and not cert.rigorous


def test_a_closed_form_rot_with_certified_generators_is_rigorous():
    a = CohomologyClass([1, 1])
    g = BundleAutomorphism(skew_translation(0.5254244115515501, TrigPolynomial(-0.2156875910881545, (0.1,), (0.05,))), 1)
    cert = undistortion_certificate(a, g, [("s", g)], [0.2, 0.7])
    assert cert.rot_verdict == "exact-closed-form" and cert.rot_error == 0.0
    assert cert.verdict == "undistorted-certified" and cert.generator_bounds[0][2] and cert.rigorous


def test_zero_rotation_number_yields_no_certificate():
    g = auto(sinusoidal_shear(0.1))
    cert = undistortion_certificate(A10, g, [g], [0.2, 0.0])
    assert cert.verdict == "no-certificate"
    assert cert.tau_lower_bound == 0.0
    assert not cert.rigorous
    with pytest.raises(ValidationError):
        undistortion_certificate(A10, g, [], [0.2, 0.0])


def test_word_seminorm_obeys_the_length_times_constant_bound():
    gens = [
        auto(rigid_rotation([GOLDEN, 0.2]), 1),
        auto(rigid_rotation([0.1, 0.7])),
    ]
    const = max(
        seminorm(A10, s, mode=MODE_CERTIFIED).certified_upper for s in gens
    )
    rng = np.random.default_rng(4)
    for _ in range(20):
        length = int(rng.integers(1, 7))
        word = gens[int(rng.integers(2))]
        for _ in range(length - 1):
            word = word.compose(gens[int(rng.integers(2))])
        assert seminorm(A10, word).estimate <= length * const + 1e-12


# -- exact affine automorphisms ------------------------------------------------


ELEMENTARY = [
    ExactAffineAutomorphism(((1, 1), (0, 1)), (Fraction(1, 3), 0), Fraction(1, 2)),
    ExactAffineAutomorphism(((1, 0), (1, 1)), (0, Fraction(-1, 4))),
    ExactAffineAutomorphism(((0, -1), (1, 0)), (Fraction(2, 5), 1), -2),
]


@st.composite
def exact_affines(draw):
    word = draw(st.lists(st.integers(0, len(ELEMENTARY) - 1), min_size=1, max_size=4))
    out = ELEMENTARY[word[0]]
    for i in word[1:]:
        out = out.compose(ELEMENTARY[i])
    return out


@given(g=exact_affines(), h=exact_affines())
def test_exact_affine_group_laws(g, h):
    ident = ExactAffineAutomorphism.identity(2)
    assert g.compose(g.inverse()) == ident
    assert g.inverse().compose(g) == ident
    assert g.power(3) == g.compose(g).compose(g)
    assert g.power(-2) == g.inverse().compose(g.inverse())
    assert g.compose(h).inverse() == h.inverse().compose(g.inverse())


def test_exact_affine_rejects_non_unimodular_matrices():
    with pytest.raises(ValidationError):
        ExactAffineAutomorphism(((2, 0), (0, 1)), (0, 0))


def test_canonical_key_identifies_deck_equivalent_data():
    a = CohomologyClass([1, 0])
    g = ExactAffineAutomorphism(((1, 0), (2, 1)), (Fraction(1, 3), Fraction(1, 2)), 0)
    # moving the lift up by m = (1, -2) costs the fiber <a, m> = 1
    shifted = ExactAffineAutomorphism(
        g.matrix,
        (g.translation[0] + 1, g.translation[1] - 2),
        g.fiber_shift - 1,
    )
    assert g.canonical_key(a) == shifted.canonical_key(a)
    other = ExactAffineAutomorphism(g.matrix, g.translation, g.fiber_shift + 1)
    assert g.canonical_key(a) != other.canonical_key(a)


def test_canonical_key_requires_an_integer_class():
    a = CohomologyClass([0.5], coefficients="real")
    with pytest.raises(ValidationError):
        ExactAffineAutomorphism.identity(1).canonical_key(a)


def test_exact_affine_converts_to_a_working_bundle_automorphism():
    g = ExactAffineAutomorphism(((1,),), (Fraction(1, 4),), Fraction(3, 2))
    b = g.to_bundle_automorphism()
    a = CohomologyClass([1.0], coefficients="real")
    assert rho(a, b, [0.1]) == pytest.approx(0.25 + 1.5, abs=1e-15)


@pytest.mark.parametrize(
    "m",
    [((10**9 + 1, 10**9), (10**9, 10**9 - 1)), ((2**26 + 1, 2**26), (2**26, 2**26 - 1))],
    ids=["1e9", "2^26"],
)
def test_a_unimodular_matrix_with_large_entries_converts_and_inverts_exactly(m):
    # det -1, which a float determinant or a rounded float inverse misses
    lift = ExactAffineAutomorphism(m, (0, 0)).to_bundle_automorphism().lift
    inv = lift.invert().matrix.tolist()
    assert lift.matrix.tolist() == [list(r) for r in m]
    assert [[sum(r[k] * inv[k][j] for k in range(2)) for j in range(2)] for r in m] == [[1, 0], [0, 1]]


def test_an_affine_map_whose_inverse_leaves_int64_is_refused():
    m = ((1, 2**40, 0), (0, 1, 2**40), (0, 0, 1))  # the inverse has the entry 2^80
    with pytest.raises(ValidationError):
        ExactAffineAutomorphism(m, (0, 0, 0)).to_bundle_automorphism()


# -- word norms and translation lengths ----------------------------------------

THIRD_TURN = ExactAffineAutomorphism(((1,),), (Fraction(1, 3),))
UNIT = ExactAffineAutomorphism.fiber_translation(1, 1)
GENS = [THIRD_TURN, UNIT]


def test_word_norm_of_repeated_translations():
    assert word_norm_bfs(A1, [UNIT], UNIT.power(5), radius=6) == 5
    assert word_norm_bfs(A1, [UNIT], ExactAffineAutomorphism.identity(1)) == 0
    assert word_norm_bfs(A1, [UNIT], UNIT.power(10), radius=3) is None


def test_word_norm_of_the_translation_shifted_square():
    target = UNIT.power(2).compose(THIRD_TURN.power(2))
    assert word_norm_bfs(A1, GENS, target) == 4


def test_word_norm_matches_brute_force_enumeration():
    symmetric = [THIRD_TURN, THIRD_TURN.inverse(), UNIT, UNIT.inverse()]
    table = {ExactAffineAutomorphism.identity(1).canonical_key(A1): 0}
    for length in range(1, 5):
        for word in itertools.product(symmetric, repeat=length):
            out = word[0]
            for s in word[1:]:
                out = out.compose(s)
            table.setdefault(out.canonical_key(A1), length)
    for key, expected in sorted(table.items(), key=str):
        target = ExactAffineAutomorphism(((1,),), (key[1][0],), key[2])
        # rebuild an element with this key; matrices here are all identity
        assert target.canonical_key(A1) == key
        assert word_norm_bfs(A1, GENS, target, radius=4) == expected


# [[1, 1], [0, 1]] sends the class (1, 0) to (1, 1)
MOVES_A10 = ExactAffineAutomorphism(((1, 1), (0, 1)), (0, 0))
TURN_2D = ExactAffineAutomorphism(((1, 0), (0, 1)), (Fraction(1, 3), 0))


@pytest.mark.parametrize(
    "search, generators, target",
    [
        (ball_norms, [TURN_2D, MOVES_A10], None),
        (word_norm_bfs, [MOVES_A10], TURN_2D),
        (word_norm_bfs, [TURN_2D], MOVES_A10),
        (translation_length_estimate, [MOVES_A10], TURN_2D),
        (translation_length_estimate, [TURN_2D], MOVES_A10),
    ],
)
def test_searches_refuse_a_matrix_that_moves_the_class(search, generators, target):
    args = (A10, generators) if target is None else (A10, generators, target)
    with pytest.raises(ClassNotPreserved):
        search(*args)


def test_search_budget_is_enforced():
    with pytest.raises(SearchBudgetExceeded):
        ball_norms(A1, GENS, radius=12, cap=3)


def test_translation_length_of_the_unit_translation():
    rep = translation_length_estimate(A1, [UNIT], UNIT, max_power=4, radius=8)
    assert rep.norms == ((1, 1), (2, 2), (3, 3), (4, 4))
    assert rep.estimate == 1.0
    assert rep.complete


def test_translation_length_of_the_identity_is_zero():
    rep = translation_length_estimate(
        A1, GENS, ExactAffineAutomorphism.identity(1), max_power=3
    )
    assert rep.estimate == 0.0


def test_translation_length_of_the_shifted_square():
    w = UNIT.power(2).compose(THIRD_TURN.power(2))
    rep = translation_length_estimate(A1, GENS, w, max_power=3)
    assert rep.norms == ((1, 4), (2, 6), (3, 8))
    assert rep.estimate == pytest.approx(8.0 / 3.0)
    assert rep.complete


def test_translation_length_reports_holes_in_a_small_ball():
    w = UNIT.power(2).compose(THIRD_TURN.power(2))
    rep = translation_length_estimate(A1, GENS, w, max_power=2, radius=4)
    assert rep.norms[0] == (1, 4)
    assert rep.norms[1] == (2, None)
    assert not rep.complete
    assert rep.estimate == 4.0


# -- the integer-lattice BFS against the Fraction BFS it replaced ---------------


def _reference_bfs(a, generators, radius, cap, goal=None):
    """The Fraction BFS over canonical keys, kept as the reference."""
    gens = {}
    for s in generators:
        for t in (s, s.inverse()):
            gens.setdefault(t.canonical_key(a), t)
    ident = ExactAffineAutomorphism.identity(generators[0].dimension)
    norms = {ident.canonical_key(a): 0}
    frontier = [ident]
    depth = 0
    while frontier and depth < radius and goal not in norms:
        depth += 1
        grown = []
        for cur in frontier:
            for s in gens.values():
                nxt = s.compose(cur)
                key = nxt.canonical_key(a)
                if key not in norms:
                    norms[key] = depth
                    if key == goal:
                        return norms
                    grown.append(nxt)
                    if len(norms) > cap:
                        raise SearchBudgetExceeded(
                            f"BFS ball exceeded {cap} elements at radius {depth}"
                        )
        frontier = grown
    return norms


def _reference(fn, *args):
    """(result, None) or (None, message) when the search budget trips."""
    try:
        return fn(*args), None
    except SearchBudgetExceeded as exc:
        return None, str(exc)


MATRICES = {
    1: [((1,),), ((-1,),)],
    2: [
        ((1, 0), (0, 1)),
        ((1, 0), (1, 1)),
        ((1, 0), (-2, 1)),
        ((1, 1), (0, 1)),
        ((0, -1), (1, 0)),
        ((2, 1), (1, 1)),
    ],
    3: [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    ],
}


def _fixes(a, m):
    """M^T a = a: the deck relation is then a congruence."""
    n = len(m)
    return all(sum(m[i][j] * a.entries[i] for i in range(n)) == a.entries[j] for j in range(n))


@st.composite
def word_problems(draw):
    """An integer class, a generating set with p/q data (sometimes with
    matrices that do not fix the class, which every search refuses), a
    radius and a cap."""
    dim = draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any))
    a = CohomologyClass(entries)
    ratio = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    count = draw(st.integers(1, 3 if dim == 1 else 2))
    gens = [
        ExactAffineAutomorphism(
            draw(st.sampled_from(MATRICES[dim])),
            tuple(draw(ratio) for _ in range(dim)),
            draw(ratio),
        )
        for _ in range(count)
    ]
    radius = draw(st.integers(0, 4 if dim == 1 else 3))
    cap = draw(st.integers(1, 400))
    return a, gens, radius, cap


def _words(gens, length):
    symmetric = [g for s in gens for g in (s, s.inverse())]
    for word in itertools.product(symmetric, repeat=length):
        out = ExactAffineAutomorphism.identity(gens[0].dimension)
        for s in word:
            out = s.compose(out)
        yield out


@given(problem=word_problems(), data=st.data())
def test_integer_bfs_matches_the_fraction_bfs(problem, data):
    a, gens, radius, cap = problem
    if not all(_fixes(a, s.matrix) for s in gens):
        with pytest.raises(ClassNotPreserved):
            ball_norms(a, gens, radius, cap)
        return
    want, want_err = _reference(_reference_bfs, a, gens, radius, cap)
    got, got_err = _reference(ball_norms, a, gens, radius, cap)
    assert got_err == want_err  # the budget trips at the same cap and radius
    if want_err is not None:
        return
    assert list(got.items()) == list(want.items())
    # word norms of elements inside and just outside the ball
    length = data.draw(st.integers(0, radius + 1))
    target = data.draw(st.sampled_from(list(_words(gens, length))))
    goal = target.canonical_key(a)
    assert word_norm_bfs(a, gens, target, radius, cap) == _reference_bfs(
        a, gens, radius, cap, goal
    ).get(goal)
    # powers, whose keys are encoded one by one
    g = data.draw(st.sampled_from(gens))
    rep = translation_length_estimate(a, gens, g, max_power=3, radius=radius, cap=cap)
    powers = [g.power(n).canonical_key(a) for n in (1, 2, 3)]
    assert rep.norms == tuple((n, want.get(k)) for n, k in zip((1, 2, 3), powers))


@given(problem=word_problems())
def test_ball_keys_are_the_brute_force_canonical_keys(problem):
    a, gens, radius, _ = problem
    if not all(_fixes(a, s.matrix) for s in gens):
        return  # unreduced words then depend on the representative
    radius = min(radius, 2)
    table = {}
    for length in range(radius + 1):
        for w in _words(gens, length):
            table.setdefault(w.canonical_key(a), length)
    assert ball_norms(a, gens, radius, cap=10**6) == table


@given(problem=word_problems(), shift_off=st.booleans())
def test_a_target_off_the_lattice_is_never_found(problem, shift_off):
    a, gens, radius, _ = problem
    base = gens[0]
    dt = math.lcm(*(t.denominator for s in gens for t in s.translation))
    ds = math.lcm(*(s.fiber_shift.denominator for s in gens))
    # an inverse's data has the same denominators, so 1/(2D) and 1/(2E) are off
    if shift_off:
        target = ExactAffineAutomorphism(
            base.matrix, base.translation, base.fiber_shift + Fraction(1, 2 * ds)
        )
    else:
        moved = (base.translation[0] + Fraction(1, 2 * dt),) + base.translation[1:]
        target = ExactAffineAutomorphism(base.matrix, moved, base.fiber_shift)
    if not all(_fixes(a, s.matrix) for s in gens):
        for search in (word_norm_bfs, translation_length_estimate):
            with pytest.raises(ClassNotPreserved):
                search(a, gens, target, radius=radius, cap=10**6)
        return
    assert word_norm_bfs(a, gens, target, radius, cap=10**6) is None
    rep = translation_length_estimate(a, gens, target, max_power=1, radius=radius, cap=10**6)
    assert rep.norms == ((1, None),)


def test_off_lattice_element_with_a_power_on_the_lattice():
    half = ExactAffineAutomorphism(((1,),), (Fraction(1, 2),))
    rep = translation_length_estimate(A1, [UNIT], half, max_power=4, radius=4)
    # half^2 is the unit translation of the base, which the deck turns into UNIT
    assert rep.norms == ((1, None), (2, 1), (3, None), (4, 2))
    assert rep.estimate == 0.5
    assert not rep.complete


# -- the layered BFS on int64 and on Python ints --------------------------------

HYPERBOLIC = ((1000, 1, 0), (999, 1, 0), (0, 0, 1))
EYE3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
PAST_INT64 = {
    # matrix entries near 1000^8 = 1e24 in the deepest layers
    "hyperbolic": (
        CohomologyClass([0, 0, 1]),
        [
            ExactAffineAutomorphism(HYPERBOLIC, (Fraction(1, 3), 0, Fraction(1, 2)), Fraction(1, 5)),
            ExactAffineAutomorphism(EYE3, (Fraction(1, 2), 0, Fraction(1, 4)), 1),
        ],
    ),
    # E = 2^61 + 1 and a = 8: one carry of the translation moves E c by 2^64
    "shift lattice": (
        CohomologyClass([8]),
        [ExactAffineAutomorphism(((1,),), (Fraction(1, 3),), Fraction(1, 2**61 + 1)), UNIT],
    ),
    # D = 2^60 + 2 and a residue of D / 2 times 16 reaches 2^63
    "translation lattice": (
        CohomologyClass([0, 1]),
        [
            ExactAffineAutomorphism(((1, 16), (0, 1)), (Fraction(1, 2**59 + 1), Fraction(1, 2)), 1),
            ExactAffineAutomorphism.fiber_translation(2, 1),
        ],
    ),
}


@pytest.fixture
def layer_dtypes(monkeypatch):
    """The dtypes of every frontier and layer the BFS steps, in order."""
    seen = []
    step = distortion._Lattice.layer

    def spy(self, frontier):
        rows = step(self, frontier)
        seen.append((frontier.dtype, rows.dtype))
        return rows

    monkeypatch.setattr(distortion._Lattice, "layer", spy)
    return seen


@pytest.mark.parametrize("case", sorted(PAST_INT64))
def test_layers_past_int64_match_the_fraction_bfs(case, layer_dtypes):
    a, gens = PAST_INT64[case]
    want = _reference_bfs(a, gens, 8, 10**6)
    got = ball_norms(a, gens, radius=8, cap=10**6)
    assert list(got.items()) == list(want.items())
    assert layer_dtypes[-1][1] == object
    g = gens[0]
    rep = translation_length_estimate(a, gens, g, max_power=8, radius=8)
    assert rep.norms == tuple((n, want.get(g.power(n).canonical_key(a))) for n in range(1, 9))


def test_a_ball_with_small_entries_never_leaves_int64(layer_dtypes):
    shear = ELEMENTARY[0]  # fixes (0, 1)
    turn = ExactAffineAutomorphism(((1, 0), (0, 1)), (0, Fraction(1, 4)), Fraction(1, 3))
    ball = ball_norms(CohomologyClass([0, 1]), [shear, turn], radius=4, cap=10**6)
    assert len(ball) > 100 and len(layer_dtypes) == 4
    assert all(dtypes == (np.int64, np.int64) for dtypes in layer_dtypes)


# -- fraction-free determinants and adjugate inverses -----------------------------


def _fraction_det(m):
    """The Fraction Gauss elimination `_exact_det` replaced, kept as the reference."""
    n = len(m)
    mat = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if mat[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            mat[i], mat[piv] = mat[piv], mat[i]
            det = -det
        det *= mat[i][i]
        inv = Fraction(1) / mat[i][i]
        for r in range(i + 1, n):
            f = mat[r][i] * inv
            if f:
                for c in range(i, n):
                    mat[r][c] -= f * mat[i][c]
    return int(det)


@st.composite
def integer_matrices(draw):
    """Square integer matrices of size 1-4; some with a repeated or zero row
    or a zero pivot column, so singular ones and row swaps are common."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3) | st.integers(-(10**20), 10**20)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["any", "repeat", "zero-row", "zero-pivot"]))
    if kind == "repeat" and n > 1:
        rows[-1] = list(rows[0])
    elif kind == "zero-row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    elif kind == "zero-pivot":
        rows[0][0] = 0
    return tuple(tuple(r) for r in rows)


@given(m=integer_matrices())
def test_bareiss_det_is_the_fraction_det(m):
    det = distortion._exact_det(m)
    assert type(det) is int and det == _fraction_det(m)
    translation = (0,) * len(m)
    if abs(det) == 1:
        g = ExactAffineAutomorphism(m, translation)
        inv = distortion._exact_inverse(g.matrix)
        assert g.compose(ExactAffineAutomorphism(inv, translation)) == ExactAffineAutomorphism.identity(len(m))
    else:
        with pytest.raises(ValidationError, match=r"needs \|det M\| = 1"):
            ExactAffineAutomorphism(m, translation)
