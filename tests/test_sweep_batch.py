"""`rot-local` sweeps run their rows as stacks; each row must equal a
separate `rot-local` run of that row's config."""

import collections
import itertools
import json
import math

import numpy as np
import pytest

from transnum import (
    CohomologyClass,
    TrigPolynomial,
    ValidationError,
    arnold_circle,
    cli,
    local_translation_number,
    local_translation_numbers,
    rigid_rotation,
    skew_translation,
    torus_affine,
)
from transnum.config import config_from_text, load_config, parse_sweep
from transnum import dynamics
from transnum.dynamics import STACK_MIN_ROWS, BundleAutomorphism

GOLDEN = repr((math.sqrt(5.0) - 1.0) / 2.0)


@pytest.fixture(autouse=True)
def stack_every_family(monkeypatch):
    """Stack the rows of a family however few they are, so that the small
    sweeps below run the stacked step; `test_a_large_sweep_*` keeps the
    library's threshold."""
    monkeypatch.setattr(dynamics, "STACK_MIN_ROWS", 1)

# numpy's sin and cos agree with math's to the bit on common platforms, but
# nothing guarantees it; sine-family rows may differ from the kernel's run by
# this many units in the last place of max(|value|, 1).
SINE_ULPS = 64


def ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items()
    )


def run(tmp_path, argv, name="run"):
    """(exit code, parsed record or None) of an in-process run."""
    out = tmp_path / f"{name}.json"
    code = cli.main(argv + ["--format", "record", "--out", str(out)])
    record = json.loads(out.read_text()) if code in (0, 3) else None
    return code, record


def sweep_rows(tmp_path, base, sweep):
    """The sweep's rows, and for each row the config of a separate run."""
    text = ini({**base, "sweep": {"command": "rot-local", **sweep}})
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    code, record = run(tmp_path, ["sweep", "--config", str(path)], "sweep")
    assert code == 0
    _, axes = parse_sweep(config_from_text(text))
    singles = []
    for combo in itertools.product(*(values for _, _, values in axes)):
        sections = {name: dict(keys) for name, keys in base.items()}
        for (section, key, _), value in zip(axes, combo):
            sections.setdefault(section, {})[key] = value
        singles.append(ini(sections))
    return record["results"]["rows"], singles


def separate_headline(tmp_path, text):
    path = tmp_path / "row.ini"
    path.write_text(text)
    code, record = run(tmp_path, ["rot-local", "--config", str(path)], "row")
    assert code in (0, 3)
    return record["results"]["headline"]


def assert_rows_match(tmp_path, base, sweep, ulps):
    rows, singles = sweep_rows(tmp_path, base, sweep)
    assert len(rows) == len(singles) > 1
    for row, text in zip(rows, singles):
        value, bound, verdict, exact = row[-4:]
        head = separate_headline(tmp_path, text)
        assert verdict == head["verdict"] and exact == head.get("exact", False), text
        assert (bound is None) == (head.get("error_bound") is None), text
        budget = ulps * np.spacing(max(abs(head["value"]), 1.0))
        assert abs(value - head["value"]) <= budget, text
        if bound is not None:
            assert abs(bound - head["error_bound"]) <= budget, text
        if ulps == 0:
            assert (value, bound) == (head["value"], head.get("error_bound")), text


EXACT_SWEEPS = {
    "rigid circle": (
        {"class": {"entries": "2"}, "map": {"family": "rigid", "vector": "0.3", "shift": "1"}, "point": {"x": "0.1"}},
        {
            "parameter": "map.vector",
            "values": f"0.25 {GOLDEN} 0.7 -1.3 1/3",
            "parameter2": "point.x",
            "values2": "0 0.45 -2.2",
            "parameter3": "point.fiber",
            "values3": "0 3",
        },
    ),
    "rigid torus": (
        {
            "class": {"entries": "1 -2"},
            "map": {"family": "rigid", "vector": "0.3 0.61"},
            "point": {"x": "0.1 0.2"},
            "options": {"max-iterations": "8"},
        },
        {"parameter": "map.shift", "values": "0 1 -3", "parameter2": "options.max-iterations", "values2": "8 16 64"},
    ),
    "affine circle": (
        {"class": {"entries": "1"}, "map": {"family": "affine", "matrix": "1", "vector": "0.5"}, "point": {"x": "0.3"}},
        {"parameter": "map.vector", "values": f"0.5 {GOLDEN} 0.125", "parameter2": "map.shift", "values2": "0 2"},
    ),
    "affine torus": (
        {
            "class": {"entries": "1 0"},
            "map": {"family": "affine", "matrix": "1 0 ; 1 1", "vector": "0.25 0.1"},
            "point": {"x": "0.3 0.8"},
            "options": {"max-iterations": "8"},
        },
        {"parameter": "map.shift", "values": "0 1", "parameter2": "options.max-iterations", "values2": "4 16 1000"},
    ),
}

SINE_SWEEPS = {
    "arnold": (
        {
            "class": {"entries": "1"},
            "map": {"family": "arnold", "omega": "0.3", "k": "0.9"},
            "point": {"x": "0"},
            "options": {"max-iterations": "8"},
        },
        {
            "parameter": "map.omega",
            "values": "linspace:0:1:9",
            "parameter2": "map.k",
            "values2": "0.5 0.9",
            "parameter3": "options.max-iterations",
            "values3": "64 512",
        },
    ),
    "sinshear": (
        {"class": {"entries": "1 0"}, "map": {"family": "sinshear", "epsilon": "0.1"}, "point": {"x": "0.2 0.7"}},
        {"parameter": "map.epsilon", "values": "0.1 -0.05 0.3", "parameter2": "map.shift", "values2": "0 1"},
    ),
    "skew": (
        {
            "class": {"entries": "0 1"},
            "map": {"family": "skew", "omega": GOLDEN, "coeffs": "0.3 0.05 0.1"},
            "point": {"x": "0.2 0.7"},
            "options": {"max-iterations": "8"},
        },
        {
            "parameter": "map.omega",
            "values": f"{GOLDEN} 0.25 0.4142135623730951",
            "parameter2": "map.shift",
            "values2": "0 -1",
            "parameter3": "options.max-iterations",
            "values3": "32 2048",
        },
    ),
}


@pytest.mark.parametrize("name", EXACT_SWEEPS)
def test_rigid_and_affine_rows_equal_separate_runs_bit_for_bit(tmp_path, name):
    base, sweep = EXACT_SWEEPS[name]
    assert_rows_match(tmp_path, base, sweep, ulps=0)


@pytest.mark.parametrize("name", SINE_SWEEPS)
def test_sine_family_rows_equal_separate_runs_within_the_budget(tmp_path, name):
    base, sweep = SINE_SWEEPS[name]
    assert_rows_match(tmp_path, base, sweep, ulps=SINE_ULPS)


@pytest.mark.parametrize("rows", [STACK_MIN_ROWS - 1, STACK_MIN_ROWS])
def test_a_large_sweep_stacks_at_the_library_threshold(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(dynamics, "STACK_MIN_ROWS", STACK_MIN_ROWS)
    stacks = []
    init = dynamics._PythonOrbit.__init__

    def counting(self, x0, **kwargs):
        if np.ndim(x0) == 2:
            stacks.append(len(x0))
        init(self, x0, **kwargs)

    monkeypatch.setattr(dynamics._PythonOrbit, "__init__", counting)
    base = {
        "class": {"entries": "1"},
        "map": {"family": "arnold", "omega": "0.3", "k": "0.9"},
        "point": {"x": "0"},
        "options": {"max-iterations": "512"},
    }
    sweep = {"parameter": "map.omega", "values": f"linspace:0:1:{rows}"}
    assert_rows_match(tmp_path, base, sweep, ulps=SINE_ULPS)
    assert stacks == ([rows] if rows >= STACK_MIN_ROWS else [])


def test_library_stacks_equal_separate_calls():
    """Skew maps of two degrees and a rigid map: three stacks."""
    a = CohomologyClass((0, 1))
    polys = [TrigPolynomial(0.3, (0.05,), (0.1,)), TrigPolynomial(-0.2, (0.1, 0.02), (0.0, 0.3))]
    maps = [
        BundleAutomorphism(skew_translation(omega, poly), shift)
        for omega in (0.1, float(GOLDEN), 0.5)
        for poly in polys
        for shift in (0, 2)
    ]
    maps.append(BundleAutomorphism(rigid_rotation([0.2, 0.5]), 1))
    points = [[0.1 * i, 0.05 * i] for i in range(len(maps))]
    stacked = local_translation_numbers(a, maps, points, max_iterations=1024)
    for g, x, rep in zip(maps, points, stacked):
        assert rep == local_translation_number(a, g, x, max_iterations=1024)


def test_library_rows_outside_the_kernel_run_one_by_one():
    a = CohomologyClass((1, 0, 2))
    maps = [BundleAutomorphism(torus_affine([[1, 0, 0], [1, 1, 0], [0, 0, 1]], [0.1, v, 0.3]), 1) for v in (0.2, 0.7)]
    points = [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]]
    assert local_translation_numbers(a, maps, points) == [
        local_translation_number(a, g, x) for g, x in zip(maps, points)
    ]
    with pytest.raises(ValidationError, match="points"):
        local_translation_numbers(CohomologyClass((1,)), [BundleAutomorphism(arnold_circle(0.3, 0.5))], [])


def first_failure(tmp_path, base, sweep):
    """Exit code of the first row that fails as a separate run; its message
    is left on stderr."""
    _, axes = parse_sweep(config_from_text(ini({**base, "sweep": {"command": "rot-local", **sweep}})))
    for combo in itertools.product(*(values for _, _, values in axes)):
        sections = {name: dict(keys) for name, keys in base.items()}
        for (section, key, _), value in zip(axes, combo):
            sections.setdefault(section, {})[key] = value
        path = tmp_path / "row.ini"
        path.write_text(ini(sections))
        code = cli.main(["rot-local", "--config", str(path), "--out", str(tmp_path / "row.txt")])
        if code not in (0, 3):
            return code
    raise AssertionError("no row fails")


MOVES = "moves the class"
NON_INTEGER = "cannot be translated by non-integer"
# (base shift, sweep axes, what the first bad row says)
BAD_ROWS = {
    "a later row moves the class": ("0", {"parameter": "map.matrix", "values": "1 -1"}, MOVES),
    "a later row has a non-integer shift": ("0", {"parameter": "map.shift", "values": "0 2 1/2"}, NON_INTEGER),
    # row 2 has the bad shift, row 3 the class-moving matrix
    "shift before matrix": (
        "0",
        {"parameter": "map.matrix", "values": "1 -1", "parameter2": "map.shift", "values2": "0 1/3"},
        NON_INTEGER,
    ),
    # row 2 has the class-moving matrix, row 3 the bad shift
    "matrix before shift": (
        "0",
        {"parameter": "map.shift", "values": "0 1/3", "parameter2": "map.matrix", "values2": "1 -1"},
        MOVES,
    ),
    # Rows 1 and 3 share the real class, rows 2 and 4 the integer one, and
    # each class is its own stack: row 2's shift is refused before row 3's
    # matrix, although the real rows form the first stack.
    "across stacks": (
        "1/2",
        {"parameter": "map.matrix", "values": "1 -1", "parameter2": "class.kind", "values2": "real integer"},
        NON_INTEGER,
    ),
    # the same across option stacks, with an options axis innermost
    "across option stacks": (
        "0",
        {
            "parameter": "map.shift",
            "values": "0 1/2",
            "parameter2": "map.matrix",
            "values2": "1 -1",
            "parameter3": "options.max-iterations",
            "values3": "16 8",
        },
        MOVES,
    ),
}


@pytest.mark.parametrize("name", BAD_ROWS)
def test_the_first_bad_row_sets_the_exit_code_and_message(tmp_path, capsys, name):
    shift, sweep, says = BAD_ROWS[name]
    base = {
        "class": {"entries": "1"},
        "map": {"family": "affine", "matrix": "1", "vector": "0.3", "shift": shift},
        "point": {"x": "0.2"},
        "options": {"max-iterations": "8"},
    }
    expected_code = first_failure(tmp_path, base, sweep)
    expected = capsys.readouterr().err.strip().splitlines()[-1]
    assert says in expected
    path = tmp_path / "sweep.ini"
    path.write_text(ini({**base, "sweep": {"command": "rot-local", **sweep}}))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.txt")]) == expected_code == 4
    assert capsys.readouterr().err.strip() == expected


def test_locked_and_unlocked_arnold_rows_stack_as_they_run_alone(monkeypatch):
    """STACK_MIN_ROWS Arnold rows, some in tongues the grid proves and some
    not, as one stack at the library threshold: each report is the separate
    call's, tongue proof included."""
    monkeypatch.setattr(dynamics, "STACK_MIN_ROWS", STACK_MIN_ROWS)
    a = CohomologyClass((1,))
    omegas = np.linspace(-0.1, 0.9, STACK_MIN_ROWS)
    maps = [BundleAutomorphism(arnold_circle(float(o), 0.9), i % 3 - 1) for i, o in enumerate(omegas)]
    points = [[0.05 * i] for i in range(len(maps))]
    sizes = []
    init = dynamics._PythonOrbit.__init__

    def counting(self, x0, **kwargs):
        sizes.append(np.shape(x0))
        init(self, x0, **kwargs)

    monkeypatch.setattr(dynamics._PythonOrbit, "__init__", counting)
    stacked = local_translation_numbers(a, maps, points, max_iterations=512)
    assert sizes == [(STACK_MIN_ROWS, 1)]
    verdicts = [rep.verdict for rep in stacked]
    assert "exact-locked" in verdicts and set(verdicts) - {"exact-locked"}
    for g, x, rep in zip(maps, points, stacked):
        alone = local_translation_number(a, g, x, max_iterations=512)
        assert (rep.verdict, rep.rational, rep.tongue, rep.iterations) == (
            alone.verdict, alone.rational, alone.tongue, alone.iterations
        )
        assert abs(rep.value - alone.value) <= SINE_ULPS * np.spacing(max(abs(alone.value), 1.0))


@pytest.mark.parametrize("threshold", [1, STACK_MIN_ROWS])
def test_a_sweep_checks_each_row_once(tmp_path, monkeypatch, threshold):
    """One class-and-map check (`_map_shift`) per row whose map differs,
    whether the rows run stacked or alone."""
    monkeypatch.setattr(dynamics, "STACK_MIN_ROWS", threshold)
    calls = []
    check = dynamics._map_shift

    def counting(a, g):
        calls.append(g)
        return check(a, g)

    monkeypatch.setattr(dynamics, "_map_shift", counting)
    monkeypatch.setattr(cli, "_map_shift", counting)
    base = {"class": {"entries": "1"}, "map": {"family": "arnold", "omega": "0.3", "k": "0.9"}, "point": {"x": "0"}}
    path = tmp_path / "sweep.ini"
    path.write_text(ini({**base, "sweep": {"command": "rot-local", "parameter": "map.omega", "values": "linspace:0:1:6"}}))
    assert cli.main(["sweep", "--config", str(path), "--max-iterations", "64", "--out", str(tmp_path / "s.txt")]) == 0
    assert len(calls) == 6


def test_the_first_bad_row_is_the_last_row_checked(tmp_path, capsys, monkeypatch):
    calls = []
    check = dynamics._map_shift

    def counting(a, g):
        calls.append(g.fiber_shift)
        return check(a, g)

    monkeypatch.setattr(dynamics, "_map_shift", counting)
    monkeypatch.setattr(cli, "_map_shift", counting)
    base = {
        "class": {"entries": "1"},
        "map": {"family": "affine", "matrix": "1", "vector": "0.3"},
        "point": {"x": "0.2"},
        "sweep": {"command": "rot-local", "parameter": "map.shift", "values": "0 2 1/2 1/3"},
    }
    path = tmp_path / "sweep.ini"
    path.write_text(ini(base))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.txt")]) == 4
    assert "non-integer 1/2" in capsys.readouterr().err
    assert len(calls) == 3



@pytest.mark.parametrize("parameter, maps, points", [("map.vector", 200, 1), ("point.x", 1, 200)])
def test_a_sweep_builds_each_section_it_leaves_alone_once(tmp_path, monkeypatch, parameter, maps, points):
    """Options, class, map and point are built again only for a section the
    sweep changes, and a class and map are checked again (`_map_shift`) only
    when one of them changes; `_resolve` is how a row's options are bound."""
    calls = collections.Counter()

    def counting(name):
        build = getattr(cli, name)

        def run(*args):
            calls[name] += 1
            return build(*args)

        return run

    base = {"class": {"entries": "1"}, "map": {"family": "rigid", "vector": "0.5"}, "point": {"x": "0.3"}}
    path = tmp_path / "sweep.ini"
    path.write_text(ini({**base, "sweep": {"command": "rot-local", "parameter": parameter, "values": "linspace:0:1:200"}}))
    cfg = load_config(str(path))
    res = cli._resolve(cli._PARSER.parse_args(["sweep", "--config", str(path), "--max-iterations", "64"]), cfg)
    for name in ("_resolve", "build_class", "build_bundle_map", "build_point", "_map_shift"):
        monkeypatch.setattr(cli, name, counting(name))
    assert len(cli._cmd_sweep(cfg, res).results["rows"]) == 200
    assert calls == {"_resolve": 1, "build_class": 1, "build_bundle_map": maps, "build_point": points, "_map_shift": maps}
