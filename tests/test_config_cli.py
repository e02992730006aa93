"""Config parsing, builders, and the command-line surface end to end."""

import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from transnum import (
    BundlePoint,
    Coefficients,
    ValidationError,
    cli,
    config as tcfg,
    dynamics,
    gal_kedra_quadrature,
    homological_translation,
    local_translation_number,
    mean_homological_translation,
    mean_translation_number,
    reports,
    seminorm,
    splitting_check,
    undistortion_certificate,
    word_norm_bfs,
)

GOLDEN = repr((math.sqrt(5.0) - 1.0) / 2.0)


def cfg_of(text):
    return tcfg.config_from_text(text)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_record(tmp_path, args, expect=0):
    """Run the CLI in-process with --format record --out and parse the JSON."""
    out = tmp_path / "record.json"
    code = cli.main(list(args) + ["--format", "record", "--out", str(out)])
    assert code == expect, f"exit {code} != {expect} for {args}"
    return json.loads(out.read_text())


ROT_TEXT = """
[class]
kind = integer
entries = 1

[map]
family = rigid
vector = 0.3

[point]
x = 0.0
"""

SKEW_TEXT = f"""
[class]
kind = integer
entries = 0 1

[map]
family = skew
omega = {GOLDEN}
coeffs = 0.3 0.05 0.1

[measure]
kind = lebesgue
"""

GK_TEXT = """
[class]
kind = integer
entries = 1 0

[map]
family = sinshear
epsilon = 0.1

[map.h]
family = rigid
vector = 0 0.25

[point]
x = 0 0
"""

WORD_TEXT = """
[class]
kind = integer
entries = 1 0

[affine.t]
matrix = 1 0 ; 0 1
translation = 0 0
shift = 1

[affine.r]
matrix = 1 0 ; 0 1
translation = 1/3 0

[affine.w]
matrix = 1 0 ; 0 1
translation = 2/3 0
shift = 2

[generators]
affine = t r
target = w
powers = 3
"""

HOMOVEC_TEXT = """
[class]
entries = 1 0

[isotopy]
kind = straight
vector = 0.3 0.4

[point]
x = 0.2 0.7

[measure]
kind = lebesgue
"""

SPLIT_TEXT = f"""
[class]
entries = 0 1

[map.u]
family = skew
omega = {GOLDEN}
coeffs = 0.3 0.0 0.1

[map.v]
family = skew
omega = {GOLDEN}
coeffs = -0.1 0.2 0.0

[generators]
maps = u v

[check]
count = 20
"""

CERT_TEXT = """
[class]
entries = 1

[map]
family = rigid
vector = 0
shift = 1

[map.t]
family = rigid
vector = 0
shift = 1

[generators]
maps = t

[point]
x = 0
"""


# -- parsing and builders ------------------------------------------------------


def test_builders_assemble_a_full_configuration():
    cfg = cfg_of(
        """
[class]
kind = integer
entries = 0 1

[map]
family = skew
omega = 0.5
coeffs = 0.3 0.05 0.1
shift = 2

[point]
x = 0.2 0.7
fiber = 3

[measure]
kind = dirac-orbit
point = 0.1 0.4
period = 2
"""
    )
    a = tcfg.build_class(cfg)
    assert a.entries == (0, 1) and a.is_integral()
    g = tcfg.build_bundle_map(cfg)
    assert g.fiber_shift == 2 and isinstance(g.fiber_shift, int)
    p = tcfg.build_point(cfg, 2)
    assert isinstance(p, BundlePoint) and p.fiber == 3
    mu = tcfg.build_measure(cfg)
    assert mu.kind == "dirac_orbit" and mu.period == 2


def test_real_class_and_float_entries():
    cfg = cfg_of("[class]\nkind = real\nentries = 0.7 0\n")
    a = tcfg.build_class(cfg)
    assert a.coefficients is Coefficients.REAL
    assert a.entries == (0.7, 0.0)


def test_semicolons_separate_matrix_rows_and_hashes_comment():
    cfg = cfg_of(
        """
[map]
family = affine
matrix = 1 0 ; 2 1   # parabolic block
vector = 0.25 0
"""
    )
    lift = tcfg.build_lifted_map(cfg, "map")
    assert lift.matrix.tolist() == [[1, 0], [2, 1]]


def test_point_defaults_to_the_origin_and_checks_dimension():
    cfg = cfg_of("[class]\nentries = 1 0\n")
    assert np.array_equal(tcfg.build_point(cfg, 2), np.zeros(2))
    bad = cfg_of("[class]\nentries = 1 0\n[point]\nx = 0.1\n")
    with pytest.raises(ValidationError):
        tcfg.build_point(bad, 2)


def test_unknown_sections_and_keys_are_rejected():
    with pytest.raises(ValidationError):
        cfg_of("[mapp]\nfamily = rigid\n")
    with pytest.raises(ValidationError):
        cfg_of("[map]\nfamily = rigid\nvectro = 0.3\n")
    with pytest.raises(ValidationError):
        cfg_of("[DEFAULT]\nseed = 1\n")
    with pytest.raises(ValidationError):
        cfg_of("[point.q]\nx = 0\n")  # only map/affine sections take qualifiers


def test_family_keys_do_not_cross_contaminate():
    with pytest.raises(ValidationError) as err:
        tcfg.build_lifted_map(cfg_of("[map]\nfamily = rigid\nvector = 0.3\nepsilon = 0.1\n"), "map")
    assert "epsilon" in str(err.value)
    with pytest.raises(ValidationError):
        tcfg.build_lifted_map(cfg_of("[map]\nfamily = arnold\nomega = 0.1\n"), "map")  # k missing


def test_affine_builder_is_exact_and_strict():
    cfg = cfg_of(
        """
[affine.r]
matrix = 1
translation = 1/3
shift = 0.25
"""
    )
    r = tcfg.build_affine(cfg, "r")
    assert r.translation == (Fraction(1, 3),)
    assert r.fiber_shift == Fraction(1, 4)
    with pytest.raises(ValidationError):
        tcfg.build_affine(cfg_of("[affine.r]\nmatrix = 1\ntranslation = pi\n"), "r")


def test_measure_builder_kinds_and_errors():
    emp = tcfg.build_measure(
        cfg_of("[measure]\nkind = empirical\nsamples = 0.1 0.2 ; 0.6 0.7\nweights = 0.75 0.25\n")
    )
    assert emp.kind == "empirical"
    assert emp.weights.tolist() == [0.75, 0.25]
    assert tcfg.build_measure(cfg_of("[class]\nentries = 1\n")).kind == "lebesgue"
    with pytest.raises(ValidationError):
        tcfg.build_measure(cfg_of("[measure]\nkind = gaussian\n"))


def test_generator_builders_return_labeled_pairs():
    cfg = cfg_of(WORD_TEXT)
    gens = tcfg.build_affine_generators(cfg)
    assert [name for name, _ in gens] == ["t", "r"]
    assert gens[1][1].translation == (Fraction(1, 3), Fraction(0))
    with pytest.raises(ValidationError):
        tcfg.build_bundle_generators(cfg)  # no [generators] maps key


def test_seifert_builder_rejects_leftover_junk():
    data, conv = tcfg.build_seifert(
        cfg_of("[seifert]\ngenus = 0\npairs = (2, 1) (2, -1)\nconvention = h-negative\n")
    )
    assert data.pairs == ((2, 1), (2, -1))
    assert conv is not None and conv.value == "h-negative"
    with pytest.raises(ValidationError):
        tcfg.build_seifert(cfg_of("[seifert]\ngenus = 0\npairs = (2, 1) junk\n"))
    with pytest.raises(ValidationError):
        tcfg.build_seifert(cfg_of("[seifert]\ngenus = 0\npairs = (2, 1)\nconvention = upwards\n"))


def test_sweep_parsing_linspace_and_axis_pairing():
    cfg = cfg_of(
        "[sweep]\ncommand = rot-local\nparameter = map.vector\nvalues = linspace:0:1:3\n"
    )
    command, axes = tcfg.parse_sweep(cfg)
    assert command == "rot-local"
    assert axes == [("map", "vector", ["0.0", "0.5", "1.0"])]
    with pytest.raises(ValidationError):
        tcfg.parse_sweep(cfg_of("[sweep]\ncommand = rot-local\nparameter = map.vector\n"))
    with pytest.raises(ValidationError):
        tcfg.parse_sweep(cfg_of("[sweep]\ncommand = rot-local\nparameter = vector\nvalues = 1\n"))


def test_sweep_row_cap_is_enforced():
    big = "linspace:0:1:60"
    cfg = cfg_of(
        "[sweep]\ncommand = rot-local\n"
        f"parameter = map.vector\nvalues = {big}\n"
        f"parameter2 = point.x\nvalues2 = {big}\n"
        f"parameter3 = options.tolerance\nvalues3 = {big}\n"
    )
    with pytest.raises(ValidationError) as err:
        tcfg.parse_sweep(cfg)
    assert str(tcfg.SWEEP_ROW_CAP) in str(err.value)


def test_overrides_act_on_clones_only():
    cfg = cfg_of(ROT_TEXT)
    clone = cfg.clone()
    clone.set_override("map", "vector", "0.5")
    assert clone.get("map", "vector") == "0.5"
    assert cfg.get("map", "vector") == "0.3"


# -- report serialization ------------------------------------------------------


def test_jsonable_normalizes_the_usual_suspects():
    assert reports.jsonable(Fraction(8, 3)) == "8/3"
    assert reports.jsonable(np.float64(0.5)) == 0.5
    assert type(reports.jsonable(np.float64(0.5))) is float
    assert reports.jsonable(np.bool_(True)) is True
    assert reports.jsonable(np.arange(3)) == [0, 1, 2]
    with pytest.raises(ValidationError):
        reports.jsonable(object())


def test_record_payload_excludes_timing():
    a = reports.make_report("demo", {"s": {"k": "1"}}, {"headline": {"value": 1}}, seed=0)
    import dataclasses

    b = dataclasses.replace(a, timing_seconds=123.0)
    assert a.to_record() == b.to_record()
    assert "123" not in b.to_record()


def test_value_entry_distinguishes_exact_from_unbounded():
    assert reports.value_entry(1.0, exact=True) == {"value": 1.0, "exact": True}
    assert reports.value_entry(1.0, error_bound=None) == {"value": 1.0, "error_bound": None}
    assert reports.value_entry(1.0, error_bound=0.0) == {"value": 1.0, "error_bound": 0.0}


# -- the command line, end to end ----------------------------------------------


def test_rot_local_happy_path(tmp_path):
    rec = run_record(tmp_path, ["rot-local", "--config", write(tmp_path, "r.ini", ROT_TEXT)])
    assert rec["command"] == "rot-local"
    assert rec["results"]["headline"] == {"value": 0.3, "exact": True, "verdict": "exact-periodic"}
    assert rec["results"]["rot"]["rational"] == "3/10"
    assert rec["inputs"]["map"]["vector"] == "0.3"
    assert len(rec["inputs_digest"]) == 64
    assert rec["provenance"]["package"] == "transnum"


def test_config_is_required_except_for_gk_check(tmp_path, capsys):
    assert cli.main(["rot-local"]) == 2
    assert "transnum:" in capsys.readouterr().err
    out = tmp_path / "g.json"
    assert cli.main(["gk-check", "--seed", "1", "--out", str(out), "--format", "record"]) == 0


def test_unknown_command_is_an_argparse_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["rot-globals"])
    assert err.value.code == 2


def test_bad_config_exits_with_validation_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.ini", "[map]\nfamily = rigid\nvectro = 0.3\n")
    assert cli.main(["rot-local", "--config", bad]) == 2
    assert "vectro" in capsys.readouterr().err


def test_text_after_a_section_header_exits_2_naming_the_line(tmp_path, capsys):
    path = write(tmp_path, "t.ini", ROT_TEXT.replace("[map]", "[map] trailing"))
    assert cli.main(["rot-local", "--config", path]) == 2
    assert "line 6: text after the section header: '[map] trailing'" in capsys.readouterr().err
    commented = write(tmp_path, "c.ini", ROT_TEXT.replace("[map]", "[map]  # the rotation"))
    assert cli.main(["rot-local", "--config", commented]) == 0


EMPTY_CASES = sorted((s, k) for s, keys in tcfg._SECTION_KEYS.items() for k in keys)


@pytest.mark.parametrize("section, key", EMPTY_CASES, ids=[f"{s}.{k}" for s, k in EMPTY_CASES])
def test_an_empty_value_is_refused_not_replaced_by_a_default(section, key):
    with pytest.raises(ValidationError, match=rf"empty value for '{key}' in \[{section}\]"):
        cfg_of(f"[{section}]\n{key} =  # nothing\n")


def test_an_unwritable_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(cli._HANDLERS, "gk-check", lambda cfg, res: ran.append(cfg))
    assert cli.main(["gk-check", "--out", str(tmp_path / "missing" / "x.txt")]) == 2
    assert ran == []
    assert "--out" in capsys.readouterr().err


def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    small = write(tmp_path, "c.ini", "[check]\ncount = 1\ndimensions = 1\n")
    # the directory exists and is writable, but the path is the directory itself
    assert cli.main(["gk-check", "--config", small, "--out", str(tmp_path)]) == 2
    assert "cannot write --out" in capsys.readouterr().err


ISOTOPY_VALUES = {"vector": "0.3 0.4", "epsilon": "0.1", "omega": "0.3", "coeffs": "0.3 0.05 0.1"}
ISOTOPY_KEYS = {"straight": ["vector"], "shear": ["epsilon"], "skew": ["omega", "coeffs"]}
STRAY_ISOTOPY_CASES = [
    (kind, key) for kind, own in ISOTOPY_KEYS.items() for key in ISOTOPY_VALUES if key not in own
]


@pytest.mark.parametrize("kind, stray", STRAY_ISOTOPY_CASES, ids=[f"{k} {s}" for k, s in STRAY_ISOTOPY_CASES])
def test_an_isotopy_kind_refuses_the_keys_of_another_kind(tmp_path, capsys, kind, stray):
    lines = "".join(f"{k} = {ISOTOPY_VALUES[k]}\n" for k in ISOTOPY_KEYS[kind] + [stray])
    text = f"[class]\nentries = 0 1\n[isotopy]\nkind = {kind}\n{lines}"
    assert cli.main(["rot-homovec", "--config", write(tmp_path, "i.ini", text)]) == 2
    assert f"keys ['{stray}'] do not belong to kind '{kind}'" in capsys.readouterr().err


# one case per option read by a command; none may turn 0 into a default
ZERO_OPTION_CASES = [
    ("rot-local", ROT_TEXT, "--max-iterations"),
    ("rot-local", ROT_TEXT, "--tolerance"),
    ("rot-mean", SKEW_TEXT, "--grid"),
    ("rot-homovec", HOMOVEC_TEXT, "--tolerance"),
    ("rot-homovec", HOMOVEC_TEXT, "--max-iterations"),
    ("rot-homovec", HOMOVEC_TEXT, "--grid"),
    ("gk-eval", GK_TEXT, "--grid"),
    ("split-check", SPLIT_TEXT, "--grid"),
    ("seminorm", SKEW_TEXT, "--grid"),
    ("distortion-cert", CERT_TEXT, "--max-iterations"),
    ("distortion-cert", CERT_TEXT, "--grid"),
    ("word-norm", WORD_TEXT, "--max-iterations"),
]


@pytest.mark.parametrize("command, text, flag", ZERO_OPTION_CASES, ids=[f"{c} {f}" for c, _, f in ZERO_OPTION_CASES])
def test_zero_options_are_rejected_not_replaced(tmp_path, capsys, command, text, flag):
    path = write(tmp_path, "z.ini", text)
    assert cli.main([command, "--config", path, flag, "0"]) == 2
    assert "transnum: invalid input:" in capsys.readouterr().err
    # the same value from the [options] section
    key = flag[2:]
    assert cli.main([command, "--config", write(tmp_path, "o.ini", text + f"\n[options]\n{key} = 0\n")]) == 2


# The library parameter each flag feeds. --tolerance is left out: rot-local's
# default depends on the map family, so no single value stands in for it.
LIBRARY_PARAMETERS = {
    ("rot-local", "--max-iterations"): (local_translation_number, "max_iterations"),
    ("rot-mean", "--grid"): (mean_translation_number, "quadrature_points"),
    ("rot-homovec", "--max-iterations"): (homological_translation, "max_iterations"),
    ("rot-homovec", "--grid"): (mean_homological_translation, "quadrature_points"),
    ("gk-eval", "--grid"): (gal_kedra_quadrature, "segments"),
    ("split-check", "--grid"): (splitting_check, "quadrature_points"),
    ("seminorm", "--grid"): (seminorm, "grid_resolution"),
    ("distortion-cert", "--max-iterations"): (local_translation_number, "max_iterations"),
    ("distortion-cert", "--grid"): (undistortion_certificate, "grid_resolution"),
    ("word-norm", "--max-iterations"): (word_norm_bfs, "radius"),
}
DEFAULT_CASES = [case for case in ZERO_OPTION_CASES if case[2] != "--tolerance"]


@pytest.mark.parametrize("command, text, flag", DEFAULT_CASES, ids=[f"{c} {f}" for c, _, f in DEFAULT_CASES])
def test_an_absent_option_is_the_library_default(tmp_path, command, text, flag):
    # the command line adds no defaults of its own
    fn, name = LIBRARY_PARAMETERS[command, flag]
    default = inspect.signature(fn).parameters[name].default
    path = write(tmp_path, "d.ini", text)
    assert run_record(tmp_path, [command, "--config", path]) == run_record(
        tmp_path, [command, "--config", path, flag, str(default)]
    )


@pytest.mark.parametrize("flag, value", [("--grid", "-3"), ("--max-iterations", "-1"), ("--tolerance", "-1e-9"), ("--tolerance", "nan"), ("--tolerance", "inf")])
def test_nonpositive_and_nonfinite_options_exit_2(tmp_path, flag, value):
    assert cli.main(["rot-local", "--config", write(tmp_path, "r.ini", ROT_TEXT), f"{flag}={value}"]) == 2


# one map per key, with the key's value left open
NONFINITE_MAPS = {
    "omega": "[class]\nentries = 1\n[map]\nfamily = arnold\nomega = {v}\nk = 0.5\n",
    "k": "[class]\nentries = 1\n[map]\nfamily = arnold\nomega = 0.3\nk = {v}\n",
    "epsilon": "[class]\nentries = 1 0\n[map]\nfamily = sinshear\nepsilon = {v}\n",
    "vector": "[class]\nentries = 1 0\n[map]\nfamily = rigid\nvector = 0.3 {v}\n",
    "coeffs": "[class]\nentries = 0 1\n[map]\nfamily = skew\nomega = 0.3\ncoeffs = 0.3 {v} 0.1\n",
    "shift": "[class]\nentries = 1\n[map]\nfamily = rigid\nvector = 0.3\nshift = {v}\n",
}
NONFINITE_CASES = [(key, v) for key in NONFINITE_MAPS for v in ("nan", "inf", "-inf")]


@pytest.mark.parametrize("key, value", NONFINITE_CASES, ids=[f"{k}={v}" for k, v in NONFINITE_CASES])
def test_nonfinite_map_parameters_exit_2(tmp_path, capsys, key, value):
    path = write(tmp_path, "n.ini", NONFINITE_MAPS[key].format(v=value))
    assert cli.main(["rot-mean", "--config", path]) == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1/0", "1" + "0" * 400 + "/1"], ids=["zero-denominator", "overflow"])
def test_unrepresentable_rationals_exit_2(tmp_path, value):
    path = write(tmp_path, "q.ini", NONFINITE_MAPS["omega"].format(v=value))
    assert cli.main(["rot-local", "--config", path]) == 2


# every translation parameter, with its value left open
TRANSLATION_MAPS = {
    "arnold omega": NONFINITE_MAPS["omega"],
    "skew omega": "[class]\nentries = 0 1\n[map]\nfamily = skew\nomega = {v}\ncoeffs = 0.3 0.05 0.1\n",
    "rigid vector": NONFINITE_MAPS["vector"],
    "affine vector": "[class]\nentries = 1 0\n[map]\nfamily = affine\nmatrix = 1 0 ; 1 1\nvector = {v} 0.2\n",
}
# past 2^52 a float has no fractional part left to act on the torus
HUGE_CASES = [(key, v) for key in TRANSLATION_MAPS for v in ("1e308", "-4503599627370497")]


@pytest.mark.parametrize("key, value", HUGE_CASES, ids=[f"{k}={v}" for k, v in HUGE_CASES])
def test_translation_parameters_past_2_52_exit_2(tmp_path, capsys, key, value):
    path = write(tmp_path, "h.ini", TRANSLATION_MAPS[key].format(v=value))
    assert cli.main(["rot-local", "--config", path]) == 2
    assert "at most 2^52" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["18446744073709551616", "9223372036854775808", "-9223372036854775809"])
def test_an_affine_matrix_entry_past_int64_exits_2(tmp_path, capsys, entry):
    text = TRANSLATION_MAPS["affine vector"].format(v="0.1").replace("matrix = 1 0 ; 1 1", f"matrix = 1 0 ; {entry} 1")
    assert cli.main(["rot-local", "--config", write(tmp_path, "a.ini", text)]) == 2
    assert f"affine matrix entry {entry} is outside the int64 range" in capsys.readouterr().err


SHEAR_WORD_TEXT = """
[class]
entries = 1 0
[affine.t]
matrix = 1 0 ; 0 1
translation = 0 0
shift = 1
[affine.r]
matrix = 1 0 ; {c} 1
translation = 0 0
[affine.w]
matrix = 1 0 ; {c2} 1
translation = 0 0
shift = 1
[generators]
affine = t r
target = w
"""


@pytest.mark.parametrize("c", [1, 2**64], ids=["small", "past-int64"])
def test_exact_affine_generators_keep_entries_past_int64(tmp_path, c):
    # [affine.NAME] matrices stay Python ints: w = r^2 t has norm 3 for any shear c
    text = SHEAR_WORD_TEXT.format(c=c, c2=2 * c)
    rec = run_record(tmp_path, ["word-norm", "--config", write(tmp_path, "w.ini", text)])
    assert rec["results"]["headline"] == {"value": 3, "exact": True, "verdict": "ok"}


def test_translation_parameters_up_to_2_52_are_kept(tmp_path):
    path = write(tmp_path, "b.ini", TRANSLATION_MAPS["rigid vector"].format(v="4503599627370496"))
    rec = run_record(tmp_path, ["rot-local", "--config", path])
    assert rec["results"]["headline"]["value"] == pytest.approx(0.3)


@pytest.mark.parametrize("values", ["0.3 1e308", "linspace:0:1e308:3"])
def test_sweep_values_past_2_52_exit_2(tmp_path, values):
    text = TRANSLATION_MAPS["arnold omega"].format(v="0.3")
    path = write(tmp_path, "s.ini", text + f"[sweep]\ncommand = rot-local\nparameter = map.omega\nvalues = {values}\n")
    assert cli.main(["sweep", "--config", path]) == 2


@pytest.mark.parametrize("count", [tcfg.SWEEP_ROW_CAP + 1, 10**12])
def test_an_oversized_linspace_exits_2_before_making_its_values(tmp_path, capsys, monkeypatch, count):
    def refuse(*args, **kwargs):
        raise AssertionError("linspace values were made")

    monkeypatch.setattr(tcfg.np, "linspace", refuse)
    text = TRANSLATION_MAPS["arnold omega"].format(v="0.3")
    path = write(tmp_path, "s.ini", text + f"[sweep]\ncommand = rot-local\nparameter = map.omega\nvalues = linspace:0:1:{count}\n")
    assert cli.main(["sweep", "--config", path]) == 2
    assert str(tcfg.SWEEP_ROW_CAP) in capsys.readouterr().err


def test_gk_eval_segments_above_the_point_cap_exit_2(tmp_path, capsys):
    path = write(tmp_path, "g.ini", GK_TEXT)
    assert cli.main(["gk-eval", "--config", path, "--grid", str(10**12)]) == 2
    assert str(dynamics.POINT_CAP) in capsys.readouterr().err


def test_not_converged_headline_exits_3(tmp_path):
    # rot = 0.2759 lies between the Farey neighbours 1/4 and 2/7, so no
    # period below 11 can prove it locked, and 100 steps settle no window
    assert dynamics.LOCK_PERIODS < 11
    slow = write(
        tmp_path,
        "slow.ini",
        "[class]\nentries = 1\n[map]\nfamily = arnold\nomega = 0.3\nk = 0.9\n[point]\nx = 0.2\n",
    )
    rec = run_record(
        tmp_path,
        ["rot-local", "--config", slow, "--tolerance", "1e-12", "--max-iterations", "100"],
        expect=3,
    )
    assert rec["results"]["headline"]["verdict"] == "not-converged"
    assert rec["results"]["rot"]["iterations"] == 100


def test_nonzero_euler_number_exits_4(tmp_path, capsys):
    bad = write(tmp_path, "e.ini", "[seifert]\ngenus = 0\npairs = (3, 1)\n")
    assert cli.main(["seifert-class", "--config", bad]) == 4
    err = capsys.readouterr().err
    assert "-1/3" in err and "vanish" in err


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    path = write(tmp_path, "r.ini", ROT_TEXT)
    out = tmp_path / "table.txt"
    assert cli.main(["rot-local", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert "headline.value" in text and "0.3" in text


def test_gk_check_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["gk-check", "--seed", "3", "--format", "record", "--out", str(a)]) == 0
    assert cli.main(["gk-check", "--seed", "3", "--format", "record", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rec = json.loads(a.read_text())
    for name in ("coboundary", "cocycle", "headline"):
        entry = rec["results"][name]
        # a measured residual, not a bounded value
        assert entry["residual"] is True and "error_bound" not in entry
        assert entry["value"] <= 1e-12
    assert rec["provenance"]["seed"] == 3


def test_a_dirac_orbit_past_the_point_cap_exits_2(tmp_path, capsys):
    # a period of 10^12 would ask for a (10^12, 1) array of orbit points
    text = """
[class]
kind = integer
entries = 1

[map]
family = rigid
vector = 0.3

[measure]
kind = dirac-orbit
point = 0.1
period = 1000000000000
"""
    assert cli.main(["rot-mean", "--config", write(tmp_path, "orbit.ini", text)]) == 2
    assert "period" in capsys.readouterr().err


def test_rot_mean_on_the_skew_family(tmp_path):
    rec = run_record(tmp_path, ["rot-mean", "--config", write(tmp_path, "m.ini", SKEW_TEXT)])
    headline = rec["results"]["headline"]
    assert abs(headline["value"] - 0.3) <= 1e-9
    # the constant term c_0 = 0.3 of the float data, exactly
    assert headline["exact"] is True and "error_bound" not in headline
    mean = rec["results"]["mean"]
    assert Fraction(mean["rational"]) == Fraction(0.3) and mean["value"] == 0.3
    assert rec["results"]["measure"] == {
        "kind": "lebesgue", "invariance_residual": 0.0, "invariance_warning": False, "invariance_source": "jacobian"
    }


def test_rot_mean_of_an_arnold_map_keeps_its_probes_and_their_warning(tmp_path):
    text = "[class]\nentries = 1\n[map]\nfamily = arnold\nomega = 0.25\nk = 0.5\nshift = 1\n[measure]\nkind = lebesgue\n"
    res = run_record(tmp_path, ["rot-mean", "--config", write(tmp_path, "a.ini", text)])["results"]
    assert res["mean"] == {"value": 1.25, "exact": True, "rational": "5/4"}
    measure = res["measure"]
    assert "invariance_source" not in measure and measure["invariance_warning"] is True
    assert measure["invariance_residual"] > 1e-3


@pytest.mark.parametrize("grid", [1, 2, 3, 4, 128])
def test_rot_mean_bound_contains_the_mean_on_grids_below_the_degree(tmp_path, grid):
    # c(x) = 0.3 + 0.1 cos + 0.2 sin + 0.05 cos 2 + 0.02 sin 2 (2 pi x) has
    # degree 2, so grids of 1 and 2 points alias it; the true mean is 0.3
    text = SKEW_TEXT.replace(f"omega = {GOLDEN}", "omega = 0.618").replace(
        "coeffs = 0.3 0.05 0.1", "coeffs = 0.3 0.1 0.2 0.05 0.02"
    )
    cfg = cfg_of(text)
    a, g, mu = tcfg.build_class(cfg), tcfg.build_bundle_map(cfg), tcfg.build_measure(cfg)
    mean = dynamics._walked_mean(a, g, mu, grid)  # the grid route
    error = abs(mean.value - 0.3)
    assert mean.error_bound >= error
    if grid <= 2:
        assert error >= 0.04
    else:
        assert mean.error_bound <= 1e-12
    # the command reads the constant term instead, on every grid
    rec = run_record(tmp_path, ["rot-mean", "--config", write(tmp_path, "m.ini", text), "--grid", str(grid)])
    assert rec["results"]["mean"] == {"value": 0.3, "exact": True, "rational": "5404319552844595/18014398509481984"}


def test_gk_eval_closed_form_and_quadrature(tmp_path):
    rec = run_record(tmp_path, ["gk-eval", "--config", write(tmp_path, "g.ini", GK_TEXT)])
    # a sinshear g: the closed form is a float with rounding, not exact
    assert rec["results"]["closed_form"] == {"value": 0.1, "error_bound": None}
    assert rec["results"]["headline"]["error_bound"] is None and "exact" not in rec["results"]["headline"]
    quad = rec["results"]["quadrature"]
    assert quad["nodes"] == 8
    assert quad["discrepancy"] == abs(quad["value"] - 0.1)
    assert quad["discrepancy"] <= quad["error_bound"] <= 1e-12


def test_rot_homovec_routes_agree(tmp_path):
    rec = run_record(tmp_path, ["rot-homovec", "--config", write(tmp_path, "h.ini", HOMOVEC_TEXT)])
    res = rec["results"]
    assert res["difference"]["value"] <= 1e-9
    assert res["headline"]["exact"] is True
    assert abs(res["mean_homological"]["value"] - 0.3) <= 1e-9


def test_split_check_on_commuting_skews(tmp_path):
    rec = run_record(tmp_path, ["split-check", "--config", write(tmp_path, "s.ini", SPLIT_TEXT)])
    res = rec["results"]
    assert res["headline"]["value"] <= 1e-6
    for name in ("additivity_residual", "mean_cocycle_residual", "headline"):
        assert res[name]["residual"] is True and "error_bound" not in res[name]
    assert res["pairs"] == 20
    # skew maps preserve Lebesgue measure: read from the Jacobian, no probes
    assert res["generator_invariance"] == [
        {"generator": "u", "residual": 0.0, "source": "jacobian"},
        {"generator": "v", "residual": 0.0, "source": "jacobian"},
    ]


def test_split_check_probes_an_arnold_generator_and_refuses_it(tmp_path, capsys):
    text = "[class]\nentries = 1\n[map.u]\nfamily = arnold\nomega = 0.3\nk = 0.9\n[generators]\nmaps = u\n[measure]\nkind = lebesgue\n"
    assert cli.main(["split-check", "--config", write(tmp_path, "s.ini", text)]) == 4
    assert "does not preserve the measure" in capsys.readouterr().err
    invariant = text.replace("k = 0.9", "k = 0.0")
    res = run_record(tmp_path, ["split-check", "--config", write(tmp_path, "t.ini", invariant)])["results"]
    (row,) = res["generator_invariance"]
    assert row["source"] == "probes" and row["residual"] <= 1e-12


def test_gk_eval_is_exact_for_a_rigid_or_affine_first_map(tmp_path):
    for g in ("family = rigid\nvector = 0.3 0.2", "family = affine\nmatrix = 1 0 ; 2 1\nvector = 0.1 0.4"):
        text = GK_TEXT.replace("family = sinshear\nepsilon = 0.1", g)
        res = run_record(tmp_path, ["gk-eval", "--config", write(tmp_path, "g.ini", text)])["results"]
        # every rational of a record is written p/q
        assert res["closed_form"] == {"value": 0.0, "exact": True, "rational": "0/1"}
        assert res["headline"]["exact"] is True and res["headline"]["value"] == 0.0
        assert res["quadrature"]["discrepancy"] == abs(res["quadrature"]["value"])


def test_distortion_certificate_for_the_unit_translation(tmp_path):
    rec = run_record(tmp_path, ["distortion-cert", "--config", write(tmp_path, "c.ini", CERT_TEXT)])
    res = rec["results"]
    assert res["headline"]["value"] == 1.0
    assert res["headline"]["verdict"] == "undistorted-certified"
    assert res["rigorous"] is True
    assert res["rot"]["error_bound"] == 0.0


def test_word_norm_and_translation_length(tmp_path):
    rec = run_record(tmp_path, ["word-norm", "--config", write(tmp_path, "w.ini", WORD_TEXT)])
    res = rec["results"]
    assert res["headline"] == {"value": 4, "exact": True, "verdict": "ok"}
    tl = res["translation_length"]
    assert [(row["power"], row["norm"]) for row in tl["norms"]] == [(1, 4), (2, 6), (3, 8)]
    assert tl["estimate"]["value"] == pytest.approx(8.0 / 3.0)
    assert tl["complete"] is True


@pytest.mark.parametrize("powers", ["0", "-3"])
def test_word_norm_powers_below_one_exit_2(tmp_path, capsys, powers):
    text = WORD_TEXT.replace("powers = 3", f"powers = {powers}")
    assert cli.main(["word-norm", "--config", write(tmp_path, "p.ini", text)]) == 2
    assert "powers must be a positive count" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["t", "w"])
def test_word_norm_refuses_a_matrix_that_moves_the_class_with_exit_4(tmp_path, capsys, name):
    # [[1, 1], [0, 1]] sends the class (1, 0) to (1, 1): no bundle automorphism
    text = WORD_TEXT.replace(f"[affine.{name}]\nmatrix = 1 0 ; 0 1", f"[affine.{name}]\nmatrix = 1 1 ; 0 1")
    assert text != WORD_TEXT
    assert cli.main(["word-norm", "--config", write(tmp_path, "m.ini", text)]) == 4
    assert "moves the class" in capsys.readouterr().err


def test_word_norm_without_powers_reports_the_norm_alone(tmp_path):
    text = WORD_TEXT.replace("powers = 3\n", "")
    rec = run_record(tmp_path, ["word-norm", "--config", write(tmp_path, "n.ini", text)])
    assert rec["results"]["headline"] == {"value": 4, "exact": True, "verdict": "ok"}
    assert "translation_length" not in rec["results"]


def test_seifert_class_record_is_exact(tmp_path):
    rec = run_record(
        tmp_path,
        ["seifert-class", "--config", write(tmp_path, "f.ini", "[seifert]\ngenus = 0\npairs = (2,1) (2,-1)\n")],
    )
    res = rec["results"]
    assert res["euler_number"] == {"value": "0/1", "exact": True}
    assert res["phi"]["h"]["value"] == 4
    assert [q["value"] for q in res["phi"]["q"]] == [-2, 2]
    assert all(r["value"] == "0/1" for r in res["residuals"]["exceptional"])
    assert res["residuals"]["long_relation"]["value"] == "0/1"


def test_single_point_sweep_matches_the_direct_run(tmp_path):
    path = write(
        tmp_path,
        "one.ini",
        ROT_TEXT + "\n[sweep]\ncommand = rot-local\nparameter = map.vector\nvalues = 0.3\n",
    )
    direct = run_record(tmp_path, ["rot-local", "--config", path])
    swept = run_record(tmp_path, ["sweep", "--config", path])
    (row,) = swept["results"]["rows"]
    headline = direct["results"]["headline"]
    assert row[1] == headline["value"]
    assert row[3] == headline["verdict"]
    assert row[4] == headline["exact"]


def test_sweep_csv_has_fixed_columns(tmp_path):
    path = write(
        tmp_path,
        "sw.ini",
        ROT_TEXT + "\n[sweep]\ncommand = rot-local\nparameter = map.vector\nvalues = 0.25 0.5 0.75\n",
    )
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", path, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "map.vector,value,error_bound,verdict,exact"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.25" and first[2] == "" and first[4] == "True"


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# one case per record that carries a limit: rot-local and distortion-cert
# move the point off its start, so one block is all the run sees
ONE_BLOCK_CASES = [
    ("rot-local", ROT_TEXT, 3, ["rot", "headline"]),
    ("rot-homovec", HOMOVEC_TEXT, 3, ["homological", "endpoint_local", "difference", "headline"]),
    ("distortion-cert", CERT_TEXT.replace("vector = 0\nshift = 1\n\n[map.t]", "vector = 0.3\nshift = 1\n\n[map.t]"), 0, ["rot"]),
]


@pytest.mark.parametrize("command, text, expect, entries", ONE_BLOCK_CASES, ids=[c[0] for c in ONE_BLOCK_CASES])
def test_a_limit_stopped_after_one_block_claims_no_bound_in_strict_json(tmp_path, command, text, expect, entries):
    path = write(tmp_path, "one.ini", text)
    out = tmp_path / "record.json"
    assert cli.main([command, "--config", path, "--max-iterations", "1", "--format", "record", "--out", str(out)]) == expect
    results = json.loads(out.read_text(), parse_constant=refuse_constant)["results"]
    for key in entries:
        assert results[key]["error_bound"] is None, key


def test_a_sweep_row_stopped_after_one_block_has_an_empty_bound(tmp_path):
    path = write(tmp_path, "sw.ini", ROT_TEXT + "\n[sweep]\ncommand = rot-local\nparameter = map.vector\nvalues = 0.3\n")
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", path, "--max-iterations", "1", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[2] == ""


def test_a_non_finite_float_never_reaches_a_record():
    report = reports.make_report("rot-local", {}, {"headline": reports.value_entry(math.inf)}, 0)
    with pytest.raises(ValueError):
        report.to_record()
    with pytest.raises(ValueError):
        reports.digest_of({"x": math.nan})


def test_two_axis_sweep_is_row_major_in_declared_order(tmp_path):
    path = write(
        tmp_path,
        "grid.ini",
        ROT_TEXT
        + "\n[sweep]\ncommand = rot-local\nparameter = map.vector\nvalues = 0.25 0.5\n"
        "parameter2 = point.x\nvalues2 = 0.1 0.2\n",
    )
    rec = run_record(tmp_path, ["sweep", "--config", path])
    assert rec["results"]["columns"][:2] == ["map.vector", "point.x"]
    combos = [tuple(row[:2]) for row in rec["results"]["rows"]]
    assert combos == [("0.25", "0.1"), ("0.25", "0.2"), ("0.5", "0.1"), ("0.5", "0.2")]
    # the swept parameter never leaks into the stored inputs of the base run
    assert rec["inputs"]["map"]["vector"] == "0.3"


def test_sweep_rejects_unknown_target_command(tmp_path, capsys):
    path = write(
        tmp_path,
        "bad.ini",
        ROT_TEXT + "\n[sweep]\ncommand = rot-global\nparameter = map.vector\nvalues = 0.1\n",
    )
    assert cli.main(["sweep", "--config", path]) == 2
    assert "rot-global" in capsys.readouterr().err
    nested = write(
        tmp_path,
        "nested.ini",
        ROT_TEXT + "\n[sweep]\ncommand = sweep\nparameter = map.vector\nvalues = 0.1\n",
    )
    assert cli.main(["sweep", "--config", nested]) == 2  # no sweeps of sweeps


def test_seminorm_sweep_grows_with_the_grid(tmp_path):
    text = f"""
[class]
entries = 0 1

[map]
family = skew
omega = {GOLDEN}
coeffs = 0.3 0.05 0.1

[seminorm]
mode = estimate

[options]
grid = 64

[sweep]
command = seminorm
parameter = options.grid
values = 64 128 256
"""
    rec = run_record(tmp_path, ["sweep", "--config", write(tmp_path, "sg.ini", text)])
    values = [row[1] for row in rec["results"]["rows"]]
    assert values[0] <= values[1] <= values[2]
    assert values[0] < values[2]  # the crest is off the dyadic grid


def test_options_precedence_flag_beats_config(tmp_path):
    text = f"""
[class]
entries = 0 1

[map]
family = skew
omega = {GOLDEN}
coeffs = 0.3 0.05 0.1

[options]
grid = 64
"""
    path = write(tmp_path, "p.ini", text)
    from_config = run_record(tmp_path, ["seminorm", "--config", path])
    from_flag = run_record(tmp_path, ["seminorm", "--config", path, "--grid", "256"])
    assert from_config["results"]["seminorm"]["grid_resolution"] == 64
    assert from_flag["results"]["seminorm"]["grid_resolution"] == 256
    assert from_flag["results"]["headline"]["value"] >= from_config["results"]["headline"]["value"]


def test_circle_family_sweep_respects_the_birkhoff_enclosure(tmp_path):
    """Sweep the rotation parameter of the standard circle family and compare
    to a brute lift iteration.  Both estimates carry the a-priori enclosure
    |displacement/n - limit| <= 1/n for monotone circle lifts, so the
    comparison and the monotonicity check below are rigorous, not heuristic."""
    k = 0.9
    n = 4096
    text = f"""
[class]
entries = 1

[map]
family = arnold
omega = 0
k = {k}

[point]
x = 0

[sweep]
command = rot-local
parameter = map.omega
values = linspace:0:1:11
"""
    rec = run_record(tmp_path, ["sweep", "--config", write(tmp_path, "arn.ini", text)])
    rows = rec["results"]["rows"]
    omegas = [float(row[0]) for row in rows]
    values = [row[1] for row in rows]

    def brute(omega):
        x = 0.0
        for _ in range(n):
            x = x + omega + k * math.sin(2.0 * math.pi * x) / (2.0 * math.pi)
        return x / n

    oracle = [brute(om) for om in omegas]
    # window estimates are displacement averages over at least 16 steps
    for v, o in zip(values, oracle):
        assert abs(v - o) <= 1.0 / 16.0 + 1.0 / n + 1e-9
    for lo, hi in zip(oracle, oracle[1:]):
        assert lo <= hi + 2.0 / n
    assert values[0] == 0.0 and rows[0][4] is True
    assert values[-1] == 1.0 and rows[-1][4] is True


# -- [check] sizes, exact shifts and the other boundary refusals ----------------

CHECK_CASES = [
    ("gk-check", "[check]\ndimensions = 0\n", "dimensions"),
    ("gk-check", "[check]\ndimensions = 1 -1\n", "dimensions"),
    ("gk-check", "[check]\ncount = 0\n", "count"),
    ("gk-check", "[check]\ncount = -1\n", "count"),
    ("split-check", SPLIT_TEXT.replace("count = 20", "count = 0"), "count"),
    ("split-check", SPLIT_TEXT.replace("count = 20", "count = -1"), "count"),
]


@pytest.mark.parametrize(
    "command, text, key", CHECK_CASES, ids=[f"{c} {t.split()[-1]} {k}" for c, t, k in CHECK_CASES]
)
def test_check_sizes_below_one_exit_2(tmp_path, capsys, command, text, key):
    # a check over no samples would report a vacuous max residual of 0
    assert cli.main([command, "--config", write(tmp_path, "c.ini", text)]) == 2
    assert f"[check] {key} must be positive" in capsys.readouterr().err


def test_split_check_refuses_the_gk_check_dimensions_with_exit_2(tmp_path, capsys):
    # split-check draws its words on the class's torus; the key would be ignored
    text = SPLIT_TEXT.replace("count = 20", "count = 20\ndimensions = 1")
    assert cli.main(["split-check", "--config", write(tmp_path, "c.ini", text)]) == 2
    assert "[check] dimensions is for gk-check" in capsys.readouterr().err


def test_check_dimensions_split_on_commas_like_every_list(tmp_path):
    def results(dims):
        path = write(tmp_path, "c.ini", f"[check]\ncount = 4\ndimensions = {dims}\n")
        return run_record(tmp_path, ["gk-check", "--config", path])["results"]

    assert results("1,2") == results("1 2")
    assert results("1,2")["dimensions"] == [1, 2]


ZERO_DENOMINATOR_CASES = {
    "map shift": ("rot-local", ROT_TEXT.replace("vector = 0.3", "vector = 0.3\nshift = 2/0")),
    "map.NAME shift": ("split-check", SPLIT_TEXT.replace("coeffs = 0.3 0.0 0.1", "coeffs = 0.3 0.0 0.1\nshift = 1/0")),
    "point fiber": ("rot-local", ROT_TEXT + "fiber = 1/0\n"),
}


@pytest.mark.parametrize("case", sorted(ZERO_DENOMINATOR_CASES))
def test_zero_denominator_shifts_exit_2(tmp_path, capsys, case):
    command, text = ZERO_DENOMINATOR_CASES[case]
    assert cli.main([command, "--config", write(tmp_path, "z.ini", text)]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["epsilon", "coeffs"])
def test_huge_shear_and_skew_coefficients_exit_2(tmp_path, capsys, key):
    path = write(tmp_path, "c.ini", NONFINITE_MAPS[key].format(v="1e308"))
    assert cli.main(["rot-mean", "--config", path]) == 2
    assert "at most 2^52" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "options"])
def test_negative_seed_exits_2(tmp_path, capsys, where):
    if where == "flag":
        assert cli.main(["gk-check", "--seed=-1"]) == 2
    else:
        assert cli.main(["gk-check", "--config", write(tmp_path, "s.ini", "[options]\nseed = -1\n")]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [("rot-homovec", HOMOVEC_TEXT), ("gk-eval", GK_TEXT)], ids=["rot-homovec", "gk-eval"])
def test_a_fiber_coordinate_leaves_base_point_routes_alone(tmp_path, command, text):
    plain = run_record(tmp_path, [command, "--config", write(tmp_path, "p.ini", text)])
    lifted = run_record(tmp_path, [command, "--config", write(tmp_path, "f.ini", text.replace("[point]", "[point]\nfiber = 1/2"))])
    assert lifted["results"]["headline"] == plain["results"]["headline"]


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(ROT_TEXT.replace("[point]", "# caf\xe9\n[point]").encode("latin-1"))
    assert cli.main(["rot-local", "--config", str(path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_a_measure_on_another_torus_exits_2(tmp_path, capsys):
    text = SKEW_TEXT.replace("kind = lebesgue", "kind = empirical\nsamples = 0.1 ; 0.6")
    assert cli.main(["rot-mean", "--config", write(tmp_path, "m.ini", text)]) == 2
    assert "measure lives on T^1, the map on T^2" in capsys.readouterr().err


# -- the front end's contract ---------------------------------------------------


def test_grid_flag_beats_a_swept_options_grid_in_every_row(tmp_path):
    text = f"""
[class]
entries = 0 1

[map]
family = skew
omega = {GOLDEN}
coeffs = 0.3 0.05 0.1

[seminorm]
mode = estimate

[options]
grid = 64

[sweep]
command = seminorm
parameter = options.grid
values = 64 128
"""
    path = write(tmp_path, "g.ini", text)
    swept = run_record(tmp_path, ["sweep", "--config", path, "--grid", "256"])
    at_flag = run_record(tmp_path, ["seminorm", "--config", path, "--grid", "256"])["results"]["headline"]
    at_64 = run_record(tmp_path, ["seminorm", "--config", path])["results"]["headline"]
    assert at_64["value"] != at_flag["value"]
    assert [row[1] for row in swept["results"]["rows"]] == [at_flag["value"]] * 2


def test_calls_in_one_process_keep_their_own_format_and_out(tmp_path, capsys):
    path = write(tmp_path, "r.ini", ROT_TEXT)
    out = tmp_path / "first.json"
    assert cli.main(["rot-local", "--config", path, "--format", "record", "--out", str(out)]) == 0
    first = out.read_text()
    assert json.loads(first)["command"] == "rot-local"
    assert capsys.readouterr().out == ""
    assert cli.main(["rot-local", "--config", path, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("key,value\n")
    assert cli.main(["rot-local", "--config", path]) == 0
    assert capsys.readouterr().out.startswith("transnum rot-local\n")
    assert out.read_text() == first


def test_options_may_come_before_or_after_the_command(tmp_path):
    path = write(tmp_path, "r.ini", ROT_TEXT)
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert cli.main(["--format", "record", "--out", str(before), "--config", path, "rot-local"]) == 0
    assert cli.main(["rot-local", "--config", path, "--format", "record", "--out", str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()


def test_help_exits_0_and_names_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    for name in cli._HANDLERS:
        assert name in text
    for option in ("--config", "--seed", "--tolerance", "--max-iterations", "--grid", "--format", "--out"):
        assert option in text
