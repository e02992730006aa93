"""Hypothesis fuzz of the front end: `config_from_text` plus `cli.main`.

Any INI text built from the schema's sections and keys, with each value
drawn from tokens that are valid for that key or from hostile ones, must end
in exit 0, 2, 3 or 4: never in an internal error (5), never in a hang. Every
generated run stays small: grid at most 64, max-iterations at most 256,
counts at most 8 and sweeps at most 4 rows.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from transnum import ValidationError, cli
from transnum.config import _SECTION_KEYS, config_from_text

GOLDEN = "0.6180339887498949"
HOSTILE = ["nan", "inf", "1/0", "0", "-1", "1e308", "", "junk"]

# valid tokens per (section, key); the fuzz draws a hostile one now and then
VALID = {
    ("class", "kind"): ["integer", "real"],
    ("class", "entries"): ["1", "1 0", "0 1", "1 2"],
    ("map", "family"): ["rigid", "affine", "arnold", "sinshear", "skew"],
    ("map", "vector"): ["0.3", "0.3 0.4", "1/3"],
    ("map", "matrix"): ["1", "1 0 ; 1 1", "2 1 ; 1 1"],
    ("map", "omega"): ["0.3", GOLDEN],
    ("map", "k"): ["0.5", "0.9"],
    ("map", "epsilon"): ["0.1", "-0.05"],
    ("map", "coeffs"): ["0.3 0.05 0.1", "0.2"],
    ("map", "shift"): ["0", "1", "1/3", "0.25"],
    ("point", "x"): ["0.2", "0.2 0.7"],
    ("point", "fiber"): ["0", "1/2", "0.25"],
    ("measure", "kind"): ["lebesgue", "dirac-orbit", "empirical"],
    ("measure", "point"): ["0", "0.5", "0 0"],
    ("measure", "period"): ["1", "2"],
    ("measure", "samples"): ["0.1 ; 0.6", "0.1 0.2 ; 0.3 0.4"],
    ("measure", "weights"): ["1 1", "0.5 0.5", "1"],
    ("isotopy", "kind"): ["straight", "shear", "skew"],
    ("isotopy", "vector"): ["0.3 0.4", "0.3"],
    ("isotopy", "epsilon"): ["0.1"],
    ("isotopy", "omega"): ["0.3"],
    ("isotopy", "coeffs"): ["0.3 0.05 0.1"],
    ("affine", "matrix"): ["1", "1 0 ; 0 1"],
    ("affine", "translation"): ["1/3", "1/3 0", "0 1/2"],
    ("affine", "shift"): ["0", "1", "1/2"],
    ("generators", "maps"): ["h", "u", "h u"],
    ("generators", "affine"): ["t", "t r"],
    ("generators", "target"): ["t", "r"],
    ("generators", "powers"): ["1", "3"],
    ("seminorm", "mode"): ["auto", "estimate", "certified"],
    ("seifert", "genus"): ["0", "1"],
    ("seifert", "pairs"): ["(2,1) (2,-1)", "(3,1)", "(2,1) (3,-1)"],
    ("seifert", "convention"): ["h-positive", "h-negative"],
    ("check", "count"): ["1", "8"],
    ("check", "dimensions"): ["1", "2", "1 2", "1,2"],
    ("options", "seed"): ["0", "7"],
    ("options", "tolerance"): ["1e-6", "1e-3"],
    # a word-norm BFS of radius 4096 can take seconds; 256 keeps it near 0.2 s
    ("options", "max-iterations"): ["1", "16", "256"],
    ("options", "grid"): ["8", "64"],
    ("sweep", "command"): list(cli._HANDLERS),
    ("sweep", "parameter"): ["map.omega", "map.vector", "map.k", "map.h.epsilon", "options.grid", "point.x", "check.count"],
    ("sweep", "values"): ["0.1 0.2", "linspace:0:1:2", "4 8", "0.3"],
    ("sweep", "parameter2"): ["map.k", "options.max-iterations", "point.fiber"],
    ("sweep", "values2"): ["0.1 0.5", "16"],
    ("sweep", "parameter3"): ["map.shift"],
    ("sweep", "values3"): ["1/2"],
}
SECTIONS = [
    "class", "map", "map.h", "map.u", "point", "measure", "isotopy", "affine.t",
    "affine.r", "generators", "seminorm", "seifert", "check", "options", "sweep",
]
# [options] always bounds the run; CLI flags would override it
ALWAYS = {("options", "grid"), ("options", "max-iterations")}


def test_the_fuzz_covers_every_section_and_key():
    assert {s.split(".")[0] for s in SECTIONS} == set(_SECTION_KEYS)
    assert set(VALID) == {(s, k) for s, keys in _SECTION_KEYS.items() for k in keys}


@st.composite
def ini_texts(draw):
    # one text in three is all valid tokens, so runs get past the parsers
    hostile_one_in = draw(st.sampled_from([0, 4, 32]))
    lines = []
    for section in SECTIONS:
        if section != "options" and not draw(st.booleans()):
            continue
        base = section.split(".")[0]
        lines.append(f"[{section}]")
        for key in sorted(_SECTION_KEYS[base]):
            if (base, key) in ALWAYS or draw(st.integers(0, 7)):
                hostile = hostile_one_in and not draw(st.integers(0, hostile_one_in - 1))
                lines.append(f"{key} = {draw(st.sampled_from(HOSTILE if hostile else VALID[base, key]))}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(command=st.sampled_from(list(cli._HANDLERS)), text=ini_texts(), fmt=st.sampled_from(["table", "record", "csv"]))
@example(command="gk-check", text="[check]\ndimensions = 0\n", fmt="record")
@example(command="gk-check", text="[check]\ndimensions = -1\n", fmt="record")
@example(command="gk-check", text="[check]\ncount = 0\n", fmt="record")
@example(command="split-check", text="[class]\nentries = 1 0\n[map.u]\nfamily = rigid\nvector = 0.3 0\n"
         "[generators]\nmaps = u\n[check]\ncount = -1\n", fmt="record")
@example(command="rot-local", text="[class]\nentries = 1\n[map]\nfamily = rigid\nvector = 0.3\nshift = 2/0\n", fmt="table")
@example(command="split-check", text="[class]\nentries = 1 0\n[map.u]\nfamily = rigid\nvector = 0.3 0\nshift = 1/0\n"
         "[generators]\nmaps = u\n", fmt="csv")
@example(command="rot-local", text="[class]\nentries = 1\n[map]\nfamily = rigid\nvector = 0.3\n[point]\nx = 0\nfiber = 1/0\n", fmt="table")
@example(command="rot-mean", text="[class]\nentries = 1 0\n[map]\nfamily = sinshear\nepsilon = 1e308\n", fmt="record")
@example(command="rot-mean", text="[class]\nentries = 0 1\n[map]\nfamily = skew\nomega = 0.3\ncoeffs = 0.3 1e308 0.1\n", fmt="record")
@example(command="rot-homovec", text="[class]\nentries = 0 1\n[isotopy]\nkind = skew\nomega = 0.3\ncoeffs = ,\n", fmt="record")
@example(command="rot-homovec", text="[class]\nentries = 1 0\n[isotopy]\nkind = shear\nepsilon = 0.1\nvector = 0.3 0.4\n",
         fmt="record")
@example(command="rot-local", text="[class]\nentries = 1\n[map]\nfamily = rigid\nvector = 0.3\n[options]\nmax-iterations = 1\n",
         fmt="record")
def test_front_end_exits_are_0_2_3_or_4(fuzz_dir, command, text, fmt):
    try:
        config_from_text(text)
    except ValidationError:
        pass  # the only refusal config_from_text may raise
    path = fuzz_dir / "fuzz.ini"
    path.write_text(text)
    argv = [command, "--config", str(path), "--format", fmt, "--out", str(fuzz_dir / "out")]
    assert cli.main(argv) in (0, 2, 3, 4), text
