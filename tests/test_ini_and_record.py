"""The config reader and the record writer against their stdlib references.

`config._sections` reads INI text in one pass. `configparser`, set up as the
reader used to be (`=` only, inline `#` comments, no empty lines in values,
no interpolation), stays here as the reference: on every text both give the
same `{section: {key: value}}` dicts or both refuse it, once the reference
is made to refuse a section header with text after its `]`. That header is
the one input on which the two differ: configparser reads it as the header
alone.

`reports._write_json` writes records without the stdlib's indenting
encoder; its text must be `json.dumps(x, sort_keys=True, indent=2,
allow_nan=False)` to the byte.
"""

import configparser
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from transnum import ValidationError, config, reports

# -- the config reader -------------------------------------------------------


class _ClosedHeader:
    """configparser's section-header pattern, refusing text after the `]`."""

    def match(self, value):
        found = configparser.ConfigParser.SECTCRE.match(value)
        if found and not value.endswith("]"):
            raise configparser.Error(f"text after the section header: {value!r}")
        return found


def _reference(text, closed_headers=True):
    """configparser's dicts of `text` as the reader used to read it, or None
    where it refused the text; with `closed_headers`, a header line with
    text after its `]` is refused too."""
    parser = configparser.ConfigParser(
        interpolation=None,
        delimiters=("=",),
        inline_comment_prefixes=("#",),
        empty_lines_in_values=False,
    )
    if closed_headers:
        parser.SECTCRE = _ClosedHeader()
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    if parser.defaults():
        return None
    return {s: dict(parser[s]) for s in parser.sections()}


def _read(text):
    try:
        return config._sections(text, "")
    except ValidationError:
        return None


HEADERS = [
    "[class]", "[map]", "[map.h]", "[point]", "[Map]", "[DEFAULT]", "[ map ]", "[a]]", "[]",
    "[map] # note", "[map]# note", "[map] trailing", "[map] ]", "[map", "[map]\x0c",
]
KEYS = ["entries", "Entries", "KIND", "family", "x", "vector", "x y", "Ä", "Straße", "a#b", ""]
DELIMITERS = [" = ", "=", "  =\t", " =", "= "]
VALUES = [
    "1 0", "rigid", "0.3 # inline", "a#b", "a ; b", "x\x0cy", "x y", "", "v = w",
    "[map]", "#", " 1 ", "é",
]
OTHER_LINES = [
    "", "   ", "# comment", "; comment", "  # comment", "\t; comment", "#", ";", "junk", "= 5",
    "\x0c", " ",
]
INDENTS = ["", "", " ", "  ", "\t", "\x0c"]


@st.composite
def ini_lines(draw):
    kind = draw(st.sampled_from(["header", "key", "key", "key", "other"]))
    if kind == "header":
        line = draw(st.sampled_from(HEADERS))
    elif kind == "key":
        line = draw(st.sampled_from(KEYS)) + draw(st.sampled_from(DELIMITERS)) + draw(st.sampled_from(VALUES))
    else:
        line = draw(st.sampled_from(OTHER_LINES))
    return draw(st.sampled_from(INDENTS)) + line


@st.composite
def ini_texts(draw):
    lines = draw(st.lists(ini_lines(), max_size=12))
    if draw(st.integers(0, 3)):  # most texts open with a header, so many are read
        lines.insert(0, draw(st.sampled_from(HEADERS[:5])))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings)) + draw(st.sampled_from(["", "x = 1"]))


@settings(max_examples=400)
@given(ini_texts())
@example("[class]\nentries = 1\n  0\n\n  1\n")  # a blank line ends the value
@example("[class]\nEntries = 1\nentries = 2\n")  # keys are lower-cased before the duplicate test
@example("[class]\n[class]\n")
@example("[DEFAULT]\n[class]\nentries = 1\n")  # an empty [DEFAULT] is ignored
@example("[DEFAULT]\nseed = 1\n")
@example("entries = 1\n[class]\n")
@example("[class]\nentries\n")
@example("[class]\n = 1\n")
@example("[class]\r\nentries = 1 \x0c0  2\r\n")
@example("[class]\nentries = 1\n\x0c 0\n")  # \x0c indents: a continuation
@example("[class] trailing\nentries = 1\n")
def test_the_reader_agrees_with_configparser(text):
    ours = _read(text)
    assert ours == _reference(text), text
    if ours != _reference(text, closed_headers=False):
        with pytest.raises(ValidationError, match="text after the section header"):
            config._sections(text, "")


@pytest.fixture(scope="module")
def ini_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ini")


def _outcome(read, arg):
    try:
        return read(arg).sections
    except ValidationError:
        return None


@settings(max_examples=200)
@given(text=ini_texts())
def test_a_file_reads_as_its_text(ini_dir, text):
    path = ini_dir / "run.ini"
    path.write_text(text, encoding="utf-8")
    assert _outcome(config.load_config, str(path)) == _outcome(config.config_from_text, text)


# -- the record writer -------------------------------------------------------

SPECIAL_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", "\ud800", "a\nb", ""]
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1.5e-7, 1e16, 0.1]
texts = st.text() | st.sampled_from(SPECIAL_TEXT)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(SPECIAL_FLOATS)
    | texts
)
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=30,
)


def _written(tree):
    out = []
    reports._write_json(tree, "\n", out)
    return "".join(out)


@settings(max_examples=400)
@given(trees)
@example({})
@example([])
@example({"b": [], "a": {}, "": [{}], "é": [[]]})
@example([-0.0, 5e-324, 2**100, -(2**70), True, False, None])
def test_the_writer_matches_json_dumps(tree):
    assert _written(tree) == json.dumps(tree, sort_keys=True, indent=2, allow_nan=False)


@given(trees, st.sampled_from([math.nan, math.inf, -math.inf]))
def test_the_writer_refuses_non_finite_floats(tree, bad):
    for placed in (bad, [tree, bad], {"a": {"b": [bad]}, "c": tree}):
        with pytest.raises(ValueError):
            _written(placed)


def test_a_payload_walks_its_inputs_once(monkeypatch):
    inputs = {"class": {"entries": "1"}, "map": {"family": "rigid", "vector": "0.3"}}
    report = reports.make_report("rot-local", inputs, {"headline": reports.value_entry(0.3, exact=True)}, 0)
    walks = []
    walk = reports.jsonable

    def counted(value):
        walks.append(value == inputs)
        return walk(value)

    monkeypatch.setattr(reports, "jsonable", counted)
    payload = report.payload()
    assert sum(walks) == 1
    assert payload["inputs_digest"] == reports.digest_of(inputs)
