"""INI run configurations: strict parsing and object builders.

The schema is deliberately small (see README for the full reference):

    [class]     kind = integer|real ; entries = 1 0
    [map]       family = a name in _FAMILIES + that family's keys,
                optional shift = <int | p/q | real>
    [map.NAME]  additional maps (second operand, generating sets)
    [point]     x = 0.0 0.25 ; fiber = 0
    [measure]   kind = lebesgue|dirac-orbit|empirical (+ point/period/samples)
    [isotopy]   kind = an isotopy kind in _FAMILIES + its family's keys
    [affine.NAME] matrix / translation / shift with exact rational entries
    [generators] maps = NAME... ; affine = NAME... ; target = NAME ; powers = N
    [seminorm]  mode = auto|estimate|certified
    [seifert]   genus = 0 ; pairs = (2,1) (2,-1) ; convention = h-positive
    [check]     count = 100 ; dimensions = 1 2
    [options]   seed / tolerance / max-iterations / grid (CLI flags win)
    [sweep]     command = ... ; parameter = map.omega ; values = linspace:0:1:101

Unknown sections, unknown keys and empty values are rejected outright rather
than ignored: a typo that silently falls back to a default is worse than an
error.

The text is read line by line, split at newline characters only (a form
feed or a Unicode line separator stays inside its line; `load_config` reads
its file with universal newlines, so there `\r\n` and a lone `\r` end a
line too):
  - a line whose first non-blank character is `#` or `;` is a comment; a `#`
    at the start of a line or after whitespace starts an inline comment
    (`;` never does: it separates matrix rows and sample points in values);
  - `[NAME]` opens a section; any text after the `]` other than an inline
    comment is refused, and so are a second `[NAME]` with the same name,
    keys under `[DEFAULT]` and any line before the first header;
  - `key = value` splits at the first `=`; the key is stripped and
    lower-cased, the value stripped, and a key given twice in a section or
    a line with no `=` (or nothing before it) is refused;
  - a line indented deeper than its key's line continues the value, joined
    to it with a newline; a blank or comment line ends the value.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

import numpy as np

from .distortion import ExactAffineAutomorphism
from .dynamics import BundleAutomorphism, InvariantMeasure
from .errors import ValidationError
from .families import (
    TrigPolynomial,
    arnold_circle,
    rigid_rotation,
    sinusoidal_shear,
    skew_translation,
    torus_affine,
)
from .isotopy import Isotopy, shear_isotopy, skew_isotopy, straight_isotopy
from .seifert import RelationConvention, SeifertData, parse_pairs
from .torus import BundlePoint, CohomologyClass, Coefficients, LiftedMap

SWEEP_ROW_CAP = 100_000


def _base_section(name: str) -> str:
    return name.split(".", 1)[0]


class RunConfig:
    """A validated INI file as plain `{section: {key: value}}` dicts, plus
    override helpers."""

    def __init__(self, sections: dict, source: str = "<config>"):
        self.sections = sections
        self.source = source

    def has(self, section: str) -> bool:
        return section in self.sections

    def get(self, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
        value = self.sections.get(section, {}).get(key)
        return default if value is None else value.strip()

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ValidationError(f"missing key {key!r} in section [{section}]")
        return value

    def set_override(self, section: str, key: str, value: str) -> None:
        if section not in self.sections:
            raise ValidationError(f"sweep targets missing section [{section}]")
        if key not in _SECTION_KEYS[_base_section(section)]:
            raise ValidationError(f"sweep targets unknown key {key!r} in [{section}]")
        self.sections[section][key] = value

    def clone(self) -> "RunConfig":
        return RunConfig({s: dict(keys) for s, keys in self.sections.items()}, self.source)

    def echo(self) -> dict:
        """The raw key/value content, for report payloads and digests."""
        return {s: dict(self.sections[s]) for s in sorted(self.sections)}


def _sections(text: str, where: str) -> dict:
    """`{section: {key: value}}` of INI text, read in one pass over its
    lines by the grammar of the module docstring."""
    sections, defaults = {}, {}
    current = key = None  # the open section's keys; the key a continuation extends
    indent = 0  # the indentation of that key's line

    def refuse(number: int, why: str):
        raise ValidationError(f"malformed config{where}: line {number}: {why}")

    for number, line in enumerate(text.split("\n"), 1):
        start = line.find("#")
        while start > 0 and not line[start - 1].isspace():
            start = line.find("#", start + 1)
        value = (line if start < 0 else line[:start]).strip()
        if not value or value[0] == ";":
            key = None  # a blank or comment line ends a value
            continue
        depth = len(line) - len(line.lstrip())
        if key and depth > indent:
            current[key] += "\n" + value
            continue
        indent = depth
        end = value.rfind("]")
        if value[0] == "[" and end > 1:
            if end < len(value) - 1:
                refuse(number, f"text after the section header: {value!r}")
            name = value[1:end]
            if name in sections:
                refuse(number, f"duplicate section [{name}]")
            if name == "DEFAULT":
                current = defaults
            else:
                current = sections[name] = {}
            key = None
            continue
        if current is None:
            refuse(number, f"{value!r} comes before the first section header")
        eq = value.find("=")
        key = value[:eq].rstrip().lower()
        if eq < 0 or not key:
            refuse(number, f"expected 'key = value', got {value!r}")
        if key in current:
            refuse(number, f"duplicate key {key!r}")
        current[key] = value[eq + 1 :].lstrip()
    if defaults:
        raise ValidationError("[DEFAULT] is not supported; put keys in their own sections")
    return sections


def _read(text: str, source: str, where: str) -> RunConfig:
    """Read the sections of `text`, validate every section, key and
    nonempty value once, and keep the content as plain dicts."""
    sections = _sections(text, where)
    for section, keys in sections.items():
        base = _base_section(section)
        if base not in _SECTION_KEYS:
            raise ValidationError(f"unknown config section [{section}]")
        if base != section and base not in ("map", "affine"):
            raise ValidationError(
                f"section [{section}] cannot be qualified; only map.* and affine.*"
            )
        allowed = _SECTION_KEYS[base]
        for key, value in keys.items():
            if key not in allowed:
                raise ValidationError(
                    f"unknown key {key!r} in [{section}] "
                    f"(allowed: {', '.join(sorted(allowed))})"
                )
            if not value:
                raise ValidationError(f"empty value for {key!r} in [{section}]")
    return RunConfig(sections, source)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return _read(text, path, f" {path}")


def config_from_text(text: str, source: str = "<inline>") -> RunConfig:
    return _read(text, source, "")


# -- scalar parsers ----------------------------------------------------------

_INT_RE = re.compile(r"^[+-]?\d+$")
_RATIONAL_RE = re.compile(r"^[+-]?\d+/\d+$")


def _tokens(text: str) -> list:
    return [t for t in re.split(r"[,\s]+", text.strip()) if t]


def parse_float(text: str, what: str) -> float:
    try:
        value = float(Fraction(text)) if _RATIONAL_RE.match(text) else float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"{what}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"{what}: not a finite number: {text!r}")
    return value


def parse_int(text: str, what: str) -> int:
    if not _INT_RE.match(text.strip()):
        raise ValidationError(f"{what}: not an integer: {text!r}")
    return int(text)


def parse_shift(text: str, what: str = "shift"):
    """Fiber shifts keep exact integer / rational values when written so."""
    text = text.strip()
    if _INT_RE.match(text):
        return int(text)
    if _RATIONAL_RE.match(text):
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise ValidationError(f"{what}: zero denominator: {text!r}") from exc
    return parse_float(text, what)


def _exact_rational(text: str, what: str) -> Fraction:
    """Exact entries only: integers, p/q, or finite decimals."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"{what}: exact rational required (like 2, 1/3 or 0.25), got {text!r}"
        ) from exc


def _float_list(text: str, what: str) -> list:
    return [parse_float(t, what) for t in _tokens(text)]


def _int_list(text: str, what: str) -> list:
    return [parse_int(t, what) for t in _tokens(text)]


def _matrix_rows(text: str, what: str, parse) -> list:
    rows = [r for r in text.split(";") if r.strip()]
    parsed = [[parse(t, what) for t in _tokens(r)] for r in rows]
    if not parsed or any(len(r) != len(parsed[0]) for r in parsed):
        raise ValidationError(f"{what}: ragged or empty matrix")
    return parsed


def _int_matrix(text: str, what: str) -> list:
    return _matrix_rows(text, what, parse_int)


def _trig_polynomial(text: str, what: str) -> TrigPolynomial:
    """`constant cos_1 sin_1 cos_2 sin_2 ...` as a TrigPolynomial."""
    c = _float_list(text, what)
    if not c:
        raise ValidationError(f"{what} coeffs must be nonempty (constant first)")
    return TrigPolynomial(c[0], tuple(c[1::2]), tuple(c[2::2]))


# -- the schema --------------------------------------------------------------

# Every map family once: its keys with their parsers, in constructor-argument
# order, its constructor, and the [isotopy] kind that runs through the
# family at time t, with that isotopy's constructor (same arguments).
_FAMILIES = {
    "rigid": ((("vector", _float_list),), rigid_rotation, "straight", straight_isotopy),
    "affine": ((("matrix", _int_matrix), ("vector", _float_list)), torus_affine, None, None),
    "arnold": ((("omega", parse_float), ("k", parse_float)), arnold_circle, None, None),
    "sinshear": ((("epsilon", parse_float),), sinusoidal_shear, "shear", shear_isotopy),
    "skew": (
        (("omega", parse_float), ("coeffs", _trig_polynomial)),
        skew_translation,
        "skew",
        skew_isotopy,
    ),
}
_ISOTOPY_KINDS = {kind: (keys, make) for keys, _, kind, make in _FAMILIES.values() if kind}

_SECTION_KEYS = {
    "class": {"kind", "entries"},
    "map": {"family", "shift"} | {k for keys, *_ in _FAMILIES.values() for k, _ in keys},
    "point": {"x", "fiber"},
    "measure": {"kind", "point", "period", "samples", "weights"},
    "isotopy": {"kind"} | {k for keys, _ in _ISOTOPY_KINDS.values() for k, _ in keys},
    "affine": {"matrix", "translation", "shift"},
    "generators": {"maps", "affine", "target", "powers"},
    "seminorm": {"mode"},
    "seifert": {"genus", "pairs", "convention"},
    "check": {"count", "dimensions"},
    "options": {"seed", "tolerance", "max-iterations", "grid"},
    "sweep": {
        "command",
        "parameter",
        "values",
        "parameter2",
        "values2",
        "parameter3",
        "values3",
    },
}


def _build_row(cfg: RunConfig, section: str, keys, make, own: set, owner: str):
    """`make(*values)` with every key of a table row parsed in order, after
    refusing the keys of the section that are neither the row's nor `own`."""
    stray = set(cfg.sections[section]) - own - {key for key, _ in keys}
    if stray:
        raise ValidationError(f"[{section}] keys {sorted(stray)} do not belong to {owner}")
    where = f"[{section}]"
    return make(*(parse(cfg.require(section, key), where) for key, parse in keys))


# -- object builders ---------------------------------------------------------


def build_class(cfg: RunConfig) -> CohomologyClass:
    if not cfg.has("class"):
        raise ValidationError("config needs a [class] section")
    kind = cfg.get("class", "kind", "integer").lower()
    if kind not in ("integer", "real"):
        raise ValidationError(f"[class] kind must be integer or real, got {kind!r}")
    entries_text = cfg.require("class", "entries")
    if kind == "integer":
        entries = tuple(_int_list(entries_text, "[class] entries"))
        return CohomologyClass(entries, Coefficients.INTEGER)
    entries = tuple(_float_list(entries_text, "[class] entries"))
    return CohomologyClass(entries, Coefficients.REAL)


def build_lifted_map(cfg: RunConfig, section: str) -> LiftedMap:
    if not cfg.has(section):
        raise ValidationError(f"config needs a [{section}] section")
    family = cfg.require(section, "family").lower()
    if family not in _FAMILIES:
        raise ValidationError(
            f"[{section}] family must be one of {', '.join(sorted(_FAMILIES))}"
        )
    keys, make, _, _ = _FAMILIES[family]
    return _build_row(cfg, section, keys, make, {"family", "shift"}, f"family {family!r}")


def build_bundle_map(cfg: RunConfig, section: str = "map") -> BundleAutomorphism:
    lift = build_lifted_map(cfg, section)
    shift_text = cfg.get(section, "shift")
    shift = 0 if shift_text is None else parse_shift(shift_text, f"[{section}] shift")
    return BundleAutomorphism(lift, shift)


def build_point(cfg: RunConfig, dimension: int):
    if not cfg.has("point"):
        return np.zeros(dimension)
    x = np.asarray(_float_list(cfg.require("point", "x"), "[point] x"), dtype=float)
    if x.shape != (dimension,):
        raise ValidationError(
            f"[point] x has {x.shape[0]} coordinates; the class lives on T^{dimension}"
        )
    fiber_text = cfg.get("point", "fiber")
    if fiber_text is None:
        return x
    return BundlePoint(x, parse_shift(fiber_text, "[point] fiber"))


def build_measure(cfg: RunConfig) -> InvariantMeasure:
    if not cfg.has("measure"):
        return InvariantMeasure.lebesgue()
    kind = cfg.get("measure", "kind", "lebesgue").lower().replace("-", "_")
    if kind == "lebesgue":
        return InvariantMeasure.lebesgue()
    if kind == "dirac_orbit":
        point = _float_list(cfg.require("measure", "point"), "[measure] point")
        period = parse_int(cfg.require("measure", "period"), "[measure] period")
        return InvariantMeasure.dirac_orbit(point, period)
    if kind == "empirical":
        samples = _matrix_rows(cfg.require("measure", "samples"), "[measure] samples", parse_float)
        weights_text = cfg.get("measure", "weights")
        weights = None if weights_text is None else _float_list(weights_text, "[measure] weights")
        return InvariantMeasure.empirical(samples, weights)
    raise ValidationError(
        f"[measure] kind must be lebesgue, dirac-orbit or empirical, got {kind!r}"
    )


def build_isotopy(cfg: RunConfig) -> Isotopy:
    if not cfg.has("isotopy"):
        raise ValidationError("config needs an [isotopy] section")
    kind = cfg.get("isotopy", "kind", "straight").lower()
    if kind not in _ISOTOPY_KINDS:
        *rest, last = _ISOTOPY_KINDS
        raise ValidationError(
            f"[isotopy] kind must be {', '.join(rest)} or {last}, got {kind!r}"
        )
    keys, make = _ISOTOPY_KINDS[kind]
    return _build_row(cfg, "isotopy", keys, make, {"kind"}, f"kind {kind!r}")


def build_affine(cfg: RunConfig, name: str) -> ExactAffineAutomorphism:
    section = f"affine.{name}"
    if not cfg.has(section):
        raise ValidationError(f"config needs a [{section}] section")
    where = f"[{section}]"
    matrix = _matrix_rows(cfg.require(section, "matrix"), where, parse_int)
    translation = [
        _exact_rational(t, where) for t in _tokens(cfg.require(section, "translation"))
    ]
    shift_text = cfg.get(section, "shift")
    shift = Fraction(0) if shift_text is None else _exact_rational(shift_text, where)
    return ExactAffineAutomorphism(
        tuple(tuple(r) for r in matrix), tuple(translation), shift
    )


def generator_names(cfg: RunConfig, key: str) -> list:
    text = cfg.get("generators", key)
    return [] if text is None else _tokens(text)


def build_bundle_generators(cfg: RunConfig) -> list:
    names = generator_names(cfg, "maps")
    if not names:
        raise ValidationError("[generators] maps must name at least one [map.NAME]")
    return [(name, build_bundle_map(cfg, f"map.{name}")) for name in names]


def build_affine_generators(cfg: RunConfig) -> list:
    names = generator_names(cfg, "affine")
    if not names:
        raise ValidationError("[generators] affine must name at least one [affine.NAME]")
    return [(name, build_affine(cfg, name)) for name in names]


def build_seifert(cfg: RunConfig):
    if not cfg.has("seifert"):
        raise ValidationError("config needs a [seifert] section")
    genus = parse_int(cfg.require("seifert", "genus"), "[seifert] genus")
    pairs = parse_pairs(cfg.require("seifert", "pairs"), "[seifert] pairs")
    data = SeifertData(genus, pairs)
    conv_text = cfg.get("seifert", "convention")
    convention = None
    if conv_text is not None:
        try:
            convention = RelationConvention(conv_text.strip().lower())
        except ValueError as exc:
            raise ValidationError(
                f"[seifert] convention must be h-positive or h-negative, got {conv_text!r}"
            ) from exc
    return data, convention


# -- sweep expansion ---------------------------------------------------------

_LINSPACE_RE = re.compile(r"^linspace:([^:]+):([^:]+):(\d+)$")


def _expand_values(text: str, what: str) -> list:
    text = text.strip()
    m = _LINSPACE_RE.match(text)
    if m:
        lo = parse_float(m.group(1), what)
        hi = parse_float(m.group(2), what)
        count = int(m.group(3))
        if count < 1:
            raise ValidationError(f"{what}: linspace needs at least one point")
        if count > SWEEP_ROW_CAP:  # refused before any value is made
            raise ValidationError(f"{what}: linspace of {count} points; the cap is {SWEEP_ROW_CAP} rows")
        return [repr(float(v)) for v in np.linspace(lo, hi, count)]
    values = _tokens(text)
    if not values:
        raise ValidationError(f"{what}: empty value list")
    return values


def parse_sweep(cfg: RunConfig):
    """-> (command, [(section, key, [value strings]), ...]) in declared order."""
    if not cfg.has("sweep"):
        raise ValidationError("config needs a [sweep] section")
    command = cfg.require("sweep", "command").strip()
    axes = []
    for suffix in ("", "2", "3"):
        param = cfg.get("sweep", f"parameter{suffix}")
        values = cfg.get("sweep", f"values{suffix}")
        if param is None and values is None:
            continue
        if param is None or values is None:
            raise ValidationError(
                f"[sweep] parameter{suffix} and values{suffix} must come together"
            )
        if "." not in param:
            raise ValidationError(
                f"[sweep] parameter must be section.key, got {param!r}"
            )
        section, key = param.rsplit(".", 1)
        axes.append((section, key, _expand_values(values, f"[sweep] values{suffix}")))
    if not axes:
        raise ValidationError("[sweep] needs at least parameter/values")
    rows = 1
    for _, _, vals in axes:
        rows *= len(vals)
    if rows > SWEEP_ROW_CAP:
        raise ValidationError(
            f"sweep would produce {rows} rows; the cap is {SWEEP_ROW_CAP}"
        )
    return command, axes
