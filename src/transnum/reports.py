"""Structured run reports and their three renderings (table/record/csv).

The `record` format is the reproducibility contract: the JSON payload holds
the command, the raw config echo with a digest, every numeric result paired
with an error bound or an exact marker, and the provenance (package version
and seed) — but never wall-clock timing, so identical seeded runs serialize
to identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import io
import json
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .errors import ValidationError


def jsonable(value):
    """Coerce the numeric zoo (numpy scalars, fractions, arrays) to JSON."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    if isinstance(value, float):
        return float(value)  # normalizes numpy float subclasses too
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    raise ValidationError(f"cannot serialize {type(value).__name__} into a report")


def value_entry(value, *, error_bound=None, exact: bool = False, **extra) -> dict:
    """A single reported number: value + (error bound | exact marker).

    error_bound=None with exact=False serializes as null — an explicit
    "no bound is claimed" (one-sided grid estimates)."""
    entry = {"value": jsonable(value)}
    if exact:
        entry["exact"] = True
    else:
        entry["error_bound"] = jsonable(error_bound)
    for k, v in extra.items():
        if v is not None:
            entry[k] = jsonable(v)
    return entry


@dataclasses.dataclass
class Report:
    command: str
    inputs: dict
    results: dict
    provenance: dict
    timing_seconds: Optional[float] = None

    def payload(self) -> dict:
        inputs = jsonable(self.inputs)
        return {
            "command": self.command,
            "inputs": inputs,
            "inputs_digest": digest_of(inputs),
            "results": jsonable(self.results),
            "provenance": jsonable(self.provenance),
        }

    def to_record(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2, allow_nan=False) + "\n"


def digest_of(data) -> str:
    blob = json.dumps(jsonable(data), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make_report(command: str, inputs: dict, results: dict, seed) -> Report:
    return Report(
        command=command,
        inputs=inputs,
        results=results,
        provenance={"package": "transnum", "version": __version__, "seed": seed},
    )


# -- renderings ---------------------------------------------------------------


def _flatten(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for k in value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, value))


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return " ".join(_cell(v) for v in value)
    if value is None:
        return ""
    return str(value)


def render_table(report: Report) -> str:
    """Aligned key/value lines; sweeps render their rows as a real table."""
    lines = [f"transnum {report.command}"]
    results = jsonable(report.results)
    if "rows" in results and "columns" in results:
        cols = results["columns"]
        cells = [[_cell(v) for v in row] for row in results["rows"]]
        widths = [
            max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(cols)
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip())
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        meta = {k: v for k, v in results.items() if k not in ("rows", "columns")}
    else:
        meta = results
    flat: list = []
    _flatten("", meta, flat)
    if flat:
        width = max(len(k) for k, _ in flat)
        for key, value in flat:
            lines.append(f"{key.ljust(width)}  {_cell(value)}")
    if report.timing_seconds is not None:
        lines.append(f"[timing] {report.timing_seconds:.3f}s (not part of the payload)")
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """Sweeps: fixed documented column order. Other commands: key,value rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    results = jsonable(report.results)
    if "rows" in results and "columns" in results:
        writer.writerow(results["columns"])
        for row in results["rows"]:
            writer.writerow([_cell(v) for v in row])
    else:
        writer.writerow(["key", "value"])
        flat: list = []
        _flatten("", results, flat)
        for key, value in flat:
            writer.writerow([key, _cell(value)])
    return buf.getvalue()


def render(report: Report, fmt: str) -> str:
    if fmt == "table":
        return render_table(report)
    if fmt == "record":
        return report.to_record()
    if fmt == "csv":
        return render_csv(report)
    raise ValidationError(f"unknown format {fmt!r}")
