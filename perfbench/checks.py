"""Check one job's output against the truth the benchmark computed for it.

`check(job, code, stdout, stderr)` returns an Outcome. The verdict never
relies on a number the package reports about itself: values are compared
with closed forms, exact fractions, dense samples or the job's own
construction (jobs.py). Reported error bounds are compared with the true
error separately, and a bound that misses does not fail the job: the
benchmark measures it as bound_miss_frac.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

# Rounding slack when a reported bound is compared with the true error.
BOUND_SLACK = 1e-12
# Closed-form values computed two ways in floating point, and the rounding
# of an orbit sum of up to 10^5 terms of size <= 3.
CLOSED_TOL = 1e-9


@dataclass
class Outcome:
    ok: bool
    why: str = ""
    bounded: bool = False  # the job has a truth and reports an error_bound
    miss: bool = False  # |value - truth| > reported bound
    exact_truth: bool = False  # the truth is an exact number
    exact_answer: bool = False  # ... and the program answered it exactly


class Failed(Exception):
    pass


def _need(cond, why):
    if not cond:
        raise Failed(why)


def _bound(entry) -> float:
    """Reported error of a value entry: 0 for exact answers."""
    return 0.0 if entry.get("exact") else entry.get("error_bound")


def _fraction(text) -> Fraction:
    return Fraction(str(text))


def _against_truth(out: Outcome, entry: dict, truth: float, tol: float) -> None:
    value = entry["value"]
    _need(value is not None and math.isfinite(value), f"value {value!r} is not finite")
    err = abs(value - truth)
    _need(err <= tol, f"value {value!r} is {err:.3g} from the truth {truth!r}")
    bound = entry.get("error_bound")
    if not entry.get("exact") and bound is not None:
        out.bounded = True
        out.miss = err > bound + BOUND_SLACK


def _verdict_matches_exit(code: int, verdict) -> None:
    expected = 3 if verdict == "not-converged" else 0
    _need(code == expected, f"verdict {verdict!r} but exit code {code}")


def _rot(out, c, code, res):
    entry = res["rot"]
    _verdict_matches_exit(code, res["headline"]["verdict"])
    if c.get("range") is not None:
        lo, hi = c["range"]
        _need(lo - BOUND_SLACK <= entry["value"] <= hi + BOUND_SLACK, f"value {entry['value']!r} outside [{lo}, {hi}]")
        return
    if c.get("exact") is not None:
        out.exact_truth = True
        _need(entry.get("exact") is True, f"expected the exact value {c['exact']}, got {entry['value']!r}")
        _need(_fraction(entry["rational"]) == _fraction(c["exact"]), f"rational {entry['rational']} != {c['exact']}")
        out.exact_answer = True
        return
    _against_truth(out, entry, c["truth"], _orbit_tol(c, entry))


def _orbit_tol(c, entry) -> float:
    """Any n-step orbit average lies within C/n of the limit (jobs.Family);
    entries that do not report n are held to the n = 1 bound."""
    return c["ergodic"] / entry.get("iterations", 1) + CLOSED_TOL


def _homovec(out, c, code, res):
    hom, loc = res["homological"], res["endpoint_local"]
    _verdict_matches_exit(code, res["headline"]["verdict"])
    _against_truth(out, hom, c["truth"], _orbit_tol(c, hom))
    gap = abs(hom["value"] - loc["value"])
    allowed = _bound(hom) + _bound(loc) + BOUND_SLACK
    _need(gap <= allowed, f"routes disagree by {gap:.3g} > {allowed:.3g}")


def _sweep(out, c, code, text):
    _need(code == 0, f"exit code {code}")
    rows = list(csv.reader(io.StringIO(text)))
    _need(rows and rows[0] == ["map.vector", "value", "error_bound", "verdict", "exact"], f"header {rows[:1]}")
    body = rows[1:]
    _need(len(body) == c["rows"], f"{len(body)} rows, expected {c['rows']}")
    prev = -math.inf
    for vec, value, bound, verdict, exact in body:
        v = float(vec)
        _need(c["lo"] - BOUND_SLACK <= v <= c["hi"] + BOUND_SLACK and v > prev, f"axis value {vec} out of order")
        prev = v
        truth = c["a"] * v + c["shift"]
        _need(verdict in ("converged", "exact-periodic"), f"row {vec}: verdict {verdict}")
        err = abs(float(value) - truth)
        _need(err <= CLOSED_TOL, f"row {vec}: value {value} is {err:.3g} from {truth!r}")
        _need((exact == "True") == (bound == ""), f"row {vec}: exact={exact} with bound {bound!r}")
        if bound:
            out.bounded = True
            out.miss = out.miss or err > float(bound) + BOUND_SLACK


def _mean(out, c, code, res):
    _need(code == 0, f"exit code {code}")
    _against_truth(out, res["mean"], c["truth"], CLOSED_TOL)


def _gk_eval(out, c, code, res):
    _need(code == 0, f"exit code {code}")
    closed, quad = res["closed_form"], res["quadrature"]
    _need(abs(closed["value"] - c["truth"]) <= 1e-6, f"closed form {closed['value']!r} vs {c['truth']!r}")
    _against_truth(out, quad, c["truth"], 1e-6)


def _gk_check(out, c, code, res):
    _need(code == 0, f"exit code {code}")
    for name in ("coboundary", "cocycle"):
        entry = res[name]
        _need(entry["count"] == c["count"], f"{name}: {entry['count']} draws, expected {c['count']}")
        _need(entry["value"] <= c["limit"], f"{name} residual {entry['value']!r} > {c['limit']}")


def _split(out, c, code, res):
    _need(code == 0, f"exit code {code}")
    _need(res["pairs"] == c["pairs"], f"{res['pairs']} pairs, expected {c['pairs']}")
    for name in ("additivity_residual", "mean_cocycle_residual"):
        _need(res[name]["value"] <= c["limit"], f"{name} {res[name]['value']!r} > {c['limit']}")
    for gen in res["generator_invariance"]:
        _need(gen["residual"] <= c["limit"], f"generator {gen['generator']} not invariant")


def _seminorm(out, c, code, res):
    _need(code == 0, f"exit code {code}")
    entry = res["seminorm"]
    _need(entry["mode"] == "certified" and entry["rigorous"] is True, "not a certified result")
    upper = entry["upper_bound"]
    _need(upper >= c["dense_sup"], f"certified upper {upper!r} below the sampled sup {c['dense_sup']!r}")
    _need(entry["value"] <= c["sup"] + BOUND_SLACK, f"grid sup {entry['value']!r} above the true sup {c['sup']!r}")
    _against_truth(out, entry, c["sup"], math.inf)


def _cert(out, c, code, res):
    _need(code == 0, f"exit code {code}")
    const = res["seminorm_constant"]["value"]
    _need(const >= c["dense_sup"], f"seminorm constant {const!r} below the sampled sup {c['dense_sup']!r}")
    tau = res["tau_lower_bound"]["value"]
    _need((res["verdict"] == "undistorted-certified") == (tau > 0), f"verdict {res['verdict']} with tau {tau!r}")
    rot = res["rot"]
    _against_truth(out, rot, c["truth"], _orbit_tol(c, rot))


def _word_norm(out, c, code, res):
    _need(code == 0, f"exit code {code}")
    entry = res["word_norm"]
    norm = entry["value"]
    _need(norm is not None, f"target not found within radius {c['radius']}")
    _need(c["lower"] <= norm <= c["upper"], f"norm {norm} outside [{c['lower']}, {c['upper']}]")
    rows = res["translation_length"]["norms"]
    _need([r["power"] for r in rows] == list(range(1, c["powers"] + 1)), "power rows")
    for row, low in zip(rows, c["power_lower"]):
        n, got = row["power"], row["norm"]
        if c["fiber_powers"]:
            out.exact_truth = True
            _need(got == n, f"|t^{n}| = {got}, expected exactly {n}")
        elif got is not None:
            _need(low <= got <= n * c["upper"], f"|w^{n}| = {got} outside [{low}, {n * c['upper']}]")
    if c["fiber_powers"]:
        _need(norm == 1 and entry.get("exact") is True, f"|t| = {norm}")
        out.exact_answer = True


def _seifert(out, c, code, res):
    _need(code == 0, f"exit code {code}")
    out.exact_truth = True
    _need(_fraction(res["euler_number"]["value"]) == 0, "Euler number not 0")
    _need(res["convention"] == "h-positive", f"convention {res['convention']}")
    phi = res["phi"]
    _need(_fraction(phi["h"]["value"]) == c["h"], f"phi(h) = {phi['h']['value']}, expected {c['h']}")
    got_q = [_fraction(e["value"]) for e in phi["q"]]
    want_q = [_fraction(t) for t in c["q"]]
    _need(got_q == want_q, f"phi(q) = {got_q}, expected {want_q}")
    _need(len(phi["surface_generators"]) == 2 * c["genus"], "surface generator count")
    residuals = res["residuals"]
    _need(len(residuals["exceptional"]) == c["pairs"], "one residual per pair")
    for entry in residuals["exceptional"] + [residuals["long_relation"], residuals["centrality"]]:
        _need(_fraction(entry["value"]) == 0, f"nonzero residual {entry['value']}")
    entries = [res["euler_number"], phi["h"]] + phi["q"]
    out.exact_answer = all(e.get("exact") is True for e in entries)


_RECORD_CHECKS = {
    "rot": _rot,
    "homovec": _homovec,
    "mean": _mean,
    "gk-eval": _gk_eval,
    "gk-check": _gk_check,
    "split": _split,
    "seminorm": _seminorm,
    "cert": _cert,
    "word-norm": _word_norm,
    "seifert": _seifert,
}


def check(job: dict, code, stdout: str, stderr: str) -> Outcome:
    c = job["check"]
    out = Outcome(ok=False)
    try:
        _need(code in job["expect"], f"exit code {code!r}, expected one of {job['expect']}: {stderr.strip()[:200]}")
        if c["type"] == "refusal":
            _need(stdout == "" and "Euler number" in stderr, f"refusal not reported: {stderr.strip()[:200]}")
        elif c["type"] == "sweep":
            _sweep(out, c, code, stdout)
        else:
            payload = json.loads(stdout)
            _need(payload["command"] == job["argv"][0], f"record for {payload['command']}")
            _RECORD_CHECKS[c["type"]](out, c, code, payload["results"])
    except Failed as exc:
        out.why = str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.why = f"malformed output: {type(exc).__name__}: {exc}"
    else:
        out.ok = True
        return out
    # a failed job is counted in failed_frac, not in bound_miss_frac
    out.bounded = out.miss = out.exact_answer = False
    return out
