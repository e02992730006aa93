#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

It asserts that every pass of a deck has the same slots, that
BENCHMARK.json records each workload's tail percentile, that every metric
BENCHMARK.json names is emitted, with its unit, on the last line of
run.py's output for every workload in both modes, that the seed code
passes every check, and that a deliberately wrong truth is counted in
failed_frac, so the checks can fail. The metric units come from
BENCHMARK.json; what is tested is that the benchmark emits exactly the
names listed there and each with a unit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import jobs
import run as bench
from tracing import PREDICTIONS

HERE = os.path.dirname(os.path.abspath(__file__))


def corrupt_one_truth(deck):
    """Falsify the truth of the first slot that has one."""
    for job in deck:
        c = job["check"]
        if c.get("exact") is not None:
            c["exact"] = str(Fraction(c["exact"]) + 1)
        elif c.get("truth") is not None:
            c["truth"] += 0.5
        elif c["type"] == "seifert":
            c["h"] += 1
        elif c["type"] == "word-norm":
            c["upper"] = 0
        else:
            continue
        return job["kind"]
    raise AssertionError("no job with a truth to corrupt")


def last_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=False, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert set(wanted[1]) == set(PREDICTIONS), "per_layer differs from tracing.PREDICTIONS"
    for entry in spec["workloads"]:
        workload = entry["name"]
        slots = [[job["kind"] for job in jobs.deck(workload, 1, p)] for p in range(3)]
        assert slots[0] == slots[1] == slots[2], f"{workload}: passes differ in their slots"
        tail = f"job_tail_ms is p{bench.tail_percentile(len(slots[0])):.1f}"
        assert tail in entry["why"], f"{workload}: BENCHMARK.json should say {tail!r}"
        for trace in (0, 1):
            line = last_line(workload, trace)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == wanted[trace], f"{workload} trace {trace}: {sorted(set(got) ^ set(wanted[trace]))}"
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
            print(f"PASS {workload} trace {trace}: {len(got)} metrics with units, {line['attempted']} jobs checked")
        # a traced run runs whole passes, so the falsified slot is executed
        state = {}
        doc = bench.run(root, workload, 1, 1, 1, mutate=lambda deck: state.setdefault("kind", corrupt_one_truth(deck)))
        frac = doc["metrics"]["failed_frac"]["value"]
        assert not doc["correct"] and frac > 0, f"{workload}: a wrong truth for {state['kind']} went unnoticed"
        print(f"PASS {workload}: wrong truth for {state['kind']} gives failed_frac {frac:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
