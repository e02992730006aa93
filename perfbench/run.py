#!/usr/bin/env python3
"""transnum benchmark: three seeded workloads driven through transnum.cli.main.

    python3 perfbench/run.py --workload orbit-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of the traced run instead. The lines before it print
every metric by name and unit, the per-kind latency table and any failing
job. A copy with provenance goes to perfbench/results/.

One fresh worker interpreter runs the closed loop, so peak_rss_mb belongs
to this workload alone. Between its jobs it starts SETUP_PROBES fresh
interpreters that only set up, spread evenly over the run; setup_s is the
median of those starts and the worker's own, and the import split comes
from that same start.

The loop runs deck passes: the same slots each pass, values drawn afresh
from the seed and the pass index (jobs.py), so each slot runs k times on k
different inputs (k is about 20 to 30 at --seconds 30 on a 2-core box).
Every execution is checked against the truth computed for its own input,
never against the package's own answer.

Every time is scaled to a reference machine. On a small shared box the
speed of each CPU drifts by a third and more within seconds, and slow
phases can span whole runs; a plain wall-clock time measures the
neighbours as much as the program. After each job the worker has a
separate process run a fixed reference load (reference.py, which never
imports transnum) on the CPU the job ran on. A time is multiplied by
REFERENCE_S over the median reference time of the executions near it, so
it reads as the time the job would take on a machine that runs the
reference load in REFERENCE_S. A change to the program moves the job times
and not the reference, so it shows in full. A slot's latency is the median
of its k scaled times; the latency percentiles and jobs_per_s are taken
over the slots' latencies. The unscaled figures go to the result file as
"unscaled_metrics".
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

import checks
import jobs as jobmod
from tracing import PREDICTIONS
from worker import spawn

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_PROBES = 10
# numpy's BLAS would otherwise spread a job over both cores of a small box
# and share them with nothing else the benchmark controls
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# job_tail_ms is the highest percentile with this many slots beyond it
TAIL_BEYOND = 10
# Timings are scaled to a machine on which reference.load() takes this long:
# each is multiplied by REFERENCE_S over the median reference time of the
# executions at most REFERENCE_WINDOW places from it.
REFERENCE_S = 4e-3
REFERENCE_WINDOW = 10


class BenchError(Exception):
    pass


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    data = sorted(values)
    k = (len(data) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (k - lo)


def tail_percentile(n):
    """The percentile that falls on the slot with TAIL_BEYOND slots beyond it."""
    return 100.0 * max(0, n - 1 - TAIL_BEYOND) / max(1, n - 1)


def _git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root, workload, seed, setup):
    prov = {
        "workload": workload,
        "seed": seed,
        "backend": setup["backend"],
        "python": platform.python_version(),
        "numpy": setup["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "client": "one closed-loop client, one job per transnum.cli.main call",
    }
    if importlib.util.find_spec("numba") is not None:
        import numba

        prov["numba"] = numba.__version__
    return prov


def speed_scales(refs):
    """For each execution, REFERENCE_S over the median reference time of
    the executions within REFERENCE_WINDOW of it: the factor that takes a
    time measured then to the reference machine."""
    n = len(refs)
    return [
        REFERENCE_S / statistics.median(refs[max(0, i - REFERENCE_WINDOW):min(n, i + REFERENCE_WINDOW + 1)])
        for i in range(n)
    ]


def _checked(workload, seed, path, mutate):
    """[(pass, slot, exit code, scaled latency s, Outcome, latency s)] for
    every execution, each checked against the deck its pass was drawn from,
    and the executions' speed scales."""
    decks = {}
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            p, slot, code, latency, ref, text, errs = json.loads(line)
            if p not in decks:
                decks[p] = jobmod.deck(workload, seed, p)
                if mutate is not None:
                    mutate(decks[p])
            records.append((p, slot, code, latency, ref, checks.check(decks[p][slot], code, text, errs)))
    refs = [r[4] for r in records]
    scales = speed_scales(refs)
    runs = [(p, slot, code, lat * f, outcome, lat) for (p, slot, code, lat, _ref, outcome), f in zip(records, scales)]
    return runs, scales, refs


def slot_latencies(runs, scaled=True):
    """Each slot's median latency over the given executions."""
    times = defaultdict(list)
    for _p, slot, _code, lat, _o, raw in runs:
        times[slot].append(lat if scaled else raw)
    return {slot: statistics.median(v) for slot, v in times.items()}


def _median_start(starts, key):
    """The start whose `key` is the median (the lower one of an even count)."""
    return sorted(starts, key=lambda s: s[key])[(len(starts) - 1) // 2]


def _quality(outcomes):
    n = len(outcomes)
    bounded = [o for o in outcomes if o.bounded]
    exact = [o for o in outcomes if o.exact_truth]
    return {
        "failed_frac": sum(not o.ok for o in outcomes) / n,
        "bound_miss_frac": sum(o.miss for o in bounded) / len(bounded) if bounded else 0.0,
        "exact_frac": sum(o.exact_answer for o in exact) / len(exact) if exact else 0.0,
    }


def _job_metrics(latencies, tail_p):
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": percentile(latencies, 50) * 1e3,
        "job_tail_ms": percentile(latencies, tail_p) * 1e3,
    }


def run(root, workload, seed, seconds, trace, mutate=None):
    """Run one workload; returns the result document (see main). `mutate`
    may edit each pass's deck before its executions are checked."""
    if not os.path.isfile(os.path.join(root, "src", "transnum", "__init__.py")):
        raise BenchError(f"no transnum package under {os.path.join(root, 'src')}; run from a checkout root")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    deck = jobmod.deck(workload, seed)
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        plan = {
            "root": root, "mode": "trace" if trace else "run", "workload": workload, "seed": seed,
            "seconds": seconds, "probes": SETUP_PROBES, "work": work,
        }
        try:
            worker = spawn(work, "worker", plan, 3 * seconds + 120, env={**os.environ, **WORKER_ENV})
        except RuntimeError as exc:
            raise BenchError(str(exc)) from exc
        runs, scales, refs = _checked(workload, seed, os.path.join(work, "runs.jsonl"), mutate)
        results_dir = os.path.join(HERE, "results")
        os.makedirs(results_dir, exist_ok=True)
        stem = os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(bool(trace))}")
        if trace:
            shutil.move(os.path.join(work, "worker.result.json.spans.jsonl.gz"), stem + ".spans.jsonl.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not runs:
        raise BenchError("the worker ran no job")

    outcomes = [r[4] for r in runs]
    quality = _quality(outcomes)
    # each start scaled by the machine's speed at the execution before it;
    # the worker's own start comes before the first
    starts = []
    for start in [{**worker["setup"], "after": 0}] + worker["probes"]:
        f = scales[max(0, start["after"] - 1)]
        starts.append({**start, "unscaled_setup_s": start["setup_s"], "setup_s": start["setup_s"] * f})
    setup = _median_start(starts, "setup_s")
    if trace:
        metrics = dict(worker["layers"])
        f = setup["setup_s"] / setup["unscaled_setup_s"]
        for k in ("import.numpy_s", "import.transnum_s", "kernels.warmup_s"):
            metrics[k] = setup[k] * f
        # traced against untraced latencies, slot by slot
        untraced = slot_latencies(r for r in runs if r[0] < worker["passes"])
        traced = slot_latencies(r for r in runs if r[0] >= worker["passes"])
        metrics["trace.overhead_frac"] = sum(traced.values()) / sum(untraced[k] for k in traced) - 1.0
        metrics.update(quality)
        predictions = {name: {"moves": moves, "bypass": bypass} for name, (moves, bypass) in PREDICTIONS.items()}
        reported = {m["name"] for m in spec["per_layer"]}
    else:
        slots = slot_latencies(runs)
        tail_p = tail_percentile(len(slots))
        metrics = {"setup_s": setup["setup_s"], **_job_metrics(list(slots.values()), tail_p),
                   "peak_rss_mb": worker["peak_rss_mb"]}
        metrics.update(quality)
        predictions = {}
        reported = {m["name"] for m in spec["end_to_end"]}

    by_kind = defaultdict(lambda: {"runs": 0, "failed": 0, "latency_ms": []})
    failures = {}
    kinds = {job["id"]: job["kind"] for job in deck}
    for p, slot, code, lat, outcome, _raw in runs:
        row = by_kind[kinds[slot]]
        row["runs"] += 1
        row["latency_ms"].append(lat * 1e3)
        if not outcome.ok:
            row["failed"] += 1
            failures.setdefault(f"{p}:{slot}", {"kind": kinds[slot], "exit": code, "why": outcome.why})
    kind_table = {
        k: {"runs": v["runs"], "failed": v["failed"], "p50_ms": percentile(v["latency_ms"], 50), "max_ms": max(v["latency_ms"])}
        for k, v in sorted(by_kind.items())
    }
    doc = {
        "provenance": provenance(root, workload, seed, worker["setup"]),
        "settings": {
            "seconds": seconds, "trace": int(bool(trace)), "deck_jobs": len(deck), "passes_started": len({r[0] for r in runs}),
            "worker_env": WORKER_ENV,
        },
        "setup_s_samples": [s["setup_s"] for s in starts],
        "unscaled_setup_s_samples": [s["unscaled_setup_s"] for s in starts],
        "speed_scale": {"min": min(scales), "median": statistics.median(scales), "max": max(scales)},
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k], **predictions.get(k, {})} for k, v in metrics.items()},
        "reported": sorted(reported),
        "kinds": kind_table,
        "failures": failures,
    }
    if not trace:
        counts = [sum(1 for r in runs if r[1] == slot) for slot in slots]
        doc["settings"]["tail_percentile"] = tail_p
        doc["runs_per_slot"] = [min(counts), max(counts)]
        doc["slots_beyond_tail"] = sum(v > metrics["job_tail_ms"] / 1e3 for v in slots.values())
        # [pass, slot, unscaled latency s, reference s] in the order run
        doc["executions"] = [[r[0], r[1], r[5], ref] for r, ref in zip(runs, refs)]
        doc["unscaled_metrics"] = {
            "setup_s": _median_start(starts, "unscaled_setup_s")["unscaled_setup_s"],
            **_job_metrics(list(slot_latencies(runs, scaled=False).values()), tail_p),
        }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return doc


def _print_report(doc):
    prov, settings = doc["provenance"], doc["settings"]
    print(f"transnum benchmark: {prov['workload']} seed {prov['seed']} trace {settings['trace']} "
          f"backend {prov['backend']} python {prov['python']} numpy {prov['numpy']} nproc {prov['nproc']}")
    print(f"{doc['attempted']} jobs ({settings['deck_jobs']} slots a pass, {settings['passes_started']} passes), "
          f"{doc['failed']} failed; setup_s is the median of {len(doc['setup_s_samples'])} starts; "
          f"times are scaled to the reference machine by {doc['speed_scale']['median']:.3f} (median)")
    if "runs_per_slot" in doc:
        lo, hi = doc["runs_per_slot"]
        print(f"latency of a slot is the median of its {lo} to {hi} runs; job_tail_ms is p{settings['tail_percentile']:.1f}, "
              f"with {doc['slots_beyond_tail']} slots beyond it")
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in doc["unscaled_metrics"].items()))
    for name, m in doc["metrics"].items():
        moves = f"  moves {m['moves']}; bypass {m['bypass']}" if "moves" in m else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s}{moves}")
    print("  kind                               runs  failed    p50_ms    max_ms")
    for kind, row in doc["kinds"].items():
        print(f"  {kind:34s} {row['runs']:5d} {row['failed']:7d} {row['p50_ms']:9.2f} {row['max_ms']:9.2f}")
    for key, f in doc["failures"].items():
        print(f"  FAILED pass:slot {key} ({f['kind']}, exit {f['exit']}): {f['why']}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in doc["metrics"].items() if k in doc["reported"]},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobmod.WORKLOADS) + ["all"],
                        help='"all" runs every workload in turn and prints each report')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workloads = list(jobmod.WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            doc = run(os.getcwd(), workload, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        _print_report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
