#!/usr/bin/env python3
"""Digest every output of the perfbench job decks, one sha256 per workload.

Runs each job of the decks that `perfbench/jobs.py` builds (passes 0 to
--passes - 1 of every seed) through `transnum.cli.main` in this process, and
hashes, in deck order, each job's exit code, its stdout with the
`[timing]` lines left out, and its stderr. Two checkouts that print the same
digests gave byte-identical outputs on every job; a change meant to keep
every output the same is checked by running this script in both:

    python3 benchmarks/output_digest.py                 # passes 0-2, seeds 1 and 2718
    python3 benchmarks/output_digest.py --passes 1 --workload quadrature-checks

The package is imported from the checkout's src/ directory, the decks from
its perfbench/jobs.py (nothing under perfbench/ is changed). Each job's
config is written to `job.ini` in a temporary directory that is the working
directory while the job runs, so no output depends on where that is.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # as the benchmark's worker runs

import jobs  # noqa: E402
from transnum import cli  # noqa: E402

CONFIG = "job.ini"


def run_job(job):
    """(exit code, stdout without [timing] lines, stderr) of one job, run
    in the current directory."""
    with open(CONFIG, "w", encoding="utf-8") as fh:
        fh.write(job["config"])
    argv = [a.replace("{config}", CONFIG) for a in job["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raising job is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    stdout = "".join(line for line in out.getvalue().splitlines(keepends=True) if not line.startswith("[timing]"))
    return code, stdout, err.getvalue()


def digest(workload, seeds, passes):
    """(sha256 hex digest, job count) over every job of the workload's decks."""
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        for p in range(passes):
            for job in jobs.deck(workload, seed, p):
                h.update(json.dumps([seed, p, job["id"], *run_job(job)]).encode() + b"\n")
                count += 1
    return h.hexdigest(), count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["all", *jobs.WORKLOADS], default="all")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2718])
    parser.add_argument("--passes", type=int, default=3, help="deck passes per seed, from pass 0")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be positive")
    workloads = list(jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload in workloads:
                hexdigest, count = digest(workload, args.seeds, args.passes)
                print(f"{workload:<18} {count:>4} jobs  sha256 {hexdigest}", flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
