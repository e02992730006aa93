"""One fresh interpreter per workload run (or per set-up probe).

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the checkout root, the mode and, unless it is a probe, the
workload, seed, seconds, set-up probe count and work directory. The worker
times its own set-up (import numpy, import transnum from <root>/src, kernel
warm-up), then drives transnum.cli.main(argv) in a closed loop: one job per
call, the next call only after the last returns.

mode "probe": set up and exit.
mode "run":   run deck passes until the jobs and the reference loads after
              them have taken `seconds`.
mode "trace": run whole passes untraced until they have taken seconds/2,
              then as many further passes with spans installed; result
              "passes" is the number of untraced ones.

Pass p runs jobs.deck(workload, seed, p): the same slots every pass, with
values drawn afresh, so no execution repeats an earlier input. After each
job the worker has its reference process (reference.py) run the reference
load once, so run.py can tell how fast the machine was around each job.
Each execution is appended to <work>/runs.jsonl as
[pass, slot, exit code, latency s, reference s, stdout, stderr] for run.py
to check. Set-up probes (fresh interpreters in mode "probe") run between
jobs at evenly spaced points of job time, so the set-up samples cover the
whole run; each records "after", the number of executions before it.
Writing inputs, records, reference loads and probes happens outside the
timed calls.
"""

import contextlib
import ctypes
import io
import json
import os
import resource
import subprocess
import sys
import time

PROBE_TIMEOUT_S = 60
try:
    _LIBC = ctypes.CDLL(None)
    _LIBC.sched_getcpu.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None


def _setup(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import numpy  # noqa: F401

    t1 = time.monotonic()
    import transnum
    from transnum import _kernels

    t2 = time.monotonic()
    _kernels.warmup()
    t3 = time.monotonic()
    if not os.path.realpath(transnum.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"transnum imported from {transnum.__file__}, not from {src}")
    return {
        "ready": t3,
        "import.numpy_s": t1 - t0,
        "import.transnum_s": t2 - t1,
        "kernels.warmup_s": t3 - t2,
        "backend": "numba" if _kernels.JIT_ENABLED else "python",
        "numpy": numpy.__version__,
    }


def spawn(work, name, plan, timeout, env=None):
    """Run a worker on `plan`; its result, with setup_s measured from spawn
    to ready on the system-wide monotonic clock."""
    plan_path = os.path.join(work, f"{name}.plan.json")
    result_path = os.path.join(work, f"{name}.result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), plan_path, result_path],
        capture_output=True, text=True, timeout=timeout, check=False, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup"]["setup_s"] = result["setup"]["ready"] - started
    return result


class Reference:
    """The reference process: `sample()` runs the reference load once in it
    and returns the seconds that took."""

    def __init__(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
        self.proc = subprocess.Popen(
            [sys.executable, path], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self.sample()  # wait until it has started

    def sample(self):
        # the load runs on the CPU the worker last ran on, while the worker
        # waits: the two CPUs of a small shared box slow down independently
        cpu = _LIBC.sched_getcpu() if _LIBC is not None else -1
        self.proc.stdin.write(f"{cpu}\n" if cpu >= 0 else "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited {self.proc.wait()}")
        return float(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


class Loop:
    """Closed loop around cli.main: passes, records, reference loads and
    set-up probes."""

    def __init__(self, plan, records, reference):
        import jobs
        from transnum import cli

        self.cli = cli
        self.deck = lambda p: jobs.deck(plan["workload"], plan["seed"], p)
        self.plan = plan
        self.records = records
        self.reference = reference
        self.executions = 0
        self.busy = 0.0  # seconds spent inside cli.main and the reference loads
        self.passes = 0
        n, seconds = plan["probes"], plan["seconds"]
        self.probe_at = [(i + 0.5) * seconds / n for i in range(n)]
        self.setups = []

    def probe(self):
        plan = {"root": self.plan["root"], "mode": "probe"}
        name = f"probe{len(self.setups)}"
        setup = spawn(self.plan["work"], name, plan, PROBE_TIMEOUT_S)["setup"]
        setup["after"] = self.executions
        self.setups.append(setup)

    def one(self, p, job):
        path = os.path.join(self.plan["work"], f"job{job['id']}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job["config"])
        argv = [a.replace("{config}", path) for a in job["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
                code = f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        start = time.perf_counter()
        ref = self.reference.sample()
        self.busy += latency + time.perf_counter() - start
        self.records.write(json.dumps([p, job["id"], code, latency, ref, out.getvalue(), err.getvalue()]) + "\n")
        self.executions += 1
        while self.probe_at and self.busy >= self.probe_at[0]:
            self.probe_at.pop(0)
            self.probe()
        return latency

    def until(self, seconds):
        while True:
            p = self.passes
            self.passes += 1
            for job in self.deck(p):
                self.one(p, job)
                if self.busy >= seconds:
                    return

    def run_passes(self, count, tracer=None):
        wall = 0.0
        for _ in range(count):
            p = self.passes
            self.passes += 1
            for job in self.deck(p):
                if tracer is not None:
                    tracer.job = f"{p}:{job['id']}"
                wall += self.one(p, job)
        return wall

    def finish(self):
        while self.probe_at:
            self.probe_at.pop(0)
            self.probe()


def run_loop(plan, result, result_path, reference):
    """Run the plan's jobs; fills in `result`."""
    with open(os.path.join(plan["work"], "runs.jsonl"), "w", encoding="utf-8") as records:
        loop = Loop(plan, records, reference)
        seconds = plan["seconds"]
        if plan["mode"] == "run":
            loop.until(seconds)
        else:
            from tracing import Tracer

            untraced = 0.0
            while loop.passes == 0 or untraced < seconds / 2:
                untraced += loop.run_passes(1)
            passes = loop.passes
            tracer = Tracer()
            tracer.install()
            try:
                loop.run_passes(passes, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(result_path + ".spans.jsonl.gz")
            result["passes"] = passes
            result["layers"] = tracer.layer_metrics(passes)
        loop.finish()
    # RUSAGE_SELF: the probes and the reference process, being children, do not count
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["probes"] = loop.setups


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = {"setup": _setup(plan["root"])}
    if plan["mode"] != "probe":
        reference = Reference()
        try:
            run_loop(plan, result, result_path, reference)
        finally:
            reference.close()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
