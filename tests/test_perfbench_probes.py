"""The benchmark's probes still fit the package.

`perfbench/tracing.py` wraps the functions its PROBES list names and reads
some of their positional arguments (`_measure_mean`'s measure, dimension
and grid size, for one). A probed name that is renamed or deleted fails the
tracer's install, and a call that passes those arguments by keyword fails
the job: either breaks a traced benchmark run. This runs the first job of
each kind of the three decks under the installed tracer, the way
`benchmarks/output_digest.py` runs them. The perfbench modules are loaded
by path and left as they are.
"""

import importlib.util
from pathlib import Path

import transnum  # noqa: F401 - the tracer wraps the package's loaded modules
from transnum import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIG = "job.ini"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _first_of_each_kind(jobs):
    seen = {}
    for workload in jobs.WORKLOADS:
        for job in jobs.deck(workload, 1, 0):
            seen.setdefault((workload, job["kind"]), job)
    return seen


def _run(job):
    Path(CONFIG).write_text(job["config"], encoding="utf-8")
    try:
        return cli.main([a.replace("{config}", CONFIG) for a in job["argv"]])
    except SystemExit as exc:  # argparse rejects bad argv this way
        return exc.code


def test_every_probe_installs_and_every_kind_of_job_runs_traced(tmp_path, monkeypatch):
    tracing, jobs = _load("tracing"), _load("jobs")
    monkeypatch.chdir(tmp_path)
    todo = _first_of_each_kind(jobs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = {key: _run(job) for key, job in todo.items()}
    finally:
        tracer.uninstall()
    bad = {key: code for key, code in codes.items() if code not in todo[key]["expect"]}
    assert not bad
    assert {"cli.main", "dynamics.measure_mean"} <= {span[0] for span in tracer.spans}
    assert not hasattr(cli.main, "__wrapped__")  # uninstalled

