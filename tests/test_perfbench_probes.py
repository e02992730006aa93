"""The benchmark's probes still fit the package.

`perfbench/tracing.py` wraps the functions its PROBES list names and reads
some of their positional arguments (`_measure_mean`'s measure, dimension
and grid size, for one). A probed name that is renamed or deleted fails the
tracer's install, and a call that passes those arguments by keyword fails
the job: either breaks a traced benchmark run. This runs the first job of
each kind of the three decks under the installed tracer, the way
`benchmarks/output_digest.py` runs them, and one grid mean. The perfbench
modules are loaded by path and left as they are.
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


# No deck job reads a grid mean: a built-in family's Lebesgue mean is its
# constant term. The homological mean of an isotopy always walks the grid,
# past the residual's cap here, so it reaches `_measure_mean`.
HOMOVEC_MEAN = {
    "kind": "rot-homovec/lebesgue-mean",
    "argv": ["rot-homovec", "--config", "{config}", "--format", "record", "--grid", "256"],
    "config": "[class]\nentries = 1 2\n[isotopy]\nkind = skew\nomega = 0.3\ncoeffs = 0.1 0.05 0.02\n"
    "[point]\nx = 0.2 0.7\n[measure]\nkind = lebesgue\n",
    "expect": [0, 3],
}


def test_every_probe_installs_and_every_kind_of_job_runs_traced(tmp_path, monkeypatch):
    tracing, jobs = _load("tracing"), _load("jobs")
    monkeypatch.chdir(tmp_path)
    todo = _first_of_each_kind(jobs)
    todo["extra", HOMOVEC_MEAN["kind"]] = HOMOVEC_MEAN
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



GK_SWEEP = """[class]
entries = 1 0
[map]
family = sinshear
epsilon = 0.1
[map.h]
family = rigid
vector = 0 0.25
[point]
x = 0 0
[sweep]
command = gk-eval
parameter = map.epsilon
values = linspace:0:0.2:3
"""


def _plain(tree):
    """Whether tree is made only of exact dict (str keys), list, str, int,
    float, bool and None."""
    kind = type(tree)
    if kind is dict:
        return all(type(key) is str and _plain(value) for key, value in tree.items())
    if kind is list:
        return all(_plain(value) for value in tree)
    return kind in (str, int, float, bool, type(None))


def test_every_command_builds_its_results_as_plain_json(tmp_path, monkeypatch):
    """No rendering walks a report's results again (`reports.Report`), so
    every command must build them from exact JSON types: the first job of
    each kind of the three decks, and a sweep of a command other than
    rot-local."""
    jobs = _load("jobs")
    monkeypatch.chdir(tmp_path)
    built = []
    make = cli.make_report

    def recording(command, inputs, results, seed):
        built.append((command, results))
        return make(command, inputs, results, seed)

    monkeypatch.setattr(cli, "make_report", recording)
    for job in _first_of_each_kind(jobs).values():
        _run(job)
    Path(CONFIG).write_text(GK_SWEEP, encoding="utf-8")
    assert cli.main(["sweep", "--config", CONFIG, "--format", "table", "--out", "sweep.txt"]) == 0
    assert {command for command, _ in built} == set(cli._HANDLERS)
    assert built[-1][1]["swept_command"] == "gk-eval"
    assert [command for command, results in built if not _plain(results)] == []
