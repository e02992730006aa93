"""Spans around the package's public functions, installed from outside.

`Tracer.install()` replaces each function listed in PROBES, in every
transnum module that binds it, by a wrapper that appends a span
[name, start, end, parent, job, work] to an in-memory list. `work` is the
count the probe extracts at that boundary (orbit steps, grid points,
quadrature points, bytes rendered, ...). Nothing under src/ is edited.

`layer_metrics()` turns the spans into the per-layer metrics of
BENCHMARK.json. A layer's busy time is the time covered by its outermost
spans (callees included); cli.self_s is the cli span minus the time its
child spans cover. Counts and times are per deck pass. Every pass has the
same slots, so counts fixed by the slots (calls, grid points, BFS balls)
repeat exactly; value-dependent ones (orbit steps to convergence) vary a
little with the draws.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# Each per-layer metric of BENCHMARK.json: the end-to-end metric and workload
# it should move, and the workload where it should not ("-" for none).
PREDICTIONS = {
    "import.numpy_s": ("baseline for setup_s, all workloads", "-"),
    "import.transnum_s": ("setup_s, all workloads", "-"),
    "kernels.warmup_s": ("setup_s, all workloads", "-"),
    "cli.calls": ("job_p50_ms, exact-words", "-"),
    "cli.self_s": ("job_p50_ms, exact-words", "-"),
    "config.calls": ("job_p50_ms, exact-words", "-"),
    "config.busy_s": ("job_p50_ms, exact-words", "-"),
    "reports.renders": ("job_p50_ms, orbit-sweep", "quadrature-checks"),
    "reports.bytes": ("job_p50_ms, orbit-sweep", "quadrature-checks"),
    "reports.busy_s": ("job_p50_ms, orbit-sweep", "quadrature-checks"),
    "kernels.orbit_steps": ("jobs_per_s, orbit-sweep", "exact-words"),
    "kernels.orbit_busy_s": ("jobs_per_s, orbit-sweep", "exact-words"),
    "kernels.ns_per_step": ("jobs_per_s, orbit-sweep", "exact-words"),
    "kernels.grid_points": ("jobs_per_s, orbit-sweep", "exact-words"),
    "kernels.grid_busy_s": ("jobs_per_s, orbit-sweep", "exact-words"),
    "families.rigid.ns_per_step": ("job_p50_ms, orbit-sweep", "exact-words"),
    "families.affine.ns_per_step": ("job_p50_ms, orbit-sweep", "exact-words"),
    "families.arnold.ns_per_step": ("job_p50_ms, orbit-sweep", "exact-words"),
    "families.sinshear.ns_per_step": ("job_p50_ms, orbit-sweep", "exact-words"),
    "families.skew.ns_per_step": ("job_p50_ms, orbit-sweep", "exact-words"),
    "dynamics.local_calls": ("job_tail_ms, orbit-sweep", "exact-words"),
    "dynamics.local_busy_s": ("job_tail_ms, orbit-sweep", "exact-words"),
    "dynamics.steps_run": ("job_tail_ms, orbit-sweep", "exact-words"),
    "dynamics.steps_reported": ("job_tail_ms, orbit-sweep", "exact-words"),
    "dynamics.step_yield": ("job_tail_ms, orbit-sweep", "exact-words"),
    "dynamics.verdict.exact-periodic": ("exact_frac, orbit-sweep", "exact-words"),
    "dynamics.verdict.converged": ("job_tail_ms, orbit-sweep", "exact-words"),
    "dynamics.verdict.not-converged": ("job_tail_ms, orbit-sweep", "exact-words"),
    "dynamics.mean_calls": ("jobs_per_s, quadrature-checks", "exact-words"),
    "dynamics.mean_busy_s": ("jobs_per_s, quadrature-checks", "exact-words"),
    "dynamics.quad_points": ("peak_rss_mb, quadrature-checks", "exact-words"),
    "dynamics.ns_per_quad_point": ("jobs_per_s, quadrature-checks", "exact-words"),
    "dynamics.invariance_busy_s": ("jobs_per_s, quadrature-checks", "exact-words"),
    "isotopy.calls": ("jobs_per_s, orbit-sweep", "quadrature-checks"),
    "isotopy.steps": ("jobs_per_s, orbit-sweep", "quadrature-checks"),
    "isotopy.busy_s": ("jobs_per_s, orbit-sweep", "quadrature-checks"),
    "isotopy.ns_per_step": ("jobs_per_s, orbit-sweep", "quadrature-checks"),
    "galkedra.suite_draws": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "galkedra.us_per_draw": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "galkedra.quad_segments": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "galkedra.quad_busy_s": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "galkedra.split_pairs": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "galkedra.split_busy_s": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "distortion.grid_points": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "distortion.seminorm_busy_s": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "distortion.ns_per_grid_point": ("jobs_per_s, quadrature-checks", "orbit-sweep"),
    "distortion.bfs_calls": ("jobs_per_s, exact-words", "orbit-sweep"),
    "distortion.compose_calls": ("job_tail_ms, exact-words", "orbit-sweep"),
    "distortion.bfs_busy_s": ("jobs_per_s, exact-words", "orbit-sweep"),
    "distortion.us_per_compose": ("job_tail_ms, exact-words", "orbit-sweep"),
    "seifert.datasets": ("job_p50_ms, exact-words", "orbit-sweep"),
    "seifert.busy_s": ("job_p50_ms, exact-words", "orbit-sweep"),
    "torus.evaluate_many_calls": ("jobs_per_s, quadrature-checks", "exact-words"),
    "torus.evaluate_many_points": ("jobs_per_s, quadrature-checks", "exact-words"),
    "torus.evaluate_many_busy_s": ("jobs_per_s, quadrature-checks", "exact-words"),
    "trace.overhead_frac": ("-", "-"),
    "failed_frac": ("-", "-"),
    "bound_miss_frac": ("-", "-"),
    "exact_frac": ("-", "-"),
}


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _grid(args, kwargs):
    # seminorm(a, g, grid_resolution=256, ...) visits m^n corners
    return _arg(args, kwargs, 2, "grid_resolution", 256) ** args[0].dimension


def _quad_points(args, kwargs):
    # _measure_mean(integrand, mu, dimension, quadrature_points, base_map)
    mu, dim, m = args[1], args[2], args[3]
    if mu.kind == "lebesgue":
        return m**dim + max(1, m // 2) ** dim
    if mu.kind == "dirac_orbit":
        return mu.period
    return len(mu.samples)


_CODE_NAMES = {0: "rigid", 1: "affine", 2: "arnold", 3: "sinshear", 4: "skew"}

# (module, attribute path, span name, work counter (args, kwargs, result) -> number)
PROBES = [
    ("cli", "main", "cli.main", None),
    ("config", "load_config", "config.load_config", None),
    ("config", "RunConfig.clone", "config.clone", None),
    ("config", "parse_sweep", "config.parse_sweep", None),
    ("config", "build_class", "config.build", None),
    ("config", "build_lifted_map", "config.build", None),
    ("config", "build_bundle_map", "config.build", None),
    ("config", "build_point", "config.build", None),
    ("config", "build_measure", "config.build", None),
    ("config", "build_isotopy", "config.build", None),
    ("config", "build_affine", "config.build", None),
    ("config", "build_affine_generators", "config.build", None),
    ("config", "build_bundle_generators", "config.build", None),
    ("config", "build_seifert", "config.build", None),
    ("reports", "render", "reports.render", lambda a, k, r: len(r)),
    ("reports", "make_report", "reports.make", None),
    ("reports", "value_entry", "reports.value_entry", None),
    ("_kernels", "orbit_chunk", "_kernels.orbit_chunk", lambda a, k, r: (a[7], a[0])),
    ("_kernels", "grid_sup_abs_rho", "_kernels.grid", lambda a, k, r: a[4] ** a[5]),
    ("dynamics", "local_translation_number", "dynamics.local", lambda a, k, r: (r.iterations, r.verdict)),
    ("dynamics", "_PythonOrbit._advance", "dynamics.python_steps", lambda a, k, r: a[1]),
    ("dynamics", "mean_translation_number", "dynamics.mean", None),
    ("dynamics", "_measure_mean", "dynamics.measure_mean", lambda a, k, r: _quad_points(a, k)),
    ("dynamics", "measure_invariance_residual", "dynamics.invariance", None),
    ("isotopy", "homological_translation", "isotopy.homological", None),
    ("isotopy", "mean_homological_translation", "isotopy.mean", None),
    ("galkedra", "coboundary_residual_suite", "galkedra.suite", lambda a, k, r: _arg(a, k, 1, "count")),
    ("galkedra", "cocycle_residual_suite", "galkedra.suite", lambda a, k, r: _arg(a, k, 1, "count")),
    ("galkedra", "gal_kedra_quadrature", "galkedra.quadrature", lambda a, k, r: _arg(a, k, 4, "segments", 10_000)),
    ("galkedra", "splitting_check", "galkedra.split", lambda a, k, r: _arg(a, k, 99, "pairs", 100)),
    ("distortion", "seminorm", "distortion.seminorm", lambda a, k, r: _grid(a, k)),
    ("distortion", "word_norm_bfs", "distortion.bfs", None),
    ("distortion", "ball_norms", "distortion.bfs", None),
    ("distortion", "ExactAffineAutomorphism.compose", "distortion.compose", None),
    ("seifert", "euler_number", "seifert.euler", None),
    ("seifert", "construct_h1_class", "seifert.construct", None),
    ("seifert", "verify_homomorphism", "seifert.verify", None),
    ("torus", "LiftedMap.evaluate_many", "torus.evaluate_many", lambda a, k, r: len(a[1])),
]


class _Rate(float):
    """A ratio of two totals: already a per-pass figure."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._undo = []

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every probe in its home module and wherever it is re-bound."""
        package = [m for n, m in sys.modules.items() if n == "transnum" or n.startswith("transnum.")]
        for module_name, path, name, work in PROBES:
            home = sys.modules[f"transnum.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, work))
                continue
            original = getattr(home, path)
            traced = self._wrap(name, original, work)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, traced)

    def _patch(self, owner, attr, original, traced):
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, job, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job, "work": work}) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]

        def within(i, prefixes):
            """Is span i nested inside a span whose name starts with a prefix?"""
            p = spans[i][3]
            while p >= 0:
                if spans[p][0].startswith(prefixes):
                    return True
                p = spans[p][3]
            return False

        calls = defaultdict(int)
        busy = defaultdict(float)  # outermost spans of each layer
        total = defaultdict(float)  # every span of a name
        work = defaultdict(float)
        for i, (name, start, end, parent, _job, w) in enumerate(spans):
            layer = name.split(".")[0]
            calls[name] += 1
            total[name] += end - start
            if not within(i, (layer + ".",)):
                busy[layer] += end - start
                calls[layer] += 1
            if isinstance(w, (int, float)):
                work[name] += w

        # work of a span whose call raised stays None; those spans count no work
        steps_by_family = defaultdict(lambda: [0, 0.0])
        for name, start, end, _p, _j, w in spans:
            if name == "_kernels.orbit_chunk" and w is not None:
                fam = steps_by_family[_CODE_NAMES.get(int(w[1]), "other")]
                fam[0] += w[0]
                fam[1] += end - start
        kernel_steps = sum(f[0] for f in steps_by_family.values())

        local_steps = iso_steps = 0
        iso_step_s = 0.0
        for i, (name, start, end, _p, _j, w) in enumerate(spans):
            if w is None:
                continue
            if name == "_kernels.orbit_chunk":
                w = w[0]
            elif name != "dynamics.python_steps":
                continue
            if within(i, ("isotopy.homological",)):
                iso_steps += w
                iso_step_s += end - start
            elif within(i, ("dynamics.local",)):
                local_steps += w
        verdicts = defaultdict(int)
        reported = 0
        for name, *_rest, w in spans:
            if name == "dynamics.local" and w is not None:
                reported += w[0]
                verdicts[w[1]] += 1
        bfs_compose = sum(
            1 for i, s in enumerate(spans) if s[0] == "distortion.compose" and within(i, ("distortion.bfs",))
        )
        bfs_s = sum(s[2] - s[1] for i, s in enumerate(spans) if s[0] == "distortion.bfs" and not within(i, ("distortion.bfs",)))
        seminorm_s = total["distortion.seminorm"]
        suite_s = total["galkedra.suite"]

        def ratio(num, den, scale=1.0):
            return _Rate(num / den * scale if den else 0.0)

        m = {
            "cli.calls": calls["cli.main"],
            "cli.self_s": sum(s[2] - s[1] - child[i] for i, s in enumerate(spans) if s[0] == "cli.main"),
            "config.calls": calls["config"],
            "config.busy_s": busy["config"],
            "reports.renders": calls["reports.render"],
            "reports.bytes": work["reports.render"],
            "reports.busy_s": busy["reports"],
            "kernels.orbit_steps": kernel_steps,
            "kernels.orbit_busy_s": total["_kernels.orbit_chunk"],
            "kernels.ns_per_step": ratio(total["_kernels.orbit_chunk"], kernel_steps, 1e9),
            "kernels.grid_points": work["_kernels.grid"],
            "kernels.grid_busy_s": total["_kernels.grid"],
            "dynamics.local_calls": calls["dynamics.local"],
            "dynamics.local_busy_s": total["dynamics.local"],
            "dynamics.steps_run": local_steps,
            "dynamics.steps_reported": reported,
            "dynamics.step_yield": ratio(reported, local_steps),
            "dynamics.mean_calls": calls["dynamics.mean"],
            "dynamics.mean_busy_s": total["dynamics.mean"],
            "dynamics.quad_points": work["dynamics.measure_mean"],
            "dynamics.ns_per_quad_point": ratio(total["dynamics.measure_mean"], work["dynamics.measure_mean"], 1e9),
            "dynamics.invariance_busy_s": total["dynamics.invariance"],
            "isotopy.calls": calls["isotopy.homological"],
            "isotopy.steps": iso_steps,
            "isotopy.busy_s": busy["isotopy"],
            "isotopy.ns_per_step": ratio(iso_step_s, iso_steps, 1e9),
            "galkedra.suite_draws": work["galkedra.suite"],
            "galkedra.us_per_draw": ratio(suite_s, work["galkedra.suite"], 1e6),
            "galkedra.quad_segments": work["galkedra.quadrature"],
            "galkedra.quad_busy_s": total["galkedra.quadrature"],
            "galkedra.split_pairs": work["galkedra.split"],
            "galkedra.split_busy_s": total["galkedra.split"],
            "distortion.grid_points": work["distortion.seminorm"],
            "distortion.seminorm_busy_s": seminorm_s,
            "distortion.ns_per_grid_point": ratio(seminorm_s, work["distortion.seminorm"], 1e9),
            "distortion.bfs_calls": calls["distortion.bfs"],
            "distortion.compose_calls": bfs_compose,
            "distortion.bfs_busy_s": bfs_s,
            "distortion.us_per_compose": ratio(bfs_s, bfs_compose, 1e6),
            "seifert.datasets": sum(
                1 for i, s in enumerate(spans) if s[0] == "seifert.euler" and not within(i, ("seifert.construct",))
            ),
            "seifert.busy_s": busy["seifert"],
            "torus.evaluate_many_calls": calls["torus.evaluate_many"],
            "torus.evaluate_many_points": work["torus.evaluate_many"],
            "torus.evaluate_many_busy_s": busy["torus"],
        }
        for verdict in ("exact-periodic", "converged", "not-converged"):
            m[f"dynamics.verdict.{verdict}"] = verdicts[verdict]
        for fam in ("rigid", "affine", "arnold", "sinshear", "skew"):
            steps, secs = steps_by_family[fam]
            m[f"families.{fam}.ns_per_step"] = ratio(secs, steps, 1e9)
        # totals become per-pass figures; rates and ratios are already so
        return {k: float(v) if isinstance(v, _Rate) else float(v) / passes for k, v in m.items()}
