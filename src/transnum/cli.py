"""Command-line surface: one verb per computation, INI configs, three output
formats. Exit codes: 0 ok, 2 bad input, 3 a limit did not converge, 4 a
mathematical precondition failed (class not preserved, nonzero Euler number,
search budget, ...), 5 internal error."""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import config as cfgmod
from .config import (
    RunConfig,
    build_affine,
    build_affine_generators,
    build_bundle_generators,
    build_bundle_map,
    build_class,
    build_isotopy,
    build_lifted_map,
    build_measure,
    build_point,
    build_seifert,
    load_config,
    parse_int,
    parse_sweep,
)
from .distortion import (
    BFS_RADIUS,
    MODE_CERTIFIED,
    MODE_ESTIMATE,
    seminorm,
    translation_length_estimate,
    undistortion_certificate,
    word_norm_bfs,
)
from .dynamics import (
    VERDICT_NOT_CONVERGED,
    _cover_of,
    _map_shift,
    local_translation_number,
    local_translation_numbers,
    mean_translation_number,
)
from .errors import PreconditionError, TransnumError, ValidationError
from .galkedra import (
    CHECK_COUNT,
    CHECK_DIMENSIONS,
    coboundary_residual_suite,
    cocycle_residual_suite,
    gal_kedra,
    gal_kedra_quadrature,
    splitting_check,
)
from .isotopy import (
    endpoint_translation,
    homological_translation,
    mean_homological_translation,
)
from .reports import Report, make_report, render, value_entry
from .seifert import construct_h1_class, euler_number, verify_homomorphism

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

@dataclass
class Resolved:
    """Numeric options after the config/flag precedence is applied; counts
    are positive, the seed non-negative and the tolerance positive and finite."""

    seed: Optional[int]
    tolerance: Optional[float]
    max_iterations: Optional[int]
    grid: Optional[int]
    flags: Optional[argparse.Namespace] = None

    def rebind(self, cfg: Optional[RunConfig]) -> "Resolved":
        """Redo the precedence against another config (sweep rows override
        [options], and the command-line flags must still win)."""
        if self.flags is None:
            return self
        return _resolve(self.flags, cfg)


def _resolve(args, cfg: Optional[RunConfig]) -> Resolved:
    def pick(flag, section_key, parse):
        if flag is not None:
            return flag
        if cfg is not None:
            text = cfg.get("options", section_key)
            if text is not None:
                return parse(text, f"[options] {section_key}")
        return None

    res = Resolved(
        seed=pick(args.seed, "seed", parse_int),
        tolerance=pick(args.tolerance, "tolerance", cfgmod.parse_float),
        max_iterations=pick(args.max_iterations, "max-iterations", parse_int),
        grid=pick(args.grid, "grid", parse_int),
        flags=args,
    )
    for name, count in (("max-iterations", res.max_iterations), ("grid", res.grid)):
        if count is not None and count < 1:
            raise ValidationError(f"{name} must be a positive count, got {count}")
    if res.seed is not None and res.seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {res.seed}")
    if res.tolerance is not None and not 0.0 < res.tolerance < math.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {res.tolerance}")
    return res


def _given(**options) -> dict:
    """The options that were given (0 included); the library function's own
    defaults stand for the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _headline(value, *, error_bound=None, exact=False, residual=False, verdict="ok") -> dict:
    entry = value_entry(value, error_bound=error_bound, exact=exact, residual=residual)
    entry["verdict"] = verdict
    return entry


def _convergence_entry(rep) -> dict:
    return value_entry(
        rep.value,
        exact=rep.rational is not None,
        error_bound=rep.error_bound if rep.rational is None else None,
        rational=rep.rational,
        verdict=rep.verdict,
        iterations=rep.iterations,
        plain_average=rep.plain_average,
        window=list(rep.window),
        tongue=None if rep.tongue is None else {"period": rep.tongue.period, "grid": rep.tongue.grid},
    )


# -- command handlers: RunConfig + Resolved -> Report ------------------------


def _convergence_headline(rep) -> dict:
    return _headline(
        rep.value,
        error_bound=rep.error_bound if rep.rational is None else None,
        exact=rep.rational is not None,
        verdict=rep.verdict,
    )


def _cmd_rot_local(cfg: RunConfig, res: Resolved) -> Report:
    a = build_class(cfg)
    g = build_bundle_map(cfg, "map")
    x = build_point(cfg, a.dimension)
    rep = local_translation_number(
        a, g, x, **_given(tolerance=res.tolerance, max_iterations=res.max_iterations)
    )
    results = {"rot": _convergence_entry(rep), "headline": _convergence_headline(rep)}
    return make_report("rot-local", cfg.echo(), results, res.seed)


def _cmd_rot_mean(cfg: RunConfig, res: Resolved) -> Report:
    a = build_class(cfg)
    g = build_bundle_map(cfg, "map")
    mu = build_measure(cfg)
    rep = mean_translation_number(a, g, mu, **_given(quadrature_points=res.grid))
    exact = rep.rational is not None
    error_bound = None if exact else rep.error_bound
    measure = {
        "kind": rep.measure_kind,
        "invariance_residual": rep.invariance_residual,
        "invariance_warning": rep.invariance_warning,
    }
    if rep.invariance_source is not None:
        measure["invariance_source"] = rep.invariance_source
    results = {
        "mean": value_entry(rep.value, error_bound=error_bound, exact=exact, rational=rep.rational),
        "measure": measure,
        "headline": _headline(rep.value, error_bound=error_bound, exact=exact),
    }
    return make_report("rot-mean", cfg.echo(), results, res.seed)


def _cmd_rot_homovec(cfg: RunConfig, res: Resolved) -> Report:
    a = build_class(cfg)
    iso = build_isotopy(cfg)
    x = build_point(cfg, a.dimension)
    # each limit falls back to its own default tolerance
    kwargs = _given(tolerance=res.tolerance, max_iterations=res.max_iterations)
    hom = homological_translation(a, iso, x, **kwargs)
    loc = endpoint_translation(a, iso, x, **kwargs)
    results = {
        "homological": _convergence_entry(hom),
        "endpoint_local": _convergence_entry(loc),
        "difference": value_entry(
            abs(hom.value - loc.value),
            error_bound=None if None in (hom.error_bound, loc.error_bound) else hom.error_bound + loc.error_bound,
        ),
        "headline": _convergence_headline(hom),
    }
    if cfg.has("measure"):
        mu = build_measure(cfg)
        mean = mean_homological_translation(a, iso, mu, **_given(quadrature_points=res.grid))
        results["mean_homological"] = value_entry(mean.value, error_bound=mean.error_bound)
    return make_report("rot-homovec", cfg.echo(), results, res.seed)


def _cmd_gk_eval(cfg: RunConfig, res: Resolved) -> Report:
    a = build_class(cfg)
    g = build_lifted_map(cfg, "map")
    h = build_lifted_map(cfg, "map.h")
    x = build_point(cfg, a.dimension)
    closed = gal_kedra(a, g, h, x)
    quad = gal_kedra_quadrature(a, g, h, x, **_given(segments=res.grid))
    results = {
        "closed_form": value_entry(closed, exact=True),
        "quadrature": value_entry(
            quad, error_bound=quad.error_bound, nodes=quad.nodes, discrepancy=abs(closed - quad)
        ),
        "headline": _headline(closed, exact=True),
    }
    return make_report("gk-eval", cfg.echo(), results, res.seed)


def _check_sizes(cfg: Optional[RunConfig]) -> tuple:
    """[check] count and dimensions (defaults CHECK_COUNT and
    CHECK_DIMENSIONS), each at least 1."""
    count, dims = CHECK_COUNT, CHECK_DIMENSIONS
    if cfg is not None:
        count_text = cfg.get("check", "count")
        if count_text is not None:
            count = parse_int(count_text, "[check] count")
        dims_text = cfg.get("check", "dimensions")
        if dims_text is not None:
            dims = tuple(cfgmod._int_list(dims_text, "[check] dimensions"))
    if count < 1:
        raise ValidationError(f"[check] count must be positive, got {count}")
    if not dims or min(dims) < 1:
        raise ValidationError(f"[check] dimensions must be positive, got {' '.join(map(str, dims))}")
    return count, dims


def _cmd_gk_check(cfg: Optional[RunConfig], res: Resolved) -> Report:
    seed = res.seed if res.seed is not None else 0
    count, dims = _check_sizes(cfg)
    cob = coboundary_residual_suite(seed, count, dims)
    coc = cocycle_residual_suite(seed + 1, count, dims)
    worst = max(cob.max_residual, coc.max_residual)
    results = {
        "coboundary": value_entry(cob.max_residual, residual=True, count=cob.count),
        "cocycle": value_entry(coc.max_residual, residual=True, count=coc.count),
        "dimensions": list(dims),
        "headline": _headline(worst, residual=True),
    }
    inputs = cfg.echo() if cfg is not None else {}
    return make_report("gk-check", inputs, results, seed)


def _cmd_split_check(cfg: RunConfig, res: Resolved) -> Report:
    a = build_class(cfg)
    named = build_bundle_generators(cfg)
    mu = build_measure(cfg)
    seed = res.seed if res.seed is not None else 0
    if cfg.get("check", "dimensions") is not None:
        raise ValidationError("[check] dimensions is for gk-check; split-check draws its words on the class's torus")
    pairs, _ = _check_sizes(cfg)
    rep = splitting_check(
        a, [g for _, g in named], mu, pairs=pairs, seed=seed, **_given(quadrature_points=res.grid)
    )
    results = {
        "additivity_residual": value_entry(rep.additivity_residual, residual=True),
        "mean_cocycle_residual": value_entry(rep.mean_cocycle_residual, residual=True),
        "pairs": rep.pairs,
        "measure": rep.measure_kind,
        "generator_invariance": [
            {"generator": name, "residual": r}
            for (name, _), r in zip(named, rep.generator_invariance)
        ],
        "headline": _headline(rep.splitting_residual, residual=True),
    }
    return make_report("split-check", cfg.echo(), results, seed)


def _cmd_seminorm(cfg: RunConfig, res: Resolved) -> Report:
    a = build_class(cfg)
    g = build_bundle_map(cfg, "map")
    mode = cfg.get("seminorm", "mode", "auto").lower()
    if mode == "auto":
        has_lip = (
            g.lift.displacement_lipschitz is not None
            or g.lift.lipschitz_bound is not None
        )
        mode = MODE_CERTIFIED if has_lip else MODE_ESTIMATE
    elif mode not in (MODE_ESTIMATE, MODE_CERTIFIED):
        raise ValidationError("[seminorm] mode must be auto, estimate or certified")
    rep = seminorm(a, g, mode=mode, **_given(grid_resolution=res.grid))
    # the way up to the certified side; None in estimate mode: no upper bound claimed
    gap = None if rep.certified_upper is None else rep.certified_upper - rep.estimate
    entry = value_entry(
        rep.estimate,
        error_bound=gap,
        mode=rep.mode,
        grid_resolution=rep.grid_resolution,
        upper_bound=rep.certified_upper,
        rigorous=rep.rigorous,
    )
    results = {
        "seminorm": entry,
        "headline": _headline(rep.estimate, error_bound=gap),
    }
    return make_report("seminorm", cfg.echo(), results, res.seed)


def _cmd_distortion_cert(cfg: RunConfig, res: Resolved) -> Report:
    a = build_class(cfg)
    g = build_bundle_map(cfg, "map")
    named = build_bundle_generators(cfg)
    x = build_point(cfg, a.dimension)
    cert = undistortion_certificate(
        a,
        g,
        named,
        x,
        generating_set_label=" ".join(name for name, _ in named),
        rot_kwargs=_given(tolerance=res.tolerance, max_iterations=res.max_iterations),
        **_given(grid_resolution=res.grid),
    )
    results = {
        "verdict": cert.verdict,
        "rigorous": cert.rigorous,
        "tau_lower_bound": value_entry(cert.tau_lower_bound, error_bound=0.0),
        "seminorm_constant": value_entry(cert.seminorm_constant, error_bound=0.0),
        "rot": value_entry(
            cert.rot_value, error_bound=cert.rot_error, verdict=cert.rot_verdict
        ),
        "generator_bounds": [
            {"generator": name, "bound": bound, "rigorous": rig}
            for name, bound, rig in cert.generator_bounds
        ],
        "generating_set": cert.generating_set_label,
        "note": cert.note,
        "headline": _headline(
            cert.tau_lower_bound, error_bound=0.0, verdict=cert.verdict
        ),
    }
    return make_report("distortion-cert", cfg.echo(), results, res.seed)


def _cmd_word_norm(cfg: RunConfig, res: Resolved) -> Report:
    a = build_class(cfg)
    named = build_affine_generators(cfg)
    generators = [g for _, g in named]
    target_name = cfg.get("generators", "target")
    if target_name is None:
        raise ValidationError("[generators] target must name an [affine.NAME] section")
    target = build_affine(cfg, target_name.strip())
    radius = BFS_RADIUS if res.max_iterations is None else res.max_iterations
    powers_text = cfg.get("generators", "powers")
    tl = None
    if powers_text is not None:
        max_power = parse_int(powers_text, "[generators] powers")
        if max_power < 1:
            raise ValidationError(f"[generators] powers must be a positive count, got {max_power}")
        # one ball serves both: |target| is the norm of its first power
        tl = translation_length_estimate(
            a, generators, target, max_power=max_power, radius=radius
        )
        norm = tl.norms[0][1]
    else:
        norm = word_norm_bfs(a, generators, target, radius=radius)
    found = norm is not None
    results = {
        "word_norm": value_entry(norm, exact=found, verdict="ok" if found else "not-found"),
        "radius": radius,
        "generators": [name for name, _ in named],
        "target": target_name.strip(),
        "headline": _headline(
            norm, exact=found, verdict="ok" if found else "not-found"
        ),
    }
    if tl is not None:
        results["translation_length"] = {
            "norms": [{"power": n, "norm": v} for n, v in tl.norms],
            "estimate": value_entry(tl.estimate, error_bound=None),
            "complete": tl.complete,
        }
    return make_report("word-norm", cfg.echo(), results, res.seed)


def _cmd_seifert_class(cfg: RunConfig, res: Resolved) -> Report:
    data, convention = build_seifert(cfg)
    e = euler_number(data)
    phi = construct_h1_class(data, convention)
    residuals = verify_homomorphism(data, phi)
    results = {
        "euler_number": value_entry(e, exact=True),
        "convention": phi.convention.value,
        "phi": {
            "h": value_entry(phi.value_h, exact=True),
            "q": [value_entry(v, exact=True) for v in phi.values_q],
            "surface_generators": list(phi.values_ab),
        },
        "residuals": {
            "exceptional": [value_entry(r, exact=True) for r in residuals["exceptional"]],
            "long_relation": value_entry(residuals["long_relation"], exact=True),
            "centrality": value_entry(residuals["centrality"], exact=True),
        },
        "data": {"genus": data.genus, "pairs": [list(p) for p in data.pairs]},
        "headline": _headline(phi.value_h, exact=True),
    }
    return make_report("seifert-class", cfg.echo(), results, res.seed)


def _rot_local_headlines(configs, res: Resolved) -> list:
    """The rot-local headline of each config, as `_cmd_rot_local` gives it.

    Each row is built and checked in turn, so the first bad row is the one
    reported; the limits of the rows that share a class and options are
    then computed together by `local_translation_numbers`, from the checked
    starts. A row's options, class, map and point are built only when the
    section each one reads differs from every earlier row's, so a section
    the sweep leaves alone is built once; the checks of a class and a map
    (`_map_shift`) run once per distinct pair of sections, and each row's
    point gets its own cover."""
    built = {}

    def items(sub, section):
        return tuple(sub.sections.get(section, {}).items())

    def once(sub, section, build, *extra):
        """build(), or what it gave for an earlier row whose `section` (and
        `extra`) read the same; a build that raises stores nothing."""
        key = (section, *extra, items(sub, section))
        if key not in built:
            built[key] = build()
        return built[key]

    batches = {}
    heads = []
    for sub in configs:
        row_res = once(sub, "options", lambda: res.rebind(sub))
        a = once(sub, "class", lambda: build_class(sub))
        g = once(sub, "map", lambda: build_bundle_map(sub, "map"))
        x = once(sub, "point", lambda: build_point(sub, a.dimension), a.dimension)
        shift = once(sub, "map", lambda: _map_shift(a, g), items(sub, "class"))
        start = (shift, _cover_of(x, a.dimension))  # the checks of the orbit, in row order
        options = _given(tolerance=row_res.tolerance, max_iterations=row_res.max_iterations)
        rows, maps, points, starts = batches.setdefault((a, tuple(sorted(options.items()))), ([], [], [], []))
        rows.append(len(heads))
        maps.append(g)
        points.append(x)
        starts.append(start)
        heads.append(None)
    for (a, options), (rows, maps, points, starts) in batches.items():
        for i, rep in zip(rows, local_translation_numbers(a, maps, points, starts=starts, **dict(options))):
            heads[i] = _convergence_headline(rep)
    return heads


def _cmd_sweep(cfg: RunConfig, res: Resolved) -> Report:
    command, axes = parse_sweep(cfg)
    if command == "sweep" or command not in _HANDLERS:
        targets = ", ".join(sorted(set(_HANDLERS) - {"sweep"}))
        raise ValidationError(f"[sweep] cannot run {command!r}; expected one of {targets}")
    columns = [f"{section}.{key}" for section, key, _ in axes]
    columns += ["value", "error_bound", "verdict", "exact"]
    combos = list(itertools.product(*(values for _, _, values in axes)))

    def row_configs():
        """Each row's config, made only when the row before it is done."""
        for combo in combos:
            sub = cfg.clone()
            for (section, key, _), value in zip(axes, combo):
                sub.set_override(section, key, value)
            yield sub

    if command == "rot-local":
        heads = _rot_local_headlines(row_configs(), res)
    else:
        handler = _HANDLERS[command]
        heads = [handler(sub, res.rebind(sub)).results["headline"] for sub in row_configs()]
    rows = [
        list(combo)
        + [
            head.get("value"),
            head.get("error_bound"),
            head.get("verdict"),
            bool(head.get("exact", False)),
        ]
        for combo, head in zip(combos, heads)
    ]
    results = {
        "columns": columns,
        "rows": rows,
        "swept_command": command,
        "headline": _headline(len(rows), exact=True),
    }
    return make_report("sweep", cfg.echo(), results, res.seed)


_HANDLERS = {
    "rot-local": _cmd_rot_local,
    "rot-mean": _cmd_rot_mean,
    "rot-homovec": _cmd_rot_homovec,
    "gk-eval": _cmd_gk_eval,
    "gk-check": _cmd_gk_check,
    "split-check": _cmd_split_check,
    "seminorm": _cmd_seminorm,
    "distortion-cert": _cmd_distortion_cert,
    "word-norm": _cmd_word_norm,
    "seifert-class": _cmd_seifert_class,
    "sweep": _cmd_sweep,
}

# Built once: parse_args leaves the parser as it found it, so every call can share it.
_PARSER = argparse.ArgumentParser(
    prog="transnum",
    description="translation numbers, cocycle checks and distortion "
    "certificates for bundle automorphisms over tori",
)
_PARSER.add_argument("command", choices=_HANDLERS, help="the computation to run (see README)")
_PARSER.add_argument("--config", help="INI run configuration (see README)")
_PARSER.add_argument("--seed", type=int, help="RNG seed for sampled checks")
_PARSER.add_argument("--tolerance", type=float, help="convergence tolerance")
_PARSER.add_argument(
    "--max-iterations",
    type=int,
    dest="max_iterations",
    help="iteration cap (BFS radius for word-norm)",
)
_PARSER.add_argument("--grid", type=int, help="grid resolution / quadrature points / gk-eval's node cap")
_PARSER.add_argument(
    "--format",
    choices=("table", "record", "csv"),
    default="table",
    dest="fmt",
    help="output format (default: table)",
)
_PARSER.add_argument("--out", help="write the rendering to a file instead of stdout")


def _check_out(path: str) -> None:
    """Refuse an --out whose directory is missing or not writable, before
    any work is done."""
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ValidationError(f"--out {path}: directory {parent} is missing or not writable")


def _exit_code_for(report: Report) -> int:
    verdict = report.results.get("headline", {}).get("verdict")
    if verdict == VERDICT_NOT_CONVERGED:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        cfg = load_config(args.config) if args.config else None
        if cfg is None and args.command != "gk-check":
            raise ValidationError(f"{args.command} requires --config")
        res = _resolve(args, cfg)
        start = time.perf_counter()
        report = _HANDLERS[args.command](cfg, res)
        report.timing_seconds = time.perf_counter() - start
        text = render(report, args.fmt)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(f"cannot write --out {args.out}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return _exit_code_for(report)
    except ValidationError as exc:
        print(f"transnum: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PreconditionError as exc:
        print(f"transnum: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except TransnumError as exc:
        print(f"transnum: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps to exit 5
        print(f"transnum: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
