"""
Command-line entry points for reproducible experiments.

Three subcommands wire the library together:

    pstarann simulate  --config cfg.json --out DIR [--seed S]
    pstarann fit       --config cfg.json --panel panel.csv --out DIR
    pstarann replicate --config cfg.json --out DIR --replicates R
                       [--threads K] [--fixed-design]

The config is one JSON document with sections:

    "lattice":    {"n1": 20, "n2": 20}            (or)
    "adjacency":  {"file": "edges.csv", "n": 3107}
    "model":      {"p": 1, "q": 2, "h": 1, "density": "normal",
                   "linear_term": true, "intercept": false}
    "covariates": [{"kind": "normal", "mean": 0, "sd": 1.5},
                   {"kind": "constant", "value": 1}, ...]   (q entries)
    "theta":      {"phi0": .., "phi": [..], "beta": [..],
                   "lambda": [..], "gamma": [[..]]}      (simulate/replicate)
    "simulate":   {"T": 30, "burn_in": 200}
    "optim":      {"n_starts": 5, "tol": 1e-8, "max_iter": 500}

The config and its object sections hold no other keys than these, for
every command; a covariate column holds only its kind's keys (kind, mean
and sd for normal, kind and value for constant).

Exit codes: 0 success, 2 input error (bad config, unknown config key,
malformed CSV, non-causal parameters), 3 numerical non-convergence or a
failed numerical self-check.
Every command is deterministic under a fixed --seed, including replicate
summaries across thread counts. ``replicate --threads 1`` runs its replicates
in this process; with K > 1, each of K worker processes receives the study
once, when it starts, and builds the log-det series pieces its own fits touch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .densities import density_from_config
from .diagnostics import heatmap_grid, residual_diagnostics
from .estimate import FitError, fit
from .likelihood import NumericalError
from .model import ModelSpec, ParameterVector, check_causal, param_names
from .simulate import generate_covariates, read_panel_csv, simulate, write_panel_csv
from .weights import build_queen_lattice, read_adjacency_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3


class ConfigError(ValueError):
    pass


# the keys of each config section but "covariates", an array of columns
SECTION_KEYS = {
    "lattice": ("n1", "n2"),
    "adjacency": ("file", "n"),
    "model": ("p", "q", "h", "density", "linear_term", "intercept"),
    "theta": ("phi0", "phi", "beta", "lambda", "gamma"),
    "simulate": ("T", "burn_in"),
    "optim": ("n_starts", "tol", "max_iter"),
}
# the keys of a covariate column, by kind
COVARIATE_KEYS = {"normal": ("kind", "mean", "sd"), "constant": ("kind", "value")}


# ----------------------------------------------------------------------
# Config handling
# ----------------------------------------------------------------------

def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    # every section, also one the command does not read: one config serves
    # every command
    _only(cfg, "config", (*SECTION_KEYS, "covariates"))
    for name, keys in SECTION_KEYS.items():
        if name in cfg:
            _only(_typed(cfg, name, "config", dict), name, keys)
    return cfg


def _only(section, where, keys):
    """Raise ``ConfigError`` on the first key of ``section`` outside ``keys``:
    a misspelt key would otherwise fall back silently to its default."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r}; expected one of "
                              f"{', '.join(keys)}")


def _typed(cfg, key, where, kind, *default, minimum=None):
    """``cfg[key]``, required unless a default is given, as a JSON bool, string,
    object (dict), array (list), int (an integer-valued number: 30.0 passes;
    1.7, true and "3" do not) or float (a finite number: 0 passes; NaN, true
    and "1e-8" do not), of at least ``minimum`` when one is given."""
    if not (default or key in cfg):
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = cfg.get(key, *default)
    if isinstance(value, bool) or kind in (bool, str, dict, list):
        ok = type(value) is kind
    elif isinstance(value, float):
        ok = value.is_integer() if kind is int else math.isfinite(value)
    else:
        ok = isinstance(value, int)
    if not ok:
        name = {bool: "a boolean", str: "a string", dict: "a JSON object",
                list: "a JSON array", int: "an integer", float: "a finite number"}[kind]
        raise ConfigError(f"{where}.{key} must be {name}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {kind(value)}")
    return kind(value)


def build_weights(cfg, base_dir="."):
    has_lattice = "lattice" in cfg
    has_adj = "adjacency" in cfg
    if has_lattice == has_adj:
        raise ConfigError("config needs exactly one of 'lattice' or 'adjacency'")
    if has_lattice:
        lat = _typed(cfg, "lattice", "config", dict)
        return build_queen_lattice(_typed(lat, "n1", "lattice", int),
                                   _typed(lat, "n2", "lattice", int))
    adj = _typed(cfg, "adjacency", "config", dict)
    path = Path(base_dir) / _typed(adj, "file", "adjacency", str)
    return read_adjacency_csv(path, _typed(adj, "n", "adjacency", int))


def build_spec(cfg, W):
    model = _typed(cfg, "model", "config", dict)
    p, q, h = (_typed(model, key, "model", int) for key in "pqh")
    linear_term = _typed(model, "linear_term", "model", bool, True)
    include_intercept = _typed(model, "intercept", "model", bool, False)
    density = _typed(model, "density", "model", str)
    try:
        spec = ModelSpec(W=W, p=p, q=q, h=h, density=density_from_config(density),
                         linear_term=linear_term, include_intercept=include_intercept)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    if "covariates" in cfg:
        covariate_columns(cfg, spec.q)
    return spec


def covariate_columns(cfg, q):
    """The q covariate specs: objects of kind normal (finite mean, finite sd >= 0)
    or constant (finite value), each with only its kind's keys."""
    columns = _typed(cfg, "covariates", "config", list)
    if len(columns) != q:
        raise ConfigError(f"covariates: {len(columns)} column specs but model.q={q}")
    for j, col in enumerate(columns):
        where = f"covariates[{j}]"
        if not isinstance(col, dict):
            raise ConfigError(f"{where} must be a JSON object, got {col!r}")
        kind = _typed(col, "kind", where, str, "normal")
        if kind not in COVARIATE_KEYS:
            raise ConfigError(f"{where}.kind must be 'normal' or 'constant', got {kind!r}")
        keys = COVARIATE_KEYS[kind]
        _only(col, f"{where} (kind {kind!r})", keys)
        for key in keys[1:]:
            _typed(col, key, where, float, 0.0, minimum=0 if key == "sd" else None)
    return columns


def build_theta(cfg, spec):
    theta = _typed(cfg, "theta", "config", dict)
    try:
        theta = ParameterVector.from_json_dict(theta).validate(spec)
    except (TypeError, ValueError) as exc:  # TypeError: a list or object for a number
        raise ConfigError(f"theta: {exc}") from exc
    bad = [f"{name} ({v})" for name, v in zip(param_names(spec), theta.x) if not np.isfinite(v)]
    if bad:
        raise ConfigError(f"theta: non-finite value for {', '.join(bad)}")
    return theta


def load_setup(args):
    """The config and the spec it defines, with the weights built from it."""
    cfg = load_config(args.config)
    W = build_weights(cfg, base_dir=Path(args.config).parent)
    return cfg, build_spec(cfg, W)


def simulation_inputs(cfg, spec):
    """theta, T, burn-in and covariate columns of the simulating commands."""
    theta = build_theta(cfg, spec)
    sim = _typed(cfg, "simulate", "config", dict, {})
    T = _typed(sim, "T", "simulate", int, minimum=1)
    burn_in = _typed(sim, "burn_in", "simulate", int, 200, minimum=0)
    columns = covariate_columns(cfg, spec.q) if spec.q else []
    return theta, T, burn_in, columns


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def cmd_simulate(args):
    cfg, spec = load_setup(args)
    theta, T, burn_in, columns = simulation_inputs(cfg, spec)

    # simulate() raises a ValueError naming the root modulus on non-causal theta
    data = simulate(spec, theta, seed=args.seed, burn_in=burn_in, T=T,
                    covariate_columns=columns)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_panel_csv(out / "panel.csv", data)
    theta.save_json(out / "theta.json")
    grids = []
    dims = spec.W.lattice_dims
    if dims is not None:
        for t in range(max(1, T - 2), T + 1):
            gpath = out / f"heatmap_t{t}.csv"
            heatmap_grid(data.Y[spec.p + t - 1], dims, path=gpath)
            grids.append(gpath.name)
    print(f"wrote {out / 'panel.csv'} ({(T + spec.p) * spec.n} data rows), theta.json"
          + (f", grids: {', '.join(grids)}" if grids else ""))
    return EXIT_OK


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

def _optim_options(cfg):
    opt = _typed(cfg, "optim", "config", dict, {})
    return {
        "n_starts": _typed(opt, "n_starts", "optim", int, 5, minimum=1),
        "tol": _typed(opt, "tol", "optim", float, 1e-8, minimum=0),
        "max_iter": _typed(opt, "max_iter", "optim", int, 500, minimum=1),
    }


def cmd_fit(args):
    cfg, spec = load_setup(args)
    data = read_panel_csv(args.panel, spec.p, spec.q)
    # fit() checks the panel against the spec (n, intercept, rank of X_t)
    opts = _optim_options(cfg)
    result = fit(spec, data, seed=args.seed, **opts)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = result.to_json_dict()
    # the W precomputation the fit paid for, first touched by its starts
    record["log_det"] = spec.W.log_det_record
    with open(out / "fit.json", "w") as fh:
        json.dump(record, fh, indent=2)
    table = result.format_table()
    (out / "fit.txt").write_text(table + "\n")

    diag = residual_diagnostics(spec, result.residuals)
    # json.dumps, unlike json.dump, runs the C encoder
    (out / "diagnostics.json").write_text(
        json.dumps({"moran_per_t": diag["moran_per_t"], "qq": diag["qq"].tolist()}))
    print(table)
    if not result.converged:
        print("fit did not converge; diagnostics written", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# ----------------------------------------------------------------------
# replicate
# ----------------------------------------------------------------------

def _replicate_one(job, r):
    """Replicate r of the study ``job``: simulate a panel and fit it.

    ``job`` is (spec, theta, T, burn_in, columns, X_fixed, seed, opts), the
    same for every replicate. The panel draws from the stream
    SeedSequence(seed, spawn_key=(r,)) and the fit's starts from seed + r, so
    the record depends on r alone, not on the process that runs it or on the
    replicates that process ran before. The log-det series pieces and tau_min
    that a fit builds stay on spec.W for the process's later replicates; they
    are bit-equal whichever replicate builds them. A failure is recorded, not
    raised.
    """
    spec, theta, T, burn_in, columns, X_fixed, seed, opts = job
    sim_seed = np.random.SeedSequence(seed, spawn_key=(r,))
    try:
        data = simulate(spec, theta, X=X_fixed, seed=sim_seed, burn_in=burn_in,
                        T=T, covariate_columns=columns)
        res = fit(spec, data, seed=seed + r, covariance=True, **opts)
        return {
            "replicate": r,
            "ok": True,
            "converged": res.converged,
            "estimate": res.theta.x.tolist(),
            "loglik": res.loglik,
            "asymptotic_se": None if res.cov_note else res.std_errors.tolist(),
            "covariance_note": res.cov_note,
        }
    except Exception as exc:  # recorded per replicate, summary over successes
        kind = type(exc).__name__
        return {"replicate": r, "ok": False, "error_type": kind, "error": f"{kind}: {exc}"}


_worker_job = None  # the study of a pool worker process, set once by _init_worker


def _init_worker(job):
    global _worker_job
    _worker_job = job


def _replicate_in_worker(r):
    return _replicate_one(_worker_job, r)


def cmd_replicate(args):
    cfg, spec = load_setup(args)
    theta, T, burn_in, columns = simulation_inputs(cfg, spec)
    opts = _optim_options(cfg)

    R = args.replicates
    if R < 2:
        raise ConfigError(f"--replicates must be >= 2, got {R}")
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")

    check_causal(spec, theta).require()

    X_fixed = None
    if args.fixed_design and spec.q:  # a q = 0 model has no covariates to hold
        steps = burn_in + spec.p + T
        X_fixed = generate_covariates(columns, spec.n, steps,
                                      np.random.SeedSequence(args.seed, spawn_key=(10**6,)))

    job = (spec, theta, T, burn_in, columns, X_fixed, args.seed, opts)
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads, initializer=_init_worker,
                                 initargs=(job,)) as pool:
            records = list(pool.map(_replicate_in_worker, range(R)))
    else:
        records = [_replicate_one(job, r) for r in range(R)]

    names = param_names(spec)
    good = [d for d in records if d["ok"]]
    est = np.array([d["estimate"] for d in good])
    ses = np.array([d["asymptotic_se"] for d in good if d["asymptotic_se"] is not None])

    summary = {
        "R": R,
        "n_success": len(good),
        "n_failed": R - len(good),
        "failures_by_type": dict(sorted(Counter(d["error_type"] for d in records
                                                if not d["ok"]).items())),
        "names": names,
        "true": theta.x.tolist(),
        "mean": est.mean(axis=0).tolist() if good else None,
        "empirical_sd": est.std(axis=0, ddof=1).tolist() if len(good) >= 2 else None,
        "mean_asymptotic_se": ses.mean(axis=0).tolist() if ses.size else None,
        "records": records,
    }

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)

    if good:
        lines = [f"{'parameter':<10} {'true':>9} {'mean':>9} {'emp. SD':>9} "
                 f"{'asy. SD':>9} {'count':>6}"]
        na = [None] * len(names)
        for name, *row in zip(names, summary["true"], summary["mean"],
                              summary["empirical_sd"] or na,
                              summary["mean_asymptotic_se"] or na):
            cells = ("      n/a" if v is None else f"{v:>9.4f}" for v in row)
            lines.append(f"{name:<10} {' '.join(cells)} {len(good):>6d}")
    else:
        lines = [f"all {R} replicates failed; see summary.json for errors"]
    table = "\n".join(lines)
    (out / "summary.txt").write_text(table + "\n")
    print(table)
    if not good:
        print("all replicates failed", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="pstarann",
        description="Simulate, fit and replicate space-time autoregressive "
                    "panels with a sigmoid network component.",
    )
    parser.add_argument("--version", action="version", version=f"pstarann {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="generate a panel CSV plus truth JSON")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a model to a panel CSV")
    common(p_fit)
    p_fit.add_argument("--panel", required=True, help="panel CSV (schema t,s,y,x1..xq)")
    p_fit.set_defaults(func=cmd_fit)

    p_rep = sub.add_parser("replicate", help="parallel simulate+fit study")
    common(p_rep)
    p_rep.add_argument("--replicates", type=int, required=True)
    p_rep.add_argument("--threads", type=int, default=1)
    p_rep.add_argument("--fixed-design", action="store_true",
                       help="hold one covariate draw fixed across replicates")
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FitError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
