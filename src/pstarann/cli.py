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

``load_config`` checks and types every key of every section present, for
every command, whether or not the command reads it: a key outside these
(a covariate column holds only its kind's keys: kind, mean and sd for
normal, kind and value for constant), a value of the wrong JSON type or
out of its key's range (``optim.n_starts`` in 1..``MAX_STARTS``,
``model.p``, ``model.q`` and ``model.h`` in 0..``MAX_ORDER``, lattice sides
and ``adjacency.n`` in 1..``MAX_LOCATIONS``), a ragged ``theta.gamma`` and a
required key left out all exit 2 naming the key path, such as
``theta.phi[0]`` or ``covariates[1].sd``. A config that is not JSON, or whose arrays and
objects nest too deeply for the parser, exits 2 naming the file. Every
number in theta is a finite JSON number (not a string, boolean or null).
An optional key left out is not passed on, so ``fit``, ``simulate`` and
``ModelSpec`` apply their own defaults. A simulation whose
(burn_in + p + T, n, max(q, 1)) arrays would exceed
``MAX_SIMULATION_ENTRIES`` exits 2 before any draw.

Exit codes: 0 success, 2 input error (bad config, unknown config key,
malformed CSV, non-causal parameters), 3 numerical non-convergence or a
failed numerical self-check.
Every command is deterministic under a fixed --seed, including replicate
summaries across thread counts. ``replicate --threads 1`` runs its replicates
in this process; with K > 1, each of min(K, R) worker processes receives the
study once, when it starts, and builds the log-det series pieces its own fits
touch.
Below ``weights.N_SPECTRAL`` locations, ``replicate`` simulates its panels in
W's eigenbasis, built once in this process before any replicate runs and
sent to the workers with the study; its tau are also the spectrum that
the causality check and every fit's log-det read. Its panels then equal
those of ``simulate`` with the same draws only to about 1e-14 (1 + |y|),
not bit for bit; their X and innovations are the same bits.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from ._csv import row_blocks
from .densities import density_from_config
from .diagnostics import heatmap_grid, residual_diagnostics
from .estimate import FitError, fit
from .likelihood import NumericalError
from .model import ModelSpec, ParameterVector, check_causal, param_names
from .simulate import (BURN_IN, generate_covariates, read_panel_csv, simulate,
                       write_panel_csv)
from .weights import N_SPECTRAL, build_queen_lattice, read_adjacency_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3


class Key(NamedTuple):
    """How ``load_config`` reads one key: its kind (see ``_typed``), whether
    it is required, and the least and the greatest value it may take."""
    kind: object
    required: bool = False
    minimum: float | None = None
    maximum: float | None = None


# The most locations of a design: 100 times the largest documented workload
# (n = 10**5); W alone then holds up to 8 10**7 weights, about 1 GiB. Also
# the most on either side of a lattice, so that no side overflows a C long.
MAX_LOCATIONS = 10**7
# The most starts of a fit: 200 times the default of 5.
MAX_STARTS = 1000
# The most lags (model.p), covariates (model.q) and neurons (model.h) of a
# model: 25 times the largest order of any demo or benchmark design (q = 4).
# A larger order would only reach an allocation sized by it, such as a
# fit's (dim, 2) bounds, the causality check's (p, p) companion matrices or
# the q column names of a panel's header, and end in a MemoryError instead
# of exit 2.
MAX_ORDER = 100
# the keys of each config section but "covariates", an array of columns
SECTIONS = {
    "lattice": {"n1": Key(int, True, 1, MAX_LOCATIONS), "n2": Key(int, True, 1, MAX_LOCATIONS)},
    "adjacency": {"file": Key(str, True), "n": Key(int, True, 1, MAX_LOCATIONS)},
    "model": {"p": Key(int, True, 0, MAX_ORDER), "q": Key(int, True, 0, MAX_ORDER),
              "h": Key(int, True, 0, MAX_ORDER),
              "density": Key(str, True), "linear_term": Key(bool), "intercept": Key(bool)},
    "theta": {"phi0": Key(float, True), "phi": Key([float]), "beta": Key([float]),
              "lambda": Key([float]), "gamma": Key([[float]])},
    "simulate": {"T": Key(int, True, 1), "burn_in": Key(int, minimum=0)},
    "optim": {"n_starts": Key(int, minimum=1, maximum=MAX_STARTS), "tol": Key(float, minimum=0),
              "max_iter": Key(int, minimum=1)},
}
# the keys of a covariate column, by kind; a column without "kind" is normal
COVARIATE_KEYS = {
    "normal": {"kind": Key(str), "mean": Key(float), "sd": Key(float, minimum=0)},
    "constant": {"kind": Key(str), "value": Key(float)},
}
# The most entries that one (burn_in + p + T, n, max(q, 1)) array of a
# simulation may hold: 16 GiB of doubles, about 30 times the largest
# documented workload (n = 10**5, T = 30, q = 3). The guard counts every
# step, although simulate holds only the steps it simulates, because every
# step is drawn.
MAX_SIMULATION_ENTRIES = 2**31


# ----------------------------------------------------------------------
# Config handling
# ----------------------------------------------------------------------

def load_config(path):
    """The config at ``path`` with every section present checked and typed,
    whichever command reads it: one config serves every command. An absent
    optional key stays absent, so the library's own default applies."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ValueError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    _only(cfg, "config", (*SECTIONS, "covariates"))
    typed = {name: _keys(_typed(cfg[name], f"config.{name}", dict), name, keys)
             for name, keys in SECTIONS.items() if name in cfg}
    if "covariates" in cfg:
        typed["covariates"] = [_column(col, f"covariates[{j}]") for j, col in
                               enumerate(_typed(cfg["covariates"], "config.covariates", list))]
    return typed


def _only(section, where, keys):
    """Raise ``ValueError`` on the first key of ``section`` outside ``keys``:
    a misspelt key would otherwise fall back silently to its default."""
    for key in section:
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r}; expected one of "
                             f"{', '.join(keys)}")


def _keys(section, where, keys):
    """The keys of ``section``, each typed by its ``Key`` in ``keys``."""
    _only(section, where, keys)
    for key, spec in keys.items():
        if spec.required and key not in section:
            raise ValueError(f"{where}: missing required key {key!r}")
    return {key: _typed(value, f"{where}.{key}", keys[key].kind, keys[key].minimum,
                        keys[key].maximum)
            for key, value in section.items()}


def _column(col, where):
    """A covariate column: an object of kind normal (finite mean, finite
    sd >= 0) or constant (finite value), with only its kind's keys."""
    col = _typed(col, where, dict)
    kind = _typed(col.get("kind", "normal"), f"{where}.kind", str)
    if kind not in COVARIATE_KEYS:
        raise ValueError(f"{where}.kind must be 'normal' or 'constant', got {kind!r}")
    return _keys(col, where, COVARIATE_KEYS[kind])


def _typed(value, path, kind, minimum=None, maximum=None):
    """``value`` as a JSON bool, string, object (dict), array (list), int (an
    integer-valued number: 30.0 passes; 1.7, true and "3" do not), float (a
    finite number: 0 passes; NaN, true and "1e-8" do not) or, for a kind
    ``[k]``, an array of ``k`` (for ``[[k]]``, rows of equal length), within
    ``minimum`` and ``maximum`` when they are given; else ``ValueError``
    naming ``path`` (``theta.gamma[0][1]``)."""
    if isinstance(kind, list):
        rows = [_typed(v, f"{path}[{i}]", kind[0])
                for i, v in enumerate(_typed(value, path, list))]
        if isinstance(kind[0], list) and len({len(row) for row in rows}) > 1:
            raise ValueError(f"{path} must have rows of equal length, got lengths "
                             f"{[len(row) for row in rows]}")
        return rows
    if isinstance(value, bool) or kind in (bool, str, dict, list):
        ok = type(value) is kind
    elif kind is int:
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    else:  # abs(), unlike float(), neither overflows on a long int nor passes NaN
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if not ok:
        name = {bool: "a boolean", str: "a string", dict: "a JSON object",
                list: "a JSON array", int: "an integer", float: "a finite number"}[kind]
        raise ValueError(f"{path} must be {name}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{path} must be >= {minimum}, got {kind(value)}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{path} must be <= {maximum}, got {value!r}")
    return kind(value)


def _section(cfg, name):
    """``cfg[name]``, a section the command cannot do without."""
    if name not in cfg:
        raise ValueError(f"config: missing required key {name!r}")
    return cfg[name]


def build_weights(cfg, base_dir="."):
    if ("lattice" in cfg) == ("adjacency" in cfg):
        raise ValueError("config needs exactly one of 'lattice' or 'adjacency'")
    if "lattice" in cfg:
        n1, n2 = cfg["lattice"]["n1"], cfg["lattice"]["n2"]
        if n1 * n2 > MAX_LOCATIONS:
            raise ValueError(f"lattice: n1 n2 = {n1 * n2} locations exceeds {MAX_LOCATIONS}")
        return build_queen_lattice(n1, n2)
    adj = cfg["adjacency"]
    return read_adjacency_csv(Path(base_dir) / adj["file"], adj["n"])


def build_spec(cfg, W):
    model = dict(_section(cfg, "model"))
    if "intercept" in model:  # ModelSpec's include_intercept
        model["include_intercept"] = model.pop("intercept")
    try:
        model["density"] = density_from_config(model["density"])
        spec = ModelSpec(W=W, **model)
    except ValueError as exc:
        raise ValueError(f"model: {exc}") from exc
    if "covariates" in cfg and len(cfg["covariates"]) != spec.q:
        raise ValueError(f"covariates: {len(cfg['covariates'])} column specs but "
                         f"model.q={spec.q}")
    return spec


def build_theta(cfg, spec):
    theta = _section(cfg, "theta")
    try:
        return ParameterVector.from_json_dict(theta).validate(spec)
    except ValueError as exc:  # a block of the wrong shape
        raise ValueError(f"theta: {exc}") from exc


def load_setup(args):
    """The config and the spec it defines, with the weights built from it."""
    cfg = load_config(args.config)
    W = build_weights(cfg, base_dir=Path(args.config).parent)
    return cfg, build_spec(cfg, W)


def simulation_inputs(cfg, spec):
    """theta, the keyword arguments of ``simulate`` (the simulate section and
    the covariate columns) and the steps simulated, of the simulating
    commands; a simulation too large to hold is refused before any draw."""
    theta = build_theta(cfg, spec)
    sim = dict(_section(cfg, "simulate"),
               covariate_columns=_section(cfg, "covariates") if spec.q else [])
    steps = sim.get("burn_in", BURN_IN) + spec.p + sim["T"]
    entries = steps * spec.n * max(spec.q, 1)
    if entries > MAX_SIMULATION_ENTRIES:
        raise ValueError(f"simulate.T = {sim['T']} is too large: (burn_in + p + T) n max(q, 1)"
                         f" = {entries} entries exceeds {MAX_SIMULATION_ENTRIES}")
    return theta, sim, steps


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def cmd_simulate(args):
    cfg, spec = load_setup(args)
    theta, sim, _ = simulation_inputs(cfg, spec)

    # simulate() raises a ValueError naming the root modulus on non-causal theta
    data = simulate(spec, theta, seed=args.seed, **sim)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_panel_csv(out / "panel.csv", data)
    with open(out / "theta.json", "w") as fh:
        json.dump(theta.to_json_dict(), fh, indent=2)
    grids, T = [], sim["T"]
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

def write_diagnostics(path, diag):
    """Write ``{"moran_per_t": [...], "qq": [[theoretical, sample], ...]}`` as
    one ``json.dumps`` of it would, dumping the n T QQ pairs one block of
    ``_csv.BLOCK_ROWS`` at a time (``json.dumps``, unlike ``json.dump``, runs
    the C encoder)."""
    qq = diag["qq"]
    with open(path, "w") as fh:
        # the document up to the QQ list's opening bracket
        fh.write(json.dumps({"moran_per_t": diag["moran_per_t"], "qq": []})[:-2])
        for r0, r1 in row_blocks(len(qq)):
            fh.write((", " if r0 else "") + json.dumps(qq[r0:r1].tolist())[1:-1])
        fh.write("]}")


def write_fit_record(out, name, record, W):
    """Write ``record`` to ``out / name`` as JSON, with W's ``log_det_record``
    under ``log_det``: the W precomputation the fit paid for, first touched
    by its starts."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w") as fh:
        json.dump({**record, "log_det": W.log_det_record}, fh, indent=2)


def cmd_fit(args):
    """Fit the config's model to ``--panel`` and write its records to ``--out``.

    An earlier run's ``fit.json``, ``fit.txt``, ``diagnostics.json`` and
    ``fit_error.json`` are removed from ``--out`` before any input is read,
    so every exit leaves this run's files or none. A fit that ends without
    an estimate (``FitError``: every start failed, a log-det series node or
    the canonicalization check failed) writes ``fit_error.json``, its
    message and the record of every start that ran, in place of
    ``fit.json`` and exits 3.
    """
    out = Path(args.out)
    for name in ("fit.json", "fit.txt", "diagnostics.json", "fit_error.json"):
        (out / name).unlink(missing_ok=True)
    cfg, spec = load_setup(args)
    data = read_panel_csv(args.panel, spec.p, spec.q)
    try:
        # fit() checks the panel against the spec (n, intercept, rank of X_t)
        result = fit(spec, data, seed=args.seed, **cfg.get("optim", {}))
    except FitError as exc:  # keep why in place of fit.json
        write_fit_record(out, "fit_error.json", {"error": str(exc), "trace": exc.trace}, spec.W)
        raise
    write_fit_record(out, "fit.json", result.to_json_dict(), spec.W)
    table = result.format_table()
    (out / "fit.txt").write_text(table + "\n")

    write_diagnostics(out / "diagnostics.json", residual_diagnostics(spec, result.residuals))
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

    ``job`` is (spec, theta, sim, X_fixed, seed, opts), the same for every
    replicate: ``sim`` and ``opts`` are the keyword arguments of ``simulate``
    and ``fit``. The panel draws from the stream
    SeedSequence(seed, spawn_key=(r,)) and the fit's starts from seed + r, so
    the record depends on r alone, not on the process that runs it or on the
    replicates that process ran before: a spectral ``sim`` reads the
    eigenbasis that ``cmd_replicate`` built. The log-det series pieces and tau_min
    that a fit builds stay on spec.W for the process's later replicates; they
    are bit-equal whichever replicate builds them. A failed fit is recorded,
    not raised; a panel that cannot be drawn (``simulate`` raises) is an
    input error of the study, and raises.
    """
    spec, theta, sim, X_fixed, seed, opts = job
    data = simulate(spec, theta, X=X_fixed, seed=np.random.SeedSequence(seed, spawn_key=(r,)),
                    **sim)
    try:
        res = fit(spec, data, seed=seed + r, covariance=True, **opts)
        return {
            "replicate": r,
            "ok": True,
            "converged": res.converged,
            "canonical": res.canonical,
            "boundary_warning": res.boundary_warning,
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
    theta, sim, steps = simulation_inputs(cfg, spec)

    R = args.replicates
    if R < 2:
        raise ValueError(f"--replicates must be >= 2, got {R}")
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")

    # below N_SPECTRAL, the panels come from n scalar AR(p) filters in W's
    # eigenbasis, built (and cached on spec.W) here once, before anything
    # reads the spectrum: then the causality check for p >= 3, every
    # replicate's log-det and traces, and every worker read its tau, so the
    # study pays for one spectrum build and every replicate reads the same bits
    sim["spectral"] = spec.n < N_SPECTRAL
    if sim["spectral"]:
        _ = spec.W.eigenbasis
    check_causal(spec, theta).require()

    X_fixed = None
    if args.fixed_design:
        X_fixed = generate_covariates(sim["covariate_columns"], spec.n, steps,
                                      np.random.SeedSequence(args.seed, spawn_key=(10**6,)))

    job = (spec, theta, sim, X_fixed, args.seed, cfg.get("optim", {}))
    if args.threads > 1:
        # a pool forks all its workers at the first submit: one per replicate
        with ProcessPoolExecutor(max_workers=min(args.threads, R), initializer=_init_worker,
                                 initargs=(job,)) as pool:
            try:
                records = list(pool.map(_replicate_in_worker, range(R)))
            except BaseException:  # a panel that cannot be drawn ends the study:
                pool.shutdown(cancel_futures=True)  # start no further replicate
                raise
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
    p_rep.add_argument("--threads", type=int, default=1,
                       help="worker processes, at most one per replicate; 1 runs the "
                            "replicates in this process")
    p_rep.add_argument("--fixed-design", action="store_true",
                       help="hold one covariate draw fixed across replicates")
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:  # FitError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
