"""
Benchmark of the pstarann simulate / fit / replicate pipeline.

One workload per run:

    python3 bench/run.py --workload fit-adj3107 --seed 1 --seconds 30 --trace 0

or every workload in turn, each in its own process:

    python3 bench/run.py --workload all

A run generates the workload's inputs from ``--seed`` (inputs.py), then
drives the library from outside through ``pstarann.cli.main(argv)``: a
fixed list of rounds, each a ``replicate`` batch on mc-lattice20 and a
CLI ``simulate`` + ``fit`` cycle on fit-adj3107, all in this one
process. The amount of work is sized from ``--seconds`` and the
workload's measured round time, so a run measures about ``--seconds`` of
work on the reference machine and repeats exactly for one seed. Timed
metrics are scaled to the reference machine's usual speed by the run's
speed factor (speedprobe.py). Every output is checked afterwards. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of tracer.py with ``--trace 1``.
The exit code is 1 when the checks found the run incorrect (a wrong
output, or more missed fits than the ceiling allows), else 0.

BLAS is pinned to one thread before numpy loads, and ``replicate`` runs
with ``--threads 1``: the reference machine has 2 shared cores, and more
threads or worker processes than one would measure the scheduler and
the other tenants rather than the program.
"""

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
# The speed probe runs one pass per PROBE_EVERY_S of an operation's time
# (at least one), so the passes sample the run's phases in proportion to
# the time its operations spend in them.
PROBE_EVERY_S = 2.0
# fitted log-likelihood may fall short of the truth's by float noise only
LOGLIK_TOL = 1e-9
EXIT_NONCONVERGENCE = 3  # the CLI's documented exit code for numerical failure

# Every failed operation counts in `failed`. A WRONG one (a crash, an
# unexpected exit code, a non-finite estimate, invalid standard errors)
# makes the run incorrect. A MISSED fit returned an estimate but missed
# its goal: converged: false, or a local optimum below the truth's
# log-likelihood. NO_ESTIMATE: the program reported that no start reached
# a finite optimum, or a replicate caught an error.
WRONG, MISSED, NO_ESTIMATE = "wrong", "missed", "no estimate"
# The program misses at baseline: about 1 fit in 9 on fit-adj3107, which
# runs 2 fits, and a few replicates per thousand on mc-lattice20. A run
# is incorrect when more of its fits miss or give no estimate than
# MISS_ALLOWANCE or MISS_CEILING of its fits, whichever is larger: an
# optimizer that stops early or fails.
MISS_ALLOWANCE = 2
MISS_CEILING = 0.25

# A fresh interpreter imports the CLI and loads the generated inputs.
SETUP_SCRIPT = """
import csv, sys
from pathlib import Path
import pstarann.cli as cli
cfg = cli.load_config(sys.argv[1])
if "adjacency" in cfg:
    with open(Path(sys.argv[1]).parent / cfg["adjacency"]["file"], newline="") as fh:
        edges = list(csv.reader(fh))
"""


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# Work plan and execution
# ----------------------------------------------------------------------

def main_kinds(wl):
    """The commands whose wall time makes up ``wall_s`` and ``fits_per_s``."""
    return {"replicate"} if wl.batch else {"simulate", "fit"}


def make_plan(wl, seed, seconds, trace):
    """The fixed operations of one run: (kind, command seed, replicates).

    A run is a sequence of rounds: one CLI simulate + fit cycle, preceded
    on the replicate workload by one ``replicate`` batch. There the cycle
    is only for ``simulate_s`` and ``fit_s``. The SETUP_REPEATS set-up
    probes are spread evenly over the rounds. Interleaving spreads every kind of operation
    over the whole run, so slow and fast phases of a shared machine touch
    them alike. A traced run executes its plan twice (plain, then
    traced), so each pass gets half the time and no set-up probes.
    """
    from inputs import command_seeds

    budget = seconds / 2 if trace else seconds
    round_s = wl.batch * wl.replicate_s + wl.cycle_s
    rounds = max(1, round(budget / round_s))
    seeds = command_seeds(seed, 2 * rounds)
    probes = [] if trace else [max(1, round(i * rounds / SETUP_REPEATS))
                               for i in range(1, SETUP_REPEATS + 1)]
    plan = []
    for k in range(rounds):
        if wl.batch:
            plan.append(("replicate", seeds[2 * k + 1], wl.batch))
        plan.append(("cycle", seeds[2 * k], 0))
        plan += [("setup", 0, 0)] * probes.count(k + 1)
    return plan


def cli_call(argv):
    """Run one CLI command in-process; return (exit code, seconds, stderr text)."""
    import pstarann.cli as cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a failed command, recorded
            rc = 1
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return rc, dt, err.getvalue()


def setup_probe(cfg_path):
    """Wall time of a fresh interpreter importing the CLI and loading inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(cfg_path)], env=env,
                   cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def execute(plan, cfg_path, out_root, probe):
    """Run the plan; return one record per operation, and the run's speed factor.

    The speed factor (see speedprobe.py) comes from one probe pass before
    the first operation and passes after each, PROBE_EVERY_S apart.
    """
    records = []
    probes = [probe()]

    def record(**rec):
        passes = [probe() for _ in range(max(1, round(rec["seconds"] / PROBE_EVERY_S)))]
        probes.extend(passes)
        records.append(dict(rec, probe_s=statistics.fmean(passes)))

    for k, (kind, seed, replicates) in enumerate(plan):
        out = out_root / f"{k:03d}-{kind}"
        if kind == "setup":
            record(kind="setup", seed=seed, seconds=setup_probe(cfg_path))
        elif kind == "cycle":
            sim, fit = out / "simulate", out / "fit"
            rc, dt, err = cli_call(["simulate", "--config", str(cfg_path), "--out", str(sim),
                                    "--seed", str(seed)])
            record(kind="simulate", seed=seed, out=sim, rc=rc, seconds=dt, stderr=err)
            rc, dt, err = cli_call(["fit", "--config", str(cfg_path), "--out", str(fit),
                                    "--panel", str(sim / "panel.csv"), "--seed", str(seed)])
            record(kind="fit", seed=seed, out=fit, panel=sim / "panel.csv", rc=rc, seconds=dt,
                   stderr=err)
        else:
            rc, dt, err = cli_call(["replicate", "--config", str(cfg_path), "--out", str(out),
                                    "--replicates", str(replicates), "--threads", "1",
                                    "--seed", str(seed)])
            record(kind="replicate", seed=seed, out=out, rc=rc, seconds=dt, stderr=err,
                   replicates=replicates)
    return records, probe.reference_s / statistics.fmean(probes)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------

class Checker:
    """Checks outputs against the generating design through the public API."""

    def __init__(self, wl, cfg_path):
        import pstarann as pa

        cfg = wl.config
        m = cfg["model"]
        if "lattice" in cfg:
            W = pa.build_queen_lattice(cfg["lattice"]["n1"], cfg["lattice"]["n2"])
        else:
            W = pa.read_adjacency_csv(cfg_path.parent / cfg["adjacency"]["file"],
                                      cfg["adjacency"]["n"])
        self.spec = pa.ModelSpec(W=W, p=m["p"], q=m["q"], h=m["h"],
                                 density=pa.density_from_config(m["density"]),
                                 linear_term=m["linear_term"],
                                 include_intercept=m.get("intercept", False))
        self.theta = pa.ParameterVector.from_json_dict(cfg["theta"])
        self.differentiable = self.spec.density.differentiable

    def _se_problem(self, se):
        if not self.differentiable:
            return None
        if se is None:
            return "standard errors missing"
        if not all(math.isfinite(v) and v > 0 for v in se):
            return f"standard errors not positive and finite: {se}"
        return None

    def fit_outcome(self, rec):
        """None when the fit passed, else (reason, WRONG, MISSED or NO_ESTIMATE)."""
        import pstarann as pa

        if rec["rc"] not in (0, EXIT_NONCONVERGENCE):
            return f"exit code {rec['rc']}: {rec['stderr'].strip()}", WRONG
        path = rec["out"] / "fit.json"
        if not path.exists():  # exit 3 before writing: no start reached a finite optimum
            return (f"exit code {rec['rc']}, no fit.json: {rec['stderr'].strip()}",
                    NO_ESTIMATE if rec["rc"] else WRONG)
        with open(path) as fh:
            res = json.load(fh)
        est = pa.ParameterVector.from_json_dict(res["parameters"]).to_array()
        if not (all(map(math.isfinite, est)) and math.isfinite(res["loglik"])):
            return "non-finite estimate or log-likelihood", WRONG
        if not res["converged"]:
            return "converged: false", MISSED
        data = pa.read_panel_csv(rec["panel"], self.spec.p, self.spec.q)
        ll_true = pa.log_likelihood(self.spec, self.theta, data)
        if res["loglik"] < ll_true - LOGLIK_TOL * (1.0 + abs(ll_true)):
            return (f"local optimum: log-likelihood {res['loglik']} below the truth's "
                    f"{ll_true}", MISSED)
        problem = self._se_problem(res.get("std_errors"))
        return problem and (problem, WRONG)

    def replicate_outcomes(self, rec):
        """One outcome per replicate, as for :meth:`fit_outcome`."""
        if rec["rc"] not in (0, EXIT_NONCONVERGENCE):  # 3: every replicate failed
            return [(f"exit code {rec['rc']}: {rec['stderr'].strip()}", WRONG)] * rec["replicates"]
        with open(rec["out"] / "summary.json") as fh:
            summary = json.load(fh)
        outcomes = []
        for r in summary["records"]:
            tag = f"replicate {r['replicate']}"
            if not r["ok"]:
                outcomes.append((f"{tag}: {r['error']}", NO_ESTIMATE))
            elif not all(map(math.isfinite, r["estimate"] + [r["loglik"]])):
                outcomes.append((f"{tag}: non-finite estimate", WRONG))
            elif not r["converged"]:
                outcomes.append((f"{tag}: converged: false", MISSED))
            else:
                problem = self._se_problem(r["asymptotic_se"])
                outcomes.append(problem and (f"{tag}: {problem}", WRONG))
        missing = rec["replicates"] - len(outcomes)
        return outcomes + [("replicate record missing", WRONG)] * missing


def check(records, checker, main):
    """Check every program output.

    Returns (attempted, failures, verdict, fits). ``verdict`` is None
    when the run is correct, else the reason. ``fits`` counts the fits of
    ``main`` commands that returned an estimate without a wrong output,
    missed ones included.
    """
    outcomes = []  # (kind, label, outcome), one per attempted operation
    for rec in records:
        label = f"{rec['kind']} seed={rec['seed']}"
        if rec["kind"] == "setup":
            continue
        if rec["kind"] == "replicate":
            outs = checker.replicate_outcomes(rec)
        elif rec["kind"] == "fit":
            outs = [checker.fit_outcome(rec)]
        else:
            outs = [None if rec["rc"] == 0
                    else (f"exit code {rec['rc']}: {rec['stderr'].strip()}", WRONG)]
        outcomes += [(rec["kind"], label, o) for o in outs]
    failures = [f"{label} ({o[1]}): {o[0]}" for _, label, o in outcomes if o]
    fit_outcomes = [o for kind, _, o in outcomes if kind != "simulate"]
    missed = sum(bool(o) and o[1] != WRONG for o in fit_outcomes)
    ceiling = max(MISS_ALLOWANCE, MISS_CEILING * len(fit_outcomes))
    verdict = None
    if any(o and o[1] == WRONG for _, _, o in outcomes):
        verdict = "wrong output"
    elif missed > ceiling:
        verdict = (f"{missed} of {len(fit_outcomes)} fits missed or gave no estimate, "
                   f"more than {ceiling:g}")
    fits = sum(kind in main and kind != "simulate" and (not o or o[1] == MISSED)
               for kind, _, o in outcomes)
    return len(outcomes), failures, verdict, fits


# ----------------------------------------------------------------------
# Set-up time, memory, environment
# ----------------------------------------------------------------------

def peak_rss_mb():
    """Peak RSS of this process, which runs every command, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {
        "blas_threads": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
    }


# ----------------------------------------------------------------------

def run_workload(wl, seed, seconds, trace):
    from inputs import write_inputs
    from speedprobe import SpeedProbe
    from tracer import Tracer

    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    cfg_path = write_inputs(wl, seed, work / "inputs")
    # Building the checker also warms imports and the weights code path.
    checker = Checker(wl, cfg_path)
    plan = make_plan(wl, seed, seconds, trace)
    main = main_kinds(wl)

    def wall(records):
        return sum(r["seconds"] for r in records if r["kind"] in main)

    with SpeedProbe() as probe:
        if trace:
            records, speed = execute(plan, cfg_path, work / "plain", probe)
            tracer = Tracer()
            tracer.install()
            try:
                traced_records, traced_speed = execute(plan, cfg_path, work / "traced", probe)
            finally:
                tracer.uninstall()
            overhead = wall(traced_records) * traced_speed / (wall(records) * speed)
            records += traced_records
        else:
            records, speed = execute(plan, cfg_path, work / "run", probe)
            rss = peak_rss_mb()
            wall_s = wall(records) * speed

    attempted, failures, verdict, fits = check(records, checker, main)
    if trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        tracer.write_spans(work / "spans.json")
        for name in tracer.missing:
            print(f"warning: layer {name} not found; reported as 0 calls", file=sys.stderr)
    else:
        # Means, not medians: the speed factor is a mean over the run, and
        # the machine's speed is bimodal, so a median would snap to one mode.
        # Set-up is the exception: a probe is a fresh process, and a median
        # of several drops the one that starts cold or is pre-empted.
        times = {kind: [speed * r["seconds"] for r in records if r["kind"] == kind]
                 for kind in ("setup", "simulate", "fit")}
        mean_s = {kind: statistics.fmean(v) for kind, v in times.items()}
        metrics = {
            "setup_s": (statistics.median(times["setup"]), "s"),
            "wall_s": (wall_s, "s"),
            "fits_per_s": (fits / wall_s, "1/s"),
            "simulate_s": (mean_s["simulate"], "s"),
            "fit_s": (mean_s["fit"], "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    result = {"correct": verdict is None, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    env = environment()
    print(f"environment: {json.dumps(env)}")
    print(f"speed factor: {speed:.4f} (timed metrics are scaled by it)")
    with open(work / "result.json", "w") as fh:
        ops = [[r["kind"], r["seed"], r.get("rc"), r["seconds"], r.get("probe_s")]
               for r in records]
        json.dump(dict(result, workload=wl.name, seed=seed, seconds=seconds, trace=trace,
                       speed_factor=speed, plan=plan, ops=ops, failures=failures,
                       environment=env), fh, indent=2)
    for f in failures:
        print(f"FAILED {wl.name}: {f}", file=sys.stderr)
    if verdict:
        print(f"INCORRECT {wl.name}: {verdict}", file=sys.stderr)
    return result


def print_result(name, result):
    for k, m in result["metrics"].items():
        print(f"{name:<22} {k:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{name:<22} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")


def run_all(args):
    """Run every workload in its own process, so each has its own peak RSS."""
    from inputs import WORKLOADS

    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            print(f"{name}: benchmark exited with code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines[:-1]))
        ok = ok and proc.returncode == 0 and result["correct"]
        results[name] = result
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None):
    from inputs import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if not (SRC / "pstarann" / "__init__.py").is_file():
        print(f"error: {SRC / 'pstarann'} not found; run from a pstarann checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    result = run_workload(wl, args.seed, args.seconds, args.trace)
    print_result(wl.name, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
