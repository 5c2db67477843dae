"""
Seeded input generator for the benchmark workloads.

Each workload is one experiment design. ``write_inputs`` turns a workload
name and a seed into the files the program reads: the JSON config and, for
the adjacency design, the edge-list CSV. The program sees only these files
and the ``--seed`` values passed on its command line; both are derived
from the workload seed here, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay

# Model 1 of the paper's simulation study: p = 1, q = 2, h = 1, no linear
# term (the design of demos/model1.json, held here so that edits to the
# demos cannot change the benchmark).
MODEL1_THETA = {"phi0": 0.6, "phi": [-0.274], "beta": [], "lambda": [1.5],
                "gamma": [[0.75, -0.35]]}
MODEL1_COLUMNS = [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}]

# The criterion-9 design: planar adjacency over 3107 random points, q = 4
# with an intercept column, h = 2, scaled t(8), T = 2.
ADJ_N = 3107
ADJ_THETA = {"phi0": 0.4, "phi": [0.3], "beta": [-1.2, 0.15, -1.2, -0.15],
             "lambda": [3.2, 1.8],
             "gamma": [[0.5, 1.6, -2.5, 2.3], [0.4, -1.8, 1.3, -0.9]]}
ADJ_COLUMNS = [{"kind": "constant", "value": 1.0}] + [{"kind": "normal", "sd": 1.0}] * 3

OPTIM = {"n_starts": 5, "tol": 1e-8, "max_iter": 500}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``cycle_s`` is the wall time of one CLI simulate + fit cycle and
    ``replicate_s`` that of one replicate of a single-process
    ``replicate`` command, both on the reference machine in its slower
    phases; ``batch`` is the number of replicates per ``replicate``
    command (0: the workload issues none). run.py sizes a run's fixed work
    from ``--seconds`` and the time of one round: a batch and a cycle, or
    a cycle on a workload without batches.
    """

    name: str
    config: dict
    cycle_s: float
    replicate_s: float = 0.0
    batch: int = 0


# Why each workload exists: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in [
        Workload(
            "mc-lattice20",
            {
                "lattice": {"n1": 20, "n2": 20},
                "model": {"p": 1, "q": 2, "h": 1, "density": "normal", "linear_term": False},
                "covariates": MODEL1_COLUMNS,
                "theta": MODEL1_THETA,
                "simulate": {"T": 30, "burn_in": 200},
                "optim": OPTIM,
            },
            cycle_s=0.85, replicate_s=0.5, batch=3),
        Workload(
            "fit-adj3107",
            {
                "adjacency": {"file": "edges.csv", "n": ADJ_N},
                "model": {"p": 1, "q": 4, "h": 2, "density": "t:8",
                          "linear_term": True, "intercept": True},
                "covariates": ADJ_COLUMNS,
                "theta": ADJ_THETA,
                "simulate": {"T": 2, "burn_in": 200},
                "optim": OPTIM,
            },
            cycle_s=17.0),
    ]
}


def delaunay_edges(seed, n):
    """Sorted undirected edges of the Delaunay triangulation of n seeded points."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    tri = Delaunay(rng.random((n, 2)))
    s = tri.simplices
    pairs = np.concatenate([s[:, [0, 1]], s[:, [1, 2]], s[:, [2, 0]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


def command_seeds(seed, count):
    """The ``--seed`` values handed to the program, one per cycle."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def write_inputs(workload: Workload, seed, directory):
    """Write the workload's input files into ``directory``; return the config path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    adjacency = workload.config.get("adjacency")
    if adjacency:
        edges = delaunay_edges(seed, adjacency["n"])
        with open(directory / adjacency["file"], "w") as fh:
            fh.write("i,j\n")
            fh.writelines(f"{i},{j}\n" for i, j in edges)
    path = directory / "config.json"
    with open(path, "w") as fh:
        json.dump(workload.config, fh, indent=2)
    return path
