"""
Wrapper-based tracer for the library's public layers.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span) in memory. A module-level
function is replaced under every name that refers to it in the pstarann
modules, because ``from .model import check_causal`` binds a separate name
in each importing module (``check_causal`` lives in cli, simulate, estimate
and model). Methods are replaced on their class. ``uninstall`` restores
every original.

A span's self time is its duration minus the time its child spans cover.
Calls are strictly nested in one thread, so the coverage is the sum of the
direct children's durations.

Besides spans the tracer counts optimizer work through a proxy for the
``optimize`` module as estimate.py looks it up: evaluations (``nfev``),
iterations (``nit``) and starts that ended at a finite optimum. Domain
rejections are read from each FitResult that ``fit`` returns.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (metric name, module, attribute, class or None). With a class the
# attribute is a method patched on that class; otherwise it is a module
# function patched wherever a pstarann module binds it.
LAYERS = [
    ("weights.WeightMatrix", "pstarann.weights", "__init__", "WeightMatrix"),
    ("weights.log_det_a0", "pstarann.weights", "log_det_a0", "WeightMatrix"),
    ("weights.trace_w_a0inv", "pstarann.weights", "trace_w_a0inv", "WeightMatrix"),
    ("weights.a0_factor", "pstarann.weights", "a0_factor", "WeightMatrix"),
    ("weights.read_adjacency_csv", "pstarann.weights", "read_adjacency_csv", None),
    ("model.sigmoid", "pstarann.model", "sigmoid", None),
    ("model.residual_matrix", "pstarann.model", "residual_matrix", None),
    ("model.check_causal", "pstarann.model", "check_causal", None),
    ("densities.log_pdf", "pstarann.densities", "log_pdf", "ErrorDensity"),
    ("densities.score", "pstarann.densities", "score", "ErrorDensity"),
    ("likelihood.loglik_and_gradient", "pstarann.likelihood", "loglik_and_gradient",
     "LikelihoodWorkspace"),
    ("likelihood.hessian", "pstarann.likelihood", "hessian", "LikelihoodWorkspace"),
    ("likelihood.score_outer_product", "pstarann.likelihood", "score_outer_product",
     "LikelihoodWorkspace"),
    ("estimate.fit", "pstarann.estimate", "fit", None),
    ("estimate.initial_points", "pstarann.estimate", "initial_points", None),
    ("estimate.sandwich_covariance", "pstarann.estimate", "sandwich_covariance", None),
    ("simulate.simulate", "pstarann.simulate", "simulate", None),
    ("simulate.write_panel_csv", "pstarann.simulate", "write_panel_csv", None),
    ("simulate.read_panel_csv", "pstarann.simulate", "read_panel_csv", None),
    ("diagnostics.residual_diagnostics", "pstarann.diagnostics", "residual_diagnostics",
     None),
    ("diagnostics.morans_i", "pstarann.diagnostics", "morans_i", None),
    ("cli.build_weights", "pstarann.cli", "build_weights", None),
]

class _OptimizeProbe:
    """Stands in for scipy.optimize inside estimate.py and counts minimize work."""

    def __init__(self, module, counts, penalty_floor):
        self._module = module
        self._counts = counts
        self._penalty_floor = penalty_floor  # fit() drops optima at or above this

    def __getattr__(self, name):
        return getattr(self._module, name)

    def minimize(self, *args, **kwargs):
        res = self._module.minimize(*args, **kwargs)
        c = self._counts
        c["estimate.nfev"] += int(res.nfev)
        c["estimate.nit"] += int(res.nit)
        c["starts"] += 1
        c["starts_ok"] += int(math.isfinite(res.fun) and res.fun < self._penalty_floor)
        return res


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.missing = []        # layers the library no longer defines
        self._stack = []
        self._restore = []       # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        count_rejections = name == "estimate.fit"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count_rejections:
                counts["estimate.domain_rejections"] += int(result.n_domain_rejections)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "pstarann" or k.startswith("pstarann."))]
        for name, modname, attr, cls in LAYERS:
            module = sys.modules[modname]
            owner = getattr(module, cls, None) if cls else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if cls:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapper)
        estimate = sys.modules["pstarann.estimate"]
        probe = _OptimizeProbe(estimate.optimize, self.counts, estimate._PENALTY / 2)
        self._patch(estimate, "optimize", probe)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Per-layer calls, total and self seconds, plus the optimizer counts.

        Returns {name: (value, unit)}; a layer that never ran reports zeros.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selft = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            selft[name] += end - start - child[k]
        out = {}
        for name, *_ in LAYERS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.total_s"] = (total[name], "s")
            out[f"{name}.self_s"] = (selft[name], "s")
        c = self.counts
        out["estimate.nfev"] = (c["estimate.nfev"], "count")
        out["estimate.nit"] = (c["estimate.nit"], "count")
        out["estimate.starts_ok_ratio"] = (c["starts_ok"] / c["starts"] if c["starts"] else 0.0,
                                           "ratio")
        out["estimate.domain_rejections"] = (c["estimate.domain_rejections"], "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
