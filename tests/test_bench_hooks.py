"""The benchmark's tracer patches library names; they must still exist."""

import sys
from pathlib import Path

import pstarann as pa
import pstarann.cli  # noqa: F401  (the tracer patches cli.build_weights)
from conftest import MODEL1_COLUMNS, model1_spec, model1_theta

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings():
    """Every name bound in a pstarann module or on one of its classes."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "pstarann" or modname.startswith("pstarann.")):
            continue
        for name, value in vars(module).items():
            out[modname, name] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[modname, name, attr] = member
    return out


def test_tracer_finds_and_restores_the_traced_layers(w44, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    spec = model1_spec(w44)
    data = pa.simulate(spec, model1_theta(), seed=3, T=6, covariate_columns=MODEL1_COLUMNS)
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        res = pa.fit(spec, data, n_starts=2, seed=0)
    finally:
        tracer.uninstall()
    after = _bindings()

    # model.residual_matrix has been gone since the residuals moved into
    # the likelihood workspace; any other missing layer reads 0 silently
    assert set(tracer.missing) <= {"model.residual_matrix"}
    metrics = tracer.metrics()
    # the optimizer's result carries the fun, nit and nfev the tracer reads;
    # a normal fit runs one trust-region stage per start
    assert metrics["estimate.nfev"][0] == sum(t["nfev"] for t in res.trace) > 0
    assert metrics["estimate.nit"][0] == sum(t["nit"] for t in res.trace) > 0
    finite = [t["loglik"] is not None for t in res.trace]
    assert metrics["estimate.starts_ok_ratio"][0] == sum(finite) / len(finite)
    assert metrics["likelihood.loglik_and_gradient.calls"][0] > 0
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
