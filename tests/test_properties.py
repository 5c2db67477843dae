"""Property tests: the flat parameter layout and the panel CSV round trip.

Derandomized (the same examples on every run) with capped example counts,
so the module stays deterministic and fast.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pstarann as pa

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                             database=None)

W22 = pa.build_queen_lattice(2, 2)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def spec_and_array(draw):
    """A spec with random (p, n_beta, h, q) and a flat theta array for it."""
    h = draw(st.integers(0, 3))
    q = draw(st.integers(1 if h else 0, 3))
    spec = pa.ModelSpec(W=W22, p=draw(st.integers(0, 3)), q=q, h=h,
                        density=pa.normal(), linear_term=draw(st.booleans()))
    return spec, draw(arrays(np.float64, spec.dim, elements=finite))


class TestParameterLayout:
    @PROPERTY_SETTINGS
    @given(spec_and_array())
    def test_array_round_trip_is_bit_exact_and_copies(self, case):
        spec, x = case
        theta = pa.ParameterVector.from_array(x, spec)
        assert same_bits(theta.to_array(), x)
        assert not np.shares_memory(theta.x, x)
        assert not np.shares_memory(theta.to_array(), theta.x)
        assert theta.layout == spec.layout and theta.dim == spec.dim

    @PROPERTY_SETTINGS
    @given(spec_and_array())
    def test_named_construction_equals_from_array(self, case):
        spec, x = case
        lay = spec.layout
        named = pa.ParameterVector(x[0], x[lay.phi], x[lay.beta], x[lay.lam],
                                   x[lay.gamma].reshape(spec.h, spec.q))
        flat = pa.ParameterVector.from_array(x, spec)
        assert same_bits(named.x, flat.x)
        assert named.layout == flat.layout or not spec.h  # q is moot without neurons
        named.validate(spec)
        assert named.phi0 == flat.phi0
        for block in ("phi", "beta", "lam", "gamma"):
            assert same_bits(getattr(named, block).ravel(), getattr(flat, block).ravel())

    @PROPERTY_SETTINGS
    @given(spec_and_array(), finite)
    def test_writes_through_views_reach_x(self, case, value):
        spec, x = case
        lay = spec.layout
        theta = pa.ParameterVector.from_array(x, spec)
        theta.phi0 = value
        assert theta.x[0] == value
        for block, sl in (("phi", lay.phi), ("beta", lay.beta), ("lam", lay.lam),
                          ("gamma", lay.gamma)):
            view = getattr(theta, block)
            assert np.shares_memory(view, theta.x) or view.size == 0
            new = np.full(view.shape, value) - np.arange(view.size).reshape(view.shape)
            setattr(theta, block, new)
            assert same_bits(theta.x[sl], new.ravel())
            view[...] = 0.0  # in-place writes reach x too
            assert not np.any(theta.x[sl])
            with pytest.raises(ValueError, match="cannot assign"):
                setattr(theta, block, np.zeros(view.size + 1))

    @PROPERTY_SETTINGS
    @given(spec_and_array())
    def test_json_round_trip_is_exact(self, case):
        spec, x = case
        theta = pa.ParameterVector.from_array(x, spec)
        back = pa.ParameterVector.from_json_dict(json.loads(json.dumps(theta.to_json_dict())))
        assert same_bits(back.x, theta.x)
        back.validate(spec)


@st.composite
def panels(draw):
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    n, T = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    Y = draw(arrays(np.float64, (p + T, n), elements=finite))
    X = draw(arrays(np.float64, (T, n, q), elements=finite))
    return pa.PanelData(Y=Y, X=X, p=p)


class TestPanelCsvRoundTrip:
    @PROPERTY_SETTINGS
    @given(panels())
    def test_write_then_read_is_bit_identical(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            pa.write_panel_csv(path, data)
            back = pa.read_panel_csv(path, data.p, data.q)
        assert back.p == data.p
        assert same_bits(back.Y, data.Y)
        assert same_bits(back.X, data.X)
