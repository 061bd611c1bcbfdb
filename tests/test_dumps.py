"""JSON output: ``io.dumps`` against the standard library's reader.

The property test draws its doubles under the deterministic hypothesis
profile of ``conftest.py``.
"""

import json
import math
import struct

import numpy as np
import pytest

from polarfact import io

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


class TestDumps:
    """``io.dumps`` writes every finite double so that it reads back with the
    same bits, numpy values like their Python counterparts."""

    @staticmethod
    def same_bits(x, y):
        return type(y) is float and struct.pack("<d", x) == struct.pack("<d", y)

    @hypothesis.given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_double_round_trips(self, x):
        assert self.same_bits(x, json.loads(io.dumps({"x": x}))["x"])

    @pytest.mark.parametrize(
        "x", [-0.0, 0.0, 1.0, -2.0, 0.1, 5e-324, -5e-324, 2.2250738585072009e-308,
              1.7976931348623157e308, -1.7976931348623157e308],
    )
    def test_edge_doubles_round_trip(self, x):
        assert self.same_bits(x, json.loads(io.dumps({"x": x}))["x"])
        assert self.same_bits(x, json.loads(io.dumps(np.float64(x))))

    def test_numpy_values_serialise_like_python_values(self):
        a = np.array([[0.1, -0.0], [1.0, 3e-310]])
        doc = {"f": np.float64(0.1), "f32": np.float32(0.5), "i": np.int64(-3),
               "a": a, "ints": np.arange(3), "nested": [a[0], (np.int32(2),)]}
        plain = {"f": 0.1, "f32": 0.5, "i": -3, "a": a.tolist(), "ints": [0, 1, 2],
                 "nested": [a[0].tolist(), [2]]}
        assert io.dumps(doc) == io.dumps(plain) == json.dumps(plain) + "\n"

    def test_fixed_layout(self):
        doc = {"b": None, "a": [True, False], "s": "\u00e9"}
        assert io.dumps(doc) == '{"b": null, "a": [true, false], "s": "\\u00e9"}\n'

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(np.nan)])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError):
            io.dumps({"x": [x]})
        with pytest.raises(ValueError):
            io.dumps(np.array([1.0, x]))

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError, match="cannot serialise object"):
            io.dumps({"x": object()})
