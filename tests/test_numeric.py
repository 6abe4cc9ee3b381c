"""Scalar-or-grid helpers: array results must carry the scalar bits exactly."""

import math

import numpy as np
import pytest

from levicool.numeric import minimum, power, sqrt


@pytest.mark.parametrize("p", [2, 3, 4])
def test_power_matches_python_float_power_elementwise(p):
    rng = np.random.default_rng(p)
    x = rng.uniform(0.0, 1.0, (40, 50)) * 10.0 ** rng.integers(-30, 30, (40, 50))
    got = power(x, p)
    assert got.shape == x.shape
    assert got.ravel().tolist() == [v ** p for v in x.ravel().tolist()]


@pytest.mark.parametrize("x, p", [
    (4.519802818892087e-07, 2),
    (2.653520023740414e-07, 3),   # a 265 nm radius, in metres
])
def test_power_pinned_cases_where_numpy_rounds_differently(x, p):
    assert power(np.array([[x]]), p)[0, 0] == x ** p
    assert power(x, p) == x ** p


def test_power_overflow_gives_inf_in_arrays_and_raises_on_floats():
    assert power(np.array([1e200, 2.0]), 3).tolist() == [math.inf, 8.0]
    with pytest.raises(OverflowError):
        power(1e200, 3)


def test_sqrt_matches_math_sqrt():
    x = np.random.default_rng(0).uniform(0.0, 1e10, 1000)
    assert sqrt(x).tolist() == [math.sqrt(v) for v in x.tolist()]
    assert type(sqrt(2.0)) is float


def test_minimum_is_min_element_by_element():
    nan = math.nan
    a = np.array([1.0, 2.0, nan, 3.0, 0.0, -0.0])
    b = np.array([2.0, 1.0, 1.0, nan, -0.0, 0.0])
    want = [min(x, y) for x, y in zip(a.tolist(), b.tolist())]
    got = minimum(a, b).tolist()
    # min keeps its first argument unless the second is strictly smaller
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]
    assert got[:2] == want[:2] and math.isnan(got[2]) and got[3:] == want[3:]
    assert minimum(np.array([[1.0], [3.0]]), 2.0).tolist() == [[1.0], [2.0]]
    assert minimum(5.0, np.array([4.0, 6.0])).tolist() == [4.0, 5.0]
    assert minimum(2.0, 1.0) == 1.0 and type(minimum(2.0, 1.0)) is float
