"""Scalar-or-grid helpers: array results must carry the scalar bits exactly."""

import ast
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levicool import rates, steady_state, system
from levicool.numeric import power, sqrt

_QUIET_BIT = np.uint64(1 << 51)


def python_power(v: float, p: int) -> float:
    """``v ** p``, with an overflow as the inf of the sign ``v ** p`` has."""
    try:
        return v ** p
    except OverflowError:
        return math.copysign(math.inf, v) if p % 2 else math.inf


def assert_power_bits_match_python(x: np.ndarray, p: int) -> None:
    got = power(x, p)
    want = np.array([python_power(v, p) for v in x.tolist()], dtype=np.float64)
    mismatches = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not mismatches.size, [(x[i], got[i], want[i]) for i in mismatches[:5]]


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


@settings(max_examples=300)
@given(st.lists(st.floats(), max_size=50), st.sampled_from((2, 3)))
def test_power_array_has_the_bits_of_python_power(values, p):
    x = np.array(values, dtype=np.float64)
    # arithmetic makes only quiet NaNs, so a signalling one never reaches
    # `power`; libm quiets it where Python's ``**`` returns it as it is
    bits = x.view(np.uint64)
    bits[np.isnan(x)] |= _QUIET_BIT
    assert_power_bits_match_python(x, p)


@pytest.mark.parametrize("p", [2, 3])
def test_power_array_matches_python_on_random_bit_patterns(p):
    bits = np.random.default_rng(100 + p).integers(0, 2**64, 10**6, dtype=np.uint64)
    x = bits.view(np.float64)
    assert_power_bits_match_python(x[~np.isnan(x)], p)


@pytest.mark.parametrize("p, threshold", [(2, 1.3407807929942596e154),
                                          (3, 5.643803094122362e102)])
def test_power_array_matches_python_at_the_overflow_threshold(p, threshold):
    near = [threshold]
    for direction in (math.inf, -math.inf):
        value = threshold
        for _ in range(4):
            value = math.nextafter(value, direction)
            near.append(value)
    x = np.array(near + [-v for v in near])
    assert np.isinf(power(x, p)).any() and np.isfinite(power(x, p)).any()
    assert_power_bits_match_python(x, p)


def test_power_of_a_0d_array_is_a_0d_float64_array():
    got = power(np.array(3.0), 2)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == ()
    assert got.item() == 9.0


def test_power_array_overflow_emits_no_warning():
    assert np.geterr()["over"] == "warn"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert power(np.array([1e200, -1e200]), 3).tolist() == [math.inf, -math.inf]


def test_sqrt_matches_math_sqrt():
    x = np.random.default_rng(0).uniform(0.0, 1e10, 1000)
    assert sqrt(x).tolist() == [math.sqrt(v) for v in x.tolist()]
    assert type(sqrt(2.0)) is float


def test_pipeline_raises_only_constants_with_the_power_operator():
    """Every power of a quantity that a grid may hold goes through `power`:
    numpy's own ``**`` rounds some array elements unlike Python's ``float **``
    (see the pinned cases above), so a grid cell would lose its point's bits."""
    constants = {"hbar", "math.pi", "CONSTANTS.rb87_gamma_se"}
    for module in (system, rates, steady_state):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                assert ast.unparse(node.left) in constants, (module.__name__, ast.unparse(node))
