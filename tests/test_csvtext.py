"""`levicool.csvtext` against Python's own ``'%.9e'`` and ``'%.12g'``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levicool import csvtext

FORMATS = (("%.9e", csvtext.write_e9, csvtext.E9_WIDTH),
           ("%.12g", csvtext.write_g12, csvtext.G12_WIDTH))


def assert_matches_percent(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    for fmt, write, width in FORMATS:
        rows, (slot,) = csvtext.row_matrix(values.size, (width,))
        write(slot, values)
        got = csvtext.text(rows).splitlines()
        want = [fmt % v for v in values.tolist()]
        mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert len(got) == len(want)
        assert not mismatches, f"{fmt}: {mismatches[:5]}"


def _ulps_from(value: float, steps: int) -> float:
    direction = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, direction))
    return value


_signs = st.sampled_from((1.0, -1.0))

#: within 4 ulp of 10^k * {1, 5, 0.99999999999995, 9.9999999995}, where a
#: decade or a rounding boundary lies at 10 or 12 significant digits
_near_boundaries = st.builds(
    lambda base, k, steps, sign: sign * _ulps_from(base * 10.0 ** k, steps),
    st.sampled_from((1.0, 5.0, 0.99999999999995, 9.9999999995)),
    st.integers(-330, 308), st.integers(-4, 4), _signs)

_tie_digits = st.integers(10**9, 10**10 - 1) | st.integers(10**11, 10**12 - 1)

#: exact ties at 10 and 12 significant digits: d.5 and an odd-ending integer
_ties = st.builds(lambda half, n, sign: sign * (n + 0.5 if half else 10.0 * n + 5.0),
                  st.booleans(), _tie_digits, _signs)

#: ties scaled by 10^k: the float lies within an ulp of the tie, and the
#: scaled significand can land on either side of .5
_scaled_ties = st.builds(lambda n, k, sign: sign * (n + 0.5) * 10.0 ** k,
                         _tie_digits, st.integers(-95, 95), _signs)

#: magnitudes near 1e+-300, down into the subnormals
_extreme = st.builds(lambda m, k, sign: sign * m * 10.0 ** k,
                     st.floats(1.0, 10.0), st.integers(-323, -290) | st.integers(290, 308),
                     _signs)

_named = st.sampled_from((0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                          5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                          1.7976931348623157e308, 1e300, 1e-300, 9.99999999999e99,
                          1e100, 1e-99, 1e-100, 1e-5, 1e-4, 1e11, 1e12, 1.0))

_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=300)
@given(st.lists(st.one_of(_any_float, _near_boundaries, _ties, _scaled_ties, _extreme,
                          _named),
                min_size=1, max_size=50))
def test_text_equals_percent_format(values):
    assert_matches_percent(values)


def test_seeded_million_values():
    rng = np.random.default_rng(20260418)
    spread = rng.standard_normal(400_000) * 10.0 ** rng.uniform(-120, 120, 400_000)
    bit_patterns = rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)
    scaled_ties = ((rng.integers(10**9, 10**10, 100_000) + 0.5)
                   * 10.0 ** rng.integers(-90, 90, 100_000))
    scaled_ties12 = ((rng.integers(10**11, 10**12, 100_000) + 0.5)
                     * 10.0 ** rng.integers(-90, 90, 100_000))
    assert_matches_percent(np.concatenate([spread, bit_patterns, scaled_ties, scaled_ties12]))


@settings(max_examples=300)
@given(st.lists(st.one_of(_any_float, _near_boundaries, _ties, _scaled_ties, _extreme,
                          _named),
                max_size=50))
def test_g12_texts_equal_percent_format(values):
    assert csvtext.g12_texts(np.array(values, dtype=np.float64)) == [
        "%.12g" % v for v in values]


def test_g12_texts_of_nothing():
    assert csvtext.g12_texts(np.array([], dtype=np.float64)) == []


@pytest.mark.parametrize("digits", [10, 12])
def test_every_exact_tie_is_formatted_by_percent(digits):
    """A tie goes through `%`, whose rounding of the exact value decides it."""
    n = np.arange(10**(digits - 1), 10**(digits - 1) + 2000, dtype=np.float64)
    ties = np.concatenate([n + 0.5, -(n + 0.5)])
    exact = csvtext._decompose(ties, digits)[0]
    assert not exact.any()
    assert_matches_percent(ties)


def test_runs_fill_label_rows():
    rows, (first, label) = csvtext.row_matrix(5, (3, 4))
    first[:] = ord("x")
    csvtext.write_runs(label, [("ab", 2), ("", 1), ("abcd", 2)])
    assert csvtext.text(rows) == "xxx,ab\nxxx,ab\nxxx,\nxxx,abcd\nxxx,abcd\n"
