"""`levicool.csvtext.table` against CSV text built with Python's own ``%``."""

import io
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levicool import csvtext

NUMBER_FORMATS = ("%.9e", "%.12g")


def percent(fmt: str, value) -> str:
    """The field `table` writes: ``fmt % value``, and nothing for a NaN."""
    return "" if fmt != "%s" and value != value else fmt % value


def assert_matches_percent(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    for fmt in NUMBER_FORMATS:
        got = csvtext.table("x", [(fmt, values, None)]).split("\n")
        want = ["x", *(percent(fmt, v) for v in values.tolist()), ""]
        mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got[1:], want[1:])
                      if g != w]
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


_floats = st.one_of(_any_float, _near_boundaries, _ties, _scaled_ties, _extreme, _named)

#: ASCII labels without NUL, the empty label included
_labels = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=12)


@st.composite
def _columns(draw, rows: int):
    """One `table` column of `rows` rows: a number or label column, its values
    given row by row or gathered through a random index."""
    fmt = draw(st.sampled_from((*NUMBER_FORMATS, "%s")))
    items = _labels if fmt == "%s" else _floats
    if draw(st.booleans()):
        return fmt, draw(st.lists(items, min_size=rows, max_size=rows)), None
    values = draw(st.lists(items, min_size=1, max_size=8))
    index = draw(st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows))
    return fmt, values, np.array(index, np.intp)


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 30))
    return draw(st.lists(_columns(rows), min_size=1, max_size=5))


@settings(max_examples=300)
@given(_tables())
@example([("%.12g", [], None), ("%s", [], None)])
def test_table_equals_percent_csv(columns):
    rows = len(columns[0][1] if columns[0][2] is None else columns[0][2])
    want = "".join(
        ",".join(percent(fmt, values[k if index is None else index[k]])
                 for fmt, values, index in columns) + "\n"
        for k in range(rows))
    given_columns = [(fmt, values if fmt == "%s" else np.array(values, np.float64), index)
                     for fmt, values, index in columns]
    assert csvtext.table("a,b", given_columns) == "a,b\n" + want


@pytest.mark.parametrize("digits", [10, 12])
def test_every_exact_tie_is_formatted_by_percent(digits):
    """A tie goes through `%`, whose rounding of the exact value decides it.

    Scaled by 10**k, a tie is still exact in binary up to 10**15, but its
    scaled significand carries the rounding of 10**-k, which must stay
    inside the precision's `TIE_MARGIN`.
    """
    n = np.arange(10**(digits - 1), 10**(digits - 1) + 2000, dtype=np.float64)
    ties = np.concatenate([(n + 0.5) * 10.0**k for k in range(16 - digits)])
    ties = np.concatenate([ties, -ties])
    exact = csvtext._decompose(ties, digits)[0]
    assert not exact.any()
    assert_matches_percent(ties)


def test_ten_digit_value_near_a_tie_is_exact():
    """At 10 digits a value 1e-4 from a tie is rounded by the writer, not by `%`."""
    near = np.array([1234567890.4999, 1234567890.5001, -9876543210.4999, 5.0000000004999e-7])
    assert csvtext._decompose(near, 10)[0].all()
    assert_matches_percent(near)


def test_percent_text_keeps_its_column_narrow():
    """A `%` text puts its sign and "0." prefix in the head: a column mixing it
    with exact values of its layout shows no NUL."""
    for values in ([0.1234567890125, 0.234567890123, 0.345678901234],
                   [-0.0001234567890125, -0.000234567890123]):
        values = np.array(values)
        assert csvtext._decompose(values, 12)[0].tolist() == [False] + [True] * (values.size - 1)
        text = "x\n" + "".join(f"{v:.12g}\n" for v in values.tolist())
        assert bytes(csvtext._matrix("x", [("%.12g", values, None)])) == text.encode("ascii")


@pytest.mark.parametrize("fmt", NUMBER_FORMATS)
def test_writer_sets_every_byte_of_its_block(fmt):
    """Every block byte is set, and the text lies in the spans its sizes give."""
    values = np.array([1.5, -2.25e-7, -2.2250738585072014e-308, np.nan, 1e22])
    blocks = np.full((values.size, csvtext._BLOCK), 0xFF, np.uint8)
    sizes = np.full((3, values.size), 0xFF, np.uint8)
    csvtext._write(blocks, sizes, values, fmt)
    want = [percent(fmt, v).encode("ascii") for v in values.tolist()]
    assert [row.tobytes().translate(None, b"\0") for row in blocks] == want
    exponent_at = csvtext._HEAD + csvtext._PRECISION[fmt] + 1
    shown = [b"".join(row[start:end].tobytes()
                      for start, end in csvtext._spans(*size.tolist(), exponent_at))
             for row, size in zip(blocks, sizes.T)]
    assert [text.translate(None, b"\0") for text in shown] == want


def test_fixed_notation_column_has_no_sign_or_exponent_bytes():
    matrix = bytes(csvtext._matrix("x", [("%.12g", np.array([1.5, 22.25]), None)]))
    assert matrix == b"x\n1.5\0\0\n22.25\n"


def _every_layout(fmt: str) -> np.ndarray:
    """A value of each exponent -99..99 and sign, and for `%.12g` each digit count."""
    counts = range(1, 13) if fmt == "%.12g" else (2, 10)
    return np.array([float(f"{sign}{digits[0]}.{digits[1:count]}e{x}")
                     for x in range(-99, 100) for count in counts for sign in "+-"
                     for digits in ["987654321987"[:count - 1] + "3"]])


@pytest.mark.parametrize("fmt", NUMBER_FORMATS)
def test_every_layout_alone_and_mixed_equals_percent(fmt):
    """Every layout in one mixed column and in a column of its own, per row and gathered.

    A column of one layout shows exactly its text: no NUL is left in the row
    matrix, so a sign, prefix or exponent field is there only when a value
    of the column has one.
    """
    values = _every_layout(fmt)
    texts = [percent(fmt, v) for v in values.tolist()]
    order = np.random.default_rng(5).permutation(values.size)
    assert csvtext.table("x", [(fmt, values, None)]) == "x\n" + "".join(
        text + "\n" for text in texts)
    assert csvtext.table("x", [(fmt, values, order)]) == "x\n" + "".join(
        texts[k] + "\n" for k in order)
    alone = [(fmt, values[k:k + 1], None) for k in range(values.size)]
    gathered = [(fmt, values[k:k + 1], np.zeros(2, np.intp)) for k in range(values.size)]
    for columns, rows in ((alone, 1), (gathered, 2)):
        matrix = bytes(csvtext._matrix("x", columns))
        assert b"\0" not in matrix
        assert matrix.decode("ascii") == "x\n" + (",".join(texts) + "\n") * rows


def _reference(columns) -> str:
    rows = len(columns[0][1] if columns[0][2] is None else columns[0][2])
    return "h\n" + "".join(
        ",".join(percent(fmt, values[k if index is None else index[k]])
                 for fmt, values, index in columns) + "\n"
        for k in range(rows))


def _mixed_tables():
    """A large table, then small, empty, all-NaN and three-format ones."""
    rng = np.random.default_rng(23)
    large = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-20, 20, 20_000)
    small = rng.standard_normal(3) * 1e5
    mixed = rng.standard_normal(40) * 10.0 ** rng.uniform(-8, 8, 40)
    return [
        [("%.12g", large[:10_000], None), ("%.9e", large[10_000:], None)],
        [("%.12g", small, None)],
        [("%.9e", np.empty(0), None)],
        [("%.12g", np.full(5, np.nan), None), ("%.9e", np.full(5, np.nan), None)],
        [("%.9e", mixed[:20], None), ("%.12g", mixed[20:], None),
         ("%s", ["on", "off"], np.arange(20) % 2)],
    ]


def test_kept_buffers_leak_nothing_between_tables():
    """Each table reads as `%` whatever a larger one left in the kept buffers."""
    tables = _mixed_tables()
    for columns in tables + tables[::-1]:
        assert csvtext.table("h", columns) == _reference(columns)


def test_threads_format_concurrently():
    """Kept buffers are per thread: two threads writing different tables
    at once each get their own bytes, round after round."""
    large, _, _, _, mixed = _mixed_tables()
    jobs = [([("%.12g", large[0][1][:2000], None), ("%.9e", large[1][1][:2000], None)], 200),
            (mixed, 400)]
    wrong = []

    def work(columns, rounds):
        want = _reference(columns)
        for _ in range(rounds):
            if csvtext.table("h", columns) != want:
                wrong.append(columns)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=job) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


class TestBinaryFile:
    """`table(..., file)` writes the str's ASCII bytes and returns None."""

    COLUMNS = [("%.12g", np.array([1.5, -22.25, np.nan]), None), ("%s", ["a", "bc"], [1, 0, 1])]

    def test_bytes_are_the_str_as_ascii(self):
        sink = io.BytesIO()
        assert csvtext.table("x,y", self.COLUMNS, sink) is None
        assert sink.getvalue() == csvtext.table("x,y", self.COLUMNS).encode("ascii")
        assert sink.getvalue() == b"x,y\n1.5,bc\n-22.25,a\n,bc\n"

    def test_text_file_is_rejected(self):
        with pytest.raises(TypeError):
            csvtext.table("x,y", self.COLUMNS, io.StringIO())

    def test_a_kept_view_raises_and_never_shows_a_later_table(self):
        class Keeper:
            def write(self, data):
                self.data = data

        keeper = Keeper()
        csvtext.table("x,y", self.COLUMNS, keeper)
        later = csvtext.table("later", [("%.9e", np.arange(50.0), None)])
        with pytest.raises(ValueError):
            bytes(keeper.data)
        with pytest.raises(ValueError):
            keeper.data[0]
        assert later.startswith("later\n0.000000000e+00\n")
