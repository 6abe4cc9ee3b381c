"""Exact ``'%.9e'`` and ``'%.12g'`` text of float64 arrays, built with numpy.

Each value's decimal exponent comes from ``log10``; the value is scaled by a
power of ten to a D-digit significand (D = 10 or 12) and rounded. The
scaled value carries at most two float roundings, about 2.2e-4 at 12
digits, so the rounding is taken as exact only when its fraction lies more
than `TIE_MARGIN` from .5. Every other value (0, -0, nan, +-inf, decimal
exponents beyond +-99, near-ties, a ``log10`` one decade too high) is
formatted by Python's ``%`` into its slot, so the text equals ``%`` by
construction.

Text is laid out in a NUL-padded uint8 row matrix (`row_matrix`), one field
slot per column group, and `text` drops the NULs. `g12_texts` gives the
``'%.12g'`` text of each value of an array as a list of strings instead.
"""

from __future__ import annotations

import numpy as np

#: a scaled significand whose fraction lies this close to .5 goes through `%`
TIE_MARGIN = 1e-3

_ZERO = ord("0")
_MINUS = np.uint8(ord("-"))
_DIGIT = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
#: row k is the four ASCII digits of k
_DIGITS4 = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"),
                    axis=-1).reshape(-1, 4)
_QUADS = _DIGITS4.view(np.uint32).reshape(-1)
#: trailing zero digits of each row of _DIGITS4
_K = np.arange(10_000, dtype=np.uint16)
_TRAILING = sum((_K % 10**j == 0).view(np.uint8) for j in range(1, 5))
#: row x + 99 is "e", the sign and two digits of exponent x; the row of
#: x = 100 only fills the slot of a value that goes through `%`
_EXPONENTS = np.column_stack([
    np.full(200, ord("e")),
    np.where(np.arange(-99, 101) < 0, ord("-"), ord("+")),
    _DIGITS4[np.abs(np.arange(-99, 101)), 2:],
]).astype(np.uint8)
#: _POW10[k + 128] is the float nearest 10**k
_POW10 = np.array([float(f"1e{k}") for k in range(-128, 128)])

E9_WIDTH = 17    # '-2.225073859e-308'

# A '%.12g' slot holds every character any layout can use: sign, "0.000",
# twelve digits each followed by a '.' slot, and the exponent. A layout keeps
# some of them and blanks the rest to NUL.
G12_WIDTH = 33
_G12_DIGITS = slice(6, 29, 2)
_G12_BASE = np.frombuffer(b"-0.000" + b"0." * 11 + b"0e+00", np.uint8)


def _g12_keep(x_class: int, sig: int) -> np.ndarray:
    """Which slot characters `'%.12g'` shows for one exponent class and digit count.

    Class x + 4 is fixed notation for exponents -4 <= x < 12, class 16 the
    exponent form. The sign is written separately.
    """
    keep = np.zeros(G12_WIDTH, bool)
    digit = np.arange(G12_WIDTH)[_G12_DIGITS]
    if x_class == 16:
        keep[digit[:sig]] = True
        keep[digit[0] + 1] = sig > 1
        keep[-4:] = True
    elif x_class < 4:                            # "0.", leading zeros, digits
        keep[1:3] = True
        keep[3:6 - x_class] = True
        keep[digit[:sig]] = True
    else:
        point = x_class - 4                      # digits up to the point always show
        keep[digit[:max(sig, point + 1)]] = True
        keep[digit[point] + 1] = sig > point + 1
    return keep


#: row class * 12 + significant digits - 1, as 0xff/0x00 byte masks
_G12_KEEP = np.array([_g12_keep(c, s) for c in range(17) for s in range(1, 13)]
                     ).astype(np.uint8) * np.uint8(0xFF)


def _decompose(values: np.ndarray, precision: int):
    """Each value rounded to `precision` significant digits.

    Returns (exact, exponent, groups, digits): `exact` is False where the
    text must come from `%` (the other outputs hold placeholders there),
    `exponent` is the rounded value's decimal exponent, `groups` its 12-digit
    significand as three 4-digit groups, most significant first, and
    `digits` the (n, 12) ASCII digits of the significand.
    """
    magnitude = np.abs(values)
    exact = np.isfinite(magnitude) & (magnitude != 0)
    magnitude[~exact] = 1.0
    exponent = np.clip(np.floor(np.log10(magnitude)), -99, 99).astype(np.intp)
    scaled = magnitude * _POW10.take(precision + 127 - exponent)
    whole = np.floor(scaled)
    fraction = scaled - whole
    low = 10.0 ** (precision - 1)
    # up to TIE_MARGIN below `low`, the exact value also rounds to `low`
    exact &= ((np.abs(fraction - 0.5) > TIE_MARGIN) & (scaled >= low - TIE_MARGIN)
              & (scaled < 10 * low + 0.5))
    whole += fraction > 0.5
    carry = whole == 10 * low
    whole[carry | ~exact] = low
    exponent += carry
    exact &= exponent <= 99
    # float division of an integer below 2**53 by 1e4 or 1e8 floors exactly
    top = np.floor(whole / 1e8)
    rest = whole - top * 1e8
    mid = np.floor(rest / 1e4)
    groups = [group.astype(np.intp) for group in (top, mid, rest - mid * 1e4)]
    quads = np.empty((values.size, 3), np.uint32)
    for k, group in enumerate(groups):
        quads[:, k] = _QUADS.take(group)
    return exact, exponent, groups, quads.view(np.uint8)


def _patch(out: np.ndarray, values: np.ndarray, exact: np.ndarray, fmt: str) -> None:
    """Write `fmt % value` into the slot of each value that is not exact."""
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        width = out.shape[1]
        padded = b"".join((fmt % v).encode("ascii").ljust(width, b"\0")
                          for v in values[inexact].tolist())
        out[inexact] = np.frombuffer(padded, np.uint8).reshape(-1, width)


def write_e9(out: np.ndarray, values: np.ndarray) -> None:
    """Write ``'%.9e' % v`` of each float64 value into the NUL-filled rows of `out`,
    an (n, E9_WIDTH) uint8 slot."""
    exact, exponent, _, digits = _decompose(values, 10)
    out[:, 0] = (values < 0) * _MINUS
    out[:, 1] = digits[:, 2]
    out[:, 2] = ord(".")
    out[:, 3:12] = digits[:, 3:]
    out[:, 12:16] = _EXPONENTS.take(exponent + 99, axis=0)
    _patch(out, values, exact, "%.9e")


def write_g12(out: np.ndarray, values: np.ndarray) -> None:
    """Write ``'%.12g' % v`` of each float64 value into the rows of `out`,
    an (n, G12_WIDTH) uint8 slot."""
    exact, exponent, (top, mid, low), digits = _decompose(values, 12)
    trailing = _TRAILING.take(low) + (low == 0) * (
        _TRAILING.take(mid) + (mid == 0) * _TRAILING.take(top))
    x_class = np.where((exponent >= -4) & (exponent < 12), exponent + 4, 16)
    out[:] = _G12_BASE
    out[:, _G12_DIGITS] = digits
    out[:, -4:] = _EXPONENTS.take(exponent + 99, axis=0)
    out &= _G12_KEEP.take(x_class * 12 + 11 - trailing, axis=0)
    out[:, 0] = (values < 0) * _MINUS
    _patch(out, values, exact, "%.12g")


def g12_texts(values: np.ndarray) -> list[str]:
    """``'%.12g' % v`` of each float64 value, written in one `write_g12` pass."""
    block = np.empty((values.size, G12_WIDTH + 1), np.uint8)
    block[:, -1] = ord(",")
    write_g12(block[:, :-1], values)
    return text(block).split(",")[:-1]


def write_runs(out: np.ndarray, runs) -> None:
    """Write ASCII labels given as (label, count) runs into the NUL-filled rows of `out`."""
    start = 0
    for label, count in runs:
        encoded = np.frombuffer(label.encode("ascii"), np.uint8)
        out[start:start + count, :encoded.size] = encoded
        start += count


def row_matrix(rows: int, widths) -> tuple[np.ndarray, list[np.ndarray]]:
    """A NUL-filled uint8 matrix of `rows` CSV rows and a view of each field's slot.

    Each slot is `widths[k]` bytes wide and is followed by ',' (the last
    by '\\n'); `text` turns the matrix into CSV text.
    """
    matrix = np.zeros((rows, sum(widths) + len(widths)), np.uint8)
    slots, start = [], 0
    for width in widths:
        slots.append(matrix[:, start:start + width])
        matrix[:, start + width] = ord(",")
        start += width + 1
    matrix[:, -1] = ord("\n")
    return matrix, slots


def text(matrix: np.ndarray) -> str:
    """The rows of a `row_matrix` as text, NUL padding removed."""
    return matrix.tobytes().translate(None, b"\0").decode("ascii")
