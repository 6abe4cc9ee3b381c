"""CSV text whose numbers are the exact ``'%.9e'`` or ``'%.12g'`` text of float64 values.

`table(header, columns)` writes every CSV of the program; a value that many
rows share is formatted once and gathered by row index.

The numbers of one format are formatted together, `_CHUNK` at a time. Each
value's decimal exponent comes from ``log10``; the value is scaled by a power
of ten to a D-digit significand (D = 10 or 12) and rounded. The scaled value
carries at most two float roundings, about 2.2e-4 at 12 digits, so the
rounding is taken as exact only when its fraction lies more than
`TIE_MARGIN` from .5. Every other value (0, -0, nan, +-inf, decimal
exponents beyond +-99, near-ties, a ``log10`` one decade too high) is
formatted by Python's ``%``, so the text equals ``%`` by construction.

A number's text is a block of four little-endian uint64 words, built by
table lookups and shifts of constant count below 64: word 0 holds the sign
and the ``0.000`` prefix of exponents -4..-1, right-aligned; from byte 8 come
the twelve digits, those after the point's place shifted left one byte, then
``e+XX`` right after the format's longest digit field. A `%` text starts at
byte 8. A column keeps only the bytes its values use (its widest sign and
prefix, its longest digits, the exponent if one of them has one); they are
copied into the rows of a uint8 matrix, whose remaining NULs are dropped.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

#: a scaled significand whose fraction lies this close to .5 goes through `%`
TIE_MARGIN = 1e-3
#: most numbers formatted in one pass; bounds the temporaries of a large table
_CHUNK = 1 << 14

#: significant digits of each number format
_PRECISION = {"%.9e": 10, "%.12g": 12}
#: the words are little-endian on any machine, so their bytes are the text
_WORD = np.dtype("<u8")
_BLOCK = 32     # bytes per number: sign and prefix, digits, exponent; '-2.22507385851e-308' fits
_HEAD = 8       # bytes before the digits

_ZERO = ord("0")
_DIGIT = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
#: row k is the four ASCII digits of k
_DIGITS4 = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"),
                    axis=-1).reshape(-1, 4)
_QUADS = np.pad(_DIGITS4, ((0, 0), (0, 4))).view(_WORD).reshape(-1)
#: trailing zero digits of each row of _DIGITS4
_K = np.arange(10_000, dtype=np.uint16)
_TRAILING = sum((_K % 10**j == 0).view(np.uint8) for j in range(1, 5))
#: entry x + 99 is "e", the sign and two digits of exponent x in its low
#: four bytes; only a value that goes through `%` has x = 100
_EXPONENTS = np.pad(np.column_stack([
    np.full(200, ord("e")),
    np.where(np.arange(-99, 101) < 0, ord("-"), ord("+")),
    _DIGITS4[np.abs(np.arange(-99, 101)), 2:],
]).astype(np.uint8), ((0, 0), (0, 4))).view(_WORD).reshape(-1)
#: _POW10[k + 128] is the float nearest 10**k
_POW10 = np.array([float(f"1e{k}") for k in range(-128, 128)])


def _layout(layout: int) -> tuple[bytes, tuple[int, int, int]]:
    """The word pairs and sizes of layout ``x_class * 12 + sig - 1``.

    Class x + 4 is fixed notation of exponent -4 <= x < 12, class 16 the
    exponent form. The pairs are the positive and negative heads and the
    digits' keep mask, shift mask and point; the sizes are the positive
    head's bytes, the digit field's bytes and the exponent flag.
    """
    x_class, sig = divmod(layout, 12)
    sig += 1
    prefix = b"0." + b"0" * (3 - x_class) if x_class < 4 else b""
    # the point follows digit `point`, which always shows; "0.000ddd" has none
    point = x_class - 4 if 4 <= x_class < 16 else 0 if x_class == 16 else sig - 1
    length = max(sig, point + 1) + (sig > point + 1)
    heads = prefix.rjust(_HEAD, b"\0") + (b"-" + prefix).rjust(_HEAD, b"\0")
    keep = bytes(0xFF * (i <= point and i < length) for i in range(16))
    shift = bytes(0xFF * (point + 2 <= i < length) for i in range(16))
    dot = bytes(ord(".") * (i == point + 1 < length) for i in range(16))
    return heads + keep + shift + dot, (len(prefix), length, x_class == 16)


_LAYOUTS = [_layout(layout) for layout in range(17 * 12)]
#: (layouts, 2) word pairs, one table for each part of a layout
_HEADS, _KEEP, _SHIFT, _DOT = np.frombuffer(
    b"".join(words for words, _ in _LAYOUTS), _WORD).reshape(-1, 4, 2).transpose(1, 0, 2).copy()
_LAYOUT_SIZES = np.array([sizes for _, sizes in _LAYOUTS], np.uint8)
#: entry x + 99 is the layout of exponent x with twelve significant digits
_G12_LAYOUTS = np.array([(x + 4 if -4 <= x < 12 else 16) * 12 + 11 for x in range(-99, 101)])
#: the one layout of ``%.9e``: ten digits and the exponent
_E9_LAYOUTS = np.array([16 * 12 + 9])


def _decompose(values: np.ndarray, precision: int):
    """Each value rounded to `precision` significant digits.

    Returns (exact, exponent, groups): `exact` is False where the text must
    come from `%` (the other outputs hold placeholders there), `exponent` is
    the rounded value's decimal exponent, and `groups` (3, n) its significand
    padded with zeros to 12 digits, as 4-digit groups, most significant first.
    """
    magnitude = np.abs(values)
    exact = np.isfinite(magnitude) & (magnitude != 0)
    magnitude[~exact] = 1.0
    exponent = np.floor(np.log10(magnitude))
    # np.clip costs a few microseconds more on the short columns of a trace
    exponent = np.minimum(np.maximum(exponent, -99, out=exponent), 99, out=exponent).astype(np.intp)
    scaled = magnitude * _POW10.take(precision + 127 - exponent)
    whole = np.rint(scaled)
    low = 10.0 ** (precision - 1)
    # up to TIE_MARGIN below `low`, the exact value also rounds to `low`
    exact &= ((np.abs(scaled - whole) < 0.5 - TIE_MARGIN) & (scaled >= low - TIE_MARGIN)
              & (scaled < 10 * low + 0.5))
    carry = whole == 10 * low
    whole[carry | ~exact] = low
    exponent += carry
    exact &= exponent <= 99
    whole *= 10.0 ** (12 - precision)
    digits = whole.astype(np.intp)
    groups = np.empty((3, values.size), np.intp)
    np.floor_divide(digits, 10**8, out=groups[0])
    digits -= groups[0] * 10**8
    np.floor_divide(digits, 10**4, out=groups[1])
    np.subtract(digits, groups[1] * 10**4, out=groups[2])
    return exact, exponent, groups


def _padded(texts, width: int) -> np.ndarray:
    """ASCII texts as the NUL-padded rows of a (len(texts), width) uint8 block."""
    padded = b"".join(text.encode("ascii").ljust(width, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint8).reshape(len(texts), width)


def _write(out: np.ndarray, sizes: np.ndarray, values: np.ndarray, fmt: str) -> None:
    """Write ``fmt % v`` of each float64 value, or nothing for a NaN, into its block.

    Sets every byte of the (n, _BLOCK) uint8 `out`, and column k of the (3, n)
    uint8 `sizes` to text k's head bytes, digit bytes and exponent flag.
    """
    precision = _PRECISION[fmt]
    exact, exponent, groups = _decompose(values, precision)
    exponent += 99
    if precision == 12:
        trailing = _TRAILING.take(groups)
        layout = _G12_LAYOUTS.take(exponent)
        layout -= trailing[2] + (trailing[2] == 4) * (
            trailing[1] + (trailing[1] == 4) * trailing[0])
    else:
        layout = _E9_LAYOUTS
    negative = values < 0
    sizes[:] = _LAYOUT_SIZES.take(layout, axis=0).T
    sizes[0] += negative
    # the twelve digits as a (2, n) word pair, then the point put in after digit p
    pair = _QUADS.take(groups[::2])
    pair[0] |= _QUADS.take(groups[1]) << 32
    shifted = pair << 8
    shifted[1] |= pair[0] >> 56
    pair &= _KEEP.take(layout, axis=0).T
    shifted &= _SHIFT.take(layout, axis=0).T
    pair |= shifted
    pair |= _DOT.take(layout, axis=0).T
    exp = _EXPONENTS.take(exponent) * sizes[2]
    at = 8 * (precision + 1 + _HEAD - 16)      # bits of word 2 before the exponent
    heads = _HEADS.take(layout, axis=0)
    block = out.view(_WORD)
    block[:, 0] = np.where(negative, heads[:, 1], heads[:, 0])
    block[:, 1] = pair[0]
    block[:, 2] = pair[1] | exp << at
    block[:, 3] = exp >> 64 - at
    if not exact.all():
        inexact = np.flatnonzero(~exact)
        texts = ["" if v != v else fmt % v for v in values[inexact].tolist()]
        out[inexact] = _padded(["\0" * _HEAD + text for text in texts], _BLOCK)
        sizes[:, inexact] = 0
        sizes[1, inexact] = [len(text) for text in texts]


def _spans(head: int, digits: int, exponent: int, exponent_at: int) -> list[tuple[int, int]]:
    """The block byte ranges a column shows, given its widest head and digit field."""
    start, end = _HEAD - head, _HEAD + digits
    if exponent and end < exponent_at:
        return [(start, end), (exponent_at, exponent_at + 4)]
    return [(start, max(end, exponent_at + 4 if exponent else 0))]


def _matrix(header: str, columns) -> bytearray:
    """The header line and then `table`'s rows, each field NUL-padded."""
    fields = [None] * len(columns)          # (block, spans) of each column
    for k, (fmt, values, _) in enumerate(columns):
        if fmt == "%s":
            width = max(map(len, values), default=0)
            fields[k] = _padded(values, width), [(0, width)]
    # the numbers of one format in one pass, split back into a block per column
    for fmt, precision in _PRECISION.items():
        members = [k for k, column in enumerate(columns) if column[0] == fmt]
        if not members:
            continue
        numbers = np.concatenate([columns[k][1] for k in members])
        texts = np.empty((numbers.size, _BLOCK), np.uint8)
        sizes = np.empty((3, numbers.size), np.uint8)
        for start in range(0, numbers.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            _write(texts[part], sizes[:, part], numbers[part], fmt)
        bounds = [0, *accumulate(len(columns[k][1]) for k in members)]
        # each column's widest field (an empty column makes an empty table)
        starts = [min(bound, numbers.size - 1) for bound in bounds[:-1]]
        widest = (np.maximum.reduceat(sizes, starts, axis=1).T.tolist() if numbers.size
                  else [(0, 0, 0)] * len(members))
        for j, k in enumerate(members):
            fields[k] = texts[bounds[j]:bounds[j + 1]], _spans(*widest[j], _HEAD + precision + 1)
    _, values, index = columns[0]
    rows = len(values if index is None else index)
    # each field ends in ',' or '\n'
    row = sum(end - start for _, spans in fields for start, end in spans) + len(columns)
    head = f"{header}\n".encode("ascii")
    buffer = bytearray(len(head) + rows * row)
    buffer[:len(head)] = head
    matrix = np.frombuffer(buffer, np.uint8, offset=len(head)).reshape(rows, row)
    at = 0
    for (block, spans), (_, _, index) in zip(fields, columns):
        for start, end in spans:
            part = block[:, start:end]
            matrix[:, at:at + end - start] = part if index is None else part.take(index, axis=0)
            at += end - start
        matrix[:, at] = ord(",")
        at += 1
    matrix[:, -1] = ord("\n")
    return buffer


def table(header: str, columns) -> str:
    """CSV text: the `header` line, then one row per entry of every column.

    Each column is ``(fmt, values, index)``. Row k shows ``values[index[k]]``,
    or ``values[k]`` when `index` is None; every column gives the same number
    of rows. `fmt` is ``"%.12g"`` or ``"%.9e"`` for float64 values, shown as
    ``fmt % v`` and a NaN as an empty field, or ``"%s"`` for ASCII labels
    without NUL. Each value is formatted once, however many rows show it.
    """
    # the matrix is freed once its NULs are dropped, before the text is decoded
    return _matrix(header, columns).translate(None, b"\0").decode("ascii")
