"""CSV text whose numbers are the exact ``'%.9e'`` or ``'%.12g'`` text of float64 values.

`table(header, columns, file)` writes every CSV of the program, as a str or straight
to a binary file; a value that many rows share is formatted once and gathered by row index.

The numbers of one format are formatted together, `_CHUNK` at a time. Each
value's decimal exponent comes from ``log10``; the value is scaled by a power
of ten to a D-digit significand (D = 10 or 12) and rounded. The scaled value
carries at most two float roundings, so the rounding is taken as exact only
when its fraction lies more than `TIE_MARGIN` from .5. Every other value (0,
-0, nan, +-inf, decimal exponents beyond +-99, near-ties, a ``log10`` one
decade too high) is formatted by ``%``, so the text equals ``%`` by construction.

A number's text is a block of four little-endian uint64 words, built by
table lookups and shifts of constant count below 64: word 0 holds the sign
and the ``0.000`` prefix of exponents -4..-1, right-aligned; from byte 8 come
the twelve digits, those after the point's place shifted left one byte, then
``e+XX`` right after the format's longest digit field; a `%` text's sign and
prefix go in word 0 too. A column keeps only the bytes its values use (its
widest sign and prefix, its longest digits, the exponent if one has one);
they go into the rows of a uint8 matrix, whose NULs are dropped in place.

Each thread keeps a 1 MiB work buffer for a pass's arrays and then the row
matrix, so its pages (0.6 MB for a 48x48 map) are faulted in once. Made
afresh for each table, such arrays came from pages the C allocator mapped
anew, and faulting them in took a sixth of a 48x48 map's time.
"""

from __future__ import annotations

import re
import threading
from itertools import accumulate
from math import prod

import numpy as np

#: D -> how near .5 a scaled significand's fraction may come before `%` writes
#: the text: fl(m * fl(10**k)) is within (2u + u**2) 10**D of m 10**k, u = 2**-53,
#: so 2.3e-6 at D = 10 and 2.3e-4 at 12; each margin, 10**(D - 15), is 4.4 times that.
TIE_MARGIN = {10: 1e-5, 12: 1e-3}
#: most numbers formatted in one pass; bounds the work arrays of a large table
_CHUNK = 1 << 14
_WORK_ROWS = 8          # words of work per number in a pass (see `_decompose`)
_WORK_BYTES = _WORK_ROWS * 8 * _CHUNK   # each thread's work buffer holds a full pass
_PIECE = 1 << 16        # matrix bytes cleared of NULs at once, by temporaries under 128 KiB

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
_PERCENT_HEAD = re.compile(r"-?(?:0\.0{0,3}(?=[1-9]))?")     # a `%` text's sign and prefix

_LOCAL = threading.local()


def _work(shape: tuple[int, ...], dtype=np.uint8) -> np.ndarray:
    """A `shape` array at the start of this thread's work buffer, if it fits."""
    if prod(shape) * np.dtype(dtype).itemsize > _WORK_BYTES:
        return np.empty(shape, dtype)
    if not hasattr(_LOCAL, "memory"):
        _LOCAL.memory = np.empty(_WORK_BYTES, np.uint8)
    return np.ndarray(shape, dtype, _LOCAL.memory)


def _decompose(values: np.ndarray, precision: int):
    """Each value rounded to `precision` significant digits.

    Returns (exact, exponent, groups): `exact` is False where the text must
    come from `%` (the other outputs hold placeholders there), `exponent` is
    the rounded value's decimal exponent, and `groups` (3, n) its significand
    padded with zeros to 12 digits, as 4-digit groups, most significant first.
    """
    # rows 0-2 hold floats, then the returned groups, and row 3 the exponent
    work = _work((_WORK_ROWS, values.size), np.intp)
    magnitude, whole, scaled = work[:3].view(np.float64)
    exponent, digits, groups = work[3], work[4], work[:3]
    np.abs(values, out=magnitude)
    exact = np.isfinite(magnitude) & (magnitude != 0)
    magnitude[~exact] = 1.0
    np.floor(np.log10(magnitude, out=whole), out=whole)
    # np.clip costs a few microseconds more on the short columns of a trace
    exponent[:] = np.minimum(np.maximum(whole, -99, out=whole), 99, out=whole)
    # take copies `out` unless told what to do with an index out of range;
    # these lie in [precision + 28, precision + 226], as do all of `_write`'s
    _POW10.take(np.subtract(precision + 127, exponent, out=digits), out=scaled, mode="clip")
    scaled *= magnitude
    np.rint(scaled, out=whole)
    low, margin = 10.0 ** (precision - 1), TIE_MARGIN[precision]
    # up to the margin below `low`, the exact value also rounds to `low`
    off = np.abs(np.subtract(scaled, whole, out=magnitude), out=magnitude)
    exact &= (off < 0.5 - margin) & (scaled >= low - margin) & (scaled < 10 * low + 0.5)
    carry = whole == 10 * low
    whole[carry | ~exact] = low
    exponent += carry
    exact &= exponent <= 99
    whole *= 10.0 ** (12 - precision)
    digits[:] = whole
    np.floor_divide(digits, 10**8, out=groups[0])
    digits -= np.multiply(groups[0], 10**8, out=groups[1])
    np.floor_divide(digits, 10**4, out=groups[1])
    np.subtract(digits, np.multiply(groups[1], 10**4, out=groups[2]), out=groups[2])
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
    work = _work((_WORK_ROWS, values.size), _WORD)
    exponent += 99
    if precision == 12:
        trailing = _TRAILING.take(groups)
        layout = _G12_LAYOUTS.take(exponent, out=work[4].view(np.intp), mode="clip")
        layout -= trailing[2] + (trailing[2] == 4) * (
            trailing[1] + (trailing[1] == 4) * trailing[0])
    else:
        layout = _E9_LAYOUTS
    negative = values < 0
    sizes[:] = _LAYOUT_SIZES.take(layout, axis=0).T
    sizes[0] += negative
    # the twelve digits as a (2, n) word pair, then the point put in after digit p
    pair, word = _QUADS.take(groups[::2], out=work[6:8], mode="clip"), work[5]
    pair[0] |= np.left_shift(_QUADS.take(groups[1], out=word, mode="clip"), 32, out=word)
    exp = np.multiply(_EXPONENTS.take(exponent, out=word, mode="clip"), sizes[2], out=word)
    shifted, words = work[:2], work[2:4].reshape(-1, 2)[:layout.size]    # rows 0-3 are free
    np.left_shift(pair, 8, out=shifted)
    shifted[1] |= np.right_shift(pair[0], 56, out=work[2])
    pair &= _KEEP.take(layout, axis=0, out=words, mode="clip").T
    shifted &= _SHIFT.take(layout, axis=0, out=words, mode="clip").T
    pair |= shifted
    pair |= _DOT.take(layout, axis=0, out=words, mode="clip").T
    at = 8 * (precision + 1 + _HEAD - 16)      # bits of word 2 before the exponent
    heads = _HEADS.take(layout, axis=0, out=words, mode="clip")
    block = out.view(_WORD)
    block[:, 0] = heads[:, 0]
    np.copyto(block[:, 0], heads[:, 1], where=negative)
    block[:, 1] = pair[0]
    np.bitwise_or(pair[1], np.left_shift(exp, at, out=block[:, 2]), out=block[:, 2])
    np.right_shift(exp, 64 - at, out=block[:, 3])
    if not exact.all():
        inexact = np.flatnonzero(~exact)
        texts = ["" if v != v else fmt % v for v in values[inexact].tolist()]
        lead = [_PERCENT_HEAD.match(text).end() for text in texts]
        out[inexact] = _padded(["\0" * (_HEAD - h) + text for h, text in zip(lead, texts)], _BLOCK)
        sizes[:, inexact] = [lead, [len(t) - h for h, t in zip(lead, texts)], [0] * len(texts)]


def _spans(head: int, digits: int, exponent: int, exponent_at: int) -> list[tuple[int, int]]:
    """The block byte ranges a column shows, given its widest head and digit field."""
    start, end = _HEAD - head, _HEAD + digits
    if exponent and end < exponent_at:
        return [(start, end), (exponent_at, exponent_at + 4)]
    return [(start, max(end, exponent_at + 4 if exponent else 0))]


def _matrix(header: str, columns) -> np.ndarray:
    """The header line and `table`'s rows, NUL-padded, in the thread's work buffer."""
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
    buffer = _work((len(head) + rows * row,))     # the passes are done with it
    buffer[:len(head)] = np.frombuffer(head, np.uint8)
    matrix = buffer[len(head):].reshape(rows, row)
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


def table(header: str, columns, file=None) -> str | None:
    """CSV text: the `header` line, then one row per entry of every column.

    Each column is ``(fmt, values, index)``. Row k shows ``values[index[k]]``,
    or ``values[k]`` when `index` is None; every column gives the same number
    of rows. `fmt` is ``"%.12g"`` or ``"%.9e"`` for float64 values, shown as
    ``fmt % v`` and a NaN as an empty field, or ``"%s"`` for ASCII labels
    without NUL. Each value is formatted once, however many rows show it.

    Given a binary `file`, writes the text's ASCII bytes with one ``file.write`` of a
    memoryview of this thread's buffer, released when the write returns (so a file
    that keeps it raises, rather than reading a later table), and returns None.
    """
    matrix = _matrix(header, columns)
    size = 0    # NULs are dropped in place: the text so far ends before the piece read
    for at in range(0, matrix.size, _PIECE):
        piece = matrix[at:at + _PIECE]
        piece = piece[piece != 0]
        matrix[size:size + piece.size] = piece
        size += piece.size
    with memoryview(matrix[:size]) as text:
        if file is None:
            return str(text, "ascii")
        file.write(text)
    return None
