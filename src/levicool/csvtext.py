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
formatted by Python's ``%`` into its slot, so the text equals ``%`` by
construction. Each text sits NUL-padded in a fixed-width slot of a uint8
row matrix, and the NULs are dropped at the end.
"""

from __future__ import annotations

import numpy as np

#: a scaled significand whose fraction lies this close to .5 goes through `%`
TIE_MARGIN = 1e-3
#: most numbers formatted in one pass; bounds the temporaries of a large table
_CHUNK = 1 << 14

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

_E9_WIDTH = 17    # '-2.225073859e-308'

# A '%.12g' slot holds every character any layout can use: sign, "0.000",
# twelve digits each followed by a '.' slot, and the exponent. A layout keeps
# some of them and blanks the rest to NUL.
_G12_WIDTH = 33
_G12_DIGITS = slice(6, 29, 2)
_G12_BASE = np.frombuffer(b"-0.000" + b"0." * 11 + b"0e+00", np.uint8)


def _g12_keep(x_class: int, sig: int) -> np.ndarray:
    """Which slot characters `'%.12g'` shows for one exponent class and digit count.

    Class x + 4 is fixed notation for exponents -4 <= x < 12, class 16 the
    exponent form. The sign is written separately.
    """
    keep = np.zeros(_G12_WIDTH, bool)
    digit = np.arange(_G12_WIDTH)[_G12_DIGITS]
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


def _padded(texts, width: int) -> np.ndarray:
    """ASCII texts as the NUL-padded rows of a (len(texts), width) uint8 block."""
    padded = b"".join(text.encode("ascii").ljust(width, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint8).reshape(len(texts), width)


def _patch(out: np.ndarray, values: np.ndarray, exact: np.ndarray, fmt: str) -> None:
    """Write `fmt % value`, or nothing for a NaN, into the slot of each inexact value."""
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        out[inexact] = _padded(["" if v != v else fmt % v for v in values[inexact].tolist()],
                               out.shape[1])


def _write_e9(out: np.ndarray, values: np.ndarray) -> None:
    """Write ``'%.9e' % v`` of each float64 value into its row of `out`, every byte set."""
    exact, exponent, _, digits = _decompose(values, 10)
    out[:, 0] = (values < 0) * _MINUS
    out[:, 1] = digits[:, 2]
    out[:, 2] = ord(".")
    out[:, 3:12] = digits[:, 3:]
    out[:, 12:16] = _EXPONENTS.take(exponent + 99, axis=0)
    out[:, 16] = 0      # only a three-digit exponent, which `%` writes, reaches it
    _patch(out, values, exact, "%.9e")


def _write_g12(out: np.ndarray, values: np.ndarray) -> None:
    """Write ``'%.12g' % v`` of each float64 value into its row of `out`, every byte set."""
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


#: writer and slot width of each number format
_WRITERS = {"%.9e": (_write_e9, _E9_WIDTH), "%.12g": (_write_g12, _G12_WIDTH)}


def _matrix(header: str, columns) -> bytearray:
    """The header line and then `table`'s rows, each field NUL-padded to its slot."""
    blocks = [_padded(values, max(map(len, values), default=0)) if fmt == "%s" else None
              for fmt, values, _ in columns]
    # the numbers of one format in one pass, split back into a block per column
    for fmt, (write, width) in _WRITERS.items():
        members = [k for k, column in enumerate(columns) if column[0] == fmt]
        if members:
            numbers = np.concatenate([columns[k][1] for k in members])
            texts = np.empty((numbers.size, width), np.uint8)
            for start in range(0, numbers.size, _CHUNK):
                write(texts[start:start + _CHUNK], numbers[start:start + _CHUNK])
            ends = np.cumsum([len(columns[k][1]) for k in members])
            for k, part in zip(members, np.split(texts, ends[:-1])):
                blocks[k] = part
    _, values, index = columns[0]
    rows = len(values if index is None else index)
    row = sum(block.shape[1] + 1 for block in blocks)    # each field ends in ',' or '\n'
    head = f"{header}\n".encode("ascii")
    buffer = bytearray(len(head) + rows * row)
    buffer[:len(head)] = head
    matrix = np.frombuffer(buffer, np.uint8, offset=len(head)).reshape(rows, row)
    start = 0
    for block, (_, _, index) in zip(blocks, columns):
        end = start + block.shape[1]
        matrix[:, start:end] = block if index is None else block.take(index, axis=0)
        matrix[:, end] = ord(",")
        start = end + 1
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
