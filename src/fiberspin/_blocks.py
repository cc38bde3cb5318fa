"""The numpy byte formatter behind cli.fmt9_block.

cli imports this module only when it writes a table, so the subcommands
that print none never import numpy, and the lookup tables below are
built once, on that first import.

Rows are rendered _PASS_ROWS at a time, on whole arrays of uint32 lanes,
with Python work only for the rare fallback cells below. Each cell gets
a _FIELD-byte field whose pad (zero) bytes one boolean compress drops at
the end of the pass. Per cell, d is fmt9's digit count, from numpy's
log10 rechecked with math.log10 near integers, and q = rint(y),
y = |x| 10**d, is the integer whose digits are printed. q with a 0
inserted at place d is cut into 4-digit groups, looked up in
_DIGIT_LANES, and the _POINT_PATTERNS of d add the zeros that a value
below 1 needs and turn the inserted 0 into the point.

Why q is what "%.{d}f" prints: fixed-form cells have d <= 16, so 10**d
is exact. For d >= 1, |x| < 10**(9 - d) gives y < 2**30, and the one
rounding in the product puts y within half an ulp, 2**-24 (6e-8), of
|x| 10**d exactly. For d = 0, y is |x| itself. So while y is at least
1e-6 away from a half-integer, the exact product is too, and rint(y) is
its correctly rounded integer. Cells within that margin, and those fmt9
prints in scientific form, take fmt9's own text, looked up on cli at
call time so that a wrapper bound there sees every fallback call.
"""

from __future__ import annotations

import math

import numpy as np

from . import cli

#: rows fmt9_block renders per pass; the pass's arrays peak at about 0.4 kB
#: a two-column row, 1.6 MB a pass, beside the 16,384-row block's text
_PASS_ROWS = 4096

#: a cell's field: byte 0 opens it (sep, or LF before a row's first cell),
#: byte 1 holds the sign, and byte 19 - c the number's character c places
#: left of its last one
_FIELD = 20

#: fields are handled as five little-endian uint32 lanes of four bytes
_LANE = np.dtype("<u4")

#: 10**d for every digit count d fmt9 prints in fixed form; each is exact
_POW10 = 10.0 ** np.arange(17)


def _digit_lanes() -> np.ndarray:
    """Every 4-digit group as one lane of ASCII digits, most significant first.

    Entry g is g zero-padded to four digits; entry 10,000 + g is the same
    with its leading zeros as pad bytes, so entry 10,000 is four pads.
    """
    g = np.arange(10_000)[:, None]
    place = np.array([1000, 100, 10, 1])
    full = (g // place % 10 + ord("0")).astype(np.uint8)
    bare = full * (g >= place).astype(np.uint8)
    lanes = np.concatenate((full, bare)).view(_LANE).ravel()
    lanes.flags.writeable = False
    return lanes


def _point_patterns() -> np.ndarray:
    """Per digit count d, the (zeros, point) lanes that finish a field.

    The field holds the digits of q with a 0 inserted at place d. zeros is
    a "0" at every place up to d + 1, ORed in so that a value below 1 keeps
    its leading "0." and its fraction's leading zeros. point is XORed in:
    it turns the inserted "0" into "." (into a pad when d = 0).
    """
    c = (_FIELD - 1 - np.arange(_FIELD))[None, :]
    d = np.arange(17)[:, None]
    zeros = ord("0") * (c <= d + 1)
    point = (ord("0") ^ ord(".") * (d > 0)) * (c == d)
    patterns = np.stack((zeros, point)).astype(np.uint8).view(_LANE)
    patterns.flags.writeable = False
    return patterns


_DIGIT_LANES = _digit_lanes()
_POINT_PATTERNS = _point_patterns()


def _fmt9_pass(a: np.ndarray, opener: np.ndarray) -> str:
    """One pass of fmt9_block: rows of a finite array, each line LF-opened."""
    flat = (a + 0.0).ravel()  # -0.0 + 0.0 is +0.0, which prints unsigned like fmt9's zero
    n = flat.size
    mag = np.abs(flat)
    sci = (mag != 0.0) & ((mag < 1e-8) | (mag >= 1e12))
    # zeros (and scientific values, whose digits go unused) take log10(1) = 0,
    # so their digit count is fmt9's 8
    safe = np.where(sci | (mag == 0.0), 1.0, mag)
    lg = np.log10(safe)
    # near an exact power of ten numpy's log10 may round to the other side of
    # the integer than math.log10, which fmt9 uses
    for i in np.flatnonzero(np.abs(lg - np.rint(lg)) < 1e-9).tolist():
        lg[i] = math.log10(safe[i])
    # fixed-form values lie in [1e-8, 1e12), so d never reaches fmt9's cap of 20
    d = np.clip(8.0 - np.floor(lg), 0.0, 16.0).astype(np.intp)
    scale = np.take(_POW10, d)
    y = (mag * ~sci) * scale
    q = np.rint(y)
    fallback = sci | (np.abs(y - q) > 0.5 - 1e-6)
    # q with a 0 digit inserted at place d, below 10**14 and exact in float64
    z = q + 9.0 * scale * np.floor(q / scale)
    # lanes 4 to 1 take z's 4-digit groups from the last, a group's leading
    # zeros turning to pads once nothing is left above it; lane 0 stays pads
    digits = np.zeros((n, _FIELD // 4), dtype=_LANE)
    rest = z.astype(np.int64)
    for lane in (4, 3, 2, 1):
        up = rest // 10_000
        digits[:, lane] = np.take(_DIGIT_LANES, rest - up * 10_000 + 10_000 * (up == 0))
        rest = up
    zeros, point = np.take(_POINT_PATTERNS, d, axis=1)
    out = (digits | zeros) ^ point
    out[:, 0] |= opener[:n] | (flat < 0) * np.uint32(ord("-") << 8)
    # the lanes' bytes in field order, also on a big-endian host
    cells = out.astype(_LANE, copy=False).view(np.uint8)
    if fallback.any():
        idx = np.flatnonzero(fallback)
        texts = b"".join(cli.fmt9(flat[i]).encode("ascii").rjust(_FIELD - 1, b"\0") for i in idx.tolist())
        cells[idx, 1:] = np.frombuffer(texts, dtype=np.uint8).reshape(idx.size, _FIELD - 1)
    text = cells.ravel()
    return text[text != 0].tobytes().decode("ascii")


def fmt9_block(table, sep: str) -> str:
    """cli.fmt9_block: rows of a 2-d float array as LF-terminated lines of sep-joined fmt9 values."""
    a = np.asarray(table, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("refusing to format a non-finite number")
    if len(sep) != 1 or not sep.isascii() or sep == "\0":
        raise ValueError(f"separator must be one ASCII character other than NUL, not {sep!r}")
    rows, ncols = a.shape
    if a.size == 0:
        return "\n" * rows
    # the LF that ends a row opens the next one: the first LF is dropped and
    # a last one is added
    opener = np.full(ncols, ord(sep), dtype=_LANE)
    opener[0] = ord("\n")
    opener = np.tile(opener, min(rows, _PASS_ROWS))
    parts = [_fmt9_pass(a[i : i + _PASS_ROWS], opener) for i in range(0, rows, _PASS_ROWS)]
    parts[0] = parts[0][1:]
    parts.append("\n")
    return "".join(parts)
