"""The numpy byte formatter behind cli.cmd_evolve: columns of floats in, fmt9 lines out.

cli imports this module only when it writes a table, so the subcommands
that print none never import numpy, and the lookup tables below are
built once, on that first import.

A Formatter renders rows _PASS_ROWS at a time, on whole arrays of uint32
lanes, with Python work only for the rare fallback cells below. It owns
every array a pass works in: they are made once, when the Formatter is,
sized for one pass of its ncols columns, and values of a pass that are
never live at once share one, 95 bytes a cell in all. Each step of a
pass writes into them with out=, the first step taking the caller's
columns straight into them. The cells' lanes are a bytearray that numpy
views, and one bytearray.translate of it drops their pad bytes: that
copy is the pass's text, a bytearray of its own. So a pass allocates
only its text and the index lists of rare cells, and glibc serves them
from the heap the first pass grew. A run that made its arrays afresh
every pass would have glibc trim the freed heap and the next pass fault
it back in: a 10^6-row `evolve --out` took 32,000 to 34,000 minor page
faults that way, and takes about 5,100 so, of which about 4,900 are the
interpreter's and numpy's start. A text need not outlive its write:
holding each one until the next existed took as many faults.

Each cell gets a _FIELD-byte field whose pad (zero) bytes that translate
drops at the end of the pass. Per cell, d is fmt9's digit count, from
numpy's log10 rechecked with math.log10 near integers, and q = rint(y),
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

import itertools
import math
from collections.abc import Iterable, Iterator

import numpy as np

from . import cli
from .errors import OutOfRange

#: rows a Formatter renders per pass; its arrays take 95 bytes a cell,
#: 0.78 MB for two columns
_PASS_ROWS = 4096

#: a cell's field: byte 0 opens it (sep, or LF before a row's first cell),
#: byte 1 holds the sign, and byte 19 - c the number's character c places
#: left of its last one
_FIELD = 20

#: fields are handled as five little-endian uint32 lanes of four bytes
_LANE = np.dtype("<u4")

#: 10**d for every digit count d fmt9 prints in fixed form; each is exact
_POW10 = 10.0 ** np.arange(17)

#: the sign byte of a negative cell, in lane 0
_MINUS = np.uint32(ord("-") << 8)


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


class Formatter:
    """fmt9 lines of ncols equal-length float columns, as ASCII bytes.

    One Formatter serves one run: its work arrays are made here, once, for
    a pass of _PASS_ROWS rows, and every pass reuses them. stream() gives
    the text of consecutive blocks of columns as if they were one table:
    block() yields each pass's bytes as a bytearray of its own, which
    stays valid however far the iterator goes on.
    """

    def __init__(self, ncols: int, sep: str):
        if len(sep) != 1 or not sep.isascii() or sep == "\0":
            raise ValueError(f"separator must be one ASCII character other than NUL, not {sep!r}")
        n = _PASS_ROWS * ncols
        # one row per float a pass holds live at once: x; |x|, then y = |x| 10**d,
        # then z; log10, then 10**d; t; and q
        self._floats = np.empty((5, n))
        # the point lanes take the other float rows' bytes: they are taken once z
        # is in rest, when only x of the floats is live
        self._point = self._floats[1:].view(_LANE).reshape(-1)[: n * (_FIELD // 4)].reshape(n, _FIELD // 4)
        # d, then a digit group's index; rest and up, z's digits still to group
        self._ints = np.empty((3, n), dtype=np.int64)
        # sci, then fallback; b; and near, a log10 close to an integer
        self._flags = np.empty((3, n), dtype=bool)
        self._lane = np.empty(n, dtype=_LANE)
        # the cells' lanes live in a bytearray, whose translate drops the pad bytes
        self._raw = bytearray(n * _FIELD)
        self._cells = np.frombuffer(self._raw, dtype=_LANE).reshape(n, _FIELD // 4)
        # the LF that ends a row opens the next one: the stream's first LF is
        # a pad until a row is out, and stream() adds a last one
        opener = np.full(ncols, ord(sep), dtype=_LANE)
        opener[:1] = ord("\n")
        self._opener = np.tile(opener, _PASS_ROWS)
        self._opener[:1] = 0
        self._opened = False

    def stream(self, blocks: Iterable) -> Iterator[bytes | bytearray]:
        """The LF-terminated lines of the blocks' rows joined, one pass at a time.

        chain lets go of a block before it draws the next, so a block's
        columns are freed before the next block is made.
        """
        yield from itertools.chain.from_iterable(map(self.block, blocks))
        if self._opened:
            yield b"\n"

    def block(self, columns) -> Iterator[bytearray]:
        """The rows of equal-length columns, a pass's bytes at a time; non-finite values raise OutOfRange."""
        columns = [np.asarray(c, dtype=np.float64) for c in columns]
        if not all(np.all(np.isfinite(c)) for c in columns):
            raise OutOfRange("refusing to format a non-finite number")
        for i in range(0, max(map(len, columns), default=0), _PASS_ROWS):
            yield self._pass([c[i : i + _PASS_ROWS] for c in columns])

    def _pass(self, columns: list[np.ndarray]) -> bytearray:
        """The text of the rows of the columns, each line LF-opened."""
        rows, ncols = len(columns[0]), len(columns)
        n = rows * ncols
        x, mag, lg, t, q = self._floats[:, :n]
        d, rest, up = self._ints[:, :n]
        sci, b, near = self._flags[:, :n]
        lane, cells, point = self._lane[:n], self._cells[:n], self._point[:n]
        # the columns' cells in row order; -0.0 + 0.0 is +0.0, which prints
        # unsigned like fmt9's zero
        table = x.reshape(rows, ncols)
        for j, column in enumerate(columns):
            np.add(column, 0.0, out=table[:, j])
        np.abs(x, out=mag)
        # sci = (mag != 0) & ((mag < 1e-8) | (mag >= 1e12))
        np.less(mag, 1e-8, out=sci)
        np.greater_equal(mag, 1e12, out=b)
        np.logical_or(sci, b, out=sci)
        np.not_equal(mag, 0.0, out=b)
        np.logical_and(sci, b, out=sci)
        # zeros (and scientific values, whose digits go unused) take log10(1) = 0,
        # so their digit count is fmt9's 8
        np.equal(mag, 0.0, out=b)
        np.logical_or(b, sci, out=b)
        np.copyto(lg, mag)
        np.copyto(lg, 1.0, where=b)
        np.log10(lg, out=lg)
        # near an exact power of ten numpy's log10 may round to the other side of
        # the integer than math.log10, which fmt9 uses
        np.rint(lg, out=t)
        np.subtract(lg, t, out=t)
        np.abs(t, out=t)
        np.less(t, 1e-9, out=near)
        for i in np.flatnonzero(near).tolist():
            lg[i] = 0.0 if b[i] else math.log10(mag[i])
        # fixed-form values lie in [1e-8, 1e12), so d never reaches fmt9's cap of 20
        np.floor(lg, out=t)
        np.subtract(8.0, t, out=t)
        np.clip(t, 0.0, 16.0, out=t)
        np.copyto(d, t, casting="unsafe")
        scale = lg
        np.take(_POW10, d, out=scale, mode="clip")
        # y = |x| 10**d, and 0 for scientific cells
        y = mag
        np.copyto(y, 0.0, where=sci)
        np.multiply(y, scale, out=y)
        np.rint(y, out=q)
        np.subtract(y, q, out=t)
        np.abs(t, out=t)
        fallback = sci
        np.greater(t, 0.5 - 1e-6, out=b)
        np.logical_or(fallback, b, out=fallback)
        # z = q + 9 10**d floor(q / 10**d): q with a 0 digit inserted at place d,
        # below 10**14 and exact in float64
        np.divide(q, scale, out=t)
        np.floor(t, out=t)
        z = y
        np.multiply(scale, 9.0, out=z)
        np.multiply(z, t, out=z)
        np.add(q, z, out=z)
        np.copyto(rest, z, casting="unsafe")
        # the zeros lanes, then lanes 4 to 1 ORed with z's 4-digit groups from the
        # last, a group's leading zeros turning to pads once nothing is left above
        # it (so the groups above the highest nonzero one are skipped), and lane 0
        # with the opener and the sign
        np.take(_POINT_PATTERNS[0], d, axis=0, out=cells, mode="clip")
        np.take(_POINT_PATTERNS[1], d, axis=0, out=point, mode="clip")
        idx = d
        for k in (4, 3, 2, 1):
            np.floor_divide(rest, 10_000, out=up)
            np.multiply(up, 10_000, out=idx)
            np.subtract(rest, idx, out=idx)
            np.equal(up, 0, out=b)
            np.add(idx, 10_000, out=idx, where=b)
            np.take(_DIGIT_LANES, idx, out=lane, mode="clip")
            np.bitwise_or(cells[:, k], lane, out=cells[:, k])
            rest, up = up, rest
            if b.all():
                break
        np.less(x, 0.0, out=b)
        np.multiply(b, _MINUS, out=lane)
        np.bitwise_or(lane, self._opener[:n], out=lane)
        np.bitwise_or(cells[:, 0], lane, out=cells[:, 0])
        np.bitwise_xor(cells, point, out=cells)
        # the lanes' bytes in field order, also on a big-endian host
        raw = cells.view(np.uint8)
        if fallback.any():
            where = np.flatnonzero(fallback)
            texts = b"".join(cli.fmt9(x[i]).encode("ascii").rjust(_FIELD - 1, b"\0") for i in where.tolist())
            raw[where, 1:] = np.frombuffer(texts, dtype=np.uint8).reshape(where.size, _FIELD - 1)
        # a short pass leaves pads past its cells
        self._cells[n:] = 0
        self._opener[0] = ord("\n")
        self._opened = True
        return self._raw.translate(None, b"\0")
