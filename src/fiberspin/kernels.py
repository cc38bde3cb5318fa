"""The entanglement-trace kernel: C^2 and E(tau) on uniform time grids.

The tau-star sweeps look at about a million grid points per eta value,
which makes this the only hot loop in the package. Starting from |gg> the
state keeps the exchange symmetry, so its four amplitudes reduce to three
complex numbers

    u(tau) = a1*e^{i*omega*tau} + a4*e^{-i*omega*tau}
    v(tau) = b1*e^{i*omega*tau} + b4*e^{-i*omega*tau}
    w(tau) = e^{-2i*tau}/2

with omega = 2*sqrt(1+eta^2), amplitudes c_ee = u-w, c_gg = u+w,
c_eg = c_ge = v. The pure-state concurrence is C = 2*|u^2 - v^2 - w^2|,
and with sa = a1+a4, da = a1-a4, sb = b1+b4, db = b1-b4

    u^2 - v^2 - w^2 = A + B*cos(2*omega*tau) + i*D*sin(2*omega*tau) - e^{-4i*tau}/4,
    A = (sa^2 - da^2 - sb^2 + db^2)/2 = 2*(a1*a4 - b1*b4),
    B = (sa^2 + da^2 - sb^2 - db^2)/2 = a1^2 + a4^2 - b1^2 - b4^2,
    D = sa*da - sb*db = a1^2 - a4^2 - b1^2 + b4^2.

The two phases come from blocked tables. A grid is the times k*step, cut
into blocks of BLOCK points counted from k = 0. Each block start
tau_b = k*step gets its own cos and sin, with the rounding error of that
one product and of its phases carried to first order, and the point
tau_b + j*step combines them with entry j of one table of BLOCK offset
phases by the angle-sum identities. So a point costs a few real multiply-adds and
no trigonometry, and its C^2 depends only on its block and its offset in
the block: a call that starts at a block of a longer grid (the start
argument) returns that block's values bit for bit. entanglement.tau_star
relies on this. While a phase stays below 2**60 it is within a few ulp
of omega*tau for the rounded omega. omega = 2*hypot(1, eta) itself is
off by about 1e-16 relative or less, an error the phase carries times
tau. Against a 40-digit trace at the exact grid times, over 30,000
points with eta from 1e-3 to 1e3 and tau up to 1e4, E was off by at most
2.0e-12; the evolve_analytic route was off by up to 3.4e-12 on 20,000 of
those points (tests/test_accuracy.py).

E follows from C^2 by the binary entropy, as in
entanglement.eof_from_concurrence. Every operation runs in a fixed order
on float64 arrays, so for one numpy build and CPU dispatch target the
C^2 and E values are a pure function of the arguments; numpy's log2, among
others, may round differently on another dispatch target.

conc2_block_max, the first pass of tau_star, computes the same C^2 by
two matrix products per span of blocks instead. Its block peaks are
within a margin, derived in its docstring, of the largest C^2 that
ent_trace_grid computes in each block. The peaks' last bits may follow
the BLAS kernel that numpy calls, which OpenBLAS picks by CPU; the
margin holds for every BLAS.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadGrid, DegenerateEta
from .spins import eta_constants

#: points per phase table; block b of a grid starts at k = b*BLOCK
BLOCK = 1024

#: blocks computed together; 32 * 1024 float64 values are 256 KiB per buffer.
#: _Grid.conc2 makes three such buffers per span; conc2_block_max makes its
#: two once per call and reuses them for every span
_ROWS = 32

#: conc2_block_max's margin in units of 2**-53 * (Sr**2 + Si**2); its docstring derives it
_MARGIN_ULPS = 25.0

#: stands in for y = 0 in y*log2(y): y is a multiple of 2**-53 or zero, so
#: raising only the zeros to it changes no other value and keeps 0*log2(.) = 0
_TINY = 2.0**-64


def backend() -> str:
    """Name of the kernel implementation; there is one, numpy, named 'python'."""
    return "python"


def trace_constants(eta: float) -> tuple[float, float, float, float, float]:
    """Fused-kernel constants (a1, a4, b1, b4, omega) for a given eta.

    a_k = c_k * p_k and b_k = c_k * q_k collapse the initial-state
    coefficients into the eigenvector amplitudes; c_k = p_k makes them
    plain squares and products of spins.eta_constants.
    """
    if not math.isfinite(eta) or eta <= 0.0:
        raise DegenerateEta(f"eta must be a positive real, got {eta!r}")
    k = eta_constants(eta)
    return k.p1 * k.p1, k.p4 * k.p4, k.p1 * k.q1, k.p4 * k.q4, 2.0 * k.s


def _split(a):
    """(hi, lo) with hi + lo == a and hi holding at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _prod_err(a, b, p):
    """a*b - p, exactly, for p the rounded product a*b (Dekker)."""
    ah, al = _split(a)
    bh, bl = _split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def check_grid(eta: float, step: float, n: int, start: int = 0):
    """The guard of ent_trace_grid(eta, step, n, start), run alone, for the grid k*step.

    Raises BadGrid or DegenerateEta exactly when that call would refuse its
    grid, and computes no point of it; otherwise returns trace_constants(eta).
    A caller that computes a long grid block by block can run it once for
    the whole grid before the first block.
    """
    if not math.isfinite(step) or step <= 0.0:
        raise BadGrid(f"need a finite step > 0, got {step!r}")
    if n < 1:
        raise BadGrid(f"need at least one grid point, got n={n!r}")
    if start < 0 or start % BLOCK:
        raise BadGrid(f"start must be a nonnegative multiple of {BLOCK}, got {start!r}")
    constants = trace_constants(eta)
    if not math.isfinite(2.0 * constants[4] * ((start + n) * step)):
        raise DegenerateEta(f"eta = {eta!r}: the phase 2*omega*tau leaves the float range")
    return constants


class _Grid:
    """Reduced-form coefficients and phases of the grid k*step, k = start..start+n-1."""

    def __init__(self, eta: float, step: float, n: int, start: int):
        a1, a4, b1, b4, omega = check_grid(eta, step, n, start)
        w = 2.0 * omega
        self.n = n
        # the values of 2z = 2*(u^2 - v^2 - w^2) are built, so C^2 = |2z|^2
        self.a = 4.0 * (a1 * a4 - b1 * b4)
        b = 2.0 * (a1 * a1 + a4 * a4 - b1 * b1 - b4 * b4)
        d = 2.0 * (a1 * a1 - a4 * a4 - b1 * b1 + b4 * b4)
        offsets = np.arange(BLOCK, dtype=np.float64) * step
        wt, ft = w * offsets, 4.0 * offsets
        self.tables = np.stack((np.cos(wt), np.sin(wt), np.cos(ft), np.sin(ft)))

        # block starts tau = k*step, k = start + b*BLOCK, and their phases w*tau
        # and 4*tau, each carried with its rounding error at the blocks whose
        # phase is below 2**60; beyond that a phase keeps no fraction of a
        # turn. The choice is each block's own, so a block's values do not
        # depend on how long a grid it is part of
        k = np.arange(start, start + n, BLOCK, dtype=np.float64)
        tau = k * step
        theta = w * tau
        near = (theta < 2.0**60) & (w < 2.0**60)
        # only the terms of blocks past 2**60 can overflow, and they are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            tau_err = _prod_err(k, step, tau)
            theta_err = _prod_err(w, tau, theta) + w * tau_err
        tau_err = np.where(near, tau_err, 0.0)
        theta_err = np.where(near, theta_err, 0.0)
        cw, sw = np.cos(theta), np.sin(theta)
        cw, sw = cw - theta_err * sw, sw + theta_err * cw
        cf, sf = np.cos(4.0 * tau), np.sin(4.0 * tau)
        cf, sf = cf - 4.0 * tau_err * sf, sf + 4.0 * tau_err * cf
        # Re 2z = 2A + 2B cos(w tau) - cos(4 tau)/2 and Im 2z = 2D sin(w tau) + sin(4 tau)/2,
        # each phase at tau_b + t expanded over the tables' cos and sin of t
        self.starts = np.stack((b * cw, -b * sw, -0.5 * cf, 0.5 * sf, d * sw, d * cw, 0.5 * sf, 0.5 * cf))

    @property
    def blocks(self) -> int:
        return self.starts.shape[1]

    def spans(self):
        """(b0, b1, width): blocks b0..b1-1 of width points, _ROWS at a time; a short last block comes alone."""
        full = self.n // BLOCK
        for b0 in range(0, full, _ROWS):
            yield b0, min(b0 + _ROWS, full), BLOCK
        if full < self.blocks:
            yield full, full + 1, self.n - full * BLOCK

    def conc2(self, b0: int, b1: int, width: int) -> np.ndarray:
        """C^2 on the first width points of the grid's blocks b0..b1-1, as a (b1-b0, width) array."""
        starts = self.starts[:, b0:b1, None]
        tables = self.tables[:, :width]
        re = np.multiply(starts[0], tables[0])
        im = np.multiply(starts[4], tables[0])
        tmp = np.empty_like(re)
        for k in (1, 2, 3):
            re += np.multiply(starts[k], tables[k], out=tmp)
            im += np.multiply(starts[4 + k], tables[k], out=tmp)
        re += self.a
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        re += im
        return re


def _eof(c2: np.ndarray) -> np.ndarray:
    """Entanglement of formation of each C^2, in place of the array.

    x = (1 + sqrt(1 - C^2))/2 and E = -x*log2(x) - y*log2(y) with y = 1 - x;
    a C^2 rounded above 1 counts as C = 1.
    """
    x = np.subtract(1.0, c2, out=c2)
    np.maximum(x, 0.0, out=x)
    np.sqrt(x, out=x)
    x += 1.0
    x *= 0.5
    y = np.subtract(1.0, x)
    ylog = np.maximum(y, _TINY)
    np.log2(ylog, out=ylog)
    ylog *= y
    np.log2(x, out=y)
    y *= x
    np.negative(y, out=y)
    y -= ylog
    return y


def ent_trace_grid(eta: float, step: float, n: int, start: int = 0) -> np.ndarray:
    """Entanglement of formation at k*step for k = start, ..., start+n-1.

    Returns a float64 array of length n with every value in [0, 1]. start
    must be a multiple of BLOCK; the values are then those of the same
    points in any longer grid with the same step, bit for bit. A grid
    that check_grid refuses raises before anything is computed.
    """
    grid = _Grid(eta, step, int(n), int(start))
    out = np.empty(grid.n, dtype=np.float64)
    for b0, b1, width in grid.spans():
        lo = b0 * BLOCK
        out[lo : lo + (b1 - b0) * width] = _eof(grid.conc2(b0, b1, width)).ravel()
    return out


def conc2_block_max(eta: float, step: float, n: int) -> tuple[np.ndarray, float]:
    """(peaks, margin): the largest C^2 of each block of the grid k*step, k < n, to within margin.

    peaks holds ceil(n / BLOCK) values and margin is one float for the
    grid: each peak is within margin of the largest C^2 that
    ent_trace_grid computes in its block, so peak + margin bounds that C^2
    from above. Memory stays O(BLOCK * _ROWS).

    A span of blocks costs two matrix products, not the elementwise passes of
    _Grid.conc2: Re 2z is the blocks' coefficients starts[:4] times the
    (4, width) phase tables, plus a, and Im 2z is starts[4:] times the same
    tables. Both routes thus sum the same five terms, a and four
    coefficient-times-table products, in different orders, the products here
    in whatever order and with whatever fused multiply-adds the BLAS kernel
    picks, so the peaks' last bits may follow the BLAS. The margin holds for
    any of them.

    With u = 2**-53 and gamma_k = k*u/(1 - k*u), a k-term dot product
    evaluated in any order, with or without FMA, is within
    gamma_k * sum|x_i*y_i| of the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1). With t_k the largest
    magnitude in table k, a cos or sin and so at most 1, at a point of
    block b each route's Re 2z is within gamma_5 * Sr of the exact value
    and at most (1 + gamma_5) * Sr in magnitude, with
    Sr = |a| + sum_k |starts[k, b]| * t_k over k = 0..3; Im 2z likewise
    with Si = sum_k |starts[4 + k, b]| * t_k. The two routes' Re
    thus differ by at most 2 * gamma_5 * Sr, and their squares by at most
    4 * gamma_5 * (1 + gamma_5) * Sr**2. C^2 = re**2 + im**2, two rounded
    squares and one rounded sum, is within gamma_2 * (re**2 + im**2) of
    the exact sum of squares in each route. So the routes' C^2 at a point,
    and hence the largest values of a block, differ by at most

        (4 * gamma_5 * (1 + gamma_5) + 2 * gamma_2 * (1 + gamma_5)**2) * (Sr**2 + Si**2),

    below 24.01 * u * (Sr**2 + Si**2). margin is _MARGIN_ULPS = 25 times
    u * max_b (Sr**2 + Si**2); the rest of the 25 covers the dozen
    roundings of computing the margin itself, each a relative 2**-53.
    """
    grid = _Grid(eta, step, int(n), 0)
    coef, table = grid.starts, grid.tables
    t = np.abs(table).max(axis=1)[:, None]
    s_re = abs(grid.a) + (np.abs(coef[:4]) * t).sum(axis=0)
    s_im = (np.abs(coef[4:]) * t).sum(axis=0)
    margin = _MARGIN_ULPS * 2.0**-53 * float(np.max(s_re * s_re + s_im * s_im))

    lhs_re, lhs_im = np.ascontiguousarray(coef[:4].T), np.ascontiguousarray(coef[4:].T)
    rows = min(_ROWS, grid.blocks)
    re, im = np.empty((rows, BLOCK)), np.empty((rows, BLOCK))
    peaks = np.empty(grid.blocks, dtype=np.float64)
    for b0, b1, width in grid.spans():
        r, i = re[: b1 - b0, :width], im[: b1 - b0, :width]
        np.matmul(lhs_re[b0:b1], table[:, :width], out=r)
        np.matmul(lhs_im[b0:b1], table[:, :width], out=i)
        r += grid.a
        np.multiply(r, r, out=r)
        np.multiply(i, i, out=i)
        r += i
        np.max(r, axis=1, out=peaks[b0:b1])
    return peaks, margin
