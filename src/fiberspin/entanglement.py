"""Two-qubit entanglement measures and the entanglement-versus-time trace.

Concurrence and entanglement of formation follow Wootters' construction.
For a pure state in the shared basis (|ee>, |eg>, |ge>, |gg>) the
concurrence collapses to 2*|c_ee*c_gg - c_eg*c_ge|; for a mixed state it
is max(0, l1-l2-l3-l4) with l_i the descending square roots of the
eigenvalues of rho*(sy x sy)*conj(rho)*(sy x sy). Both feed

    E = h((1 + sqrt(1-C^2))/2),  h(x) = -x*log2(x) - (1-x)*log2(1-x),

with the 0*log(0) = 0 convention.

The trace functions sample E along the closed-form evolution from |gg>
on a uniform grid in scaled time; tau_star finds the earliest grid time
whose E is within tolerance of the grid maximum. The trace is
quasiperiodic (frequencies 2 and 2*sqrt(1+eta^2)), so the maximum is
approached on beats rather than attained exactly, and the tolerance is
what makes "first time near the maximum" well defined.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BadGrid,
    InvalidDensityMatrix,
    NotNormalized,
    OutOfRange,
)
from .numerics import eig_hermitian4

#: (sy x sy) in basis order; real and symmetric
SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

#: SPIN_FLIP[i, 3 - i] * SPIN_FLIP[3 - j, j], the signs of (sy x sy) X (sy x sy)
_FLIP_SIGNS = np.outer(np.diag(SPIN_FLIP[:, ::-1]), np.diag(SPIN_FLIP[::-1]))

_NORM_TOL = 1e-10
_DM_TOL = 1e-10

#: most points one trace grid may have; a larger request fails with BadGrid
#: before any point is computed. entanglement_trace holds one 256 MiB array
#: at the cap besides one block, 285 MiB peak RSS, so for it the cap
#: bounds memory; entanglement_blocks and `fiberspin evolve` hold one block,
#: so for them it bounds output size and run time: 2**25 rows are 780 MB of CSV
MAX_GRID_POINTS = 2**25

#: points per entanglement_blocks block, a multiple of kernels.BLOCK; at
#: 16,384 a formatted `fiberspin evolve` block stays small beside the imports
_BLOCK_ROWS = 16 * kernels.BLOCK

#: E-level slack of tau_star's C^2 bounds, far above the few-ulp difference
#: between the kernel's E and eof_from_concurrence
_E_SLACK = 1e-12


def concurrence_pure(psi):
    """Concurrence of a normalized two-qubit pure state, or of a stack of them.

    psi has shape (4,), giving a float, or (n, 4), giving an ndarray of n
    concurrences.
    """
    a = np.asarray(psi, dtype=np.complex128)
    if a.shape[-1:] != (4,) or a.ndim not in (1, 2):
        raise ValueError(f"expected 4 amplitudes or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise OutOfRange("non-finite amplitudes")
    nrm = np.ravel(np.linalg.norm(a, axis=-1))
    off = np.abs(nrm - 1.0)
    if np.any(off > _NORM_TOL):
        worst = float(nrm[np.argmax(off)])
        raise NotNormalized(f"|psi| = {worst!r} differs from 1 beyond {_NORM_TOL:.0e}")
    r, i = a.real.T, a.imag.T
    # 2*|a_ee*a_gg - a_eg*a_ge|, each complex product in real arithmetic
    re = (r[0] * r[3] - i[0] * i[3]) - (r[1] * r[2] - i[1] * i[2])
    im = (r[0] * i[3] + i[0] * r[3]) - (r[1] * i[2] + i[1] * r[2])
    c = np.minimum(2.0 * np.hypot(re, im), 1.0)
    return float(c) if a.ndim == 1 else c


def _check_density_matrix(rho) -> np.ndarray:
    a = np.asarray(rho, dtype=np.complex128)
    if a.shape[-2:] != (4, 4) or a.ndim not in (2, 3):
        raise InvalidDensityMatrix(f"expected shape (4, 4) or (n, 4, 4), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidDensityMatrix("non-finite entries")
    adjoint = np.swapaxes(a, -2, -1).conj()
    if float(np.max(np.abs(a - adjoint), initial=0.0)) > _DM_TOL:
        raise InvalidDensityMatrix(f"not Hermitian to {_DM_TOL:.0e}")
    tr = np.ravel(np.trace(a, axis1=-2, axis2=-1))
    off = np.abs(tr - 1.0)
    if np.any(off > _DM_TOL):
        worst = complex(tr[np.argmax(off)])
        raise InvalidDensityMatrix(f"trace = {worst!r} differs from 1 beyond {_DM_TOL:.0e}")
    # the Hermitian part: the same bits for an exactly Hermitian rho, and it
    # meets eig_hermitian4's relative check whatever the absolute defect was
    return 0.5 * (a + adjoint)


def _matmul4(x_re, x_im, y_re, y_im):
    """Real and imaginary parts of x @ y for stacks of 4x4 complex matrices.

    Products and sums run in real arithmetic in a fixed order, so each
    product depends only on the bits of its own two factors, whatever
    stack it sits in.
    """
    xr, xi = x_re[..., :, :, None], x_im[..., :, :, None]
    yr, yi = y_re[..., None, :, :], y_im[..., None, :, :]
    # terms[..., i, k, j] = x[i, k] * y[k, j], summed over k in order
    terms_re = xr * yr - xi * yi
    terms_im = xr * yi + xi * yr
    out_re = ((terms_re[..., 0, :] + terms_re[..., 1, :]) + terms_re[..., 2, :]) + terms_re[..., 3, :]
    out_im = ((terms_im[..., 0, :] + terms_im[..., 1, :]) + terms_im[..., 2, :]) + terms_im[..., 3, :]
    return out_re, out_im


def concurrence_mixed(rho):
    """Wootters concurrence of a two-qubit density matrix, or of a stack of them.

    rho has shape (4, 4), giving a float, or (n, 4, 4), giving an ndarray
    of n concurrences; the whole stack goes through each eigensolve at
    once. Implemented through the Hermitian product sqrt(rho) * rho_tilde *
    sqrt(rho), whose eigenvalues are the squares of the usual lambda_i;
    this keeps every eigensolve on a Hermitian matrix. Agrees with
    concurrence_pure on rank-1 inputs to ~1e-14.
    """
    a = _check_density_matrix(rho)
    eig = eig_hermitian4(a)
    vals = eig.values
    if np.any(vals[..., 0] < -_DM_TOL):
        raise InvalidDensityMatrix(f"negative eigenvalue {float(np.min(vals[..., 0]))!r}")
    # sqrt(rho) = V diag(sqrt(values)) V^dagger
    scaled = eig.vectors * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
    adjoint = np.swapaxes(eig.vectors, -2, -1)
    root = _matmul4(scaled.real, scaled.imag, adjoint.real, -adjoint.imag)
    # rho_tilde = (sy x sy) conj(rho) (sy x sy): SPIN_FLIP is a signed
    # permutation, so this reverses both axes and flips signs exactly
    flipped = a[..., ::-1, ::-1]
    tilde_re, tilde_im = _FLIP_SIGNS * flipped.real, -_FLIP_SIGNS * flipped.imag
    m_re, m_im = _matmul4(*_matmul4(*root, tilde_re, tilde_im), *root)
    m = np.empty(m_re.shape, dtype=np.complex128)
    m.real = 0.5 * (m_re + np.swapaxes(m_re, -2, -1))
    m.imag = 0.5 * (m_im - np.swapaxes(m_im, -2, -1))
    mu = np.clip(eig_hermitian4(m).values, 0.0, None)
    # eigenvalues of m below the rounding floor are noise around zero;
    # square-rooting them would inject sqrt(eps) ~ 1e-8 into the sum
    floor = 64.0 * np.finfo(np.float64).eps * mu[..., -1:]
    mu[mu <= floor] = 0.0
    lams = np.sqrt(mu)
    c = np.minimum(np.maximum(((lams[..., 3] - lams[..., 2]) - lams[..., 1]) - lams[..., 0], 0.0), 1.0)
    return float(c) if a.ndim == 2 else c


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of concurrence, on [0, 1]."""
    if not isinstance(c, (int, float)) or not math.isfinite(c):
        raise OutOfRange(f"concurrence must be a finite real, got {c!r}")
    if c < 0.0 or c > 1.0:
        raise OutOfRange(f"concurrence must lie in [0, 1], got {c!r}")
    x = 0.5 * (1.0 + math.sqrt(1.0 - c * c))
    y = 1.0 - x
    if y <= 0.0:
        return 0.0
    return -x * math.log2(x) - y * math.log2(y)


@dataclass(frozen=True)
class EntanglementTrace:
    """E(tau) sampled at the grid times tau_k = k * step, k = start, start + 1, ..."""

    eta: float
    step: float
    values: np.ndarray
    start: int = 0

    def __post_init__(self):
        values, step, start = self.values, self.step, self.start
        if not isinstance(values, np.ndarray) or values.ndim != 1 or values.size < 1:
            raise BadGrid("values must be a 1-d array of at least one point")
        if not (isinstance(step, (int, float)) and math.isfinite(step) and step > 0.0):
            raise BadGrid(f"step must be finite and > 0, got {step!r}")
        if not (isinstance(start, (int, np.integer)) and start >= 0):
            raise BadGrid(f"start must be an integer >= 0, got {start!r}")
        # the check runs on _BLOCK_ROWS-sized slices, so no temporary spans the grid
        for lo in range(0, values.size, _BLOCK_ROWS):
            v = values[lo : lo + _BLOCK_ROWS]
            if not np.all((v >= 0.0) & (v <= 1.0 + 1e-9)):
                raise OutOfRange("entanglement values escaped [0, 1]")

    @property
    def taus(self) -> np.ndarray:
        """The grid times of values, (start + k) * step, made afresh on each read."""
        # integer-valued floats, so these are the bits of np.arange(n) * step at the same k
        return np.arange(self.start, self.start + self.values.size, dtype=np.float64) * self.step


@dataclass(frozen=True)
class TauStarResult:
    """Earliest grid time within tolerance of the grid maximum, plus its inputs."""

    eta: float
    tau_star: float
    e_max: float
    window: float
    tolerance: float


def _grid_points(tau_max: float, step: float) -> int:
    """Points of the grid 0, step, ..., tau_max, after the grid guards."""
    if not (math.isfinite(step) and 0.0 < step <= 0.1):
        raise BadGrid(f"step must satisfy 0 < step <= 0.1, got {step!r}")
    if not math.isfinite(tau_max) or tau_max < step:
        raise BadGrid(f"tau_max must be >= step, got {tau_max!r}")
    span = tau_max / step + 1e-9
    # the grid has floor(span) + 1 points; an infinite span fails here too
    if not span < MAX_GRID_POINTS:
        raise BadGrid(
            f"tau_max / step = {tau_max / step:.6g} asks for more than"
            f" MAX_GRID_POINTS = {MAX_GRID_POINTS} grid points"
        )
    return int(math.floor(span)) + 1


def entanglement_trace(eta: float, tau_max: float, step: float) -> EntanglementTrace:
    """Sample E(tau) from tau = 0 to tau_max (inclusive) in uniform steps.

    step must satisfy 0 < step <= 0.1 (coarser grids alias the beat
    structure) and tau_max >= step. The grid may have at most
    MAX_GRID_POINTS (2**25) points; a larger one raises BadGrid before
    anything is allocated. E(0) = 0 since |gg> is a product state. The one
    result array is made once and filled from entanglement_blocks, which
    runs every guard and check, so besides it memory holds one block; the
    trace's taus are made only when read.
    """
    blocks = entanglement_blocks(eta, tau_max, step)
    values = np.empty(_grid_points(tau_max, step))
    for b in blocks:
        values[b.start : b.start + b.values.size] = b.values
    return EntanglementTrace(eta=eta, step=step, values=values)


def entanglement_blocks(eta: float, tau_max: float, step: float) -> Iterator[EntanglementTrace]:
    """The entanglement_trace grid as consecutive traces of at most _BLOCK_ROWS points.

    A block starting at grid index lo has start=lo, so its taus are those
    of np.arange(n) * step from lo on, and its values those of one
    kernels.ent_trace_grid call on the whole n-point grid, bit for bit;
    memory is one block whatever the grid size. Everything that can
    refuse the grid runs before this returns: the grid guards,
    kernels.check_grid on the whole grid (eta, and the phase at its last
    point, which a first block alone may not reach), and the first block,
    made and checked. Each later block is made, and checked by
    EntanglementTrace, when the iterator reaches it.
    """
    n = _grid_points(tau_max, step)
    kernels.check_grid(eta, step, n)

    def block(lo: int) -> EntanglementTrace:
        values = kernels.ent_trace_grid(eta, step, n=min(_BLOCK_ROWS, n - lo), start=lo)
        return EntanglementTrace(eta=eta, step=step, values=values, start=lo)

    def blocks(first: EntanglementTrace) -> Iterator[EntanglementTrace]:
        yield first
        # let go of block 0 once it is drawn, as of every later block
        del first
        yield from map(block, range(_BLOCK_ROWS, n, _BLOCK_ROWS))

    return blocks(block(0))


def _conc2_floor(e: float) -> float:
    """A C^2 below that of every kernel point whose E reaches e.

    Bisects the monotone map C^2 -> E of eof_from_concurrence for the
    largest C^2 whose E stays _E_SLACK below e. The kernel computes the
    same map in another rounding order, within a few ulp of this one and
    so far inside the slack; as dE/dC^2 >= 1/(2 ln 2), the bound sits at
    most about 1.4 * _E_SLACK below the exact one. Returns -inf when every
    point may qualify.
    """
    target = e - _E_SLACK
    if target <= 0.0:
        return -math.inf
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if eof_from_concurrence(math.sqrt(mid)) < target:
            lo = mid
        else:
            hi = mid
    return lo


def tau_star(
    eta: float,
    window: float = 1e4,
    step: float = 1e-2,
    tolerance: float = 1e-2,
) -> TauStarResult:
    """First scaled time whose E is within tolerance of the window maximum.

    On the entanglement_trace grid of (window, step), e_max is the largest
    E and tau_star the first grid time with E >= e_max - tolerance, both
    bit-identical to reading them off the full kernels.ent_trace_grid
    array, which is never built. A first pass bounds the largest C^2 of
    each kernel block from above by its peak plus the grid's margin
    (kernels.conc2_block_max); the peaks' last bits may follow the BLAS,
    the bound holds for every BLAS. E grows with C^2, so a point reaches
    an E level only if its C^2 reaches the level's _conc2_floor: e_max is
    taken over the blocks whose bound can hold it, and the first hit is
    looked for, in order, in the blocks whose bound can reach the
    threshold, each through one kernels.ent_trace_grid call on that block
    alone. Every E compared or returned comes from those calls, so the
    result does not depend on the BLAS. Memory is one chunk of kernel
    blocks plus one float per block.
    """
    if not isinstance(tolerance, (int, float)) or not math.isfinite(tolerance) or tolerance < 0.0:
        raise OutOfRange(f"tolerance must be >= 0, got {tolerance!r}")
    n = _grid_points(window, step)
    peaks, margin = kernels.conc2_block_max(eta, step, n)
    bounds = peaks + margin

    def block_e(b: int) -> np.ndarray:
        lo = b * kernels.BLOCK
        return kernels.ent_trace_grid(eta, step, n=min(kernels.BLOCK, n - lo), start=lo)

    # any block's largest E bounds e_max from below, so every point that
    # reaches e_max lies in a block whose bound reaches that E's floor
    e_max = float(block_e(int(np.argmax(peaks))).max())
    e_max = max(float(block_e(b).max()) for b in np.flatnonzero(bounds >= _conc2_floor(e_max)).tolist())
    threshold = e_max - tolerance
    # the point holding e_max meets the threshold, so some candidate block hits
    for b in np.flatnonzero(bounds >= _conc2_floor(threshold)).tolist():
        hits = np.flatnonzero(block_e(b) >= threshold)
        if hits.size:
            break
    idx = b * kernels.BLOCK + int(hits[0])
    return TauStarResult(
        eta=eta,
        tau_star=float(idx * step),
        e_max=e_max,
        window=window,
        tolerance=tolerance,
    )
