"""Small dense linear algebra used by the physics modules.

Everything here is sized for the problem at hand: 2x2 complex solves for
the intracavity field equations and a 4x4 Hermitian eigensolver for the
two-qubit Hamiltonian and density matrices. The eigensolver is a cyclic
complex Jacobi iteration rather than a LAPACK call so that results are
bit-reproducible across BLAS builds and thread counts.

solve2 checks its input as numpy arrays, then computes on plain Python
complex and float values: at size 2 a numpy operation costs far more in
dispatch than in arithmetic. eig_hermitian4 takes one (4, 4) matrix or
an (n, 4, 4) stack and runs the same sweeps on the whole stack at once,
so a self-check over a thousand matrices costs a few dozen numpy calls
per rotation rather than a thousand Python loops. It spells every
complex product out in real float64 arithmetic, with no complex numpy
ufunc (whose vector loops may fuse a multiply and an add), so each
matrix's result depends only on its own input bits, alone or in any
stack.

Both routines rescale by an exact power of two where needed, so entries
near either end of the float range neither overflow nor go subnormal
inside the algorithm. Scaling by a power of two commutes with rounding,
so an input that needs no rescaling gives the same bits either way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotNormalized, SingularSystem

#: relative determinant floor for the 2x2 solver
SOLVE2_EPS = 1e-12

#: Hermiticity tolerance, relative to the largest matrix entry
HERMITIAN_TOL = 1e-10

#: state-vector norm tolerance
NORM_TOL = 1e-10

_JACOBI_MAX_SWEEPS = 30
_JACOBI_OFF_TOL = 1e-14

# fixed upper-triangle visit order for the cyclic sweeps
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# band of entry moduli inside which the 2x2 products, the determinant
# floor SOLVE2_EPS * scale**2 and the quotients stay normal and finite;
# outside it solve2 rescales first
_SOLVE2_SAFE_LO = 2.0**-400
_SOLVE2_SAFE_HI = 2.0**400


def _ldexp_complex(z: complex, k: int) -> complex:
    """z * 2**k, exact unless the result leaves the normal float range."""
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _exponent(values) -> int:
    """Binary exponent e with every real and imaginary part below 2**e in magnitude."""
    return math.frexp(max(max(abs(z.real), abs(z.imag)) for z in values))[1]


def solve2(m, rhs) -> np.ndarray:
    """Solve a 2x2 complex linear system by Cramer's rule.

    Parameters
    ----------
    m : array_like, shape (2, 2), complex
    rhs : array_like, shape (2,), complex

    Returns
    -------
    ndarray, shape (2,), complex128

    Raises
    ------
    ValueError
        If the shapes are wrong or an entry is not finite.
    SingularSystem
        If |det m| <= 1e-12 * max|m_ij|^2, i.e. the system is singular
        relative to the scale of its entries.
    OverflowError
        If a component of the solution exceeds the float range.
    """
    a = np.asarray(m, dtype=np.complex128)
    b = np.asarray(rhs, dtype=np.complex128)
    if a.shape != (2, 2) or b.shape != (2,):
        raise ValueError(f"expected shapes (2,2) and (2,), got {a.shape} and {b.shape}")
    (a00, a01), (a10, a11) = a.tolist()
    b0, b1 = b.tolist()
    finite = cmath.isfinite
    if not (
        finite(a00) and finite(a01) and finite(a10) and finite(a11) and finite(b0) and finite(b1)
    ):
        raise ValueError("non-finite entries in linear system")
    try:
        scale = max(abs(a00), abs(a01), abs(a10), abs(a11))
        rhs_scale = max(abs(b0), abs(b1))
    except OverflowError:
        # a modulus beyond the float range: only the rescaled path can cope
        scale = rhs_scale = math.inf
    ea = eb = 0
    if not (
        _SOLVE2_SAFE_LO < scale < _SOLVE2_SAFE_HI
        and (rhs_scale == 0.0 or _SOLVE2_SAFE_LO < rhs_scale < _SOLVE2_SAFE_HI)
    ):
        # the largest parts of m*2**-ea and rhs*2**-eb lie in [0.5, 1);
        # scaling by powers of two commutes with every rounding below, so
        # the scaled solution times 2**(eb - ea) has the bits a run without
        # overflow or underflow would give
        ea = _exponent((a00, a01, a10, a11))
        eb = _exponent((b0, b1))
        a00, a01, a10, a11 = (_ldexp_complex(z, -ea) for z in (a00, a01, a10, a11))
        b0, b1 = _ldexp_complex(b0, -eb), _ldexp_complex(b1, -eb)
        scale = max(abs(a00), abs(a01), abs(a10), abs(a11))
    det = a00 * a11 - a01 * a10
    if abs(det) <= SOLVE2_EPS * scale * scale:
        raise SingularSystem(
            f"|det| = {abs(det):.3e} <= {SOLVE2_EPS:.0e} * {scale * scale:.3e}"
            + (f" after scaling m by 2**{-ea}" if ea else "")
        )
    x0 = (b0 * a11 - a01 * b1) / det
    x1 = (a00 * b1 - b0 * a10) / det
    if eb != ea:
        x0, x1 = _ldexp_complex(x0, eb - ea), _ldexp_complex(x1, eb - ea)
    return np.array([x0, x1], dtype=np.complex128)


@dataclass(frozen=True)
class HermEig4:
    """Eigendecomposition of a 4x4 Hermitian matrix, or of a stack of them.

    values are ascending and real; vectors[..., :, k] is the unit
    eigenvector for values[..., k]. For one (4, 4) matrix values has shape
    (4,) and vectors (4, 4); for a stack of n they gain a leading axis.
    """

    values: np.ndarray
    vectors: np.ndarray


def _check_hermitian(h) -> np.ndarray:
    a = np.asarray(h, dtype=np.complex128)
    if a.shape[-2:] != (4, 4) or a.ndim not in (2, 3):
        raise ValueError(f"expected shape (4, 4) or (n, 4, 4), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite matrix entries")
    # relative to the largest entry of each matrix at every scale, so a
    # matrix of small entries gets no absolute allowance and the zero
    # matrix must be exact
    scale = np.max(np.abs(a), axis=(-2, -1))
    defect = np.max(np.abs(a - np.swapaxes(a, -2, -1).conj()), axis=(-2, -1))
    if np.any(defect > HERMITIAN_TOL * scale):
        raise NotHermitian(f"max |h - h^dagger| exceeds {HERMITIAN_TOL:.0e} * max |h_ij|")
    return a


# for each pair (p, q) of _PAIRS: the slice picking lines p and q, and the
# (part, row, column) positions a rotation leaves exactly zero: both parts
# of a[p][q] and a[q][p], and the imaginary parts of a[p][p] and a[q][q]
_PAIR_STEPS = {
    (p, q): (
        slice(p, q + 1, q - p),
        (np.array([0, 1, 0, 1, 1, 1]), np.array([p, p, q, q, p, q]), np.array([q, q, p, p, p, q])),
    )
    for p, q in _PAIRS
}
_PAIR_ROWS = np.array([p for p, _ in _PAIRS])
_PAIR_COLS = np.array([q for _, q in _PAIRS])
# +-1 along the axis that holds a rotation's two lines
_PLUS_MINUS = np.array([[1.0], [-1.0]])


def _off_norm(w: np.ndarray) -> np.ndarray:
    """sqrt(2 * sum |a[p][q]|^2) over _PAIRS, summed in that order, per matrix."""
    part = w[:, _PAIR_ROWS, _PAIR_COLS]
    mod = np.hypot(part[0], part[1])
    return np.sqrt(2.0 * np.add.accumulate(mod * mod, axis=0)[-1])


def _rotate(w: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation annihilating a[p][q] of every matrix in w, in place.

    w holds the active stack as (part, row, column, matrix): part 0 real,
    1 imaginary; rows 0-3 are A and rows 4-7 the eigenvector basis V.
    Every complex product is spelled out in real arithmetic in the order
    Python evaluates (x.re*y.re - x.im*y.im, x.re*y.im + x.im*y.re), so
    each matrix's bits depend on its own entries alone, never on the
    stack around it or on how numpy vectorizes a loop.
    """
    lines, zeros = _PAIR_STEPS[p, q]
    bpq = w[:, p, q]
    ab = np.hypot(bpq[0], bpq[1])
    skip = ab == 0.0
    # 1 where a[p][q] is already zero, so nothing below divides by zero
    ab += skip
    # zeta = 0 (equal diagonal) gives t = 1, and a skipped pair t = 0
    zeta = (w[0, p, p] - w[0, q, q]) / (2.0 * ab)
    t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(zeta, 1.0))
    t[skip] = 0.0
    c = 1.0 / np.sqrt(1.0 + t * t)
    # s*phase with s = t*c and phase = a[p][q]/|a[p][q]|
    sp = t * c * (bpq / ab)
    # a rotation maps the lines (x_p, x_q) to (c*x_p + u*x_q, c*x_q + u'*x_p);
    # re(u), re(u') = +-re(sp), and the imaginary parts, which multiply the
    # swapped parts of x, are +-kp with kp = (-im(sp), +im(sp)) by part
    re_u = sp[0] * _PLUS_MINUS
    kp = (sp[1] * _PLUS_MINUS[::-1])[:, None, None]
    # columns of A and V: u = s*conj(phase), u' = -s*phase
    y = w[:, :, lines]
    swapped = y[:, :, ::-1]
    w[:, :, lines] = c * y + (re_u * swapped - kp * swapped[::-1])
    # rows of A: u = s*phase, u' = -s*conj(phase)
    y = w[:, lines]
    swapped = y[:, ::-1]
    w[:, lines] = c * y + (re_u[:, None] * swapped + kp * swapped[::-1])
    w[zeros] = 0.0


def eig_hermitian4(h) -> HermEig4:
    """Diagonalize a 4x4 Hermitian matrix, or a stack of them, with cyclic complex Jacobi sweeps.

    h has shape (4, 4) or (n, 4, 4). Off-diagonal elements are annihilated
    pairwise with unitary plane rotations in a fixed visit order, which
    makes each result a pure function of its own matrix's bits: a matrix
    gives the same values and vectors alone as anywhere in any stack.
    Converges in a handful of sweeps for any Hermitian input of this size.

    Each matrix is scaled by its own 2**-e, with e the binary exponent of
    its largest real or imaginary part, so the Frobenius norm that sets
    its stopping tolerance can neither overflow nor underflow; the
    eigenvalues are scaled back by 2**e. The sweeps run on the whole
    stack at once, and a matrix leaves the active set at the first sweep
    boundary where its own off-diagonal norm meets its own tolerance.

    Raises NotHermitian if any input matrix fails the Hermiticity check,
    and OverflowError if an eigenvalue exceeds the float range.
    """
    a = _check_hermitian(h)
    single = a.ndim == 2
    a = a.reshape(-1, 4, 4)
    n = a.shape[0]
    re, im = a.real, a.imag
    e = np.frexp(np.max(np.maximum(np.abs(re), np.abs(im)), axis=(1, 2)))[1][:, None, None]
    re, im = np.ldexp(re, -e), np.ldexp(im, -e)
    # (part, row, column, matrix); work on the exact Hermitian average so
    # roundoff in the caller cannot leak into the iteration
    w = np.zeros((2, 8, 4, n))
    w[0, :4] = (0.5 * (re + np.swapaxes(re, 1, 2))).transpose(1, 2, 0)
    w[1, :4] = (0.5 * (im - np.swapaxes(im, 1, 2))).transpose(1, 2, 0)
    w[0, 4:] = np.eye(4)[:, :, None]
    mod = np.hypot(w[0, :4], w[1, :4]).reshape(16, n)
    tol = _JACOBI_OFF_TOL * np.sqrt(np.add.accumulate(mod * mod, axis=0)[-1])

    done = np.empty_like(w)
    active = np.arange(n)
    with np.errstate(over="ignore"):
        # zeta = (app - aqq)/(2*|apq|) may overflow to inf, which gives t = 0
        for _ in range(_JACOBI_MAX_SWEEPS):
            converged = _off_norm(w) <= tol
            if converged.any():
                done[..., active[converged]] = w[..., converged]
                keep = ~converged
                w, active, tol = w[..., keep], active[keep], tol[keep]
            if not active.size:
                break
            for p, q in _PAIRS:
                _rotate(w, p, q)
        else:
            raise FloatingPointError(f"jacobi iteration did not converge in {_JACOBI_MAX_SWEEPS} sweeps")
        diagonal = done[0, range(4), range(4)].T
        order = np.argsort(diagonal, axis=1, kind="stable")
        values = np.ldexp(np.take_along_axis(diagonal, order, axis=1), e[:, :, 0])
    if not np.all(np.isfinite(values)):
        raise OverflowError("an eigenvalue exceeds the float range")
    vectors = np.empty((n, 4, 4), dtype=np.complex128)
    vectors.real = np.take_along_axis(done[0, 4:].transpose(2, 0, 1), order[:, None, :], axis=2)
    vectors.imag = np.take_along_axis(done[1, 4:].transpose(2, 0, 1), order[:, None, :], axis=2)
    if single:
        return HermEig4(values=values[0], vectors=vectors[0])
    return HermEig4(values=values, vectors=vectors)


def propagate(h, t, psi0) -> np.ndarray:
    """Evolve psi0 under exp(-i h t) via the eigendecomposition of h.

    h must be Hermitian (4x4) and psi0 a unit vector; t is a real time in
    the inverse units of h, giving one state of shape (4,), or a 1-d
    array of times, giving one state per row from a single
    eigendecomposition.
    """
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1:
        raise ValueError(f"expected a time or a 1-d array of times, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError("time must be finite")
    psi = np.asarray(psi0, dtype=np.complex128)
    if psi.shape != (4,):
        raise ValueError(f"expected state shape (4,), got {psi.shape}")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"|psi| = {nrm!r} differs from 1 beyond {NORM_TOL:.0e}")
    eig = eig_hermitian4(h)
    energies = eig.values.tolist()
    phases = np.array([[cmath.exp(-1j * w * tau) for w in energies] for tau in times.reshape(-1).tolist()])
    states = (phases * (eig.vectors.conj().T @ psi)) @ eig.vectors.T
    return states[0] if times.ndim == 0 else states
