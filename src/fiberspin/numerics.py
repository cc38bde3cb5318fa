"""Small dense linear algebra used by the physics modules.

Everything here is sized for the problem at hand: 2x2 complex solves for
the intracavity field equations and a 4x4 Hermitian eigensolver for the
two-qubit Hamiltonian and density matrices. The eigensolver is a cyclic
complex Jacobi iteration rather than a LAPACK call so that results are
bit-reproducible across BLAS builds and thread counts.

Both routines check their input as numpy arrays, then compute on plain
Python complex and float values. At sizes 2 and 4 a numpy scalar
operation costs far more in dispatch than in arithmetic, and the
self-check suites call these routines tens of thousands of times. Python
floats are IEEE doubles and every operation runs in a fixed order, so
each result still depends only on the input bits.

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
    """Eigendecomposition of a 4x4 Hermitian matrix.

    values are ascending and real; vectors[:, k] is the unit eigenvector
    for values[k].
    """

    values: np.ndarray
    vectors: np.ndarray


def _check_hermitian(h) -> np.ndarray:
    a = np.asarray(h, dtype=np.complex128)
    if a.shape != (4, 4):
        raise ValueError(f"expected shape (4, 4), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite matrix entries")
    scale = float(np.max(np.abs(a)))
    if float(np.max(np.abs(a - a.conj().T))) > HERMITIAN_TOL * max(scale, 1.0):
        raise NotHermitian(f"max |h - h^dagger| exceeds {HERMITIAN_TOL:.0e} * scale")
    return a


def eig_hermitian4(h) -> HermEig4:
    """Diagonalize a 4x4 Hermitian matrix with cyclic complex Jacobi sweeps.

    Off-diagonal elements are annihilated pairwise with unitary plane
    rotations in a fixed visit order, which makes the result a pure
    function of the input bits. Converges in a handful of sweeps for
    any Hermitian input of this size.

    The sweeps run on the matrix scaled by 2**-e, with e the binary
    exponent of its largest real or imaginary part, so the Frobenius norm
    that sets the stopping tolerance can neither overflow nor underflow;
    the eigenvalues are scaled back by 2**e.

    Raises NotHermitian if the input fails the Hermiticity check, and
    OverflowError if an eigenvalue exceeds the float range.
    """
    rows = _check_hermitian(h).tolist()
    if not any(z for row in rows for z in row):
        return HermEig4(values=np.zeros(4), vectors=np.eye(4, dtype=np.complex128))
    e = _exponent(z for row in rows for z in row)
    rows = [[_ldexp_complex(z, -e) for z in row] for row in rows]
    # work on the exact Hermitian average so roundoff in the caller
    # cannot leak into the iteration
    a = [[0.5 * (rows[i][j] + rows[j][i].conjugate()) for j in range(4)] for i in range(4)]
    v = [[complex(i == j) for j in range(4)] for i in range(4)]
    frob = math.sqrt(sum(abs(z) ** 2 for row in a for z in row))
    tol = _JACOBI_OFF_TOL * frob

    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(2.0 * sum(abs(a[p][q]) ** 2 for p, q in _PAIRS))
        if off <= tol:
            break
        for p, q in _PAIRS:
            bpq = a[p][q]
            ab = abs(bpq)
            if ab == 0.0:
                continue
            phase = bpq / ab
            app = a[p][p].real
            aqq = a[q][q].real
            if app == aqq:
                t = 1.0
            else:
                zeta = (app - aqq) / (2.0 * ab)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(zeta, 1.0))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            sp = s * phase
            spc = s * phase.conjugate()
            # columns: (Av)[:, p] = c*col_p + s*conj(phase)*col_q
            for row in a:
                xp, xq = row[p], row[q]
                row[p] = c * xp + spc * xq
                row[q] = -sp * xp + c * xq
            # rows: (v^dagger A)[p, :] = c*row_p + s*phase*row_q
            rp, rq = a[p], a[q]
            for j in range(4):
                xp, xq = rp[j], rq[j]
                rp[j] = c * xp + sp * xq
                rq[j] = -spc * xp + c * xq
            rp[q] = rq[p] = 0j
            rp[p] = complex(rp[p].real)
            rq[q] = complex(rq[q].real)
            # accumulate the same column rotation into the eigenvector basis
            for row in v:
                xp, xq = row[p], row[q]
                row[p] = c * xp + spc * xq
                row[q] = -sp * xp + c * xq
    else:
        raise FloatingPointError("jacobi iteration did not converge in 30 sweeps")

    values = [a[k][k].real for k in range(4)]
    order = sorted(range(4), key=values.__getitem__)
    return HermEig4(
        values=np.array([math.ldexp(values[k], e) for k in order]),
        vectors=np.array([[row[k] for k in order] for row in v], dtype=np.complex128),
    )


def propagate(h, t: float, psi0) -> np.ndarray:
    """Evolve psi0 under exp(-i h t) via the eigendecomposition of h.

    h must be Hermitian (4x4) and psi0 a unit vector; t is a real time
    in the inverse units of h.
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    psi = np.asarray(psi0, dtype=np.complex128)
    if psi.shape != (4,):
        raise ValueError(f"expected state shape (4,), got {psi.shape}")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"|psi| = {nrm!r} differs from 1 beyond {NORM_TOL:.0e}")
    eig = eig_hermitian4(h)
    phases = np.array([cmath.exp(-1j * w * t) for w in eig.values])
    return eig.vectors @ (phases * (eig.vectors.conj().T @ psi))
