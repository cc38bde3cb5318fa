"""Small dense linear algebra used by the physics modules.

Everything here is sized for the problem at hand: 2x2 complex solves for
the intracavity field equations and a 4x4 Hermitian eigensolver for the
two-qubit Hamiltonian and density matrices. The eigensolver is a cyclic
complex Jacobi iteration rather than a LAPACK call so that results are
bit-reproducible across BLAS builds and thread counts.

solve2 and the network formulas share one parts core: complex arithmetic
written once over (re, im) pairs whose parts are Python floats for one
system or equal-length float64 arrays for a stack of them. Products and
sums follow CPython's complex type, (ac - bd, ad + bc), and numpy rounds
each element of an add, subtract or multiply exactly as float arithmetic
does, so one expression gives a system the same bits alone as at any
position in any stack, and the same bits as Python complex arithmetic.
The few steps that need different code for floats and for arrays, among
them the two-branch quotient, exp(x)*cis(phi), the modulus and the
reduction behind each guard, are the primitives of _FloatParts and
_StackParts: on floats they are CPython's own operations, on arrays the
same libm calls and the same branches element by element. A modulus or
square that leaves the float range reads inf in both. On floats the core
makes no numpy call, because at size 2 a numpy operation costs far more
in dispatch than in arithmetic; on a stack each step is one numpy call
over every system. solve2 takes one (2, 2) system or an (n, 2, 2) stack.

eig_hermitian4 takes one (4, 4) matrix or an (n, 4, 4) stack and runs the
same sweeps on the whole stack at once, so a self-check over a thousand
matrices costs a few dozen numpy calls per rotation rather than a
thousand Python loops. It spells every complex product out in real
float64 arithmetic, with no complex numpy ufunc (whose vector loops may
fuse a multiply and an add), so each matrix's result depends only on its
own input bits, alone or in any stack.

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


def _mul(a, b):
    """a * b on (re, im) pairs, as CPython's complex product: (ac - bd, ad + bc)."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _sub(a, b):
    """a - b on (re, im) pairs."""
    return a[0] - b[0], a[1] - b[1]


def _split(z):
    """(re, im) of a Python complex, or float64 views of a complex array's parts."""
    return z.real, z.imag


class _FloatParts:
    """The primitives of the parts core on Python floats: one system."""

    @staticmethod
    def quot(a, b):
        # CPython's own complex division; every divisor the core passes
        # is nonzero by a guard before it
        z = complex(*a) / complex(*b)
        return z.real, z.imag

    @staticmethod
    def expcis(x, phi):
        z = cmath.exp(complex(x, phi))
        return z.real, z.imag

    @staticmethod
    def mod(z):
        """|z| as abs(complex), or inf where that overflows."""
        try:
            return abs(complex(*z))
        except OverflowError:
            return math.inf

    @staticmethod
    def square(x):
        """x ** 2 as float power, or inf where that overflows."""
        try:
            return x**2
        except OverflowError:
            return math.inf

    @staticmethod
    def ldexp(z, k):
        """z * 2**k on both parts; OverflowError if a part leaves the float range."""
        return math.ldexp(z[0], k), math.ldexp(z[1], k)

    @staticmethod
    def exponent(*parts):
        """Binary exponent e with every part below 2**e in magnitude."""
        return math.frexp(max(map(abs, parts)))[1]

    @staticmethod
    def nonfinite(*parts):
        return not all(map(math.isfinite, parts))

    @staticmethod
    def max(*values):
        return max(values)

    @staticmethod
    def first(mask, *values):
        """values if the system's guard mask is set, else None."""
        return values if mask else None

    @staticmethod
    def pack(re, im):
        return complex(re, im)


class _StackParts:
    """The same primitives on float64 arrays: each element gets _FloatParts' bits."""

    @staticmethod
    def quot(a, b):
        # _Py_c_quot's two branches, each over the whole stack; a system
        # takes the branch CPython takes for it, and the other one may
        # divide by zero or overflow unseen
        (ar, ai), (br, bi) = a, b
        with np.errstate(all="ignore"):
            r1 = bi / br
            d1 = br + bi * r1
            r2 = br / bi
            d2 = br * r2 + bi
            by_re = np.abs(br) >= np.abs(bi)
            return (
                np.where(by_re, (ar + ai * r1) / d1, (ar * r2 + ai) / d2),
                np.where(by_re, (ai - ar * r1) / d1, (ai * r2 - ar) / d2),
            )

    @staticmethod
    def expcis(x, phi):
        # libm's exp, cos and sin, which cmath.exp calls for x <= 0: numpy's
        # vectorized exp differs from libm in the last bit for some inputs
        n = len(phi)
        if isinstance(x, float):
            scale = math.exp(x)
        else:
            scale = np.fromiter(map(math.exp, x.tolist()), np.float64, n)
        phis = phi.tolist()
        return (
            scale * np.fromiter(map(math.cos, phis), np.float64, n),
            scale * np.fromiter(map(math.sin, phis), np.float64, n),
        )

    @staticmethod
    def mod(z):
        # numpy's hypot is libm's, which abs(complex) calls
        with np.errstate(over="ignore"):
            return np.hypot(*z)

    @staticmethod
    def square(x):
        # libm's pow, which float ** calls; x * x rounds differently for some x
        with np.errstate(over="ignore"):
            return np.float_power(x, 2.0)

    @staticmethod
    def ldexp(z, k):
        with np.errstate(over="ignore"):
            out = np.ldexp(z[0], k), np.ldexp(z[1], k)
        if not np.isfinite(out).all() and (np.isinf(out) & np.isfinite(z)).any():
            raise OverflowError("math range error")
        return out

    @staticmethod
    def exponent(*parts):
        return np.frexp(np.max(np.abs(parts), axis=0))[1]

    @staticmethod
    def nonfinite(*parts):
        return ~np.isfinite(parts).all(axis=0)

    @staticmethod
    def max(*values):
        return np.max(values, axis=0)

    @staticmethod
    def first(mask, *values):
        """None if no system's guard mask is set, else values at the first one that is."""
        if not mask.any():
            return None
        i = int(mask.argmax())
        return tuple(v[i].item() if isinstance(v, np.ndarray) else v for v in values)

    @staticmethod
    def pack(re, im):
        z = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
        z.real, z.imag = re, im
        return z


def _parts_of(x):
    """The primitives for a part: _FloatParts for a Python float, else _StackParts."""
    return _FloatParts if isinstance(x, float) else _StackParts


def _solve2(a00, a01, a10, a11, b0, b1):
    """Cramer's rule on (re, im) pairs, for one system or a stack; see solve2.

    Every guard and the rescaling apply to each system on its own, so a
    system gets the same result, or raises the same error, alone as
    anywhere in a stack.
    """
    ops = _parts_of(a00[0])
    m_parts = (*a00, *a01, *a10, *a11)
    if ops.first(ops.nonfinite(*m_parts, *b0, *b1)) is not None:
        raise ValueError("non-finite entries in linear system")
    # a modulus beyond the float range reads inf, which only the rescaled
    # path can cope with
    scale = ops.max(ops.mod(a00), ops.mod(a01), ops.mod(a10), ops.mod(a11))
    rhs_scale = ops.max(ops.mod(b0), ops.mod(b1))
    lo, hi = _SOLVE2_SAFE_LO, _SOLVE2_SAFE_HI
    outside = (scale <= lo) | (scale >= hi) | ((rhs_scale != 0.0) & ((rhs_scale <= lo) | (rhs_scale >= hi)))
    ea = eb = 0
    if ops.first(outside) is not None:
        # the largest parts of m*2**-ea and rhs*2**-eb lie in [0.5, 1);
        # scaling by powers of two commutes with every rounding below, so
        # the scaled solution times 2**(eb - ea) has the bits a run without
        # overflow or underflow would give. A system inside the band keeps
        # ea = eb = 0, and with it its unscaled entries.
        ea = outside * ops.exponent(*m_parts)
        eb = outside * ops.exponent(*b0, *b1)
        a00, a01, a10, a11 = (ops.ldexp(z, -ea) for z in (a00, a01, a10, a11))
        b0, b1 = ops.ldexp(b0, -eb), ops.ldexp(b1, -eb)
        scale = ops.max(ops.mod(a00), ops.mod(a01), ops.mod(a10), ops.mod(a11))
    det = _sub(_mul(a00, a11), _mul(a01, a10))
    det_mod = ops.mod(det)
    bad = ops.first(det_mod <= SOLVE2_EPS * scale * scale, det_mod, scale, ea)
    if bad is not None:
        det_mod, scale, ea = bad
        raise SingularSystem(
            f"|det| = {det_mod:.3e} <= {SOLVE2_EPS:.0e} * {scale * scale:.3e}"
            + (f" after scaling m by 2**{-ea}" if ea else "")
        )
    x0 = ops.quot(_sub(_mul(b0, a11), _mul(a01, b1)), det)
    x1 = ops.quot(_sub(_mul(a00, b1), _mul(b0, a10)), det)
    return ops.ldexp(x0, eb - ea), ops.ldexp(x1, eb - ea)


def solve2(m, rhs) -> np.ndarray:
    """Solve a 2x2 complex linear system by Cramer's rule, or a stack of them.

    Parameters
    ----------
    m : array_like, shape (2, 2) or (n, 2, 2), complex
    rhs : array_like, shape (2,) or (n, 2), complex

    Returns
    -------
    ndarray, shape (2,) or (n, 2), complex128

    Each system of a stack gets the same bits as it would alone, and a
    stack raises the error its first failing system would raise alone.

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
    if a.shape == (2, 2) and b.shape == (2,):
        x0, x1 = _solve2(*map(_split, a.ravel().tolist()), *map(_split, b.tolist()))
        return np.array([complex(*x0), complex(*x1)])
    if a.ndim != 3 or a.shape[1:] != (2, 2) or b.shape != (len(a), 2):
        raise ValueError(f"expected shapes (2,2) and (2,) or (n,2,2) and (n,2), got {a.shape} and {b.shape}")
    x0, x1 = _solve2(*(_split(a[:, i, j]) for i in (0, 1) for j in (0, 1)), _split(b[:, 0]), _split(b[:, 1]))
    return np.stack((_StackParts.pack(*x0), _StackParts.pack(*x1)), axis=1)


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
