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
them the two-branch quotient, exp(x)*cis(phi) and the modulus, are the
primitives of _FloatParts and _StackParts: on floats they are CPython's
own operations, on arrays the same libm calls and the same branches
element by element. A modulus or square that leaves the float range
reads inf in both. A guard's error is built on floats only: on a stack,
fails only detects that a system failed, and _arrays.first_alone finds
the first that fails alone. On floats the core makes no numpy call,
because at size 2 a numpy operation costs far more in dispatch than in
arithmetic; on a stack each step is one numpy call over every system.
solve2 takes one (2, 2) system or an (n, 2, 2) stack.

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

This module never imports numpy. The array code, _StackParts and the
bodies of solve2, eig_hermitian4 and propagate, is in fiberspin._arrays,
which imports numpy at its top and is itself imported only where a stack
or an array routine first needs it. Importing this module, and the parts
core on floats, leave numpy unloaded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import OutOfRange, SingularSystem

if TYPE_CHECKING:
    import numpy as np

#: relative determinant floor for the 2x2 solver
SOLVE2_EPS = 1e-12

#: Hermiticity tolerance, relative to the largest matrix entry
HERMITIAN_TOL = 1e-10

#: state-vector norm tolerance
NORM_TOL = 1e-10

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
        """z * 2**k on both parts; OutOfRange if a part leaves the float range, as only _solve2's solution can."""
        try:
            return math.ldexp(z[0], k), math.ldexp(z[1], k)
        except OverflowError:
            raise OutOfRange(f"a component of the solution exceeds the float range: {complex(*z)!r} * 2**{k}") from None

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

    #: whether the one system's mask is set; a guard that fails builds its error here, on floats
    any = fails = staticmethod(bool)

    @staticmethod
    def pack(re, im):
        return complex(re, im)


def _parts_of(x):
    """The primitives for a part: _FloatParts for a Python float, else _arrays._StackParts."""
    if isinstance(x, float):
        return _FloatParts
    from ._arrays import _StackParts

    return _StackParts


def _solve2(a00, a01, a10, a11, b0, b1):
    """Cramer's rule on (re, im) pairs, for one system or a stack; see solve2.

    The rescaling applies to each system on its own, so a system gets the
    same result alone as anywhere in a stack. On a stack a guard only
    detects a failure; _arrays.solve2 finds the error to raise.
    """
    ops = _parts_of(a00[0])
    m_parts = (*a00, *a01, *a10, *a11)
    if ops.fails(ops.nonfinite(*m_parts, *b0, *b1)):
        raise OutOfRange("non-finite entries in linear system")
    # a modulus beyond the float range reads inf, which only the rescaled
    # path can cope with
    scale = ops.max(ops.mod(a00), ops.mod(a01), ops.mod(a10), ops.mod(a11))
    rhs_scale = ops.max(ops.mod(b0), ops.mod(b1))
    lo, hi = _SOLVE2_SAFE_LO, _SOLVE2_SAFE_HI
    outside = (scale <= lo) | (scale >= hi) | ((rhs_scale != 0.0) & ((rhs_scale <= lo) | (rhs_scale >= hi)))
    ea = eb = 0
    if ops.any(outside):
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
    if ops.fails(det_mod <= SOLVE2_EPS * scale * scale):
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
        If the shapes are wrong.
    OutOfRange
        If an entry is not finite, or a component of the solution
        exceeds the float range.
    SingularSystem
        If |det m| <= 1e-12 * max|m_ij|^2, i.e. the system is singular
        relative to the scale of its entries.
    """
    from . import _arrays

    return _arrays.solve2(m, rhs)


@dataclass(frozen=True)
class HermEig4:
    """Eigendecomposition of a 4x4 Hermitian matrix, or of a stack of them.

    values are ascending and real; vectors[..., :, k] is the unit
    eigenvector for values[..., k]. For one (4, 4) matrix values has shape
    (4,) and vectors (4, 4); for a stack of n they gain a leading axis.
    """

    values: np.ndarray
    vectors: np.ndarray


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

    Raises ValueError for a shape other than (4, 4) or (n, 4, 4),
    OutOfRange for an entry that is not finite, NotHermitian if any input
    matrix fails the Hermiticity check, and OutOfRange if an eigenvalue
    exceeds the float range.
    """
    from . import _arrays

    return _arrays.eig_hermitian4(h)


def propagate(h, t, psi0) -> np.ndarray:
    """Evolve psi0 under exp(-i h t) via the eigendecomposition of h.

    h must be Hermitian (4x4) and psi0 a unit vector; t is a real time in
    the inverse units of h, giving one state of shape (4,), or a 1-d
    array of times, giving one state per row from a single
    eigendecomposition.
    """
    from . import _arrays

    return _arrays.propagate(h, t, psi0)
