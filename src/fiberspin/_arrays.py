"""The numpy side of numerics and network: everything they do on arrays.

numerics and network compute one system or parameter set on Python
floats and never import numpy. Their stack paths, and the public array
routines solve2, eig_hermitian4 and propagate, import this module where
they first need it (numerics._parts_of on a part that is not a float,
the three public routines, and network's stack branches), so numpy
loads with it, once, and never for a float-only run. The public routines
and their docstrings stay in numerics; their bodies are here. first_alone
is the one place that makes a stack raise what its first failing member
raises alone; a stack guard, _StackParts.fails, only detects a failure.
Every refusal a member can raise is a FiberspinError, so first_alone
replays the members on that or a tripped guard only, and any other
exception from a stack is a bug that propagates as it is.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import numerics
from .errors import FiberspinError, NotHermitian, NotNormalized, OutOfRange
from .numerics import HERMITIAN_TOL, NORM_TOL, HermEig4, _solve2, _split

_JACOBI_MAX_SWEEPS = 30
_JACOBI_OFF_TOL = 1e-14

# fixed upper-triangle visit order for the cyclic sweeps
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class _StackFailed(Exception):
    """A stack guard tripped; first_alone finds the member whose error to raise."""


def first_alone(compute, member, n: int):
    """compute() on a stack of n members; if that fails, member(0), member(1), ... alone until one raises."""
    try:
        # one member on floats overflows silently, and the guards refuse what overflowed
        with np.errstate(all="ignore"):
            return compute()
    except (FiberspinError, _StackFailed) as exc:
        for i in range(n):
            member(i)
        raise RuntimeError(f"a stack of {n} failed but no member fails alone: they disagree on bits") from exc


class _StackParts:
    """The primitives of the parts core on float64 arrays: each element gets _FloatParts' bits."""

    @staticmethod
    def quot(a, b):
        # _Py_c_quot's two branches, each over the whole stack; a system
        # takes the branch CPython takes for it, and the other one may
        # divide by zero or overflow unseen
        (ar, ai), (br, bi) = a, b
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
        return np.hypot(*z)

    @staticmethod
    def square(x):
        # libm's pow, which float ** calls; x * x rounds differently for some x
        return np.float_power(x, 2.0)

    @staticmethod
    def ldexp(z, k):
        out = np.ldexp(z[0], k), np.ldexp(z[1], k)
        # a finite part that leaves the float range, where _FloatParts.ldexp raises OutOfRange
        _StackParts.fails(np.isinf(out) & np.isfinite(z))
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

    any = staticmethod(np.any)

    @staticmethod
    def fails(mask):
        """_StackFailed if any member's guard mask is set; else None, and the guard passes."""
        if mask.any():
            raise _StackFailed

    @staticmethod
    def pack(re, im):
        z = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
        z.real, z.imag = re, im
        return z


def solve2(m, rhs) -> np.ndarray:
    """numerics.solve2: one (2, 2) system through the float core, or a stack on arrays."""
    a = np.asarray(m, dtype=np.complex128)
    b = np.asarray(rhs, dtype=np.complex128)
    if a.shape == (2, 2) and b.shape == (2,):
        x0, x1 = _solve2(*map(_split, a.ravel().tolist()), *map(_split, b.tolist()))
        return np.array([complex(*x0), complex(*x1)])
    if a.ndim != 3 or a.shape[1:] != (2, 2) or b.shape != (len(a), 2):
        raise ValueError(f"expected shapes (2,2) and (2,) or (n,2,2) and (n,2), got {a.shape} and {b.shape}")
    parts = [_split(a[:, i, j]) for i in (0, 1) for j in (0, 1)] + [_split(b[:, 0]), _split(b[:, 1])]
    x0, x1 = first_alone(lambda: _solve2(*parts), lambda i: solve2(a[i], b[i]), len(a))
    return np.stack((_StackParts.pack(*x0), _StackParts.pack(*x1)), axis=1)


def stack_system(m, rhs):
    """A stack of 2x2 systems given as (re, im) parts, as solve2's (n, 2, 2) and (n, 2) arrays."""
    a = np.empty((len(m[0][0]), 6), dtype=np.complex128)
    for k, (re, im) in enumerate((*m, *rhs)):
        a.real[:, k], a.imag[:, k] = re, im
    return a[:, :4].reshape(-1, 2, 2), a[:, 4:]


def network_fields(names, raw) -> list[np.ndarray]:
    """NetworkParams' fields as equal-length 1-d arrays, scalars broadcast.

    drive is complex128 and every other field float64.
    """
    arrays = [np.asarray(v) for v in raw]
    if any(a.ndim > 1 for a in arrays):
        raise ValueError("network parameters must be scalars or 1-d arrays")
    return [
        np.array(a, dtype=np.complex128 if name == "drive" else np.float64)
        for name, a in zip(names, np.broadcast_arrays(*arrays))
    ]


def _check_hermitian(h) -> np.ndarray:
    a = np.asarray(h, dtype=np.complex128)
    if a.shape[-2:] != (4, 4) or a.ndim not in (2, 3):
        raise ValueError(f"expected shape (4, 4) or (n, 4, 4), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise OutOfRange("non-finite matrix entries")
    # relative to the largest entry of each matrix at every scale, so a
    # matrix of small entries gets no absolute allowance and the zero
    # matrix must be exact
    scale = np.max(np.abs(a), axis=(-2, -1))
    defect = np.max(np.abs(a - np.swapaxes(a, -2, -1).conj()), axis=(-2, -1))
    if np.any(defect > HERMITIAN_TOL * scale):
        raise NotHermitian(f"max |h - h^dagger| exceeds {HERMITIAN_TOL:.0e} * max |h_ij|")
    return a


# for each pair (p, q): the slice picking lines p and q, and the
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
    """numerics.eig_hermitian4: cyclic complex Jacobi sweeps on the whole stack at once."""
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
        raise OutOfRange("an eigenvalue exceeds the float range")
    vectors = np.empty((n, 4, 4), dtype=np.complex128)
    vectors.real = np.take_along_axis(done[0, 4:].transpose(2, 0, 1), order[:, None, :], axis=2)
    vectors.imag = np.take_along_axis(done[1, 4:].transpose(2, 0, 1), order[:, None, :], axis=2)
    if single:
        return HermEig4(values=values[0], vectors=vectors[0])
    return HermEig4(values=values, vectors=vectors)


def propagate(h, t, psi0) -> np.ndarray:
    """numerics.propagate.

    The eigendecomposition is looked up on numerics at call time, so a
    wrapper bound there in place of eig_hermitian4 sees this call.
    """
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1:
        raise ValueError(f"expected a time or a 1-d array of times, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise OutOfRange("time must be finite")
    psi = np.asarray(psi0, dtype=np.complex128)
    if psi.shape != (4,):
        raise ValueError(f"expected state shape (4,), got {psi.shape}")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"|psi| = {nrm!r} differs from 1 beyond {NORM_TOL:.0e}")
    eig = numerics.eig_hermitian4(h)
    energies = eig.values.tolist()
    phases = np.array([[cmath.exp(-1j * w * tau) for w in energies] for tau in times.reshape(-1).tolist()])
    states = (phases * (eig.vectors.conj().T @ psi)) @ eig.vectors.T
    return states[0] if times.ndim == 0 else states
