"""Two spins in a transverse field with an Ising coupling, solved in closed form.

H = B*(sx1 + sx2) + 2*J*sz1*sz2 acting on two two-level atoms. The
shared basis convention for every module in this package:

    index 0 |ee>, 1 |eg>, 2 |ge>, 3 |gg>, with sz|e> = +|e>, sz|g> = -|g>.

For J > 0 the spectrum is (-2*sqrt(B^2+J^2), -2J, +2J, +2*sqrt(B^2+J^2))
and the eigenvectors have closed forms in the single ratio eta = B/J.
Starting from |gg> the dynamics involves only three of them (the singlet
component is absent by symmetry), which is what evolve_analytic sums.

Time enters through the dimensionless tau = J*t; the two active phase
frequencies 2 and 2*sqrt(1+eta^2) are incommensurable for generic eta,
so the evolution never repeats exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateEta, OutOfRange
from .numerics import HermEig4

BASIS_LABELS = ("ee", "eg", "ge", "gg")
EE, EG, GE, GG = 0, 1, 2, 3

#: diagonal of sz for atom 1 and atom 2 in basis order
SZ1_DIAG = (1.0, 1.0, -1.0, -1.0)
SZ2_DIAG = (1.0, -1.0, 1.0, -1.0)

_CONSISTENCY_TOL = 1e-12
_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SpinParams:
    """Ising strength j, transverse field b, and their ratio eta = b/j.

    eta may be omitted; it is derived from b/j when j is nonzero and
    left None for the pure transverse-field case j = 0. When supplied
    explicitly it must satisfy eta*j = b to 1e-12 relative.
    """

    j: float
    b: float
    eta: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.j) and math.isfinite(self.b)):
            raise OutOfRange("non-finite spin parameter")
        if self.eta is None:
            if self.j != 0.0:
                object.__setattr__(self, "eta", self.b / self.j)
            return
        if not math.isfinite(self.eta):
            raise OutOfRange("non-finite eta")
        if self.j == 0.0:
            raise OutOfRange("eta is meaningless with j = 0; omit it")
        prod = self.eta * self.j
        if abs(prod - self.b) > _CONSISTENCY_TOL * max(abs(prod), abs(self.b)):
            raise OutOfRange(f"eta*j = {prod!r} inconsistent with b = {self.b!r}")

    @classmethod
    def from_eta(cls, eta: float, j: float = 1.0) -> "SpinParams":
        return cls(j=j, b=eta * j, eta=eta)


@dataclass(frozen=True)
class AnalyticEigensystem:
    """Closed-form eigenpairs: states[k] is the k-th eigenvector, ascending energies."""

    states: np.ndarray
    energies: np.ndarray


def build_hamiltonian(sp: SpinParams) -> np.ndarray:
    """4x4 Hermitian matrix of B*(sx1+sx2) + 2*J*sz1*sz2 in basis order."""
    h = np.zeros((4, 4), dtype=np.complex128)
    for i in range(4):
        h[i, i] = 2.0 * sp.j * SZ1_DIAG[i] * SZ2_DIAG[i]
    # sx flips one atom: each state couples to its two single-flip neighbors
    for i, k in ((EE, EG), (EE, GE), (EG, GG), (GE, GG)):
        h[i, k] = sp.b
        h[k, i] = sp.b
    return h


class EtaConstants(NamedTuple):
    """The eta-dependent radicals and eigenvector components, derived once.

    s = sqrt(1+eta^2) and m = s - 1; r1 = s*(1+s) is the squared norm of
    the first mixing eigenvector before normalization, and root1 = sqrt(r1).
    The mixing eigenvectors are (p1, q1, q1, p1) at energy -2*J*s and
    (p4, q4, q4, p4) at +2*J*s.
    """

    s: float
    m: float
    root1: float
    p1: float
    q1: float
    p4: float
    q4: float


def eta_constants(eta: float) -> EtaConstants:
    """EtaConstants for a finite nonzero eta; every field is finite for every such float.

    m is formed as eta*(eta/(1+s)), since s - 1 cancels catastrophically
    at small eta. Nothing squares eta or multiplies two quantities of its
    size: s comes from hypot, root1 is a product of square roots and each
    halving comes last, so neither a huge nor a tiny eta overflows or
    divides by zero. p4 and q4 use the closed forms
    sign(eta)*sqrt((1+s)/s)/2 and |eta|/root1/2, which divide by no
    eta-sized quantity, so a subnormal eta cannot round them away.
    """
    a = abs(eta)
    s = math.hypot(1.0, eta)
    m = a * (a / (1.0 + s))
    root1 = math.sqrt(s) * math.sqrt(1.0 + s)
    return EtaConstants(
        s=s,
        m=m,
        root1=root1,
        p1=eta / root1 / 2.0,
        q1=-(1.0 + s) / root1 / 2.0,
        p4=math.copysign(math.sqrt((1.0 + s) / s), eta) / 2.0,
        q4=a / root1 / 2.0,
    )


def analytic_eigensystem(sp: SpinParams) -> AnalyticEigensystem:
    """Closed-form eigenvectors and energies for j > 0, eta != 0.

    states[0] and states[3] mix |ee>+|gg> with |eg>+|ge>; states[1] is
    the singlet (|eg>-|ge>)/sqrt(2) at energy -2J and states[2] is
    (|gg>-|ee>)/sqrt(2) at +2J. A negative coupling maps onto this form
    by relabeling one atom's basis, so it is not handled here.

    Raises DegenerateEta at eta = 0 where the normalizations collapse.
    """
    if sp.eta is None or sp.eta == 0.0:
        raise DegenerateEta("eigenvector normalizations divide by eta-dependent radicals")
    if sp.j <= 0.0:
        raise OutOfRange(f"closed-form eigensystem requires j > 0, got {sp.j!r}")
    k = eta_constants(sp.eta)
    p1, q1, p4, q4, s = k.p1, k.q1, k.p4, k.q4, k.s
    states = np.array(
        [
            [p1, q1, q1, p1],
            [0.0, _SQRT_HALF, -_SQRT_HALF, 0.0],
            [-_SQRT_HALF, 0.0, 0.0, _SQRT_HALF],
            [p4, q4, q4, p4],
        ],
        dtype=np.complex128,
    )
    energies = np.array([-2.0 * sp.j * s, -2.0 * sp.j, 2.0 * sp.j, 2.0 * sp.j * s])
    return AnalyticEigensystem(states=states, energies=energies)


def numeric_eigensystem(sp: SpinParams) -> HermEig4:
    """Jacobi eigensolve of the built Hamiltonian; the cross-check route."""
    from .numerics import eig_hermitian4

    return eig_hermitian4(build_hamiltonian(sp))


def initial_coefficients(eta: float) -> tuple[float, float, float, float]:
    """Expansion of |gg> over the closed-form eigenvectors, for eta > 0.

    c2 vanishes identically (|gg> has no singlet component) and
    c1^2 + c3^2 + c4^2 = 1. Each ck equals the inner product
    <psi_k|gg>.
    """
    _require_positive_eta(eta)
    k = eta_constants(eta)
    # grouped so that no intermediate overflows or underflows: m, 1+s and
    # root1 grow like eta when it is large, and m shrinks with it
    c1 = k.m / eta * (k.root1 / k.s) / 2.0
    c3 = _SQRT_HALF
    c4 = (1.0 + k.s) / k.root1 / 2.0
    return c1, 0.0, c3, c4


def evolve_analytic(eta: float, tau: float) -> np.ndarray:
    """State at scaled time tau starting from |gg>, in closed form.

    Sums c_k * exp(-i*E_k*tau/J) * psi_k over the three populated
    eigenvectors; the exp(-2i*tau) phase rides on the (|gg>-|ee>)
    combination. Unit norm within 1e-10 for any finite tau.
    """
    _require_positive_eta(eta)
    if not math.isfinite(tau):
        raise OutOfRange("tau must be finite")
    es = analytic_eigensystem(SpinParams.from_eta(eta))
    c1, _, c3, c4 = initial_coefficients(eta)
    s = eta_constants(eta).s
    return (
        c1 * cmath.exp(2j * s * tau) * es.states[0]
        + c3 * cmath.exp(-2j * tau) * es.states[2]
        + c4 * cmath.exp(-2j * s * tau) * es.states[3]
    )


def scaled_time(t: float, j: float) -> float:
    """Dimensionless time tau = j*t."""
    return j * t


def _require_positive_eta(eta: float) -> None:
    if not isinstance(eta, (int, float)) or not math.isfinite(eta):
        raise OutOfRange(f"eta must be a finite real, got {eta!r}")
    if eta <= 0.0:
        raise DegenerateEta(f"eta must be > 0, got {eta!r}")
