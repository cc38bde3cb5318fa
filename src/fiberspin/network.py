"""Driven cavity pair linked by an optical fiber, and the spin coupling it engineers.

Two single-mode cavities sit at the ends of a fiber loop; each one holds
a two-level atom coupled dispersively (energy shift per photon, no
excitation exchange). Cavity 1 is driven. Light leaks through the fiber
in both directions, picking up a propagation phase each way and, for a
lossy fiber, an amplitude factor exp(-gamma_f) per traversal.

The mean intracavity fields reach a steady state whose denominator can
collapse when the detuning vanishes while the round-trip phase returns
to a multiple of 2*pi: the drive then recycles resonantly and the fields
have no finite solution. Away from that singularity, eliminating the
fast field fluctuations around the steady values leaves an effective
Ising interaction 2*J*sz1*sz2 between the atoms plus local frequency
shifts. This module computes the steady fields, the elimination
coefficients, and J itself, twice: once from closed forms and once from
a sign-toggling oracle that never touches those forms, so the two
routes audit each other.

The closed-form J has two contributions (one per fiber direction),

    J = gamma*chi^2*(theta1 + theta2),

which coincide only on the symmetric manifold
phi12 + phi21 = 2*atan2(delta, gamma) with a lossless fiber. The
single-theta shortcut gamma*chi^2*theta1 is reported alongside for
comparison; off the manifold it is not the coupling that the
elimination actually produces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import NegativeLoss, ResonantRecycling
from .numerics import solve2

TWOPI = 2.0 * math.pi

#: relative floor for |D| below which the steady state is refused
EPS_SINGULAR = 1e-9


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of the fiber-linked cavity pair.

    All rates (gamma, delta, chi, drive) share one unit system, named by
    the units tag; the physics only depends on their ratios. Phases are
    stored reduced to [0, 2*pi). gamma_f is the dimensionless amplitude
    loss exponent per fiber traversal.
    """

    gamma: float
    delta: float
    chi: float
    drive: complex
    phi12: float
    phi21: float
    gamma_f: float = 0.0
    units: str = "arb"

    def __post_init__(self):
        vals = (self.gamma, self.delta, self.chi, self.phi12, self.phi21, self.gamma_f)
        if not all(math.isfinite(v) for v in vals) or not cmath.isfinite(self.drive):
            raise ValueError("non-finite network parameter")
        if self.gamma < 0.0:
            raise ValueError(f"cavity decay rate must be >= 0, got {self.gamma!r}")
        if self.gamma_f < 0.0:
            raise NegativeLoss(f"fiber loss exponent must be >= 0, got {self.gamma_f!r}")
        object.__setattr__(self, "drive", complex(self.drive))
        object.__setattr__(self, "phi12", self.phi12 % TWOPI)
        object.__setattr__(self, "phi21", self.phi21 % TWOPI)


@dataclass(frozen=True)
class SteadyFields:
    """Steady intracavity amplitudes; zero whenever the drive is zero."""

    alpha: complex
    beta: complex


@dataclass(frozen=True)
class FluctuationCoefficients:
    """Steady fluctuation decomposition a = c_a1*sz1 + c_a2*sz2, b = c_b1*sz1 + c_b2*sz2."""

    c_a1: complex
    c_a2: complex
    c_b1: complex
    c_b2: complex


@dataclass(frozen=True)
class CouplingResult:
    """Effective Ising strength with its audit trail.

    j_oracle comes from the four-sign elimination oracle, j_closed from
    gamma*chi^2*(theta1+theta2); the two agree to 1e-10 relative by
    construction of the derivation. j_single keeps the one-directional
    shortcut gamma*chi^2*theta1 for comparison. local1/local2 are the
    per-atom frequency shifts chi*|alpha|^2 and chi*|beta|^2 that a
    detuning choice is assumed to cancel.
    """

    j_oracle: float
    theta1: float
    theta2: float
    j_closed: float
    j_single: float
    local1: float
    local2: float


def _mu(p: NetworkParams) -> complex:
    # complex cavity response gamma + i*delta
    return complex(p.gamma, p.delta)


def _hop12(p: NetworkParams) -> complex:
    # fiber transfer factor for the 1 -> 2 direction
    return cmath.exp(complex(-p.gamma_f, p.phi12))


def _hop21(p: NetworkParams) -> complex:
    return cmath.exp(complex(-p.gamma_f, p.phi21))


def denominator(p: NetworkParams) -> complex:
    """Steady-state denominator D = (gamma+i*delta)^2 - gamma^2*exp(i(phi12+phi21) - 2*gamma_f)."""
    mu = _mu(p)
    return mu * mu - p.gamma * p.gamma * cmath.exp(complex(-2.0 * p.gamma_f, p.phi12 + p.phi21))


def steady_fields(p: NetworkParams) -> SteadyFields:
    """Steady intracavity amplitudes of the driven pair.

    alpha = drive*(gamma+i*delta)/D for the driven cavity and
    beta = gamma*alpha*exp(i*phi21 - gamma_f)/(gamma+i*delta) for the
    far one.

    Raises ResonantRecycling when |D| <= 1e-9*(gamma^2+delta^2), the
    neighborhood of the recycling resonance where the fields diverge.
    """
    d = denominator(p)
    mu = _mu(p)
    scale = p.gamma * p.gamma + p.delta * p.delta
    if abs(d) <= EPS_SINGULAR * scale:
        raise ResonantRecycling(
            f"steady-state denominator |D| = {abs(d):.3e} <= {EPS_SINGULAR:.0e}*(gamma^2+delta^2)"
            f" = {EPS_SINGULAR * scale:.3e}; drive recycles resonantly as delta -> 0 with"
            f" phi12+phi21 -> 0 (mod 2*pi)"
        )
    alpha = p.drive * mu / d
    beta = p.gamma * alpha * _hop21(p) / mu
    return SteadyFields(alpha=alpha, beta=beta)


def validate_regime(p: NetworkParams, s: SteadyFields) -> list[str]:
    """Diagnostics for the elimination regime 1 << gamma/chi << |alpha|.

    Returns warning strings (empty list when comfortably inside the
    regime); never raises. Each string names the violated inequality.
    """
    notes: list[str] = []
    if p.chi == 0.0:
        return notes
    ratio = p.gamma / p.chi
    mod_alpha = abs(s.alpha)
    if ratio <= 5.0:
        notes.append(
            f"gamma/chi = {ratio:.4g} not >> 1: field relaxation is not fast against the shift"
        )
    if mod_alpha <= 2.0 * ratio:
        notes.append(
            f"|alpha| = {mod_alpha:.4g} not >> gamma/chi = {ratio:.4g}: noise terms are not negligible"
        )
    if p.gamma <= p.chi:
        notes.append(f"gamma = {p.gamma:.4g} <= chi = {p.chi:.4g}: dispersive hierarchy inverted")
    return notes


def _system_matrix(p: NetworkParams) -> list[list[complex]]:
    mu = _mu(p)
    return [[mu, -p.gamma * _hop12(p)], [-p.gamma * _hop21(p), mu]]


def fluctuation_coefficients(p: NetworkParams, s: SteadyFields) -> FluctuationCoefficients:
    """Linear-response coefficients of the field fluctuations to each atom.

    Solves the steady linear system

        (gamma+i*delta)*a - gamma*e^{i*phi12-gamma_f}*b = -i*chi*alpha*sz1
        -gamma*e^{i*phi21-gamma_f}*a + (gamma+i*delta)*b = -i*chi*beta*sz2

    for unit source vectors sz1 = 1 and sz2 = 1 via solve2, giving the
    decomposition a = c_a1*sz1 + c_a2*sz2, b = c_b1*sz1 + c_b2*sz2.
    """
    m = _system_matrix(p)
    src1 = (-1j * p.chi * s.alpha, 0.0)
    src2 = (0.0, -1j * p.chi * s.beta)
    a1, b1 = solve2(m, src1)
    a2, b2 = solve2(m, src2)
    return FluctuationCoefficients(c_a1=complex(a1), c_a2=complex(a2), c_b1=complex(b1), c_b2=complex(b2))


def fluctuation_coefficients_closed(p: NetworkParams, s: SteadyFields) -> FluctuationCoefficients:
    """Closed forms of the same coefficients, kept separate for cross-audit.

    c_a1 = -i*chi*alpha*(gamma+i*delta)/D     c_a2 = -i*chi*beta*gamma*e^{i*phi12-gamma_f}/D
    c_b1 = -i*chi*alpha*gamma*e^{i*phi21-gamma_f}/D   c_b2 = -i*chi*beta*(gamma+i*delta)/D
    """
    d = denominator(p)
    mu = _mu(p)
    ka = -1j * p.chi * s.alpha
    kb = -1j * p.chi * s.beta
    return FluctuationCoefficients(
        c_a1=ka * mu / d,
        c_a2=kb * p.gamma * _hop12(p) / d,
        c_b1=ka * p.gamma * _hop21(p) / d,
        c_b2=kb * mu / d,
    )


def theta_variants(p: NetworkParams, s: SteadyFields) -> tuple[float, float]:
    """The two directional contributions to the Ising strength.

    theta1 = Im{conj(alpha)*beta*e^{i*phi12-gamma_f}/D} and
    theta2 = Im{alpha*conj(beta)*e^{i*phi21-gamma_f}/D}. No equality
    between them is assumed; they coincide only on the symmetric
    manifold (see module docstring).
    """
    d = denominator(p)
    t1 = (s.alpha.conjugate() * s.beta * _hop12(p) / d).imag
    t2 = (s.alpha * s.beta.conjugate() * _hop21(p) / d).imag
    return t1, t2


def coupling(p: NetworkParams) -> CouplingResult:
    """Effective Ising strength J, from the elimination oracle and from closed forms.

    The oracle knows nothing of the theta formulas: for each of the four
    sign assignments (z1, z2) in {-1, +1}^2 it solves the fluctuation
    system with sources -i*chi*alpha*z1, -i*chi*beta*z2, forms the
    mean-field interaction energy

        E(z1, z2) = 2*chi*Re(conj(alpha)*a)*z1 + 2*chi*Re(conj(beta)*b)*z2,

    and extracts the z1*z2 component by the four-point mixed difference
    [E(+,+) - E(+,-) - E(-,+) + E(-,-)]/8. That is j_oracle; the closed
    forms fill the rest of the result.
    """
    s = steady_fields(p)
    m = _system_matrix(p)
    ka = -1j * p.chi * s.alpha
    kb = -1j * p.chi * s.beta
    energies = {}
    for z1 in (1.0, -1.0):
        for z2 in (1.0, -1.0):
            a, b = solve2(m, (ka * z1, kb * z2)).tolist()
            energies[(z1, z2)] = 2.0 * p.chi * (
                (s.alpha.conjugate() * a).real * z1 + (s.beta.conjugate() * b).real * z2
            )
    j_oracle = (
        energies[(1.0, 1.0)]
        - energies[(1.0, -1.0)]
        - energies[(-1.0, 1.0)]
        + energies[(-1.0, -1.0)]
    ) / 8.0
    t1, t2 = theta_variants(p, s)
    gc2 = p.gamma * p.chi * p.chi
    return CouplingResult(
        j_oracle=j_oracle,
        theta1=t1,
        theta2=t2,
        j_closed=gc2 * (t1 + t2),
        j_single=gc2 * t1,
        local1=p.chi * abs(s.alpha) ** 2,
        local2=p.chi * abs(s.beta) ** 2,
    )


def apply_fiber_loss(p: NetworkParams, gamma_f: float) -> NetworkParams:
    """Return params with the per-traversal loss exponent replaced.

    Every fiber factor e^{i*phi} downstream becomes e^{i*phi - gamma_f},
    including inside the steady-state denominator.
    """
    if not math.isfinite(gamma_f) or gamma_f < 0.0:
        raise NegativeLoss(f"fiber loss exponent must be >= 0, got {gamma_f!r}")
    return replace(p, gamma_f=gamma_f)


def coupling_largedelta_lossy(j_lossless: float, gamma_f: float) -> float:
    """Far-detuned limit of the lossy coupling: J attenuates by exp(-2*gamma_f).

    One factor of e^{-gamma_f} per fiber direction; valid when the
    detuning dominates the cavity decay (delta >> gamma).
    """
    if not math.isfinite(gamma_f) or gamma_f < 0.0:
        raise NegativeLoss(f"fiber loss exponent must be >= 0, got {gamma_f!r}")
    return j_lossless * math.exp(-2.0 * gamma_f)


def symmetric_phase_sum(gamma: float, delta: float) -> float:
    """Round-trip phase for which the two theta contributions coincide (lossless fiber)."""
    return (2.0 * math.atan2(delta, gamma)) % TWOPI
