"""Back-of-envelope experimental estimates for the cavity-fiber setup.

Converts Raman drive parameters into the dispersive shift chi, photon
number into a coupling estimate J ~ chi^2*nbar/(2*gamma), and fiber
attenuation in dB/km into the dimensionless loss exponent gamma_f.

Two dB conventions are implemented side by side because attenuation
figures are ambiguous about what the decibels act on: POWER reads the
dB value as a power ratio (exp(-gamma_f) is then the power
transmission), AMPLITUDE reads it as a field-amplitude ratio and yields
half the exponent. lossy_coupling_report likewise returns J attenuated
by both exp(-gamma_f) and exp(-2*gamma_f) rather than picking one,
since the right power of the per-traversal factor depends on how many
fiber passes the coupling inherits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NegativeLoss, NonpositiveGamma, OutOfRange, ZeroDetuning

TWOPI = 2.0 * math.pi


class LossConvention(enum.Enum):
    """How a dB/km figure maps to the exponent: on power or on amplitude."""

    POWER = "power"
    AMPLITUDE = "amplitude"


@dataclass(frozen=True)
class RamanParams:
    """Raman-scheme drive parameters, rates in one angular-frequency unit.

    g is the single-photon coupling, omega the classical drive, delta_a
    the atomic detuning (sign allowed, never zero), gamma the cavity
    decay, nbar the mean photon number of the driven cavity.
    """

    g: float
    omega: float
    delta_a: float
    gamma: float
    nbar: float

    def __post_init__(self):
        vals = (self.g, self.omega, self.delta_a, self.gamma, self.nbar)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("non-finite Raman parameter")
        if self.delta_a == 0.0:
            raise ZeroDetuning("delta_a = 0 makes the effective shift diverge")
        if self.gamma <= 0.0:
            raise NonpositiveGamma(f"cavity decay must be > 0, got {self.gamma!r}")
        if self.nbar < 0.0:
            raise ValueError(f"photon number must be >= 0, got {self.nbar!r}")


@dataclass(frozen=True)
class FiberLossSpec:
    """Fiber attenuation figure: dB per km, length, and an explicit convention."""

    db_per_km: float
    length_km: float
    convention: LossConvention

    def __post_init__(self):
        if not (math.isfinite(self.db_per_km) and math.isfinite(self.length_km)):
            raise ValueError("non-finite fiber loss field")
        if self.db_per_km < 0.0 or self.length_km < 0.0:
            raise NegativeLoss("attenuation and length must be >= 0")
        if not isinstance(self.convention, LossConvention):
            raise ValueError(f"convention must be a LossConvention, got {self.convention!r}")


class LossyCoupling(NamedTuple):
    """J attenuated by one or two loss factors; both kept deliberately."""

    single: float
    squared: float


def chi_from_raman(p: RamanParams) -> tuple[float, float]:
    """Dispersive shift magnitude |g*omega/delta_a| and its sign.

    Returns (magnitude, sign) with sign in {-1.0, 0.0, +1.0}; the sign
    is reported separately because only |chi| enters the coupling
    estimates while the sign sets the direction of the level shifts.
    """
    raw = p.g * p.omega / p.delta_a
    if raw == 0.0:
        return 0.0, 0.0
    return abs(raw), math.copysign(1.0, raw)


def j_estimate(chi: float, nbar: float, gamma: float) -> float:
    """Order-of-magnitude Ising strength chi^2*nbar/(2*gamma)."""
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise NonpositiveGamma(f"cavity decay must be > 0, got {gamma!r}")
    if not (math.isfinite(chi) and math.isfinite(nbar)):
        raise ValueError("non-finite estimate input")
    return chi * chi * nbar / (2.0 * gamma)


def gamma_f_from_db(spec: FiberLossSpec) -> float:
    """Loss exponent from a dB/km attenuation figure.

    POWER: gamma_f = db_per_km*length_km*ln(10)/10, the exponent for
    which exp(-gamma_f) is the optical power transmission.
    AMPLITUDE: half that, so exp(-gamma_f) is the field-amplitude
    transmission for the same dB figure.
    """
    base = spec.db_per_km * spec.length_km * math.log(10.0) / 10.0
    if math.isinf(base):
        raise OutOfRange(f"loss exponent of {spec.db_per_km!r} dB/km over {spec.length_km!r} km overflows")
    if spec.convention is LossConvention.POWER:
        return base
    return 0.5 * base


def lossy_coupling_report(j: float, gamma_f: float) -> LossyCoupling:
    """J under both attenuation conventions: one factor and two factors of e^{-gamma_f}."""
    if not math.isfinite(gamma_f):
        raise OutOfRange(f"loss exponent must be finite, got {gamma_f!r}")
    if gamma_f < 0.0:
        raise NegativeLoss(f"loss exponent must be >= 0, got {gamma_f!r}")
    if not math.isfinite(j):
        raise ValueError("non-finite coupling")
    return LossyCoupling(single=j * math.exp(-gamma_f), squared=j * math.exp(-2.0 * gamma_f))


#: canned parameter set for the feasibility report: g, omega, delta_a of
#: 2*pi*(2.5, 8, -20) MHz, cavity decay opened five-fold to 2*pi*6.25 MHz,
#: and a hundred photons in the driven cavity
RAMAN_PRESET = RamanParams(
    g=TWOPI * 2.5,
    omega=TWOPI * 8.0,
    delta_a=-TWOPI * 20.0,
    gamma=TWOPI * 6.25,
    nbar=100.0,
)

#: telecom-grade fiber attenuation over one kilometer, power convention
FIBER_PRESET = FiberLossSpec(db_per_km=0.35, length_km=1.0, convention=LossConvention.POWER)
