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
a linear-response oracle that solves the fluctuation equations and never
touches those forms, so the two routes audit each other.

The closed-form J has two contributions (one per fiber direction),

    J = gamma*chi^2*(theta1 + theta2),

which coincide only on the symmetric manifold
phi12 + phi21 = 2*atan2(delta, gamma) with a lossless fiber. The
single-theta shortcut gamma*chi^2*theta1 is reported alongside for
comparison; off the manifold it is not the coupling that the
elimination actually produces.

NetworkParams holds one parameter set as floats or a stack of them as
equal-length 1-d arrays, and coupling, steady_fields, denominator,
theta_variants and fluctuation_coefficients take either. They compute on
the parts core of numerics: every complex product, quotient and
exponential is spelled out over (re, im) parts in CPython's own order,
so a set gets the same bits alone as at any position in a stack, and
the same bits as plain Python complex arithmetic. Float arithmetic
overflows to inf or NaN without raising, so steady_fields, coupling,
theta_variants and fluctuation_coefficients check what they take or
return, and D before the resonance test, and raise OutOfRange naming
the first part or field that is not finite. A stack raises the error
its first failing set would raise alone (_arrays.first_alone). A stack
costs a fixed number of numpy calls whatever its length, so a caller
with many sets should stack them rather than loop over them. One set
makes no numpy call; a stack's numpy work, as numerics', is in
fiberspin._arrays, which only a stack imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import NegativeLoss, OutOfRange, ResonantRecycling
from .numerics import _mul, _parts_of, _solve2, _split, _sub, solve2

TWOPI = 2.0 * math.pi

#: relative floor for |D| below which the steady state is refused
EPS_SINGULAR = 1e-9


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of the fiber-linked cavity pair, one set or a stack of them.

    All rates (gamma, delta, chi, drive) share one unit system; the
    physics only depends on their ratios. Phases are stored reduced to
    [0, 2*pi). gamma_f is the dimensionless amplitude loss exponent per
    fiber traversal.

    Scalars give one set, stored as floats and a complex drive. If any
    field is an array, list or tuple, the set is a stack: every field
    becomes a float64 (drive: complex128) array of one common length, a
    scalar field repeated over it. A stack compares field by field, not
    with ==. The checks apply to each set, and a stack raises the error
    its first failing set would raise alone.
    """

    gamma: float
    delta: float
    chi: float
    drive: complex
    phi12: float
    phi21: float
    gamma_f: float = 0.0

    def __post_init__(self):
        names = ("gamma", "delta", "chi", "drive", "phi12", "phi21", "gamma_f")
        raw = [getattr(self, name) for name in names]
        # an array of one or more dimensions has a nonzero ndim; a scalar, a
        # numpy scalar and a 0-d array give one set without importing numpy
        if any(isinstance(v, (list, tuple)) or getattr(v, "ndim", 0) for v in raw):
            from ._arrays import first_alone, network_fields

            values = network_fields(names, raw)
            first_alone(
                lambda: _check_set(values), lambda i: _check_set([v.item(i) for v in values]), len(values[0])
            )
        else:
            values = [complex(v) if name == "drive" else float(v) for name, v in zip(names, raw)]
            _check_set(values)
        values[4], values[5] = values[4] % TWOPI, values[5] % TWOPI
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)


def _check_set(values) -> None:
    """NetworkParams' checks on its field values in order, one set's floats or a stack's arrays."""
    gamma, delta, chi, drive, phi12, phi21, gamma_f = values
    ops = _parts_of(gamma)
    if ops.fails(ops.nonfinite(gamma, delta, chi, *_split(drive), phi12, phi21, gamma_f)):
        raise OutOfRange("non-finite network parameter")
    if ops.fails(gamma < 0.0):
        raise OutOfRange(f"cavity decay rate must be >= 0, got {gamma!r}")
    if ops.fails(gamma_f < 0.0):
        raise NegativeLoss(f"fiber loss exponent must be >= 0, got {gamma_f!r}")


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

    j_oracle comes from the linear-response elimination oracle (the z1*z2
    part of the mean-field energy, from solved fluctuation coefficients),
    j_closed from gamma*chi^2*(theta1+theta2); the two agree to 1e-10
    relative by construction of the derivation. j_single keeps the
    one-directional shortcut gamma*chi^2*theta1 for comparison.
    local1/local2 are the per-atom frequency shifts chi*|alpha|^2 and
    chi*|beta|^2 that a detuning choice is assumed to cancel.
    """

    j_oracle: float
    theta1: float
    theta2: float
    j_closed: float
    j_single: float
    local1: float
    local2: float


# The private helpers below take and return (re, im) parts: floats for one
# parameter set, float64 arrays for a stack. The public functions convert
# at their boundary.


def _hop12(p: NetworkParams):
    # fiber transfer factor exp(i*phi12 - gamma_f) for the 1 -> 2 direction
    return _parts_of(p.gamma).expcis(-p.gamma_f, p.phi12)


def _hop21(p: NetworkParams):
    return _parts_of(p.gamma).expcis(-p.gamma_f, p.phi21)


def _loop(p: NetworkParams):
    # round-trip factor exp(i(phi12+phi21) - 2*gamma_f)
    return _parts_of(p.gamma).expcis(-2.0 * p.gamma_f, p.phi12 + p.phi21)


def _denominator(gamma, delta, loop):
    """The parts of D for rates gamma and delta and the parts of the round-trip factor."""
    mu = (gamma, delta)
    return _sub(_mul(mu, mu), _mul((gamma * gamma, 0.0), loop))


def denominator(p: NetworkParams) -> complex:
    """Steady-state denominator D = (gamma+i*delta)^2 - gamma^2*exp(i(phi12+phi21) - 2*gamma_f).

    A complex for one parameter set, a complex array for a stack.
    """
    return _parts_of(p.gamma).pack(*_denominator(p.gamma, p.delta, _loop(p)))


def _one_set(x, i: int):
    """Set i of a stacked NetworkParams or SteadyFields x, its stored values unchanged.

    A field that is not an array is shared by every set. The constructor
    is bypassed: its phase reduction maps a stored phase that rounded up
    to 2*pi to 0, so it would not give back set i's bits.
    """
    one = object.__new__(type(x))
    for f in fields(x):
        v = getattr(x, f.name)
        object.__setattr__(one, f.name, v[i].item() if getattr(v, "ndim", 0) else v)
    return one


def _per_set(compute, p: NetworkParams, s: SteadyFields | None = None):
    """compute(p), or compute(p, s); a stack raises what its first failing set raises alone."""
    args = (p,) if s is None else (p, s)
    if isinstance(p.gamma, float):
        return compute(*args)
    from ._arrays import first_alone

    return first_alone(lambda: compute(*args), lambda i: compute(*(_one_set(x, i) for x in args)), len(p.gamma))


def _require_finite(ops, named) -> None:
    """Raise OutOfRange naming the first of the (name, value) pairs named whose value is not finite."""
    if ops.fails(ops.nonfinite(*(value for _, value in named))):
        name, value = next((name, value) for name, value in named if not math.isfinite(value))
        raise OutOfRange(f"{name} is not finite, got {value!r}")


def _parts_named(**pairs):
    """(name_re, re) and (name_im, im) for each (re, im) pair, in order, for _require_finite."""
    return [(f"{name}_{part}", z[k]) for name, z in pairs.items() for k, part in enumerate(("re", "im"))]


def steady_fields(p: NetworkParams) -> SteadyFields:
    """Steady intracavity amplitudes of the driven pair.

    alpha = drive*(gamma+i*delta)/D for the driven cavity and
    beta = gamma*alpha*exp(i*phi21 - gamma_f)/(gamma+i*delta) for the
    far one.

    Raises OutOfRange when a part of D or gamma^2+delta^2 leaves the
    float range, ResonantRecycling when |D| <= 1e-9*(gamma^2+delta^2), the
    neighborhood of the recycling resonance where the fields diverge,
    decided on power-of-two-scaled rates so that an underflow does not
    read as it, OutOfRange when D underflows to 0 off the resonance, and
    OutOfRange when a part of alpha or beta leaves the float range.
    """
    return _per_set(_steady_fields, p)


def _steady_fields(p: NetworkParams) -> SteadyFields:
    ops = _parts_of(p.gamma)
    alpha, beta = _steady(p, _split(denominator(p)), _hop21(p))
    return SteadyFields(alpha=ops.pack(*alpha), beta=ops.pack(*beta))


def _steady(p: NetworkParams, d, hop21):
    """(alpha, beta) of steady_fields, given the parts of D and of the 2 -> 1 fiber factor."""
    ops = _parts_of(p.gamma)
    mu = (p.gamma, p.delta)
    _require_off_resonance(p, d)
    alpha = ops.quot(_mul(_split(p.drive), mu), d)
    beta = ops.quot(_mul(_mul((p.gamma, 0.0), alpha), hop21), mu)
    _require_finite(ops, _parts_named(alpha=alpha, beta=beta))
    return alpha, beta


def _require_off_resonance(p: NetworkParams, d) -> None:
    """Refuse the parts d of D before anything divides by them: OutOfRange, then ResonantRecycling, then OutOfRange.

    The resonance is decided on D and gamma^2+delta^2 recomputed from
    gamma and delta scaled by 2**-e, e the binary exponent of the larger.
    Both are of degree 2 in gamma and delta, and a power-of-two scale is
    exact in the normal range, so wherever the unscaled values do not
    underflow the decision is theirs; where gamma^2 and delta^2 underflow,
    and every term of D with them, the scaled values still tell the
    resonance from a D that is merely small. A D that underflowed to 0
    all the same is refused as out of range.
    """
    ops = _parts_of(p.gamma)
    scale = p.gamma * p.gamma + p.delta * p.delta
    # past the float range |D| and its threshold are both inf: an overflow, not the resonance
    _require_finite(ops, [*_parts_named(denominator=d), ("gamma^2+delta^2", scale)])
    gamma, delta = ops.ldexp((p.gamma, p.delta), -ops.exponent(p.gamma, p.delta))
    d_mod = ops.mod(d)
    if ops.fails(ops.mod(_denominator(gamma, delta, _loop(p))) <= EPS_SINGULAR * (gamma * gamma + delta * delta)):
        raise ResonantRecycling(
            f"steady-state denominator |D| = {d_mod:.3e} <= {EPS_SINGULAR:.0e}*(gamma^2+delta^2)"
            f" = {EPS_SINGULAR * scale:.3e}; drive recycles resonantly as delta -> 0 with"
            f" phi12+phi21 -> 0 (mod 2*pi)"
        )
    if ops.fails(d_mod == 0.0):
        raise OutOfRange(
            f"steady-state denominator D underflows to 0 at gamma^2+delta^2 = {scale:.3e}, off the resonance"
        )


def validate_regime(p: NetworkParams, s: SteadyFields) -> list[str]:
    """Diagnostics for the elimination regime 1 << gamma/chi << |alpha|.

    Returns warning strings (empty list when comfortably inside the
    regime); never raises. Each string names the violated inequality.
    One parameter set only.
    """
    notes: list[str] = []
    if p.chi == 0.0:
        return notes
    ratio = p.gamma / p.chi
    # inf where abs(alpha) would overflow, so this never raises
    mod_alpha = _parts_of(p.gamma).mod(_split(s.alpha))
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


def fluctuation_coefficients(p: NetworkParams, s: SteadyFields) -> FluctuationCoefficients:
    """Linear-response coefficients of the field fluctuations to each atom.

    Solves the steady linear system

        (gamma+i*delta)*a - gamma*e^{i*phi12-gamma_f}*b = -i*chi*alpha*sz1
        -gamma*e^{i*phi21-gamma_f}*a + (gamma+i*delta)*b = -i*chi*beta*sz2

    for unit source vectors sz1 = 1 and sz2 = 1 via solve2, giving the
    decomposition a = c_a1*sz1 + c_a2*sz2, b = c_b1*sz1 + c_b2*sz2.

    Raises OutOfRange naming the first part of alpha or beta, then of the
    sources -i*chi*alpha and -i*chi*beta, and then of a coefficient, that
    is not finite; a stack raises what its first failing set raises alone.
    """
    return _per_set(_fluctuation_coefficients, p, s)


def _fluctuation_coefficients(p: NetworkParams, s: SteadyFields) -> FluctuationCoefficients:
    ops = _parts_of(p.gamma)
    _require_finite(ops, _parts_named(alpha=_split(s.alpha), beta=_split(s.beta)))
    c = _fluctuations(p, _split(s.alpha), _split(s.beta), _hop12(p), _hop21(p))
    _require_finite(ops, _parts_named(**dict(zip(("c_a1", "c_a2", "c_b1", "c_b2"), c))))
    return FluctuationCoefficients(*(ops.pack(*z) for z in c))


def _solve(m, rhs):
    """solve2 on parts: its core for one system, the public routine for a stack."""
    if isinstance(m[0][0], float):
        return _solve2(*m, *rhs)
    from ._arrays import stack_system

    x = solve2(*stack_system(m, rhs))
    return _split(x[:, 0]), _split(x[:, 1])


def _fluctuations(p: NetworkParams, alpha, beta, hop12, hop21):
    """(c_a1, c_a2, c_b1, c_b2) of fluctuation_coefficients, given the fiber factors; never uses D or the thetas."""
    mu = (p.gamma, p.delta)
    m = (mu, _mul((-p.gamma, 0.0), hop12), _mul((-p.gamma, 0.0), hop21), mu)
    # -1j * chi, as Python forms it: (-0.0 - 1j) * (chi + 0j)
    k = _mul((-0.0, -1.0), (p.chi, 0.0))
    source_alpha, source_beta = _mul(k, alpha), _mul(k, beta)
    # finite fields can still give a source past the float range, which solve2 would refuse bare
    _require_finite(_parts_of(p.gamma), _parts_named(source_alpha=source_alpha, source_beta=source_beta))
    zero = (0.0, 0.0)
    a1, b1 = _solve(m, (source_alpha, zero))
    a2, b2 = _solve(m, (zero, source_beta))
    return a1, a2, b1, b2


def fluctuation_coefficients_closed(p: NetworkParams, s: SteadyFields) -> FluctuationCoefficients:
    """Closed forms of the same coefficients, kept separate for cross-audit.

    c_a1 = -i*chi*alpha*(gamma+i*delta)/D     c_a2 = -i*chi*beta*gamma*e^{i*phi12-gamma_f}/D
    c_b1 = -i*chi*alpha*gamma*e^{i*phi21-gamma_f}/D   c_b2 = -i*chi*beta*(gamma+i*delta)/D

    Plain complex arithmetic, for one parameter set.
    """
    d = denominator(p)
    mu = complex(p.gamma, p.delta)
    hop12, hop21 = complex(*_hop12(p)), complex(*_hop21(p))
    ka = -1j * p.chi * s.alpha
    kb = -1j * p.chi * s.beta
    return FluctuationCoefficients(
        c_a1=ka * mu / d,
        c_a2=kb * p.gamma * hop12 / d,
        c_b1=ka * p.gamma * hop21 / d,
        c_b2=kb * mu / d,
    )


def theta_variants(p: NetworkParams, s: SteadyFields) -> tuple[float, float]:
    """The two directional contributions to the Ising strength.

    theta1 = Im{conj(alpha)*beta*e^{i*phi12-gamma_f}/D} and
    theta2 = Im{alpha*conj(beta)*e^{i*phi21-gamma_f}/D}. No equality
    between them is assumed; they coincide only on the symmetric
    manifold (see module docstring).

    Refuses D as steady_fields does, with OutOfRange, ResonantRecycling
    or, for a D that underflows to 0, OutOfRange, before it divides by D.
    Raises OutOfRange naming theta1 or theta2 when it leaves the float
    range; a stack raises what its first failing set raises alone.
    """
    return _per_set(_theta_variants, p, s)


def _theta_variants(p: NetworkParams, s: SteadyFields) -> tuple[float, float]:
    d = _split(denominator(p))
    _require_off_resonance(p, d)
    t = _thetas(p, _split(s.alpha), _split(s.beta), d, _hop12(p), _hop21(p))
    _require_finite(_parts_of(p.gamma), (("theta1", t[0]), ("theta2", t[1])))
    return t


def _thetas(p: NetworkParams, alpha, beta, d, hop12, hop21):
    """theta_variants, given the parts of the fields, of D and of the fiber factors."""
    quot = _parts_of(p.gamma).quot
    t1 = quot(_mul(_mul((alpha[0], -alpha[1]), beta), hop12), d)[1]
    t2 = quot(_mul(_mul(alpha, (beta[0], -beta[1])), hop21), d)[1]
    return t1, t2


#: the CouplingResult fields in the order coupling checks them, which is
#: the order `fiberspin coupling` prints them
_CHECK_ORDER = ("j_oracle", "j_closed", "j_single", "theta1", "theta2", "local1", "local2")


def coupling(p: NetworkParams) -> CouplingResult:
    """Effective Ising strength J, from the elimination oracle and from closed forms.

    The oracle knows nothing of the theta formulas. The fluctuations
    respond linearly to the atoms, a = c_a1*z1 + c_a2*z2 and
    b = c_b1*z1 + c_b2*z2 for spins z1, z2 = +-1, with the c's solved by
    fluctuation_coefficients. In the mean-field interaction energy

        E(z1, z2) = 2*chi*Re(conj(alpha)*a)*z1 + 2*chi*Re(conj(beta)*b)*z2

    the z1^2 and z2^2 terms are constants, and the z1*z2 term, which the
    four-point mixed difference [E(+,+) - E(+,-) - E(-,+) + E(-,-)]/8
    isolates, is exactly

        j_oracle = chi*[Re(conj(alpha)*c_a2) + Re(conj(beta)*c_b1)].

    The closed forms fill the rest of the result. D and each fiber factor
    are computed once per call and shared by the routes that use them; the
    oracle takes only the fiber factors, which its system matrix holds.
    For a stack of parameter sets every field of the result is an array,
    and the call makes the same number of D, fiber-factor and solve2
    calls as for one set.

    Raises ResonantRecycling as steady_fields does, and OutOfRange when a
    part of the steady fields, of a fluctuation source or a field of the
    result leaves the float range, the result checked in the order
    j_oracle, j_closed, j_single, theta1, theta2, local1, local2.
    """
    return _per_set(_coupling, p)


def _coupling(p: NetworkParams) -> CouplingResult:
    ops = _parts_of(p.gamma)
    d = _split(denominator(p))
    hop12, hop21 = _hop12(p), _hop21(p)
    alpha, beta = _steady(p, d, hop21)
    _, c_a2, c_b1, _ = _fluctuations(p, alpha, beta, hop12, hop21)
    j_oracle = p.chi * (
        _mul((alpha[0], -alpha[1]), c_a2)[0] + _mul((beta[0], -beta[1]), c_b1)[0]
    )
    t1, t2 = _thetas(p, alpha, beta, d, hop12, hop21)
    gc2 = p.gamma * p.chi * p.chi
    r = CouplingResult(
        j_oracle=j_oracle,
        theta1=t1,
        theta2=t2,
        j_closed=gc2 * (t1 + t2),
        j_single=gc2 * t1,
        local1=p.chi * ops.square(ops.mod(alpha)),
        local2=p.chi * ops.square(ops.mod(beta)),
    )
    _require_finite(ops, [(name, getattr(r, name)) for name in _CHECK_ORDER])
    return r


def apply_fiber_loss(p: NetworkParams, gamma_f: float) -> NetworkParams:
    """Return params with the per-traversal loss exponent replaced.

    Every fiber factor e^{i*phi} downstream becomes e^{i*phi - gamma_f},
    including inside the steady-state denominator. NetworkParams' checks
    refuse a gamma_f that is not finite (OutOfRange), or negative (NegativeLoss).
    """
    return replace(p, gamma_f=gamma_f)


def symmetric_phase_sum(gamma: float, delta: float) -> float:
    """Round-trip phase for which the two theta contributions coincide (lossless fiber)."""
    return (2.0 * math.atan2(delta, gamma)) % TWOPI
