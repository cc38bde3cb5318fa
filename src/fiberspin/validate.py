"""Seeded self-check suites behind the validate subcommand.

Each suite replays one of the package's structural identities over a
random sample and reports pass/fail with a worst-case figure. They are
the same identities the test suite pins, packaged so an installation
can be checked from the command line without a test runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import _StackParts
from ._seed import DEFAULT_SEED
from .entanglement import concurrence_mixed, concurrence_pure
from .errors import OutOfRange
from .network import NetworkParams, coupling, denominator
from .numerics import _mul, _split, eig_hermitian4, propagate
from .spins import (
    SpinParams,
    analytic_eigensystem,
    build_hamiltonian,
    evolve_analytic,
    initial_coefficients,
)

#: margin over the library's own singularity guard used when sampling,
#: so every sampled point is comfortably conditioned
_SAMPLE_GUARD = 1e-6

#: parameter sets the oracle suite samples and checks at a time, and
#: matrices or states the array suites stack at a time; both bound memory
_ORACLE_CHUNK = 500
_STACK_CHUNK = 250


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


#: (low, high) of the eight uniforms sample_params draws, in draw order:
#: gamma, delta, chi, |drive|, arg(drive), phi12, phi21, gamma_f
_SAMPLE_RANGES = (
    (0.2, 5.0),
    (-5.0, 5.0),
    (0.01, 1.0),
    (0.1, 20.0),
    (0.0, 2.0 * math.pi),
    (0.0, 2.0 * math.pi),
    (0.0, 2.0 * math.pi),
    (0.0, 0.3),
)
_SAMPLE_LOW = np.array([lo for lo, _ in _SAMPLE_RANGES])
_SAMPLE_SPAN = np.array([hi - lo for lo, hi in _SAMPLE_RANGES])


def _worst(*figures) -> float:
    """Largest of 0.0, the scalar figures and every entry of the array figures.

    NaN if any of them is NaN: Python's max(0.0, nan) is 0.0, which would
    let a NaN defect pass a suite, while np.max propagates NaN.
    """
    return float(np.max([np.max(f, initial=0.0) for f in figures], initial=0.0))


def _params_from_draws(draws: np.ndarray) -> NetworkParams:
    """The stacked parameter sets of rows of eight mapped uniforms, in _SAMPLE_RANGES order."""
    gamma, delta, chi, mod, arg, phi12, phi21, gamma_f = draws.T
    # mod * complex(cos(arg), sin(arg)), on the parts
    drive = _StackParts.pack(*_mul((mod, 0.0), _StackParts.expcis(0.0, arg)))
    return NetworkParams(
        gamma=gamma, delta=delta, chi=chi, drive=drive, phi12=phi12, phi21=phi21, gamma_f=gamma_f
    )


def sample_params(rng: np.random.Generator, n: int) -> NetworkParams:
    """A stack of n random network parameter sets away from the recycling singularity.

    Each attempt takes eight doubles of the stream and maps them as
    low + (high - low) * u, the same arithmetic on the same stream as
    eight rng.uniform(low, high) calls, and an attempt too close to the
    singularity is dropped. Attempts are drawn in bulk, as many as are
    still missing, so the generator never runs ahead: the accepted sets
    and the stream left behind are bit-identical to drawing attempt
    after attempt until n are accepted.
    """
    accepted = []
    missing = n
    while missing > 0:
        draws = _SAMPLE_LOW + _SAMPLE_SPAN * rng.random((missing, 8))
        gamma, delta = draws[:, 0], draws[:, 1]
        d = _split(denominator(_params_from_draws(draws)))
        keep = _StackParts.mod(d) > _SAMPLE_GUARD * (gamma * gamma + delta * delta)
        accepted.append(draws[keep])
        missing -= int(np.count_nonzero(keep))
    return _params_from_draws(np.concatenate(accepted) if accepted else np.empty((0, 8)))


def _coupling_mismatch(p: NetworkParams) -> np.ndarray:
    """Scaled defect of the oracle identity j_oracle == gamma*chi^2*(theta1+theta2), per set of a stack.

    The defect is measured against the larger of the two J values or,
    when they cancel toward zero, against a thousandth of the summed
    theta magnitudes, which is the scale roundoff actually lives on.
    """
    r = coupling(p)
    term_scale = p.gamma * p.chi * p.chi * (np.abs(r.theta1) + np.abs(r.theta2))
    scale = np.maximum(np.maximum(np.abs(r.j_oracle), np.abs(r.j_closed)), np.maximum(1e-3 * term_scale, 1e-300))
    return np.abs(r.j_oracle - r.j_closed) / scale


def suite_oracle_identity(rng: np.random.Generator, samples: int = 10_000, tol: float = 1e-10) -> SuiteResult:
    mismatches = []
    for lo in range(0, samples, _ORACLE_CHUNK):
        # one stack of parameter sets and one coupling call per chunk, so
        # only one chunk of sets is alive
        mismatches.append(_coupling_mismatch(sample_params(rng, min(_ORACLE_CHUNK, samples - lo))))
    worst = _worst(*mismatches)
    return SuiteResult(
        name="oracle-identity",
        passed=worst <= tol,
        detail=f"worst relative defect {worst:.3e} over {samples} draws"
        f" (tol {tol:.0e})",
    )


def _eigensystem_defects(etas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Spectral, residual and orthonormality defects of the closed-form eigensystems."""
    params = [SpinParams.from_eta(eta) for eta in etas.tolist()]
    systems = [analytic_eigensystem(sp) for sp in params]
    # states[n, k] is the k-th closed-form eigenvector of the n-th Hamiltonian
    states = np.array([es.states for es in systems])
    energies = np.array([es.energies for es in systems])
    h = np.array([build_hamiltonian(sp) for sp in params])
    numeric = eig_hermitian4(h).values
    spectral = np.max(np.abs(energies - numeric), axis=1) / (2.0 * np.sqrt(1.0 + etas * etas))
    # column k of h @ states^T is h @ states[k]
    columns = np.swapaxes(states, 1, 2)
    residual = np.max(np.abs(h @ columns - columns * energies[:, None, :]), axis=(1, 2))
    residual = residual / np.max(np.abs(h), axis=(1, 2))
    gram = states.conj() @ columns
    return spectral, residual, np.abs(gram - np.eye(4))


def suite_eigensystem(rng: np.random.Generator, samples: int = 1000, tol: float = 1e-10) -> SuiteResult:
    etas = rng.uniform(1e-3, 2.0, samples)
    defects = []
    for lo in range(0, samples, _STACK_CHUNK):
        defects += _eigensystem_defects(etas[lo : lo + _STACK_CHUNK])
    worst = _worst(*defects)
    return SuiteResult(
        name="eigensystem",
        passed=worst <= tol,
        detail=f"worst spectral/residual/orthonormality defect {worst:.3e}"
        f" over {samples} etas (tol {tol:.0e})",
    )


def suite_evolution(tol: float = 1e-10) -> SuiteResult:
    figures = []
    taus = (0.1, 1.0, 10.0, 100.0)
    for eta in (0.05, 0.1, 0.5, 1.0):
        h = build_hamiltonian(SpinParams.from_eta(eta))
        gg = np.array([0.0, 0.0, 0.0, 1.0], dtype=np.complex128)
        c = initial_coefficients(eta)
        figures.append(abs(sum(x * x for x in c) - 1.0))
        figures.append(abs(c[1]))
        for tau, reference in zip(taus, propagate(h, np.array(taus), gg)):
            closed = evolve_analytic(eta, tau)
            fidelity = abs(np.vdot(reference, closed))
            figures.append(abs(1.0 - fidelity))
            figures.append(abs(float(np.linalg.norm(closed)) - 1.0))
    worst = _worst(figures)
    return SuiteResult(
        name="evolution",
        passed=worst <= tol,
        detail=f"worst fidelity/norm/completeness defect {worst:.3e} (tol {tol:.0e})",
    )


def _local_unitaries(z: np.ndarray) -> np.ndarray:
    """u1 (x) u2 for pairs of random 2x2 unitaries, from 16 normals each.

    z has shape (n, 16). Each factor takes a 2x2 matrix of real parts,
    then one of imaginary parts, as rng.normal(size=(2, 2)) twice would,
    and becomes the Q of z = Q*R with R's diagonal real and positive.
    That Q comes from Gram-Schmidt on z's two columns, with the
    projection applied twice, in closed form; it is numpy.linalg.qr's Q
    with each column scaled by diag(r)/|diag(r)|.
    """
    factors = []
    for re, im in ((z[:, 0:4], z[:, 4:8]), (z[:, 8:12], z[:, 12:16])):
        a, b, c, d = (re + 1j * im).T
        n0 = np.hypot(np.abs(a), np.abs(c))
        a, c = a / n0, c / n0
        # the second pass removes what rounding left of the first column
        for _ in range(2):
            proj = a.conj() * b + c.conj() * d
            b, d = b - proj * a, d - proj * c
        n1 = np.hypot(np.abs(b), np.abs(d))
        factors.append(np.stack((np.stack((a, b / n1), axis=-1), np.stack((c, d / n1), axis=-1)), axis=1))
    u, v = factors
    n = z.shape[0]
    return (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(n, 4, 4)


def suite_entanglement(
    rng: np.random.Generator,
    samples: int = 1000,
    tol_consistency: float = 1e-8,
    tol_invariance: float = 1e-9,
) -> SuiteResult:
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    werner = 0.8 * np.outer(singlet, singlet.conj()) + 0.2 * np.eye(4) / 4.0
    # per state: four real parts, four imaginary parts, then the 16 normals
    # of its local unitary, in the order drawing them state by state gives
    z = rng.normal(size=(samples, 24))
    consistency, invariance = [], [abs(concurrence_mixed(werner) - 0.7)]
    for chunk in (z[lo : lo + _STACK_CHUNK] for lo in range(0, samples, _STACK_CHUNK)):
        psi = chunk[:, 0:4] + 1j * chunk[:, 4:8]
        psi = psi / np.linalg.norm(psi, axis=1)[:, None]
        pure = concurrence_pure(psi)
        mixed = concurrence_mixed(psi[:, :, None] * psi.conj()[:, None, :])
        rotated = concurrence_pure((_local_unitaries(chunk[:, 8:]) @ psi[:, :, None])[:, :, 0])
        consistency.append(np.abs(pure - mixed))
        invariance.append(np.abs(pure - rotated))
    worst_consistency = _worst(*consistency)
    worst_invariance = _worst(*invariance)
    return SuiteResult(
        name="entanglement",
        passed=worst_consistency <= tol_consistency and worst_invariance <= tol_invariance,
        detail=f"worst mixed-vs-pure defect {worst_consistency:.3e} (tol {tol_consistency:.0e}),"
        f" worst invariance defect {worst_invariance:.3e} (tol {tol_invariance:.0e})"
        f" over {samples} states",
    )


def run_all(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> list[SuiteResult]:
    """Run every suite with one seeded generator; tolerance overrides all defaults.

    Raises OutOfRange, before any suite runs, for a negative seed, which
    numpy's generator refuses, and for a tolerance that is NaN, infinite
    or negative: against it every defect would pass, or none.
    """
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed!r}")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise OutOfRange(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    rng = np.random.default_rng(seed)
    if tolerance is None:
        tol, pair = {}, {}
    else:
        tol, pair = {"tol": tolerance}, {"tol_consistency": tolerance, "tol_invariance": tolerance}
    return [
        suite_oracle_identity(rng, **tol),
        suite_eigensystem(rng, **tol),
        suite_evolution(**tol),
        suite_entanglement(rng, **pair),
    ]
