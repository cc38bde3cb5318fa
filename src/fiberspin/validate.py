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

from .entanglement import concurrence_mixed, concurrence_pure
from .network import NetworkParams, coupling, denominator, steady_fields, theta_variants
from .numerics import eig_hermitian4, propagate
from .spins import (
    SpinParams,
    analytic_eigensystem,
    build_hamiltonian,
    evolve_analytic,
    initial_coefficients,
)

DEFAULT_SEED = 1234

#: margin over the library's own singularity guard used when sampling,
#: so every sampled point is comfortably conditioned
_SAMPLE_GUARD = 1e-6


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


def sample_params(rng: np.random.Generator) -> NetworkParams:
    """Random network parameters away from the recycling singularity.

    Each attempt draws eight doubles with one rng.random call and maps
    them as low + (high - low) * u, the same arithmetic on the same
    stream as eight rng.uniform(low, high) calls, so the draws are
    bit-identical to drawing them one by one.
    """
    while True:
        gamma, delta, chi, mod, arg, phi12, phi21, gamma_f = (
            lo + (hi - lo) * u for (lo, hi), u in zip(_SAMPLE_RANGES, rng.random(8).tolist())
        )
        p = NetworkParams(
            gamma=gamma,
            delta=delta,
            chi=chi,
            drive=mod * complex(math.cos(arg), math.sin(arg)),
            phi12=phi12,
            phi21=phi21,
            gamma_f=gamma_f,
        )
        if abs(denominator(p)) > _SAMPLE_GUARD * (gamma * gamma + delta * delta):
            return p


def _coupling_mismatch(p: NetworkParams) -> float:
    """Scaled defect of the oracle identity j_oracle == gamma*chi^2*(theta1+theta2).

    The defect is measured against the larger of the two J values or,
    when they cancel toward zero, against a thousandth of the summed
    theta magnitudes, which is the scale roundoff actually lives on.
    """
    r = coupling(p)
    term_scale = p.gamma * p.chi * p.chi * (abs(r.theta1) + abs(r.theta2))
    scale = max(abs(r.j_oracle), abs(r.j_closed), 1e-3 * term_scale, 1e-300)
    return abs(r.j_oracle - r.j_closed) / scale


def suite_oracle_identity(rng: np.random.Generator, samples: int = 10_000, tol: float = 1e-10) -> SuiteResult:
    worst = 0.0
    for _ in range(samples):
        worst = max(worst, _coupling_mismatch(sample_params(rng)))
    return SuiteResult(
        name="oracle-identity",
        passed=worst <= tol,
        detail=f"worst relative defect {worst:.3e} over {samples} draws"
        f" (tol {tol:.0e})",
    )


def suite_eigensystem(rng: np.random.Generator, samples: int = 1000, tol: float = 1e-10) -> SuiteResult:
    worst = 0.0
    for _ in range(samples):
        eta = float(rng.uniform(1e-3, 2.0))
        sp = SpinParams.from_eta(eta)
        es = analytic_eigensystem(sp)
        h = build_hamiltonian(sp)
        hscale = float(np.max(np.abs(h)))
        numeric = eig_hermitian4(h).values
        worst = max(
            worst,
            float(np.max(np.abs(es.energies - numeric))) / (2.0 * math.sqrt(1.0 + eta * eta)),
        )
        for k in range(4):
            res = h @ es.states[k] - es.energies[k] * es.states[k]
            worst = max(worst, float(np.max(np.abs(res))) / hscale)
        gram = es.states.conj() @ es.states.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(4)))))
    return SuiteResult(
        name="eigensystem",
        passed=worst <= tol,
        detail=f"worst spectral/residual/orthonormality defect {worst:.3e}"
        f" over {samples} etas (tol {tol:.0e})",
    )


def suite_evolution(tol: float = 1e-10) -> SuiteResult:
    worst = 0.0
    for eta in (0.05, 0.1, 0.5, 1.0):
        h = build_hamiltonian(SpinParams.from_eta(eta))
        gg = np.array([0.0, 0.0, 0.0, 1.0], dtype=np.complex128)
        c = initial_coefficients(eta)
        worst = max(worst, abs(sum(x * x for x in c) - 1.0))
        worst = max(worst, abs(c[1]))
        for tau in (0.1, 1.0, 10.0, 100.0):
            closed = evolve_analytic(eta, tau)
            reference = propagate(h, tau, gg)
            fidelity = abs(np.vdot(reference, closed))
            worst = max(worst, abs(1.0 - fidelity))
            worst = max(worst, abs(float(np.linalg.norm(closed)) - 1.0))
    return SuiteResult(
        name="evolution",
        passed=worst <= tol,
        detail=f"worst fidelity/norm/completeness defect {worst:.3e} (tol {tol:.0e})",
    )


def _random_pure_state(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return z / np.linalg.norm(z)


def _random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    blocks = []
    for _ in range(2):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        blocks.append(q)
    return np.kron(blocks[0], blocks[1])


def suite_entanglement(
    rng: np.random.Generator,
    samples: int = 1000,
    tol_consistency: float = 1e-8,
    tol_invariance: float = 1e-9,
) -> SuiteResult:
    worst_consistency = 0.0
    worst_invariance = 0.0
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    werner = 0.8 * np.outer(singlet, singlet.conj()) + 0.2 * np.eye(4) / 4.0
    worst_invariance = max(worst_invariance, abs(concurrence_mixed(werner) - 0.7))
    for _ in range(samples):
        psi = _random_pure_state(rng)
        pure = concurrence_pure(psi)
        mixed = concurrence_mixed(np.outer(psi, psi.conj()))
        worst_consistency = max(worst_consistency, abs(pure - mixed))
        rotated = concurrence_pure(_random_local_unitary(rng) @ psi)
        worst_invariance = max(worst_invariance, abs(pure - rotated))
    return SuiteResult(
        name="entanglement",
        passed=worst_consistency <= tol_consistency and worst_invariance <= tol_invariance,
        detail=f"worst mixed-vs-pure defect {worst_consistency:.3e} (tol {tol_consistency:.0e}),"
        f" worst invariance defect {worst_invariance:.3e} (tol {tol_invariance:.0e})"
        f" over {samples} states",
    )


def run_all(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> list[SuiteResult]:
    """Run every suite with one seeded generator; tolerance overrides all defaults."""
    rng = np.random.default_rng(seed)
    if tolerance is None:
        return [
            suite_oracle_identity(rng),
            suite_eigensystem(rng),
            suite_evolution(),
            suite_entanglement(rng),
        ]
    return [
        suite_oracle_identity(rng, tol=tolerance),
        suite_eigensystem(rng, tol=tolerance),
        suite_evolution(tol=tolerance),
        suite_entanglement(rng, tol_consistency=tolerance, tol_invariance=tolerance),
    ]
