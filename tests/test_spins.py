"""Two-spin Hamiltonian, closed-form eigensystem, and ground-state evolution."""

import math

import numpy as np
import pytest

from fiberspin import (
    DegenerateEta,
    SpinParams,
    analytic_eigensystem,
    build_hamiltonian,
    evolve_analytic,
    initial_coefficients,
    numeric_eigensystem,
    propagate,
    scaled_time,
)

GG = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)


def test_hamiltonian_matrix():
    h = build_hamiltonian(SpinParams(j=1.0, b=0.1))
    expect = np.array(
        [
            [2.0, 0.1, 0.1, 0.0],
            [0.1, -2.0, 0.0, 0.1],
            [0.1, 0.0, -2.0, 0.1],
            [0.0, 0.1, 0.1, 2.0],
        ],
        dtype=complex,
    )
    assert np.array_equal(h, expect)


def test_spin_params_eta_bookkeeping():
    sp = SpinParams(j=2.0, b=0.5)
    assert sp.eta == 0.25
    assert SpinParams.from_eta(0.3, j=2.0).b == 0.6
    assert scaled_time(2.5, 2.0) == 5.0
    with pytest.raises(ValueError):
        SpinParams(j=1.0, b=0.5, eta=0.4)
    with pytest.raises(ValueError):
        SpinParams(j=0.0, b=0.5, eta=0.4)


@pytest.mark.parametrize("eta", [1e-6, 0.05, 0.1, 0.5, 1.0, 2.0])
def test_analytic_eigensystem_solves_hamiltonian(eta):
    sp = SpinParams.from_eta(eta)
    h = build_hamiltonian(sp)
    sys = analytic_eigensystem(sp)
    scale = 2.0 * math.sqrt(1.0 + eta * eta)
    for vec, energy in zip(sys.states, sys.energies):
        assert float(np.linalg.norm(h @ vec - energy * vec)) <= 1e-12 * scale
    gram = sys.states @ sys.states.conj().T
    assert float(np.linalg.norm(gram - np.eye(4))) <= 1e-12
    expect = np.array([-scale, -2.0, 2.0, scale])
    assert np.allclose(sys.energies, expect, rtol=1e-14, atol=0.0)


def test_numeric_route_agrees_with_analytic():
    rng = np.random.default_rng(31)
    for _ in range(50):
        eta = 2.0 - rng.uniform(0.0, 2.0)
        sp = SpinParams.from_eta(eta)
        ana = analytic_eigensystem(sp)
        num = numeric_eigensystem(sp)
        scale = 2.0 * math.sqrt(1.0 + eta * eta)
        assert np.allclose(ana.energies, num.values, rtol=0.0, atol=1e-12 * scale)


def test_initial_coefficients_reference_point():
    c1, c2, c3, c4 = initial_coefficients(0.1)
    assert c2 == 0.0
    assert abs(c1 - 0.035225) <= 1e-4
    assert abs(c3 - math.sqrt(0.5)) <= 1e-12
    assert abs(c4 - 0.706249) <= 1e-4
    assert abs(c1 * c1 + c3 * c3 + c4 * c4 - 1.0) <= 1e-12


@pytest.mark.parametrize("eta", [0.02, 0.1, 0.5, 1.0, 2.0])
def test_initial_coefficients_are_ground_overlaps(eta):
    c = initial_coefficients(eta)
    sys = analytic_eigensystem(SpinParams.from_eta(eta))
    overlaps = sys.states[:, 3].real
    assert np.allclose(c, overlaps, rtol=0.0, atol=1e-12)
    assert abs(sum(v * v for v in c) - 1.0) <= 1e-12


@pytest.mark.parametrize("eta", [5e-324, 1e-315, 1e-310])
def test_subnormal_eta_stays_normalized(eta):
    c = initial_coefficients(eta)
    assert abs(sum(v * v for v in c) - 1.0) <= 1e-15
    states = analytic_eigensystem(SpinParams.from_eta(eta)).states
    assert np.allclose(states.conj() @ states.T, np.eye(4), rtol=0.0, atol=1e-15)
    assert abs(np.linalg.norm(evolve_analytic(eta, 1.0)) - 1.0) <= 1e-15


def test_evolution_matches_matrix_exponential():
    for eta in (0.05, 0.1, 0.5, 1.0):
        h = build_hamiltonian(SpinParams.from_eta(eta))
        for tau in (0.1, 1.0, 10.0, 100.0):
            analytic = evolve_analytic(eta, tau)
            numeric = propagate(h, tau, GG)
            assert abs(abs(np.vdot(analytic, numeric)) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(analytic) - 1.0) <= 1e-12


def test_evolution_starts_at_ground():
    assert np.allclose(evolve_analytic(0.3, 0.0), GG, rtol=0.0, atol=1e-12)


def test_zero_field_keeps_ground_product():
    h = build_hamiltonian(SpinParams(j=1.0, b=0.0))
    out = propagate(h, 3.7, GG)
    assert abs(abs(out[3]) - 1.0) <= 1e-12


def test_degenerate_and_invalid_inputs():
    with pytest.raises(DegenerateEta):
        analytic_eigensystem(SpinParams(j=1.0, b=0.0))
    with pytest.raises(DegenerateEta):
        initial_coefficients(0.0)
    with pytest.raises(ValueError):
        analytic_eigensystem(SpinParams(j=-1.0, b=-0.1))
    with pytest.raises(ValueError):
        evolve_analytic(0.1, math.inf)
