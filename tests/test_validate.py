"""Seeded self-check suites: the parameter sampler and the suite reports."""

import math

import numpy as np
import pytest

from fiberspin import network, validate
from fiberspin.errors import OutOfRange
from fiberspin.network import NetworkParams, denominator
from fiberspin.validate import (
    _local_unitaries,
    run_all,
    sample_params,
    suite_eigensystem,
    suite_entanglement,
    suite_evolution,
    suite_oracle_identity,
)


def _sample_params_one_by_one(rng):
    # reference: one rng.uniform call per parameter, in the sampler's order,
    # one attempt after another, against the guard as the module holds it now
    while True:
        gamma = float(rng.uniform(0.2, 5.0))
        delta = float(rng.uniform(-5.0, 5.0))
        chi = float(rng.uniform(0.01, 1.0))
        mod = float(rng.uniform(0.1, 20.0))
        arg = float(rng.uniform(0.0, 2.0 * math.pi))
        p = NetworkParams(
            gamma=gamma,
            delta=delta,
            chi=chi,
            drive=mod * complex(math.cos(arg), math.sin(arg)),
            phi12=float(rng.uniform(0.0, 2.0 * math.pi)),
            phi21=float(rng.uniform(0.0, 2.0 * math.pi)),
            gamma_f=float(rng.uniform(0.0, 0.3)),
        )
        if abs(denominator(p)) > validate._SAMPLE_GUARD * (gamma * gamma + delta * delta):
            return p


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_sample_params_matches_one_uniform_per_draw(seed, unstack):
    fast = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    stacks = [sample_params(fast, n) for n in (1500, 1, 499)]
    for stack, n in zip(stacks, (1500, 1, 499)):
        assert stack.drive.dtype == np.complex128 and stack.drive.shape == (n,)
        reals = (stack.gamma, stack.delta, stack.chi, stack.phi12, stack.phi21, stack.gamma_f)
        assert all(v.dtype == np.float64 and v.shape == (n,) for v in reals)
    for g in (p for stack in stacks for p in unstack(stack)):
        want = _sample_params_one_by_one(reference)
        assert g == want
        assert all(type(v) is type(w) for v, w in zip(vars(g).values(), vars(want).values()))
    # both generators consumed the same stream
    assert fast.random() == reference.random()


def test_oracle_suite_report_is_deterministic():
    a = suite_oracle_identity(np.random.default_rng(3), samples=200)
    b = suite_oracle_identity(np.random.default_rng(3), samples=200)
    assert a == b and a.passed
    assert a.detail.endswith("over 200 draws (tol 1e-10)")


def test_oracle_suite_stacks_its_coupling_calls(monkeypatch):
    # one coupling call, and one solve2 call per source vector, per chunk of
    # sets: a per-set loop would make 10,000 and 20,000
    calls = {"coupling": 0, "solve2": 0}
    for module, name in ((validate, "coupling"), (network, "solve2")):
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    result = suite_oracle_identity(np.random.default_rng(8), samples=10_000)
    assert result.passed
    assert 0 < calls["coupling"] <= 20 and 0 < calls["solve2"] <= 40


def _local_unitary_by_qr(rng):
    # reference: LAPACK QR of each factor, phases fixed by diag(r)/|diag(r)|
    blocks = []
    for _ in range(2):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        blocks.append((q * (np.diag(r) / np.abs(np.diag(r))), np.linalg.cond(z)))
    return blocks


@pytest.mark.parametrize("seed", [2, 1234])
def test_local_unitary_matches_qr_construction(seed):
    fast = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    # 16 normals per unitary, in the order 2000 one-by-one draws take them
    for u in _local_unitaries(fast.normal(size=(2000, 16))):
        (q1, cond1), (q2, cond2) = _local_unitary_by_qr(reference)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 2e-15
        # QR's own forward error grows with the condition number of the draw
        assert np.max(np.abs(u - np.kron(q1, q2))) <= 1e-15 * max(cond1, cond2)
    # both generators consumed the same stream
    assert fast.random() == reference.random()


def test_sample_params_redraws_exactly_the_shortfall(monkeypatch, unstack):
    # a guard this high rejects about 40% of the attempts, so the sampler
    # has to redraw the shortfall several times
    monkeypatch.setattr(validate, "_SAMPLE_GUARD", 1.0)
    fast = np.random.default_rng(11)
    reference = np.random.default_rng(11)
    attempts = []

    class Recorder:
        def random(self, shape):
            attempts.append(shape)
            return fast.random(shape)

    got = sample_params(Recorder(), 300)
    assert attempts[0] == (300, 8) and len(attempts) > 2
    assert unstack(got) == [_sample_params_one_by_one(reference) for _ in range(300)]
    assert fast.random() == reference.random()


def _oracle_draws(rng, samples):
    for _ in range(samples):
        _sample_params_one_by_one(rng)


def _eigensystem_draws(rng, samples):
    for _ in range(samples):
        rng.uniform(1e-3, 2.0)


def _entanglement_draws(rng, samples):
    # a state's real parts, its imaginary parts, then its local unitary
    for _ in range(samples):
        rng.normal(size=4)
        rng.normal(size=4)
        rng.normal(size=(2, 2))
        rng.normal(size=(2, 2))
        rng.normal(size=(2, 2))
        rng.normal(size=(2, 2))


@pytest.mark.parametrize(
    "suite, draws",
    [
        (suite_oracle_identity, _oracle_draws),
        (suite_eigensystem, _eigensystem_draws),
        (suite_entanglement, _entanglement_draws),
    ],
)
def test_suites_leave_the_stream_where_one_by_one_draws_would(suite, draws):
    fast = np.random.default_rng(5)
    reference = np.random.default_rng(5)
    suite(fast, samples=257)
    draws(reference, 257)
    assert fast.random() == reference.random()


def test_oracle_suite_stream_with_rejections(monkeypatch):
    # rejections and shortfall redraws must not move the stream either
    monkeypatch.setattr(validate, "_SAMPLE_GUARD", 1.0)
    fast = np.random.default_rng(6)
    reference = np.random.default_rng(6)
    suite_oracle_identity(fast, samples=257)
    _oracle_draws(reference, 257)
    assert fast.random() == reference.random()


def _one_nan(values, index):
    out = np.array(values, dtype=float)
    out.flat[index] = math.nan
    return out


def test_nan_defect_fails_oracle_suite(monkeypatch):
    def mismatch(p):
        # one NaN defect, at the 37th set of the stack
        return _one_nan(np.zeros(len(p.gamma)), 36)

    monkeypatch.setattr(validate, "_coupling_mismatch", mismatch)
    result = suite_oracle_identity(np.random.default_rng(1), samples=100)
    assert result.passed is False and "nan" in result.detail


def test_nan_defect_fails_eigensystem_suite(monkeypatch):
    real = validate.eig_hermitian4

    def eig(h):
        r = real(h)
        return type(r)(values=_one_nan(r.values, 21), vectors=r.vectors)

    monkeypatch.setattr(validate, "eig_hermitian4", eig)
    result = suite_eigensystem(np.random.default_rng(1), samples=50)
    assert result.passed is False and "nan" in result.detail


def test_nan_defect_fails_evolution_suite(monkeypatch):
    real = validate.evolve_analytic

    def evolve(eta, tau):
        psi = real(eta, tau)
        return psi * math.nan if (eta, tau) == (0.5, 10.0) else psi

    monkeypatch.setattr(validate, "evolve_analytic", evolve)
    result = suite_evolution()
    assert result.passed is False and "nan" in result.detail


@pytest.mark.parametrize("route", ["concurrence_pure", "concurrence_mixed"])
def test_nan_defect_fails_entanglement_suite(monkeypatch, route):
    real = getattr(validate, route)

    def concurrence(states):
        c = real(states)
        return _one_nan(c, 13) if np.ndim(c) else c

    monkeypatch.setattr(validate, route, concurrence)
    result = suite_entanglement(np.random.default_rng(1), samples=50)
    assert result.passed is False and "nan" in result.detail


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_run_all_refuses_a_bad_tolerance_before_any_suite(monkeypatch, tolerance):
    for name in ("suite_oracle_identity", "suite_eigensystem", "suite_evolution", "suite_entanglement"):
        monkeypatch.setattr(validate, name, lambda *a, **k: pytest.fail("a suite ran"))
    with pytest.raises(OutOfRange, match="tolerance"):
        run_all(seed=1, tolerance=tolerance)
