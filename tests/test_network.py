"""Steady fields, the two coupling routes, and their agreement properties."""

import cmath
import dataclasses
from dataclasses import astuple
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberspin import network
from fiberspin import (
    NegativeLoss,
    NetworkParams,
    OutOfRange,
    ResonantRecycling,
    apply_fiber_loss,
    coupling,
    coupling_largedelta_lossy,
    denominator,
    fluctuation_coefficients,
    fluctuation_coefficients_closed,
    steady_fields,
    symmetric_phase_sum,
    theta_variants,
    validate_regime,
)
from fiberspin.numerics import solve2
from fiberspin.validate import sample_params

SYM = dict(gamma=1.0, delta=1.0, chi=0.1, drive=10.0, phi12=math.pi / 4, phi21=math.pi / 4)
ASYM = dict(gamma=1.0, delta=0.5, chi=0.1, drive=1.0, phi12=0.3, phi21=0.9)


def sample(rng):
    while True:
        p = NetworkParams(
            gamma=rng.uniform(0.2, 5.0),
            delta=rng.uniform(-5.0, 5.0),
            chi=rng.uniform(0.01, 1.0),
            drive=rng.uniform(0.1, 20.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
            phi12=rng.uniform(0.0, 2.0 * math.pi),
            phi21=rng.uniform(0.0, 2.0 * math.pi),
            gamma_f=rng.uniform(0.0, 0.3),
        )
        if abs(denominator(p)) > 1e-6 * (p.gamma**2 + p.delta**2):
            return p


def test_worked_point_fields():
    p = NetworkParams(**SYM)
    s = steady_fields(p)
    assert cmath.isclose(s.alpha, 10.0 - 10.0j, abs_tol=1e-9)
    assert cmath.isclose(s.beta, 10.0 * cmath.exp(-0.25j * math.pi), abs_tol=1e-9)
    assert cmath.isclose(denominator(p), 1j, abs_tol=1e-9)


def test_worked_point_coupling():
    r = coupling(NetworkParams(**SYM))
    assert math.isclose(r.theta1, -100.0, abs_tol=1e-9)
    assert math.isclose(r.theta2, -100.0, abs_tol=1e-9)
    assert math.isclose(r.j_oracle, -2.0, abs_tol=1e-9)
    assert math.isclose(r.j_closed, -2.0, abs_tol=1e-9)
    assert math.isclose(r.j_single, -1.0, abs_tol=1e-9)
    assert math.isclose(r.local1, 20.0, abs_tol=1e-9)
    assert math.isclose(r.local2, 10.0, abs_tol=1e-9)


def test_oracle_equals_closed_sum():
    rng = np.random.default_rng(3)
    for _ in range(300):
        p = sample(rng)
        r = coupling(p)
        target = p.gamma * p.chi**2 * (r.theta1 + r.theta2)
        scale = max(abs(r.j_oracle), abs(target), 1e-300)
        assert abs(r.j_oracle - target) <= 1e-10 * scale
        assert abs(r.j_oracle - r.j_closed) <= 1e-10 * scale


def _four_sign_j(p):
    """The four-sign elimination oracle, kept as a test-only reference.

    For each (z1, z2) in {-1, +1}^2 it solves the fluctuation system with
    sources -i*chi*alpha*z1, -i*chi*beta*z2, forms the mean-field energy
    E = 2*chi*Re(conj(alpha)*a)*z1 + 2*chi*Re(conj(beta)*b)*z2, and takes
    the mixed difference [E(+,+) - E(+,-) - E(-,+) + E(-,-)]/8.
    """
    s = steady_fields(p)
    mu = complex(p.gamma, p.delta)
    m = np.array(
        [
            [mu, -p.gamma * cmath.exp(complex(-p.gamma_f, p.phi12))],
            [-p.gamma * cmath.exp(complex(-p.gamma_f, p.phi21)), mu],
        ]
    )
    ka, kb = -1j * p.chi * s.alpha, -1j * p.chi * s.beta
    energy = {}
    for z1 in (1.0, -1.0):
        for z2 in (1.0, -1.0):
            a, b = np.linalg.solve(m, np.array([ka * z1, kb * z2]))
            energy[z1, z2] = 2.0 * p.chi * (
                (s.alpha.conjugate() * a).real * z1 + (s.beta.conjugate() * b).real * z2
            )
    return (energy[1.0, 1.0] - energy[1.0, -1.0] - energy[-1.0, 1.0] + energy[-1.0, -1.0]) / 8.0


def test_linear_response_oracle_matches_four_sign_difference():
    from fiberspin.cli import _NETWORK_PRESETS

    presets = [
        NetworkParams(
            gamma=v["gamma"],
            delta=v["delta"],
            chi=v["chi"],
            drive=complex(v["drive_re"], v["drive_im"]),
            phi12=v["phi12"],
            phi21=v["phi21"],
            gamma_f=v["gamma_f"],
        )
        for v in _NETWORK_PRESETS.values()
    ]
    assert len(presets) == 2
    rng = np.random.default_rng(41)
    for p in presets + [sample(rng) for _ in range(1000)]:
        r = coupling(p)
        reference = _four_sign_j(p)
        # the scale roundoff lives on: the summed theta terms, as in validate
        term_scale = p.gamma * p.chi**2 * (abs(r.theta1) + abs(r.theta2))
        scale = max(abs(r.j_oracle), abs(reference), 1e-3 * term_scale)
        assert abs(r.j_oracle - reference) <= 1e-10 * scale


def _stack(sets):
    """One stacked NetworkParams holding the given sets, in order."""
    names = ("gamma", "delta", "chi", "drive", "phi12", "phi21", "gamma_f")
    return NetworkParams(**{k: np.array([getattr(p, k) for p in sets]) for k in names})


def _counting(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_coupling_computes_d_and_each_fiber_factor_once(monkeypatch):
    # the public routes give the same bits; coupling only shares what they recompute
    sets = [NetworkParams(**params) for params in (SYM, ASYM, dict(ASYM, gamma_f=0.2))]
    for p in sets:
        r = coupling(p)
        s = steady_fields(p)
        assert (r.theta1, r.theta2) == theta_variants(p, s)
        c = fluctuation_coefficients(p, s)
        oracle = (s.alpha.conjugate() * c.c_a2).real + (s.beta.conjugate() * c.c_b1).real
        assert r.j_oracle == p.chi * oracle
        calls = _counting(monkeypatch, network, ("denominator", "_hop12", "_hop21"))
        assert coupling(p) == r
        assert calls == {"denominator": 1, "_hop12": 1, "_hop21": 1}
        monkeypatch.undo()
    # once per stack too, with one solve2 call per source vector
    stack = _stack(sets * 100)
    calls = _counting(monkeypatch, network, ("denominator", "_hop12", "_hop21", "solve2"))
    r = coupling(stack)
    assert calls == {"denominator": 1, "_hop12": 1, "_hop21": 1, "solve2": 2}
    assert r.j_oracle.shape == (300,)


#: the stacked results compared set by set, bit for bit
_RESULT_FIELDS = ("j_oracle", "theta1", "theta2", "j_closed", "j_single", "local1", "local2")


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _set_pool(unstack):
    """Sampled sets plus edge cases: the presets, zero drive, chi, delta and gamma_f, and big drives."""
    edge = [
        NetworkParams(**SYM),
        NetworkParams(**ASYM),
        NetworkParams(**dict(ASYM, gamma_f=0.3)),
        NetworkParams(gamma=1.0, delta=0.7, chi=0.2, drive=0.0, phi12=0.1, phi21=0.2),
        NetworkParams(gamma=1.0, delta=0.7, chi=0.0, drive=3.0, phi12=0.1, phi21=0.2),
        NetworkParams(gamma=1.0, delta=0.0, chi=-0.3, drive=2j, phi12=0.0, phi21=1.0),
        NetworkParams(gamma=0.0, delta=2.0, chi=0.1, drive=1.0, phi12=0.0, phi21=0.0),
        NetworkParams(gamma=1.0, delta=-0.5, chi=0.1, drive=complex(-0.0, 4.0), phi12=3.0, phi21=6.0),
        NetworkParams(gamma=1.0, delta=0.5, chi=0.1, drive=1e150, phi12=0.3, phi21=0.9, gamma_f=1.0),
        NetworkParams(gamma=1.0, delta=1e-3, chi=0.1, drive=1.0, phi12=5e-4, phi21=5e-4),
    ]
    sampled = unstack(sample_params(np.random.default_rng(43), 257 - len(edge)))
    return edge + sampled


def test_coupling_stack_is_each_set_bit_for_bit(unstack):
    pool = _set_pool(unstack)
    alone = [coupling(p) for p in pool]
    fields = [steady_fields(p) for p in pool]
    rng = np.random.default_rng(47)
    for n in (1, 2, 7, 64, 257):
        for idx in (np.arange(n), rng.permutation(len(pool))[:n]):
            stack = _stack([pool[i] for i in idx])
            r = coupling(stack)
            for name in _RESULT_FIELDS:
                want = np.array([getattr(alone[i], name) for i in idx])
                assert np.array_equal(_bits(getattr(r, name)), _bits(want)), name
            s = steady_fields(stack)
            for name in ("alpha", "beta"):
                want = np.array([getattr(fields[i], name) for i in idx])
                assert np.array_equal(_bits(getattr(s, name)), _bits(want)), name
            want = np.array([denominator(pool[i]) for i in idx])
            assert np.array_equal(_bits(denominator(stack)), _bits(want))
            want = np.array([theta_variants(pool[i], fields[i]) for i in idx])
            assert np.array_equal(_bits(np.transpose(theta_variants(stack, s))), _bits(want))
            c = fluctuation_coefficients(stack, s)
            want = np.array([astuple(fluctuation_coefficients(pool[i], fields[i])) for i in idx])
            assert np.array_equal(_bits(np.transpose(astuple(c))), _bits(want))


def test_large_sampled_stack_is_each_set_bit_for_bit(unstack):
    # enough sets that the rare values where libm's pow(x, 2) and x * x
    # round apart (about 1 in 1,000) turn up in local1 and local2
    stack = sample_params(np.random.default_rng(53), 4000)
    r = coupling(stack)
    alone = [coupling(p) for p in unstack(stack)]
    for name in _RESULT_FIELDS:
        want = np.array([getattr(a, name) for a in alone])
        assert np.array_equal(_bits(getattr(r, name)), _bits(want)), name


def test_coupling_matches_python_complex_arithmetic(unstack):
    # the parts core reproduces plain complex arithmetic in CPython's
    # order; this is coupling written that way, kept as the reference
    for p in _set_pool(unstack):
        mu = complex(p.gamma, p.delta)
        hop12 = cmath.exp(complex(-p.gamma_f, p.phi12))
        hop21 = cmath.exp(complex(-p.gamma_f, p.phi21))
        d = mu * mu - p.gamma * p.gamma * cmath.exp(complex(-2.0 * p.gamma_f, p.phi12 + p.phi21))
        alpha = p.drive * mu / d
        beta = p.gamma * alpha * hop21 / mu
        m = [[mu, -p.gamma * hop12], [-p.gamma * hop21, mu]]
        _, c_b1 = solve2(m, (-1j * p.chi * alpha, 0.0)).tolist()
        c_a2, _ = solve2(m, (0.0, -1j * p.chi * beta)).tolist()
        t1 = (alpha.conjugate() * beta * hop12 / d).imag
        t2 = (alpha * beta.conjugate() * hop21 / d).imag
        want = (
            p.chi * ((alpha.conjugate() * c_a2).real + (beta.conjugate() * c_b1).real),
            t1,
            t2,
            p.gamma * p.chi * p.chi * (t1 + t2),
            p.gamma * p.chi * p.chi * t1,
            p.chi * abs(alpha) ** 2,
            p.chi * abs(beta) ** 2,
        )
        r = coupling(p)
        got = tuple(getattr(r, name) for name in _RESULT_FIELDS)
        assert np.array_equal(_bits(np.array(got)), _bits(np.array(want))), p
        assert (steady_fields(p).alpha, steady_fields(p).beta, denominator(p)) == (alpha, beta, d)


_BAD_SETS = {
    "recycling": dict(gamma=1.0, delta=0.0, chi=0.1, drive=1.0, phi12=0.0, phi21=0.0),
    "negative gamma": dict(gamma=-1.0, delta=0.0, chi=0.1, drive=1.0, phi12=0.0, phi21=0.0),
    "negative gamma_f": dict(ASYM, gamma_f=-0.1),
    "nan delta": dict(ASYM, delta=math.nan),
    "inf drive": dict(ASYM, drive=complex(0.0, math.inf)),
}


@pytest.mark.parametrize("case", sorted(_BAD_SETS))
def test_stack_raises_what_its_bad_set_raises_alone(case, unstack):
    bad = _BAD_SETS[case]
    with pytest.raises((ValueError, NegativeLoss, ResonantRecycling)) as alone:
        coupling(NetworkParams(**bad))
    pool = _set_pool(unstack)
    names = ("gamma", "delta", "chi", "drive", "phi12", "phi21", "gamma_f")
    for n in (1, 2, 7, 64, 257):
        for k in sorted({0, n // 2, n - 1}):
            columns = {name: np.array([getattr(p, name) for p in pool[:n]]) for name in names}
            for name in names:
                columns[name][k] = bad.get(name, 0.0)
            with pytest.raises(alone.type) as stacked:
                coupling(NetworkParams(**columns))
            assert str(stacked.value) == str(alone.value)


def test_params_stack_broadcasts_scalars_and_refuses_ragged_input():
    p = NetworkParams(gamma=[1.0, 2.0], delta=0.5, chi=0.1, drive=1.0, phi12=[0.3, -0.3], phi21=0.9)
    assert p.delta.shape == p.gamma_f.shape == (2,) and p.drive.dtype == np.complex128
    assert p.phi12.tolist() == [0.3, -0.3 % (2.0 * math.pi)]
    with pytest.raises(ValueError):
        NetworkParams(gamma=[1.0, 2.0], delta=[0.5, 0.5, 0.5], chi=0.1, drive=1.0, phi12=0.3, phi21=0.9)
    with pytest.raises(ValueError):
        NetworkParams(gamma=np.ones((2, 2)), delta=0.5, chi=0.1, drive=1.0, phi12=0.3, phi21=0.9)


def test_fluctuation_routes_agree():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = sample(rng)
        s = steady_fields(p)
        solved = fluctuation_coefficients(p, s)
        closed = fluctuation_coefficients_closed(p, s)
        pairs = (
            (solved.c_a1, closed.c_a1),
            (solved.c_a2, closed.c_a2),
            (solved.c_b1, closed.c_b1),
            (solved.c_b2, closed.c_b2),
        )
        for u, v in pairs:
            assert cmath.isclose(u, v, rel_tol=1e-11, abs_tol=1e-14)


def test_symmetric_manifold_theta_equality():
    rng = np.random.default_rng(9)
    for _ in range(100):
        gamma = rng.uniform(0.2, 5.0)
        delta = rng.uniform(-5.0, 5.0)
        phi12 = rng.uniform(0.0, 2.0 * math.pi)
        phi21 = (symmetric_phase_sum(gamma, delta) - phi12) % (2.0 * math.pi)
        p = NetworkParams(
            gamma=gamma,
            delta=delta,
            chi=0.1,
            drive=rng.uniform(0.5, 5.0),
            phi12=phi12,
            phi21=phi21,
        )
        t1, t2 = theta_variants(p, steady_fields(p))
        assert abs(t1 - t2) <= 1e-10 * max(abs(t1), abs(t2), 1e-12)


def test_symmetric_phase_sum_matches_worked_point():
    assert math.isclose(symmetric_phase_sum(1.0, 1.0), math.pi / 2.0, rel_tol=1e-15)


def test_asymmetric_point_thetas_differ():
    r = coupling(NetworkParams(**ASYM))
    assert abs(r.theta1 - r.theta2) > 1e-6
    assert abs(r.j_closed - r.j_single) > 1e-6


@given(st.floats(min_value=0.1, max_value=30.0), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_coupling_scales_with_drive_power(scale, seed):
    rng = np.random.default_rng(seed)
    p = sample(rng)
    r1 = coupling(p)
    r2 = coupling(dataclasses.replace(p, drive=p.drive * scale))
    ref = max(abs(r2.j_oracle), abs(r1.j_oracle) * scale * scale, 1e-300)
    assert abs(r2.j_oracle - scale * scale * r1.j_oracle) <= 1e-9 * ref


def test_zero_drive_zeroes_everything():
    p = NetworkParams(gamma=1.0, delta=0.7, chi=0.2, drive=0.0, phi12=0.1, phi21=0.2)
    s = steady_fields(p)
    assert s.alpha == 0.0 and s.beta == 0.0
    r = coupling(p)
    assert r.j_oracle == 0.0 and r.theta1 == 0.0 and r.theta2 == 0.0


def test_zero_chi_keeps_fields_but_kills_coupling():
    p = NetworkParams(gamma=1.0, delta=0.7, chi=0.0, drive=3.0, phi12=0.1, phi21=0.2)
    s = steady_fields(p)
    assert abs(s.alpha) > 0.0
    r = coupling(p)
    assert r.j_oracle == 0.0 and r.j_closed == 0.0 and r.j_single == 0.0


def test_large_detuning_loss_tracks_squared_ratio():
    # far off resonance the lossy coupling follows |j| * exp(-2*gamma_f)
    base = NetworkParams(gamma=1.0, delta=25.0, chi=0.1, drive=40.0, phi12=0.6, phi21=1.1)
    j0 = abs(coupling(base).j_oracle)
    prev = j0
    for gf in np.linspace(0.0, 0.3, 13):
        cur = abs(coupling(apply_fiber_loss(base, float(gf))).j_oracle)
        assert cur <= prev + 1e-12 * j0
        expect = j0 * math.exp(-2.0 * float(gf))
        assert abs(cur - expect) <= 0.05 * expect
        prev = cur


def test_near_recycling_coupling_grows_without_bound():
    # shrinking delta and the phase sum at fixed drive inflates |j|
    ref = coupling(
        NetworkParams(gamma=1.0, delta=1.0, chi=0.1, drive=1.0, phi12=5e-4, phi21=5e-4)
    )
    near = coupling(
        NetworkParams(gamma=1.0, delta=1e-3, chi=0.1, drive=1.0, phi12=5e-4, phi21=5e-4)
    )
    assert abs(near.j_oracle) > 1e6 * abs(ref.j_oracle)


def test_recycling_guard_names_the_denominator():
    p = NetworkParams(gamma=1.0, delta=0.0, chi=0.1, drive=1.0, phi12=0.0, phi21=0.0)
    with pytest.raises(ResonantRecycling) as err:
        steady_fields(p)
    assert "denominator" in str(err.value)
    with pytest.raises(ResonantRecycling):
        coupling(p)


def test_largedelta_lossy_reference_values():
    assert math.isclose(
        coupling_largedelta_lossy(1.0, 0.0806), math.exp(-0.1612), rel_tol=1e-12
    )
    assert abs(coupling_largedelta_lossy(1.0, 0.0806) - 0.8513) <= 1e-3
    assert abs(coupling_largedelta_lossy(1.0, 0.08) - 0.8521) <= 1e-4
    assert coupling_largedelta_lossy(2.5, 0.0) == 2.5
    with pytest.raises(NegativeLoss):
        coupling_largedelta_lossy(1.0, -0.1)


@pytest.mark.parametrize("gamma_f", [math.inf, math.nan])
def test_largedelta_lossy_refuses_a_non_finite_exponent(gamma_f):
    with pytest.raises(OutOfRange, match="finite"):
        coupling_largedelta_lossy(1.0, gamma_f)


def test_denominator_gamma_zero():
    p = NetworkParams(gamma=0.0, delta=2.0, chi=0.1, drive=1.0, phi12=0.0, phi21=0.0)
    assert cmath.isclose(denominator(p), -4.0 + 0.0j, abs_tol=1e-12)


def test_regime_diagnostics_fire_and_clear():
    bad = NetworkParams(gamma=0.4, delta=0.0, chi=0.5, drive=0.1, phi12=1.0, phi21=2.0)
    assert len(validate_regime(bad, steady_fields(bad))) == 3
    good = NetworkParams(gamma=50.0, delta=1.0, chi=0.1, drive=2e5, phi12=1.0, phi21=2.0)
    assert validate_regime(good, steady_fields(good)) == []
    off = dataclasses.replace(bad, chi=0.0)
    assert validate_regime(off, steady_fields(off)) == []


def test_apply_fiber_loss_returns_new_params():
    p = NetworkParams(**SYM)
    q = apply_fiber_loss(p, 0.2)
    assert q.gamma_f == 0.2 and p.gamma_f == 0.0
    assert q.gamma == p.gamma and q.drive == p.drive
    with pytest.raises(NegativeLoss):
        apply_fiber_loss(p, -0.2)


@pytest.mark.parametrize("gamma_f", [math.inf, math.nan])
def test_apply_fiber_loss_refuses_a_non_finite_exponent(gamma_f):
    with pytest.raises(OutOfRange, match="finite"):
        apply_fiber_loss(NetworkParams(**SYM), gamma_f)


def test_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(gamma=-1.0, delta=0.0, chi=0.1, drive=1.0, phi12=0.0, phi21=0.0)
    with pytest.raises(NegativeLoss):
        NetworkParams(
            gamma=1.0, delta=0.0, chi=0.1, drive=1.0, phi12=0.0, phi21=0.0, gamma_f=-0.1
        )
    with pytest.raises(ValueError):
        NetworkParams(gamma=math.nan, delta=0.0, chi=0.1, drive=1.0, phi12=0.0, phi21=0.0)


def test_phases_stored_mod_two_pi():
    p = NetworkParams(
        gamma=1.0, delta=0.0, chi=0.1, drive=1.0, phi12=2.0 * math.pi + 0.25, phi21=-0.25
    )
    assert math.isclose(p.phi12, 0.25, abs_tol=1e-12)
    assert math.isclose(p.phi21, 2.0 * math.pi - 0.25, abs_tol=1e-12)
