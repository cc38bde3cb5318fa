"""Seeded self-check suites: the parameter sampler and the suite reports."""

import math

import numpy as np
import pytest

from fiberspin.network import NetworkParams, denominator
from fiberspin.validate import _SAMPLE_GUARD, sample_params, suite_oracle_identity


def _sample_params_one_by_one(rng):
    # reference: one rng.uniform call per parameter, in the sampler's order
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
        if abs(denominator(p)) > _SAMPLE_GUARD * (gamma * gamma + delta * delta):
            return p


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_sample_params_matches_one_uniform_per_draw(seed):
    fast = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    for _ in range(2000):
        got, want = sample_params(fast), _sample_params_one_by_one(reference)
        assert got == want
        assert all(type(v) is type(w) for v, w in zip(vars(got).values(), vars(want).values()))
    # both generators consumed the same stream
    assert fast.random() == reference.random()


def test_oracle_suite_report_is_deterministic():
    a = suite_oracle_identity(np.random.default_rng(3), samples=200)
    b = suite_oracle_identity(np.random.default_rng(3), samples=200)
    assert a == b and a.passed
    assert a.detail.endswith("over 200 draws (tol 1e-10)")
