"""Raman coupling estimate, decibel loss conversions, and consistency checks."""

import math

import pytest

from fiberspin import (
    FIBER_PRESET,
    RAMAN_PRESET,
    FiberLossSpec,
    LossConvention,
    NegativeLoss,
    NetworkParams,
    NonpositiveGamma,
    OutOfRange,
    RamanParams,
    ZeroDetuning,
    chi_from_raman,
    coupling,
    denominator,
    gamma_f_from_db,
    j_estimate,
    lossy_coupling_report,
    steady_fields,
)

TWO_PI = 2.0 * math.pi


def test_chi_from_raman_reference():
    chi, sign = chi_from_raman(RAMAN_PRESET)
    assert abs(chi - TWO_PI) <= 1e-12 * TWO_PI
    assert sign == -1.0
    flipped = RamanParams(g=TWO_PI * 2.5, omega=TWO_PI * 8.0, delta_a=TWO_PI * 20.0, gamma=1.0, nbar=100.0)
    assert chi_from_raman(flipped)[1] == 1.0
    silent = RamanParams(g=0.0, omega=TWO_PI * 8.0, delta_a=TWO_PI * 20.0, gamma=1.0, nbar=100.0)
    assert chi_from_raman(silent) == (0.0, 0.0)


def test_j_estimate_reference_values():
    chi, _ = chi_from_raman(RAMAN_PRESET)
    j100 = j_estimate(chi, 100.0, RAMAN_PRESET.gamma)
    j50 = j_estimate(chi, 50.0, RAMAN_PRESET.gamma)
    assert abs(j100 - 50.26548245743669) <= 1e-9
    assert abs(j50 - 0.5 * j100) <= 1e-12
    assert j_estimate(chi, 0.0, RAMAN_PRESET.gamma) == 0.0
    with pytest.raises(NonpositiveGamma):
        j_estimate(chi, 100.0, 0.0)


def test_raman_params_guards():
    with pytest.raises(ZeroDetuning):
        RamanParams(g=1.0, omega=1.0, delta_a=0.0, gamma=1.0, nbar=1.0)
    with pytest.raises(NonpositiveGamma):
        RamanParams(g=1.0, omega=1.0, delta_a=1.0, gamma=0.0, nbar=1.0)
    with pytest.raises(ValueError):
        RamanParams(g=1.0, omega=1.0, delta_a=1.0, gamma=1.0, nbar=-1.0)
    with pytest.raises(ValueError):
        RamanParams(g=math.inf, omega=1.0, delta_a=1.0, gamma=1.0, nbar=1.0)


def test_gamma_f_conversions():
    gf = gamma_f_from_db(FIBER_PRESET)
    assert abs(gf - 0.35 * math.log(10.0) / 10.0) <= 1e-15
    amp = FiberLossSpec(0.35, 1.0, LossConvention.AMPLITUDE)
    assert abs(gamma_f_from_db(amp) - 0.5 * gf) <= 1e-15
    long_run = FiberLossSpec(0.35, 3.0, LossConvention.POWER)
    assert abs(gamma_f_from_db(long_run) - 3.0 * gf) <= 1e-12
    assert gamma_f_from_db(FiberLossSpec(0.0, 5.0, LossConvention.POWER)) == 0.0
    with pytest.raises(NegativeLoss):
        FiberLossSpec(-0.1, 1.0, LossConvention.POWER)
    with pytest.raises(ValueError):
        FiberLossSpec(0.35, 1.0, "power")


def test_lossy_coupling_report():
    gf = gamma_f_from_db(FIBER_PRESET)
    rep = lossy_coupling_report(1.0, gf)
    assert abs(rep.single - math.exp(-gf)) <= 1e-15
    assert abs(rep.squared - math.exp(-2.0 * gf)) <= 1e-15
    assert abs(rep.squared - rep.single**2) <= 1e-15
    scaled = lossy_coupling_report(50.0, gf)
    assert abs(scaled.single - 50.0 * rep.single) <= 1e-12
    with pytest.raises(NegativeLoss):
        lossy_coupling_report(1.0, -0.1)


def test_gamma_f_from_db_refuses_an_overflowing_exponent():
    for convention in LossConvention:
        with pytest.raises(OutOfRange, match="overflows"):
            gamma_f_from_db(FiberLossSpec(1e308, 10.0, convention))


@pytest.mark.parametrize("gamma_f", [math.inf, math.nan])
def test_lossy_coupling_report_refuses_a_non_finite_exponent(gamma_f):
    # a negative exponent stays NegativeLoss; one that is not a number is out of range
    with pytest.raises(OutOfRange, match="finite"):
        lossy_coupling_report(1.0, gamma_f)


def _driven_point(delta, nbar):
    chi, _ = chi_from_raman(RAMAN_PRESET)
    gamma = RAMAN_PRESET.gamma
    probe = NetworkParams(
        gamma=gamma, delta=delta, chi=chi, drive=1.0, phi12=math.pi / 4.0, phi21=math.pi / 4.0
    )
    drive = math.sqrt(nbar) * abs(denominator(probe)) / abs(complex(gamma, delta))
    return NetworkParams(
        gamma=gamma, delta=delta, chi=chi, drive=drive, phi12=math.pi / 4.0, phi21=math.pi / 4.0
    )


def test_estimate_within_factor_two_at_limit_point():
    # on resonance with phase sum pi/2 the denominator stays regular and
    # the full coupling lands exactly on the factor-two boundary: the
    # estimate keeps one of the two directional contributions
    chi, _ = chi_from_raman(RAMAN_PRESET)
    est = j_estimate(chi, 100.0, RAMAN_PRESET.gamma)
    p = _driven_point(0.0, 100.0)
    s = steady_fields(p)
    assert abs(abs(s.alpha) ** 2 - 100.0) <= 1e-9 * 100.0
    r = coupling(p)
    ratio = abs(r.j_oracle) / est
    assert 0.5 - 1e-9 <= ratio <= 2.0 + 1e-9
    assert abs(abs(r.j_single) - est) <= 1e-10 * est


def test_estimate_drift_off_resonance():
    # away from resonance the one-directional estimate undercounts and
    # the measured ratio drifts just above two
    chi, _ = chi_from_raman(RAMAN_PRESET)
    est = j_estimate(chi, 100.0, RAMAN_PRESET.gamma)
    r = coupling(_driven_point(RAMAN_PRESET.gamma / 20.0, 100.0))
    ratio = abs(r.j_oracle) / est
    assert 2.0 < ratio < 2.5


def test_presets_match_stated_experiment():
    assert RAMAN_PRESET.g == TWO_PI * 2.5
    assert RAMAN_PRESET.omega == TWO_PI * 8.0
    assert RAMAN_PRESET.delta_a == -TWO_PI * 20.0
    assert RAMAN_PRESET.gamma == TWO_PI * 6.25
    assert RAMAN_PRESET.nbar == 100.0
    assert FIBER_PRESET.db_per_km == 0.35
    assert FIBER_PRESET.length_km == 1.0
    assert FIBER_PRESET.convention is LossConvention.POWER
