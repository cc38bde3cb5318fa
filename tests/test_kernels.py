"""Trace kernel: constants, blocks, and agreement with the slow route."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberspin import backend, concurrence_pure, eof_from_concurrence, evolve_analytic, kernels
from fiberspin.errors import BadGrid, DegenerateEta
from fiberspin.kernels import BLOCK, check_grid, conc2_block_max, ent_trace_grid, trace_constants

#: etas of the long-time agreement checks, from nearly unentangling to fast beats
ROUTE_ETAS = (1e-3, 0.05, 0.1, 0.3, 0.8, 2.0)

#: kernel vs evolve_analytic up to tau = 1e4; both phase routes round
#: differently, evolve_analytic's by up to about 5e-12 in E there
ROUTE_TOL = 1e-11


def reference_e(eta, tau):
    return eof_from_concurrence(concurrence_pure(evolve_analytic(eta, tau)))


def test_kernel_matches_evolve_analytic_to_tau_1e4():
    n = 1_000_001  # tau = 0, 0.01, ..., 1e4
    rng = np.random.default_rng(4)
    picks = np.concatenate([rng.integers(0, n, 150), np.arange(n - 50, n)])
    for eta in ROUTE_ETAS:
        values = ent_trace_grid(eta, 0.01, n)
        worst = max(abs(float(values[k]) - reference_e(eta, k * 0.01)) for k in picks.tolist())
        assert worst <= ROUTE_TOL, (eta, worst)


def test_kernel_offset_grids_match_evolve_analytic():
    # grids that start late on a fine grid, or in a block of a longer grid
    for eta in ROUTE_ETAS:
        late_start = 9756 * BLOCK  # tau = 9990.144 on the 0.001 grid
        late = ent_trace_grid(eta, 0.001, 10_001, start=late_start)
        for k in (0, 1, 4321, 10_000):
            assert abs(float(late[k]) - reference_e(eta, (late_start + k) * 0.001)) <= ROUTE_TOL
        start = 976 * BLOCK  # the block holding tau = 1e4 on the 0.01 grid
        tail = ent_trace_grid(eta, 0.01, 1001, start=start)
        for j in (0, 1, 500, 1000):
            assert abs(float(tail[j]) - reference_e(eta, (start + j) * 0.01)) <= ROUTE_TOL
    assert backend() == "python"


@pytest.mark.parametrize("eta", [0.05, 0.3, 1.0, 2.0])
def test_trace_constants_identities(eta):
    a1, a4, b1, b4, omega = trace_constants(eta)
    s = math.sqrt(1.0 + eta * eta)
    assert abs(a1 + a4 - 0.5) <= 1e-15
    assert abs(b1 + b4) <= 1e-15
    assert abs(b1 + eta / (4.0 * s)) <= 1e-15
    assert abs(omega - 2.0 * s) <= 1e-15
    assert a1 > 0.0 and a4 > 0.0


@pytest.mark.parametrize("eta", [5e-324, 1e-315, 1e-310])
def test_subnormal_eta_leaves_gg_unentangled(eta):
    a1, a4, b1, b4, omega = trace_constants(eta)
    assert abs(a1 + a4 - 0.5) <= 1e-15
    assert float(np.max(ent_trace_grid(eta, 0.01, 1001))) == 0.0


def test_trace_constants_degenerate_eta():
    with pytest.raises(DegenerateEta):
        trace_constants(0.0)
    with pytest.raises(DegenerateEta):
        trace_constants(-0.3)


def test_grid_matches_pointwise_evolution():
    vals = ent_trace_grid(0.35, 0.037, 200)
    for k in (0, 1, 57, 199):
        tau = 0.037 * k
        expect = eof_from_concurrence(concurrence_pure(evolve_analytic(0.35, tau)))
        assert abs(float(vals[k]) - expect) <= 1e-12


def test_no_exact_period_pi():
    # frequencies 2 and 2*sqrt(1+eta^2) share no common period: the grid
    # shifted by 314 of its pi/314 steps differs from itself
    full = ent_trace_grid(0.1, math.pi / 314, 1001 + 314)
    assert float(np.max(np.abs(full[:1001] - full[314:]))) > 1e-3


def test_grid_guards():
    with pytest.raises(BadGrid):
        ent_trace_grid(0.1, 0.01, 0)
    with pytest.raises(BadGrid):
        ent_trace_grid(0.1, -0.01, 10)
    with pytest.raises(BadGrid):
        ent_trace_grid(0.1, math.nan, 10)
    with pytest.raises(DegenerateEta):
        ent_trace_grid(0.0, 0.01, 10)


@pytest.mark.parametrize(
    "args, error",
    [
        ((0.1, 0.01, 0), BadGrid),
        ((0.1, -0.01, 10), BadGrid),
        ((0.1, math.nan, 10), BadGrid),
        ((0.1, 0.01, 10, 5), BadGrid),
        ((0.1, 0.01, 10, -BLOCK), BadGrid),
        ((0.0, 0.01, 10), DegenerateEta),
        ((1.7e308, 0.01, 10), DegenerateEta),
        ((1e300, 1e10, 10), DegenerateEta),
        # only the last point's phase overflows, at k = start + n
        ((1e305, 0.01, BLOCK, 99 * BLOCK), DegenerateEta),
    ],
)
def test_check_grid_refuses_what_the_kernel_refuses(args, error):
    with pytest.raises(error):
        ent_trace_grid(*args)
    with pytest.raises(error):
        check_grid(*args)


def test_block_calls_match_the_full_grid_bit_for_bit():
    n = 5 * BLOCK + 321
    # at eta = 1.3e15 and step 0.1 the phase passes 2**60 between blocks 2 and
    # 3 of the grid, where the blocks stop carrying rounding-error terms
    for eta, step in ((0.37, 0.01), (1.9, 0.01), (1.3e15, 0.1)):
        full = ent_trace_grid(eta, step, n)
        for b in range(6):
            lo = b * BLOCK
            part = ent_trace_grid(eta, step, min(BLOCK, n - lo), start=lo)
            assert np.array_equal(part, full[lo : lo + BLOCK])
        # two blocks at once, and the block maxima of C^2 that tau_star scans
        assert np.array_equal(ent_trace_grid(eta, step, 2 * BLOCK, start=BLOCK), full[BLOCK : 3 * BLOCK])
        peaks, margin = conc2_block_max(eta, step, n)
        assert peaks.shape == (6,)
        e_of_peaks = [eof_from_concurrence(math.sqrt(min(c, 1.0))) for c in peaks.tolist()]
        for b, e in enumerate(e_of_peaks):
            assert abs(float(full[b * BLOCK : (b + 1) * BLOCK].max()) - e) <= 1e-14
    with pytest.raises(BadGrid):
        ent_trace_grid(0.1, 0.01, 10, start=5)
    with pytest.raises(BadGrid):
        ent_trace_grid(0.1, 0.01, 10, start=-BLOCK)


def _elementwise_block_peaks(eta, step, n):
    """The largest C^2 of each block as _Grid.conc2 computes it, the values ent_trace_grid turns into E."""
    grid = kernels._Grid(eta, step, n, 0)
    return np.concatenate([grid.conc2(*span).max(axis=1) for span in grid.spans()])


@given(
    eta=st.floats(min_value=1e-3, max_value=1e3),
    step=st.floats(min_value=1e-3, max_value=0.1),
    n=st.one_of(st.integers(min_value=1, max_value=BLOCK), st.integers(min_value=1, max_value=70 * BLOCK)),
)
@settings(max_examples=120, deadline=None)
# the phase passes 2**60 between blocks 2 and 3, where the blocks stop
# carrying rounding-error terms
@example(eta=1.3e15, step=0.1, n=5 * BLOCK + 321)
@example(eta=0.1, step=0.01, n=1_000_001)  # a taustar grid, short last block
@example(eta=0.37, step=0.01, n=BLOCK - 1)
@example(eta=2.0, step=0.05, n=1)
def test_block_peaks_are_within_their_margin(eta, step, n):
    # the margin is a rounding bound over any BLAS; the elementwise block
    # maxima are what tau_star's bounds must cover
    peaks, margin = conc2_block_max(eta, step, n)
    want = _elementwise_block_peaks(eta, step, n)
    assert peaks.shape == want.shape == (-(-n // BLOCK),)
    assert isinstance(margin, float) and 0.0 < margin < 1e-13
    worst = float(np.max(np.abs(peaks - want)))
    assert worst <= margin, (worst, margin)


@pytest.mark.parametrize("eta", [1e160, 1e200])
def test_huge_eta_matches_evolve_analytic(eta):
    # eta*eta overflows here; the constants must not, and the routes agree
    a1, a4, b1, b4, omega = trace_constants(eta)
    assert all(math.isfinite(x) for x in (a1, a4, b1, b4, omega))
    values = ent_trace_grid(eta, 0.01, 1001)
    assert np.all(np.isfinite(values)) and float(values.max()) > 0.99
    for k in (0, 1, 79, 500, 1000):
        tau = k * 0.01
        assert abs(float(values[k]) - reference_e(eta, tau)) <= 1e-12
        # eta -> infinity leaves C = |sin 2 tau|
        assert abs(float(values[k]) - eof_from_concurrence(abs(math.sin(2.0 * tau)))) <= 1e-12


def test_phase_beyond_float_range_is_refused():
    with pytest.raises(DegenerateEta):
        ent_trace_grid(1.7e308, 0.01, 10)
    with pytest.raises(DegenerateEta):
        ent_trace_grid(1e300, 1e10, 10)
