"""Concurrence (pure and mixed routes), entanglement of formation, traces."""

import math
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberspin import (
    BadGrid,
    DegenerateEta,
    EntanglementTrace,
    InvalidDensityMatrix,
    NotNormalized,
    OutOfRange,
    concurrence_mixed,
    concurrence_pure,
    entanglement_blocks,
    entanglement_trace,
    eof_from_concurrence,
    evolve_analytic,
    kernels,
    tau_star,
)
from fiberspin.entanglement import _BLOCK_ROWS, MAX_GRID_POINTS
from fiberspin.spins import initial_coefficients

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_local_unitary(rng):
    def u2():
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(a)
        d = np.diag(r)
        return q * (d / np.abs(d))

    return np.kron(u2(), u2())


def werner(p):
    return (1.0 - p) * np.eye(4, dtype=complex) / 4.0 + p * np.outer(SINGLET, SINGLET.conj())


def test_pure_extremes():
    assert abs(concurrence_pure(SINGLET) - 1.0) <= 1e-12
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    assert abs(concurrence_pure(bell) - 1.0) <= 1e-15
    assert concurrence_pure(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)) == 0.0
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    assert concurrence_pure(np.kron(plus, plus)) <= 1e-15
    with pytest.raises(NotNormalized):
        concurrence_pure(2.0 * SINGLET)
    with pytest.raises(ValueError):
        concurrence_pure(np.ones(3, dtype=complex) / math.sqrt(3.0))


def test_werner_concurrence():
    assert abs(concurrence_mixed(werner(0.8)) - 0.7) <= 1e-12
    assert concurrence_mixed(werner(0.2)) == 0.0
    assert concurrence_mixed(werner(1.0 / 3.0)) <= 1e-10
    assert concurrence_mixed(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_mixed_route_agrees_with_pure():
    rng = np.random.default_rng(21)
    for _ in range(200):
        psi = random_state(rng)
        rho = np.outer(psi, psi.conj())
        assert abs(concurrence_mixed(rho) - concurrence_pure(psi)) <= 1e-8


def test_local_unitary_invariance():
    rng = np.random.default_rng(22)
    for _ in range(200):
        psi = random_state(rng)
        u = random_local_unitary(rng)
        assert abs(concurrence_pure(u @ psi) - concurrence_pure(psi)) <= 1e-9
        rho = np.outer(psi, psi.conj())
        assert abs(concurrence_mixed(u @ rho @ u.conj().T) - concurrence_mixed(rho)) <= 1e-9


def _density_stack(rng):
    """Pure, rank-2, full-rank, Werner and maximally mixed density matrices."""
    rhos = [werner(0.8), werner(0.2), np.eye(4, dtype=complex) / 4.0]
    for _ in range(40):
        psi = random_state(rng)
        rhos.append(np.outer(psi, psi.conj()))
        a, b = random_state(rng), random_state(rng)
        rhos.append(0.7 * np.outer(a, a.conj()) + 0.3 * np.outer(b, b.conj()))
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        full = g @ g.conj().T
        rhos.append(full / np.trace(full).real)
    return np.array(rhos)


def test_stacked_concurrence_equals_per_matrix_loop():
    rng = np.random.default_rng(23)
    rhos = _density_stack(rng)
    stacked = concurrence_mixed(rhos)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (len(rhos),)
    one_by_one = [concurrence_mixed(rho) for rho in rhos]
    assert all(type(c) is float for c in one_by_one)
    assert np.array_equal(stacked, one_by_one)
    # the same matrices in another order and stack size keep their bits
    order = rng.permutation(len(rhos))[:17]
    assert np.array_equal(concurrence_mixed(rhos[order]), stacked[order])
    psis = np.array([random_state(rng) for _ in range(50)])
    pure = concurrence_pure(psis)
    assert isinstance(pure, np.ndarray) and pure.shape == (50,)
    assert np.array_equal(pure, [concurrence_pure(psi) for psi in psis])
    assert type(concurrence_pure(psis[0])) is float
    assert np.max(np.abs(pure - concurrence_mixed(psis[:, :, None] * psis.conj()[:, None, :]))) <= 1e-8


def test_stacked_concurrence_checks_every_member():
    rhos = np.array([werner(0.5)] * 3)
    rhos[1] *= 2.0
    with pytest.raises(InvalidDensityMatrix):
        concurrence_mixed(rhos)
    psis = np.array([SINGLET] * 3)
    psis[2] *= 2.0
    with pytest.raises(NotNormalized):
        concurrence_pure(psis)
    with pytest.raises(InvalidDensityMatrix):
        concurrence_mixed(np.zeros((2, 2, 4, 4)))
    with pytest.raises(ValueError):
        concurrence_pure(np.zeros((2, 2, 4)))


def test_density_matrix_validation():
    with pytest.raises(InvalidDensityMatrix):
        concurrence_mixed(np.eye(3, dtype=complex) / 3.0)
    skew = np.eye(4, dtype=complex) / 4.0
    skew[0, 1] = 0.2
    with pytest.raises(InvalidDensityMatrix):
        concurrence_mixed(skew)
    with pytest.raises(InvalidDensityMatrix):
        concurrence_mixed(np.eye(4, dtype=complex) / 2.0)
    with pytest.raises(InvalidDensityMatrix):
        concurrence_mixed(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))


def test_density_matrix_within_tolerance_of_hermitian():
    # a defect the density-matrix check allows must not trip the eigensolver's
    # stricter, relative Hermiticity check; the Hermitian part is used
    rho = werner(0.8)
    off = rho.copy()
    off[0, 1] += 5e-11
    assert abs(concurrence_mixed(off) - 0.7) <= 1e-9
    assert concurrence_mixed(rho) == concurrence_mixed(0.5 * (rho + rho.conj().T))


def test_eof_reference_values():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0
    assert abs(eof_from_concurrence(0.5) - 0.35457890266527003) <= 1e-12
    grid = np.linspace(0.0, 1.0, 101)
    vals = [eof_from_concurrence(float(c)) for c in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(OutOfRange):
            eof_from_concurrence(bad)


def test_trace_grid_shape_and_values():
    tr = entanglement_trace(0.1, 10.0, 0.01)
    assert tr.taus.size == 1001
    assert tr.values[0] == 0.0
    assert float(tr.taus[-1]) == pytest.approx(10.0, abs=1e-9)
    assert np.all((tr.values >= 0.0) & (tr.values <= 1.0))


def test_trace_matches_pointwise_evolution():
    tr = entanglement_trace(0.1, 10.0, 0.01)
    for i in (0, 1, 250, 777, 1000):
        psi = evolve_analytic(0.1, float(tr.taus[i]))
        expect = eof_from_concurrence(concurrence_pure(psi))
        assert abs(float(tr.values[i]) - expect) <= 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eta=0.1, tau_max=10.0, step=0.0),
        dict(eta=0.1, tau_max=10.0, step=-0.01),
        dict(eta=0.1, tau_max=10.0, step=0.2),
        dict(eta=0.1, tau_max=0.001, step=0.01),
        dict(eta=0.1, tau_max=math.inf, step=0.01),
    ],
)
def test_trace_grid_guards(kwargs):
    with pytest.raises(BadGrid):
        entanglement_trace(**kwargs)


class _KernelReached(Exception):
    pass


def test_trace_grid_cap_refuses_before_allocating(monkeypatch):
    calls = []

    def kernel(eta, step, n, start=0):
        calls.append((n, start))
        raise _KernelReached

    monkeypatch.setattr(kernels, "ent_trace_grid", kernel)
    step = 0.0625  # binary-exact, so tau_max / step is an exact count
    with pytest.raises(_KernelReached):
        entanglement_trace(0.1, (MAX_GRID_POINTS - 1) * step, step)
    # the whole grid reached the kernel in one call
    assert calls == [(MAX_GRID_POINTS, 0)]
    tracemalloc.start()
    try:
        for tau_max, s in ((MAX_GRID_POINTS * step, step), (1e7, 0.01), (1e300, 1e-300)):
            with pytest.raises(BadGrid):
                entanglement_trace(0.1, tau_max, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [(MAX_GRID_POINTS, 0)]
    assert peak < 1 << 20


def test_trace_container_rejects_ragged_grid():
    # the check runs on _BLOCK_ROWS-sized slices; a bad value at either side
    # of a slice edge, or at the grid's last point, still fails
    for k in (_BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS):
        values = np.zeros(2 * _BLOCK_ROWS + 1)
        values[k] = 1.5
        with pytest.raises(ValueError, match="escaped"):
            EntanglementTrace(eta=0.1, step=0.01, values=values)


def test_trace_container_refuses_lists_with_bad_grid():
    with pytest.raises(BadGrid):
        EntanglementTrace(eta=0.1, step=0.01, values=[0.0, 0.0])


@pytest.mark.parametrize("step", [math.nan, 0.0, -0.01, math.inf, -math.inf])
def test_trace_container_refuses_a_bad_step_at_any_length(step):
    for size in (1, 2):
        with pytest.raises(BadGrid):
            EntanglementTrace(eta=0.1, step=step, values=np.zeros(size))


@pytest.mark.parametrize("start", [-1, 1.5, None])
def test_trace_container_refuses_a_bad_start(start):
    with pytest.raises(BadGrid):
        EntanglementTrace(eta=0.1, step=0.01, values=np.zeros(2), start=start)


#: the float64 result array of a 2**22-point trace, 32 MiB
_TRACE_ARRAY = 8 * 2**22


@pytest.mark.skipif(sys.platform != "linux", reason="reads a child's peak RSS from /proc/self/status")
def test_trace_memory_is_its_one_array():
    # the child's peak RSS after a one-block trace is its floor: the
    # interpreter, numpy and one block's work. A 2**22-point trace may add
    # its one result array and 10% more. Measured: 1.006 times the array;
    # a trace that also held its taus read 2.0 times, and a whole-grid
    # kernel call with whole-grid checks 5.0 times. The peak is VmHWM, not
    # ru_maxrss: Linux carries a parent's ru_maxrss into its child across
    # exec, so a test process larger than the child would hide the child's
    # own peak
    probe = (
        "import re; from fiberspin.entanglement import _BLOCK_ROWS, entanglement_trace\n"
        "def peak(): return re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1]\n"
        "entanglement_trace(0.1, (_BLOCK_ROWS - 1) * 0.01, 0.01)\n"
        "floor = peak()\n"
        "entanglement_trace(0.1, (2**22 - 1) * 0.01, 0.01)\n"
        "print(floor, peak())"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
    floor, peak = (1024 * int(kib) for kib in r.stdout.split())
    assert peak - floor <= 1.1 * _TRACE_ARRAY, (floor, peak)


@pytest.mark.parametrize(
    "eta, tau_max",
    # one short block, exactly one full block, one more point, exactly two, a
    # partial third, and a grid whose last phase is beyond 2**60 while its
    # first block's is not
    [(0.3, 0.01), (0.3, 163.83), (0.3, 163.84), (0.3, 327.67), (0.3, 400.0), (1e15, 1000.0)],
)
def test_blocks_are_the_trace_bit_for_bit(eta, tau_max):
    assert _BLOCK_ROWS == 16_384
    step = 0.01
    # the reference is one kernel call on the whole grid, as entanglement_trace makes
    n = round(tau_max / step) + 1
    taus, values = np.arange(n) * step, kernels.ent_trace_grid(eta, step, n)
    blocks = list(entanglement_blocks(eta, tau_max, step))
    assert all(b.taus.size <= _BLOCK_ROWS for b in blocks)
    assert np.array_equal(np.concatenate([b.taus for b in blocks]), taus)
    assert np.array_equal(np.concatenate([b.values for b in blocks]), values)
    whole = entanglement_trace(eta, tau_max, step)
    assert np.array_equal(whole.taus, taus)
    assert np.array_equal(whole.values, values)


def test_blocks_refuse_the_whole_grid_before_returning(monkeypatch):
    made = []
    real = kernels.ent_trace_grid

    def kernel(eta, step, n, start=0):
        made.append(start)
        return real(eta, step, n, start=start)

    monkeypatch.setattr(kernels, "ent_trace_grid", kernel)
    with pytest.raises(BadGrid):
        entanglement_blocks(0.1, 1e7, 0.01)
    # the first block passes the kernel's phase guard; the grid's last point does not
    kernels.check_grid(1e305, 0.01, _BLOCK_ROWS)
    with pytest.raises(DegenerateEta):
        entanglement_blocks(1e305, 1000.0, 0.01)
    assert made == []
    # the first block is made and checked on the call, the rest as they are reached
    blocks = entanglement_blocks(0.1, 400.0, 0.01)
    assert made == [0]
    next(blocks)
    next(blocks)
    assert made == [0, _BLOCK_ROWS]
    # a whole-grid trace makes one kernel call, on the whole grid, which
    # refuses the grid's last phase as the blocks do
    made.clear()
    entanglement_trace(0.1, 400.0, 0.01)
    assert made == [0]
    with pytest.raises(DegenerateEta):
        entanglement_trace(1e305, 1000.0, 0.01)


def test_blocks_are_not_held_once_drawn():
    # the iterator keeps no block alive after handing it out, block 0 included,
    # so a caller that writes each block and drops it holds one block at most
    blocks = entanglement_blocks(0.1, 1000.0, 0.01)
    alive = [weakref.ref(next(blocks)) for _ in range(3)]
    assert [ref() is not None for ref in alive] == [False, False, False]


def test_small_eta_stays_unentangled():
    tr = entanglement_trace(1e-3, 50.0, 0.01)
    assert float(np.max(tr.values)) <= 1e-2


def test_tau_star_tolerance_extremes():
    loose = tau_star(0.4, window=50.0, step=0.01, tolerance=1.0)
    assert loose.tau_star == 0.0
    tight = tau_star(0.4, window=50.0, step=0.01, tolerance=0.0)
    tr = entanglement_trace(0.4, 50.0, 0.01)
    idx = int(round(tight.tau_star / 0.01))
    assert float(tr.values[idx]) == tight.e_max
    with pytest.raises(OutOfRange):
        tau_star(0.4, window=50.0, step=0.01, tolerance=-0.5)


def test_tau_star_decreases_with_eta_short_window():
    slow = tau_star(0.2, window=100.0, step=0.01, tolerance=1e-2)
    fast = tau_star(0.4, window=100.0, step=0.01, tolerance=1e-2)
    assert fast.tau_star < slow.tau_star


def _full_grid_tau_star(eta, window, step, tolerance):
    """tau_star and e_max read off the whole kernel grid, the way the definition says."""
    n = int(math.floor(window / step + 1e-9)) + 1
    values = kernels.ent_trace_grid(eta, step, n)
    e_max = float(values.max())
    idx = int(np.argmax(values >= e_max - tolerance))
    return float(np.arange(n, dtype=np.float64)[idx] * step), e_max


@given(
    eta=st.floats(min_value=1e-3, max_value=5.0),
    step=st.sampled_from([0.01, 0.003, 0.05, 0.1, 0.0137]),
    window=st.floats(min_value=0.1, max_value=3000.0),
    tolerance=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=1.0, max_value=3.0)
    ),
)
@settings(max_examples=150, deadline=None)
@example(eta=0.1, step=0.01, window=1e4, tolerance=1e-2)
@example(eta=0.4, step=0.01, window=50.0, tolerance=0.0)
@example(eta=1e-3, step=0.01, window=1e4, tolerance=0.0)
@example(eta=5.0, step=0.1, window=0.1, tolerance=1.0)
def test_tau_star_bit_equals_full_grid(eta, step, window, tolerance):
    window = max(window, step)
    r = tau_star(eta, window=window, step=step, tolerance=tolerance)
    assert (r.tau_star, r.e_max) == _full_grid_tau_star(eta, window, step, tolerance)


def test_tau_star_uses_block_peaks_only_as_upper_bounds(monkeypatch):
    # a raised peak may cost confirming calls but never changes the result;
    # here the argmax of the peaks points at a block far from the maximum
    want = tau_star(0.3, window=100.0, step=0.01, tolerance=1e-3)
    real = kernels.conc2_block_max

    def raised(*args):
        peaks, margin = real(*args)
        peaks[0] = 1.5
        return peaks, margin

    monkeypatch.setattr(kernels, "conc2_block_max", raised)
    assert tau_star(0.3, window=100.0, step=0.01, tolerance=1e-3) == want
    assert want.tau_star > 10.24  # past block 0, so block 0 is confirmed and passed over


@pytest.mark.parametrize("eta, tolerance", [(0.3, 1e-3), (0.1, 1e-2), (0.05, 0.0)])
def test_tau_star_adds_the_margin_to_every_peak(monkeypatch, eta, tolerance):
    # conc2_block_max promises only that each peak is within margin of the
    # block's largest C^2; peaks that all sit a whole margin low keep that
    # promise, and tau_star must still find what it finds on the exact ones
    want = tau_star(eta, window=300.0, step=0.01, tolerance=tolerance)
    real = kernels.conc2_block_max

    def lowered(*args):
        peaks, _ = real(*args)
        return peaks - 1e-3, 1e-3

    monkeypatch.setattr(kernels, "conc2_block_max", lowered)
    assert tau_star(eta, window=300.0, step=0.01, tolerance=tolerance) == want


def test_tau_star_memory_stays_per_chunk():
    # 10^6 points: the full trace alone would be 8 MB of E and 8 MB of taus
    tau_star(0.1, window=1e4, step=1e-2, tolerance=1e-2)  # warm caches and imports
    tracemalloc.start()
    try:
        r = tau_star(0.1, window=1e4, step=1e-2, tolerance=1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert (r.tau_star, r.e_max) == _full_grid_tau_star(0.1, 1e4, 1e-2, 1e-2)


def test_tau_star_guards():
    with pytest.raises(OutOfRange):
        tau_star(0.4, window=50.0, step=0.01, tolerance=math.nan)
    with pytest.raises(BadGrid):
        tau_star(0.4, window=50.0, step=0.2)
    with pytest.raises(BadGrid):
        tau_star(0.4, window=0.001, step=0.01)
    with pytest.raises(BadGrid):
        tau_star(0.4, window=1e7, step=0.01)
    for eta in (0.0, -0.4, math.nan):
        with pytest.raises(DegenerateEta):
            tau_star(eta, window=50.0, step=0.01)


@pytest.mark.parametrize("eta", [1e160, 1e200])
def test_huge_eta_tau_star_and_evolution(eta):
    # eta*eta overflows, yet every route stays finite and agrees: as
    # eta -> infinity the state from |gg> has C = |sin 2 tau|
    c = initial_coefficients(eta)
    assert abs(sum(x * x for x in c) - 1.0) <= 1e-15
    for tau in (0.0, 0.3, 0.79, 7.0):
        psi = evolve_analytic(eta, tau)
        assert abs(float(np.linalg.norm(psi)) - 1.0) <= 1e-12
        assert abs(concurrence_pure(psi) - abs(math.sin(2.0 * tau))) <= 1e-12
    r = tau_star(eta, window=10.0, step=0.01, tolerance=1e-2)
    assert (r.tau_star, r.e_max) == _full_grid_tau_star(eta, 10.0, 0.01, 1e-2)
    assert r.tau_star == 0.73
    limit = max(eof_from_concurrence(abs(math.sin(2.0 * k * 0.01))) for k in range(1001))
    assert abs(r.e_max - limit) <= 1e-12
