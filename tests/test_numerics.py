"""2x2 complex solver, 4x4 Hermitian Jacobi eigensolver, state propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberspin import (
    FiberspinError,
    NotHermitian,
    NotNormalized,
    OutOfRange,
    SingularSystem,
    SpinParams,
    build_hamiltonian,
    eig_hermitian4,
    propagate,
    solve2,
)
from fiberspin import _arrays


def test_solve2_hand_check():
    m = np.array([[1.0 + 1.0j, -1.0], [-1.0, 1.0 + 1.0j]])
    x = solve2(m, np.array([1.0, 0.0]))
    assert np.allclose(x, [0.2 - 0.6j, -0.2 - 0.4j], rtol=0.0, atol=1e-14)


def test_solve2_matches_lapack():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.allclose(solve2(m, b), np.linalg.solve(m, b), rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e10, 1e-10, 1e160, 1e-160])
def test_solve2_singular_at_any_scale(scale):
    m = scale * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularSystem):
        solve2(m, np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "m_scale, rhs_scale",
    [
        (1e155, 1.0),
        (1e160, 1.0),
        (1e-160, 1.0),
        (1e160, 1e160),
        (1e-160, 1e-160),
        (1.0, 1e300),
        (1.0, 1e-300),
    ],
)
def test_solve2_extreme_scale_matches_lapack(m_scale, rhs_scale):
    # at 1e155 the determinant overflows and at 1e-160 it is subnormal
    # unless the system is rescaled first
    x = solve2(m_scale * np.eye(2, dtype=complex), rhs_scale * np.ones(2))
    assert np.allclose(x, np.full(2, rhs_scale / m_scale), rtol=4e-16, atol=0.0)
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        m, b = m_scale * m, rhs_scale * b
        ref = np.linalg.solve(m, b)
        assert np.allclose(solve2(m, b), ref, rtol=1e-11, atol=1e-12 * float(np.max(np.abs(ref))))


def test_solve2_entry_modulus_beyond_float_range():
    # finite parts whose modulus overflows: |1.5e308 * (1 + 1j)| > 1.8e308
    big = complex(1.5e308, 1.5e308)
    x = solve2([[big, 0.0], [0.0, big]], (1e300, 1e300j))
    ratio = (1e300 / 1.5e308) / complex(1.0, 1.0)
    assert np.allclose(x, [ratio, 1j * ratio], rtol=1e-15, atol=0.0)


def _times_power_of_two(z, k):
    return np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k)


@pytest.mark.parametrize(
    "k, j",
    [(450, 450), (-450, -450), (600, 0), (-600, 0), (1000, 1000), (-1000, -1000), (0, -1000)],
)
def test_solve2_power_of_two_scaling_is_exact(k, j):
    # solve2 rescales systems outside a safe band by powers of two; the
    # rescaled and the direct path must give the same bits
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        scaled = solve2(_times_power_of_two(m, k), _times_power_of_two(b, j))
        assert np.array_equal(scaled, _times_power_of_two(solve2(m, b), j - k))


def test_solve2_input_guards():
    with pytest.raises(ValueError):
        solve2(np.eye(3), np.ones(3))
    with pytest.raises(ValueError):
        solve2(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        solve2(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        solve2(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        solve2(np.eye(2), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        solve2(np.eye(2), (complex(0.0, np.nan), 0.0))


def test_solve2_accepts_lists_and_tuples():
    # a list-of-lists matrix and a tuple right-hand side are taken like arrays
    m = [[complex(1.0, 2.0), complex(-0.3, 0.1)], [complex(-0.2, 0.5), complex(1.0, 2.0)]]
    rhs = (complex(0.1, -2.0), 0.0)
    x = solve2(m, rhs)
    assert x.dtype == np.complex128 and x.shape == (2,)
    assert np.array_equal(x, solve2(np.array(m), np.array(rhs)))
    assert np.allclose(x, np.linalg.solve(np.array(m), np.array(rhs)), rtol=1e-14, atol=0.0)


STACK_SIZES = (1, 2, 7, 64, 257)


def _bits(x):
    # raw bits, so signed zeros and NaN payloads count too
    return np.ascontiguousarray(x).view(np.uint64)


def _system_pool(n, seed):
    """n well-conditioned systems; every third needs rescaling, with entries near 1e+-300."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)) + 3.0 * np.eye(2)
    b = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    m_scale = np.array([1.0, 1e300, 1e-300, 1.0, 1.0, 1e-150])[np.arange(n) % 6]
    b_scale = np.array([1.0, 1e300, 1e-300, 1e300, 1e-300, 1.0])[np.arange(n) % 6]
    return m * m_scale[:, None, None], b * b_scale[:, None]


def test_solve2_stack_is_each_system_bit_for_bit():
    m, b = _system_pool(257, 29)
    alone = np.array([solve2(m[i], b[i]) for i in range(257)])
    rng = np.random.default_rng(31)
    for n in STACK_SIZES:
        for idx in (np.arange(n), rng.permutation(257)[:n]):
            x = solve2(m[idx], b[idx])
            assert x.shape == (n, 2) and x.dtype == np.complex128
            assert np.array_equal(_bits(x), _bits(alone[idx]))
    # a list-of-lists stack is taken like an array one
    assert np.array_equal(_bits(solve2(m[:3].tolist(), b[:3].tolist())), _bits(alone[:3]))


_BAD_SYSTEMS = {
    "singular": (np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex), np.ones(2, dtype=complex)),
    "singular, rescaled": (1e-300 * np.array([[1.0, 1j], [1.0, 1j]]), np.ones(2, dtype=complex)),
    "non-finite matrix": (np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex), np.ones(2, dtype=complex)),
    "non-finite rhs": (np.eye(2, dtype=complex), np.array([1.0, complex(0.0, np.inf)])),
    "solution overflows": (1e-200 * np.eye(2, dtype=complex), np.array([1e200, 1.0], dtype=complex)),
}


@pytest.mark.parametrize("case", sorted(_BAD_SYSTEMS))
def test_solve2_stack_raises_what_its_bad_system_raises_alone(case):
    bad_m, bad_b = _BAD_SYSTEMS[case]
    with pytest.raises(FiberspinError) as alone:
        solve2(bad_m, bad_b)
    m, b = _system_pool(max(STACK_SIZES), 37)
    for n in STACK_SIZES:
        for k in sorted({0, n // 2, n - 1}):
            stack_m, stack_b = m[:n].copy(), b[:n].copy()
            stack_m[k], stack_b[k] = bad_m, bad_b
            with pytest.raises(alone.type) as stacked:
                solve2(stack_m, stack_b)
            assert str(stacked.value) == str(alone.value)


def test_a_stack_that_fails_while_every_member_passes_alone_says_so():
    # the stack and its members disagree on bits: a bug, reported as such
    # rather than as the private exception a stack guard raises
    def stack():
        _arrays._StackParts.fails(np.array([False, True, False]))

    members = []
    with pytest.raises(RuntimeError, match=r"^a stack of 3 failed but no member fails alone") as caught:
        _arrays.first_alone(stack, members.append, 3)
    assert members == [0, 1, 2]
    assert isinstance(caught.value.__cause__, _arrays._StackFailed)


def test_solve2_stack_shape_guards():
    with pytest.raises(ValueError):
        solve2(np.ones((3, 2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        solve2(np.ones((3, 2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        solve2(np.ones((3, 3, 3)), np.ones((3, 3)))
    assert solve2(np.ones((0, 2, 2)), np.ones((0, 2))).shape == (0, 2)


def test_jacobi_two_spin_spectrum():
    h = build_hamiltonian(SpinParams(j=1.0, b=0.1))
    res = eig_hermitian4(h)
    root = 2.0 * np.sqrt(1.01)
    assert np.allclose(res.values, [-root, -2.0, 2.0, root], rtol=0.0, atol=1e-12)


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        res = eig_hermitian4(h)
        scale = max(float(np.linalg.norm(h)), 1.0)
        assert np.allclose(res.values, np.linalg.eigvalsh(h), rtol=1e-12, atol=1e-12 * scale)
        resid = h @ res.vectors - res.vectors * res.values
        assert float(np.linalg.norm(resid)) <= 1e-12 * scale
        gram = res.vectors.conj().T @ res.vectors
        assert float(np.linalg.norm(gram - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170, 1e300, 1e-300])
def test_jacobi_extreme_scale_matches_lapack(scale):
    # at 1e160 the Frobenius norm overflows and at 1e-170 its square
    # underflows to zero unless the matrix is rescaled first
    h = scale * np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], dtype=complex)
    expected = scale * np.array([-1.0, 1.0, 1.0, 2.0])
    assert np.allclose(eig_hermitian4(h).values, expected, rtol=1e-14, atol=0.0)
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = scale * (a + a.conj().T)
        res = eig_hermitian4(h)
        # norms are taken in units of scale, where their squares cannot overflow
        norm = float(np.linalg.norm(a + a.conj().T))
        reference = np.linalg.eigvalsh(h) / scale
        assert np.allclose(res.values / scale, reference, rtol=1e-12, atol=1e-12 * norm)
        resid = (h @ res.vectors - res.vectors * res.values) / scale
        assert float(np.linalg.norm(resid)) <= 1e-12 * norm
        assert float(np.linalg.norm(res.vectors.conj().T @ res.vectors - np.eye(4))) <= 1e-12


def test_jacobi_huge_hamiltonian():
    h = build_hamiltonian(SpinParams(j=1e160, b=1e159))
    res = eig_hermitian4(h)
    root = 2e160 * np.sqrt(1.01)
    assert np.allclose(res.values, [-root, -2e160, 2e160, root], rtol=1e-14, atol=0.0)
    assert np.allclose(res.values, np.linalg.eigvalsh(h), rtol=1e-14, atol=0.0)


def _pure(*amps):
    psi = np.array(amps, dtype=complex)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


# density matrices of the kinds concurrence_mixed diagonalizes: pure and
# rank-2 states (equal diagonal pairs with a nonzero coupling take the
# app == aqq branch, zero couplings the ab == 0 skip), the maximally mixed
# state and a diagonal with repeated entries (no rotation at all)
_EDGE_MATRICES = {
    "rank1-bell": _pure(1, 0, 0, 1),
    "rank1-singlet": _pure(0, 1, -1, 0),
    "rank1-product": _pure(1, 1j, 0, 0),
    "rank2-bell-mixture": 0.5 * _pure(1, 0, 0, 1) + 0.5 * _pure(0, 1, 1, 0),
    "rank2-uneven": 0.7 * _pure(1, 0, 0, 1j) + 0.3 * _pure(0, 0, 1, 0),
    "maximally-mixed": np.eye(4, dtype=complex) / 4.0,
    "repeated-diagonal": np.diag([0.125, 0.375, 0.125, 0.375]).astype(complex),
}


@pytest.mark.parametrize("name", sorted(_EDGE_MATRICES))
def test_jacobi_density_matrix_edge_cases(name):
    h = _EDGE_MATRICES[name]
    res = eig_hermitian4(h)
    scale = float(np.linalg.norm(h))
    assert np.all(np.diff(res.values) >= 0.0)
    assert np.allclose(res.values, np.linalg.eigvalsh(h), rtol=0.0, atol=1e-14)
    assert float(np.linalg.norm(h @ res.vectors - res.vectors * res.values)) <= 1e-12 * scale
    assert float(np.linalg.norm(res.vectors.conj().T @ res.vectors - np.eye(4))) <= 1e-12
    listed = eig_hermitian4(h.tolist())
    assert np.array_equal(listed.values, res.values)
    assert np.array_equal(listed.vectors, res.vectors)


def test_jacobi_values_ascending():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    res = eig_hermitian4(a + a.conj().T)
    assert np.all(np.diff(res.values) >= 0.0)


def test_jacobi_zero_matrix():
    res = eig_hermitian4(np.zeros((4, 4), dtype=complex))
    assert np.all(res.values == 0.0)
    assert np.allclose(res.vectors.conj().T @ res.vectors, np.eye(4), atol=1e-15)


def test_jacobi_rejects_non_hermitian():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        eig_hermitian4(a)


@pytest.mark.parametrize("entry", [1e-11, 1e-20])
def test_jacobi_rejects_small_non_hermitian(entry):
    # the tolerance is relative to the largest entry at every scale: a lone
    # off-diagonal entry is as non-Hermitian as a matrix can be
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1] = entry
    with pytest.raises(NotHermitian):
        eig_hermitian4(a)
    a[1, 0] = entry
    assert np.allclose(eig_hermitian4(a).values, [-entry, 0.0, 0.0, entry], rtol=1e-14, atol=0.0)


def test_propagate_global_phase():
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    out = propagate(np.eye(4, dtype=complex), np.pi, psi)
    assert np.allclose(out, -psi, rtol=0.0, atol=1e-12)


def test_propagate_diagonal_phases():
    h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    psi = np.full(4, 0.5, dtype=complex)
    out = propagate(h, 0.25, psi)
    assert np.allclose(out, 0.5 * np.exp(-0.25j * np.arange(4)), atol=1e-12)


def test_propagate_zero_time_is_identity():
    rng = np.random.default_rng(17)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out = propagate(a + a.conj().T, 0.0, psi)
    assert np.allclose(out, psi, atol=1e-13)


@given(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_propagate_unitary(t, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a + a.conj().T
    out = propagate(h, t, psi)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
    assert np.allclose(propagate(h, -t, out), psi, atol=1e-10)


def test_propagate_rejects_unnormalized():
    psi = 2.0 * np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(NotNormalized):
        propagate(np.eye(4, dtype=complex), 1.0, psi)


def _stack_members():
    """Matrices of every kind the stacked solver must treat one by one."""
    rng = np.random.default_rng(31)
    members = [
        np.zeros((4, 4), dtype=complex),
        np.diag([3.0, -1.0, 2.0, 0.5]).astype(complex),
        *(_EDGE_MATRICES[name] for name in sorted(_EDGE_MATRICES)),
        build_hamiltonian(SpinParams(j=1.0, b=0.1)),
    ]
    for scale in (1e160, 1e-160, 1e-170, 1.0):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        members.append(scale * (a + a.conj().T))
    while len(members) < 257:
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        members.append(a + a.conj().T)
    return np.array(members)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
def test_jacobi_stack_gives_each_matrix_its_own_bits(n):
    members = _stack_members()
    alone = [eig_hermitian4(h) for h in members]
    # each matrix at a different position in a differently composed stack
    order = np.random.default_rng(n).permutation(len(members))
    for start in range(0, len(members), n):
        picked = order[start : start + n]
        stacked = eig_hermitian4(members[picked])
        assert stacked.values.shape == (len(picked), 4)
        assert stacked.vectors.shape == (len(picked), 4, 4)
        for row, k in enumerate(picked.tolist()):
            assert np.array_equal(stacked.values[row], alone[k].values)
            assert np.array_equal(stacked.vectors[row], alone[k].vectors)


def test_jacobi_single_matrix_keeps_its_shapes():
    res = eig_hermitian4(np.eye(4, dtype=complex))
    assert res.values.shape == (4,) and res.vectors.shape == (4, 4)
    assert np.array_equal(res.values, np.ones(4)) and np.array_equal(res.vectors, np.eye(4))
    empty = eig_hermitian4(np.zeros((0, 4, 4), dtype=complex))
    assert empty.values.shape == (0, 4) and empty.vectors.shape == (0, 4, 4)


def test_jacobi_stack_checks_every_matrix():
    stack = np.array([np.eye(4, dtype=complex)] * 3)
    stack[2, 0, 1] = 1.0
    with pytest.raises(NotHermitian):
        eig_hermitian4(stack)
    stack[2, 0, 1] = np.nan
    with pytest.raises(ValueError):
        eig_hermitian4(stack)
    for shape in [(3, 3), (2, 4, 3), (2, 2, 4, 4)]:
        with pytest.raises(ValueError):
            eig_hermitian4(np.zeros(shape))


def test_jacobi_eigenvalue_beyond_float_range():
    # every entry is finite, but the largest eigenvalue is 4 * 1.5e308
    with pytest.raises(OutOfRange):
        eig_hermitian4(np.full((4, 4), 1.5e308, dtype=complex))


def test_propagate_several_times_share_one_eigensolve():
    rng = np.random.default_rng(37)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a + a.conj().T
    psi = np.array([0.0, 0.6, 0.0, 0.8j])
    times = np.array([-3.0, 0.0, 0.25, 40.0])
    states = propagate(h, times, psi)
    assert states.shape == (4, 4)
    for t, state in zip(times.tolist(), states):
        # the same eigensystem and phases; only the final 4x4 product may
        # round differently from a single-row one
        assert np.max(np.abs(state - propagate(h, t, psi))) <= 1e-15
    with pytest.raises(ValueError):
        propagate(h, np.array([0.0, np.inf]), psi)
    with pytest.raises(ValueError):
        propagate(h, np.zeros((2, 2)), psi)
