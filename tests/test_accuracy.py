"""Float routes against exact references at 40 mpmath digits.

The trace kernel's reference diagonalises H = eta*(sx1 + sx2) + 2*sz1*sz2
at 40 digits and evolves |gg> at the exact grid time k*step, so it shares
no algebra with the kernel's reduced form or with spins' closed forms.
coupling's two J routes are held to J = gamma*chi^2*(theta1 + theta2)
evaluated at 40 digits, and eig_hermitian4 to the closed-form spectrum
of J*(2*sz1*sz2 + eta*(sx1 + sx2)).
"""

import mpmath
import numpy as np

from fiberspin import coupling, kernels
from fiberspin.numerics import eig_hermitian4
from fiberspin.validate import sample_params

#: largest |E - exact| measured over 30,000 points: 600 etas log-uniform
#: on [1e-3, 1e3], each with a step log-uniform on [1e-3, 1] and 50 grid
#: points up to tau = 1e4. It came at eta 0.0083, tau near 1e4. Most of it
#: is the rounding of omega = 2*hypot(1, eta), which the phase carries
#: times tau. The evolve_analytic route was off by up to 3.4e-12 on 20,000
#: of those points.
MEASURED_MAX = 2.0e-12

#: about three times MEASURED_MAX
BOUND = 6e-12


def _exact_trace(eta):
    """E(tau) from |gg>, at 40 digits, for one eta."""
    a = mpmath.mpf(eta)
    h = mpmath.matrix([[2, a, a, 0], [a, -2, 0, a], [a, 0, -2, a], [0, a, a, 2]])
    energies, vectors = mpmath.eighe(h)

    def e_of(tau):
        # basis ee, eg, ge, gg; psi(0) = |gg> is index 3
        psi = [
            mpmath.fsum(vectors[i, k] * mpmath.expj(-energies[k] * tau) * vectors[3, k] for k in range(4))
            for i in range(4)
        ]
        c = min(2 * abs(psi[0] * psi[3] - psi[1] * psi[2]), mpmath.mpf(1))
        x = (1 + mpmath.sqrt(1 - c * c)) / 2
        y = 1 - x
        return mpmath.mpf(0) if y <= 0 else -x * mpmath.log(x, 2) - y * mpmath.log(y, 2)

    return e_of


def test_kernel_is_within_its_measured_bound_of_the_exact_trace():
    rng = np.random.default_rng(20261018)
    worst = (0.0, ())
    with mpmath.workdps(40):
        for _ in range(40):
            eta = float(10.0 ** rng.uniform(-3.0, 3.0))
            step = float(10.0 ** rng.uniform(-3.0, 0.0))
            exact = _exact_trace(eta)
            for k in rng.integers(0, int(1e4 / step) + 1, 8).tolist():
                # the block holding k, computed as a call on the whole grid would
                start = k - k % kernels.BLOCK
                e = kernels.ent_trace_grid(eta, step, k - start + 1, start=start)[-1]
                err = float(abs(mpmath.mpf(float(e)) - exact(mpmath.mpf(k) * mpmath.mpf(step))))
                worst = max(worst, (err, (eta, step, k)))
    assert worst[0] <= BOUND, worst
    assert worst[0] > 0.0  # the comparison is made at all


#: largest defect of j_oracle and of j_closed from the 40-digit J, each
#: against max(|J|, 1e-3 * gamma*chi^2*(|theta1| + |theta2|)) as validate's
#: oracle suite scales it: _coupling_defects(default_rng(7), 100_000). The
#: closed form's tail comes from the sets nearest the recycling singularity
#: that sample_params lets through; the test's 300 sets read 4.4e-14 and 4.5e-14
J_ORACLE_MEASURED_MAX, J_CLOSED_MEASURED_MAX = 8.9e-13, 6.3e-12

#: about three times each measured maximum
J_ORACLE_BOUND, J_CLOSED_BOUND = 2.7e-12, 1.9e-11


def _exact_j(gamma, delta, chi, drive, phi12, phi21, gamma_f):
    """J = gamma*chi^2*(theta1 + theta2) and its term scale, from the steady fields' closed forms."""
    g, c, gf = mpmath.mpf(gamma), mpmath.mpf(chi), mpmath.mpf(gamma_f)
    mu = mpmath.mpc(gamma, delta)
    hop12 = mpmath.exp(mpmath.mpc(-gf, phi12))
    hop21 = mpmath.exp(mpmath.mpc(-gf, phi21))
    d = mu * mu - g * g * hop12 * hop21
    alpha = mpmath.mpc(drive.real, drive.imag) * mu / d
    beta = g * alpha * hop21 / mu
    theta1 = mpmath.im(mpmath.conj(alpha) * beta * hop12 / d)
    theta2 = mpmath.im(alpha * mpmath.conj(beta) * hop21 / d)
    return g * c * c * (theta1 + theta2), g * c * c * (abs(theta1) + abs(theta2))


def _coupling_defects(rng, n):
    """Largest scaled defects of j_oracle and j_closed over n sets of validate.sample_params."""
    p = sample_params(rng, n)
    r = coupling(p)
    worst_oracle = worst_closed = 0.0
    with mpmath.workdps(40):
        for i in range(n):
            j, terms = _exact_j(p.gamma[i], p.delta[i], p.chi[i], p.drive[i], p.phi12[i], p.phi21[i], p.gamma_f[i])
            scale = max(abs(j), terms / 1000)
            worst_oracle = max(worst_oracle, float(abs(mpmath.mpf(r.j_oracle[i]) - j) / scale))
            worst_closed = max(worst_closed, float(abs(mpmath.mpf(r.j_closed[i]) - j) / scale))
    return worst_oracle, worst_closed


def test_coupling_routes_are_within_their_measured_bounds_of_the_exact_j():
    worst_oracle, worst_closed = _coupling_defects(np.random.default_rng(20261019), 300)
    assert worst_oracle <= J_ORACLE_BOUND, worst_oracle
    assert worst_closed <= J_CLOSED_BOUND, worst_closed
    assert worst_oracle > 0.0 and worst_closed > 0.0  # the comparison is made at all


#: largest eigenvalue defect from the closed-form spectrum, against the
#: largest eigenvalue 2*|J|*s: _eig_defect(default_rng(7), 100_000). The
#: test's 500 matrices read 1.6e-15
EIG_MEASURED_MAX = 2.5e-15

#: about three times EIG_MEASURED_MAX
EIG_BOUND = 7.5e-15


def _eig_defect(rng, n):
    """Largest eigenvalue defect of eig_hermitian4 over n seeded J*(2*sz1*sz2 + eta*(sx1 + sx2))."""
    etas = 10.0 ** rng.uniform(-3.0, 3.0, n)
    js = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    # basis ee, eg, ge, gg; the reference takes the stored off-diagonal
    # J*eta, so it is exact for these bits
    off = js * etas
    h = np.zeros((n, 4, 4))
    h[:, [0, 3], [0, 3]] = 2.0 * js[:, None]
    h[:, [1, 2], [1, 2]] = -2.0 * js[:, None]
    h[:, [0, 0, 1, 2, 1, 2, 3, 3], [1, 2, 0, 0, 3, 3, 1, 2]] = off[:, None]
    values = eig_hermitian4(h).values
    worst = 0.0
    with mpmath.workdps(40):
        for i in range(n):
            # (-2Js, -2J, 2J, 2Js) with s = sqrt(1 + eta^2), eta = off / J
            j = mpmath.mpf(js[i])
            top = 2 * mpmath.sqrt(j * j + mpmath.mpf(off[i]) ** 2)
            exact = sorted([-top, -2 * j, 2 * j, top])
            worst = max(worst, *(float(abs(mpmath.mpf(v) - x) / top) for v, x in zip(values[i], exact)))
    return worst


def test_eig_hermitian4_is_within_its_measured_bound_of_the_closed_form_spectrum():
    worst = _eig_defect(np.random.default_rng(20261019), 500)
    assert worst <= EIG_BOUND, worst
    assert worst > 0.0  # the comparison is made at all
