"""The trace kernel against an exact reference: a 40-digit mpmath trace.

The reference diagonalises H = eta*(sx1 + sx2) + 2*sz1*sz2 at 40 digits
and evolves |gg> at the exact grid time k*step, so it shares no algebra
with the kernel's reduced form or with spins' closed forms.
"""

import mpmath
import numpy as np

from fiberspin import kernels

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
                e = kernels.ent_trace_grid(eta, 0.0, step, k - start + 1, start=start)[-1]
                err = float(abs(mpmath.mpf(float(e)) - exact(mpmath.mpf(k) * mpmath.mpf(step))))
                worst = max(worst, (err, (eta, step, k)))
    assert worst[0] <= BOUND, worst
    assert worst[0] > 0.0  # the comparison is made at all
