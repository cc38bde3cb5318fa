"""Exception types shared across the package.

Every guard raises one of these so callers (and the CLI) can map
failures to exit codes without string matching.
"""


class FiberspinError(Exception):
    """Base class for all package errors."""

    #: short machine-readable slug used in CLI error lines
    code = "error"
    #: process exit status the CLI returns for this error
    exit_code = 1


class SingularSystem(FiberspinError):
    """2x2 linear system has a determinant too small to invert."""

    code = "singular-system"


class NotHermitian(FiberspinError):
    """Matrix handed to a Hermitian-only routine is not Hermitian."""

    code = "not-hermitian"


class NotNormalized(FiberspinError):
    """State vector norm differs from 1 beyond tolerance."""

    code = "not-normalized"


class ResonantRecycling(FiberspinError):
    """Steady-state denominator collapses: drive recycles resonantly.

    Happens when the detuning goes to zero while the round-trip fiber
    phase approaches a multiple of 2*pi with a lossless fiber, so the
    intracavity fields have no steady solution.
    """

    code = "resonant-recycling"
    exit_code = 2


class NegativeLoss(FiberspinError):
    """Fiber loss exponent must be nonnegative."""

    code = "negative-loss"


class DegenerateEta(FiberspinError):
    """Field-to-coupling ratio eta is zero or otherwise unusable."""

    code = "degenerate-eta"


class ZeroDetuning(FiberspinError):
    """Raman detuning of zero would make the effective coupling blow up."""

    code = "zero-detuning"


class NonpositiveGamma(FiberspinError):
    """Cavity decay rate must be positive for this estimate."""

    code = "nonpositive-gamma"


class OutOfRange(FiberspinError, ValueError):
    """A value outside its documented domain, or a result past the float range.

    Also a ValueError, so a caller that catches ValueError for a bad
    value still catches it.
    """

    code = "out-of-range"


class InvalidDensityMatrix(FiberspinError):
    """Matrix fails the density-matrix checks (Hermitian, trace 1, PSD)."""

    code = "invalid-density-matrix"


class BadGrid(FiberspinError):
    """Trace grid request is empty, inverted, or too coarse."""

    code = "bad-grid"


class ValidationFailure(FiberspinError):
    """A self-check suite reported at least one failing identity."""

    code = "validation"
    exit_code = 3
