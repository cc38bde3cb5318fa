"""Steady fields, engineered Ising coupling, and entanglement dynamics
for two atoms held in driven cavities linked by an optical fiber.

Importing the package loads no submodule. Each public name is looked up
in the submodule that defines it the first time it is read (PEP 562), so
`fiberspin.coupling` costs the scalar modules only, while the array
routines load numpy with their own modules. A submodule read as an
attribute, `fiberspin.network` say, is imported on that first read.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "_seed": ("DEFAULT_SEED",),
    "entanglement": (
        "EntanglementTrace",
        "TauStarResult",
        "concurrence_mixed",
        "concurrence_pure",
        "entanglement_blocks",
        "entanglement_trace",
        "eof_from_concurrence",
        "tau_star",
    ),
    "errors": (
        "BadGrid",
        "DegenerateEta",
        "FiberspinError",
        "InvalidDensityMatrix",
        "NegativeLoss",
        "NonpositiveGamma",
        "NotHermitian",
        "NotNormalized",
        "OutOfRange",
        "ResonantRecycling",
        "SingularSystem",
        "ValidationFailure",
        "ZeroDetuning",
    ),
    "feasibility": (
        "FIBER_PRESET",
        "RAMAN_PRESET",
        "FiberLossSpec",
        "LossConvention",
        "LossyCoupling",
        "RamanParams",
        "chi_from_raman",
        "gamma_f_from_db",
        "j_estimate",
        "lossy_coupling_report",
    ),
    "kernels": ("backend",),
    "network": (
        "CouplingResult",
        "FluctuationCoefficients",
        "NetworkParams",
        "SteadyFields",
        "apply_fiber_loss",
        "coupling",
        "coupling_largedelta_lossy",
        "denominator",
        "fluctuation_coefficients",
        "fluctuation_coefficients_closed",
        "steady_fields",
        "symmetric_phase_sum",
        "theta_variants",
        "validate_regime",
    ),
    "numerics": ("HermEig4", "eig_hermitian4", "propagate", "solve2"),
    "spins": (
        "AnalyticEigensystem",
        "SpinParams",
        "analytic_eigensystem",
        "build_hamiltonian",
        "evolve_analytic",
        "initial_coefficients",
        "numeric_eigensystem",
        "scaled_time",
    ),
    "validate": ("SuiteResult", "run_all"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """A submodule, imported; or a public name, bound here from the submodule that defines it."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
