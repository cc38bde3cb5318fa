"""The package's public names, and the modules each entry point imports.

`import fiberspin` binds each public name on first access, and the scalar
subcommands and the float path of the network formulas never load numpy.
The subprocess checks read `python -X importtime`, which logs every module
a run imports, so a module missing from its log was never in sys.modules.
"""

import subprocess
import sys

import pytest

import fiberspin
from fiberspin import entanglement, errors, feasibility, kernels, network, numerics, spins, validate

#: every public name, by the module whose object it is
PUBLIC = {
    entanglement: (
        "EntanglementTrace",
        "TauStarResult",
        "concurrence_mixed",
        "concurrence_pure",
        "entanglement_blocks",
        "entanglement_trace",
        "eof_from_concurrence",
        "tau_star",
    ),
    errors: (
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
    feasibility: (
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
    kernels: ("backend",),
    network: (
        "CouplingResult",
        "FluctuationCoefficients",
        "NetworkParams",
        "SteadyFields",
        "apply_fiber_loss",
        "coupling",
        "denominator",
        "fluctuation_coefficients",
        "fluctuation_coefficients_closed",
        "steady_fields",
        "symmetric_phase_sum",
        "theta_variants",
        "validate_regime",
    ),
    numerics: ("HermEig4", "eig_hermitian4", "propagate", "solve2"),
    spins: (
        "AnalyticEigensystem",
        "SpinParams",
        "analytic_eigensystem",
        "build_hamiltonian",
        "evolve_analytic",
        "initial_coefficients",
        "numeric_eigensystem",
        "scaled_time",
    ),
    validate: ("DEFAULT_SEED", "SuiteResult", "run_all"),
}


def test_all_lists_exactly_the_public_names():
    assert sorted(fiberspin.__all__) == sorted(name for names in PUBLIC.values() for name in names)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_its_modules_object(module, name):
    assert getattr(fiberspin, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fiberspin import *", namespace)
    for name in fiberspin.__all__:
        assert namespace[name] is getattr(fiberspin, name)


def test_dir_lists_every_public_name():
    listed = dir(fiberspin)
    assert set(fiberspin.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'fiberspin' has no attribute 'no_such_name'$"):
        fiberspin.no_such_name  # noqa: B018
    assert not hasattr(fiberspin, "no_such_name")


def test_each_module_is_an_attribute_of_the_package():
    for module in PUBLIC:
        assert getattr(fiberspin, module.__name__.rpartition(".")[2]) is module


def test_a_plain_import_reaches_each_module_as_an_attribute():
    # a fresh interpreter, in which no submodule is imported until it is read
    names = [module.__name__.rpartition(".")[2] for module in PUBLIC]
    code = (
        "import sys, fiberspin\n"
        f"for name in {names!r}:\n"
        "    assert getattr(fiberspin, name) is sys.modules['fiberspin.' + name], name\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _imports(*args, code=0):
    """The name of every module that `python -X importtime ARGS` imports."""
    r = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
    assert r.returncode == code, r.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in r.stderr.splitlines()
        if line.startswith("import time:")
    }


def _scalar_runs(out):
    runs = []
    for command, preset in (
        ("steady", "example-sym"),
        ("coupling", "example-asym"),
        ("feasibility", "paper-feasibility"),
    ):
        base = ("-m", "fiberspin", command, "--preset", preset)
        runs += [base, (*base, "--format", "csv"), (*base, "--out", str(out / f"{command}.txt"))]
    return runs


FLOAT_CALLS = (
    "import fiberspin as fs\n"
    "p = fs.NetworkParams(gamma=1.0, delta=0.5, chi=0.1, drive=1.0, phi12=0.3, phi21=0.9)\n"
    "fs.coupling(p); fs.steady_fields(p); fs.denominator(p)\n"
)


def test_scalar_entry_points_never_import_numpy(tmp_path):
    scalar_modules = "import fiberspin as fs\nfs.errors, fs.feasibility, fs.network, fs.numerics\n"
    runs = [("-c", "import fiberspin"), ("-c", scalar_modules), ("-c", FLOAT_CALLS), *_scalar_runs(tmp_path)]
    for args in runs:
        modules = _imports(*args)
        assert "numpy" not in modules, args
        assert "concurrent.futures" not in modules, args


@pytest.mark.parametrize("command", ["evolve", "taustar", "validate"])
def test_usage_errors_and_help_of_array_subcommands_never_import_numpy(command):
    for args, code in (((command, "--warp", "9"), 1), ((command, "--help"), 0)):
        modules = _imports("-m", "fiberspin", *args, code=code)
        assert "numpy" not in modules and "concurrent.futures" not in modules, args


@pytest.mark.parametrize(
    "argv, imports_network",
    [
        (("evolve", "--tau-max", "1", "--step", "0.1"), False),
        (("taustar", "--etas", "0.4", "--window", "10"), False),
        (("steady",), True),
        (("validate", "--seed", "7"), True),
    ],
)
def test_only_the_subcommands_that_use_network_import_it(argv, imports_network):
    assert ("fiberspin.network" in _imports("-m", "fiberspin", *argv)) == imports_network


def test_no_taustar_run_imports_the_thread_pool():
    evolve = _imports("-m", "fiberspin", "evolve", "--tau-max", "1", "--step", "0.1")
    one_eta = _imports("-m", "fiberspin", "taustar", "--etas", "0.4", "--window", "10")
    many_etas = _imports("-m", "fiberspin", "taustar", "--etas", "0.4,0.2,0.1", "--window", "10")
    sweep = _imports("-m", "fiberspin", "taustar", "--etas-log", "0.05:0.8:5", "--window", "10")
    assert "numpy" in evolve and "numpy" in one_eta
    for modules in (evolve, one_eta, many_etas, sweep):
        assert "concurrent.futures" not in modules
