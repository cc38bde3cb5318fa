"""The benchmark's workloads: seeded CLI argv and the check of each output.

Every workload is one `python -m fiberspin` invocation. Its inputs come
from the workload seed alone, and its output is checked against the
package's independent closed-form route (evolve_analytic ->
concurrence_pure -> eof_from_concurrence) rather than against stored
bytes, so a change in the printed digits shows only through its sha256.
"""

from __future__ import annotations

import io
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fiberspin import concurrence_pure, eof_from_concurrence, evolve_analytic

ETA_RANGE = (0.05, 0.8)

EVOLVE_TAU_MAX = 10_000.0
EVOLVE_STEP = 0.01
SPOT_ROWS = 64

TAUSTAR_ETAS = 8
TAUSTAR_WINDOW = 1e4
TAUSTAR_STEP = 1e-2
TAUSTAR_TOLERANCE = 1e-2

VALIDATE_SUITES = ("oracle-identity", "eigensystem", "evolution", "entanglement")

#: fmt9 keeps 9 significant digits, so a printed value is within half a unit
#: of the 9th digit (5e-9 relative) of the value it was made from
_PRINT_REL = 6e-9
#: independent-route slack on E: the fused kernel and evolve_analytic differ by
#: trig rounding only, about 1e-11 at tau ~ 1e4
_ROUTE_ABS = 1e-10

_TIMING = re.compile(rb", [0-9.]+s\)")


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    #: where the CLI writes its data: a --out file, or None for stdout
    out_path: str | None
    #: returns what is wrong with the output bytes, or None
    check: Callable[[bytes], str | None]
    #: layers the traced run must see at least once, and ones it must not see
    must_call: tuple[str, ...]
    must_skip: tuple[str, ...] = ()


def _log_uniform(rng: np.random.Generator, size=None):
    lo, hi = ETA_RANGE
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=size))


def _grid_points(span: float, step: float) -> int:
    # the same count entanglement_trace samples, 0..span inclusive
    return int(math.floor(span / step + 1e-9)) + 1


def reference_e(eta: float, tau: float) -> float:
    """E(tau) from |gg> by the closed-form route, independent of the kernel."""
    return eof_from_concurrence(concurrence_pure(evolve_analytic(eta, tau)))


def _printed_close(printed: float, exact: float) -> bool:
    return abs(printed - exact) <= _PRINT_REL * abs(exact) + _ROUTE_ABS


def trace_dump(seed: int, tmp: str) -> Workload:
    eta = float(_log_uniform(np.random.default_rng([seed, 0])))
    rows = _grid_points(EVOLVE_TAU_MAX, EVOLVE_STEP)
    spots = np.random.default_rng([seed, 1]).choice(rows, size=SPOT_ROWS, replace=False)
    spots = sorted({0, rows - 1, *(int(k) for k in spots)})
    expected = {k: reference_e(eta, k * EVOLVE_STEP) for k in spots}
    out = str(Path(tmp) / "trace.csv")

    def check(data: bytes) -> str | None:
        header, _, body = data.partition(b"\n")
        if header != b"tau,entanglement":
            return f"header {header[:40]!r}"
        try:
            table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        except ValueError as exc:
            return f"unparsable row: {exc}"
        if table.shape != (rows, 2):
            return f"expected {rows} rows of 2 columns, got {table.shape}"
        taus, values = table[:, 0], table[:, 1]
        grid = np.arange(rows, dtype=np.float64) * EVOLVE_STEP
        if not np.all(np.diff(taus) > 0.0) or np.any(np.abs(taus - grid) > _PRINT_REL * grid):
            return "tau column does not rise by step"
        if not np.all((values >= 0.0) & (values <= 1.0)):
            return "entanglement outside [0, 1]"
        for k, ref in expected.items():
            if not _printed_close(float(values[k]), ref):
                return f"row {k}: E = {float(values[k])!r}, independent route gives {ref!r}"
        return None

    return Workload(
        name="trace-dump",
        cli_args=(
            "evolve", "--eta", repr(eta), "--tau-max", f"{EVOLVE_TAU_MAX:g}",
            "--step", f"{EVOLVE_STEP:g}", "--out", out,
        ),
        out_path=out,
        check=check,
        must_call=("cli.cmd", "kernels.ent_trace_grid"),
    )


def taustar_sweep(seed: int, tmp: str) -> Workload:
    etas = [float(e) for e in _log_uniform(np.random.default_rng([seed, 0]), TAUSTAR_ETAS)]
    points = _grid_points(TAUSTAR_WINDOW, TAUSTAR_STEP)

    def check(data: bytes) -> str | None:
        lines = data.decode("ascii", "replace").splitlines()
        if not lines or lines[0] != "eta,tau_star,e_max":
            return f"header {lines[:1]!r}"
        if len(lines) != 1 + len(etas):
            return f"expected {len(etas)} result rows, got {len(lines) - 1}"
        for eta, line in zip(etas, lines[1:]):
            try:
                eta_out, tau, e_max = (float(v) for v in line.split(","))
            except ValueError:
                return f"bad row {line!r}"
            if not _printed_close(eta_out, eta):
                return f"row {line!r}: eta differs from the requested {eta!r}"
            k = round(tau / TAUSTAR_STEP)
            if not (0 <= k < points and _printed_close(tau, k * TAUSTAR_STEP)):
                return f"eta {eta!r}: tau_star {tau!r} is not on the grid"
            if not 0.0 < e_max <= 1.0:
                return f"eta {eta!r}: e_max {e_max!r} outside (0, 1]"
            # tau_star is the first grid point with E >= e_max - tolerance, and
            # e_max is the grid maximum, so it bounds E at tau_star from above
            slack = _PRINT_REL + _ROUTE_ABS
            threshold = e_max - TAUSTAR_TOLERANCE
            ref = reference_e(eta, k * TAUSTAR_STEP)
            if not threshold - slack <= ref <= e_max + slack:
                return f"eta {eta!r}: E(tau_star) = {ref!r} by the independent route, e_max = {e_max!r}"
            if k > 0 and reference_e(eta, (k - 1) * TAUSTAR_STEP) >= threshold + slack:
                return f"eta {eta!r}: the grid point before tau_star already reaches e_max - tolerance"
        return None

    return Workload(
        name="taustar-sweep",
        cli_args=("taustar", "--etas", ",".join(repr(e) for e in etas)),
        out_path=None,
        check=check,
        must_call=("cli.cmd", "kernels.ent_trace_grid", "entanglement.tau_star"),
    )


def self_check(seed: int, tmp: str) -> Workload:
    def check(data: bytes) -> str | None:
        lines = data.decode("ascii", "replace").splitlines()
        names = tuple(line.partition(":")[0].removeprefix("PASS ") for line in lines)
        if names != VALIDATE_SUITES or not all(line.startswith("PASS ") for line in lines):
            return f"expected PASS lines for {VALIDATE_SUITES}, got {lines!r}"
        return None

    return Workload(
        name="self-check",
        cli_args=("validate", "--seed", str(seed)),
        out_path=None,
        check=check,
        must_call=("cli.cmd", "numerics.solve2", "numerics.eig_hermitian4"),
        must_skip=("kernels.ent_trace_grid",),
    )


WORKLOADS = {"trace-dump": trace_dump, "taustar-sweep": taustar_sweep, "self-check": self_check}


def fingerprint_bytes(name: str, data: bytes) -> bytes:
    """Output bytes with run-dependent parts blanked, for the informational sha256."""
    if name == "self-check":
        return _TIMING.sub(b", -s)", data)
    return data
