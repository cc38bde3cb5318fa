"""Command-line front end: steady fields, coupling audit, traces, sweeps, self-checks.

Subcommands: steady, coupling, evolve, taustar, feasibility, validate.
Each subcommand parameter is declared once, in _PARAMS, as one `--name`
flag and one config key, and each preset once, in _PRESETS. Every
subcommand, validate included, reads --config: flat `key = value` lines
with # comments, keyed by its flag names. Parameter resolution order is
flags > preset > config file > built-in defaults. A flag's value may
start with "-": main joins it to its flag as --flag=value for argparse.
Numeric output uses 9 significant digits, locale-independent, and is
byte-identical across repeated invocations, threaded sweeps included.
`evolve` computes, checks, formats and writes its trace one block of
16,384 rows at a time, so no whole-grid array or text is ever held and
its memory is the same at any grid size; its bytes are those of fmt9
applied to every value. A fiberspin._blocks.Formatter makes them with
numpy, 4,096 rows a pass: each cell's digits come from one correctly
rounded integer, laid out in a fixed-width byte field whose pad bytes
are dropped at the end, and the rare cell that the integer cannot be
trusted for (a scientific form, or a value within 1e-6 of a rounding
tie) gets fmt9's own text. The buffers of a run are made once: the
Formatter's work arrays and text buffer, and cmd_evolve's one table
that each block is copied into; so the heap does not churn from block
to block. _emit writes every subcommand's rows as bytes, to the --out
file or to sys.stdout.buffer, and says what must run before it so that
a refused run writes nothing.

This module imports only the scalar modules, errors, feasibility,
network and numerics, none of which imports numpy. So steady, coupling
and feasibility, --help and a usage error never import numpy. What
needs arrays is imported where it is first used: entanglement, validate
and numpy by cmd_evolve, cmd_taustar and cmd_validate, and the block
formatter fiberspin._blocks by cmd_evolve. taustar imports its thread
pool only when it runs more than one thread.

Exit codes: 0 ok, 1 usage or domain error, 2 recycling singularity,
3 self-check failure; each FiberspinError class carries its own as
exit_code. Every failure writes one line `error: <code>: <message>` to
stderr and keeps the data stream clean, except a reader closing stdout
early, which ends the run with exit code 1 and no message.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import re
import sys
import types
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

from ._seed import DEFAULT_SEED
from .errors import FiberspinError, OutOfRange, ValidationFailure
from .feasibility import (
    FIBER_PRESET,
    RAMAN_PRESET,
    FiberLossSpec,
    LossConvention,
    RamanParams,
    chi_from_raman,
    gamma_f_from_db,
    j_estimate,
    lossy_coupling_report,
)
from .network import NetworkParams, coupling, denominator, steady_fields, validate_regime

if TYPE_CHECKING:
    import numpy as np


class _CliUsage(Exception):
    """Raised for argument, config, and preset problems; maps to exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliUsage(message)


_NETWORK_PRESETS = {
    "example-sym": {
        "gamma": 1.0,
        "delta": 1.0,
        "chi": 0.1,
        "drive_re": 10.0,
        "drive_im": 0.0,
        "phi12": math.pi / 4.0,
        "phi21": math.pi / 4.0,
        "gamma_f": 0.0,
    },
    "example-asym": {
        "gamma": 1.0,
        "delta": 0.5,
        "chi": 0.1,
        "drive_re": 1.0,
        "drive_im": 0.0,
        "phi12": 0.3,
        "phi21": 0.9,
        "gamma_f": 0.0,
    },
}

#: subcommand -> {preset name: the parameters it sets}; feasibility's only
#: preset is its defaults, the paper's numbers
_PRESETS = {
    "steady": _NETWORK_PRESETS,
    "coupling": _NETWORK_PRESETS,
    "feasibility": {"paper-feasibility": {}},
}

#: relative asymmetry beyond which the coupling report flags theta1 != theta2
_THETA_WARN = 1e-9


def fmt9(x: float) -> str:
    """9-significant-digit decimal, shortest fixed/scientific form."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to format a non-finite number")
    if x == 0.0:
        return "0.00000000"
    ax = abs(x)
    if ax >= 1e12 or ax < 1e-8:
        return f"{x:.8e}"
    digits = min(max(8 - math.floor(math.log10(ax)), 0), 20)
    return f"{x:.{digits}f}"


def _emit(rows: Iterable[tuple[str, ...] | bytes], fmt: str, out: str | None, kv: bool = True) -> None:
    """Write rows to stdout or a file, LF-terminated, each as it is drawn.

    A row is a tuple of strings, rendered here and encoded as UTF-8, or a
    bytes-like object of text already rendered, written as it is; so a
    table drawn block by block is never held whole, and a view into a
    buffer that the next row reuses is written before that row is drawn.
    kv=True renders two-element rows as `key = value` report lines in text
    mode; kv=False renders every row as space-joined columns.

    The bytes go to a binary stream: the out file opened "wb", or
    sys.stdout.buffer after sys.stdout is flushed, so that text printed
    earlier comes first. A sys.stdout without a buffer, such as an
    io.StringIO put in its place, gets the same text decoded from UTF-8.

    Nothing here refuses a row. A caller whose rows can refuse the run
    must make that refusal before the first row is drawn, as cmd_evolve
    does through entanglement_blocks; a later row that raises leaves
    stdout cut short, and removes the out file if this call created it.
    """
    # writerow returns what its file's write returns, here the line itself
    csv_line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow

    def line(row):
        if not isinstance(row, tuple):
            return row
        if fmt == "csv":
            text = csv_line(row)
        elif kv and len(row) == 2 and row[0] == "warn":
            text = f"WARN {row[1]}\n"
        elif kv and len(row) == 2:
            text = f"{row[0]} = {row[1]}\n"
        else:
            text = " ".join(row) + "\n"
        return text.encode("utf-8")

    # writelines drops each row before it draws the next, so a block's text
    # is freed, or its buffer free to reuse, before the next block is made
    chunks = map(line, rows)
    created = bool(out) and not os.path.lexists(out)
    written = False
    try:
        if out:
            with open(out, "wb") as fh:
                fh.writelines(chunks)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.writelines(chunks)
        else:
            sys.stdout.writelines(str(chunk, "utf-8") for chunk in chunks)
        written = True
    except OSError as exc:
        if not out:
            raise  # stdout failures, a closed pipe among them, are main's
        raise _CliUsage(f"cannot write {out}: {exc}") from exc
    finally:
        if created and not written:
            with contextlib.suppress(OSError):
                os.unlink(out)


def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliUsage(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliUsage(f"{path}:{lineno}: expected `key = value`")
        key, value = line.split("=", 1)
        entries[key.strip().lower().replace("-", "_")] = value.strip()
    return entries


def _cast(key: str, value: str, kind):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise _CliUsage(f"bad value for {key}: {value!r}") from exc


def _parse_eta_list(text: str) -> list[float]:
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    if not items:
        raise _CliUsage("eta list is empty")
    return [_cast("etas", s, float) for s in items]


#: network parameters of steady and coupling; the defaults are example-sym's
_NETWORK = {name: (float, value) for name, value in _NETWORK_PRESETS["example-sym"].items()}

#: subcommand -> {name: (parse, default)}: each name is exactly one --name
#: flag (dashes for underscores) and one config key, and parse casts both
_PARAMS = {
    "steady": _NETWORK,
    "coupling": _NETWORK,
    "evolve": {"eta": (float, 0.1), "tau_max": (float, 1000.0), "step": (float, 0.01)},
    "taustar": {
        "etas": (_parse_eta_list, (0.4, 0.2, 0.1, 0.05)),
        "window": (float, 1e4),
        "step": (float, 1e-2),
        "tolerance": (float, 1e-2),
        # None is one thread per CPU; below 1 is one thread
        "threads": (int, None),
    },
    "feasibility": {
        "g": (float, RAMAN_PRESET.g),
        "omega": (float, RAMAN_PRESET.omega),
        "delta_a": (float, RAMAN_PRESET.delta_a),
        "gamma": (float, RAMAN_PRESET.gamma),
        "nbar": (float, RAMAN_PRESET.nbar),
        # None derives chi from the Raman parameters
        "chi": (float, None),
        "db_per_km": (float, FIBER_PRESET.db_per_km),
        "length_km": (float, FIBER_PRESET.length_km),
    },
    "validate": {"seed": (int, DEFAULT_SEED), "tolerance": (float, None)},
}

#: subcommand -> (help line, default output format)
_COMMANDS = {
    "steady": ("steady intracavity fields and regime diagnostics", "text"),
    "coupling": ("effective Ising strength, both routes", "text"),
    "evolve": ("entanglement-of-formation trace from |gg>", "csv"),
    "taustar": ("first near-maximal entanglement time per eta", "csv"),
    "feasibility": ("experimental estimates and loss conversions", "text"),
    "validate": ("run the seeded self-check suites", "text"),
}


def _resolve(args) -> dict:
    """Merge defaults < config < --preset < explicit flags over the subcommand's _PARAMS."""
    params = _PARAMS[args.subcommand]
    merged = {name: default for name, (_, default) in params.items()}
    if args.config:
        for key, value in _read_config(args.config).items():
            if key not in params:
                raise _CliUsage(f"unknown config key {key!r} for this subcommand")
            merged[key] = _cast(key, value, params[key][0])
    if getattr(args, "preset", None):
        merged.update(_PRESETS[args.subcommand][args.preset])
    for name in params:
        if getattr(args, name) is not None:
            merged[name] = getattr(args, name)
    return merged


def _network_params(args) -> NetworkParams:
    cfg = _resolve(args)
    return NetworkParams(
        gamma=cfg["gamma"],
        delta=cfg["delta"],
        chi=cfg["chi"],
        drive=complex(cfg["drive_re"], cfg["drive_im"]),
        phi12=cfg["phi12"],
        phi21=cfg["phi21"],
        gamma_f=cfg["gamma_f"],
    )


def _report(pairs: Iterable[tuple[str, float]], notes: Iterable[str], args) -> None:
    """Emit (name, value) report lines, then one `warn` line per note.

    Each value is checked as it is drawn, so a value that is not finite
    refuses the run with OutOfRange, naming it, before a later pair is
    computed and before anything is written.
    """
    rows = []
    for name, value in pairs:
        if not math.isfinite(value):
            raise OutOfRange(f"{name} is not finite, got {value!r}")
        rows.append((name, fmt9(value)))
    rows.extend(("warn", note) for note in notes)
    _emit(rows, args.format, args.out)


def cmd_steady(args) -> None:
    p = _network_params(args)
    s = steady_fields(p)
    d = denominator(p)
    pairs = [
        ("alpha_re", s.alpha.real),
        ("alpha_im", s.alpha.imag),
        ("alpha_mod", abs(s.alpha)),
        ("beta_re", s.beta.real),
        ("beta_im", s.beta.imag),
        ("beta_mod", abs(s.beta)),
        ("denominator_re", d.real),
        ("denominator_im", d.imag),
        ("denominator_mod", abs(d)),
    ]
    _report(pairs, validate_regime(p, s), args)


def cmd_coupling(args) -> None:
    p = _network_params(args)
    r = coupling(p)
    pairs = [
        ("j_oracle", r.j_oracle),
        ("j_closed", r.j_closed),
        ("j_single", r.j_single),
        ("theta1", r.theta1),
        ("theta2", r.theta2),
        ("local1", r.local1),
        ("local2", r.local2),
    ]
    notes = []
    if abs(r.theta1 - r.theta2) > _THETA_WARN * max(abs(r.theta1), abs(r.theta2)):
        notes.append(
            "theta-asymmetry: |theta1 - theta2| = "
            f"{abs(r.theta1 - r.theta2):.6e} exceeds {_THETA_WARN:.0e} * max moduli;"
            " the single-theta shortcut j_single is unreliable here"
        )
    _report(pairs, notes, args)


def cmd_evolve(args) -> None:
    import numpy as np

    from . import _blocks
    from .entanglement import _BLOCK_ROWS, entanglement_blocks

    cfg = _resolve(args)
    # the whole-grid guards and the first block run here, before _emit opens anything
    blocks = entanglement_blocks(cfg["eta"], cfg["tau_max"], cfg["step"])
    formatter = _blocks.Formatter(2, "," if args.format == "csv" else " ")
    table = np.empty((_BLOCK_ROWS, 2))

    def filled(block) -> np.ndarray:
        rows = table[: len(block.values)]
        rows[:, 0] = block.taus
        rows[:, 1] = block.values
        return rows

    texts = formatter.stream(map(filled, blocks))
    _emit(itertools.chain([("tau", "entanglement")], texts), args.format, args.out, kv=False)


#: most etas one --etas-log grid may ask for; each is a full tau_star scan
_ETAS_LOG_MAX = 10_000


def _taustar_etas(args, cfg) -> list[float]:
    if args.etas_log is not None:
        parts = args.etas_log.split(":")
        if len(parts) != 3:
            raise _CliUsage("--etas-log expects start:stop:count")
        start = _cast("etas-log start", parts[0], float)
        stop = _cast("etas-log stop", parts[1], float)
        count = _cast("etas-log count", parts[2], int)
        if not all(math.isfinite(v) and v > 0.0 for v in (start, stop)):
            raise _CliUsage(f"--etas-log needs finite positive endpoints, got {start!r}:{stop!r}")
        if not 1 <= count <= _ETAS_LOG_MAX:
            raise _CliUsage(f"--etas-log count must be from 1 to {_ETAS_LOG_MAX}, got {count}")
        import numpy as np

        return [float(v) for v in np.geomspace(start, stop, count)]
    return list(cfg["etas"])


def cmd_taustar(args) -> None:
    from .entanglement import tau_star

    cfg = _resolve(args)
    etas = _taustar_etas(args, cfg)
    window, step, tolerance = cfg["window"], cfg["step"], cfg["tolerance"]
    threads = (os.cpu_count() or 1) if cfg["threads"] is None else max(cfg["threads"], 1)

    def one(eta: float):
        return tau_star(eta, window=window, step=step, tolerance=tolerance)

    if threads == 1 or len(etas) == 1:
        results = [one(eta) for eta in etas]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, etas))
    rows = [("eta", "tau_star", "e_max")]
    rows.extend((fmt9(r.eta), fmt9(r.tau_star), fmt9(r.e_max)) for r in results)
    _emit(rows, args.format, args.out, kv=False)


def cmd_feasibility(args) -> None:
    cfg = _resolve(args)
    if cfg["chi"] is not None and not math.isfinite(cfg["chi"]):
        raise _CliUsage(f"chi must be finite, got {cfg['chi']!r}")
    raman = RamanParams(
        g=cfg["g"], omega=cfg["omega"], delta_a=cfg["delta_a"], gamma=cfg["gamma"], nbar=cfg["nbar"]
    )
    chi_mag, chi_sign = chi_from_raman(raman)
    if cfg["chi"] is not None:
        chi_mag, chi_sign = abs(cfg["chi"]), math.copysign(1.0, cfg["chi"]) if cfg["chi"] else 0.0
    power = FiberLossSpec(cfg["db_per_km"], cfg["length_km"], LossConvention.POWER)
    amplitude = FiberLossSpec(cfg["db_per_km"], cfg["length_km"], LossConvention.AMPLITUDE)
    gf_power = gamma_f_from_db(power)
    gf_amp = gamma_f_from_db(amplitude)
    ratios = lossy_coupling_report(1.0, gf_power)

    # drawn one by one, so a chi that is not finite is refused before j_estimate sees it
    def pairs():
        yield "chi", chi_mag
        yield "chi_sign", chi_sign
        yield "nbar", raman.nbar
        yield "j_at_nbar", j_estimate(chi_mag, raman.nbar, raman.gamma)
        yield "j_nbar_50", j_estimate(chi_mag, 50.0, raman.gamma)
        yield "j_nbar_100", j_estimate(chi_mag, 100.0, raman.gamma)
        yield "gamma_f_power", gf_power
        yield "gamma_f_amplitude", gf_amp
        yield "loss_ratio_single", ratios.single
        yield "loss_ratio_squared", ratios.squared

    _report(pairs(), (), args)


def cmd_validate(args) -> None:
    from .validate import run_all

    cfg = _resolve(args)
    results = run_all(seed=cfg["seed"], tolerance=cfg["tolerance"])
    rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if args.format == "csv":
            rows.append((status, r.name, r.detail))
        else:
            rows.append((f"{status} {r.name}:", r.detail))
    _emit(rows, args.format, args.out, kv=False)
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(r.name for r in failed)
        raise ValidationFailure(f"{len(failed)} suite(s) failed: {names}")


def build_parser() -> _Parser:
    parser = _Parser(prog="fiberspin", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for command, (help_line, fmt) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_line)
        for name, (parse, _) in _PARAMS[command].items():
            metavar = "E1,E2,..." if name == "etas" else None
            sub.add_argument("--" + name.replace("_", "-"), type=parse, metavar=metavar)
        if command in _PRESETS:
            sub.add_argument("--preset", choices=sorted(_PRESETS[command]))
        if command == "taustar":
            sub.add_argument("--etas-log", metavar="START:STOP:COUNT")
        sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        sub.add_argument("--format", choices=("csv", "text"), default=fmt, help="output format")
        sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
        # looked up now, not at import, so a handler rebound on the module is the one called
        sub.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def _join_dashed_values(argv: list[str]) -> list[str]:
    """argv with each long flag and a following "-<digit or .>" token joined as --flag=value.

    argparse takes --drive-re -1e-3 for two flags, since -1e-3 is no plain
    negative decimal. Every long flag here but --help takes a value.
    """
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        takes_value = flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
        if takes_value and re.match(r"-[0-9.]", token):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_join_dashed_values(sys.argv[1:] if argv is None else argv))
        args.func(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the interpreter's
        # own flush at exit cannot fail again (Python docs, signal module,
        # "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FiberspinError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (_CliUsage, ValueError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
