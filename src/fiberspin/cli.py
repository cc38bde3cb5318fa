"""Command-line front end: steady fields, coupling audit, traces, sweeps, self-checks.

Subcommands: steady, coupling, evolve, taustar, feasibility, validate.
Each subcommand parameter is declared once, in _PARAMS, as one `--name`
flag and one config key. Every subcommand, validate included, reads
--config: flat `key = value` lines with # comments, keyed by its flag
names. Parameter resolution order is flags > preset > config file >
built-in defaults.
Numeric output uses 9 significant digits, locale-independent, and is
byte-identical across repeated invocations, threaded sweeps included.
`evolve` computes, checks, formats and writes its trace one block of
16,384 rows at a time, so no whole-grid array or text is ever held and
its memory is the same at any grid size; its bytes are those of fmt9
applied to every value. fmt9_block makes them with numpy, 4,096 rows a
pass: each cell's digits come from one correctly rounded integer, laid
out in a fixed-width byte field whose pad bytes are dropped at the end,
and the rare cell that the integer cannot be trusted for (a scientific
form, or a value within 1e-6 of a rounding tie) gets fmt9's own text.
The checks that can refuse a trace, the grid guards on the whole grid
and the values of the first block, all run before anything is written.

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
import functools
import itertools
import math
import os
import sys
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .entanglement import entanglement_blocks, tau_star
from .errors import FiberspinError, ValidationFailure
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
from .validate import DEFAULT_SEED, run_all


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

_FEASIBILITY_PRESET = "paper-feasibility"

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


#: rows fmt9_block renders per pass; the pass's arrays peak at about 0.4 kB
#: a two-column row, 1.6 MB a pass, beside the 16,384-row block's text
_PASS_ROWS = 4096

#: a cell's field: byte 0 opens it (sep, or LF before a row's first cell),
#: byte 1 holds the sign, and byte 19 - c the number's character c places
#: left of its last one
_FIELD = 20

#: fields are handled as five little-endian uint32 lanes of four bytes
_LANE = np.dtype("<u4")

#: 10**d for every digit count d fmt9 prints in fixed form; each is exact
_POW10 = 10.0 ** np.arange(17)


@functools.cache
def _digit_lanes() -> np.ndarray:
    """Every 4-digit group as one lane of ASCII digits, most significant first.

    Entry g is g zero-padded to four digits; entry 10,000 + g is the same
    with its leading zeros as pad bytes, so entry 10,000 is four pads.
    This table and _point_patterns are built on first use, so that the
    subcommands that print no table do not pay for them at import.
    """
    g = np.arange(10_000)[:, None]
    place = np.array([1000, 100, 10, 1])
    full = (g // place % 10 + ord("0")).astype(np.uint8)
    bare = full * (g >= place).astype(np.uint8)
    lanes = np.concatenate((full, bare)).view(_LANE).ravel()
    lanes.flags.writeable = False
    return lanes


@functools.cache
def _point_patterns() -> np.ndarray:
    """Per digit count d, the (zeros, point) lanes that finish a field.

    The field holds the digits of q with a 0 inserted at place d. zeros is
    a "0" at every place up to d + 1, ORed in so that a value below 1 keeps
    its leading "0." and its fraction's leading zeros. point is XORed in:
    it turns the inserted "0" into "." (into a pad when d = 0).
    """
    c = (_FIELD - 1 - np.arange(_FIELD))[None, :]
    d = np.arange(17)[:, None]
    zeros = ord("0") * (c <= d + 1)
    point = (ord("0") ^ ord(".") * (d > 0)) * (c == d)
    patterns = np.stack((zeros, point)).astype(np.uint8).view(_LANE)
    patterns.flags.writeable = False
    return patterns


def _fmt9_pass(a: np.ndarray, opener: np.ndarray) -> str:
    """One pass of fmt9_block: rows of a finite array, each line LF-opened."""
    flat = (a + 0.0).ravel()  # -0.0 + 0.0 is +0.0, which prints unsigned like fmt9's zero
    n = flat.size
    mag = np.abs(flat)
    sci = (mag != 0.0) & ((mag < 1e-8) | (mag >= 1e12))
    # zeros (and scientific values, whose digits go unused) take log10(1) = 0,
    # so their digit count is fmt9's 8
    safe = np.where(sci | (mag == 0.0), 1.0, mag)
    lg = np.log10(safe)
    # near an exact power of ten numpy's log10 may round to the other side of
    # the integer than math.log10, which fmt9 uses
    for i in np.flatnonzero(np.abs(lg - np.rint(lg)) < 1e-9).tolist():
        lg[i] = math.log10(safe[i])
    # fixed-form values lie in [1e-8, 1e12), so d never reaches fmt9's cap of 20
    d = np.clip(8.0 - np.floor(lg), 0.0, 16.0).astype(np.intp)
    scale = np.take(_POW10, d)
    y = (mag * ~sci) * scale
    q = np.rint(y)
    fallback = sci | (np.abs(y - q) > 0.5 - 1e-6)
    # q with a 0 digit inserted at place d, below 10**14 and exact in float64
    z = q + 9.0 * scale * np.floor(q / scale)
    # lanes 4 to 1 take z's 4-digit groups from the last, a group's leading
    # zeros turning to pads once nothing is left above it; lane 0 stays pads
    digits = np.zeros((n, _FIELD // 4), dtype=_LANE)
    rest = z.astype(np.int64)
    for lane in (4, 3, 2, 1):
        up = rest // 10_000
        digits[:, lane] = np.take(_digit_lanes(), rest - up * 10_000 + 10_000 * (up == 0))
        rest = up
    zeros, point = np.take(_point_patterns(), d, axis=1)
    out = (digits | zeros) ^ point
    out[:, 0] |= opener[:n] | (flat < 0) * np.uint32(ord("-") << 8)
    # the lanes' bytes in field order, also on a big-endian host
    cells = out.astype(_LANE, copy=False).view(np.uint8)
    if fallback.any():
        idx = np.flatnonzero(fallback)
        texts = b"".join(fmt9(flat[i]).encode("ascii").rjust(_FIELD - 1, b"\0") for i in idx.tolist())
        cells[idx, 1:] = np.frombuffer(texts, dtype=np.uint8).reshape(idx.size, _FIELD - 1)
    text = cells.ravel()
    return text[text != 0].tobytes().decode("ascii")


def fmt9_block(table: np.ndarray, sep: str) -> str:
    """Rows of a 2-d float array as LF-terminated lines of sep-joined values.

    Byte-identical to joining fmt9(v) over each row, for sep one ASCII
    character other than NUL. Non-finite values raise ValueError.

    numpy makes the bytes, _PASS_ROWS rows a pass, on whole arrays of
    uint32 lanes, with Python work only for the rare fallback cells below.
    Each cell gets a _FIELD-byte field whose pad (zero) bytes one boolean
    compress drops at the end of the pass. Per cell, d is fmt9's digit
    count, from numpy's log10 rechecked with math.log10 near integers, and
    q = rint(y), y = |x| 10**d, is the integer whose digits are printed.
    q with a 0 inserted at place d is cut into 4-digit groups, looked up in
    _digit_lanes(), and the _point_patterns() of d add the zeros that a value
    below 1 needs and turn the inserted 0 into the point.

    Why q is what "%.{d}f" prints: fixed-form cells have d <= 16, so
    10**d is exact. For d >= 1, |x| < 10**(9 - d) gives y < 2**30, and the
    one rounding in the product puts y within half an ulp, 2**-24 (6e-8),
    of |x| 10**d exactly. For d = 0, y is |x| itself. So while y is at
    least 1e-6 away from a half-integer, the exact product is too, and
    rint(y) is its correctly rounded integer. Cells within that margin, and
    those fmt9 prints in scientific form, take fmt9's own text.
    """
    a = np.asarray(table, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("refusing to format a non-finite number")
    if len(sep) != 1 or not sep.isascii() or sep == "\0":
        raise ValueError(f"separator must be one ASCII character other than NUL, not {sep!r}")
    rows, ncols = a.shape
    if a.size == 0:
        return "\n" * rows
    # the LF that ends a row opens the next one: the first LF is dropped and
    # a last one is added
    opener = np.full(ncols, ord(sep), dtype=_LANE)
    opener[0] = ord("\n")
    opener = np.tile(opener, min(rows, _PASS_ROWS))
    parts = [_fmt9_pass(a[i : i + _PASS_ROWS], opener) for i in range(0, rows, _PASS_ROWS)]
    parts[0] = parts[0][1:]
    parts.append("\n")
    return "".join(parts)


def _emit(
    rows: list[tuple[str, ...] | Iterable[np.ndarray]], fmt: str, out: str | None, kv: bool = True
) -> None:
    """Render rows and write them to stdout or a file, LF-terminated.

    A row is a tuple of strings, or an iterable of 2-d float arrays, the
    blocks of a table, each array row printed as one line of values as fmt9
    would print them. Blocks are drawn one at a time as they are written,
    so a table is never held whole. The first block of each table is drawn
    and checked finite before the file is opened or stdout written;
    fmt9_block checks every later one as it renders it. A later block that
    fails, in its own checks or in its source's, leaves stdout cut short,
    and removes the out file if this call created it. A caller that must
    leave no partial output runs whatever can refuse a later block before
    this call, as cmd_evolve does through entanglement_blocks.
    kv=True renders two-element rows as `key = value` report lines in text
    mode; kv=False renders every row as space-joined columns.
    """
    staged: list = []
    for row in rows:
        if not isinstance(row, tuple):
            blocks = iter(row)
            first = next(blocks, None)
            if first is not None:
                if not np.all(np.isfinite(first)):
                    raise ValueError("refusing to format a non-finite number")
                blocks = itertools.chain([first], blocks)
            row = blocks
        staged.append(row)
    sep = "," if fmt == "csv" else " "
    created = bool(out) and not os.path.lexists(out)
    written = False
    try:
        if out:
            target = open(out, "w", encoding="utf-8", newline="")
        else:
            target = contextlib.nullcontext(sys.stdout)
        with target as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in staged:
                if not isinstance(row, tuple):
                    for block in row:
                        fh.write(fmt9_block(block, sep))
                elif fmt == "csv":
                    writer.writerow(row)
                elif kv and len(row) == 2 and row[0] == "warn":
                    fh.write(f"WARN {row[1]}\n")
                elif kv and len(row) == 2:
                    fh.write(f"{row[0]} = {row[1]}\n")
                else:
                    fh.write(" ".join(row) + "\n")
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


def _resolve(args, preset: dict | None = None) -> dict:
    """Merge defaults < config < preset < explicit flags over the subcommand's _PARAMS."""
    params = _PARAMS[args.subcommand]
    merged = {name: default for name, (_, default) in params.items()}
    if args.config:
        for key, value in _read_config(args.config).items():
            if key not in params:
                raise _CliUsage(f"unknown config key {key!r} for this subcommand")
            merged[key] = _cast(key, value, params[key][0])
    if preset:
        merged.update(preset)
    for name in params:
        if getattr(args, name) is not None:
            merged[name] = getattr(args, name)
    return merged


def _network_params(args) -> NetworkParams:
    cfg = _resolve(args, _NETWORK_PRESETS.get(args.preset))
    return NetworkParams(
        gamma=cfg["gamma"],
        delta=cfg["delta"],
        chi=cfg["chi"],
        drive=complex(cfg["drive_re"], cfg["drive_im"]),
        phi12=cfg["phi12"],
        phi21=cfg["phi21"],
        gamma_f=cfg["gamma_f"],
        units="MHz",
    )


def cmd_steady(args) -> None:
    p = _network_params(args)
    s = steady_fields(p)
    d = denominator(p)
    rows = [
        ("alpha_re", fmt9(s.alpha.real)),
        ("alpha_im", fmt9(s.alpha.imag)),
        ("alpha_mod", fmt9(abs(s.alpha))),
        ("beta_re", fmt9(s.beta.real)),
        ("beta_im", fmt9(s.beta.imag)),
        ("beta_mod", fmt9(abs(s.beta))),
        ("denominator_re", fmt9(d.real)),
        ("denominator_im", fmt9(d.imag)),
        ("denominator_mod", fmt9(abs(d))),
    ]
    for note in validate_regime(p, s):
        rows.append(("warn", note))
    _emit(rows, args.format, args.out)


def cmd_coupling(args) -> None:
    p = _network_params(args)
    r = coupling(p)
    rows = [
        ("j_oracle", fmt9(r.j_oracle)),
        ("j_closed", fmt9(r.j_closed)),
        ("j_single", fmt9(r.j_single)),
        ("theta1", fmt9(r.theta1)),
        ("theta2", fmt9(r.theta2)),
        ("local1", fmt9(r.local1)),
        ("local2", fmt9(r.local2)),
    ]
    if abs(r.theta1 - r.theta2) > _THETA_WARN * max(abs(r.theta1), abs(r.theta2)):
        rows.append(
            (
                "warn",
                "theta-asymmetry: |theta1 - theta2| = "
                f"{abs(r.theta1 - r.theta2):.6e} exceeds {_THETA_WARN:.0e} * max moduli;"
                " the single-theta shortcut j_single is unreliable here",
            )
        )
    _emit(rows, args.format, args.out)


def cmd_evolve(args) -> None:
    cfg = _resolve(args)
    # the whole-grid guards and the first block run here, before _emit opens anything
    blocks = entanglement_blocks(cfg["eta"], cfg["tau_max"], cfg["step"])
    table = (np.column_stack((b.taus, b.values)) for b in blocks)
    _emit([("tau", "entanglement"), table], args.format, args.out, kv=False)


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
        if count == 1:
            return [start]
        return [float(v) for v in np.geomspace(start, stop, count)]
    return list(cfg["etas"])


def cmd_taustar(args) -> None:
    cfg = _resolve(args)
    etas = _taustar_etas(args, cfg)
    window, step, tolerance = cfg["window"], cfg["step"], cfg["tolerance"]
    threads = (os.cpu_count() or 1) if cfg["threads"] is None else max(cfg["threads"], 1)

    def one(eta: float):
        return tau_star(eta, window=window, step=step, tolerance=tolerance)

    if threads == 1 or len(etas) == 1:
        results = [one(eta) for eta in etas]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, etas))
    rows = [("eta", "tau_star", "e_max")]
    rows.extend((fmt9(r.eta), fmt9(r.tau_star), fmt9(r.e_max)) for r in results)
    _emit(rows, args.format, args.out, kv=False)


def cmd_feasibility(args) -> None:
    if args.preset is not None and args.preset != _FEASIBILITY_PRESET:
        raise _CliUsage(f"feasibility supports only the preset {_FEASIBILITY_PRESET!r}")
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
    rows = [
        ("chi", fmt9(chi_mag)),
        ("chi_sign", fmt9(chi_sign)),
        ("nbar", fmt9(raman.nbar)),
        ("j_at_nbar", fmt9(j_estimate(chi_mag, raman.nbar, raman.gamma))),
        ("j_nbar_50", fmt9(j_estimate(chi_mag, 50.0, raman.gamma))),
        ("j_nbar_100", fmt9(j_estimate(chi_mag, 100.0, raman.gamma))),
        ("gamma_f_power", fmt9(gf_power)),
        ("gamma_f_amplitude", fmt9(gf_amp)),
        ("loss_ratio_single", fmt9(ratios.single)),
        ("loss_ratio_squared", fmt9(ratios.squared)),
    ]
    _emit(rows, args.format, args.out)


def cmd_validate(args) -> None:
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
        if command in ("steady", "coupling"):
            sub.add_argument("--preset", choices=sorted(_NETWORK_PRESETS))
        elif command == "feasibility":
            sub.add_argument("--preset")
        elif command == "taustar":
            sub.add_argument("--etas-log", metavar="START:STOP:COUNT")
        sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        sub.add_argument("--format", choices=("csv", "text"), default=fmt, help="output format")
        sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
        # looked up now, not at import, so a handler rebound on the module is the one called
        sub.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
