"""Subprocess checks of the command-line interface and its output contract."""

import argparse
import ast
import builtins
import collections
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import operator
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

from fiberspin import (
    NetworkParams,
    coupling,
    entanglement_trace,
    eof_from_concurrence,
    kernels,
    steady_fields,
)
from fiberspin import cli as cli_module
from fiberspin.entanglement import _BLOCK_ROWS
from fiberspin.network import EPS_SINGULAR
from fiberspin import _blocks, errors
from fiberspin._blocks import _PASS_ROWS
from fiberspin.cli import (
    _CliUsage,
    _resolve,
    build_parser,
    fmt9,
    main,
)


def lines(raw):
    return raw.decode("utf-8").splitlines()


def test_fmt9_formatting():
    assert fmt9(0.0) == "0.00000000"
    assert fmt9(-2.0) == "-2.00000000"
    assert fmt9(10.0) == "10.0000000"
    assert fmt9(-100.0) == "-100.000000"
    assert fmt9(0.151515151515) == "0.151515152"
    assert fmt9(1.23456789e13) == "1.23456789e+13"
    assert fmt9(5e-9) == "5.00000000e-09"
    with pytest.raises(ValueError):
        fmt9(math.nan)


def fmt9_block(table, sep):
    """Rows of a 2-d float array as LF-terminated lines of sep-joined fmt9 values, through a Formatter."""
    a = np.asarray(table, dtype=np.float64)
    formatter = _blocks.Formatter(a.shape[1], sep)
    if a.size == 0:
        return "\n" * len(a)
    return "".join(str(part, "ascii") for part in formatter.stream([a.T]))


def _fmt9_lines(table, sep):
    return "".join(sep.join(fmt9(x) for x in row) + "\n" for row in table.tolist())


def _ulps(x, k):
    """x moved k ulps, towards +inf for k > 0."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.inf if k > 0 else -math.inf))
    return x


#: both scientific cutoffs and their neighbours, signed zeros, exact powers of
#: ten +-1 ulp, and values whose rounding carries into one more digit
FMT9_EDGES = [
    (1e-8, "0.0000000100000000"),
    (_ulps(1e-8, -1), "1.00000000e-08"),
    (_ulps(1e-8, 1), "0.0000000100000000"),
    (-1e-8, "-0.0000000100000000"),
    (1e12, "1.00000000e+12"),
    (_ulps(1e12, -1), "1000000000000"),
    (_ulps(1e12, 1), "1.00000000e+12"),
    (-_ulps(1e12, -1), "-1000000000000"),
    (0.0, "0.00000000"),
    (-0.0, "0.00000000"),
    (1.0, "1.00000000"),
    (_ulps(1.0, -1), "1.000000000"),
    (_ulps(1.0, 1), "1.00000000"),
    (1000.0, "1000.00000"),
    (_ulps(1000.0, -1), "1000.00000"),
    (_ulps(1000.0, 1), "1000.00000"),
    (1e-5, "0.0000100000000"),
    (_ulps(1e-5, -1), "0.0000100000000"),
    (-_ulps(1e-5, 1), "-0.0000100000000"),
    (9.9999999995, "10.00000000"),
    (-9.9999999995, "-10.00000000"),
    (0.99999999995, "1.000000000"),
    (999999999999.9999, "1000000000000"),
    (-2.0, "-2.00000000"),
    (0.151515151515, "0.151515152"),
    (5e-324, "4.94065646e-324"),
    (1.7e308, "1.70000000e+308"),
    # rounding that carries into one more digit, at several digit counts
    (9.99999999951e5, "1000000.000"),
    (-9.99999999951e5, "-1000000.000"),
    (9.999999999e-8, "0.0000001000000000"),
    (-9.99999999951e-5, "-0.0001000000000"),
    (999999999.6, "1000000000"),
    (999999999999.6, "1000000000000"),
    # values whose numpy log10 floors to another integer than math.log10's
    (_ulps(1e-6, -5), "0.00000100000000"),
    (_ulps(1e3, -5), "1000.00000"),
    (_ulps(1e5, -7), "100000.0000"),
    (_ulps(1e9, -18), "1000000000"),
    # negatives next to the scientific cutoffs
    (-_ulps(1e-8, -1), "-1.00000000e-08"),
    (-_ulps(1e-8, 1), "-0.0000000100000000"),
    (-_ulps(1e12, 1), "-1.00000000e+12"),
    (-1e12, "-1.00000000e+12"),
]


def test_fmt9_block_golden():
    values = np.array([v for v, _ in FMT9_EDGES])
    assert [fmt9(v) for v, _ in FMT9_EDGES] == [text for _, text in FMT9_EDGES]
    assert fmt9_block(values[:, None], ",") == _fmt9_lines(values[:, None], ",")
    pairs = values[: values.size // 2 * 2].reshape(-1, 2)
    assert fmt9_block(pairs, " ") == _fmt9_lines(pairs, " ")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fmt9_block(np.array([[1.0, bad]]), ",")


def _near_half(k, d, j):
    """A value whose d-th decimal is followed by (almost) exactly 5, moved j ulps.

    With k of nine digits fmt9 prints d decimals, so |x| 10**d lies within
    1e-6 of a half-integer: fmt9_block must take fmt9's own text.
    """
    return _ulps((k + 0.5) * 10.0**-d, j)


_near_halves = st.builds(
    lambda k, d, j, sign: sign * _near_half(k, d, j),
    st.integers(10**8, 10**9 - 1),
    st.integers(0, 16),
    st.integers(-3, 3),
    st.sampled_from([1.0, -1.0]),
)

_fmt9_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([v for v, _ in FMT9_EDGES]),
    st.builds(
        lambda m, e, k: _ulps(m * 10.0**e, k),
        st.sampled_from([1.0, 9.9999999995, 0.99999999995, 5.0000000005]),
        st.integers(-10, 13),
        st.integers(-2, 2),
    ),
    _near_halves,
)


@given(st.lists(st.tuples(_fmt9_values, _fmt9_values), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_fmt9_block_matches_fmt9(rows):
    table = np.array(rows, dtype=np.float64)
    assert fmt9_block(table, ",") == _fmt9_lines(table, ",")
    assert fmt9_block(table[:, :1], " ") == _fmt9_lines(table[:, :1], " ")


def _counting_fmt9(monkeypatch):
    """Spy on the cli module's fmt9; returns the list of values it was given."""
    seen = []

    def spy(x):
        seen.append(x)
        return fmt9(x)

    monkeypatch.setattr(cli_module, "fmt9", spy)
    return seen


def test_fmt9_block_all_fallback_cells(monkeypatch):
    # near-half cells at every digit count, both signs, and scientific cells:
    # each one takes fmt9's text, and the lines are still fmt9's
    rng = np.random.default_rng(20261018)
    halves = [
        sign * _near_half(int(rng.integers(10**8, 10**9)), d, j)
        for d in range(17)
        for j in range(-3, 4)
        for sign in (1.0, -1.0)
    ]
    table = np.array(halves + [5e-9, -1.5e12, 5e-324, -1.7e308]).reshape(-1, 2)
    seen = _counting_fmt9(monkeypatch)
    assert fmt9_block(table, ",") == _fmt9_lines(table, ",")
    assert len(seen) == table.size


@pytest.mark.parametrize("ncols", [1, 2, 3])
@pytest.mark.parametrize("sep", [",", " "])
@pytest.mark.parametrize("rows", [_PASS_ROWS - 1, _PASS_ROWS, _PASS_ROWS + 1])
def test_fmt9_block_shapes_and_pass_boundaries(ncols, sep, rows):
    # rows straddling the formatter's pass size: every golden edge value at a
    # random cell, and random signed values from 1e-9 to 1e13 in the others
    rng = np.random.default_rng([rows, ncols])
    cells = rng.choice([-1.0, 1.0], rows * ncols) * 10.0 ** rng.uniform(-9, 13, rows * ncols)
    edges = np.array([v for v, _ in FMT9_EDGES])
    cells[rng.choice(cells.size, edges.size, replace=False)] = edges
    table = cells.reshape(rows, ncols)
    assert fmt9_block(table, sep) == _fmt9_lines(table, sep)


def test_fmt9_block_edge_shapes_and_separators():
    assert fmt9_block(np.empty((0, 2)), ",") == ""
    assert fmt9_block(np.empty((3, 0)), ",") == "\n\n\n"
    for bad in ("", ", ", "\0", "\u00e9"):
        with pytest.raises(ValueError):
            fmt9_block(np.ones((1, 2)), bad)


def test_fmt9_fallback_stays_rare(monkeypatch):
    # the default evolve trace at 150,001 rows: only the scientific cells near
    # tau = 0 take fmt9's text
    trace = entanglement_trace(0.1, 1500.0, 0.01)
    table = np.column_stack((trace.taus, trace.values))
    seen = _counting_fmt9(monkeypatch)
    text = fmt9_block(table, ",")
    assert len(text.splitlines()) == 150_001
    assert len(seen) < table.size / 10**4


#: tracemalloc peak of the "%.*f" template formatter that fmt9_block replaced,
#: on the block below: 3,906,273 bytes (CPython 3.11, numpy 2.4)
_TEMPLATE_PEAK = 3_906_273


def test_fmt9_block_memory_stays_small():
    trace = entanglement_trace(0.1, 163.83, 0.01)
    table = np.column_stack((trace.taus, trace.values))
    assert table.shape == (_BLOCK_ROWS, 2)
    fmt9_block(table, ",")  # warm any lazy numpy state outside the measurement
    tracemalloc.start()
    try:
        fmt9_block(table, ",")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _TEMPLATE_PEAK


#: most bytes that streaming a 10^5-row table through a warmed Formatter(2, ",")
#: may add at its peak. A pass holds its text and the last pass's, 160 KiB
#: each. Measured (CPython 3.11, numpy 2.4): 0.318 MiB; 0.729 MiB when each
#: pass built an int64 index of its kept bytes to compact them
_STREAM_PEAK = 0.45 * 2**20


def _table_columns(rows):
    """A tau column of step 0.01 and a seeded column of values in [0, 1)."""
    return [np.arange(rows) * 0.01, np.random.default_rng(rows).random(rows)]


def test_formatter_streams_in_about_two_passes_of_text():
    columns = _table_columns(100_000)
    formatter = _blocks.Formatter(2, ",")
    for _ in formatter.block([c[:_PASS_ROWS] for c in columns]):
        pass
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in formatter.stream([columns]):
            pass
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= _STREAM_PEAK, peak


def test_formatter_passes_stay_valid_after_the_next():
    # each pass's text is its own, so collecting them before writing any gives
    # the bytes written as each is drawn
    columns = _table_columns(3 * _PASS_ROWS + 5)
    written = b"".join(bytes(part) for part in _blocks.Formatter(2, ",").stream([columns]))
    collected = list(_blocks.Formatter(2, ",").stream([columns]))
    assert b"".join(collected) == written
    assert written.decode("ascii") == _fmt9_lines(np.column_stack(columns), ",")


def test_evolve_streams_blocks_byte_identical(cli, tmp_path):
    # 150,001 rows: nine full 16,384-row blocks and a partial tenth
    trace = entanglement_trace(0.1, 1500.0, 0.01)
    table = np.column_stack((trace.taus, trace.values))
    assert table.shape == (150_001, 2)
    csv_ref = "tau,entanglement\n" + _fmt9_lines(table, ",")
    assert csv_ref.splitlines()[2] == "0.0100000000,3.45441892e-14"
    direct = cli("evolve", "--tau-max", "1500", "--step", "0.01")
    assert direct.returncode == 0
    assert direct.stdout.decode("utf-8") == csv_ref
    out = tmp_path / "trace.txt"
    routed = cli(
        "evolve", "--tau-max", "1500", "--step", "0.01", "--format", "text", "--out", str(out)
    )
    assert routed.returncode == 0 and routed.stdout == b""
    assert out.read_text(encoding="utf-8") == "tau entanglement\n" + _fmt9_lines(table, " ")


def test_evolve_fails_before_writing(monkeypatch, capsys, tmp_path):
    def nan_kernel(eta, step, n, start=0):
        values = np.zeros(n)
        values[-1] = math.nan
        return values

    # the trace container already refuses the NaN; the CLI must still exit 1 unwritten
    monkeypatch.setattr(kernels, "ent_trace_grid", nan_kernel)
    assert main(["evolve", "--tau-max", "1", "--step", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out-of-range:")

    # nor does it create --out
    out = tmp_path / "partial.csv"
    assert main(["evolve", "--tau-max", "1", "--step", "0.01", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out-of-range:")
    assert not out.exists()


def test_evolve_removes_its_out_file_when_a_later_block_fails(monkeypatch, capsys, tmp_path):
    real = kernels.ent_trace_grid

    def late_nan_kernel(eta, step, n, start=0):
        values = real(eta, step, n, start=start)
        if start > 0:
            values[-1] = math.nan
        return values

    monkeypatch.setattr(kernels, "ent_trace_grid", late_nan_kernel)
    out = tmp_path / "partial.csv"
    # 20,001 rows: the first block passes, the second fails as it is reached
    assert main(["evolve", "--tau-max", "200", "--out", str(out)]) == 1
    assert "escaped [0, 1]" in capsys.readouterr().err
    assert not out.exists()
    # stdout cannot be taken back: it holds the rows written before the failure
    assert main(["evolve", "--tau-max", "200"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tau,entanglement" and len(lines) == 1 + _BLOCK_ROWS


def test_evolve_refuses_a_mid_grid_phase_overflow_before_writing(capsys, tmp_path):
    # a first block of 16,384 rows passes the kernel's phase guard; only the
    # whole grid's last phase leaves the float range, so that guard must run
    # before any byte is written
    args = ["evolve", "--eta", "1e305", "--tau-max", "1000"]
    out = tmp_path / "trace.csv"
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: degenerate-eta:")
    assert not out.exists()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: degenerate-eta:")
    assert captured.out == ""


def _evolve_peak(tmp_path, tau_max: str) -> int:
    """tracemalloc peak of one in-process `evolve --tau-max tau_max --step 0.01` to a file."""
    tracemalloc.start()
    try:
        assert main(["evolve", "--tau-max", tau_max, "--step", "0.01", "--out", str(tmp_path / "t.csv")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_never_holds_the_whole_grid(monkeypatch, tmp_path):
    kernel_calls, formatted = [], []
    real_kernel, real_format = kernels.ent_trace_grid, _blocks.Formatter.block

    def kernel(eta, step, n, start=0):
        kernel_calls.append((start, n))
        return real_kernel(eta, step, n, start=start)

    def format_block(self, columns):
        formatted.append(tuple(map(len, columns)))
        return real_format(self, columns)

    monkeypatch.setattr(kernels, "ent_trace_grid", kernel)
    monkeypatch.setattr(_blocks.Formatter, "block", format_block)
    out = tmp_path / "trace.csv"
    assert main(["evolve", "--tau-max", "1500", "--step", "0.01", "--out", str(out)]) == 0
    rows = 150_001
    assert all(n <= _BLOCK_ROWS for _, n in kernel_calls)
    ends = [0] + [start + n for start, n in kernel_calls]
    assert [start for start, _ in kernel_calls] == ends[:-1] and ends[-1] == rows
    assert formatted == [(n, n) for _, n in kernel_calls]
    monkeypatch.undo()

    # numpy reports its buffers to tracemalloc, so a whole-grid array would show
    _evolve_peak(tmp_path, "10")  # imports and caches
    small = _evolve_peak(tmp_path, "1000")  # 10^5 rows
    large = _evolve_peak(tmp_path, "4000")  # 4 * 10^5 rows
    assert large <= 1.25 * small, (small, large)


#: most minor page faults a child `evolve --out` may add from 10^5 to 4 * 10^5
#: rows. Measured on Linux (glibc, numpy 2.4): 0-6 with the formatter's arrays
#: made once per run and each pass's text a bytearray of its own, as it was
#: (1-5) when each pass compacted its text through an index of its kept bytes
#: into a buffer made once; about 8,800 when every pass makes its arrays afresh and
#: every block is joined into one text, as glibc trims the freed heap and the
#: next pass faults it back in; about 1,650 when only the float work arrays
#: are made afresh each pass
_FAULT_GROWTH = 500


@pytest.mark.skipif(sys.platform != "linux", reason="reads a child's ru_minflt from os.wait4, as Linux fills it")
def test_evolve_page_faults_do_not_grow_with_the_grid(tmp_path):
    def faults(tau_max: str) -> int:
        argv = [sys.executable, "-m", "fiberspin", "evolve", "--tau-max", tau_max, "--out", str(tmp_path / "t.csv")]
        proc = subprocess.Popen(argv)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        return usage.ru_minflt

    small = faults("1000")  # 10^5 rows
    large = faults("4000")  # 4 * 10^5 rows
    assert large - small < _FAULT_GROWTH, (small, large)


#: the etas perfbench's taustar-sweep draws at seed 20261019
_SWEEP_ETAS = (
    "0.10075984280002613,0.38734766942734494,0.0753979217291889,0.2200913439013282,"
    "0.15307490239983151,0.711468926685253,0.6742010928459867,0.11058633982495018"
)

#: most minor page faults a child `taustar` over _SWEEP_ETAS may add from
#: --window 10 (one kernel block per eta) to --window 10000 (977). Measured
#: on Linux (glibc, numpy 2.4): about 820 with the block-peak buffers made
#: once per conc2_block_max call; about 25,000-28,000 when each chunk of
#: blocks makes its elementwise temporaries afresh, as glibc trims the freed
#: heap and the next chunk faults it back in
_TAUSTAR_FAULT_GROWTH = 3000


@pytest.mark.skipif(sys.platform != "linux", reason="reads a child's ru_minflt from os.wait4, as Linux fills it")
def test_taustar_page_faults_do_not_grow_with_the_window():
    def faults(window: str) -> int:
        argv = [sys.executable, "-m", "fiberspin", "taustar", "--etas", _SWEEP_ETAS, "--window", window]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        return usage.ru_minflt

    small = faults("10")
    large = faults("10000")
    assert large - small < _TAUSTAR_FAULT_GROWTH, (small, large)


def test_steady_sym_preset(cli):
    r = cli("steady", "--preset", "example-sym")
    assert r.returncode == 0
    out = lines(r.stdout)
    assert out[0] == "alpha_re = 10.0000000"
    assert out[1] == "alpha_im = -10.0000000"
    assert out[5] == "beta_mod = 10.0000000"
    assert any(row.startswith("WARN ") for row in out)
    assert r.stderr == b""


def test_steady_csv_format(cli):
    r = cli("steady", "--preset", "example-sym", "--format", "csv")
    assert r.returncode == 0
    out = lines(r.stdout)
    assert out[0] == "alpha_re,10.0000000"
    assert b"\r" not in r.stdout
    assert r.stdout.endswith(b"\n")


def test_steady_singularity_exits_2(cli):
    r = cli("steady", "--delta", "0", "--phi12", "0", "--phi21", "0")
    assert r.returncode == 2
    assert r.stderr.startswith(b"error: resonant-recycling:")
    assert r.stdout == b""


@pytest.mark.parametrize("argv", [("steady", "--gamma", "1e200"), ("coupling", "--delta", "1e170")])
def test_overflow_is_one_out_of_range_line_not_resonance(cli, argv):
    r = cli(*argv)
    assert (r.returncode, r.stdout) == (1, b"")
    assert r.stderr.startswith(b"error: out-of-range: denominator_re is not finite")
    assert r.stderr.count(b"\n") == 1


def test_coupling_sym_and_asym(cli):
    sym = cli("coupling", "--preset", "example-sym")
    assert sym.returncode == 0
    out = lines(sym.stdout)
    assert out[0] == "j_oracle = -2.00000000"
    assert out[2] == "j_single = -1.00000000"
    assert not any(row.startswith("WARN") for row in out)
    asym = cli("coupling", "--preset", "example-asym")
    assert any("theta-asymmetry" in row for row in lines(asym.stdout))


def test_evolve_default_csv(cli):
    r = cli("evolve", "--tau-max", "1", "--step", "0.01")
    assert r.returncode == 0
    out = lines(r.stdout)
    assert out[0] == "tau,entanglement"
    assert out[1] == "0.00000000,0.00000000"
    assert len(out) == 102


def test_evolve_rejects_bad_grid(cli):
    r = cli("evolve", "--step", "0.5")
    assert r.returncode == 1
    assert r.stderr.startswith(b"error: bad-grid:")
    # 10^9 points: refused by the grid cap, not by running out of memory
    huge = cli("evolve", "--tau-max", "1e7", "--step", "0.01")
    assert huge.returncode == 1
    assert huge.stderr.startswith(b"error: bad-grid:")
    assert huge.stdout == b""


def test_taustar_table(cli):
    args = (
        "taustar",
        "--etas",
        "0.4,0.2",
        "--window",
        "200",
    )
    first = cli(*args)
    second = cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    out = lines(first.stdout)
    assert out[0] == "eta,tau_star,e_max"
    assert len(out) == 3
    assert out[1].startswith("0.400000000,")
    assert out[2].startswith("0.200000000,")
    tau_fast = float(out[1].split(",")[1])
    tau_slow = float(out[2].split(",")[1])
    assert tau_fast < tau_slow


def test_taustar_has_no_threads_flag_or_key(cli, tmp_path):
    # taustar runs on one thread; the --threads flag and config key are gone
    flag = cli("taustar", "--etas", "0.4", "--window", "10", "--threads", "2")
    assert (flag.returncode, flag.stdout) == (1, b"")
    assert flag.stderr.startswith(b"error: usage:") and b"--threads" in flag.stderr
    cfg = tmp_path / "taustar.cfg"
    cfg.write_text("threads = 2\n", encoding="utf-8")
    key = cli("taustar", "--etas", "0.4", "--window", "10", "--config", str(cfg))
    assert (key.returncode, key.stdout) == (1, b"")
    assert key.stderr == b"error: usage: unknown config key 'threads' for this subcommand\n"


@pytest.mark.parametrize("eta", ["1e160", "1e200"])
def test_huge_eta_is_computed_not_zeroed(cli, eta):
    # eta*eta overflows a double here; the output must still be the eta ->
    # infinity trace, E(tau) of C = |sin 2 tau|, with no numpy warning
    r = cli("taustar", "--etas", eta, "--window", "10", env_extra={"PYTHONWARNINGS": "error"})
    assert r.returncode == 0, r.stderr
    assert r.stderr == b""
    assert lines(r.stdout)[1] == f"{float(eta):.8e},0.730000000,0.999998890"
    r = cli("evolve", "--eta", eta, "--tau-max", "1", "--step", "0.1", env_extra={"PYTHONWARNINGS": "error"})
    assert r.returncode == 0, r.stderr
    assert r.stderr == b""
    rows = [row.split(",") for row in lines(r.stdout)[1:]]
    assert len(rows) == 11
    for tau, e in rows:
        expect = eof_from_concurrence(abs(math.sin(2.0 * float(tau))))
        assert abs(float(e) - expect) <= 1e-8


def test_eta_beyond_the_phase_range_is_refused(cli):
    # omega = 2*sqrt(1+eta^2) itself overflows: a typed error, nothing on stdout
    for args in (("taustar", "--etas", "1.7e308", "--window", "10"), ("evolve", "--eta", "1.7e308")):
        r = cli(*args)
        assert r.returncode == 1
        assert r.stderr.startswith(b"error: degenerate-eta:")
        assert r.stdout == b""


def test_taustar_log_grid(cli):
    r = cli("taustar", "--etas-log", "0.1:0.4:3", "--window", "100")
    assert r.returncode == 0
    out = lines(r.stdout)
    assert len(out) == 4
    etas = [float(row.split(",")[0]) for row in out[1:]]
    assert etas == pytest.approx(list(np.geomspace(0.1, 0.4, 3)), rel=1e-8)


def test_taustar_log_grid_of_one_eta_is_its_start(cli):
    r = cli("taustar", "--etas-log", "0.3:0.9:1", "--window", "100")
    assert r.returncode == 0
    out = lines(r.stdout)
    assert len(out) == 2
    assert out[1].split(",")[0] == "0.300000000"


#: the README's fenced code blocks, as (language, body)
README_BLOCKS = re.findall(
    r"```(\w+)\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"), re.S
)


def test_readme_command_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    examples = [
        shlex.split(line)[1:]
        for lang, body in README_BLOCKS
        if lang == "sh"
        for line in body.splitlines()
        if line.startswith("fiberspin ")
    ]
    assert len(examples) == 6
    for argv in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""
    assert (tmp_path / "trace.csv").stat().st_size > 0


def test_readme_quick_start_prints_its_numbers(capsys):
    (code,) = [body for lang, body in README_BLOCKS if lang == "python"]
    exec(code, {})
    e_max, hit = capsys.readouterr().out.splitlines()
    tau, e = hit.split()
    assert e_max.startswith("0.9999892")
    assert tau.startswith("146.59") and e.startswith("0.99999")


def test_taustar_refuses_etas_with_etas_log(capsys, tmp_path):
    # an explicit --etas was dropped silently; both flags are one usage line
    assert main(["taustar", "--etas", "0.5", "--etas-log", "0.1:0.4:2", "--window", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: usage: --etas and --etas-log cannot be given together\n"
    # flags outrank the config file, so --etas-log overrides a config-file etas
    cfg = tmp_path / "etas.cfg"
    cfg.write_text("etas = 0.5\n", encoding="utf-8")
    assert main(["taustar", "--config", str(cfg), "--etas-log", "0.1:0.4:2", "--window", "100"]) == 0
    from_config = capsys.readouterr()
    assert main(["taustar", "--etas-log", "0.1:0.4:2", "--window", "100"]) == 0
    assert from_config == capsys.readouterr()


def test_taustar_rejects_bad_eta_lists(cli):
    empty = cli("taustar", "--etas", "", "--window", "100")
    assert empty.returncode == 1
    assert empty.stderr.startswith(b"error: usage:")
    negative = cli("taustar", "--etas", "-0.5", "--window", "100")
    assert negative.returncode == 1
    assert negative.stderr.startswith(b"error: degenerate-eta:")
    malformed = cli("taustar", "--etas-log", "0.1:0.4", "--window", "100")
    assert malformed.returncode == 1


def test_a_flag_value_may_start_with_minus_and_an_exponent_form(capsys):
    # argparse reads only plain negative decimals such as -0.5 as values, so
    # -1e-3 was taken for a flag and failed with "expected one argument"
    assert main(["steady", "--drive-re", "-1e-3"]) == 0
    spaced = capsys.readouterr()
    assert main(["steady", "--drive-re=-1e-3"]) == 0
    assert spaced.out == capsys.readouterr().out
    assert "alpha_re = -0.00100000000" in spaced.out.splitlines()


def test_a_negative_eta_list_reaches_the_eta_check(capsys):
    assert main(["taustar", "--etas", "-0.1,0.2", "--window", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degenerate-eta: eta must be a positive real, got -0.1\n"


def test_a_negative_log_grid_start_reaches_the_endpoint_check(capsys):
    assert main(["taustar", "--etas-log", "-0.1:0.4:3", "--window", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: usage: --etas-log needs finite positive endpoints, got -0.1:0.4\n"


@pytest.mark.parametrize(
    "grid, word",
    [
        ("0.1:0.4:10000000000000", b"count"),
        ("0.1:0.4:10001", b"count must be from 1 to 10000"),
        ("0.1:inf:3", b"finite"),
        ("nan:0.4:3", b"finite"),
    ],
)
def test_taustar_refuses_bad_log_grids_before_allocating(cli, grid, word):
    # a huge count used to end in numpy's allocation error, inf in a leaked
    # RuntimeWarning, and nan passed the positivity check
    r = cli("taustar", "--etas-log", grid, "--window", "100")
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr.startswith(b"error: usage: --etas-log") and word in r.stderr
    assert r.stderr.count(b"\n") == 1


def test_feasibility_report(cli):
    r = cli("feasibility")
    assert r.returncode == 0
    out = lines(r.stdout)
    assert "chi = 6.28318531" in out
    assert "j_at_nbar = 50.2654825" in out
    assert "j_nbar_50 = 25.1327412" in out
    assert "gamma_f_power = 0.0805904783" in out
    assert "loss_ratio_squared = 0.851138038" in out


def test_feasibility_flags(cli):
    zero = cli("feasibility", "--nbar", "0")
    assert "j_at_nbar = 0.00000000" in lines(zero.stdout)
    bad = cli("feasibility", "--delta-a", "0")
    assert bad.returncode == 1
    assert bad.stderr.startswith(b"error: zero-detuning:")
    unknown = cli("feasibility", "--preset", "example-sym")
    assert unknown.returncode == 1


@pytest.mark.parametrize("chi", ["nan", "inf", "-inf"])
def test_feasibility_refuses_a_non_finite_chi(chi, capsys):
    # refused as the parameter it is, not later as an unprintable result
    assert main(["feasibility", f"--chi={chi}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the chi line shows |chi|, so -inf is refused as inf
    assert captured.err == f"error: out-of-range: chi is not finite, got {abs(float(chi))!r}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        # the library returns these without complaint; they used to reach fmt9
        (("coupling", "--drive-re", "1e300"), "error: out-of-range: j_oracle is not finite, got -inf\n"),
        (
            ("coupling", "--chi", "1e10", "--drive-re", "1e300"),
            "error: out-of-range: source_alpha_re is not finite, got -inf\n",
        ),
        (
            ("steady", "--drive-re", "1.7e308", "--drive-im", "1.7e308"),
            "error: out-of-range: alpha_re is not finite, got inf\n",
        ),
        (("feasibility", "--g", "1e200", "--omega", "1e200"), "error: out-of-range: chi is not finite, got inf\n"),
        (
            ("feasibility", "--db-per-km", "1e308", "--length-km", "10"),
            "error: out-of-range: loss exponent of 1e+308 dB/km over 10.0 km overflows\n",
        ),
        # |alpha| overflows while both of its parts are finite
        (
            ("steady", "--gamma", "0.5", "--delta", "0", "--phi12", "1.5707963267948966", "--phi21", "0")
            + ("--drive-re", "1.4e308"),
            "error: out-of-range: alpha_mod is not finite, got inf\n",
        ),
        # the finite sources give a solve2 solution past the float range
        (
            ("coupling", "--chi", "1e308", "--drive-re", "1"),
            "error: out-of-range: a component of the solution exceeds the float range:"
            " (-2.2250738585072014+7.161102507662779e-16j) * 2**1023\n",
        ),
    ],
    ids=[
        "coupling",
        "coupling-source",
        "steady",
        "feasibility-chi",
        "feasibility-loss",
        "steady-mod",
        "coupling-solve2",
    ],
)
def test_a_non_finite_result_is_refused_before_printing(argv, err, capsys, tmp_path):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    out = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_config_and_flag_precedence(cli, tmp_path):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("# partial overrides\ndelta = 0.25\nchi = 0.2\n", encoding="utf-8")
    r = cli("coupling", "--config", str(cfg))
    expect = coupling(
        NetworkParams(
            gamma=1.0, delta=0.25, chi=0.2, drive=10.0, phi12=math.pi / 4, phi21=math.pi / 4
        )
    )
    assert f"j_oracle = {fmt9(expect.j_oracle)}" in lines(r.stdout)

    # a preset overrides config values wholesale
    with_preset = cli("coupling", "--config", str(cfg), "--preset", "example-asym")
    preset_only = cli("coupling", "--preset", "example-asym")
    assert with_preset.stdout == preset_only.stdout

    # an explicit flag beats the preset
    flagged = cli("steady", "--preset", "example-sym", "--delta", "2.0")
    s = steady_fields(
        NetworkParams(
            gamma=1.0, delta=2.0, chi=0.1, drive=10.0, phi12=math.pi / 4, phi21=math.pi / 4
        )
    )
    assert f"alpha_re = {fmt9(s.alpha.real)}" in lines(flagged.stdout)


def test_config_rejects_unknown_key(cli, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n", encoding="utf-8")
    r = cli("steady", "--config", str(bad))
    assert r.returncode == 1
    assert r.stderr.startswith(b"error: usage:")


def test_unknown_flag_is_usage_error(cli):
    r = cli("steady", "--warp", "9")
    assert r.returncode == 1
    assert r.stderr.startswith(b"error: usage:")


def test_out_file_matches_stdout(cli, tmp_path):
    out = tmp_path / "rows.csv"
    direct = cli("coupling", "--preset", "example-sym", "--format", "csv")
    routed = cli("coupling", "--preset", "example-sym", "--format", "csv", "--out", str(out))
    assert routed.returncode == 0
    assert routed.stdout == b""
    assert out.read_bytes() == direct.stdout


def test_repeat_runs_are_byte_identical(cli):
    a = cli("steady", "--preset", "example-asym")
    b = cli("steady", "--preset", "example-asym")
    assert a.stdout == b.stdout and a.returncode == b.returncode


def test_validate_passes_and_fails(cli):
    good = cli("validate", "--seed", "7")
    assert good.returncode == 0, good.stderr
    rows = lines(good.stdout)
    assert rows and all(row.startswith("PASS ") for row in rows)
    assert cli("validate", "--seed", "7").stdout == good.stdout
    strict = cli("validate", "--tolerance", "1e-18")
    assert strict.returncode == 3
    assert strict.stderr.startswith(b"error: validation:")
    assert any(row.startswith("FAIL ") for row in lines(strict.stdout))


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "-inf"])
def test_validate_refuses_a_bad_tolerance(capsys, tmp_path, tolerance):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(f"tolerance = {tolerance}\n", encoding="utf-8")
    for argv in (["validate", f"--tolerance={tolerance}"], ["validate", "--config", str(cfg)]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out-of-range: tolerance must be")
        assert captured.err.count("\n") == 1


def test_validate_refuses_a_negative_seed(capsys, tmp_path):
    # numpy's generator would refuse it with a bare ValueError
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n", encoding="utf-8")
    for argv in (["validate", "--seed", "-1"], ["validate", "--config", str(cfg)]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: out-of-range: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("eta", ["5e-324", "1e-315", "1e-310"])
def test_subnormal_eta_starts_unentangled(capsys, eta):
    # |gg> is a product state, and a subnormal field cannot entangle it within tau = 1
    assert main(["evolve", "--eta", eta, "--tau-max", "1", "--step", "0.1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "0.00000000,0.00000000"
    assert all(row.endswith(",0.00000000") for row in rows[1:])


#: full stdout of cheap invocations; a refactor of the CLI must reproduce
#: them byte for byte
GOLDEN_TRANSCRIPTS = {
    ("steady", "--preset", "example-sym"): """\
alpha_re = 10.0000000
alpha_im = -10.0000000
alpha_mod = 14.1421356
beta_re = 7.07106781
beta_im = -7.07106781
beta_mod = 10.0000000
denominator_re = -6.12323400e-17
denominator_im = 1.00000000
denominator_mod = 1.00000000
WARN |alpha| = 14.14 not >> gamma/chi = 10: noise terms are not negligible
""",
    ("steady", "--preset", "example-asym", "--format", "csv"): """\
alpha_re,2.72216269
alpha_im,0.812603216
alpha_mod,2.84086143
beta_re,1.89945782
beta_im,1.68773664
beta_mod,2.54094371
denominator_re,0.387642246
denominator_im,0.0679609140
denominator_mod,0.393554566
warn,|alpha| = 2.841 not >> gamma/chi = 10: noise terms are not negligible
""",
    ("coupling", "--preset", "example-sym", "--format", "csv"): """\
j_oracle,-2.00000000
j_closed,-2.00000000
j_single,-1.00000000
theta1,-100.000000
theta2,-100.000000
local1,20.0000000
local2,10.0000000
""",
    ("coupling", "--preset", "example-asym"): """\
j_oracle = 0.150327939
j_closed = 0.150327939
j_single = 0.0978630661
theta1 = 9.78630661
theta2 = 5.24648731
local1 = 0.807049369
local2 = 0.645639495
WARN theta-asymmetry: |theta1 - theta2| = 4.539819e+00 exceeds 1e-09 * max moduli; \
the single-theta shortcut j_single is unreliable here
""",
    ("coupling", "--preset", "example-asym", "--format", "csv"): """\
j_oracle,0.150327939
j_closed,0.150327939
j_single,0.0978630661
theta1,9.78630661
theta2,5.24648731
local1,0.807049369
local2,0.645639495
warn,theta-asymmetry: |theta1 - theta2| = 4.539819e+00 exceeds 1e-09 * max moduli; \
the single-theta shortcut j_single is unreliable here
""",
    ("feasibility", "--format", "csv"): """\
chi,6.28318531
chi_sign,-1.00000000
nbar,100.000000
j_at_nbar,50.2654825
j_nbar_50,25.1327412
j_nbar_100,50.2654825
gamma_f_power,0.0805904783
gamma_f_amplitude,0.0402952391
loss_ratio_single,0.922571427
loss_ratio_squared,0.851138038
""",
    ("taustar", "--etas", "0.4,0.2", "--window", "200"): """\
eta,tau_star,e_max
0.400000000,9.98000000,0.999996869
0.200000000,36.7400000,0.999841932
""",
    ("evolve", "--tau-max", "1", "--step", "0.1"): """\
tau,entanglement
0.00000000,0.00000000
0.100000000,0.0000000221618057
0.200000000,0.00000108096873
0.300000000,0.00000958953551
0.400000000,0.0000414013785
0.500000000,0.000118254693
0.600000000,0.000255969594
0.700000000,0.000451051641
0.800000000,0.000674921275
0.900000000,0.000881345976
1.00000000,0.00102511152
""",
    ("validate", "--seed", "7"): """\
PASS oracle-identity: worst relative defect 2.588e-13 over 10000 draws (tol 1e-10)
PASS eigensystem: worst spectral/residual/orthonormality defect 1.718e-15 over 1000 etas (tol 1e-10)
PASS evolution: worst fidelity/norm/completeness defect 8.882e-16 (tol 1e-10)
PASS entanglement: worst mixed-vs-pure defect 8.882e-16 (tol 1e-08), worst invariance defect 8.882e-16 (tol 1e-09) over 1000 states
""",
}


def test_golden_cli_transcripts(capsys):
    for argv, expected in GOLDEN_TRANSCRIPTS.items():
        assert main(list(argv)) == 0, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, ""), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "--tau-max", "1", "--step", "0.1"),
        ("taustar", "--etas", "0.4", "--window", "10"),
        ("validate", "--seed", "7"),
    ],
)
def test_main_in_process_leaves_the_collector_as_it_found_it(argv, capsys):
    # only the process entry point, run(), freezes the collector's objects
    frozen = gc.get_freeze_count()
    assert main(list(argv)) == 0
    assert capsys.readouterr().err == ""
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def _console_script_target():
    """The function that pyproject.toml's `fiberspin` script names, as (module, attribute)."""
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    with open(_REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fiberspin"]
    module, _, attr = target.partition(":")
    return module, attr


def test_the_console_script_target_is_what_python_m_runs(monkeypatch):
    module, attr = _console_script_target()
    assert getattr(importlib.import_module(module), attr) is cli_module.run
    # importing fiberspin.__main__ runs what `python -m fiberspin` runs
    calls = []
    monkeypatch.setattr(cli_module, "run", lambda: calls.append("run"))
    monkeypatch.delitem(sys.modules, "fiberspin.__main__", raising=False)
    importlib.import_module("fiberspin.__main__")
    del sys.modules["fiberspin.__main__"]
    assert calls == ["run"]


@pytest.mark.parametrize(
    "argv, code",
    [(("steady", "--preset", "example-sym"), 0), (("steady", "--gamma", "-1"), 1), (("validate", "--seed", "7"), 0)],
)
def test_the_console_script_matches_python_m(argv, code):
    # the script setuptools installs imports the target and exits with what it returns
    module, attr = _console_script_target()
    script = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    by_script, by_module = (
        subprocess.run([sys.executable, "-W", "error", *how, *argv], capture_output=True)
        for how in (("-c", script), ("-m", "fiberspin"))
    )
    assert (by_script.returncode, by_script.stdout, by_script.stderr) == (
        by_module.returncode,
        by_module.stdout,
        by_module.stderr,
    )
    assert by_script.returncode == code
    if argv in GOLDEN_TRANSCRIPTS:
        assert by_script.stdout.decode("utf-8") == GOLDEN_TRANSCRIPTS[argv]


#: sha256 of the stdout of runs shaped like the benchmark's workloads; the
#: evolve runs cross entanglement-block, formatter-pass and kernel-block
#: boundaries, and the taustar run scans whole 10^6-point grids
GOLDEN_DIGESTS = {
    # 100,002 lines
    ("evolve", "--eta", "0.137", "--tau-max", "1000"): (
        "78323865e76ddd6ecaf0db0ecf5276973cb6f7d0a5e45bbc3f85bfa189eef2ff"
    ),
    ("evolve", "--eta", "0.137", "--tau-max", "1000", "--format", "text"): (
        "5aace44fda3389f56dfae1ece75da005434c15c090e0fd50a5bbc672fca28e90"
    ),
    ("taustar", "--etas", "0.4,0.2,0.1,0.05,0.013"): (
        "dc468a8462bc5aca982280334df5027a24cd2105dccc110f1b0d51ca39b3a815"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_golden_digests_of_benchmark_shaped_runs(cli, argv):
    r = cli(*argv)
    assert (r.returncode, r.stderr) == (0, b""), argv
    assert hashlib.sha256(r.stdout).hexdigest() == GOLDEN_DIGESTS[argv], argv


_REPO = Path(__file__).resolve().parents[1]


def _traced(tmp_path, *argv):
    """(exit code, stats) of one CLI run under perfbench/tracer.py."""
    stats = tmp_path / "stats.json"
    path = os.pathsep.join(filter(None, [str(_REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    r = subprocess.run(
        [sys.executable, str(_REPO / "perfbench" / "tracer.py"), str(stats), *argv],
        capture_output=True,
        env=env,
    )
    assert r.stderr == b"", r.stderr
    return r.returncode, json.loads(stats.read_text(encoding="utf-8"))


def test_the_tracer_sees_every_traced_function_and_counts_kernel_points(tmp_path):
    # the tracer reads the kernel's n from its fourth positional argument or
    # from the n keyword, so a call in src/ that passes n or start by position
    # breaks or miscounts traced benchmark runs
    code, stats = _traced(tmp_path, "evolve", "--tau-max", "400", "--step", "0.01", "--out", str(tmp_path / "t.csv"))
    assert (code, stats["code"], stats["missing"]) == (0, 0, [])
    assert stats["counts"]["kernels.ent_trace_grid"] == 40_001
    code, stats = _traced(tmp_path, "taustar", "--etas", "0.4", "--window", "100")
    assert (code, stats["code"], stats["missing"]) == (0, 0, [])
    # tau_star's three one-block kernel calls
    assert stats["counts"]["kernels.ent_trace_grid"] == 3 * kernels.BLOCK
    # the self-check workload needs numerics.solve2 spans, so network stacks
    # must call the public solve2
    code, stats = _traced(tmp_path, "validate", "--seed", "7")
    assert (code, stats["code"], stats["missing"]) == (0, 0, [])
    calls = {}
    for name, _, n, _, _ in stats["spans"]:
        calls[name] = calls.get(name, 0) + n
    wanted = {
        "numerics.solve2": 40,
        "network.coupling": 20,
        "numerics.eig_hermitian4": 18,
        "network.denominator": 40,
    }
    assert {name: calls.get(name) for name in wanted} == wanted


def test_emit_keeps_order_with_earlier_prints_on_every_stdout(capsys):
    # _emit flushes sys.stdout and writes bytes to its buffer; a stdout with no
    # buffer, such as io.StringIO, gets the same text decoded. A TextIOWrapper
    # that is not write-through holds "before" until that flush.
    for argv, expected in GOLDEN_TRANSCRIPTS.items():
        wanted = "before\n" + expected + "after\n"
        print("before")
        assert main(list(argv)) == 0, argv
        print("after")
        assert capsys.readouterr() == (wanted, ""), argv
        wrapped = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
        text_only = io.StringIO()
        for sink in (wrapped, text_only):
            with contextlib.redirect_stdout(sink):
                print("before")
                assert main(list(argv)) == 0, argv
                print("after")
        wrapped.flush()
        assert wrapped.buffer.getvalue().decode("utf-8") == wanted, argv
        assert text_only.getvalue() == wanted, argv
        assert capsys.readouterr() == ("", ""), argv


def _cpu_dispatch_targets() -> list[str]:
    """numpy's runtime-dispatched CPU features that this CPU has, so dispatch picks them."""
    return [name for name in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(name)]


def test_golden_transcripts_do_not_follow_numpy_cpu_dispatch(cli):
    # fmt9_block takes its digit counts from numpy's log10, whose last bit
    # depends on the SIMD target numpy dispatches to (on AVX-512 it puts some
    # FMT9_EDGES values on the other side of an integer than the baseline
    # does); math.log10 rechecks the cells near an integer, so the bytes must
    # not change when the dispatched targets are switched off
    targets = _cpu_dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches to no CPU feature beyond its baseline here")
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    edges = [v for v, _ in FMT9_EDGES]
    probe = (
        f"import {_umath.__name__} as m; import numpy as np; "
        "from fiberspin.cli import fmt9; from fiberspin._blocks import Formatter; "
        f"xs = np.array({edges!r}); "
        f"print(*(m.__cpu_features__[t] for t in {targets!r})); "
        "text = b''.join(Formatter(1, ',').stream([[xs]])); "
        "print(text == ''.join(fmt9(x) + '\\n' for x in xs).encode())"
    )
    check = subprocess.run([sys.executable, "-c", probe], capture_output=True, env={**os.environ, **env})
    assert check.stdout.split() == [b"False"] * len(targets) + [b"True"], check.stderr
    for argv, expected in GOLDEN_TRANSCRIPTS.items():
        if argv[0] in ("evolve", "taustar"):
            r = cli(*argv, env_extra=env)
            assert (r.returncode, r.stdout, r.stderr) == (0, expected.encode("ascii"), b""), argv


def _openblas_dynamic_arch() -> bool:
    """Whether numpy calls an OpenBLAS built with DYNAMIC_ARCH, whose kernel OPENBLAS_CORETYPE picks."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without mode="dicts" or without BLAS facts
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


#: OpenBLAS core types whose kernels give conc2_block_max's peaks other
#: last bits than each other and than the default kernel of an AVX-512 CPU,
#: with the CPU features each kernel needs
_CORETYPES = {"Prescott": ("SSE3",), "Haswell": ("AVX2", "FMA3")}

#: largest |peak - elementwise block maximum| / margin over the golden
#: taustar grids and two 10^6-point grids, printed by a child process
_PEAK_PROBE = """
import numpy as np
from fiberspin import kernels
worst = 0.0
for eta, n in ((0.4, 20_001), (0.2, 20_001), (0.1, 1_000_001), (0.7, 1_000_001)):
    peaks, margin = kernels.conc2_block_max(eta, 0.01, n)
    grid = kernels._Grid(eta, 0.01, n, 0)
    want = np.concatenate([grid.conc2(*span).max(axis=1) for span in grid.spans()])
    worst = max(worst, float(np.max(np.abs(peaks - want))) / margin)
print(worst)
"""


@pytest.mark.parametrize("coretype", sorted(_CORETYPES))
def test_taustar_output_does_not_follow_the_blas_kernel(cli, coretype):
    # conc2_block_max's peaks come from matrix products whose last bits
    # follow the BLAS kernel; tau_star only bounds with them, so the peaks
    # must stay within their margin and the printed bytes must not change
    if not _openblas_dynamic_arch():
        pytest.skip("numpy's BLAS is not an OpenBLAS with DYNAMIC_ARCH, so OPENBLAS_CORETYPE selects nothing")
    missing = [name for name in _CORETYPES[coretype] if not _umath.__cpu_features__.get(name)]
    if missing:
        pytest.skip(f"this CPU lacks {missing}, which OpenBLAS's {coretype} kernel needs")
    env = {"OPENBLAS_CORETYPE": coretype}
    probe = subprocess.run([sys.executable, "-c", _PEAK_PROBE], capture_output=True, env={**os.environ, **env})
    assert probe.returncode == 0, probe.stderr
    assert float(probe.stdout) <= 1.0, probe.stdout
    for argv, expected in GOLDEN_TRANSCRIPTS.items():
        if argv[0] == "taustar":
            r = cli(*argv, env_extra=env)
            assert (r.returncode, r.stdout, r.stderr) == (0, expected.encode("ascii"), b""), argv


SUBCOMMANDS = ("steady", "coupling", "evolve", "taustar", "feasibility", "validate")

#: flags that are not parameters, so no config file may set them
NOT_CONFIG_KEYS = {"--out", "--format", "--config", "--preset", "--etas-log"}


def _long_flags(command):
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = subs.choices[command]._actions
    return {flag for a in actions for flag in a.option_strings if flag.startswith("--")} - {"--help"}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_parameter_flag_is_a_config_key(command, tmp_path):
    flags = _long_flags(command)
    keys = {flag[2:].replace("-", "_") for flag in flags - NOT_CONFIG_KEYS}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = 1\n" for key in sorted(keys)), encoding="utf-8")
    assert set(_resolve(build_parser().parse_args([command, "--config", str(cfg)]))) == keys
    for flag in flags & NOT_CONFIG_KEYS:
        cfg.write_text(f"{flag[2:]} = 1\n", encoding="utf-8")
        with pytest.raises(_CliUsage, match="unknown config key"):
            _resolve(build_parser().parse_args([command, "--config", str(cfg)]))


@pytest.mark.parametrize("value", ["-1", "-1e0"])
@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command in SUBCOMMANDS for flag in sorted(_long_flags(command))]
)
def test_a_dashed_value_reads_as_its_joined_form(command, flag, value, capsys, monkeypatch, tmp_path):
    # every long flag but --help takes a value; -1e0, unlike -1, is no plain
    # negative decimal, so argparse alone would take it for a flag
    monkeypatch.chdir(tmp_path)  # --out -1 writes a file named -1
    written = tmp_path / value
    runs = []
    for argv in ([command, flag, value], [command, f"{flag}={value}"]):
        code = main(argv)
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err, written.exists() and written.read_bytes()))
        written.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    assert "expected one argument" not in runs[0][2]


def test_help_before_a_dashed_token_still_prints_help(capsys):
    # --help takes no value, so the token after it is not joined to it
    with pytest.raises(SystemExit) as exit_:
        main(["steady", "--help", "-1"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fiberspin steady")


#: other CPython minor versions, whose argparse may read dashed values differently
OTHER_PYTHONS = [f"python3.{minor}" for minor in range(10, 14) if minor != sys.version_info.minor]


def _other_pythons():
    """Paths of the OTHER_PYTHONS on PATH that start."""
    found = []
    for name in OTHER_PYTHONS:
        path = shutil.which(name)
        try:
            if path and subprocess.run([path, "--version"], capture_output=True, timeout=60).returncode == 0:
                found.append(path)
        except (OSError, subprocess.TimeoutExpired):
            pass
    return found


def test_dashed_values_parse_alike_on_other_pythons():
    # steady, coupling and feasibility never import numpy, so they run on an
    # interpreter that has only the standard library
    pythons = _other_pythons()
    if not pythons:
        pytest.skip(f"none of {', '.join(OTHER_PYTHONS)} runs on this host")
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for exe in pythons:
        for command, flag, value in (
            ("steady", "--drive-re", "-1e-3"),
            ("coupling", "--phi12", "-0.3"),
            ("feasibility", "--chi", "-5"),
        ):
            spaced, joined = (
                subprocess.run([exe, "-m", "fiberspin", command, *argv], capture_output=True, env=env)
                for argv in ([flag, value], [f"{flag}={value}"])
            )
            assert spaced.returncode == 0, (exe, command, spaced.stderr)
            assert (spaced.stdout, spaced.stderr) == (joined.stdout, joined.stderr), (exe, command)
            assert joined.returncode == 0


#: per subcommand: arguments both runs share, then one parameter and its value
ONE_PARAMETER = {
    "steady": ((), "delta", "0.5"),
    "coupling": ((), "chi", "0.2"),
    "evolve": (("--tau-max", "1"), "step", "0.1"),
    "taustar": (("--etas", "0.4"), "window", "200"),
    "feasibility": ((), "nbar", "50"),
    "validate": ((), "seed", "5"),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_config_key_matches_its_flag(command, capsys, tmp_path):
    shared, key, value = ONE_PARAMETER[command]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    from_config = main([command, *shared, "--config", str(cfg)]), capsys.readouterr()
    from_flag = main([command, *shared, f"--{key.replace('_', '-')}", value]), capsys.readouterr()
    assert from_config == from_flag
    assert from_flag[0] == 0 and from_flag[1].out


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_missing_config_is_usage_error(command, capsys, tmp_path):
    # a missing file, one that is not UTF-8, and a path open refuses, which
    # only an in-process caller can pass
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"# caf\xe9\n")
    newline = str(tmp_path / "new\nline.cfg")
    for path in (str(tmp_path / "missing.cfg"), str(latin1), "nul\0.cfg", newline):
        assert main([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: usage: cannot read config file {path!r}: ")
        assert captured.err.count("\n") == 1


def test_error_classes_carry_their_exit_codes():
    classes = [
        c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.FiberspinError)
    ]
    assert len(classes) == 13
    special = {errors.ResonantRecycling: 2, errors.ValidationFailure: 3}
    for c in classes:
        assert c.exit_code == special.get(c, 1), c


#: every class a CLI error line can name, by its code
_CLASS_OF_CODE = {
    c.code: c
    for c in (*vars(errors).values(), _CliUsage)
    if isinstance(c, type) and issubclass(c, errors.FiberspinError)
}

#: flag values at the float edges: +-{0, the least subnormal, inf, nan} or a log-uniform magnitude
_EDGE_VALUES = st.builds(
    operator.mul,
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.sampled_from([0.0, 5e-324, math.inf, math.nan]), st.floats(-308.0, 308.0).map(lambda e: 10.0**e)),
)

#: a scalar subcommand and a random subset of its numeric parameters, with values
_SCALAR_RUNS = st.sampled_from(["steady", "coupling", "feasibility"]).flatmap(
    lambda command: st.tuples(
        st.just(command),
        st.dictionaries(
            st.sampled_from([name for name, (parse, _) in cli_module._PARAMS[command].items() if parse is float]),
            _EDGE_VALUES,
        ),
    )
)


@given(_SCALAR_RUNS)
@example(("steady", {"gamma": 0.5, "delta": 0.0, "phi12": math.pi / 2, "phi21": 0.0, "drive_re": 1.4e308}))
@example(("coupling", {"chi": 1e308, "drive_re": 1.0}))
# gamma^2 and delta^2 underflow, and every term of D with them, off the resonance
@example(("steady", {"gamma": 1e-170, "delta": 1e-170, "drive_re": 1e-170}))
@example(("steady", {"gamma": 1e-170, "delta": 1e-170, "phi12": 1.0, "phi21": 1.0}))
@settings(max_examples=300, deadline=None)
def test_a_scalar_run_prints_finite_values_or_one_typed_refusal(run):
    command, values = run
    argv = [command, *(f"--{name.replace('_', '-')}={value!r}" for name, value in values.items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        for line in out.splitlines():
            if not line.startswith("WARN "):
                assert math.isfinite(float(line.split(" = ")[1])), line
    else:
        assert out == ""
        refusal = re.fullmatch(r"error: ([a-z-]+): [^\n]+\n", err)
        assert refusal, err
        assert _CLASS_OF_CODE[refusal[1]].exit_code == code, err
    if code == 2:
        # the resonance only where the exact |D| of the set run lies within it
        p = cli_module._network_params(build_parser().parse_args(argv))
        with mpmath.workdps(50):
            gamma, delta = mpmath.mpf(p.gamma), mpmath.mpf(p.delta)
            loop = mpmath.exp(mpmath.mpc(-2 * mpmath.mpf(p.gamma_f), mpmath.mpf(p.phi12) + mpmath.mpf(p.phi21)))
            d = mpmath.mpc(gamma, delta) ** 2 - gamma**2 * loop
            assert abs(d) <= mpmath.mpf(EPS_SINGULAR) * (gamma**2 + delta**2), (argv, err)


#: the raises in src/fiberspin that name a class outside FiberspinError, by
#: (module, function): shape and type checks that no CLI input reaches, then
#: two bug reports, a stack whose members disagree with it and a Jacobi
#: iteration that does not converge
_UNTYPED_RAISES = {
    ("_arrays", "solve2"): ["ValueError"],
    ("_arrays", "network_fields"): ["ValueError"],
    ("_arrays", "_check_hermitian"): ["ValueError"],
    ("_arrays", "propagate"): ["ValueError", "ValueError"],
    ("entanglement", "concurrence_pure"): ["ValueError"],
    ("_blocks", "Formatter.__init__"): ["ValueError"],
    ("feasibility", "FiberLossSpec.__post_init__"): ["ValueError"],
    ("_arrays", "first_alone"): ["RuntimeError"],
    ("_arrays", "eig_hermitian4"): ["FloatingPointError"],
}


def _raised_names(tree):
    """(function's qualified name, raised name) of each `raise Name(...)` in a module's tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                assert isinstance(child.exc.func, ast.Name), ast.unparse(child)
                found.append((".".join(scope), child.exc.func.id))
            visit(child, scope)

    visit(tree, ())
    return found


def test_every_refusal_is_a_fiberspin_error():
    # main and first_alone catch FiberspinError only, so any other error
    # class raised for a bad value would reach a user as a traceback
    package = Path(cli_module.__file__).parent
    untyped = collections.defaultdict(list)
    for path in sorted(package.glob("*.py")):
        raised = _raised_names(ast.parse(path.read_text(encoding="utf-8")))
        if not raised:
            continue
        module = importlib.import_module("fiberspin" if path.stem == "__init__" else f"fiberspin.{path.stem}")
        for function, name in raised:
            cls = getattr(module, name, None) or getattr(builtins, name)
            # an exit is no error; a module __getattr__ reports a missing name
            # with AttributeError, as PEP 562 requires
            if not issubclass(cls, Exception) or issubclass(cls, errors.FiberspinError):
                continue
            if (function, cls) == ("__getattr__", AttributeError):
                continue
            untyped[path.stem, function].append(name)
    assert dict(untyped) == _UNTYPED_RAISES


def test_unwritable_out_is_one_usage_line(cli, capsys, tmp_path):
    r = cli("steady", "--out", str(tmp_path / "missing" / "x"))
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr.startswith(b"error: usage: cannot write ")
    assert r.stderr.count(b"\n") == 1
    # open refuses a path with a NUL before the OS sees it; only an
    # in-process caller can pass one. Both paths are quoted, so the
    # error stays one line
    for command in ("steady", "evolve"):
        assert main([command, "--out", "nul\0.txt"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: usage: cannot write 'nul\\x00.txt': embedded null byte\n")
        newline = str(tmp_path / "missing\nx" / "y")
        assert main([command, "--out", newline]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: usage: cannot write {newline!r}: ")
        assert captured.err.count("\n") == 1


def test_closed_stdout_exits_1_without_traceback():
    # 10^5 rows are far more than a pipe buffers, so the CLI is still writing
    # when the reader goes away, as with `fiberspin evolve | head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "fiberspin", "evolve", "--tau-max", "1000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"tau,entanglement\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()
