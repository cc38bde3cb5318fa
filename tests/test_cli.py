"""Subprocess checks of the command-line interface and its output contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberspin import NetworkParams, coupling, entanglement_trace, kernels, steady_fields
from fiberspin.cli import _emit, fmt9, fmt9_block, main


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


_fmt9_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([v for v, _ in FMT9_EDGES]),
    st.builds(
        lambda m, e, k: _ulps(m * 10.0**e, k),
        st.sampled_from([1.0, 9.9999999995, 0.99999999995, 5.0000000005]),
        st.integers(-10, 13),
        st.integers(-2, 2),
    ),
)


@given(st.lists(st.tuples(_fmt9_values, _fmt9_values), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_fmt9_block_matches_fmt9(rows):
    table = np.array(rows, dtype=np.float64)
    assert fmt9_block(table, ",") == _fmt9_lines(table, ",")
    assert fmt9_block(table[:, :1], " ") == _fmt9_lines(table[:, :1], " ")


def test_evolve_streams_blocks_byte_identical(cli, tmp_path):
    # 150,001 rows: two full 65,536-row blocks and a partial third
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
    def nan_kernel(eta, tau0, step, n):
        values = np.zeros(n)
        values[-1] = math.nan
        return values

    # the trace container already refuses the NaN; the CLI must still exit 1 unwritten
    monkeypatch.setattr(kernels, "ent_trace_grid", nan_kernel)
    assert main(["evolve", "--tau-max", "1", "--step", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: usage:")

    # the writer itself refuses a non-finite table before opening --out or writing stdout
    table = np.zeros((3, 2))
    table[2, 1] = math.inf
    out = tmp_path / "partial.csv"
    for target in (str(out), None):
        with pytest.raises(ValueError):
            _emit([("tau", "entanglement"), table], "csv", target, kv=False)
    assert not out.exists()
    assert capsys.readouterr().out == ""


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


def test_taustar_table_and_threads(cli):
    args = (
        "taustar",
        "--etas",
        "0.4,0.2",
        "--window",
        "200",
        "--threads",
        "4",
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


def test_taustar_log_grid(cli):
    r = cli("taustar", "--etas-log", "0.1:0.4:3", "--window", "100")
    assert r.returncode == 0
    out = lines(r.stdout)
    assert len(out) == 4
    etas = [float(row.split(",")[0]) for row in out[1:]]
    assert etas == pytest.approx(list(np.geomspace(0.1, 0.4, 3)), rel=1e-8)


def test_taustar_rejects_bad_eta_lists(cli):
    empty = cli("taustar", "--etas", "", "--window", "100")
    assert empty.returncode == 1
    assert empty.stderr.startswith(b"error: usage:")
    negative = cli("taustar", "--etas", "-0.5", "--window", "100")
    assert negative.returncode == 1
    assert negative.stderr.startswith(b"error: degenerate-eta:")
    malformed = cli("taustar", "--etas-log", "0.1:0.4", "--window", "100")
    assert malformed.returncode == 1


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
