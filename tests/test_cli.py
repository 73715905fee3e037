"""Command-line surface: output formats, manifests, and exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cellmimo import cli
from cellmimo.errors import ConfigError, NumericError
from cellmimo.geometry import NetworkConfig


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr()


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_coverage_curve_reference_row(capsys):
    code, out = _run(capsys, [
        "coverage", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "2",
        "--alpha", "4", "--zdb", "-5:20:1",
    ])
    assert code == 0
    rows = _parse_csv(out.out)
    assert rows[0] == ["z_db", "z_linear", "coverage", "method", "ci_halfwidth"]
    assert len(rows) == 27  # header + 26 grid points
    at_zero = next(r for r in rows[1:] if float(r[0]) == 0.0)
    assert float(at_zero[2]) == pytest.approx(0.919708, abs=1e-6)
    assert at_zero[3] == "analytic" and at_zero[4] == ""
    # z_linear column carries 10^(db/10).
    assert float(rows[1][1]) == pytest.approx(10.0 ** (-0.5), rel=1e-10)


def test_coverage_single_point(capsys):
    code, out = _run(capsys, [
        "coverage", "--rx", "mmse", "--nt", "4", "--nr", "4",
        "--alpha", "4", "--zdb", "0:0:1",
    ])
    assert code == 0
    rows = _parse_csv(out.out)
    assert len(rows) == 2
    assert float(rows[1][2]) == pytest.approx(0.50362, abs=1e-5)


def test_coverage_empty_range(capsys):
    code, out = _run(capsys, [
        "coverage", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "1",
        "--zdb", "5:0:1",
    ])
    assert code == 0
    assert out.out == "z_db,z_linear,coverage,method,ci_halfwidth\n"


def test_coverage_mc_method(capsys):
    code, out = _run(capsys, [
        "coverage", "--rx", "mmse", "--nt", "2", "--nr", "4",
        "--zdb", "0:0:1", "--method", "mc", "--trials", "1024", "--seed", "3",
    ])
    assert code == 0
    rows = _parse_csv(out.out)
    assert rows[1][3] == "mc"
    halfwidth = float(rows[1][4])
    assert 0.0 < halfwidth < 0.1
    assert abs(float(rows[1][2]) - 0.812857) < 5.0 * halfwidth


def test_output_file_lf_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    argv = [
        "coverage", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "2",
        "--zdb", "0:5:1", "--out", str(out_path),
    ]
    assert cli.main(argv) == 0
    data = out_path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")

    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["outputs"][0]["sha256"] == hashlib.sha256(data).hexdigest()
    assert manifest["command"] == argv
    assert manifest["parameters"]["nt"] == 1
    assert manifest["version"]

    # Rerun with the identical command: byte-identical output.
    rerun = tmp_path / "rerun.csv"
    cli.main(argv[:-1] + [str(rerun)])
    assert rerun.read_bytes() == data


def test_rate_json_profile(capsys):
    code, out = _run(capsys, [
        "rate", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "2",
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.out)
    assert payload["mean_rate"] == pytest.approx(4.26918, abs=1e-4)
    assert payload["scheme"] == "sm" and payload["receiver"] == "pzf"
    assert payload["m"] == 2
    assert set(payload) >= {"mean_rate", "q05", "q80", "scheme", "receiver"}

    # The order the law ran at: default_m of the 1x4 stream law, not of 2x4.
    code, out = _run(capsys, [
        "rate", "--rx", "pzf", "--nt", "2", "--nr", "4", "--scheme", "sst",
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(out.out)["m"] == 2


def test_rate_sst_equals_sm_single_stream(capsys):
    means = {}
    for scheme in ("sm", "sst"):
        code, out = _run(capsys, [
            "rate", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "2",
            "--scheme", scheme,
        ])
        assert code == 0
        rows = _parse_csv(out.out)
        means[scheme] = float(rows[1][rows[0].index("mean_rate")])
    assert means["sm"] == pytest.approx(means["sst"], rel=1e-9)


def test_optimal_m_table(capsys):
    code, out = _run(capsys, [
        "optimal-m", "--nt", "1,2", "--nr", "2,10", "--alpha", "4", "--sigma2", "0",
    ])
    assert code == 0
    rows = _parse_csv(out.out)
    table = {(r[0], r[1]): r for r in rows[1:]}
    assert table[("1", "10")][4] == "5" and table[("1", "10")][6] == "ok"
    assert table[("2", "10")][4] == "2"
    assert table[("1", "2")][4] == "1"
    assert table[("2", "2")][6] == "infeasible"
    # The last column is the rate argmax over the delta >= 1 splits: it
    # agrees with m_star at 1x10 and takes the abstract's m = 3 at 2x10.
    assert rows[0][-1] == "m_rate"
    assert table[("1", "10")][7] == "5"
    assert table[("2", "10")][7] == "3"
    assert table[("1", "2")][7] == "1"
    assert table[("2", "2")][7] == ""


def test_optimal_m_leaves_m_rate_empty_where_a_rate_fails(capsys):
    # From alpha about 35.5 at m = 1 the rate integral's top x is clipped
    # to the float range, e^708.8; the zero-noise law at m = 1 falls like
    # x^(-2/alpha) only, so from alpha about 51 the tail above that top may
    # hold more than 1e-12 of the mean, and the integral raises
    # NumericError.  The rows keep their closed-form columns and the
    # command its exit code.
    code, out = _run(capsys, [
        "optimal-m", "--nt", "1,2", "--nr", "10", "--alpha", "18,30,40,80", "--sigma2", "0",
    ])
    assert code == 0
    rows = _parse_csv(out.out)
    table = {(r[0], r[2]): r[4:] for r in rows[1:]}
    assert table[("1", "18")] == ["8", "8", "ok", "9"]
    assert table[("2", "18")] == ["4", "4", "ok", "4"]
    for alpha in ("30", "40"):
        assert table[("1", alpha)] == ["9", "9", "ok", "9"]
        assert table[("2", alpha)] == ["4", "4", "ok", "4"]
    assert table[("1", "80")] == ["9", "9", "ok", ""]
    assert table[("2", "80")] == ["4", "4", "ok", ""]


def test_optimal_m_past_the_float_range_of_gamma(capsys):
    # Gamma(1 + alpha/2) overflows from alpha about 341.25; the mean inverse
    # SINR is ranked in logs, and m_rate stays empty (the rate integral
    # fails at this alpha).
    code, out = _run(capsys, ["optimal-m", "--nt", "1", "--nr", "4", "--alpha", "400"])
    assert code == 0
    assert _parse_csv(out.out)[1][4:] == ["3", "3", "ok", ""]


@pytest.mark.parametrize("argv", [
    # At alpha 20 the m = 1 law falls like z^-0.1 only; the rate integral
    # over log2(1 + z) found the CCDF above its 1e-8 cut at t = 256 there
    # and exited 3.
    ["--rx", "mmse", "--nt", "1", "--nr", "10", "--alpha", "20"],
    ["--rx", "pzf", "--m", "1", "--nt", "1", "--nr", "10", "--alpha", "20"],
    # With noise, past the alpha where the top of the panels is clipped to
    # the float range (35.5 at m = 1, 71 at m >= 2).
    ["--rx", "mmse", "--nt", "1", "--nr", "4", "--alpha", "40", "--sigma2", "1", "--lam", "0.2"],
    ["--rx", "pzf", "--m", "2", "--nt", "1", "--nr", "4", "--alpha", "80", "--sigma2", "1",
     "--lam", "0.01"],
])
def test_rate_at_large_alpha(argv, capsys):
    code, out = _run(capsys, ["rate", *argv])
    assert code == 0, out.err
    mean = float(_parse_csv(out.out)[1][5])
    assert 0.0 < mean < 100.0


def test_optimal_m_without_noise_ignores_the_intensity(capsys):
    rows = {}
    for lam in ("1", "1e-300"):
        code, out = _run(capsys, ["optimal-m", "--nt", "1", "--nr", "4", "--lam", lam])
        assert code == 0
        rows[lam] = _parse_csv(out.out)
    assert rows["1e-300"] == rows["1"]
    # With noise the scale n_t sigma2 (pi lam)^(-alpha/2) overflows there.
    code, out = _run(capsys, ["optimal-m", "--nt", "1", "--nr", "4", "--lam", "1e-300",
                              "--sigma2", "1"])
    assert code == 2 and "noise scale" in out.err


def test_validate_passes_and_reports(capsys):
    code, out = _run(capsys, [
        "validate", "--rx", "both", "--nt", "2", "--nr", "4", "--m", "1",
        "--zdb", "0:5:5", "--trials", "2048", "--seed", "1",
    ])
    assert code == 0
    rows = _parse_csv(out.out)
    assert rows[0][0] == "receiver"
    assert {r[0] for r in rows[1:]} == {"pzf", "mmse"}
    assert all(abs(float(r[6])) <= 4.0 for r in rows[1:])


def test_validate_gate_fails_on_bias(capsys, monkeypatch):
    # Force a wrong analytic law; the z-score gate must trip.
    monkeypatch.setattr(cli, "sinr_ccdf", lambda *a, **k: np.zeros_like)
    code, out = _run(capsys, [
        "validate", "--rx", "mmse", "--nt", "2", "--nr", "4",
        "--zdb", "0:0:1", "--trials", "1024", "--seed", "1",
    ])
    assert code == 1
    assert "FAILED" in out.err


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "cell.cfg"
    config.write_text("# reference cell\nnt = 4\nnr = 4\nalpha = 4\n")
    code, out = _run(capsys, [
        "coverage", "--rx", "mmse", "--config", str(config), "--zdb", "0:0:1",
    ])
    assert code == 0
    assert float(_parse_csv(out.out)[1][2]) == pytest.approx(0.50362, abs=1e-5)

    # A flag beats the file: nt=2 here, so the value must change.
    code, out = _run(capsys, [
        "coverage", "--rx", "mmse", "--config", str(config), "--nt", "2",
        "--zdb", "0:0:1",
    ])
    assert code == 0
    assert float(_parse_csv(out.out)[1][2]) == pytest.approx(0.812857, abs=1e-5)


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("power = 3\n")
    code, out = _run(capsys, ["coverage", "--rx", "mmse", "--config", str(bad),
                              "--zdb", "0:0:1"])
    assert code == 2 and "unknown key" in out.err
    bad.write_text("nt = 2.5\n")
    code, out = _run(capsys, ["coverage", "--rx", "mmse", "--config", str(bad),
                              "--zdb", "0:0:1"])
    assert code == 2 and "bad value" in out.err


def test_every_config_file_key_reaches_the_run(tmp_path, capsys, monkeypatch):
    # Every value differs from its default; flags then beat each key.
    runs = []
    monkeypatch.setattr(cli, "sinr_ccdf",
                        lambda config, rx, m=None: runs.append((config, m)) or np.zeros_like)
    config = tmp_path / "cell.cfg"
    config.write_text("nt = 2\nnr = 8\nalpha = 3.5\nsigma2 = 0.5\nlam = 0.25\nm = 3\n")
    argv = ["coverage", "--rx", "pzf", "--config", str(config), "--zdb", "0:0:1"]
    assert _run(capsys, argv)[0] == 0
    assert runs.pop() == (NetworkConfig(lam=0.25, alpha=3.5, sigma2=0.5, n_t=2, n_r=8), 3)
    flags = ["--nt", "1", "--nr", "6", "--alpha", "3", "--sigma2", "2", "--lam", "4", "--m", "2"]
    assert _run(capsys, argv + flags)[0] == 0
    assert runs.pop() == (NetworkConfig(lam=4.0, alpha=3.0, sigma2=2.0, n_t=1, n_r=6), 2)


@pytest.mark.parametrize("argv, seed", [
    (["coverage", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "2", "--zdb", "0:5:5"], None),
    (["coverage", "--rx", "mmse", "--nt", "2", "--nr", "4", "--zdb", "0:5:5",
      "--method", "mc", "--trials", "512", "--seed", "7"], 7),
    (["rate", "--rx", "mmse", "--nt", "1", "--nr", "2", "--format", "json"], None),
    (["optimal-m", "--nt", "1", "--nr", "4"], None),
    (["validate", "--rx", "mmse", "--nt", "1", "--nr", "2", "--zdb", "0:0:1",
      "--trials", "512", "--seed", "5"], 5),
])
def test_manifest_layout(argv, seed, tmp_path, capsys):
    out_path = tmp_path / "result.txt"
    argv = argv + ["--out", str(out_path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    text = (tmp_path / "result.txt.manifest.json").read_text()
    manifest = json.loads(text)
    # Sorted keys, a 2-space indent and a trailing newline.
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert set(manifest) == {"command", "parameters", "version", "seed", "wall_time_s",
                             "outputs"}
    assert manifest["command"] == argv
    assert manifest["seed"] == seed
    assert manifest["wall_time_s"] >= 0.0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert manifest["outputs"] == [{"path": str(out_path), "sha256": digest}]
    assert manifest["parameters"]["command"] == argv[0]
    assert "func" not in manifest["parameters"]


def test_failed_runs_leave_the_next_command_unchanged(tmp_path, capsys, monkeypatch):
    # One process parses every command with one parser: an argparse exit
    # and a configuration error leave the next run as a fresh process has it.
    good = ["rate", "--rx", "mmse", "--nt", "2", "--nr", "4", "--quantiles", "0.5"]
    fresh = subprocess.run([sys.executable, "-m", "cellmimo.cli", *good], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("power = 3\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["validate", "--nt", "1", "--nr", "2", "--trials", "128", "--threads", "0"])
    assert err.value.code == 2
    capsys.readouterr()
    assert _run(capsys, good) == (0, (fresh.stdout, ""))
    code, out = _run(capsys, ["coverage", "--rx", "mmse", "--config", str(bad),
                              "--nt", "3", "--zdb", "0:0:1"])
    assert code == 2 and "unknown key" in out.err
    assert _run(capsys, good) == (0, (fresh.stdout, ""))


def test_exit_codes(capsys, tmp_path, monkeypatch):
    # 2: invalid configuration.
    code, out = _run(capsys, ["coverage", "--rx", "pzf", "--nt", "0", "--nr", "4",
                              "--zdb", "0:0:1"])
    assert code == 2
    code, out = _run(capsys, ["coverage", "--rx", "mmse", "--nt", "2", "--nr", "4",
                              "--m", "1", "--zdb", "0:0:1"])
    assert code == 2
    code, out = _run(capsys, ["coverage", "--rx", "pzf", "--nt", "1", "--nr", "4",
                              "--zdb", "0:0"])
    assert code == 2
    code, out = _run(capsys, ["validate", "--nt", "1", "--nr", "2", "--m", "1",
                              "--zdb", "0:0:1", "--trials", "1"])
    assert code == 2 and "standard error" in out.err
    # An MMSE order fails in every command, also where the grid is empty.
    for argv in (
        ["coverage", "--rx", "mmse", "--m", "1", "--method", "mc", "--zdb", "5:0:1"],
        ["rate", "--rx", "mmse", "--m", "1"],
        ["validate", "--rx", "mmse", "--m", "1", "--zdb", "0:0:1", "--trials", "2"],
    ):
        code, out = _run(capsys, argv + ["--nt", "2", "--nr", "4"])
        assert code == 2, argv
    # A threshold beyond the float range, and non-finite antenna counts.
    for argv in (
        ["coverage", "--rx", "mmse", "--nt", "1", "--nr", "1", "--zdb", "4000:4000:1"],
        ["coverage", "--rx", "mmse", "--nt", "1", "--nr", "1", "--zdb", "4000:4000:1",
         "--method", "mc"],
        ["validate", "--rx", "mmse", "--nt", "1", "--nr", "1", "--zdb", "4000:4000:1"],
        ["optimal-m", "--nt", "nan", "--nr", "4"],
        ["optimal-m", "--nt", "1", "--nr", "inf"],
        # A quantile level so small that 1 - q rounds to 1.
        ["rate", "--rx", "mmse", "--nt", "1", "--nr", "4", "--quantiles", "1e-300"],
    ):
        code, out = _run(capsys, argv)
        assert code == 2, argv
    # 3: numeric failure.  The radial moment's mode overflows where the
    # noise term b e^(st) has a subnormal b; the kernels' 1/z identity has
    # a pole where 1 - 2/alpha rounds to 1.
    for argv in (
        ["rate", "--rx", "mmse", "--nt", "1", "--nr", "4", "--alpha", "300", "--sigma2", "1"],
        ["rate", "--rx", "mmse", "--nt", "1", "--nr", "4", "--alpha", "1e300"],
        ["rate", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "2", "--alpha", "1e300"],
    ):
        code, out = _run(capsys, argv)
        assert code == 3 and "numeric failure" in out.err, argv
    monkeypatch.setattr("cellmimo.rate._mean_rate", lambda *a, **k: (_ for _ in ()).throw(
        NumericError("forced")))
    code, out = _run(capsys, ["rate", "--rx", "mmse", "--nt", "1", "--nr", "2"])
    assert code == 3
    monkeypatch.undo()
    # 4: I/O failure.
    code, out = _run(capsys, ["coverage", "--rx", "pzf", "--nt", "1", "--nr", "2",
                              "--m", "1", "--zdb", "0:0:1",
                              "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 4


def test_main_returns_an_exit_code_over_the_parameter_range(capsys):
    # 270 runs over the extremes of every network parameter: each one
    # returns 0, 2 (configuration) or 3 (numeric failure) and raises
    # nothing, no RuntimeWarning either.
    commands = (["coverage", "--rx", "pzf", "--zdb", "0:10:5"],
                ["coverage", "--rx", "mmse", "--zdb", "0:10:5"],
                ["rate", "--rx", "pzf"], ["rate", "--rx", "mmse"], ["optimal-m"])
    codes = []
    for alpha in ("2.0001", "3", "400", "1e5", "1e17", "1e300"):
        for lam in ("1e-300", "1", "1e300"):
            for sigma2 in ("0", "1", "1e300"):
                for command in commands:
                    argv = command + ["--nt", "1", "--nr", "4", "--alpha", alpha, "--lam", lam,
                                      "--sigma2", sigma2]
                    code, out = _run(capsys, argv)
                    assert code in (0, 2, 3), (argv, out.err)
                    codes.append(code)
    assert len(codes) == 270


@pytest.mark.parametrize("zdb", ["0:1e8:1", "-1e308:1e308:1"])
def test_oversized_grid_exits_two_before_allocating(zdb, capsys):
    # The point count is checked before the grid is built; 1e8 thresholds
    # would otherwise allocate until a MemoryError.
    tracemalloc.start()
    try:
        code, out = _run(capsys, ["coverage", "--rx", "mmse", "--nt", "1", "--nr", "2",
                                  "--zdb", zdb])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "more than 10000 thresholds" in out.err
    assert peak < 1 << 20
    # The cap is inclusive.
    assert len(cli._parse_zdb_range("-2500:2499.5:0.5")) == 10000
    with pytest.raises(ConfigError):
        cli._parse_zdb_range("-2500:2500:0.5")


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["coverage", "--nope"])
    assert err.value.code == 2


@pytest.mark.parametrize("value", ["0", "-3", "1.5"])
def test_threads_flag_must_be_positive(value, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["validate", "--nt", "1", "--nr", "2", "--m", "1",
                  "--trials", "128", "--threads", value])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_quantile_flag(capsys):
    code, out = _run(capsys, [
        "rate", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "2",
        "--quantiles", "0.5", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.out)
    assert "q50" in payload and payload["q50"] > 0.0

    # Integer percentages pad to two digits; others keep their decimals.
    code, out = _run(capsys, [
        "rate", "--rx", "mmse", "--nt", "1", "--nr", "4",
        "--quantiles", "0.05,0.07,0.125,0.8",
    ])
    assert code == 0
    assert _parse_csv(out.out)[0][-4:] == ["q05", "q07", "q12.5", "q80"]
    # Two levels that would share a column fail instead of one being dropped.
    code, out = _run(capsys, [
        "rate", "--rx", "pzf", "--nt", "1", "--nr", "4",
        "--quantiles", "0.1234561,0.1234562,0.07",
    ])
    assert code == 2 and "--quantiles" in out.err
