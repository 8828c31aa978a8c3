import concurrent.futures
import hashlib
import json
import math
import multiprocessing
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import BAD_CONFIG_TEXTS, coin_flips, pipeline_cases, traced_peak
from qrngkit import (
    BitString,
    PairStream,
    QrngConfig,
    UsageError,
    demon_filter,
    read_bits,
    read_stream_ndjson,
    run_pipeline,
    write_bits,
    write_stream_ndjson,
    xor_distribution,
)
from qrngkit import cli, simulate
from qrngkit.cli import GRID_CAP, main, parse_angle, parse_count
from qrngkit.simulate import _generator


def run_cli(*argv):
    """Invoke the entry point in-process; normalize argparse SystemExit."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def csv_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [r.split(",") for r in rows]


# --- argument parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("pi", math.pi),
        ("pi/5", math.pi / 5),
        ("3pi/4", 3 * math.pi / 4),
        ("0.5pi", math.pi / 2),
        (".5pi", math.pi / 2),
        ("2*pi", 2 * math.pi),
        (" pi / 4 ", math.pi / 4),
        ("PI/2", math.pi / 2),
        ("0.635", 0.635),
        ("1e-1", 0.1),
    ],
)
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("bad", ["pi/0", "tau", "pie", "", "pi/pi"])
def test_parse_angle_rejects(bad):
    with pytest.raises(UsageError):
        parse_angle(bad)


def test_parse_count():
    assert parse_count("42") == 42
    assert parse_count("1e6") == 1_000_000
    # plain digits are read as an int, exactly past 2**53; a float would round this one down
    assert parse_count("9007199254740993") == 9007199254740993
    assert parse_count("1" + "0" * 4299) == 10**4299
    assert parse_count("2.5e1") == 25
    for bad in ("0", "-3", "2.5", "many", "1e400", "inf", "-inf", "nan", "9" * 5000, "0" * 5000, "²"):
        with pytest.raises(UsageError):
            parse_count(bad)


def test_overflowing_count_is_a_usage_error(tmp_path):
    assert run_cli("simulate", "--pairs", "1e400", "--out-dir", tmp_path) == 2
    assert not (tmp_path / "stream.ndjson").exists()


@pytest.mark.parametrize("pairs,interval", [(2, "inf"), (10, "1e308")])
def test_unbounded_mean_interval_is_a_usage_error(tmp_path, capsys, pairs, interval):
    # an infinite mean, or one whose arrival times overflow, names the field it came from
    assert run_cli("simulate", "--pairs", pairs, "--mean-interval", interval,
                   "--out-dir", tmp_path / "o") == 2
    assert "mean_pair_interval" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- exact -------------------------------------------------------------------------


def test_exact_equal_efficiencies_offset_one_is_uniform(tmp_path):
    assert run_cli(
        "exact", "--n", 4, "--j", 1, "--theta", "pi/5", "--e", "1,1,1,1", "--out-dir", tmp_path
    ) == 0
    header, rows = csv_rows(tmp_path / "distribution.csv")
    assert header == ["index", "bitstring", "probability"]
    assert len(rows) == 16
    assert rows[3][1] == "0011"
    assert all(abs(float(r[2]) - 1 / 16) < 1e-15 for r in rows)
    m = read_manifest(tmp_path)
    assert m["command"] == "exact"
    assert m["results"]["tv_to_uniform"] < 1e-14
    assert sorted(m["outputs"]) == ["deviation.csv", "distribution.csv", "manifest.json"]


def test_exact_skewed_ten_bit_cell(tmp_path):
    assert run_cli(
        "exact", "--n", 10, "--theta", "pi/5",
        "--e", "0.30,0.33,0.29,0.30", "--out-dir", tmp_path,
    ) == 0
    _, rows = csv_rows(tmp_path / "distribution.csv")
    index, text, prob = rows[174]
    assert (index, text) == ("174", "0010101110")
    assert float(prob) == pytest.approx(5.897648e-4, rel=1e-6)
    m = read_manifest(tmp_path)
    assert m["results"]["l1_to_uniform"] == pytest.approx(2 * m["results"]["tv_to_uniform"])


def test_exact_deviation_file_is_centered(tmp_path):
    run_cli("exact", "--n", 3, "--theta", "0.9", "--e", "0.9,0.5,0.7,0.8",
            "--out-dir", tmp_path)
    _, rows = csv_rows(tmp_path / "deviation.csv")
    devs = [float(r[2]) for r in rows]
    assert sum(devs) == pytest.approx(0.0, abs=1e-15)
    assert max(abs(d) for d in devs) > 1e-3


def test_exact_budget_exit_code(tmp_path):
    assert run_cli("exact", "--n", 12, "--j", 4, "--out-dir", tmp_path) == 3


def test_exact_refuses_dense_law_past_ceiling(tmp_path, capsys):
    # 2^40 strings: were the ceiling missing, this would fail fast with MemoryError
    assert run_cli("exact", "--n", 40, "--j", 3, "--max-bits", 43, "--out-dir", tmp_path) == 3
    assert capsys.readouterr().err.startswith("error: a dense law over 40-bit strings")
    assert not (tmp_path / "distribution.csv").exists()


def test_exact_law_file_matches_enumeration(tmp_path):
    cfg = QrngConfig(theta=math.pi / 5, e0_plus=0.30, e1_plus=0.33, e0_times=0.29, e1_times=0.30)
    assert run_cli("exact", "--n", 7, "--j", 3, "--theta", "pi/5",
                   "--e", "0.30,0.33,0.29,0.30", "--out-dir", tmp_path) == 0
    _, rows = csv_rows(tmp_path / "distribution.csv")
    got = np.array([float(r[2]) for r in rows])
    assert np.abs(got - xor_distribution(7, 3, cfg).probs).max() <= 1e-14


# imported only by the commands that use them, so every command starts without them
@pytest.mark.parametrize("module", ["scipy", "multiprocessing", "concurrent.futures", "orjson"])
def test_cli_import_leaves_scipy_unloaded(module):
    code = f"import sys, qrngkit.cli; sys.exit({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("source", ["--in", "--stream"])
def test_analyze_runs_without_scipy(tmp_path, source):
    # the chi-squared p-values are computed in closed form, so no command needs scipy
    assert run_cli("simulate", "--pairs", 2000, "--seed", 3, "--out-dir", tmp_path) == 0
    path = tmp_path / "stream.ndjson"
    if source == "--in":
        path = tmp_path / "x.bits"
        write_bits(path, read_stream_ndjson(tmp_path / "stream.ndjson").plus_string())
    argv = ["analyze", source, str(path), "--out-dir", str(tmp_path / "analyze")]
    code = (f"import sys, qrngkit.cli; "
            f"sys.exit(qrngkit.cli.main({argv!r}) or 'scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert json.loads((tmp_path / "analyze" / "reports.json").read_text())


# --- simulate ----------------------------------------------------------------------


def test_simulate_runs_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run_cli(
            "simulate", "--pairs", 500, "--seed", 7, "--theta", "pi/5",
            "--e", "0.8,0.9,0.7,0.6", "--out-dir", d,
        ) == 0
    assert (a / "stream.ndjson").read_bytes() == (b / "stream.ndjson").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    m = read_manifest(a)
    assert m["params"]["config"]["theta"] == pytest.approx(math.pi / 5)
    assert m["results"]["kept"] == len(read_stream_ndjson(a / "stream.ndjson"))


def test_simulate_demon_flag_forces_slots(tmp_path):
    assert run_cli(
        "simulate", "--pairs", 4000, "--seed", 9, "--demon", 0.5, "--out-dir", tmp_path
    ) == 0
    s = read_stream_ndjson(tmp_path / "stream.ndjson")
    z = s.a ^ s.b
    assert not z[1::2].any()
    assert z[0::2].any()
    m = read_manifest(tmp_path)
    assert m["results"]["dropped_demon"] > 0


def test_simulate_stream_with_every_imperfection_is_pinned(tmp_path):
    # the stream's bytes are part of the draw contract; this digest was taken
    # from the per-record dead-time and demon loops and the per-column drift sin
    cfg = tmp_path / "drift.json"
    cfg.write_text(json.dumps({
        "theta": 0.6283185307179586, "e0_plus": 0.3, "e1_plus": 0.33,
        "e0_times": 0.29, "e1_times": 0.3,
        "drift": {"amplitudes": [0.02, 0.01, 0.02, 0.0], "period": 50,
                  "phases": [0.0, 1.5, 0.0, 3.0]},
    }))
    assert run_cli(
        "simulate", "--pairs", 20_000, "--seed", 11, "--dead-time", 0.3, "--demon", 0.5,
        "--double-count", 0.05, "--config", cfg, "--out-dir", tmp_path,
    ) == 0
    digest = hashlib.sha256((tmp_path / "stream.ndjson").read_bytes()).hexdigest()
    assert digest == "62d03a606726fe72dc3327f1fa0abd0a6f842069de9b2f2970e25084c75bfd51"
    r = read_manifest(tmp_path)["results"]
    assert (r["kept"], r["dropped_dead_time"], r["dropped_demon"]) == (12146, 4594, 3260)


def test_simulate_physical_mode_reports_losses(tmp_path):
    assert run_cli(
        "simulate", "--pairs", 2000, "--seed", 5, "--mode", "physical",
        "--e", "0.5,0.5,0.5,0.5", "--out-dir", tmp_path,
    ) == 0
    m = read_manifest(tmp_path)
    assert m["params"]["mode"] == "physical"
    assert m["results"]["dropped_undetected"] > 0
    assert m["results"]["kept"] + m["results"]["dropped_undetected"] == 2000


@pytest.mark.parametrize("mode", ["ideal", "physical"])
@pytest.mark.parametrize("pairs,interval,period,words", [
    (100, 1e307, None, "overflow float64"),  # the times overflow in the second chunk
    (60, 1e306, 1, "drift period 1"),  # the drift phase overflows in the third
])
def test_a_refusal_in_a_late_chunk_leaves_no_directory(tmp_path, capsys, monkeypatch, mode,
                                                       pairs, interval, period, words):
    # simulate writes each chunk as it is drawn, so the refusals that depend on the draw
    # must come before the first chunk, or the directory would exist by then
    monkeypatch.setattr(simulate, "_CHUNK", 8)
    with np.errstate(over="ignore"):
        t = np.cumsum(_generator(0, 0).exponential(interval, pairs))
        late = t if period is None else 2.0 * math.pi * t / period
    assert np.isfinite(late[:8]).all() and not np.isfinite(late[-1])
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({} if period is None else {
        "e0_plus": 0.9, "e1_plus": 0.9, "e0_times": 0.9, "e1_times": 0.9,
        "drift": {"amplitudes": [0.05] * 4, "period": period}}))
    assert run_cli("simulate", "--pairs", pairs, "--mode", mode, "--mean-interval", interval,
                   "--config", config, "--out-dir", tmp_path / "o") == 2
    assert words in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("interval", [1.0, 5e-324])
def test_the_first_pass_ends_at_the_last_time_written(tmp_path, monkeypatch, interval):
    # both passes form the times by one helper; the first pass's last time is the one
    # both refusals are checked at, so it must be the stream's last, ties nudged (5e-324)
    monkeypatch.setattr(simulate, "_CHUNK", 8)
    carries, arrivals = [], simulate._arrivals

    def recorded(t, scale, carry):
        t, carry = arrivals(t, scale, carry)
        carries.append(carry)
        return t, carry

    monkeypatch.setattr(simulate, "_arrivals", recorded)
    assert run_cli("simulate", "--pairs", 100, "--mean-interval", interval,
                   "--out-dir", tmp_path) == 0
    assert len(carries) == 2 * 13  # 13 chunks of at most 8 in each pass
    last = read_stream_ndjson(tmp_path / "stream.ndjson").t[-1]
    assert carries[12][1] == carries[-1][1] == last


def test_simulate_holds_one_chunk_whatever_its_pair_count(tmp_path):
    peaks = []
    for n in (200_000, 1_000_000):
        code, peak = traced_peak(run_cli, "simulate", "--pairs", n, "--out-dir", tmp_path / f"o{n}")
        assert code == 0
        peaks.append(peak)
    # the stream joined before the write took about 18 B per pair
    assert (peaks[1] - peaks[0]) / 800_000 < 1, peaks


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pipeline_cases(), st.sampled_from([1, 3, 64]))
def test_simulate_writes_the_stream_run_pipeline_returns(tmp_path, capsys, case, chunk):
    mode, cfg, n, seed = case
    config, out, whole = tmp_path / "cfg.json", tmp_path / "o", tmp_path / "whole.ndjson"
    config.write_text(json.dumps(cfg.to_dict()))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_CHUNK", chunk)
        assert run_cli("simulate", "--pairs", n, "--seed", seed, "--mode", mode,
                       "--config", config, "--out-dir", out) == 0
    result = run_pipeline(n, cfg, seed, mode=mode)  # at the default chunk size
    write_stream_ndjson(whole, [result.records])
    assert (out / "stream.ndjson").read_bytes() == whole.read_bytes()
    assert read_manifest(out)["results"] == result.counters()
    line = f"kept {len(result.records)} of {n} pairs -> {out / 'stream.ndjson'}\n"
    assert capsys.readouterr().out == line


def test_manifest_replays_to_identical_output(tmp_path):
    first = tmp_path / "first"
    run_cli("simulate", "--pairs", 800, "--seed", 11, "--theta", "0.7",
            "--e", "0.9,0.8,0.85,0.95", "--dead-time", "1e-4", "--out-dir", first)
    m = read_manifest(first)
    cfg_file = tmp_path / "replay-config.json"
    cfg_file.write_text(json.dumps(m["params"]["config"]))
    second = tmp_path / "second"
    assert run_cli(
        "simulate", "--pairs", m["params"]["pairs"], "--seed", m["params"]["seed"],
        "--mode", m["params"]["mode"], "--config", cfg_file, "--out-dir", second,
    ) == 0
    assert (first / "stream.ndjson").read_bytes() == (second / "stream.ndjson").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"theta": 0.1, "e0_plus": 0.5}))
    run_cli("simulate", "--pairs", 10, "--theta", "pi/4", "--config", cfg_file,
            "--out-dir", tmp_path)
    cfg = read_manifest(tmp_path)["params"]["config"]
    assert cfg["theta"] == pytest.approx(math.pi / 4)
    assert cfg["e0_plus"] == 0.5


# --- extract -----------------------------------------------------------------------


def test_extract_von_neumann_from_file(tmp_path):
    write_bits(tmp_path / "in.bits", BitString("00011011"))
    assert run_cli("extract", "--method", "vn", "--in", tmp_path / "in.bits",
                   "--out-dir", tmp_path) == 0
    assert read_bits(tmp_path / "extracted.bits") == BitString("01")
    r = read_manifest(tmp_path)["results"]
    assert (r["in"], r["out"], r["discarded"]) == (8, 2, 6)


@pytest.mark.parametrize(
    "bad", ['"t":NaN,"a":1,"b":1', '"t":0.2,"a":1.7,"b":1', '"t":0.2,"a":0,"b":true']
)
def test_extract_rejects_coerced_stream_records(tmp_path, bad):
    stream = tmp_path / "s.ndjson"
    stream.write_text('{"t":0.1,"a":1,"b":0}\n{' + bad + '}\n')
    assert run_cli("extract", "--method", "xor", "--stream", stream,
                   "--out-dir", tmp_path) == 4
    assert not (tmp_path / "extracted.bits").exists()


def test_extract_xor_of_identical_streams_is_zero(tmp_path):
    stream = tmp_path / "s.ndjson"
    stream.write_text(
        '{"t":0.1,"a":1,"b":1}\n{"t":0.2,"a":0,"b":0}\n{"t":0.3,"a":1,"b":1}\n'
    )
    assert run_cli("extract", "--method", "xor", "--stream", stream,
                   "--out-dir", tmp_path) == 0
    assert read_bits(tmp_path / "extracted.bits") == BitString("000")


def test_extract_xor_with_offset_accounting(tmp_path):
    write_bits(tmp_path / "x.bits", BitString("1100"))
    write_bits(tmp_path / "y.bits", BitString("0010"))
    assert run_cli(
        "extract", "--method", "xor", "--j", 1, "--in-x", tmp_path / "x.bits",
        "--in-y", tmp_path / "y.bits", "--out-dir", tmp_path,
    ) == 0
    assert read_bits(tmp_path / "extracted.bits") == BitString("100")
    r = read_manifest(tmp_path)["results"]
    assert (r["in"], r["out"], r["discarded"]) == (4, 3, 1)
    assert r["params"] == {"j": 1}


def test_extract_pair_vn_from_files(tmp_path):
    write_bits(tmp_path / "x.bits", BitString("11010"))
    write_bits(tmp_path / "y.bits", BitString("00110"))
    assert run_cli(
        "extract", "--method", "pair-vn", "--in-x", tmp_path / "x.bits",
        "--in-y", tmp_path / "y.bits", "--out-dir", tmp_path,
    ) == 0
    assert read_bits(tmp_path / "extracted.bits") == BitString("0")


def test_extract_peres_packed_output(tmp_path):
    write_bits(tmp_path / "in.bits", BitString("01100011"))
    assert run_cli(
        "extract", "--method", "peres", "--depth", 2, "--in", tmp_path / "in.bits",
        "--format", "packed", "--out-dir", tmp_path,
    ) == 0
    blob = (tmp_path / "extracted.bits").read_bytes()
    assert blob.startswith(b"#bits=")
    r = read_manifest(tmp_path)["results"]
    assert r["in"] == 8 and r["params"] == {"depth": 2}


EXTRACT_DIGESTS = {
    ("xor", "ascii"):
        "ad6ca20fc76d8b56df051ad403bf5918ec0d63f840715d6a73b208632b176b5f",
    ("xor", "packed"):
        "96e30e6b292a64eb84b5fc22ab0db9bc3b6a2cda447848cb63e2a67990a3a680",
    ("vn", "ascii"):
        "dd90fd3a5c0724949e93d9135cf9be32e0150cd9f9f518556deebb08d152d9ca",
    ("vn", "packed"):
        "7b0c1e30e89f1850acbe1eb2f598dfb01a279244f85af971c7fe87ac9a4f8dae",
    ("peres", "ascii"):
        "3889ecb4c3eea4bdb9346087879411ab923d4663243faa8f5bae87bab6f2511a",
    ("peres", "packed"):
        "46fca15b9417c137ae3dd25cc64082eb5d29a9bb3cd1f872b3e9e8b039d89f8b",
    ("pair-vn", "ascii"):
        "cfb1d7a51739b23186f8c2c29b87f7514e942c8ba9d16c4deb28fc9516086fb2",
    ("pair-vn", "packed"):
        "0ac7c0eb84d821e2a7c8e36f1eb6651abaaf804898319eea6418ce29d0634838",
    ("analyze", "reports.json"):
        "6153fb913fc9cd2294085f9aaba533812ce397e7ae5ca8b282637ecee70bb37d",
}


def test_extracted_bits_and_reports_are_pinned(tmp_path):
    # bit order and packing are part of the output contract: two runs of the same
    # code agree whatever the order, so these digests pin the bytes themselves
    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert run_cli("simulate", "--pairs", 20_000, "--seed", 7, "--theta", "0.6",
                   "--out-dir", tmp_path) == 0
    stream = tmp_path / "stream.ndjson"
    got = {}
    for method in ("xor", "vn", "peres", "pair-vn"):
        for fmt in ("ascii", "packed"):
            out = tmp_path / f"{method}-{fmt}"
            offset = ("--j", 1) if method == "xor" else ()
            assert run_cli("extract", "--method", method, *offset, "--stream", stream,
                           "--format", fmt, "--out-dir", out) == 0
            got[method, fmt] = sha(out / "extracted.bits")
    assert run_cli("analyze", "--in", tmp_path / "xor-ascii" / "extracted.bits",
                   "--out-dir", tmp_path / "analyze") == 0
    got["analyze", "reports.json"] = sha(tmp_path / "analyze" / "reports.json")
    assert got == EXTRACT_DIGESTS


RUN_DIGESTS = {
    ("exact-12-0", "distribution.csv"):
        "dc8e8fcbd3e370b70046efdec6d13e61e08b40d2fb24fbbe99b8605ef4a64cc5",
    ("exact-12-0", "deviation.csv"):
        "e488048b2898efdfdeeae6a7126620e83a914163518b82d8e7713cef72a3fd64",
    ("exact-12-0", "manifest.json"):
        "0b444690f10d1e93d4c2dfcada216616248336bce65e9e7939d8e00bb923178d",
    ("exact-10-2", "distribution.csv"):
        "7f789284c5f8e844dd2527c1636f07f253c4a87186c91af05c0dcf34d8f58c81",
    ("exact-10-2", "deviation.csv"):
        "00486cfa8885e2874f1059d1c8727b1056b30f57aeab86716a5cf041618462f4",
    ("exact-10-2", "manifest.json"):
        "e3d9ce0ea595ba4bfbed68135f1e0783c2ac4973335f44abbb1d7f8895463fa3",
    ("sweep", "sweep.csv"):
        "046dd20941a7ad3aef70a2572b3cbcac86e19d0897fde24c5c91e0238aa4af08",
    ("demon-demo", "source.bits"):
        "04926e45db7dc0216e581c07024dbfe8c071daeb0ccd04de785e5f659c3c821d",
    ("demon-demo", "sieved.bits"):
        "56f277b4ca50e43d69aa1860e25efd2c3ca836a268ab4edc8341efe2c0a8591d",
}


IMPERFECT_CONFIG = {
    "theta": math.pi / 5, "e0_plus": 0.30, "e1_plus": 0.33, "e0_times": 0.29,
    "e1_times": 0.30, "drift": {"amplitudes": [0.02] * 4, "period": 1000.0},
    "double_count_prob": 0.01, "dead_time_Td": 0.3, "demon_rho": 0.5,
}


def test_exact_sweep_and_demon_outputs_are_pinned(tmp_path):
    # the exact law files, the empirical sweep through every imperfection and the
    # demon's bit files, pinned byte for byte like the extractor outputs above
    config = tmp_path / "imperfect.json"
    config.write_text(json.dumps(IMPERFECT_CONFIG))
    for n, j in ((12, 0), (10, 2)):
        assert run_cli("exact", "--n", n, "--j", j, "--max-bits", 13, "--theta", "pi/5",
                       "--e", "0.30,0.33,0.29,0.30", "--out-dir", tmp_path / f"exact-{n}-{j}") == 0
    assert run_cli("sweep", "--grid", "0:pi/2:5", "--empirical", 20_000, "--config", config,
                   "--out-dir", tmp_path / "sweep") == 0
    assert run_cli("demon-demo", "--out-dir", tmp_path / "demon-demo") == 0
    got = {(run, name): hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest()
           for run, name in RUN_DIGESTS}
    assert got == RUN_DIGESTS


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the dispatch cap names x86-64 levels")
def test_pinned_bytes_hold_at_baseline_simd():
    # the pinned streams, bit files and laws must not depend on the CPU's SIMD
    # level: rerun them with numpy's dispatch capped at its X86_V2 baseline
    code = (
        "import sys, pytest\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "if __cpu_features__['X86_V3']:\n"
        "    sys.exit('the dispatch cap did not hold')\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n"
    )
    tests = [f"{__file__}::{name}" for name in (
        "test_simulate_stream_with_every_imperfection_is_pinned",
        "test_extracted_bits_and_reports_are_pinned",
        "test_exact_sweep_and_demon_outputs_are_pinned",
    )]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    child = subprocess.run([sys.executable, "-c", code, *tests], env=env,
                           cwd=Path(__file__).parent.parent, capture_output=True, text=True)
    assert child.returncode == 0, child.stdout + child.stderr
    assert "3 passed" in child.stdout


def test_extract_from_a_stream_holds_the_outcome_bits_alone(tmp_path):
    peaks = []
    for n in (200_000, 1_000_000):
        times = np.cumsum(np.random.default_rng(n).exponential(1e-6, n))
        stream = tmp_path / f"s{n}.ndjson"
        write_stream_ndjson(stream, [PairStream(times, coin_flips(1, n), coin_flips(2, n))])
        code, peak = traced_peak(run_cli, "extract", "--method", "xor", "--stream", stream,
                                 "--out-dir", tmp_path / f"o{n}")
        assert code == 0
        peaks.append(peak)
    # the whole PairStream, times included, took about 15 B per record
    assert (peaks[1] - peaks[0]) / 800_000 < 4, peaks


@pytest.mark.parametrize("method", ["xor", "vn", "peres", "pair-vn"])
def test_extract_from_an_empty_stream_writes_no_bits(tmp_path, method):
    empty = np.zeros(0, dtype=np.uint8)
    write_stream_ndjson(tmp_path / "empty.ndjson", [PairStream(np.zeros(0), empty, empty)])
    assert run_cli("extract", "--method", method, "--stream", tmp_path / "empty.ndjson",
                   "--out-dir", tmp_path) == 0
    r = read_manifest(tmp_path)["results"]
    assert r["in"] == 0 and r["out"] == 0


def test_extract_requires_an_input(tmp_path):
    assert run_cli("extract", "--method", "vn", "--out-dir", tmp_path) == 2
    assert run_cli("extract", "--method", "xor", "--in-x", "only-one.bits",
                   "--out-dir", tmp_path) == 2


# --- analyze -----------------------------------------------------------------------


def test_analyze_flags_a_constant_file(tmp_path):
    write_bits(tmp_path / "zeros.bits", BitString("0" * 10_000))
    assert run_cli("analyze", "--in", tmp_path / "zeros.bits", "--tests", "chi2",
                   "--k", 1, "--out-dir", tmp_path) == 0
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert len(reports) == 1
    assert reports[0]["passed"] is False
    assert reports[0]["p_value"] < 1e-10
    header, rows = csv_rows(tmp_path / "reports.csv")
    assert header == ["test", "k", "statistic", "p_value", "passed"]
    assert rows[0][4] == "0"


def test_analyze_stream_estimates_the_angle(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--pairs", 12_000, "--seed", 1, "--out-dir", sim)
    assert run_cli("analyze", "--stream", sim / "stream.ndjson", "--out-dir", tmp_path) == 0
    m = read_manifest(tmp_path)
    est = m["results"]["theta"]
    assert est["theta"] == pytest.approx(math.pi / 4, abs=3 * est["stderr"])
    assert abs(m["results"]["correlation"]) < 0.03
    # default block sizes for 12000 bits, then the normality reports
    _, rows = csv_rows(tmp_path / "reports.csv")
    chi_ks = [int(r[1]) for r in rows if r[0] == "chi2_uniformity"]
    assert chi_ks == [1, 2, 3, 4, 5]
    assert any(r[0] == "borel_normality" for r in rows)


def test_analyze_rejects_unknown_test_names(tmp_path, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a statistic ran before the test names were checked")

    monkeypatch.setattr("qrngkit.cli.chi2_uniformity", must_not_run)
    monkeypatch.setattr("qrngkit.cli.borel_normality", must_not_run)
    write_bits(tmp_path / "z.bits", BitString("0" * 400))
    assert run_cli("analyze", "--in", tmp_path / "z.bits", "--tests", "chi2,runs",
                   "--out-dir", tmp_path) == 2
    assert not (tmp_path / "reports.json").exists()


def test_analyze_refuses_an_empty_block_list(tmp_path, capsys):
    write_bits(tmp_path / "z.bits", BitString("01" * 200))
    assert run_cli("analyze", "--in", tmp_path / "z.bits", "--tests", "chi2", "--k", "",
                   "--out-dir", tmp_path / "out") == 2
    assert "cannot parse block list ''" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analyze_names_an_empty_stream(tmp_path, capsys):
    empty = np.zeros(0, dtype=np.uint8)
    write_stream_ndjson(tmp_path / "empty.ndjson", [PairStream(np.zeros(0), empty, empty)])
    assert run_cli("analyze", "--stream", tmp_path / "empty.ndjson",
                   "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "empty.ndjson" in err and "0 records" in err
    assert not (tmp_path / "out").exists()


def test_analyze_needs_some_input(tmp_path):
    assert run_cli("analyze", "--out-dir", tmp_path) == 2
    assert run_cli("analyze", "--in", tmp_path / "missing.bits", "--out-dir", tmp_path) == 2


def test_analyze_malformed_bit_file_exit_code(tmp_path):
    bad = tmp_path / "bad.bits"
    bad.write_bytes(b"no header here\n")
    assert run_cli("analyze", "--in", bad, "--out-dir", tmp_path) == 4
    bad.write_bytes(b"#bits=+4\n0110\n")  # a signed count
    assert run_cli("analyze", "--in", bad, "--out-dir", tmp_path) == 4

def test_analyze_malformed_stream_exit_code(tmp_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"t":0.1,"a":1}\n')
    assert run_cli("analyze", "--stream", bad, "--out-dir", tmp_path) == 4
    bad.write_bytes(b"1" * (5 << 20))  # no newline: refused at the line cap
    assert run_cli("analyze", "--stream", bad, "--out-dir", tmp_path) == 4


# --- sweep -------------------------------------------------------------------------


def test_sweep_anchor_points(tmp_path):
    assert run_cli("sweep", "--thetas", "0,pi/4,pi/2", "--out-dir", tmp_path) == 0
    _, rows = csv_rows(tmp_path / "sweep.csv")
    values = [(float(q), float(c)) for _, q, c in rows]
    # the two predictions coincide at 0, pi/4 and pi/2
    assert values[0] == (1.0, 1.0)
    assert values[1][0] == pytest.approx(0.5, abs=1e-15)
    assert values[1][1] == pytest.approx(0.5, abs=1e-15)
    assert values[2][0] == pytest.approx(0.0, abs=1e-15)
    assert values[2][1] == pytest.approx(0.0, abs=1e-15)


def test_sweep_curves_split_between_anchors(tmp_path):
    run_cli("sweep", "--thetas", "pi/4", "--out-dir", tmp_path)  # smoke for single point
    run_cli(
        "sweep", "--thetas", f"{math.pi / 4 - 0.1},{math.pi / 4 + 0.1}",
        "--out-dir", tmp_path,
    )
    _, rows = csv_rows(tmp_path / "sweep.csv")
    below_q, below_c = float(rows[0][1]), float(rows[0][2])
    above_q, above_c = float(rows[1][1]), float(rows[1][2])
    # the cosine-squared curve is steeper through the crossing point
    assert below_q > below_c
    assert above_q < above_c


def test_sweep_grid_with_empirical_column(tmp_path):
    assert run_cli(
        "sweep", "--grid", "0:pi/2:5", "--empirical", 4000, "--seed", 6,
        "--out-dir", tmp_path,
    ) == 0
    header, rows = csv_rows(tmp_path / "sweep.csv")
    assert header[-1] == "expectation_empirical"
    assert len(rows) == 5
    for theta_s, q, _, emp in rows:
        assert float(emp) == pytest.approx(float(q), abs=0.04)
    assert float(rows[2][0]) == pytest.approx(math.pi / 4)
    assert read_manifest(tmp_path)["results"]["points"] == 5


@pytest.mark.parametrize("pairs,seed,code,words", [
    # point 8 would draw with seed 2**64, one past the last valid seed
    pytest.param(1000, 2**64 - 8, 2, ("--seed", "9 points"), id="seed-range"),
    pytest.param("1e13", 0, 3, ("per-run budget",), id="pair-budget"),
])
def test_sweep_checks_the_last_point_seed_before_any_draw(tmp_path, capsys, monkeypatch,
                                                          pairs, seed, code, words):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a point was drawn before the sweep's arguments were checked")

    monkeypatch.setattr("qrngkit.cli._pipeline_chunks", must_not_run)
    assert run_cli("sweep", "--grid", "0:pi/2:9", "--empirical", pairs, "--seed", seed,
                   "--out-dir", tmp_path / "out") == code
    err = capsys.readouterr().err
    assert all(word in err for word in words)
    assert not (tmp_path / "out").exists()


def test_sweep_manifest_config_leaves_out_the_replaced_theta(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"theta": 0.61, "e0_plus": 0.8}')
    assert run_cli("sweep", "--grid", "0:pi/2:3", "--empirical", 1000, "--config", config,
                   "--out-dir", tmp_path / "out") == 0
    params = read_manifest(tmp_path / "out")["params"]
    assert "theta" not in params["config"] and params["config"]["e0_plus"] == 0.8
    assert params["thetas"] == [0.0, math.pi / 4, math.pi / 2]


def test_sweep_point_failing_in_a_worker_exits_with_its_code(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"mean_pair_interval": 1e306}')
    assert run_cli("sweep", "--grid", "0:pi/2:5", "--empirical", 20_000, "--config", config,
                   "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "overflow float64" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []
    assert run_cli("sweep", "--grid", "0:pi/2:5", "--empirical", 1000,
                   "--out-dir", tmp_path / "ok") == 0
    assert multiprocessing.active_children() == []


def test_sweep_output_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    config = tmp_path / "imperfect.json"
    config.write_text(json.dumps(IMPERFECT_CONFIG))
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    outputs = []
    for cpus, pair_cap in ((1, None), (4, None), (4, 20_000)):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        if pair_cap is not None:
            monkeypatch.setattr("qrngkit.simulate.PAIR_CAP", pair_cap)
        out = tmp_path / f"cpus{cpus}-cap{pair_cap}"
        assert run_cli("sweep", "--grid", "0:pi/2:5", "--empirical", 20_000, "--config", config,
                       "--out-dir", out) == 0
        sweep = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert sweep == RUN_DIGESTS["sweep", "sweep.csv"]
        outputs.append((out / "manifest.json").read_bytes())
    # a point holds one chunk, not its pairs, so the pair budget leaves the worker count alone
    assert pools == [1, 4, 4]
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_sweep_point_holds_one_chunk_whatever_its_pair_count():
    cfg = QrngConfig.from_dict(IMPERFECT_CONFIG)
    peaks = []
    for n in (200_000, 2_000_000):
        peaks.append(traced_peak(cli._agreement, n, cfg, 1)[1])
    # whole columns took about 32 B per pair, 64 MB at the larger count
    assert peaks[1] < peaks[0] + 3e6, peaks


def test_sweep_needs_a_grid(tmp_path):
    assert run_cli("sweep", "--out-dir", tmp_path) == 2
    assert run_cli("sweep", "--grid", "0:pi:1", "--out-dir", tmp_path) == 2


# --- demon demo --------------------------------------------------------------------


def test_demon_demo_outputs(tmp_path):
    assert run_cli("demon-demo", "--rho", 0.5, "--n", 20_000, "--seed", 3,
                   "--out-dir", tmp_path) == 0
    r = read_manifest(tmp_path)["results"]
    assert r["k"] == 2
    assert r["in"] == 20_000
    assert r["forced_slots_all_zero"] is True
    assert r["rejected_fraction"] == pytest.approx(1 / 3, abs=0.02)
    sieved = read_bits(tmp_path / "sieved.bits")
    assert not sieved.to_array()[1::2].any()
    assert len(read_bits(tmp_path / "source.bits")) == 20_000


def test_demon_demo_tighter_budget(tmp_path):
    run_cli("demon-demo", "--rho", 0.8, "--n", 10_000, "--seed", 4, "--out-dir", tmp_path)
    r = read_manifest(tmp_path)["results"]
    assert r["k"] == 5
    forced = read_bits(tmp_path / "sieved.bits").to_array()[4::5]
    assert not forced.any()


def test_demon_demo_draws_the_coins_of_the_bare_seed_key(tmp_path):
    # keyed [seed, 0] through the simulator's seed check; Philox draws that as key=seed
    assert run_cli("demon-demo", "--rho", 0.5, "--n", 5_000, "--seed", 3,
                   "--out-dir", tmp_path) == 0
    source = coin_flips(3, 5_000)
    assert np.array_equal(read_bits(tmp_path / "source.bits").to_array(), source)
    assert read_bits(tmp_path / "sieved.bits") == demon_filter(BitString.from_array(source), 0.5)


@pytest.mark.parametrize("rho", ["1.5", "nan"])
def test_demon_demo_refuses_its_budget_before_drawing(tmp_path, monkeypatch, capsys, rho):
    def no_draw(*args):
        raise AssertionError("coins drawn for a budget that is refused")

    monkeypatch.setattr("qrngkit.cli._generator", no_draw)
    assert run_cli("demon-demo", "--rho", rho, "--n", "3e7", "--out-dir", tmp_path / "out") == 2
    assert "demon efficiency budget" in capsys.readouterr().err


# --- shared flag handling ------------------------------------------------------------


def test_bad_angle_and_efficiency_flags(tmp_path):
    assert run_cli("simulate", "--pairs", 10, "--theta", "bogus", "--out-dir", tmp_path) == 2
    assert run_cli("simulate", "--pairs", 10, "--e", "0.5,0.5", "--out-dir", tmp_path) == 2
    assert run_cli("simulate", "--pairs", "0", "--out-dir", tmp_path) == 2


@pytest.mark.parametrize("command,e", [(("simulate", "--pairs", 1000), 1e-170),
                                       (("exact", "--n", 4), 1e-165)])
def test_underflowing_efficiency_products_exit_2(tmp_path, capsys, command, e):
    # products below the normal floats were sampled as all (1, 1) or failed inside
    # the law; the config refuses them and names the two efficiencies
    assert run_cli(*command, "--e", ",".join([str(e)] * 4), "--out-dir", tmp_path / "o") == 2
    assert "e0_plus * e0_times" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,amplitude", [
    (("simulate", "--pairs", 1000), 0.05),
    (("simulate", "--pairs", 1000, "--mode", "physical"), 0.05),
    (("simulate", "--pairs", 1000), 0.0),
    (("sweep", "--grid", "0:pi/2:3", "--empirical", 1000), 0.05),
])
def test_drift_phase_overflow_exits_2(tmp_path, capsys, command, amplitude):
    # 2*pi*t/period overflows to inf; unrefused, every efficiency is NaN and the
    # run writes all (0, 0) records, keeps none, or sweeps 1.0 at every angle
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"theta": 0.6, "e0_plus": 0.9, "e1_plus": 0.9, "e0_times": 0.9,
                                  "e1_times": 0.9,
                                  "drift": {"amplitudes": [amplitude] * 4, "period": 5e-324}}))
    assert run_cli(*command, "--config", config, "--out-dir", tmp_path / "o") == 2
    assert "drift period 5e-324" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert run_cli("simulate", "--pairs", 10, "--config", bad, "--out-dir", tmp_path) == 4
    bad.write_text('{"theta": 0.3, "volume": 11}')
    assert run_cli("simulate", "--pairs", 10, "--config", bad, "--out-dir", tmp_path) == 4
    assert run_cli("simulate", "--pairs", 10, "--config", tmp_path / "nope.json",
                   "--out-dir", tmp_path) == 2
    for text in BAD_CONFIG_TEXTS:
        bad.write_bytes(text)
        assert run_cli("simulate", "--pairs", 10, "--config", bad, "--out-dir", tmp_path) == 4
    # the file is checked on its own, before any flag overrides a field of it
    bad.write_text('{"theta": 3.0}')
    assert run_cli("simulate", "--pairs", 10, "--theta", "0.3", "--config", bad,
                   "--out-dir", tmp_path) == 4


# Each command reads exactly one input source; a second one, or the wrong one
# for the method, is a usage error that names the flags given.
CONFLICTING_SOURCES = [
    "extract --method vn --in {bits} --stream {stream}",
    "extract --method xor --stream {stream} --in-x {bits} --in-y {bits}",
    "extract --method xor --in-x {bits}",
    "extract --method peres --in-x {bits} --in-y {bits}",
    "analyze --in {bits} --stream {stream}",
    "sweep --thetas 0.1 --grid 0:1:3",
]

# A flag or config field the run would ignore is refused: exit 2, the flag or
# field named on stderr, no output directory. {cfg} is a config file holding
# the text given with the case; each text is valid on its own.
_DRIFT = ('{"e0_plus": 0.5, "e1_plus": 0.5, "e0_times": 0.5, "e1_times": 0.5, '
          '"drift": {"amplitudes": [0.1, 0.1, 0.1, 0.1], "period": 1000}}')
IGNORED_INPUTS = [
    ("exact --n 2 --config {cfg}", _DRIFT, "drift"),
    ("exact --n 2 --config {cfg}", '{"double_count_prob": 0.3}', "double_count_prob"),
    ("exact --n 2 --config {cfg}", '{"demon_rho": 0.8}', "demon_rho"),
    ("sweep --thetas 0.3,0.6 --theta pi/5", None, "--theta"),
    ("sweep --grid 0:1:3 --empirical 10 --theta pi/5", None, "--theta"),
    ("sweep --grid 0:1:3 --e 1,1,1,1", None, "--e"),
    ("sweep --grid 0:1:3 --config {cfg}", '{"theta": 0.6}', "--config"),
    ("sweep --thetas 0.3 --seed 3", None, "--seed"),
    ("extract --method vn --j 1 --in {bits}", None, "--j"),
    ("extract --method peres --j 5 --in {bits}", None, "--j"),
    ("extract --method xor --depth 3 --stream {stream}", None, "--depth"),
    ("extract --method pair-vn --depth 3 --in-x {bits} --in-y {bits}", None, "--depth"),
    ("analyze --in {bits} --tests borel --k 1", None, "--k"),
    ("analyze --stream {stream} --tests borel --alpha 0.05", None, "--alpha"),
]


@pytest.mark.parametrize("argv,config,name", IGNORED_INPUTS)
def test_ignored_flags_and_fields_are_refused(tmp_path, capsys, argv, config, name):
    files = _hostile_files(tmp_path)
    if config is not None:
        files["cfg"] = tmp_path / "cfg.json"
        files["cfg"].write_text(config)
    out = tmp_path / "out"
    assert run_cli(*[part.format(**files) for part in argv.split()], "--out-dir", out) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


# Hostile argv and the documented exit code of each: 0 success, 2 usage, 3
# budget, 4 malformed file. {bits} is an 8-bit input file, {stream} an 8-record
# pair stream, {cfgN} bad config file N. A refused command writes nothing.
HOSTILE_ARGV = [
    ("extract --method peres --depth 5000 --in {bits}", 0),
    ("extract --method peres --depth 0 --in {bits}", 2),
    ("extract --method peres --depth -3 --in {bits}", 2),
    ("simulate --pairs 10 --seed -1", 2),
    ("simulate --pairs 10 --dead-time nan", 2),
    ("simulate --pairs 1e13", 3),
    ("exact --n 2 --equal-e", 2),
    ("exact --n 2 --max-bits -3", 2),
    ("exact --n 2 --max-bits 0", 2),
    ("exact --n 2 --e a,b,c,d", 2),
    ("sweep --grid 0:pi/2:3 --empirical 1e13", 3),
    ("sweep --grid 0:pi/2:9 --empirical 1000 --seed %d" % (2**64 - 8), 2),
    ("sweep --grid 0:1:%d" % (GRID_CAP + 1), 3),
    ("sweep --grid 0:1", 2),
    # past int()'s 4300-digit limit; a short id keeps the test name readable
    pytest.param("sweep --grid 0:1:" + "9" * 5000, 3, id="sweep-grid-5000-digit-count-3"),
    *[("analyze --stream {stream} --alpha %s" % alpha, 2) for alpha in ("nan", "0", "1", "7")],
    # 8 bits hold no chi2 block size; the test is refused, not skipped
    ("analyze --in {bits} --tests chi2", 2),
    ("analyze --in {bits} --tests chi2 --alpha 0.5", 2),
    ("analyze --in {bits} --k x", 2),
    *[(argv, 2) for argv in CONFLICTING_SOURCES],
    ("demon-demo --seed -1", 2),
    ("demon-demo --n 1e13", 3),
    # the budget is refused before the coins are drawn
    ("demon-demo --rho 1.5", 2),
    ("demon-demo --rho nan", 2),
    *[("exact --n 2 --config {cfg%d}" % i, 4) for i in range(len(BAD_CONFIG_TEXTS))],
    # bits 3..7 of the packed byte are padding, which must be zero
    ("extract --method vn --in {padded}", 4),
]


def _hostile_files(tmp_path):
    bits = BitString("00011011")
    files = {"bits": tmp_path / "in.bits", "stream": tmp_path / "in.ndjson",
             "padded": tmp_path / "padded.bits"}
    write_bits(files["bits"], bits)
    files["padded"].write_bytes(b"#bits=3\n\xff")
    write_stream_ndjson(files["stream"],
                        [PairStream(np.arange(8.0), bits.to_array(), bits.to_array())])
    for i, text in enumerate(BAD_CONFIG_TEXTS):
        files[f"cfg{i}"] = tmp_path / f"bad{i}.json"
        files[f"cfg{i}"].write_bytes(text)
    return files


@pytest.mark.parametrize("argv,code", HOSTILE_ARGV)
def test_hostile_argv_ends_in_its_exit_code(tmp_path, capsys, argv, code):
    files = _hostile_files(tmp_path)
    out = tmp_path / "out"
    assert run_cli(*[part.format(**files) for part in argv.split()], "--out-dir", out) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (code == 0) == (err == "")
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("argv", CONFLICTING_SOURCES)
def test_conflicting_sources_are_named(tmp_path, capsys, argv):
    files = _hostile_files(tmp_path)
    assert run_cli(*[part.format(**files) for part in argv.split()], "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    for flag in ("--in", "--in-x", "--stream", "--thetas", "--grid"):
        if flag in argv.split():
            assert flag in err, err


# Every documented flag of every subcommand, each with valid values and bad
# ones. Budget flags stay small, so no case draws much or runs long; the
# budget refusals themselves (1e13 pairs, a grid past GRID_CAP) are cheap.
_FILES = ["bits", "bad_bits", "stream", "bad_stream", "config", "bad_config", "missing", "dir"]


def _file(good):
    """The good file for the flag half the time, any file else."""
    return st.one_of(st.just(good), st.sampled_from(_FILES)).map(lambda name: "{%s}" % name)


_FLOAT = st.one_of(st.sampled_from(["0", "0.3", "1", "-1", "nan", "inf", "1e300", "x", ""]),
                   st.floats(0, 1).map(repr))
_INT = st.one_of(st.integers(-3, 20).map(str), st.sampled_from(["1e3", "2.5", "x", ""]))
_COUNT = st.one_of(st.integers(1, 2000).map(str),
                   st.sampled_from(["-2", "0", "1e3", "1e13", "0.5", "x"]))
_SEED = st.sampled_from(["0", "7", "-1", str(2**64), "x"])
_CONFIG_FLAGS = {
    "--config": _file("config"),
    "--theta": st.sampled_from(["0.6", "pi/5", "pi/0", "2", "nan", "x"]),
    "--e": st.sampled_from(["0.3,0.33,0.29,0.3", "1,1,1,1", "0,1,1,1", "1,1,1", "1,1,1,nan"]),
}
_FLAGS = {
    "exact": {"--n": st.integers(-1, 8).map(str), "--j": st.integers(-1, 4).map(str),
              "--max-bits": st.integers(-1, 14).map(str), "--tv": st.none(), **_CONFIG_FLAGS},
    "simulate": {"--pairs": _COUNT, "--seed": _SEED,
                 "--mode": st.sampled_from(["ideal", "physical", "x"]), "--mean-interval": _FLOAT,
                 "--dead-time": _FLOAT, "--double-count": _FLOAT, "--demon": _FLOAT,
                 **_CONFIG_FLAGS},
    "extract": {"--method": st.sampled_from(["xor", "vn", "peres", "pair-vn", "x"]),
                "--in": _file("bits"), "--in-x": _file("bits"), "--in-y": _file("bits"),
                "--stream": _file("stream"), "--j": _INT,
                "--depth": st.integers(-2, 5000).map(str),
                "--format": st.sampled_from(["ascii", "packed", "x"])},
    "analyze": {"--in": _file("bits"), "--stream": _file("stream"),
                "--tests": st.sampled_from(["chi2", "borel", "chi2,borel", "x", ""]),
                "--k": st.sampled_from(["1", "1,2", "0", "-1", "30", "x", ""]), "--alpha": _FLOAT},
    "sweep": {"--thetas": st.sampled_from(["0.1", "pi/5,pi/4", "0,1.5", "nan", "1,,2", ""]),
              "--grid": st.sampled_from(["0:pi/2:3", "1:0:2", "0:1:1", "a:b:2", "0:1:x",
                                         "0:1:%d" % (GRID_CAP + 1)]),
              "--empirical": st.sampled_from(["1", "500", "1e13", "0", "x"]), "--seed": _SEED,
              "--config": _CONFIG_FLAGS["--config"], "--e": _CONFIG_FLAGS["--e"]},
    "demon-demo": {"--rho": _FLOAT, "--n": _COUNT, "--seed": _SEED},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    argv = [command]
    required = [flag for flag in ("--n", "--pairs", "--method") if flag in flags]
    for flag in required + draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)):
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_any_documented_argv_ends_in_a_documented_exit_code(tmp_path, capsys, argv):
    files = {name: tmp_path / name for name in _FILES}
    bits = coin_flips(1, 1024)
    write_bits(files["bits"], BitString.from_array(bits))
    files["bad_bits"].write_bytes(b"#bits=+4\n0110\n")
    write_stream_ndjson(files["stream"], [PairStream(np.arange(1024.0), bits, bits[::-1])])
    files["bad_stream"].write_text('{"t":0.5,"a":0,"b":1}\n{"t":0.5,"a":1,"b":1}\n')
    files["config"].write_text('{"theta": 0.6}')
    files["bad_config"].write_bytes(BAD_CONFIG_TEXTS[0])
    files["dir"].mkdir(exist_ok=True)
    argv = [part.format(**files) for part in argv]
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"  # fresh for each example
    code = run_cli(*argv, "--out-dir", out)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    assert out.exists() == (code == 0)
    if code == 0:
        assert sorted(os.listdir(out)) == read_manifest(out)["outputs"]


def _readme_transcripts():
    """Each `$ qrngkit ...` line of the README with the output lines that follow it."""
    runs = []
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("$ qrngkit "):
            runs.append((shlex.split(line)[2:], []))
        elif line.startswith("```"):
            runs.append(None)
        elif runs and runs[-1] is not None:
            runs[-1][1].append(line)
    return [run for run in runs if run is not None]


def test_readme_transcripts_match_the_cli(tmp_path, monkeypatch, capsys):
    # in order, in one working directory: later commands read earlier out-dirs
    monkeypatch.chdir(tmp_path)
    transcripts = _readme_transcripts()
    assert len(transcripts) == 6
    for argv, expected in transcripts:
        assert run_cli(*argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == expected, argv


def test_readme_library_quick_start_runs(tmp_path):
    # the one ```python block, in a fresh interpreter on the source tree
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```")[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0].startswith("0.00220699")
