import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import BAD_CONFIG_TEXTS, coin_flips
from qrngkit import (
    BitString,
    PairStream,
    QrngConfig,
    UsageError,
    demon_filter,
    read_bits,
    read_stream_ndjson,
    write_bits,
    write_stream_ndjson,
    xor_distribution,
)
from qrngkit.cli import GRID_CAP, main, parse_angle, parse_count


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
    for bad in ("0", "-3", "2.5", "many", "1e400", "inf", "-inf", "nan"):
        with pytest.raises(UsageError):
            parse_count(bad)


def test_overflowing_count_is_a_usage_error(tmp_path):
    assert run_cli("simulate", "--pairs", "1e400", "--out-dir", tmp_path) == 2
    assert not (tmp_path / "stream.ndjson").exists()


@pytest.mark.parametrize("pairs,interval", [(2, "inf"), (10, "1e308")])
def test_unbounded_mean_interval_is_a_usage_error(tmp_path, capsys, pairs, interval):
    # an infinite mean, or one whose arrival times overflow, names the field it came from
    assert run_cli("simulate", "--pairs", pairs, "--mean-interval", interval,
                   "--out-dir", tmp_path) == 2
    assert "mean_pair_interval" in capsys.readouterr().err


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


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, qrngkit.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


@pytest.mark.parametrize("method", ["xor", "vn", "peres", "pair-vn"])
def test_extract_from_an_empty_stream_writes_no_bits(tmp_path, method):
    empty = np.zeros(0, dtype=np.uint8)
    write_stream_ndjson(tmp_path / "empty.ndjson", PairStream(np.zeros(0), empty, empty))
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


def test_analyze_names_an_empty_stream(tmp_path, capsys):
    empty = np.zeros(0, dtype=np.uint8)
    write_stream_ndjson(tmp_path / "empty.ndjson", PairStream(np.zeros(0), empty, empty))
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


def test_sweep_checks_the_last_point_seed_before_any_draw(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a point was drawn before the seed range was checked")

    monkeypatch.setattr("qrngkit.cli.run_pipeline", must_not_run)
    # point 8 would draw with seed 2**64, one past the last valid seed
    assert run_cli("sweep", "--grid", "0:pi/2:9", "--empirical", 1000, "--seed", 2**64 - 8,
                   "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "9 points" in err
    assert not (tmp_path / "out").exists()


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


# --- shared flag handling ------------------------------------------------------------


def test_bad_angle_and_efficiency_flags(tmp_path):
    assert run_cli("simulate", "--pairs", 10, "--theta", "bogus", "--out-dir", tmp_path) == 2
    assert run_cli("simulate", "--pairs", 10, "--e", "0.5,0.5", "--out-dir", tmp_path) == 2
    assert run_cli("simulate", "--pairs", "0", "--out-dir", tmp_path) == 2


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
    ("sweep --grid 0:pi/2:3 --empirical 1e13", 3),
    ("sweep --grid 0:pi/2:9 --empirical 1000 --seed %d" % (2**64 - 8), 2),
    ("sweep --grid 0:1:%d" % (GRID_CAP + 1), 3),
    # past int()'s 4300-digit limit; a short id keeps the test name readable
    pytest.param("sweep --grid 0:1:" + "9" * 5000, 3, id="sweep-grid-5000-digit-count-3"),
    *[("analyze --stream {stream} --alpha %s" % alpha, 2) for alpha in ("nan", "0", "1", "7")],
    # 8 bits hold no chi2 block size; the test is refused, not skipped
    ("analyze --in {bits} --tests chi2", 2),
    ("analyze --in {bits} --tests chi2 --alpha 0.5", 2),
    *[(argv, 2) for argv in CONFLICTING_SOURCES],
    ("demon-demo --seed -1", 2),
    ("demon-demo --n 1e13", 3),
    *[("exact --n 2 --config {cfg%d}" % i, 4) for i in range(len(BAD_CONFIG_TEXTS))],
]


def _hostile_files(tmp_path):
    bits = BitString("00011011")
    files = {"bits": tmp_path / "in.bits", "stream": tmp_path / "in.ndjson"}
    write_bits(files["bits"], bits)
    write_stream_ndjson(files["stream"], PairStream(np.arange(8.0), bits.to_array(), bits.to_array()))
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
    write_stream_ndjson(files["stream"], PairStream(np.arange(1024.0), bits, bits[::-1]))
    files["bad_stream"].write_text('{"t":0.5,"a":0,"b":1}\n{"t":0.5,"a":1,"b":1}\n')
    files["config"].write_text('{"theta": 0.6}')
    files["bad_config"].write_bytes(BAD_CONFIG_TEXTS[0])
    files["dir"].mkdir(exist_ok=True)
    argv = [part.format(**files) for part in argv]
    assert run_cli(*argv, "--out-dir", tmp_path / "out") in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
