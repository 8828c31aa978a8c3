import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    arrival_times_forward,
    pipeline_cases,
    chi2_against,
    coin_flips,
    traced_peak,
    NON_BIT_ARRAYS,
    dead_time_keep_loop,
    demon_kept_loop,
    double_count_loop,
    random_configs,
    run_pipeline_whole,
    sample_pairs_physical_stacked,
    sample_pairs_stacked,
)
from qrngkit import (
    BitString,
    DriftSpec,
    PairStream,
    QrngConfig,
    SimulationResult,
    UsageError,
    apply_double_counting,
    dead_time_filter,
    demon_filter,
    demon_modulus,
    pair_prob_table,
    run_pipeline,
    sample_pairs,
    sample_pairs_physical,
)
from qrngkit import simulate
from qrngkit.simulate import _CHUNK, _demon_kept_indices, _generator


def cells(stream):
    return np.bincount(2 * stream.a.astype(int) + stream.b, minlength=4)


# --- the stream container ---------------------------------------------------


def test_stream_validation():
    t = np.array([0.0, 1.0, 2.0])
    z = np.zeros(3, dtype=np.uint8)
    PairStream(t, z, z)
    with pytest.raises(UsageError):
        PairStream(np.array([0.0, 2.0, 1.0]), z, z)
    with pytest.raises(UsageError):
        PairStream(np.array([0.0, 1.0, 1.0]), z, z)
    with pytest.raises(UsageError):
        PairStream(np.array([-1.0, 0.0, 1.0]), z, z)
    with pytest.raises(UsageError):
        PairStream(t, z, np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(UsageError):
        PairStream(t, z[:2], z)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(UsageError, match="finite"):
            PairStream(np.array([0.0, 1.0, bad]), z, z)


@pytest.mark.parametrize("values", NON_BIT_ARRAYS)
@pytest.mark.parametrize("column", ["a", "b"])
def test_stream_refuses_outcomes_a_cast_would_coerce(values, column):
    bits = np.zeros(len(values), np.uint8)
    cols = {"a": bits, "b": bits, column: np.array(values)}
    with pytest.raises(UsageError, match="outcome columns must be"):
        PairStream(np.arange(float(len(values))), cols["a"], cols["b"])


def test_stream_checks_its_order_without_a_per_record_float():
    n = 1_000_000
    t, bits = np.arange(float(n)), np.zeros(n, np.uint8)
    _, peak = traced_peak(PairStream, t, bits, bits)
    # a float array of the steps between times took 8 MB; the checks' bool masks take 1 MB each
    assert peak < 2.5e6, peak


def test_stream_checks_uint8_outcomes_without_a_mask():
    n = 1_000_000
    t, bits = np.arange(float(n)), np.ones(n, np.uint8)
    _, peak = traced_peak(PairStream, t, bits, bits)
    # (bits == 0) | (bits == 1) took a 1 MB mask more than the order check's one at a time
    assert peak < 1.5e6, peak


def test_stream_access():
    s = PairStream(np.array([0.5, 1.5]), np.array([1, 0], np.uint8), np.array([1, 1], np.uint8))
    assert len(s) == 2
    assert s.plus_string() == BitString("10")
    assert s.times_string() == BitString("11")
    assert repr(s) == "PairStream(n=2)"


# --- ideal sampling ------------------------------------------------------------


def test_aligned_contexts_always_agree():
    cfg = QrngConfig(theta=0.0)
    s = sample_pairs(10_000, cfg, seed=1).records
    assert np.array_equal(s.a, s.b)


def test_symmetric_point_frequencies(aligned_cfg):
    s = sample_pairs(1_000_000, aligned_cfg, seed=2).records
    freq = cells(s) / len(s)
    assert np.abs(freq - 0.25).max() < 0.002  # 3 sigma of a fair four-way split


def test_skewed_frequencies_match_exact_law(skewed_cfg):
    s = sample_pairs(1_000_000, skewed_cfg, seed=3).records
    p = chi2_against(cells(s), pair_prob_table(skewed_cfg).ravel())
    assert p > 0.001


def test_sampling_is_deterministic(skewed_cfg):
    r1 = sample_pairs(5_000, skewed_cfg, seed=11)
    r2 = sample_pairs(5_000, skewed_cfg, seed=11)
    r3 = sample_pairs(5_000, skewed_cfg, seed=12)
    assert r1.records == r2.records
    assert r1.records != r3.records


def test_arrival_times_follow_configured_rate():
    cfg = QrngConfig(mean_pair_interval=0.25)
    s = sample_pairs(200_000, cfg, seed=4).records
    gaps = np.diff(s.t)
    assert gaps.min() > 0
    assert gaps.mean() == pytest.approx(0.25, rel=0.02)
    for sampler in (sample_pairs, sample_pairs_physical):
        with pytest.raises(UsageError, match="pair count must be positive"):
            sampler(0, cfg, seed=4)


def test_drift_shows_up_as_oscillating_bias():
    # windowed zero-frequency of the plus string must track the driving sinusoid
    period = 100.0
    cfg = QrngConfig(
        theta=math.pi / 4,
        e0_plus=0.6,
        e1_plus=0.6,
        drift=DriftSpec(amplitudes=(0.1, 0.0, 0.0, 0.0), period=period),
        mean_pair_interval=1e-3,
    )
    s = sample_pairs(1_000_000, cfg, seed=77).records
    window = 10_000
    nwin = len(s) // window
    zeros = 1.0 - s.a[: nwin * window].reshape(nwin, window).mean(axis=1)
    mid = s.t[: nwin * window].reshape(nwin, window).mean(axis=1)
    drive = np.sin(2 * math.pi * mid / period)
    corr = np.corrcoef(zeros - zeros.mean(), drive)[0, 1]
    assert corr > 0.5


@st.composite
def sampler_configs(draw):
    """Any angle (the edges included), efficiencies, and no drift or drift with
    equal or distinct phases."""
    theta = draw(st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2)))
    eff = [draw(st.floats(0.05, 1.0)) for _ in range(4)]
    phases = draw(st.one_of(
        st.none(),
        st.floats(0.0, 7.0).map(lambda p: (p,) * 4),
        st.tuples(*[st.sampled_from([0.0, 0.5, 2.5])] * 4),
    ))
    drift = None
    if phases is not None:
        amps = tuple(draw(st.floats(0.0, 0.99)) * min(e, 1.0 - e) for e in eff)
        drift = DriftSpec(amps, draw(st.floats(1.0, 1e5)), phases)
    return QrngConfig(theta, *eff, drift=drift)


@settings(max_examples=40, deadline=None)
@given(sampler_configs(), st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]),
       st.integers(0, 2**64 - 1))
def test_samplers_equal_the_stacked_oracles(cfg, n, seed):
    assert sample_pairs(n, cfg, seed).records == sample_pairs_stacked(n, cfg, seed)
    assert sample_pairs_physical(n, cfg, seed).records == sample_pairs_physical_stacked(n, cfg, seed)


@pytest.mark.parametrize("drift", [None, DriftSpec((0.02,) * 4, 1000.0)])
def test_sampler_holds_no_per_pair_table(skewed_cfg, drift):
    cfg = QrngConfig(skewed_cfg.theta, *skewed_cfg.efficiencies, drift=drift)
    if drift is None:
        assert all(type(e) is float for e in cfg.efficiency_columns(np.arange(3.0)))
    n = 2**18
    for sampler in (sample_pairs, sample_pairs_physical):
        _, peak = traced_peak(sampler, n, cfg, 1)
        # the result's t, a and b take 10 B per pair; four whole efficiency columns alone take 32
        assert peak / n < 48, sampler.__name__


# --- physical sampling ------------------------------------------------------------


def test_physical_mode_keeps_everything_at_unit_efficiency():
    cfg = QrngConfig(theta=math.pi / 8)
    r = sample_pairs_physical(100_000, cfg, seed=5)
    assert r.dropped_undetected == 0
    assert len(r.records) == 100_000
    # raw singlet statistics: plus outcomes fair, disagreement rate sin^2
    disagree = (r.records.a != r.records.b).mean()
    assert disagree == pytest.approx(math.sin(math.pi / 8) ** 2, abs=0.004)
    assert r.records.a.mean() == pytest.approx(0.5, abs=0.005)


def test_physical_mode_drop_rate():
    cfg = QrngConfig(theta=math.pi / 4, e0_plus=0.5, e1_plus=0.5)
    r = sample_pairs_physical(1_000_000, cfg, seed=6)
    kept = len(r.records) / r.generated
    assert kept == pytest.approx(0.5, abs=0.0015)  # one Bernoulli(1/2) gate


def test_physical_mode_conditioned_law_matches_ideal(skewed_cfg):
    r = sample_pairs_physical(1_000_000, skewed_cfg, seed=7)
    p = chi2_against(cells(r.records), pair_prob_table(skewed_cfg).ravel())
    assert p > 0.001
    assert len(r.records) + r.dropped_undetected == r.generated


# --- double counting ----------------------------------------------------------------


def test_double_counting_zero_probability_is_identity(skewed_cfg):
    b = sample_pairs(1_000, skewed_cfg, seed=8).records.b
    assert apply_double_counting(b, 0.0, seed=9) is b


def test_double_counting_certain_swap_shifts_neighbours():
    cfg = QrngConfig(theta=0.0)
    s = sample_pairs(4_000, cfg, seed=10).records
    before = s.b.copy()
    b = apply_double_counting(s.b, 1.0, seed=11)
    assert np.array_equal(s.b, before)  # the input column is left alone
    assert b.dtype == np.uint8 and len(b) == len(s)
    assert np.array_equal(b[:-1], s.b[1:])  # originals, not cascaded
    assert b[-1] == s.b[-1]
    # with aligned contexts the XOR bits become neighbour parities
    z = s.a ^ b
    assert np.array_equal(z[:-1], s.a[:-1] ^ s.a[1:])


@pytest.mark.parametrize("n", [0, 1, 2, 1_000])
@pytest.mark.parametrize("p_dc", [0.0, 0.05, 0.5, 1.0])
def test_double_counting_matches_the_per_record_loop(n, p_dc):
    b = coin_flips(44, n)
    for seed in (0, 7, 2**64 - 1):
        assert np.array_equal(apply_double_counting(b, p_dc, seed), double_count_loop(b, p_dc, seed))


def test_double_counting_leaves_xor_bias_alone(aligned_cfg):
    s = sample_pairs(1_000_000, aligned_cfg, seed=12).records
    rate = (s.a ^ apply_double_counting(s.b, 0.1, seed=13)).mean()
    assert abs(rate - 0.5) < 3 / (2 * math.sqrt(len(s)))


def test_double_counting_validates_probability(skewed_cfg):
    b = sample_pairs(10, skewed_cfg, seed=14).records.b
    with pytest.raises(UsageError):
        apply_double_counting(b, 1.5, seed=0)


# --- dead time ------------------------------------------------------------------------


def test_dead_time_zero_is_identity():
    assert np.array_equal(dead_time_filter(np.array([0.0, 0.1, 0.2]), 0.0), [0, 1, 2])


def test_dead_time_basic_rule():
    assert np.array_equal(dead_time_filter(np.array([0.0, 0.5, 2.0]), 1.0), [0, 2])


def test_dead_time_compares_against_kept_record():
    # 0.6 is dropped, and 1.3 is then measured against 0.0, not against 0.6
    assert np.array_equal(dead_time_filter(np.array([0.0, 0.6, 1.3]), 1.0), [0, 2])


def test_dead_time_idempotent():
    cfg = QrngConfig(mean_pair_interval=1.0)
    t = sample_pairs(50_000, cfg, seed=15).records.t
    once = t[dead_time_filter(t, 0.5)]
    assert np.array_equal(dead_time_filter(once, 0.5), np.arange(len(once)))
    assert len(once) < len(t)


def test_dead_time_rejects_negative():
    with pytest.raises(UsageError):
        dead_time_filter(np.array([0.0]), -1.0)
    # every comparison with NaN is False; unrefused, it kept only the first record
    with pytest.raises(UsageError):
        dead_time_filter(np.array([0.0, 1.0, 2.0]), math.nan)


def random_times(rng, n: int, dyadic: bool) -> np.ndarray:
    """n times with exponential gaps, or gaps on the 1/8 grid where ties are exact."""
    gaps = rng.integers(1, 12, n) / 8 if dyadic else rng.exponential(rng.uniform(0.05, 2.0), n)
    return np.cumsum(gaps)


def assert_dead_time_matches_loop(t: np.ndarray, T_d: float):
    kept = dead_time_filter(t, T_d)
    assert kept.dtype == np.intp
    assert np.array_equal(kept, np.flatnonzero(dead_time_keep_loop(t, T_d)))


# 0.25, 0.5 and 1.5 put t[i] - last == T_d exactly on the dyadic grid
@pytest.mark.parametrize("T_d", [0.1, 0.3, 1.0, 3.0, math.inf, 0.25, 0.5, 1.5])
def test_dead_time_matches_the_per_record_loop(T_d):
    rng = np.random.default_rng(40)
    for trial in range(600):
        assert_dead_time_matches_loop(
            random_times(rng, int(rng.integers(0, 40)), dyadic=trial % 2 == 1), T_d
        )
    assert_dead_time_matches_loop(random_times(rng, 50_000, dyadic=False), T_d)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(1, 24).map(lambda g: g / 8), st.floats(1e-6, 4.0)),
             max_size=60),
    st.one_of(st.sampled_from([0.125, 0.25, 1.0, math.inf]), st.floats(0.0, 5.0)),
)
def test_dead_time_property(gaps, T_d):
    assert_dead_time_matches_loop(np.cumsum(np.asarray(gaps, dtype=float)), T_d)


# --- demon -----------------------------------------------------------------------------


def test_demon_modulus():
    # ceil of the exact quotient, immune to the reciprocal landing one ulp high
    assert [demon_modulus(r) for r in (0.5, 2 / 3, 0.7, 0.75, 0.8, 0.9)] == [2, 3, 4, 4, 5, 10]
    assert demon_modulus(0.05) == 2  # any positive budget forces at least one slot
    with pytest.raises(UsageError):
        demon_modulus(0.0)
    with pytest.raises(UsageError):
        demon_modulus(1.0)


def test_demon_examples():
    assert demon_filter(BitString("00"), 0.5) == BitString("00")
    assert demon_filter(BitString("01"), 0.5) == BitString("0")
    # truncation: the forced slot never finds its zero, output just ends
    assert demon_filter(BitString("11"), 0.5) == BitString("1")


def test_demon_spacing_for_smaller_budget():
    # rho=0.7 -> k=4: output position 4 is forced, eating the run of ones
    out = demon_filter(BitString("111111110000"), 0.7)
    assert out == BitString("1110000")


def test_demon_on_fair_coins():
    rng = np.random.Generator(np.random.Philox(key=21))
    src = BitString.from_array((rng.random(1_000_000) < 0.5).astype(np.uint8))
    out = demon_filter(src, 0.5)
    arr = out.to_array()
    assert not arr[1::2].any()  # the planted all-zero subsequence
    rejected = 1 - len(out) / len(src)
    assert 0.30 < rejected < 0.37
    assert rejected < 0.5  # stays inside the efficiency budget


def test_demon_is_deterministic_and_validates():
    bits = BitString("10110100")
    with pytest.raises(UsageError):
        demon_filter(bits, 1.0)
    with pytest.raises(UsageError):
        demon_filter(bits, 0.0)


DEMON_BUDGETS = [0.05, 0.3, 0.5, 2 / 3, 0.8, 0.95]


@pytest.mark.parametrize("rho", DEMON_BUDGETS)
def test_demon_matches_the_per_bit_loop(rho):
    rng = np.random.default_rng(41)
    for trial in range(600):
        p = (0.0, 1.0, rng.uniform())[trial % 3]  # all zeros, all ones, mixed
        bits = (rng.random(int(rng.integers(0, 60))) < p).astype(np.uint8)
        kept = _demon_kept_indices(bits, rho)
        assert kept.dtype == np.intp
        assert np.array_equal(kept, demon_kept_loop(bits, rho))
    bits = (rng.random(50_000) < 0.5).astype(np.uint8)
    expected = BitString.from_array(bits[demon_kept_loop(bits, rho)])
    assert demon_filter(BitString.from_array(bits), rho) == expected


@pytest.mark.parametrize("p", [0.9, 0.99, 1.0])
@pytest.mark.parametrize("rho", [0.3, 0.5, 0.95])
def test_demon_matches_the_per_bit_loop_over_long_runs(p, rho):
    bits = coin_flips(42, 200_000, p)  # runs of ones well past k
    assert np.array_equal(_demon_kept_indices(bits, rho), demon_kept_loop(bits, rho))


@pytest.mark.parametrize("n", [0, 1, 999, 1000, 1001, 5000])
@pytest.mark.parametrize("p", [0.0, 0.5, 0.999, 1.0])
def test_demon_matches_the_per_bit_loop_around_a_wide_slot(n, p):
    # rho = 0.999 forces every 1000th slot, so the shorter inputs never reach one
    assert demon_modulus(0.999) == 1000
    bits = coin_flips(43, n, p)
    assert np.array_equal(_demon_kept_indices(bits, 0.999), demon_kept_loop(bits, 0.999))


def test_demon_input_may_end_inside_a_dropped_run():
    bits = np.r_[np.zeros(5), np.ones(50)].astype(np.uint8)
    kept = _demon_kept_indices(bits, 0.7)  # k = 4: the one at input 7 meets slot 8
    assert np.array_equal(kept, demon_kept_loop(bits, 0.7))
    assert np.array_equal(kept, np.arange(7))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=80),
       st.one_of(st.sampled_from(DEMON_BUDGETS), st.floats(0.01, 0.999)))
def test_demon_property(bits, rho):
    bits = np.asarray(bits, dtype=np.uint8)
    assert np.array_equal(_demon_kept_indices(bits, rho), demon_kept_loop(bits, rho))


# --- pipeline ---------------------------------------------------------------------------


def test_result_counters_must_reconcile():
    s = PairStream(np.array([0.0, 1.0]), np.zeros(2, np.uint8), np.zeros(2, np.uint8))
    with pytest.raises(UsageError):
        SimulationResult(s, generated=5, dropped_undetected=1, dropped_dead_time=0,
                         dropped_demon=0, seed=0)


def test_pipeline_plain_equals_sampler(skewed_cfg):
    assert run_pipeline(2_000, skewed_cfg, seed=30).records == sample_pairs(
        2_000, skewed_cfg, seed=30
    ).records


def test_pipeline_applies_all_stages():
    cfg = QrngConfig(
        theta=math.pi / 4,
        dead_time_Td=0.3,
        double_count_prob=0.05,
        demon_rho=0.5,
        mean_pair_interval=1.0,
    )
    r = run_pipeline(20_000, cfg, seed=31, mode="physical")
    assert r.generated == 20_000
    assert r.dropped_dead_time > 0
    assert r.dropped_demon > 0
    assert len(r.records) + r.dropped_undetected + r.dropped_dead_time + r.dropped_demon == 20_000
    # the demon's signature survives on the stream's XOR bits
    z = (r.records.a ^ r.records.b)
    assert not z[1::2].any()
    gaps = np.diff(r.records.t)
    assert gaps.min() > 0.3


def pipeline_from_oracles(n, cfg, seed, mode):
    """The stream and drop counts of run_pipeline rebuilt from the per-stage oracles."""
    sampler = sample_pairs_stacked if mode == "ideal" else sample_pairs_physical_stacked
    s = sampler(n, cfg, seed)
    b = double_count_loop(s.b, cfg.double_count_prob, seed)
    keep = dead_time_keep_loop(s.t, cfg.dead_time_Td)
    t, a, b = s.t[keep], s.a[keep], b[keep]
    kept = demon_kept_loop(a ^ b, cfg.demon_rho)
    stream = PairStream(t[kept], a[kept], b[kept])
    return stream, (n - len(s), len(s) - len(t), len(t) - kept.size)


def imperfect_configs(count, seed):
    """random_configs with drift, double counting, dead time and the demon all on."""
    rng = np.random.default_rng(seed)
    for cfg in random_configs(count, seed):
        amps = tuple(0.5 * min(e, 1.0 - e) for e in cfg.efficiencies)
        yield dataclasses.replace(
            cfg,
            drift=DriftSpec(amps, float(rng.uniform(50.0, 5000.0))),
            double_count_prob=float(rng.uniform(0.01, 0.5)),
            dead_time_Td=float(rng.uniform(0.05, 1.5)),
            demon_rho=float(rng.uniform(0.05, 0.95)),
        )


@pytest.mark.parametrize("mode", ["ideal", "physical"])
@pytest.mark.parametrize("cfg_index", range(3))
def test_pipeline_equals_the_composed_oracles(mode, cfg_index):
    cfg = list(imperfect_configs(3, 45))[cfg_index]
    seed = 46 + cfg_index
    n = _CHUNK + 123
    r = run_pipeline(n, cfg, seed, mode=mode)
    stream, drops = pipeline_from_oracles(n, cfg, seed, mode)
    assert r.records == stream
    assert (r.dropped_undetected, r.dropped_dead_time, r.dropped_demon) == drops
    assert min(drops[1:]) > 0 and (mode == "ideal") == (drops[0] == 0)


def test_pipeline_builds_one_stream_from_its_chunks(monkeypatch, skewed_cfg):
    cfg = dataclasses.replace(skewed_cfg, double_count_prob=0.05, dead_time_Td=0.3, demon_rho=0.5)
    expected = run_pipeline(20_000, cfg, seed=34)
    monkeypatch.setattr(simulate, "_CHUNK", 7_000)
    calls, built = [], []

    def recorded(name):
        stage = getattr(simulate, name)

        def call(*args):
            calls.append(name)
            return stage(*args)

        return call

    for name in ("_double_count_chunk", "_dead_time_chunk", "_demon_chunk"):
        monkeypatch.setattr(simulate, name, recorded(name))

    class Spy(PairStream):
        def __init__(self, *columns):
            built.append(columns)
            super().__init__(*columns)

    monkeypatch.setattr(simulate, "PairStream", Spy)
    r = run_pipeline(20_000, cfg, seed=34)
    # three chunks of 7,000 pairs: each stage runs once per chunk, and one stream is built
    assert sorted(calls) == sorted(["_double_count_chunk", "_dead_time_chunk", "_demon_chunk"] * 3)
    assert len(built) == 1
    assert r.records == expected.records and r.counters() == expected.counters()


@pytest.mark.parametrize("p_dc", [0.0, 0.05])
def test_pipeline_runs_no_stage_that_is_off(monkeypatch, skewed_cfg, p_dc):
    cfg = dataclasses.replace(skewed_cfg, double_count_prob=p_dc)

    def no_call(*args):
        raise AssertionError("a stage that is off ran")

    monkeypatch.setattr(simulate, "_dead_time_chunk", no_call)
    monkeypatch.setattr(simulate, "_demon_chunk", no_call)
    if p_dc == 0.0:
        monkeypatch.setattr(simulate, "_double_counted", no_call)
    r = run_pipeline(5_000, cfg, seed=35)
    sampled = sample_pairs(5_000, cfg, seed=35).records
    assert np.array_equal(r.records.t, sampled.t) and np.array_equal(r.records.a, sampled.a)
    assert np.array_equal(r.records.b, sampled.b) == (p_dc == 0.0)
    assert r.dropped_dead_time == r.dropped_demon == 0


@settings(max_examples=300, deadline=None)
@given(pipeline_cases(), st.sampled_from([1, 2, 3, 7, 64]))
def test_chunked_stages_equal_the_whole_column_oracle(case, chunk):
    mode, cfg, n, seed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_CHUNK", chunk)
        r = run_pipeline(n, cfg, seed, mode=mode)
    stream, drops = run_pipeline_whole(n, cfg, seed, mode)
    assert r.records == stream
    assert (r.dropped_undetected, r.dropped_dead_time, r.dropped_demon) == drops


def test_pipeline_deterministic(skewed_cfg):
    cfg = QrngConfig(**{**skewed_cfg.to_dict(), "double_count_prob": 0.1, "demon_rho": 0.5})
    r1 = run_pipeline(5_000, cfg, seed=32)
    r2 = run_pipeline(5_000, cfg, seed=32)
    assert r1.records == r2.records
    assert r1.counters() == r2.counters()


def test_double_counting_key_is_not_the_next_seeds_sampling_key(skewed_cfg):
    # Sampling keeps the key of the seed alone, so streams without double
    # counting are unchanged; double counting draws from stage 1 of the same
    # seed, not from seed + 1, whose sampling (and the next sweep point) it
    # would otherwise repeat.
    seed, n, p = 33, 4_000, 0.5
    cfg = QrngConfig(**{**skewed_cfg.to_dict(), "double_count_prob": p})
    sampled = sample_pairs(n, cfg, seed).records
    gaps = np.random.Generator(np.random.Philox(key=seed)).exponential(cfg.mean_pair_interval, n)
    assert np.array_equal(sampled.t, np.cumsum(gaps))

    def with_swaps(key):
        swap = np.random.Generator(np.random.Philox(key=key)).random(n - 1) < p
        b = sampled.b.copy()
        b[:-1][swap] = sampled.b[1:][swap]
        return b

    got = run_pipeline(n, cfg, seed).records.b
    assert np.array_equal(got, with_swaps([seed, 1]))
    assert not np.array_equal(got, with_swaps(seed + 1))
    for bad in (-1, 1 << 64):
        with pytest.raises(UsageError):
            sample_pairs(10, cfg, bad)


@pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1])
def test_every_seed_keys_its_generator_exactly(seed):
    # a list key goes through float64 above 2**63, where 2**64 - 1 became the
    # key of seed 0 and 2**63 + 1 that of 2**63 (draw version 3 keys uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stage in (0, 1):
            key = _generator(seed, stage).bit_generator.state["state"]["key"]
            assert [int(k) for k in key] == [seed, stage]


@pytest.mark.parametrize("seed", [1.5, 1.0, True, False, "1", None])
def test_seeds_that_are_not_integers_are_refused(skewed_cfg, seed):
    # a uint64 cast would draw seed 1's stream for 1.5 or True and record the value as given
    with pytest.raises(UsageError, match="seed must be an integer"):
        sample_pairs(1000, skewed_cfg, seed)
    with pytest.raises(UsageError, match="seed must be an integer"):
        apply_double_counting(np.zeros(4, dtype=np.uint8), 0.5, seed)
    assert sample_pairs(10, skewed_cfg, np.uint64(1)).records == sample_pairs(10, skewed_cfg, 1).records


@pytest.mark.parametrize("interval,seed", [(1e-322, 1), (1e-322, 2), (1e-323, 3), (5e-324, 1), (1e-321, 3)])
def test_tied_arrival_times_are_nudged_one_ulp_apart(interval, seed):
    # gaps this short round away in the cumsum, so tied times reach the nudge
    cfg = QrngConfig(mean_pair_interval=interval)
    raw = np.cumsum(_generator(seed, 0).exponential(interval, 200_000))
    assert (np.diff(raw) <= 0).any()
    got = sample_pairs(200_000, cfg, seed).records.t
    assert np.array_equal(got, arrival_times_forward(200_000, cfg, seed))


def test_a_million_tied_arrival_times_strictly_increase():
    # at the smallest subnormal interval nearly every gap rounds away, so ties cascade
    t = sample_pairs(1_000_000, QrngConfig(mean_pair_interval=5e-324), seed=1).records.t
    assert len(t) == 1_000_000 and (np.diff(t) > 0).all()


def test_seeds_past_two_to_the_63_draw_apart():
    draws = {seed: tuple(_generator(seed, 0).random(4)) for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)}
    assert len(set(draws.values())) == len(draws)


def test_pipeline_rejects_unknown_mode(skewed_cfg):
    with pytest.raises(UsageError):
        run_pipeline(10, skewed_cfg, seed=0, mode="hybrid")
