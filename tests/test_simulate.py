import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    chi2_against,
    coin_flips,
    dead_time_keep_loop,
    demon_kept_loop,
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


def test_stream_access():
    s = PairStream(np.array([0.5, 1.5]), np.array([1, 0], np.uint8), np.array([1, 1], np.uint8))
    assert len(s) == 2
    assert s.plus_string() == BitString("10")
    assert s.times_string() == BitString("11")
    assert s.xor_string() == BitString("01")
    assert s.xor_string(1) == BitString("0")  # a_0 ^ b_1 = 1 ^ 1
    with pytest.raises(UsageError):
        s.xor_string(2)


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
        tracemalloc.start()
        try:
            sampler(n, cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    s = sample_pairs(1_000, skewed_cfg, seed=8).records
    assert apply_double_counting(s, 0.0, seed=9) == s


def test_double_counting_certain_swap_shifts_neighbours():
    cfg = QrngConfig(theta=0.0)
    s = sample_pairs(4_000, cfg, seed=10).records
    swapped = apply_double_counting(s, 1.0, seed=11)
    assert len(swapped) == len(s)
    assert np.array_equal(swapped.t, s.t)
    assert np.array_equal(swapped.a, s.a)
    assert np.array_equal(swapped.b[:-1], s.b[1:])  # originals, not cascaded
    assert swapped.b[-1] == s.b[-1]
    # with aligned contexts the XOR bits become neighbour parities
    z = swapped.a ^ swapped.b
    assert np.array_equal(z[:-1], s.a[:-1] ^ s.a[1:])


def test_double_counting_leaves_xor_bias_alone(aligned_cfg):
    s = sample_pairs(1_000_000, aligned_cfg, seed=12).records
    noisy = apply_double_counting(s, 0.1, seed=13)
    rate = (noisy.a ^ noisy.b).mean()
    assert abs(rate - 0.5) < 3 / (2 * math.sqrt(len(s)))


def test_double_counting_validates_probability(skewed_cfg):
    s = sample_pairs(10, skewed_cfg, seed=14).records
    with pytest.raises(UsageError):
        apply_double_counting(s, 1.5, seed=0)


# --- dead time ------------------------------------------------------------------------


def stream_at(times):
    n = len(times)
    return PairStream(np.array(times, dtype=float), np.zeros(n, np.uint8), np.zeros(n, np.uint8))


def test_dead_time_zero_is_identity():
    s = stream_at([0.0, 0.1, 0.2])
    assert dead_time_filter(s, 0.0) == s


def test_dead_time_basic_rule():
    s = stream_at([0.0, 0.5, 2.0])
    assert list(dead_time_filter(s, 1.0).t) == [0.0, 2.0]


def test_dead_time_compares_against_kept_record():
    # 0.6 is dropped, and 1.3 is then measured against 0.0, not against 0.6
    s = stream_at([0.0, 0.6, 1.3])
    assert list(dead_time_filter(s, 1.0).t) == [0.0, 1.3]


def test_dead_time_idempotent():
    cfg = QrngConfig(mean_pair_interval=1.0)
    s = sample_pairs(50_000, cfg, seed=15).records
    once = dead_time_filter(s, 0.5)
    assert dead_time_filter(once, 0.5) == once
    assert len(once) < len(s)


def test_dead_time_rejects_negative():
    with pytest.raises(UsageError):
        dead_time_filter(stream_at([0.0]), -1.0)


def random_stream(rng, n: int, dyadic: bool) -> PairStream:
    """n records with exponential gaps, or gaps on the 1/8 grid where ties are exact."""
    gaps = rng.integers(1, 12, n) / 8 if dyadic else rng.exponential(rng.uniform(0.05, 2.0), n)
    a, b = rng.integers(0, 2, (2, n), dtype=np.uint8)
    return PairStream(np.cumsum(gaps), a, b)


def assert_dead_time_matches_loop(s: PairStream, T_d: float):
    keep = dead_time_keep_loop(s.t, T_d)
    assert dead_time_filter(s, T_d) == PairStream(s.t[keep], s.a[keep], s.b[keep])


# 0.25, 0.5 and 1.5 put t[i] - last == T_d exactly on the dyadic grid
@pytest.mark.parametrize("T_d", [0.1, 0.3, 1.0, 3.0, math.inf, 0.25, 0.5, 1.5])
def test_dead_time_matches_the_per_record_loop(T_d):
    rng = np.random.default_rng(40)
    for trial in range(600):
        s = random_stream(rng, int(rng.integers(0, 40)), dyadic=trial % 2 == 1)
        assert_dead_time_matches_loop(s, T_d)
    assert_dead_time_matches_loop(random_stream(rng, 50_000, dyadic=False), T_d)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(1, 24).map(lambda g: g / 8), st.floats(1e-6, 4.0)),
             max_size=60),
    st.one_of(st.sampled_from([0.125, 0.25, 1.0, math.inf]), st.floats(0.0, 5.0)),
)
def test_dead_time_property(gaps, T_d):
    n = len(gaps)
    t = np.cumsum(np.asarray(gaps, dtype=float))
    assert_dead_time_matches_loop(
        PairStream(t, np.arange(n, dtype=np.uint8) & 1, np.zeros(n, np.uint8)), T_d
    )


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
    s = stream_at([0.0, 1.0])
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


def test_seeds_past_two_to_the_63_draw_apart():
    draws = {seed: tuple(_generator(seed, 0).random(4)) for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)}
    assert len(set(draws.values())) == len(draws)


def test_pipeline_rejects_unknown_mode(skewed_cfg):
    with pytest.raises(UsageError):
        run_pipeline(10, skewed_cfg, seed=0, mode="hybrid")
