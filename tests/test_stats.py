import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import coin_flips, traced_peak
from qrngkit import (
    BitString,
    DriftSpec,
    TestReport,
    QrngConfig,
    ResourceBudgetError,
    UsageError,
    borel_normality,
    chi2_uniformity,
    correlation_estimate,
    empirical_distribution,
    estimate_theta,
    sample_pairs,
    tv_distance,
    von_neumann,
    xor_distribution,
    xor_offset,
)
from qrngkit import stats
from qrngkit.stats import _chi2


def bs(arr):
    return BitString.from_array(np.asarray(arr, dtype=np.uint8))


# --- chi squared -------------------------------------------------------------------


def test_chi2_matches_closed_form_tails():
    # on 1 and 2 degrees of freedom the chi-squared tail is erfc(sqrt(x/2)) and exp(-x/2)
    stat, p = _chi2([10, 30], [0.5, 0.5])
    assert stat == 10.0
    assert p == pytest.approx(math.erfc(math.sqrt(5.0)), rel=1e-13)
    stat, p = _chi2([5, 10, 15], [1 / 3] * 3)
    assert stat == pytest.approx(5.0, rel=1e-14)
    assert p == pytest.approx(math.exp(-2.5), rel=1e-13)


@pytest.mark.parametrize("df", [1, 2, 3, 7, 14, 15, 31, 63, 127, 255])
def test_chi2_tail_matches_scipy_gammaincc(df):
    # scipy is a test-only oracle: the package computes the tail in closed form
    gammaincc = pytest.importorskip("scipy.special").gammaincc
    rng = np.random.default_rng(df)
    grid = np.concatenate([[0.0, 1e-300, 1e-12], rng.uniform(0, 4 * df + 50, 2000),
                           rng.exponential(df, 2000)])
    for stat in grid:
        p, oracle = stats._chi2_tail(df, float(stat)), float(gammaincc(df / 2, stat / 2))
        assert p <= 1.0
        if oracle > 1e-300:
            assert p == pytest.approx(oracle, rel=1e-12), stat
    assert stats._chi2_tail(df, 0.0) == 1.0
    # uncapped, the sum rounds over 1 at one of these for df >= 31 (stat 0.2508...)
    for tiny in [5e-324, *np.geomspace(1e-300, 1.0, 1000)]:
        assert stats._chi2_tail(df, float(tiny)) <= 1.0
    assert stats._chi2_tail(df, math.inf) == 0.0


@pytest.mark.parametrize("probs", [
    [0.5, 0.5, 0.0],  # one mass short of the counts
    [0.5, 0.5, 0.0, 0.0],  # a zero mass divides by zero
    [0.5, 0.5, -0.25, 0.25],
    [0.5, 0.5, math.nan, 0.0],
    [0.5, 0.5, math.inf, 0.0],
])
def test_chi2_refuses_masses_it_cannot_score(probs):
    with pytest.raises(UsageError, match="positive finite mass per count"):
        _chi2([10, 30, 0, 0], probs)


def test_chi2_guards():
    fair = bs(coin_flips(key=98, n=2000))
    with pytest.raises(UsageError):
        chi2_uniformity(fair, 0)
    with pytest.raises(UsageError):
        chi2_uniformity(fair, 9)
    with pytest.raises(UsageError):
        chi2_uniformity(BitString("01" * 99), 1)  # below 100 blocks per cell
    with pytest.raises(UsageError, match="p-value outside"):
        TestReport("chi2_uniformity", 0.0, 1.5, True, 400, {"k": 1})


@pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, 7.0, -0.01, math.inf])
def test_chi2_refuses_a_significance_level_outside_the_open_unit_interval(alpha):
    with pytest.raises(UsageError):
        chi2_uniformity(BitString("01" * 200), 1, alpha=alpha)


def test_chi2_perfectly_balanced_stream():
    r = chi2_uniformity(BitString("01" * 200), 1)
    assert r.statistic == 0.0
    assert r.p_value == 1.0
    assert r.passed
    assert r.sample_size == 400
    assert r.params == {"k": 1, "alpha": 0.01}


def test_chi2_rejects_a_constant_stream():
    r = chi2_uniformity(BitString("0" * 10_000), 1)
    assert not r.passed
    assert r.p_value < 1e-10


def test_chi2_relabel_invariance():
    z = bs(coin_flips(key=97, n=20_000))
    flipped = BitString.from_array(1 - z.to_array())
    for k in (1, 2, 3):
        assert chi2_uniformity(z, k).statistic == chi2_uniformity(flipped, k).statistic


def test_chi2_p_value_decreases_with_imbalance():
    mild = BitString("0" * 210 + "01" * 95)
    harsh = BitString("0" * 300 + "01" * 50)
    assert chi2_uniformity(harsh, 1).p_value < chi2_uniformity(mild, 1).p_value


def test_chi2_accepts_fair_coin_across_block_sizes():
    z = bs(coin_flips(key=99, n=1_000_000))
    for k in range(1, 6):
        r = chi2_uniformity(z, k)
        assert r.passed, f"k={k} p={r.p_value}"
        assert r.p_value > 0.001


def test_block_counts_over_slices_equal_one_whole_bincount(monkeypatch):
    monkeypatch.setattr(stats, "_CHUNK", 5)
    bits = coin_flips(key=17, n=8 * 16 + 7)
    for k in range(1, 9):
        for blocks in (0, 1, 4, 5, 6, 9, 10, 11, 16):  # about the slice boundaries at 5 and 10
            z = bits[: blocks * k + k - 1]  # and a partial block, which is dropped
            values = z[: blocks * k].reshape(blocks, k) @ (1 << np.arange(k - 1, -1, -1))
            whole = np.bincount(values, minlength=1 << k)
            got = stats._block_counts(bs(z), k)
            assert got.dtype == whole.dtype and np.array_equal(got, whole), (k, blocks)


def test_block_counts_hold_one_chunk_of_blocks():
    z = bs(coin_flips(key=98, n=999_999))

    def analyze():
        return [chi2_uniformity(z, k) for k in range(1, 6)] + borel_normality(z)

    reports, peak = traced_peak(analyze)
    assert all(r.passed for r in reports)
    # the int64 values of 2^16 blocks of 5 bits took 3.15 MB
    assert peak < 1_500_000, peak


def test_chi2_to_dict_round_trip():
    d = chi2_uniformity(BitString("01" * 200), 1).to_dict()
    assert d["test"] == "chi2_uniformity"
    assert d["passed"] is True
    assert d["params"]["k"] == 1


# --- finite-sample normality ----------------------------------------------------------


def test_borel_guards():
    with pytest.raises(UsageError):
        borel_normality(BitString("01" * 31))


def test_borel_report_shape():
    n = 1 << 20
    reports = borel_normality(bs(coin_flips(key=4096, n=n)))
    # log2(log2(2^20)) = log2(20) -> block sizes 1..4
    assert [r.params["k"] for r in reports] == [1, 2, 3, 4]
    bound = math.sqrt(20 / n)
    for r in reports:
        assert r.p_value is None
        assert r.params["bound"] == bound
        assert r.statistic < bound
        assert r.passed


def test_borel_constant_stream_fails():
    reports = borel_normality(BitString("0" * 1024))
    assert not reports[0].passed
    assert reports[0].statistic == 0.5


def test_borel_alternating_stream_fails_at_width_two():
    reports = borel_normality(BitString("01" * 512))
    by_k = {r.params["k"]: r for r in reports}
    assert by_k[1].passed
    assert by_k[1].statistic == 0.0
    # every width-2 block is "01", a point mass no bound can tolerate
    assert not by_k[2].passed
    assert by_k[2].statistic == 0.75


# --- correlation and disagreement rate ---------------------------------------------------


def test_correlation_identities():
    x = bs(coin_flips(key=96, n=5001))
    assert correlation_estimate(x, x) == 1.0
    assert correlation_estimate(x, BitString.from_array(1 - x.to_array())) == -1.0
    with pytest.raises(UsageError):
        correlation_estimate(x, BitString("01"))
    with pytest.raises(UsageError):
        correlation_estimate(BitString(""), BitString(""))


@given(st.integers(1, 400), st.integers(0, 2**32))
def test_correlation_counts_the_disagreements(n, seed):
    rng = np.random.default_rng(seed)
    x = bs(rng.integers(0, 2, n))
    y = bs(rng.integers(0, 2, n))
    d = np.count_nonzero(x.to_array() != y.to_array())
    assert correlation_estimate(x, y) == (n - 2 * d) / n


def test_quarter_pi_streams_are_uncorrelated():
    s = sample_pairs(1_000_000, QrngConfig(), seed=40).records
    corr = correlation_estimate(s.plus_string(), s.times_string())
    assert abs(corr) < 0.003


def test_disagreement_rate_tracks_the_angle():
    theta = math.pi / 8
    s = sample_pairs(1_000_000, QrngConfig(theta=theta), seed=41).records
    z = xor_offset(s.plus_string(), s.times_string(), 0)
    rate = z.count(1) / len(z)
    assert rate == pytest.approx(math.sin(theta) ** 2, abs=3 * 0.5 / 1000.0)


# --- angle estimation ---------------------------------------------------------------


def test_estimate_theta_exact_cases():
    est = estimate_theta(BitString("0" * 10_000), BitString("01" * 5_000))
    assert est.theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert est.stderr == 1.0 / (2.0 * 100.0)
    assert not est.at_boundary

    same = bs(coin_flips(key=94, n=10_000))
    est0 = estimate_theta(same, same)
    assert est0.theta == 0.0
    assert est0.at_boundary


def test_estimate_theta_guards():
    with pytest.raises(UsageError):
        estimate_theta(BitString("0" * 100), BitString("0" * 100))
    with pytest.raises(UsageError):
        estimate_theta(BitString("0" * 10_000), BitString("0" * 10_001))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_estimate_theta_consistency(seed):
    theta = 0.6
    flips = coin_flips(key=seed, n=1_000_000, p=math.sin(theta) ** 2)
    x = BitString("0" * 1_000_000)
    small = estimate_theta(BitString("0" * 10_000), bs(flips[:10_000]))
    large = estimate_theta(x, bs(flips))
    assert abs(large.theta - theta) < abs(small.theta - theta)
    assert abs(large.theta - theta) < 3 * large.stderr


def test_estimate_theta_to_dict():
    d = estimate_theta(BitString("0" * 10_000), BitString("0" * 10_000)).to_dict()
    assert d["theta"] == 0.0 and d["at_boundary"] is True


# --- behaviour of extraction under non-i.i.d. input -------------------------------------


def test_von_neumann_flags_alternating_bias_but_not_constant_bias():
    # A coin whose bias flips sign every draw defeats pairwise debiasing:
    # pairs straddle the flip, so 10 is more likely than 01. A constant
    # bias of the same size is removed perfectly. n chosen so 3 sigma of
    # the surviving output is ~0.003, far below the predicted 0.04 excess.
    n, delta = 1_000_000, 0.02
    u = np.random.Generator(np.random.Philox(key=202)).random(n)
    p = 0.5 + delta * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    drifting = bs((u < p).astype(np.uint8))
    constant = bs((u < 0.5 + delta).astype(np.uint8))

    out_d = von_neumann(drifting)
    m = len(out_d.bits)
    bias_d = out_d.bits.count(1) / m - 0.5
    expected = (0.52 * 0.52 - 0.48 * 0.48) / (0.52 * 0.52 + 0.48 * 0.48)
    assert bias_d > 3 * 1.0 / (2 * math.sqrt(m))
    assert bias_d == pytest.approx(expected / 2, abs=0.01)

    out_c = von_neumann(constant)
    bias_c = out_c.bits.count(1) / len(out_c.bits) - 0.5
    assert abs(bias_c) < 3 * 1.0 / (2 * math.sqrt(len(out_c.bits)))


def test_von_neumann_immune_to_stationary_efficiency_drift():
    # the drift modulates the marginal bias over time, but each pair of
    # consecutive draws still has exchangeable slots, so debiasing survives
    cfg = QrngConfig(
        theta=math.pi / 4,
        e0_plus=0.6,
        e1_plus=0.6,
        drift=DriftSpec(amplitudes=(0.1, 0.0, 0.0, 0.0), period=100.0),
        mean_pair_interval=1e-3,
    )
    s = sample_pairs(1_000_000, cfg, seed=77).records
    out = von_neumann(s.plus_string())
    m = len(out.bits)
    assert abs(out.bits.count(1) / m - 0.5) < 3 * 1.0 / (2 * math.sqrt(m))


def test_xor_suppresses_common_mode_drift():
    # both sides drift in phase quadrature; each single stream is visibly
    # biased while the combined stream stays balanced
    cfg = QrngConfig(
        theta=math.pi / 4,
        e0_plus=0.6,
        e1_plus=0.6,
        e0_times=0.6,
        e1_times=0.6,
        drift=DriftSpec(
            amplitudes=(0.15, 0.0, 0.15, 0.0),
            phases=(0.0, 0.0, math.pi / 2, 0.0),
            period=100.0,
        ),
        mean_pair_interval=1e-3,
    )
    s = sample_pairs(1_000_000, cfg, seed=13).records
    three_sigma = 3 * 0.5 / 1000.0
    bias_plus = s.plus_string().count(1) / 1_000_000 - 0.5
    bias_times = s.times_string().count(1) / 1_000_000 - 0.5
    bias_xor = (s.a ^ s.b).sum() / 1_000_000 - 0.5
    assert abs(bias_plus) > three_sigma
    assert abs(bias_times) > three_sigma
    assert abs(bias_xor) < min(abs(bias_plus), abs(bias_times))
    assert abs(bias_xor) < three_sigma


# --- empirical distributions -----------------------------------------------------------


def test_empirical_distribution_point_mass():
    d = empirical_distribution(np.array([0b10]), 2)
    assert d.probs[0b10] == 1.0
    assert d.probs[0b01] == 0.0


def test_empirical_distribution_counts():
    d = empirical_distribution(np.array([0, 1, 1]), 1)
    assert d.probs[0] == pytest.approx(1 / 3)
    assert d.probs[1] == pytest.approx(2 / 3)


def test_empirical_distribution_guards():
    with pytest.raises(UsageError):
        empirical_distribution(np.array([4]), 2)
    with pytest.raises(UsageError):
        empirical_distribution(np.array([-1]), 2)
    with pytest.raises(UsageError):
        empirical_distribution(np.zeros(0, dtype=np.int64), 3)
    with pytest.raises(UsageError):
        empirical_distribution(np.array([0]), 0)
    # samples are integer string values; a cast would truncate or coerce these
    for values in (np.array([0.7, 1.9]), np.array(["1", "0"]), np.array([True, False])):
        with pytest.raises(UsageError):
            empirical_distribution(values, 2)


@pytest.mark.parametrize("n", [23, 64])
def test_empirical_distribution_refuses_laws_past_the_dense_cap(n):
    # 2^23 float64 cells would take 64 MB; the refusal comes before any of it
    def refused():
        with pytest.raises(ResourceBudgetError):
            empirical_distribution(np.array([0, 1, 2]), n)

    _, peak = traced_peak(refused)
    assert peak < 1 << 20


def test_empirical_distribution_converges_to_exact_law(skewed_cfg):
    exact = xor_distribution(4, 1, skewed_cfg)
    rng = np.random.default_rng(93)
    values = rng.choice(16, size=1_000_000, p=exact.probs)
    emp = empirical_distribution(values, 4)
    assert tv_distance(emp, exact) < 0.005


def test_offset_xor_output_nearly_uniform_from_simulation(skewed_cfg):
    # detector asymmetry skews both raw streams; one-step offset XOR of the
    # simulated records hides it below the chi-squared radar
    s = sample_pairs(400_000, skewed_cfg, seed=42).records
    z = xor_offset(s.plus_string(), s.times_string(), 1)
    r = chi2_uniformity(z, 2)
    assert r.passed
