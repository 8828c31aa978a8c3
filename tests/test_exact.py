import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qrngkit import (
    BiasParams,
    BitString,
    ExactDistribution,
    QrngConfig,
    ResourceBudgetError,
    UsageError,
    joint_distribution,
    l1_distance,
    marginal_bias,
    pair_prob,
    pair_prob_table,
    taylor_gap,
    tv_distance,
    xor_bias,
    xor_distribution,
    xor_distribution_closed_form,
    xor_distribution_transfer,
    xor_expectation_classical,
    xor_expectation_quantum,
)


from helpers import random_configs


# --- the distribution container ---------------------------------------------


def test_distribution_must_normalize():
    with pytest.raises(UsageError):
        ExactDistribution(2, np.array([0.5, 0.5, 0.1, 0.0]))
    with pytest.raises(UsageError):
        ExactDistribution(2, np.array([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(UsageError):
        ExactDistribution(2, np.full(3, 1 / 3))


def test_uniform_and_bias_constructors():
    u = ExactDistribution.uniform(3)
    assert np.all(u.probs == 0.125)
    d = ExactDistribution.from_bias(BiasParams(0.7, 0.3), 2)
    assert d.probs == pytest.approx([0.49, 0.21, 0.21, 0.09])
    with pytest.raises(UsageError):
        BiasParams(0.7, 0.4)


def test_prob_accessors():
    d = ExactDistribution.from_bias(BiasParams(0.75, 0.25), 2)
    assert d.prob(BitString("01")) == pytest.approx(0.1875)
    assert d.probs[3] == pytest.approx(0.0625)
    with pytest.raises(UsageError):
        d.prob(BitString("011"))
    with pytest.raises(UsageError):
        d.prob_pair(BitString("01"), BitString("00"))


def test_deviation_from_uniform():
    assert np.all(ExactDistribution.uniform(2).deviation_from_uniform() == 0.0)
    d = ExactDistribution.from_bias(BiasParams(0.75, 0.25), 1)
    assert d.deviation_from_uniform().tolist() == [0.25, -0.25]


def test_pair_law_cylinder_queries(skewed_cfg):
    jd = joint_distribution(4, skewed_cfg)
    # brute-force the same cylinder masses straight from the dense table
    probs = jd.probs
    xp, yp = BitString("01"), BitString("10")
    brute = probs[
        np.ix_(
            [v for v in range(16) if v >> 2 == xp.value],
            [v for v in range(16) if v >> 2 == yp.value],
        )
    ].sum()
    assert jd.prefix_prob(xp, yp) == pytest.approx(brute, abs=1e-15)

    xi, yi = BitString("11"), BitString("01")
    sel_x = [v for v in range(16) if (v >> 1) & 0b11 == xi.value]
    sel_y = [v for v in range(16) if (v >> 1) & 0b11 == yi.value]
    brute = probs[np.ix_(sel_x, sel_y)].sum()
    assert jd.infix_prob(1, xi, yi) == pytest.approx(brute, abs=1e-15)

    with pytest.raises(UsageError):
        jd.infix_prob(3, xi, yi)
    with pytest.raises(UsageError):
        ExactDistribution.uniform(4).prefix_prob(xp, yp)


def test_marginal_of_joint_law(skewed_cfg):
    jd = joint_distribution(3, skewed_cfg)
    left = jd.marginal("plus")
    expect = ExactDistribution.from_bias(marginal_bias(skewed_cfg, "plus"), 3)
    assert np.abs(left.probs - expect.probs).max() < 1e-15
    with pytest.raises(UsageError):
        jd.marginal("up")


# --- single-pair law ------------------------------------------------------------


def test_pair_prob_degenerate_angles():
    aligned = QrngConfig(theta=0.0)
    t = pair_prob_table(aligned)
    assert t[0, 1] == 0.0 and t[1, 0] == 0.0
    # float pi/2 is a hair off the true right angle, so "never agree" only
    # holds to the square of that rounding error
    crossed = QrngConfig(theta=math.pi / 2)
    t = pair_prob_table(crossed)
    assert t[0, 0] < 1e-30 and t[1, 1] < 1e-30


def test_pair_prob_symmetric_point(aligned_cfg):
    assert np.allclose(pair_prob_table(aligned_cfg), 0.25, rtol=0, atol=1e-15)


def test_pair_prob_skewed_values(skewed_cfg):
    t = pair_prob_table(skewed_cfg)
    assert t.sum() == pytest.approx(1.0, abs=1e-15)
    assert t[0, 0] == pytest.approx(0.30631176176656330, abs=1e-16)
    assert t[0, 1] == pytest.approx(0.16726651613514134, abs=1e-16)
    assert t[1, 0] == pytest.approx(0.17786006215703363, abs=1e-16)
    assert t[1, 1] == pytest.approx(0.34856165994126173, abs=1e-16)
    assert pair_prob(1, 0, skewed_cfg) == t[1, 0]
    with pytest.raises(UsageError):
        pair_prob(2, 0, skewed_cfg)


def test_marginal_bias(skewed_cfg):
    m = marginal_bias(skewed_cfg, "plus")
    assert m.p0 == pytest.approx(0.47357827790170464, abs=1e-15)
    assert marginal_bias(skewed_cfg, "times").p0 == pytest.approx(
        0.48417182392359693, abs=1e-15
    )
    # at a quarter turn the discarded side cancels: p0 = e0/(e0+e1)
    cfg = QrngConfig(theta=math.pi / 4, e0_plus=0.30, e1_plus=0.33)
    assert marginal_bias(cfg, "plus").p0 == pytest.approx(10 / 21, abs=1e-15)
    with pytest.raises(UsageError):
        marginal_bias(skewed_cfg, "diagonal")


def test_xor_bias(skewed_cfg):
    b = xor_bias(skewed_cfg)
    assert b.p0 == pytest.approx(0.65487342170782503, abs=1e-15)
    # equal efficiencies cancel entirely: the one-bit law is (cos^2, sin^2)
    for theta in (0.2, 0.9, 1.4):
        b = xor_bias(QrngConfig(theta=theta))
        assert b.p1 == pytest.approx(math.sin(theta) ** 2, abs=1e-15)


# --- enumerated laws ---------------------------------------------------------------


def test_joint_law_factorizes():
    for cfg in random_configs(5, seed=71):
        jd = joint_distribution(3, cfg)
        t = pair_prob_table(cfg)
        for xv in range(8):
            for yv in range(8):
                product = 1.0
                for i in range(3):
                    product *= t[(xv >> (2 - i)) & 1, (yv >> (2 - i)) & 1]
                assert jd.probs[xv, yv] == pytest.approx(product, abs=1e-15)


def test_enumeration_budget():
    cfg = QrngConfig()
    with pytest.raises(ResourceBudgetError):
        joint_distribution(13, cfg)
    with pytest.raises(ResourceBudgetError):
        xor_distribution(11, 2, cfg)
    with pytest.raises(ResourceBudgetError):
        joint_distribution(5, cfg, max_bits=4)
    joint_distribution(5, cfg, max_bits=5)
    with pytest.raises(UsageError):
        xor_distribution(0, 0, cfg)
    with pytest.raises(UsageError):
        xor_distribution(4, -1, cfg)


def test_xor_law_matches_closed_form():
    for cfg in random_configs(6, seed=72):
        enum = xor_distribution(7, 0, cfg)
        closed = xor_distribution_closed_form(7, cfg)
        assert np.abs(enum.probs - closed.probs).max() < 1e-13


def test_xor_law_equal_efficiencies_offset_is_uniform():
    for theta in (0.3, math.pi / 4, 1.2):
        cfg = QrngConfig(theta=theta)
        for n, j in ((5, 1), (4, 2), (3, 3)):
            d = xor_distribution(n, j, cfg)
            assert np.abs(d.probs - 0.5 ** n).max() < 1e-14


def brute_xor_law(n, j, cfg):
    """Independent route: marginalize the joint (n+j)-bit law pair by pair."""
    m = n + j
    jd = joint_distribution(m, cfg)
    mass = np.zeros(1 << n)
    for xv in range(1 << m):
        for yv in range(1 << m):
            z = (xv >> j) ^ (yv & ((1 << n) - 1))
            mass[z] += jd.probs[xv, yv]
    return mass


def test_xor_law_matches_pairwise_marginalization(skewed_cfg):
    for n, j in ((4, 0), (3, 1), (2, 2)):
        got = xor_distribution(n, j, skewed_cfg).probs
        want = brute_xor_law(n, j, skewed_cfg)
        assert np.abs(got - want).max() < 1e-15


def test_enumeration_refuses_uint32_overflow_and_dense_ceiling():
    # sizes of 2^40 and above: a missing guard fails fast with MemoryError
    cfg = QrngConfig()
    with pytest.raises(ResourceBudgetError):
        xor_distribution(30, 10, cfg, max_bits=64)
    with pytest.raises(ResourceBudgetError):
        joint_distribution(40, cfg, max_bits=64)
    with pytest.raises(ResourceBudgetError):
        ExactDistribution.from_bias(BiasParams(0.5, 0.5), 40)
    with pytest.raises(ResourceBudgetError):
        ExactDistribution.uniform(40)
    with pytest.raises(ResourceBudgetError):
        xor_distribution_closed_form(40, cfg)


def test_offset_beats_none(skewed_cfg):
    # shifting either string by one position decouples the pairwise bias
    u = ExactDistribution.uniform(6)
    d0 = tv_distance(xor_distribution(6, 0, skewed_cfg), u)
    d1 = tv_distance(xor_distribution(6, 1, skewed_cfg), u)
    assert d1 < d0 / 10


# --- distances -----------------------------------------------------------------------


def test_distances_hand_values():
    point = ExactDistribution(1, np.array([1.0, 0.0]))
    u = ExactDistribution.uniform(1)
    assert tv_distance(point, u) == pytest.approx(0.5)
    assert l1_distance(point, u) == pytest.approx(1.0)
    assert tv_distance(u, u) == 0.0


def test_distance_needs_same_support():
    with pytest.raises(UsageError):
        tv_distance(ExactDistribution.uniform(2), ExactDistribution.uniform(3))


def test_l1_is_twice_tv(skewed_cfg):
    d = xor_distribution(5, 0, skewed_cfg)
    u = ExactDistribution.uniform(5)
    assert l1_distance(d, u) == pytest.approx(2 * tv_distance(d, u), abs=1e-18)


# --- expectation curves -----------------------------------------------------------


def test_expectation_curve_anchor_points():
    assert xor_expectation_quantum(0.0) == 1.0
    assert xor_expectation_quantum(math.pi / 4) == pytest.approx(0.5, abs=1e-16)
    assert xor_expectation_quantum(math.pi / 2) == pytest.approx(0.0, abs=1e-16)
    assert xor_expectation_classical(0.0) == 1.0
    assert xor_expectation_classical(math.pi / 4) == 0.5
    assert xor_expectation_classical(math.pi / 2) == 0.0


def test_curves_disagree_between_anchors():
    for theta in (0.2, 0.5, 1.0, 1.3):
        assert xor_expectation_quantum(theta) != xor_expectation_classical(theta)


def test_expectation_domain_checked():
    with pytest.raises(UsageError):
        xor_expectation_quantum(-0.1)
    with pytest.raises(UsageError):
        xor_expectation_classical(2.0)


def test_taylor_gap():
    q, c = taylor_gap(0.05)
    assert q == pytest.approx(0.05)
    assert c == pytest.approx(0.1 / math.pi)
    assert q / c == pytest.approx(math.pi / 2, abs=1e-12)
    with pytest.raises(UsageError):
        taylor_gap(0.3)


# --- transfer route ---------------------------------------------------------------


def test_transfer_matches_enumeration_at_reference_config(skewed_cfg):
    for m in range(1, 13):
        for n in range(1, m + 1):
            got = xor_distribution_transfer(n, m - n, skewed_cfg).probs
            want = xor_distribution(n, m - n, skewed_cfg).probs
            assert np.abs(got - want).max() <= 1e-14, (n, m - n)


def test_transfer_matches_enumeration_at_random_configs():
    for cfg in random_configs(3, seed=73):
        for m in range(1, 10):
            for n in range(1, m + 1):
                got = xor_distribution_transfer(n, m - n, cfg).probs
                want = xor_distribution(n, m - n, cfg).probs
                assert np.abs(got - want).max() <= 1e-14, (n, m - n)


def rational_xor_law(n, j, table):
    """The offset-XOR law in exact rationals, summed over every sequence of pairs."""
    cells = [(a, b, Fraction(table[a, b])) for a in (0, 1) for b in (0, 1)]
    mass = [Fraction(0)] * (1 << n)
    for pairs in itertools.product(cells, repeat=n + j):
        z = 0
        for i in range(n):
            z = (z << 1) | (pairs[i][0] ^ pairs[i + j][1])
        weight = Fraction(1)
        for _, _, p in pairs:
            weight *= p
        mass[z] += weight
    return mass


@pytest.mark.parametrize("n, j", [(1, 2), (2, 3), (3, 4)])
def test_transfer_matches_exact_rationals_past_n(skewed_cfg, n, j):
    want = rational_xor_law(n, j, pair_prob_table(skewed_cfg))
    got = xor_distribution_transfer(n, j, skewed_cfg).probs
    assert max(abs(Fraction(g) - w) for g, w in zip(got, want)) <= Fraction(1, 10**15)


def test_transfer_offset_zero_is_the_closed_form():
    for cfg in random_configs(4, seed=74):
        for n in (1, 5, 9):
            got = xor_distribution_transfer(n, 0, cfg).probs
            want = xor_distribution_closed_form(n, cfg).probs
            assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_transfer_equal_efficiencies_offset_is_uniform():
    for theta in (0.3, math.pi / 4, 1.2):
        for e in (1.0, 0.7):
            cfg = QrngConfig(theta=theta, e0_plus=e, e1_plus=e, e0_times=e, e1_times=e)
            for n, j in ((5, 1), (4, 2), (3, 3), (2, 6), (8, 3)):
                d = xor_distribution_transfer(n, j, cfg)
                assert np.abs(d.probs * (1 << n) - 1.0).max() < 1e-14


def test_transfer_budget_and_arguments():
    cfg = QrngConfig()
    with pytest.raises(ResourceBudgetError):
        xor_distribution_transfer(12, 4, cfg)  # n + j over ENUMERATION_CAP
    with pytest.raises(ResourceBudgetError):
        xor_distribution_transfer(40, 3, cfg, max_bits=43)  # past DENSE_LAW_CAP
    # a long offset costs nothing: only min(j, n) classes hold positions
    d = xor_distribution_transfer(3, 1000, cfg, max_bits=1003)
    assert d.n == 3
    with pytest.raises(UsageError):
        xor_distribution_transfer(0, 0, cfg)
    with pytest.raises(UsageError):
        xor_distribution_transfer(4, -1, cfg)


def test_enumeration_normalizes_at_long_offsets(skewed_cfg):
    # n = 1, j = 11 once summed 2^21 weights per cell in sequence and missed
    # normalization by 6e-12
    for n, j in ((1, 11), (1, 10), (2, 10), (2, 9)):
        d = xor_distribution(n, j, skewed_cfg)
        assert abs(math.fsum(d.probs) - 1.0) < 1e-15
