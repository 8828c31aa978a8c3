import math

import numpy as np
import pytest

from helpers import coin_flips
from qrngkit import (
    BitString,
    ExtractionOutput,
    QrngConfig,
    UsageError,
    pair_prob_table,
    pair_von_neumann,
    peres,
    von_neumann,
    xor_offset,
)


def bs(arr):
    return BitString.from_array(np.asarray(arr, dtype=np.uint8))


def test_extraction_accounting_enforced():
    with pytest.raises(UsageError):
        ExtractionOutput(BitString("011"), consumed=2)
    out = ExtractionOutput(BitString("01"), consumed=4)
    assert out.discarded == 2
    assert ExtractionOutput(BitString("01"), consumed=2).discarded == 0


# --- offset XOR --------------------------------------------------------------


def test_xor_offset_basic():
    x = BitString("1010")
    assert xor_offset(x, x, 0) == BitString("0000")
    assert xor_offset(BitString("1010"), BitString("0110"), 0) == BitString("1100")
    assert xor_offset(BitString("110"), BitString("011"), 1) == BitString("00")
    assert xor_offset(BitString(), BitString(), 0) == BitString()


def test_xor_offset_validates():
    with pytest.raises(UsageError):
        xor_offset(BitString("10"), BitString("100"), 0)
    with pytest.raises(UsageError):
        xor_offset(BitString("10"), BitString("01"), 2)
    with pytest.raises(UsageError):
        xor_offset(BitString("10"), BitString("01"), -1)


def test_xor_offset_reference_loop():
    # lengths up to 300 span several 64-bit words of the integer values
    rng = np.random.default_rng(90)
    for _ in range(60):
        n = int(rng.integers(1, 301))
        x = rng.integers(0, 2, n).astype(np.uint8)
        y = rng.integers(0, 2, n).astype(np.uint8)
        for j in [j for j in (0, 1, 3, 7, int(rng.integers(0, n))) if j < n]:
            want = [int(x[i] ^ y[i + j]) for i in range(n - j)]
            assert xor_offset(bs(x), bs(y), j) == bs(want)


# --- von Neumann ---------------------------------------------------------------


def test_von_neumann_worked_example():
    out = von_neumann(BitString("00011011"))
    assert out.bits == BitString("01")
    assert out.consumed == 8
    assert out.discarded == 6


def test_von_neumann_edge_cases():
    assert von_neumann(BitString("0000")).bits == BitString("")
    assert von_neumann(BitString("0110")).bits == BitString("01")
    # odd trailing bit is dropped but still accounted for
    out = von_neumann(BitString("011"))
    assert out.bits == BitString("0")
    assert out.consumed == 3
    assert out.discarded == 2
    assert von_neumann(BitString("")).bits == BitString("")


def test_von_neumann_unbiases_a_biased_coin():
    out = von_neumann(bs(coin_flips(key=100, n=200_000, p=0.7)))
    m = len(out.bits)
    assert abs(out.bits.count(1) / m - 0.5) < 3 / (2 * math.sqrt(m))
    # yield concentrates at p(1-p) per input bit
    assert m / out.consumed == pytest.approx(0.21, abs=0.003)


# --- Peres ------------------------------------------------------------------------


def peres_reference(bits, depth):
    """Peres's recursion on a list of bits, straight from its definition."""
    if depth == 0:
        return []
    pairs = list(zip(bits[0::2], bits[1::2]))
    return (
        [a for a, b in pairs if a != b]
        + peres_reference([a ^ b for a, b in pairs], depth - 1)
        + peres_reference([a for a, b in pairs if a == b], depth - 1)
    )


def test_peres_depth_one_is_von_neumann():
    rng = np.random.default_rng(91)
    for _ in range(1000):
        z = rng.integers(0, 2, int(rng.integers(0, 65))).tolist()
        want = bs([a for a, b in zip(z[0::2], z[1::2]) if a != b])
        assert peres(bs(z), 1).bits == von_neumann(bs(z)).bits == want


@pytest.mark.parametrize("depth", [2, 3, 6])
def test_peres_matches_recursive_reference(depth):
    rng = np.random.default_rng(95 + depth)
    for _ in range(200):
        z = coin_flips(key=int(rng.integers(1 << 30)), n=int(rng.integers(0, 200)), p=0.3)
        assert peres(bs(z), depth).bits == bs(peres_reference(z.tolist(), depth))


def test_peres_depth_past_log2_n_changes_nothing():
    # Level L gets at most n / 2^(L-1) bits, so no level past log2(n) has
    # input; it never runs, and a huge depth costs nothing.
    rng = np.random.default_rng(96)
    for _ in range(50):
        z = bs(rng.integers(0, 2, int(rng.integers(1, 3000))))
        enough = 1 + math.floor(math.log2(len(z)))
        assert peres(z, 10_000).bits == peres(z, enough).bits
    assert peres(BitString("0110"), 18).bits == peres(BitString("0110"), 3).bits


@pytest.mark.parametrize("depth", [2.5, 2.0, True, "3", None])
def test_peres_refuses_a_depth_that_is_not_an_integer(depth):
    # 2.5 never met depth == 1 and ran every level; True ran as depth 1
    with pytest.raises(UsageError, match="depth must be an integer"):
        peres(BitString("0110" * 8), depth)
    assert peres(BitString("0110" * 8), np.int64(3)) == peres(BitString("0110" * 8), 3)


def test_peres_small_cases():
    assert peres(BitString("0011"), 1).bits == BitString("")
    # depth 2 recovers bits von Neumann throws away: pairs (01)(01) give
    # level-one "00", parity stream "11" nothing, equal-value stream empty
    assert peres(BitString("0101"), 2).bits == BitString("00")
    # pairs (00)(11): no level-one bits, parity stream "00" nothing,
    # equal-value stream "01" gives one bit
    assert peres(BitString("0011"), 2).bits == BitString("0")
    with pytest.raises(UsageError):
        peres(BitString("01"), 0)


def test_peres_outyields_von_neumann():
    z = bs(coin_flips(key=101, n=1_000_000))
    assert len(peres(z, 4).bits) > len(von_neumann(z).bits)


def test_peres_output_unbiased_on_biased_input():
    out = peres(bs(coin_flips(key=102, n=500_000, p=0.7)), 4)
    m = len(out.bits)
    assert abs(out.bits.count(1) / m - 0.5) < 3 / (2 * math.sqrt(m))


# --- pair comparison -----------------------------------------------------------------


def test_pair_von_neumann_worked_examples():
    assert pair_von_neumann(BitString("01"), BitString("00")).bits == BitString("0")
    assert pair_von_neumann(BitString("00"), BitString("11")).bits == BitString("")
    assert pair_von_neumann(BitString("10"), BitString("01")).bits == BitString("1")


def test_pair_von_neumann_lexicographic_order():
    # 00 < 01 < 10 < 11 with the leftmost bit most significant
    for (a1, b1), (a2, b2) in [((0, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1))]:
        out = pair_von_neumann(bs([a1, a2]), bs([b1, b2]))
        assert out.bits == BitString("0")
        flipped = pair_von_neumann(bs([a2, a1]), bs([b2, b1]))
        assert flipped.bits == BitString("1")


def test_pair_von_neumann_accounting():
    # values 2,2,1,3,0: first pair collides, second emits, position 4 left over
    out = pair_von_neumann(BitString("11010"), BitString("00110"))
    assert out.bits == BitString("0")
    assert out.consumed == 5
    assert out.discarded == 4
    with pytest.raises(UsageError):
        pair_von_neumann(BitString("01"), BitString("011"))


def pair_von_neumann_reference(x, y):
    """The pair comparison on lists of bits, one position-pair at a time."""
    out = []
    for i in range(len(x) // 2):
        first, second = (x[2 * i], y[2 * i]), (x[2 * i + 1], y[2 * i + 1])
        if first != second:
            out.append(int(first > second))
    return out


def test_pair_von_neumann_matches_reference_loop():
    rng = np.random.default_rng(94)
    for _ in range(200):
        n = int(rng.integers(0, 301))
        x = coin_flips(key=int(rng.integers(1 << 30)), n=n, p=float(rng.random()))
        y = coin_flips(key=int(rng.integers(1 << 30)), n=n, p=float(rng.random()))
        want = pair_von_neumann_reference(x.tolist(), y.tolist())
        out = pair_von_neumann(bs(x), bs(y))
        assert (out.bits, out.consumed, out.discarded) == (bs(want), n, n - len(want))


def test_pair_von_neumann_yield_on_fair_input():
    x = bs(coin_flips(key=103, n=400_000))
    y = bs(coin_flips(key=104, n=400_000))
    out = pair_von_neumann(x, y)
    # equal two-bit values collide with probability 1/4: yield 3/8 per position
    assert len(out.bits) / out.consumed == pytest.approx(0.375, abs=0.0025)


def test_pair_von_neumann_balanced_under_detected_pair_law():
    # exact 16-combination enumeration: mass(output=0) equals mass(output=1)
    cfg = QrngConfig(theta=0.9, e0_plus=0.7, e1_plus=0.25, e0_times=0.55, e1_times=0.95)
    t = pair_prob_table(cfg)
    lo = hi = 0.0
    for a1 in (0, 1):
        for b1 in (0, 1):
            for a2 in (0, 1):
                for b2 in (0, 1):
                    w = t[a1, b1] * t[a2, b2]
                    v1, v2 = 2 * a1 + b1, 2 * a2 + b2
                    if v1 < v2:
                        lo += w
                    elif v1 > v2:
                        hi += w
    assert abs(lo - hi) < 1e-14
