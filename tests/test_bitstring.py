import numpy as np
import pytest

from qrngkit import BitString, UsageError, xor_offset


def test_text_round_trip():
    s = BitString("0100110111")
    assert len(s) == 10
    assert s.to01() == "0100110111"
    assert s.value == 0b0100110111


def test_position_zero_is_leftmost():
    s = BitString("100")
    assert s.to_array().tolist() == [1, 0, 0]
    assert s.value == 4


def test_rejects_non_bits():
    with pytest.raises(UsageError):
        BitString("01a")
    with pytest.raises(UsageError):  # text only: arrays go through from_array
        BitString([0, 1])


def test_from_index_zero_extends():
    assert BitString.from_index(174, 10).to01() == "0010101110"
    assert BitString.from_index(0, 3).to01() == "000"
    with pytest.raises(UsageError):
        BitString.from_index(16, 4)
    with pytest.raises(UsageError):
        BitString.from_index(-1, 4)


def test_count():
    s = BitString("0110101")
    assert s.count(1) == 4
    assert s.count(0) == 3
    assert BitString("").count(0) == BitString("").count(1) == 0
    with pytest.raises(UsageError):
        s.count(2)


def test_xor_and_concat():
    assert xor_offset(BitString("1010"), BitString("0110"), 0).to01() == "1100"
    with pytest.raises(UsageError):
        xor_offset(BitString("10"), BitString("100"), 0)
    assert (BitString("10") + BitString("011")).to01() == "10011"
    assert (BitString("") + BitString("1")).to01() == "1"


def test_equality_and_hashing():
    # length is part of identity: "001" and "1" share the value 1 but differ
    assert BitString("001") != BitString("1")
    table = {BitString("01"): "a"}
    assert table[BitString("01")] == "a"


def test_array_round_trip():
    arr = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1], dtype=np.uint8)
    s = BitString.from_array(arr)
    assert s.to01() == "100110101"
    assert np.array_equal(s.to_array(), arr)
    empty = BitString.from_array(np.empty(0, dtype=np.uint8))
    assert len(empty) == 0
    assert empty.to_array().size == 0


def test_from_array_rejects_bad_input():
    with pytest.raises(UsageError):
        BitString.from_array(np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(UsageError):
        BitString.from_array(np.zeros((2, 2), dtype=np.uint8))


def test_array_round_trip_randomized():
    rng = np.random.default_rng(52)
    for _ in range(25):
        n = int(rng.integers(0, 200))
        arr = rng.integers(0, 2, n).astype(np.uint8)
        s = BitString.from_array(arr)
        assert np.array_equal(s.to_array(), arr)
        assert s == BitString(s.to01())


def test_repr_truncates_long_strings():
    short = BitString("01")
    assert "01" in repr(short)
    long = BitString("0" * 1000)
    assert "len=1000" in repr(long)
