import numpy as np
import pytest

from helpers import NON_BIT_ARRAYS
from qrngkit import BitString, UsageError, xor_offset


def test_text_round_trip():
    s = BitString("0100110111")
    assert len(s) == 10
    assert s.to01() == "0100110111"
    assert BitString(s.to01()) == s


def test_position_zero_is_leftmost():
    s = BitString("100")
    assert s.to_array().tolist() == [1, 0, 0]
    assert s.to_array().dtype == np.uint8


def test_rejects_non_bits():
    with pytest.raises(UsageError):
        BitString("01a")
    with pytest.raises(UsageError):  # text only: arrays go through from_array
        BitString([0, 1])


def test_to_array_is_read_only():
    arr = BitString("0110").to_array()
    with pytest.raises(ValueError):
        arr[0] = 1
    with pytest.raises(ValueError):
        BitString.from_array(np.array([1, 0])).to_array()[1] = 1


def test_from_array_copies_its_input():
    src = np.array([1, 0, 1], dtype=np.uint8)
    s = BitString.from_array(src)
    src[:] = 0
    assert s.to01() == "101"


def test_count():
    s = BitString("0110101")
    assert s.count(1) == 4
    assert s.count(0) == 3
    assert BitString("").count(0) == BitString("").count(1) == 0
    # past 255 ones a uint8 sum would wrap around
    many = BitString.from_array(np.ones(100_000, dtype=np.uint8))
    assert (many.count(1), many.count(0)) == (100_000, 0)
    with pytest.raises(UsageError):
        s.count(2)


def test_xor_and_concat():
    assert xor_offset(BitString("1010"), BitString("0110"), 0).to01() == "1100"
    with pytest.raises(UsageError):
        xor_offset(BitString("10"), BitString("100"), 0)


def test_equality_and_hashing():
    # length is part of identity: "001" and "1" share the value 1 but differ
    assert BitString("001") != BitString("1")
    table = {BitString("01"): "a"}
    assert table[BitString("01")] == "a"
    # the text route and the array route build equal strings with equal hashes
    text, arr = BitString("0010101110"), BitString.from_array([0, 0, 1, 0, 1, 0, 1, 1, 1, 0])
    assert text == arr and hash(text) == hash(arr)
    assert table[BitString.from_array(np.array([False, True]))] == "a"


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


@pytest.mark.parametrize("values", NON_BIT_ARRAYS)
def test_from_array_refuses_values_a_cast_would_coerce(values):
    with pytest.raises(UsageError, match="0/1 values"):
        BitString.from_array(np.array(values))


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
