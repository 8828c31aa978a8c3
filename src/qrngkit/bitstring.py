"""Bitstrings: the value type every layer passes bits in.

A BitString is an immutable, ordered sequence of bits held as one read-only
uint8 array of 0/1 values. Position 0 is the leftmost bit, so ``"0010101110"``
is ``[0, 0, 1, 0, 1, 0, 1, 1, 1, 0]``; read as an integer, the leftmost bit
is the most significant. The class only converts: text or a numpy array in,
the same out. ``from_array`` copies its input and ``to_array`` hands out the
stored array itself, so every extractor reads the bits without a copy; the
private ``_adopt`` takes over a fresh array its caller has made 0/1. The
XOR of two strings is `extractors.xor_offset`; its count of ones is
``.count(1)``.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

__all__ = ["BitString"]


def _as_bits(arr, what: str) -> np.ndarray:
    """``arr`` as 1-d uint8, refusing any value but 0 and 1 before the cast could coerce it."""
    arr = np.asarray(arr)
    if arr.ndim != 1 or not ((arr == 0) | (arr == 1)).all():
        raise UsageError(f"{what} must be a 1-d array of 0/1 values")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def _frozen(bits: np.ndarray) -> np.ndarray:
    bits.flags.writeable = False
    return bits


def _text(bits: np.ndarray) -> str:
    return (bits + ord("0")).tobytes().decode("ascii")


class BitString:
    """Immutable bit sequence, leftmost bit first.

    Built from a text form (``"0110"``) or ``from_array``. Empty strings are
    valid.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: str = ""):
        if not isinstance(bits, str):
            raise UsageError(f"BitString takes 0/1 text, got {type(bits).__name__}")
        if bits and not set(bits) <= {"0", "1"}:
            raise UsageError(f"bitstring text may contain only 0/1, got {bits!r}")
        self._bits = _frozen(np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        """Build from a copy of a numpy array of 0/1 values (any dtype)."""
        return cls._adopt(_as_bits(arr, "a bit array").copy())

    @classmethod
    def _adopt(cls, bits: np.ndarray) -> "BitString":
        """Build over ``bits`` itself, without a copy: a 1-d uint8 array of 0/1 values,
        fresh, that its caller made so and hands over."""
        out = cls.__new__(cls)
        out._bits = _frozen(bits)
        return out

    def __len__(self) -> int:
        return self._bits.size

    def count(self, b: int) -> int:
        """Number of positions holding bit value ``b``."""
        if b not in (0, 1):
            raise UsageError("bit value must be 0 or 1")
        ones = int(np.count_nonzero(self._bits))
        return ones if b == 1 else len(self) - ones

    def __eq__(self, other) -> bool:
        return isinstance(other, BitString) and np.array_equal(self._bits, other._bits)

    def __hash__(self) -> int:
        return hash(self._bits.tobytes())

    def to01(self) -> str:
        return _text(self._bits)

    def to_array(self) -> np.ndarray:
        """The stored bits: a read-only uint8 array of 0/1, leftmost bit first."""
        return self._bits

    def __repr__(self) -> str:
        if len(self) <= 64:
            return f"BitString('{self.to01()}')"
        return f"BitString('{_text(self._bits[:48])}...', len={len(self)})"
