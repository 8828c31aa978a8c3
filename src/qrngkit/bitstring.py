"""Packed bitstrings: the value type every layer passes bits in.

A BitString is an immutable, ordered sequence of bits. Position 0 is the
leftmost (most significant) bit, so ``BitString.from_index(174, 10)`` is
``0010101110``: integer values zero-extend to the left. Storage is a single
Python integer, which keeps strings of millions of bits compact. The class
only converts: text, integer value and numpy array in, the same out. The
XOR of two strings is `extractors.xor_offset`; its count of ones is
``.count(1)``.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

__all__ = ["BitString"]


class BitString:
    """Immutable bit sequence, leftmost bit first.

    Built from a text form (``"0110"``), ``from_index`` or ``from_array``.
    Empty strings are valid.
    """

    __slots__ = ("_val", "_len")

    def __init__(self, bits: str = ""):
        if not isinstance(bits, str):
            raise UsageError(f"BitString takes 0/1 text, got {type(bits).__name__}")
        if bits and not set(bits) <= {"0", "1"}:
            raise UsageError(f"bitstring text may contain only 0/1, got {bits!r}")
        self._len = len(bits)
        self._val = int(bits, 2) if bits else 0

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_index(cls, value: int, length: int) -> "BitString":
        """Bits of ``value`` zero-extended to ``length``, most significant first."""
        if value < 0 or length < 0 or value >> length:
            raise UsageError(f"value {value} does not fit in {length} bits")
        out = cls.__new__(cls)
        out._val = value
        out._len = length
        return out

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        """Build from a numpy array of 0/1 values (any integer dtype)."""
        a = np.ascontiguousarray(arr, dtype=np.uint8)
        if a.ndim != 1:
            raise UsageError("bit array must be one-dimensional")
        if a.size and a.max() > 1:
            raise UsageError("bit array may contain only 0/1")
        packed = np.packbits(a)  # big-endian within each byte, zero-padded at the end
        val = int.from_bytes(packed.tobytes(), "big") >> (packed.size * 8 - a.size)
        return cls.from_index(val, a.size)

    # --- accessors --------------------------------------------------------

    @property
    def value(self) -> int:
        """Integer whose binary expansion (zero-extended) is this string."""
        return self._val

    def __len__(self) -> int:
        return self._len

    def count(self, b: int) -> int:
        """Number of positions holding bit value ``b``."""
        if b not in (0, 1):
            raise UsageError("bit value must be 0 or 1")
        ones = self._val.bit_count()
        return ones if b == 1 else self._len - ones

    # --- operators --------------------------------------------------------

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString.from_index((self._val << other._len) | other._val, self._len + other._len)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._len == other._len
            and self._val == other._val
        )

    def __hash__(self) -> int:
        return hash((self._len, self._val))

    # --- conversions ------------------------------------------------------

    def to01(self) -> str:
        return format(self._val, f"0{self._len}b") if self._len else ""

    def to_array(self) -> np.ndarray:
        """The bits as a uint8 array of 0/1, leftmost bit first."""
        if self._len == 0:
            return np.empty(0, dtype=np.uint8)
        nbytes = (self._len + 7) // 8
        raw = np.frombuffer(self._val.to_bytes(nbytes, "big"), dtype=np.uint8)
        return np.unpackbits(raw)[nbytes * 8 - self._len :]

    def __repr__(self) -> str:
        if self._len <= 64:
            return f"BitString('{self.to01()}')"
        head = format(self._val >> (self._len - 48), "048b")
        return f"BitString('{head}...', len={self._len})"

