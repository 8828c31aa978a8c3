"""Packed bitstrings and the two counting primitives everything else uses.

A BitString is an immutable, ordered sequence of bits. Position 0 is the
leftmost (most significant) bit, so ``BitString.from_index(174, 10)`` is
``0010101110``: integer values zero-extend to the left. Storage is a single
Python integer, which keeps strings of millions of bits compact and makes
XOR, slicing and popcounts word-level operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .errors import UsageError

__all__ = ["BitString", "hamming_distance"]


class BitString:
    """Immutable bit sequence, leftmost bit first.

    Accepts a text form (``"0110"``), any iterable of 0/1 integers, or
    another BitString. Empty strings are valid.
    """

    __slots__ = ("_val", "_len")

    def __init__(self, bits: str | Iterable[int] | "BitString" = ()):
        if isinstance(bits, BitString):
            self._val = bits._val
            self._len = bits._len
            return
        if isinstance(bits, str):
            stripped = bits
            if stripped and not set(stripped) <= {"0", "1"}:
                raise UsageError(f"bitstring text may contain only 0/1, got {bits!r}")
            self._len = len(stripped)
            self._val = int(stripped, 2) if stripped else 0
            return
        val = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise UsageError(f"bit values must be 0 or 1, got {b!r}")
            val = (val << 1) | b
            n += 1
        self._val = val
        self._len = n

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
        if a.size == 0:
            return cls()
        packed = np.packbits(a)  # big-endian within each byte, zero-padded at the end
        val = int.from_bytes(packed.tobytes(), "big") >> (packed.size * 8 - a.size)
        return cls.from_index(val, a.size)

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls.from_index(0, n)

    # --- accessors --------------------------------------------------------

    @property
    def value(self) -> int:
        """Integer whose binary expansion (zero-extended) is this string."""
        return self._val

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self._len)
            if step == 1:
                width = max(0, stop - start)
                chunk = (self._val >> (self._len - stop)) & ((1 << width) - 1) if width else 0
                return BitString.from_index(chunk, width)
            return BitString([self[i] for i in range(start, stop, step)])
        if idx < 0:
            idx += self._len
        if not 0 <= idx < self._len:
            raise IndexError("bit index out of range")
        return (self._val >> (self._len - 1 - idx)) & 1

    def __iter__(self) -> Iterator[int]:
        n = self._len
        v = self._val
        for i in range(n):
            yield (v >> (n - 1 - i)) & 1

    def count(self, b: int) -> int:
        """Number of positions holding bit value ``b``."""
        if b not in (0, 1):
            raise UsageError("bit value must be 0 or 1")
        ones = self._val.bit_count()
        return ones if b == 1 else self._len - ones

    # --- operators --------------------------------------------------------

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if self._len != other._len:
            raise UsageError(f"XOR needs equal lengths, got {self._len} and {other._len}")
        return BitString.from_index(self._val ^ other._val, self._len)

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


def hamming_distance(x: BitString, y: BitString) -> int:
    """Number of positions where ``x`` and ``y`` differ (lengths must match)."""
    if len(x) != len(y):
        raise UsageError(f"hamming distance needs equal lengths, got {len(x)} and {len(y)}")
    return (x.value ^ y.value).bit_count()

