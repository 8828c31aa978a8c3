"""Timestamped joint-outcome streams.

A PairStream holds one measurement run: for each detected pair, the arrival
time and the two outcome bits (the "plus" context and the "times" context).
Columns are numpy arrays so million-record streams stay cheap.
"""

from __future__ import annotations

import numpy as np

from .bitstring import BitString
from .errors import UsageError
from .extractors import xor_offset

__all__ = ["PairStream"]


class PairStream:
    """Columnar sequence of pair records, strictly increasing in time."""

    __slots__ = ("t", "a", "b")

    def __init__(self, t: np.ndarray, a: np.ndarray, b: np.ndarray):
        t = np.ascontiguousarray(t, dtype=np.float64)
        a = np.ascontiguousarray(a, dtype=np.uint8)
        b = np.ascontiguousarray(b, dtype=np.uint8)
        if not (t.ndim == a.ndim == b.ndim == 1) or not (t.size == a.size == b.size):
            raise UsageError("stream columns must be 1-d and equally long")
        if not np.isfinite(t).all():
            raise UsageError("record times must be finite")
        if t.size and (t[0] < 0 or np.any(np.diff(t) <= 0)):
            raise UsageError("record times must be non-negative and strictly increasing")
        if a.size and (a.max() > 1 or b.max() > 1):
            raise UsageError("outcomes must be bits")
        self.t = t
        self.a = a
        self.b = b

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PairStream)
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )

    def plus_string(self) -> BitString:
        return BitString.from_array(self.a)

    def times_string(self) -> BitString:
        return BitString.from_array(self.b)

    def xor_string(self, j: int = 0) -> BitString:
        """Offset-XOR of the two outcome columns: bit i is a_i XOR b_{i+j}."""
        return xor_offset(self.plus_string(), self.times_string(), j)

    def __repr__(self) -> str:
        return f"PairStream(n={len(self)})"
