"""Timestamped joint-outcome streams.

A PairStream holds one measurement run: for each detected pair, the arrival
time and the two outcome bits (the "plus" context and the "times" context).
Columns are numpy arrays so million-record streams stay cheap.
"""

from __future__ import annotations

import numpy as np

from .bitstring import BitString, _as_bits
from .errors import UsageError

__all__ = ["PairStream"]

# Records, law rows or counted blocks per chunk of every chunked loop in the package: the
# size never reaches the output bytes, and 2^14 ran as fast as 2^16 at a quarter the peak
_CHUNK = 1 << 14


class PairStream:
    """Columnar sequence of pair records, strictly increasing in time."""

    __slots__ = ("t", "a", "b")

    def __init__(self, t: np.ndarray, a: np.ndarray, b: np.ndarray):
        t = np.ascontiguousarray(t, dtype=np.float64)
        a, b = (_as_bits(c, "outcome columns") for c in (a, b))
        if t.ndim != 1 or not (t.size == a.size == b.size):
            raise UsageError("stream columns must be 1-d and equally long")
        if not np.isfinite(t).all():
            raise UsageError("record times must be finite")
        if t.size and (t[0] < 0 or (t[1:] <= t[:-1]).any()):
            raise UsageError("record times must be non-negative and strictly increasing")
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

    def __repr__(self) -> str:
        return f"PairStream(n={len(self)})"
