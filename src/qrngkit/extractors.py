"""Bitstring post-processing: offset-XOR, von Neumann, Peres, pair-compare.

Each extractor is one function of whole bitstrings, and all four read the
same representation: the read-only uint8 array of 0/1 values that
``BitString.to_array`` returns. `xor_offset` XORs one array against a shifted
slice of the other and returns a BitString; the tests check it against a
per-bit loop written from its definition. The others return an
ExtractionOutput: Peres is a recursion over consecutive pairs, von Neumann is
Peres at depth 1, and the pair comparison orders consecutive two-bit values.

Two-bit values are ordered lexicographically with the leftmost bit most
significant: 00 < 01 < 10 < 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstring import BitString
from .errors import UsageError

__all__ = [
    "ExtractionOutput",
    "xor_offset",
    "von_neumann",
    "peres",
    "pair_von_neumann",
]


@dataclass(frozen=True)
class ExtractionOutput:
    """Extractor result with position accounting.

    `consumed` counts input positions taken in (per string, for the two-string
    extractors); every consumed position either survives into `bits` or is
    `discarded`, including odd leftovers at a pairing stage.
    """

    bits: BitString
    consumed: int

    def __post_init__(self):
        if self.consumed < len(self.bits):
            raise UsageError("extraction accounting does not add up")

    @property
    def discarded(self) -> int:
        return self.consumed - len(self.bits)


def xor_offset(x: BitString, y: BitString, j: int = 0) -> BitString:
    """Combine z_i = x_i XOR y_(i+j); inputs of length n + j give n bits (empty ones need j = 0)."""
    if len(x) != len(y):
        raise UsageError("xor_offset needs equal-length inputs")
    if not 0 <= j < max(len(x), 1):
        raise UsageError(f"offset must satisfy 0 <= j < {max(len(x), 1)}, got {j}")
    n = len(x) - j
    return BitString._adopt(x.to_array()[:n] ^ y.to_array()[j:])  # fresh, and 0/1 as x and y are


def _pairs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second members of the consecutive pairs; an odd last value is left out."""
    m = values.size // 2
    return values[: 2 * m : 2], values[1 : 2 * m : 2]


def _peres(z: np.ndarray, depth: int) -> np.ndarray:
    """The 01/10 bits of level one, then the pair-parity stream's output, then
    the equal-pair values' output, each one level shallower."""
    first, second = _pairs(z)
    unequal = first != second
    out = first[unequal]
    if depth == 1 or first.size == 0:
        return out
    return np.concatenate([
        out, _peres(first ^ second, depth - 1), _peres(first[~unequal], depth - 1)
    ])


def peres(z: BitString, depth: int = 4) -> ExtractionOutput:
    """Iterated von Neumann (Peres 1992). A level with no pairs ends its branch,
    and each level gets at most half the bits of the one above, so only about
    log2(n) levels ever run whatever the depth."""
    # a float depth would never meet depth == 1 and run every level
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)):
        raise UsageError(f"depth must be an integer, got {depth!r}")
    if depth < 1:
        raise UsageError("depth must be at least 1")
    bits = BitString._adopt(_peres(z.to_array(), depth))  # fresh, 0/1 and uint8 as z is
    return ExtractionOutput(bits, len(z))


def von_neumann(z: BitString) -> ExtractionOutput:
    return peres(z, 1)


def pair_von_neumann(x: BitString, y: BitString) -> ExtractionOutput:
    """Compare consecutive position-pairs of two strings.

    Positions 2i and 2i+1 supply outcome pairs (a1, b1) and (a2, b2); the
    output bit is 0 when a1 b1 < a2 b2 lexicographically, 1 when greater, and
    nothing when equal. `consumed` counts positions of each string.
    """
    if len(x) != len(y):
        raise UsageError("pair_von_neumann needs equal-length inputs")
    first, second = _pairs(2 * x.to_array() + y.to_array())
    bits = BitString._adopt((first > second)[first != second].view(np.uint8))  # fresh bools
    return ExtractionOutput(bits, len(x))
