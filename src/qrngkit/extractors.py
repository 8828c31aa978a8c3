"""Bitstring post-processing: offset-XOR, von Neumann, Peres, pair-compare.

Every extractor exists in two forms: a one-shot function returning an
ExtractionOutput (plain BitString for xor_offset), and a streaming class with
feed()/finish() that takes its input in chunks. Splitting the input
differently never changes the concatenated output. Between chunks the
offset XOR carries at most j bits and the pair comparison one value; Peres
holds the output of its deeper levels until finish(), so its memory grows
with the input.

Von Neumann, Peres and the pair comparison share one pairing core that works
on uint8 arrays; their one-shot forms run the streaming classes, and von
Neumann is Peres at depth 1. `xor_offset` is a separate Python-integer route,
so it and XorOffsetExtractor serve as each other's test oracle. BitString
appears only at the public edge.

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
    "XorOffsetExtractor",
    "PeresExtractor",
    "PairVonNeumannExtractor",
]

_NO_BITS = np.zeros(0, dtype=np.uint8)


@dataclass(frozen=True)
class ExtractionOutput:
    """Extractor result with position accounting.

    `consumed` counts input positions taken in (per string, for the two-string
    extractor); every consumed position either survives into `bits` or is
    counted in `discarded`, including odd leftovers at a pairing stage.
    """

    bits: BitString
    consumed: int
    discarded: int

    def __post_init__(self):
        if self.discarded < 0 or len(self.bits) + self.discarded != self.consumed:
            raise UsageError("extraction accounting does not add up")


# --- offset XOR ---------------------------------------------------------------


def xor_offset(x: BitString, y: BitString, j: int = 0) -> BitString:
    """Combine z_i = x_i XOR y_(i+j); inputs of length n + j give n bits (empty ones need j = 0)."""
    if len(x) != len(y):
        raise UsageError("xor_offset needs equal-length inputs")
    if not 0 <= j < max(len(x), 1):
        raise UsageError(f"offset must satisfy 0 <= j < {max(len(x), 1)}, got {j}")
    n = len(x) - j
    return BitString.from_index((x.value >> j) ^ (y.value & ((1 << n) - 1)), n)


class XorOffsetExtractor:
    """Streaming offset-XOR over two aligned chunk streams.

    Each feed takes equally long chunks of both strings; a bit x_i becomes
    available once y_(i+j) has arrived, so up to j leading x bits are carried
    between calls and the final j trailing x bits never pair up.
    """

    def __init__(self, j: int = 0):
        if j < 0:
            raise UsageError("offset must be non-negative")
        self.j = j
        self._x_pending = _NO_BITS
        self.consumed = 0
        self.emitted = 0

    def feed(self, x_chunk: BitString, y_chunk: BitString) -> BitString:
        if len(x_chunk) != len(y_chunk):
            raise UsageError("chunks must have equal length")
        L = len(x_chunk)
        xs = np.concatenate([self._x_pending, x_chunk.to_array()])
        emit = min(self.consumed + L - self.j, L) if self.consumed + L > self.j else 0
        self.consumed += L
        if emit <= 0:
            self._x_pending = xs
            return BitString()
        out = xs[:emit] ^ y_chunk.to_array()[L - emit :]
        self._x_pending = xs[emit:]
        self.emitted += emit
        return BitString.from_array(out)

    def finish(self) -> BitString:
        return BitString()


# --- pairing core ----------------------------------------------------------------


class _Pairing:
    """Consecutive-pair state shared by the pairwise extractors.

    Values arrive as uint8 arrays; an odd trailing value waits for the next
    feed and is dropped by finish().
    """

    def __init__(self):
        self._odd = _NO_BITS
        self.consumed = 0
        self.emitted = 0

    def _pairs(self, values: np.ndarray) -> np.ndarray:
        """The held value then ``values``, as an (m, 2) array of consecutive pairs."""
        self.consumed += values.size
        if self._odd.size:
            values = np.concatenate([self._odd, values])
        m = values.size // 2
        self._odd = values[2 * m :].copy()
        return values[: 2 * m].reshape(m, 2)

    def finish(self) -> BitString:
        self._odd = _NO_BITS
        return BitString()


class PeresExtractor(_Pairing):
    """Iterated von Neumann (Peres 1992).

    Level one emits the usual 01/10 bits as they appear. The pair parities
    feed one child extractor and the values of equal pairs feed another, each
    one level shallower; their output follows all level-one bits, so it is
    held back until finish(). That is most of the output: at depth 4, 2e6
    Bernoulli(0.7) bits fed in 1e4-bit chunks emit about 0.42e6 bits from
    feed() and 0.75e6 from finish(). A child is built on its first non-empty
    input, and each level gets at most half the bits of the one above, so only
    about log2(n) levels ever exist whatever the depth. depth 1 is von Neumann.
    """

    def __init__(self, depth: int = 4):
        if depth < 1:
            raise UsageError("depth must be at least 1")
        super().__init__()
        self.depth = depth
        self._children: list[PeresExtractor | None] = [None, None]  # parity, equal
        self._held: tuple[list, list] = ([], [])

    def _feed(self, values: np.ndarray) -> np.ndarray:
        pairs = self._pairs(values)
        unequal = pairs[:, 0] != pairs[:, 1]
        out = pairs[unequal, 0]
        self.emitted += out.size
        if self.depth > 1:
            streams = (pairs[:, 0] ^ pairs[:, 1], pairs[~unequal, 0])
            for i, stream in enumerate(streams):
                if stream.size:
                    if self._children[i] is None:
                        self._children[i] = PeresExtractor(self.depth - 1)
                    self._held[i].append(self._children[i]._feed(stream))
        return out

    def _finish(self) -> np.ndarray:
        self._odd = _NO_BITS
        parts = []
        for child, held in zip(self._children, self._held):
            if child is not None:
                parts += held
                parts.append(child._finish())
        self._children = [None, None]
        self._held = ([], [])
        tail = np.concatenate(parts) if parts else _NO_BITS
        self.emitted += tail.size
        return tail

    def feed(self, chunk: BitString) -> BitString:
        return BitString.from_array(self._feed(chunk.to_array()))

    def finish(self) -> BitString:
        return BitString.from_array(self._finish())


def peres(z: BitString, depth: int = 4) -> ExtractionOutput:
    ext = PeresExtractor(depth)
    bits = BitString.from_array(np.concatenate([ext._feed(z.to_array()), ext._finish()]))
    return ExtractionOutput(bits, len(z), len(z) - len(bits))


def von_neumann(z: BitString) -> ExtractionOutput:
    return peres(z, 1)


# --- pair comparison over two strings -------------------------------------------


class PairVonNeumannExtractor(_Pairing):
    """Two-string debiaser over consecutive position-pairs.

    Positions 2i and 2i+1 supply outcome pairs (a1, b1) and (a2, b2); the
    output bit is 0 when a1 b1 < a2 b2 lexicographically, 1 when greater, and
    nothing when equal.
    """

    def feed(self, x_chunk: BitString, y_chunk: BitString) -> BitString:
        if len(x_chunk) != len(y_chunk):
            raise UsageError("chunks must have equal length")
        pairs = self._pairs(2 * x_chunk.to_array() + y_chunk.to_array())
        first, second = pairs[:, 0], pairs[:, 1]
        out = (first > second)[first != second]
        self.emitted += out.size
        return BitString.from_array(out)


def pair_von_neumann(x: BitString, y: BitString) -> ExtractionOutput:
    """One-shot pair comparison; `consumed` counts positions of each string."""
    if len(x) != len(y):
        raise UsageError("pair_von_neumann needs equal-length inputs")
    bits = PairVonNeumannExtractor().feed(x, y)
    return ExtractionOutput(bits, len(x), len(x) - len(bits))
