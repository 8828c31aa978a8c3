"""Exact output distributions of the entangled-pair generator.

Three routes are kept deliberately separate so they can check each other.
The transfer route (`xor_distribution_transfer`, the one `qrngkit exact`
uses) runs a forward recursion over the pair chains the offset XOR reads.
The enumeration route (`joint_distribution`, `xor_distribution`) is the
oracle: it sums per-pair weights over the full outcome space and normalizes
by the brute total. The closed-form route (`pair_prob_table`, `marginal_bias`,
`xor_bias`, `xor_distribution_closed_form`) evaluates the analytic formulas
directly.

Single-pair law
---------------
With s = sin^2(theta), c = cos^2(theta) and efficiency weights e, a joint
outcome (a, b) of the two contexts has probability

    P(a, b) = s^(a XOR b) * c^(1 - a XOR b) * e_a_plus * e_b_times / Z1,

Z1 being the sum of the four numerators. Strings of n pairs are i.i.d.
across positions, so the n-pair law factorizes; the enumeration route does
not rely on that and recovers it as a property.

The offset-XOR output z (z_i = x_i XOR y_{i+j}, strings of length n + j) has
distribution `xor_distribution(n, j, cfg)`. At j = 0 it collapses to a
constantly biased product law, `xor_distribution_closed_form`; at j >= 1 and
equal efficiencies it is exactly uniform.

Transfer route
--------------
Output positions r, r + j, r + 2j, ... of one residue class mod j read only
the pairs r, r + j, r + 2j, ..., so the j classes are independent and the
law is the product of the j class laws. Within a class each position links
two consecutive pairs of the chain: z_i = x_i XOR y_{i+j}. Carrying the x bit
of the current pair as a two-state hidden chain, the forward recursion
(Rabiner 1989, Proc. IEEE 77(2)) starts at the x marginal and steps

    alpha'(a') = sum_s alpha(s) * P(a', s XOR z_i),

the class law being the final sum over states. This costs O(n 2^n) time
against the enumeration's O(4^(n+j)).

Dense storage: a distribution over n-bit strings is an array indexed by the
integer value of the string (leftmost bit most significant); a distribution
over pairs of strings is the corresponding 2-d array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import QrngConfig
from .errors import ResourceBudgetError, UsageError

__all__ = [
    "DENSE_LAW_CAP",
    "ENUMERATION_CAP",
    "BiasParams",
    "ExactDistribution",
    "pair_prob_table",
    "joint_distribution",
    "marginal_bias",
    "xor_bias",
    "xor_distribution",
    "xor_distribution_closed_form",
    "xor_distribution_transfer",
    "tv_distance",
    "l1_distance",
    "xor_expectation_quantum",
    "xor_expectation_classical",
]

# Enumerating the XOR'd law touches 2^(2(n+j)) weight terms; n + j = 12 keeps
# that at 2^24, a few seconds of array work. Callers may raise the cap, but
# the enumeration indexes strings as uint32 and never goes past 31 bits.
ENUMERATION_CAP = 12
# No dense law is built over more than 2^22 strings (32 MB per float64 array).
DENSE_LAW_CAP = 22

_NORMALIZATION_TOL = 1e-12


def _check_dense(n: int):
    if n > DENSE_LAW_CAP:
        raise ResourceBudgetError(
            f"a dense law over {n}-bit strings exceeds the ceiling of {DENSE_LAW_CAP} bits"
        )


@dataclass(frozen=True)
class BiasParams:
    """Zero/one probabilities of a constantly biased source."""

    p0: float
    p1: float

    def __post_init__(self):
        if self.p0 < 0 or self.p1 < 0:
            raise UsageError("bias probabilities must be non-negative")
        if abs(self.p0 + self.p1 - 1.0) > _NORMALIZATION_TOL:
            raise UsageError(f"bias probabilities must sum to 1, got {self.p0 + self.p1}")


class ExactDistribution:
    """Explicit mass function over n-bit strings or over pairs of them.

    `probs` has shape (2**n,) for a single-string law and (2**n, 2**n) for a
    joint law over (x, y). Index = integer value of the string.
    """

    __slots__ = ("n", "probs")

    def __init__(self, n: int, probs: np.ndarray):
        if n < 1:
            raise UsageError("support length must be positive")
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        size = 1 << n
        if probs.shape not in ((size,), (size, size)):
            raise UsageError(f"probs shape {probs.shape} does not match n={n}")
        if probs.min(initial=0.0) < 0.0:
            raise UsageError("negative mass")
        total = float(probs.sum())
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise UsageError(f"mass must sum to 1 within {_NORMALIZATION_TOL}, got {total!r}")
        probs.setflags(write=False)
        self.n = n
        self.probs = probs

    # --- constructors -----------------------------------------------------

    @classmethod
    def uniform(cls, n: int) -> "ExactDistribution":
        _check_dense(n)
        size = 1 << n
        return cls(n, np.full(size, 1.0 / size))

    @classmethod
    def from_bias(cls, bias: BiasParams, n: int) -> "ExactDistribution":
        """Product law of n independent draws from ``bias``."""
        _check_dense(n)
        ones = _popcounts(np.arange(1 << n, dtype=np.uint32))
        probs = (bias.p1 ** ones) * (bias.p0 ** (n - ones))
        return cls(n, probs)

    # --- accessors ----------------------------------------------------------

    @property
    def is_pair(self) -> bool:
        return self.probs.ndim == 2

    def deviation_from_uniform(self) -> np.ndarray:
        if self.is_pair:
            raise UsageError("uniform deviation is for single-string laws")
        return self.probs - 1.0 / (1 << self.n)


# --- closed forms ----------------------------------------------------------


def _pair_weights(cfg: QrngConfig):
    """Unnormalized single-pair weights w[a][b] and their fixed-order sum Z1."""
    s = math.sin(cfg.theta) ** 2
    c = math.cos(cfg.theta) ** 2
    w00 = c * cfg.e0_plus * cfg.e0_times
    w01 = s * cfg.e0_plus * cfg.e1_times
    w10 = s * cfg.e1_plus * cfg.e0_times
    w11 = c * cfg.e1_plus * cfg.e1_times
    z1 = w00 + w01 + w10 + w11
    return (w00, w01, w10, w11), z1


def pair_prob_table(cfg: QrngConfig) -> np.ndarray:
    """All four pair probabilities as a 2x2 array indexed [a, b]."""
    w, z1 = _pair_weights(cfg)
    return np.array(w, dtype=np.float64).reshape(2, 2) / z1


def marginal_bias(cfg: QrngConfig, side: str = "plus") -> BiasParams:
    """Bias of one string when the other is discarded.

    Each kept string is i.i.d. with

        p0 = e0 * (e1' * sin^2 + e0' * cos^2) / Z1,

    primes marking the discarded side's efficiencies; at theta = pi/4 (or
    equal efficiencies on the discarded side) this collapses to
    e0 / (e0 + e1).
    """
    (w00, w01, w10, w11), z1 = _pair_weights(cfg)
    if side == "plus":
        n0, n1 = w00 + w01, w10 + w11
    elif side == "times":
        n0, n1 = w00 + w10, w01 + w11
    else:
        raise UsageError("side must be 'plus' or 'times'")
    return BiasParams(n0 / z1, n1 / z1)


def xor_bias(cfg: QrngConfig) -> BiasParams:
    """Bias of a single XOR'd bit at offset zero.

    p1 = sin^2(theta) * (e0+ e1x + e1+ e0x) / Z1 and p0 is the complementary
    cos^2 term; the j = 0 output law is the product of these.
    """
    (w00, w01, w10, w11), z1 = _pair_weights(cfg)
    return BiasParams((w00 + w11) / z1, (w01 + w10) / z1)


def xor_distribution_closed_form(n: int, cfg: QrngConfig) -> ExactDistribution:
    """Closed form of the j = 0 XOR output law: mass(z) = p1^#1(z) * p0^#0(z)."""
    if n < 1:
        raise UsageError("n must be positive")
    return ExactDistribution.from_bias(xor_bias(cfg), n)


# --- transfer route ------------------------------------------------------------


def xor_distribution_transfer(
    n: int, j: int, cfg: QrngConfig, max_bits: int = ENUMERATION_CAP
) -> ExactDistribution:
    """Law of the offset-XOR output, by a forward recursion per residue class.

    Same law as `xor_distribution` (see the module docstring for the
    recursion). ``max_bits`` bounds n + j as it does there; n itself may not
    exceed DENSE_LAW_CAP. The law is built as an n-axis array of shape
    (2,) * n, axis i holding bit z_i, so each class's recursion only spans
    its own axes and the product of the class laws broadcasts to the whole.
    """
    if n < 1:
        raise UsageError("n must be positive")
    if j < 0:
        raise UsageError("offset j must be non-negative")
    if n + j > max_bits:
        raise ResourceBudgetError(
            f"offset-XOR law over n + j = {n + j} bits exceeds the budget of {max_bits}; "
            "raise max_bits explicitly if you really want this"
        )
    _check_dense(n)
    table = pair_prob_table(cfg)
    swapped = table[:, ::-1]  # swapped[a, z] = P(a, 1 - z)

    def along(axis: int, values: np.ndarray) -> np.ndarray:
        """``values[z]`` as an array that varies along output axis ``axis`` only."""
        shape = [1] * n
        shape[axis] = 2
        return values.reshape(shape)

    if j == 0:
        # P(x_i XOR y_i = z) = P(0, z) + P(1, 1 - z)
        factors = [along(i, table[0] + swapped[1]) for i in range(n)]
    else:
        factors = []
        for r in range(min(j, n)):
            alpha = table.sum(axis=1)  # the x marginal of the chain's first pair
            for i in range(r, n, j):
                alpha = [alpha[0] * along(i, table[a]) + alpha[1] * along(i, swapped[a])
                         for a in (0, 1)]
            factors.append(alpha[0] + alpha[1])
    # every axis i < n lies in class i mod j, so the product spans all n axes
    return ExactDistribution(n, functools.reduce(np.multiply, factors).reshape(-1))


# --- enumeration route -------------------------------------------------------


def _popcounts(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values).astype(np.int64)


def _check_budget(total_bits: int, cap: int):
    if total_bits > cap:
        raise ResourceBudgetError(
            f"enumeration over {total_bits}-bit strings exceeds the cap of {cap}; "
            "raise max_bits explicitly if you really want this"
        )
    if total_bits >= 32:
        raise ResourceBudgetError(
            f"enumeration over {total_bits}-bit strings is refused whatever max_bits says; "
            "it indexes strings as uint32"
        )


def _position_weights(m: int, cfg: QrngConfig):
    """Per-distance angle factors s^d c^(m-d) and per-string efficiency weights."""
    exps = np.arange(m + 1, dtype=np.float64)
    s = math.sin(cfg.theta) ** 2
    c = math.cos(cfg.theta) ** 2
    angle = (s ** exps) * (c ** exps[::-1])
    ones = _popcounts(np.arange(1 << m, dtype=np.uint32))
    wplus = (cfg.e0_plus ** (m - ones)) * (cfg.e1_plus ** ones)
    wtimes = (cfg.e0_times ** (m - ones)) * (cfg.e1_times ** ones)
    return angle, wplus, wtimes


def joint_distribution(n: int, cfg: QrngConfig, max_bits: int = ENUMERATION_CAP) -> ExactDistribution:
    """Joint law of the two n-bit strings, by full enumeration.

    The weight of (x, y) is s^d * c^(n-d) times the per-detector efficiency
    weights, d the Hamming distance; normalization divides by the brute sum
    of all 4^n weights rather than by the analytic Z1^n, so this stays an
    independent oracle for the closed forms.
    """
    if n < 1:
        raise UsageError("n must be positive")
    _check_budget(n, max_bits)
    values = np.arange(1 << n, dtype=np.uint32)
    angle, wplus, wtimes = _position_weights(n, cfg)
    d = np.bitwise_count(values[:, None] ^ values[None, :])
    weights = angle[d] * wplus[:, None] * wtimes[None, :]
    return ExactDistribution(n, weights / weights.sum())


class _KahanArray:
    """Per-index compensated accumulator; merge order is the caller's block order."""

    def __init__(self, size: int):
        self.total = np.zeros(size)
        self._comp = np.zeros(size)

    def add(self, part: np.ndarray):
        y = part - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


def xor_distribution(
    n: int, j: int, cfg: QrngConfig, max_bits: int = ENUMERATION_CAP
) -> ExactDistribution:
    """Law of the offset-XOR output, by full enumeration.

    Every pair (x, y) of (n+j)-bit strings contributes its joint-law weight to
    the n-bit string z with z_i = x_i XOR y_{i+j}; x's trailing j bits and y's
    leading j bits are marginalized out. Enumeration runs over fixed-size
    blocks of x values with compensated cross-block accumulation, so results
    do not depend on the block partitioning. Within a block the y columns run
    with y's leading j bits fastest, so those are summed out along the
    contiguous axis (numpy sums that pairwise) before the sum by z.
    """
    if n < 1:
        raise UsageError("n must be positive")
    if j < 0:
        raise UsageError("offset j must be non-negative")
    m = n + j
    _check_budget(m, max_bits)
    values = np.arange(1 << m, dtype=np.uint32)
    angle, wplus, wtimes = _position_weights(m, cfg)
    z_of_x = values >> np.uint32(j)  # leading n bits of x
    # column c holds y = (c's low j bits, then c's high n bits): y's trailing
    # n bits are c >> j
    y_cols = ((values & np.uint32((1 << j) - 1)) << np.uint32(n)) | (values >> np.uint32(j))
    wtimes_cols = wtimes[y_cols]
    z_of_y = np.arange(1 << n, dtype=np.uint32)

    acc = _KahanArray(1 << n)
    block_totals = []
    rows_per_block = max(1, (1 << 22) >> m)
    for start in range(0, 1 << m, rows_per_block):
        stop = min(start + rows_per_block, 1 << m)
        d = np.bitwise_count(values[start:stop, None] ^ y_cols[None, :])
        w = angle[d] * wplus[start:stop, None] * wtimes_cols[None, :]
        w = w.reshape(stop - start, 1 << n, 1 << j).sum(axis=2)
        # row r's weight for z sits in column z ^ (x's leading bits); gather
        # into [z, r] order so the sum over rows is contiguous too
        rows = np.arange(stop - start)
        aligned = w[rows[None, :], z_of_y[:, None] ^ z_of_x[None, start:stop]]
        acc.add(aligned.sum(axis=1))
        block_totals.append(float(w.sum()))
    z_total = math.fsum(block_totals)
    return ExactDistribution(n, acc.total / z_total)


# --- distances and expectation curves ---------------------------------------


def _check_same_support(d1: ExactDistribution, d2: ExactDistribution):
    if d1.n != d2.n or d1.is_pair != d2.is_pair:
        raise UsageError("distributions must share support")


def tv_distance(d1: ExactDistribution, d2: ExactDistribution) -> float:
    """Total variation distance, half the L1 distance; lies in [0, 1]."""
    _check_same_support(d1, d2)
    return 0.5 * float(np.abs(d1.probs - d2.probs).sum())


def l1_distance(d1: ExactDistribution, d2: ExactDistribution) -> float:
    """Unhalved sum of absolute mass differences (twice `tv_distance`)."""
    _check_same_support(d1, d2)
    return float(np.abs(d1.probs - d2.probs).sum())


def _check_theta_range(theta: float):
    if not 0.0 <= theta <= math.pi / 2:
        raise UsageError(f"theta must lie in [0, pi/2], got {theta}")


def xor_expectation_quantum(theta: float) -> float:
    """(1 + cos 2*theta)/2: the probability that an XOR'd bit equals 0.

    Note the convention: this is the equal-outcomes probability cos^2(theta),
    which is 1 at theta = 0, not the mean of the XOR bits (their mean is the
    complement, sin^2(theta); the count of ones of `xor_offset(x, y, 0)` over
    its length estimates that one).
    """
    _check_theta_range(theta)
    return 0.5 * (1.0 + math.cos(2.0 * theta))


def xor_expectation_classical(theta: float) -> float:
    """The linear benchmark 1 - 2*theta/pi; meets the quantum curve only at
    0, pi/4 and pi/2."""
    _check_theta_range(theta)
    return 1.0 - 2.0 * theta / math.pi

