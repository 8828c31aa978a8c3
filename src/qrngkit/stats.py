"""Statistical tests and estimators for generated bitstrings.

Everything here is a pure function of its inputs. Tests return TestReport
values; estimators return plain numbers or small result records. Block-based
tests use non-overlapping blocks throughout, which keeps cells independent
and matches the usual definition of the normality criterion. `_chi2` is the
package's one chi-squared route; `chi2_uniformity` is its uniform case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bitstring import BitString
from .exact import ExactDistribution, _check_dense
from .errors import UsageError
from .extractors import xor_offset
from .streams import _CHUNK

__all__ = [
    "TestReport",
    "ThetaEstimate",
    "chi2_uniformity",
    "borel_normality",
    "correlation_estimate",
    "estimate_theta",
    "empirical_distribution",
]

DEFAULT_ALPHA = 0.01
CHI2_BITS_PER_CELL = 100  # chi2_uniformity over k-bit blocks needs CHI2_BITS_PER_CELL << k bits
THETA_MIN_POSITIONS = 10_000  # estimate_theta needs at least this many positions


def _check_alpha(alpha: float) -> float:
    """The significance level itself, if it lies strictly between 0 and 1 (NaN does not)."""
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"significance level must lie strictly between 0 and 1, got {alpha!r}")
    return alpha


@dataclass(frozen=True)
class TestReport:
    __test__ = False  # not a pytest class, despite the name

    test_name: str
    statistic: float
    p_value: float | None
    passed: bool
    sample_size: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise UsageError("p-value outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "test": self.test_name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "passed": self.passed,
            "sample_size": self.sample_size,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class ThetaEstimate:
    theta: float
    stderr: float
    sample_size: int
    at_boundary: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _block_counts(bits: BitString, k: int) -> np.ndarray:
    """Counts of the 2^k values of the non-overlapping k-bit blocks, leftovers dropped."""
    blocks = len(bits) // k
    arr = bits.to_array()[: blocks * k].reshape(blocks, k)
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(1 << k, dtype=np.int64)
    # a chunk at a time, so the int64 temporaries of the product hold one chunk of blocks
    for lo in range(0, blocks, _CHUNK):
        counts += np.bincount(arr[lo : lo + _CHUNK] @ weights, minlength=1 << k)
    return counts


def _chi2_tail(df: int, stat: float) -> float:
    """Q(df/2, stat/2), the chi-squared tail on df degrees of freedom, in closed form
    (DLMF 8.4): erfc(sqrt(x)) for odd df, plus x^s e^-x / Gamma(s + 1) for s = 0 or 1/2
    up to df/2 - 1, each term taken in log space and added in that fixed order. Every
    term is positive, so nothing cancels; near 0 the sum can round one ulp over 1."""
    x, s0 = stat / 2.0, (df % 2) / 2.0
    if x == 0.0 or x == math.inf:
        return float(x == 0.0)  # log(0) raises; at inf the terms would be inf - inf
    q = math.erfc(math.sqrt(x)) if s0 else 0.0
    for i in range(df // 2):
        q += math.exp((s0 + i) * math.log(x) - x - math.lgamma(s0 + i + 1.0))
    return min(q, 1.0)


def _chi2(counts, probs) -> tuple[float, float]:
    """Pearson's chi-squared statistic of counts against cell masses, and its p-value on
    len(counts) - 1 degrees of freedom from `_chi2_tail`, within 2e-13 relative up to
    df 255, so extreme misfits report tiny p-values, not a clipped zero.
    Every cell needs a positive finite mass: a zero mass would divide by zero."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if counts.shape != probs.shape or not (np.isfinite(probs) & (probs > 0)).all():
        raise UsageError("chi-squared needs one positive finite mass per count")
    expected = counts.sum() * probs
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, _chi2_tail(counts.size - 1, stat)


def chi2_uniformity(bits: BitString, k: int, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Chi-squared test that non-overlapping k-bit blocks are uniform: `_chi2` over 2^k
    cells of mass 2^-k. Requires at least CHI2_BITS_PER_CELL << k bits, and a
    significance level alpha strictly between 0 and 1."""
    if not 1 <= k <= 8:
        raise UsageError("block length k must lie in 1..8")
    _check_alpha(alpha)
    if len(bits) < CHI2_BITS_PER_CELL << k:
        raise UsageError(f"need at least {CHI2_BITS_PER_CELL << k} bits for k={k}, got {len(bits)}")
    stat, p = _chi2(_block_counts(bits, k), np.full(1 << k, 0.5 ** k))
    return TestReport(
        "chi2_uniformity", stat, p, p >= alpha, len(bits), {"k": k, "alpha": alpha}
    )


def borel_normality(bits: BitString) -> list[TestReport]:
    """Check all k-block frequencies against the finite-sample normality bound.

    For every k up to log2(log2(n)), each non-overlapping k-block frequency
    must deviate from 2^-k by strictly less than sqrt(log2(n)/n). Returns one
    report per k; the statistic is the worst deviation. There is no p-value,
    the bound itself is the criterion.
    """
    n = len(bits)
    if n < 64:
        raise UsageError("need at least 64 bits")
    k_max = int(math.floor(math.log2(math.log2(n))))
    bound = math.sqrt(math.log2(n) / n)
    reports = []
    for k in range(1, k_max + 1):
        counts = _block_counts(bits, k)
        freqs = counts / counts.sum()
        worst = float(np.abs(freqs - 0.5 ** k).max())
        reports.append(
            TestReport(
                "borel_normality", worst, None, worst < bound, n, {"k": k, "bound": bound}
            )
        )
    return reports


def correlation_estimate(x: BitString, y: BitString) -> float:
    """(#equal - #different)/n over aligned positions; lies in [-1, 1]."""
    if len(x) != len(y) or len(x) == 0:
        raise UsageError("need equal-length non-empty strings")
    d = xor_offset(x, y, 0).count(1)
    return (len(x) - 2 * d) / len(x)


def estimate_theta(x: BitString, y: BitString) -> ThetaEstimate:
    """Invert the misalignment angle from the observed disagreement rate.

    Disagreements occur at rate sin^2(theta), so theta = arcsin(sqrt(rate)).
    The delta-method standard error is 1/(2 sqrt(n)) independent of the rate;
    a rate of exactly 0 or 1 pins the estimate to the boundary and sets the
    flag, since no finite-sample error bar is meaningful there.
    """
    if len(x) != len(y):
        raise UsageError("need equal-length strings")
    n = len(x)
    if n < THETA_MIN_POSITIONS:
        raise UsageError(f"need at least {THETA_MIN_POSITIONS} positions for a stable estimate")
    rate = xor_offset(x, y, 0).count(1) / n
    theta = math.asin(math.sqrt(min(max(rate, 0.0), 1.0)))
    return ThetaEstimate(theta, 1.0 / (2.0 * math.sqrt(n)), n, rate in (0.0, 1.0))


def empirical_distribution(values: np.ndarray, n: int) -> ExactDistribution:
    """Frequency-normalized law of n-bit samples, given as integer string values:
    each sample's bits read as a binary number, leftmost bit most significant."""
    if n < 1:
        raise UsageError("support length must be positive")
    _check_dense(n)
    size = 1 << n
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise UsageError(f"samples must be integer string values, got dtype {values.dtype}")
    values = values.astype(np.int64, copy=False)
    if values.size == 0:
        raise UsageError("need at least one sample")
    if values.min() < 0 or values.max() >= size:
        raise UsageError(f"sample values outside the {n}-bit range")
    counts = np.bincount(values, minlength=size)
    return ExactDistribution(n, counts / values.size)
