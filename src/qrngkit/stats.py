"""Statistical tests and estimators for generated bitstrings.

Everything here is a pure function of its inputs. Tests return TestReport
values; estimators return plain numbers or small result records. Block-based
tests use non-overlapping blocks throughout, which keeps cells independent
and matches the usual definition of the normality criterion.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bitstring import BitString
from .exact import ExactDistribution
from .errors import UsageError
from .extractors import xor_offset

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


def _block_values(bits: BitString, k: int) -> np.ndarray:
    """Integer values of the non-overlapping k-bit blocks, leftovers dropped."""
    blocks = len(bits) // k
    arr = bits.to_array()[: blocks * k].reshape(blocks, k)
    return arr @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))


def chi2_uniformity(bits: BitString, k: int, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Chi-squared test that non-overlapping k-bit blocks are uniform.

    2^k cells, 2^k - 1 degrees of freedom; the p-value comes from the
    regularized upper incomplete gamma function, good to ~1e-15 absolute, so
    extreme misfits report genuinely tiny p-values instead of a clipped zero.
    Requires at least 100 blocks worth of bits per cell count (100 * 2^k),
    and a significance level alpha strictly between 0 and 1.
    """
    if not 1 <= k <= 8:
        raise UsageError("block length k must lie in 1..8")
    _check_alpha(alpha)
    if len(bits) < 100 * (1 << k):
        raise UsageError(
            f"need at least {100 * (1 << k)} bits for k={k}, got {len(bits)}"
        )
    # scipy takes about 0.3 s to import; only this test needs it
    from scipy.special import gammaincc

    values = _block_values(bits, k)
    counts = np.bincount(values, minlength=1 << k)
    expected = values.size / (1 << k)
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = (1 << k) - 1
    p = float(gammaincc(dof / 2.0, stat / 2.0))
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
        values = _block_values(bits, k)
        freqs = np.bincount(values, minlength=1 << k) / values.size
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
    if n < 10_000:
        raise UsageError("need at least 10000 positions for a stable estimate")
    rate = xor_offset(x, y, 0).count(1) / n
    theta = math.asin(math.sqrt(min(max(rate, 0.0), 1.0)))
    return ThetaEstimate(theta, 1.0 / (2.0 * math.sqrt(n)), n, rate in (0.0, 1.0))


def empirical_distribution(values: np.ndarray, n: int) -> ExactDistribution:
    """Frequency-normalized law of n-bit samples, given as integer string values
    (each sample's `BitString.value`)."""
    if n < 1:
        raise UsageError("support length must be positive")
    size = 1 << n
    values = np.asarray(values).astype(np.int64, copy=False)
    if values.size == 0:
        raise UsageError("need at least one sample")
    if values.min() < 0 or values.max() >= size:
        raise UsageError(f"sample values outside the {n}-bit range")
    counts = np.bincount(values, minlength=size)
    return ExactDistribution(n, counts / values.size)
