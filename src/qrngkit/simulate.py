"""Monte Carlo pair source and the stream-level transforms.

Randomness comes from numpy's Philox counter-based generator keyed by the
two words [seed, stage], so identical (n, cfg, seed) always reproduce the
same stream byte for byte, and no stage of one seed shares a key with any
stage of another. Sampling is stage 0 (the same draws as the key seed alone)
and double counting stage 1. The draw order is part of the contract:

* ideal mode: inter-arrival gaps, then one outcome uniform per pair;
* physical mode: gaps, plus-context outcome uniforms, anti-correlation flip
  uniforms, plus-detection uniforms, times-detection uniforms;
* double counting: one uniform per record except the last.

`run_pipeline` chains the configured imperfections in fixed order: sampling,
double counting, dead-time filtering, demon filtering.
The demon acts on the offset-0 XOR bit of each record, so rejected bits drop
whole records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstring import BitString
from .config import QrngConfig
from .errors import ResourceBudgetError, UsageError
from .streams import PairStream

__all__ = [
    "SimulationResult",
    "sample_pairs",
    "sample_pairs_physical",
    "apply_double_counting",
    "dead_time_filter",
    "demon_modulus",
    "demon_filter",
    "run_pipeline",
]


@dataclass(frozen=True)
class SimulationResult:
    """A generated stream plus the bookkeeping needed to audit losses."""

    records: PairStream
    generated: int
    dropped_undetected: int
    dropped_dead_time: int
    dropped_demon: int
    seed: int

    def __post_init__(self):
        lost = self.dropped_undetected + self.dropped_dead_time + self.dropped_demon
        if len(self.records) + lost != self.generated:
            raise UsageError("drop counters do not add up to the generation count")

    def counters(self) -> dict:
        return {
            "generated": self.generated,
            "kept": len(self.records),
            "dropped_undetected": self.dropped_undetected,
            "dropped_dead_time": self.dropped_dead_time,
            "dropped_demon": self.dropped_demon,
            "seed": self.seed,
        }


_SAMPLING, _DOUBLE_COUNTING = 0, 1
PAIR_CAP = 2**25  # a run peaks at 30-41 B per pair, so at most about 1.4 GB
_CHUNK = 1 << 14  # rows per step of both samplers and per tolist() in _scalars


def _generator(seed: int, stage: int) -> np.random.Generator:
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"seed must lie in [0, 2**64), got {seed}")
    # a list key would pass through float64 above 2**63, where distinct seeds round together
    return np.random.Generator(np.random.Philox(key=np.array([seed, stage], dtype=np.uint64)))


def _arrival_times(n: int, cfg: QrngConfig, rng: np.random.Generator) -> np.ndarray:
    with np.errstate(over="ignore"):
        times = np.cumsum(rng.exponential(cfg.mean_pair_interval, n))
    if not math.isfinite(times[-1]):
        raise UsageError(f"arrival times of {n} pairs at mean_pair_interval "
                         f"{cfg.mean_pair_interval} overflow float64")
    # an extremely short gap can round away in the cumsum; nudge such times up
    bad = np.flatnonzero(np.diff(times) <= 0.0)
    while bad.size:
        for i in bad:
            times[i + 1] = np.nextafter(times[i], math.inf)
        bad = np.flatnonzero(np.diff(times) <= 0.0)
    return times


def _check_n(n: int):
    if n < 1:
        raise UsageError("pair count must be positive")
    if n > PAIR_CAP:
        raise ResourceBudgetError(f"count {n} exceeds the per-run budget of {PAIR_CAP}")


def sample_pairs(n: int, cfg: QrngConfig, seed: int) -> SimulationResult:
    """Draw n pairs straight from the detected-pair law.

    Each record's outcomes follow `exact.pair_prob` evaluated with the
    efficiencies in force at the record's arrival time, so a configured drift
    shows up as a slowly wandering bias.
    """
    _check_n(n)
    rng = _generator(seed, _SAMPLING)
    times = _arrival_times(n, cfg, rng)
    u = rng.random(n)
    s = math.sin(cfg.theta) ** 2
    c = math.cos(cfg.theta) ** 2
    cell = np.empty(n, dtype=np.uint8)
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        e0p, e1p, e0t, e1t = cfg.efficiency_columns(times[rows])
        # the running sums of the four cell weights, added in cumsum's order
        c0 = c * e0p * e0t
        c1 = c0 + s * e0p * e1t
        c2 = c1 + s * e1p * e0t
        x = u[rows] * (c2 + c * e1p * e1t)
        # the sums never fall, so x >= c3 holds only where the cell is already the top one, 3
        np.greater_equal(x, c0, out=cell[rows])
        cell[rows] += x >= c1
        cell[rows] += x >= c2
    a = cell >> 1
    b = cell & 1
    return SimulationResult(PairStream(times, a, b), n, 0, 0, 0, seed)


def sample_pairs_physical(n: int, cfg: QrngConfig, seed: int) -> SimulationResult:
    """Draw n raw singlet pairs and keep only coincident detections.

    The plus context outcome is a fair coin; the times context flips it with
    probability sin^2(theta); each photon is then detected with its detector's
    efficiency and pairs missing a detection are dropped. Conditioned on
    keeping, outcomes follow the same law as `sample_pairs` (checked as a
    test property, not assumed here).
    """
    _check_n(n)
    rng = _generator(seed, _SAMPLING)
    times = _arrival_times(n, cfg, rng)
    s = math.sin(cfg.theta) ** 2
    a = (rng.random(n) < 0.5).astype(np.uint8)
    b = a ^ (rng.random(n) < s).astype(np.uint8)
    u_plus, u_times = rng.random(n), rng.random(n)
    detected = np.empty(n, dtype=bool)
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        e0p, e1p, e0t, e1t = cfg.efficiency_columns(times[rows])
        np.less(u_plus[rows], np.where(a[rows] == 0, e0p, e1p), out=detected[rows])
        detected[rows] &= u_times[rows] < np.where(b[rows] == 0, e0t, e1t)
    stream = PairStream(times[detected], a[detected], b[detected])
    return SimulationResult(stream, n, n - len(stream), 0, 0, seed)


def apply_double_counting(stream: PairStream, p_dc: float, seed: int) -> PairStream:
    """Replace each times outcome by the next record's, with probability p_dc.

    Models a detector pairing a photon with one from the following pair. The
    substituted values are the original neighbours (no cascading), the last
    record has no neighbour and is never touched, and the stream length is
    preserved. The swap uniforms come from stage 1 of ``seed``, so they never
    repeat the sampling draws of any seed.
    """
    if not 0.0 <= p_dc <= 1.0:
        raise UsageError("double-count probability must lie in [0, 1]")
    if p_dc == 0.0 or len(stream) <= 1:
        return stream
    rng = _generator(seed, _DOUBLE_COUNTING)
    swap = rng.random(len(stream) - 1) < p_dc
    b = stream.b.copy()
    b[:-1][swap] = stream.b[1:][swap]
    return PairStream(stream.t, stream.a, b)


def _scalars(*columns):
    """Rows of the columns as Python scalars, converted a chunk at a time to bound memory."""
    for lo in range(0, len(columns[0]), _CHUNK):
        yield from zip(*(c[lo : lo + _CHUNK].tolist() for c in columns))


def dead_time_filter(stream: PairStream, T_d: float) -> PairStream:
    """Drop records closer than T_d to the previously kept record.

    Comparisons are against the last *kept* time, which makes the filter
    idempotent; the first record is always kept.
    """
    if T_d < 0:
        raise UsageError("dead time must be non-negative")
    if T_d == 0.0 or len(stream) <= 1:
        return stream
    t = stream.t
    # Stateless fates: a gap > T_d keeps a record (t[i] - last >= t[i] - t[i-1]
    # in floats too); a gap <= T_d after a kept record drops it. The rest follow
    # a dropped record and loop, in runs that each start 2 after a kept record.
    keep = np.ones(len(stream), dtype=bool)
    keep[1:] = np.diff(t) > T_d
    chained = np.flatnonzero(~keep[1:-1] & ~keep[2:]) + 2
    run_start = np.diff(chained, prepend=-1) != 1
    for i, ti, anchor, start in _scalars(chained, t[chained], t[chained - 2], run_start):
        if start:
            last = anchor
        if ti - last > T_d:
            last = ti
            keep[i] = True
    return PairStream(t[keep], stream.a[keep], stream.b[keep])


def demon_modulus(rho: float) -> int:
    """Forced-zero spacing k = ceil(1/(1-rho)).

    The quotient is computed with a one-ulp-scale backoff so budgets like 0.8,
    whose reciprocal lands a rounding error above the exact integer 5, do not
    get bumped to the next slot width.
    """
    if not 0.0 < rho < 1.0:
        raise UsageError("demon efficiency budget must lie strictly in (0, 1)")
    return math.ceil((1.0 / (1.0 - rho)) * (1.0 - 1e-12))


def _demon_kept_indices(bits: np.ndarray, rho: float) -> np.ndarray:
    """Input indices surviving the forced-zero rule of budget rho."""
    k = demon_modulus(rho)
    # Zeros always pass. q counts the inputs still to land before the next
    # forced slot; each passing bit counts it down mod k. Once a run of ones
    # meets q = 0, the rest of the run drops on that slot and the zero that
    # ends the run fills it, so the loop steps over whole runs of ones.
    edges = np.flatnonzero(np.diff(bits.astype(bool), prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    q, run, cut_runs, cut_offsets = k - 1, 0, [], []
    for zeros, ones in _scalars(starts - np.append(0, ends[:-1]), ends - starts):
        q = (q - zeros) % k
        if ones > q:
            cut_runs.append(run)
            cut_offsets.append(q)
            q = 0
        else:
            q -= ones
        run += 1
    # the dropped stretches are disjoint, so a running sum of +1/-1 at their ends marks them
    marks = np.zeros(len(bits) + 1, dtype=np.int8)
    marks[starts[cut_runs] + np.array(cut_offsets, dtype=np.intp)] = 1
    marks[ends[cut_runs]] = -1
    return np.flatnonzero(np.cumsum(marks[:-1], dtype=np.int8) == 0)


def demon_filter(bits: BitString, rho: float) -> BitString:
    """Reject ones so that every k-th output bit is zero, k = ceil(1/(1-rho)).

    This is the fair-sampling adversary: within a rejection budget rho it
    plants an all-zero arithmetic subsequence (output positions k, 2k, ...,
    counting from 1) by discarding input ones that land on those slots. All
    other bits pass through in order. The construction is deterministic. If
    the input runs out while a forced slot waits for a zero, the output simply
    ends there.
    """
    arr = bits.to_array()
    kept = _demon_kept_indices(arr, rho)
    return BitString.from_array(arr[kept])


def run_pipeline(
    n: int, cfg: QrngConfig, seed: int, mode: str = "ideal"
) -> SimulationResult:
    """Generate n raw pairs and push them through the configured transforms.

    Stages run in a fixed order: sampling (ideal or physical), double
    counting when cfg.double_count_prob > 0, dead-time filtering when
    cfg.dead_time_Td > 0, then the demon when cfg.demon_rho is set. The demon
    consumes the stream's offset-0 XOR bits, so a rejected bit removes its
    whole record.
    """
    if mode == "ideal":
        result = sample_pairs(n, cfg, seed)
    elif mode == "physical":
        result = sample_pairs_physical(n, cfg, seed)
    else:
        raise UsageError(f"unknown simulation mode {mode!r}")
    stream = apply_double_counting(result.records, cfg.double_count_prob, seed)
    stream = dead_time_filter(stream, cfg.dead_time_Td)
    dropped_dead = len(result.records) - len(stream)  # double counting keeps the length
    dropped_demon = 0
    if cfg.demon_rho is not None and len(stream):
        kept = _demon_kept_indices(stream.a ^ stream.b, cfg.demon_rho)
        dropped_demon = len(stream) - kept.size
        stream = PairStream(stream.t[kept], stream.a[kept], stream.b[kept])
    return SimulationResult(
        stream, n, result.dropped_undetected, dropped_dead, dropped_demon, seed
    )
