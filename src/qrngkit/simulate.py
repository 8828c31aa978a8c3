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
double counting, dead-time filtering, demon filtering. Each stage after sampling
returns only its decision, a new times column or the indices it keeps, and
`run_pipeline` gathers the columns once into the one result stream. The demon
acts on the offset-0 XOR bit of each record, so rejected bits drop whole records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bitstring import BitString
from .config import QrngConfig
from .errors import ResourceBudgetError, UsageError
from .exact import _cell_weights
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
PAIR_CAP = 2**25  # a run peaks at 30-38 B per pair, so at most about 1.3 GB
_CHUNK = 1 << 14  # rows per step of both samplers and per tolist() in _scalars


def _generator(seed: int, stage: int) -> np.random.Generator:
    # the uint64 cast below would turn 1.5 or True into seed 1
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise UsageError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"seed must lie in [0, 2**64), got {seed}")
    # a list key would pass through float64 above 2**63, where distinct seeds round together
    return np.random.Generator(np.random.Philox(key=np.array([seed, stage], dtype=np.uint64)))


def _arrival_times(n: int, cfg: QrngConfig, seed: int) -> tuple[np.random.Generator, np.ndarray]:
    """Stage 0 of ``seed``: its generator and the n arrival times it draws first.

    The times are the running sum of exponential gaps. A time that a too-short gap
    leaves at or below the one before is set one ulp above it, so the times increase.
    """
    _check_n(n)
    rng = _generator(seed, _SAMPLING)
    with np.errstate(over="ignore"):
        times = np.cumsum(rng.exponential(cfg.mean_pair_interval, n))
    if not math.isfinite(times[-1]):
        raise UsageError(f"arrival times of {n} pairs at mean_pair_interval "
                         f"{cfg.mean_pair_interval} overflow float64")
    if (np.diff(times) <= 0.0).any():
        # finite floats >= 0 order as their int64 bit patterns, and nextafter adds 1
        # to the pattern; so with u = pattern - i the rule is u'[i] = max(u[i], u'[i-1])
        shift = np.arange(n, dtype=np.int64)
        times = (np.maximum.accumulate(times.view(np.int64) - shift) + shift).view(np.float64)
    return rng, times


def _check_n(n: int):
    if n < 1:
        raise UsageError("pair count must be positive")
    if n > PAIR_CAP:
        raise ResourceBudgetError(f"count {n} exceeds the per-run budget of {PAIR_CAP}")


def sample_pairs(n: int, cfg: QrngConfig, seed: int) -> SimulationResult:
    """Draw n pairs straight from the detected-pair law.

    Each record's outcomes follow the cell weights of `exact.pair_prob_table`
    evaluated with the efficiencies in force at the record's arrival time, so a
    configured drift shows up as a slowly wandering bias.
    """
    rng, times = _arrival_times(n, cfg, seed)
    u = rng.random(n)
    cell = np.empty(n, dtype=np.uint8)
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        weights = _cell_weights(cfg.theta, *cfg.efficiency_columns(times[rows]))
        # the running sums of the four cell weights, added in cumsum's order
        c0, c1, c2, c3 = itertools.accumulate(weights)
        x = u[rows] * c3
        # the sums never fall, so x >= c3 holds only where the cell is already the top one, 3
        np.greater_equal(x, c0, out=cell[rows])
        cell[rows] += x >= c1
        cell[rows] += x >= c2
    return SimulationResult(PairStream(times, cell >> 1, cell & 1), n, 0, 0, 0, seed)


def sample_pairs_physical(n: int, cfg: QrngConfig, seed: int) -> SimulationResult:
    """Draw n raw singlet pairs and keep only coincident detections.

    The plus context outcome is a fair coin; the times context flips it with
    probability sin^2(theta); each photon is then detected with its detector's
    efficiency and pairs missing a detection are dropped. Conditioned on
    keeping, outcomes follow the same law as `sample_pairs` (checked as a
    test property, not assumed here).
    """
    rng, times = _arrival_times(n, cfg, seed)
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


def apply_double_counting(b: np.ndarray, p_dc: float, seed: int) -> np.ndarray:
    """Times column ``b`` with each outcome replaced by the next record's, with probability p_dc.

    Models a detector pairing a photon with one from the following pair. The
    substituted values are the original neighbours (no cascading), the last
    record has no neighbour and is never touched, and the length is preserved.
    The swap uniforms come from stage 1 of ``seed``, so they never repeat the
    sampling draws of any seed.
    """
    if not 0.0 <= p_dc <= 1.0:
        raise UsageError("double-count probability must lie in [0, 1]")
    if p_dc == 0.0 or len(b) <= 1:
        return b
    swap = _generator(seed, _DOUBLE_COUNTING).random(len(b) - 1) < p_dc
    out = b.copy()
    out[:-1][swap] = b[1:][swap]
    return out


def _scalars(*columns):
    """Rows of the columns as Python scalars, converted a chunk at a time to bound memory."""
    for lo in range(0, len(columns[0]), _CHUNK):
        yield from zip(*(c[lo : lo + _CHUNK].tolist() for c in columns))


def dead_time_filter(t: np.ndarray, T_d: float) -> np.ndarray:
    """Indices of the records at times ``t`` that survive a dead time T_d.

    A record closer than T_d to the last *kept* one is dropped, which makes the
    filter idempotent; the first record is always kept.
    """
    if not T_d >= 0:  # NaN included
        raise UsageError(f"dead time must be non-negative, got {T_d}")
    # Stateless fates: a gap > T_d keeps a record (t[i] - last >= t[i] - t[i-1]
    # in floats too); a gap <= T_d after a kept record drops it. The rest follow
    # a dropped record and loop, in runs that each start 2 after a kept record.
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = np.diff(t) > T_d
    chained = np.flatnonzero(~keep[1:-1] & ~keep[2:]) + 2
    run_start = np.diff(chained, prepend=-1) != 1
    for i, ti, anchor, start in _scalars(chained, t[chained], t[chained - 2], run_start):
        if start:
            last = anchor
        if ti - last > T_d:
            last = ti
            keep[i] = True
    return np.flatnonzero(keep)


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
    return BitString.from_array(arr[_demon_kept_indices(arr, rho)])


def run_pipeline(n: int, cfg: QrngConfig, seed: int, mode: str = "ideal") -> SimulationResult:
    """Generate n raw pairs and push them through the configured transforms.

    Stages run in a fixed order, each only when it is on: sampling (ideal or
    physical), double counting when cfg.double_count_prob > 0, dead-time
    filtering when cfg.dead_time_Td > 0, then the demon when cfg.demon_rho is
    set. The demon reads the XOR bits of the records dead time kept.
    """
    if mode == "ideal":
        result = sample_pairs(n, cfg, seed)
    elif mode == "physical":
        result = sample_pairs_physical(n, cfg, seed)
    else:
        raise UsageError(f"unknown simulation mode {mode!r}")
    t, a, b = result.records.t, result.records.a, result.records.b
    if cfg.double_count_prob > 0:
        b = apply_double_counting(b, cfg.double_count_prob, seed)
    kept, dropped_dead, dropped_demon = None, 0, 0
    if cfg.dead_time_Td > 0:
        kept = dead_time_filter(t, cfg.dead_time_Td)
        dropped_dead = len(t) - kept.size
    if cfg.demon_rho is not None:
        z = a ^ b if kept is None else (a ^ b)[kept]
        survivors = _demon_kept_indices(z, cfg.demon_rho)
        dropped_demon = z.size - survivors.size
        kept = survivors if kept is None else kept[survivors]
    if kept is not None:
        t, a, b = t[kept], a[kept], b[kept]
    # a swap or a gather made new columns; else the sampled stream passes through
    stream = result.records if b is result.records.b else PairStream(t, a, b)
    return SimulationResult(stream, n, result.dropped_undetected, dropped_dead, dropped_demon, seed)
