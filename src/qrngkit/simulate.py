"""Monte Carlo pair source and the stream-level transforms.

Randomness comes from numpy's Philox counter-based generator keyed by the
two words [seed, stage], so identical (n, cfg, seed) always reproduce the
same stream byte for byte, and no column of one seed shares a key with any
column of another. Each column is drawn once, in order, from its own key;
this layout, draw version 4, is part of the contract:

* [seed, 0]: the inter-arrival gaps (the same draws as the key seed alone);
* [seed, 1]: double counting, one uniform per record except the last;
* [seed, 2]: ideal mode's one outcome uniform per pair, or physical mode's
  plus-context outcome uniforms;
* [seed, 3], [seed, 4], [seed, 5]: physical mode's anti-correlation flip,
  plus-detection and times-detection uniforms.

`run_pipeline` chains the configured imperfections in fixed order: sampling,
double counting, dead-time filtering, demon filtering. Every stage runs over
chunks of at most _CHUNK records (2^14, the stream writer's slice too) and
carries O(1) state from one chunk to the next, so a run holds one chunk at a
time, and the chunks draw exactly what one whole draw would. The loop that
runs the stages after sampling also adds up their drops. `run_pipeline` copies
each chunk's kept records into one set of n-long columns as it comes, and the
samplers are `run_pipeline` with those stages off; `simulate` writes each
chunk as it is drawn. Each stage after sampling returns only its decision, a
new times column or the indices it keeps, and the kept columns are gathered
once per chunk. Drift takes one sine per distinct phase and one efficiency column
per distinct (e, A, phase). Dead time settles a record from its gap alone unless it
follows a dropped record; vector rounds settle such runs one record each, and the few
runs left loop per record. The demon acts on the offset-0 XOR bit of each record, so
rejected bits drop whole records. The public stage functions run the same chunk
functions, on the column as one chunk (double counting) or on chunks by `_kept`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bitstring import BitString, _as_bits
from .config import QrngConfig, _check_demon_floor
from .errors import ResourceBudgetError, UsageError
from .exact import _cell_weights
from .streams import _CHUNK, PairStream

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
        self.counters()  # refuses drop counters that do not add up

    def counters(self) -> dict:
        return _counters(len(self.records), self.generated, self.dropped_undetected,
                         self.dropped_dead_time, self.dropped_demon, self.seed)


def _counters(kept: int, generated: int, undetected: int, dead: int, demon: int,
              seed: int) -> dict:
    """A run's counters, once the kept records and the drops add up to the generation count."""
    if kept + undetected + dead + demon != generated:
        raise UsageError("drop counters do not add up to the generation count")
    return {"generated": generated, "kept": kept, "dropped_undetected": undetected,
            "dropped_dead_time": dead, "dropped_demon": demon, "seed": seed}


_SAMPLING, _DOUBLE_COUNTING, _UNIFORMS = 0, 1, 2  # outcome uniform column c has stage 2 + c
# The largest gap numpy's ziggurat standard_exponential returns: its tail start r plus
# -log1p(-U) at U = 1 - 2^-53 (every other branch returns less than r), with a margin
# for the scaling and cumsum rounding and the one-ulp tie nudges at normal magnitudes.
_GAP_MAX = (7.69711747013104972 + 53 * math.log(2)) * (1 + 2**-20)
PAIR_CAP = 2**25  # run_pipeline holds 10 B per pair of columns, so at most about 0.34 GB
_SAMPLING_ONLY = {"double_count_prob": 0.0, "dead_time_Td": 0.0, "demon_rho": None}


def _generator(seed: int, stage: int) -> np.random.Generator:
    # the uint64 cast below would turn 1.5 or True into seed 1
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise UsageError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"seed must lie in [0, 2**64), got {seed}")
    # a list key would pass through float64 above 2**63, where distinct seeds round together
    return np.random.Generator(np.random.Philox(key=np.array([seed, stage], dtype=np.uint64)))


def _check_n(n: int):
    if n < 1:
        raise UsageError("pair count must be positive")
    if n > PAIR_CAP:
        raise ResourceBudgetError(f"count {n} exceeds the per-run budget of {PAIR_CAP}")


def _arrivals(t: np.ndarray, scale: float, carry: tuple) -> tuple:
    """One chunk's arrival times from its standard exponential gaps ``t``, scaled in place
    as the exponential of that scale scales them, and the carry (the raw running sum, the
    last time given out) for the next chunk, (0.0, -inf) before the first. The times are
    the running sum of the gaps; a time that a too-short gap leaves at or below the one
    before is set one ulp above it, so the times increase."""
    total, last = carry
    t *= scale
    t[0] += total  # the sum carried in, added as cumsum adds it
    np.cumsum(t, out=t)
    total = t[-1]
    if t[0] <= last or (t[1:] <= t[:-1]).any():
        # finite floats >= 0 order as their int64 bit patterns, and nextafter adds 1
        # to the pattern; so with u = pattern - i the rule is u'[i] = max(u[i], u'[i-1]),
        # run on from the last time given out (-inf, below every pattern, at first)
        shift = np.arange(-1, t.size, dtype=np.int64)
        u = np.concatenate(([last], t)).view(np.int64) - shift
        t = (np.maximum.accumulate(u) + shift)[1:].view(np.float64)
    return t, (total, t[-1])


def _sampled(n: int, cfg: QrngConfig, seed: int, mode: str):
    """Stage 0 of ``seed`` as chunks (t, a, b, undetected): n pairs, of which physical
    mode keeps the coincident detections.

    The gaps come from key [seed, 0] and each outcome uniform column from its own key
    [seed, 2 + column], so every column is drawn once, chunk by chunk. No time can pass
    n gaps of _GAP_MAX, so the two refusals that grow with the time are checked at that
    bound when this is called, before anything is drawn.
    """
    if mode not in ("ideal", "physical"):
        raise UsageError(f"unknown simulation mode {mode!r}")
    _check_n(n)
    gaps = _generator(seed, _SAMPLING)
    # ideal mode reads one uniform column, physical mode four
    uniforms = [_generator(seed, _UNIFORMS + c) for c in range(1 if mode == "ideal" else 4)]
    scale = cfg.mean_pair_interval
    bound = n * _GAP_MAX * scale
    # the drift phase 2*pi*t/period outgrows t when period < 2*pi, so it overflows first
    # and its refusal is the one made; a finite phase there means a finite time
    phase_first = cfg.drift is not None and cfg.drift.period < 2 * math.pi
    if not phase_first and not math.isfinite(bound):
        raise UsageError(f"arrival times of {n} pairs at mean_pair_interval "
                         f"{scale} can overflow float64")
    cfg.efficiency_columns(bound)  # refuses a drift phase that overflows at the bound
    s = math.sin(cfg.theta) ** 2

    def chunks():
        carry = (0.0, -math.inf)
        for lo in range(0, n, _CHUNK):
            t, carry = _arrivals(gaps.standard_exponential(min(_CHUNK, n - lo)), scale, carry)
            if mode == "ideal":
                # each record's cells from the efficiencies in force at its time, summed in place
                c0, c1, c2, c3 = _cell_weights(cfg.theta, *cfg._efficiencies_at(t))
                c1 += c0
                c2 += c1
                c3 += c2
                x = uniforms[0].random(t.size)
                x *= c3
                # the sums never fall, so x >= c3 only where the cell is already the top one, 3
                cell = (x >= c0).view(np.uint8)
                cell += x >= c1
                cell += x >= c2
                yield t, cell >> 1, cell & 1, 0
            else:
                a = (uniforms[0].random(t.size) < 0.5).view(np.uint8)
                b = a ^ (uniforms[1].random(t.size) < s).view(np.uint8)
                e0p, e1p, e0t, e1t = cfg._efficiencies_at(t)
                detected = uniforms[2].random(t.size) < np.where(a == 0, e0p, e1p)
                detected &= uniforms[3].random(t.size) < np.where(b == 0, e0t, e1t)
                undetected = t.size - int(np.count_nonzero(detected))
                yield t[detected], a[detected], b[detected], undetected

    return chunks()


def sample_pairs(n: int, cfg: QrngConfig, seed: int) -> SimulationResult:
    """Draw n pairs straight from the detected-pair law.

    Each record's outcomes follow the cell weights of `exact.pair_prob_table`
    evaluated with the efficiencies in force at the record's arrival time, so a
    configured drift shows up as a slowly wandering bias.
    """
    return run_pipeline(n, replace(cfg, **_SAMPLING_ONLY), seed, "ideal")


def sample_pairs_physical(n: int, cfg: QrngConfig, seed: int) -> SimulationResult:
    """Draw n raw singlet pairs and keep only coincident detections.

    The plus context outcome is a fair coin; the times context flips it with
    probability sin^2(theta); each photon is then detected with its detector's
    efficiency and pairs missing a detection are dropped. Conditioned on
    keeping, outcomes follow the same law as `sample_pairs` (checked as a
    test property, not assumed here).
    """
    return run_pipeline(n, replace(cfg, **_SAMPLING_ONLY), seed, "physical")


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
    bits = _as_bits(b, "the times column")
    if p_dc == 0.0:
        return b
    return next(_double_counted([(None, None, bits, 0)], p_dc, seed))[2]  # one whole chunk


def _double_counted(chunks, p_dc: float, seed: int):
    """``chunks`` with their times columns double counted, each held back until the next
    record's outcome is known. Empty chunks pass at once: they carry only drop counts."""
    rng, held = _generator(seed, _DOUBLE_COUNTING), None
    for t, a, b, undetected in chunks:
        if not b.size:
            yield t, a, b, undetected
            continue
        # a record with its swap set takes the next outcome; the last one waits for the next chunk
        swaps = np.flatnonzero(rng.random(b.size) < p_dc)
        inner = swaps[swaps < b.size - 1]
        out = b.copy()
        out[inner] = b[inner + 1]
        if held is not None:
            if held_swap:
                held[2][-1] = b[0]
            yield held
        held, held_swap = (t, a, out, undetected), inner.size < swaps.size
    if held is not None:
        yield held


def _kept(step, column: np.ndarray, carry) -> np.ndarray:
    """Indices of ``column`` kept by the carried chunk ``step``, run over _CHUNK slices
    into one index column, so its temporaries stay chunk-sized."""
    kept, n = np.empty(column.size, dtype=np.intp), 0
    for lo in range(0, column.size, _CHUNK):
        survivors, carry = step(column[lo : lo + _CHUNK], carry)
        kept[n : n + survivors.size] = survivors + lo
        n += survivors.size
    return kept[:n]


def _dead_time_chunk(t: np.ndarray, T_d: float, last=None) -> tuple:
    """Chunk-local indices of the records at times ``t`` that survive a dead time T_d,
    and the last kept time, the carry for the next chunk (None before the first)."""
    if not t.size:
        return np.flatnonzero(t), last
    # Stateless fates: a gap > T_d keeps a record (t[i] - last >= t[i] - t[i-1] in floats
    # too; the first's gap is to the last kept time); a gap <= T_d after a kept record
    # drops it. The rest follow a dropped record, in runs that start 2 after a kept one.
    keep = np.empty(t.size, dtype=bool)
    keep[0] = last is None or t[0] - last > T_d  # the run's first record is always kept
    np.greater(np.diff(t), T_d, out=keep[1:])
    short = ~keep
    chained = np.flatnonzero(short[:-1] & short[1:]) + 1
    # each run [lo, hi) and its last kept time, the carry for a run that starts at 1
    start = np.diff(chained, prepend=-1) != 1
    lo, hi = chained[start], np.append(chained[:-1][start[1:]], chained[-1:]) + 1
    at = t[lo - 2]
    at[lo == 1] = last
    # a round settles one record of each open run; below 64 runs the loop costs less
    while lo.size >= 64:
        ti = t[lo]
        kept_now = ti - at > T_d
        keep[lo[kept_now]] = True
        at = np.where(kept_now, ti, at)
        lo += 1 + kept_now  # the record after a kept one drops
        open_ = lo < hi
        lo, hi, at = lo[open_], hi[open_], at[open_]
    revived = []
    for i, end, kept_at in zip(lo.tolist(), hi.tolist(), at.tolist()):
        for j, tj in enumerate(t[i:end].tolist(), i):
            if tj - kept_at > T_d:
                kept_at = tj
                revived.append(j)
    keep[revived] = True
    kept = np.flatnonzero(keep)
    return kept, t[kept[-1]] if kept.size else last


def dead_time_filter(t: np.ndarray, T_d: float) -> np.ndarray:
    """Indices of the records at times ``t`` that survive a dead time T_d.

    A record closer than T_d to the last *kept* one is dropped, which makes the
    filter idempotent; the first record is always kept. The times must be a 1-d
    column of finite, non-decreasing values.
    """
    if not T_d >= 0:  # NaN included
        raise UsageError(f"dead time must be non-negative, got {T_d}")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1 or not np.isfinite(t).all() or (t[1:] < t[:-1]).any():
        raise UsageError("dead time needs a 1-d column of finite, non-decreasing times")
    return _kept(lambda chunk, last: _dead_time_chunk(chunk, T_d, last), t, None)


def demon_modulus(rho: float) -> int:
    """Forced-zero spacing k = ceil(1/(1-rho)).

    The quotient is computed with a one-ulp-scale backoff so floors like 0.8,
    whose 1/(1-rho) lands a rounding error above the exact integer 5, do not
    get bumped to the next slot width. As 1/(1-rho) > 1, k is at least 2, which
    the backoff would pull to 1 below a floor of about 1e-12.
    """
    _check_demon_floor(rho)
    return _spacing(rho)


def _spacing(rho: float) -> int:  # demon_modulus of a checked floor, as demon_rho is
    return max(2, math.ceil((1.0 / (1.0 - rho)) * (1.0 - 1e-12)))


def _demon_chunk(bits: np.ndarray, k: int, q: int) -> tuple:
    """Chunk-local indices surviving the forced-zero rule of modulus k, and the q to carry.

    Zeros always pass. q counts the inputs still to land before the next forced
    slot (k - 1 before the first chunk). Take a phase p with q = (p - i) mod k
    before input i, p = q on entry: a run of ones [s, e) drops from offset
    (p - s) mod k when that is below e - s, and then p = e; passing bits leave
    p alone. A run of k - 1 or more ones leaves p = e (mod k) either way, so
    only a run after a shorter run needs a scalar step, and at k = 2 none does.
    A run cut by the chunk's end drops what the whole run would, as its rest
    starts the next chunk with no zeros before it. The carry out is (p - n) mod k.
    """
    edges = np.flatnonzero(np.diff(bits.astype(bool), prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    ones = ends - starts
    # each run's offset, as if p were the end of the run before it (p on entry for the first)
    offset = (np.append(q, ends[:-1]) - starts) % k
    short = ones[:-1] < k - 1
    if short.any():
        # p after a run is s + max(offset, ones), so the next offset is that less the step
        # between their starts; the first short run of a row keeps its offset, as top adds k
        fresh = short & ~np.append(False, short[:-1])
        top = np.where(fresh, np.maximum(offset[:-1], ones[:-1]) + k, ones[:-1])[short]
        off = 0
        offset[1:][short] = [off := ((off if off > t else t) - step) % k
                             for t, step in zip(top.tolist(), np.diff(starts)[short].tolist())]
    cut = offset < ones
    p = int(starts[-1]) + max(int(offset[-1]), int(ones[-1])) if starts.size else q
    first = starts[cut] + offset[cut]
    length = ends[cut] - first
    # the dropped stretches are disjoint, so the r-th dropped input is r plus the first
    # of its stretch less the lengths of the stretches before it
    keep = np.ones(bits.size, dtype=bool)
    keep[np.arange(length.sum()) + np.repeat(first - np.cumsum(length) + length, length)] = False
    return np.flatnonzero(keep), (p - bits.size) % k


def demon_filter(bits: BitString, rho: float) -> BitString:
    """Reject ones so that every k-th output bit is zero, k = ceil(1/(1-rho)).

    This is the fair-sampling adversary: it plants an all-zero arithmetic
    subsequence (output positions k, 2k, ..., counting from 1) by discarding
    input ones that land on those slots. All other bits pass through in order.
    rho is an efficiency floor, so the rejection budget is 1 - rho: on fair
    input each forced slot skips a geometric run of ones of mean 1, so k/(k + 1)
    of the bits are kept, at least rho as k >= rho/(1 - rho). The construction
    is deterministic. If the input runs out while a forced slot waits for a
    zero, the output simply ends there.
    """
    k, arr = demon_modulus(rho), bits.to_array()
    kept = _kept(lambda chunk, q: _demon_chunk(chunk, k, q), arr, k - 1)
    return BitString._adopt(arr[kept])  # fresh, 0/1 as arr is


def _pipeline_chunks(n: int, cfg: QrngConfig, seed: int, mode: str, counters: dict):
    """`run_pipeline`'s kept records as chunks (t, a, b); once the last is out, ``counters``
    holds the counters of the run, checked to add up. This call raises every refusal."""
    return _filtered(_sampled(n, cfg, seed, mode), n, cfg, seed, counters)


def _filtered(chunks, n: int, cfg: QrngConfig, seed: int, counters: dict):
    """Sampled ``chunks`` through the stages after sampling, each when it is on. The loop
    adds up each stage's drops, and after the last chunk fills ``counters`` from them."""
    if cfg.double_count_prob > 0:
        chunks = _double_counted(chunks, cfg.double_count_prob, seed)
    dead = None
    if cfg.demon_rho is not None:
        k = _spacing(cfg.demon_rho)
        q = k - 1
    kept_total = dropped_undetected = dropped_dead = dropped_demon = 0
    for t, a, b, undetected in chunks:
        dropped_undetected += undetected
        kept = None
        if cfg.dead_time_Td > 0:
            kept, dead = _dead_time_chunk(t, cfg.dead_time_Td, dead)
            dropped_dead += t.size - kept.size
        if cfg.demon_rho is not None:
            z = a ^ b if kept is None else (a ^ b)[kept]
            survivors, q = _demon_chunk(z, k, q)
            dropped_demon += z.size - survivors.size
            kept = survivors if kept is None else kept[survivors]
        if kept is not None:
            t, a, b = t[kept], a[kept], b[kept]
        kept_total += t.size
        yield t, a, b
    counters.update(_counters(kept_total, n, dropped_undetected, dropped_dead, dropped_demon, seed))


def run_pipeline(n: int, cfg: QrngConfig, seed: int, mode: str = "ideal") -> SimulationResult:
    """Generate n raw pairs and push them through the configured transforms.

    Stages run in a fixed order, each only when it is on: sampling (ideal or
    physical), double counting when cfg.double_count_prob > 0, dead-time
    filtering when cfg.dead_time_Td > 0, then the demon when cfg.demon_rho is
    set. The demon reads the XOR bits of the records dead time kept. Each chunk's
    columns are copied as it comes into one set of n-long columns, whose filled
    part the result keeps.
    """
    counters: dict = {}
    chunks = _pipeline_chunks(n, cfg, seed, mode, counters)  # refuses before the columns exist
    kept, columns = 0, (np.empty(n), np.empty(n, np.uint8), np.empty(n, np.uint8))
    for chunk in chunks:
        for column, part in zip(columns, chunk):
            column[kept : kept + part.size] = part
        kept += chunk[0].size
    del counters["kept"]  # the result counts its records
    return SimulationResult(PairStream(*(c[:kept] for c in columns)), **counters)
