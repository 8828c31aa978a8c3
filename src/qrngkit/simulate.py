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
double counting, dead-time filtering, demon filtering. Every stage runs over
chunks of at most _CHUNK records and carries O(1) state from one chunk to the
next, so a run holds one chunk at a time, and the chunks draw exactly what one
whole draw would. `run_pipeline` copies the kept records of each chunk into
one set of n-long columns as it comes; `simulate` writes each chunk as it is
drawn. Each stage after sampling returns only its decision, a new times
column or the indices it keeps, and the kept columns are gathered once per
chunk. The demon acts on the offset-0 XOR bit of each record, so rejected
bits drop whole records. The public stage functions are the chunk functions
run over one whole input.
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


_SAMPLING, _DOUBLE_COUNTING = 0, 1
PAIR_CAP = 2**25  # run_pipeline holds 10 B per pair of columns, so at most about 0.34 GB
_CHUNK = 1 << 16  # records per chunk of every stage, and per tolist() in _scalars


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


def _moved(rng: np.random.Generator, words: int) -> np.random.Generator:
    """A copy of ``rng`` moved on by ``words`` 64-bit draws, as if it had drawn them."""
    bits = np.random.Philox()
    bits.state = state = rng.bit_generator.state
    head = min(words, 4 - state["buffer_pos"])  # the words left in the buffered block
    bits.random_raw(head)
    if words > head:  # advance steps whole 4-word blocks and drops the buffer, now empty
        bits.advance((words - head) // 4)
        bits.random_raw((words - head) % 4)
    return np.random.Generator(bits)


def _arrivals(t: np.ndarray, scale: float, carry: tuple) -> tuple:
    """One chunk's arrival times from its standard exponential gaps ``t``, scaled in place
    as the exponential of that scale scales them, and the carry (the raw running sum, the
    last time given out) for the next chunk, (0.0, -inf) before the first. The times are
    the running sum of the gaps; a time that a too-short gap leaves at or below the one
    before is set one ulp above it, so the times increase. Overflow is left to the caller."""
    total, last = carry
    with np.errstate(over="ignore", invalid="ignore"):
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

    The outcome uniforms come after all n gaps, and a ziggurat gap takes a variable
    number of words; so a first pass draws the gaps only to reach the state where the
    uniforms begin, and the chunks draw the gaps again. The first pass also forms the
    times, so the two refusals that depend on the draw, which both grow with the time,
    are checked at the last time when this is called, before the first chunk.
    """
    if mode not in ("ideal", "physical"):
        raise UsageError(f"unknown simulation mode {mode!r}")
    _check_n(n)
    gaps, skip = _generator(seed, _SAMPLING), _generator(seed, _SAMPLING)
    scale, scratch, carry = cfg.mean_pair_interval, np.empty(min(n, _CHUNK)), (0.0, -math.inf)
    for lo in range(0, n, _CHUNK):
        _, carry = _arrivals(skip.standard_exponential(out=scratch[: n - lo]), scale, carry)
    if not math.isfinite(carry[0]):
        raise UsageError(f"arrival times of {n} pairs at mean_pair_interval "
                         f"{cfg.mean_pair_interval} overflow float64")
    cfg.efficiency_columns(carry[1])  # refuses a drift phase that overflows at the last time
    # ideal mode reads one uniform column, physical mode four, each n long
    uniforms = [_moved(skip, column * n) for column in range(1 if mode == "ideal" else 4)]
    s = math.sin(cfg.theta) ** 2

    def chunks():
        carry = (0.0, -math.inf)
        for lo in range(0, n, _CHUNK):
            t, carry = _arrivals(gaps.standard_exponential(min(_CHUNK, n - lo)), scale, carry)
            if mode == "ideal":
                # each record's cells from the efficiencies in force at its time
                c0, c1, c2, c3 = itertools.accumulate(
                    _cell_weights(cfg.theta, *cfg.efficiency_columns(t)))
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
                e0p, e1p, e0t, e1t = cfg.efficiency_columns(t)
                detected = uniforms[2].random(t.size) < np.where(a == 0, e0p, e1p)
                detected &= uniforms[3].random(t.size) < np.where(b == 0, e0t, e1t)
                undetected = t.size - int(np.count_nonzero(detected))
                yield t[detected], a[detected], b[detected], undetected

    return chunks()


def _tallied(chunks, n: int, seed: int, counters: dict):
    """The (t, a, b) of ``chunks`` of (t, a, b, drops...), drops in stage order; once the
    last is out, ``counters`` holds the counters of the run of n pairs, checked to add up."""
    counts = [0] * 4  # records kept, then the drops by stage
    for t, a, b, *drops in chunks:
        for i, count in enumerate((t.size, *drops)):
            counts[i] += count
        yield t, a, b
    counters.update(_counters(counts[0], n, *counts[1:], seed))


def _gathered(chunks, n: int, seed: int) -> SimulationResult:
    """The one result of n pairs from ``chunks``: each chunk's columns are copied as it
    comes into one set of n-long columns, whose filled part the result keeps."""
    counters, kept, columns = {}, 0, (np.empty(n), np.empty(n, np.uint8), np.empty(n, np.uint8))
    for chunk in _tallied(chunks, n, seed, counters):
        for column, part in zip(columns, chunk):
            column[kept : kept + part.size] = part
        kept += chunk[0].size
    del counters["kept"]  # the result counts its records
    return SimulationResult(PairStream(*(c[:kept] for c in columns)), **counters)


def sample_pairs(n: int, cfg: QrngConfig, seed: int) -> SimulationResult:
    """Draw n pairs straight from the detected-pair law.

    Each record's outcomes follow the cell weights of `exact.pair_prob_table`
    evaluated with the efficiencies in force at the record's arrival time, so a
    configured drift shows up as a slowly wandering bias.
    """
    return _gathered(_sampled(n, cfg, seed, "ideal"), n, seed)


def sample_pairs_physical(n: int, cfg: QrngConfig, seed: int) -> SimulationResult:
    """Draw n raw singlet pairs and keep only coincident detections.

    The plus context outcome is a fair coin; the times context flips it with
    probability sin^2(theta); each photon is then detected with its detector's
    efficiency and pairs missing a detection are dropped. Conditioned on
    keeping, outcomes follow the same law as `sample_pairs` (checked as a
    test property, not assumed here).
    """
    return _gathered(_sampled(n, cfg, seed, "physical"), n, seed)


def _double_count_chunk(b: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """A copy of ``b`` in which each record whose ``swap`` is set takes the next one's
    outcome; a swap for the last record waits for the next chunk's first outcome."""
    out = b.copy()
    swap = swap[: b.size - 1]
    out[:-1][swap] = b[1:][swap]
    return out


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
    return _double_count_chunk(b, _generator(seed, _DOUBLE_COUNTING).random(len(b) - 1) < p_dc)


def _double_counted(chunks, p_dc: float, seed: int):
    """``chunks`` with their times columns double counted, each held back until the next
    record's outcome is known. Empty chunks pass at once: they carry only drop counts."""
    rng, held = _generator(seed, _DOUBLE_COUNTING), None
    for t, a, b, undetected in chunks:
        if not b.size:
            yield t, a, b, undetected
            continue
        # the one uniform per record that the last record draws is never read
        swap = rng.random(b.size) < p_dc
        if held is not None:
            if held_swap:
                held[2][-1] = b[0]
            yield held
        held, held_swap = (t, a, _double_count_chunk(b, swap), undetected), swap[-1]
    if held is not None:
        yield held


def _scalars(*columns):
    """Rows of the columns as Python scalars, converted a chunk at a time to bound memory."""
    return itertools.chain.from_iterable(  # C iterators: no Python frame per row
        zip(*(c[lo : lo + _CHUNK].tolist() for c in columns))
        for lo in range(0, len(columns[0]), _CHUNK))


def _dead_time_chunk(t: np.ndarray, T_d: float, carry=None) -> tuple:
    """Chunk-local indices of the records at times ``t`` that survive a dead time T_d,
    and the carry for the next chunk (None before the first): the time of the chunk's
    last record, whether its gap was short, and the last kept time."""
    if not t.size:
        return np.flatnonzero(t), carry
    before, short_before, last = carry or (None, False, t[0])
    # Stateless fates: a gap > T_d keeps a record (t[i] - last >= t[i] - t[i-1]
    # in floats too); a gap <= T_d after a kept record drops it. The rest follow
    # a dropped record and loop, in runs that each start 2 after a kept record.
    keep = np.empty(t.size, dtype=bool)
    keep[0] = carry is None or t[0] - before > T_d  # the first record is always kept
    np.greater(np.diff(t), T_d, out=keep[1:])
    short = ~keep
    chained = np.flatnonzero(short[:-1] & short[1:]) + 1
    if short[0] and short_before:
        chained = np.append(0, chained)
    run_start = np.diff(chained, prepend=-2) != 1
    anchor = t[np.maximum(chained - 2, 0)]
    anchor[: np.searchsorted(chained, 2)] = last  # 2 after a kept record before the chunk
    revived = []
    for i, ti, start_at, start in _scalars(chained, t[chained], anchor, run_start):
        if start:
            last = start_at
        if ti - last > T_d:
            last = ti
            revived.append(i)
    keep[revived] = True
    kept = np.flatnonzero(keep)
    return kept, (t[-1], bool(short[-1]), t[kept[-1]] if kept.size else last)


def dead_time_filter(t: np.ndarray, T_d: float) -> np.ndarray:
    """Indices of the records at times ``t`` that survive a dead time T_d.

    A record closer than T_d to the last *kept* one is dropped, which makes the
    filter idempotent; the first record is always kept.
    """
    if not T_d >= 0:  # NaN included
        raise UsageError(f"dead time must be non-negative, got {T_d}")
    return _dead_time_chunk(np.asarray(t, dtype=np.float64), T_d)[0]


def demon_modulus(rho: float) -> int:
    """Forced-zero spacing k = ceil(1/(1-rho)).

    The quotient is computed with a one-ulp-scale backoff so budgets like 0.8,
    whose reciprocal lands a rounding error above the exact integer 5, do not
    get bumped to the next slot width.
    """
    if not 0.0 < rho < 1.0:
        raise UsageError("demon efficiency budget must lie strictly in (0, 1)")
    return math.ceil((1.0 / (1.0 - rho)) * (1.0 - 1e-12))


def _demon_chunk(bits: np.ndarray, k: int, q: int) -> tuple:
    """Chunk-local indices surviving the forced-zero rule of modulus k, and the q to carry.

    Zeros always pass. q counts the inputs still to land before the next forced
    slot (k - 1 before the first chunk); each passing bit counts it down mod k.
    Once a run of ones meets q = 0, the rest of the run drops on that slot and the
    zero that ends the run fills it, so the loop steps over whole runs of ones. A
    run cut by the chunk's end goes on as a run with no zeros before it, which
    drops the same bits, and the zeros after the last run count down q at the end.
    """
    edges = np.flatnonzero(np.diff(bits.astype(bool), prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    cut_runs, cut_offsets = [], []
    for run, (zeros, ones) in enumerate(_scalars(starts - np.append(0, ends[:-1]), ends - starts)):
        q = (q - zeros) % k
        if ones > q:
            cut_runs.append(run)
            cut_offsets.append(q)
            q = 0
        else:
            q -= ones
    q = (q - (bits.size - (int(ends[-1]) if ends.size else 0))) % k
    # the dropped stretches are disjoint, so a running sum of +1/-1 at their ends marks them
    marks = np.zeros(bits.size + 1, dtype=np.int8)
    marks[starts[cut_runs] + np.array(cut_offsets, dtype=np.intp)] = 1
    marks[ends[cut_runs]] = -1
    return np.flatnonzero(np.cumsum(marks[:-1], dtype=np.int8) == 0), q


def _demon_kept_indices(bits: np.ndarray, rho: float) -> np.ndarray:
    """Input indices surviving the forced-zero rule of budget rho."""
    k = demon_modulus(rho)
    return _demon_chunk(bits, k, k - 1)[0]


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


def _pipeline_chunks(n: int, cfg: QrngConfig, seed: int, mode: str = "ideal"):
    """`run_pipeline`'s kept records as chunks (t, a, b, undetected, dead, demon), the
    last three being the chunk's drops by stage. This call raises every refusal."""
    return _filtered(_sampled(n, cfg, seed, mode), cfg, seed)


def _filtered(chunks, cfg: QrngConfig, seed: int):
    """Sampled ``chunks`` through the stages after sampling, each when it is on."""
    if cfg.double_count_prob > 0:
        chunks = _double_counted(chunks, cfg.double_count_prob, seed)
    dead = None
    if cfg.demon_rho is not None:
        k = demon_modulus(cfg.demon_rho)
        q = k - 1
    for t, a, b, undetected in chunks:
        kept, dropped_dead, dropped_demon = None, 0, 0
        if cfg.dead_time_Td > 0:
            kept, dead = _dead_time_chunk(t, cfg.dead_time_Td, dead)
            dropped_dead = t.size - kept.size
        if cfg.demon_rho is not None:
            z = a ^ b if kept is None else (a ^ b)[kept]
            survivors, q = _demon_chunk(z, k, q)
            dropped_demon = z.size - survivors.size
            kept = survivors if kept is None else kept[survivors]
        if kept is not None:
            t, a, b = t[kept], a[kept], b[kept]
        yield t, a, b, undetected, dropped_dead, dropped_demon


def run_pipeline(n: int, cfg: QrngConfig, seed: int, mode: str = "ideal") -> SimulationResult:
    """Generate n raw pairs and push them through the configured transforms.

    Stages run in a fixed order, each only when it is on: sampling (ideal or
    physical), double counting when cfg.double_count_prob > 0, dead-time
    filtering when cfg.dead_time_Td > 0, then the demon when cfg.demon_rho is
    set. The demon reads the XOR bits of the records dead time kept.
    """
    return _gathered(_pipeline_chunks(n, cfg, seed, mode), n, seed)
