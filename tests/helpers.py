"""Small statistical utilities, reference loops and bad inputs shared across test modules."""

import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from qrngkit import DriftSpec, InputFormatError, PairStream, QrngConfig, demon_modulus
from qrngkit.exact import _cell_weights
from qrngkit.simulate import _DOUBLE_COUNTING, _SAMPLING, _demon_chunk, _generator, _kept
from qrngkit.stats import _chi2


def random_configs(count, seed):
    """Generator settings drawn away from the degenerate edges."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield QrngConfig(
            theta=float(rng.uniform(0.05, math.pi / 2 - 0.05)),
            e0_plus=float(rng.uniform(0.05, 1.0)),
            e1_plus=float(rng.uniform(0.05, 1.0)),
            e0_times=float(rng.uniform(0.05, 1.0)),
            e1_times=float(rng.uniform(0.05, 1.0)),
        )


def chi2_against(counts, probs) -> float:
    """p-value of the chi-squared fit of observed counts to given cell masses."""
    return _chi2(counts, probs)[1]


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes tracemalloc saw it hold; numpy
    reports its buffers to tracemalloc, so array columns count."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def coin_flips(key: int, n: int, p: float = 0.5) -> np.ndarray:
    """Deterministic Bernoulli(p) uint8 array from a counter-based generator."""
    rng = np.random.Generator(np.random.Philox(key=key))
    return (rng.random(n) < p).astype(np.uint8)


def double_count_loop(b, p_dc, seed) -> np.ndarray:
    """The times column after per-record swaps drawn from Philox key [seed, 1], the
    oracle for apply_double_counting."""
    u = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    u = u.random(max(len(b) - 1, 0))
    out = np.array(b, dtype=np.uint8)
    for i in range(len(b) - 1):
        if u[i] < p_dc:
            out[i] = b[i + 1]
    return out


def dead_time_keep_loop(t, T_d) -> np.ndarray:
    """Keep mask of the per-record dead-time rule, the oracle for dead_time_filter."""
    keep = np.zeros(len(t), dtype=bool)
    if len(t):
        keep[0] = True
        last = t[0]
    for i in range(1, len(t)):
        if t[i] - last > T_d:
            keep[i] = True
            last = t[i]
    return keep


def demon_kept_indices(bits, rho) -> np.ndarray:
    """Kept input indices of the demon's chunk step, run over chunks as demon_filter runs it."""
    k = demon_modulus(rho)
    return _kept(lambda chunk, q: _demon_chunk(chunk, k, q), bits, k - 1)


def demon_kept_loop(bits, rho) -> np.ndarray:
    """Kept input indices of the per-bit forced-zero rule, the oracle for the demon."""
    k = demon_modulus(rho)
    kept = []
    out_pos = 1
    for i, bit in enumerate(bits):
        if out_pos % k == 0 and bit:
            continue
        kept.append(i)
        out_pos += 1
    return np.asarray(kept, dtype=np.intp)


def arrival_times_forward(n, cfg, seed) -> np.ndarray:
    """Sampling-stage arrival times, each one at or below the time before it set one
    ulp above that time in a single forward pass, the oracle for the sampler's nudges."""
    t = np.cumsum(_generator(seed, _SAMPLING).exponential(cfg.mean_pair_interval, n))
    for i in range(1, n):
        if t[i] <= t[i - 1]:
            t[i] = np.nextafter(t[i - 1], math.inf)
    return t


def efficiencies_stacked(cfg, t) -> np.ndarray:
    """The (len(t), 4) efficiencies with one sin per distinct phase, the oracle for
    QrngConfig.efficiency_columns."""
    base = np.asarray(cfg.efficiencies, dtype=np.float64)
    if cfg.drift is None:
        return np.broadcast_to(base, t.shape + (4,))
    amp = np.asarray(cfg.drift.amplitudes)
    phases, column = np.unique(cfg.drift.phases, return_inverse=True)
    return base + amp * np.sin(2.0 * math.pi * t[:, None] / cfg.drift.period + phases)[:, column]


# --- the simulator's stages over whole columns, the oracle for its chunked stages ---


def arrival_times_whole(n, cfg, seed):
    """The n arrival times of stage 0 of ``seed``, the ties nudged by one running maximum
    over the whole column."""
    with np.errstate(over="ignore"):
        times = np.cumsum(_generator(seed, _SAMPLING).exponential(cfg.mean_pair_interval, n))
    assert math.isfinite(times[-1]), "the sampler refuses an overflowing run"
    if (np.diff(times) <= 0.0).any():
        # finite floats >= 0 order as their int64 bit patterns, and nextafter adds 1
        # to the pattern; so with u = pattern - i the rule is u'[i] = max(u[i], u'[i-1])
        shift = np.arange(n, dtype=np.int64)
        times = (np.maximum.accumulate(times.view(np.int64) - shift) + shift).view(np.float64)
    return times


def uniform_columns(n, seed, count):
    """The sampler's ``count`` outcome uniform columns of ``seed``, each n long and
    drawn whole from its own key [seed, 2 + column]."""
    return [_generator(seed, 2 + column).random(n) for column in range(count)]


def sample_pairs_whole(n, cfg, seed):
    """Ideal-mode pairs with every column drawn whole: (stream, undetected)."""
    times = arrival_times_whole(n, cfg, seed)
    [u] = uniform_columns(n, seed, 1)
    c0, c1, c2, c3 = itertools.accumulate(
        _cell_weights(cfg.theta, *cfg.efficiency_columns(times)))
    x = u * c3
    cell = (x >= c0).astype(np.uint8) + (x >= c1) + (x >= c2)
    return PairStream(times, cell >> 1, cell & 1), 0


def sample_pairs_physical_whole(n, cfg, seed):
    """Physical-mode detections with every column drawn whole: (stream, undetected)."""
    times = arrival_times_whole(n, cfg, seed)
    u_a, u_flip, u_plus, u_times = uniform_columns(n, seed, 4)
    a = (u_a < 0.5).astype(np.uint8)
    b = a ^ (u_flip < math.sin(cfg.theta) ** 2).astype(np.uint8)
    e0p, e1p, e0t, e1t = cfg.efficiency_columns(times)
    detected = (u_plus < np.where(a == 0, e0p, e1p)) & (u_times < np.where(b == 0, e0t, e1t))
    return PairStream(times[detected], a[detected], b[detected]), n - int(detected.sum())


def double_count_whole(b, p_dc, seed):
    """The times column after one vectorised swap of each record with the next."""
    if p_dc == 0.0 or len(b) <= 1:
        return b
    swap = _generator(seed, _DOUBLE_COUNTING).random(len(b) - 1) < p_dc
    out = b.copy()
    out[:-1][swap] = b[1:][swap]
    return out


def dead_time_whole(t, T_d):
    """Kept indices from the stateless fates of the whole column and one loop over the
    runs of records that follow a dropped one."""
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = np.diff(t) > T_d
    chained = np.flatnonzero(~keep[1:-1] & ~keep[2:]) + 2
    run_start = np.diff(chained, prepend=-1) != 1
    for i, ti, anchor, start in zip(*(c.tolist() for c in (
            chained, t[chained], t[chained - 2], run_start))):
        if start:
            last = anchor
        if ti - last > T_d:
            last = ti
            keep[i] = True
    return np.flatnonzero(keep)


def demon_whole(bits, rho):
    """Kept indices from one loop over every run of ones of the whole input."""
    k = demon_modulus(rho)
    edges = np.flatnonzero(np.diff(bits.astype(bool), prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    q, marks = k - 1, np.zeros(len(bits) + 1, dtype=np.int8)
    for start, zeros, ones in zip(starts.tolist(), (starts - np.append(0, ends[:-1])).tolist(),
                                  (ends - starts).tolist()):
        q = (q - zeros) % k
        if ones > q:
            marks[start + q] = 1
            marks[start + ones] = -1
            q = 0
        else:
            q -= ones
    return np.flatnonzero(np.cumsum(marks[:-1], dtype=np.int8) == 0)


def run_pipeline_whole(n, cfg, seed, mode):
    """run_pipeline's stream and drops by stage, with every stage run over whole columns."""
    sampler = sample_pairs_whole if mode == "ideal" else sample_pairs_physical_whole
    stream, undetected = sampler(n, cfg, seed)
    t, a, b = stream.t, stream.a, stream.b
    b = double_count_whole(b, cfg.double_count_prob, seed)
    kept, dropped_dead, dropped_demon = np.arange(len(t)), 0, 0
    if cfg.dead_time_Td > 0:
        kept = dead_time_whole(t, cfg.dead_time_Td)
        dropped_dead = len(t) - kept.size
    if cfg.demon_rho is not None:
        z = (a ^ b)[kept]
        survivors = demon_whole(z, cfg.demon_rho)
        dropped_demon = z.size - survivors.size
        kept = kept[survivors]
    return PairStream(t[kept], a[kept], b[kept]), (undetected, dropped_dead, dropped_demon)


@st.composite
def pipeline_cases(draw):
    """A mode, a config with each stage on or off, and the edges where chunks must carry:
    tied times, runs of ones at theta 0 and pi/2, certain double counting, slow demons."""
    theta = draw(st.sampled_from([0.0, math.pi / 2, math.pi / 5, 1.1]))
    eff = [draw(st.floats(0.05, 1.0)) for _ in range(4)]
    drift = None
    if draw(st.booleans()):
        amps = tuple(0.9 * min(e, 1.0 - e) for e in eff)
        drift = DriftSpec(amps, draw(st.floats(2.0, 200.0)), (0.0, 0.5, 2.5, 0.5))
    cfg = QrngConfig(
        theta, *eff, drift=drift,
        mean_pair_interval=draw(st.sampled_from([1.0, 5e-324, 1e-322])),
        double_count_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        dead_time_Td=draw(st.sampled_from([0.0, 0.3, 1.5, 5e-324, 1e-321])),
        demon_rho=draw(st.sampled_from([None, 0.5, 0.8, 0.95])),
    )
    mode = draw(st.sampled_from(["ideal", "physical"]))
    return mode, cfg, draw(st.integers(1, 300)), draw(st.integers(0, 2**64 - 1))


def sample_pairs_stacked(n, cfg, seed) -> PairStream:
    """Ideal-mode pairs from stacked (n, 4) cell weights and their cumsum, the oracle
    for sample_pairs."""
    times = arrival_times_whole(n, cfg, seed)
    e0p, e1p, e0t, e1t = efficiencies_stacked(cfg, times).T
    s = math.sin(cfg.theta) ** 2
    c = math.cos(cfg.theta) ** 2
    weights = np.stack([c * e0p * e0t, s * e0p * e1t, s * e1p * e0t, c * e1p * e1t], axis=1)
    cum = np.cumsum(weights, axis=1)
    u = uniform_columns(n, seed, 1)[0] * cum[:, -1]
    cell = np.minimum((u[:, None] >= cum).sum(axis=1), 3)
    return PairStream(times, cell >> 1, cell & 1)


def sample_pairs_physical_stacked(n, cfg, seed) -> PairStream:
    """Detected physical-mode pairs from the (n, 4) efficiencies, the oracle for
    sample_pairs_physical."""
    times = arrival_times_whole(n, cfg, seed)
    u_a, u_flip, u_plus, u_times = uniform_columns(n, seed, 4)
    a = (u_a < 0.5).astype(np.uint8)
    b = a ^ (u_flip < math.sin(cfg.theta) ** 2).astype(np.uint8)
    e0p, e1p, e0t, e1t = efficiencies_stacked(cfg, times).T
    detected = (u_plus < np.where(a == 0, e0p, e1p)) & (u_times < np.where(b == 0, e0t, e1t))
    return PairStream(times[detected], a[detected], b[detected])


def read_stream_per_line(path) -> PairStream:
    """The README's pair-stream rules applied one line at a time, the oracle for
    read_stream_ndjson: the same PairStream, or InputFormatError at the same path:line."""
    records = []
    for line_no, line in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line.strip().decode("ascii"))
            ok = (
                type(rec) is dict and sorted(rec) == ["a", "b", "t"]
                and type(rec["t"]) in (int, float) and math.isfinite(rec["t"])
                and all(type(rec[k]) is int and rec[k] in (0, 1) for k in "ab")
            )
        except (ValueError, OverflowError, RecursionError):
            ok = False
        if not ok:
            raise InputFormatError(f"{path}:{line_no}: not a record")
        records.append((line_no, float(rec["t"]), rec["a"], rec["b"]))
    for i, (line_no, t, _, _) in enumerate(records):
        if t < 0 or (i and t <= records[i - 1][1]):
            raise InputFormatError(f"{path}:{line_no}: record times out of order")
    _, t, a, b = zip(*records) if records else ((), (), (), ())
    return PairStream(np.array(t, dtype=np.float64), np.array(a), np.array(b))


# Outcome arrays a uint8 cast would coerce to bits (01, 01 and 1); every array
# way into BitString or PairStream refuses them instead.
NON_BIT_ARRAYS = [[256, 1], [0.7, 1.2], [-255]]

# Files each defect of which ends in InputFormatError (CLI exit 4), never in a
# TypeError, a UnicodeDecodeError or a silently coerced value.
BAD_CONFIG_TEXTS = [
    b'{"theta": "x"}',
    b'{"theta": null}',
    b'{"e0_plus": true}',
    b'{"theta": NaN}',
    b'{"dead_time_Td": Infinity}',
    b'{"theta": [0.3]}',
    b'{"drift": {"amplitudes": 5, "period": 1}}',
    b'{"drift": {"amplitudes": [0.1, 0, 0], "period": 1}}',
    b'{"drift": {"amplitudes": [0.1, 0, 0, "0"], "period": 1}}',
    b'{"drift": {"amplitudes": [0, 0, 0, 0], "period": "1"}}',
    b'{"drift": {"amplitudes": [0, 0, 0, 0], "period": 1, "phases": 0}}',
    b'{"drift": {"amplitudes": [0, 0, 0, 0], "period": 1, "phase": [0, 0, 0, 0]}}',
    b'{"drift": [0, 0, 0, 0]}',
    b'{"drift": {"amplitudes": [0, 0, 0, 0]}}',
    b'{"theta": 3.0}',
    b'\xff\xfe{"theta": 0.3}',
    b'{"theta": 0.3',
    b'',
    # nesting past the parser's recursion limit, at top level and inside a field
    b'[' * 100_000 + b']' * 100_000,
    b'{"drift": ' + b'[' * 100_000 + b']' * 100_000 + b'}',
]
