"""File formats: bit files, NDJSON pair streams, CSV/JSON reports.

All writers go through a temp-file-plus-rename so a crashed run never leaves
a half-written artifact, and none of them embed timestamps or other
run-varying data; two runs with the same inputs produce byte-identical files.

Bit-file format: one header line ``#bits=<n>`` followed by the payload. In
ascii mode the payload is n characters of '0'/'1' (newlines permitted and
ignored). In packed mode it is ceil(n/8) raw bytes, least significant bit
first within each byte, zero padding in the final byte. Readers distinguish
the modes by payload shape, which is unambiguous for n > 1.

Pair streams are NDJSON, read in blocks of whole lines on one of two paths.
A block of the writer's exact form is checked at fixed byte offsets and its
times parsed by one json.loads. Any other block takes the general path, which
parses each record as a JSON object: it reads the forms the format allows
but the writer never emits, and it names the line of a bad record.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .bitstring import BitString
from .errors import InputFormatError, UsageError
from .streams import PairStream

__all__ = [
    "write_bits",
    "read_bits",
    "write_stream_ndjson",
    "read_stream_ndjson",
    "write_json",
    "write_distribution_csv",
    "write_deviation_csv",
    "write_reports_csv",
    "write_sweep_csv",
]


@contextmanager
def _atomic_open(path):
    """Binary handle on a temp file that replaces ``path`` only if the block succeeds."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path, payload: bytes) -> Path:
    with _atomic_open(path) as fh:
        fh.write(payload)
    return Path(path)


# --- bit files -----------------------------------------------------------------


def write_bits(path, bits: BitString, mode: str = "ascii") -> Path:
    header = f"#bits={len(bits)}\n".encode("ascii")
    if mode == "ascii":
        payload = bits.to01().encode("ascii") + b"\n" if len(bits) else b""
    elif mode == "packed":
        payload = np.packbits(bits.to_array(), bitorder="little").tobytes()
    else:
        raise UsageError(f"unknown bit-file mode {mode!r}")
    return _atomic_write(path, header + payload)


def read_bits(path) -> BitString:
    raw = Path(path).read_bytes()
    eol = raw.find(b"\n")
    if eol < 0 or not raw.startswith(b"#bits="):
        raise InputFormatError(f"{path}: missing '#bits=<n>' header")
    try:
        if not raw[6:eol].isdigit():  # ASCII digits only: no sign, space or '_'
            raise ValueError
        n = int(raw[6:eol])
    except ValueError:
        raise InputFormatError(f"{path}: bit count in header is not a plain decimal") from None
    payload = raw[eol + 1 :]
    text = payload.translate(None, b"\r\n")
    if len(text) == n and (not text or max(text) <= 0x31 and min(text) >= 0x30):
        return BitString(text.decode("ascii"))
    packed = -(-n // 8)  # integer ceiling: n / 8 overflows a float for huge headers
    if len(payload) == packed:
        arr = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
        return BitString.from_array(arr[:n])
    raise InputFormatError(f"{path}: payload is neither {n} ascii bits nor {packed} packed bytes")


# --- pair streams ----------------------------------------------------------------


# Streams are written in chunks of _WRITE_CHUNK records, with one list repr
# for the times, and read in blocks of _READ_CHUNK bytes of whole lines. A
# block of the writer's exact form takes the fast path, _parse_canonical. The
# general path, _parse_records, stays: it alone reads the other forms the
# format allows (spaces, CRLF, other key orders, blank lines) and names a bad line.
_WRITE_CHUNK = 1 << 16
_READ_CHUNK = 1 << 22
# Same text as json.dumps(..., separators=(",", ":")): json formats a finite
# float with float.__repr__, as list.__repr__ does, and PairStream holds only
# finite times. A record is '{"t":', its time and _SUFFIXES[2*a + b].
_SUFFIXES = tuple(',"a":%d,"b":%d}\n' % (a, b) for a in (0, 1) for b in (0, 1))
# The fixed bytes of that form as (offset, byte): from the line start for
# '{"t":', and back from the newline for the rest, skipping the two digits.
_HEAD = tuple(enumerate(b'{"t":'))
_TAIL = tuple((k - 13, c) for k, c in enumerate(b',"a":0,"b":0}\n') if k not in (5, 11))
_BAD_RECORD = (ValueError, KeyError, OverflowError, RecursionError)


def write_stream_ndjson(path, stream: PairStream) -> Path:
    with _atomic_open(path) as fh:
        for lo in range(0, len(stream), _WRITE_CHUNK):
            hi = lo + _WRITE_CHUNK
            times = repr(stream.t[lo:hi].tolist())[1:-1].split(", ")
            parts = ['{"t":'] * (3 * len(times))
            parts[1::3] = times
            codes = (2 * stream.a[lo:hi] + stream.b[lo:hi]).tolist()
            parts[2::3] = map(_SUFFIXES.__getitem__, codes)
            fh.write("".join(parts).encode("ascii"))
    return Path(path)


def _parse_canonical(block: bytes):
    """Columns of a block whose every line is {"t":T,"a":A,"b":B}, else None.

    ``block`` ends in a newline. The tokens T are read by one json.loads, with
    the checked fixed bytes blanked to spaces and each newline made a comma,
    so JSON's number grammar applies to them. Never raises: a block it does
    not accept whole is left to _parse_records.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts < 19).any():  # room for the fixed bytes and a token
        return None
    a, b = buf[ends - 8] - ord("0"), buf[ends - 2] - ord("0")
    if (a | b).max() > 1:
        return None
    text = buf.copy()
    for base, fixed in ((starts, _HEAD), (ends, _TAIL)):
        for k, c in fixed:
            at = base + k
            if (text[at] != c).any():
                return None
            text[at] = ord(" ")
    text[ends - 8] = text[ends - 2] = ord(" ")  # the digits, read above
    text[ends[:-1]] = ord(",")
    try:
        t = json.loads("[" + text.tobytes().decode("ascii") + "]")
        if len(t) != ends.size or set(map(type, t)) - {int, float}:
            return None
        t = np.array(t, dtype=np.float64)
    except _BAD_RECORD:
        return None
    return (t, a, b) if np.isfinite(t).all() else None


def _parse_records(lines: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of the records on ``lines``, parsed with one json.loads.

    Blank lines are skipped. Raises one of _BAD_RECORD unless every other
    line is exactly one object with the keys t, a, b, where t is a finite
    JSON number and a, b are the JSON integers 0 or 1.
    """
    kept = list(filter(None, map(bytes.strip, lines)))
    blob = b"\n,".join(kept)
    # Every line must be one {...} holding no other brace. Lines hold no
    # newline, so the count of "}\n,{" checks every join at once; together
    # these make each array element below the record of exactly one line.
    n = len(kept)
    if n and not (
        blob[:1] == b"{" and blob[-1:] == b"}"
        and blob.count(b"{") == blob.count(b"}") == n
        and blob.count(b"}\n,{") == n - 1
    ):
        raise ValueError("not one {...} object per line")
    recs = json.loads("[" + blob.decode("ascii") + "]")
    if set(map(len, recs)) - {3}:
        raise ValueError("records hold exactly the keys t, a, b")
    t, a, b = (list(map(itemgetter(key), recs)) for key in "tab")
    bits = a + b
    if set(map(type, t)) - {int, float} or set(map(type, bits)) - {int} or set(bits) - {0, 1}:
        raise ValueError("t must be a number and a, b the integers 0 or 1")
    t = np.array(t, dtype=np.float64)
    if not np.isfinite(t).all():
        raise ValueError("t must be finite")
    return t, np.array(a, dtype=np.uint8), np.array(b, dtype=np.uint8)


def _parses(line: bytes) -> bool:
    try:
        _parse_records([line])
    except _BAD_RECORD:
        return False
    return True


def _record_line(path, k: int) -> int:
    """Line number of record k (0-based), blank lines counted."""
    with open(path, "rb") as fh:
        lines = (i for i, line in enumerate(fh, start=1) if line.strip())
        return next(islice(lines, k, None))


def _blocks(fh):
    """The file in runs of whole lines of about _READ_CHUNK bytes, each ending in a newline."""
    rest = b""
    while data := fh.read(_READ_CHUNK):
        rest += data
        cut = rest.rfind(b"\n") + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest + b"\n"


def read_stream_ndjson(path) -> PairStream:
    chunks = []
    lineno = 0  # lines before the current block, blank ones included
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            cols = _parse_canonical(block)
            if cols is None:
                lines = block.split(b"\n")[:-1]  # on newlines only, as readlines splits
                try:
                    cols = _parse_records(lines)
                except _BAD_RECORD:
                    # A block fails exactly when one of its lines fails alone.
                    bad = next(i for i, line in enumerate(lines, start=1) if not _parses(line))
                    raise InputFormatError(
                        f"{path}:{lineno + bad}: expected a {{t,a,b}} record with a finite "
                        "number t and a, b each 0 or 1"
                    ) from None
            chunks.append(cols)
            lineno += block.count(b"\n")
    t, a, b = map(np.concatenate, zip(*chunks)) if chunks else (np.zeros(0),) * 3
    try:
        return PairStream(t, a, b)
    except UsageError as exc:
        # Records are checked one by one above, so only their order can fail:
        # name the first time that is negative or not above the one before.
        in_order = np.concatenate(([t[0] >= 0], t[1:] > t[:-1]))
        line = _record_line(path, int(np.argmin(in_order)))
        raise InputFormatError(f"{path}:{line}: {exc}") from None


# --- JSON and CSV reports ---------------------------------------------------------


def write_json(path, obj) -> Path:
    return _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii"))


# Law CSVs are formatted _LAW_CHUNK rows at a time straight from the float
# array, so a 2^22-row law never holds all its rows as Python strings.
_LAW_CHUNK = 1 << 16


def _write_law_csv(path, column: str, n: int, values: np.ndarray) -> Path:
    if values.ndim != 1:
        raise UsageError("law CSVs are for single-string laws")
    with _atomic_open(path) as fh:
        fh.write(f"index,bitstring,{column}\n".encode("ascii"))
        for lo in range(0, values.size, _LAW_CHUNK):
            rows = enumerate(values[lo : lo + _LAW_CHUNK].tolist(), lo)
            fh.write("".join([f"{i},{i:0{n}b},{p!r}\n" for i, p in rows]).encode("ascii"))
    return Path(path)


def write_distribution_csv(path, dist) -> Path:
    return _write_law_csv(path, "probability", dist.n, dist.probs)


def write_deviation_csv(path, dist) -> Path:
    """Per-string deviation from the uniform mass, for plotting."""
    return _write_law_csv(path, "deviation", dist.n, dist.deviation_from_uniform())


def write_reports_csv(path, reports) -> Path:
    """Tidy test-by-parameter table; one row per report."""
    rows = ["test,k,statistic,p_value,passed"]
    for r in reports:
        k = r.params.get("k", "")
        p = "" if r.p_value is None else repr(r.p_value)
        rows.append(f"{r.test_name},{k},{r.statistic!r},{p},{int(r.passed)}")
    return _atomic_write(path, ("\n".join(rows) + "\n").encode("ascii"))


def write_sweep_csv(path, rows) -> Path:
    """Sweep table; rows of four values carry the empirical column."""
    header = "theta,expectation_quantum,expectation_classical"
    if rows and len(rows[0]) == 4:
        header += ",expectation_empirical"
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))
