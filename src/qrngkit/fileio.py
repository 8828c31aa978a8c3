"""File formats: bit files, NDJSON pair streams, CSV/JSON reports.

All writers go through a temp-file-plus-rename so a crashed run never leaves
a half-written artifact, and none of them embed timestamps or other
run-varying data; two runs with the same inputs produce byte-identical files.

Bit-file format: one header line ``#bits=<n>`` followed by the payload. In
ascii mode the payload is n characters of '0'/'1' (newlines permitted and
ignored). In packed mode it is ceil(n/8) raw bytes, least significant bit
first within each byte, zero padding in the final byte. Readers distinguish
the modes by payload shape, which is unambiguous for n > 1.

Pair streams are NDJSON, written with each time spelled as orjson's shortest
round trip. They are read in blocks of whole lines on one of two paths.
A block of the writer's exact form is checked at fixed byte offsets and its
times parsed by one orjson.loads. Any other block takes the general path,
which parses each line as a JSON object with orjson.loads: it reads the
forms the format allows but the writer never emits, and it names the line
of a bad record. orjson recurses on nesting, and a deep one overflows the C
stack, so both paths check that no record nests (_flat) before orjson sees a
byte. Each block's order is checked against the block before it, and every
defect's line is found in its block, so no input is read twice: a pipe or a
FIFO reads as a file does. An order error is raised only after the last block
parses, so a malformed record anywhere is the one reported. Only the stream
functions import orjson.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

import numpy as np

from .bitstring import BitString
from .errors import InputFormatError, UsageError
from .streams import _CHUNK, PairStream

__all__ = [
    "write_bits",
    "read_bits",
    "write_stream_ndjson",
    "read_stream_ndjson",
    "read_stream_outcomes",
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
    if len(text) == n:
        bits = np.frombuffer(text, dtype=np.uint8) - np.uint8(ord("0"))
        if (bits <= 1).all():  # a byte below '0' wraps round to 208 or more
            return BitString._adopt(bits)
    packed = -(-n // 8)  # integer ceiling: n / 8 overflows a float for huge headers
    if len(payload) == packed:
        arr = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
        if arr[n:].any():
            raise InputFormatError(f"{path}: nonzero padding after bit {n} of the packed payload")
        return BitString._adopt(arr[:n])  # fresh, and 0/1 as unpacked bits are
    raise InputFormatError(f"{path}: payload is neither {n} ascii bits nor {packed} packed bytes")


# --- pair streams ----------------------------------------------------------------


# Streams are written in slices of _CHUNK records, one orjson.dumps for the times of
# each (its text peaks at about 68 B a record), and read in blocks of _READ_CHUNK bytes
# of whole lines. Only the general path, _parse_records, reads spaces, CRLF, other key
# orders and blank lines, and names a bad line.
_READ_CHUNK = 1 << 18
# A writer line is at most 42 bytes; the reader refuses to carry more than this
# past the last newline, so a file without newlines cannot fill memory.
_LINE_CAP = 1 << 20
# A record is _OPEN, its time as orjson's shortest round-trip token, and _CLOSE with
# its digits a and b set _A and _B bytes before the newline. _SEP closes one record
# with both digits 0 and opens the next, so a slice's text is its times joined by
# _SEP; PairStream holds only finite times, which orjson always spells.
_OPEN, _CLOSE = b'{"t":', b',"a":0,"b":0}\n'
_A, _B = 8, 2
_SEP = _CLOSE + _OPEN
# The fixed bytes of that form as (offset, byte): from the line start for _OPEN,
# and back from the newline for _CLOSE, skipping the two digits.
_HEAD = tuple(enumerate(_OPEN))
_TAIL = tuple((k, c) for k, c in zip(range(1 - len(_CLOSE), 1), _CLOSE) if -k not in (_A, _B))
_SHORTEST = len(_OPEN) + len(_CLOSE)  # a line's length before its newline, for a 1-byte token
_BAD_RECORD = (ValueError, KeyError)


def write_stream_ndjson(path, chunks) -> Path:
    """Write the PairStreams ``chunks`` as one stream (a whole one as ``[stream]``),
    refusing a chunk that does not start after the last time before it."""
    import orjson  # about 12 ms to import; only the stream functions need it

    last = -np.inf
    with _atomic_open(path) as fh:
        for stream in filter(len, chunks):  # an empty chunk has no records to write
            if not stream.t[0] > last:
                raise UsageError(f"a chunk starts at {stream.t[0]}, not after {last}")
            last = stream.t[-1]
            for lo in range(0, len(stream), _CHUNK):
                hi = lo + _CHUNK
                times = orjson.dumps(stream.t[lo:hi], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
                text = bytearray().join((_OPEN, times.replace(b",", _SEP), _CLOSE))
                digits = np.frombuffer(text, dtype=np.uint8)
                ends = np.flatnonzero(digits == ord("\n"))
                digits[ends - _A] += stream.a[lo:hi]
                digits[ends - _B] += stream.b[lo:hi]
                fh.write(text)
    return Path(path)


def _flat(block: bytes, firsts: bytes) -> bool:
    """Whether ``block`` holds no '[' and one '{' per record, the one opening it,
    ``firsts`` being the records' first bytes: every valid record does, and nests nothing."""
    braces = np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("{"))
    return b"[" not in block and braces == len(firsts) == firsts.count(b"{")


def _parse_canonical(block: bytes):
    """Columns of a block whose every line is {"t":T,"a":A,"b":B}, else None.

    ``block`` ends in a newline. The tokens T are read by one orjson.loads,
    with the checked fixed bytes blanked to spaces and each newline made a
    comma, so JSON's number grammar applies to them. Never raises: a block it
    does not accept whole is left to _parse_records.
    """
    import orjson

    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts < _SHORTEST).any():  # room for the fixed bytes and a token
        return None
    a, b = buf[ends - _A] - ord("0"), buf[ends - _B] - ord("0")
    if (a | b).max() > 1 or not _flat(block, buf[starts].tobytes()):
        return None
    array = np.empty(buf.size + 2, dtype=np.uint8)  # '[', the edited block, ']'
    array[0], array[-1] = b"[]"
    text = array[1:-1]
    text[:] = buf
    for base, fixed in ((starts, _HEAD), (ends, _TAIL)):
        for k, c in fixed:
            at = base + k
            if (text[at] != c).any():
                return None
            text[at] = ord(" ")
    text[ends - _A] = text[ends - _B] = ord(" ")  # the digits, read above
    text[ends[:-1]] = ord(",")
    try:
        t = orjson.loads(memoryview(array))
        if len(t) != ends.size or set(map(type, t)) - {int, float}:
            return None
        t = np.array(t, dtype=np.float64)
    except _BAD_RECORD:
        return None
    return (t, a, b) if np.isfinite(t).all() else None


def _parse_records(text: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of the records on the lines of ``text``, one orjson.loads a line.

    Blank lines are skipped. Raises one of _BAD_RECORD unless every other
    line is exactly one object with the keys t, a, b, where t is a finite
    JSON number and a, b are the JSON integers 0 or 1.
    """
    import orjson

    kept = list(filter(None, map(bytes.strip, text.split(b"\n"))))
    if not _flat(text, bytes(map(itemgetter(0), kept))):
        raise ValueError("not one flat {...} object per line")
    recs = list(map(orjson.loads, kept))
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
        _parse_records(line)
    except _BAD_RECORD:
        return False
    return True


def _blocks(fh, path):
    """The file in runs of whole lines of about _READ_CHUNK bytes, each ending in a
    newline, as (lines before the run, blank ones included; the run)."""
    lineno, rest, carried = 0, [], 0  # the bytes after the last newline and their count
    while data := fh.read(_READ_CHUNK):
        cut = data.rfind(b"\n") + 1
        if cut:
            block = b"".join([*rest, memoryview(data)[:cut]])
            yield lineno, block
            lineno += block.count(b"\n")
            rest, carried = [], 0
        rest.append(data[cut:])
        carried += len(data) - cut
        if carried > _LINE_CAP:
            raise InputFormatError(f"{path}:{lineno + 1}: line longer than {_LINE_CAP} bytes")
    if carried:
        yield lineno, b"".join(rest) + b"\n"


def _checked_blocks(path):
    """The columns (t, a, b) of the stream's blocks, each block's records checked as it
    parses and their order checked across blocks. A malformed record raises at its line
    at once; the first record that is negative or not above the one before raises at its
    line only after the last block parses, so a malformed record anywhere comes first."""
    # the float just below 0: a first time lies above it exactly when it is non-negative
    last, unordered = -5e-324, None
    with open(path, "rb") as fh:
        for lineno, block in _blocks(fh, path):
            cols = _parse_canonical(block)
            if cols is None:
                try:
                    cols = _parse_records(block)
                except _BAD_RECORD:
                    # A block fails exactly when one of its lines fails alone.
                    lines = block.split(b"\n")  # on newlines only, as readlines splits
                    bad = next(i for i, line in enumerate(lines, start=1) if not _parses(line))
                    raise InputFormatError(
                        f"{path}:{lineno + bad}: expected a {{t,a,b}} record with a finite "
                        "number t and a, b each 0 or 1"
                    ) from None
            t = cols[0]
            if unordered is None and t.size:
                in_order = t > np.append(last, t[:-1])
                if not in_order.all():
                    # record r is on the r-th non-blank line: both paths read each as one record
                    filled = [i for i, line in enumerate(block.split(b"\n"), 1) if line.strip()]
                    unordered = lineno + filled[int(np.argmin(in_order))]
                last = t[-1]
            yield cols
    if unordered is not None:
        raise InputFormatError(f"{path}:{unordered}: "
                               "record times must be non-negative and strictly increasing")


def _gathered(path, columns):
    """The stream's columns at the indices ``columns`` of (t, a, b), each gathered from
    the checked blocks as they parse into one growing bytearray that the array adopts."""
    buffers = [bytearray() for _ in columns]
    for cols in _checked_blocks(path):
        for buffer, k in zip(buffers, columns):
            buffer += cols[k].data
    return [np.frombuffer(c, np.uint8 if k else np.float64) for c, k in zip(buffers, columns)]


def read_stream_ndjson(path) -> PairStream:
    return PairStream(*_gathered(path, (0, 1, 2)))


def read_stream_outcomes(path) -> tuple[BitString, BitString]:
    """The plus and times strings of the stream, its a and b columns, checked as
    read_stream_ndjson checks it. Each block's times are dropped as it parses, so
    the read holds the outcome bits alone, 2 B a record, and the strings take over
    the buffers they were gathered in."""
    return tuple(map(BitString._adopt, _gathered(path, (1, 2))))


# --- JSON and CSV reports ---------------------------------------------------------


def write_json(path, obj) -> Path:
    return _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii"))


def _write_law_csv(path, column: str, n: int, values: np.ndarray) -> Path:
    if values.ndim != 1:
        raise UsageError("law CSVs are for single-string laws")
    with _atomic_open(path) as fh:
        fh.write(f"index,bitstring,{column}\n".encode("ascii"))
        # _CHUNK rows at a time, so a 2^22-row law never holds all its rows as strings
        for lo in range(0, values.size, _CHUNK):
            rows = enumerate(values[lo : lo + _CHUNK].tolist(), lo)
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
