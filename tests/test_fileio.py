import json
import math
import os
import subprocess
import sys

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import read_stream_per_line, traced_peak
from qrngkit import fileio
from qrngkit.cli import main
from qrngkit import (
    BitString,
    ExactDistribution,
    InputFormatError,
    PairStream,
    TestReport,
    UsageError,
    read_bits,
    read_stream_ndjson,
    read_stream_outcomes,
    write_bits,
    write_deviation_csv,
    write_distribution_csv,
    write_json,
    write_reports_csv,
    write_stream_ndjson,
    write_sweep_csv,
)


# --- bit files -----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["ascii", "packed"])
@pytest.mark.parametrize("text", ["", "1", "0110", "10000001", "101" * 33])
def test_bit_file_round_trip(tmp_path, mode, text):
    p = tmp_path / "z.bits"
    write_bits(p, BitString(text), mode=mode)
    assert read_bits(p) == BitString(text)


def test_bit_file_random_round_trips(tmp_path):
    rng = np.random.default_rng(80)
    for i in range(10):
        n = int(rng.integers(0, 70))
        z = BitString.from_array(rng.integers(0, 2, n).astype(np.uint8))
        p = tmp_path / f"r{i}.bits"
        write_bits(p, z, mode="packed" if i % 2 else "ascii")
        assert read_bits(p) == z


def test_ascii_bit_file_layout(tmp_path):
    p = tmp_path / "z.bits"
    write_bits(p, BitString("0110"))
    assert p.read_bytes() == b"#bits=4\n0110\n"


def test_packed_bit_file_layout(tmp_path):
    p = tmp_path / "z.bits"
    write_bits(p, BitString("10000001"), mode="packed")
    # leftmost bit goes into the low bit of the byte
    assert p.read_bytes() == b"#bits=8\n\x81"
    write_bits(p, BitString("1"), mode="packed")
    assert p.read_bytes() == b"#bits=1\n\x01"


def test_ascii_reader_ignores_line_breaks(tmp_path):
    p = tmp_path / "z.bits"
    p.write_bytes(b"#bits=8\n0110\r\n1001\n")
    assert read_bits(p) == BitString("01101001")


def test_write_bits_rejects_unknown_mode(tmp_path):
    with pytest.raises(UsageError):
        write_bits(tmp_path / "z.bits", BitString("01"), mode="base64")


@pytest.mark.parametrize(
    "raw",
    [
        b"0110\n",                # no header
        b"#bits=four\n0110\n",    # unreadable count
        b"#bits=-1\n",            # negative count
        b"#bits=4\n01\n",         # too few ascii bits, wrong packed size
        b"#bits=4\n0121",         # right ascii length but not 0/1 characters
        b"#bits=16\n\xff",        # one packed byte short
        b"#bits=" + b"9" * 400 + b"\n0",  # a count beyond any float
        b"#bits=1_0\n0110011001\n",  # counts int() would coerce: to 10, 4, 4 and 0
        b"#bits= 4 \n0110\n",
        b"#bits=+4\n0110\n",
        b"#bits=-0\n",
        b"#bits=3\n\xff",         # nonzero padding past bit 3 of the packed byte
    ],
)
def test_read_bits_rejects_malformed_files(tmp_path, raw):
    p = tmp_path / "bad.bits"
    p.write_bytes(raw)
    with pytest.raises(InputFormatError):
        read_bits(p)


_BIT_FRAGMENTS = [b"#bits=", b"\n", b"\r", b"0", b"1", b"8", b"-", b" ", b"_", b"9" * 400,
                  b"\x00", b"\xff", b"\x81"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=60),
                 st.lists(st.sampled_from(_BIT_FRAGMENTS), max_size=30).map(b"".join),
                 st.tuples(st.integers(-(10**400), 10**400), st.binary(max_size=20)).map(
                     lambda nb: b"#bits=%d\n%b" % nb)))
def test_bit_reader_parses_or_raises_input_format_error(tmp_path, raw):
    p = tmp_path / "fuzz.bits"
    p.write_bytes(raw)
    try:
        bits = read_bits(p)
    except InputFormatError:
        return
    assert isinstance(bits, BitString)


def test_atomic_write_leaves_no_temp_file(tmp_path):
    p = tmp_path / "z.bits"
    write_bits(p, BitString("01"))
    assert [f.name for f in tmp_path.iterdir()] == ["z.bits"]


# --- pair streams ----------------------------------------------------------------


def test_stream_round_trip(tmp_path):
    s = PairStream(
        np.array([0.5, 1.25, 2.0]),
        np.array([0, 1, 1], dtype=np.uint8),
        np.array([1, 1, 0], dtype=np.uint8),
    )
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    back = read_stream_ndjson(p)
    assert np.array_equal(back.t, s.t)
    assert np.array_equal(back.a, s.a)
    assert np.array_equal(back.b, s.b)
    assert p.read_text() == '{"t":0.5,"a":0,"b":1}\n{"t":1.25,"a":1,"b":1}\n{"t":2.0,"a":1,"b":0}\n'


def test_empty_stream_round_trip(tmp_path):
    s = PairStream(np.zeros(0), np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8))
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    assert p.read_bytes() == b""
    assert len(read_stream_ndjson(p)) == 0


def test_stream_writer_joins_its_chunks_and_refuses_one_out_of_order(tmp_path):
    bits = np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8)
    s = PairStream(np.arange(6.0), bits, bits[::-1])

    def part(lo, hi):
        return PairStream(s.t[lo:hi], s.a[lo:hi], s.b[lo:hi])

    whole, parts = tmp_path / "whole.ndjson", tmp_path / "parts.ndjson"
    write_stream_ndjson(whole, [s])
    write_stream_ndjson(parts, iter([part(0, 0), part(0, 2), part(2, 2), part(2, 6)]))
    assert parts.read_bytes() == whole.read_bytes()
    # a chunk that starts at or before the last time written is refused, and no file is left
    for lo in (1, 2):
        with pytest.raises(UsageError, match="not after 2.0"):
            write_stream_ndjson(tmp_path / "bad.ndjson", [part(0, 3), part(lo, 6)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["parts.ndjson", "whole.ndjson"]
    with pytest.raises(TypeError):  # one parameter type: a whole stream is [stream]
        write_stream_ndjson(tmp_path / "bare.ndjson", s)


def test_stream_reader_reports_bad_line_number(tmp_path):
    p = tmp_path / "s.ndjson"
    p.write_text('{"t":0.5,"a":0,"b":1}\n{"t":1.0,"a":2}\n')
    with pytest.raises(InputFormatError, match="s.ndjson:2"):
        read_stream_ndjson(p)


def test_stream_reader_rejects_unordered_times(tmp_path):
    p = tmp_path / "s.ndjson"
    p.write_text('{"t":2.0,"a":0,"b":1}\n{"t":1.0,"a":0,"b":1}\n')
    with pytest.raises(InputFormatError, match=r"s\.ndjson:2:"):
        read_stream_ndjson(p)


def test_stream_reader_skips_blank_lines(tmp_path):
    p = tmp_path / "s.ndjson"
    p.write_text('{"t":0.5,"a":0,"b":1}\n\n{"t":1.0,"a":1,"b":0}\n')
    assert len(read_stream_ndjson(p)) == 2


def _stream(t):
    t = np.asarray(t, dtype=np.float64)
    bits = np.arange(t.size, dtype=np.uint8)
    return PairStream(t, bits & 1, (bits >> 1) & 1)


def _reference_ndjson(stream) -> bytes:
    """The stream text as one orjson.dumps call per record would write it."""
    return b"".join(
        orjson.dumps({"t": float(t), "a": int(a), "b": int(b)}) + b"\n"
        for t, a, b in zip(stream.t, stream.a, stream.b)
    )


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 4 records when writing and about 64 bytes (3 lines) when reading."""
    monkeypatch.setattr(fileio, "_CHUNK", 4)
    monkeypatch.setattr(fileio, "_READ_CHUNK", 64)


def test_stream_writer_matches_per_record_orjson_across_chunks(tmp_path, small_chunks):
    # 0.1 + 0.2 = 0.30000000000000004 needs 17 digits; orjson spells 1e-7 and 1e16
    # in exponent form; 5e-324 is the smallest subnormal; 2.0, 3.0 and 1e15 are
    # integral floats, written with a trailing ".0".
    rng = np.random.default_rng(3)
    middle = 0.1 + 0.2 + np.cumsum(rng.exponential(1e-6, 5 * fileio._CHUNK))
    s = _stream(np.concatenate([
        [0.0, 5e-324, 1e-7, 0.1 + 0.2], middle, [2.0, 3.0, 1e15, 1e16, 1e22, 1.7976931348623157e308]
    ]))
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    text = p.read_bytes()
    assert text == _reference_ndjson(s)
    assert b'{"t":5e-324,' in text and b'{"t":0.30000000000000004,' in text
    assert b'{"t":1e16,' in text and b'{"t":2.0,' in text
    assert read_stream_ndjson(p) == s


def test_stream_writer_spells_every_float_range_as_per_record_orjson(tmp_path):
    # the writer's one orjson.dumps per slice spells each time as orjson spells it
    # alone: random bit patterns (spanning the exponents), times in [1e-4, 1e16),
    # every power of ten with its neighbours, and 0, in chunks of the writer's own size
    rng = np.random.default_rng(22)
    patterns = rng.integers(1, 0x7FF0_0000_0000_0000, 1 << 17, dtype=np.uint64).view(np.float64)
    in_band = 10.0 ** rng.uniform(-4, 16, 1 << 16)
    powers = 10.0 ** np.arange(-323, 309, dtype=np.float64)
    s = _stream(np.unique(np.concatenate([
        [0.0], patterns, in_band, powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)
    ])))
    assert len(s) > 2 * fileio._CHUNK and np.isfinite(s.t).all()
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    assert p.read_bytes() == _reference_ndjson(s)
    assert read_stream_ndjson(p) == s


def test_stream_writer_spells_whole_chunks_below_1e_4(tmp_path, small_chunks):
    s = _stream(np.concatenate([[5e-324], np.cumsum(np.full(30, 3.3e-6))]))
    assert s.t[-1] < 1e-4
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    text = p.read_bytes()
    assert text == _reference_ndjson(s)
    assert b'{"t":3.3e-6,' in text and b'{"t":0.0000' in text  # both of orjson's forms
    assert read_stream_ndjson(p) == s


def test_stream_writer_costs_no_more_for_a_time_below_1e_4(tmp_path):
    # a slice holding a time below 1e-4 is spelled by the same one orjson.dumps, so it
    # costs no more memory; splitting the slice into per-time tokens would take 5 MB more
    n, bits, peaks = fileio._CHUNK, np.zeros(fileio._CHUNK, np.uint8), []
    for first in (1.0, 1e-6):
        t = np.arange(1.0, n + 1.0)
        t[0] = first
        s = PairStream(t, bits, bits)
        peaks.append(traced_peak(write_stream_ndjson, tmp_path / f"{first}.ndjson", [s])[1])
        assert (tmp_path / f"{first}.ndjson").read_bytes() == _reference_ndjson(s)
    assert peaks[1] < peaks[0] + 5e5, peaks


def test_stream_writer_pins_orjson_edge_spellings(tmp_path):
    # the exact tokens, so that an orjson release that spells a time otherwise fails here
    s = _stream([0.0, 5e-324, 1e-7, 9.99e-05, 1e-4, 0.1 + 0.2, 1e15, 1e16, 1.7976931348623157e308])
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    assert p.read_bytes() == (
        b'{"t":0.0,"a":0,"b":0}\n'
        b'{"t":5e-324,"a":1,"b":0}\n'
        b'{"t":1e-7,"a":0,"b":1}\n'
        b'{"t":0.0000999,"a":1,"b":1}\n'
        b'{"t":0.0001,"a":0,"b":0}\n'
        b'{"t":0.30000000000000004,"a":1,"b":0}\n'
        b'{"t":1000000000000000.0,"a":0,"b":1}\n'
        b'{"t":1e16,"a":1,"b":1}\n'
        b'{"t":1.7976931348623157e308,"a":0,"b":0}\n'
    )
    assert read_stream_ndjson(p) == s


@pytest.mark.parametrize("a, b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_record_layout_is_the_per_record_orjson_text(a, b):
    token = orjson.dumps(0.30000000000000004)
    line = bytearray(fileio._OPEN + token + fileio._CLOSE)
    line[-1 - fileio._A] += a
    line[-1 - fileio._B] += b
    assert bytes(line) == orjson.dumps({"t": 0.30000000000000004, "a": a, "b": b}) + b"\n"
    assert len(fileio._OPEN + b"0" + fileio._CLOSE) - 1 == fileio._SHORTEST


_EDGE_TOKENS = [b"1E5", b"1e+5", b"0.5e-3", b"-0", b"123456789012345678901234567890", b"1e-400",
                b"2.2250738585072011e-308", b"1.234567890123456789012345"]


def _edge_forms(token):
    """The record in the writer's exact form, and with spaces that only the general path reads."""
    return (b'{"t":' + token + b',"a":0,"b":1}\n', b'{"t": ' + token + b', "a":0,"b":1}\n')


@pytest.mark.parametrize("token", _EDGE_TOKENS)
def test_both_read_paths_agree_on_edge_tokens(tmp_path, token):
    fast, general = _edge_forms(token)
    assert fileio._parse_canonical(fast) is not None and fileio._parse_canonical(general) is None
    read = []
    for i, record in enumerate((fast, general)):
        p = tmp_path / f"s{i}.ndjson"
        p.write_bytes(record)
        read.append(read_stream_ndjson(p).t)
    assert read[0].view(np.uint64) == read[1].view(np.uint64)
    assert read[0][0] == float(token)


@pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"1e400", b"01", b".5", b"1."])
def test_both_read_paths_refuse_bad_tokens_at_their_line(tmp_path, capsys, token):
    good = b'{"t":0.25,"a":0,"b":1}\n'
    for record in _edge_forms(token):
        p = tmp_path / "s.ndjson"
        p.write_bytes(good + record + b'{"t":9.5,"a":1,"b":1}\n')
        assert main(["extract", "--method", "xor", "--stream", str(p),
                     "--out-dir", str(tmp_path)]) == 4
        assert "s.ndjson:2: expected a {t,a,b} record" in capsys.readouterr().err


def test_stream_round_trip_across_chunk_boundaries(tmp_path, small_chunks):
    for n in range(13):
        s = _stream(np.arange(n) * 0.25 + 0.1)
        p = tmp_path / f"s{n}.ndjson"
        write_stream_ndjson(p, [s])
        assert p.read_bytes() == _reference_ndjson(s)
        assert read_stream_ndjson(p) == s
        assert read_stream_outcomes(p) == (s.plus_string(), s.times_string())


def test_bad_record_in_second_chunk_reports_file_line_number(tmp_path, small_chunks):
    lines = [f'{{"t":{i}.5,"a":0,"b":1}}' for i in range(10)]
    lines[4] = '{"t":4.5,"a":0,"b":true}'  # second chunk: lines 4 to 6
    p = tmp_path / "s.ndjson"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputFormatError, match=r"s\.ndjson:5:"):
        read_stream_ndjson(p)
    # blank lines before the bad record count too
    p.write_text("\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\n")
    with pytest.raises(InputFormatError, match=r"s\.ndjson:7:"):
        read_stream_ndjson(p)


@pytest.mark.parametrize(
    "times, line",
    [
        (["-0.5", "1.0", "2.0"], 3),  # negative first time, after two blank lines
        (["0.5", "1.0", "1.0", "2.0"], 5),  # a repeated time
        (["0.5", "1.0", "2.0", "3.0", "4.0", "5.0", "4.5"], 9),  # out of order in a later chunk
    ],
)
def test_unordered_time_reports_file_line_number(tmp_path, small_chunks, times, line):
    lines = [f'{{"t":{t},"a":0,"b":1}}' for t in times]
    p = tmp_path / "s.ndjson"
    p.write_text("\n".join(["", " ", *lines]) + "\n")
    with pytest.raises(InputFormatError, match=rf"s\.ndjson:{line}: record times"):
        read_stream_ndjson(p)


def _blocks_of_three(monkeypatch, path, times, b=(1,) * 9):
    """Write records of 22 bytes each and read in blocks of exactly three of them."""
    path.write_bytes(b"".join(b'{"t":%.1f,"a":0,"b":%d}\n' % tb for tb in zip(times, b)))
    monkeypatch.setattr(fileio, "_READ_CHUNK", 66)
    with open(path, "rb") as fh:
        assert [block.count(b"\n") for _, block in fileio._blocks(fh, path)] == [3] * 3


@pytest.mark.parametrize("times", [
    [0.5, 1.5, 2.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5],  # a block's first time equals the last before
    [0.5, 1.5, 2.5, 1.5, 3.5, 4.5, 5.5, 6.5, 7.5],  # and lies below it
])
def test_order_is_checked_across_block_boundaries(tmp_path, monkeypatch, times):
    p = tmp_path / "s.ndjson"
    _blocks_of_three(monkeypatch, p, times)
    for reader in (read_stream_ndjson, read_stream_outcomes):
        with pytest.raises(InputFormatError, match=r"s\.ndjson:4: record times"):
            reader(p)


def test_a_malformed_record_in_a_later_block_is_reported_before_an_order_break(
        tmp_path, monkeypatch):
    p = tmp_path / "s.ndjson"
    # an order break on line 3, in the first block; an outcome 2 on line 8, in the third
    _blocks_of_three(monkeypatch, p, [0.5, 2.5, 1.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5],
                     b=(1,) * 7 + (2, 1))
    for reader in (read_stream_ndjson, read_stream_outcomes):
        with pytest.raises(InputFormatError, match=r"s\.ndjson:8: expected a \{t,a,b\} record"):
            reader(p)


def test_an_order_break_is_found_in_the_one_read_of_the_path(tmp_path, monkeypatch):
    p = tmp_path / "s.ndjson"
    p.write_bytes(b'{"t":0.5,"a":0,"b":1}\n\n{"t": 2.5, "a":0, "b":1}\n{"t":1.5,"a":0,"b":1}\n')
    opened = []

    def counted(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(fileio, "open", counted, raising=False)
    with pytest.raises(InputFormatError, match=r"s\.ndjson:4: record times"):
        read_stream_ndjson(p)
    assert opened == [p]


def test_the_stream_reader_holds_its_columns_once(tmp_path):
    peaks = []
    for n in (200_000, 1_000_000):
        p = tmp_path / f"s{n}.ndjson"
        write_stream_ndjson(p, [_stream(np.cumsum(np.random.default_rng(n).exponential(1e-6, n)))])
        peaks.append(traced_peak(read_stream_ndjson, p)[1])
    # 10 B a record of columns: the gathered blocks and their concatenation took 20 B
    assert (peaks[1] - peaks[0]) / 800_000 < 14, peaks


@pytest.mark.parametrize("blank", range(8))
def test_blank_line_at_every_position_near_a_chunk_boundary(tmp_path, small_chunks, blank):
    lines = [f'{{"t":{i}.5,"a":1,"b":0}}' for i in range(8)]
    lines.insert(blank, "")
    p = tmp_path / "s.ndjson"
    p.write_text("\n".join(lines) + "\n")
    assert read_stream_ndjson(p) == PairStream(
        np.arange(8) + 0.5, np.ones(8, np.uint8), np.zeros(8, np.uint8)
    )


@pytest.mark.parametrize(
    "bad",
    [
        '{"t":NaN,"a":0,"b":1}',
        '{"t":Infinity,"a":0,"b":1}',
        '{"t":-Infinity,"a":0,"b":1}',
        '{"t":1e400,"a":0,"b":1}',
        '{"t":' + "9" * 400 + ',"a":0,"b":1}',
        '{"t":"2.0","a":0,"b":1}',
        '{"t":true,"a":0,"b":1}',
        '{"t":null,"a":0,"b":1}',
        '{"t":2.0,"a":1.7,"b":1}',
        '{"t":2.0,"a":1.0,"b":1}',
        '{"t":2.0,"a":0,"b":true}',
        '{"t":2.0,"a":0,"b":"1"}',
        '{"t":2.0,"a":2,"b":1}',
        '{"t":2.0,"a":-1,"b":1}',
        '{"t":2.0,"a":0}',
        '{"t":2.0,"a":0,"b":1,"c":0}',
        '{"t":2.0,"a":0,"b":1},{"t":3.0,"a":0,"b":1}',
        '{"t":2.0,"a":0,\n"b":1}',
        # one record split over two lines plus two records on one line: the
        # whole chunk would parse as an array of as many records as lines
        '{"t":2.0,"a":0\n"b":1}\n{"t":3.0,"a":0,"b":1},{"t":4.0,"a":0,"b":1}',
        '[2.0,0,1]',
        '{"t":2.0,"a":0,"b":1}}',
    ],
)
def test_stream_reader_rejects_malformed_records_with_line_number(tmp_path, bad):
    p = tmp_path / "s.ndjson"
    p.write_text('{"t":0.5,"a":0,"b":1}\n' + bad + '\n{"t":9.5,"a":1,"b":1}\n')
    with pytest.raises(InputFormatError, match=r"s\.ndjson:2:"):
        read_stream_ndjson(p)


def test_stream_reader_rejects_non_ascii_bytes(tmp_path):
    p = tmp_path / "s.ndjson"
    p.write_bytes(b'{"t":0.5,"a":0,"b":1}\n{"t":1.5,"a":0,"b":1}\xff\n')
    with pytest.raises(InputFormatError, match=r"s\.ndjson:2:"):
        read_stream_ndjson(p)


def test_stream_reader_accepts_spaces_and_crlf(tmp_path):
    p = tmp_path / "s.ndjson"
    p.write_bytes(b'  { "b": 1, "a": 0, "t": 0.5 }\r\n{"t":2,"a":1,"b":0}')
    assert read_stream_ndjson(p) == PairStream(
        np.array([0.5, 2.0]), np.array([0, 1], np.uint8), np.array([1, 0], np.uint8)
    )


def test_failed_stream_write_leaves_no_file(tmp_path, small_chunks):
    s = _stream(np.arange(10) + 0.5)
    s.b = s.b.astype(object)
    s.b[6] = "not a bit"  # formatting fails in the second chunk
    p = tmp_path / "stream.ndjson"
    with pytest.raises(TypeError):
        write_stream_ndjson(p, [s])
    assert list(tmp_path.iterdir()) == []
    # an earlier file under the target name survives untouched
    p.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_stream_ndjson(p, [s])
    assert [f.name for f in tmp_path.iterdir()] == ["stream.ndjson"]
    assert p.read_bytes() == b"old"


_FRAGMENTS = [b'{"t":', b'"a":', b'"b":', b",", b"}", b"{", b"[", b"]", b"\n", b"\r", b" ",
              b"0", b"1", b"2", b"0.5", b"-1", b"1e400", b"NaN", b"true", b'"x"', b"\xff"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=200),
                 st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map(b"".join)))
def test_stream_reader_parses_or_raises_input_format_error(tmp_path, raw):
    p = tmp_path / "fuzz.ndjson"
    p.write_bytes(raw)
    try:
        s = read_stream_ndjson(p)
    except InputFormatError:
        return
    assert isinstance(s, PairStream)


_EDIT_BYTES = b'{}":,tab\t0123456789.eE+- \r\n[]'


def _agree_with_oracle(path):
    try:
        expected = read_stream_per_line(path)
    except InputFormatError as exc:
        for reader in (read_stream_ndjson, read_stream_outcomes):
            with pytest.raises(InputFormatError) as got:
                reader(path)
            assert str(got.value).split(": ")[0] == str(exc).split(": ")[0], reader.__name__
    else:
        assert read_stream_ndjson(path) == expected
        assert read_stream_outcomes(path) == (expected.plus_string(), expected.times_string())


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gaps=st.lists(st.floats(1e-9, 10.0), min_size=1, max_size=12),
       edits=st.lists(st.tuples(st.sampled_from("fid"), st.integers(0, 1000),
                                st.sampled_from(_EDIT_BYTES)), min_size=1, max_size=3),
       read_chunk=st.sampled_from([16, 64, 200]))
def test_stream_reader_agrees_with_per_line_oracle(tmp_path, monkeypatch, gaps, edits, read_chunk):
    monkeypatch.setattr(fileio, "_CHUNK", 4)
    monkeypatch.setattr(fileio, "_READ_CHUNK", read_chunk)
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [_stream(np.cumsum(gaps))])
    raw = bytearray(p.read_bytes())
    for op, where, byte in edits:  # flip, insert or delete one byte
        i = where % (len(raw) + 1)
        if op == "i":
            raw.insert(i, byte)
        elif i < len(raw):
            raw[i : i + 1] = [byte] if op == "f" else []
    p.write_bytes(raw)
    _agree_with_oracle(p)


def test_every_one_byte_edit_of_a_record_agrees_with_the_oracle(tmp_path, small_chunks):
    first, last = b'{"t":0.5,"a":0,"b":1}\n', b'{"t":9.5,"a":0,"b":0}\n'
    middle = b'{"t":1.25,"a":1,"b":0}\n'
    p = tmp_path / "s.ndjson"
    for i in range(len(middle)):
        for byte in _EDIT_BYTES:
            for edited in (middle[:i] + bytes([byte]) + middle[i + 1 :],
                           middle[:i] + bytes([byte]) + middle[i:],
                           middle[:i] + middle[i + 1 :]):
                p.write_bytes(first + edited + last)
                _agree_with_oracle(p)


_FLOATS_OF_EVERY_FORM = st.one_of(
    st.floats(0.0, allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(0.0, 1e-300),  # subnormals and exponent form
    st.integers(0, 2**60).map(float),  # integral, '.0' or exponent form
    st.sampled_from([5e-324, 1e-7, 1e16, 1e22, 1.7976931348623157e308]),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_FLOATS_OF_EVERY_FORM, max_size=20, unique=True).map(sorted))
def test_stream_writer_matches_per_record_orjson_for_any_times(tmp_path, small_chunks, times):
    s = _stream(times)
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    assert p.read_bytes() == _reference_ndjson(s)
    assert read_stream_ndjson(p) == s


@pytest.fixture
def no_general_path(monkeypatch):
    """Make the general record parser fail, so only the fast path can read."""
    def refuse(lines):
        raise AssertionError("general path taken")
    monkeypatch.setattr(fileio, "_parse_records", refuse)


def test_writer_output_takes_the_fast_path(tmp_path, small_chunks, no_general_path):
    s = _stream(np.cumsum(np.random.default_rng(5).exponential(0.3, 50)))
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    assert p.stat().st_size > 10 * fileio._READ_CHUNK
    assert read_stream_ndjson(p) == s
    p.write_bytes(p.read_bytes()[:-1])  # the final line, unterminated at EOF
    assert read_stream_ndjson(p) == s


def test_final_line_without_newline(tmp_path, small_chunks):
    p = tmp_path / "s.ndjson"
    for n in (1, 2, 5):
        s = _stream(np.arange(n) + 0.5)
        write_stream_ndjson(p, [s])
        p.write_bytes(p.read_bytes()[:-1])
        assert read_stream_ndjson(p) == s
    p.write_bytes(b'{"t":0.5,"a":0,"b":0}\n{"t":1.5,"a":0,"b":2}')
    with pytest.raises(InputFormatError, match=r"s\.ndjson:2:"):
        read_stream_ndjson(p)


def test_stream_reader_refuses_a_line_past_the_cap(tmp_path):
    # the reader carries at most _LINE_CAP bytes past the last newline, so a file
    # without newlines is refused after a read or two, not held in memory
    p = tmp_path / "s.ndjson"
    p.write_bytes(b"1" * (5 << 20))
    with pytest.raises(InputFormatError, match=r"s\.ndjson:1: line longer than 1048576 bytes"):
        read_stream_ndjson(p)
    p.write_bytes(b'{"t":0.5,"a":0,"b":0}\n' + b" " * (5 << 20) + b"\n")
    with pytest.raises(InputFormatError, match=r"s\.ndjson:2: line longer than 1048576 bytes"):
        read_stream_ndjson(p)


def test_a_time_the_parser_hands_back_infinite_exits_4_at_its_line(tmp_path, capsys,
                                                                  monkeypatch):
    # orjson refuses every non-finite number itself, so only a wrapped orjson.loads
    # reaches the finiteness guards of the two read paths
    for token in (b"1e309", b"1.7976931348623159e308", b"-1e400", b"9" * 400):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(token)
    loads = orjson.loads

    def infinite_at_2_5(data):
        # the fast path reads a block's times as one list, the general path a record a call
        value = loads(data)
        if isinstance(value, list):
            return [math.inf if t == 2.5 else t for t in value]
        if value["t"] == 2.5:
            value["t"] = math.inf
        return value

    monkeypatch.setattr(orjson, "loads", infinite_at_2_5)
    p = tmp_path / "s.ndjson"
    p.write_bytes(b'{"t":0.5,"a":0,"b":1}\n{"t":2.5,"a":1,"b":0}\n{"t":9.5,"a":0,"b":0}\n')
    # a guard that let the time through would fail line 3 instead, as not above line 2
    assert main(["extract", "--method", "xor", "--stream", str(p),
                 "--out-dir", str(tmp_path / "out")]) == 4
    assert "s.ndjson:2: expected a {t,a,b} record with a finite number t" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_DEEP = 200_000
_GOOD, _GOOD_CRLF = b'{"t":0.5,"a":0,"b":1}\n', b'{"t": 0.5, "a": 0, "b": 1}\r\n'


@pytest.mark.parametrize("raw", [
    _GOOD + b'{"t":' + b"[" * _DEEP + b"1" + b"]" * _DEEP + b',"a":0,"b":1}\n',
    _GOOD + b'{"t":' + b'{"x":' * _DEEP + b"1" + b"}" * _DEEP + b',"a":0,"b":1}\n',
    _GOOD_CRLF + b'{"t": ' + b"[" * _DEEP + b"1" + b"]" * _DEEP + b', "a": 0, "b": 1}\r\n',
    # as many '{' as lines, but line 2 opens with none and the last line holds the rest
    _GOOD + b"1\n" * (_DEEP - 1) + b'{"x":' * _DEEP + b"1" + b"}" * _DEEP + b"\n",
], ids=["canonical-list", "canonical-object", "general-list", "braces-elsewhere"])
def test_a_nested_record_exits_4_at_its_line(tmp_path, raw):
    # orjson recurses on nesting and overflows the C stack at this depth, so
    # the reader runs in a child process, where a crash fails only this test
    p = tmp_path / "s.ndjson"
    p.write_bytes(raw)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-m", "qrngkit.cli", "extract", "--method", "vn",
                          "--stream", str(p), "--out-dir", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 4, run.stderr
    assert f"{p}:2: expected a {{t,a,b}} record" in run.stderr


@pytest.mark.parametrize(
    "text, line",
    [
        # a lone \r ends no line: two records on line 2
        (b'{"t":0.5,"a":0,"b":0}\n{"t":1.5,"a":0,"b":1}\r{"t":2.5,"a":0,"b":1}\n', 2),
        # a lone \r as JSON whitespace inside a good record, then a bad line 3
        (b'{"t":0.5,"a":0,"b":0}\n{"t":1.5,\r"a":0,"b":1}\n{"t":2.5,"a":2,"b":1}\n', 3),
        (b'{"t":0.5,\r"a":0,"b":0}\r\n\r\n{"t":1.5,"a":0,"b":1}\n{"t":2.5,"a":0,"b":1}\n'
         b'{"t":1.0,"a":0,"b":1}\n', 5),
    ],
)
def test_lone_carriage_return_is_counted_by_newlines(tmp_path, small_chunks, text, line):
    p = tmp_path / "s.ndjson"
    p.write_bytes(text)
    with pytest.raises(InputFormatError, match=rf"s\.ndjson:{line}:"):
        read_stream_ndjson(p)


def test_spaces_inside_the_time_token(tmp_path, small_chunks):
    p = tmp_path / "s.ndjson"
    p.write_bytes(b'{"t": 0.5 ,"a":0,"b":1}\n{"t":\t1.5,"a":1,"b":0}\n')
    assert read_stream_ndjson(p) == PairStream(
        np.array([0.5, 1.5]), np.array([0, 1], np.uint8), np.array([1, 0], np.uint8)
    )
    for token in (b"1 .5", b"1. 5", b"- 1.5", b"1e 5", b" "):
        p.write_bytes(b'{"t":0.5,"a":0,"b":1}\n{"t":' + token + b',"a":1,"b":0}\n')
        with pytest.raises(InputFormatError, match=r"s\.ndjson:2:"):
            read_stream_ndjson(p)


@pytest.mark.parametrize(
    "token", [b"1.5,2.5", b"01", b"+1", b".5", b"1.", b"-", b"1e", b"0x1", b"1_0", b"[1.5]"],
)
def test_fast_path_form_around_a_bad_time_is_rejected(tmp_path, token):
    p = tmp_path / "s.ndjson"
    p.write_bytes(b'{"t":0.5,"a":0,"b":1}\n{"t":' + token + b',"a":1,"b":0}\n'
                  b'{"t":9.5,"a":0,"b":0}\n')
    with pytest.raises(InputFormatError, match=r"s\.ndjson:2:"):
        read_stream_ndjson(p)


def test_canonical_block_after_a_crlf_block(tmp_path, small_chunks):
    s = _stream(np.arange(12) + 0.25)
    p = tmp_path / "s.ndjson"
    write_stream_ndjson(p, [s])
    lines = p.read_bytes().split(b"\n")
    crlf = b"\r\n".join(lines[:3]) + b"\r\n"
    p.write_bytes(crlf + b"\n".join(lines[3:]))
    assert read_stream_ndjson(p) == s
    lines[9] = b'{"t":9.25,"a":1,"b":9}'  # a bad line in a later, canonical-looking block
    p.write_bytes(crlf + b"\n".join(lines[3:]))
    with pytest.raises(InputFormatError, match=r"s\.ndjson:10:"):
        read_stream_ndjson(p)


# --- reports -------------------------------------------------------------------


def test_write_json_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"zeta": 1, "alpha": [1, 2]})
    write_json(b, {"alpha": [1, 2], "zeta": 1})
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text()) == {"alpha": [1, 2], "zeta": 1}


def test_distribution_csv_contents(tmp_path):
    d = ExactDistribution(1, np.array([0.25, 0.75]))
    p = tmp_path / "d.csv"
    write_distribution_csv(p, d)
    assert p.read_text() == "index,bitstring,probability\n0,0,0.25\n1,1,0.75\n"
    write_deviation_csv(p, d)
    assert p.read_text() == "index,bitstring,deviation\n0,0,-0.25\n1,1,0.25\n"
    # bit strings are zero-extended to n, leftmost bit most significant
    write_distribution_csv(p, ExactDistribution.uniform(2))
    assert p.read_text() == (
        "index,bitstring,probability\n0,00,0.25\n1,01,0.25\n2,10,0.25\n3,11,0.25\n"
    )
    with pytest.raises(UsageError):
        write_distribution_csv(p, ExactDistribution(1, np.full((2, 2), 0.25)))


def test_law_csvs_match_per_row_reference_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_CHUNK", 7)
    n = 5
    probs = np.random.default_rng(7).random(1 << n) + 1e-3
    probs[3] = 0.0
    d = ExactDistribution(n, probs / probs.sum())
    for write, column, shift in [
        (write_distribution_csv, "probability", 0.0),
        (write_deviation_csv, "deviation", 1.0 / (1 << n)),
    ]:
        p = tmp_path / f"{column}.csv"
        write(p, d)
        rows = [f"index,bitstring,{column}"] + [
            f"{i},{''.join(str(i >> (n - 1 - p) & 1) for p in range(n))},{repr(float(q) - shift)}"
            for i, q in enumerate(d.probs)
        ]
        assert p.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")


def test_reports_csv_contents(tmp_path):
    reports = [
        TestReport("chi2_uniformity", 1.5, 0.25, True, 400, {"k": 2}),
        TestReport("borel_normality", 0.01, None, True, 4096, {"k": 1, "bound": 0.05}),
    ]
    p = tmp_path / "r.csv"
    write_reports_csv(p, reports)
    assert p.read_text() == (
        "test,k,statistic,p_value,passed\n"
        "chi2_uniformity,2,1.5,0.25,1\n"
        "borel_normality,1,0.01,,1\n"
    )


def test_sweep_csv_contents(tmp_path):
    p = tmp_path / "sweep.csv"
    write_sweep_csv(p, [(0.0, 1.0, 1.0), (math.pi / 4, 0.5, 0.5)])
    lines = p.read_text().splitlines()
    assert lines[0] == "theta,expectation_quantum,expectation_classical"
    assert lines[1] == "0.0,1.0,1.0"
    write_sweep_csv(p, [(0.0, 1.0, 1.0, 0.99)])
    assert p.read_text().splitlines()[0].endswith(",expectation_empirical")
