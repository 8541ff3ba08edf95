import gc
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import helpers
import spikesr.io
from spikesr.events import EventStream
from spikesr.io import (EventFormatError, EventParts, EvbinStream, guess_format, load_events,
                        save_events)
from spikesr.model import NetworkSpec, init_weights, load_checkpoint, save_checkpoint


def streams_equal(a, b):
    return (np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)
            and np.array_equal(a.y, b.y) and np.array_equal(a.p, b.p)
            and (a.width, a.height) == (b.width, b.height))


def csv_rendering(s):
    """A stream as CSV bytes, formatted one event at a time."""
    return ("t_us,x,y,p\n" + "".join(
        f"{t},{x},{y},{p}\n" for t, x, y, p in zip(s.t, s.x, s.y, s.p))).encode()


# Edge inputs of the CSV reader, each with the stream it loads to, as
# (events, width, height), or the message it is rejected with after the
# "<path>: " prefix.  The line-by-line parser defines these results; the
# array parse must give the same ones for every file it takes.
CSV_EDGE_CASES = [
    pytest.param(b"t_us,x,y,p\r\n1000,3,4,1\r\n2000,1,0,-1\r\n",
                 ([(1000, 3, 4, 1), (2000, 1, 0, -1)], 4, 5), id="crlf"),
    pytest.param(b"t_us,x,y,p\n\n1000,3,4,1\n  \n\t\n2000,1,0,-1\n\n",
                 ([(1000, 3, 4, 1), (2000, 1, 0, -1)], 4, 5), id="blank_and_whitespace_lines"),
    pytest.param(b"\nt_us,x,y,p\n1000,3,4,1\n",
                 ([(1000, 3, 4, 1)], 4, 5), id="blank_line_before_header"),
    pytest.param(b" t_us,x,y,p\t\n1000,3,4,1\n",
                 ([(1000, 3, 4, 1)], 4, 5), id="whitespace_around_header"),
    pytest.param(b"t_us,x,y,p\n 1000 ,\t3, 4 ,1\t\n",
                 ([(1000, 3, 4, 1)], 4, 5), id="spaces_and_tabs_around_fields"),
    pytest.param(b"t_us,x,y,p\n+5,3,4,+1\n", ([(5, 3, 4, 1)], 4, 5), id="plus_sign"),
    pytest.param(b"t_us,x,y,p\n01,03,4,01\n", ([(1, 3, 4, 1)], 4, 5), id="leading_zeros"),
    pytest.param(b"t_us,x,y,p\n1_000,3,4,1\n", ([(1000, 3, 4, 1)], 4, 5), id="underscore"),
    pytest.param(b"t_us,x,y,p\n1.0,3,4,1\n", "malformed record at byte 11", id="decimal"),
    pytest.param(b"t_us,x,y,p\n1e3,3,4,1\n", "malformed record at byte 11", id="exponent"),
    pytest.param(b"t_us,x,y,p\n1000,3,4,1\n# note\n", "malformed record at byte 22",
                 id="hash"),
    pytest.param(b"t_us,x,y,p\n1000,3,4,1,\n", "malformed record at byte 11",
                 id="trailing_comma"),
    pytest.param(b"t_us,x,y,p\n1000,,4,1\n", "malformed record at byte 11",
                 id="empty_field"),
    pytest.param(b"t_us,x,y,p\n1000,3,4\n", "malformed record at byte 11",
                 id="three_fields"),
    pytest.param(b"t_us,x,y,p\n1000,3,4,1,0\n", "malformed record at byte 11",
                 id="five_fields"),
    pytest.param(b"t_us,x,y,p\n", ([], 1, 1), id="header_only"),
    pytest.param(b"t_us,x,y,p\n1000,3,4,1\n\n2000,1,0,-1\n",
                 ([(1000, 3, 4, 1), (2000, 1, 0, -1)], 4, 5), id="blank_line_between_records"),
    pytest.param(b"t_us,x,y,p\n1000,3,4,1\n2000,1,0,-1",
                 ([(1000, 3, 4, 1), (2000, 1, 0, -1)], 4, 5), id="no_final_lf"),
    pytest.param(b"t_us,x,y,p\n99999999999999999999,2,3,1\n",
                 "malformed record at byte 11", id="outside_int64"),
    pytest.param(b"t_us,x,y,p\n-5,2,3,1\n", "negative timestamp", id="negative_t"),
    pytest.param(b"1000,3,4,1\n", "missing 't_us,x,y,p' header at byte 0",
                 id="missing_header"),
    pytest.param(b"t_us,x,y,p\n100000,1,0,1\n0,2,0,-1\n",
                 ([(0, 2, 0, -1), (100000, 1, 0, 1)], 3, 1), id="regression_of_100ms"),
    pytest.param(b"t_us,x,y,p\n100001,1,0,1\n0,2,0,-1\n",
                 "timestamp regression of 100001 us exceeds tolerance",
                 id="regression_over_100ms"),
    # np.loadtxt reads these bytes as whitespace, int() does not
    pytest.param(b"t_us,x,y,p\n\x1c1000,3,4,1\n", "malformed record at byte 11",
                 id="unit_separator"),
    pytest.param(b"t_us,x,y,p\n\xa01000,3,4,1\n", "malformed record at byte 11",
                 id="no_break_space"),
]


class TestCsv:
    @pytest.mark.parametrize("raw,expected", CSV_EDGE_CASES)
    def test_edge_input(self, tmp_path, raw, expected):
        f = tmp_path / "edge.csv"
        f.write_bytes(raw)
        if isinstance(expected, str):
            with pytest.raises(EventFormatError) as caught:
                load_events(f, "csv")
            assert str(caught.value) == f"{f}: {expected}"
        else:
            events, width, height = expected
            want = EventStream(*(np.array(events, dtype=np.int64).reshape(-1, 4).T),
                               width, height)
            assert streams_equal(load_events(f, "csv"), want)

    def test_array_parse_agrees_with_line_parser(self, rng):
        written = csv_rendering(helpers.random_stream(rng, 12, 9, 25, 200))
        taken = set()
        for case in CSV_EDGE_CASES + [pytest.param(written, None, id="written")]:
            raw = case.values[0]
            arr = spikesr.io._parse_csv_array(raw)
            if arr is not None:
                taken.add(case.id)
                assert np.array_equal(arr, spikesr.io._parse_csv_lines(raw, "edge.csv"))
        assert {"written", "header_only", "blank_line_between_records",
                "no_final_lf"} <= taken

    def test_write_matches_per_event_rendering(self, tmp_path, rng):
        chunk = spikesr.io.CSV_CHUNK_EVENTS
        n = 2 * chunk + 17
        t = np.sort(rng.integers(0, 10 ** 12, n))
        streams = {
            "chunks": EventStream(t, rng.integers(0, 300, n), rng.integers(0, 200, n),
                                  rng.choice([-1, 1], n), 300, 200),
            # t at both ends of int64, x and y at 0 and at the last pixel
            "extremes": EventStream([0, 0, 5, 2 ** 63 - 1], [0, 65535, 0, 65535],
                                    [65535, 0, 0, 65535], [1, -1, 1, -1], 65536, 65536),
            "one_event": EventStream([7], [3], [0], [-1], 4, 1),
            "empty": EventStream.empty(3, 3),
            # every t of the first chunk has 6 digits, every x and y one
            "one_digit_count": EventStream(
                np.sort(rng.integers(10 ** 5, 10 ** 6, chunk + 5)),
                rng.integers(0, 10, chunk + 5), rng.integers(0, 10, chunk + 5),
                rng.choice([-1, 1], chunk + 5), 10, 10),
        }
        for name, s in streams.items():
            f = tmp_path / f"{name}.csv"
            save_events(s, f, "csv")
            assert f.read_bytes() == csv_rendering(s), name

    def test_write_memory_flat_in_stream_length(self, tmp_path, rng):
        def peak(n):
            s = helpers.random_stream(rng, 64, 64, 10_000, n)
            tracemalloc.start()
            try:
                save_events(s, tmp_path / "m.csv", "csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        chunk = spikesr.io.CSV_CHUNK_EVENTS
        assert peak(12 * chunk) - peak(3 * chunk) < 64 * 1024

    def test_parse_basic(self, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("t_us,x,y,p\n1000,3,4,1\n2000,3,4,-1\n")
        s = load_events(f, "csv")
        assert len(s) == 2
        assert (s.t[0], s.x[0], s.y[0], s.p[0]) == (1000, 3, 4, 1)
        assert s.p[1] == -1
        assert (s.t0, s.t1) == (1000, 2000)

    def test_geometry_inferred(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("t_us,x,y,p\n0,6,2,1\n")
        s = load_events(f, "csv")
        assert (s.width, s.height) == (7, 3)

    def test_round_trip(self, tmp_path, rng):
        s = helpers.random_stream(rng, 12, 9, 25, 200)
        f = tmp_path / "rt.csv"
        save_events(s, f, "csv")
        assert streams_equal(load_events(f, "csv"), s)

    def test_malformed_row_reports_offset(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t_us,x,y,p\n1000,3,4,1\noops\n")
        with pytest.raises(EventFormatError, match="byte 22"):
            load_events(f, "csv")

    def test_missing_header_rejected(self, tmp_path):
        f = tmp_path / "nohdr.csv"
        f.write_text("1000,3,4,1\n")
        with pytest.raises(EventFormatError, match="header"):
            load_events(f, "csv")

    def test_large_regression_rejected(self, tmp_path):
        f = tmp_path / "reg.csv"
        f.write_text("t_us,x,y,p\n500000,0,0,1\n0,0,0,1\n")
        with pytest.raises(EventFormatError, match="regression"):
            load_events(f, "csv")

    def test_small_regression_sorted(self, tmp_path):
        f = tmp_path / "jit.csv"
        f.write_text("t_us,x,y,p\n2000,0,0,1\n1000,1,0,1\n")
        s = load_events(f, "csv")
        assert list(s.t) == [1000, 2000]


class TestEvbin:
    def test_round_trip(self, tmp_path, rng):
        s = helpers.random_stream(rng, 40, 30, 50, 1000)
        f = tmp_path / "rt.evbin"
        save_events(s, f, "evbin")
        assert streams_equal(load_events(f, "evbin"), s)

    def test_empty_round_trip(self, tmp_path):
        f = tmp_path / "empty.evbin"
        save_events(EventStream.empty(8, 6), f, "evbin")
        s = load_events(f, "evbin")
        assert len(s) == 0 and (s.width, s.height) == (8, 6)

    def test_layout(self, tmp_path):
        f = tmp_path / "one.evbin"
        s = EventStream([1000], [3], [4], [-1], 16, 8)
        save_events(s, f, "evbin")
        raw = f.read_bytes()
        assert raw[:4] == b"EVS1"
        assert raw[4:6] == (16).to_bytes(2, "little")
        assert raw[6:8] == (8).to_bytes(2, "little")
        assert raw[8:16] == (1).to_bytes(8, "little")
        assert len(raw) == 16 + 13

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "bad.evbin"
        f.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(EventFormatError, match="magic"):
            load_events(f, "evbin")

    def test_truncated_payload(self, tmp_path, rng):
        s = helpers.random_stream(rng, 8, 8, 10, 10)
        f = tmp_path / "trunc.evbin"
        save_events(s, f, "evbin")
        f.write_bytes(f.read_bytes()[:-5])
        with pytest.raises(EventFormatError, match="byte 16"):
            load_events(f, "evbin")


def evbin_order(name, rng):
    """(t, x, y, p) records of an 8x6 file in one of these orders: in time, each
    record jittered back by up to 90 ms, 50 ms back at every record, 8 ms slabs
    written last slab first, few timestamps with many ties, empty, one event."""
    t = np.sort(rng.integers(0, 300_000, 80))
    if name == "jittered":
        t = t + rng.integers(0, 90_000, t.size)
    elif name == "staircase":
        t = np.arange(600_000, -1, -50_000)
    elif name == "slabs_reversed":
        t = np.concatenate([t[(t // 8000) == k] for k in range(37, -1, -1)])
    elif name == "ties":
        t = rng.integers(0, 3, 40) * 40_000
    elif name == "empty":
        t = t[:0]
    elif name == "one":
        t = t[:1]
    n = t.size
    return t, rng.integers(0, 8, n), rng.integers(0, 6, n), rng.choice([-1, 1], n)


EVBIN_ORDERS = ["sorted", "jittered", "staircase", "slabs_reversed", "ties", "empty", "one"]

# Files load_events refuses, as (t, x, y, p, width, height) records or raw bytes,
# with the message after "<path>: ".  A file with two faults gets the one
# load_events reports first.
EVBIN_FAULTS = {
    "bad_magic": (b"NOPE" + bytes(20), "bad evbin magic at byte 0"),
    "short_header": (b"EVS1" + bytes(3), "bad evbin magic at byte 0"),
    "record_bytes": (b"EVS1" + bytes([4, 0, 4, 0, 2]) + bytes(7 + 13),
                     "expected 26 record bytes, found 13 at byte 16"),
    "regression": (([0, 150_000, 0, 10, 300_000, 100_000], [0] * 6, [0] * 6, [1] * 6, 4, 4),
                   "timestamp regression of 200000 us exceeds tolerance"),
    "coordinate": (([0, 10, 20], [0, 4, 0], [0, 0, 0], [1, 1, 1], 4, 4),
                   "event coordinates outside sensor geometry"),
    "polarity": (([0, 10, 20], [0, 0, 0], [0, 0, 0], [1, 0, 1], 4, 4),
                 "polarity must be +1 or -1"),
    "negative": (([0, 10, 2 ** 64 - 5], [0, 0, 0], [0, 0, 0], [1, 1, 1], 4, 4),
                 "negative timestamp"),
    "geometry": (([], [], [], [], 0, 4), "geometry must be positive"),
    "regression_before_coordinate": (([0, 5, 500_000, 0], [9, 0, 0, 0], [0] * 4, [1] * 4, 4, 4),
                                     "timestamp regression of 500000 us exceeds tolerance"),
    "negative_after_coordinate": (([0, 5, 10, 2 ** 64 - 1], [0, 9, 0, 0], [0] * 4, [1] * 4, 4, 4),
                                  "negative timestamp"),
    "coordinate_after_polarity": (([0, 5, 10, 15], [0, 0, 0, 7], [0] * 4, [1, 3, 1, 1], 4, 4),
                                  "event coordinates outside sensor geometry"),
}


def write_fault(path, fault):
    if isinstance(fault, bytes):
        path.write_bytes(fault)
    else:
        helpers.write_evbin(path, *fault)


class TestEvbinStream:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, spikesr.io.EVBIN_CHUNK_EVENTS])
    @pytest.mark.parametrize("order", EVBIN_ORDERS)
    def test_chunks_join_to_the_loaded_stream(self, tmp_path, monkeypatch, order, chunk):
        rng = np.random.default_rng(EVBIN_ORDERS.index(order))
        f = tmp_path / "s.evbin"
        helpers.write_evbin(f, *evbin_order(order, rng), 8, 6)
        monkeypatch.setattr(spikesr.io, "EVBIN_CHUNK_EVENTS", chunk)
        want = load_events(f, "evbin")
        got = EvbinStream(f)
        assert (len(got), got.width, got.height, got.t0, got.t1, got.span_us) == \
            (len(want), want.width, want.height, want.t0, want.t1, want.span_us)
        parts = list(got.chunks())
        assert all(part[0].size for part in parts)
        joined = [np.concatenate([np.zeros(0, np.int64)] + [part[i] for part in parts])
                  for i in range(4)]
        assert streams_equal(EventStream(*joined, want.width, want.height), want)
        assert np.array_equal(joined[0], want.t) and all(v.dtype == np.int64 for v in joined)

    def test_a_file_in_time_order_is_held_one_chunk_at_a_time(self, tmp_path, monkeypatch, rng):
        f = tmp_path / "s.evbin"
        save_events(helpers.random_stream(rng, 8, 6, 300, 80), f, "evbin")
        monkeypatch.setattr(spikesr.io, "EVBIN_CHUNK_EVENTS", 7)
        assert [part[0].size for part in EvbinStream(f).chunks()] == [7] * 11 + [3]

    @pytest.mark.parametrize("order", ["staircase", "slabs_reversed"])
    def test_a_file_drifting_back_past_a_chunk_is_read_whole_and_sorted_once(
            self, tmp_path, monkeypatch, order):
        # 50 ms back at every record puts the first record, at 600 ms, last: it is
        # held until the last chunk.  Held records sorted again with every chunk
        # read would cost the square of the file's length
        f = tmp_path / "s.evbin"
        t, x, y, p = evbin_order(order, np.random.default_rng(0))
        helpers.write_evbin(f, t, x, y, p, 8, 6)
        monkeypatch.setattr(spikesr.io, "EVBIN_CHUNK_EVENTS", 3)
        sorted_sizes, inner = [], spikesr.io._stable_order
        monkeypatch.setattr(spikesr.io, "_stable_order",
                            lambda t: sorted_sizes.append(t.size) or inner(t))
        parts = list(EvbinStream(f).chunks())
        rank = np.argsort(t, kind="stable")
        assert len(parts) == 1 and sorted_sizes == [t.size]
        assert parts[0][0].tolist() == t[rank].tolist()
        assert parts[0][1].tolist() == x[rank].tolist()

    @pytest.mark.parametrize("chunk", [1, 2, spikesr.io.EVBIN_CHUNK_EVENTS])
    @pytest.mark.parametrize("name", sorted(EVBIN_FAULTS))
    def test_refuses_what_load_events_refuses(self, tmp_path, monkeypatch, name, chunk):
        fault, message = EVBIN_FAULTS[name]
        f = tmp_path / "bad.evbin"
        write_fault(f, fault)
        monkeypatch.setattr(spikesr.io, "EVBIN_CHUNK_EVENTS", chunk)
        for read in (lambda: load_events(f, "evbin"), lambda: EvbinStream(f)):
            with pytest.raises(EventFormatError) as caught:
                read()
            assert str(caught.value) == f"{f}: {message}"

    def test_a_file_cut_short_after_the_first_pass_is_refused(self, tmp_path, rng):
        f = tmp_path / "s.evbin"
        save_events(helpers.random_stream(rng, 8, 6, 30, 20), f, "evbin")
        stream = EvbinStream(f)
        f.write_bytes(f.read_bytes()[:-13])
        with pytest.raises(EventFormatError, match=f"^{re.escape(str(f))}: file shrank"):
            list(stream.chunks())

    def test_closes_its_file(self, tmp_path, rng):
        f = tmp_path / "s.evbin"
        save_events(helpers.random_stream(rng, 8, 6, 30, 20), f, "evbin")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stream = EvbinStream(f)
            list(stream.chunks())
            next(stream.chunks())   # left part-way
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestNmnist:
    def test_documented_record(self, tmp_path):
        f = tmp_path / "one.bin"
        f.write_bytes(bytes([0x05, 0x07, 0x80, 0x03, 0xE8]))
        s = load_events(f, "nmnist_bin")
        assert len(s) == 1
        assert (s.t[0], s.x[0], s.y[0], s.p[0]) == (1000, 5, 7, 1)
        assert (s.width, s.height) == (34, 34)

    def test_clear_bit_is_negative(self, tmp_path):
        f = tmp_path / "neg.bin"
        f.write_bytes(bytes([0x00, 0x00, 0x00, 0x00, 0x01]))
        s = load_events(f, "nmnist_bin")
        assert s.p[0] == -1 and s.t[0] == 1

    def test_timestamp_bit_packing(self, tmp_path):
        # high timestamp bits live in the low 7 bits of byte 2
        f = tmp_path / "hi.bin"
        f.write_bytes(bytes([0x01, 0x02, 0xFF, 0xFF, 0xFF]))
        s = load_events(f, "nmnist_bin")
        assert s.t[0] == (1 << 23) - 1 and s.p[0] == 1

    def test_truncated(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(bytes(7))
        with pytest.raises(EventFormatError, match="byte 5"):
            load_events(f, "nmnist_bin")


def test_save_errors_name_their_path(tmp_path):
    f = tmp_path / "s.bin"
    with pytest.raises(EventFormatError, match=f"^{re.escape(str(f))}: cannot write"):
        save_events(EventStream.empty(4, 4), f, "nmnist_bin")
    f = tmp_path / "wide.evbin"
    with pytest.raises(EventFormatError, match=f"^{re.escape(str(f))}: geometry does not fit"):
        save_events(EventStream.empty(70000, 4), f, "evbin")


@pytest.mark.parametrize("fmt", ["csv", "evbin"])
@pytest.mark.parametrize("cuts", [[], [0], [3, 3, 7], [2, 9]])
def test_parts_write_the_bytes_of_the_whole_stream(tmp_path, fmt, cuts):
    s = helpers.random_stream(np.random.default_rng(4), 6, 5, 20, 9)
    whole, parted = tmp_path / f"whole.{fmt}", tmp_path / f"parted.{fmt}"
    save_events(s, whole, fmt)
    edges = [0, *cuts, len(s)]
    parts = EventParts(((s.t[a:b], s.x[a:b], s.y[a:b], s.p[a:b])
                        for a, b in zip(edges, edges[1:])), s.width, s.height)
    save_events(parts, parted, fmt)
    assert parted.read_bytes() == whole.read_bytes() and len(parts) == len(s)
    assert sorted(tmp_path.iterdir()) == sorted([whole, parted])


@pytest.mark.parametrize("fmt", ["csv", "evbin"])
def test_a_whole_stream_goes_into_a_pipe(tmp_path, fmt):
    # its header, count included, is known first, so nothing seeks back
    s = EventStream([0, 10, 10], [1, 2, 3], [0, 1, 1], [1, -1, 1], 4, 4)
    save_events(s, tmp_path / f"want.{fmt}", fmt)
    read, write = os.pipe()
    try:
        save_events(s, f"/dev/fd/{write}", fmt)
        got = os.read(read, 1 << 16)
    finally:
        os.close(read)
        os.close(write)
    assert got == (tmp_path / f"want.{fmt}").read_bytes()


def test_guess_format():
    assert guess_format("a.csv") == "csv"
    assert guess_format("a.bin") == "nmnist_bin"
    assert guess_format("a.evbin") == "evbin"


def test_loaders_close_their_files(tmp_path):
    spec = NetworkSpec("ultralight")
    save_checkpoint(tmp_path / "m.ckpt", spec, init_weights(spec, 0), np.zeros(3), 0)
    s = EventStream([0, 10], [1, 2], [0, 1], [1, -1], 4, 4)
    save_events(s, tmp_path / "s.csv", "csv")
    save_events(s, tmp_path / "s.evbin", "evbin")
    (tmp_path / "s.bin").write_bytes(bytes([0x05, 0x07, 0x80, 0x03, 0xE8]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_checkpoint(tmp_path / "m.ckpt")
        for name, fmt in (("s.csv", "csv"), ("s.evbin", "evbin"), ("s.bin", "nmnist_bin")):
            load_events(tmp_path / name, fmt)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
