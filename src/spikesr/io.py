"""Event file formats: CSV, packed binary (evbin), and ATIS 40-bit (nmnist_bin).

CSV is the interchange format: a `t_us,x,y,p` header followed by one
event per line, p written as 1 or -1, LF line endings.  Every CSV file
needs the header; it stores no geometry, so the loader infers it from
the largest coordinates.  A record is
four comma-separated integers in the syntax Python's `int()` accepts
(sign, leading zeros, underscores, surrounding spaces); blank lines,
CRLF endings and whitespace around the header are accepted too.

evbin is the compact native format:

    magic   4 bytes  b"EVS1"
    width   u16 LE
    height  u16 LE
    count   u64 LE
    record  13 bytes each: t_us u64 LE, x u16 LE, y u16 LE, p i8

nmnist_bin is the read-only ATIS capture layout used by the N-MNIST
corpus: 5 bytes per event, byte 0 = x, byte 1 = y, byte 2 bit 7 =
polarity (set means +1), and the low 7 bits of byte 2 followed by bytes
3 and 4 form a 23-bit big-endian microsecond timestamp.  Geometry is
fixed at 34 x 34.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .events import EventError, EventStream

CSV_HEADER = "t_us,x,y,p"
# Within these bytes np.loadtxt and int() accept the same fields and read
# the same values; any other byte sends a file to the line-by-line parser.
_CSV_ARRAY_BYTES = b"0123456789+-,\n"
# Events formatted per write, so the writer's extra memory stays flat.
CSV_CHUNK_EVENTS = 4096
_INT64 = np.iinfo(np.int64)
EVBIN_MAGIC = b"EVS1"
EVBIN_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
NMNIST_WIDTH = 34
NMNIST_HEIGHT = 34

# Regressions up to this many microseconds are tolerated and sorted away;
# anything larger is treated as corruption.
REGRESSION_TOLERANCE_US = 100_000


class EventFormatError(EventError):
    """Malformed or truncated event file."""


def _check_order(t, path):
    if t.size:
        drop = np.diff(t)
        worst = int(drop.min()) if drop.size else 0
        if worst < -REGRESSION_TOLERANCE_US:
            raise EventFormatError(
                f"{path}: timestamp regression of {-worst} us exceeds tolerance")


def _parse_csv_array(raw):
    """The records of a CSV file as an [n, 4] int64 array, or None.

    Parses the whole body in one call, handing np.loadtxt its lines as a
    list of str, when the file opens with the exact header line and holds
    only digits, signs, commas and LF; np.loadtxt skips the empty strings
    that blank lines and a final LF leave.  Returns None for any file it
    does not take or np.loadtxt refuses; the line parser then gives the
    same result or the error for it.
    """
    head = (CSV_HEADER + "\n").encode()
    body = raw[len(head):]
    if not raw.startswith(head) or body.translate(None, _CSV_ARRAY_BYTES):
        return None
    if body.count(b"\n") == len(body):
        return np.empty((0, 4), dtype=np.int64)   # np.loadtxt warns on empty input
    try:
        arr = np.loadtxt(body.decode().split("\n"), delimiter=",", dtype=np.int64,
                         ndmin=2, comments=None)
    except ValueError:
        return None
    return arr if arr.shape[1] == 4 else None


def _parse_csv_lines(raw, path):
    """The records of a CSV file, one line at a time.

    Defines the accepted syntax and the error for every rejected file.
    """
    offset = 0
    header = None
    out_of_range = None
    rows = []
    for line in raw.split(b"\n"):
        stripped = line.strip()
        if stripped:
            if header is None:
                if stripped != CSV_HEADER.encode():
                    raise EventFormatError(f"{path}: missing {CSV_HEADER!r} header at byte {offset}")
                header = stripped
            else:
                parts = stripped.split(b",")
                if len(parts) != 4:
                    raise EventFormatError(f"{path}: malformed record at byte {offset}")
                try:
                    row = [int(v) for v in parts]
                except ValueError:
                    raise EventFormatError(f"{path}: malformed record at byte {offset}") from None
                if out_of_range is None and (min(row) < _INT64.min or max(row) > _INT64.max):
                    out_of_range = offset
                rows.append(row)
        offset += len(line) + 1
    if header is None:
        raise EventFormatError(f"{path}: empty file, expected {CSV_HEADER!r} header")
    # reported last, so a file with another fault keeps that fault's message
    if out_of_range is not None:
        raise EventFormatError(f"{path}: malformed record at byte {out_of_range}")
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _decode_csv(raw, path):
    arr = _parse_csv_array(raw)
    if arr is None:
        arr = _parse_csv_lines(raw, path)
    return arr.T, None


def _decode_evbin(raw, path):
    if len(raw) < 16 or raw[:4] != EVBIN_MAGIC:
        raise EventFormatError(f"{path}: bad evbin magic at byte 0")
    w, h, count = struct.unpack_from("<HHQ", raw, 4)
    body = raw[16:]
    need = count * EVBIN_RECORD.itemsize
    if len(body) != need:
        raise EventFormatError(
            f"{path}: expected {need} record bytes, found {len(body)} at byte 16")
    rec = np.frombuffer(body, dtype=EVBIN_RECORD)
    return [rec[f].astype(np.int64) for f in "txyp"], (w, h)


def _decode_nmnist(raw, path):
    if len(raw) % 5:
        raise EventFormatError(
            f"{path}: truncated record at byte {len(raw) - len(raw) % 5}")
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 5).astype(np.int64)
    p = np.where(rec[:, 2] & 0x80, 1, -1)
    t = ((rec[:, 2] & 0x7F) << 16) | (rec[:, 3] << 8) | rec[:, 4]
    return (t, rec[:, 0], rec[:, 1], p), (NMNIST_WIDTH, NMNIST_HEIGHT)


# Each decoder turns a file's bytes into its (t, x, y, p) arrays and the
# (width, height) the file stores, or None where it stores none.
_DECODERS = {"csv": _decode_csv, "evbin": _decode_evbin, "nmnist_bin": _decode_nmnist}


def load_events(path, fmt: str) -> EventStream:
    """Read a stream from disk; fmt is one of csv, evbin, nmnist_bin.

    Geometry comes from the file where the format stores it, and is max
    coordinate + 1 where it does not (1 for an empty CSV).
    """
    if fmt not in _DECODERS:
        raise EventFormatError(f"unknown format {fmt!r}")
    (t, x, y, p), stored = _DECODERS[fmt](Path(path).read_bytes(), path)
    _check_order(t, path)
    if stored is not None:
        width, height = stored
    else:
        width = int(x.max()) + 1 if x.size else 1
        height = int(y.max()) + 1 if y.size else 1
    try:
        return EventStream(t, x, y, p, width, height)
    except EventError as exc:
        raise EventFormatError(f"{path}: {exc}") from None


def _csv_records(t, x, y, p) -> bytes:
    """The `t,x,y,p` LF-ended CSV records of events with t, x, y >= 0 and
    p in {-1, 1}, as EventStream holds them.

    Each event is one row of a uint8 matrix: t, x and y right-aligned in
    columns as wide as their longest value's digits, each followed by a
    comma, then `-` for p = -1, `1` and LF.  The bytes before a value's
    first digit and in place of a `+` stay 0, and are dropped at the end.
    """
    widths = [len(str(int(v.max()))) for v in (t, x, y)]
    rows = np.zeros((t.size, sum(widths) + 6), dtype=np.uint8)
    end = 0
    for v, width in zip((t, x, y), widths):
        end += width
        q = v
        for col in range(end - 1, end - width - 1, -1):
            rest = q // 10
            digit = q - 10 * rest + 48   # q % 10 + 48, without numpy's slower int64 %
            rows[:, col] = digit if col == end - 1 else digit * (q > 0)
            q = rest
        rows[:, end] = ord(",")
        end += 1
    rows[:, end] = (p < 0) * ord("-")
    rows[:, end + 1] = ord("1")
    rows[:, end + 2] = ord("\n")
    return rows.tobytes().replace(b"\0", b"")


def save_events(stream: EventStream, path, fmt: str) -> None:
    """Write a stream as csv or evbin (nmnist_bin is read-only)."""
    if fmt == "csv":
        with open(path, "wb") as fh:
            fh.write((CSV_HEADER + "\n").encode())
            for lo in range(0, len(stream), CSV_CHUNK_EVENTS):
                part = slice(lo, lo + CSV_CHUNK_EVENTS)
                fh.write(_csv_records(stream.t[part], stream.x[part], stream.y[part],
                                      stream.p[part]))
        return
    if fmt == "evbin":
        if stream.width > 0xFFFF or stream.height > 0xFFFF:
            raise EventFormatError(f"{path}: geometry does not fit evbin u16 header")
        rec = np.empty(len(stream), dtype=EVBIN_RECORD)
        rec["t"] = stream.t
        rec["x"] = stream.x
        rec["y"] = stream.y
        rec["p"] = stream.p
        with open(path, "wb") as fh:
            fh.write(EVBIN_MAGIC)
            fh.write(struct.pack("<HHQ", stream.width, stream.height, len(stream)))
            fh.write(rec.data)
        return
    raise EventFormatError(f"{path}: cannot write format {fmt!r}")


def guess_format(path) -> str:
    """Pick a format from the file suffix (csv, bin -> nmnist_bin, else evbin)."""
    name = str(path).lower()
    if name.endswith(".csv"):
        return "csv"
    if name.endswith(".bin"):
        return "nmnist_bin"
    return "evbin"
