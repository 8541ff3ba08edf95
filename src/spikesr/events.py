"""Event-stream data model and dense count grids.

An event stream is a time-sorted list of (t, x, y, p) tuples on a fixed
sensor grid: t in integer microseconds, pixel coordinates (x, y), and
polarity p in {+1, -1}.  The dense counterpart is a count grid: a plain
float64 [C, H, W, T] array of event counts per step of dt milliseconds,
with polarity split across channels (channel 0 positive, channel 1
negative).  The array does not carry dt; the network's is spec.dt_ms.
event_bins and _voxel_index alone place events on a grid.
"""

from __future__ import annotations

import math

import numpy as np

US_PER_MS = 1000
_INT64_MAX = int(np.iinfo(np.int64).max)


class EventError(ValueError):
    """Raised for malformed streams or conversion inputs."""


def _stable_order(t: np.ndarray) -> np.ndarray:
    """The order np.argsort(t, kind="stable") gives, for any int64 t.

    LSD passes over (64 - b)-bit digits of t - t.min() taken as uint64,
    with b the bits of n - 1: each pass sorts the unique keys
    digit << b | position, so ties keep their order from the pass before.
    2**18 events spanning up to 2**46 us take one pass.
    """
    b = (t.size - 1).bit_length()
    d = (t - t.min()).view(np.uint64)  # wraps to the exact unsigned difference
    pos = np.arange(t.size, dtype=np.uint64)
    mask = np.uint64((1 << b) - 1)
    order = None
    for shift in range(0, max(1, int(d.max()).bit_length()), 64 - b):  # at least one pass
        key = (d >> np.uint64(shift) << np.uint64(b)) | pos
        key.sort()
        step = (key & mask).astype(np.intp)
        order = step if order is None else order[step]
        d = d[step]
    return order


class EventStream:
    """Time-sorted events plus sensor geometry.

    Events are held as parallel int64 arrays (t, x, y, p).  Construction
    sorts by timestamp if needed, validates coordinate and polarity
    ranges, and derives the time span [t0, t1] from the data unless an
    explicit span is given.  The sort (_stable_order) is exact and stable
    for any int64 timestamps, so same-microsecond events keep their input
    order.
    """

    __slots__ = ("t", "x", "y", "p", "width", "height", "t0", "t1")

    def __init__(self, t, x, y, p, width, height, t0=None, t1=None):
        t = np.asarray(t, dtype=np.int64)
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        p = np.asarray(p, dtype=np.int64)
        if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
            raise EventError("event arrays must be 1-D and equally sized")
        if width < 1 or height < 1:
            raise EventError("geometry must be positive")
        n = t.size
        if n:
            if np.any(t[1:] < t[:-1]):
                order = _stable_order(t)
                t, x, y, p = t[order], x[order], y[order], p[order]
            if t[0] < 0:
                raise EventError("negative timestamp")
            if np.any((x < 0) | (x >= width)) or np.any((y < 0) | (y >= height)):
                raise EventError("event coordinates outside sensor geometry")
            if np.any((p != 1) & (p != -1)):
                raise EventError("polarity must be +1 or -1")
        self.t, self.x, self.y, self.p = t, x, y, p
        self.width = int(width)
        self.height = int(height)
        self.t0 = int(t0) if t0 is not None else (int(t[0]) if n else 0)
        self.t1 = int(t1) if t1 is not None else (int(t[-1]) if n else 0)
        if self.t1 < self.t0:
            raise EventError("t1 precedes t0")
        if n and (t[0] < self.t0 or t[-1] > self.t1):
            raise EventError("events outside declared span")

    @classmethod
    def empty(cls, width, height):
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z, z, z, width, height)

    def __len__(self):
        return self.t.size

    @property
    def span_us(self) -> int:
        return self.t1 - self.t0


def _step_us(dt: float) -> int:
    """A step of dt milliseconds in whole microseconds; EventError unless it is one."""
    n = round(dt * US_PER_MS) if 0 < dt < math.inf else 0
    if n < 1 or n / US_PER_MS != dt:
        raise EventError(f"a step of {dt!r} ms is not a whole number of microseconds")
    return n


def steps_to_cover(span_us: int, dt_ms: float = 1.0) -> int:
    """Fewest dt_ms steps (at least one) whose grid holds a span_us span."""
    return max(1, -(-span_us // _step_us(dt_ms)))


def event_bins(stream: EventStream, steps: int, dt: float = 1.0, origin: int | None = None):
    """Grid coordinates of the events a grid of `steps` bins keeps.

    Bin index is floor((t - t0) / dt), computed in whole microseconds
    (_step_us), with t0 the stream's own start unless `origin` overrides
    it.  An event sitting exactly on the closing edge of the grid
    (t - t0 == T * dt) is folded into the last bin; anything else past
    the last bin is dropped.  Returns the (channel, y, x, bin) int64
    arrays of the kept events, in stream order and so with bins
    non-decreasing, and the dropped-event count.  Refuses a step count
    that int64 cannot hold.
    """
    if steps < 1:
        raise EventError("step count must be positive")
    if steps > _INT64_MAX:
        raise EventError(f"step count {steps} exceeds the int64 maximum")
    n = _step_us(dt)
    rel = stream.t - (stream.t0 if origin is None else int(origin))
    bins = rel // n
    bins[rel == steps * n] = steps - 1
    keep = (bins >= 0) & (bins < steps)
    ch = (stream.p[keep] != 1).astype(np.int64)  # +1 -> 0, -1 -> 1
    return (ch, stream.y[keep], stream.x[keep], bins[keep]), int(np.count_nonzero(~keep))


def _voxel_index(coords, box, start: int, stop: int, scale: int = 1):
    """(flat indices, shape): bins [start, stop) of event_bins' coordinates
    in the [2, h, w, stop - start] grid of the LR box (y0, y1, x0, x1),
    half-open, or of its HR footprint for `scale` = spec.scale; pixels
    are taken relative to the box.  Refuses an event whose pixel lies
    outside it, and a grid with more cells than int64 can number.
    _count_voxels counts the indices."""
    y0, y1, x0, x1 = (scale * b for b in box)
    shape = (2, y1 - y0, x1 - x0, stop - start)
    if math.prod(shape) > _INT64_MAX:
        raise EventError(f"a {'x'.join(map(str, shape))} voxel grid has too many cells to index")
    ch, y, x, bins = coords
    lo, hi = np.searchsorted(bins, (start, stop))
    try:
        return np.ravel_multi_index(
            (ch[lo:hi], y[lo:hi] - y0, x[lo:hi] - x0, bins[lo:hi] - start), shape), shape
    except ValueError:
        raise EventError(f"an event lies outside the {shape[1]}x{shape[2]} voxel grid") from None


def _count_voxels(index, shape) -> np.ndarray:
    """Count grid of `shape` holding, at each flat index, how often it occurs."""
    data = np.zeros(math.prod(shape))
    np.add.at(data, index, 1.0)
    return data.reshape(shape)


def from_voxel_grid(counts: np.ndarray, t0: int = 0, first_bin: int = 0,
                    dt: float = 1.0) -> EventStream:
    """Expand a [C, H, W, T] count grid of dt-millisecond steps back into events.

    Each voxel with value v emits round(v) events stamped at its bin
    centre, t0 + (bin + 0.5) * dt rounded down to whole microseconds
    (_step_us), where the grid's first bin is bin
    `first_bin` of the grid that starts at t0.  Events come out in the
    row-major order of the time-major [T, C, H, W] view: by bin, then
    channel, row and column, so the result is time sorted and
    deterministic.
    """
    height, width = counts.shape[1:3]
    counts = np.rint(counts).astype(np.int64).transpose(3, 0, 1, 2)
    bins, ch, ys, xs = np.nonzero(counts > 0)
    if bins.size == 0:
        return EventStream.empty(width, height)
    reps = counts[bins, ch, ys, xs]
    n = _step_us(dt)
    t = np.repeat(t0 + (bins + first_bin) * n + n // 2, reps)
    x = np.repeat(xs, reps)
    y = np.repeat(ys, reps)
    p = np.repeat(np.where(ch == 0, 1, -1).astype(np.int64), reps)
    return EventStream(t, x, y, p, width, height)


def downsample_2x(stream: EventStream) -> EventStream:
    """Halve spatial resolution by integer coordinate division.

    Every event survives with (x // 2, y // 2); timestamps and polarity
    are untouched.  Odd dimensions round up so border pixels keep a home.
    """
    return EventStream(stream.t, stream.x // 2, stream.y // 2, stream.p,
                       (stream.width + 1) // 2, (stream.height + 1) // 2,
                       t0=stream.t0, t1=stream.t1)
