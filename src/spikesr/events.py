"""Event-stream data model and dense tensor conversions.

An event stream is a time-sorted list of (t, x, y, p) tuples on a fixed
sensor grid: t in integer microseconds, pixel coordinates (x, y), and
polarity p in {+1, -1}.  The dense counterpart is a spike tensor: per
millisecond event counts on a [C, H, W, T] grid with polarity split
across channels (channel 0 positive, channel 1 negative).
"""

from __future__ import annotations

import math

import numpy as np

US_PER_MS = 1000


class EventError(ValueError):
    """Raised for malformed streams, tensors, or conversion inputs."""


class EventStream:
    """Time-sorted events plus sensor geometry.

    Events are held as parallel int64 arrays (t, x, y, p).  Construction
    sorts by timestamp if needed (stable, so same-microsecond order is
    preserved), validates coordinate and polarity ranges, and derives the
    time span [t0, t1] from the data unless an explicit span is given.
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
            if np.any(np.diff(t) < 0):
                order = np.argsort(t, kind="stable")
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


class SpikeTensor:
    """Dense non-negative spike counts on a [C, H, W, T] grid.

    C is 2 for polarity-paired tensors (channel 0 positive, channel 1
    negative) or 1 for a single-polarity slice.  The time axis holds T
    steps of dt milliseconds each (dt defaults to 1).
    """

    __slots__ = ("data", "dt")

    def __init__(self, data, dt=1.0):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 4:
            raise EventError("spike tensor must be [C, H, W, T]")
        if data.shape[0] not in (1, 2):
            raise EventError("spike tensor channel count must be 1 or 2")
        if data.size and float(data.min()) < 0.0:
            raise EventError("spike tensor entries must be non-negative")
        if dt <= 0:
            raise EventError("dt must be positive")
        self.data = data
        self.dt = float(dt)

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape


def steps_to_cover(span_us: int, dt_ms: float = 1.0) -> int:
    """Fewest dt_ms steps (at least one) whose grid holds a span_us span."""
    return max(1, math.ceil(span_us / (dt_ms * US_PER_MS)))


def event_bins(stream: EventStream, steps: int, dt: float = 1.0, origin: int | None = None):
    """Grid coordinates of the events a grid of `steps` bins keeps.

    Bin index is floor((t - t0) / dt), with t0 the stream's own start
    unless `origin` overrides it.  An event sitting exactly on the
    closing edge of the grid (t - t0 == T * dt) is folded into the last
    bin; anything else past the last bin is dropped.  Returns the
    (channel, y, x, bin) int64 arrays of the kept events, in stream
    order and so with bins non-decreasing, and the dropped-event count.
    """
    if steps < 1:
        raise EventError("step count must be positive")
    dt_us = dt * US_PER_MS
    rel = stream.t - (stream.t0 if origin is None else int(origin))
    bins = np.floor(rel / dt_us).astype(np.int64)
    edge = (bins == steps) & (rel == steps * dt_us)
    bins[edge] = steps - 1
    keep = (bins >= 0) & (bins < steps)
    ch = (stream.p[keep] != 1).astype(np.int64)  # +1 -> 0, -1 -> 1
    return (ch, stream.y[keep], stream.x[keep], bins[keep]), int(np.count_nonzero(~keep))


def _voxel_index(coords, shape, start: int, y0: int = 0, x0: int = 0) -> np.ndarray:
    """Flat index, in a [2, H, W, T] tensor of `shape`, of each event in
    bins [start, start + T) of event_bins' coordinates, its pixel taken
    relative to (y0, x0).  Refuses an event whose pixel lies outside."""
    ch, y, x, bins = coords
    lo, hi = np.searchsorted(bins, (start, start + shape[3]))
    try:
        return np.ravel_multi_index(
            (ch[lo:hi], y[lo:hi] - y0, x[lo:hi] - x0, bins[lo:hi] - start), shape)
    except ValueError:
        raise EventError(f"an event lies outside the {shape[1]}x{shape[2]} voxel grid") from None


def _count_voxels(index, shape, dt: float) -> SpikeTensor:
    """Count tensor of `shape` holding, at each flat index, how often it occurs."""
    data = np.zeros(math.prod(shape))
    np.add.at(data, index, 1.0)
    return SpikeTensor(data.reshape(shape), dt=dt)


def from_voxel_grid(tensor: SpikeTensor, t0: int = 0, first_bin: int = 0) -> EventStream:
    """Expand a count tensor back into events.

    Each voxel with value v emits round(v) events stamped at its bin
    centre, t0 + (bin + 0.5) * dt, where the tensor's first bin is bin
    `first_bin` of the grid that starts at t0.  Events come out in the
    row-major order of the time-major [T, C, H, W] view: by bin, then
    channel, row and column, so the result is time sorted and
    deterministic.
    """
    counts = np.rint(tensor.data).astype(np.int64).transpose(3, 0, 1, 2)
    bins, ch, ys, xs = np.nonzero(counts > 0)
    if bins.size == 0:
        return EventStream.empty(tensor.width, tensor.height)
    reps = counts[bins, ch, ys, xs]
    dt_us = tensor.dt * US_PER_MS
    t = np.repeat(np.rint(t0 + (bins + first_bin + 0.5) * dt_us).astype(np.int64), reps)
    x = np.repeat(xs, reps)
    y = np.repeat(ys, reps)
    p = np.repeat(np.where(ch == 0, 1, -1).astype(np.int64), reps)
    return EventStream(t, x, y, p, tensor.width, tensor.height)


def downsample_2x(stream: EventStream) -> EventStream:
    """Halve spatial resolution by integer coordinate division.

    Every event survives with (x // 2, y // 2); timestamps and polarity
    are untouched.  Odd dimensions round up so border pixels keep a home.
    """
    return EventStream(stream.t, stream.x // 2, stream.y // 2, stream.p,
                       (stream.width + 1) // 2, (stream.height + 1) // 2,
                       t0=stream.t0, t1=stream.t1)
