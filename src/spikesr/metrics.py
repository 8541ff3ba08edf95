"""Stream-level quality metrics.

rmse_st compares a reconstructed stream against ground truth on one
grid of dt-millisecond steps.  It sorts the kept events of the pair
once, by pixel, step, channel and stream, and reads every figure from
the runs of equal keys, so its memory follows the events, not the grid:
the voxel difference d is non-zero only where some event lies, and
every figure below is a sum over those voxels.  It reports a joint
spatio-temporal RMSE:

    rmse_st = sqrt((mse_t + mse_s) / (span_ms * n_p))

where mse_t sums d squared over every voxel, mse_s sums the squares of
d pooled over each 50 ms block that `blocks` lays out (the spatial loss
pools over the same blocks), span_ms is the part of the pair's span the
grid grades, and n_p counts pixels touched by at least one ground-truth
event inside the grid.  Both raw sums and the per-pixel (divided by
n_p) forms are reported.

Polarity accuracy looks at every (x, y, step) cell occupied in both
streams, takes the dominant polarity on each side (ties drop the cell),
and reports the percentage that agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import US_PER_MS, EventError, EventStream, _step_us, _voxel_index, event_bins

# Width in microseconds of the time blocks that the spatial metric and the
# spatial loss pool over.
BLOCK_US = 50_000


class DegenerateStreamError(EventError):
    """Metric undefined: empty ground truth or zero time span."""


@dataclass(frozen=True)
class MetricsReport:
    rmse_st: float
    mse_t_raw: float
    mse_s_raw: float
    mse_t_norm: float
    mse_s_norm: float
    pa_percent: float
    pa_vacuous: bool
    n_p: int
    span_ms: float
    dropped: int
    n_pred: int
    n_gt: int

    FIELDS = ("rmse_st", "mse_t_raw", "mse_s_raw", "mse_t_norm", "mse_s_norm",
              "pa_percent", "pa_vacuous", "n_p", "span_ms", "dropped", "n_pred", "n_gt")

    def to_kv(self) -> str:
        lines = []
        for name in self.FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool):
                value = int(value)
            lines.append(f"{name}={value}")
        return "\n".join(lines)

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.FIELDS)

    def to_csv_row(self) -> str:
        parts = []
        for name in self.FIELDS:
            value = getattr(self, name)
            parts.append(str(int(value)) if isinstance(value, bool) else str(value))
        return ",".join(parts)


def _block_id(k, dt: float):
    """The 50 ms block of step k (an int or integer array) of dt milliseconds, k * dt // 50 ms
    in whole microseconds (events._step_us); ids skip values once dt > 50 ms."""
    return k * _step_us(dt) // BLOCK_US


def _starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in sorted keys."""
    new = np.ones(keys.size, bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def blocks(steps: int, dt: float):
    """(start, stop) of each 50 ms block (_block_id) of `steps` dt-millisecond
    steps; the last block may be partial."""
    starts = _starts(_block_id(np.arange(steps), dt)).tolist()
    return list(zip(starts, starts[1:] + [steps]))


def _pair_keys(out_stream: EventStream, gt_stream: EventStream, steps: int, dt: float,
               origin: int):
    """(keys, dropped): the kept events of both streams on event_bins' grid
    from `origin`, as one sorted uint64 array of keys
    (cell * 2 + channel) * 2 + side, with cell = (y * w + x) * steps + step
    and side 1 for ground truth, so each voxel, each (x, y, step) cell and
    each pixel's cells are one run; and the count of events past the grid."""
    h, w = gt_stream.height, gt_stream.width
    cells = h * w * steps
    keys, dropped = [], 0
    for side, stream in enumerate((out_stream, gt_stream)):
        coords, past = event_bins(stream, steps, dt, origin=origin)
        dropped += past
        index = _voxel_index(coords, (0, h, 0, w), 0, steps)[0]   # channel-major
        del coords
        neg = index >= cells
        index -= neg * cells
        index *= 4   # may wrap past 2**63; as 4 * cells <= 2**64, the uint64 view is exact
        index += neg * 2 + side
        keys.append(index.view(np.uint64))
    keys = np.concatenate(keys)
    keys.sort()
    return keys, dropped


def common_span(out_stream: EventStream, gt_stream: EventStream):
    """(t0, t1) covering the events of both streams; raises if both are empty."""
    if (out_stream.width, out_stream.height) != (gt_stream.width, gt_stream.height):
        raise EventError("stream geometries differ")
    spans = [(s.t0, s.t1) for s in (out_stream, gt_stream) if len(s)]
    if not spans:
        raise DegenerateStreamError("both streams are empty")
    t0 = min(a for a, _ in spans)
    t1 = max(b for _, b in spans)
    return t0, t1


def rmse_st(out_stream: EventStream, gt_stream: EventStream, steps: int,
            dt: float = 1.0) -> MetricsReport:
    """Joint spatio-temporal RMSE plus polarity accuracy for one pair.

    Both streams are binned from the start of their combined span into
    `steps` bins of dt milliseconds.  `span_ms` is the part of the span
    those bins grade: the whole span, or steps * dt if that is shorter.
    `dropped` counts the events of both streams that fall past the last
    bin; `n_pred` and `n_gt` are the event counts of the two streams.
    Raises if the ground truth is empty or the span is zero.
    """
    if len(gt_stream) == 0:
        raise DegenerateStreamError("ground-truth stream is empty")
    t0, t1 = common_span(out_stream, gt_stream)
    if t1 == t0:
        raise DegenerateStreamError("zero time span")
    keys, dropped = _pair_keys(out_stream, gt_stream, steps, dt, t0)
    # one run per voxel: its events of both streams, counted apart by the side bit
    start = _starts(keys >> 1)
    voxel = keys[start] >> 1
    n_gt = np.add.reduceat((keys & 1).view(np.int64), start)
    n_out = np.diff(start, append=keys.size) - n_gt
    del keys
    cell, neg = voxel >> 1, (voxel & 1).view(np.int64)   # neg: channel 1
    n_p = _starts(cell[n_gt > 0] // steps).size
    if n_p == 0:
        raise DegenerateStreamError("no ground-truth events inside the grid")
    # counts are integers, so these sums are exact in any order
    d = n_out - n_gt
    # (pixel, block) keys, non-decreasing in the cell; as ids can skip, the
    # base is not the block count
    base = _block_id(steps - 1, dt) + 1
    block = _starts(cell // steps * base + _block_id(cell % steps, dt))
    pooled = [np.add.reduceat(np.where(neg == c, d, 0), block) for c in (0, 1)]
    mse_t, mse_s = float(d @ d), float(sum(p @ p for p in pooled))
    # each (x, y, step) cell's dominant polarity on each side, 0 if tied or
    # empty; their product is 1 where the sides agree and -1 where they differ
    at = _starts(cell)
    out_lean, gt_lean = (np.sign(np.add.reduceat(np.where(neg, -n, n), at))
                         for n in (n_out, n_gt))
    vote = out_lean * gt_lean
    matches, omega = int(np.count_nonzero(vote == 1)), int(np.count_nonzero(vote))
    pa, vacuous = (100.0 * matches / omega, False) if omega else (100.0, True)
    span_ms = min(t1 - t0, steps * _step_us(dt)) / US_PER_MS
    return MetricsReport(
        rmse_st=math.sqrt((mse_t + mse_s) / (span_ms * n_p)),
        mse_t_raw=mse_t, mse_s_raw=mse_s,
        mse_t_norm=mse_t / n_p, mse_s_norm=mse_s / n_p,
        pa_percent=pa, pa_vacuous=vacuous, n_p=n_p, span_ms=span_ms,
        dropped=dropped, n_pred=len(out_stream), n_gt=len(gt_stream))
