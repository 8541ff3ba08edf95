"""Stream-level quality metrics.

rmse_st compares a reconstructed stream against ground truth on one
grid of dt-millisecond steps.  It works from each kept event's flat
voxel index, so its memory follows the events, not the grid: the voxel
difference d is non-zero only where some event lies, and every figure
below is a sum over those voxels.  It reports a joint spatio-temporal
RMSE:

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


def blocks(steps: int, dt: float):
    """(start, stop) of each 50 ms block (_block_id) of `steps` dt-millisecond
    steps; the last block may be partial."""
    idx = _block_id(np.arange(steps), dt)
    starts = np.flatnonzero(np.r_[1, np.diff(idx)]).tolist()
    return list(zip(starts, starts[1:] + [steps]))


def _sums(keys: np.ndarray, weights: np.ndarray):
    """(distinct keys, sum of the weights of each)."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return distinct, np.bincount(inverse, weights, distinct.size)


def _dominant(index: np.ndarray, cells: int):
    """(cell, +1 or -1) of each cell whose events lean to one polarity.

    `index` holds flat indices in a [2, ...] grid of `cells` cells per
    channel, channel 0 positive; a tied cell is left out.
    """
    cell, net = _sums(index % cells, np.where(index < cells, 1.0, -1.0))
    lean = net != 0
    return cell[lean], np.sign(net[lean])


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
    out_bins, out_dropped = event_bins(out_stream, steps, dt, origin=t0)
    gt_bins, gt_dropped = event_bins(gt_stream, steps, dt, origin=t0)
    h, w = gt_stream.height, gt_stream.width
    i_out, i_gt = (_voxel_index(b, (0, h, 0, w), 0, steps)[0] for b in (out_bins, gt_bins))
    # return_inverse, though unused, keeps numpy 2.4's unique from importing
    # numpy.ma: 13 ms and 1 MiB in every process that grades a pair
    n_p = np.unique(i_gt // steps % (h * w), return_inverse=True)[0].size
    if n_p == 0:
        raise DegenerateStreamError("no ground-truth events inside the grid")
    # counts are integers, so these sums are exact in any order
    index = np.concatenate([i_out, i_gt])
    sign = np.repeat([1.0, -1.0], [i_out.size, i_gt.size])   # out - gt
    d = _sums(index, sign)[1]
    # keyed per (channel, pixel, block); as ids can skip, the base is not the block count
    base = _block_id(steps - 1, dt) + 1
    pooled = _sums(index // steps * base + _block_id(index % steps, dt), sign)[1]
    mse_t, mse_s = float(d @ d), float(pooled @ pooled)
    (c_out, s_out), (c_gt, s_gt) = (_dominant(i, h * w * steps) for i in (i_out, i_gt))
    # a cell dominant on one side votes 1, on both sides 2 if they agree and 0 if not
    votes = np.abs(_sums(np.concatenate([c_out, c_gt]), np.concatenate([s_out, s_gt]))[1])
    matches, omega = int(np.count_nonzero(votes == 2)), int(np.count_nonzero(votes != 1))
    pa, vacuous = (100.0 * matches / omega, False) if omega else (100.0, True)
    span_ms = min(t1 - t0, steps * _step_us(dt)) / US_PER_MS
    return MetricsReport(
        rmse_st=math.sqrt((mse_t + mse_s) / (span_ms * n_p)),
        mse_t_raw=mse_t, mse_s_raw=mse_s,
        mse_t_norm=mse_t / n_p, mse_s_norm=mse_s / n_p,
        pa_percent=pa, pa_vacuous=vacuous, n_p=n_p, span_ms=span_ms,
        dropped=out_dropped + gt_dropped, n_pred=len(out_stream), n_gt=len(gt_stream))
