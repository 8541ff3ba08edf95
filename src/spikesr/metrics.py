"""Stream-level quality metrics.

rmse_st compares a reconstructed stream against ground truth on one
grid of dt-millisecond steps.  It grades the pair a batch of
consecutive 50 ms blocks at a time, a batch ending where either stream
passes BATCH_EVENTS events, or after one block: it sorts the batch's
kept events of both streams by pixel, step, channel and stream, and
reads every figure from the runs of equal keys.  The voxel difference d
is non-zero only where some event lies, and every figure below is a sum
over those voxels, added up batch by batch as an exact integer.  Its
memory is one byte per frame pixel, which marks n_p, plus what the
events of one batch take, and its time follows the events, not the
grid.  It reports a joint spatio-temporal RMSE:

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

from .events import (_INT64_MAX, US_PER_MS, EventError, EventStream, _check_cell_count,
                     _check_step_count, _step_us)

# Width in microseconds of the time blocks that the spatial metric and the
# spatial loss pool over.
BLOCK_US = 50_000

# rmse_st sorts the keys of consecutive blocks together until a stream has this
# many events in them, so its memory is bounded and sparse blocks share a sort.
BATCH_EVENTS = 1 << 16

# rmse_st reads its figures from about this many sorted keys at a time, so the
# temporaries of a batch's figures stay small.
SLICE_KEYS = 1 << 14


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


def _starts(keys: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in sorted keys,
    or of equal tuples with the same-sized arrays `more`."""
    new = np.ones(keys.size, bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    for other in more:
        new[1:] |= other[1:] != other[:-1]
    return np.flatnonzero(new)


def blocks(steps: int, dt: float):
    """(start, stop) of each 50 ms block (_block_id) of `steps` dt-millisecond
    steps; the last block may be partial."""
    starts = _starts(_block_id(np.arange(steps), dt)).tolist()
    return list(zip(starts, starts[1:] + [steps]))


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


def _batch_keys(stream: EventStream, lo: int, hi: int, origin: int, n: int, steps: int,
                first: int, width: int, side: int) -> np.ndarray:
    """The keys of events lo:hi of a stream, all in the `width` steps from
    step `first` on the grid of `steps` n-microsecond steps from `origin`:
    (cell * 2 + channel) * 2 + side as uint64, with
    cell = (y * w + x) * width + step - first.  An event on the grid's
    closing edge takes its last step."""
    step = stream.t[lo:hi] - origin
    step //= n
    np.minimum(step, steps - 1, out=step)
    step -= first
    key = stream.y[lo:hi] * stream.width
    key += stream.x[lo:hi]
    key *= width
    key += step
    key *= 4   # may wrap past 2**63; as 4 * cells <= 2**64, the uint64 view is exact
    key += (stream.p[lo:hi] != 1) * 2 + side
    return key.view(np.uint64)


def _slice_figures(keys: np.ndarray, first: int, width: int, dt: float, seen: np.ndarray):
    """(sum of d squared, sum of pooled d squared, agreeing cells, comparable
    cells) of sorted batch keys (_batch_keys) that hold whole pixels, marking
    in `seen` the pixels with a ground-truth event."""
    # one run per voxel: its events of both streams, counted apart by the side bit
    start = _starts(keys >> 1)
    voxel = keys[start] >> 1
    n_gt = np.add.reduceat((keys & 1).view(np.int64), start)
    n_out = np.diff(start, append=keys.size) - n_gt
    cell, neg = (voxel >> 1).view(np.int64), (voxel & 1).view(np.int64)   # neg: channel 1
    pixel = cell // width
    seen[pixel[n_gt > 0]] = True
    d = n_out - n_gt
    # the pooled difference per channel, pixel and block; a pixel's voxels
    # are in step order, so each (pixel, block) is one run
    at = _starts(pixel, _block_id(first + cell % width, dt))
    mse_s = sum(int(p @ p) for p in
                (np.add.reduceat(np.where(neg == c, d, 0), at) for c in (0, 1)))
    # each (x, y, step) cell's dominant polarity on each side, 0 if tied or
    # empty; their product is 1 where the sides agree and -1 where they differ
    at = _starts(cell)
    out_lean, gt_lean = (np.sign(np.add.reduceat(np.where(neg, -c, c), at))
                         for c in (n_out, n_gt))
    vote = out_lean * gt_lean
    return int(d @ d), mse_s, int(np.count_nonzero(vote == 1)), int(np.count_nonzero(vote))


def rmse_st(out_stream: EventStream, gt_stream: EventStream, steps: int,
            dt: float = 1.0) -> MetricsReport:
    """Joint spatio-temporal RMSE plus polarity accuracy for one pair.

    Both streams are binned from the start of their combined span into
    `steps` bins of dt milliseconds, as event_bins bins them.  `span_ms`
    is the part of the span those bins grade: the whole span, or
    steps * dt if that is shorter.  `dropped` counts the events of both
    streams that fall past the last bin; `n_pred` and `n_gt` are the
    event counts of the two streams.  Raises if the ground truth is
    empty or the span is zero.

    The pair is graded a batch of 50 ms blocks (_block_id) at a time:
    a batch starts at the block of the earliest event left and ends at
    the block where a stream would pass BATCH_EVENTS events, one block
    at least.  Each stream's slice of the batch is found by a binary
    search on its t, and the batch's keys are sorted on their own, so
    memory follows the batch and sparse blocks share one sort.  The
    figures are read from about SLICE_KEYS sorted keys at a time, each
    slice ending at a pixel's first key (_slice_figures).  Blocks
    without an event cost nothing, and every sum is an exact integer.
    """
    if len(gt_stream) == 0:
        raise DegenerateStreamError("ground-truth stream is empty")
    t0, t1 = common_span(out_stream, gt_stream)
    if t1 == t0:
        raise DegenerateStreamError("zero time span")
    _check_step_count(steps)
    n, h, w = _step_us(dt), gt_stream.height, gt_stream.width
    _check_cell_count((2, h, w, steps))
    sides = (out_stream, gt_stream)
    # each stream keeps its events up to the grid's closing edge, which folds
    # into the last step
    end = t0 + steps * n
    stops = [len(s) if end > _INT64_MAX else int(np.searchsorted(s.t, end, "right"))
             for s in sides]
    dropped = sum(len(s) for s in sides) - sum(stops)

    def block_at(t):   # the block of the kept event at time t
        return _block_id(min((t - t0) // n, steps - 1), dt)

    los = [0, 0]
    seen = np.zeros(h * w, bool)   # pixels with a kept ground-truth event
    sums = [0, 0, 0, 0]   # _slice_figures' four, over the slices so far
    while los != stops:
        # the batch runs from the block of the earliest event left to the block
        # where a stream would pass BATCH_EVENTS, and is one block at least
        block = block_at(min(int(s.t[lo]) for s, lo, stop in zip(sides, los, stops)
                             if lo < stop))
        over = [int(s.t[lo + BATCH_EVENTS]) for s, lo, stop in zip(sides, los, stops)
                if lo + BATCH_EVENTS < stop]
        first = -(-block * BLOCK_US // n)
        last = min(-(-max(block + 1, block_at(min(over))) * BLOCK_US // n), steps) if over \
            else steps
        bound = t0 + last * n
        # the last batch ends at the closing edge; a bound past int64, which
        # searchsorted would round, lies above every remaining event
        his = [stop if last == steps or bound > _INT64_MAX else int(np.searchsorted(s.t, bound))
               for s, stop in zip(sides, stops)]
        width = last - first
        keys = np.concatenate([_batch_keys(s, lo, hi, t0, n, steps, first, width, side)
                               for side, (s, lo, hi) in enumerate(zip(sides, los, his))])
        keys.sort()
        los = his
        # a slice ends at a pixel's first key, so that no run of _slice_figures spans two
        done = 0
        while done < keys.size:
            cut = done + SLICE_KEYS
            if cut < keys.size:   # the first key of the pixel after key cut - 1's
                cut = int(np.searchsorted(keys, np.uint64(
                    (int(keys[cut - 1]) // (4 * width) + 1) * 4 * width)))
            sums = [a + b for a, b in zip(sums, _slice_figures(keys[done:cut], first, width,
                                                                dt, seen))]
            done = cut
    mse_t, mse_s, matches, omega = sums
    n_p = int(np.count_nonzero(seen))
    if n_p == 0:
        raise DegenerateStreamError("no ground-truth events inside the grid")
    pa, vacuous = (100.0 * matches / omega, False) if omega else (100.0, True)
    span_ms = min(t1 - t0, steps * n) / US_PER_MS
    mse_t, mse_s = float(mse_t), float(mse_s)
    return MetricsReport(
        rmse_st=math.sqrt((mse_t + mse_s) / (span_ms * n_p)),
        mse_t_raw=mse_t, mse_s_raw=mse_s,
        mse_t_norm=mse_t / n_p, mse_s_norm=mse_s / n_p,
        pa_percent=pa, pa_vacuous=vacuous, n_p=n_p, span_ms=span_ms,
        dropped=dropped, n_pred=len(out_stream), n_gt=len(gt_stream))
