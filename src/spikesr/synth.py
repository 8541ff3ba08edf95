"""Synthetic moving-bar scenes for pipeline smoke tests and training corpora."""

from __future__ import annotations

import numpy as np

from .events import EventError, EventStream, US_PER_MS

BAR_WIDTH = 2.0  # pixels


def synth_moving_bar(width: int, height: int, duration_ms: float, velocity: float,
                     events_per_edge_px: float, seed: int) -> EventStream:
    """Deterministic bright bar sweeping left to right.

    A vertical bar of BAR_WIDTH pixels moves at `velocity` px/ms from
    the left edge.  When the leading edge crosses a pixel it fires a
    Poisson(events_per_edge_px) burst of +1 events; the trailing edge
    fires -1 events one bar width later.  Burst timestamps are jittered
    uniformly over the single-pixel crossing interval.  The declared
    span is the full [0, duration_ms] window.  velocity 0 yields an
    empty stream.
    """
    if width < 1 or height < 1:
        raise EventError("geometry must be positive")
    if duration_ms <= 0 or events_per_edge_px < 0 or velocity < 0:
        raise EventError("bar parameters must be non-negative, duration positive")
    dur_us = int(round(duration_ms * US_PER_MS))
    empty = np.zeros(0, np.int64)
    ts, xs, ys, ps = [empty], [empty], [empty], [empty]
    if velocity and events_per_edge_px:   # else no edge fires
        rng = np.random.default_rng(seed)
        rows = np.arange(height)
        for offset, pol in ((0.0, 1), (BAR_WIDTH, -1)):
            for x in range(width):
                t_cross = (x + offset) / velocity
                if t_cross >= duration_ms:
                    break
                counts = rng.poisson(events_per_edge_px, size=height)
                total = int(counts.sum())
                if total == 0:
                    continue
                jitter = rng.random(total)
                t_ms = (x + offset + jitter) / velocity
                keep = t_ms < duration_ms
                if not keep.any():
                    continue
                ts.append(np.rint(t_ms[keep] * US_PER_MS).astype(np.int64))
                xs.append(np.full(int(keep.sum()), x, dtype=np.int64))
                ys.append(np.repeat(rows, counts)[keep])
                ps.append(np.full(int(keep.sum()), pol, dtype=np.int64))
    t = np.minimum(np.concatenate(ts), dur_us)  # rounding may touch the closing edge
    return EventStream(t, np.concatenate(xs), np.concatenate(ys), np.concatenate(ps),
                       width, height, t0=0, t1=dur_us)
