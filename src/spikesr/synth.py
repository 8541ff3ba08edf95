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

    The RNG draw order is part of the output contract: every column the
    edge reaches before duration_ms draws its per-row Poisson counts and
    then, if any, one uniform jitter per event, the leading edge's
    columns left to right before the trailing edge's.  The benchmark's
    pinned inputs and the criterion-8 corpus are made from this order,
    so a rewrite that changes it changes them.  The events are shaped
    from all the draws at once.
    """
    if width < 1 or height < 1:
        raise EventError("geometry must be positive")
    if duration_ms <= 0 or events_per_edge_px < 0 or velocity < 0:
        raise EventError("bar parameters must be non-negative, duration positive")
    dur_us = int(round(duration_ms * US_PER_MS))
    fired = []   # (x, edge position, polarity, per-row counts, jitter) of each column with events
    if velocity and events_per_edge_px:   # else no edge fires
        rng = np.random.default_rng(seed)
        for offset, pol in ((0.0, 1), (BAR_WIDTH, -1)):
            for x in range(width):
                if (x + offset) / velocity >= duration_ms:
                    break
                counts = rng.poisson(events_per_edge_px, size=height)
                total = int(counts.sum())
                if total:
                    fired.append((x, x + offset, pol, counts, rng.random(total)))
    t = x = y = p = np.zeros(0, np.int64)
    if fired:
        xs, edges, pols, counts, jitter = zip(*fired)
        per_column = [j.size for j in jitter]
        t_ms = (np.repeat(edges, per_column) + np.concatenate(jitter)) / velocity
        keep = t_ms < duration_ms
        t = np.rint(t_ms[keep] * US_PER_MS).astype(np.int64)
        x = np.repeat(xs, per_column)[keep]
        y = np.repeat(np.tile(np.arange(height), len(fired)), np.concatenate(counts))[keep]
        p = np.repeat(pols, per_column)[keep]
    t = np.minimum(t, dur_us)  # rounding may touch the closing edge
    return EventStream(t, x, y, p, width, height, t0=0, t1=dur_us)
