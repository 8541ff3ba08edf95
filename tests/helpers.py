"""Brute-force oracles shared by the test modules.

Everything here is written the slow, obvious way (event loops, nested
dicts, scalar arithmetic) so it shares no code path with the package
implementations it cross-checks; voxel_grid alone is shorthand for the
package's own binning.  repeated and own_peak_rss are tools for the
memory tests.
"""

import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from spikesr.events import EventStream, _count_voxels, _voxel_index, event_bins


def random_stream(rng, width, height, dur_ms, n_events, t0=0):
    """Uniform random events over the full window, declared span [t0, t0+dur]."""
    dur_us = int(dur_ms * 1000)
    t = np.sort(rng.integers(0, dur_us + 1, n_events)) + t0
    x = rng.integers(0, width, n_events)
    y = rng.integers(0, height, n_events)
    p = rng.choice([1, -1], n_events)
    return EventStream(t, x, y, p, width, height, t0=t0, t1=t0 + dur_us)


def bursts(width, height, regions, seed=0):
    """Events in rectangles (x0, y0, w, h, start_ms, stop_ms, n), the rest of the frame silent."""
    rng = np.random.default_rng(seed)
    parts = [(rng.integers(int(a * 1000), int(b * 1000), n), rng.integers(x0, x0 + w, n),
              rng.integers(y0, y0 + h, n), rng.choice([1, -1], n))
             for x0, y0, w, h, a, b, n in regions]
    t, x, y, p = (np.concatenate(f) for f in zip(*parts))
    return EventStream(t, x, y, p, width, height, t0=0)


def repeated(stream, k, gap_us):
    """k copies of a stream back to back, each gap_us after the last event of the one before."""
    shift = stream.t1 - stream.t0 + gap_us
    return EventStream(np.concatenate([stream.t + i * shift for i in range(k)]),
                       np.tile(stream.x, k), np.tile(stream.y, k), np.tile(stream.p, k),
                       stream.width, stream.height)


# Started from a small helper process, the CLI's ru_maxrss is its own.  Started
# straight from a large one, it is not: subprocess starts a child by vfork and
# exec, and exec folds the high-water mark of the memory the child borrowed, its
# parent's, into the child's.
_OWN_PEAK = ("import resource, subprocess, sys; "
             "subprocess.run([sys.executable, '-m', 'spikesr.cli', *sys.argv[1:]], check=True, "
             "stdout=subprocess.DEVNULL); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def own_peak_rss(argv):
    """Peak RSS in bytes of `python -m spikesr.cli *argv`, the CLI's own."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _OWN_PEAK, *map(str, argv)], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    return int(out.stdout) * 1024   # Linux reports KiB


def synth_moving_bar_oracle(width, height, duration_ms, velocity, events_per_edge_px, seed):
    """synth_moving_bar's stream built column by column, each column's
    events shaped right after its draws, in the same RNG draw order, and
    ordered by np.argsort's stable sort.

    Returns the stream and how many columns drew a zero Poisson total
    and how many drew events that all land past the duration.
    """
    dur_us = int(round(duration_ms * 1000))
    empty = np.zeros(0, np.int64)
    ts, xs, ys, ps = [empty], [empty], [empty], [empty]
    zero_total = all_past = 0
    if velocity and events_per_edge_px:
        rng = np.random.default_rng(seed)
        rows = np.arange(height)
        for offset, pol in ((0.0, 1), (2.0, -1)):
            for x in range(width):
                t_cross = (x + offset) / velocity
                if t_cross >= duration_ms:
                    break
                counts = rng.poisson(events_per_edge_px, size=height)
                total = int(counts.sum())
                if total == 0:
                    zero_total += 1
                    continue
                jitter = rng.random(total)
                t_ms = (x + offset + jitter) / velocity
                keep = t_ms < duration_ms
                if not keep.any():
                    all_past += 1
                    continue
                ts.append(np.rint(t_ms[keep] * 1000).astype(np.int64))
                xs.append(np.full(int(keep.sum()), x, dtype=np.int64))
                ys.append(np.repeat(rows, counts)[keep])
                ps.append(np.full(int(keep.sum()), pol, dtype=np.int64))
    t = np.minimum(np.concatenate(ts), dur_us)
    order = np.argsort(t, kind="stable")  # so EventStream's own sort has nothing to do
    x, y, p = (np.concatenate(a)[order] for a in (xs, ys, ps))
    stream = EventStream(t[order], x, y, p, width, height, t0=0, t1=dur_us)
    return stream, zero_total, all_past


def voxel_grid(stream, steps, dt=1.0, origin=None):
    """A whole stream's [2, H, W, steps] count grid and dropped count, by the package."""
    coords, dropped = event_bins(stream, steps, dt, origin)
    frame = (0, stream.height, 0, stream.width)
    return _count_voxels(*_voxel_index(coords, frame, 0, steps)), dropped


def voxel_oracle(stream, steps, dt=1.0, origin=None):
    """Per-event loop binning; returns (counts dict keyed (c,y,x,bin), dropped)."""
    t0 = stream.t0 if origin is None else origin
    dt_us = dt * 1000.0
    counts = defaultdict(int)
    dropped = 0
    for t, x, y, p in zip(stream.t.tolist(), stream.x.tolist(),
                          stream.y.tolist(), stream.p.tolist()):
        rel = t - t0
        b = math.floor(rel / dt_us)
        if b == steps and rel == steps * dt_us:
            b = steps - 1
        if 0 <= b < steps:
            counts[(0 if p == 1 else 1, y, x, b)] += 1
        else:
            dropped += 1
    return counts, dropped


def render_oracle(stream, every_ms=None):
    """The RGB frames `render` draws, by event and pixel loops.

    Frames are w = round(every_ms * 1000) microseconds wide, or one frame
    of w = span + 1 without every_ms, and as many as cover the span (at
    least one).  Frame k holds the events with t in [t0 + k w,
    t0 + (k + 1) w); the last frame is closed at t1.  A pixel's red,
    green and blue drop by 255 times its negative count, its summed
    count (at most 1) and its positive count, each over the frame's
    largest count.
    """
    span = stream.t1 - stream.t0
    w = span + 1 if every_ms is None else round(every_ms * 1000)
    n = max(1, -(-span // w))
    counts = [defaultdict(int) for _ in range(n)]
    for t, x, y, p in zip(stream.t.tolist(), stream.x.tolist(),
                          stream.y.tolist(), stream.p.tolist()):
        k = min((t - stream.t0) // w, n - 1)
        counts[k][(0 if p == 1 else 1, y, x)] += 1
    frames = []
    for frame in counts:
        peak = max(frame.values(), default=0)
        img = np.full((stream.height, stream.width, 3), 255, dtype=np.uint8)
        for y in range(stream.height):
            for x in range(stream.width):
                if peak:
                    sp, sn = frame[(0, y, x)] / peak, frame[(1, y, x)] / peak
                    rgb = (255.0 - 255.0 * sn, 255.0 - 255.0 * min(1.0, sp + sn),
                           255.0 - 255.0 * sp)
                    img[y, x] = [min(255, max(0, round(v))) for v in rgb]
        frames.append(img)
    return frames


def mse_temporal_oracle(out_stream, gt_stream, steps, t0, dt=1.0):
    a, _ = voxel_oracle(out_stream, steps, dt, origin=t0)
    b, _ = voxel_oracle(gt_stream, steps, dt, origin=t0)
    total = 0
    for key in set(a) | set(b):
        total += (a.get(key, 0) - b.get(key, 0)) ** 2
    return total


def mse_spatial_oracle(out_stream, gt_stream, steps, t0, dt=1.0, block_ms=50):
    """Step b falls in block floor(b * dt / block_ms)."""
    blocks_a = defaultdict(int)
    blocks_b = defaultdict(int)
    for counts, blocks in ((voxel_oracle(out_stream, steps, dt, origin=t0)[0], blocks_a),
                           (voxel_oracle(gt_stream, steps, dt, origin=t0)[0], blocks_b)):
        for (c, y, x, b), v in counts.items():
            blocks[(c, y, x, math.floor(b * dt / block_ms))] += v
    total = 0
    for key in set(blocks_a) | set(blocks_b):
        total += (blocks_a.get(key, 0) - blocks_b.get(key, 0)) ** 2
    return total


def n_p_oracle(gt_stream, steps, t0, dt=1.0):
    pixels = set()
    for (_, y, x, _b) in voxel_oracle(gt_stream, steps, dt, origin=t0)[0]:
        pixels.add((y, x))
    return len(pixels)


def pa_oracle(out_stream, gt_stream, steps, t0, dt=1.0):
    """Dominant-polarity match rate over jointly occupied untied cells."""
    def dominant(stream):
        pos = defaultdict(int)
        neg = defaultdict(int)
        for (c, y, x, b), v in voxel_oracle(stream, steps, dt, origin=t0)[0].items():
            (pos if c == 0 else neg)[(y, x, b)] += v
        dom = {}
        for key in set(pos) | set(neg):
            d = pos.get(key, 0) - neg.get(key, 0)
            dom[key] = 0 if d == 0 else (1 if d > 0 else -1)
        return dom

    da, db = dominant(out_stream), dominant(gt_stream)
    omega = [k for k in set(da) & set(db) if da[k] != 0 and db[k] != 0]
    if not omega:
        return 100.0, True
    matches = sum(1 for k in omega if da[k] == db[k])
    return 100.0 * matches / len(omega), False


def rmse_st_oracle(out_stream, gt_stream, steps, dt=1.0):
    """Stream-level RMSE assembled from the per-part oracles above."""
    spans = [(s.t0, s.t1) for s in (out_stream, gt_stream) if len(s)]
    t0 = min(a for a, _ in spans)
    t1 = max(b for _, b in spans)
    span_ms = min((t1 - t0) / 1000.0, steps * dt)   # the part the steps grade
    mse_t = mse_temporal_oracle(out_stream, gt_stream, steps, t0, dt)
    mse_s = mse_spatial_oracle(out_stream, gt_stream, steps, t0, dt)
    n_p = n_p_oracle(gt_stream, steps, t0, dt)
    return math.sqrt((mse_t + mse_s) / (span_ms * n_p)), mse_t, mse_s, n_p


def conv_drive_oracle(x, w, stride, pad):
    """Six-loop direct convolution of a [C, H, W, T] block."""
    cout, cin, kh, kw = w.shape
    _, h, wid, t = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wid + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, oh, ow, t))
    for o in range(cout):
        for i in range(cin):
            for yy in range(oh):
                for xx in range(ow):
                    for dy in range(kh):
                        for dx in range(kw):
                            sy = yy * stride + dy - pad
                            sx = xx * stride + dx - pad
                            if 0 <= sy < h and 0 <= sx < wid:
                                out[o, yy, xx, :] += w[o, i, dy, dx] * x[i, sy, sx, :]
    return out


def conv_weight_adjoint_oracle(x, g, kh, kw):
    """Weight gradient of the same-size stride-1 conv: per tap, the sum over
    every output pixel of g times the input pixel that tap reads."""
    cout, cin = g.shape[0], x.shape[0]
    _, h, wid, _ = x.shape
    out = np.zeros((cout, cin, kh, kw))
    for o in range(cout):
        for i in range(cin):
            for dy in range(kh):
                for dx in range(kw):
                    for yy in range(h):
                        for xx in range(wid):
                            sy, sx = yy + dy - kh // 2, xx + dx - kw // 2
                            if 0 <= sy < h and 0 <= sx < wid:
                                out[o, i, dy, dx] += float(g[o, yy, xx] @ x[i, sy, sx])
    return out


def upconv2x_oracle(x, w):
    """Scatter form of the 2x2 stride-2 transposed convolution."""
    cout, cin = w.shape[0], w.shape[1]
    _, h, wid, t = x.shape
    out = np.zeros((cout, 2 * h, 2 * wid, t))
    for o in range(cout):
        for i in range(cin):
            for yy in range(h):
                for xx in range(wid):
                    for dy in range(2):
                        for dx in range(2):
                            out[o, 2 * yy + dy, 2 * xx + dx, :] += w[o, i, dy, dx] * x[i, yy, xx, :]
    return out


def bilinear2x_oracle(x):
    """Per-output-pixel bilinear sampling at half-pixel centres, edge clamped."""
    c, h, w, t = x.shape
    out = np.zeros((c, 2 * h, 2 * w, t))
    for oy in range(2 * h):
        for ox in range(2 * w):
            sy = (oy + 0.5) / 2.0 - 0.5
            sx = (ox + 0.5) / 2.0 - 0.5
            y0, x0 = math.floor(sy), math.floor(sx)
            fy, fx = sy - y0, sx - x0
            y0c = min(max(y0, 0), h - 1)
            y1c = min(max(y0 + 1, 0), h - 1)
            x0c = min(max(x0, 0), w - 1)
            x1c = min(max(x0 + 1, 0), w - 1)
            out[:, oy, ox, :] = ((1 - fy) * (1 - fx) * x[:, y0c, x0c, :]
                                 + (1 - fy) * fx * x[:, y0c, x1c, :]
                                 + fy * (1 - fx) * x[:, y1c, x0c, :]
                                 + fy * fx * x[:, y1c, x1c, :])
    return out


def psp_oracle(x, kernel):
    """Direct causal convolution along the last axis."""
    out = np.zeros_like(x, dtype=float)
    T = x.shape[-1]
    L = len(kernel)
    it = np.ndindex(x.shape[:-1])
    for idx in it:
        for t in range(T):
            acc = 0.0
            for k in range(min(t + 1, L)):
                acc += kernel[k] * x[idx + (t - k,)]
            out[idx + (t,)] = acc
    return out


def psp_matrix_oracle(steps, kernel):
    """Dense [T, T] matrix of the causal filter: psp(x) = x @ m, m[s, s + k] = kernel[k]."""
    m = np.zeros((steps, steps))
    for s in range(steps):
        for k in range(min(len(kernel), steps - s)):
            m[s, s + k] = kernel[k]
    return m


def fire_oracle(drive, cfg, dt=1.0, past=None):
    """Per-neuron, per-step SRM loop: u[t] = drive[t] + sum of gamma[t - s] over
    the neuron's earlier spikes s, fire when u[t] >= v_th.

    gamma[k] = -lam * exp(-k dt / tau_r) for k < ceil(8 tau_r / dt).  past,
    [..., P], holds spikes at steps -P..-1; they count like any earlier
    spike.  Returns (spikes, u) shaped like drive.
    """
    drive = np.asarray(drive, dtype=float)
    gamma = [-cfg.lam * math.exp(-k * dt / cfg.tau_r)
             for k in range(math.ceil(8.0 * cfg.tau_r / dt))]
    spikes = np.zeros_like(drive)
    u = np.zeros_like(drive)
    steps = drive.shape[-1]
    for idx in np.ndindex(drive.shape[:-1]):
        fired = [] if past is None else [s - past.shape[-1] for s in range(past.shape[-1])
                                         if past[idx + (s,)] > 0]
        for t in range(steps):
            acc = float(drive[idx + (t,)])
            for s in fired:
                if t - s < len(gamma):
                    acc += gamma[t - s]
            u[idx + (t,)] = acc
            if acc >= cfg.v_th:
                spikes[idx + (t,)] = 1.0
                fired.append(t)
    return spikes, u
