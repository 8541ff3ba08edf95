"""Spiking super-resolution networks.

Two fixed architectures, both upscaling 2x spatially while preserving
the time axis:

  dual_layer   conv 2->8, 5x5, stride 1, pad 2, so layer 1 is same-size
               padded, then transposed conv 8->2, 2x2, stride 2.  Both
               polarity channels are processed jointly in one pass.
  ultralight   the same shape with 1-channel input and output.  The two
               polarity channels are run through the shared weights as
               two independent passes and concatenated.

The pass layout follows from the first layer's input width; forward,
backward_pass and count_flops all read it from NetworkSpec.passes.

Neither layer has a bias.  The final drive additionally receives the
first layer's input PSP, bilinearly upsampled to output resolution, as
a parameter-free bypass that hands the low-resolution signal straight
to the output neurons.

Layer 2 filters after its transposed conv: upconv(PSP(s)) = PSP(upconv(s)).
Both maps are linear, the PSP convolves each pixel's time series with
one kernel shared by every channel and pixel, and the transposed conv
mixes channels and pixels within each step, so the two commute exactly
in real arithmetic; in floating point only the order of the sums
changes.  The PSP then filters c_out channels at 2H x 2W instead of 8
channels at H x W: for ultralight (c_out = 1) that halves layer 2's PSP
work and the input steps a streamed window carries, for dual_layer
(c_out = 2) they stay the same size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import VARIANTS
from .events import (EventError, EventStream, _count_voxels, _step_us, _voxel_index,
                     event_bins, from_voxel_grid)
from .io import EventParts, save_events
from .kernels import (NeuronConfig, _spike_kernel, apply_psp, apply_psp_adjoint,
                      generate_spikes, membrane, soft_spike_grad, soft_spikes, surrogate_grad)

CHECKPOINT_MAGIC = b"EVSRW01"


class ModelError(ValueError):
    """Invalid configuration or weight structure."""


@dataclass(frozen=True)
class LayerConfig:
    """A layer's fixed layout, as conv_drive or upconv2x_drive computes it."""
    kind: str
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int
    padding: int

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)


@dataclass(frozen=True)
class NetworkSpec:
    """A variant stepping dt_ms milliseconds, a positive whole number of microseconds held
    as a float; ModelError refuses any other.  Layers, neurons and scale follow from them."""
    variant: str
    dt_ms: float = 1.0

    scale = 2
    neuron_cfgs = (
        NeuronConfig(v_th=30.0, tau_s=1.0, tau_r=1.0, lam=1.0, tau_rho=1.0, rho=10.0),
        NeuronConfig(v_th=100.0, tau_s=4.0, tau_r=4.0, lam=1.0, tau_rho=10.0, rho=100.0))

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown variant {self.variant!r}")
        try:
            _step_us(self.dt_ms)
        except EventError:
            raise ModelError(f"step size dt_ms={self.dt_ms!r} must be a positive whole "
                             f"number of microseconds") from None
        object.__setattr__(self, "dt_ms", float(self.dt_ms))

    @property
    def layers(self):
        c = 2 if self.variant == "dual_layer" else 1
        return (LayerConfig("conv", c, 8, 5, 5, 1, 2),
                LayerConfig("transposed_conv", 8, c, 2, 2, 2, 0))

    @property
    def passes(self):
        """The polarity channels of each pass, slices of the first layer's input width."""
        c = self.layers[0].in_channels
        return tuple(slice(i, i + c) for i in range(0, 2, c))


def init_weights(spec: NetworkSpec, seed: int) -> list[np.ndarray]:
    """Seeded uniform init on [-b, b] with b = v_th / fan_in per layer."""
    rng = np.random.default_rng(seed)
    out = []
    for layer, neuron in zip(spec.layers, spec.neuron_cfgs):
        fan_in = layer.in_channels * layer.kernel_h * layer.kernel_w
        b = neuron.v_th / fan_in
        out.append(rng.uniform(-b, b, size=layer.weight_shape))
    return out


def validate_weights(spec: NetworkSpec, weights) -> None:
    if len(weights) != len(spec.layers):
        raise ModelError("weight list length does not match layer count")
    for i, (w, layer) in enumerate(zip(weights, spec.layers)):
        if w.shape != layer.weight_shape:
            raise ModelError(f"layer {i} weights {w.shape} != {layer.weight_shape}")
        if not np.all(np.isfinite(w)):
            raise ModelError(f"layer {i} weights contain non-finite values")


def count_params(spec: NetworkSpec) -> int:
    return sum(int(np.prod(layer.weight_shape)) for layer in spec.layers)


def count_flops(spec: NetworkSpec, h: int, w: int, t: int) -> int:
    """Multiply-accumulate cost, 2 * k_h * k_w * c_in * c_out * h_out * w_out * T per layer.

    Layer 1 outputs (h, w) and layer 2 (2h, 2w).  Counted over all of
    spec.passes.
    """
    if h < 1 or w < 1 or t < 0:
        raise ModelError("dimensions must be positive (t may be zero)")
    total = sum(2 * int(np.prod(layer.weight_shape)) * pixels * t
                for layer, pixels in zip(spec.layers, (h * w, 4 * h * w)))
    return len(spec.passes) * total


# ---------------------------------------------------------------------------
# drive computations and their adjoints

# Output pixel-steps per block of the patch matrix, rounded up to whole rows,
# so a narrow box takes many rows per block: fixed 2-row blocks ran a
# [1, 64, 10, 32] conv 2.2x slower than the whole matrix.
_BLOCK_STEPS = 4096


def _patch_blocks(x: np.ndarray, kh: int, kw: int):
    """(columns, patch matrix) of each block of output rows of a same-size conv.

    The matrix of output rows [y0, y1) is (C * kh * kw) x ((y1 - y0) * W * T),
    rows ordered as a weight's (c, dy, dx) and columns as the output's
    (y, x, t); the columns are the block's in the flattened output.  It is
    filled from x, zero padded once, by one slab copy per tap into a buffer
    every block reuses, so it is valid only until the next one is yielded.

    Every block but the last holds a multiple of 8 columns, so BLAS cuts the
    blocks into the vector groups it cuts the whole matrix into: with OpenBLAS
    on AVX-512 a product is then the whole matrix's bit for bit wherever the
    whole holds a multiple of 8 columns, as every 32- or 64-step window does.
    """
    c, h, w, t = x.shape
    py, px = kh // 2, kw // 2
    xp = np.zeros((c, h + 2 * py, w + 2 * px, t))
    xp[:, py:py + h, px:px + w] = x
    wt = max(1, w * t)
    unit = math.lcm(wt, 8) // wt      # fewest rows holding a multiple of 8 columns
    rows = min(h, unit * -(-_BLOCK_STEPS // (unit * wt)))
    buf = np.empty(c * kh * kw * rows * w * t)
    for y0 in range(0, h, rows):
        n = min(rows, h - y0)
        cols = buf[:c * kh * kw * n * w * t].reshape(c, kh, kw, n, w, t)
        for dy in range(kh):
            for dx in range(kw):
                cols[:, dy, dx] = xp[:, y0 + dy:y0 + dy + n, dx:dx + w]
        yield slice(y0 * w * t, (y0 + n) * w * t), cols.reshape(c * kh * kw, n * w * t)


def conv_drive(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-size 2-D convolution (stride 1) applied at every time step; x is [C, H, W, T]."""
    cout = w.shape[0]
    out = np.empty((cout,) + x.shape[1:])
    flat, w2 = out.reshape(cout, -1), w.reshape(cout, -1)
    for span, cols in _patch_blocks(x, w.shape[2], w.shape[3]):
        np.matmul(w2, cols, out=flat[:, span])
    return out


def conv_weight_adjoint(x: np.ndarray, g: np.ndarray, kh: int, kw: int) -> np.ndarray:
    cout = g.shape[0]
    g2 = g.reshape(cout, -1)
    out = np.zeros((cout, x.shape[0] * kh * kw))
    for span, cols in _patch_blocks(x, kh, kw):
        out += g2[:, span] @ cols.T
    return out.reshape(cout, x.shape[0], kh, kw)


def upconv2x_drive(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Transposed conv, kernel 2x2 stride 2: every input pixel paints a
    2x2 output patch, patches do not overlap."""
    cout = w.shape[0]
    _, h, width, t = x.shape
    out = np.tensordot(w, x, axes=([1], [0]))        # [cout, 2, 2, h, w, t]
    out = out.transpose(0, 3, 1, 4, 2, 5)            # [cout, h, 2, w, 2, t]
    return np.ascontiguousarray(out).reshape(cout, 2 * h, 2 * width, t)


def upconv2x_weight_adjoint(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    cout = g.shape[0]
    _, h, width, t = x.shape
    gv = g.reshape(cout, h, 2, width, 2, t)
    out = np.tensordot(gv, x, axes=([1, 3, 5], [1, 2, 3]))   # [cout, 2, 2, cin]
    return out.transpose(0, 3, 1, 2)


def upconv2x_input_adjoint(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    cout = g.shape[0]
    h2, w2, t = g.shape[1], g.shape[2], g.shape[3]
    gv = g.reshape(cout, h2 // 2, 2, w2 // 2, 2, t)
    return np.tensordot(w, gv, axes=([0, 2, 3], [0, 2, 4]))  # [cin, h, w, t]


def _upsample_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """Linear 2x upsampling along one axis, edges clamped:
    out[2i] = 0.25 a[i-1] + 0.75 a[i] and out[2i+1] = 0.75 a[i] + 0.25 a[i+1]."""
    shape, n = a.shape, a.shape[axis]
    out = np.empty(shape[:axis] + (n, 2) + shape[axis + 1:])   # both phases, interleaved
    pairs, a = np.moveaxis(out, (axis, axis + 1), (0, 1)), np.moveaxis(a, axis, 0)
    even, odd = pairs[:, 0], pairs[:, 1]
    np.multiply(0.75, a, out=even)
    np.multiply(0.75, a, out=odd)
    quarter = 0.25 * a
    even[1:] += quarter[:-1]
    even[:1] += quarter[:1]
    odd[:-1] += quarter[1:]
    odd[-1:] += quarter[-1:]
    return out.reshape(shape[:axis] + (2 * n,) + shape[axis + 1:])


def bilinear_upsample_2x(x: np.ndarray) -> np.ndarray:
    """Spatial 2x bilinear upsampling of a [C, H, W, T] tensor.

    Output pixel centres sit at (i + 0.5) / 2 - 0.5 in source coordinates
    (the align-corners-false convention), so every output pixel mixes its
    two nearest sources with weights 0.75 and 0.25; edges clamp.  The
    stencil runs along x, then along y.  Constant inputs stay constant.
    """
    return _upsample_axis(_upsample_axis(x, 2), 1)


# ---------------------------------------------------------------------------
# layer and network forward

@dataclass
class LayerCache:
    """Intermediates a backward pass needs: what the layer's weights act on
    (layer 1's input PSP, layer 2's input spikes), the drive and the
    layer's spikes, from which backward_pass rebuilds the membrane trace."""
    conv_in: np.ndarray
    drive: np.ndarray
    spikes: np.ndarray


@dataclass
class ForwardCache:
    layer1: LayerCache
    layer2: LayerCache
    spike_mode: str


@dataclass
class LayerState:
    """What one layer carries from a window of a stream into the next.

    The kernels are finite, so the last len(spike kernel) - 1 input
    steps and the last len(refractory kernel) - 1 output spikes are all
    of the past a layer's next step can feel.  Both start empty.
    """
    inputs: np.ndarray | None = None
    spikes: np.ndarray | None = None


def _psp(in_spikes, neuron, dt, state):
    """The layer's input PSP, fed first by the inputs `state` carries."""
    eps = _spike_kernel(neuron, dt)
    x = in_spikes if state.inputs is None else np.concatenate([state.inputs, in_spikes], -1)
    state.inputs = x[..., max(0, x.shape[-1] - eps.size + 1):].copy()
    return apply_psp(x, eps, x.shape[-1] - in_spikes.shape[-1])


def _fire(drive, neuron, dt, spike_mode, state):
    if spike_mode == "soft":
        return soft_spikes(drive, neuron)
    spikes, state.spikes = generate_spikes(drive, neuron, dt, state.spikes)
    return spikes


def spiking_conv_forward(in_spikes, weights, neuron: NeuronConfig, dt: float,
                         spike_mode: str, state: LayerState):
    """PSP, same-size convolutional drive, then spike generation for one layer.

    in_spikes is the next window of a stream whose past `state` holds:
    the layer reads its past from it and leaves its own there.
    """
    psp = _psp(in_spikes, neuron, dt, state)
    drive = conv_drive(psp, weights)
    spikes = _fire(drive, neuron, dt, spike_mode, state)
    return spikes, LayerCache(psp, drive, spikes)


def spiking_upconv_forward(in_spikes, weights, neuron: NeuronConfig, bypass: np.ndarray,
                           dt: float, spike_mode: str, state: LayerState):
    """2x2 stride-2 transposed-conv layer; `bypass` is added to the drive before firing.

    The PSP filters the transposed conv's output, not its input (see the
    module docstring), so `state` carries [c_out, 2H, 2W] input steps.
    `state` is otherwise as for spiking_conv_forward.
    """
    drive = _psp(upconv2x_drive(in_spikes, weights), neuron, dt, state) + bypass
    spikes = _fire(drive, neuron, dt, spike_mode, state)
    return spikes, LayerCache(in_spikes, drive, spikes)


def _forward_pass(spec, weights, x, spike_mode, states, keep_cache):
    """One pass through both layers for a [C, H, W, T] input slice."""
    n1, n2 = spec.neuron_cfgs
    st1, st2 = states
    s1, c1 = spiking_conv_forward(x, weights[0], n1, spec.dt_ms, spike_mode, st1)
    bypass = bilinear_upsample_2x(c1.conv_in)
    s2, c2 = spiking_upconv_forward(s1, weights[1], n2, bypass, spec.dt_ms, spike_mode, st2)
    return s2, ForwardCache(c1, c2, spike_mode) if keep_cache else None


def forward(spec: NetworkSpec, weights, inp, spike_mode: str = "hard", state=None):
    """Super-resolve one [2, H, W, T] count grid to [2, 2H, 2W, T].

    The input holds non-negative event counts per step of spec.dt_ms
    milliseconds, channel 0 positive and 1 negative; ModelError refuses
    any other rank, channel count or a negative entry.  It is cut into
    spec.passes, each pass runs through the shared weights, and the
    outputs are stacked: one joint pass for dual_layer, one pass per
    polarity for ultralight.  `state`, a list that is empty at a
    stream's start, makes the input the next window of that stream:
    forward keeps one pair of LayerStates per pass in it (see
    super_resolve).  Without it the input is a whole stream, its only
    window, run on fresh LayerStates.  Returns (output spikes, a float64
    [2, 2H, 2W, T] array, per-pass caches).  The caches are for
    training's backward pass; nothing differentiates through a streamed
    window, so with a `state` the cache list is empty and no pass's
    caches outlive it.
    """
    if spike_mode not in ("hard", "soft"):
        raise ModelError(f"unknown spike mode {spike_mode!r}")
    validate_weights(spec, weights)
    x = np.asarray(inp, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] != 2:
        raise ModelError(f"network input must be a [2, H, W, T] count grid, not {x.shape}")
    if x.size and float(x.min()) < 0.0:
        raise ModelError("network input counts must be non-negative")
    whole = state is None
    state = [] if whole else state
    if not state:
        state.extend((LayerState(), LayerState()) for _ in spec.passes)
    results = [_forward_pass(spec, weights, x[p], spike_mode, st, whole)
               for p, st in zip(spec.passes, state)]
    out = np.concatenate([r[0] for r in results], axis=0)
    caches = [r[1] for r in results if whole]
    for p, cache in zip(spec.passes, caches):
        cache.layer2.spikes = out[p]   # a view, so no cache holds a second copy
    return out, caches


def backward_pass(spec: NetworkSpec, weights, caches, g_out: np.ndarray) -> list[np.ndarray]:
    """Weight gradients given the loss gradient g_out at the output, summed over passes.

    `caches` is the per-pass list forward returns.  Each pass produced
    the output channels of its spec.passes slice, so the total gradient
    is the sum of each pass's contribution from its own slice of g_out;
    without caches it is zero.  Each pass runs the reverse of
    _forward_pass: through the output threshold (surrogate in hard mode,
    exact sigmoid derivative in soft mode), the interlayer PSP, the
    transposed conv, the hidden threshold, and the first conv.  The
    derivatives are taken at the membrane: in hard mode the drive plus
    the refractory trace that kernels.membrane filters from the spikes,
    within about 1e-12 of the sum generate_spikes compared with v_th,
    and in soft mode the drive itself.  The refractory trace
    is treated as constant, and the bypass carries no parameters, so
    nothing flows back past the first layer's drive.
    """
    n1, n2 = spec.neuron_cfgs
    eps2 = _spike_kernel(n2, spec.dt_ms)

    def u(layer, neuron, soft):
        return layer.drive if soft else membrane(layer.drive, layer.spikes, neuron, spec.dt_ms)

    grads = [np.zeros_like(w) for w in weights]
    for p, cache in zip(spec.passes, caches):
        soft = cache.spike_mode == "soft"
        deriv = soft_spike_grad if soft else surrogate_grad
        g_conv2 = apply_psp_adjoint(g_out[p] * deriv(u(cache.layer2, n2, soft), n2), eps2)
        grads[1] += upconv2x_weight_adjoint(cache.layer2.conv_in, g_conv2)
        g_spikes1 = upconv2x_input_adjoint(g_conv2, weights[1])
        g_drive1 = g_spikes1 * deriv(u(cache.layer1, n1, soft), n1)
        grads[0] += conv_weight_adjoint(cache.layer1.conv_in, g_drive1, *weights[0].shape[2:])
    return grads


def resolve_mode(variant: str, mode: str | None) -> str:
    """Name of the variant's one pass layout: "joint" for dual_layer,
    "dual_sequential" for ultralight.

    Kept for callers written when the layout was an option; any mode
    other than None or that name raises ModelError.
    """
    own = "joint" if variant == "dual_layer" else "dual_sequential"
    if mode not in (None, own):
        raise ModelError(f"{variant} has no mode {mode!r}")
    return own


# Steps per forward call in super_resolve.  `infer` of a 300-step 64x64 moving bar, each
# window on its live box (2 cores, one BLAS thread, started from a small helper process
# so ru_maxrss is its own; three runs on each of three inputs): 0.70, 0.63, 0.62, 0.71 and
# 0.76 s median wall at 16, 24, 32, 48 and 64 steps, peaking at 80-82, 80-81, 79-81,
# 82-92 and 102-107 MiB.  In-process, 32 steps was as fast as any (0.30-0.36 s).
# A multiple of kernels._BLOCK, so each window's PSP blocks are the whole grid's.
_WINDOW = 32


def _live_box(spec: NetworkSpec, ys, xs, height: int, width: int, state=(), box=None):
    """The LR box (y0, y1, x0, x1), half-open, that a window runs on, or None.

    It bounds the LR pixels at rows `ys` and columns `xs` (a window's
    events) and those where a layer's carried inputs or spikes hold a
    non-zero step (`state` sits on `box`; layer 2's HR pixels map onto
    their LR pixel), dilated by the 5x5 conv's halo, which also covers
    the bilinear bypass's one pixel, and clipped to the frame.  When the
    given pixels alone already span the frame, the state is not read.
    """
    halo = spec.layers[0].kernel_h // 2

    def dilated(spans):
        if not spans:
            return None
        y0, y1, x0, x1 = np.array(spans).T
        return (max(0, int(y0.min()) - halo), min(height, int(y1.max()) + halo + 1),
                max(0, int(x0.min()) - halo), min(width, int(x1.max()) + halo + 1))

    spans = [(ys.min(), ys.max(), xs.min(), xs.max())] if ys.size else []
    if dilated(spans) == (0, height, 0, width):
        return 0, height, 0, width
    for pair in state:
        for layer, s in zip(pair, (1, spec.scale)):
            for carried in (layer.inputs, layer.spikes):
                live = carried.any(axis=(0, 3))
                rows, cols = np.flatnonzero(live.any(1)), np.flatnonzero(live.any(0))
                if rows.size:
                    spans.append((box[0] + rows[0] // s, box[0] + rows[-1] // s,
                                  box[2] + cols[0] // s, box[2] + cols[-1] // s))
    return dilated(spans)


def _rebox(spec: NetworkSpec, state, old, new) -> None:
    """Move the carried state from box `old` onto box `new`.

    Every non-zero carried step lies in both boxes, so copying their
    overlap into zeros of the new box's size loses nothing.
    """
    y0, y1 = max(old[0], new[0]), min(old[1], new[1])
    x0, x1 = max(old[2], new[2]), min(old[3], new[3])
    for pair in state:
        for layer, s in zip(pair, (1, spec.scale)):
            for name in ("inputs", "spikes"):
                carried = getattr(layer, name)
                moved = np.zeros((carried.shape[0], s * (new[1] - new[0]),
                                  s * (new[3] - new[2]), carried.shape[3]))
                if y0 < y1 and x0 < x1:
                    moved[:, s * (y0 - new[0]):s * (y1 - new[0]),
                          s * (x0 - new[2]):s * (x1 - new[2])] = \
                        carried[:, s * (y0 - old[0]):s * (y1 - old[0]),
                                s * (x0 - old[2]):s * (x1 - old[2])]
                setattr(layer, name, moved)


def _run_box(spec: NetworkSpec, weights, window, box, start: int, stop: int, t0: int, state):
    """One window run on its box: the output events' (t, x, y, p) in frame coordinates.

    A function of its own, so the window's tensors are freed before the
    next window allocates its own.
    """
    vox = _count_voxels(*_voxel_index(window, box, start, stop))
    out = from_voxel_grid(forward(spec, weights, vox, state=state)[0], t0, start, spec.dt_ms)
    return out.t, out.x + spec.scale * box[2], out.y + spec.scale * box[0], out.p


def _resolve_bins(spec, weights, coords, steps, height, width, t0):
    """super_resolve's output from event_bins' coordinates of a height x width stream
    that starts at t0, one window at a time: yields the (t, x, y, p) arrays of each
    window that runs, in time order.

    A window with no live pixel clears the state, all zero, and the loop
    resumes at the window of the next event, or stops if none is left:
    every window it passes over would find no live pixel either.
    """
    state, box = [], None
    bins, start = coords[3], 0
    while start < steps:
        stop = min(start + _WINDOW, steps)
        lo, hi = np.searchsorted(bins, (start, stop))
        window = tuple(c[lo:hi] for c in coords)
        live = _live_box(spec, window[1], window[2], height, width, state, box)
        if live is None:
            state.clear()
            if hi == bins.size:
                break
            start = int(bins[hi]) // _WINDOW * _WINDOW   # bins[hi] >= stop
            continue
        if state and live != box:
            _rebox(spec, state, box, live)
        box = live
        yield _run_box(spec, weights, window, box, start, stop, t0, state)
        start = stop


def _resolved_stream(spec, weights, coords, steps, height, width, t0) -> EventStream:
    """_resolve_bins' windows joined into one stream at the output geometry."""
    parts = [(np.zeros(0, np.int64),) * 4]   # so an empty output concatenates too
    parts += _resolve_bins(spec, weights, coords, steps, height, width, t0)
    return EventStream(*(np.concatenate(field) for field in zip(*parts)),
                       spec.scale * width, spec.scale * height)


def super_resolve(spec: NetworkSpec, weights, stream: EventStream, steps: int,
                  mode: str | None = None, out=None):
    """Stream in, stream out: voxelize, run the network, re-emit events.

    Bins are spec.dt_ms wide.  The grid is run through forward in
    windows of _WINDOW steps, each layer carrying its state from one
    window into the next, so the network's memory is bounded by the
    window, not by `steps`; the output is the whole grid's.  The input
    is binned whole.  _resolve_bins yields each window's output as it is
    made, and they are joined into one stream; with `out`, a (path,
    format) pair, they are written there window by window instead
    (io.save_events of EventParts), and never held together.

    Each window runs on its live box alone (_live_box): the pixels with
    input in the window or a non-zero carried step, dilated by the 5x5
    conv's 2-pixel halo.  This is exact.  Outside the box every PSP,
    drive and bypass value is 0 < v_th, so no neuron fires there and the
    next window's carried state is zero there too; at an inner edge of
    the box, the conv's zero padding and the bypass's edge clamp read
    the zeros the frame holds.  Where the box is the whole frame this is
    the whole-frame computation, so work follows activity.  Once a
    window has no live pixel the state is clear, and the windows up to
    the next event's are not visited (_resolve_bins), so a span with no
    event and no carried state costs nothing, however many steps it has.

    Returns (output stream at 2x geometry, input events dropped by
    binning); with `out` the output is the written EventParts, whose
    len() and geometry are the stream's.  An empty input yields an empty
    output.  `mode` is only checked, by resolve_mode.
    """
    resolve_mode(spec.variant, mode)
    coords, dropped = event_bins(stream, steps, spec.dt_ms)
    run = (spec, weights, coords, steps, stream.height, stream.width, stream.t0)
    if out is None:
        return _resolved_stream(*run), dropped
    result = EventParts(_resolve_bins(*run), spec.scale * stream.width,
                        spec.scale * stream.height)
    save_events(result, *out)
    return result, dropped


# ---------------------------------------------------------------------------
# checkpoints

def _header(spec: NetworkSpec, seed: int) -> list[str]:
    """The checkpoint header lines of a network and its seed."""
    lines = [CHECKPOINT_MAGIC.decode(), f"variant={spec.variant}",
             f"scale={spec.scale}", f"dt_ms={spec.dt_ms!r}", f"seed={seed}",
             f"n_layers={len(spec.layers)}"]
    for i, (layer, n) in enumerate(zip(spec.layers, spec.neuron_cfgs)):
        lines.append(f"layer{i}={layer.kind} {layer.in_channels} {layer.out_channels} "
                     f"{layer.kernel_h} {layer.kernel_w} {layer.stride} {layer.padding}")
        lines.append(f"neuron{i}={n.v_th!r} {n.tau_s!r} {n.tau_r!r} "
                     f"{n.lam!r} {n.tau_rho!r} {n.rho!r}")
    return lines


def save_checkpoint(path, spec: NetworkSpec, weights, log_var, seed: int) -> None:
    """Write the network, its weights and the loss log-variances.

    Text header (magic line, key=value lines, blank line) followed by a
    little-endian float64 payload: each layer's weights in order, then
    the three log-variances.  The header spells out the layers and the
    neuron settings, but they follow from the variant: only variant,
    dt_ms and seed are free.  Round-trips bit-exactly.
    """
    validate_weights(spec, weights)
    log_var = np.asarray(log_var, dtype=np.float64)
    if log_var.shape != (3,):
        raise ModelError("expected three loss log-variances")
    with open(path, "wb") as fh:
        fh.write(("\n".join(_header(spec, seed)) + "\n\n").encode())
        for w in weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
        fh.write(log_var.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (spec, weights, log_var, seed).

    Only variant, dt_ms and seed are read from the header.  Every header
    line must be the one save_checkpoint writes for them; ModelError
    names the first line that is not.
    """
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n\n")
    if sep < 0 or not raw.startswith(CHECKPOINT_MAGIC + b"\n"):
        raise ModelError(f"{path}: not a checkpoint file")
    try:
        lines = raw[:sep].decode().split("\n")
        fields = dict(line.split("=", 1) for line in lines if "=" in line)
        spec = NetworkSpec(fields["variant"], float(fields["dt_ms"]))
        seed = int(fields["seed"])
    except (KeyError, ValueError) as exc:
        raise ModelError(f"{path}: corrupt checkpoint header ({exc})") from None
    for i, (got, want) in enumerate(zip_longest(lines, _header(spec, seed)), 1):
        if got != want:
            raise ModelError(f"{path}: header line {i} is {got!r}, expected {want!r} "
                             f"for variant={spec.variant}")
    body = raw[sep + 2:]
    if len(body) != 8 * (count_params(spec) + 3):
        raise ModelError(f"{path}: payload is {len(body)} bytes, expected "
                         f"{8 * (count_params(spec) + 3)} for variant={spec.variant}")
    values = np.frombuffer(body, dtype="<f8").copy()
    weights, offset = [], 0
    for layer in spec.layers:
        n = int(np.prod(layer.weight_shape))
        weights.append(values[offset:offset + n].reshape(layer.weight_shape))
        offset += n
    return spec, weights, values[offset:], seed
