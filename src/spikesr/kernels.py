"""Spike-response-model primitives.

A neuron's membrane is a sum of postsynaptic potentials, obtained by
convolving incoming spike trains with a causal spike kernel, plus a
self-inflicted refractory trace from its own past output spikes.  The
neuron fires whenever the membrane reaches threshold; there is no hard
reset, suppression comes entirely from the refractory kernel.  Resting
potential is zero.

The PSP is a causal convolution along time (SLAYER's view), and its
adjoint is the same convolution run backward; both are computed as one
blocked banded product, the input's rows times slices of a small
banded Toeplitz matrix.  So is the refractory trace membrane adds to
a drive: the same product over the neuron's own spikes.

Spike generation decides most cells with one comparison.  NeuronConfig
enforces lam >= 0, so every refractory term is <= 0, and a membrane is
its drive plus some of the terms gamma[K-1], ..., gamma[1], added in
that order.  Let d* be the least double whose chain d + gamma[K-1] +
... + gamma[1], rounded add by add, reaches v_th.  Each rounded add is
monotone in its operand, and leaving out a non-positive term never
lowers the result, so a drive >= d* fires whatever the neuron's past
and a drive < v_th never fires.  Only drives in [v_th, d*) are decided
from their row's history, in time order.  membrane's filtered trace is
within about 1e-12 of that ordered sum, not bit for bit; only
training's surrogate gradient reads it.

Kernels (t >= 0, zero before):

    spike       eps(t)   = (t / tau_s) * exp(1 - t / tau_s)
    refractory  gamma(t) = -lam * exp(-t / tau_r)

The surrogate derivative used for credit assignment through the
threshold is a symmetric exponential around the threshold:

    g(u) = (rho / (tau_rho * v_th)) * exp(-|u - v_th| / (tau_rho * v_th))
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NeuronConfig:
    """Threshold and kernel time constants for one layer of SRM neurons.

    lam is the refractory magnitude; tau_rho and rho shape the surrogate
    derivative width and peak.  Time constants are in milliseconds.
    lam >= 0 keeps every refractory term <= 0, which generate_spikes
    and its certain-fire threshold rely on.
    """

    v_th: float
    tau_s: float
    tau_r: float
    lam: float
    tau_rho: float
    rho: float

    def __post_init__(self):
        if self.v_th <= 0 or self.tau_s <= 0 or self.tau_r <= 0:
            raise ValueError("v_th, tau_s, tau_r must be positive")
        if self.lam < 0 or self.tau_rho <= 0 or self.rho <= 0:
            raise ValueError("lam must be non-negative, tau_rho and rho positive")


def kernel_length(tau: float, dt: float) -> int:
    """Truncation horizon: ceil(8 tau / dt) samples; the filters stop at the window's end."""
    return max(1, math.ceil(8.0 * tau / dt))


def spike_kernel(tau_s: float, dt: float, length: int) -> np.ndarray:
    """Spike kernel sampled at k * dt; unit peak one time constant after onset."""
    k = np.arange(length, dtype=np.float64) * dt
    return (k / tau_s) * np.exp(1.0 - k / tau_s)


def refractory_kernel(tau_r: float, lam: float, dt: float, length: int) -> np.ndarray:
    """Refractory kernel sampled at k * dt; starts at -lam and decays to zero."""
    k = np.arange(length, dtype=np.float64) * dt
    return -lam * np.exp(-k / tau_r)


# Output steps per matrix product: model._WINDOW, so every inference window
# starts on the block grid.
_BLOCK = 32


@functools.lru_cache(maxsize=64)
def _band(taps: bytes, B: int) -> np.ndarray:
    """The (B + K - 1) x B band matrix band[r, c] = taps[r - c], 0 off the
    band, of K float64 taps given as bytes; read-only, built once per
    (taps, B), and at most (_BLOCK + K - 1) * _BLOCK floats whatever T is."""
    taps = np.frombuffer(taps)
    K = taps.size
    lag = np.arange(B + K - 1)[:, None] - np.arange(B)[None, :]
    band = np.where((lag >= 0) & (lag < K), taps[lag.clip(0, K - 1)], 0.0)
    band.setflags(write=False)
    return band


def _banded_product(x: np.ndarray, taps: np.ndarray, first: int, start: int = 0) -> np.ndarray:
    """out[..., t - start] = sum_i taps[i] * x[..., t + first + i] for t in [start, T),
    with x zero outside [0, T).

    A blocked banded product: each block of up to _BLOCK output steps is
    the rows of x.reshape(-1, T) over the block's input window times a
    slice of one small band matrix (_band).  The steps before `start`
    feed the filter but get no output of their own.
    """
    T = x.shape[-1]
    K = taps.size
    shape = x.shape[:-1] + (T - start,)
    if K == 0 or start == T:
        return np.zeros(shape)
    rows = x.reshape(-1, T)
    out = np.empty((rows.shape[0], T - start))
    B = min(_BLOCK, T - start)
    band = _band(taps.tobytes(), B)
    for b in range(start, T, B):
        n = min(B, T - b)
        lo, hi = max(0, b + first), min(T, b + first + n + K - 1)
        np.matmul(rows[:, lo:hi], band[lo - b - first:hi - b - first, :n],
                  out=out[:, b - start:b - start + n])
    return out.reshape(shape)


def apply_psp(spikes, kernel, history: int = 0) -> np.ndarray:
    """Causal convolution of spike counts with a sampled kernel.

    spikes is any [..., T] array; out[..., t] = sum_k kernel[k] *
    spikes[..., t - k], computed as a blocked banded product.  Nothing
    leaks backward in time: an impulse at t reproduces the kernel
    starting at t.  The first `history` steps are the stream's past:
    they feed the filter, but only the T - history steps after them get
    an output, so carrying the last len(kernel) - 1 steps of one window
    into the next gives the whole stream's result.  It is bit for bit
    the same where the window starts on the whole stream's _BLOCK grid,
    as every window of super_resolve does (its _WINDOW steps are a
    multiple of _BLOCK); elsewhere BLAS may order a block's sums differently.
    """
    x = np.asarray(spikes, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)[:x.shape[-1]]
    return _banded_product(x, kernel[::-1], 1 - kernel.size, history)


def apply_psp_adjoint(grad, kernel) -> np.ndarray:
    """Adjoint of apply_psp: the same causal filter run backward in time.

    out[..., t] = sum_k kernel[k] * grad[..., t + k], computed as the
    same blocked banded product, reading the kernel over the steps after t.
    """
    g = np.asarray(grad, dtype=np.float64)
    return _banded_product(g, np.asarray(kernel, dtype=np.float64)[:g.shape[-1]], 0)


@functools.lru_cache(maxsize=None)
def _spike_kernel(cfg: NeuronConfig, dt: float) -> np.ndarray:
    """The layer's spike kernel, kernel_length(tau_s, dt) taps, read-only."""
    eps = spike_kernel(cfg.tau_s, dt, kernel_length(cfg.tau_s, dt))
    eps.setflags(write=False)
    return eps


@functools.lru_cache(maxsize=None)
def _refractory(cfg: NeuronConfig, dt: float):
    """(gamma, d*): the refractory kernel, read-only, and the least double
    whose chain d + gamma[K-1] + ... + gamma[1], rounded add by add,
    reaches v_th (v_th itself when every term is 0).

    The chain is monotone in d, so a bisection over doubles finds d*.
    """
    gamma = refractory_kernel(cfg.tau_r, cfg.lam, dt, kernel_length(cfg.tau_r, dt))
    gamma.setflags(write=False)
    terms = gamma[:0:-1].tolist()

    def reaches(d):
        for g in terms:
            d += g
        return d >= cfg.v_th

    lo, hi = cfg.v_th, cfg.v_th - 2.0 * sum(terms)
    if reaches(lo):
        return gamma, lo
    while not reaches(hi):
        hi *= 2.0
    while True:   # lo never reaches v_th, hi does
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return gamma, hi
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)


def generate_spikes(drive, cfg: NeuronConfig, dt: float = 1.0, past=None):
    """Run the threshold/refractory dynamics over a drive tensor.

    drive is [..., T]: the summed weighted PSP reaching each neuron at
    each step.  A neuron emits at most one spike per step; each emission
    adds the refractory kernel to the following steps (the spiking step
    itself is not suppressed).  past, if given, is [..., P]: the
    neurons' spikes over the P steps just before the drive's first step,
    counted like any earlier spike.

    Returns (spikes, next_past), as scipy.signal.lfilter returns its
    output and final state: binary spike counts shaped like drive, and a
    copy of the last K - 1 steps of past and spikes together (all of
    them if fewer), K = kernel_length(tau_r, dt).  Fed back as the next
    window's past, it makes that window's spikes the whole stream's.
    membrane rebuilds a run's membrane trace, to about 1e-12, when it
    has no past.

    A neuron's membrane at step t is d = drive[t] plus gamma[k] for each
    of its spikes k steps earlier, 0 < k < K, added with k descending.
    Every term is <= 0 (lam >= 0), each rounded add is monotone, and
    leaving out a term never lowers the sum, so the membrane lies
    between the chain of all K - 1 terms and d itself: d >= d*
    (_refractory) fires and d < v_th does not, whatever the past.  Only
    the cells with d in [v_th, d*) are decided from their row's history,
    step by step in time order; each such step gathers its cells' last
    K - 1 history steps, adds their terms to d with one ordered cumsum
    and compares.
    """
    x = np.asarray(drive, dtype=np.float64)
    T = x.shape[-1]
    n = math.prod(x.shape[:-1])
    gamma, d_star = _refractory(cfg, dt)
    tail = gamma.size - 1
    past = np.zeros(x.shape[:-1] + (0,)) if past is None else np.asarray(past, dtype=np.float64)
    flat = x.reshape(-1)
    cells = np.flatnonzero(flat >= cfg.v_th)   # the drives that may fire
    drives = flat[cells]
    certain = drives >= d_star
    spikes = np.zeros((n, T))
    spikes.reshape(-1)[cells[certain]] = 1.0
    cells, drives = cells[~certain], drives[~certain]   # drive in [v_th, d*)
    if cells.size:
        rows, steps = np.divmod(cells, T)
        first = np.diff(rows, prepend=-1) != 0   # rows come sorted
        live, rows = rows[first], np.cumsum(first) - 1
        hist = np.zeros((live.size, tail + T))   # step s sits at column tail + s
        prior = past.reshape(n, past.shape[-1])[live, max(0, past.shape[-1] - tail):]
        hist[:, tail - prior.shape[-1]:tail] = prior
        hist[:, tail:] = spikes[live]
        order = np.argsort(steps, kind="stable")
        rows, steps = rows[order], steps[order]
        chain = np.empty((cells.size, tail + 1))
        chain[:, 0] = drives[order]
        terms = gamma[:0:-1]
        bounds = np.flatnonzero(np.diff(steps, prepend=-1, append=T)).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            t, r = int(steps[a]), rows[a:b]
            np.multiply(hist[r, t:t + tail], terms, out=chain[a:b, 1:])
            hist[r[np.cumsum(chain[a:b], axis=1)[:, -1] >= cfg.v_th], tail + t] = 1.0
        spikes[live] = hist[:, tail:]
    spikes = spikes.reshape(x.shape)
    history = spikes if T >= tail else np.concatenate([past, spikes], axis=-1)
    return spikes, history[..., max(0, history.shape[-1] - tail):].copy()


def membrane(drive, spikes, cfg: NeuronConfig, dt: float = 1.0) -> np.ndarray:
    """The membrane trace of neurons that fired `spikes`, as generate_spikes
    (drive, cfg, dt) returns them, under that drive.

    u[..., t] = drive[..., t] + sum over k = 1, ..., K - 1 of gamma[k] *
    spikes[..., t - k]: the drive plus the refractory kernel, without its
    self term, as a causal filter of the spikes, one blocked banded
    product like the PSP's.  It matches the per-step oracle sum to about
    1e-12 but need not equal generate_spikes' ordered chain bit for bit;
    only training's surrogate gradient reads it.
    """
    x = np.asarray(drive, dtype=np.float64)
    taps = np.append(_refractory(cfg, dt)[0][1:x.shape[-1]][::-1], 0.0)   # no self term
    return x + _banded_product(np.asarray(spikes, dtype=np.float64), taps, 1 - taps.size)


def soft_spikes(drive, cfg: NeuronConfig):
    """Differentiable stand-in for generate_spikes used by gradient checks.

    Emits s = sigmoid((u - v_th) / (tau_rho * v_th)) of the drive u, with
    no refractory feedback, so the whole forward pass is smooth in the
    weights.
    """
    z = (np.asarray(drive, dtype=np.float64) - cfg.v_th) / (cfg.tau_rho * cfg.v_th)
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def soft_spike_grad(u, cfg: NeuronConfig) -> np.ndarray:
    """Exact derivative of soft_spikes with respect to the membrane."""
    width = cfg.tau_rho * cfg.v_th
    z = (np.asarray(u, dtype=np.float64) - cfg.v_th) / width
    s = 0.5 * (1.0 + np.tanh(0.5 * z))
    return s * (1.0 - s) / width


def surrogate_grad(u, cfg: NeuronConfig) -> np.ndarray:
    """Surrogate derivative of the hard threshold at membrane value u.

    Strictly positive, symmetric about v_th, peak rho / (tau_rho * v_th).
    """
    width = cfg.tau_rho * cfg.v_th
    # one fresh buffer, each step in place; -|d| / width is |d| / -width exactly
    g = np.subtract(u, cfg.v_th, out=np.empty(np.shape(u)), dtype=np.float64)
    np.abs(g, out=g)
    np.divide(g, -width, out=g)
    np.exp(g, out=g)
    return np.multiply(cfg.rho / width, g, out=g)
