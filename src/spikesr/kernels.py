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
banded Toeplitz matrix.

Spike generation is event-driven.  NeuronConfig enforces lam >= 0, so
every refractory term is <= 0, and adding one never raises a double: a
membrane never exceeds its drive, and a neuron fires only at a step
where its drive alone reaches threshold.  generate_spikes therefore
runs its time loop only over the neurons whose drive reaches threshold
or whose carried past holds a spike, and only at those past spikes and
the steps where such a drive reaches threshold.

Kernels (t >= 0, zero before):

    spike       eps(t)   = (t / tau_s) * exp(1 - t / tau_s)
    refractory  gamma(t) = -lam * exp(-t / tau_r)

The surrogate derivative used for credit assignment through the
threshold is a symmetric exponential around the threshold:

    g(u) = (rho / (tau_rho * v_th)) * exp(-|u - v_th| / (tau_rho * v_th))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NeuronConfig:
    """Threshold and kernel time constants for one layer of SRM neurons.

    lam is the refractory magnitude; tau_rho and rho shape the surrogate
    derivative width and peak.  Time constants are in milliseconds.
    lam >= 0 keeps every refractory term <= 0, which generate_spikes
    relies on.
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


_BLOCK = 64   # output steps per matrix product


def _banded_product(x: np.ndarray, taps: np.ndarray, first: int, start: int = 0) -> np.ndarray:
    """out[..., t - start] = sum_i taps[i] * x[..., t + first + i] for t in [start, T),
    with x zero outside [0, T).

    A blocked banded product: each block of up to _BLOCK output steps is
    the rows of x.reshape(-1, T) over the block's input window times a
    slice of one small band matrix, band[r, c] = taps[r - c].  The band
    holds (_BLOCK + K - 1) * _BLOCK floats whatever T is.  The steps
    before `start` feed the filter but get no output of their own.
    """
    T = x.shape[-1]
    K = taps.size
    shape = x.shape[:-1] + (T - start,)
    if K == 0 or start == T:
        return np.zeros(shape)
    rows = x.reshape(-1, T)
    out = np.empty((rows.shape[0], T - start))
    B = min(_BLOCK, T - start)
    lag = np.arange(B + K - 1)[:, None] - np.arange(B)[None, :]
    band = np.where((lag >= 0) & (lag < K), taps[lag.clip(0, K - 1)], 0.0)
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
    the same where the window starts on the whole stream's _BLOCK grid;
    elsewhere BLAS may order a block's sums differently.
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


def generate_spikes(drive, cfg: NeuronConfig, dt: float = 1.0, past=None):
    """Run the threshold/refractory dynamics over a drive tensor.

    drive is [..., T]: the summed weighted PSP reaching each neuron at
    each step.  Returns (spikes, u) of the same shape: binary spike
    counts and the full membrane trace.  A neuron emits at most one
    spike per step; each emission adds the refractory kernel to the
    following steps (the spiking step itself is not suppressed).

    past, if given, is [..., P]: the neurons' spikes over the P steps
    just before the drive's first step.  Their refractory traces are
    added first, in time order, so with P = len(refractory kernel) - 1
    each membrane sums the same terms in the same order as one run over
    the whole stream.

    The loop is event-driven.  NeuronConfig enforces lam >= 0, so every
    refractory term is <= 0 and adding one never raises a double: a
    neuron can fire only at a step where its drive alone reaches v_th.
    The loop therefore visits only the rows whose drive reaches v_th
    somewhere or whose past holds a spike, and of those only the past
    steps holding a spike and the steps where some such row's drive
    reaches v_th; at each of those steps it tests only the rows whose
    drive reaches v_th there.  Every other row keeps spikes 0 and
    u = drive.
    """
    x = np.asarray(drive, dtype=np.float64)
    T = x.shape[-1]
    n = math.prod(x.shape[:-1])
    u = x.copy().reshape(n, T)
    spikes = np.zeros((n, T))
    crossing = u >= cfg.v_th
    past = np.zeros(x.shape[:-1] + (0,)) if past is None else past
    prior = np.reshape(past, (n, np.shape(past)[-1])) > 0
    live = np.flatnonzero(crossing.any(-1) | prior.any(-1))
    v, s, crossing, prior = u[live], spikes[live], crossing[live], prior[live]
    P = prior.shape[-1]
    gamma = refractory_kernel(cfg.tau_r, cfg.lam, dt, kernel_length(cfg.tau_r, dt))
    for t in np.concatenate([np.flatnonzero(prior.any(0)) - P,
                             np.flatnonzero(crossing.any(0))]).tolist():
        if t < 0:
            fired = np.flatnonzero(prior[:, t + P])
        else:
            reach = np.flatnonzero(crossing[:, t])
            fired = reach[v[reach, t] >= cfg.v_th]
            s[fired, t] = 1.0
        lo, end = max(t + 1, 0), min(T, t + gamma.size)
        if end > lo and fired.size:
            v[fired, lo:end] += gamma[lo - t:end - t]
    u[live], spikes[live] = v, s
    return spikes.reshape(x.shape), u.reshape(x.shape)


def soft_spikes(drive, cfg: NeuronConfig):
    """Differentiable stand-in for generate_spikes used by gradient checks.

    Emits s = sigmoid((u - v_th) / (tau_rho * v_th)) with no refractory
    feedback, so the whole forward pass is smooth in the weights.
    """
    u = np.asarray(drive, dtype=np.float64)
    z = (u - cfg.v_th) / (cfg.tau_rho * cfg.v_th)
    return 0.5 * (1.0 + np.tanh(0.5 * z)), u


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
    return (cfg.rho / width) * np.exp(-np.abs(np.asarray(u, dtype=np.float64) - cfg.v_th) / width)
