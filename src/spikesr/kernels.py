"""Spike-response-model primitives.

A neuron's membrane is a sum of postsynaptic potentials, obtained by
convolving incoming spike trains with a causal spike kernel, plus a
self-inflicted refractory trace from its own past output spikes.  The
neuron fires whenever the membrane reaches threshold; there is no hard
reset, suppression comes entirely from the refractory kernel.  Resting
potential is zero.

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


def _causal_filter(x: np.ndarray, kernel) -> np.ndarray:
    """out[..., t] = sum_k kernel[k] * x[..., t - k], one shifted add per tap."""
    kernel = np.asarray(kernel, dtype=np.float64)
    T = x.shape[-1]
    out = np.zeros_like(x)
    for k in range(min(kernel.size, T)):
        v = kernel[k]
        if v == 0.0:
            continue
        if k == 0:
            out += v * x
        else:
            out[..., k:] += v * x[..., :-k]
    return out


def apply_psp(spikes, kernel) -> np.ndarray:
    """Causal convolution of spike counts with a sampled kernel.

    spikes is any [..., T] array; out[..., t] = sum_k kernel[k] *
    spikes[..., t - k].  Nothing leaks backward in time: an impulse at t
    reproduces the kernel starting at t.
    """
    return _causal_filter(np.asarray(spikes, dtype=np.float64), kernel)


def apply_psp_adjoint(grad, kernel) -> np.ndarray:
    """Adjoint of apply_psp: the same causal filter run backward in time.

    out[..., t] = sum_k kernel[k] * grad[..., t + k], computed by
    filtering the time-reversed gradient and reversing the result.
    """
    # a contiguous reversed copy keeps every shifted add on forward strides
    g = np.ascontiguousarray(np.asarray(grad, dtype=np.float64)[..., ::-1])
    return _causal_filter(g, kernel)[..., ::-1]


def generate_spikes(drive, cfg: NeuronConfig, dt: float = 1.0):
    """Run the threshold/refractory dynamics over a drive tensor.

    drive is [..., T]: the summed weighted PSP reaching each neuron at
    each step.  Returns (spikes, u) of the same shape: binary spike
    counts and the full membrane trace.  A neuron emits at most one
    spike per step; each emission adds the refractory kernel to the
    following steps (the spiking step itself is not suppressed).
    """
    x = np.asarray(drive, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    T = x.shape[-1]
    gamma = refractory_kernel(cfg.tau_r, cfg.lam, dt, kernel_length(cfg.tau_r, dt))
    u = x.copy()
    spikes = np.zeros_like(u)
    for t in range(T):
        fired = u[..., t] >= cfg.v_th
        if fired.any():
            spikes[..., t][fired] = 1.0
            end = min(T, t + gamma.size)
            if end > t + 1:
                u[..., t + 1:end][fired] += gamma[1:end - t]
    if squeeze:
        return spikes[0], u[0]
    return spikes, u


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
