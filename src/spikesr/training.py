"""The loss, reverse-mode gradients, Adam, and the training loop.

The objective (the paper's LearnSTPLoss) combines three squared-error
views of the output spike tensor against ground truth, each weighted by
a learned certainty:

    temporal   per-step squared norm, averaged over steps
    spatial    squared norm of firing counts pooled over 50 ms bins
    polarity   per-channel squared norm (positive and negative summed)

    total = sum_i exp(-log_var_i) * L_i + sum_i log_var_i

The polarity and temporal terms sum the same squared differences, so
the polarity term is always T times the temporal term, T the number of
steps.  loss_total computes the difference once and returns the value,
the three terms and the gradient at the output spikes together.

The log-variances are trained jointly with the weights, so each term's
weight w_i = exp(-log_var_i) adapts; w_i stays positive by construction.

Gradients are computed by hand: the loss gradient at the output spikes
is pushed through the surrogate spike derivative, the conv/transposed
conv adjoints, and the PSP adjoint of each pass (see model.backward_pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import _count_voxels, _voxel_index, event_bins
from .metrics import DegenerateStreamError, blocks, rmse_st
from .model import (ModelError, NetworkSpec, _live_box, _resolved_stream, backward_pass,
                    forward, init_weights)
from .model import resolve_mode  # noqa: F401  (perfbench/workloads.py imports it from here)


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class LossTerms:
    temporal: float
    spatial: float
    polarity: float
    weights: np.ndarray
    regulariser: float


def loss_total(out, gt, log_var, dt: float = 1.0):
    """Certainty-weighted objective on [2, H, W, T] spike tensors, under
    the three learned log-variances `log_var`.

    Returns (value, per-term breakdown, d(value)/d(out)).
    """
    d = np.asarray(out, dtype=np.float64) - np.asarray(gt, dtype=np.float64)
    if d.shape[0] != 2:
        raise TrainingError("polarity loss needs both channels")
    steps = d.shape[-1]
    sq = float(np.sum(d * d))
    w = np.exp(-np.asarray(log_var, dtype=np.float64))
    g = (2.0 * w[0] / steps + 2.0 * w[2]) * d
    ls = 0.0
    for start, stop in blocks(steps, dt):
        pooled = d[..., start:stop].sum(axis=-1, keepdims=True)
        ls += float(np.sum(pooled * pooled))
        g[..., start:stop] += 2.0 * w[1] * pooled
    lt, lp = sq / steps, sq
    reg = float(np.sum(log_var))
    total = float(w[0] * lt + w[1] * ls + w[2] * lp + reg)
    return total, LossTerms(lt, ls, lp, w, reg), g


@dataclass
class Gradients:
    weights: list[np.ndarray]
    log_var: np.ndarray
    loss: float
    terms: LossTerms


def backward(spec: NetworkSpec, weights, caches, out, gt, log_var) -> Gradients:
    """Full reverse pass: loss value, weight gradients, log-variance gradients.

    The log-variance gradient is 1 - w_i * L_i; weight gradients are the
    per-pass sums from model.backward_pass, zero without caches.
    """
    total, terms, g_out = loss_total(out, gt, log_var, spec.dt_ms)
    g_w = backward_pass(spec, weights, caches, g_out)
    losses = np.array([terms.temporal, terms.spatial, terms.polarity])
    g_lv = 1.0 - terms.weights * losses
    return Gradients(g_w, g_lv, total, terms)


# ---------------------------------------------------------------------------
# Adam, with fixed moment decay rates and denominator guard

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimState:
    lr: float
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_optim(params, lr: float) -> OptimState:
    return OptimState(lr, m=[np.zeros_like(p) for p in params],
                      v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, opt: OptimState):
    """One bias-corrected Adam update, applied to params in place."""
    opt.step += 1
    b1c = 1.0 - BETA1 ** opt.step
    b2c = 1.0 - BETA2 ** opt.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter block {i}")
        opt.m[i] = BETA1 * opt.m[i] + (1.0 - BETA1) * g
        opt.v[i] = BETA2 * opt.v[i] + (1.0 - BETA2) * (g * g)
        p -= opt.lr * (opt.m[i] / b1c) / (np.sqrt(opt.v[i] / b2c) + EPS)
    return params


# ---------------------------------------------------------------------------
# training loop

@dataclass(frozen=True)
class TrainConfig:
    variant: str = "ultralight"
    steps: int = 64
    epochs: int = 30
    batch_size: int = 16
    lr: float = 0.1
    seed: int = 0
    dt_ms: float = 1.0

    def __post_init__(self):
        for name, low in (("steps", 1), ("epochs", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise TrainingError(f"{name} must be at least {low}, not {getattr(self, name)}")
        if not 0.0 < self.lr < np.inf:
            raise TrainingError(f"lr must be a positive number, not {self.lr!r}")
        try:
            NetworkSpec(self.variant, self.dt_ms)
        except ModelError as exc:
            raise TrainingError(str(exc)) from None


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    train_loss: float
    w1: float
    w2: float
    w3: float
    val_rmse_st: float


@dataclass
class TrainResult:
    spec: NetworkSpec
    weights: list[np.ndarray]
    log_var: np.ndarray
    rows: list[EpochRow]
    initial_val_rmse: float
    seed: int
    dropped: int       # events of all pairs, LR and HR, past the steps-long grid
    val_skipped: int   # validation pairs some validation pass left out as degenerate

    @property
    def final_val_rmse(self) -> float:
        return self.rows[-1].val_rmse_st if self.rows else self.initial_val_rmse

    def write_report(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("epoch,train_loss,w1,w2,w3,val_rmse_st\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.train_loss!r},{r.w1!r},{r.w2!r},"
                         f"{r.w3!r},{r.val_rmse_st!r}\n")


def _read_pairs(what, pairs, bin_pair, spec, steps):
    """What bin_pair(spec, steps, lr_stream, hr_stream) keeps of each pair, read in
    order, and the count of their events past the grid.

    Each pair's geometry is checked as it is read, and its streams are
    unbound before the next pair is read.
    """
    held, dropped = [], 0
    # no enumerate: its reused result tuple would hold the last pair while the next loads
    for lr, hr in pairs:
        if hr.width != 2 * lr.width or hr.height != 2 * lr.height:
            raise TrainingError(f"{what} pair {len(held)}: {hr.width}x{hr.height} "
                                f"is not 2x {lr.width}x{lr.height}")
        kept, pair_dropped = bin_pair(spec, steps, lr, hr)
        held.append(kept)
        dropped += pair_dropped
        del lr, hr   # unbound before the next pair is read
    if not held:
        raise TrainingError(f"empty {what} dataset")
    return held, dropped


def _bin_pair(spec, steps, lr_stream, hr_stream):
    """The (flat indices, shape) of a training pair's input and of its target
    on the pair's live box, and the count of its events past the grid."""
    lr, lr_dropped = event_bins(lr_stream, steps, spec.dt_ms)
    hr, hr_dropped = event_bins(hr_stream, steps, spec.dt_ms, origin=lr_stream.t0)
    s = spec.scale
    # without a kept event on either side the box is empty and the loss sum(log_var)
    box = _live_box(spec, np.concatenate([lr[1], hr[1] // s]),
                    np.concatenate([lr[2], hr[2] // s]),
                    lr_stream.height, lr_stream.width) or (0, 0, 0, 0)
    return ((_voxel_index(lr, box, 0, steps), _voxel_index(hr, box, 0, steps, s)),
            lr_dropped + hr_dropped)


def _bin_val_pair(spec, steps, lr_stream, hr_stream):
    """A validation pair's LR event_bins coordinates, height, width and t0,
    and its HR stream, which rmse_st bins on a span that depends on the
    prediction; and the count of the pair's events past the grid."""
    coords, lr_dropped = event_bins(lr_stream, steps, spec.dt_ms)
    hr_dropped = event_bins(hr_stream, steps, spec.dt_ms, origin=lr_stream.t0)[1]
    return ((coords, lr_stream.height, lr_stream.width, lr_stream.t0, hr_stream),
            lr_dropped + hr_dropped)


def _validation_rmse(spec, weights, val_data, steps):
    """Mean RMSE of super_resolve's output over the validation pairs, and
    the indices of the pairs left out because their RMSE is undefined.

    Each pair is held as _bin_val_pair keeps it, and the network runs on
    its LR coordinates through super_resolve's own loop, model._resolve_bins,
    whose windows model._resolved_stream joins.
    """
    scores, skipped = [], set()
    for i, (coords, height, width, t0, hr_stream) in enumerate(val_data):
        pred = _resolved_stream(spec, weights, [coords], steps, height, width, t0)
        try:
            scores.append(rmse_st(pred, hr_stream, steps, spec.dt_ms).rmse_st)
        except DegenerateStreamError:
            skipped.add(i)
    return (float(np.mean(scores)) if scores else float("nan")), skipped


def train(cfg: TrainConfig, pairs, val_pairs) -> TrainResult:
    """Fit a network on (LR stream, HR stream) pairs.

    Each argument is iterated once, `pairs` first, so either may be a
    generator that loads its pairs as they are asked for.  Each pair's
    geometry is checked and the pair binned as it is read, and its
    streams are unbound before the next pair is read, but for a
    validation pair's HR stream: rmse_st bins it on a span that depends
    on the prediction.

    Per-sample gradients are averaged over each shuffled mini-batch and
    fed to Adam; the loss log-variances train alongside the weights.
    Validation runs super_resolve's window loop, the one infer runs, on
    each LR stream's coordinates, binned once, and scores its output
    streams, so the validation RMSE matches a later infer + eval on the
    same pair exactly.  The result counts the events that fell outside
    the cfg.steps-long grids and the validation pairs left out of the
    RMSE.

    Each sample trains on its live box (model._live_box with no carried
    state): the bounding box of its kept LR events and of the LR pixels
    of its kept target events, dilated by the conv's halo.  Input and
    target are held as their events' flat indices in the box's tensors
    (8 bytes per kept event) and counted into tensors only while their
    sample runs; the loss sees only the box.
    Both sides are zero outside it (every drive there is 0 < v_th, as
    in super_resolve), so the loss, its terms, the log-variance gradient
    and the loss gradient are the whole frame's bit for bit (in hard
    mode out - gt is integer-valued, so its sums are exact in any
    order), and the weight gradients differ from the whole frame's only
    in the order of their sums.  A sample with no kept LR event runs no
    forward pass.
    """
    spec = NetworkSpec(cfg.variant, cfg.dt_ms)
    train_data, dropped = _read_pairs("training", pairs, _bin_pair, spec, cfg.steps)
    val_data, val_dropped = _read_pairs("validation", val_pairs, _bin_val_pair, spec, cfg.steps)
    weights = init_weights(spec, cfg.seed)
    log_var = np.zeros(3)   # Adam's last parameter
    rng = np.random.default_rng(cfg.seed)
    initial_val, skipped = _validation_rmse(spec, weights, val_data, cfg.steps)
    params = weights + [log_var]
    opt = init_optim(params, lr=cfg.lr)
    rows = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_data))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            acc_w = [np.zeros_like(w) for w in weights]
            acc_lv = np.zeros(3)
            for j in batch:
                (lr_index, lr_shape), (hr_index, hr_shape) = train_data[j]
                # the last sample's caches stay bound while forward runs: freed
                # first, their pages go back to the system and fault in again
                out, caches = ((np.zeros(hr_shape), []) if lr_index.size == 0 else
                               forward(spec, weights, _count_voxels(lr_index, lr_shape)))
                gt = _count_voxels(hr_index, hr_shape)
                grads = backward(spec, weights, caches, out, gt, log_var)
                if not np.isfinite(grads.loss):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, sample {j}")
                for a, g in zip(acc_w, grads.weights):
                    a += g
                acc_lv += grads.log_var
                epoch_loss += grads.loss
            n = len(batch)
            adam_step(params, [a / n for a in acc_w] + [acc_lv / n], opt)
        w = np.exp(-log_var)
        val, epoch_skipped = _validation_rmse(spec, weights, val_data, cfg.steps)
        skipped |= epoch_skipped
        rows.append(EpochRow(epoch, epoch_loss / len(train_data),
                             float(w[0]), float(w[1]), float(w[2]), val))
    return TrainResult(spec, weights, log_var, rows, initial_val, cfg.seed,
                       dropped + val_dropped, len(skipped))
