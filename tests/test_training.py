import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import helpers
from spikesr import model, training
from spikesr.events import EventStream, downsample_2x
from spikesr.metrics import blocks, common_span, rmse_st
from spikesr.model import (ModelError, NetworkSpec, backward_pass, conv_drive, forward,
                           init_weights, super_resolve)
from spikesr.synth import synth_moving_bar
from spikesr.training import (TrainConfig, TrainingError, adam_step, backward, init_optim,
                              loss_total, resolve_mode, train)


def spatial_oracle(a, b, width_ms, dt):
    steps = a.shape[-1]
    nbins = math.ceil(steps * dt / width_ms)
    binned = np.zeros(a.shape[:-1] + (nbins,))
    for t in range(steps):
        binned[..., int(t * dt // width_ms)] += a[..., t] - b[..., t]
    return float(np.sum(binned ** 2))


def terms_of(out, gt, dt=1.0):
    """Unweighted loss terms at unit weights."""
    return loss_total(out, gt, np.zeros(3), dt)[1]


def terms_tuple(terms):
    return (terms.temporal, terms.spatial, terms.polarity, terms.regulariser,
            tuple(terms.weights))


class TestLossTerms:
    def test_identity_zero(self, rng):
        x = rng.integers(0, 3, (2, 4, 4, 10)).astype(float)
        total, terms, grad = loss_total(x, x, np.zeros(3))
        assert (terms.temporal, terms.spatial, terms.polarity) == (0.0, 0.0, 0.0)
        assert total == 0.0
        assert not np.any(grad)

    def test_temporal_hand_value(self):
        out = np.zeros((2, 1, 1, 4))
        gt = np.zeros((2, 1, 1, 4))
        out[0, 0, 0] = [1, 0, 2, 0]
        gt[0, 0, 0] = [0, 0, 1, 1]
        # diffs 1, 0, 1, -1 -> sum sq 3, over 4 steps
        assert terms_of(out, gt).temporal == pytest.approx(3 / 4)

    def test_spatial_bins_hand_value(self):
        # 60 steps at 1 ms, 50 ms pooling: bins [0,50) and [50,60);
        # the second polarity channel stays zero on both sides
        out = np.zeros((2, 1, 1, 60))
        gt = np.zeros((2, 1, 1, 60))
        out[0, ..., 10] = 2.0
        out[0, ..., 55] = 1.0
        gt[0, ..., 49] = 1.0
        # bin sums: out (2, 1), gt (1, 0) -> 1 + 1
        assert terms_of(out, gt).spatial == pytest.approx(2.0)

    def test_spatial_permute_within_bin_invariant(self, rng):
        base = rng.integers(0, 3, (2, 3, 3, 50)).astype(float)
        gt = rng.integers(0, 3, (2, 3, 3, 50)).astype(float)
        perm = base[..., rng.permutation(50)]
        assert terms_of(perm, gt).spatial == pytest.approx(terms_of(base, gt).spatial)

    def test_spatial_matches_oracle(self, rng):
        a = rng.random((2, 4, 5, 37))
        b = rng.random((2, 4, 5, 37))
        # 37 steps of 1.5 ms: one full 50 ms block and a partial one
        got = terms_of(a, b, dt=1.5).spatial
        assert got == pytest.approx(spatial_oracle(a, b, 50.0, 1.5), rel=1e-12)

    def test_polarity_is_full_squared_norm(self, rng):
        a = rng.random((2, 3, 3, 8))
        b = rng.random((2, 3, 3, 8))
        terms = terms_of(a, b)
        assert terms.polarity == pytest.approx(float(np.sum((a - b) ** 2)))
        # the same sum as the temporal term, without the division by T
        assert terms.polarity == pytest.approx(8 * terms.temporal, rel=1e-15)

    def test_polarity_needs_two_channels(self, rng):
        x = rng.random((1, 3, 3, 8))
        with pytest.raises(TrainingError):
            loss_total(x, x, np.zeros(3))

    def test_total_unit_weights(self, rng):
        a = rng.random((2, 3, 3, 20))
        b = rng.random((2, 3, 3, 20))
        total, terms, _ = loss_total(a, b, np.zeros(3))
        sq = float(np.sum((a - b) ** 2))
        expect = sq / 20 + spatial_oracle(a, b, 50.0, 1.0) + sq
        assert total == pytest.approx(expect, rel=1e-12)
        assert terms.regulariser == 0.0

    def test_total_weighted_arithmetic(self, rng):
        # log_var (ln2, 0, -ln2) -> weights (1/2, 1, 2), regulariser 0
        a = rng.random((2, 2, 2, 10))
        b = rng.random((2, 2, 2, 10))
        log_var = np.array([math.log(2), 0.0, -math.log(2)])
        total, terms, _ = loss_total(a, b, log_var)
        sq = float(np.sum((a - b) ** 2))
        expect = 0.5 * sq / 10 + spatial_oracle(a, b, 50.0, 1.0) + 2.0 * sq
        assert total == pytest.approx(expect, rel=1e-12)
        assert terms.weights == pytest.approx([0.5, 1.0, 2.0])


class TestLossSharesTheMetricsBlocks:
    def test_unweighted_terms_equal_the_metrics_raw_sums(self, rng):
        # 143 steps of 0.7 ms: blocks of 72 and 71 steps
        steps, dt = 143, 0.7
        assert blocks(steps, dt) == [(0, 72), (72, 143)]
        pred = helpers.random_stream(rng, 6, 5, 100, 400)
        gt = helpers.random_stream(rng, 6, 5, 100, 300, t0=60)
        t0, _ = common_span(pred, gt)
        out = helpers.voxel_grid(pred, steps, dt, origin=t0)[0]
        ref = helpers.voxel_grid(gt, steps, dt, origin=t0)[0]
        terms = terms_of(out, ref, dt)
        report = rmse_st(pred, gt, steps, dt)
        assert terms.polarity == report.mse_t_raw
        assert terms.spatial == report.mse_s_raw


class TestLossGradients:
    def test_output_grad_matches_finite_difference(self, rng):
        out = rng.random((2, 3, 3, 24))
        gt = rng.random((2, 3, 3, 24))
        log_var = rng.normal(0, 0.5, 3)
        g = loss_total(out, gt, log_var)[2]
        h = 1e-5
        flat = out.ravel()
        for idx in rng.choice(flat.size, 12, replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            hi = loss_total(out, gt, log_var)[0]
            flat[idx] = orig - h
            lo = loss_total(out, gt, log_var)[0]
            flat[idx] = orig
            assert g.ravel()[idx] == pytest.approx((hi - lo) / (2 * h), abs=1e-6)

    def test_output_grad_across_a_block_boundary(self, rng):
        # 37 steps of 1.5 ms: blocks [0, 34) and [34, 37)
        assert blocks(37, 1.5) == [(0, 34), (34, 37)]
        out = rng.random((2, 3, 3, 37))
        gt = rng.random((2, 3, 3, 37))
        log_var = rng.normal(0, 0.5, 3)
        g = loss_total(out, gt, log_var, 1.5)[2]
        h = 1e-5
        flat = out.ravel()
        t_of = np.unravel_index(np.arange(flat.size), out.shape)[-1]
        picks = [rng.choice(np.flatnonzero(near), 4, replace=False)
                 for near in (t_of == 33, t_of == 34, t_of < 33, t_of > 34)]
        for idx in np.concatenate(picks):
            orig = flat[idx]
            flat[idx] = orig + h
            hi = loss_total(out, gt, log_var, 1.5)[0]
            flat[idx] = orig - h
            lo = loss_total(out, gt, log_var, 1.5)[0]
            flat[idx] = orig
            assert g.ravel()[idx] == pytest.approx((hi - lo) / (2 * h), abs=1e-6)

    def test_log_var_grad_at_perfect_output(self, rng):
        # all losses zero -> d(total)/d(log_var_i) = 1
        spec = NetworkSpec("dual_layer")
        weights = init_weights(spec, seed=0)
        inp = rng.integers(0, 3, (2, 4, 4, 8)).astype(float)
        out, caches = forward(spec, weights, inp)
        grads = backward(spec, weights, caches, out, out, np.zeros(3))
        assert grads.log_var == pytest.approx([1.0, 1.0, 1.0])
        assert grads.loss == pytest.approx(0.0)

    def test_log_var_grad_formula(self, rng):
        spec = NetworkSpec("dual_layer")
        weights = init_weights(spec, seed=1)
        inp = rng.integers(0, 3, (2, 4, 4, 8)).astype(float)
        gt = rng.integers(0, 2, (2, 8, 8, 8)).astype(float)
        log_var = np.array([0.3, -0.2, 0.1])
        out, caches = forward(spec, weights, inp)
        grads = backward(spec, weights, caches, out, gt, log_var)
        losses = np.array([grads.terms.temporal, grads.terms.spatial,
                           grads.terms.polarity])
        assert grads.log_var == pytest.approx(1.0 - np.exp(-log_var) * losses)

    def test_dual_gradient_equals_sum_of_passes(self, rng):
        # shared-weight gradient accumulates both polarity passes
        spec = NetworkSpec("ultralight")
        weights = init_weights(spec, seed=2)
        inp = rng.integers(0, 4, (2, 4, 4, 10)).astype(float)
        out, caches = forward(spec, weights, inp)
        g_out = rng.standard_normal(out.shape)
        combined = backward_pass(spec, weights, caches, g_out)
        per_pass = [backward_pass(spec, weights, [cache], g_out[c:c + 1])
                    for c, cache in enumerate(caches)]
        for i in range(len(weights)):
            total = per_pass[0][i] + per_pass[1][i]
            denom = max(np.abs(total).max(), 1e-12)
            assert np.max(np.abs(combined[i] - total)) / denom < 1e-10


class TestAdam:
    def test_zero_gradient_is_noop(self, rng):
        p = rng.standard_normal((3, 3))
        snapshot = p.copy()
        opt = init_optim([p], lr=0.1)
        adam_step([p], [np.zeros_like(p)], opt)
        assert np.array_equal(p, snapshot)

    def test_first_step_hand_value(self):
        # g = 1 constantly: bias-corrected m/sqrt(v) = 1, step is lr
        p = np.array([1.0])
        opt = init_optim([p], lr=0.1)
        adam_step([p], [np.ones(1)], opt)
        assert p[0] == pytest.approx(0.9, abs=1e-7)

    def test_deterministic(self, rng):
        g = [rng.standard_normal((4,)) for _ in range(3)]
        runs = []
        for _ in range(2):
            p = np.arange(4.0)
            opt = init_optim([p], lr=0.05)
            for gi in g:
                adam_step([p], [gi], opt)
            runs.append(p.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_non_finite_gradient_rejected(self):
        p = np.zeros(2)
        opt = init_optim([p], lr=0.1)
        with pytest.raises(TrainingError):
            adam_step([p], [np.array([1.0, np.nan])], opt)

    def test_step_counter_advances(self):
        p = np.zeros(1)
        opt = init_optim([p], lr=0.1)
        adam_step([p], [np.ones(1)], opt)
        adam_step([p], [np.ones(1)], opt)
        assert opt.step == 2


def tiny_pairs(n, seed0=500, size=16):
    pairs = []
    for i in range(n):
        r = np.random.default_rng([seed0, i])
        hr = synth_moving_bar(size, size, 32.0, r.uniform(0.2, 0.5),
                              r.uniform(2, 4), seed=seed0 + i)
        pairs.append((downsample_2x(hr), hr))
    return pairs


class TestTrainLoop:
    def test_resolve_mode_defaults(self):
        assert resolve_mode("dual_layer", None) == "joint"
        assert resolve_mode("ultralight", None) == "dual_sequential"
        with pytest.raises(ModelError):
            resolve_mode("ultralight", "dual_concurrent")

    def test_empty_dataset_rejected(self):
        for empty in ([], iter([])):
            with pytest.raises(TrainingError, match="empty training dataset"):
                train(TrainConfig(epochs=1), empty, tiny_pairs(1))

    def test_geometry_mismatch_rejected(self):
        bad_hr = synth_moving_bar(20, 12, 32.0, 0.3, 2.0, seed=1)
        lr = downsample_2x(synth_moving_bar(16, 16, 32.0, 0.3, 2.0, seed=2))
        with pytest.raises(TrainingError):
            train(TrainConfig(epochs=1), [(lr, bad_hr)], tiny_pairs(1))

    def test_one_epoch_result_structure(self):
        cfg = TrainConfig(epochs=1, batch_size=2, steps=32, seed=5)
        res = train(cfg, tiny_pairs(3), tiny_pairs(1, seed0=900))
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.epoch == 1
        assert row.w1 > 0 and row.w2 > 0 and row.w3 > 0
        assert math.isfinite(row.train_loss)
        assert res.final_val_rmse == row.val_rmse_st
        assert np.any(res.log_var != 0.0)

    def test_generators_train_like_lists(self):
        # 16 steps of 32 ms streams drop events, and an empty target skips a validation pair
        val = tiny_pairs(1, seed0=902)
        val.append((val[0][0], EventStream.empty(16, 16)))
        cfg = TrainConfig(epochs=2, batch_size=2, steps=16, seed=7)
        listed = train(cfg, tiny_pairs(3), val)
        streamed = train(cfg, (pair for pair in tiny_pairs(3)), (pair for pair in val))
        assert listed.dropped > 0 and listed.val_skipped == 1
        for a, b in zip(listed.weights + [listed.log_var],
                        streamed.weights + [streamed.log_var]):
            assert a.tobytes() == b.tobytes()
        assert listed.rows == streamed.rows
        assert listed.initial_val_rmse == streamed.initial_val_rmse
        assert (listed.dropped, listed.val_skipped) == (streamed.dropped, streamed.val_skipped)

    def test_deterministic_rerun(self):
        cfg = TrainConfig(epochs=2, batch_size=2, steps=32, seed=6)
        a = train(cfg, tiny_pairs(3), tiny_pairs(1, seed0=901))
        b = train(cfg, tiny_pairs(3), tiny_pairs(1, seed0=901))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.rows == b.rows

    def test_report_file_shape(self, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=2, steps=32, seed=9)
        res = train(cfg, tiny_pairs(2), tiny_pairs(1, seed0=904))
        path = tmp_path / "report.csv"
        res.write_report(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,w1,w2,w3,val_rmse_st"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and len(first) == 6
        # values round-trip exactly through repr
        assert float(first[1]) == res.rows[0].train_loss


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [("batch_size", 0), ("batch_size", -1),
                                             ("epochs", -1), ("steps", 0), ("lr", 0.0),
                                             ("lr", -0.1), ("lr", math.nan), ("lr", math.inf),
                                             ("variant", "resnet"), ("dt_ms", 1 / 3)])
    def test_values_it_cannot_honour_rejected(self, field, value):
        with pytest.raises(TrainingError, match=field):
            TrainConfig(**{field: value})

    def test_zero_epochs_allowed(self):
        res = train(TrainConfig(epochs=0, steps=32), tiny_pairs(1), tiny_pairs(1, seed0=905))
        assert res.rows == [] and res.final_val_rmse == res.initial_val_rmse


class TestTrainReportsWhatItLeftOut:
    def test_counts_events_past_the_grid(self):
        pairs, val = tiny_pairs(2), tiny_pairs(1, seed0=906)
        # 32 ms streams on a 16-step grid: everything past 16 ms is dropped
        expected = sum(int(np.sum(lr.t - lr.t0 > 16_000) + np.sum(hr.t - lr.t0 > 16_000))
                       for lr, hr in pairs + val)
        assert expected > 0
        assert train(TrainConfig(epochs=0, steps=16), pairs, val).dropped == expected
        assert train(TrainConfig(epochs=0, steps=40), pairs, val).dropped == 0

    def test_counts_skipped_validation_pairs(self):
        pairs, val = tiny_pairs(2), tiny_pairs(1, seed0=907)
        empty_gt = (val[0][0], EventStream.empty(16, 16))
        cfg = TrainConfig(epochs=1, batch_size=2, steps=32, seed=1)
        with_empty = train(cfg, pairs, val + [empty_gt])
        alone = train(cfg, pairs, val)
        assert (with_empty.val_skipped, alone.val_skipped) == (1, 0)
        # the skipped pair leaves the mean over the others unchanged
        assert with_empty.rows == alone.rows


def firing_init(spec, seed):
    """Scaled-up initial weights, so the network fires and the outputs are not empty."""
    return [k * np.abs(w) for k, w in zip((4.0, 6.0), init_weights(spec, seed))]


class TestValidationIsInference:
    def test_initial_rmse_is_mean_over_super_resolve(self, monkeypatch):
        monkeypatch.setattr(training, "init_weights", firing_init)
        val = []
        for dur in (32.0, 48.0):   # a 16-step grid of 2 ms holds the first, not the second
            hr = synth_moving_bar(16, 16, dur, 0.3, 3.0, seed=7)
            val.append((downsample_2x(hr), hr))
        lr_past = val[1][0]
        assert np.count_nonzero(lr_past.t - lr_past.t0 > 32_000) > 0
        cfg = TrainConfig(variant="dual_layer", epochs=0, steps=16, dt_ms=2.0, seed=4)
        res = train(cfg, tiny_pairs(1), val)
        spec = NetworkSpec("dual_layer", 2.0)
        weights = firing_init(spec, cfg.seed)
        scores = []
        for lr, hr in val:
            pred, _ = super_resolve(spec, weights, lr, cfg.steps)
            assert len(pred) > 0
            scores.append(rmse_st(pred, hr, cfg.steps, cfg.dt_ms).rmse_st)
        assert res.initial_val_rmse == float(np.mean(scores))


# HR regions (x0, y0, w, h, start_ms, stop_ms, n) of a 40x32 frame: those the LR
# stream (20x16) is downsampled from, and those only the HR target holds
BOX_CASES = {
    # a bar against the left edge: the frame clips the box
    "left_edge": ([(0, 8, 4, 16, 0, 40, 800)], []),
    # two opposite corners: the box is the whole frame
    "corners": ([(0, 0, 6, 6, 0, 40, 400), (34, 26, 6, 6, 0, 40, 400)], []),
    # target events far outside the LR events' box
    "target_outside": ([(16, 12, 6, 6, 0, 40, 600)], [(0, 0, 8, 8, 5, 35, 400)]),
    # every LR event past the 60 ms grid: the box is the target's, and no forward pass
    "no_lr_event": ([(16, 12, 6, 6, 70, 80, 400)], [(16, 12, 6, 6, 0, 40, 400)]),
}


class TestLiveBoxTraining:
    """train runs each sample on the live box of its input and target; the
    gradients are the whole grid's."""

    @pytest.mark.parametrize("case", list(BOX_CASES))
    @pytest.mark.parametrize("variant", ["dual_layer", "ultralight"])
    @pytest.mark.parametrize("dt_ms", [1.0, 2.0])
    def test_equals_the_whole_grid(self, monkeypatch, case, variant, dt_ms):
        seen, target_only = BOX_CASES[case]
        lr = downsample_2x(helpers.bursts(40, 32, seen))
        hr = helpers.bursts(40, 32, seen + target_only)
        steps = int(60 / dt_ms)
        cfg = TrainConfig(variant=variant, epochs=1, batch_size=1, steps=steps,
                          dt_ms=dt_ms, seed=2)
        spec = NetworkSpec(variant, dt_ms)
        weights = firing_init(spec, cfg.seed)
        out, caches = forward(spec, weights, helpers.voxel_grid(lr, steps, dt_ms)[0])
        hr_data = helpers.voxel_grid(hr, steps, dt_ms, origin=lr.t0)[0]
        want = backward(spec, weights, caches, out, hr_data, np.zeros(3))
        assert out.any() == (case != "no_lr_event")
        boxes, got, forwards = [], [], []

        def recorded_box(*args):
            boxes.append(model._live_box(*args))
            return boxes[-1]

        def recorded_backward(*args):
            got.append(backward(*args))
            return got[-1]

        def recorded_forward(*args):
            forwards.append(args)
            return forward(*args)

        monkeypatch.setattr(training, "init_weights", firing_init)
        monkeypatch.setattr(training, "_live_box", recorded_box)
        monkeypatch.setattr(training, "backward", recorded_backward)
        monkeypatch.setattr(training, "forward", recorded_forward)
        train(cfg, [(lr, hr)], [(lr, hr)])
        (box,), (grads,) = boxes, got
        frame = (0, 16, 0, 20)
        y0, y1, x0, x1 = box
        # the box covers every kept target event
        assert hr_data.sum() == hr_data[:, 2 * y0:2 * y1, 2 * x0:2 * x1].sum() > 0
        if case == "no_lr_event":
            # the box is the target's pixels, dilated by the conv's 2-px halo
            assert len(lr) > 0 and forwards == []
            ys, xs = np.nonzero(hr_data.any(axis=(0, 3)))
            assert box == (ys.min() // 2 - 2, ys.max() // 2 + 3,
                           xs.min() // 2 - 2, xs.max() // 2 + 3)
        elif case == "corners":
            assert box == frame
        else:
            assert box != frame and (case != "left_edge" or box[2] == 0)
        if case == "target_outside":
            # the LR events' box alone leaves target events out
            lr_box = model._live_box(spec, lr.y, lr.x, 16, 20)
            assert lr_box != box
            ly0, ly1, lx0, lx1 = lr_box
            assert hr_data.sum() > hr_data[:, 2 * ly0:2 * ly1, 2 * lx0:2 * lx1].sum()
        assert grads.loss == want.loss
        assert terms_tuple(grads.terms) == terms_tuple(want.terms)
        assert np.array_equal(grads.log_var, want.log_var)
        for g, w in zip(grads.weights, want.weights):
            # exact up to the order of the adjoint sums; exactly 0 without a forward pass
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
            assert w.any() == (case != "no_lr_event")

    def test_work_follows_activity(self, monkeypatch):
        # every LR event in a 3x3 patch of a 32x32 frame: the box is 3 + 2 x 2 px of halo,
        # and the loss compares its 14x14 HR footprint
        shapes, operands, forwards, seen = [], [], [], []

        def recorded_drive(x, w):
            shapes.append(x.shape[1:3])
            return conv_drive(x, w)

        def recorded_loss(out, gt, *args):
            operands.append((np.shape(out), np.shape(gt)))
            return loss_total(out, gt, *args)

        def recorded_forward(*args):
            forwards.append(args)
            return forward(*args)

        def recorded_backward(spec, weights, caches, out, gt, log_var):
            seen.append((float(np.sum(log_var)),
                         backward(spec, weights, caches, out, gt, log_var)))
            return seen[-1][1]

        monkeypatch.setattr(model, "conv_drive", recorded_drive)
        monkeypatch.setattr(training, "loss_total", recorded_loss)
        hr = helpers.bursts(64, 64, [(28, 20, 6, 6, 0, 40, 800)])
        # validation on an empty LR stream runs no window, so every drive is training's
        val = [(EventStream.empty(32, 32), hr)]
        cfg = TrainConfig(epochs=2, batch_size=2, steps=40, seed=1)
        train(cfg, [(downsample_2x(hr), hr)] * 2, val)
        assert shapes and all(h <= 7 and w <= 7 for h, w in shapes), shapes
        assert (7, 7) in shapes
        assert len(operands) == 4 and set(operands) == {((2, 14, 14, 40),) * 2}
        shapes.clear()
        operands.clear()
        dense = helpers.random_stream(np.random.default_rng(5), 64, 64, 40.0, 20000)
        train(cfg, [(downsample_2x(dense), dense)], val)
        assert shapes and set(shapes) == {(32, 32)}
        assert set(operands) == {((2, 64, 64, 40),) * 2}
        # no kept event on either side: every event is past the 40-step grid
        shapes.clear()
        operands.clear()
        late = helpers.bursts(64, 64, [(28, 20, 6, 6, 50, 60, 300)])
        monkeypatch.setattr(training, "forward", recorded_forward)
        monkeypatch.setattr(training, "backward", recorded_backward)
        train(cfg, [(downsample_2x(late), late)], val)
        assert forwards == [] and shapes == []
        assert len(seen) == 2 and set(operands) == {((2, 0, 0, 40),) * 2}
        for log_var_sum, grads in seen:
            assert grads.loss == log_var_sum
            assert not any(g.any() for g in grads.weights)


class TestTrainingHoldsEvents:
    def test_held_memory_follows_events(self, monkeypatch):
        # 8 pairs of 300 events, each pair's box the whole 32x32 LR frame: held as
        # dense LR and HR tensors at 16 steps they would take about 10 MB
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(8):
            hr = helpers.random_stream(rng, 64, 64, 16.0, 300)
            pairs.append((downsample_2x(hr), hr))
        boxes, held = [], []

        def recorded_box(*args):
            boxes.append(model._live_box(*args))
            return boxes[-1]

        def first_forward(*args):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0])
            return forward(*args)

        monkeypatch.setattr(training, "_live_box", recorded_box)
        monkeypatch.setattr(training, "forward", first_forward)
        cfg = TrainConfig(epochs=1, batch_size=8, steps=16, seed=1)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            train(cfg, pairs, pairs[:1])
        finally:
            tracemalloc.stop()
        assert boxes == [(0, 32, 0, 32)] * 8
        assert held[0] - entry < 1_000_000, held[0] - entry

    def test_each_pair_is_released_once_binned(self):
        refs = []   # weak references to each yielded pair's event arrays

        def pairs(n):
            for k in range(n):
                gc.collect()
                alive = [j for j, arrays in enumerate(refs)
                         if any(r() is not None for r in arrays)]
                assert alive == [], f"pairs {alive} still alive when pair {k} is read"
                lr, hr = tiny_pairs(1, seed0=510 + k)[0]
                refs.append([weakref.ref(a) for s in (lr, hr) for a in (s.t, s.x, s.y, s.p)])
                yield lr, hr
                del lr, hr

        res = train(TrainConfig(epochs=1, batch_size=2, steps=32), pairs(4),
                    tiny_pairs(1, seed0=908))
        assert len(refs) == 4 and len(res.rows) == 1
