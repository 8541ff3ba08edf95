import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers
from spikesr import kernels, model
from spikesr.events import EventStream, downsample_2x, from_voxel_grid
from spikesr.model import (CHECKPOINT_MAGIC, ModelError, NetworkSpec,
                           backward_pass, bilinear_upsample_2x, conv_drive,
                           conv_weight_adjoint, count_flops, count_params,
                           forward, init_weights, load_checkpoint,
                           resolve_mode, save_checkpoint, super_resolve,
                           upconv2x_drive, upconv2x_input_adjoint,
                           upconv2x_weight_adjoint, validate_weights)
from spikesr.synth import synth_moving_bar


def random_input(rng, c=2, h=6, w=6, t=12, hi=3):
    return rng.integers(0, hi, (c, h, w, t)).astype(float)


class TestNetworkSpec:
    def test_variants(self):
        d = NetworkSpec("dual_layer")
        u = NetworkSpec("ultralight")
        assert d.layers[0].in_channels == 2 and d.layers[0].out_channels == 8
        assert u.layers[0].in_channels == 1 and u.layers[1].out_channels == 1
        assert d.scale == 2

    def test_passes(self):
        assert NetworkSpec("dual_layer").passes == (slice(0, 2),)
        assert NetworkSpec("ultralight").passes == (slice(0, 1), slice(1, 2))

    def test_unknown_variant(self):
        with pytest.raises(ModelError):
            NetworkSpec("resnet50")

    def test_param_counts(self):
        assert count_params(NetworkSpec("dual_layer")) == 464
        assert count_params(NetworkSpec("ultralight")) == 232

    def test_whole_number_step_is_held_as_a_float(self, tmp_path):
        # so the checkpoint header it writes reads back
        spec = NetworkSpec("ultralight", 1)
        assert spec == NetworkSpec("ultralight", 1.0) and type(spec.dt_ms) is float
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, spec, init_weights(spec, seed=0), np.zeros(3), seed=0)
        assert load_checkpoint(path)[0] == spec

    def test_only_variant_and_step_size_are_fields(self):
        assert [f.name for f in dataclasses.fields(NetworkSpec)] == ["variant", "dt_ms"]
        assert NetworkSpec("ultralight", dt_ms=2.0) == NetworkSpec("ultralight", 2.0)

    @pytest.mark.parametrize("dt_ms", [0.0, -1.0, math.nan, math.inf])
    def test_step_size_must_be_positive(self, dt_ms):
        with pytest.raises(ModelError, match="dt_ms"):
            NetworkSpec("ultralight", dt_ms)

    @pytest.mark.parametrize("dt_ms", [1 / 3, 0.0005, 2.0001])
    def test_step_size_must_be_whole_microseconds(self, dt_ms):
        # the event grid bins time in whole microseconds
        with pytest.raises(ModelError, match="whole number of microseconds"):
            NetworkSpec("ultralight", dt_ms)
        assert NetworkSpec("ultralight", 2.007).dt_ms == 2.007

    def test_flops_known_value(self):
        assert count_flops(NetworkSpec("dual_layer"), 10, 10, 10) == 1_312_000

    def test_flops_matches_oracle(self, rng):
        for _ in range(10):
            h, w, t = (int(v) for v in rng.integers(1, 30, 3))
            for variant in ("dual_layer", "ultralight"):
                spec = NetworkSpec(variant)
                total = 0
                # layer 1 keeps the input size, layer 2 doubles it
                for layer, (oh, ow) in zip(spec.layers, ((h, w), (2 * h, 2 * w))):
                    total += (2 * layer.kernel_h * layer.kernel_w
                              * layer.in_channels * layer.out_channels
                              * oh * ow * t)
                if variant == "ultralight":
                    total *= 2
                assert count_flops(spec, h, w, t) == total

    def test_flops_zero_window(self):
        assert count_flops(NetworkSpec("ultralight"), 8, 8, 0) == 0


class TestInitWeights:
    def test_deterministic(self):
        spec = NetworkSpec("dual_layer")
        a = init_weights(spec, seed=7)
        b = init_weights(spec, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = init_weights(spec, seed=8)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_bounds(self):
        spec = NetworkSpec("ultralight")
        w1, w2 = init_weights(spec, seed=0)
        b1 = spec.neuron_cfgs[0].v_th / (1 * 5 * 5)
        b2 = spec.neuron_cfgs[1].v_th / (8 * 2 * 2)
        assert np.all(np.abs(w1) <= b1) and np.all(np.abs(w2) <= b2)

    def test_shapes_validate(self):
        spec = NetworkSpec("dual_layer")
        validate_weights(spec, init_weights(spec, seed=0))
        with pytest.raises(ModelError):
            validate_weights(spec, [np.zeros((2, 2)), np.zeros((2, 2))])


class TestLayerOps:
    def test_conv_matches_oracle(self, rng):
        w = rng.standard_normal((4, 2, 3, 3))
        x = rng.standard_normal((2, 7, 6, 5))
        out = conv_drive(x, w)
        ref = helpers.conv_drive_oracle(x, w, stride=1, pad=1)
        assert out.shape == (4, 7, 6, 5)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_upconv_matches_oracle(self, rng):
        w = rng.standard_normal((3, 2, 2, 2))
        x = rng.standard_normal((2, 5, 4, 6))
        out = upconv2x_drive(x, w)
        ref = helpers.upconv2x_oracle(x, w)
        assert out.shape == (3, 10, 8, 6)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_conv_weight_adjoint_inner_product(self, rng):
        # <conv(x, w), g> == <w, adjoint(x, g)>
        w = rng.standard_normal((4, 2, 5, 5))
        x = rng.standard_normal((2, 6, 6, 8))
        g = rng.standard_normal((4, 6, 6, 8))
        lhs = float(np.sum(conv_drive(x, w) * g))
        rhs = float(np.sum(w * conv_weight_adjoint(x, g, 5, 5)))
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_upconv_adjoints_inner_product(self, rng):
        w = rng.standard_normal((2, 3, 2, 2))
        x = rng.standard_normal((3, 4, 4, 5))
        g = rng.standard_normal((2, 8, 8, 5))
        lhs = float(np.sum(upconv2x_drive(x, w) * g))
        assert abs(lhs - float(np.sum(w * upconv2x_weight_adjoint(x, g)))) < 1e-9
        assert abs(lhs - float(np.sum(x * upconv2x_input_adjoint(g, w)))) < 1e-9

    def test_bilinear_matches_oracle(self, rng):
        for shape in ((2, 5, 7, 4), (1, 1, 6, 3), (2, 5, 1, 3), (1, 1, 1, 2)):
            x = rng.standard_normal(shape)
            out = bilinear_upsample_2x(x)
            ref = helpers.bilinear2x_oracle(x)
            c, h, w, t = shape
            assert out.shape == (c, 2 * h, 2 * w, t)
            assert np.max(np.abs(out - ref)) < 1e-12

    def test_bilinear_constant_preserved(self):
        x = np.full((1, 4, 4, 2), 3.5)
        assert np.allclose(bilinear_upsample_2x(x), 3.5)


def whole_patch_matrix(x, kh, kw):
    """The (C * kh * kw) x (H * W * T) patch matrix of a same-size conv, built at once."""
    c = x.shape[0]
    xp = np.pad(x, ((0, 0), (kh // 2,) * 2, (kw // 2,) * 2, (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return np.ascontiguousarray(win.transpose(0, 4, 5, 1, 2, 3)).reshape(c * kh * kw, -1)


class TestConvBlocks:
    """The 5x5 conv and its weight gradient, one block of output rows at a time."""

    # (shape, blocks): a partial last block, one block of every row, H = 1, W = 1,
    # T = 1, C = 2, and W * T no multiple of 8
    SHAPES = [((1, 23, 13, 24), 2), ((1, 6, 9, 20), 1), ((1, 1, 40, 120), 1),
              ((1, 300, 1, 16), 2), ((1, 70, 64, 1), 2), ((2, 40, 16, 32), 5),
              ((1, 300, 2, 7), 2)]
    # (shape, pixel-steps per block): small blocks give small shapes many blocks
    ORACLE = [((1, 7, 5, 6), 16), ((2, 9, 3, 4), 16), ((1, 9, 1, 5), 16), ((2, 12, 1, 3), 16),
              ((1, 5, 4, 1), 16), ((1, 23, 13, 24), model._BLOCK_STEPS)]

    @pytest.mark.parametrize("shape, blocks", SHAPES)
    def test_drive_is_the_whole_matrix_product(self, rng, shape, blocks):
        x = rng.standard_normal(shape)
        w = rng.standard_normal((8, shape[0], 5, 5))
        assert len(list(model._patch_blocks(x, 5, 5))) == blocks
        whole = w.reshape(8, -1) @ whole_patch_matrix(x, 5, 5)
        assert conv_drive(x, w).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("shape, block_steps", ORACLE)
    def test_blocks_match_the_oracles(self, rng, monkeypatch, shape, block_steps):
        monkeypatch.setattr(model, "_BLOCK_STEPS", block_steps)
        assert len(list(model._patch_blocks(np.zeros(shape), 5, 5))) > 1
        x = rng.standard_normal(shape)
        w = rng.standard_normal((8, shape[0], 5, 5))
        g = rng.standard_normal((8,) + shape[1:])
        drive = conv_drive(x, w)
        assert np.max(np.abs(drive - helpers.conv_drive_oracle(x, w, 1, 2))) < 1e-10
        adj = conv_weight_adjoint(x, g, 5, 5)
        want = helpers.conv_weight_adjoint_oracle(x, g, 5, 5)
        assert np.max(np.abs(adj - want)) <= 1e-12 * np.max(np.abs(want))
        lhs, rhs = float(np.sum(drive * g)), float(np.sum(w * adj))
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_memory_is_one_block_of_patches(self, rng):
        # the whole patch matrix at an inference window's shape is 25 x 64 x 64 x 32 doubles
        x = rng.standard_normal((1, 64, 64, 32))
        w, g = rng.standard_normal((8, 1, 5, 5)), rng.standard_normal((8, 64, 64, 32))
        peaks = {}
        for name, call in (("drive", lambda: conv_drive(x, w)),
                           ("adjoint", lambda: conv_weight_adjoint(x, g, 5, 5))):
            tracemalloc.start()
            try:
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
        assert peaks["drive"] < 12 and peaks["adjoint"] < 4, peaks


class TestForward:
    def test_output_shape_and_type(self, rng):
        for variant, passes in (("dual_layer", 1), ("ultralight", 2)):
            spec = NetworkSpec(variant)
            weights = init_weights(spec, seed=1)
            inp = random_input(rng)
            out, caches = forward(spec, weights, inp)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.shape == (2, 12, 12, 12)
            assert set(np.unique(out)) <= {0.0, 1.0}
            assert len(caches) == passes

    def test_streamed_forward_keeps_no_caches(self, rng):
        # only training differentiates, and it never streams
        for variant, passes in (("dual_layer", 1), ("ultralight", 2)):
            spec = NetworkSpec(variant)
            weights = init_weights(spec, seed=1)
            inp = random_input(rng)
            state = []
            streamed, caches = forward(spec, weights, inp, state=state)
            assert caches == [] and len(state) == passes
            whole, caches = forward(spec, weights, inp)
            assert len(caches) == passes
            assert np.array_equal(streamed, whole)

    @pytest.mark.parametrize("variant", ["dual_layer", "ultralight"])
    def test_soft_forward_matches_oracles_in_paper_order(self, rng, variant):
        # the paper's order filters layer 2's input spikes, then applies the
        # transposed conv; forward filters after the conv, so they must commute
        spec = NetworkSpec(variant)
        w1, w2 = [k * w for k, w in zip((3.0, 20.0), init_weights(spec, seed=6))]
        x = random_input(rng, h=5, w=4, t=16)

        def eps(n):
            k = np.arange(math.ceil(8.0 * n.tau_s))
            return (k / n.tau_s) * np.exp(1.0 - k / n.tau_s)

        def soft(u, n):
            return 1.0 / (1.0 + np.exp(-(u - n.v_th) / (n.tau_rho * n.v_th)))

        n1, n2 = spec.neuron_cfgs
        c = spec.layers[0].in_channels
        want = []
        for i in range(0, 2, c):
            psp1 = helpers.psp_oracle(x[i:i + c], eps(n1))
            s1 = soft(helpers.conv_drive_oracle(psp1, w1, stride=1, pad=2), n1)
            drive2 = (helpers.upconv2x_oracle(helpers.psp_oracle(s1, eps(n2)), w2)
                      + helpers.bilinear2x_oracle(psp1))
            want.append(soft(drive2, n2))
        want = np.concatenate(want)
        got, _ = forward(spec, [w1, w2], x, spike_mode="soft")
        assert 0.01 < want.min() and want.max() < 0.99   # off the sigmoid's flat ends
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("variant", ["dual_layer", "ultralight"])
    def test_layer2_carries_its_conv_output(self, rng, variant):
        # layer 2 filters after its transposed conv, so a window leaves the
        # conv's c_out channels at 2H x 2W behind, not its 8 input channels
        spec = NetworkSpec(variant)
        state = []
        forward(spec, init_weights(spec, seed=1), random_input(rng, h=5, w=4, t=40),
                state=state)
        taps = math.ceil(8.0 * spec.neuron_cfgs[1].tau_s)   # len(eps2) at dt 1 ms
        for _, layer2 in state:
            assert layer2.inputs.shape == (spec.layers[1].out_channels, 10, 8, taps - 1)

    def test_mode_variant_pairing_enforced(self):
        # super_resolve's optional mode is checked against the variant, then ignored
        stream = downsample_2x(synth_moving_bar(16, 16, 16.0, 0.3, 2.0, seed=2))
        for variant, foreign in (("dual_layer", "dual_sequential"), ("ultralight", "joint")):
            spec = NetworkSpec(variant)
            weights = [20.0 * w for w in init_weights(spec, seed=0)]  # strong enough to fire
            out, dropped = super_resolve(spec, weights, stream, 16)
            named, named_dropped = super_resolve(spec, weights, stream, 16,
                                                 resolve_mode(spec.variant, None))
            assert len(out) > 0 and dropped == named_dropped
            assert all(np.array_equal(getattr(out, k), getattr(named, k)) for k in "txyp")
            with pytest.raises(ModelError):
                super_resolve(spec, weights, stream, 16, foreign)

    def test_rejects_wrong_channel_count(self, rng):
        spec = NetworkSpec("ultralight")
        weights = init_weights(spec, seed=0)
        with pytest.raises(ModelError):
            forward(spec, weights, random_input(rng, c=1))

    def test_dual_channels_independent(self, rng):
        # zeroing the negative channel must not change the positive output
        spec = NetworkSpec("ultralight")
        weights = init_weights(spec, seed=3)
        inp = random_input(rng, hi=4)
        only_pos = inp.copy()
        only_pos[1] = 0.0
        full, _ = forward(spec, weights, inp)
        part, _ = forward(spec, weights, only_pos)
        assert np.array_equal(full[0], part[0])

    def test_deterministic(self, rng):
        spec = NetworkSpec("dual_layer")
        weights = init_weights(spec, seed=4)
        inp = random_input(rng)
        a, _ = forward(spec, weights, inp)
        b, _ = forward(spec, weights, inp)
        assert np.array_equal(a, b)

    def test_soft_mode_continuous(self, rng):
        spec = NetworkSpec("dual_layer")
        weights = init_weights(spec, seed=5)
        out, _ = forward(spec, weights, random_input(rng), spike_mode="soft")
        assert np.all((out > 0) & (out < 1))

    def test_rejects_bad_rank(self, rng):
        spec = NetworkSpec("ultralight")
        weights = init_weights(spec, seed=0)
        with pytest.raises(ModelError, match=r"\[2, H, W, T\]"):
            forward(spec, weights, random_input(rng)[..., 0])

    def test_rejects_negative_entries(self, rng):
        spec = NetworkSpec("ultralight")
        weights = init_weights(spec, seed=0)
        inp = random_input(rng)
        inp[1, 2, 3, 4] = -1.0
        with pytest.raises(ModelError, match="non-negative"):
            forward(spec, weights, inp)


class TestSuperResolve:
    def test_bins_at_spec_step_size(self):
        # 64 ms at dt_ms=2 fits 32 steps; binning at 1 ms would drop the second half
        spec = NetworkSpec("ultralight", dt_ms=2.0)
        stream = downsample_2x(synth_moving_bar(32, 32, 64.0, 0.3, 2.0, seed=1))
        out, dropped = super_resolve(spec, init_weights(spec, seed=0), stream, steps=32)
        assert dropped == 0
        assert (out.width, out.height) == (32, 32)

    @pytest.mark.parametrize("variant,dt_ms", [("dual_layer", 1.0), ("ultralight", 1.0),
                                               ("ultralight", 2.0)])
    def test_windows_equal_the_whole_stream(self, rng, monkeypatch, variant, dt_ms):
        spec = NetworkSpec(variant, dt_ms)
        weights = [k * np.abs(w) for k, w in zip((4.0, 6.0), init_weights(spec, seed=1))]
        steps = int(40 / dt_ms)
        edge = int(steps * dt_ms * 1000)   # on the grid's closing edge: folded into the last bin
        noise = helpers.random_stream(rng, 6, 5, 50.0, 1500)
        stream = EventStream(np.append(noise.t, edge), np.append(noise.x, 3),
                             np.append(noise.y, 2), np.append(noise.p, -1), 6, 5)
        assert np.count_nonzero(stream.t > edge) > 0
        vox, want_dropped = helpers.voxel_grid(stream, steps, dt_ms)
        want = from_voxel_grid(forward(spec, weights, vox)[0], t0=stream.t0, dt=dt_ms)
        assert len(want) > 0
        for window in (1, 7, 64, steps):
            monkeypatch.setattr(model, "_WINDOW", window)
            got, dropped = super_resolve(spec, weights, stream, steps)
            assert dropped == want_dropped
            assert (got.width, got.height) == (want.width, want.height)
            for k in "txyp":
                assert np.array_equal(getattr(got, k), getattr(want, k)), (window, k)

    def test_window_is_a_multiple_of_the_psp_block(self):
        # so every window starts on apply_psp's block grid, where it is bit for bit
        # the whole stream's
        assert model._WINDOW % kernels._BLOCK == 0

    def test_memory_does_not_grow_with_steps(self):
        # a whole-stream pass holds every layer's intermediates for all T steps
        spec = NetworkSpec("ultralight")
        weights = init_weights(spec, seed=0)
        stream = downsample_2x(synth_moving_bar(32, 32, 20.0, 0.3, 2.0, seed=1))
        peaks = []
        for steps in (150, 1200):
            tracemalloc.start()
            try:
                super_resolve(spec, weights, stream, steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


SPARSE_SCENES = {
    # a burst in each corner, each after the last one's carried history has ended
    "corners": [(0, 0, 3, 3, 0, 8, 300), (21, 0, 3, 3, 70, 78, 300),
                (0, 17, 3, 3, 140, 148, 300), (21, 17, 3, 3, 210, 218, 300)],
    # a quiet gap longer than any carried history, then one burst
    "gap": [(9, 8, 4, 3, 0, 10, 500), (10, 9, 3, 3, 90, 100, 400)],
    # two far-apart regions at once
    "far_apart": [(1, 2, 3, 2, 0, 20, 500), (19, 15, 3, 4, 5, 25, 600)],
    # two bursts far apart in time: the windows between them are passed over
    "far_in_time": [(6, 5, 3, 3, 2, 9, 400), (14, 11, 3, 3, 190, 197, 400)],
}


class TestLiveBox:
    """super_resolve runs each window on its live box; the result is the whole grid's."""

    @pytest.mark.parametrize("scene", list(SPARSE_SCENES))
    @pytest.mark.parametrize("variant", ["dual_layer", "ultralight"])
    @pytest.mark.parametrize("dt_ms", [0.5, 1.0])
    def test_equals_the_whole_grid(self, monkeypatch, scene, variant, dt_ms):
        # at dt_ms 0.5 layer 2 carries 63 refractory steps, more than most windows
        spec = NetworkSpec(variant, dt_ms)
        weights = [k * np.abs(w) for k, w in zip((4.0, 6.0), init_weights(spec, seed=1))]
        stream = helpers.bursts(24, 20, SPARSE_SCENES[scene])
        steps = int(230 / dt_ms)
        vox, want_dropped = helpers.voxel_grid(stream, steps, dt_ms)
        want = from_voxel_grid(forward(spec, weights, vox)[0], t0=stream.t0, dt=dt_ms)
        assert len(want) > 0
        boxes = []

        def recorded(*args):
            boxes.append(live_box(*args))
            return boxes[-1]

        live_box = model._live_box
        monkeypatch.setattr(model, "_live_box", recorded)
        for window in (1, 7, 32, steps):
            monkeypatch.setattr(model, "_WINDOW", window)
            got, dropped = super_resolve(spec, weights, stream, steps)
            assert dropped == want_dropped
            assert (got.width, got.height) == (want.width, want.height)
            for k in "txyp":
                assert np.array_equal(getattr(got, k), getattr(want, k)), (window, k)
        assert any(b is not None and b != (0, 20, 0, 24) for b in boxes)   # not all the frame
        if scene != "far_apart":
            assert None in boxes   # a window with no live pixel

    def test_dead_spans_visit_no_window(self, monkeypatch):
        # a 6 ms burst on a grid of 10^6 steps, 31,250 windows of 32
        spec = NetworkSpec("ultralight")
        weights = [k * np.abs(w) for k, w in zip((4.0, 6.0), init_weights(spec, seed=1))]
        stream = helpers.bursts(16, 16, [(6, 5, 3, 3, 0, 6, 300)])
        boxes = []

        def recorded(*args):
            boxes.append(live_box(*args))
            return boxes[-1]

        live_box = model._live_box
        monkeypatch.setattr(model, "_live_box", recorded)
        got, dropped = super_resolve(spec, weights, stream, 10**6)
        # the burst's windows, the one that finds the state clear, and no more
        assert len(boxes) <= 8 and boxes[-1] is None and None not in boxes[:-1]
        steps = model._WINDOW * len(boxes) + 1   # just past the window that clears it
        vox, want_dropped = helpers.voxel_grid(stream, steps)
        want = from_voxel_grid(forward(spec, weights, vox)[0], t0=stream.t0)
        assert len(want) > 0 and dropped == want_dropped == 0
        assert (got.width, got.height) == (want.width, want.height)
        for k in "txyp":
            assert np.array_equal(getattr(got, k), getattr(want, k)), k

    @pytest.mark.parametrize("variant", ["dual_layer", "ultralight"])
    def test_empty_stream(self, variant):
        spec = NetworkSpec(variant)
        out, dropped = super_resolve(spec, init_weights(spec, seed=0),
                                     EventStream.empty(8, 6), 40)
        assert (len(out), dropped, out.width, out.height) == (0, 0, 16, 12)

    def test_work_follows_activity(self, monkeypatch):
        # every event in a 3x3 patch of a 64x64 frame: layer 2's carried state
        # reaches 2 px past the events, the box 2 px more, so at most 11x11
        spec = NetworkSpec("ultralight")
        weights = [k * np.abs(w) for k, w in zip((4.0, 6.0), init_weights(spec, seed=1))]
        shapes = []

        def recorded(x, w):
            shapes.append(x.shape[1:3])
            return conv_drive(x, w)

        monkeypatch.setattr(model, "conv_drive", recorded)
        patch = helpers.bursts(64, 64, [(30, 20, 3, 3, 0, 100, 1500)])
        out, _ = super_resolve(spec, weights, patch, 100)
        assert len(out) > 0
        assert all(h <= 11 and w <= 11 for h, w in shapes), shapes
        assert (11, 11) in shapes   # the carried state widens the box
        shapes.clear()
        rng = np.random.default_rng(5)
        super_resolve(spec, weights, helpers.random_stream(rng, 64, 64, 40.0, 20000), 40)
        assert shapes and set(shapes) == {(64, 64)}


class TestMembraneOnlyForTraining:
    """Only training's backward pass reads the membrane trace, so only it builds one."""

    def test_super_resolve_builds_no_membrane(self, monkeypatch):
        spec = NetworkSpec("ultralight")
        weights = [k * np.abs(w) for k, w in zip((4.0, 6.0), init_weights(spec, seed=1))]
        stream = downsample_2x(synth_moving_bar(32, 32, 40.0, 0.3, 2.0, seed=3))
        want, want_dropped = super_resolve(spec, weights, stream, 40)
        assert len(want) > 0

        def refuse(*args, **kwargs):
            raise AssertionError("inference built a membrane trace")

        monkeypatch.setattr(model, "membrane", refuse)
        got, dropped = super_resolve(spec, weights, stream, 40)
        assert dropped == want_dropped
        for k in "txyp":
            assert np.array_equal(getattr(got, k), getattr(want, k)), k

    @pytest.mark.parametrize("variant", ["dual_layer", "ultralight"])
    def test_backward_rebuilds_the_membrane(self, rng, monkeypatch, variant):
        spec = NetworkSpec(variant)
        weights = [k * np.abs(w) for k, w in zip((4.0, 6.0), init_weights(spec, seed=1))]
        out, caches = forward(spec, weights, random_input(rng, h=5, w=4, t=16))
        assert all(c.layer1.spikes.any() and c.layer2.spikes.any() for c in caches)
        g_out = rng.standard_normal(out.shape)
        calls = []

        def counted(drive, spikes, cfg, dt):
            calls.append(cfg)
            return kernels.membrane(drive, spikes, cfg, dt)

        def oracle(drive, spikes, cfg, dt):
            want_spikes, u = helpers.fire_oracle(drive, cfg, dt)
            assert np.array_equal(spikes, want_spikes)
            return u

        monkeypatch.setattr(model, "membrane", counted)
        grads = backward_pass(spec, weights, caches, g_out)
        assert calls == list(spec.neuron_cfgs[::-1]) * len(spec.passes)   # layer 2 first
        monkeypatch.setattr(model, "membrane", oracle)
        want = backward_pass(spec, weights, caches, g_out)
        for g, w in zip(grads, want):
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        spec = NetworkSpec("ultralight")
        weights = init_weights(spec, seed=11)
        log_var = rng.standard_normal(3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, spec, weights, log_var, seed=11)
        spec2, weights2, log_var2, seed2 = load_checkpoint(path)
        assert spec2.variant == "ultralight"
        assert spec2 == spec
        for a, b in zip(weights, weights2):
            assert a.tobytes() == b.tobytes()
        assert log_var.astype("<f8").tobytes() == log_var2.tobytes()
        assert seed2 == 11

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMODEL\n\n" + b"\x00" * 64)
        with pytest.raises(ModelError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        spec = NetworkSpec("ultralight")
        weights = init_weights(spec, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, spec, weights, np.zeros(3), seed=0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ModelError):
            load_checkpoint(path)

    def test_magic_prefix(self, tmp_path):
        spec = NetworkSpec("dual_layer")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, spec, init_weights(spec, seed=0), np.zeros(3), seed=0)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)


# One edit per kind of header value that the variant fixes; the forward
# pass would ignore each one or crash on it.
HEADER_EDITS = {
    "scale": ("scale=2", "scale=3"),
    "layer1 stride 3, padding 3": ("layer1=transposed_conv 8 1 2 2 2 0",
                                   "layer1=transposed_conv 8 1 2 2 3 3"),
    "swapped layer kinds": ("layer0=conv 1 8 5 5 1 2\nneuron0=30.0 1.0 1.0 1.0 1.0 10.0\n"
                            "layer1=transposed_conv 8 1 2 2 2 0",
                            "layer0=transposed_conv 1 8 5 5 1 2\n"
                            "neuron0=30.0 1.0 1.0 1.0 1.0 10.0\nlayer1=conv 8 1 2 2 2 0"),
    "dual_layer over ultralight layers": ("variant=ultralight", "variant=dual_layer"),
    "layer0 stride 2": ("layer0=conv 1 8 5 5 1 2", "layer0=conv 1 8 5 5 2 2"),
    "layer0 padding 0": ("layer0=conv 1 8 5 5 1 2", "layer0=conv 1 8 5 5 1 0"),
    "neuron0 threshold": ("neuron0=30.0 ", "neuron0=60.0 "),
}


def edit_header(path, old, new):
    blob = path.read_bytes()
    head, body = blob.split(b"\n\n", 1)
    assert old.encode() in head
    path.write_bytes(head.replace(old.encode(), new.encode()) + b"\n\n" + body)


class TestCheckpointHeader:
    @pytest.mark.parametrize("edit", list(HEADER_EDITS))
    def test_edited_header_rejected(self, tmp_path, edit):
        spec = NetworkSpec("ultralight")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, spec, init_weights(spec, seed=0), np.zeros(3), seed=3)
        edit_header(path, *HEADER_EDITS[edit])
        with pytest.raises(ModelError, match="header line"):
            load_checkpoint(path)

    def test_dual_layer_header_spelled_out(self, tmp_path):
        spec = NetworkSpec("dual_layer")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, spec, init_weights(spec, seed=0), np.zeros(3), seed=4)
        head = path.read_bytes().split(b"\n\n", 1)[0].decode().split("\n")
        assert head == ["EVSRW01", "variant=dual_layer", "scale=2", "dt_ms=1.0", "seed=4",
                        "n_layers=2",
                        "layer0=conv 2 8 5 5 1 2",
                        "neuron0=30.0 1.0 1.0 1.0 1.0 10.0",
                        "layer1=transposed_conv 8 2 2 2 2 0",
                        "neuron1=100.0 4.0 4.0 1.0 10.0 100.0"]

    def test_committed_checkpoint_survives_load_and_save(self, tmp_path):
        committed = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                     / "ultralight_c8.ckpt")
        spec, weights, log_var, seed = load_checkpoint(committed)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, spec, weights, log_var, seed)
        assert again.read_bytes() == committed.read_bytes()
