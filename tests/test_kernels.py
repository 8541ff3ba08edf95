import math
import tracemalloc

import numpy as np
import pytest

import helpers
from spikesr import kernels
from spikesr.kernels import _BLOCK as B
from spikesr.kernels import _refractory, _spike_kernel
from spikesr.kernels import (NeuronConfig, apply_psp, apply_psp_adjoint,
                             generate_spikes, kernel_length, membrane,
                             refractory_kernel, soft_spike_grad, soft_spikes,
                             spike_kernel, surrogate_grad)

CONV_NEURON = NeuronConfig(v_th=30, tau_s=1, tau_r=1, lam=1, tau_rho=1, rho=10)
UPCONV_NEURON = NeuronConfig(v_th=100, tau_s=4, tau_r=4, lam=1, tau_rho=10, rho=100)


class TestKernels:
    def test_spike_kernel_values(self):
        v = spike_kernel(1.0, 1.0, 4)
        assert v[0] == 0.0
        assert v[1] == 1.0
        assert abs(v[2] - 2 * math.exp(-1)) < 1e-12
        assert abs(v[3] - 3 * math.exp(-2)) < 1e-12

    def test_spike_kernel_peaks_at_tau(self):
        for tau in (1.0, 4.0, 7.0):
            v = spike_kernel(tau, 1.0, 64)
            assert abs(v[int(tau)] - 1.0) < 1e-9
            assert v.argmax() == int(tau)

    def test_refractory_kernel_values(self):
        v = refractory_kernel(1.0, 1.0, 1.0, 3)
        assert v[0] == -1.0
        assert abs(v[1] + math.exp(-1)) < 1e-12
        assert np.all(v < 0)

    def test_refractory_zero_magnitude(self):
        assert np.all(refractory_kernel(2.0, 0.0, 1.0, 5) == 0.0)

    @pytest.mark.parametrize("cfg", [CONV_NEURON, UPCONV_NEURON])
    @pytest.mark.parametrize("dt", [1.0, 2.0])
    def test_cached_spike_kernel_is_the_explicit_one(self, cfg, dt):
        eps = _spike_kernel(cfg, dt)
        want = spike_kernel(cfg.tau_s, dt, kernel_length(cfg.tau_s, dt))
        assert eps.tobytes() == want.tobytes() and not eps.flags.writeable
        assert _spike_kernel(cfg, dt) is eps

    def test_kernel_length_rule(self):
        assert kernel_length(1.0, 1.0) == 8
        assert kernel_length(4.0, 1.0) == 32


class TestApplyPsp:
    def test_impulse_reproduces_kernel(self):
        kern = spike_kernel(1.0, 1.0, 6)
        x = np.zeros((1, 10))
        x[0, 2] = 1.0
        out = apply_psp(x, kern)
        assert np.all(out[0, :2] == 0.0)
        assert np.allclose(out[0, 2:8], kern)

    def test_zero_input(self):
        kern = spike_kernel(2.0, 1.0, 8)
        assert np.all(apply_psp(np.zeros((3, 3, 3, 12)), kern) == 0.0)

    def test_matches_loop_oracle(self, rng):
        kern = spike_kernel(4.0, 1.0, 12)
        x = rng.integers(0, 3, (2, 3, 3, 20)).astype(float)
        out = apply_psp(x, kern)
        ref = helpers.psp_oracle(x, kern)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_linearity(self, rng):
        kern = spike_kernel(2.0, 1.0, 10)
        a = rng.random((2, 4, 4, 16))
        b = rng.random((2, 4, 4, 16))
        lhs = apply_psp(3.0 * a + 0.5 * b, kern)
        rhs = 3.0 * apply_psp(a, kern) + 0.5 * apply_psp(b, kern)
        denom = max(np.abs(rhs).max(), 1e-12)
        assert np.max(np.abs(lhs - rhs)) / denom < 1e-10

    def test_adjoint_identity(self, rng):
        # <psp(x), g> == <x, adjoint(g)> for random vectors
        kern = spike_kernel(3.0, 1.0, 9)
        x = rng.random((2, 5, 14))
        g = rng.random((2, 5, 14))
        lhs = float(np.sum(apply_psp(x, kern) * g))
        rhs = float(np.sum(x * apply_psp_adjoint(g, kern)))
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("steps", [5, 9, 20])   # shorter than, equal to, longer than the kernel
    @pytest.mark.parametrize("sliced", [False, True])
    def test_adjoint_is_transpose_elementwise(self, rng, steps, sliced):
        kern = spike_kernel(3.0, 1.0, 9)
        # column j of the dense PSP matrix is the oracle's response to an impulse at j
        dense = helpers.psp_oracle(np.eye(steps), kern).T
        if sliced:
            g = rng.random((2, 6, 2 * steps))[:, ::2, ::2]
            assert not g.flags.c_contiguous
        else:
            g = rng.random((2, 3, steps))
        assert np.max(np.abs(apply_psp_adjoint(g, kern) - g @ dense)) < 1e-12


class TestBlockedFilter:
    """The filter walks T in blocks of B steps; these cases cross block edges."""

    @pytest.mark.parametrize("taps", [9, 32, 200])   # 200 is longer than 3B + 5
    def test_matches_oracle_across_blocks(self, rng, taps):
        kern = rng.standard_normal(taps)
        for steps in (1, taps - 1, taps, B - 1, B, B + 1, B + taps, 3 * B + 5):
            x = rng.standard_normal((2, 3, steps))
            assert np.max(np.abs(apply_psp(x, kern) - helpers.psp_oracle(x, kern))) < 1e-12
            dense = helpers.psp_matrix_oracle(steps, kern)
            assert np.max(np.abs(apply_psp_adjoint(x, kern) - x @ dense.T)) < 1e-12

    @pytest.mark.parametrize("steps", [71, 197])
    def test_non_contiguous_and_1d_input(self, rng, steps):
        assert steps > B and steps % B   # crosses block edges, ends off the grid
        kern = rng.standard_normal(32)
        dense = helpers.psp_matrix_oracle(steps, kern)
        sliced = rng.standard_normal((2, 6, 2 * steps))[:, ::2, ::2]
        assert not sliced.flags.c_contiguous
        for x in (sliced, rng.standard_normal(steps)):
            out = apply_psp(x, kern)
            assert out.shape == x.shape
            assert np.max(np.abs(out - x @ dense)) < 1e-12
            assert np.max(np.abs(apply_psp_adjoint(x, kern) - x @ dense.T)) < 1e-12

    def test_zero_steps_give_empty_output(self):
        kern = spike_kernel(4.0, 1.0, 32)
        for f in (apply_psp, apply_psp_adjoint):
            out = f(np.zeros((3, 0)), kern)
            assert out.shape == (3, 0)

    def test_memory_does_not_grow_with_steps(self, rng):
        # a dense T x T matrix would take 128 MB at T = 4000
        x = (rng.random((1, 4000)) < 0.05).astype(float)
        kern = spike_kernel(4.0, 1.0, 32)
        for f in (apply_psp, apply_psp_adjoint):
            tracemalloc.start()
            try:
                out = f(x, kern)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes < 1_000_000

    def test_window_with_history_matches_whole_stream(self, rng):
        # windows on the block grid compute the same matrix products as the
        # whole stream: history 0 (first window), K - 1, and, with 100 taps,
        # all the steps there are (shorter than K - 1)
        steps = 3 * B + 5
        x = rng.integers(0, 3, (2, 3, steps)).astype(float)
        seen = set()
        for kern in (spike_kernel(1.0, 1.0, 8), spike_kernel(4.0, 1.0, 32),
                     spike_kernel(12.5, 1.0, 100)):
            whole = apply_psp(x, kern)
            for a in range(0, steps, B):
                h = min(a, kern.size - 1)
                seen.add("none" if h == 0 else "full" if h == kern.size - 1 else "short")
                got = apply_psp(x[..., a - h:a + B], kern, history=h)
                assert np.array_equal(got, whole[..., a:a + B])
        assert seen == {"none", "full", "short"}

    def test_window_off_the_block_grid_matches_to_rounding(self, rng):
        # elsewhere the products are cut differently, and BLAS may order
        # a block's sums differently
        steps = 2 * B + 9
        x = rng.integers(0, 3, (2, 3, steps)).astype(float)
        kern = spike_kernel(4.0, 1.0, 32)
        whole = apply_psp(x, kern)
        for width in (1, 7, B + 1):
            for a in range(0, steps, width):
                h = min(a, kern.size - 1)
                got = apply_psp(x[..., a - h:a + width], kern, history=h)
                assert np.allclose(got, whole[..., a:a + width], rtol=1e-12, atol=1e-12)


class TestBandCache:
    """Each (taps, block width) builds its band matrix once."""

    def test_repeated_calls_reuse_the_band(self, rng, monkeypatch):
        kern = spike_kernel(4.0, 1.0, 32)

        def filters(x, history):
            spikes = (x > 1.0).astype(float)
            return [apply_psp(x, kern, history), apply_psp_adjoint(x, kern),
                    membrane(x, spikes, UPCONV_NEURON)]

        uncached = []
        for steps, history in ((B - 9, 0), (B, 0), (3 * B + 5, 0), (B + 40, 31)):
            x = rng.standard_normal((2, 5, steps))
            kernels._band.cache_clear()
            first = filters(x, history)
            again = filters(x, history)
            info = kernels._band.cache_info()
            # the filter's taps are the kernel reversed, the adjoint's the kernel itself,
            # the membrane's the refractory kernel reversed without its self term
            assert (info.misses, info.hits) == (3, 3)
            assert all(np.array_equal(a, b) for a, b in zip(first, again))
            uncached.append((x, history, first))
        band = kernels._band(kern.tobytes(), B)
        assert not band.flags.writeable
        monkeypatch.setattr(kernels, "_band", kernels._band.__wrapped__)
        for x, history, first in uncached:
            fresh = filters(x, history)
            assert all(np.array_equal(a, b) for a, b in zip(first, fresh))


class TestGenerateSpikes:
    def test_zero_drive_silent(self):
        drive = np.zeros((4, 4, 10))
        sp, _ = generate_spikes(drive, CONV_NEURON)
        u = membrane(drive, sp, CONV_NEURON)
        assert np.all(sp == 0) and np.all(u == 0)

    def test_single_spike_with_refractory_suppression(self):
        # drive = 40 * eps(t - 1): crosses threshold once, the refractory
        # tail keeps the decaying drive just below a second crossing
        eps = spike_kernel(1.0, 1.0, 8)
        drive = np.zeros(8)
        drive[1:] = 40.0 * eps[:7]
        sp, _ = generate_spikes(drive, CONV_NEURON)
        u = membrane(drive, sp, CONV_NEURON)
        assert list(np.flatnonzero(sp)) == [2]
        assert u[2] == 40.0
        assert abs(u[3] - (40.0 * eps[2] - math.exp(-1))) < 1e-12
        assert u[3] < 30.0

    def test_just_below_threshold(self):
        drive = np.full(6, 29.999)
        sp, _ = generate_spikes(drive, CONV_NEURON)
        assert np.all(sp == 0)

    def test_at_most_one_spike_per_step_and_threshold_on_spike(self, rng):
        for _ in range(10):
            drive = rng.uniform(-10, 80, (3, 3, 40))
            sp, _ = generate_spikes(drive, CONV_NEURON)
            u = membrane(drive, sp, CONV_NEURON)
            assert set(np.unique(sp)) <= {0.0, 1.0}
            assert np.all(u[sp == 1.0] >= CONV_NEURON.v_th)

    def test_refractory_dominance(self, rng):
        # huge refractory magnitude: after the first spike a neuron stays
        # silent for the rest of a window well inside the kernel horizon
        cfg = NeuronConfig(v_th=30, tau_s=1, tau_r=1000, lam=1e6, tau_rho=1, rho=10)
        drive = rng.uniform(20, 200, (5, 60))
        sp, _ = generate_spikes(drive, cfg)
        for row in sp:
            assert row.sum() <= 1.0

    def test_refractory_starts_next_step(self):
        # constant drive at threshold: spike at t=0 must not erase itself
        drive = np.full(4, 30.0)
        sp, _ = generate_spikes(drive, CONV_NEURON)
        u = membrane(drive, sp, CONV_NEURON)
        assert sp[0] == 1.0 and u[0] == 30.0
        assert u[1] == 30.0 - 1.0 * math.exp(-1)

    @pytest.mark.parametrize("cfg", [CONV_NEURON, UPCONV_NEURON])
    def test_matches_fire_oracle(self, rng, cfg):
        # 3 * B + 5 steps cross _BLOCK edges; at dt 0.5 UPCONV_NEURON's tail fills a block
        for steps, dt in ((50, 1.0), (3 * B + 5, 1.0), (50, 0.5), (3 * B + 5, 0.5)):
            drive = rng.uniform(0.5, 1.3, (3, 4, steps)) * cfg.v_th
            sp, _ = generate_spikes(drive, cfg, dt)
            u = membrane(drive, sp, cfg, dt)
            want_sp, want_u = helpers.fire_oracle(drive, cfg, dt)
            assert np.array_equal(sp, want_sp) and sp.any()
            assert np.max(np.abs(u - want_u)) < 1e-12

    @pytest.mark.parametrize("cfg", [CONV_NEURON, UPCONV_NEURON])
    def test_carried_past_spikes_match_fire_oracle(self, rng, cfg):
        drive = rng.uniform(0.5, 1.3, (3, 4, 50)) * cfg.v_th
        tail = kernel_length(cfg.tau_r, 1.0) - 1
        for length in (1, tail, tail + 5):
            past = (rng.random((3, 4, length)) < 0.5).astype(float)
            sp, _ = generate_spikes(drive, cfg, past=past)
            assert np.array_equal(sp, helpers.fire_oracle(drive, cfg, past=past)[0])
        # a second window fed the first one's last spikes continues the whole run exactly
        whole_sp, _ = generate_spikes(drive, cfg)
        head, head_past = generate_spikes(drive[..., :20], cfg)
        assert np.array_equal(head_past, whole_sp[..., max(0, 20 - tail):20])
        past = head[..., max(0, 20 - tail):]
        sp, _ = generate_spikes(drive[..., 20:], cfg, past=past)
        assert np.array_equal(sp, whole_sp[..., 20:])

    @pytest.mark.parametrize("cfg", [CONV_NEURON, UPCONV_NEURON])
    @pytest.mark.parametrize("dt", [1.0, 2.0])
    @pytest.mark.parametrize("steps", [0, 1, 40])
    def test_sparse_activity_matches_fire_oracle(self, rng, cfg, dt, steps):
        # rows 0-5 never reach threshold, rows 6-11 reach it at one isolated step,
        # rows 12-17 stay below it but carry past spikes: the rows and steps the
        # loop skips must come out as the oracle's too
        drive = rng.uniform(-0.5, 0.95, (18, steps)) * cfg.v_th
        if steps:
            drive[np.arange(6, 12), rng.integers(0, steps, 6)] = 1.2 * cfg.v_th
        past = np.zeros((18, kernel_length(cfg.tau_r, dt) - 1))
        past[12:] = rng.random((6, past.shape[-1])) < 0.5
        past[12:, -1] = 1.0
        sp, _ = generate_spikes(drive.reshape(3, 6, steps), cfg, dt, past.reshape(3, 6, -1))
        sp = sp.reshape(18, steps)
        want_sp, want_u = helpers.fire_oracle(drive, cfg, dt, past)
        assert np.array_equal(sp, want_sp)
        u = membrane(drive[:12], sp[:12], cfg, dt)   # rows 0-11 carry no past
        assert np.all(np.abs(u - want_u[:12]) < 1e-12)
        assert u[:6].tobytes() == drive[:6].tobytes()
        assert np.array_equal(sp[6:12].sum(-1), np.full(6, min(steps, 1)))
        assert not sp[12:].any()
        for row in (2, 7, 13):   # a 1-D drive is one neuron
            sp1, _ = generate_spikes(drive[row], cfg, dt, past[row])
            want_sp1 = helpers.fire_oracle(drive[row], cfg, dt, past[row])[0]
            assert np.array_equal(sp1, want_sp1) and np.array_equal(sp1, sp[row])

    @pytest.mark.parametrize("cfg", [CONV_NEURON, UPCONV_NEURON,
                                     NeuronConfig(v_th=30, tau_s=1, tau_r=3, lam=0,
                                                  tau_rho=1, rho=10)])
    @pytest.mark.parametrize("dt", [1.0, 2.0])
    def test_certain_fire_boundary(self, cfg, dt):
        # a full past of K - 1 spikes puts every refractory term on the cell at t = 0,
        # so d* fires and the double just below it does not, nor does v_th unless lam = 0
        d_star = _refractory(cfg, dt)[1]
        assert (d_star == cfg.v_th) == (cfg.lam == 0)
        drive = np.array([[d_star], [np.nextafter(d_star, 0)],
                          [cfg.v_th], [np.nextafter(cfg.v_th, 0)]])
        past = np.ones((4, kernel_length(cfg.tau_r, dt) - 1))
        sp, _ = generate_spikes(drive, cfg, dt, past)
        assert np.array_equal(sp, helpers.fire_oracle(drive, cfg, dt, past)[0])
        assert sp.ravel().tolist() == [1.0, 0.0, float(cfg.lam == 0), 0.0]

    @pytest.mark.parametrize("cfg", [CONV_NEURON, UPCONV_NEURON])
    @pytest.mark.parametrize("steps", [0, 3, 40])
    @pytest.mark.parametrize("held", [0, 2, 40])
    def test_returns_spikes_and_next_past(self, rng, cfg, steps, held):
        # perfbench's spike-rate hook reads result[0] as the spike tensor
        drive = rng.uniform(0.5, 1.3, (2, 3, steps)) * cfg.v_th
        past = (rng.random((2, 3, held)) < 0.5).astype(float)
        result = generate_spikes(drive, cfg, 1.0, past)
        assert isinstance(result, tuple) and len(result) == 2
        spikes, next_past = result
        assert spikes.shape == drive.shape
        keep = min(held + steps, kernel_length(cfg.tau_r, 1.0) - 1)
        assert next_past.shape == (2, 3, keep)
        history = np.concatenate([past, spikes], axis=-1)
        assert np.array_equal(next_past, history[..., history.shape[-1] - keep:])


class TestSurrogate:
    def test_peak_at_threshold(self):
        g = surrogate_grad(np.array(30.0), CONV_NEURON)
        assert abs(g - 10.0 / 30.0) < 1e-12

    def test_symmetric_and_positive(self, rng):
        d = rng.uniform(0, 100, 50)
        up = surrogate_grad(30.0 + d, CONV_NEURON)
        dn = surrogate_grad(30.0 - d, CONV_NEURON)
        assert np.allclose(up, dn)
        assert np.all(up > 0)

    def test_decays_far_from_threshold(self):
        assert surrogate_grad(np.array(3000.0), CONV_NEURON) < 1e-12
        near = surrogate_grad(np.array(31.0), CONV_NEURON)
        far = surrogate_grad(np.array(60.0), CONV_NEURON)
        assert near > far

    def test_upconv_config_width(self):
        # wider surrogate for the output layer: value 0.1 at threshold
        assert abs(surrogate_grad(np.array(100.0), UPCONV_NEURON) - 0.1) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_leaves_its_input_and_equals_the_plain_expression(self, rng, dtype):
        u = rng.uniform(-200.0, 400.0, (3, 4, 50)).astype(dtype)
        u.flat[:4] = [30, 100, 0, -30]   # both thresholds, zero and a mirror point
        before = u.copy()
        for cfg in (CONV_NEURON, UPCONV_NEURON):
            width = cfg.tau_rho * cfg.v_th
            want = cfg.rho / width * np.exp(-np.abs(u.astype(np.float64) - cfg.v_th) / width)
            got = surrogate_grad(u, cfg)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert np.array_equal(u, before) and u.dtype == dtype


class TestSoftSpikes:
    def test_half_at_threshold(self):
        assert np.allclose(soft_spikes(np.full(3, 30.0), CONV_NEURON), 0.5)

    def test_monotone(self, rng):
        drive = np.sort(rng.uniform(-100, 200, 64))
        s = soft_spikes(drive, CONV_NEURON)
        assert np.all(np.diff(s) >= 0)
        assert np.all((s > 0) & (s < 1))

    def test_grad_matches_finite_difference(self, rng):
        u = rng.uniform(-50, 150, 20)
        g = soft_spike_grad(u, UPCONV_NEURON)
        h = 1e-5
        fd = (soft_spikes(u + h, UPCONV_NEURON) - soft_spikes(u - h, UPCONV_NEURON)) / (2 * h)
        assert np.max(np.abs(g - fd)) < 1e-9


class TestNeuronConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NeuronConfig(v_th=0, tau_s=1, tau_r=1, lam=1, tau_rho=1, rho=10)
        with pytest.raises(ValueError):
            NeuronConfig(v_th=30, tau_s=1, tau_r=1, lam=1, tau_rho=0, rho=10)
