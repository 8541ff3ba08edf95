"""One test per release criterion, each printing a PASS line on success.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
verdict lines.  The training-smoke criterion performs a full 200-pair,
30-epoch run and dominates the suite's runtime; it is marked `slow`, so
`pytest -m "not slow"` runs everything else.
"""
import time

import numpy as np
import pytest

import helpers
from spikesr.events import downsample_2x
from spikesr.kernels import generate_spikes, membrane, refractory_kernel, spike_kernel
from spikesr.metrics import rmse_st
from spikesr.model import (NetworkSpec, backward_pass, count_flops, count_params,
                           forward, init_weights)
from spikesr.synth import synth_moving_bar
from spikesr.training import TrainConfig, backward, loss_total, train

SEED = 20260822


def test_criterion_01_parameter_counts():
    dual = count_params(NetworkSpec("dual_layer"))
    ultra = count_params(NetworkSpec("ultralight"))
    assert dual == 464
    assert ultra == 232
    assert ultra * 2 == dual
    print("PASS criterion 1: parameter counts 464 / 232")


def test_criterion_02_flop_formula():
    assert count_flops(NetworkSpec("dual_layer"), 10, 10, 10) == 1_312_000
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        h, w, t = (int(v) for v in rng.integers(1, 40, 3))
        for variant in ("dual_layer", "ultralight"):
            spec = NetworkSpec(variant)
            expect = 0
            # layer 1 keeps the input size, layer 2 doubles it
            for layer, (oh, ow) in zip(spec.layers, ((h, w), (2 * h, 2 * w))):
                expect += (2 * layer.kernel_h * layer.kernel_w
                           * layer.in_channels * layer.out_channels
                           * oh * ow * t)
            if variant == "ultralight":
                expect *= 2
            assert count_flops(spec, h, w, t) == expect
    print("PASS criterion 2: FLOP formula exact on 20 random dimension triples")


def test_criterion_03_kernel_identities():
    for tau in (1.0, 4.0):
        values = spike_kernel(tau, 1.0, 64)
        assert abs(values[int(tau)] - 1.0) <= 1e-9
    for lam, tau in ((1.0, 1.0), (1.0, 4.0), (2.5, 3.0)):
        assert refractory_kernel(tau, lam, 1.0, 16)[0] == -lam
    print("PASS criterion 3: spike kernel peaks at 1, refractory starts at -lam")


def test_criterion_04_hand_simulation():
    from spikesr.kernels import NeuronConfig
    neuron = NeuronConfig(v_th=30, tau_s=1, tau_r=1, lam=1, tau_rho=1, rho=10)
    eps = spike_kernel(1.0, 1.0, 8)
    drive = np.zeros(8)
    drive[1:] = 40.0 * eps[:7]
    spikes, _ = generate_spikes(drive, neuron)
    u = membrane(drive, spikes, neuron)
    assert list(np.flatnonzero(spikes)) == [2]
    assert u[2] == 40.0
    print("PASS criterion 4: 40*eps(t-1) fixture spikes exactly once, at t=2")


def test_criterion_05_metric_oracle_equivalence():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(50):
        w = int(rng.integers(4, 17))
        h = int(rng.integers(4, 17))
        dur = int(rng.integers(10, 101))
        gt = helpers.random_stream(rng, w, h, dur, int(rng.integers(20, 301)))
        out = helpers.random_stream(rng, w, h, dur, int(rng.integers(0, 301)))
        steps = dur
        rep = rmse_st(out, gt, steps)
        want_rmse, want_t, want_s, want_np = helpers.rmse_st_oracle(out, gt, steps)
        assert rep.mse_t_raw == want_t
        assert rep.mse_s_raw == want_s
        assert rep.n_p == want_np
        assert rep.rmse_st == pytest.approx(want_rmse, rel=1e-9)
        t0 = min(s.t0 for s in (out, gt) if len(s))
        assert rep.pa_percent == helpers.pa_oracle(out, gt, steps, t0)[0]
    for _ in range(20):
        s = helpers.random_stream(rng, 10, 10, 50, 80)
        rep = rmse_st(s, s, 50)
        assert rep.rmse_st == 0.0
        assert rep.pa_percent == 100.0
    print("PASS criterion 5: metrics match brute-force oracles on 50 streams "
          "+ 20 identity cases")


def test_criterion_06_gradient_certification():
    started = time.monotonic()
    h_fd = 1e-3
    rng = np.random.default_rng(SEED + 6)
    inp = rng.integers(0, 3, (2, 4, 4, 8)).astype(float)
    gt = rng.integers(0, 2, (2, 8, 8, 8)).astype(float)
    for variant in ("dual_layer", "ultralight"):
        spec = NetworkSpec(variant)
        weights = init_weights(spec, seed=3)
        log_var = np.array([0.2, -0.1, 0.05])

        def value():
            out, _ = forward(spec, weights, inp, spike_mode="soft")
            return loss_total(out, gt, log_var)[0]

        out, caches = forward(spec, weights, inp, spike_mode="soft")
        grads = backward(spec, weights, caches, out, gt, log_var)
        checked = 0
        for li, w in enumerate(weights):
            flat = w.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h_fd
                hi = value()
                flat[idx] = orig - h_fd
                lo = value()
                flat[idx] = orig
                fd = (hi - lo) / (2 * h_fd)
                got = grads.weights[li].ravel()[idx]
                assert abs(got - fd) <= 1e-3 * abs(fd) + 1e-9, \
                    f"{variant} layer {li} weight {idx}: {got} vs {fd}"
                checked += 1
        assert checked == count_params(spec)
        for i in range(3):
            orig = log_var[i]
            log_var[i] = orig + h_fd
            hi = value()
            log_var[i] = orig - h_fd
            lo = value()
            log_var[i] = orig
            fd = (hi - lo) / (2 * h_fd)
            assert abs(grads.log_var[i] - fd) <= 1e-6 * max(abs(fd), 1.0)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"certification took {elapsed:.1f}s"
    print(f"PASS criterion 6: all weight and log-variance gradients match "
          f"central differences ({elapsed:.1f}s)")


def test_criterion_07_dual_forward_contracts():
    spec = NetworkSpec("ultralight")
    weights = init_weights(spec, seed=4)
    rng = np.random.default_rng(SEED + 7)
    for _ in range(10):
        inp = rng.integers(0, 4, (2, 6, 6, 12)).astype(float)
        first, _ = forward(spec, weights, inp)
        again, _ = forward(spec, weights, inp)
        assert first.tobytes() == again.tobytes()
    inp = rng.integers(0, 4, (2, 6, 6, 12)).astype(float)
    out, caches = forward(spec, weights, inp)
    g_out = rng.standard_normal(out.shape)
    combined = backward_pass(spec, weights, caches, g_out)
    for i in range(len(weights)):
        total = sum(backward_pass(spec, weights, [cache], g_out[c:c + 1])[i]
                    for c, cache in enumerate(caches))
        denom = max(np.abs(total).max(), 1e-300)
        assert np.max(np.abs(combined[i] - total)) / denom <= 1e-10
    print("PASS criterion 7: repeated dual forward bit-identical; shared gradient is "
          "the per-pass sum")


def build_smoke_corpus(n_pairs=200):
    """Dense slow bars: high per-pixel counts make pooled-count matching
    the dominant, learnable part of the objective."""
    pairs = []
    for i in range(n_pairs):
        r = np.random.default_rng([11, i])
        hr = synth_moving_bar(32, 32, 64.0, r.uniform(0.08, 0.15),
                              r.uniform(9.0, 13.0), seed=1000 + i)
        pairs.append((downsample_2x(hr), hr))
    return pairs


@pytest.mark.slow
def test_criterion_08_training_smoke():
    pairs = build_smoke_corpus(200)
    split = len(pairs) - 20
    cfg = TrainConfig(variant="ultralight", steps=64, epochs=30,
                      batch_size=8, lr=0.05, seed=3)
    started = time.monotonic()
    result = train(cfg, pairs[:split], pairs[split:])
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    initial = result.initial_val_rmse
    final = result.final_val_rmse
    improvement = (initial - final) / initial
    for row in result.rows:
        assert row.w1 > 0 and row.w2 > 0 and row.w3 > 0
    assert np.any(result.log_var != 0.0)
    assert improvement >= 0.10, \
        f"validation RMSE {initial:.4f} -> {final:.4f} ({improvement:.1%})"
    print(f"PASS criterion 8: val RMSE {initial:.4f} -> {final:.4f} "
          f"({improvement:.1%} in {elapsed:.0f}s)")


def test_criterion_09_pipeline_consistency(tmp_path, capsys):
    from spikesr.cli import main as cli

    corpus = tmp_path / "corpus"
    assert cli(["synth", "--out", str(corpus), "--n", "6",
                "--size", "16x16", "--seed", "2"]) == 0
    assert cli(["downsample", "--manifest", str(corpus / "manifest.txt")]) == 0
    ckpt = tmp_path / "model.ckpt"
    capsys.readouterr()
    assert cli(["train", "--pairs", str(corpus / "pairs.txt"),
                "--epochs", "2", "--batch", "2", "--steps", "64",
                "--seed", "1", "--val-count", "1", "--out", str(ckpt)]) == 0
    train_out = capsys.readouterr().out
    reported = float(train_out.split("final_val_rmse_st=")[1].splitlines()[0])
    # the validation pair is the last manifest line
    last_lr, last_hr = (corpus / "pairs.txt").read_text().splitlines()[-1].split(",")
    sr = tmp_path / "sr.evbin"
    assert cli(["infer", "--checkpoint", str(ckpt),
                "--input", str(corpus / last_lr), "--out", str(sr),
                "--steps", "64"]) == 0
    capsys.readouterr()
    assert cli(["eval", "--pred", str(sr), "--gt", str(corpus / last_hr),
                "--steps", "64"]) == 0
    kv = dict(line.split("=") for line in
              capsys.readouterr().out.strip().splitlines())
    assert abs(float(kv["rmse_st"]) - reported) <= 1e-9
    print(f"PASS criterion 9: pipeline eval reproduces training validation "
          f"RMSE ({reported!r})")


def test_criterion_10_downsample_conservation():
    rng = np.random.default_rng(SEED + 10)
    for _ in range(100):
        w = int(rng.integers(2, 33))
        h = int(rng.integers(2, 33))
        stream = helpers.random_stream(rng, w, h, int(rng.integers(5, 60)),
                                       int(rng.integers(1, 200)))
        small = downsample_2x(stream)
        assert len(small) == len(stream)
        assert small.width == (w + 1) // 2 and small.height == (h + 1) // 2
        # order within the stream is stable, so arrays pair up directly
        assert np.array_equal(small.t, stream.t)
        assert np.array_equal(small.p, stream.p)
        assert np.array_equal(small.x, stream.x // 2)
        assert np.array_equal(small.y, stream.y // 2)
    print("PASS criterion 10: downsampling halves coordinates and keeps "
          "every event on 100 random streams")
