import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import helpers
import spikesr.cli
import spikesr.events
import spikesr.metrics
import spikesr.model
import spikesr.training
from spikesr.cli import main
from spikesr.events import EventStream, downsample_2x, steps_to_cover
from spikesr.io import guess_format, load_events, save_events
from spikesr.model import (NetworkSpec, init_weights, load_checkpoint, save_checkpoint,
                           super_resolve)
from spikesr.synth import synth_moving_bar
from spikesr.training import TrainConfig, TrainingError


def run(*argv):
    return main([str(a) for a in argv])


def read_ppm(path):
    """[H, W, 3] bytes of a binary PPM."""
    head, body = path.read_bytes().split(b"255\n", 1)
    width, height = (int(v) for v in head.split()[1:3])
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)


def refused_outs(tmp_path, name):
    """Output paths refused before any work: one in a missing directory, an
    existing directory, `.` (tests run it from tmp_path) and `/`."""
    (tmp_path / "existing").mkdir(exist_ok=True)
    return [tmp_path / "missing" / name, tmp_path / "existing", Path("."), Path("/")]


def make_corpus(tmp_path, n=6, size="16x16", seed=0):
    corpus = tmp_path / "corpus"
    assert run("synth", "--out", corpus, "--n", n, "--size", size,
               "--seed", seed) == 0
    assert run("downsample", "--manifest", corpus / "manifest.txt") == 0
    return corpus


class TestSynth:
    def test_writes_streams_and_manifest(self, tmp_path):
        out = tmp_path / "c"
        assert run("synth", "--out", out, "--n", 3, "--size", "24x16") == 0
        names = (out / "manifest.txt").read_text().split()
        assert names == ["bar_000.evbin", "bar_001.evbin", "bar_002.evbin"]
        s = load_events(out / "bar_000.evbin", "evbin")
        assert (s.width, s.height) == (24, 16)
        assert len(s) > 0

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--out", a, "--n", 2, "--seed", 9)
        run("synth", "--out", b, "--n", 2, "--seed", 9)
        assert ((a / "bar_001.evbin").read_bytes()
                == (b / "bar_001.evbin").read_bytes())

    def test_zero_count_is_usage_error(self, tmp_path):
        assert run("synth", "--out", tmp_path / "c", "--n", 0) == 2

    @pytest.mark.parametrize("dur", ["0", "-5", "nan", "inf"])
    def test_bad_duration_is_usage_error(self, tmp_path, capsys, dur):
        out = tmp_path / "c"
        assert run("synth", "--out", out, "--n", 1, "--dur", dur) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--dur" in err[0]
        assert not out.exists()


class TestDownsample:
    def test_emits_lr_twins_and_pairs(self, tmp_path):
        corpus = make_corpus(tmp_path, n=3)
        for i in range(3):
            lr = load_events(corpus / f"bar_{i:03d}.lr.evbin", "evbin")
            hr = load_events(corpus / f"bar_{i:03d}.evbin", "evbin")
            assert (lr.width, lr.height) == (8, 8)
            assert len(lr) == len(hr)
        pairs = (corpus / "pairs.txt").read_text().splitlines()
        assert pairs[0] == "bar_000.lr.evbin,bar_000.evbin"

    def test_corrupt_file_isolated(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        run("synth", "--out", corpus, "--n", 2)
        (corpus / "bar_000.evbin").write_bytes(b"garbage")
        assert run("downsample", "--manifest", corpus / "manifest.txt") == 1
        # the healthy file still got its twin
        assert (corpus / "bar_001.lr.evbin").exists()
        assert not (corpus / "bar_000.lr.evbin").exists()

    def test_out_of_range_csv_isolated(self, tmp_path, capsys):
        (tmp_path / "big.csv").write_text("t_us,x,y,p\n99999999999999999999,2,3,1\n")
        (tmp_path / "ok.csv").write_text("t_us,x,y,p\n1000,2,3,1\n")
        (tmp_path / "manifest.txt").write_text("big.csv\nok.csv\n")
        assert run("downsample", "--manifest", tmp_path / "manifest.txt") == 1
        assert (tmp_path / "ok.lr.csv").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith("big.csv: malformed record at byte 11")

    def test_nmnist_bin_gets_an_evbin_twin(self, tmp_path):
        # nmnist_bin cannot be written, so the twin of d.bin is d.lr.evbin
        (tmp_path / "d.bin").write_bytes(bytes([0x05, 0x07, 0x80, 0x03, 0xE8,
                                                0x20, 0x21, 0x00, 0x07, 0xD0]))
        (tmp_path / "manifest.txt").write_text("d.bin\n")
        assert run("downsample", "--manifest", tmp_path / "manifest.txt") == 0
        lr = load_events(tmp_path / "d.lr.evbin", "evbin")
        assert (lr.width, lr.height) == (17, 17)
        assert lr.t.tolist() == [1000, 2000] and lr.p.tolist() == [1, -1]
        assert (lr.x.tolist(), lr.y.tolist()) == ([2, 16], [3, 16])
        assert (tmp_path / "pairs.txt").read_text() == "d.lr.evbin,d.bin\n"

    def test_pairs_keep_the_manifest_paths(self, tmp_path):
        # a subdirectory stays in pairs.txt and an absolute path stays absolute,
        # so train finds every pair where the manifest put it
        corpus, other = tmp_path / "corpus", tmp_path / "other"
        assert run("synth", "--out", corpus / "sub", "--n", 2, "--size", "16x16") == 0
        assert run("synth", "--out", other, "--n", 1, "--size", "16x16", "--seed", 1) == 0
        far = other / "bar_000.evbin"
        (corpus / "manifest.txt").write_text(f"sub/bar_000.evbin\nsub/bar_001.evbin\n{far}\n")
        assert run("downsample", "--manifest", corpus / "manifest.txt") == 0
        assert (corpus / "pairs.txt").read_text().splitlines() == [
            "sub/bar_000.lr.evbin,sub/bar_000.evbin", "sub/bar_001.lr.evbin,sub/bar_001.evbin",
            f"{other / 'bar_000.lr.evbin'},{far}"]
        assert run("train", "--pairs", corpus / "pairs.txt", "--epochs", 1, "--steps", 16,
                   "--val-count", 1, "--out", tmp_path / "m.ckpt") == 0

    def test_path_with_a_comma_is_usage_error_before_any_work(self, tmp_path, capsys):
        # pairs.txt separates its two paths with a comma, so train could not read the line
        assert run("synth", "--out", tmp_path, "--n", 2, "--size", "8x8") == 0
        (tmp_path / "bar_001.evbin").rename(tmp_path / "a,b.evbin")
        (tmp_path / "manifest.txt").write_text("bar_000.evbin\na,b.evbin\n")
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run("downsample", "--manifest", tmp_path / "manifest.txt") == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'manifest.txt'}:2: 'a,b.evbin' "
                                           f"holds a comma, which a pairs.txt path cannot hold\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_no_inputs_is_usage_error(self):
        assert run("downsample") == 2

    def test_manifest_and_inputs_together_is_usage_error(self, tmp_path, monkeypatch):
        # the manifest would otherwise win and the inputs go unread
        calls = []
        monkeypatch.setattr(spikesr.cli, "load_events", lambda *a: calls.append(a))
        assert run("downsample", "--manifest", tmp_path / "m.txt", tmp_path / "a.evbin") == 2
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_each_failure_names_its_path_once(self, tmp_path, capsys, monkeypatch):
        noise, big, missing = (tmp_path / n for n in ("noise.evbin", "big.csv", "missing.csv"))
        noise.write_bytes(b"garbage")
        big.write_text("t_us,x,y,p\n99999999999999999999,2,3,1\n")
        assert run("downsample", noise, big, missing) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for line, path in zip(err, (noise, big, missing)):
            assert line.startswith("error: ") and line.count(str(path)) == 1, line
        # a message that does not name its file gets the path put in front
        (tmp_path / "ok.csv").write_text("t_us,x,y,p\n1000,2,3,1\n")

        def refuse(stream):
            raise spikesr.events.EventError("no room")
        monkeypatch.setattr(spikesr.events, "downsample_2x", refuse)
        assert run("downsample", tmp_path / "ok.csv") == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'ok.csv'}: no room\n"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small trained checkpoint shared by the infer/eval tests."""
    tmp_path = tmp_path_factory.mktemp("trained")
    corpus = make_corpus(tmp_path, n=5)
    ckpt = tmp_path / "model.ckpt"
    report = tmp_path / "report.csv"
    code = run("train", "--pairs", corpus / "pairs.txt", "--epochs", 2,
               "--batch", 2, "--steps", 32, "--seed", 1,
               "--out", ckpt, "--report", report)
    assert code == 0
    return corpus, ckpt, report


C8_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "ultralight_c8.ckpt"


@pytest.fixture(scope="module")
def firing(tmp_path_factory):
    """Dense 32x32 bars and the committed criterion-8 checkpoint, which fires on them.

    The `trained` network emits no events, so eval tests that must score a
    non-empty prediction run their infer step through this pair instead.
    """
    corpus = tmp_path_factory.mktemp("firing")
    names = [f"bar_{i:03d}.evbin" for i in range(2)]
    for i, name in enumerate(names):
        save_events(synth_moving_bar(32, 32, 64.0, 0.3, 6.0, seed=i), corpus / name, "evbin")
    (corpus / "manifest.txt").write_text("\n".join(names) + "\n")
    assert run("downsample", "--manifest", corpus / "manifest.txt") == 0
    return corpus, C8_CHECKPOINT


def infer_nonempty(ckpt, lr_path, out, *extra):
    assert run("infer", "--checkpoint", ckpt, "--input", lr_path, "--out", out, *extra) == 0
    assert len(load_events(out, guess_format(out))) > 0


class TestTrain:
    def test_checkpoint_and_report(self, trained):
        corpus, ckpt, report = trained
        spec, weights, log_var, seed = load_checkpoint(ckpt)
        assert spec.variant == "ultralight"
        assert seed == 1
        lines = report.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,w1,w2,w3,val_rmse_st"
        assert len(lines) == 3

    def test_rerun_is_byte_identical(self, tmp_path, trained):
        corpus, ckpt, _ = trained
        again = tmp_path / "again.ckpt"
        assert run("train", "--pairs", corpus / "pairs.txt", "--epochs", 2,
                   "--batch", 2, "--steps", 32, "--seed", 1,
                   "--out", again) == 0
        assert again.read_bytes() == ckpt.read_bytes()

    def test_config_file_supplies_defaults(self, tmp_path):
        corpus = make_corpus(tmp_path, n=3)
        cfg = tmp_path / "train.ini"
        cfg.write_text("[train]\nepochs = 1\nbatch = 2\nsteps = 32\nseed = 4\n"
                       f"[data]\npairs = {corpus / 'pairs.txt'}\n")
        out = tmp_path / "m.ckpt"
        assert run("train", "--config", cfg, "--out", out) == 0
        assert load_checkpoint(out)[3] == 4

    def test_flag_overrides_config(self, tmp_path):
        corpus = make_corpus(tmp_path, n=3)
        cfg = tmp_path / "train.ini"
        cfg.write_text("[train]\nepochs = 1\nbatch = 2\nsteps = 32\nseed = 4\n"
                       f"[data]\npairs = {corpus / 'pairs.txt'}\n")
        out = tmp_path / "m.ckpt"
        assert run("train", "--config", cfg, "--seed", 11, "--out", out) == 0
        assert load_checkpoint(out)[3] == 11

    def test_unset_flags_take_train_config_defaults(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path, n=3)
        seen = []

        def fake_train(cfg, pairs, val_pairs):
            seen.append(cfg)
            raise TrainingError("stop before training")
        monkeypatch.setattr(spikesr.training, "train", fake_train)
        assert run("train", "--pairs", corpus / "pairs.txt") == 1
        assert seen == [TrainConfig()]

    def test_memory_error_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        corpus = make_corpus(tmp_path, n=3)
        capsys.readouterr()
        for raised, printed in ((MemoryError("Unable to allocate 71.5 GiB for an array"),
                                 "error: Unable to allocate 71.5 GiB for an array"),
                                (MemoryError(), "error: out of memory")):
            def fake_train(cfg, pairs, val_pairs):
                raise raised
            monkeypatch.setattr(spikesr.training, "train", fake_train)
            assert run("train", "--pairs", corpus / "pairs.txt", "--val-count", 1) == 1
            assert capsys.readouterr().err.splitlines() == [printed]

    def test_missing_pairs_is_usage_error(self):
        assert run("train", "--epochs", 1) == 2

    @pytest.mark.parametrize("flag,value", [("--batch", 0), ("--batch", -1),
                                            ("--epochs", -1), ("--steps", 0),
                                            ("--val-count", -1), ("--val-count", 0),
                                            ("--val-count", 2), ("--lr", 0), ("--lr", -0.1),
                                            ("--lr", "nan")])
    def test_values_it_cannot_honour_are_usage_errors(self, tmp_path, capsys, flag, value):
        # the manifest names no real file: the check must come before any stream is loaded
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("missing0.lr.evbin,missing0.evbin\n"
                            "missing1.lr.evbin,missing1.evbin\n")
        assert run("train", "--pairs", manifest, flag, value,
                   "--out", tmp_path / "m.ckpt") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("section,key,value", [("model", "variant", "resnet"),
                                                   ("train", "epochs", "abc"),
                                                   ("train", "lr", "fast")])
    def test_config_values_it_cannot_honour_are_usage_errors(self, tmp_path, capsys,
                                                             section, key, value):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("missing0.lr.evbin,missing0.evbin\n"
                            "missing1.lr.evbin,missing1.evbin\n")
        cfg = tmp_path / "train.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n[data]\npairs = {manifest}\n")
        assert run("train", "--config", cfg, "--out", tmp_path / "m.ckpt") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and value in err[0]
        if key != "variant":   # a value that does not parse is traced to its line
            assert str(cfg) in err[0] and f"[{section}] {key}" in err[0]

    def test_config_error_is_the_same_in_every_process(self, tmp_path):
        # a set of the config keys iterates in an order set by hashing, which varies
        # between processes; with several unreadable values the first in flag order is named
        cfg = tmp_path / "train.ini"
        cfg.write_text("[train]\nepochs = e\nbatch = b\nlr = l\nseed = s\n"
                       f"[data]\npairs = {tmp_path / 'pairs.txt'}\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        errors = []
        for hash_seed in ("1", "3"):
            done = subprocess.run(
                [sys.executable, "-m", "spikesr.cli", "train", "--config", str(cfg)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed})
            assert done.returncode == 2 and done.stdout == ""
            errors.append(done.stderr)
        assert errors[0] == errors[1] and "[train] epochs" in errors[0]

    def test_warns_about_events_past_the_grid(self, tmp_path, capsys):
        # 64 ms streams on a 32-step grid: everything past 32 ms of each pair is dropped
        corpus = make_corpus(tmp_path, n=3)
        expected = 0
        for line in (corpus / "pairs.txt").read_text().split():
            lr, hr = (load_events(corpus / name, "evbin") for name in line.split(","))
            expected += int(np.sum(lr.t - lr.t0 > 32_000) + np.sum(hr.t - lr.t0 > 32_000))
        assert expected > 0
        assert run("train", "--pairs", corpus / "pairs.txt", "--epochs", 1, "--batch", 2,
                   "--steps", 32, "--out", tmp_path / "m.ckpt") == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"warning: {expected} events ")
        assert "32-step grid" in err[0]

    def test_warns_about_skipped_validation_pairs(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n=3)
        # the validation pair's ground truth is empty, so its RMSE is undefined
        save_events(EventStream.empty(16, 16), corpus / "bar_002.evbin", "evbin")
        assert run("train", "--pairs", corpus / "pairs.txt", "--epochs", 1, "--batch", 2,
                   "--steps", 64, "--val-count", 1, "--out", tmp_path / "m.ckpt") == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: 1 of 1 validation pairs have no defined RMSE and were "
                       "left out of val_rmse_st"]

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_missing_output_directory_is_usage_error_before_any_work(
            self, tmp_path, capsys, monkeypatch, flag):
        corpus = make_corpus(tmp_path, n=3)
        calls = []

        def fake_train(*args):
            calls.append(args)
            raise TrainingError("trained despite an unwritable output")
        monkeypatch.setattr(spikesr.training, "train", fake_train)
        monkeypatch.chdir(tmp_path)
        for bad in refused_outs(tmp_path, "out.file"):
            paths = {"--out": tmp_path / "m.ckpt", "--report": tmp_path / "report.csv"}
            paths[flag] = bad
            before = sorted(tmp_path.rglob("*"))
            assert run("train", "--pairs", corpus / "pairs.txt", "--epochs", 1,
                       "--out", paths["--out"], "--report", paths["--report"]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
            assert calls == [] and sorted(tmp_path.rglob("*")) == before

    def test_oversized_val_split_is_usage_error(self, tmp_path):
        corpus = make_corpus(tmp_path, n=3)
        assert run("train", "--pairs", corpus / "pairs.txt", "--epochs", 1,
                   "--val-count", 3, "--out", tmp_path / "m.ckpt") == 2

    def test_reads_each_training_pair_only_when_train_bins_it(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path, n=5)
        load = spikesr.cli._load_stream
        order, live, refs = [], [], []

        def recorded_load(path):
            gc.collect()
            live.append(sum(r() is not None for r in refs))   # earlier streams still alive
            stream = load(path)
            order.append(Path(path).name)
            refs.append(weakref.ref(stream.t))
            return stream
        monkeypatch.setattr(spikesr.cli, "_load_stream", recorded_load)
        assert run("train", "--pairs", corpus / "pairs.txt", "--epochs", 1, "--batch", 2,
                   "--steps", 32, "--val-count", 2, "--out", tmp_path / "m.ckpt") == 0
        lines = (corpus / "pairs.txt").read_text().split()
        assert order == [name for line in lines for name in line.split(",")]
        # a pair's LR stream is alive while its HR stream loads, and no other stream
        # but the HR streams of the validation pairs read before it, which stay
        assert live == [0, 1] * 3 + [0, 1, 1, 2]

    @pytest.mark.parametrize("faults,named", [
        ({"bar_000.lr.evbin": "unreadable", "bar_002.lr.evbin": "unreadable"},
         "bar_000.lr.evbin"),
        ({"bar_001.evbin": "20x20", "bar_002.evbin": "20x20"}, "training pair 1: 20x20"),
        # a training pair is checked as it is read, before a later file is
        ({"bar_000.evbin": "20x20", "bar_001.lr.evbin": "unreadable"},
         "training pair 0: 20x20")],
        ids=["unreadable_files", "mismatches", "mismatch_then_unreadable"])
    def test_first_fault_in_manifest_order_is_reported(self, tmp_path, capsys, faults, named):
        corpus = make_corpus(tmp_path, n=3)
        for name, fault in faults.items():
            if fault == "unreadable":
                (corpus / name).write_bytes(b"not an event file")
            else:
                save_events(synth_moving_bar(20, 20, 64.0, 0.3, 2.0, seed=1),
                            corpus / name, "evbin")
        capsys.readouterr()
        assert run("train", "--pairs", corpus / "pairs.txt", "--epochs", 1,
                   "--val-count", 1, "--out", tmp_path / "m.ckpt") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err


class TestInfer:
    def test_writes_upscaled_stream(self, trained, tmp_path):
        corpus, ckpt, _ = trained
        out = tmp_path / "sr.evbin"
        assert run("infer", "--checkpoint", ckpt, "--input",
                   corpus / "bar_000.lr.evbin", "--out", out,
                   "--steps", 32) == 0
        sr = load_events(out, "evbin")
        assert (sr.width, sr.height) == (16, 16)

    def test_default_steps_follow_checkpoint_dt(self, tmp_path, monkeypatch):
        # a 64 ms stream is 32 steps at dt_ms=2; counting 1 ms steps would run 64
        spec = NetworkSpec("ultralight", dt_ms=2.0)
        ckpt = tmp_path / "dt2.ckpt"
        save_checkpoint(ckpt, spec, init_weights(spec, seed=0), np.zeros(3), seed=0)
        src = tmp_path / "lr.evbin"
        save_events(downsample_2x(synth_moving_bar(32, 32, 64.0, 0.3, 2.0, seed=1)),
                    src, "evbin")
        steps = []
        inner = spikesr.model.forward

        def recording(spec, weights, inp, *args, **kwargs):
            steps.append(inp.shape[-1])
            return inner(spec, weights, inp, *args, **kwargs)
        monkeypatch.setattr(spikesr.model, "forward", recording)
        assert run("infer", "--checkpoint", ckpt, "--input", src,
                   "--out", tmp_path / "sr.evbin") == 0
        assert sum(steps) == 32   # over however many windows super_resolve cuts

    def test_prints_events_in_out_and_dropped(self, firing, tmp_path, capsys):
        corpus, ckpt = firing
        lr_path, out = corpus / "bar_000.lr.evbin", tmp_path / "sr.evbin"
        infer_nonempty(ckpt, lr_path, out, "--steps", 32)
        lr = load_events(lr_path, "evbin")
        dropped = helpers.voxel_grid(lr, 32)[1]
        assert dropped > 0
        n_out = len(load_events(out, "evbin"))
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.endswith(f"({n_out} events at 32x32) events_in={len(lr)} "
                             f"events_out={n_out} dropped={dropped}")

    def test_empty_input_warns_but_succeeds(self, trained, tmp_path, capsys):
        _, ckpt, _ = trained
        empty_path = tmp_path / "empty.evbin"
        save_events(EventStream.empty(8, 8), empty_path, "evbin")
        out = tmp_path / "out.evbin"
        assert run("infer", "--checkpoint", ckpt, "--input", empty_path,
                   "--out", out) == 0
        captured = capsys.readouterr()
        assert "empty input" in captured.err
        assert "(0 events at 16x16)" in captured.out
        empty = load_events(out, "evbin")
        assert len(empty) == 0 and (empty.width, empty.height) == (16, 16)

    def test_edited_checkpoint_header_is_runtime_error(self, trained, tmp_path, capsys):
        # a stride-2 first layer would crash the forward pass, so loading refuses it
        corpus, ckpt, _ = trained
        head, body = ckpt.read_bytes().split(b"\n\n", 1)
        edited = head.replace(b"layer0=conv 1 8 5 5 1 2", b"layer0=conv 1 8 5 5 2 2")
        assert edited != head
        bad = tmp_path / "stride2.ckpt"
        bad.write_bytes(edited + b"\n\n" + body)
        assert run("infer", "--checkpoint", bad, "--input", corpus / "bar_000.lr.evbin",
                   "--out", tmp_path / "sr.evbin") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "layer0" in err[0]

    def test_missing_checkpoint_is_runtime_error(self, tmp_path):
        assert run("infer", "--checkpoint", tmp_path / "nope.ckpt",
                   "--input", tmp_path / "nope.evbin",
                   "--out", tmp_path / "x.evbin") == 1

    @pytest.mark.parametrize("suffix", ["evbin", "csv"])
    @pytest.mark.parametrize("scene", ["bars", "empty_output", "dead_spans", "dt_2ms"])
    def test_file_is_save_events_of_super_resolve(self, firing, tmp_path, scene, suffix):
        # infer writes each window's events as it makes them; the file is the one
        # the whole output stream would give
        corpus, ckpt = firing
        lr = load_events(corpus / "bar_000.lr.evbin", "evbin")
        if scene == "empty_output":
            lr = EventStream(lr.t[:3], lr.x[:3], lr.y[:3], lr.p[:3], lr.width, lr.height)
        elif scene == "dead_spans":   # 2 s without an event between the bars
            lr = helpers.repeated(lr, 3, 2_000_000)
        elif scene == "dt_2ms":   # the committed weights need doubling to fire at 2 ms
            spec, weights, log_var, seed = load_checkpoint(ckpt)
            ckpt = tmp_path / "dt2.ckpt"
            save_checkpoint(ckpt, NetworkSpec(spec.variant, dt_ms=2.0), [2 * w for w in weights],
                            log_var, seed)
        src, out, want = (tmp_path / name for name in ("in.evbin", f"sr.{suffix}",
                                                          f"want.{suffix}"))
        save_events(lr, src, "evbin")
        assert run("infer", "--checkpoint", ckpt, "--input", src, "--out", out) == 0
        spec, weights, _, _ = load_checkpoint(ckpt)
        whole, _ = super_resolve(spec, weights, lr, steps_to_cover(lr.span_us, spec.dt_ms))
        save_events(whole, want, suffix)
        assert out.read_bytes() == want.read_bytes()
        assert (len(whole) == 0) == (scene == "empty_output")
        if scene == "dead_spans":   # each bar gives events
            assert np.unique((whole.t - lr.t0) // 2_000_000).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("older", [False, True])
    @pytest.mark.parametrize("suffix", ["evbin", "csv"])
    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_failure_part_way_leaves_the_output_as_it_was(self, firing, tmp_path, capsys,
                                                          monkeypatch, suffix, fail_at, older):
        # the windows go to a file beside the output, which replaces it only once
        # the last window is in
        corpus, ckpt = firing
        out = tmp_path / f"sr.{suffix}"
        if older:
            save_events(EventStream.empty(32, 32), out, suffix)
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        inner, calls = spikesr.model._run_box, []

        def failing(*args):
            if len(calls) == fail_at:
                raise MemoryError("window failed")
            calls.append(inner(*args))
            return calls[-1]
        monkeypatch.setattr(spikesr.model, "_run_box", failing)
        assert run("infer", "--checkpoint", ckpt, "--input", corpus / "bar_000.lr.evbin",
                   "--out", out) == 1
        assert capsys.readouterr().err.endswith("error: window failed\n")
        assert sum(part[0].size for part in calls) > 0 or fail_at == 0
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_output_through_a_symlink_replaces_its_target(self, firing, tmp_path):
        corpus, ckpt = firing
        target, link = tmp_path / "sr.evbin", tmp_path / "link.evbin"
        target.write_bytes(b"older")
        link.symlink_to(target)
        infer_nonempty(ckpt, corpus / "bar_000.lr.evbin", link)
        assert link.is_symlink() and len(load_events(target, "evbin")) > 0
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_output_that_is_not_a_regular_file_is_refused_before_any_window(
            self, firing, tmp_path, capsys, monkeypatch):
        # the windows go to a file that replaces the output, which a pipe cannot be
        corpus, ckpt = firing
        calls = []
        monkeypatch.setattr(spikesr.model, "_run_box", lambda *a: calls.append(a))
        fifo = tmp_path / "sr.evbin"
        os.mkfifo(fifo)
        assert run("infer", "--checkpoint", ckpt, "--input", corpus / "bar_000.lr.evbin",
                   "--out", fifo) == 1
        assert capsys.readouterr().err == (f"error: {fifo}: cannot write evbin part by part "
                                           f"to a file that is not a regular file\n")
        assert calls == [] and sorted(tmp_path.iterdir()) == [fifo]

    def test_memory_grows_less_than_100_bytes_per_input_event(self, tmp_path):
        # the output goes to the file window by window, so each added input event
        # costs its arrays and its grid coordinates, which share x and y with them:
        # about 46 bytes an event were measured here, and 166 when the output was
        # held whole.  Copies 100 ms apart keep the network's box the size of one bar
        lr = downsample_2x(synth_moving_bar(64, 64, 300.0, 0.25, 11.0, seed=1))
        peaks = []
        for k in (1, 3):
            src = tmp_path / f"in{k}.evbin"
            save_events(helpers.repeated(lr, k, 100_000), src, "evbin")
            tracemalloc.start()
            try:
                assert run("infer", "--checkpoint", C8_CHECKPOINT, "--input", src,
                           "--out", tmp_path / "sr.evbin") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (2 * len(lr)) < 100, peaks

    def test_unwritable_output_is_usage_error_before_any_work(self, firing, tmp_path,
                                                              capsys, monkeypatch):
        corpus, ckpt = firing
        calls = []
        monkeypatch.setattr(spikesr.model, "super_resolve", lambda *a: calls.append(a))
        out = tmp_path / "sr.bin"
        assert run("infer", "--checkpoint", ckpt, "--input", corpus / "bar_000.lr.evbin",
                   "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {out}: ")
        assert calls == [] and not out.exists()

    def test_missing_output_directory_is_usage_error_before_any_work(
            self, firing, tmp_path, capsys, monkeypatch):
        corpus, ckpt = firing
        calls = []
        monkeypatch.setattr(spikesr.model, "super_resolve", lambda *a: calls.append(a))
        monkeypatch.chdir(tmp_path)
        for out in refused_outs(tmp_path, "sr.evbin"):
            before = sorted(tmp_path.rglob("*"))
            assert run("infer", "--checkpoint", ckpt, "--input", corpus / "bar_000.lr.evbin",
                       "--out", out) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {out}: ")
            assert calls == [] and sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("steps", [0, -3])
    def test_non_positive_steps_is_usage_error(self, tmp_path, capsys, steps):
        # the files do not exist, so only a check made before loading passes
        assert run("infer", "--checkpoint", tmp_path / "nope.ckpt",
                   "--input", tmp_path / "nope.evbin",
                   "--out", tmp_path / "x.evbin", "--steps", steps) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--steps" in err[0]


class TestEval:
    def test_single_pair_kv(self, firing, tmp_path, capsys):
        corpus, ckpt = firing
        sr = tmp_path / "sr.evbin"
        infer_nonempty(ckpt, corpus / "bar_000.lr.evbin", sr, "--steps", 32)
        capsys.readouterr()
        assert run("eval", "--pred", sr, "--gt", corpus / "bar_000.evbin",
                   "--steps", 32) == 0
        kv = dict(line.split("=") for line in
                  capsys.readouterr().out.strip().splitlines())
        assert float(kv["rmse_st"]) > 0
        assert 0.0 <= float(kv["pa_percent"]) <= 100.0

    def test_identity_eval_is_zero(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n=2)
        capsys.readouterr()
        assert run("eval", "--pred", corpus / "bar_000.evbin",
                   "--gt", corpus / "bar_000.evbin") == 0
        kv = dict(line.split("=") for line in
                  capsys.readouterr().out.strip().splitlines())
        assert float(kv["rmse_st"]) == 0.0
        assert float(kv["pa_percent"]) == 100.0

    def test_batch_manifest_csv(self, tmp_path, firing, capsys):
        corpus, ckpt = firing
        preds = []
        for i in range(2):
            sr = corpus / f"sr_{i}.evbin"
            infer_nonempty(ckpt, corpus / f"bar_{i:03d}.lr.evbin", sr, "--steps", 32)
            preds.append((sr.name, f"bar_{i:03d}.evbin"))
        manifest = corpus / "eval.txt"
        manifest.write_text("\n".join(f"{a},{b}" for a, b in preds) + "\n")
        out_csv = tmp_path / "scores.csv"
        capsys.readouterr()
        assert run("eval", "--manifest", manifest, "--out", out_csv,
                   "--steps", 32) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("pred,rmse_st,")
        assert len(lines) == 4  # header + 2 rows + mean
        assert lines[-1].startswith("mean,")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:3]]
        assert len(lines[-1].split(",")) == len(header)
        mean = dict(zip(header, lines[-1].split(",")))
        for name in ("rmse_st", "pa_percent"):
            want = np.mean([float(row[name]) for row in rows])
            assert float(mean[name]) == pytest.approx(want)

    def test_reports_event_counts(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n=2)
        pred, gt = corpus / "bar_000.evbin", corpus / "bar_001.evbin"
        n_pred, n_gt = len(load_events(pred, "evbin")), len(load_events(gt, "evbin"))
        assert n_pred != n_gt
        capsys.readouterr()
        assert run("eval", "--pred", pred, "--gt", gt) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split("=")[0] for line in lines[-3:]] == ["dropped", "n_pred", "n_gt"]
        kv = dict(line.split("=") for line in lines)
        assert (int(kv["n_pred"]), int(kv["n_gt"])) == (n_pred, n_gt)
        (corpus / "eval.txt").write_text(f"{pred.name},{gt.name}\n")
        assert run("eval", "--manifest", corpus / "eval.txt", "--out", tmp_path / "e.csv") == 0
        header, row, mean = [line.split(",") for line in
                             (tmp_path / "e.csv").read_text().splitlines()]
        assert header[:2] == ["pred", "rmse_st"] and header[-3:] == ["dropped", "n_pred", "n_gt"]
        assert row[1] == kv["rmse_st"] and row[-2:] == [str(n_pred), str(n_gt)]
        assert mean[-2:] == ["", ""]

    def test_warns_about_dropped_events(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n=1)
        capsys.readouterr()
        assert run("eval", "--pred", corpus / "bar_000.evbin",
                   "--gt", corpus / "bar_000.evbin", "--steps", 32) == 0
        out, err = capsys.readouterr()
        kv = dict(line.split("=") for line in out.strip().splitlines())
        assert int(kv["dropped"]) > 0
        assert f"warning: {kv['dropped']} events" in err

    def test_grid_int64_cannot_index_is_runtime_error(self, tmp_path, capsys):
        # every event lies inside the 16x16 sensor; only the cell count is too large
        corpus = make_corpus(tmp_path, n=1)
        capsys.readouterr()
        for steps, why in ((2 ** 61, f"a 2x16x16x{2 ** 61} voxel grid has too many cells"),
                           (10 ** 19, f"step count {10 ** 19} exceeds the int64 maximum")):
            assert run("eval", "--pred", corpus / "bar_000.evbin",
                       "--gt", corpus / "bar_000.evbin", "--steps", steps) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and why in err[0]

    @pytest.mark.slow
    def test_own_peak_per_event_of_a_long_pair(self, tmp_path):
        # the benchmark's infer_long pair (input set 1: 348,454 predicted and 207,656
        # true events).  eval's own peak was measured 51.5 bytes an event above
        # `spikesr info`'s, and 98 when rmse_st sorted the whole pair's keys at once;
        # the bound of 64 leaves about 25 % over the measured figure
        hr = synth_moving_bar(128, 128, 300.0, 0.25, 11.0, seed=1)
        gt, lr, sr = (tmp_path / name for name in ("gt.evbin", "lr.evbin", "sr.evbin"))
        save_events(hr, gt, "evbin")
        save_events(downsample_2x(hr), lr, "evbin")
        infer_nonempty(C8_CHECKPOINT, lr, sr, "--steps", 300)
        events = len(hr) + len(load_events(sr, "evbin"))
        base = helpers.own_peak_rss(["info", "--variant", "ultralight"])
        peak = helpers.own_peak_rss(["eval", "--pred", sr, "--gt", gt])
        assert (peak - base) / events < 64, (peak, base, events)

    def test_two_empty_streams_are_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "empty.evbin"
        save_events(EventStream.empty(8, 8), path, "evbin")
        assert run("eval", "--pred", path, "--gt", path) == 1
        assert "both streams are empty" in capsys.readouterr().err

    def test_geometry_mismatch_is_usage_error(self, tmp_path):
        corpus = make_corpus(tmp_path, n=2)
        assert run("eval", "--pred", corpus / "bar_000.lr.evbin",
                   "--gt", corpus / "bar_000.evbin") == 2
        # a CSV prediction whose events do not fit the ground truth's sensor
        hr_csv = tmp_path / "hr.csv"
        save_events(load_events(corpus / "bar_000.evbin", "evbin"), hr_csv, "csv")
        assert run("eval", "--pred", hr_csv, "--gt", corpus / "bar_000.lr.evbin") == 2

    def test_csv_prediction_scores_like_evbin(self, firing, tmp_path, capsys):
        # CSV stores no geometry; the prediction takes the ground truth's
        corpus, ckpt = firing
        gt = corpus / "bar_000.evbin"
        printed = []
        for name in ("sr.evbin", "sr.csv"):
            infer_nonempty(ckpt, corpus / "bar_000.lr.evbin", tmp_path / name)
            capsys.readouterr()
            assert run("eval", "--pred", tmp_path / name, "--gt", gt) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_csv_sides_take_a_shared_geometry(self, tmp_path, capsys):
        # neither stream reaches the 8x8 sensor's far edge, and the
        # prediction stops short of the ground truth's largest coordinates
        gt = EventStream([0, 1_000, 2_000, 3_000], [0, 5, 2, 6], [1, 3, 6, 2],
                         [1, -1, 1, 1], 8, 8)
        pred = EventStream([0, 1_500, 2_500], [0, 3, 2], [1, 3, 4], [1, 1, -1], 8, 8)
        for stream, stem in ((gt, "gt"), (pred, "pred")):
            for fmt in ("evbin", "csv"):
                save_events(stream, tmp_path / f"{stem}.{fmt}", fmt)
        printed = []
        for p_fmt, g_fmt in (("evbin", "evbin"), ("csv", "evbin"), ("evbin", "csv"),
                             ("csv", "csv")):
            assert run("eval", "--pred", tmp_path / f"pred.{p_fmt}",
                       "--gt", tmp_path / f"gt.{g_fmt}") == 0
            printed.append(capsys.readouterr().out)
        assert printed[1:] == printed[:1] * 3

    def test_non_positive_steps_is_usage_error(self, tmp_path, capsys):
        assert run("eval", "--pred", tmp_path / "nope.evbin",
                   "--gt", tmp_path / "nope.evbin", "--steps", 0) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--steps" in err[0]

    def test_needs_inputs(self):
        assert run("eval") == 2

    @pytest.mark.parametrize("flags", [["--pred", "a.evbin", "--gt", "b.evbin", "--out", "x.csv"],
                                       ["--manifest", "m.txt", "--pred", "a.evbin",
                                        "--gt", "b.evbin"],
                                       ["--manifest", "m.txt", "--gt", "b.evbin"]])
    def test_flags_the_mode_would_ignore_are_usage_errors(self, tmp_path, monkeypatch,
                                                          capsys, flags):
        calls = []
        monkeypatch.setattr(spikesr.cli, "load_events", lambda *a: calls.append(a))
        monkeypatch.chdir(tmp_path)
        assert run("eval", *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_mean_accuracy_leaves_out_pairs_with_no_comparable_cell(self, tmp_path):
        # pair a disagrees on its one shared cell (0 %); pair b shares none (vacuous)
        gt = EventStream([0, 1_000], [0, 1], [0, 1], [1, 1], 4, 4)
        streams = {"gt": gt,
                   "flipped": EventStream([0, 1_000], [0, 3], [0, 3], [-1, 1], 4, 4),
                   "apart": EventStream([0, 1_000], [2, 3], [2, 3], [1, 1], 4, 4)}
        for name, stream in streams.items():
            save_events(stream, tmp_path / f"{name}.evbin", "evbin")
        (tmp_path / "one.txt").write_text("flipped.evbin,gt.evbin\napart.evbin,gt.evbin\n")
        (tmp_path / "none.txt").write_text("apart.evbin,gt.evbin\n")
        means = []
        for manifest in ("one.txt", "none.txt"):
            assert run("eval", "--manifest", tmp_path / manifest,
                       "--out", tmp_path / "e.csv") == 0
            header, *rows, mean = [line.split(",") for line in
                                   (tmp_path / "e.csv").read_text().splitlines()]
            means.append(dict(zip(header, mean))["pa_percent"])
        assert [dict(zip(header, r))["pa_vacuous"] for r in rows] == ["1"]
        assert means == ["0.0", ""]

    def test_missing_output_directory_is_usage_error_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        corpus = make_corpus(tmp_path, n=1)
        (corpus / "eval.txt").write_text("bar_000.evbin,bar_000.evbin\n")
        calls = []
        monkeypatch.setattr(spikesr.metrics, "rmse_st", lambda *a: calls.append(a))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        for out in refused_outs(tmp_path, "e.csv"):
            before = sorted(tmp_path.rglob("*"))
            assert run("eval", "--manifest", corpus / "eval.txt", "--out", out) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {out}: ")
            assert calls == [] and sorted(tmp_path.rglob("*")) == before


class TestRender:
    def test_single_positive_event_is_red(self, tmp_path, capsys):
        path = tmp_path / "one.evbin"
        s = EventStream([500], [2], [1], [1], 4, 3)
        save_events(s, path, "evbin")
        out = tmp_path / "frame.ppm"
        assert run("render", "--input", path, "--out", out) == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P6\n4 3\n255\n")
        img = np.frombuffer(blob.split(b"255\n", 1)[1],
                            dtype=np.uint8).reshape(3, 4, 3)
        assert tuple(img[1, 2]) == (255, 0, 0)
        assert tuple(img[0, 0]) == (255, 255, 255)

    def test_negative_event_is_blue(self, tmp_path):
        path = tmp_path / "one.evbin"
        save_events(EventStream([500], [0], [0], [-1], 2, 2), path, "evbin")
        out = tmp_path / "frame.ppm"
        assert run("render", "--input", path, "--out", out) == 0
        img = np.frombuffer(out.read_bytes().split(b"255\n", 1)[1],
                            dtype=np.uint8).reshape(2, 2, 3)
        assert tuple(img[0, 0]) == (0, 0, 255)

    def test_empty_stream_renders_white(self, tmp_path):
        path = tmp_path / "empty.evbin"
        save_events(EventStream.empty(3, 3), path, "evbin")
        out = tmp_path / "frame.ppm"
        assert run("render", "--input", path, "--out", out) == 0
        img = np.frombuffer(out.read_bytes().split(b"255\n", 1)[1],
                            dtype=np.uint8)
        assert np.all(img == 255)

    def test_every_splits_into_frames(self, tmp_path):
        path = tmp_path / "s.evbin"
        s = EventStream([0, 10_000, 29_000], [0, 1, 2], [0, 0, 0],
                        [1, 1, -1], 4, 4)
        save_events(s, path, "evbin")
        assert run("render", "--input", path, "--out", tmp_path / "f",
                   "--every", 10) == 0
        frames = sorted(tmp_path.glob("f_*.ppm"))
        assert [f.name for f in frames] == ["f_0000.ppm", "f_0001.ppm",
                                            "f_0002.ppm"]

    def test_event_at_the_last_timestamp_lands_in_the_last_frame(self, tmp_path):
        path = tmp_path / "s.evbin"
        save_events(EventStream([0, 5_000, 20_000], [0, 1, 2], [0, 0, 0], [1, 1, 1], 3, 1),
                    path, "evbin")
        assert run("render", "--input", path, "--out", tmp_path / "f", "--every", 10) == 0
        assert sorted(f.name for f in tmp_path.glob("f_*.ppm")) == ["f_0000.ppm",
                                                                   "f_0001.ppm"]
        last = read_ppm(tmp_path / "f_0001.ppm")
        assert tuple(last[0, 2]) == (255, 0, 0) and np.all(last[0, :2] == 255)

    def test_frame_edges_fall_on_whole_microseconds(self, tmp_path):
        # 2.007 ms is 2,007 us: the event at 2,007 us opens the second frame
        path = tmp_path / "s.evbin"
        save_events(EventStream([0, 2_007, 4_014], [0, 1, 2], [0, 0, 0], [1, 1, 1], 3, 1),
                    path, "evbin")
        assert run("render", "--input", path, "--out", tmp_path / "f", "--every", 2.007) == 0
        assert sorted(f.name for f in tmp_path.glob("f_*.ppm")) == ["f_0000.ppm",
                                                                   "f_0001.ppm"]
        first, second = read_ppm(tmp_path / "f_0000.ppm"), read_ppm(tmp_path / "f_0001.ppm")
        assert tuple(first[0, 0]) == (255, 0, 0) and np.all(first[0, 1:] == 255)
        assert np.all(second[0, 0] == 255) and np.all(second[0, 1:] == (255, 0, 0))
        # 1.001 ms: events at 0, 1,001 and 3,003 us span exactly three frames
        save_events(EventStream([0, 1_001, 3_003], [0, 1, 2], [0, 0, 0], [1, 1, 1], 3, 1),
                    path, "evbin")
        assert run("render", "--input", path, "--out", tmp_path / "g", "--every", 1.001) == 0
        assert sorted(f.name for f in tmp_path.glob("g_*.ppm")) == ["g_0000.ppm", "g_0001.ppm",
                                                                   "g_0002.ppm"]
        assert tuple(read_ppm(tmp_path / "g_0002.ppm")[0, 2]) == (255, 0, 0)

    @pytest.mark.parametrize("every", [None, 1, 3, 10])
    def test_frames_match_the_oracle(self, tmp_path, every):
        rng = np.random.default_rng(every or 0)
        extra = () if every is None else ("--every", every)
        for i in range(12):
            n, dur_us = int(rng.integers(2, 40)), 1000 * int(rng.integers(0, 30))
            t = rng.integers(0, dur_us + 1, n)
            if i % 2:   # whole milliseconds: many events on frame edges
                t = t // 1000 * 1000
            if i % 3 == 0:   # one on the closing edge of whole frames
                t[:2] = 0, dur_us
            w, h = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            s = EventStream(t, rng.integers(0, w, n), rng.integers(0, h, n),
                            rng.choice([1, -1], n), w, h)
            path = tmp_path / f"s{i}.evbin"
            save_events(s, path, "evbin")
            out = tmp_path / f"r{i}"
            assert run("render", "--input", path, "--out", out, *extra) == 0
            frames = (sorted(tmp_path.glob(f"r{i}_*.ppm")) if every
                      else [out.with_suffix(".ppm")])
            oracle = helpers.render_oracle(s, every)
            assert len(frames) == len(oracle) == (steps_to_cover(s.span_us, every)
                                                  if every else 1)
            for frame, want in zip(frames, oracle):
                assert np.array_equal(read_ppm(frame), want), (i, frame.name)

    def test_bad_every_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "s.evbin"
        save_events(EventStream.empty(2, 2), path, "evbin")
        # 1e-4 ms rounds to a window of 0 microseconds
        for every in ("0", "nan", "inf", "1e-4"):
            assert run("render", "--input", path, "--out", tmp_path / "f",
                       "--every", every) == 2, every
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "--every" in err[0], every
        assert not list(tmp_path.glob("f*"))

    @pytest.mark.parametrize("every", [None, "10"])
    def test_missing_output_directory_is_usage_error_before_any_work(
            self, tmp_path, capsys, monkeypatch, every):
        path = tmp_path / "one.evbin"
        save_events(EventStream([500], [2], [1], [1], 4, 3), path, "evbin")
        calls = []
        monkeypatch.setattr(spikesr.cli, "_render_frame", lambda *a: calls.append(a))
        monkeypatch.chdir(tmp_path)
        extra = () if every is None else ("--every", every)
        for out in refused_outs(tmp_path, "frame.ppm"):
            before = sorted(tmp_path.rglob("*"))
            assert run("render", "--input", path, "--out", out, *extra) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {out}: ")
            assert calls == [] and sorted(tmp_path.rglob("*")) == before


class TestInfo:
    def test_variant_params(self, capsys):
        assert run("info", "--variant", "ultralight") == 0
        out = capsys.readouterr().out
        assert "params: 232" in out
        assert run("info", "--variant", "dual_layer") == 0
        assert "params: 464" in capsys.readouterr().out

    def test_variant_layer_lines(self, capsys):
        layers = {}
        for variant in ("dual_layer", "ultralight"):
            assert run("info", "--variant", variant) == 0
            layers[variant] = [line for line in capsys.readouterr().out.splitlines()
                               if line.startswith("layer ")]
        assert layers == {
            "dual_layer": ["layer 0: conv 2->8 kernel 5x5 stride 1 pad 2",
                           "layer 1: transposed_conv 8->2 kernel 2x2 stride 2 pad 0"],
            "ultralight": ["layer 0: conv 1->8 kernel 5x5 stride 1 pad 2",
                           "layer 1: transposed_conv 8->1 kernel 2x2 stride 2 pad 0"]}

    def test_flops_line(self, capsys):
        assert run("info", "--variant", "dual_layer", "--dims", "10x10x10") == 0
        assert "flops: 1312000" in capsys.readouterr().out

    def test_checkpoint_info(self, trained, capsys):
        _, ckpt, _ = trained
        assert run("info", "--checkpoint", ckpt) == 0
        out = capsys.readouterr().out
        assert "variant: ultralight" in out and "seed: 1" in out

    def test_bad_dims_is_usage_error(self):
        assert run("info", "--variant", "ultralight", "--dims", "10x10") == 2

    def test_dims_are_checked_before_anything_is_printed(self, capsys):
        assert run("info", "--variant", "ultralight", "--dims", "4x4x-1") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    def test_variant_and_checkpoint_together_is_usage_error(self, trained, capsys):
        _, ckpt, _ = trained   # an ultralight checkpoint
        assert run("info", "--variant", "dual_layer", "--checkpoint", ckpt) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with" in err

    def test_needs_target(self):
        assert run("info") == 2


# each command's run prints the spikesr modules its process then holds
FOOTPRINT = ("import sys, spikesr.cli\n"
             "assert spikesr.cli.main(sys.argv[1:]) == 0\n"
             "print(*sorted(m for m in sys.modules if m.startswith('spikesr.')))")
BASE = {"cli", "events", "io"}
MODULES = {
    "synth": BASE | {"synth"},
    "downsample": BASE,
    "eval": BASE | {"metrics"},
    "render": BASE,
    "info": BASE | {"model", "kernels"},
    "infer": BASE | {"model", "kernels"},
    "train": BASE | {"model", "kernels", "metrics", "training"},
}


class TestImportFootprint:
    """A command loads only the modules it runs: no network code for the data
    commands, and no training, metrics or generator for infer."""

    @pytest.mark.parametrize("command", MODULES)
    def test_command_imports_only_what_it_runs(self, trained, tmp_path, command):
        corpus, ckpt, _ = trained
        stream = tmp_path / "bar.evbin"
        stream.write_bytes((corpus / "bar_000.evbin").read_bytes())
        argv = {
            "synth": ["--out", tmp_path / "s", "--n", 1, "--size", "8x8", "--dur", 10],
            "downsample": [stream],
            "eval": ["--pred", stream, "--gt", stream],
            "render": ["--input", stream, "--out", tmp_path / "frame"],
            "info": ["--variant", "ultralight"],
            "infer": ["--checkpoint", ckpt, "--input", corpus / "bar_000.lr.evbin",
                      "--out", tmp_path / "sr.evbin"],
            "train": ["--pairs", corpus / "pairs.txt", "--epochs", 1, "--steps", 16,
                      "--val-count", 1, "--out", tmp_path / "m.ckpt"],
        }[command]
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", FOOTPRINT, command, *map(str, argv)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, check=True)
        held = done.stdout.splitlines()[-1].split()
        assert sorted(held) == sorted(f"spikesr.{m}" for m in MODULES[command])


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run() == 2

    def test_unknown_command_is_usage_error(self):
        assert run("explode") == 2
