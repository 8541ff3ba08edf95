"""The benchmark's workloads: inputs made from a seed, the CLI calls that
make up one operation, and the checks on what those calls produced.

Every input is synthesized with the package's own generator and written
to files; the program under test only ever sees those files.  Shape
parameters (geometry, duration, bar speed and density) are fixed, and
the seed drives the random draws inside them, so the amount of work per
operation is nearly the same for every seed while the inputs differ.

The workloads that run the network check its outputs against values
pinned in pins.json, computed once per input set by pin.py.  They have
PINNED_SEEDS input sets, and `--seed` picks set `seed % PINNED_SEEDS`,
so every seed is checked against pinned values and never only against
the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np

from spikesr import (EventStream, TrainConfig, downsample_2x, load_checkpoint,
                     load_events, rmse_st, save_events, super_resolve, synth_moving_bar,
                     train)
from spikesr.training import resolve_mode

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "data" / "ultralight_c8.ckpt"
PINS = HERE / "pins.json"
PINNED_SEEDS = 64

# Relative tolerance between a run's outputs and the expected ones.  It
# admits float-summation changes that flip a handful of spikes, and catches
# a network that computes or learns something else.
RTOL = 1e-3


def _close(value, want):
    return abs(value - want) <= RTOL * abs(want)


def pinned_outputs(name, input_seed):
    """The outputs pin.py computed for this workload and input set."""
    pinned = json.loads(PINS.read_text()).get(name, {}).get(str(input_seed))
    if pinned is None:
        raise LookupError(f"pins.json has no outputs for {name} input set {input_seed}; "
                          f"run perfbench/pin.py")
    return pinned


def criterion8_pair(i, event_seed):
    """(LR, HR) pair i of the criterion-8 corpus shape: 32x32 HR dense slow bars.

    Bar speed and density are those of the acceptance suite's pair i;
    `event_seed` draws the events.
    """
    r = np.random.default_rng([11, i])
    hr = synth_moving_bar(32, 32, 64.0, r.uniform(0.08, 0.15), r.uniform(9.0, 13.0),
                          seed=event_seed)
    return downsample_2x(hr), hr


def weight_summary(weights, log_var):
    """[L2 norm, sum] of every trained tensor, the loss log-variances last."""
    return [[float(np.linalg.norm(w)), float(np.sum(w))] for w in [*weights, log_var]]


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    name = ""
    rate = ""        # printed name of items per second
    quality = ""     # printed name of the quality figure
    # Times of one operation and one set-up through the reference copy of
    # the package: round figures near its median times on the recording
    # box (2 cores).  The timing metrics are the package-to-copy ratios
    # times these, so they read in seconds and items per second at about
    # that box's usual speed; the figures only set the scale.
    REF_OP_S = 0.0
    REF_SETUP_S = 0.0

    def input_seed(self, seed: int) -> int:
        """The seed the inputs are made from."""
        return seed

    def setup(self, root: Path, seed: int) -> dict:
        raise NotImplementedError

    def reference(self, inputs: dict, seed: int) -> dict:
        """Expected outputs and the run's check state, made before timing starts.

        `seed` is the input seed.
        """
        return {}

    def ops(self, inputs: dict) -> list[list[str]]:
        """CLI argument lists of one operation, run one after the other."""
        raise NotImplementedError

    def items(self, inputs: dict) -> int:
        """Units of work in one operation, counted as `rate` names them."""
        raise NotImplementedError

    def check(self, inputs: dict, ref: dict, outs: list[str]) -> tuple[float, list[str]]:
        """(quality value, failure messages) for one completed operation.

        `outs` holds each call's standard output.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------

class TrainC8(Workload):
    """`spikesr train` on the criterion-8 corpus shape, shortened."""

    name = "train_c8"
    rate = "train_samples_per_s"
    quality = "val_rmse_st"
    REF_OP_S = 3.3
    REF_SETUP_S = 0.04
    N_TRAIN = 24
    N_VAL = 4
    EPOCHS = 2
    FLAGS = dict(variant="ultralight", steps=64, batch=8, lr=0.05, seed=3)

    def input_seed(self, seed):
        return seed % PINNED_SEEDS

    def setup(self, root, seed):
        lines = []
        for i in range(self.N_TRAIN + self.N_VAL):
            lr, hr = criterion8_pair(i, [seed, i])
            save_events(hr, root / f"bar_{i:03d}.evbin", "evbin")
            save_events(lr, root / f"bar_{i:03d}.lr.evbin", "evbin")
            lines.append(f"bar_{i:03d}.lr.evbin,bar_{i:03d}.evbin")
        (root / "pairs.txt").write_text("\n".join(lines) + "\n")
        return {"dir": str(root)}

    def ops(self, inputs):
        d = Path(inputs["dir"])
        f = self.FLAGS
        return [["train", "--pairs", str(d / "pairs.txt"), "--variant", f["variant"],
                 "--steps", str(f["steps"]), "--epochs", str(self.EPOCHS),
                 "--batch", str(f["batch"]), "--lr", str(f["lr"]), "--seed", str(f["seed"]),
                 "--val-count", str(self.N_VAL), "--out", str(d / "model.ckpt")]]

    def items(self, inputs):
        return self.N_TRAIN * self.EPOCHS

    def reference(self, inputs, seed):
        return {"want": pinned_outputs(self.name, seed), "seen": set()}

    def expected(self, inputs):
        """Final validation RMSE and trained-weight summary of the library `train`.

        The output layer of this short run does not fire yet, so the
        validation RMSE alone would not tell a run that learned from one
        that did not; the weight summary does.
        """
        d = Path(inputs["dir"])
        loaded = []
        for line in (d / "pairs.txt").read_text().split():
            lr, hr = line.split(",")
            loaded.append((load_events(d / lr, "evbin"), load_events(d / hr, "evbin")))
        f = self.FLAGS
        cfg = TrainConfig(variant=f["variant"], steps=f["steps"], epochs=self.EPOCHS,
                          batch_size=f["batch"], lr=f["lr"], seed=f["seed"])
        result = train(cfg, loaded[:-self.N_VAL], loaded[-self.N_VAL:])
        return {"val_rmse_st": result.final_val_rmse,
                "weights": weight_summary(result.weights, result.log_var)}

    def check(self, inputs, ref, outs):
        failures = []
        match = re.search(r"^final_val_rmse_st=(\S+)$", outs[0], re.M)
        if not match:
            return float("nan"), ["train printed no final_val_rmse_st"]
        val = float(match.group(1))
        try:
            _, weights, log_var, _ = load_checkpoint(Path(inputs["dir"]) / "model.ckpt")
        except (OSError, ValueError) as exc:
            return val, [f"checkpoint unreadable: {exc}"]
        summary = weight_summary(weights, log_var)
        if not math.isfinite(val) or val <= 0:
            failures.append(f"val_rmse_st={val} is not a positive number")
        ref["seen"].add((val, json.dumps(summary)))
        if len(ref["seen"]) > 1:
            failures.append("train results differ between identical calls")
        want = ref["want"]
        if not _close(val, want["val_rmse_st"]):
            failures.append(f"val_rmse_st={val!r}, expected {want['val_rmse_st']!r}")
        if len(summary) != len(want["weights"]):
            failures.append(f"checkpoint holds {len(summary)} tensors, "
                            f"expected {len(want['weights'])}")
        for k, (got, exp) in enumerate(zip(summary, want["weights"])):
            # both figures to within RTOL of the tensor's norm
            if any(abs(g - e) > RTOL * exp[0] for g, e in zip(got, exp)):
                failures.append(f"trained tensor {k}: [L2, sum] = {got}, expected {exp}")
        return val, failures


# ---------------------------------------------------------------------------

class InferLong(Workload):
    """`spikesr infer` of one long 64x64 LR stream through the committed checkpoint."""

    name = "infer_long"
    rate = "infer_events_per_s"
    quality = "sr_rmse_st"
    REF_OP_S = 5.4
    REF_SETUP_S = 0.048
    HR = 128
    STEPS = 300
    VELOCITY = 0.25
    RATE = 11.0

    def input_seed(self, seed):
        return seed % PINNED_SEEDS

    def setup(self, root, seed):
        hr = synth_moving_bar(self.HR, self.HR, float(self.STEPS), self.VELOCITY,
                              self.RATE, seed=seed)
        lr = downsample_2x(hr)
        save_events(hr, root / "gt.evbin", "evbin")
        save_events(lr, root / "input.evbin", "evbin")
        shutil.copyfile(CHECKPOINT, root / "model.ckpt")
        return {"dir": str(root), "events": len(lr)}

    def ops(self, inputs):
        d = Path(inputs["dir"])
        return [["infer", "--checkpoint", str(d / "model.ckpt"),
                 "--input", str(d / "input.evbin"), "--out", str(d / "sr.evbin"),
                 "--steps", str(self.STEPS)]]

    def items(self, inputs):
        return inputs["events"]

    def reference(self, inputs, seed):
        return {"want": pinned_outputs(self.name, seed), "seen": {}}

    def score(self, inputs, out):
        gt = load_events(Path(inputs["dir"]) / "gt.evbin", "evbin")
        t0, t1 = min(out.t0, gt.t0), max(out.t1, gt.t1)
        return rmse_st(out, gt, max(1, math.ceil((t1 - t0) / 1000))).rmse_st

    def expected(self, inputs):
        """Output count and RMSE of the library `super_resolve` on the same files."""
        d = Path(inputs["dir"])
        spec, weights, _, _ = load_checkpoint(d / "model.ckpt")
        stream = load_events(d / "input.evbin", "evbin")
        out, _ = super_resolve(spec, weights, stream, self.STEPS,
                               resolve_mode(spec.variant, None))
        return {"out_events": len(out), "sr_rmse_st": self.score(inputs, out)}

    def check(self, inputs, ref, outs):
        path = Path(inputs["dir"]) / "sr.evbin"
        digest = _digest(path)
        seen = ref["seen"]
        if digest in seen:   # byte-identical to an output already scored
            n, val = seen[digest]
        else:
            out = load_events(path, "evbin")
            n, val = len(out), self.score(inputs, out)
            seen[digest] = (n, val)
        failures = []
        if len(seen) > 1:
            failures.append("infer output differs between identical calls")
        if n == 0 or not val > 0:
            failures.append(f"infer emitted {n} events, sr_rmse_st={val}")
        want = ref["want"]
        if not _close(n, want["out_events"]):
            failures.append(f"{n} output events, expected {want['out_events']}")
        if not _close(val, want["sr_rmse_st"]):
            failures.append(f"sr_rmse_st={val!r}, expected {want['sr_rmse_st']!r}")
        return val, failures


# ---------------------------------------------------------------------------

class DataCsv(Workload):
    """`downsample --manifest` then `eval --manifest` over CSV files."""

    name = "data_csv"
    rate = "data_events_per_s"
    quality = "eval_rmse_st"
    REF_OP_S = 1.4
    REF_SETUP_S = 0.5
    N = 6
    SIZE = 64
    DUR_MS = 64.0
    VELOCITY = 0.5
    RATE = 4.0
    JITTER_US = 1500
    # one grid that covers every pair's combined span (duration plus the
    # prediction's jitter), so rmse_st drops nothing
    STEPS = 66

    def setup(self, root, seed):
        names, pairs, counts = [], [], []
        for i in range(self.N):
            r = np.random.default_rng([seed, i])
            gt = synth_moving_bar(self.SIZE, self.SIZE, self.DUR_MS, self.VELOCITY,
                                  self.RATE, seed=int(r.integers(2 ** 31)))
            # The prediction keeps every coordinate (so CSV-inferred geometry
            # matches the ground truth) and moves time and polarity.
            t = np.maximum(gt.t + r.integers(-self.JITTER_US, self.JITTER_US + 1, len(gt)), 0)
            p = np.where(r.random(len(gt)) < 0.1, -gt.p, gt.p)
            pred = EventStream(t, gt.x, gt.y, p, gt.width, gt.height)
            save_events(gt, root / f"bar_{i}.csv", "csv")
            save_events(pred, root / f"pred_{i}.csv", "csv")
            names.append(f"bar_{i}.csv")
            pairs.append(f"pred_{i}.csv,bar_{i}.csv")
            counts.append(len(gt))
        (root / "manifest.txt").write_text("\n".join(names) + "\n")
        (root / "eval_pairs.txt").write_text("\n".join(pairs) + "\n")
        return {"dir": str(root), "counts": counts}

    def ops(self, inputs):
        d = Path(inputs["dir"])
        return [["downsample", "--manifest", str(d / "manifest.txt")],
                ["eval", "--manifest", str(d / "eval_pairs.txt"), "--out",
                 str(d / "eval.csv"), "--steps", str(self.STEPS)]]

    def items(self, inputs):
        # downsample reads and writes each stream; eval reads pred and gt
        return 4 * sum(inputs["counts"])

    def reference(self, inputs, seed):
        d = Path(inputs["dir"])
        expect = {}
        for i in range(self.N):
            pred = load_events(d / f"pred_{i}.csv", "csv")
            gt = load_events(d / f"bar_{i}.csv", "csv")
            expect[f"pred_{i}.csv"] = rmse_st(pred, gt, self.STEPS).rmse_st
        return {"rmse": expect, "lr_digest": None}

    def _check_downsample(self, inputs):
        d = Path(inputs["dir"])
        failures = []
        for i in range(self.N):
            hr = load_events(d / f"bar_{i}.csv", "csv")
            lr = load_events(d / f"bar_{i}.lr.csv", "csv")
            want = downsample_2x(hr)
            if len(lr) != len(hr) or not all(
                    np.array_equal(getattr(lr, k), getattr(want, k)) for k in "txyp"):
                failures.append(f"bar_{i}.lr.csv does not hold every event of bar_{i}.csv")
        return failures

    def check(self, inputs, ref, outs):
        d = Path(inputs["dir"])
        digest = "".join(_digest(d / f"bar_{i}.lr.csv") for i in range(self.N))
        failures = []
        if ref["lr_digest"] is None:
            failures += self._check_downsample(inputs)
            if not failures:
                ref["lr_digest"] = digest
        elif digest != ref["lr_digest"]:
            failures.append("downsample output differs between identical calls")
        rows = (d / "eval.csv").read_text().splitlines()[1:]
        got = {}
        for row in rows:
            cells = row.split(",")
            if cells[0] != "mean":
                got[Path(cells[0]).name] = float(cells[1])
        if got != ref["rmse"]:
            failures.append(f"eval rmse_st {got} != in-process rmse_st {ref['rmse']}")
        mean = float(np.mean(list(got.values()))) if got else float("nan")
        return mean, failures


WORKLOADS = {w.name: w for w in (TrainC8(), InferLong(), DataCsv())}
