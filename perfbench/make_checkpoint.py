"""Train the ultralight checkpoint that the infer_long workload runs.

Reproduces the acceptance suite's criterion-8 run (200 dense slow-bar
pairs, 32x32 HR / 16x16 LR, last 20 for validation, ultralight, 30
epochs, batch 8, lr 0.05, seed 3) through the library `train`, and
writes the checkpoint plus a provenance record next to it.  This is a
one-off: the benchmark only reads the committed result.

    PYTHONPATH=src python3 perfbench/make_checkpoint.py
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from spikesr import TrainConfig, save_checkpoint, train
from workloads import criterion8_pair

HERE = Path(__file__).resolve().parent
CKPT = HERE / "data" / "ultralight_c8.ckpt"
PROVENANCE = HERE / "data" / "ultralight_c8.json"

N_PAIRS = 200
N_VAL = 20
CONFIG = dict(variant="ultralight", steps=64, epochs=30, batch_size=8, lr=0.05, seed=3)


def main():
    # the acceptance suite's smoke corpus: pair i's events drawn with seed 1000 + i
    pairs = [criterion8_pair(i, 1000 + i) for i in range(N_PAIRS)]
    started = time.monotonic()
    result = train(TrainConfig(**CONFIG), pairs[:-N_VAL], pairs[-N_VAL:])
    elapsed = time.monotonic() - started
    CKPT.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(CKPT, result.spec, result.weights, result.log_var, result.seed)
    record = {
        "checkpoint": CKPT.name,
        "sha256": hashlib.sha256(CKPT.read_bytes()).hexdigest(),
        "corpus": {"recipe": "criterion-8 smoke corpus: pair i uses rng [11, i], "
                             "synth_moving_bar(32, 32, 64.0, uniform(0.08, 0.15), "
                             "uniform(9.0, 13.0), seed=1000 + i), LR = downsample_2x(HR)",
                   "pairs": N_PAIRS, "validation_pairs": N_VAL},
        "train_config": CONFIG,
        "initial_val_rmse_st": result.initial_val_rmse,
        "final_val_rmse_st": result.final_val_rmse,
        "train_seconds": round(elapsed, 1),
        "reproduce": "PYTHONPATH=src python3 perfbench/make_checkpoint.py",
    }
    PROVENANCE.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
