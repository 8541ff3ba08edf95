"""Compute the outputs the benchmark pins per input set and write pins.json.

For each input seed it makes the workload's input files exactly as a run
does, then computes the expected outputs in-process through the library
(`train` for train_c8, `super_resolve` and `rmse_st` for infer_long),
not through the CLI the benchmark drives.  data_csv needs no pins: its
checks compare the CLI against in-process results within each run.
Runs read these values only, so pin them from a commit whose outputs
are known to be right.

    python3 perfbench/pin.py --seeds 0-63
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import BLAS_VARS, SRC, THREADS, WORK

for _var in BLAS_VARS:   # the CLI's thread count, so BLAS sums in the same order
    os.environ[_var] = str(THREADS)
sys.path.insert(0, str(SRC))

from workloads import PINNED_SEEDS, PINS, WORKLOADS  # noqa: E402

PINNED = ("train_c8", "infer_long")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help=f"inclusive range of input seeds, e.g. 0-{PINNED_SEEDS - 1}")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name in PINNED:
        workload = WORKLOADS[name]
        for seed in range(lo, hi + 1):
            d = WORK / f"pin-{os.getpid()}"
            d.mkdir(parents=True)
            try:
                value = workload.expected(workload.setup(d, seed))
            finally:
                shutil.rmtree(d)
            pins.setdefault(name, {})[str(seed)] = value
            print(name, seed, value, flush=True)
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
