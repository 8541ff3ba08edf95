"""Record one benchmark result file: every workload, untraced and traced.

    python3 perfbench/record.py --seed 0 --seconds 30

Runs `run.py` once per workload with `--trace 0` and once with
`--trace 1`, and writes perfbench/results/BENCH_<n>.json (next free n)
with the environment, both runs' metrics, the traced span table, and
the ROADMAP baseline probes set next to the traced numbers they map to.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORK = HERE.parent / ".perfbench_work"


def _run(workload, seed, seconds, trace):
    WORK.mkdir(exist_ok=True)
    out = WORK / f"record-{workload}-{trace}.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                    "--out", str(out)], check=True, stdout=subprocess.DEVNULL)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def _v(run, name):
    return run["metrics"][name]["value"]


def baseline(w):
    """ROADMAP baseline probes next to what this benchmark measures for them."""
    train, infer, data = (w[k]["traced"] for k in ("train_c8", "infer_long", "data_csv"))
    sp = train["spans"]
    psp_calls = sp["kernels.apply_psp"]["calls"] + sp["kernels.apply_psp_adjoint"]["calls"]
    psp_s = sp["kernels.apply_psp"]["total_s"] + sp["kernels.apply_psp_adjoint"]["total_s"]
    fwd = sp["model.forward"]
    bwd = sp["training.backward"]
    fwd_train_s = fwd["total_s"] * sp["training.backward"]["calls"] / fwd["calls"]
    isp, dsp = infer["spans"], data["spans"]
    sr = isp["model.super_resolve"]["total_s"]
    return [
        {"probe": "apply_psp + apply_psp_adjoint, per call",
         "roadmap": "9-10 ms per call at [8,16,16,64] with 32 taps",
         "measured": f"{1e3 * psp_s / psp_calls:.2f} ms per call, "
                     f"{_v(train, 'kernels.psp_macs') / psp_calls:.3g} MACs per call",
         "source": "train_c8 traced: kernels.apply_psp(+_adjoint) total_s / calls",
         "note": "mean over layer-1 calls ([1,16,16,64], 8 taps) and layer-2 calls "
                 "([8,16,16,64], 32 taps); the ROADMAP figure is a layer-2 call"},
        {"probe": "PSP share of forward + backward",
         "roadmap": "65 %",
         "measured": f"{100 * psp_s / (fwd['total_s'] + bwd['total_s']):.1f} %",
         "source": "train_c8 traced: PSP total_s / (model.forward + training.backward total_s)",
         "note": "forward time includes the validation passes, which have no backward"},
        {"probe": "ultralight forward, one 16x16x64 sample",
         "roadmap": "53 ms sequential",
         "measured": f"{1e3 * fwd['total_s'] / fwd['calls']:.1f} ms per call",
         "source": "train_c8 traced: model.forward total_s / calls",
         "note": "traced, so includes the wrappers' cost on its child spans"},
        {"probe": "backward, same sample",
         "roadmap": "24 ms",
         "measured": f"{1e3 * bwd['total_s'] / bwd['calls']:.1f} ms per call",
         "source": "train_c8 traced: training.backward total_s / calls",
         "note": "includes the loss and its output gradient"},
        {"probe": "training throughput, criterion-8 shape",
         "roadmap": "about 14 samples/s (pre-benchmark probe)",
         "measured": f"{w['train_c8']['untraced']['plain']['items_per_s']:.2f} samples/s "
                     "end to end; "
                     f"{bwd['calls'] / (fwd_train_s + bwd['total_s']):.2f} samples/s "
                     "forward+backward only",
         "source": "train_c8 untraced plain items_per_s (wall time, not scaled); "
                   "traced forward and backward spans",
         "note": "end to end counts process start, loading, voxelizing and validation "
                 "passes against the train samples"},
        {"probe": "super_resolve 64x64 LR",
         "roadmap": "1.76 s, 284 MB peak RSS at 100 ms; "
                    "6.1-6.3 s, 695 MB at 300 ms (pre-benchmark probe)",
         "measured": f"{sr:.2f} s at 300 ms ({sr / 3:.2f} s per 100 ms), "
                     f"{_v(w['infer_long']['untraced'], 'peak_rss_mb'):.0f} MB peak RSS",
         "source": "infer_long traced model.super_resolve total_s; untraced peak_rss_mb",
         "note": "the workload's stream is 300 ms long"},
        {"probe": "CSV load",
         "roadmap": "200k events in 0.67 s",
         "measured": f"{_v(data, 'io.events_read') / dsp['io.load_events']['total_s']:.3g} "
                     "events/s",
         "source": "data_csv traced: io.events_read / io.load_events total_s",
         "note": "files of about 16k events each"},
        {"probe": "CSV save",
         "roadmap": "200k events in 0.63 s",
         "measured": f"{_v(data, 'io.events_written') / dsp['io.save_events']['total_s']:.3g} "
                     "events/s",
         "source": "data_csv traced: io.events_written / io.save_events total_s",
         "note": "files of about 16k events each"},
        {"probe": "evbin load",
         "roadmap": "200k events in 0.007 s",
         "measured": f"{_v(infer, 'io.events_read') / isp['io.load_events']['total_s']:.3g} "
                     "events/s",
         "source": "infer_long traced: io.events_read / io.load_events total_s",
         "note": "one file of about 208k events"},
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = {}
    for w in spec["workloads"]:
        workloads[w["name"]] = {
            mode: _run(w["name"], args.seed, args.seconds, trace)
            for mode, trace in (("untraced", 0), ("traced", 1))}
    env = workloads[spec["workloads"][0]["name"]]["untraced"]["env"]
    for runs in workloads.values():
        for r in runs.values():
            del r["env"]
    record = {"recorded": datetime.date.today().isoformat(), "env": env,
              "workloads": workloads, "baseline": baseline(workloads)}
    RESULTS.mkdir(exist_ok=True)
    n = 1 + max((int(p.stem.split("_")[1]) for p in RESULTS.glob("BENCH_*.json")), default=0)
    path = RESULTS / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
