"""spikesr benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload train_c8 --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its `src/` directory, so nothing needs installing.  The
run makes the workload's input files from the seed, then drives the
CLI as one client in a closed loop: each operation is one or two
`python3 -m spikesr.cli` processes, started one after the other, each
waited for before the next starts, for `--seconds` seconds.  Every
operation's output is checked.  Peak RSS is each process's own
`ru_maxrss` from `os.wait4`.

The machine's speed drifts by tens of percent over minutes, which plain
wall time cannot tell from a change in the program.  So each operation
is followed by the same operation through `reference/spikesr`, a frozen
copy of the package, and the set-up is timed in alternate rounds with
the package and with that copy.  `items_per_s` and `setup_s` are the
medians of the package-to-copy time ratios, scaled by the workload's
reference times; the plain figures are printed and written to `--out`.

With `--trace 1` the loop alternates untraced operations with traced
ones (the CLI started through `tracer.py`) and reports per-layer
metrics: self times and counts per traced operation, plus the tracing
overhead against the untraced operations of the same run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--out FILE` also
writes the whole result, environment included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"   # frozen copy of the package, the speed yardstick
WORK = ROOT / ".perfbench_work"

# One BLAS thread: on these array sizes a second OpenBLAS thread gives the
# same wall time and spins a second core (measured on 2 cores: equal wall,
# twice the CPU time, and slow outliers whenever that core is busy).
THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed in SETUP_ROUNDS rounds, each a burst with the package
# then one with the reference copy; a burst repeats the set-up for at
# least SETUP_BURST_S, or runs it once if one set-up takes longer.
SETUP_ROUNDS = 3
SETUP_BURST_S = 0.2
CALL_TIMEOUT_S = 150.0

# End-to-end metrics: (name, unit).  `items_per_s` and `rmse_st` mean the
# workload's own throughput and quality figure; the printed table names them.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_s", "1/s"),
              ("rmse_st", "1"))

SPAN_METRICS = (
    "kernels.apply_psp", "kernels.apply_psp_adjoint", "kernels.generate_spikes",
    "model.forward", "model.backward_pass", "model.conv_drive", "model.upconv2x_drive",
    "model.bilinear_upsample_2x", "model.conv_weight_adjoint",
    "model.upconv2x_weight_adjoint", "model.upconv2x_input_adjoint", "model.super_resolve",
    "training.backward", "training.loss_total", "training.loss_output_grad",
    "training.adam_step", "metrics.rmse_st", "io.load_events", "io.save_events",
    "events.to_voxel_grid", "events.from_voxel_grid", "events.downsample_2x",
    "cli.train", "cli.infer", "cli.downsample", "cli.eval")
CALL_METRICS = ("kernels.apply_psp", "kernels.apply_psp_adjoint", "training.adam_step",
                "metrics.rmse_st")
COUNTERS = (("kernels.psp_macs", "count"), ("model.macs", "count"),
            ("io.events_read", "count"), ("io.events_written", "count"),
            ("io.bytes_read", "B"), ("io.bytes_written", "B"))
LAYER_TOTALS = ("startup", "cli", "training", "model", "kernels", "metrics", "events",
                "io", "trace")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in print order."""
    spec = [(f"{n}.s", "s") for n in SPAN_METRICS]
    spec += [(f"{n}.calls", "count") for n in CALL_METRICS]
    spec += list(COUNTERS)
    spec += [("kernels.spike_rate.l1", "1/step"), ("kernels.spike_rate.l2", "1/step"),
             ("events.dropped_ratio", "ratio")]
    spec += [(f"layer.{n}.s", "s") for n in LAYER_TOTALS]
    spec += [("trace.overhead_ratio", "ratio"), ("trace.self_sum_ratio", "ratio"),
             ("trace.ops", "count")]
    return spec


# ---------------------------------------------------------------------------
# running the CLI

def _child_env(package_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(package_root) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_call(argv, workdir, spans_path=None, package_root=SRC):
    """Start one CLI process and wait for it.

    Returns (wall s, CPU s, peak RSS KiB, exit code, standard output).
    """
    out_path = workdir / "call.out"
    spawn = time.monotonic()
    if spans_path is None:
        cmd = [sys.executable, "-m", "spikesr.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), repr(spawn), "--",
               *argv]
    with open(out_path, "wb") as out, open(workdir / "call.err", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(package_root),
                                cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    wall = time.monotonic() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
            out_path.read_text())


def run_op(workload, inputs, ref, workdir, traced, package_root=SRC):
    """One operation: its CLI calls in order, then the output checks.

    Through the reference copy only the exit codes are checked.
    """
    walls, cpu, rss, outs, spans, failures = [], [], [], [], [], []
    for k, argv in enumerate(workload.ops(inputs)):
        spans_path = workdir / f"spans_{k}.json" if traced else None
        wall, cpu_s, peak, code, out = run_call(argv, workdir, spans_path, package_root)
        walls.append(wall)
        cpu.append(cpu_s)
        rss.append(peak)
        outs.append(out)
        if code != 0:
            err = (workdir / "call.err").read_text().strip().splitlines()
            failures.append(f"{argv[0]} through {package_root.name}/ exited {code}: "
                            f"{err[-1] if err else ''}")
            break
        if traced:
            spans.append(json.loads(spans_path.read_text()))
    quality = float("nan")
    if not failures and package_root == SRC:
        quality, failures = workload.check(inputs, ref, outs)
    return {"wall_s": sum(walls), "cpu_s": sum(cpu), "call_walls_s": walls,
            "peak_rss_kib": max(rss),
            "quality": quality, "failures": failures, "traced": traced, "trace": spans}


# ---------------------------------------------------------------------------
# trace aggregation

def self_times(trace):
    """Per span name: [self seconds, total seconds, calls] over one process's spans.

    Self time is a span's duration minus its children's durations.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), c in zip(spans, child):
        acc = out.setdefault(name, [0.0, 0.0, 0])
        acc[0] += end - start - c
        acc[1] += end - start
        acc[2] += 1
    return out


def layer_metrics(traced_ops, untraced_walls):
    """Per-layer metrics, each a mean per traced operation."""
    n = len(traced_ops)
    selfs, totals, calls, counters, op_self = {}, {}, {}, {}, []
    for op in traced_ops:
        total = 0.0
        for trace in op["trace"]:
            for name, (s, t, c) in self_times(trace).items():
                selfs[name] = selfs.get(name, 0.0) + s
                totals[name] = totals.get(name, 0.0) + t
                calls[name] = calls.get(name, 0) + c
                total += s
            for key, v in trace["counters"].items():
                counters[key] = counters.get(key, 0) + v
        op_self.append(total)

    def ratio(a, b):
        return counters.get(a, 0) / counters[b] if counters.get(b) else 0.0

    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.s"] = selfs.get(name, 0.0) / n
    for name in CALL_METRICS:
        m[f"{name}.calls"] = calls.get(name, 0) / n
    for name, _ in COUNTERS:
        m[name] = counters.get(name, 0) / n
    m["kernels.spike_rate.l1"] = ratio("spikes.l1", "neuron_steps.l1")
    m["kernels.spike_rate.l2"] = ratio("spikes.l2", "neuron_steps.l2")
    m["events.dropped_ratio"] = ratio("events.dropped", "events.voxelized")
    for layer in LAYER_TOTALS:
        m[f"layer.{layer}.s"] = sum(s for k, s in selfs.items()
                                    if k.split(".")[0] == layer) / n
    base = statistics.median(untraced_walls)
    m["trace.overhead_ratio"] = statistics.median(op["wall_s"] for op in traced_ops) / base - 1
    m["trace.self_sum_ratio"] = statistics.median(op_self) / base
    m["trace.ops"] = n
    spans = {k: {"self_s": selfs[k] / n, "total_s": totals[k] / n, "calls": calls[k] / n}
             for k in sorted(selfs)}
    return m, spans


# ---------------------------------------------------------------------------

def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": THREADS, "blas_thread_vars": list(BLAS_VARS),
        "load": "closed loop, 1 client, one CLI process at a time",
        "peak_rss_method": "ru_maxrss of each CLI process from os.wait4 (KiB), "
                           "max over the operation's processes, median over operations",
    }


def set_up(workload, d, input_seed):
    """Make the inputs into a fresh directory `d`; returns (inputs, seconds)."""
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    start = time.monotonic()
    inputs = workload.setup(d, input_seed)
    return inputs, time.monotonic() - start


def setup_burst(workload, input_seed, workdir, package_root):
    """Set-up times of one burst, timed in a process that imports `package_root`."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_burst.py"), workload.name, str(input_seed),
         str(workdir / "again"), repr(SETUP_BURST_S)],
        capture_output=True, text=True, env=_child_env(package_root), cwd=ROOT,
        timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up through {package_root.name}/ failed: {proc.stderr}")
    return json.loads(proc.stdout)


def measure(workload, seed, seconds, trace, workdir):
    input_seed = workload.input_seed(seed)
    inputs, _ = set_up(workload, workdir / "inputs", input_seed)
    ref = workload.reference(inputs, input_seed)
    packages = (SRC,) if trace else (SRC, REFERENCE)
    # warm-up: byte-compile each package and load it once, untimed
    for package_root in packages:
        run_call(["info", "--variant", "ultralight"], workdir, package_root=package_root)
    setup_times = {p: [] for p in packages}
    if not trace:
        for _ in range(SETUP_ROUNDS):
            for package_root in packages:
                setup_times[package_root] += setup_burst(workload, input_seed, workdir,
                                                         package_root)
    ops = []
    start = time.monotonic()
    while True:
        traced = trace and len(ops) % 2 == 1
        op = run_op(workload, inputs, ref, workdir, traced)
        if not trace:
            # the same operation through the frozen copy, right after, as the yardstick
            yardstick = run_op(workload, inputs, ref, workdir, False, REFERENCE)
            op["reference_wall_s"] = yardstick["wall_s"]
            op["failures"] += yardstick["failures"]
        ops.append(op)
        if time.monotonic() - start >= seconds and (not trace or len(ops) >= 2):
            break
    return inputs, setup_times, ops


def summarize(workload, inputs, setup_times, ops, trace):
    good = [op for op in ops if not op["failures"]]
    plain = [op for op in good if not op["traced"]]
    if trace:
        traced = [op for op in good if op["traced"]]
        if not traced or not plain:
            return {}, {}
        return layer_metrics(traced, [op["wall_s"] for op in plain])
    if not plain:
        return {}, {}
    op_ratio = statistics.median(op["wall_s"] / op["reference_wall_s"] for op in plain)
    setup_ratio = (statistics.median(setup_times[SRC])
                   / statistics.median(setup_times[REFERENCE]))
    metrics = {
        "setup_s": setup_ratio * workload.REF_SETUP_S,
        "peak_rss_mb": statistics.median(op["peak_rss_kib"] for op in plain) * 1024 / 1e6,
        "items_per_s": workload.items(inputs) / (op_ratio * workload.REF_OP_S),
        "rmse_st": statistics.median(op["quality"] for op in plain),
    }
    return metrics, {}


def plain_figures(workload, inputs, setup_times, ops):
    """The unscaled timings behind `setup_s` and `items_per_s`."""
    plain = [op for op in ops if not op["failures"] and not op["traced"]]
    if not plain or REFERENCE not in setup_times:
        return {}
    wall = statistics.median(op["wall_s"] for op in plain)
    return {"setup_s": statistics.median(setup_times[SRC]),
            "reference_setup_s": statistics.median(setup_times[REFERENCE]),
            "op_wall_s": wall,
            "reference_op_wall_s": statistics.median(op["reference_wall_s"] for op in plain),
            "items_per_s": workload.items(inputs) / wall}


def print_table(workload, seed, ops, metrics, units, plain):
    """Human-readable summary; the end-to-end figures under the workload's own names."""
    walls = sorted(op["wall_s"] for op in ops if not op["traced"])
    failed = sum(1 for op in ops if op["failures"])
    print(f"workload {workload.name}  seed {seed} (input seed "
          f"{workload.input_seed(seed)})  ops {len(ops)}  "
          f"(closed loop, 1 client, {THREADS} BLAS threads)")
    if walls:
        print(f"  op wall: median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s, "
              f"n={len(walls)} untraced")
    print(f"  failed_ratio          {failed / len(ops):.4f}  ({failed}/{len(ops)})")
    names = {"items_per_s": workload.rate, "rmse_st": workload.quality}
    for key, value in metrics.items():
        label = names.get(key, key)
        print(f"  {label:<36} {value:.6g} {units[key]}")
    for key, value in plain.items():
        print(f"  plain {key:<30} {value:.6g}")
    for op in ops:
        for msg in op["failures"]:
            print(f"  FAILED: {msg}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here as JSON")
    args = parser.parse_args(argv)

    for var in BLAS_VARS:   # before numpy loads, here and in every child
        os.environ[var] = str(THREADS)
    if not (SRC / "spikesr" / "__init__.py").is_file():
        print(f"error: no spikesr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    workdir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)   # left by a killed run with this pid
    workdir.mkdir(parents=True)
    try:
        inputs, setup_times, ops = measure(workload, args.seed, args.seconds,
                                           bool(args.trace), workdir)
    except LookupError as exc:   # no pinned outputs to check against
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, spans = summarize(workload, inputs, setup_times, ops, bool(args.trace))
    units = dict(per_layer_spec() if args.trace else END_TO_END)
    failed = sum(1 for op in ops if op["failures"])
    correct = failed == 0 and bool(metrics)
    plain = plain_figures(workload, inputs, setup_times, ops)
    print_table(workload, args.seed, ops, metrics, units, plain)
    env = environment()
    print("env " + json.dumps(env))
    if args.out:
        full = {"workload": workload.name, "seed": args.seed,
                "input_seed": workload.input_seed(args.seed), "seconds": args.seconds,
                "trace": args.trace, "env": env, "correct": correct,
                "setup_times_s": {p.name: t for p, t in setup_times.items()},
                "plain": plain,
                "attempted": len(ops), "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                "spans": spans,
                "ops": [{k: op.get(k) for k in ("wall_s", "reference_wall_s", "cpu_s",
                                                "call_walls_s", "peak_rss_kib", "quality",
                                                "failures", "traced")}
                        for op in ops]}
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
