"""Span recorder for the benchmark's traced run.

Run as a script it stands in for `python3 -m spikesr.cli`:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON SPAWN_TIME -- ARGS...

It wraps every public function of the spikesr modules at each place a
spikesr module binds it (the defining module and every module that
imported it by name, e.g. `spikesr.model.apply_psp` and
`spikesr.cli.super_resolve`), runs `spikesr.cli.main(ARGS)`, and writes
the spans and counters to SPANS_JSON.  A span is (name, start, end,
parent index); names are `<module>.<function>`, with the `cmd_` prefix
of CLI subcommands dropped.  SPAWN_TIME is the parent's
`time.monotonic()` just before it started this process, so the
`startup.process` span covers interpreter start and imports.  Spans stay
in memory until the CLI returns.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
import types

LAYERS = ("kernels", "events", "io", "metrics", "model", "training", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counters = {}
        self.originals = {}      # span name -> unwrapped function

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent])
            stack.append(idx)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][1] = start
                spans[idx][2] = time.monotonic()
                stack.pop()
            if hook is not None:
                # counters cost time too; keep it out of the program's spans
                h = len(spans)
                spans.append(["trace.hook", time.monotonic(), 0.0, parent])
                hook(self, args, kwargs, result, spans[parent][0] if parent >= 0 else "")
                spans[h][2] = time.monotonic()
            return result
        return traced

    def install(self):
        """Swap every public spikesr function for its traced wrapper."""
        modules = [importlib.import_module(f"spikesr.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr.removeprefix('cmd_')}"
                    self.originals[name] = fn
                    wrapped[fn] = self.wrap(name, fn, HOOKS.get(name))
        for mod in modules + [importlib.import_module("spikesr")]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(mod, attr, wrapped[value])


# ---------------------------------------------------------------------------
# counters, taken from the arguments and results at the layer boundary

def _psp_macs(tr, args, kwargs, result, parent):
    shape, kernel = args[0].shape, args[1]   # arrays and SpikeTensors both have .shape
    taps = len(getattr(kernel, "values", kernel))
    tr.count("kernels.psp_macs", math.prod(shape) * min(taps, shape[-1]))


def _spike_rate(tr, args, kwargs, result, parent):
    layer = {"model.spiking_conv_forward": "l1",
             "model.spiking_upconv_forward": "l2"}.get(parent, "other")
    spikes = result[0]
    tr.count(f"spikes.{layer}", float(spikes.sum()))
    tr.count(f"neuron_steps.{layer}", spikes.size)


def _model_macs(tr, args, kwargs, result, parent):
    spec = _arg(args, kwargs, 0, "spec")
    _, h, w, t = _arg(args, kwargs, 2, "inp").shape
    tr.count("model.macs", tr.originals["model.count_flops"](spec, h, w, t))


def _load(tr, args, kwargs, result, parent):
    tr.count("io.events_read", len(result))
    tr.count("io.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _save(tr, args, kwargs, result, parent):
    tr.count("io.events_written", len(_arg(args, kwargs, 0, "stream")))
    tr.count("io.bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _voxelize(tr, args, kwargs, result, parent):
    tr.count("events.voxelized", len(_arg(args, kwargs, 0, "stream")))
    tr.count("events.dropped", result[1])


HOOKS = {
    "kernels.apply_psp": _psp_macs,
    "kernels.apply_psp_adjoint": _psp_macs,
    "kernels.generate_spikes": _spike_rate,
    "model.forward": _model_macs,
    "io.load_events": _load,
    "io.save_events": _save,
    "events.to_voxel_grid": _voxelize,
}


def main(argv):
    out_path, spawn_time, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON SPAWN_TIME -- ARGS...")
    tracer = Tracer()
    tracer.install()
    import spikesr.cli
    tracer.spans.append(["startup.process", float(spawn_time), time.monotonic(), -1])
    code = spikesr.cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
