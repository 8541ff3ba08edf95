"""Event-stream 2x super-resolution with spike-response-model networks.

Each name below is imported from its module on first use (PEP 562), so
a process loads only the modules it runs.
"""

import importlib

# the network variants; spelled here so the CLI can offer them without
# loading the model
VARIANTS = ("dual_layer", "ultralight")

_EXPORTS = {
    "events": ("EventError", "EventStream", "downsample_2x", "from_voxel_grid"),
    "io": ("EventFormatError", "load_events", "save_events"),
    "kernels": ("NeuronConfig", "apply_psp", "generate_spikes", "refractory_kernel",
                "spike_kernel", "surrogate_grad"),
    "metrics": ("DegenerateStreamError", "MetricsReport", "rmse_st"),
    "model": ("NetworkSpec", "count_flops", "count_params", "forward", "init_weights",
              "load_checkpoint", "save_checkpoint", "super_resolve"),
    "synth": ("synth_moving_bar",),
    "training": ("OptimState", "TrainConfig", "TrainResult", "TrainingError", "adam_step",
                 "backward", "init_optim", "loss_total", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["VARIANTS", *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
