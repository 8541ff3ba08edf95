"""Event-stream 2x super-resolution with spike-response-model networks."""

from .events import EventError, EventStream, downsample_2x, from_voxel_grid
from .io import EventFormatError, load_events, save_events
from .kernels import (NeuronConfig, apply_psp, generate_spikes, refractory_kernel,
                      spike_kernel, surrogate_grad)
from .metrics import DegenerateStreamError, MetricsReport, rmse_st
from .model import (NetworkSpec, count_flops, count_params, forward, init_weights,
                    load_checkpoint, save_checkpoint, super_resolve)
from .synth import synth_moving_bar
from .training import (OptimState, TrainConfig, TrainResult, TrainingError, adam_step,
                       backward, init_optim, loss_total, train)

__version__ = "0.1.0"
