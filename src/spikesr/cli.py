"""Command-line pipeline: synth, downsample, train, infer, eval, render, info.

Exit codes: 0 on success, 1 on runtime failure (I/O, corrupt data,
training blow-up), 2 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from .events import (US_PER_MS, EventError, EventStream, _count_voxels, _voxel_index,
                     event_bins, steps_to_cover)
from .io import EventFormatError, guess_format, load_events, save_events
from .metrics import MetricsReport, common_span, rmse_st
from .model import (VARIANTS, ModelError, NetworkSpec, count_flops, count_params,
                    load_checkpoint, save_checkpoint, super_resolve)
from .synth import synth_moving_bar
from .training import TrainConfig, TrainingError, train


class UsageError(Exception):
    pass


def _parse_ints(text, name, form):
    """The integers of an `AxB...` string with as many fields as `form`, say `WxH`."""
    try:
        values = [int(v) for v in text.lower().split("x")]
    except ValueError:
        values = []
    if len(values) != len(form.split("x")):
        raise UsageError(f"bad {name} {text!r}, expected {form}")
    return values


def _load_stream(path):
    return load_events(path, guess_format(path))


def _load_pairs(paths):
    """The (LR, HR) streams of each (LR path, HR path), loaded as they are asked for."""
    for lr, hr in paths:
        yield _load_stream(lr), _load_stream(hr)


def _check_out_dirs(*paths):
    """Refuse, before any work, an output path (None: not given) that names a
    directory (`.` and `/` among them) or lies in a missing one."""
    for path in [Path(p) for p in paths if p is not None]:
        if not path.name or path.is_dir():
            raise UsageError(f"{path}: is a directory, expected a file path")
        if not path.parent.is_dir():
            raise UsageError(f"{path}: directory {path.parent} does not exist")


def _read_pair_manifest(path):
    """Lines of `left_path,right_path`; relative paths resolve next to the manifest."""
    base = Path(path).parent
    pairs = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise UsageError(f"{path}:{lineno}: expected two comma-separated paths")
        pairs.append(tuple(base / p if not Path(p).is_absolute() else Path(p)
                           for p in parts))
    if not pairs:
        raise UsageError(f"{path}: empty manifest")
    return pairs


# ---------------------------------------------------------------------------

def cmd_synth(args):
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if not (math.isfinite(args.dur) and args.dur > 0):
        raise UsageError(f"--dur must be a positive number of milliseconds, not {args.dur}")
    width, height = _parse_ints(args.size, "size", "WxH")
    if width < 1 or height < 1:
        raise UsageError("size must be positive")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(args.n):
        gen = np.random.default_rng([args.seed, i])
        velocity = float(gen.uniform(0.15, 0.45))
        rate = float(gen.uniform(1.5, 3.0))
        stream = synth_moving_bar(width, height, args.dur, velocity, rate,
                                  seed=int(gen.integers(2 ** 31)))
        name = f"bar_{i:03d}.evbin"
        save_events(stream, out_dir / name, "evbin")
        names.append(name)
    (out_dir / "manifest.txt").write_text("\n".join(names) + "\n")
    print(f"wrote {len(names)} streams and manifest.txt to {out_dir}")
    return 0


def _lr_path(hr_path: Path) -> Path:
    """`<stem>.lr<suffix>`; `<stem>.lr.evbin` for a `.bin` input, a read-only format."""
    suffix = ".evbin" if guess_format(hr_path) == "nmnist_bin" else hr_path.suffix
    return hr_path.with_name(hr_path.stem + ".lr" + suffix)


def cmd_downsample(args):
    if args.manifest and args.inputs:
        raise UsageError("give --manifest or input paths, not both")
    if args.manifest:
        base = Path(args.manifest).parent
        hr_paths = [base / line.strip() for line in
                    Path(args.manifest).read_text().splitlines() if line.strip()]
    else:
        hr_paths = [Path(p) for p in args.inputs]
    if not hr_paths:
        raise UsageError("nothing to downsample")
    from .events import downsample_2x
    failures = []
    pairs = []
    for path in hr_paths:
        out = _lr_path(path)
        try:
            stream = _load_stream(path)
            lr = downsample_2x(stream)
            save_events(lr, out, guess_format(out))
            pairs.append((out, path))
            print(f"{path} -> {out} ({len(lr)} events)")
        except (OSError, EventError) as exc:
            # io's messages and an OSError's filename already name the file
            named = (str(exc).startswith((f"{path}: ", f"{out}: "))
                     or getattr(exc, "filename", None))
            failures.append(str(exc) if named else f"{path}: {exc}")
    if args.manifest and pairs:
        pairs_path = Path(args.manifest).parent / "pairs.txt"
        pairs_path.write_text(
            "\n".join(f"{lr.name},{hr.name}" for lr, hr in pairs) + "\n")
        print(f"wrote {pairs_path}")
    for line in failures:
        print(f"error: {line}", file=sys.stderr)
    return 1 if failures else 0


def _apply_config(args, path):
    """Fill unset CLI options from an INI file: [train], [model], [data]."""
    ini = configparser.ConfigParser()
    if not ini.read(path):
        raise UsageError(f"cannot read config {path}")
    # in the order train declares its flags: the first unreadable value is the one named
    grab = (("data", "pairs", str), ("model", "variant", str), ("train", "steps", int),
            ("train", "epochs", int), ("train", "batch", int), ("train", "lr", float),
            ("train", "seed", int), ("train", "val_count", int))
    for section, key, cast in grab:
        if ini.has_option(section, key) and getattr(args, key, None) is None:
            text = ini.get(section, key)
            try:
                setattr(args, key, cast(text))
            except ValueError:
                raise UsageError(f"{path}: [{section}] {key}: cannot read {text!r} "
                                 f"as {cast.__name__}") from None


def cmd_train(args):
    _check_out_dirs(args.out, args.report)
    if args.config:
        _apply_config(args, args.config)
    if args.pairs is None:
        raise UsageError("--pairs (or a config [data] pairs entry) is required")
    given = dict(variant=args.variant, steps=args.steps, epochs=args.epochs,
                 batch_size=args.batch, lr=args.lr, seed=args.seed)
    try:
        cfg = TrainConfig(**{k: v for k, v in given.items() if v is not None})
    except TrainingError as exc:
        raise UsageError(str(exc)) from None
    pair_paths = _read_pair_manifest(args.pairs)
    val_count = args.val_count if args.val_count is not None else max(1, len(pair_paths) // 10)
    if val_count < 1:
        raise UsageError(f"--val-count must be at least 1, not {val_count}")
    if val_count >= len(pair_paths):
        raise UsageError(f"validation split of {val_count} leaves none of the "
                         f"{len(pair_paths)} pairs for training")
    # read in manifest order, each training pair only when train asks for it
    result = train(cfg, _load_pairs(pair_paths[:-val_count]),
                   _load_pairs(pair_paths[-val_count:]))
    if result.dropped:
        print(f"warning: {result.dropped} events of the training and validation pairs fell "
              f"outside the {cfg.steps}-step grid", file=sys.stderr)
    if result.val_skipped:
        print(f"warning: {result.val_skipped} of {val_count} validation pairs have no "
              f"defined RMSE and were left out of val_rmse_st", file=sys.stderr)
    save_checkpoint(args.out, result.spec, result.weights, result.log_var, result.seed)
    if args.report:
        result.write_report(args.report)
    print(f"checkpoint: {args.out}")
    print(f"initial_val_rmse_st={result.initial_val_rmse!r}")
    print(f"final_val_rmse_st={result.final_val_rmse!r}")
    return 0


def _check_steps(steps):
    if steps is not None and steps < 1:
        raise UsageError(f"--steps must be at least 1, not {steps}")


def cmd_infer(args):
    _check_out_dirs(args.out)
    _check_steps(args.steps)
    out_path = Path(args.out)
    if guess_format(out_path) == "nmnist_bin":
        raise UsageError(f"{out_path}: cannot write format 'nmnist_bin', "
                         f"use a .csv or .evbin output")
    spec, weights, _, _ = load_checkpoint(args.checkpoint)
    stream = _load_stream(args.input)
    if len(stream) == 0:
        print("warning: empty input stream, writing empty output", file=sys.stderr)
    steps = args.steps if args.steps is not None else steps_to_cover(stream.span_us, spec.dt_ms)
    result, dropped = super_resolve(spec, weights, stream, steps)
    if dropped:
        print(f"warning: {dropped} events fell outside the {steps}-step grid",
              file=sys.stderr)
    save_events(result, out_path, guess_format(out_path))
    print(f"{args.input} -> {out_path} ({len(result)} events at "
          f"{result.width}x{result.height}) events_in={len(stream)} "
          f"events_out={len(result)} dropped={dropped}")
    return 0


def _load_pair(pred_path, gt_path):
    """Load a prediction and its ground truth, on one geometry where they fit.

    CSV stores no geometry, and its loader infers the smallest one that
    holds the events.  So a CSV side takes the other side's geometry,
    or with two CSV sides the larger size on each axis, if its events
    fit in it.
    """
    streams = [_load_stream(pred_path), _load_stream(gt_path)]
    csv = [guess_format(path) == "csv" for path in (pred_path, gt_path)]
    fixed = [s for s, is_csv in zip(streams, csv) if not is_csv] or streams
    width, height = max(s.width for s in fixed), max(s.height for s in fixed)
    return [EventStream(s.t, s.x, s.y, s.p, width, height, s.t0, s.t1)
            if is_csv and s.width <= width and s.height <= height else s
            for s, is_csv in zip(streams, csv)]


def _eval_one(pred_path, gt_path, steps):
    pred, gt = _load_pair(pred_path, gt_path)
    if (pred.width, pred.height) != (gt.width, gt.height):
        raise UsageError(
            f"geometry mismatch: {pred_path} is {pred.width}x{pred.height}, "
            f"{gt_path} is {gt.width}x{gt.height}")
    if steps is None:
        t0, t1 = common_span(pred, gt)
        steps = steps_to_cover(t1 - t0)
    report = rmse_st(pred, gt, steps)
    if report.dropped:
        print(f"warning: {report.dropped} events of {pred_path} and {gt_path} fell outside "
              f"the {steps}-step grid", file=sys.stderr)
    return report


def cmd_eval(args):
    if args.manifest and (args.pred or args.gt):
        raise UsageError("give --manifest or --pred and --gt, not both")
    if args.out and not args.manifest:
        raise UsageError("--out writes the --manifest batch CSV; a single pair prints")
    _check_out_dirs(args.out)
    _check_steps(args.steps)
    if args.manifest:
        reports = [(pred, _eval_one(pred, gt, args.steps))
                   for pred, gt in _read_pair_manifest(args.manifest)]
        rows = [f"pred,{MetricsReport.csv_header()}"]
        rows += [f"{pred},{rep.to_csv_row()}" for pred, rep in reports]
        # a vacuous pair has no comparable cell, so its 100 % is no accuracy
        graded = {"rmse_st": [rep.rmse_st for _, rep in reports],
                  "pa_percent": [rep.pa_percent for _, rep in reports if not rep.pa_vacuous]}
        means = {name: repr(float(np.mean(values))) for name, values in graded.items() if values}
        rows.append(",".join(["mean"] + [means.get(name, "") for name in MetricsReport.FIELDS]))
        text = "\n".join(rows) + "\n"
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0
    if not (args.pred and args.gt):
        raise UsageError("eval needs --pred and --gt, or --manifest")
    print(_eval_one(args.pred, args.gt, args.steps).to_kv())
    return 0


def _render_frame(counts):
    """RGB byte image of one frame's [2, H, W] counts (channel 0 positive):
    red for positive, blue for negative, white background, scaled by the
    frame's busiest pixel."""
    pos, neg = counts
    peak = counts.max()
    img = np.full(pos.shape + (3,), 255.0)
    if peak > 0:
        sp, sn = pos / peak, neg / peak
        img[..., 0] -= 255.0 * sn
        img[..., 1] -= 255.0 * np.minimum(1.0, sp + sn)
        img[..., 2] -= 255.0 * sp
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _write_ppm(path, img):
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def cmd_render(args):
    _check_out_dirs(args.out)
    stream = _load_stream(args.input)
    prefix = Path(args.out)
    if args.every is None:
        width = stream.span_us + 1   # one frame holds the whole span
    else:
        width = round(args.every * US_PER_MS) if math.isfinite(args.every) else 0
        if width < 1:
            raise UsageError(f"--every must be a number of milliseconds that rounds to at "
                             f"least one microsecond, not {args.every}")
    # frame k is step k of event_bins' grid; a grid that covers the span drops nothing
    dt = width / US_PER_MS
    n = steps_to_cover(stream.span_us, dt)
    coords, _ = event_bins(stream, n, dt)
    frame = (0, stream.height, 0, stream.width)
    for k in range(n):
        path = (prefix.with_suffix(".ppm") if args.every is None
                else prefix.with_name(f"{prefix.name}_{k:04d}.ppm"))
        counts = _count_voxels(*_voxel_index(coords, frame, k, k + 1))
        _write_ppm(path, _render_frame(counts[..., 0]))
    print(f"wrote {path}" if args.every is None else f"wrote {n} frames to {prefix.parent}")
    return 0


def cmd_info(args):
    if args.checkpoint:
        spec, _, log_var, seed = load_checkpoint(args.checkpoint)
    else:
        spec = NetworkSpec(args.variant)
    if args.dims:
        try:
            flops = count_flops(spec, *_parse_ints(args.dims, "dims", "HxWxT"))
        except ModelError as exc:
            raise UsageError(str(exc)) from None
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
        print(f"seed: {seed}")
        print(f"log_var: {log_var.tolist()}")
    print(f"variant: {spec.variant}")
    print(f"params: {count_params(spec)}")
    for i, (layer, neuron) in enumerate(zip(spec.layers, spec.neuron_cfgs)):
        print(f"layer {i}: {layer.kind} {layer.in_channels}->{layer.out_channels} kernel "
              f"{layer.kernel_h}x{layer.kernel_w} stride {layer.stride} pad {layer.padding}")
        print(f"neuron {i}: v_th={neuron.v_th} tau_s={neuron.tau_s} "
              f"tau_r={neuron.tau_r} lam={neuron.lam} tau_rho={neuron.tau_rho} "
              f"rho={neuron.rho}")
    if args.dims:
        print(f"flops: {flops}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(prog="spikesr",
                                  description="Event-stream 2x super-resolution")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a moving-bar corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", default="32x32")
    p.add_argument("--dur", type=float, default=64.0, help="milliseconds")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("downsample", help="emit 2x-downsampled twins")
    p.add_argument("--manifest")
    p.add_argument("inputs", nargs="*")
    p.set_defaults(fn=cmd_downsample)

    p = sub.add_parser("train", help="fit a network on LR/HR pairs")
    p.add_argument("--pairs", help="manifest of lr_path,hr_path lines")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--steps", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--val-count", type=int, dest="val_count")
    p.add_argument("--out", default="model.ckpt")
    p.add_argument("--report")
    p.add_argument("--config", help="INI file with [train]/[model]/[data] sections")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="super-resolve one stream")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="compare a stream against ground truth")
    p.add_argument("--pred")
    p.add_argument("--gt")
    p.add_argument("--manifest", help="pred_path,gt_path lines for batch mode")
    p.add_argument("--out", help="CSV destination in batch mode")
    p.add_argument("--steps", type=int)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("render", help="rasterise events to PPM images",
                       description="A frame is one step of the event_bins time grid, "
                       "--every wide, or one frame for the whole stream without it. "
                       "An event at the stream's last timestamp lands in the last frame.")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--every", type=float,
                   help="frame width in milliseconds, rounded to whole microseconds")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("info", help="describe a variant or checkpoint")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--variant", choices=VARIANTS)
    target.add_argument("--checkpoint")
    p.add_argument("--dims", help="HxWxT for a FLOP count")
    p.set_defaults(fn=cmd_info)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EventFormatError, EventError, ModelError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
