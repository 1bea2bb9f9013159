"""Command-line surface: config files, synthetic data, training/evaluation
commands, and a self-test harness.  The image, dataset and checkpoint
formats live in :mod:`flowunfold.io`.

Configs are `key = value` lines with `#` comments; unknown keys are errors,
and every command echoes its fully resolved config as `resolved.cfg`.  A
config that is missing, unreadable or invalid exits 2; any other failure
exits 1 with one `error:` line.  Output paths are checked before any work,
creating nothing: an output under a regular file, or one that is an
existing directory, exits 1; `echo_config` makes the output directory just
before the outputs are written, so a command that fails on the way leaves
none behind.

The argument parser is built once per process, by the first `main` call,
and reused by every later one; it names each command, and `main` calls
that command's `cmd_*` function as the module holds it at the time.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import checks
from .diff import ParamStore
from .errors import ConfigError, DataError, FlowUnfoldError, ReconstructionError
from .flow import FlowModel
from .io import (
    load_checkpoint,
    load_dataset,
    load_image,
    nonempty_split,
    restore_into,
    save_checkpoint,
    save_dataset,
    save_image,
    synth_blobs,
)
from .numerics import Prng, derive_seed
from .operators import TASKS, make_measurement, measure_by_id, operator_for_task
from .train import TrainConfig, psnr, pretrain, train_unrolled
from .unfold import UnrolledNet, reconstruct

__all__ = ["parse_config", "echo_config", "main"]

# sub-seed stream tags (continuing the io-module numbering)
_TAG_MEASURE = 11
_TAG_EVAL = 12


# -- configuration ---------------------------------------------------------------

_CONFIG_TYPES = get_type_hints(TrainConfig)


def parse_config(path) -> TrainConfig:
    """Parse `key = value` lines over the defaults; '#' starts a comment;
    unknown keys error."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        typ = _CONFIG_TYPES[key]
        try:
            values[key] = typ(value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} expects {typ.__name__}, got {value!r}"
            ) from exc
    return TrainConfig(**values)


def echo_config(cfg: TrainConfig, dirpath) -> None:
    """Write the fully resolved config, replayable through parse_config."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]
    (dirpath / "resolved.cfg").write_text("\n".join(lines) + "\n")


def _check_output(path) -> None:
    """Fail, creating nothing, unless the output file ``path`` can be
    written: it is not an existing directory, and the nearest existing
    ancestor of its directory is a directory."""
    path = Path(path)
    if path.is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    ancestor = next((p for p in path.parents if p.exists()), Path("."))
    if not ancestor.is_dir():
        raise DataError(f"cannot write {path}: {ancestor} is not a directory")


# -- restoring models --------------------------------------------------------------


def _restore(store: ParamStore, flows, ckpt_path) -> None:
    """Load a checkpoint into a freshly built model whose flows are
    ``flows`` and build every flow's plan, for the reconstructions and, on
    the flows they never run, as the check that raises SingularMatrixError
    naming a singular 1x1 weight."""
    hint = (f" (model built for image shape {flows[0].shape}; "
            f"check that the checkpoint was trained at this size)")
    restore_into(store, load_checkpoint(ckpt_path), origin=str(ckpt_path), hint=hint)
    for flow in flows:
        flow.plan()


def _load_net(args, shape, what: str):
    """``args.config`` resolved for ``args.task``, the net of ``args.model``
    built for image shape ``shape`` (which must be the config's; ``what``
    names the images in the error) and the task's operator."""
    cfg = parse_config(args.config).resolved(task=args.task)
    expected = (cfg.channels, cfg.height, cfg.width)
    if tuple(shape) != expected:
        raise DataError(
            f"{what} has shape {tuple(shape)} but the model was configured "
            f"for {expected}"
        )
    net = UnrolledNet(shape, cfg.K, cfg.L, cfg.D, cfg.hidden)
    _restore(net.store, [fold.flow for fold in net.folds], args.model)
    op = operator_for_task(cfg.task, shape, cfg.mask_w, cfg.sigma_b, cfg.blur_radius)
    return cfg, net, op


# -- commands ----------------------------------------------------------------------


def cmd_synth_data(args) -> int:
    h, w = args.size
    shape = (args.channels, h, w)
    cfg = TrainConfig(count=args.count, seed=args.seed).resolved(shape)
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise DataError(f"{out} exists and is not a directory")
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DataError(f"{out} exists and is not empty (use --force to overwrite)")
    save_dataset(out, synth_blobs(args.count, shape, args.seed))
    echo_config(cfg, out)
    print(f"wrote {args.count} images to {out}")
    return 0


def _save_run(what: str, out, store: ParamStore, lines: list[str], cfg: TrainConfig) -> None:
    """Write a trained model's checkpoint, its per-epoch log beside it and
    the resolved config in the same directory."""
    out = Path(out)
    echo_config(cfg, out.parent)
    save_checkpoint(out, store)
    Path(str(out) + ".log").write_text("".join(line + "\n" for line in lines))
    print(f"{what} saved to {out} ({len(lines)} epochs)")


def cmd_pretrain(args) -> int:
    _check_output(args.out)
    dataset = load_dataset(args.data, splits=("train", "val"))
    shape = nonempty_split(dataset, "train").shape[1:]
    cfg = parse_config(args.config).resolved(shape)
    lines: list[str] = []
    flow = pretrain(dataset, cfg, log=lines.append)
    _save_run("pretrained prior", args.out, flow.store, lines, cfg)
    return 0


def cmd_train(args) -> int:
    _check_output(args.out)
    dataset = load_dataset(args.data, splits=("train", "val"))
    shape = nonempty_split(dataset, "train").shape[1:]
    cfg = parse_config(args.config).resolved(shape, args.task)
    pretrained = None
    if args.pretrained is not None:
        pretrained = FlowModel(shape, cfg.L, cfg.D, cfg.hidden, ParamStore())
        _restore(pretrained.store, [pretrained], args.pretrained)
    lines: list[str] = []
    net = train_unrolled(dataset, cfg, pretrained, log=lines.append)
    _save_run("unrolled net", args.out, net.store, lines, cfg)
    return 0


def _overflowed(what: str) -> ReconstructionError:
    """The error for a reconstruction of ``what`` that is not finite, or so
    large that its error against a bounded image overflows, which
    :func:`psnr` reports as nan."""
    return ReconstructionError(
        f"{what}: the reconstruction is not finite or its error overflows; "
        f"the model's arithmetic overflowed on this measurement")


def cmd_reconstruct(args) -> int:
    _check_output(args.output)
    x_in = load_image(args.input)
    cfg, net, op = _load_net(args, x_in.shape, f"input image {args.input}")
    if args.measure:
        rng = Prng(derive_seed(cfg.seed, _TAG_MEASURE))
        y = make_measurement(op, x_in, cfg.sigma_n, rng)
    else:
        y = x_in
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite output fails below
        x_hat = reconstruct(net, y, op)
    if math.isnan(psnr(x_hat, y)):
        raise _overflowed(f"input image {args.input}")
    out = Path(args.output)
    echo_config(cfg, out.parent)
    save_image(out, x_hat)
    if args.emit_init:
        init_path = out.with_name(out.stem + "_init" + out.suffix)
        save_image(init_path, net.initial_guess()[0])
    print(f"reconstruction written to {out}")
    return 0


def cmd_eval(args) -> int:
    _check_output(args.report)
    dataset = load_dataset(args.data, splits=("test",))
    test = nonempty_split(dataset, "test")
    cfg, net, op = _load_net(args, test.shape[1:], f"test split of {args.data}")
    ids = dataset.ids["test"]

    y = measure_by_id(op, test, cfg.sigma_n, ids, cfg.seed, _TAG_EVAL)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite output fails below
        x_hat = net.reconstruct_batch(y, op)

    rows = ["image_id,task,psnr_input,psnr_output"]
    p_in, p_out = [], []
    for i, image_id in enumerate(ids):
        pi = psnr(y[i], test[i])
        po = psnr(x_hat[i], test[i])
        if math.isnan(po):
            raise _overflowed(f"test image {image_id}")
        p_in.append(pi)
        p_out.append(po)
        rows.append(f"{image_id},{cfg.task},{pi:.6f},{po:.6f}")
    mean_in = sum(p_in) / len(p_in)
    mean_out = sum(p_out) / len(p_out)
    rows.append(f"MEAN,{cfg.task},{mean_in:.6f},{mean_out:.6f}")
    report = Path(args.report)
    echo_config(cfg, report.parent)
    report.write_text("".join(row + "\n" for row in rows))
    print(f"mean PSNR: input {mean_in:.6f} dB, output {mean_out:.6f} dB")
    return 0


# -- self test ----------------------------------------------------------------------


def cmd_selftest(args) -> int:
    suite = [
        ("flow-round-trip", lambda: checks.flow_round_trip(args.tol_inv)),
        ("logdet-vs-jacobian", checks.logdet_vs_jacobian),
        ("operator-adjoints", checks.operator_adjoints),
        ("prox-grid-oracle", checks.prox_grid_oracle),
        ("landweber-equivalence", checks.landweber_equivalence),
        ("end-to-end-gradients", lambda: checks.gradients(args.tol_grad)),
        ("adam-recurrence", checks.adam_recurrence),
    ]
    failed = []
    for name, check in suite:
        t0 = time.monotonic()
        ok, detail = check()
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail} ({time.monotonic() - t0:.2f}s)")
        if not ok:
            failed.append(name)
    if failed:
        print(f"self-test failed: {', '.join(failed)}")
        return 1
    print("self-test passed")
    return 0


# -- argument parsing ----------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line grammar, built on the first call: each subcommand
    sets ``args.command``, which names its ``cmd_*`` function."""
    parser = argparse.ArgumentParser(
        prog="flowunfold",
        description="Unrolled proximal-gradient imaging with an invertible prior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic blob dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--size", type=int, nargs=2, default=(16, 16), metavar=("H", "W"))
    p.add_argument("--channels", type=int, default=1, choices=(1, 3))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("pretrain", help="likelihood-pretrain a flow prior")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="fine-tune the unrolled network end to end")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pretrained", help="checkpoint of a pretrained prior")
    group.add_argument("--no-pretrain", action="store_true", help="identity-init ablation arm")
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="reconstruct one image")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--emit-init", action="store_true")
    p.add_argument("--measure", action="store_true")

    p = sub.add_parser("eval", help="PSNR report over a dataset's test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    p.add_argument("--tol-grad", type=float, default=1e-5)
    p.add_argument("--tol-inv", type=float, default=1e-8)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FlowUnfoldError, OSError) as exc:  # OSError: an output path that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
