"""Command-line surface: synthetic data, config files, image and checkpoint
formats, training/evaluation commands, and a self-test harness.

File formats are deliberately minimal and bit-exact:

* images: binary PGM (P5, grayscale) / PPM (P6, color), 8-bit, maxval 255;
  pixel v loads as v/255 - 0.5, saving rounds 255(x + 0.5) clamped to [0, 255];
* checkpoints: magic "UNFW", u32 version, u64 entry count, then per entry
  u32 name length + UTF-8 name, u32 rank, u64 dims, f64 values, all
  little-endian;
* configs: `key = value` lines with `#` comments; unknown keys are errors,
  and every command echoes its fully resolved config as `resolved.cfg`.
"""

from __future__ import annotations

import argparse
import math
import struct
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import checks
from .diff import ParamStore
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    FlowUnfoldError,
)
from .flow import FlowModel
from .numerics import Prng, derive_seed
from .operators import TASKS, make_measurement, operator_for_task
from .train import TrainConfig, psnr, pretrain, train_unrolled
from .unfold import UnrolledNet, reconstruct

__all__ = [
    "ImageSet",
    "load_image",
    "save_image",
    "load_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "restore_into",
    "parse_config",
    "echo_config",
    "synth_blobs",
    "main",
]

# sub-seed stream tags (continuing the train-module numbering)
_TAG_BLOBS = 10
_TAG_MEASURE = 11
_TAG_EVAL = 12


# -- image files -----------------------------------------------------------------


def save_image(path, x: np.ndarray) -> None:
    """Write (1, H, W) as binary PGM or (3, H, W) as binary PPM."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] not in (1, 3):
        raise DataError(f"save_image needs (1|3, H, W), got {x.shape}")
    c, h, w = x.shape
    vals = np.clip(np.rint(255.0 * (x + 0.5)), 0, 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    body = vals[0].tobytes() if c == 1 else vals.transpose(1, 2, 0).tobytes()
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(body)


def _read_header_tokens(data: bytes, count: int):
    """Read whitespace-separated header tokens, honoring '#' comments.
    Returns (tokens, offset of the byte after the final single whitespace)."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise DataError("truncated image header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if i >= len(data) or not data[i : i + 1].isspace():
        raise DataError("image header not terminated by whitespace")
    return tokens, i + 1


def load_image(path) -> np.ndarray:
    """Read a binary PGM/PPM file into a (C, H, W) float array in [-0.5, 0.5]."""
    data = Path(path).read_bytes()
    tokens, offset = _read_header_tokens(data, 4)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise DataError(f"{path}: unsupported image magic {magic!r}")
    try:
        w, h, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise DataError(f"{path}: malformed image header") from exc
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    c = 1 if magic == b"P5" else 3
    raster = data[offset : offset + c * h * w]
    if len(raster) != c * h * w:
        raise DataError(f"{path}: raster truncated")
    flat = np.frombuffer(raster, dtype=np.uint8).astype(float)
    img = flat.reshape(h, w)[None] if c == 1 else flat.reshape(h, w, 3).transpose(2, 0, 1)
    return img / 255.0 - 0.5


# -- datasets --------------------------------------------------------------------


@dataclass
class ImageSet:
    """In-memory dataset: (N, C, H, W) arrays per split."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    ids: dict | None = None  # split name -> list of manifest indices


def _image_path(dirpath: Path, index: int, channels: int) -> Path:
    ext = "pgm" if channels == 1 else "ppm"
    return dirpath / f"{index:05d}.{ext}"


def load_dataset(dirpath) -> ImageSet:
    """Load a dataset directory.

    With manifest.txt (lines `index<TAB>split`), images load into the listed
    splits; without one, every image file becomes test data.
    """
    dirpath = Path(dirpath)
    if not dirpath.is_dir():
        raise DataError(f"dataset directory {dirpath} does not exist")
    manifest = dirpath / "manifest.txt"
    splits: dict[str, list] = {"train": [], "val": [], "test": []}
    ids: dict[str, list] = {"train": [], "val": [], "test": []}
    if manifest.exists():
        for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                idx_str, split = line.split("\t")
                idx = int(idx_str)
            except ValueError as exc:
                raise DataError(f"{manifest}:{lineno}: malformed line {line!r}") from exc
            if split not in splits:
                raise DataError(f"{manifest}:{lineno}: unknown split {split!r}")
            for channels in (1, 3):
                p = _image_path(dirpath, idx, channels)
                if p.exists():
                    splits[split].append(load_image(p))
                    ids[split].append(idx)
                    break
            else:
                raise DataError(f"{manifest}:{lineno}: no image file for index {idx}")
    else:
        files = sorted(list(dirpath.glob("*.pgm")) + list(dirpath.glob("*.ppm")))
        if not files:
            raise DataError(f"{dirpath} holds no .pgm/.ppm images")
        for i, p in enumerate(files):
            splits["test"].append(load_image(p))
            ids["test"].append(i)

    def stack(name):
        imgs = splits[name]
        if not imgs:
            return np.zeros((0, 0, 0, 0))
        shapes = {im.shape for im in imgs}
        if len(shapes) > 1:
            raise DataError(f"{name} split mixes image shapes: {sorted(shapes)}")
        return np.stack(imgs)

    return ImageSet(stack("train"), stack("val"), stack("test"), ids)


def synth_blobs(count: int, shape: tuple[int, int, int], seed: int) -> np.ndarray:
    """Sum of 2-3 random anisotropic Gaussian blobs per image, min-max
    rescaled to [-0.5, 0.5].  Deterministic in (seed, index)."""
    c, h, w = shape
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    side = min(h, w)
    out = np.zeros((count, c, h, w))
    for i in range(count):
        rng = Prng(derive_seed(seed, _TAG_BLOBS, i))
        img = np.zeros((c, h, w))
        for _ in range(2 + int(rng.uniform() * 2)):
            cy, cx = rng.uniform() * h, rng.uniform() * w
            sy = (0.1 + 0.3 * rng.uniform()) * side
            sx = (0.1 + 0.3 * rng.uniform()) * side
            theta = rng.uniform() * math.pi
            amp = 0.5 + 0.5 * rng.uniform()
            ct, st = math.cos(theta), math.sin(theta)
            u = ct * (rows - cy) + st * (cols - cx)
            v = -st * (rows - cy) + ct * (cols - cx)
            blob = np.exp(-0.5 * ((u / sy) ** 2 + (v / sx) ** 2))
            for ch in range(c):
                img[ch] += amp * (0.5 + 0.5 * rng.uniform()) * blob if c > 1 else amp * blob
        lo, hi = img.min(), img.max()
        if hi > lo:
            out[i] = (img - lo) / (hi - lo) - 0.5
    return out


def split_counts(n: int) -> tuple[int, int, int]:
    """80/10/10 split sizes; remainders go to test."""
    n_train = (8 * n) // 10
    n_val = n // 10
    return n_train, n_val, n - n_train - n_val


# -- checkpoints -----------------------------------------------------------------

_CKPT_MAGIC = b"UNFW"
_CKPT_VERSION = 1


def save_checkpoint(path, store: ParamStore) -> None:
    """Write every parameter, in store order, to the binary format above."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(struct.pack("<Q", len(store)))
        for p in store:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", p.value.ndim))
            for dim in p.value.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint into an ordered name -> array mapping."""
    data = Path(path).read_bytes()
    if data[:4] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}, expected {_CKPT_MAGIC!r}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (count,) = struct.unpack_from("<Q", data, 8)
    offset = 16
    entries: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", data, offset)
            offset += 4
            name = data[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", data, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}Q", data, offset)
            offset += 8 * rank
            size = int(np.prod(dims)) if rank else 1
            values = np.frombuffer(data, dtype="<f8", count=size, offset=offset)
            offset += 8 * size
            entries[name] = values.reshape(dims).astype(float)
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint") from exc
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes after the last entry")
    return entries


def restore_into(
    store: ParamStore, entries: dict[str, np.ndarray], origin="checkpoint", hint=""
) -> None:
    """Copy loaded entries into a store; names and shapes must match exactly
    and every value must be finite.  ``hint`` is appended to a name or shape
    mismatch, the one error a model built for other data explains."""
    want = set(store.names())
    have = set(entries)
    if want != have:
        missing = sorted(want - have)
        extra = sorted(have - want)
        raise CheckpointError(
            f"{origin} does not match the model: missing {missing[:4]}, "
            f"unexpected {extra[:4]}{hint}"
        )
    for name, value in entries.items():
        expected = store[name].value.shape
        if value.shape != expected:
            raise CheckpointError(
                f"{origin} entry {name}: shape {value.shape}, model expects {expected}{hint}"
            )
        if not np.isfinite(value).all():
            raise CheckpointError(f"{origin} entry {name}: holds non-finite values")
    for name, value in entries.items():
        store[name].value[...] = value


# -- configuration ---------------------------------------------------------------

_CONFIG_TYPES = get_type_hints(TrainConfig)


def parse_config(path) -> TrainConfig:
    """Parse `key = value` lines over the defaults; '#' starts a comment;
    unknown keys error."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
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


# -- restoring models --------------------------------------------------------------


def _restore(store: ParamStore, flows, ckpt_path) -> None:
    """Load a checkpoint into a freshly built model whose flows are
    ``flows``, mark their actnorms initialized and check every 1x1 conv,
    those of flows no reconstruction runs included: a singular weight raises
    SingularMatrixError naming it."""
    hint = (f" (model built for image shape {flows[0].shape}; "
            f"check that the checkpoint was trained at this size)")
    restore_into(store, load_checkpoint(ckpt_path), origin=str(ckpt_path), hint=hint)
    for flow in flows:
        flow.mark_initialized()
        flow.check_invertible()


def _load_net(cfg: TrainConfig, shape, ckpt_path) -> UnrolledNet:
    net = UnrolledNet(shape, cfg.K, cfg.L, cfg.D, cfg.hidden)
    _restore(net.store, [fold.flow for fold in net.folds], ckpt_path)
    return net


def _operator(cfg: TrainConfig, shape):
    return operator_for_task(cfg.task, shape, cfg.mask_w, cfg.sigma_b, cfg.blur_radius)


# -- commands ----------------------------------------------------------------------


def cmd_synth_data(args) -> int:
    h, w = args.size
    shape = (args.channels, h, w)
    cfg = TrainConfig(count=args.count, seed=args.seed).resolved(shape)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DataError(f"{out} exists and is not empty (use --force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    images = synth_blobs(args.count, shape, args.seed)
    n_train, n_val, _ = split_counts(args.count)
    lines = []
    for i in range(args.count):
        save_image(_image_path(out, i, args.channels), images[i])
        split = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
        lines.append(f"{i}\t{split}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    echo_config(cfg, out)
    print(f"wrote {args.count} images to {out}")
    return 0


def _split(dataset: ImageSet, name: str, data) -> np.ndarray:
    arr = getattr(dataset, name)
    if arr.size == 0:
        raise DataError(f"{data} has an empty {name} split")
    return arr


def _save_run(what: str, out, store: ParamStore, lines: list[str], cfg: TrainConfig) -> None:
    """Write a trained model's checkpoint, its per-epoch log beside it and
    the resolved config in the same directory."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, store)
    Path(str(out) + ".log").write_text("".join(line + "\n" for line in lines))
    echo_config(cfg, out.parent)
    print(f"{what} saved to {out} ({len(lines)} epochs)")


def cmd_pretrain(args) -> int:
    dataset = load_dataset(args.data)
    shape = _split(dataset, "train", args.data).shape[1:]
    cfg = parse_config(args.config).resolved(shape)
    lines: list[str] = []
    flow = pretrain(dataset, cfg, log=lines.append)
    _save_run("pretrained prior", args.out, flow.store, lines, cfg)
    return 0


def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    shape = _split(dataset, "train", args.data).shape[1:]
    cfg = parse_config(args.config).resolved(shape, args.task)
    pretrained = None
    if args.pretrained is not None:
        pretrained = FlowModel(shape, cfg.L, cfg.D, cfg.hidden, ParamStore())
        _restore(pretrained.store, [pretrained], args.pretrained)
    lines: list[str] = []
    net = train_unrolled(dataset, cfg, pretrained, log=lines.append)
    _save_run("unrolled net", args.out, net.store, lines, cfg)
    return 0


def _expect_shape(cfg: TrainConfig, shape, what: str) -> None:
    expected = (cfg.channels, cfg.height, cfg.width)
    if tuple(shape) != expected:
        raise DataError(
            f"{what} has shape {tuple(shape)} but the model was configured "
            f"for {expected}"
        )


def cmd_reconstruct(args) -> int:
    x_in = load_image(args.input)
    cfg = parse_config(args.config).resolved(task=args.task)
    _expect_shape(cfg, x_in.shape, f"input image {args.input}")
    net = _load_net(cfg, x_in.shape, args.model)
    op = _operator(cfg, x_in.shape)
    if args.measure:
        rng = Prng(derive_seed(cfg.seed, _TAG_MEASURE))
        y = make_measurement(op, x_in, cfg.sigma_n, rng)
    else:
        y = x_in
    x_hat = reconstruct(net, y, op)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_image(out, x_hat)
    if args.emit_init:
        init_path = out.with_name(out.stem + "_init" + out.suffix)
        save_image(init_path, net.initial_guess()[0][0])
    echo_config(cfg, out.parent)
    print(f"reconstruction written to {out}")
    return 0


def cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    test = _split(dataset, "test", args.data)
    shape = test.shape[1:]
    cfg = parse_config(args.config).resolved(task=args.task)
    _expect_shape(cfg, shape, f"test split of {args.data}")
    net = _load_net(cfg, shape, args.model)
    op = _operator(cfg, shape)
    ids = dataset.ids["test"] if dataset.ids else list(range(len(test)))

    y = np.empty_like(test)
    for i, image_id in enumerate(ids):
        rng = Prng(derive_seed(cfg.seed, _TAG_EVAL, int(image_id)))
        y[i] = make_measurement(op, test[i], cfg.sigma_n, rng)
    x_hat = np.empty_like(test)
    bs = cfg.batch_size
    for start in range(0, len(test), bs):
        x_hat[start : start + bs] = net.reconstruct_batch(y[start : start + bs], op)

    rows = ["image_id,task,psnr_input,psnr_output"]
    p_in, p_out = [], []
    for i, image_id in enumerate(ids):
        pi = psnr(y[i], test[i])
        po = psnr(x_hat[i], test[i])
        p_in.append(pi)
        p_out.append(po)
        rows.append(f"{image_id},{cfg.task},{pi:.6f},{po:.6f}")
    mean_in = sum(p_in) / len(p_in)
    mean_out = sum(p_out) / len(p_out)
    rows.append(f"MEAN,{cfg.task},{mean_in:.6f},{mean_out:.6f}")
    report = Path(args.report)
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text("".join(row + "\n" for row in rows))
    echo_config(cfg, report.parent)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowunfold",
        description="Unrolled proximal-gradient imaging with an invertible prior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic blob dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--size", type=int, nargs=2, default=[16, 16], metavar=("H", "W"))
    p.add_argument("--channels", type=int, default=1, choices=(1, 3))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("pretrain", help="likelihood-pretrain a flow prior")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="fine-tune the unrolled network end to end")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pretrained", help="checkpoint of a pretrained prior")
    group.add_argument("--no-pretrain", action="store_true", help="identity-init ablation arm")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("reconstruct", help="reconstruct one image")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--emit-init", action="store_true")
    p.add_argument("--measure", action="store_true")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("eval", help="PSNR report over a dataset's test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    p.add_argument("--tol-grad", type=float, default=1e-5)
    p.add_argument("--tol-inv", type=float, default=1e-8)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlowUnfoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
