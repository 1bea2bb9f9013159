"""The three file formats: images, dataset directories and checkpoints.

All are deliberately minimal and bit-exact:

* images: binary PGM (P5, grayscale) / PPM (P6, color), 8-bit, maxval 255;
  pixel v loads as v/255 - 0.5, saving rounds 255(x + 0.5) clamped to [0, 255];
* datasets: a directory of images named ``{index:05d}.pgm`` (``.ppm`` for
  color) plus ``manifest.txt``, one ``index<TAB>split`` line per image;
* checkpoints: magic "UNFW", u32 version, u64 entry count, then per entry
  u32 name length + UTF-8 name, u32 rank, u64 dims, f64 values, all
  little-endian; names are unique.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diff import ParamStore
from .errors import CheckpointError, DataError
from .numerics import Prng, derive_seed

__all__ = [
    "ImageSet", "load_image", "save_image", "load_dataset", "save_dataset", "nonempty_split",
    "synth_blobs", "split_counts", "save_checkpoint", "load_checkpoint", "restore_into",
]

# sub-seed stream tag (continuing the train-module numbering)
_TAG_BLOBS = 10


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
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc.strerror}") from exc
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
    if w < 1 or h < 1:
        raise DataError(f"{path}: image size {w}x{h} is not positive")
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


def _image_name(index: int, channels: int) -> str:
    ext = "pgm" if channels == 1 else "ppm"
    return f"{index:05d}.{ext}"


def save_dataset(dirpath, images: np.ndarray) -> None:
    """Write (N, C, H, W) images as a dataset directory, split 80/10/10 in
    index order by :func:`split_counts`."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    n_train, n_val, _ = split_counts(len(images))
    lines = []
    for i, image in enumerate(images):
        save_image(dirpath / _image_name(i, image.shape[0]), image)
        split = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
        lines.append(f"{i}\t{split}")
    (dirpath / "manifest.txt").write_text("\n".join(lines) + "\n")


def _exists(listing: dict, name: str) -> bool:
    """Whether the entry ``name`` of a directory listing (name -> DirEntry)
    exists as ``Path.exists()`` sees it: a link counts only if its target
    does."""
    entry = listing.get(name)
    return entry is not None and (not entry.is_symlink() or os.path.exists(entry.path))


def load_dataset(dirpath, splits=("train", "val", "test")) -> ImageSet:
    """Load a dataset directory; only the named ``splits`` read their image
    files, the others come back empty.

    With manifest.txt (lines `index<TAB>split`), images load into the listed
    splits, each index at most once, and every line is checked whatever
    splits load; without one, every image file becomes test data.  Which
    files exist is read from one listing of the directory, not asked per
    manifest line.
    """
    dirpath = Path(dirpath)
    if not dirpath.is_dir():
        raise DataError(f"dataset directory {dirpath} does not exist")
    with os.scandir(dirpath) as entries:
        listing = {entry.name: entry for entry in entries}
    manifest = dirpath / "manifest.txt"
    images: dict[str, list] = {"train": [], "val": [], "test": []}
    ids: dict[str, list] = {"train": [], "val": [], "test": []}
    if _exists(listing, manifest.name):
        listed: dict[int, int] = {}  # index -> the manifest line that lists it
        for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                idx_str, split = line.split("\t")
                idx = int(idx_str)
            except ValueError as exc:
                raise DataError(f"{manifest}:{lineno}: malformed line {line!r}") from exc
            if split not in images:
                raise DataError(f"{manifest}:{lineno}: unknown split {split!r}")
            if idx in listed:
                raise DataError(
                    f"{manifest}:{lineno}: index {idx} is already listed on line {listed[idx]}"
                )
            listed[idx] = lineno
            for channels in (1, 3):
                name = _image_name(idx, channels)
                if _exists(listing, name):
                    if split in splits:
                        images[split].append(load_image(dirpath / name))
                        ids[split].append(idx)
                    break
            else:
                raise DataError(f"{manifest}:{lineno}: no image file for index {idx}")
    else:
        files = sorted(dirpath / name for name in listing if name.endswith((".pgm", ".ppm")))
        if not files:
            raise DataError(f"{dirpath} holds no .pgm/.ppm images")
        if "test" in splits:
            for i, p in enumerate(files):
                images["test"].append(load_image(p))
                ids["test"].append(i)

    def stack(name):
        imgs = images[name]
        if not imgs:
            return np.zeros((0, 0, 0, 0))
        shapes = {im.shape for im in imgs}
        if len(shapes) > 1:
            raise DataError(f"{name} split mixes image shapes: {sorted(shapes)}")
        return np.stack(imgs)

    return ImageSet(stack("train"), stack("val"), stack("test"), ids)


def nonempty_split(dataset, name: str) -> np.ndarray:
    """The named split of a dataset (anything with train/val/test arrays) as
    a float array; an empty split raises DataError."""
    arr = getattr(dataset, name)
    if len(arr) == 0:
        raise DataError(f"dataset has an empty {name} split")
    return np.asarray(arr, dtype=float)


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
    """Write every parameter, in store order, to the binary format above,
    into a temporary file beside ``path`` that then replaces it: a write
    that fails part-way leaves the old checkpoint and no temporary file."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
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
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint into an ordered name -> array mapping.  The file is
    read into one writable buffer and each entry is a little-endian
    float64 view into it, so no entry aliases a store."""
    try:
        data = bytearray(Path(path).read_bytes())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    if data[:4] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {bytes(data[:4])!r}, expected {_CKPT_MAGIC!r}")
    entries: dict[str, np.ndarray] = {}
    try:
        (version,) = struct.unpack_from("<I", data, 4)
        if version != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (count,) = struct.unpack_from("<Q", data, 8)
        offset = 16
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", data, offset)
            offset += 4
            name = data[offset : offset + name_len].decode("utf-8")
            offset += name_len
            if name in entries:
                raise CheckpointError(f"{path}: entry {name} appears twice")
            (rank,) = struct.unpack_from("<I", data, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}Q", data, offset)
            offset += 8 * rank
            size = math.prod(dims)
            values = np.frombuffer(data, dtype="<f8", count=size, offset=offset)
            offset += 8 * size
            entries[name] = values.reshape(dims)
    except (struct.error, ValueError, OverflowError) as exc:  # Overflow: dims past 2^63
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint") from exc
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes after the last entry")
    return entries


def restore_into(
    store: ParamStore, entries: dict[str, np.ndarray], origin="checkpoint", hint=""
) -> None:
    """Copy loaded entries into a store; names and shapes must match exactly
    and every value must be finite, else the store is left as it was.
    ``hint`` is appended to a name or shape mismatch, the one error a model
    built for other data explains.

    The entries are laid out in store order in one new array, tested for
    finiteness at once and written with one copy; when any check fails, a
    walk in entry order names the first bad entry."""
    want = set(store.names())
    have = set(entries)
    if want != have:
        missing = sorted(want - have)
        extra = sorted(have - want)
        raise CheckpointError(
            f"{origin} does not match the model: missing {missing[:4]}, "
            f"unexpected {extra[:4]}{hint}"
        )
    if not entries:
        return
    if all(value.shape == store[name].value.shape for name, value in entries.items()):
        staged = np.concatenate([entries[p.name].reshape(-1) for p in store])
        if np.isfinite(staged).all():
            store.values[...] = staged
            return
    for name, value in entries.items():
        expected = store[name].value.shape
        if value.shape != expected:
            raise CheckpointError(
                f"{origin} entry {name}: shape {value.shape}, model expects {expected}{hint}"
            )
        if not np.isfinite(value).all():
            raise CheckpointError(f"{origin} entry {name}: holds non-finite values")
