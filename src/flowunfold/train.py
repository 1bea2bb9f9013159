"""Losses, Adam, and the two trainers (likelihood pretraining and end-to-end
fine-tuning), which share one epoch loop.  The loop takes every Adam
setting from the config once, and it stops early on a validation metric
and writes back the best epoch's values.

Datasets are duck-typed: anything with ``train``, ``val``, ``test`` arrays of
shape (N, C, H, W), values in [-0.5, 0.5].  Measurement pairs are regenerated
every epoch from per-sample sub-seeds, so noise acts as augmentation while
runs stay bit-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .diff import ParamStore, zero_grads
from .errors import ConfigError, DataError, ShapeError, SingularMatrixError, TrainingError
from .flow import LOG_2PI, FlowModel
from .io import nonempty_split
from .numerics import Prng, derive_seed
from .operators import TASKS, default_geometry, measure_by_id, operator_for_task
from .unfold import UnrolledNet

__all__ = [
    "TrainConfig",
    "AdamState",
    "nll_loss",
    "nll_loss_grad",
    "mse_loss",
    "psnr",
    "adam_update",
    "pretrain",
    "train_unrolled",
]

# sub-seed stream tags
_TAG_INIT = 1
_TAG_SHUFFLE = 2
_TAG_TRAIN_NOISE = 3
_TAG_VAL_NOISE = 4


@dataclass
class TrainConfig:
    """Every config-file key with its type and default.  The sentinels
    (sigma_n = -1, lr = 0, mask_w = 0, blur_radius = 0) mean "work it out":
    :meth:`resolved` fills them in against the task and the image shape."""

    task: str = "denoise"
    sigma_n: float = -1.0  # -1: task default (0.1 denoise, 0 otherwise)
    mask_w: int = 0
    sigma_b: float = 1.0
    blur_radius: int = 0
    K: int = 3  # folds
    L: int = 2  # flow levels
    D: int = 4  # flow steps per level
    hidden: int = 16
    lr: float = 0.0  # 0: 1e-4 when min(H, W) < 32, else 1e-5
    scalar_lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    batch_size: int = 16
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    height: int = 16
    width: int = 16
    channels: int = 1
    count: int = 500

    def resolved(self, shape=None, task: str | None = None) -> "TrainConfig":
        """A copy with the task and image shape (when given) set, checked by
        :meth:`validate`, and every sentinel replaced by its value."""
        cfg = replace(self)
        if task is not None:
            cfg.task = task
        if shape is not None:
            cfg.channels, cfg.height, cfg.width = shape
        cfg.validate()
        if cfg.sigma_n < 0:
            cfg.sigma_n = 0.1 if cfg.task == "denoise" else 0.0
        if cfg.lr == 0:
            cfg.lr = 1e-4 if min(cfg.height, cfg.width) < 32 else 1e-5
        cfg.mask_w, cfg.blur_radius = default_geometry(
            (cfg.channels, cfg.height, cfg.width), cfg.mask_w, cfg.sigma_b, cfg.blur_radius
        )
        return cfg

    def validate(self) -> "TrainConfig":
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.lr < 0 or self.scalar_lr <= 0:
            raise ConfigError("learning rates must be > 0 (lr = 0: size default)")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.sigma_n < 0 and self.sigma_n != -1:
            raise ConfigError(f"sigma_n must be >= 0 or -1 (task default), got {self.sigma_n}")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise ConfigError("Adam betas must lie in (0, 1)")
        if self.eps_adam <= 0:
            raise ConfigError("eps_adam must be > 0")
        if self.sigma_b <= 0:
            raise ConfigError(f"sigma_b must be > 0, got {self.sigma_b}")
        for field in ("K", "L", "D", "hidden", "batch_size", "max_epochs",
                      "height", "width", "channels", "count"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1, got {getattr(self, field)}")
        return self


# -- losses and metric -----------------------------------------------------------


def nll_loss(batch: np.ndarray, flow: FlowModel) -> float:
    """Negative log-likelihood in nats per dimension, averaged over the batch."""
    lp = flow.log_prob_batch(batch)
    return float(-lp.mean() / flow.n)


def nll_loss_grad(batch: np.ndarray, flow: FlowModel) -> float:
    """nll_loss plus gradient accumulation into the flow's parameters."""
    b = batch.shape[0]
    z, ld, ctx = flow.forward_batch(batch)
    lp = -0.5 * flow.n * LOG_2PI - 0.5 * (z * z).sum(axis=1) + ld
    scale = 1.0 / (b * flow.n)
    flow.backward_forward(ctx, z * scale, np.full(b, -scale))
    return float(-lp.mean() / flow.n)


def mse_loss(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Mean squared difference over all elements."""
    if x_hat.shape != x_true.shape:
        raise ShapeError.mismatch("mse_loss inputs", x_hat.shape, x_true.shape)
    d = x_hat - x_true
    return float((d * d).mean())


def psnr(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """10 log10(1 / mse) in dB (peak 1, the width of the [-0.5, 0.5] pixel
    range), capped at 99.0 for near-zero error; nan, without a warning,
    when the mse is not finite (x_hat is not, or is so large that the
    squares overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mse = mse_loss(x_hat, x_true)
    if not math.isfinite(mse):
        return math.nan
    if mse < 1e-12:
        return 99.0
    return 10.0 * math.log10(1.0 / mse)


# -- optimizer --------------------------------------------------------------------


class AdamState:
    """Adam's settings, taken from a config once: ``beta1``, ``beta2``,
    ``eps_adam`` and each value's learning rate, fixed by one rule:
    ``scalar_lr`` for a parameter whose name ends in ``.mu`` or ``.rho`` (a
    fold's step size and shrinkage), ``lr`` for every other one.  Beside
    them, flat first/second moment buffers over a ParamStore's values, the
    step count and one scratch buffer of the same length."""

    def __init__(self, store: ParamStore, cfg: TrainConfig):
        self.lr = np.repeat([cfg.scalar_lr if p.name.endswith((".mu", ".rho")) else cfg.lr
                             for p in store], [p.value.size for p in store])
        self.beta1, self.beta2, self.eps = cfg.beta1, cfg.beta2, cfg.eps_adam
        self.m = np.zeros(store.size)
        self.v = np.zeros(store.size)
        self.t = 0
        self._scratch = np.empty(store.size)


def adam_update(store: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam step on every parameter; zeroes gradients.

    Runs over the store's flat buffers in place, with the state's scratch
    buffer and, once the moments are updated, the gradient buffer holding
    the intermediates.  Each value sees the operations of the scalar
    recurrence in the same order, so the result is bitwise that of a
    per-parameter loop."""
    state.t += 1
    beta1, beta2 = state.beta1, state.beta2
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    values, g, m, v, tmp = store.values, store.grads, state.m, state.v, state._scratch
    m *= beta1
    m += np.multiply(1.0 - beta1, g, out=tmp)
    v *= beta2
    v += np.multiply(np.multiply(1.0 - beta2, g, out=tmp), g, out=tmp)
    denom = np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), state.eps, out=tmp)
    step = np.divide(np.divide(m, bc1, out=g), denom, out=g)
    values -= np.multiply(state.lr, step, out=g)
    zero_grads(store)


# -- the epoch loop -------------------------------------------------------------------


def _shuffled_indices(n: int, seed: int, epoch: int) -> np.ndarray:
    rng = Prng(derive_seed(seed, _TAG_SHUFFLE, epoch))
    return np.argsort(rng.uniform_array(n), kind="stable")


def _checked(loss_fn, epoch: int, phase: str) -> float:
    """Run one train batch or val pass; a singular 1x1 conv weight or a
    non-finite loss raises TrainingError naming the epoch."""
    try:
        loss = loss_fn()
    except SingularMatrixError as exc:
        raise TrainingError(f"epoch {epoch}: {phase} pass: {exc}") from exc
    if not math.isfinite(loss):
        raise TrainingError(f"epoch {epoch}: non-finite {phase} loss {loss}")
    return loss


def _fit(store: ParamStore, cfg: TrainConfig, n_train: int, batch_loss, val_loss, log):
    """Train ``store`` with Adam over shuffled batches of the n_train
    training images, one step per ``batch_loss(epoch, indices)`` (which
    accumulates the gradients).  Stops once ``val_loss()`` has not gone
    below its best (a tie is no improvement) for ``cfg.patience`` epochs,
    then writes back the values of the best epoch, not the last.  A
    non-finite loss, a singular 1x1 conv weight or a non-finite parameter
    after an Adam step raises TrainingError."""
    state = AdamState(store, cfg)
    best_val, since, snap = math.inf, 0, None
    t0 = time.monotonic()
    for epoch in range(1, cfg.max_epochs + 1):
        order = _shuffled_indices(n_train, cfg.seed, epoch - 1)
        total = 0.0
        for batch, start in enumerate(range(0, n_train, cfg.batch_size), 1):
            batch_idx = order[start : start + cfg.batch_size]
            loss = _checked(lambda: batch_loss(epoch, batch_idx), epoch, "train")
            adam_update(store, state)
            finite = np.isfinite(store.values)
            if not finite.all():
                bad, _ = store.locate(int(np.argmin(finite)))  # the first False
                raise TrainingError(f"epoch {epoch}, batch {batch}: {bad.name} is non-finite")
            total += loss * len(batch_idx)
        val = _checked(val_loss, epoch, "val")
        if log is not None:
            log(f"{epoch}\t{total / n_train:.6f}\t{val:.6f}\t{time.monotonic() - t0:.3f}")
        if val < best_val:
            best_val, since, snap = val, 0, store.snapshot()
        else:
            since += 1
            if since >= cfg.patience:
                break
    store.values[...] = snap  # epoch 1's finite val always improves on inf


# -- pretraining ---------------------------------------------------------------------


def pretrain(dataset, cfg: TrainConfig, log=None) -> FlowModel:
    """Maximum-likelihood training of a single flow prior.

    Actnorms are data-initialized on the first batch; Adam then minimizes
    nats/dim with early stopping on validation NLL.  Returns the
    best-validation model.
    """
    train = nonempty_split(dataset, "train")
    val = nonempty_split(dataset, "val")
    shape = train.shape[1:]
    cfg = cfg.resolved(shape)

    store = ParamStore()
    flow = FlowModel(shape, cfg.L, cfg.D, cfg.hidden, store)
    flow.random_init(Prng(derive_seed(cfg.seed, _TAG_INIT)))
    # FlowModel.data_init needs 2 images at least, whatever batch_size is
    first = train[_shuffled_indices(len(train), cfg.seed, 0)[: max(2, cfg.batch_size)]]
    if len(first) < 2:
        raise DataError("pretraining needs at least 2 training images")
    flow.data_init(first)

    def batch_loss(epoch, batch_idx):
        return nll_loss_grad(train[batch_idx], flow)

    _fit(store, cfg, len(train), batch_loss, lambda: nll_loss(val, flow), log)
    return flow


# -- end-to-end fine-tuning ------------------------------------------------------------


def train_unrolled(
    dataset, cfg: TrainConfig, pretrained: FlowModel | None, log=None
) -> UnrolledNet:
    """Fine-tune the K-fold unrolled network end to end on MSE.

    Every fold starts as an independent copy of ``pretrained`` when given
    (weight untying), or as the identity flow when None (the from-scratch
    ablation arm).  Measurements are synthesized on the fly; validation
    measurements reuse fixed per-sample sub-seeds so early stopping sees a
    stable metric.
    """
    train = nonempty_split(dataset, "train")
    val = nonempty_split(dataset, "val")
    shape = train.shape[1:]
    cfg = cfg.resolved(shape)

    op = operator_for_task(cfg.task, shape, cfg.mask_w, cfg.sigma_b, cfg.blur_radius)
    net = UnrolledNet(shape, cfg.K, cfg.L, cfg.D, cfg.hidden)
    if pretrained is not None:
        net.load_pretrained_prior(pretrained)  # ConfigError on an arch mismatch

    val_y = measure_by_id(op, val, cfg.sigma_n, range(len(val)), cfg.seed, _TAG_VAL_NOISE, 0)

    pipe = None

    def batch_loss(epoch, batch_idx):
        # the previous batch's record is released only once this batch's is
        # built: released sooner, its pages go back to the OS and fault in
        # again (on a 2-core x86 host at 16x16, B = 16: 3x the minor page
        # faults and 20% fewer fine-tune images per second)
        nonlocal pipe
        x_true = train[batch_idx]
        y = measure_by_id(op, x_true, cfg.sigma_n, batch_idx, cfg.seed,
                          _TAG_TRAIN_NOISE, epoch - 1)
        x_hat, pipe = net.reconstruct_batch_grad(y, op)
        diff = x_hat - x_true
        net.reconstruct_backward(pipe, 2.0 * diff / diff.size)
        return float((diff * diff).mean())

    def val_loss():
        total = 0.0
        for start in range(0, len(val), cfg.batch_size):
            x_hat = net.reconstruct_batch(val_y[start : start + cfg.batch_size], op)
            d = x_hat - val[start : start + cfg.batch_size]
            total += float((d * d).sum())
        return total / val.size

    _fit(net.store, cfg, len(train), batch_loss, val_loss, log)
    return net
