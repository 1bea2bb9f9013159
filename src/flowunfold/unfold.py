"""Unrolled proximal-gradient reconstruction network.

Each fold owns an independent copy of the invertible prior plus two trainable
scalars: the data-consistency step size mu and a shrinkage strength rho with
lambda = softplus(rho), so lambda stays positive with no projection step.
One reconstruction runs

    x <- initial guess (fold 0's flow applied to the zero latent)
    folds 0..K-2:   xt = x + mu_k A^T (y - A x)
                    zt = f_k(xt)
                    x  = g_k(zt / (1 + lambda_k))
    fold K-1:       x  = x + mu_K A^T (y - A x)

The prior acts only through the shrink.  The last fold applies none, so its
flow pass would compute g(f(xt)) = xt up to rounding: it runs the data step
alone.  Its flow and rho stay in the parameter store, so checkpoints keep one
layout; they get exactly zero gradient.

The descent form of the data step is used: x + mu A^T(y - Ax) decreases
0.5 ||y - Ax||^2 for small mu.

Every flow pass is a walk of its flow's plan
(:class:`flowunfold.flow.FlowPlan`), the one cache of what the weights
fix: the fold loop reads each body fold's plan once per call, and its
passes record for the reverse sweep on the training path and keep nothing
on the inference path.  No fold-loop pass sums a log-det, since the loss
reads none.  A flow keeps its last plan with a copy of its slice of the
parameter store, and builds a new one only when one comparison finds the
slice changed; so a call makes one comparison per fold before the last.
The initial guess depends only on fold 0's flow weights, so inference
keeps it with fold 0's plan and shares it across calls, as every image of
a batch shares it.

Every image of a batch is reconstructed independently, so a large batch
runs as tiles of about TILE_VALUES pixel values, mapped over a thread pool
with one worker per usable CPU: numpy releases the interpreter lock in the
gathers and matmuls that take most of the time.
Each row's arithmetic does not depend on the rows beside it, so the output
is bitwise the same however the batch is cut.
"""

from __future__ import annotations

import contextvars
import math
import os

import numpy as np

from .diff import ParamStore
from .errors import ConfigError, ShapeError
from .flow import FlowModel
from .operators import ForwardOp

__all__ = ["Fold", "UnrolledNet", "dc_step", "prox_shrink", "reconstruct"]

MU_INIT = 0.5
LAMBDA_INIT = 0.1

# Pixel values per tile of a batched reconstruction: 4 images at 64x64, so
# a batch of 16 still gives 4 workers a tile each.  Inference keeps no
# contexts, so a tile in flight holds about 1.2 MB per row, and each worker's
# conv scratch buffer is 2.4 MB.  Measured on 2 cores (README, "Where the
# time goes"), 16384 took a fifth less time than 8192; tiles of half a
# 16-image batch, one per worker, took 7 % less again but raised the peak
# RSS by 9 MB.
TILE_VALUES = 16384

# CPUs this process may run on: the pool's worker count.
if hasattr(os, "sched_getaffinity"):
    CPUS = len(os.sched_getaffinity(0))
else:
    CPUS = os.cpu_count() or 1

_POOL = None  # the tile workers, one per process, started by the first batch of several tiles


def _softplus(x: float) -> float:
    return float(np.logaddexp(0.0, x))


def _sigmoid(x: float) -> float:
    return 0.5 * (1.0 + math.tanh(0.5 * x))


class Fold:
    """One unrolled iteration: a flow prior plus (mu, rho) scalars."""

    def __init__(self, shape, levels, depth, hidden, store, prefix):
        self.flow = FlowModel(shape, levels, depth, hidden, store, prefix=prefix)
        self.mu = store.add(prefix + ".mu", np.array(MU_INIT))
        self.rho = store.add(prefix + ".rho", np.array(math.log(math.expm1(LAMBDA_INIT))))

    @staticmethod
    def param_count(shape, levels, depth, hidden) -> int:
        """The parameter values a fold adds to its store: its flow's, mu's
        and rho's."""
        return FlowModel.param_count(shape, levels, depth, hidden) + 2

    @property
    def lam(self) -> float:
        return _softplus(self.rho.item())


class UnrolledNet:
    """K folds of identical architecture with independent parameters."""

    def __init__(
        self, shape: tuple[int, int, int], folds: int, levels: int, depth: int, hidden: int
    ):
        if folds < 1:
            raise ConfigError(f"need at least 1 fold, got {folds}")
        self.shape = tuple(shape)
        self.store = ParamStore()
        # reserved exactly before any fold is built, so the buffers never move
        self.store.reserve(folds * Fold.param_count(shape, levels, depth, hidden))
        self.folds = [
            Fold(shape, levels, depth, hidden, self.store, f"fold{k}") for k in range(folds)
        ]

    @property
    def k(self) -> int:
        return len(self.folds)

    def load_pretrained_prior(self, flow: FlowModel) -> None:
        """Copy one pretrained flow into every fold (values copied, storage
        independent, so fine-tuning unties them)."""
        for fold in self.folds:
            fold.flow.copy_state_from(flow)

    # -- forward --------------------------------------------------------------

    def initial_guess(self) -> np.ndarray:
        """The prior's most likely image, fold 0's inverse at the zero latent:
        x0 of shape (1, C, H, W), read-only.  It is the same for every
        measurement, so a batch broadcasts this one row.

        It is kept with fold 0's plan (:meth:`FlowPlan.inverse_of_zero`), so
        it is computed again only when fold 0's flow weights changed; the
        training path computes its own, with a record
        (:meth:`reconstruct_batch_grad`)."""
        return self.folds[0].flow.plan().inverse_of_zero()

    def _check_batch(self, y: np.ndarray) -> None:
        """A measurement batch must be (B, C, H, W) with B >= 1 images of the
        net's shape: an empty batch has nothing to reconstruct and, on the
        training path, no loss to differentiate, so it raises too."""
        if y.ndim != 4 or y.shape[1:] != self.shape or len(y) == 0:
            raise ShapeError.mismatch("measurement batch (B >= 1 images)", y.shape,
                                      ("B",) + self.shape)

    def reconstruct_batch(self, y: np.ndarray, op: ForwardOp) -> np.ndarray:
        """Pure batched reconstruction, (B, C, H, W) measurements in and out.
        A batch of more than one tile is cut into tiles of
        ``max(1, TILE_VALUES // (C*H*W))`` rows that run on the process's
        thread pool; the result is bitwise the same either way.  The plans
        are read once, here, for every tile."""
        global _POOL
        self._check_batch(y)
        plans = self._plans()
        x0 = plans[0].inverse_of_zero()
        rows = max(1, TILE_VALUES // math.prod(y.shape[1:]))
        if len(y) <= rows:
            return self._unroll(x0, y, op, plans)
        if _POOL is None:
            # imported here: concurrent.futures brings in logging, 0.6 MB of
            # resident memory that a process which never tiles need not pay
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(CPUS, thread_name_prefix="flowunfold-tile")
        tiles = [y[start : start + rows] for start in range(0, len(y), rows)]
        # each tile runs in a copy of the caller's context, so a caller's
        # np.errstate holds on the workers as it would untiled
        runs = [contextvars.copy_context().run for _ in tiles]
        outs = _POOL.map(lambda run, tile: run(self._unroll, x0, tile, op, plans), runs, tiles)
        return np.concatenate(list(outs))

    def reconstruct_batch_grad(self, y: np.ndarray, op: ForwardOp):
        """Like reconstruct_batch, untiled, but records every intermediate
        needed by :meth:`reconstruct_backward`.  Returns (x_hat, pipeline
        record).  Its initial guess is computed afresh, with the record its
        reverse rule needs: Adam changes fold 0's weights at every step, so
        the cached one would match only at an epoch's first step."""
        self._check_batch(y)
        steps = []
        flow = self.folds[0].flow
        x0, ctx_init = flow.inverse_batch(np.zeros((1, flow.n)))
        return self._unroll(x0, y, op, self._plans(), steps), (op, ctx_init, steps)

    def _plans(self) -> list:
        """The plans of every fold before the last, which run their flows,
        and of fold 0 when it is the only fold, since its plan holds x0."""
        return [fold.flow.plan() for fold in self.folds[: max(1, self.k - 1)]]

    def _unroll(self, x0, y, op, plans, steps=None):
        """The fold loop from the initial guess ``x0`` (one row, broadcast
        over the batch), each flow pass a walk of its fold's plan in
        ``plans``.  Inference passes no ``steps``: the walks keep nothing,
        so it holds one layer's activations at a time.  Training passes a
        ``steps`` list: the walks record, and each fold appends what the
        reverse sweep needs, ``(atr, z, ctx_f, ctx_i)`` for the folds before
        the last, ``atr`` alone for the last."""
        x = np.broadcast_to(x0, y.shape)
        *body, last = self.folds
        for k, fold in enumerate(body):
            xt, atr = dc_step(x, y, op, fold.mu.item())
            ctx_f, ctx_i = (None, None) if steps is None else ([], [])
            z = prox_shrink(plans[k].forward(xt, ctx_f), fold.lam)
            x = plans[k].inverse(z, ctx_i)
            if steps is not None:
                steps.append((atr, z, ctx_f, ctx_i))
        x, atr = dc_step(x, y, op, last.mu.item())
        if steps is not None:
            steps.append(atr)
        return x

    # -- reverse sweep ---------------------------------------------------------

    def reconstruct_backward(self, pipe, g_xhat: np.ndarray) -> None:
        """Accumulate d(scalar loss)/d(params) for every fold parameter,
        the scalars mu_k and rho_k included, given the loss cotangent of
        the reconstruction.  The last fold's flow and rho are not on the
        path, so their gradients stay as they are."""
        op, ctx_init, steps = pipe
        *body, last = self.folds
        g_x = _dc_backward(last, steps[-1], g_xhat, op)
        for fold, (atr, zp, ctx_f, ctx_i) in reversed(list(zip(body, steps))):
            g_zp = fold.flow.backward_inverse(ctx_i, g_x)
            s = 1.0 / (1.0 + fold.lam)
            g_lam = -s * float((g_zp * zp).sum())
            fold.rho.grad += g_lam * _sigmoid(fold.rho.item())
            g_xt = fold.flow.backward_forward(ctx_f, g_zp * s, None)
            g_x = _dc_backward(fold, atr, g_xt, op)
        # initial-guess path: x0 = g_0(0), one row broadcast over the batch, so
        # its cotangent is the batch sum; it flows only into fold 0's flow
        # parameters.
        self.folds[0].flow.backward_inverse(ctx_init, g_x.sum(axis=0, keepdims=True))


# -- module-level operations ----------------------------------------------------


def dc_step(x: np.ndarray, y: np.ndarray, op: ForwardOp, mu: float):
    """Gradient-descent step on the data term: returns
    ``(x + mu A^T (y - A x), A^T (y - A x))``; the second is d xt / d mu."""
    if x.shape != y.shape:
        raise ShapeError.mismatch("dc_step measurement", y.shape, x.shape)
    atr = op.adjoint(y - op.apply(x))
    return x + mu * atr, atr


def _dc_backward(fold: Fold, atr: np.ndarray, g_xt: np.ndarray, op: ForwardOp):
    """Reverse rule of :func:`dc_step`: accumulate mu's gradient and return
    the cotangent of its input x; d xt / d x = I - mu A^T A, symmetric."""
    fold.mu.grad += float((g_xt * atr).sum())
    return g_xt - fold.mu.item() * op.adjoint(op.apply(g_xt))


def prox_shrink(z: np.ndarray, lam: float) -> np.ndarray:
    """Proximal map of (lam/2)||z||^2: uniform shrinkage z / (1 + lam)."""
    return z / (1.0 + lam)


def reconstruct(net: UnrolledNet, y: np.ndarray, op: ForwardOp) -> np.ndarray:
    """Single-image reconstruction, (C, H, W) in and out."""
    return net.reconstruct_batch(y[None], op)[0]
