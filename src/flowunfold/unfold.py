"""Unrolled proximal-gradient reconstruction network.

Each fold owns an independent copy of the invertible prior plus two trainable
scalars: the data-consistency step size mu and a shrinkage strength rho with
lambda = softplus(rho), so lambda stays positive with no projection step.
One reconstruction runs

    x <- initial guess (fold 0's flow applied to the zero latent)
    repeat for fold k:   xt = x + mu_k A^T (y - A x)
                         zt = f_k(xt)
                         x  = g_k(zt / (1 + lambda_k))   [last fold: no shrink]

The descent form of the data step is used: x + mu A^T(y - Ax) decreases
0.5 ||y - Ax||^2 for small mu.
"""

from __future__ import annotations

import math

import numpy as np

from .diff import ParamStore
from .errors import ConfigError, ShapeError
from .flow import FlowModel
from .operators import ForwardOp

__all__ = ["Fold", "UnrolledNet", "dc_step", "prox_shrink", "reconstruct"]

MU_INIT = 0.5
LAMBDA_INIT = 0.1


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

    def initial_guess(self):
        """The prior's most likely image, fold 0's inverse at the zero latent:
        ``(x0, ctx)`` with x0 of shape (1, C, H, W).  It is the same for every
        measurement, so a batch broadcasts this one row."""
        return self.folds[0].flow.inverse_batch(np.zeros((1, self.folds[0].flow.n)))

    def reconstruct_batch(self, y: np.ndarray, op: ForwardOp) -> np.ndarray:
        """Pure batched reconstruction, (B, C, H, W) measurements in and out."""
        return self._unroll(y, op, None)[0]

    def reconstruct_batch_grad(self, y: np.ndarray, op: ForwardOp):
        """Like reconstruct_batch but records every intermediate needed by
        :meth:`reconstruct_backward`.  Returns (x_hat, pipeline record)."""
        steps = []
        x, ctx_init = self._unroll(y, op, steps)
        return x, (op, ctx_init, steps)

    def _unroll(self, y, op, steps):
        """The fold loop.  With a ``steps`` list each fold appends what the
        reverse sweep needs; with None every context is dropped as soon as
        its fold is done, so memory does not grow with the fold count."""
        x0, ctx_init = self.initial_guess()
        x = np.broadcast_to(x0, y.shape)
        if steps is None:
            ctx_init = None
        last = self.k - 1
        for k, fold in enumerate(self.folds):
            xt, atr = dc_step(x, y, op, fold.mu.item())
            z, _, ctx_f = fold.flow.forward_batch(xt)
            if k < last:
                z = prox_shrink(z, fold.lam)
            x, ctx_i = fold.flow.inverse_batch(z)
            if steps is not None:
                steps.append((atr, z, ctx_f, ctx_i))
            del ctx_f, ctx_i
        return x, ctx_init

    # -- reverse sweep ---------------------------------------------------------

    def reconstruct_backward(self, pipe, g_xhat: np.ndarray) -> None:
        """Accumulate d(scalar loss)/d(params) for every fold parameter,
        the scalars mu_k and rho_k included, given the loss cotangent of
        the reconstruction."""
        op, ctx_init, steps = pipe
        last = self.k - 1
        g_x = g_xhat
        for k in range(last, -1, -1):
            fold = self.folds[k]
            atr, zp, ctx_f, ctx_i = steps[k]
            g_zp = fold.flow.backward_inverse(ctx_i, g_x)
            if k < last:
                s = 1.0 / (1.0 + fold.lam)
                g_z = g_zp * s
                g_lam = -s * float((g_zp * zp).sum())
                fold.rho.grad += g_lam * _sigmoid(fold.rho.item())
            else:
                g_z = g_zp
            g_xt = fold.flow.backward_forward(ctx_f, g_z, None)
            fold.mu.grad += float((g_xt * atr).sum())
            # d xt / d x_in = I - mu A^T A, symmetric
            g_x = g_xt - fold.mu.item() * op.adjoint(op.apply(g_xt))
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


def prox_shrink(z: np.ndarray, lam: float) -> np.ndarray:
    """Proximal map of (lam/2)||z||^2: uniform shrinkage z / (1 + lam)."""
    return z / (1.0 + lam)


def reconstruct(net: UnrolledNet, y: np.ndarray, op: ForwardOp) -> np.ndarray:
    """Single-image reconstruction, (C, H, W) in and out."""
    return net.reconstruct_batch(y[None], op)[0]
