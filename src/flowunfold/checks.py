"""The invariants the method rests on, each checked once: ``flowunfold
selftest`` runs every check here and acceptance criteria 1-5 call them.

Each check returns ``(ok, detail)``: the verdict and a line with the
measured numbers.  Inputs are fixed seeds and sizes, so a check reads the
same on every run; the operator checks take the image shape as a parameter,
defaulting to the criteria's 1x16x16.  The references the checks compare
against (the central-difference Jacobian, the Landweber recurrence, the
grid argmin and the scalar Adam recurrence) are written only here; the
tests use them too.
"""

from __future__ import annotations

import math

import numpy as np

from .diff import ParamStore, grad_check
from .flow import FlowModel
from .numerics import Prng
from .operators import ForwardOp, Identity, operator_for_task
from .train import AdamState, TrainConfig, adam_update, nll_loss_grad
from .unfold import UnrolledNet, prox_shrink

__all__ = [
    "numeric_logdet",
    "landweber",
    "flow_round_trip",
    "logdet_vs_jacobian",
    "operator_adjoints",
    "prox_grid_oracle",
    "landweber_equivalence",
    "gradients",
    "adam_recurrence",
]

SHAPE = (1, 16, 16)


def _operators(shape):
    return {
        "identity": Identity(shape),
        "mask": operator_for_task("inpaint", shape),
        "blur": operator_for_task("deblur", shape, sigma_b=1.0),
    }


class _MaskAfterBlur(ForwardOp):
    """A = M B, the centre mask after the Gaussian blur.  Each factor is its
    own adjoint, but A is not: A^T = B M.  Nor is it normal, as A^T A = B M B
    and A A^T = M B B M, so a reverse rule that swaps A and A^T inside
    A^T A gives wrong gradients with it, which no single task operator
    shows."""

    kind = "mask_after_blur"

    def __init__(self, shape):
        super().__init__(shape)
        self.blur = operator_for_task("deblur", shape, sigma_b=1.0)
        self.mask = operator_for_task("inpaint", shape)

    def apply(self, x):
        return self.mask.apply(self.blur.apply(x))

    def adjoint(self, v):
        return self.blur.adjoint(self.mask.adjoint(v))


# -- references --------------------------------------------------------------------


def numeric_logdet(flow: FlowModel, x: np.ndarray) -> float:
    """log|det| of the central-difference Jacobian (step 1e-5) of ``flow`` at
    the single sample ``x`` of shape (1, C, H, W)."""
    h = 1e-5
    flat = x.reshape(-1)
    cols = []
    for j in range(flat.size):
        xp, xm = flat.copy(), flat.copy()
        xp[j] += h
        xm[j] -= h
        zp, _, _ = flow.forward_batch(xp.reshape(x.shape))
        zm, _, _ = flow.forward_batch(xm.reshape(x.shape))
        cols.append((zp[0] - zm[0]) / (2 * h))
    return float(np.linalg.slogdet(np.stack(cols, axis=1))[1])


def landweber(y: np.ndarray, op, mus, lams) -> np.ndarray:
    """Damped Landweber from zero: one step per (mu, lam), each but the last
    followed by the shrink x / (1 + lam).  Identity-flow folds reduce to it."""
    x = np.zeros_like(y)
    last = len(mus) - 1
    for k, (mu, lam) in enumerate(zip(mus, lams)):
        x = x + mu * op.adjoint(y - op.apply(x))
        if k < last:
            x = x / (1.0 + lam)
    return x


# -- checks ------------------------------------------------------------------------


def flow_round_trip(tol_inv: float = 1e-8):
    """g(f(x)) = x and f(g(z)) = z over 100 draws each way (criterion 1)."""
    model = FlowModel(SHAPE, 2, 4, 16, ParamStore())
    model.randomize(Prng(0xACC1), scale=0.05)
    rng = Prng(0xACC2)
    x = rng.gauss_array((100,) + SHAPE)
    z, _, _ = model.forward_batch(x)
    err_fwd = float(np.max(np.abs(model.inverse_batch(z)[0] - x)))
    z0 = rng.gauss_array((100, model.n))
    z1, _, _ = model.forward_batch(model.inverse_batch(z0)[0])
    err_inv = float(np.max(np.abs(z1 - z0)))
    ok = err_fwd < tol_inv and err_inv < tol_inv
    return ok, f"round-trip error {err_fwd:.3g} / {err_inv:.3g} over 100 inputs each way"


def logdet_vs_jacobian():
    """The analytic log-det matches the numeric Jacobian's over 10 random
    3x2x2 flows (criterion 2)."""
    worst = 0.0
    for draw in range(10):
        model = FlowModel((3, 2, 2), 1, 2, 8, ParamStore())
        model.randomize(Prng(0xACC3 + draw), scale=0.1)
        x = Prng(0xBCC3 + draw).gauss_array((1, 3, 2, 2))
        _, ld, _ = model.forward_batch(x)
        worst = max(worst, abs(float(ld[0]) - numeric_logdet(model, x)))
    return worst < 1e-6, f"worst analytic-vs-numeric log-det gap {worst:.3g} over 10 draws"


def operator_adjoints(shape=SHAPE):
    """<Au, v> = <u, A^T v> for every operator, the blur is symmetric and
    the mask idempotent, on images of ``shape`` (criterion 4)."""
    rng = Prng(0xACC7)
    ops = _operators(shape)
    worst_dot = 0.0
    for op in ops.values():
        for _ in range(50):
            u, v = rng.gauss_array(shape), rng.gauss_array(shape)
            dot = abs(float((op.apply(u) * v).sum()) - float((u * op.adjoint(v)).sum()))
            worst_dot = max(worst_dot, dot)
    x = rng.gauss_array(shape)
    blur_gap = float(np.max(np.abs(ops["blur"].apply(x) - ops["blur"].adjoint(x))))
    once = ops["mask"].apply(x)
    idempotent = np.array_equal(ops["mask"].apply(once), once)
    ok = worst_dot < 1e-8 and blur_gap < 1e-12 and idempotent
    return ok, (f"worst adjoint dot gap {worst_dot:.3g}, blur symmetry gap "
                f"{blur_gap:.3g}, mask idempotent: {idempotent}")


def prox_grid_oracle():
    """prox_shrink lands on the argmin of 0.5||u - z||^2 + (lam/2)||u||^2
    over a 0.01 grid."""
    z = np.array([1.3, -0.7])
    lam = 0.7
    grid = np.arange(-3.0, 3.0 + 1e-12, 0.01)
    u0, u1 = np.meshgrid(grid, grid, indexing="ij")
    obj = 0.5 * ((u0 - z[0]) ** 2 + (u1 - z[1]) ** 2) + 0.5 * lam * (u0**2 + u1**2)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    err = float(np.max(np.abs(np.array([grid[i], grid[j]]) - prox_shrink(z, lam))))
    return err <= 0.01, f"prox vs grid argmin differ by {err:.3g}"


def landweber_equivalence(shape=SHAPE):
    """With identity flows the net is :func:`landweber`, over 20 problems
    on all three operators, on images of ``shape`` (criterion 5)."""
    rng = Prng(0xACC8)
    ops = list(_operators(shape).values())
    worst = 0.0
    for trial in range(20):
        k = 2 + trial % 3
        net = UnrolledNet(shape, k, 2, 1, 4)
        mus = [0.3 + 0.4 * rng.uniform() for _ in range(k)]
        rhos = [-3.0 + 2.0 * rng.uniform() for _ in range(k)]
        for fold, mu, rho in zip(net.folds, mus, rhos):
            fold.mu.value[...] = mu
            fold.rho.value[...] = rho
        op = ops[trial % 3]
        y = rng.gauss_array(shape)
        ref = landweber(y, op, mus, [fold.lam for fold in net.folds])
        got = net.reconstruct_batch(y[None], op)[0]
        worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst < 1e-10, f"worst gap to standalone iteration {worst:.3g} over 20 problems"


def gradients(tol_grad: float = 1e-5):
    """Likelihood and end-to-end MSE gradients match central differences,
    64 probes each (criterion 3).  The end-to-end check runs twice: with the
    inpainting mask and with the non-normal mask after blur, which alone
    tells A^T A from A A^T in the data step's reverse rule."""
    # eps at the small end so the difference quotient carries its natural
    # roundoff floor (~1e-11); tolerances below that floor must fail
    eps = 1e-7
    flow = FlowModel((1, 8, 8), 2, 2, 8, ParamStore())
    flow.randomize(Prng(0xACC4), scale=0.05)
    batch = Prng(0xACC5).gauss_array((2, 1, 8, 8)) * 0.3
    err_nll = grad_check(lambda s: nll_loss_grad(batch, flow), flow.store, 64, eps=eps)

    net = UnrolledNet(SHAPE, 2, 2, 4, 16)
    rng = Prng(0xACC6)
    for fold in net.folds:
        fold.flow.randomize(rng, scale=0.05)
    x_true = rng.gauss_array((2,) + SHAPE) * 0.3
    noise = 0.05 * rng.gauss_array((2,) + SHAPE)

    def err_mse(op):
        y = op.apply(x_true) + noise

        def mse(store):
            x_hat, pipe = net.reconstruct_batch_grad(y, op)
            d = x_hat - x_true
            net.reconstruct_backward(pipe, 2.0 * d / d.size)
            return float((d * d).mean())

        return grad_check(mse, net.store, 64, eps=eps)

    err_mask = err_mse(operator_for_task("inpaint", SHAPE))
    err_non_normal = err_mse(_MaskAfterBlur(SHAPE))
    ok = max(err_nll, err_mask, err_non_normal) < tol_grad
    return ok, (f"max relative gradient error: likelihood {err_nll:.3g}, "
                f"end-to-end {err_mask:.3g} (mask) / {err_non_normal:.3g} "
                f"(mask after blur), 64 probes each")


def adam_recurrence():
    """Three adam_update steps on 0.5 w^2 follow the scalar Adam recurrence."""
    store = ParamStore()
    p = store.add("w", np.array(1.0))
    state = AdamState(store, TrainConfig(lr=0.1, scalar_lr=0.1))
    ours = []
    for _ in range(3):
        p.grad[...] = p.value  # gradient of 0.5 w^2
        adam_update(store, state)
        ours.append(float(p.value))
    w, m, v = 1.0, 0.0, 0.0
    expect = []
    for t in range(1, 4):
        g = w
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        expect.append(w)
    err = max(abs(a - b) for a, b in zip(ours, expect))
    return err < 1e-12, f"Adam sequence differs from recurrence by {err:.3g}"
