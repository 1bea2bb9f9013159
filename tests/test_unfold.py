"""Tests for the unrolled reconstruction network."""

import numpy as np
import pytest

from flowunfold.checks import landweber
from flowunfold.diff import grad_check, zero_grads
from flowunfold.errors import ShapeError
from flowunfold.numerics import Prng
from flowunfold.operators import CenterMask, GaussianBlur, Identity, make_measurement
from flowunfold.unfold import UnrolledNet, dc_step, prox_shrink, reconstruct


def _identity_net(shape=(1, 16, 16), k=3, mus=None, rhos=None, levels=2):
    net = UnrolledNet(shape, k, levels=levels, depth=1, hidden=4)
    for i, fold in enumerate(net.folds):
        if mus is not None:
            fold.mu.value[...] = mus[i]
        if rhos is not None:
            fold.rho.value[...] = rhos[i]
    return net


def _random_net(shape, k, levels, depth, hidden, seed, scale=0.05):
    net = UnrolledNet(shape, k, levels, depth, hidden)
    rng = Prng(seed)
    for fold in net.folds:
        fold.flow.randomize(rng, scale=scale)
        fold.mu.value[...] = 0.4 + 0.2 * rng.uniform()
        fold.rho.value[...] = -2.0 + rng.uniform()
    return net


class TestInitialGuess:
    def test_identity_flows_give_zero_image(self):
        net = _identity_net()
        x0, _ = net.initial_guess()
        assert np.array_equal(x0, np.zeros((1, 1, 16, 16)))

    def test_maps_back_to_zero_latent(self):
        net = _random_net((1, 8, 8), 2, 2, 2, 4, seed=0x16)
        x0, _ = net.initial_guess()
        z, _, _ = net.folds[0].flow.forward_batch(x0)
        assert np.max(np.abs(z)) < 1e-8

    def test_deterministic(self):
        net = _random_net((1, 8, 8), 2, 2, 2, 4, seed=0x17)
        assert np.array_equal(net.initial_guess()[0], net.initial_guess()[0])

    @pytest.mark.parametrize("shape", [(1, 16, 16), (3, 8, 16)])
    def test_one_row_equals_every_row_of_a_batch(self, shape):
        # a batch broadcasts the batch-1 guess; inverting B zero latents
        # would give the same rows bit for bit
        net = _random_net(shape, 2, 2, 2, 4, seed=0x18)
        x0, _ = net.initial_guess()
        rows, _ = net.folds[0].flow.inverse_batch(np.zeros((16, net.folds[0].flow.n)))
        assert x0.shape == (1,) + shape
        assert all(np.array_equal(row, x0[0]) for row in rows)


class TestDcStep:
    def test_zero_mu_is_identity(self):
        op = Identity((1, 4, 4))
        x = Prng(1).gauss_array((1, 4, 4))
        y = Prng(2).gauss_array((1, 4, 4))
        assert np.array_equal(dc_step(x, y, op, 0.0)[0], x)

    def test_direct_substitution(self):
        op = Identity((1, 4, 4))
        y = np.full((1, 4, 4), 0.8)
        out, atr = dc_step(np.zeros((1, 4, 4)), y, op, 0.5)
        assert np.max(np.abs(out - 0.4)) < 1e-15
        assert np.array_equal(atr, y)

    def test_zero_residual_fixed_point(self):
        op = CenterMask((1, 8, 8), 3)
        x = Prng(3).gauss_array((1, 8, 8))
        y = op.apply(x)
        assert np.array_equal(dc_step(x, y, op, 0.7)[0], x)

    def test_shape_mismatch(self):
        op = Identity((1, 4, 4))
        with pytest.raises(ShapeError):
            dc_step(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)), op, 0.5)


class TestProxShrink:
    def test_lambda_zero_identity(self):
        z = Prng(4).gauss_array(10)
        assert np.array_equal(prox_shrink(z, 0.0), z)

    def test_formula_example(self):
        assert prox_shrink(np.array([2.0, -4.0]), 1.0).tolist() == [1.0, -2.0]

    def test_non_expansive(self):
        rng = Prng(5)
        for lam in (0.0, 0.3, 2.5):
            u = rng.gauss_array(32)
            v = rng.gauss_array(32)
            d_out = np.linalg.norm(prox_shrink(u, lam) - prox_shrink(v, lam))
            assert d_out <= np.linalg.norm(u - v) + 1e-15


class TestReconstruct:
    def test_identity_pipeline_returns_measurement(self):
        # rho = -40 puts the shrink factor numerically at 1
        net = _identity_net(k=3, mus=[1.0] * 3, rhos=[-40.0] * 3)
        op = Identity((1, 16, 16))
        y = Prng(6).gauss_array((1, 16, 16))
        assert np.array_equal(reconstruct(net, y, op), y)

    def test_landweber_equivalence(self):
        shape = (1, 16, 16)
        ops = [Identity(shape), CenterMask(shape, 5), GaussianBlur(shape, 1.0, 3)]
        rng = Prng(0x1A2B)
        for trial in range(20):
            op = ops[trial % 3]
            k = 2 + trial % 3
            mus = [0.3 + 0.4 * rng.uniform() for _ in range(k)]
            rhos = [-3.0 + 2.0 * rng.uniform() for _ in range(k)]
            net = _identity_net(shape, k, mus, rhos)
            lams = [fold.lam for fold in net.folds]
            y = rng.gauss_array(shape)
            ours = reconstruct(net, y, op)
            ref = landweber(y, op, mus, lams)
            assert np.max(np.abs(ours - ref)) < 1e-10

    def test_output_shape_all_tasks(self):
        shape = (1, 8, 8)
        net = _identity_net(shape, 2)
        rng = Prng(7)
        x = rng.gauss_array(shape)
        for op in (Identity(shape), CenterMask(shape, 3), GaussianBlur(shape, 1.0, 2)):
            y = make_measurement(op, x, 0.1, rng)
            assert reconstruct(net, y, op).shape == shape

    def test_bitwise_deterministic(self):
        net = _random_net((1, 8, 8), 2, 2, 1, 4, seed=0x77)
        op = CenterMask((1, 8, 8), 3)
        y = Prng(8).gauss_array((1, 8, 8))
        assert np.array_equal(reconstruct(net, y, op), reconstruct(net, y, op))

    def test_untied_folds_independent(self):
        net = _random_net((1, 8, 8), 3, 2, 1, 4, seed=0x79)
        before = {
            p.name: p.value.copy() for p in net.store if not p.name.startswith("fold1")
        }
        for p in net.store:
            if p.name.startswith("fold1"):
                p.value[...] += 0.25
        for name, old in before.items():
            assert np.array_equal(net.store[name].value, old), name


_OPS = {
    "identity": lambda shape: Identity(shape),
    "mask": lambda shape: CenterMask(shape, 3),
    "blur": lambda shape: GaussianBlur(shape, 1.0, 2),
}


class TestOneLoop:
    """Both public reconstruction methods run the same fold loop."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kind", sorted(_OPS))
    def test_recording_and_plain_paths_agree_bitwise(self, kind, batch):
        shape = (1, 8, 8)
        net = _random_net(shape, 3, 2, 2, 4, seed=0x7F)
        op = _OPS[kind](shape)
        y = Prng(15).gauss_array((batch,) + shape)
        x_hat, (_, _, steps) = net.reconstruct_batch_grad(y, op)
        assert len(steps) == net.k
        assert np.array_equal(x_hat, net.reconstruct_batch(y, op))

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 8, 16)], ids=["1x8x8", "3x8x16"])
    def test_identity_flows_match_landweber_across_shapes(self, shape, levels, batch):
        rng = Prng(0x1A2C + 7 * levels + batch)
        for kind in sorted(_OPS):
            op = _OPS[kind](shape)
            mus = [0.3 + 0.4 * rng.uniform() for _ in range(3)]
            rhos = [-3.0 + 2.0 * rng.uniform() for _ in range(3)]
            net = _identity_net(shape, 3, mus, rhos, levels=levels)
            y = rng.gauss_array((batch,) + shape)
            ref = landweber(y, op, mus, [fold.lam for fold in net.folds])
            plain = net.reconstruct_batch(y, op)
            assert np.max(np.abs(plain - ref)) < 1e-10, kind
            assert np.array_equal(net.reconstruct_batch_grad(y, op)[0], plain), kind


class TestEndToEndGradients:
    def _loss_fn(self, net, y, op, x_true):
        def f(store):
            x_hat, pipe = net.reconstruct_batch_grad(y, op)
            diff = x_hat - x_true
            loss = float((diff * diff).mean())
            net.reconstruct_backward(pipe, 2.0 * diff / diff.size)
            return loss

        return f

    def test_mse_grad_check_two_folds(self):
        net = _random_net((1, 8, 8), 2, 2, 1, 4, seed=0x7D)
        op = CenterMask((1, 8, 8), 3)
        rng = Prng(13)
        x_true = rng.gauss_array((2, 1, 8, 8)) * 0.3
        y = op.apply(x_true) + 0.05 * rng.gauss_array((2, 1, 8, 8))
        f = self._loss_fn(net, y, op, x_true)
        assert grad_check(f, net.store, 64) < 1e-5

    def test_scalar_grads_exact(self):
        # direct central differences on every mu and rho
        net = _random_net((1, 8, 8), 3, 2, 1, 4, seed=0x7E)
        op = GaussianBlur((1, 8, 8), 1.0, 2)
        rng = Prng(14)
        x_true = rng.gauss_array((2, 1, 8, 8)) * 0.3
        y = op.apply(x_true)
        f = self._loss_fn(net, y, op, x_true)

        zero_grads(net.store)
        f(net.store)
        scalars = [p for fold in net.folds for p in (fold.mu, fold.rho)]
        analytic_grads = {p.name: float(p.grad) for p in scalars}
        eps = 1e-6
        for fold in net.folds:
            for p in (fold.mu, fold.rho):
                analytic = analytic_grads[p.name]
                old = float(p.value)
                p.value[...] = old + eps
                up = f(net.store)
                p.value[...] = old - eps
                down = f(net.store)
                p.value[...] = old
                numeric = (up - down) / (2 * eps)
                assert abs(analytic - numeric) / max(1.0, abs(numeric)) < 1e-6, p.name
