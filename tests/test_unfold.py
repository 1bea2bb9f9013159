"""Tests for the unrolled reconstruction network."""

import re

import numpy as np
import pytest

from flowunfold import checks, unfold
from flowunfold.checks import landweber
from flowunfold.io import ImageSet, synth_blobs
from flowunfold.diff import grad_check, zero_grads
from flowunfold.errors import ShapeError, SingularMatrixError
from flowunfold.numerics import Prng
from flowunfold.operators import CenterMask, ForwardOp, GaussianBlur, Identity, make_measurement
from flowunfold.train import TrainConfig, pretrain, train_unrolled
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
        x0 = net.initial_guess()
        assert np.array_equal(x0, np.zeros((1, 1, 16, 16)))

    def test_maps_back_to_zero_latent(self):
        net = _random_net((1, 8, 8), 2, 2, 2, 4, seed=0x16)
        x0 = net.initial_guess()
        z, _, _ = net.folds[0].flow.forward_batch(x0)
        assert np.max(np.abs(z)) < 1e-8

    def test_deterministic(self):
        net = _random_net((1, 8, 8), 2, 2, 2, 4, seed=0x17)
        assert np.array_equal(net.initial_guess(), net.initial_guess())

    @pytest.mark.parametrize("shape", [(1, 16, 16), (3, 8, 16)])
    def test_one_row_equals_every_row_of_a_batch(self, shape):
        # a batch broadcasts the batch-1 guess; inverting B zero latents
        # would give the same rows bit for bit
        net = _random_net(shape, 2, 2, 2, 4, seed=0x18)
        x0 = net.initial_guess()
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


class TestMeasurementBatchShape:
    """Both reconstruction methods check the measurement batch before any
    work: a (B, C, H, W) batch of B >= 1 images of the net's shape."""

    @pytest.mark.parametrize("shape", [(2, 1, 8, 8), (1, 16, 16), (0, 1, 16, 16)],
                             ids=["wrong-size", "3-D", "empty"])
    def test_a_malformed_batch_raises_shape_error(self, shape):
        net = _random_net((1, 16, 16), 3, 2, 1, 4, seed=0x7D)
        op = CenterMask((1, 16, 16), 3)
        y = np.zeros(shape)
        expected = re.escape(f"got shape {shape}, expected ('B', 1, 16, 16)")
        for method in (net.reconstruct_batch, net.reconstruct_batch_grad):
            with pytest.raises(ShapeError, match="^measurement batch.*" + expected):
                method(y, op)

    def test_single_image_of_the_wrong_size_raises_shape_error(self):
        net = _random_net((1, 16, 16), 2, 2, 1, 4, seed=0x7E)
        with pytest.raises(ShapeError, match="^measurement batch"):
            reconstruct(net, np.zeros((1, 8, 8)), CenterMask((1, 8, 8), 3))


class TestOneLoop:
    """Both public reconstruction methods run the same fold loop."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kind", sorted(_OPS))
    def test_recording_and_plain_paths_agree_bitwise(self, kind, batch):
        # hidden=16 puts every coupling's second conv on the conv's col2im
        # side (fewer output than input channels); hidden=4 never does
        shape = (1, 8, 8)
        op = _OPS[kind](shape)
        y = Prng(15).gauss_array((batch,) + shape)
        for hidden in (4, 16):
            net = _random_net(shape, 3, 2, 2, hidden, seed=0x7F)
            x_hat, (_, _, steps) = net.reconstruct_batch_grad(y, op)
            assert len(steps) == net.k
            assert np.array_equal(x_hat, net.reconstruct_batch(y, op)), hidden

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


def _full_path(net, y, op):
    """The fold loop as it was before the last fold became its data step
    alone: every fold runs its flow pass, the last with no shrink, so the
    last computes g(f(x_t))."""
    x0 = net.initial_guess()
    x = np.broadcast_to(x0, y.shape)
    for k, fold in enumerate(net.folds):
        xt, _ = dc_step(x, y, op, fold.mu.item())
        z, _, _ = fold.flow.forward_batch(xt)
        if k < net.k - 1:
            z = prox_shrink(z, fold.lam)
        x, _ = fold.flow.inverse_batch(z)
    return x


def _last_flow_names(net):
    last = f"fold{net.k - 1}."
    return [
        n for n in net.store.names()
        if n.startswith(last) and n not in (last + "mu", last + "rho")
    ]


class TestLastFoldIsTheDataStep:
    """Fold K-1 applies no shrink, so its flow pass g(f(x_t)) = x_t is left
    out: it runs x_t = x + mu A^T (y - A x) alone."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 8, 16)], ids=["1x8x8", "3x8x16"])
    def test_matches_the_full_path(self, shape, k, batch):
        net = _random_net(shape, k, 2, 2, 4, seed=0x80 + k)
        y = Prng(0x81 + batch).gauss_array((batch,) + shape)
        for kind in sorted(_OPS):
            op = _OPS[kind](shape)
            ref = _full_path(net, y, op)
            assert np.max(np.abs(net.reconstruct_batch(y, op) - ref)) < 1e-12, kind
            x_hat, (_, _, steps) = net.reconstruct_batch_grad(y, op)
            assert np.max(np.abs(x_hat - ref)) < 1e-12, kind
            assert isinstance(steps[-1], np.ndarray), kind  # atr alone

    @pytest.mark.parametrize("k", [2, 3])
    def test_last_flow_and_rho_get_exactly_zero_gradient(self, k):
        shape = (1, 8, 8)
        net = _random_net(shape, k, 2, 2, 4, seed=0x82)
        op = CenterMask(shape, 3)
        y = Prng(0x83).gauss_array((3,) + shape)
        zero_grads(net.store)
        _, pipe = net.reconstruct_batch_grad(y, op)
        net.reconstruct_backward(pipe, Prng(0x84).gauss_array((3,) + shape))
        last = f"fold{k - 1}."
        for name in _last_flow_names(net) + [last + "rho"]:
            assert not np.any(net.store[name].grad), name
        assert net.store[last + "mu"].grad != 0.0
        assert np.any(net.store["fold0.level0.step0.invconv.weight"].grad)

    def test_fine_tune_leaves_the_last_flow_at_the_prior(self):
        imgs = synth_blobs(40, (1, 8, 8), 0x85)
        data = ImageSet(imgs[:32], imgs[32:36], imgs[36:])
        cfg = TrainConfig(task="inpaint", K=2, L=1, D=2, hidden=4, max_epochs=1,
                          patience=1, seed=5)
        prior = pretrain(data, cfg)
        net = train_unrolled(data, cfg, prior)
        names = _last_flow_names(net)
        assert len(names) == len(prior.store)
        for name in names:
            own = name.split(".", 1)[1]
            assert np.array_equal(net.store[name].value, prior.store[own].value), name
        moved = net.store["fold0.level0.step0.invconv.weight"].value
        assert not np.array_equal(moved, prior.store["level0.step0.invconv.weight"].value)

    def test_store_layout_is_unchanged(self):
        # checkpoints and the per-fold round-trip check rely on every fold,
        # the last one included, keeping its whole flow in the store
        net = UnrolledNet((1, 16, 16), 3, 2, 4, 16)
        names = net.store.names()
        assert len(names) == 174
        per_fold = {k: [n for n in names if n.startswith(f"fold{k}.")] for k in range(3)}
        assert all(len(v) == 58 for v in per_fold.values())
        assert [n.split(".", 1)[1] for n in per_fold[2]] == [
            n.split(".", 1)[1] for n in per_fold[0]
        ]
        assert "fold2.level1.step3.coupling.conv2.weight" in names
        assert "fold2.rho" in names


_SHAPE64 = (1, 64, 64)


class TestTiledBatch:
    """A batch of more than TILE_VALUES pixel values runs as tiles on the
    process's thread pool, whatever the CPU count; every row stays bitwise
    what a batch of one gives."""

    @pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
    def cpus(self, request, monkeypatch):
        """The pool's worker count forced to 1 or 2, with no pool started;
        a pool the test starts is shut down after it."""
        monkeypatch.setattr(unfold, "CPUS", request.param)
        monkeypatch.setattr(unfold, "_POOL", None)
        yield request.param
        if unfold._POOL is not None:
            unfold._POOL.shutdown()

    @pytest.fixture(scope="class")
    def net64(self):
        return _random_net(_SHAPE64, 3, 2, 4, 16, seed=0x90)

    @pytest.mark.parametrize("batch", [16, 5])  # 5: tiles of 2, 2 and 1
    def test_tiles_equal_single_rows_bitwise(self, net64, cpus, batch):
        op = GaussianBlur(_SHAPE64, 1.0, 3)
        y = Prng(0x91 + batch).gauss_array((batch,) + _SHAPE64)
        out = net64.reconstruct_batch(y, op)
        assert unfold._POOL._max_workers == cpus
        rows = np.stack([reconstruct(net64, row, op) for row in y])
        assert np.array_equal(out, rows)

    @pytest.mark.parametrize("batch", [16, 32])
    def test_one_tile_makes_no_pool(self, cpus, batch):
        shape = (1, 16, 16)
        net = _random_net(shape, 3, 2, 2, 4, seed=0x92)
        net.reconstruct_batch(Prng(0x93).gauss_array((batch,) + shape), CenterMask(shape, 5))
        assert unfold._POOL is None

    @pytest.mark.parametrize("fold", [0, 1])
    def test_singular_weight_in_a_body_fold_is_named(self, fold):
        # the plans are warm first: the write makes them stale, and building
        # a plan over a singular weight raises, on every call
        shape = (1, 8, 8)
        net = _random_net(shape, 3, 2, 2, 4, seed=0x96)
        op = CenterMask(shape, 3)
        y = Prng(0x97).gauss_array((2,) + shape)
        net.reconstruct_batch(y, op)
        name = f"fold{fold}.level1.step1.invconv.weight"
        net.store[name].value[...] = 1.0
        for _ in range(2):
            with pytest.raises(SingularMatrixError, match=re.escape(name + ": matrix of size 8")):
                net.reconstruct_batch(y, op)

    def test_singular_weight_in_a_tile_is_named(self, cpus):
        net = _random_net(_SHAPE64, 3, 2, 2, 4, seed=0x94)
        name = "fold1.level0.step1.invconv.weight"
        net.store[name].value[...] = 1.0
        y = Prng(0x95).gauss_array((16,) + _SHAPE64)
        with pytest.raises(SingularMatrixError, match=re.escape(name + ": matrix of size 4")):
            net.reconstruct_batch(y, GaussianBlur(_SHAPE64, 1.0, 3))


    def test_the_callers_error_state_holds_in_every_tile(self, cpus):
        # fold 0's huge step overflows every row; the caller silences that,
        # so no tile may warn (a RuntimeWarning is an error under pytest)
        net = _random_net(_SHAPE64, 3, 2, 2, 4, seed=0x98)
        net.folds[0].mu.value[...] = 1e308
        y = Prng(0x99).gauss_array((16,) + _SHAPE64)
        with np.errstate(over="ignore", invalid="ignore"):
            out = net.reconstruct_batch(y, GaussianBlur(_SHAPE64, 1.0, 3))
        assert unfold._POOL is not None
        assert not np.isfinite(out).reshape(16, -1).all(axis=1).any()


def _mse_loss_fn(net, y, op, x_true):
    def f(store):
        x_hat, pipe = net.reconstruct_batch_grad(y, op)
        diff = x_hat - x_true
        loss = float((diff * diff).mean())
        net.reconstruct_backward(pipe, 2.0 * diff / diff.size)
        return loss

    return f


class TestEndToEndGradients:
    def test_mse_grad_check_two_folds(self):
        net = _random_net((1, 8, 8), 2, 2, 1, 4, seed=0x7D)
        op = CenterMask((1, 8, 8), 3)
        rng = Prng(13)
        x_true = rng.gauss_array((2, 1, 8, 8)) * 0.3
        y = op.apply(x_true) + 0.05 * rng.gauss_array((2, 1, 8, 8))
        f = _mse_loss_fn(net, y, op, x_true)
        assert grad_check(f, net.store, 64) < 1e-5

    def test_scalar_grads_exact(self):
        # direct central differences on every mu and rho
        net = _random_net((1, 8, 8), 3, 2, 1, 4, seed=0x7E)
        op = GaussianBlur((1, 8, 8), 1.0, 2)
        rng = Prng(14)
        x_true = rng.gauss_array((2, 1, 8, 8)) * 0.3
        y = op.apply(x_true)
        f = _mse_loss_fn(net, y, op, x_true)

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


class _OneSidedBlur(ForwardOp):
    """A x = 0.7 x + 0.3 x moved up one row, circularly: neither symmetric
    nor orthogonal, so swapping apply and adjoint changes the result.  It is
    circulant, hence normal (A^T A = A A^T), so a rule that swaps A and A^T
    inside A^T A still gives the right answer with it."""

    kind = "one-sided blur"
    normal = True

    def apply(self, x):
        self._check(x)
        return 0.7 * x + 0.3 * np.roll(x, -1, axis=-2)

    def adjoint(self, v):
        self._check(v)
        return 0.7 * v + 0.3 * np.roll(v, 1, axis=-2)


class _MaskAfterBlur(ForwardOp):
    """A = M B, the 3x3 centre mask after the one-sided blur.  A^T A = B^T M B
    but A A^T = M B B^T M, so A is not normal, and swapping A and A^T inside
    A^T A gives a wrong answer."""

    kind = "mask after one-sided blur"
    normal = False

    def __init__(self, shape):
        super().__init__(shape)
        self.blur, self.mask = _OneSidedBlur(shape), CenterMask(shape, 3)

    def apply(self, x):
        return self.mask.apply(self.blur.apply(x))

    def adjoint(self, v):
        return self.blur.adjoint(self.mask.adjoint(v))


_NOT_SELF_ADJOINT = (_OneSidedBlur, _MaskAfterBlur)


class TestNonSelfAdjointOperator:
    """Every package operator is its own adjoint, and normal; these tell the
    fold loop's apply from its adjoint, and the last tells A^T A from A A^T.
    Each test runs both operators."""

    def test_adjoint_dot_test(self):
        shape = (1, 8, 8)
        rng = Prng(0x5A)
        for op in (make(shape) for make in _NOT_SELF_ADJOINT):
            for _ in range(10):
                u, v = rng.gauss_array((2, 2) + shape)
                dot = float((op.apply(u) * v).sum() - (u * op.adjoint(v)).sum())
                assert abs(dot) < 1e-12, op.kind
            x = rng.gauss_array(shape)
            assert np.max(np.abs(op.apply(x) - op.adjoint(x))) > 0.1, op.kind
            basis = np.eye(64).reshape((64,) + shape)
            a = op.apply(basis).reshape(64, 64).T  # column i is A e_i
            assert np.array_equal(op.adjoint(basis).reshape(64, 64), a), op.kind
            assert (np.max(np.abs(a.T @ a - a @ a.T)) < 1e-12) == op.normal, op.kind

    @pytest.mark.parametrize("batch", [1, 3])
    def test_identity_flows_match_landweber(self, batch):
        shape = (1, 8, 8)
        rng = Prng(0x5B + batch)
        for op in (make(shape) for make in _NOT_SELF_ADJOINT):
            mus = [0.3 + 0.4 * rng.uniform() for _ in range(3)]
            rhos = [-3.0 + 2.0 * rng.uniform() for _ in range(3)]
            net = _identity_net(shape, 3, mus, rhos)
            y = rng.gauss_array((batch,) + shape)
            ref = landweber(y, op, mus, [fold.lam for fold in net.folds])
            plain = net.reconstruct_batch(y, op)
            assert np.max(np.abs(plain - ref)) < 1e-10, op.kind
            assert np.array_equal(net.reconstruct_batch_grad(y, op)[0], plain), op.kind

    def test_end_to_end_grad_check(self):
        shape = (1, 8, 8)
        for op in (make(shape) for make in _NOT_SELF_ADJOINT):
            net = _random_net(shape, 2, 2, 1, 4, seed=0x7C)
            rng = Prng(16)
            x_true = rng.gauss_array((2,) + shape) * 0.3
            y = op.apply(x_true) + 0.05 * rng.gauss_array((2,) + shape)
            f = _mse_loss_fn(net, y, op, x_true)
            assert grad_check(f, net.store, 64) < 1e-5, op.kind


class TestChecksAcrossShapes:
    """Criteria 4 and 5's checks, the adjoint dot test and the Landweber
    oracle, beyond their 1x16x16: a smaller square, three channels on a
    non-square image, and the criteria's own shape."""

    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 8, 16), (1, 16, 16)])
    def test_adjoints_and_landweber(self, shape):
        for check in (checks.operator_adjoints, checks.landweber_equivalence):
            ok, detail = check(shape)
            assert ok, f"{check.__name__}{shape}: {detail}"
