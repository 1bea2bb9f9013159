"""Losses, the Adam optimizer, early stopping, and both training loops."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import flowunfold
from flowunfold.io import ImageSet, synth_blobs
from flowunfold.diff import ParamStore, grad_check
from flowunfold.errors import (
    ConfigError,
    DataError,
    ShapeError,
    SingularMatrixError,
    TrainingError,
)
from flowunfold.flow import LOG_2PI, FlowModel
from flowunfold.numerics import Prng
from flowunfold.operators import CenterMask
from flowunfold.train import (
    AdamState,
    TrainConfig,
    _fit,
    adam_update,
    mse_loss,
    nll_loss,
    nll_loss_grad,
    pretrain,
    psnr,
    train_unrolled,
)
from flowunfold.unfold import UnrolledNet

_LOG_LINE = re.compile(r"^\d+\t-?\d+\.\d{6}\t-?\d+\.\d{6}\t\d+\.\d{3}$")


def _blob_set(count, shape, seed):
    """80/10/10 split of synthetic blob images."""
    imgs = synth_blobs(count, shape, seed)
    n_tr = (8 * count) // 10
    n_va = count // 10
    return ImageSet(imgs[:n_tr], imgs[n_tr : n_tr + n_va], imgs[n_tr + n_va :])


def _identity_flow(shape, levels=1, depth=1, hidden=4):
    flow = FlowModel(shape, levels, depth, hidden, ParamStore())
    return flow


class TestNll:
    def test_identity_flow_at_zero(self):
        # standard normal at the origin: 0.5 log(2 pi) per dimension
        flow = _identity_flow((1, 4, 4))
        nll = nll_loss(np.zeros((3, 1, 4, 4)), flow)
        assert abs(nll - 0.5 * LOG_2PI) < 1e-12
        assert abs(nll - 0.9189) < 1e-4

    def test_identity_flow_general_batch(self):
        flow = _identity_flow((2, 4, 4))
        batch = Prng(0x7A01).gauss_array((5, 2, 4, 4)) * 0.3
        expect = 0.5 * LOG_2PI + 0.5 * float((batch * batch).mean())
        assert abs(nll_loss(batch, flow) - expect) < 1e-12

    def test_grad_variant_returns_same_value(self):
        flow = _identity_flow((1, 4, 4), depth=2)
        flow.randomize(Prng(0x7A02), scale=0.05)
        batch = Prng(0x7A03).gauss_array((3, 1, 4, 4)) * 0.3
        plain = nll_loss(batch, flow)
        with_grad = nll_loss_grad(batch, flow)
        assert with_grad == plain

    def test_gradient_matches_finite_differences(self):
        flow = _identity_flow((1, 4, 4), depth=2, hidden=4)
        flow.randomize(Prng(0x7A04), scale=0.05)
        batch = Prng(0x7A05).gauss_array((2, 1, 4, 4)) * 0.3

        err = grad_check(lambda store: nll_loss_grad(batch, flow), flow.store, 24)
        assert err < 1e-5


class TestMsePsnr:
    def test_mse_value(self):
        a = np.zeros((1, 2, 2))
        b = np.full((1, 2, 2), 0.5)
        assert mse_loss(a, b) == 0.25

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))

    def test_psnr_twenty_db(self):
        x = np.zeros((1, 4, 4))
        assert abs(psnr(np.full((1, 4, 4), 0.1), x) - 20.0) < 1e-9

    def test_psnr_forty_db(self):
        x = np.zeros((1, 4, 4))
        assert abs(psnr(np.full((1, 4, 4), 0.01), x) - 40.0) < 1e-9

    def test_psnr_capped_on_exact_match(self):
        x = Prng(0x7A06).gauss_array((1, 4, 4))
        assert psnr(x.copy(), x) == 99.0


class TestAdam:
    def test_first_step_is_nearly_lr_times_sign(self):
        # bias correction makes |step| ~ 1 regardless of gradient magnitude
        store = ParamStore()
        p = store.add("w", np.array(1.0))
        p.grad[...] = 7.3
        adam_update(store, AdamState(store, TrainConfig(lr=0.1, scalar_lr=0.1)))
        assert abs(float(p.value) - 0.9) < 1e-8

    def test_zero_gradient_is_a_no_op(self):
        store = ParamStore()
        p = store.add("w", np.array(2.5))
        state = AdamState(store, TrainConfig(lr=0.1, scalar_lr=0.1))
        adam_update(store, state)
        assert float(p.value) == 2.5
        assert state.t == 1

    def test_gradients_cleared_after_step(self):
        store = ParamStore()
        p = store.add("w", np.array(1.0))
        p.grad[...] = 1.0
        adam_update(store, AdamState(store, TrainConfig(lr=0.1, scalar_lr=0.1)))
        assert float(p.grad) == 0.0

    def test_mu_and_rho_take_the_scalar_rate(self):
        store = ParamStore()
        mu = store.add("fold0.mu", np.array(0.5))
        rho = store.add("fold0.rho", np.array(-2.0))
        w = store.add("fold0.level0.step0.actnorm.bias", np.array(0.0))
        for p in store:
            p.grad[...] = 1.0
        adam_update(store, AdamState(store, TrainConfig(lr=1e-5, scalar_lr=1e-2)))
        # first step moves each parameter by ~ its own learning rate
        assert abs(float(mu.value) - (0.5 - 1e-2)) < 1e-9
        assert abs(float(rho.value) - (-2.0 - 1e-2)) < 1e-9
        assert abs(float(w.value) - (0.0 - 1e-5)) < 1e-12

    def test_rate_vector_of_an_unrolled_net(self):
        store = UnrolledNet((1, 16, 16), 3, 2, 4, 16).store
        lr = AdamState(store, TrainConfig(lr=1e-4, scalar_lr=1e-2)).lr
        scalar = np.concatenate([np.full(p.value.size, p.name.endswith((".mu", ".rho")))
                                 for p in store])
        names = [p.name for p in store if p.name.endswith((".mu", ".rho"))]
        assert names == [f"fold{k}.{s}" for k in range(3) for s in ("mu", "rho")]
        assert lr.shape == (store.size,)
        assert np.count_nonzero(scalar) == 6 and np.count_nonzero(~scalar) == 32880
        assert np.all(lr[scalar] == 1e-2) and np.all(lr[~scalar] == 1e-4)

    def test_rate_vector_of_a_prior(self):
        prior = FlowModel((1, 16, 16), 2, 4, 16, ParamStore())
        assert np.all(AdamState(prior.store, TrainConfig(lr=1e-4, scalar_lr=1e-2)).lr == 1e-4)


def _rule_lr(name, lr, scalar_lr):
    return scalar_lr if name.endswith((".mu", ".rho")) else lr


def _reference_adam(store, m, v, t, lr, scalar_lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t as a per-parameter loop over name-keyed moments."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p in store:
        g = p.grad
        m[p.name] = beta1 * m[p.name] + (1.0 - beta1) * g
        v[p.name] = beta2 * v[p.name] + (1.0 - beta2) * g * g
        step = (m[p.name] / bc1) / (np.sqrt(v[p.name] / bc2) + eps)
        p.value[...] = p.value - _rule_lr(p.name, lr, scalar_lr) * step
        p.grad[...] = 0.0


class TestWholeStoreAdam:
    def test_three_steps_match_a_per_parameter_loop_bitwise(self):
        shape = (1, 8, 8)
        nets = [UnrolledNet(shape, 2, 2, 2, 4) for _ in range(2)]
        for net in nets:
            rng = Prng(0xADA)
            for fold in net.folds:
                fold.flow.randomize(rng)
        flat, ref = nets
        op = CenterMask(shape, 3)
        state = AdamState(flat.store, TrainConfig(lr=1e-3, scalar_lr=1e-2))
        m = {p.name: np.zeros_like(p.value) for p in ref.store}
        v = {p.name: np.zeros_like(p.value) for p in ref.store}
        start = {p.name: p.value.copy() for p in flat.store}
        for t in range(1, 4):
            y = Prng(0xADB + t).gauss_array((3,) + shape)
            g_out = Prng(0xADC + t).gauss_array((3,) + shape)
            for net in nets:
                _, pipe = net.reconstruct_batch_grad(y, op)
                net.reconstruct_backward(pipe, g_out)
            assert np.array_equal(flat.store.grads,
                                  np.concatenate([p.grad.ravel() for p in ref.store]))
            last = [p.name for p in flat.store
                    if p.name.startswith("fold1.") and p.name != "fold1.mu"]
            assert last and not any(np.any(flat.store[n].grad) for n in last)
            adam_update(flat.store, state)
            _reference_adam(ref.store, m, v, t, 1e-3, 1e-2)
            for p in ref.store:
                assert np.array_equal(flat.store[p.name].value, p.value), (t, p.name)
            assert not np.any(flat.store.grads)
        for name in last:  # the last fold's flow and rho: zero gradient, no move
            assert np.array_equal(flat.store[name].value, start[name]), name
        assert not np.array_equal(flat.store["fold0.mu"].value, start["fold0.mu"])
        assert not np.array_equal(flat.store["fold1.mu"].value, start["fold1.mu"])

    def test_betas_and_eps_come_from_the_config(self):
        cfg = TrainConfig(lr=0.1, scalar_lr=0.2, beta1=0.5, beta2=0.75, eps_adam=0.25)
        stores = [ParamStore() for _ in range(2)]
        for store in stores:
            store.add("w", np.array([1.0, -2.0]))
            store.add("fold0.mu", np.array(0.5))
        flat, ref = stores
        state = AdamState(flat, cfg)
        m = {p.name: np.zeros_like(p.value) for p in ref}
        v = {p.name: np.zeros_like(p.value) for p in ref}
        for t in range(1, 4):
            for store in stores:
                store.grads[...] = [0.3 * t, -1.5, 2.0 / t]
            adam_update(flat, state)
            _reference_adam(ref, m, v, t, 0.1, 0.2, beta1=0.5, beta2=0.75, eps=0.25)
            assert np.array_equal(flat.values, ref.values), t


def _early_stopped(vals, patience, max_epochs=10, moves_from=1):
    """Run _fit on a one-value store with the injected val losses ``vals``.
    Each epoch's train step from epoch ``moves_from`` on sets the value to
    the epoch number and leaves a zero gradient, on which Adam's step is
    exactly 0.  Returns the final value and the number of epochs run."""
    store = ParamStore()
    w = store.add("w", np.array(7.0))

    def batch_loss(epoch, batch_idx):
        if epoch >= moves_from:
            w.value[...] = epoch
        return 0.0

    val = iter(vals)
    lines = []
    cfg = TrainConfig(batch_size=1, max_epochs=max_epochs, patience=patience)
    _fit(store, cfg, 1, batch_loss, lambda: next(val), lines.append)
    return float(w.value), len(lines)


class TestEarlyStopper:
    def test_returns_best_epoch_not_last(self):
        # best at epoch 4, then a slow ramp up: three epochs without a gain
        assert _early_stopped([5.0, 4.0, 4.5, 3.0, 3.1, 3.2, 3.3], patience=3) == (4.0, 7)

    def test_plateau_is_not_improvement(self):
        assert _early_stopped([1.0, 1.0, 0.5], patience=1) == (1.0, 2)

    def test_never_improved_restores_nothing(self):
        # epoch 1 leaves the value alone and no later epoch improves on it
        assert _early_stopped([2.0, 2.5, 3.0], patience=5, max_epochs=3,
                              moves_from=2) == (7.0, 3)


class TestConfigValidation:
    def test_defaults_pass(self):
        TrainConfig().validate()

    def test_bad_task(self):
        with pytest.raises(ConfigError):
            TrainConfig(task="sharpen").validate()

    def test_bad_lr(self):
        # lr = 0 means the size default, so a negative rate is the bad one
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1e-4).validate()
        with pytest.raises(ConfigError):
            TrainConfig(scalar_lr=0.0).validate()

    def test_bad_patience(self):
        with pytest.raises(ConfigError):
            TrainConfig(patience=0).validate()

    def test_negative_noise(self):
        with pytest.raises(ConfigError):
            TrainConfig(sigma_n=-0.1).validate()
        # only -1 is the task-default sentinel; resolving validates first
        with pytest.raises(ConfigError):
            TrainConfig(sigma_n=-0.5).resolved()


def _small_cfg(**overrides):
    base = dict(
        task="denoise",
        sigma_n=0.1,
        K=2,
        L=1,
        D=1,
        hidden=4,
        lr=1e-4,
        scalar_lr=1e-2,
        batch_size=16,
        max_epochs=3,
        patience=2,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestPretrain:
    def test_beats_identity_flow_baseline(self):
        # an identity flow scores 0.5 log(2 pi) + E|x|^2 / (2 n) nats/dim;
        # data-initialized actnorms already whiten past that
        data = _blob_set(60, (1, 8, 8), seed=11)
        cfg = _small_cfg(L=2, D=2, hidden=8, max_epochs=6, patience=3)
        flow = pretrain(data, cfg)
        baseline = 0.5 * LOG_2PI + 0.5 * float((data.val**2).mean())
        assert nll_loss(data.val, flow) < baseline

    def test_bitwise_deterministic(self):
        data = _blob_set(30, (1, 8, 8), seed=13)
        a = pretrain(data, _small_cfg(max_epochs=2))
        b = pretrain(data, _small_cfg(max_epochs=2))
        for pa, pb in zip(a.store, b.store):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)

    def test_log_lines_are_tab_separated(self):
        data = _blob_set(30, (1, 8, 8), seed=14)
        lines = []
        pretrain(data, _small_cfg(max_epochs=2, patience=5), log=lines.append)
        assert len(lines) == 2
        for i, line in enumerate(lines, 1):
            assert _LOG_LINE.match(line), line
            assert line.split("\t")[0] == str(i)

    def test_training_loss_trend_decreases(self, monkeypatch):
        # means over consecutive 50-step windows of the running loss drop
        # monotonically across the first 200 steps
        data = _blob_set(64, (1, 8, 8), seed=15)
        cfg = _small_cfg(
            L=2, D=2, hidden=8, batch_size=16, max_epochs=80, patience=80
        )
        losses = []

        def recording(batch, flow):
            losses.append(nll_loss_grad(batch, flow))
            return losses[-1]

        monkeypatch.setattr("flowunfold.train.nll_loss_grad", recording)
        pretrain(data, cfg)
        assert len(losses) >= 200
        blocks = [sum(losses[i : i + 50]) / 50 for i in range(0, 200, 50)]
        assert all(b1 > b2 for b1, b2 in zip(blocks, blocks[1:])), blocks

    def test_empty_split_is_an_error(self):
        data = _blob_set(30, (1, 8, 8), seed=16)
        with pytest.raises(DataError):
            pretrain(ImageSet(data.train, data.train[:0], data.test), _small_cfg())

    def test_single_image_is_an_error(self):
        data = _blob_set(30, (1, 8, 8), seed=17)
        with pytest.raises(DataError):
            pretrain(ImageSet(data.train[:1], data.val, data.test), _small_cfg())

    def test_batch_size_one_data_inits_on_two_images(self):
        data = _blob_set(30, (1, 8, 8), seed=18)
        lines = []
        pretrain(data, _small_cfg(batch_size=1, max_epochs=1), log=lines.append)
        assert len(lines) == 1
        with pytest.raises(DataError, match="at least 2 training images"):
            pretrain(ImageSet(data.train[:1], data.val, data.test),
                     _small_cfg(batch_size=1))


class TestTrainUnrolled:
    def test_runs_and_returns_untied_folds(self):
        data = _blob_set(30, (1, 8, 8), seed=21)
        cfg = _small_cfg(max_epochs=2)
        net = train_unrolled(data, cfg, None)
        assert net.k == 2
        assert net.folds[0].mu.value is not net.folds[1].mu.value
        names = net.store.names()
        assert any(n.startswith("fold0.") for n in names)
        assert any(n.startswith("fold1.") for n in names)

    def test_pretrained_prior_seeds_every_fold(self):
        data = _blob_set(30, (1, 8, 8), seed=22)
        cfg = _small_cfg(max_epochs=1)
        prior = pretrain(data, cfg)
        net = train_unrolled(data, cfg, prior)
        # training perturbs the copies, so only storage independence is
        # guaranteed here; equality right after seeding is covered elsewhere
        w0 = net.folds[0].flow.store["fold0.level0.step0.actnorm.bias"].value
        w1 = net.folds[1].flow.store["fold1.level0.step0.actnorm.bias"].value
        assert w0 is not w1

    def test_architecture_mismatch_is_an_error(self):
        data = _blob_set(30, (1, 8, 8), seed=23)
        cfg = _small_cfg(max_epochs=1)
        prior = pretrain(data, _small_cfg(max_epochs=1, hidden=8))
        with pytest.raises(ConfigError):
            train_unrolled(data, cfg, prior)

    def test_bitwise_deterministic(self):
        data = _blob_set(30, (1, 8, 8), seed=24)
        a = train_unrolled(data, _small_cfg(max_epochs=2), None)
        b = train_unrolled(data, _small_cfg(max_epochs=2), None)
        for pa, pb in zip(a.store, b.store):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)

    def test_log_lines_are_tab_separated(self):
        data = _blob_set(30, (1, 8, 8), seed=25)
        lines = []
        train_unrolled(data, _small_cfg(max_epochs=2, patience=5), None, log=lines.append)
        assert len(lines) == 2
        for line in lines:
            assert _LOG_LINE.match(line), line

    def test_sentinels_resolve_against_the_data(self):
        # lr = 0 and sigma_n = -1 resolve as the CLI resolves them: 1e-4
        # below 32 pixels, 0.1 for denoising
        data = _blob_set(30, (1, 8, 8), seed=27)
        auto = train_unrolled(data, _small_cfg(max_epochs=1, lr=0.0, sigma_n=-1.0), None)
        explicit = train_unrolled(data, _small_cfg(max_epochs=1), None)
        for pa, pb in zip(auto.store, explicit.store):
            assert np.array_equal(pa.value, pb.value), pa.name

    def test_empty_val_split_is_an_error(self):
        data = _blob_set(30, (1, 8, 8), seed=26)
        with pytest.raises(DataError):
            train_unrolled(ImageSet(data.train, data.train[:0], data.test), _small_cfg(), None)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize(
        "trainer",
        [pretrain, lambda data, cfg: train_unrolled(data, cfg, None)],
        ids=["pretrain", "train_unrolled"],
    )
    def test_nan_pixel_stops_training(self, trainer, split):
        # a NaN loss never improves the early stopper, so without the
        # guard the NaN parameters would be returned
        data = _blob_set(30, (1, 8, 8), seed=28)
        getattr(data, split)[1, 0, 2, 5] = np.nan
        with pytest.raises(TrainingError, match=f"epoch 1: non-finite {split} loss"):
            trainer(data, _small_cfg(max_epochs=2))


class TestNonFiniteParameterGuard:
    def test_names_the_epoch_batch_and_parameter(self):
        # an inf gradient makes Adam's step inf/inf = nan: the guard stops
        # training before the val pass, so nothing is snapshotted
        store = ParamStore()
        store.add("a", np.zeros(3))
        store.add("b", np.zeros((2, 2)))
        batches, vals = [], []

        def batch_loss(epoch, batch_idx):
            batches.append(epoch)
            if len(batches) == 2:
                store["b"].grad[1, 0] = np.inf
            return 1.0

        def val_loss():
            vals.append(1)
            return 1.0

        cfg = _small_cfg(batch_size=2, max_epochs=2)
        named = r"^epoch 1, batch 2: b is non-finite$"
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError, match=named):
            _fit(store, cfg, 6, batch_loss, val_loss, None)
        assert batches == [1, 1] and not vals
        assert np.all(np.isfinite(store["a"].value))


class TestSingularWeightGuard:
    def test_singular_prior_names_the_epoch_and_weight(self):
        data = _blob_set(30, (1, 8, 8), seed=29)
        cfg = _small_cfg(max_epochs=2)
        prior = FlowModel((1, 8, 8), cfg.L, cfg.D, cfg.hidden, ParamStore())
        prior.store["level0.step0.invconv.weight"].value[...] = 1.0
        named = r"^epoch 1: train pass: fold0\.level0\.step0\.invconv\.weight: matrix of size"
        with pytest.raises(TrainingError, match=named):
            train_unrolled(data, cfg, prior)

    @pytest.mark.parametrize("phase", ["train", "val"])
    def test_either_pass_names_the_epoch(self, phase):
        # a weight that turns singular in epoch 2's train batch or val pass
        store = ParamStore()
        store.add("w", np.zeros(1))
        epochs = []

        def check(now):
            if epochs[-1] == 2 and now == phase:
                raise SingularMatrixError("level0.step0.invconv.weight: matrix of size 4")
            return 1.0 / epochs[-1]

        def batch_loss(epoch, batch_idx):
            epochs.append(epoch)
            return check("train")

        with pytest.raises(TrainingError, match=f"^epoch 2: {phase} pass: level0"):
            _fit(store, _small_cfg(max_epochs=3, patience=5), 4, batch_loss,
                 lambda: check("val"), None)


def test_sub_seed_tags_are_distinct():
    # every module's derive_seed stream tag; a shared tag would correlate
    # two streams that should be independent
    modules = [importlib.import_module(f"flowunfold.{m.name}")
               for m in pkgutil.iter_modules(flowunfold.__path__)]
    tags = {f"{module.__name__}.{name}": value for module in modules
            for name, value in vars(module).items() if name.startswith("_TAG_")}
    assert len(tags) >= 7  # train 1-4, io 10, cli 11 and 12
    assert len(set(tags.values())) == len(tags), tags
