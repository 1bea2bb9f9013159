"""Tests for the invertible model: layer algebra, bijectivity, log-density."""

import gc
import itertools
import math
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowunfold.flow
from flowunfold.checks import numeric_logdet
from flowunfold.diff import Parameter, ParamStore, grad_check, zero_grads
from flowunfold.errors import ConfigError, ShapeError, SingularMatrixError
from flowunfold.flow import (
    LOG_2PI,
    ActNorm,
    AffineCoupling,
    FlowModel,
    FlowPlan,
    InvConv1x1,
    _inside,
    _squeeze_axes,
    _unsqueeze_axes,
)
from flowunfold.io import restore_into
from flowunfold.numerics import Prng, conv2d_circular_backward, small_det_inv
from flowunfold.operators import operator_for_task
from flowunfold.train import AdamState, TrainConfig, adam_update
from flowunfold.unfold import UnrolledNet

_trapz = getattr(np, "trapezoid", None) or np.trapz


def _random_model(shape, levels, depth, hidden, seed, scale=0.1):
    model = FlowModel(shape, levels, depth, hidden, ParamStore())
    model.randomize(Prng(seed), scale=scale)
    return model


def squeeze(x):
    return _squeeze_axes(x, 2, 2)


def _layer_pass(layer, x, c, direction="forward"):
    """One layer's ``forward`` or ``inverse`` pass on x with constants c,
    plus what the flow's walks make of its outputs: ``(out, ld, ctx)``, ld
    the (B,) log-det of the layer's forward map at the pass's input (the
    forward direction) or output (the inverse one), ctx the context its
    ``backward`` or ``inverse_backward`` reads: the layer's input in the
    forward direction and c, plus a coupling's clamp mask and scale."""
    out = getattr(layer, direction)(x, c)
    if isinstance(layer, AffineCoupling):
        out, (clamped, s) = out
        ld, rest = clamped.sum(axis=(1, 2, 3)), (_inside(clamped), s)
    else:
        log_det = c[3] if isinstance(layer, ActNorm) else c[2]
        ld, rest = np.full(x.shape[0], x.shape[2] * x.shape[3] * log_det), ()
    return out, ld, (x if direction == "forward" else out, c) + rest


class TestSqueeze:
    def test_documented_block_order(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # [[a,b],[c,d]]
        y = squeeze(x)
        assert y.shape == (1, 4, 1, 1)
        assert y.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_round_trip_bitwise(self):
        rng = Prng(0x51EE2E)
        x = rng.gauss_array((2, 3, 6, 4))
        assert np.array_equal(_unsqueeze_axes(squeeze(x), 2, 2), x)

    def test_volume_preserved(self):
        x = Prng(1).gauss_array((1, 2, 8, 10))
        assert squeeze(x).size == x.size

    def test_odd_dims_error(self):
        with pytest.raises(ShapeError):
            squeeze(np.zeros((1, 1, 3, 4)))
        with pytest.raises(ShapeError):
            _unsqueeze_axes(np.zeros((1, 3, 2, 2)), 2, 2)

    def test_batched_matches_single(self):
        # each row squeezes as it would in a batch of one
        rng = Prng(0xBA7C)
        x = rng.gauss_array((5, 2, 4, 4))
        batched = squeeze(x)
        assert np.array_equal(batched[3], squeeze(x[3:4])[0])


class TestLayerAlgebra:
    def test_zero_coupling_is_identity(self):
        store = ParamStore()
        layer = AffineCoupling(4, 8, store, "cp")
        x = Prng(0xC0).gauss_array((3, 4, 5, 5))
        y, ld, _ = _layer_pass(layer, x, layer.constants())
        assert np.array_equal(y, x)
        assert np.array_equal(ld, np.zeros(3))

    def test_actnorm_round_trip(self):
        store = ParamStore()
        layer = ActNorm(3, store, "an")
        rng = Prng(0xA11)
        layer.log_scale.value[...] = rng.gauss_array(3)
        layer.bias.value[...] = rng.gauss_array(3)
        x = rng.gauss_array((100, 3, 4, 4))
        y = layer.forward(x, layer.constants())
        back = layer.inverse(y, layer.constants())
        assert np.max(np.abs(back - x)) < 1e-10

    def test_actnorm_logdet_value(self):
        store = ParamStore()
        layer = ActNorm(2, store, "an")
        layer.log_scale.value[...] = [0.3, -0.7]
        x = np.zeros((1, 2, 4, 5))
        _, ld, _ = _layer_pass(layer, x, layer.constants())
        assert abs(ld[0] - 20 * (0.3 - 0.7)) < 1e-12

    def test_invconv_round_trip_and_logdet(self):
        store = ParamStore()
        layer = InvConv1x1(3, store, "iv")
        rng = Prng(0x1C1)
        layer.weight.value[...] = np.eye(3) + 0.3 * rng.gauss_array((3, 3))
        x = rng.gauss_array((100, 3, 2, 2))
        y, ld, _ = _layer_pass(layer, x, layer.constants())
        back = layer.inverse(y, layer.constants())
        assert np.max(np.abs(back - x)) < 1e-8
        expect = 4 * math.log(abs(np.linalg.det(layer.weight.value)))
        assert abs(ld[0] - expect) < 1e-12

    def test_invconv_singular_raises(self):
        store = ParamStore()
        layer = InvConv1x1(2, store, "iv")
        layer.weight.value[...] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(SingularMatrixError):
            layer.inverse(np.zeros((1, 2, 2, 2)), layer.constants())

    def test_coupling_round_trip(self):
        store = ParamStore()
        layer = AffineCoupling(4, 8, store, "cp")
        rng = Prng(0xC11)
        for p in (layer.w1, layer.b1, layer.w2, layer.b2):
            p.value[...] = 0.2 * rng.gauss_array(p.value.shape)
        x = rng.gauss_array((100, 4, 4, 4))
        y, _ = layer.forward(x, layer.constants())
        back, _ = layer.inverse(y, layer.constants())
        assert np.max(np.abs(back - x)) < 1e-8
        fwd_again, _ = layer.forward(back, layer.constants())
        assert np.max(np.abs(fwd_again - y)) < 1e-8


class TestIdentityModel:
    def test_latent_is_documented_permutation(self):
        model = FlowModel((1, 16, 16), 2, 3, 8, ParamStore())
        x = Prng(0x1D).gauss_array((1, 1, 16, 16))
        z, ld, _ = model.forward_batch(x)
        s0 = squeeze(x)  # (1, 4, 8, 8)
        expect = np.concatenate([s0[:, :2].ravel(), squeeze(s0[:, 2:]).ravel()])
        assert np.array_equal(z[0], expect)
        assert ld[0] == 0.0

    def test_inverse_of_zero_is_zero_image(self):
        model = FlowModel((1, 8, 8), 2, 2, 8, ParamStore())
        x, _ = model.inverse_batch(np.zeros((1, 64)))
        assert np.array_equal(x, np.zeros((1, 1, 8, 8)))

    def test_inverse_linearity(self):
        model = FlowModel((1, 8, 8), 2, 2, 8, ParamStore())
        z = Prng(0x11).gauss_array((1, 64))
        x1, _ = model.inverse_batch(z)
        x2, _ = model.inverse_batch(2 * z)
        assert np.allclose(x2, 2 * x1, atol=1e-14)

    def test_log_prob_at_origin(self):
        model = FlowModel((3, 2, 2), 1, 2, 8, ParamStore())
        lp = float(model.log_prob_batch(np.zeros((1, 3, 2, 2)))[0])
        assert abs(lp - (-6.0 * math.log(2 * math.pi))) < 1e-12
        assert abs(lp + 11.027) < 1e-3

    def test_log_prob_general_identity(self):
        model = FlowModel((1, 4, 4), 1, 2, 8, ParamStore())
        x = Prng(0x1F).gauss_array((1, 4, 4))
        lp = float(model.log_prob_batch(x[None])[0])
        expect = -8.0 * LOG_2PI - 0.5 * float((x * x).sum())
        assert abs(lp - expect) < 1e-10


class TestRoundTrip:
    def test_composed_model_both_directions(self):
        # scale kept moderate so the inverse stays well conditioned on
        # arbitrary latents (strong clamped scalings amplify float error)
        model = _random_model((1, 16, 16), 2, 4, 16, seed=0x20E1, scale=0.05)
        rng = Prng(0xF00D)
        x = rng.gauss_array((100, 1, 16, 16))
        z, _, _ = model.forward_batch(x)
        back, _ = model.inverse_batch(z)
        assert np.max(np.abs(back - x)) < 1e-8
        z2 = rng.gauss_array((100, model.n))
        x2, _ = model.inverse_batch(z2)
        fwd, _, _ = model.forward_batch(x2)
        assert np.max(np.abs(fwd - z2)) < 1e-8

    def test_single_sample_wrappers_match_batch(self):
        # a batch of one gives bitwise the same row as a larger batch
        model = _random_model((1, 8, 8), 2, 2, 8, seed=0x5A5A)
        x = Prng(0x77).gauss_array((3, 1, 8, 8))
        zb, ldb, _ = model.forward_batch(x)
        for i in range(3):
            z, ld, _ = model.forward_batch(x[i : i + 1])
            assert np.array_equal(z[0], zb[i])
            assert ld[0] == ldb[i]
            back, _ = model.inverse_batch(zb[i : i + 1])
            assert np.array_equal(back[0], model.inverse_batch(zb)[0][i])

    @pytest.mark.parametrize("hidden", [4, 16])
    def test_plain_passes_match_recording_ones_bitwise(self, hidden):
        # at hidden=16 every coupling's second conv (16 -> 4 or 8 channels)
        # takes the conv's col2im side; at hidden=4 none does
        # inference walks a plan with neither record nor log-det, the NLL
        # with a log-det only, training's calls with both
        model = _random_model((1, 8, 8), 2, 2, hidden, seed=0x5B5B)
        x = Prng(0x78).gauss_array((3, 1, 8, 8))
        z, ld, ctx = model.forward_batch(x)
        assert len(ctx) == 2 * 2  # one record per step
        ld_nll = np.zeros(3)
        assert np.array_equal(model.plan().forward(x, ld=ld_nll), z)
        assert np.array_equal(ld_nll, ld)
        assert np.array_equal(model.plan().forward(x), z)
        lp = -0.5 * model.n * LOG_2PI - 0.5 * np.sum(z * z, axis=1) + ld
        assert np.array_equal(model.log_prob_batch(x), lp)
        back, ctx = model.inverse_batch(z)
        assert len(ctx) == 2 * 2
        assert np.array_equal(back, model.plan().inverse(z))

    def test_forward_deterministic_bitwise(self):
        model = _random_model((1, 8, 8), 1, 2, 8, seed=0xD0)
        x = Prng(0xD1).gauss_array((2, 1, 8, 8))
        z1, ld1, _ = model.forward_batch(x)
        z2, ld2, _ = model.forward_batch(x)
        assert np.array_equal(z1, z2) and np.array_equal(ld1, ld2)


class TestJacobianLogdet:
    """Brute-force check: reported logdet vs the numerically assembled
    12x12 Jacobian of the full map."""

    @pytest.mark.parametrize("seed", [0x3AC0, 0x3AC1])
    def test_logdet_matches_numeric_jacobian(self, seed):
        model = _random_model((3, 2, 2), 1, 2, 8, seed=seed)
        x = Prng(seed ^ 0xFF).gauss_array((3, 2, 2))
        _, ld, _ = model.forward_batch(x[None])
        assert abs(ld[0] - numeric_logdet(model, x[None])) < 1e-6


class TestQuadrature:
    def test_density_integrates_to_one(self):
        model = _random_model((1, 1, 2), 1, 2, 4, seed=0x0B0F, scale=0.1)
        grid = np.linspace(-6.0, 6.0, 200)
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        batch = np.stack([xs.ravel(), ys.ravel()], axis=1).reshape(-1, 1, 1, 2)
        p = np.exp(model.log_prob_batch(batch)).reshape(200, 200)
        integral = _trapz(_trapz(p, grid, axis=1), grid)
        assert abs(integral - 1.0) < 1e-2


class TestDataInit:
    def test_first_actnorm_standardizes_batch(self):
        store = ParamStore()
        model = FlowModel((1, 8, 8), 1, 2, 8, store)
        model.random_init(Prng(0xDA7A))
        batch = 3.0 * Prng(0xBEEF).gauss_array((32, 1, 8, 8)) + 1.5
        model.data_init(batch)
        first = model._levels[0].steps[0][0]
        out = first.forward(squeeze(batch), first.constants())
        mean = out.mean(axis=(0, 2, 3))
        std = out.std(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-8
        assert np.all(std > 1 - 1e-6) and np.all(std < 1 + 1e-6)

    def test_small_batch_errors(self):
        model = FlowModel((1, 4, 4), 1, 1, 4, ParamStore())
        with pytest.raises(ConfigError):
            model.data_init(np.zeros((1, 1, 4, 4)))

    def test_zero_variance_channel_uses_floor(self):
        store = ParamStore()
        model = FlowModel((1, 4, 4), 1, 1, 4, store)
        model.random_init(Prng(5))
        batch = np.zeros((4, 1, 4, 4))  # all channels constant
        model.data_init(batch)  # must not raise
        ls = model._levels[0].steps[0][0].log_scale.value
        assert np.all(np.isfinite(ls))


class TestConstruction:
    def test_indivisible_dims_error_at_construction(self):
        with pytest.raises(ConfigError):
            FlowModel((1, 6, 6), 2, 2, 8, ParamStore())

    def test_degenerate_axis_squeezes_other_axis(self):
        model = FlowModel((1, 1, 2), 1, 1, 4, ParamStore())
        z, ld, _ = model.forward_batch(np.array([[[[1.0, 2.0]]]]))
        assert z.tolist() == [[1.0, 2.0]] and ld.tolist() == [0.0]

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            FlowModel((1, 4, 4), 0, 2, 8, ParamStore())

    def test_wrong_input_shape(self):
        model = FlowModel((1, 4, 4), 1, 1, 4, ParamStore())
        with pytest.raises(ShapeError):
            model.forward_batch(np.zeros((1, 1, 4, 6)))

    def test_param_names(self):
        store = ParamStore()
        FlowModel((1, 4, 4), 1, 2, 8, store, prefix="fold0")
        assert "fold0.level0.step0.actnorm.log_scale" in store
        assert "fold0.level0.step1.coupling.conv2.weight" in store

    def test_copy_state_unties_storage(self):
        src = _random_model((1, 8, 8), 2, 2, 8, seed=0xABCD)
        dst = FlowModel((1, 8, 8), 2, 2, 8, ParamStore())
        dst.copy_state_from(src)
        x = Prng(0xE)
        xb = x.gauss_array((2, 1, 8, 8))
        z_src, _, _ = src.forward_batch(xb)
        z_dst, _, _ = dst.forward_batch(xb)
        assert np.array_equal(z_src, z_dst)
        src._levels[0].steps[0][0].bias.value[...] += 1.0
        z_dst2, _, _ = dst.forward_batch(xb)
        assert np.array_equal(z_dst, z_dst2)


def _forward_objective(layer, x, seed):
    """Scalar probe <y, Cy> + <logdet, Cld> with frozen random cotangents."""
    rng = Prng(seed)
    y0, ld0, _ = _layer_pass(layer, x, layer.constants())
    cy = rng.gauss_array(y0.shape)
    cld = rng.gauss_array(ld0.shape)

    def f(store):
        y, ld, ctx = _layer_pass(layer, x, layer.constants())
        layer.backward(ctx, cy, cld)
        return float((y * cy).sum() + (ld * cld).sum())

    return f


def _inverse_objective(layer, y, seed):
    rng = Prng(seed)
    x0, _, _ = _layer_pass(layer, y, layer.constants(), "inverse")
    cx = rng.gauss_array(x0.shape)

    def f(store):
        x, _, ctx = _layer_pass(layer, y, layer.constants(), "inverse")
        layer.inverse_backward(ctx, cx)
        return float((x * cx).sum())

    return f


class TestGradients:
    def test_actnorm_both_directions(self):
        store = ParamStore()
        layer = ActNorm(3, store, "an")
        rng = Prng(0x6A01)
        layer.log_scale.value[...] = 0.2 * rng.gauss_array(3)
        layer.bias.value[...] = 0.2 * rng.gauss_array(3)
        x = rng.gauss_array((2, 3, 4, 4))
        assert grad_check(_forward_objective(layer, x, 0x6A02), store, 40) < 1e-6
        assert grad_check(_inverse_objective(layer, x, 0x6A03), store, 40) < 1e-6

    def test_invconv_both_directions(self):
        store = ParamStore()
        layer = InvConv1x1(3, store, "iv")
        rng = Prng(0x6B01)
        layer.weight.value[...] = np.eye(3) + 0.2 * rng.gauss_array((3, 3))
        x = rng.gauss_array((2, 3, 4, 4))
        assert grad_check(_forward_objective(layer, x, 0x6B02), store, 40) < 1e-6
        assert grad_check(_inverse_objective(layer, x, 0x6B03), store, 40) < 1e-6

    def test_coupling_both_directions(self):
        store = ParamStore()
        layer = AffineCoupling(4, 6, store, "cp")
        rng = Prng(0x6C01)
        for p in (layer.w1, layer.b1, layer.w2, layer.b2):
            p.value[...] = 0.15 * rng.gauss_array(p.value.shape)
        x = rng.gauss_array((2, 4, 4, 4))
        assert grad_check(_forward_objective(layer, x, 0x6C02), store, 60) < 1e-5
        assert grad_check(_inverse_objective(layer, x, 0x6C03), store, 60) < 1e-5

    def test_model_forward_cotangent(self):
        model = _random_model((1, 8, 8), 2, 2, 4, seed=0x6D01)
        rng = Prng(0x6D02)
        x = rng.gauss_array((2, 1, 8, 8))
        cz = rng.gauss_array((2, model.n))
        cld = rng.gauss_array(2)

        def f(store):
            z, ld, ctx = model.forward_batch(x)
            model.backward_forward(ctx, cz, cld)
            return float((z * cz).sum() + (ld * cld).sum())

        assert grad_check(f, model.store, 60) < 1e-5

    def test_model_inverse_cotangent(self):
        model = _random_model((1, 8, 8), 2, 2, 4, seed=0x6E01)
        rng = Prng(0x6E02)
        z = rng.gauss_array((2, model.n))
        cx = rng.gauss_array((2, 1, 8, 8))

        def f(store):
            x, ctx = model.inverse_batch(z)
            model.backward_inverse(ctx, cx)
            return float((x * cx).sum())

        assert grad_check(f, model.store, 60) < 1e-5

    def test_model_inverse_latent_cotangent(self):
        # backward_inverse's return value is the latent gradient of
        # ||g(z) - y||^2, checked by central differences on z
        model = _random_model((1, 4, 4), 1, 1, 4, seed=0x7B)
        rng = Prng(12)
        y = rng.gauss_array((1, 1, 4, 4))
        wrap = ParamStore()
        pz = wrap.add("z", rng.gauss_array((1, 16)))

        def f(store):
            x, ctx = model.inverse_batch(pz.value)
            r = x - y
            pz.grad += model.backward_inverse(ctx, 2.0 * r)
            return float((r * r).sum())

        assert grad_check(f, wrap, 30) < 1e-5

    def test_log_prob_gradients(self):
        model = _random_model((1, 8, 8), 2, 2, 4, seed=0x6F01)
        x = Prng(0x6F02).gauss_array((3, 1, 8, 8))

        def f(store):
            z, ld, ctx = model.forward_batch(x)
            val = (-0.5 * model.n * LOG_2PI - 0.5 * (z * z).sum(axis=1) + ld).sum()
            model.backward_forward(ctx, -z, np.ones(3))
            return float(val)

        assert grad_check(f, model.store, 64) < 1e-5

    def test_grads_zeroed_between_checks(self):
        model = _random_model((1, 4, 4), 1, 1, 4, seed=0x7001)
        x = Prng(0x7002).gauss_array((2, 1, 4, 4))
        f = _forward_objective(model._levels[0].steps[0][0], x, 0x7003)
        grad_check(f, model.store, 5)
        zero_grads(model.store)
        total = sum(float(np.abs(p.grad).sum()) for p in model.store)
        assert total == 0.0


class TestHiddenRebuild:
    """A coupling's record keeps no hidden activation: its reverse rule
    rebuilds a1 from xb.  Against the rule that keeps the forward's own a1
    and lets the first conv's reverse rule gather xb itself, the rebuilt
    a1, every parameter gradient and the input cotangent are bitwise equal.
    The cases cover the first conv's reverse rule reusing the rebuild's taps
    (hidden > 2*half, the level shapes of 16x16 and 64x64 nets), gathering
    the cotangent instead (half <= hidden <= 2*half), a col2im first conv
    (hidden < half), a 2x2 level and a non-square one."""

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("channels, hidden, batch, h, w", [
        (4, 16, 16, 8, 8), (8, 16, 16, 4, 4), (4, 16, 1, 32, 32), (16, 40, 3, 2, 2),
        (4, 3, 2, 8, 8), (8, 2, 2, 4, 4), (12, 8, 2, 4, 6)])
    def test_equals_the_rule_on_the_forwards_own_a1(self, monkeypatch, direction, channels,
                                                    hidden, batch, h, w):
        store = ParamStore()
        layer = AffineCoupling(channels, hidden, store, "cp")
        rng = Prng(0x4EB1 + 100 * channels + hidden)
        for p in (layer.w1, layer.b1, layer.w2, layer.b2):
            p.value[...] = rng.gauss_array(p.value.shape)
        x = rng.gauss_array((batch, channels, h, w))
        g, gld = rng.gauss_array(x.shape), rng.gauss_array(batch)
        conv_apply, outputs = flowunfold.flow.conv_apply, []

        def recorded(*args):
            outputs.append(conv_apply(*args))
            return outputs[-1]

        monkeypatch.setattr(flowunfold.flow, "conv_apply", recorded)
        _, _, ctx = _layer_pass(layer, x, layer.constants(), direction)
        if direction == "forward":
            reverse = lambda: layer.backward(ctx, g, gld)  # noqa: E731
        else:
            reverse = lambda: layer.inverse_backward(ctx, g)  # noqa: E731
        a1 = outputs[0]  # the forward's first conv output, relu'd in place
        inside = ctx[2]
        assert inside.dtype == bool and inside.any() and not inside.all()  # the clamp acts
        assert [e.shape for e in (ctx[0],) + ctx[2:] if e.shape[1] == hidden] == []

        def rule():
            zero_grads(store)
            outputs.clear()
            gx = reverse()
            return gx, store.grads.copy()

        gx, grads = rule()
        assert np.array_equal(outputs[0], a1)  # the rebuilt a1

        def kept_a1_rule(ctx, g_out):
            xb = ctx[0][:, layer.half :]
            g_out[:, : layer.half] *= inside
            g_a1, gw2, gb2 = conv2d_circular_backward(a1, layer.w2.value, g_out)
            layer.w2.grad += gw2
            layer.b2.grad += gb2
            g_a1 *= a1 > 0.0
            g_xb, gw1, gb1 = conv2d_circular_backward(xb, layer.w1.value, g_a1)
            layer.w1.grad += gw1
            layer.b1.grad += gb1
            return g_xb

        monkeypatch.setattr(layer, "_net_backward", kept_a1_rule)
        ref_gx, ref_grads = rule()
        assert np.array_equal(gx, ref_gx) and np.array_equal(grads, ref_grads)


class TestStepRecords:
    """A recording pass keeps one record of three activations per step and
    its reverse rule rebuilds the actnorm and 1x1 outputs.  Against the
    chain of each layer's own reverse rule over the full contexts built
    from its own pass's outputs, the input cotangent and every parameter
    gradient are bitwise equal, in both directions and with non-zero
    log-det cotangents.  The cases cover 1-3 levels, 2x2 levels, levels
    that squeeze one axis and non-square ones."""

    @pytest.mark.parametrize("shape, levels, hidden", [
        ((1, 4, 4), 1, 4), ((1, 8, 8), 2, 16), ((3, 8, 12), 2, 4), ((1, 16, 8), 3, 8),
        ((1, 2, 16), 3, 4)])
    def test_equal_the_chain_of_layer_rules(self, shape, levels, hidden):
        model = _random_model(shape, levels, 2, hidden, seed=0x5EC0 + levels, scale=0.3)
        down, up = flowunfold.flow._down, flowunfold.flow._up
        rng = Prng(0x5EC1 + levels)
        x = rng.gauss_array((2,) + shape)
        z = rng.gauss_array((2, model.n))
        gz, gld, gx = rng.gauss_array(z.shape), rng.gauss_array(2), rng.gauss_array(x.shape)

        def rule(run):
            zero_grads(model.store)
            cotangent = run()
            return cotangent, model.store.grads.copy()

        def forward_chain():
            contexts = []

            def step(layers, x):
                for layer in layers:
                    x, _, ctx = _layer_pass(layer, x, layer.constants())
                    contexts.append(ctx)
                return x

            def back(layers, g):
                for layer in reversed(layers):
                    g = layer.backward(next(record), g, gld)
                return g

            down(model._levels, x, step)
            record = reversed(contexts)
            return up(model._levels, gz, back)

        def forward_model():
            _, _, record = model.forward_batch(x)
            assert [len(r) for r in record] == [3] * levels * model.depth
            return model.backward_forward(record, gz, gld)

        def inverse_chain():
            contexts = []

            def step(layers, x):
                for layer in reversed(layers):
                    x, _, ctx = _layer_pass(layer, x, layer.constants(), "inverse")
                    contexts.append(ctx)
                return x

            def back(layers, g):
                for layer in layers:
                    g = layer.inverse_backward(next(record), g)
                return g

            up(model._levels, z, step)
            record = reversed(contexts)
            return down(model._levels, gx, back)

        def inverse_model():
            _, record = model.inverse_batch(z)
            assert [len(r) for r in record] == [3] * levels * model.depth
            return model.backward_inverse(record, gx)

        for chain, walk in ((forward_chain, forward_model), (inverse_chain, inverse_model)):
            want, want_grads = rule(chain)
            got, got_grads = rule(walk)
            assert np.array_equal(got, want) and np.array_equal(got_grads, want_grads)
            assert all(np.any(p.grad) for p in model.store)  # every layer is on the path


class _CountedValue(Parameter):
    """A parameter whose ``value`` reads are counted in ``reads``."""

    __slots__ = ()
    reads = Counter()

    @property
    def value(self):
        _CountedValue.reads[self.name] += 1
        return Parameter.value.__get__(self)

    @value.setter
    def value(self, value):
        Parameter.value.__set__(self, value)


class TestPlanIsTheOnlyReader:
    """The reverse rules read the flow weights from the plan their pass
    walked, as the passes do: with every flow parameter's ``value`` reads
    counted (a fold's mu and rho are not flow weights), a grad step's
    reverse sweep and an NLL gradient's reverse walk read none."""

    @staticmethod
    def _counted(store):
        _CountedValue.reads.clear()
        for p in store:
            if not p.name.endswith((".mu", ".rho")):
                p.__class__ = _CountedValue

    def test_reconstruct_backward(self):
        net = _random_net(3, 0x5B1)
        op = operator_for_task("inpaint", net.shape)
        y = op.apply(Prng(0x5B2).gauss_array((2,) + net.shape))
        x_hat, pipe = net.reconstruct_batch_grad(y, op)
        self._counted(net.store)
        net.reconstruct_backward(pipe, x_hat - y)
        assert net.store.grads.any() and _CountedValue.reads == {}

    def test_backward_forward(self):
        model = _random_model((1, 8, 8), 2, 2, 4, seed=0x5B3)
        x = Prng(0x5B4).gauss_array((2, 1, 8, 8))
        z, _, ctx = model.forward_batch(x)
        self._counted(model.store)
        model.backward_forward(ctx, z, np.ones(2))
        assert model.store.grads.any() and _CountedValue.reads == {}
        assert model._steps()[0][0].bias.value.shape == (4,)  # a read the spy counts
        assert _CountedValue.reads == {"level0.step0.actnorm.bias": 1}


def _read_only(a):
    a.flags.writeable = False
    return a


def _freeze(ctx):
    """Make every array of a layer's context or a step record read-only,
    the constants' included."""
    for entry in ctx:
        if isinstance(entry, np.ndarray):
            entry.flags.writeable = False
        elif isinstance(entry, tuple):
            _freeze(entry)


class TestNoWritesIntoInputs:
    """The layers run relu, clamp and their output arithmetic in place, but
    only on arrays they allocated: every procedure runs here on read-only
    inputs, cotangents and records, so a write into any of them raises."""

    @pytest.mark.parametrize("hidden", [4, 16])
    def test_every_layer_procedure(self, hidden):
        # at hidden=16 each coupling's second conv takes the conv's col2im
        # side and its first conv's reverse rule the im2col-plus-col2im one;
        # at hidden=4 neither does
        model = _random_model((1, 8, 8), 2, 1, hidden, seed=0x7E01)
        rng = Prng(0x7E02)
        for level in model._levels:
            x = _read_only(rng.gauss_array((2,) + level.shape))
            for layer in level.steps[0]:
                y, _, ctx = _layer_pass(layer, x, layer.constants())
                _freeze(ctx)
                layer.backward(ctx, _read_only(rng.gauss_array(y.shape)),
                               _read_only(rng.gauss_array(2)))
                back, _, ctx = _layer_pass(layer, _read_only(y), layer.constants(), "inverse")
                _freeze(ctx)
                layer.inverse_backward(ctx, _read_only(rng.gauss_array(back.shape)))
                x = y

    @pytest.mark.parametrize("hidden", [4, 16])
    def test_model_passes(self, hidden):
        model = _random_model((1, 8, 8), 2, 2, hidden, seed=0x7E03)
        rng = Prng(0x7E04)
        x = _read_only(rng.gauss_array((2, 1, 8, 8)))
        z, _, ctx = model.forward_batch(x)
        for c in ctx:
            _freeze(c)
        model.backward_forward(ctx, _read_only(rng.gauss_array(z.shape)),
                               _read_only(rng.gauss_array(2)))
        back, ctx = model.inverse_batch(_read_only(z))
        for c in ctx:
            _freeze(c)
        model.backward_inverse(ctx, _read_only(rng.gauss_array(back.shape)))


class TestAcrossShapes:
    """The walks over the level table on shapes beyond the square 1-channel
    case: 1 or 3 channels, 1-3 levels, non-square sizes, levels that squeeze
    one axis only, batches of 1 and 2."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        channels=st.sampled_from([1, 3]),
        levels=st.integers(1, 3),
        # one axis is 2^levels, the other odd * 2^short: every level
        # squeezes the first, and the second only while it is even
        short=st.integers(0, 3),
        odd=st.sampled_from([1, 3]),
        swap=st.booleans(),
        batch=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(channels=1, levels=1, short=0, odd=1, swap=True, batch=1, seed=1)  # 1x1x2
    @example(channels=3, levels=3, short=1, odd=3, swap=False, batch=2, seed=2)  # 3x8x6
    def test_walks(self, channels, levels, short, odd, swap, batch, seed):
        h, w = 2**levels, odd * 2 ** min(short, levels)
        shape = (channels, w, h) if swap else (channels, h, w)
        model = _random_model(shape, levels, 1, 4, seed, scale=0.1)
        rng = Prng(seed ^ 0x5A)
        x = rng.gauss_array((batch,) + shape)
        z = rng.gauss_array((batch, model.n))

        fz, ld, _ = model.forward_batch(x)
        assert np.max(np.abs(model.inverse_batch(fz)[0] - x)) < 1e-8
        gz, _ = model.inverse_batch(z)
        assert np.max(np.abs(model.forward_batch(gz)[0] - z)) < 1e-8
        if model.n <= 48:
            assert abs(ld[0] - numeric_logdet(model, x[:1])) < 1e-6

        # both reverse walks at once: parameter cotangents, then the
        # cotangents of each walk's input
        cz, cld, cx = (rng.gauss_array(a.shape) for a in (z, ld, x))
        inputs = ParamStore()
        px, pz = inputs.add("x", x), inputs.add("z", z)

        def f(store):
            fz, ld, ctx_f = model.forward_batch(px.value)
            px.grad += model.backward_forward(ctx_f, cz, cld)
            gz, ctx_i = model.inverse_batch(pz.value)
            pz.grad += model.backward_inverse(ctx_i, cx)
            return float((fz * cz).sum() + (ld * cld).sum() + (gz * cx).sum())

        assert grad_check(f, model.store, 12) < 1e-5
        assert grad_check(f, inputs, 12) < 1e-5


def _twin(model, rng):
    """A randomized model of the same architecture."""
    return _random_model(model.shape, model.levels, model.depth, model.hidden, rng.next_u64())


def _twin_values(model, rng):
    """The store's flat values, the model's own span taken from a randomized
    twin (the store may hold other models too)."""
    values = model.store.snapshot()
    values[model.span] = _twin(model, rng).store.values
    return values


def _twin_entries(model, rng):
    """:func:`_twin_values` keyed by name, as a checkpoint holds them."""
    store = model.store
    parts = np.split(_twin_values(model, rng), np.cumsum([p.value.size for p in store])[:-1])
    return {p.name: part.reshape(p.value.shape) for p, part in zip(store, parts)}


def _adam_step(model, rng):
    for p in model.store:
        p.grad[...] = rng.gauss_array(p.value.shape)
    adam_update(model.store, AdamState(model.store, TrainConfig(lr=1e-2, scalar_lr=1e-2)))


def _values_write(model, rng):
    # how training writes back its best epoch
    model.store.values[...] = _twin_values(model, rng)


def _direct_write(model, rng):
    model._levels[0].steps[0][1].weight.value[0, 1] += 0.25


_WEIGHT_CHANGES = {
    "adam_update": _adam_step,
    "values write": _values_write,
    "restore_into": lambda model, rng: restore_into(model.store, _twin_entries(model, rng)),
    "copy_state_from": lambda model, rng: model.copy_state_from(_twin(model, rng)),
    "randomize": lambda model, rng: model.randomize(rng),
    "direct write": _direct_write,
}


class TestInvConvCache:
    """The 1x1 conv keeps no cache of its own: ``constants()`` derives W^-1
    and log|det W| from the current weight on every call (the flow's one
    cache is its plan, :class:`TestFlowPlan`)."""

    @pytest.mark.parametrize("change", sorted(_WEIGHT_CHANGES))
    def test_every_weight_change_is_seen(self, change):
        model = _random_model((1, 4, 4), 1, 1, 4, seed=0x1C2)
        layer = model._levels[0].steps[0][1]
        rng = Prng(0x1C3)
        x = rng.gauss_array((2, 4, 2, 2))
        before = layer.weight.value.copy()
        _WEIGHT_CHANGES[change](model, rng)
        assert not np.array_equal(before, layer.weight.value)
        det, inv = small_det_inv(layer.weight.value)
        _, ld, _ = _layer_pass(layer, x, layer.constants())
        assert np.array_equal(ld, np.full(2, 4 * math.log(abs(det))))
        back = layer.inverse(x, layer.constants())
        assert np.array_equal(back, np.matmul(inv, x.reshape(2, 4, 4)).reshape(x.shape))

    def test_singular_weight_raises_on_every_call(self):
        layer = InvConv1x1(2, ParamStore(), "iv")
        layer.weight.value[...] = [[1.0, 1.0], [1.0, 1.0]]
        named = r"^iv\.weight: matrix of size 2 is numerically singular"
        for _ in range(2):
            with pytest.raises(SingularMatrixError, match=named):
                layer.forward(np.zeros((1, 2, 2, 2)), layer.constants())
            with pytest.raises(SingularMatrixError, match=named):
                layer.inverse(np.zeros((1, 2, 2, 2)), layer.constants())


def _random_net(k, seed):
    net = UnrolledNet((1, 8, 8), k, 2, 1, 4)
    rng = Prng(seed)
    for fold in net.folds:
        fold.flow.randomize(rng)
    return net


class TestInitialGuessCache:
    """UnrolledNet.initial_guess keeps (fold 0's flow weights, x0) and
    computes x0 again only when those weights changed."""

    @pytest.mark.parametrize("change", sorted(_WEIGHT_CHANGES))
    def test_every_fold0_change_is_seen(self, change):
        net = _random_net(2, 0x1D0)
        cached = net.initial_guess()
        _WEIGHT_CHANGES[change](net.folds[0].flow, Prng(0x1D1))
        x0 = net.initial_guess()
        fresh, _ = net.folds[0].flow.inverse_batch(np.zeros((1, net.folds[0].flow.n)))
        assert x0 is not cached
        assert not np.array_equal(x0, cached)
        assert np.array_equal(x0, fresh)

    def test_fold1_and_scalar_writes_keep_it(self):
        net = _random_net(2, 0x1D2)
        x0 = net.initial_guess()
        net.folds[1].flow._levels[0].steps[0][1].weight.value[0, 1] += 0.25
        net.folds[1].flow.randomize(Prng(0x1D3))
        net.folds[0].mu.value[...] = 0.3
        net.folds[0].rho.value[...] = -1.0
        again = net.initial_guess()
        assert again is x0

    def test_returned_x0_is_read_only(self):
        net = _random_net(2, 0x1D4)
        x0 = net.initial_guess()
        with pytest.raises(ValueError, match="read-only"):
            x0[...] = 0.0
        assert np.array_equal(net.initial_guess(), x0)


class TestFlowPlan:
    """FlowModel.plan keeps the constants of the current weights and builds
    them again only when one comparison over the model's store slice finds
    a change; its plain walks equal the recording ones bitwise."""

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from([(1, 8, 8), (3, 8, 16), (1, 16, 16)]),
        levels=st.integers(1, 3),
        # hidden=16 puts every coupling's second conv on the col2im side
        hidden=st.sampled_from([4, 16]),
        batch=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(1, 16, 16), levels=2, hidden=16, batch=3, seed=1)
    @example(shape=(3, 8, 16), levels=3, hidden=4, batch=1, seed=2)
    def test_passes_equal_recording_ones_bitwise(self, shape, levels, hidden, batch, seed):
        model = _random_model(shape, levels, 2, hidden, seed, scale=0.1)
        rng = Prng(seed ^ 0x9A)
        x = rng.gauss_array((batch,) + shape)
        z = rng.gauss_array((batch, model.n))
        plan = model.plan()
        assert np.array_equal(plan.forward(x), model.forward_batch(x)[0])
        assert np.array_equal(plan.inverse(z), model.inverse_batch(z)[0])
        zero = model.inverse_batch(np.zeros((1, model.n)))[0]
        assert np.array_equal(plan.inverse_of_zero(), zero)

    def test_wrong_shapes_raise(self):
        model = _random_model((1, 8, 8), 2, 1, 4, seed=0x9B)
        plan = model.plan()
        with pytest.raises(ShapeError, match="flow input"):
            plan.forward(np.zeros((1, 1, 8, 4)))
        for z in (np.zeros((1, 63)), np.zeros(64), np.zeros((1, 64, 1))):
            for inverse in (plan.inverse, model.inverse_batch):
                with pytest.raises(ShapeError, match="flow latent"):
                    inverse(z)

    @pytest.mark.parametrize("change", sorted(_WEIGHT_CHANGES))
    def test_every_weight_change_is_seen(self, change):
        model = _random_model((1, 8, 8), 2, 1, 4, seed=0x9C)
        x = Prng(0x9D).gauss_array((2, 1, 8, 8))
        plan = model.plan()
        assert model.plan() is plan
        _WEIGHT_CHANGES[change](model, Prng(0x9E))
        fresh = model.plan()
        assert fresh is not plan and model.plan() is fresh
        assert np.array_equal(fresh.weights, model.store.values[model.span])
        assert np.array_equal(fresh.forward(x), model.forward_batch(x)[0])
        assert not np.array_equal(fresh.forward(x), plan.forward(x))

    def test_nothing_in_a_plan_views_the_store(self):
        model = _random_model((1, 8, 8), 2, 1, 16, seed=0x9F)
        plan = model.plan()
        arrays = [plan.weights] + [
            array for level in plan.levels for step in level.steps
            for array in _arrays_in(step)
        ]
        assert len(arrays) > 1
        assert not any(np.shares_memory(a, model.store.values) for a in arrays)

    # (1, 2, 16) squeezes one axis after the first level, so all three
    # levels have 4 channels: one stacked det inverse covers them all
    @pytest.mark.parametrize("shape, levels", [((1, 16, 16), 2), ((3, 8, 16), 3),
                                               ((1, 2, 16), 3)])
    def test_constants_equal_each_layers_own_bitwise(self, shape, levels):
        model = _random_model(shape, levels, 2, 4, seed=0x1A0)
        pairs = [pair for level in model.plan().levels for step in level.steps for pair in step]
        layers = [layer for step in model._steps() for layer in step]
        assert len(pairs) == len(layers)
        for (layer, got), own in zip(pairs, layers):
            assert layer is own
            want = layer.constants()
            assert len(_arrays_in(got)) == len(_arrays_in(want)) > 0
            for a, b in zip(_arrays_in(got), _arrays_in(want)):
                assert a.shape == b.shape and np.array_equal(a, b)
            assert [c for c in got if not isinstance(c, (np.ndarray, tuple))] == [
                c for c in want if not isinstance(c, (np.ndarray, tuple))]

    def test_the_first_singular_weight_in_walk_order_is_named(self):
        model = _random_model((1, 2, 16), 3, 2, 4, seed=0x1A1)
        for name in ("level2.step0.invconv.weight", "level1.step1.invconv.weight"):
            model.store[name].value[...] = 1.0
        with pytest.raises(SingularMatrixError,
                           match=r"^level1\.step1\.invconv\.weight: matrix of size 4"):
            model.plan()

    def test_a_discarded_model_is_freed_without_the_cycle_collector(self):
        # a plan that referred back to its model would make a cycle, and
        # every discarded model would keep its store until a collection
        model = _random_model((1, 8, 8), 2, 1, 4, seed=0x9F)
        model.plan().inverse_of_zero()
        store = weakref.ref(model.store)
        gc.disable()
        try:
            del model
            assert store() is None
        finally:
            gc.enable()

    def test_a_write_to_one_fold_keeps_the_others_plans(self):
        net = _random_net(3, 0x1E0)
        plans = [fold.flow.plan() for fold in net.folds]
        net.folds[1].flow._levels[0].steps[0][1].weight.value[0, 1] += 0.25
        net.folds[0].mu.value[...] = 0.3
        net.folds[2].rho.value[...] = -1.0
        kept = [fold.flow.plan() is plan for fold, plan in zip(net.folds, plans)]
        assert kept == [True, False, True]

    def test_load_pretrained_prior_is_seen(self):
        net = _random_net(2, 0x1E1)
        plans = [fold.flow.plan() for fold in net.folds]
        prior = _twin(net.folds[0].flow, Prng(0x1E2))
        net.load_pretrained_prior(prior)
        for fold, plan in zip(net.folds, plans):
            fresh = fold.flow.plan()
            assert fresh is not plan
            assert np.array_equal(fresh.weights, prior.store.values)

    def test_plan_is_read_once_under_threads(self, monkeypatch):
        # tiles on other threads may replace the plan between two reads; a
        # call must return a plan built for the current weights, never the
        # stale one it compared.  The recount below shows readers met the
        # stale plan and built a fresh one.  A reader that raises fails the
        # test.
        model = _random_model((1, 4, 4), 1, 1, 4, seed=0x1E3)
        weights = model.store.values
        current = weights.copy()
        weights[...] = _twin(model, Prng(0x1E4)).store.values
        stale = model.plan()
        weights[...] = current
        fresh = model.plan()
        builds = []

        def counted(flow, values):
            builds.append(1)
            return FlowPlan(flow, values)

        monkeypatch.setattr(flowunfold.flow, "FlowPlan", counted)
        stop = threading.Event()
        wrong, errors = [], []

        def replace():
            for plan in itertools.cycle((stale, fresh)):
                if stop.is_set():
                    break
                model._plan = plan

        def read():
            try:
                for _ in range(3000):
                    plan = model.plan()
                    if plan is stale or not np.array_equal(plan.weights, current):
                        wrong.append(plan)
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=replace)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            writer.start()
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=60)
        finally:
            stop.set()
            writer.join(timeout=60)
            sys.setswitchinterval(old_interval)
        assert not writer.is_alive() and not any(t.is_alive() for t in readers)
        assert not errors, errors[:3]
        assert builds, "no reader ever met the stale plan"
        assert not wrong, f"{len(wrong)} stale plans returned"


def _arrays_in(item):
    """Every array in a nest of tuples."""
    if isinstance(item, np.ndarray):
        return [item]
    if isinstance(item, tuple):
        return [a for part in item for a in _arrays_in(part)]
    return []
