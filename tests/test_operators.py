"""Tests for measurement operators: adjointness, projections, noise model."""

import numpy as np
import pytest

from flowunfold.errors import ConfigError, ShapeError
from flowunfold.numerics import Prng
from flowunfold.operators import (
    CenterMask,
    GaussianBlur,
    Identity,
    make_measurement,
    operator_for_task,
)


def _ops(shape=(1, 16, 16)):
    return [
        Identity(shape),
        CenterMask(shape, 5),
        GaussianBlur(shape, 1.0, 3),
    ]


class TestApply:
    def test_identity_bitwise(self):
        op = Identity((2, 5, 7))
        x = Prng(1).gauss_array((2, 5, 7))
        assert np.array_equal(op.apply(x), x)

    def test_center_mask_documented_window(self):
        op = CenterMask((1, 4, 4), 2)
        y = op.apply(np.ones((1, 4, 4)))
        expect = np.ones((1, 4, 4))
        expect[0, 1:3, 1:3] = 0.0
        assert np.array_equal(y, expect)

    def test_blur_preserves_constant(self):
        op = GaussianBlur((1, 8, 8), 2.0, 5)
        y = op.apply(np.full((1, 8, 8), 0.37))
        assert np.max(np.abs(y - 0.37)) < 1e-12

    def test_linearity(self):
        rng = Prng(0x11EA)
        for op in _ops():
            u = rng.gauss_array(op.shape)
            v = rng.gauss_array(op.shape)
            lhs = op.apply(2.5 * u - 1.25 * v)
            rhs = 2.5 * op.apply(u) - 1.25 * op.apply(v)
            assert np.max(np.abs(lhs - rhs)) < 1e-10, op.kind

    def test_shape_mismatch_errors(self):
        op = Identity((1, 8, 8))
        with pytest.raises(ShapeError):
            op.apply(np.zeros((1, 8, 9)))

    def test_batched_matches_single(self):
        rng = Prng(0xBA)
        for op in _ops((3, 8, 8)):
            x = rng.gauss_array((4, 3, 8, 8))
            batched = op.apply(x)
            assert np.array_equal(batched[2], op.apply(x[2])), op.kind


class TestAdjoint:
    def test_dot_test_all_kinds(self):
        rng = Prng(0xD07)
        for op in _ops():
            worst = 0.0
            for _ in range(50):
                u = rng.gauss_array(op.shape)
                v = rng.gauss_array(op.shape)
                lhs = float((op.apply(u) * v).sum())
                rhs = float((u * op.adjoint(v)).sum())
                worst = max(worst, abs(lhs - rhs))
            assert worst < 1e-8, op.kind

    def test_mask_idempotent_projection(self):
        op = CenterMask((1, 16, 16), 5)
        x = Prng(0x1DE).gauss_array((1, 16, 16))
        once = op.apply(x)
        assert np.array_equal(op.apply(once), once)
        assert np.array_equal(op.adjoint(once), once)

    def test_blur_self_adjoint(self):
        op = GaussianBlur((1, 16, 16), 1.5, 4)
        v = Prng(0x5E1F).gauss_array((1, 16, 16))
        assert np.max(np.abs(op.adjoint(v) - op.apply(v))) < 1e-12

    def test_blur_spectral_norm_at_most_one(self):
        op = GaussianBlur((1, 16, 16), 1.0, 3)
        v = Prng(0x90).gauss_array((1, 16, 16))
        for _ in range(100):
            v = op.apply(v)
            v /= np.linalg.norm(v)
        norm = np.linalg.norm(op.apply(v))
        assert norm <= 1 + 1e-8


class TestMeasurement:
    def test_sigma_zero_exact(self):
        op = Identity((1, 8, 8))
        x = Prng(4).gauss_array((1, 8, 8))
        assert np.array_equal(make_measurement(op, x, 0.0, Prng(5)), x)

    def test_noise_std_empirical(self):
        op = Identity((3, 64, 64))
        x = Prng(6).gauss_array((3, 64, 64))
        y = make_measurement(op, x, 0.1, Prng(0x4015E))
        std = float((y - x).std())
        assert 0.095 <= std <= 0.105

    def test_fixed_seed_reproducible(self):
        op = CenterMask((1, 8, 8), 3)
        x = Prng(7).gauss_array((1, 8, 8))
        y1 = make_measurement(op, x, 0.2, Prng(0xAB))
        y2 = make_measurement(op, x, 0.2, Prng(0xAB))
        assert np.array_equal(y1, y2)

    def test_negative_sigma_errors(self):
        with pytest.raises(ConfigError):
            make_measurement(Identity((1, 4, 4)), np.zeros((1, 4, 4)), -0.1, Prng(1))


class TestFactory:
    def test_task_kinds(self):
        shape = (1, 16, 16)
        assert operator_for_task("denoise", shape).kind == "identity"
        assert operator_for_task("inpaint", shape).kind == "center_mask"
        assert operator_for_task("deblur", shape, sigma_b=1.0).kind == "gaussian_blur"

    def test_inpaint_default_window(self):
        op = operator_for_task("inpaint", (1, 16, 16))
        assert op.w == 5  # ceil(0.3 * 16)

    def test_deblur_default_radius(self):
        op = operator_for_task("deblur", (1, 16, 16), sigma_b=1.5)
        assert op.radius == 5  # ceil(3 * 1.5)

    def test_unknown_task_errors(self):
        with pytest.raises(ConfigError):
            operator_for_task("sharpen", (1, 8, 8))

    def test_bad_mask_width_errors(self):
        with pytest.raises(ConfigError):
            CenterMask((1, 8, 8), 9)
