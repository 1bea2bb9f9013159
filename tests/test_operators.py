"""Tests for measurement operators: adjointness, projections, noise model."""

import numpy as np
import pytest

from flowunfold import operators
from flowunfold.errors import ConfigError, ShapeError
from flowunfold.numerics import Prng, conv2d_circular, derive_seed, gaussian_kernel
from flowunfold.operators import (
    CenterMask,
    GaussianBlur,
    Identity,
    make_measurement,
    measure_by_id,
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

    @pytest.mark.parametrize(
        "shape, radius",
        [((1, 8, 8), 5), ((1, 4, 6), 3), ((1, 5, 3), 3), ((1, 16, 16), 3), ((3, 64, 64), 3)],
    )
    def test_separable_blur_matches_the_2d_kernel(self, shape, radius):
        # the reference is the one 2-D circular conv with the full tap grid;
        # the row-then-column passes sum the same products in another order
        op = GaussianBlur(shape, 1.0, radius)
        x = Prng(0x5E9).gauss_array((2,) + shape)
        kernel = gaussian_kernel(1.0, radius)[None, None]
        ref = conv2d_circular(x.reshape(-1, 1, *shape[1:]), kernel).reshape(x.shape)
        assert np.max(np.abs(op.apply(x) - ref)) < 1e-14

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

    def test_measure_by_id_ignores_batch_and_row(self, monkeypatch):
        # an image's measurement depends on its id alone: permuted rows, or
        # the batch cut in two, give each image the same bits
        op = GaussianBlur((1, 8, 8), 1.0, 2)
        x = Prng(8).gauss_array((6, 1, 8, 8))
        ids = np.array([3, 17, 0, 5, 42, 9])
        calls = []
        monkeypatch.setattr(operators, "make_measurement",
                            lambda *args: calls.append(1) or make_measurement(*args))
        y = measure_by_id(op, x, 0.1, ids, 0xD1, 4, 2)
        assert len(calls) == len(ids)  # one make_measurement call per image
        for row, image_id in enumerate(ids):
            rng = Prng(derive_seed(0xD1, 4, 2, int(image_id)))
            assert np.array_equal(y[row], make_measurement(op, x[row], 0.1, rng))
        perm = np.array([4, 0, 5, 2, 1, 3])
        assert np.array_equal(measure_by_id(op, x[perm], 0.1, ids[perm], 0xD1, 4, 2), y[perm])
        halves = [measure_by_id(op, x[part], 0.1, ids[part], 0xD1, 4, 2)
                  for part in (perm[:2], perm[2:])]
        assert np.array_equal(np.concatenate(halves), y[perm])
        assert not np.array_equal(measure_by_id(op, x, 0.1, ids, 0xD1, 4, 3), y)


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
