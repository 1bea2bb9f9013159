import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowunfold.errors import ShapeError, SingularMatrixError
from flowunfold.numerics import (
    Prng,
    _gather_patches,
    conv2d_circular,
    conv2d_circular_backward,
    derive_seed,
    gaussian_kernel,
    small_det_inv,
)

# First 16 uniform doubles for seed 0x9E3779B97F4A7C15, frozen as a
# regression anchor for the SplitMix64 stream.
GOLDEN_SEED = 0x9E3779B97F4A7C15
GOLDEN_UNIFORMS = [
    0.43152799704850997,
    0.026433771592597743,
    0.9708819781538285,
    0.10634669156721244,
    0.32732576421812576,
    0.17386786595968284,
    0.771546556331567,
    0.24568894884013137,
    0.9520306913678265,
    0.39646797562881353,
    0.7610344216276269,
    0.5239505916549513,
    0.5551675161334325,
    0.7082223347395465,
    0.518482183942174,
    0.48891463048250494,
]


class TestPrng:
    def test_golden_vector(self):
        rng = Prng(GOLDEN_SEED)
        got = [rng.uniform() for _ in range(16)]
        assert got == GOLDEN_UNIFORMS

    def test_splitmix_reference_outputs(self):
        # Canonical splitmix64 outputs for seed 0.
        rng = Prng(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_array_stream_matches_scalar_stream(self):
        a = Prng(77).uniform_array(64)
        rng = Prng(77)
        b = np.array([rng.uniform() for _ in range(64)])
        assert np.array_equal(a, b)

    def test_same_seed_same_sequence(self):
        assert np.array_equal(Prng(5).gauss_array(101), Prng(5).gauss_array(101))

    def test_uniform_range(self):
        u = Prng(9).uniform_array(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_gauss_moments(self):
        g = Prng(123).gauss_array(200000)
        assert abs(g.mean()) < 0.01
        assert abs(g.std() - 1.0) < 0.01

    def test_gauss_scalar_consumes_pairs(self):
        rng = Prng(42)
        first = rng.gauss()
        # two uniforms consumed per scalar draw
        rng2 = Prng(42)
        rng2.uniform()
        rng2.uniform()
        assert rng.uniform() == rng2.uniform()
        assert first == Prng(42).gauss_array(1)[0]

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)


class TestConv2dCircular:
    def test_identity_kernel(self):
        x = Prng(1).gauss_array((1, 3, 5, 7))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = conv2d_circular(x, k, np.zeros(3))
        assert np.array_equal(out, x)

    def test_column_shift(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = np.array([[[[0.0, 0.0, 1.0]]]])
        out = conv2d_circular(x, k, np.zeros(1))
        assert np.array_equal(out, np.array([[[[2.0, 1.0], [4.0, 3.0]]]]))

    def test_averaging_preserves_mean(self):
        x = Prng(2).gauss_array((1, 1, 6, 6))
        k = np.full((1, 1, 3, 5), 1.0 / 15.0)
        out = conv2d_circular(x, k, np.zeros(1))
        assert abs(out.mean() - x.mean()) < 1e-12

    def test_linearity(self):
        rng = Prng(3)
        u = rng.gauss_array((1, 2, 4, 4))
        v = rng.gauss_array((1, 2, 4, 4))
        k = rng.gauss_array((3, 2, 3, 3))
        bias = np.zeros(3)
        a, b = 1.7, -0.3
        lhs = conv2d_circular(a * u + b * v, k, bias)
        rhs = a * conv2d_circular(u, k, bias) + b * conv2d_circular(v, k, bias)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_batched_matches_single(self):
        # each row convolves as it would in a batch of one
        rng = Prng(4)
        x = rng.gauss_array((5, 2, 4, 4))
        k = rng.gauss_array((3, 2, 3, 3))
        bias = rng.gauss_array(3)
        batched = conv2d_circular(x, k, bias)
        for i in range(5):
            assert np.array_equal(batched[i], conv2d_circular(x[i : i + 1], k, bias)[0])

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 2, 4, 4))
        k = np.zeros((1, 3, 3, 3))
        with pytest.raises(ShapeError, match="channels"):
            conv2d_circular(x, k, np.zeros(1))

    def test_backward_matches_finite_differences(self):
        rng = Prng(5)
        # Cout <= 2*Cin gathers the cotangent, Cout > 2*Cin the input
        for cin, cout in ((2, 3), (1, 3)):
            x = rng.gauss_array((2, cin, 4, 4))
            k = rng.gauss_array((cout, cin, 3, 3))
            bias = rng.gauss_array(cout)
            w = rng.gauss_array((2, cout, 4, 4))  # random cotangent

            def loss(xv, kv, bv):
                return float(np.sum(conv2d_circular(xv, kv, bv) * w))

            gx, gk, gb = conv2d_circular_backward(x, k, np.broadcast_to(w, w.shape) * 1.0)
            eps = 1e-6
            for arr, grad in ((x, gx), (k, gk), (bias, gb)):
                flat = arr.reshape(-1)
                for idx in [0, flat.size // 2, flat.size - 1]:
                    old = flat[idx]
                    flat[idx] = old + eps
                    up = loss(x, k, bias)
                    flat[idx] = old - eps
                    down = loss(x, k, bias)
                    flat[idx] = old
                    num = (up - down) / (2 * eps)
                    assert abs(num - grad.reshape(-1)[idx]) < 1e-6


def _fancy_index_gather(x, kh, kw):
    """Reference im2col: one fancy index per (row, col) tap, then transpose."""
    b, cin, h, w = x.shape
    rows = (np.arange(h)[None, :] + np.arange(kh)[:, None] - kh // 2) % h
    cols = (np.arange(w)[None, :] + np.arange(kw)[:, None] - kw // 2) % w
    patches = x[:, :, rows[:, :, None, None], cols[None, None, :, :]]
    return patches.transpose(0, 1, 2, 4, 3, 5).reshape(b, cin * kh * kw, h * w)


def _roll_conv(x, kernel, bias):
    """conv2d_circular's definition summed tap by tap over np.roll shifts."""
    cout, _, kh, kw = kernel.shape
    out = np.zeros((x.shape[0], cout) + x.shape[2:]) + bias[None, :, None, None]
    for dr in range(-(kh // 2), kh // 2 + 1):
        for dc in range(-(kw // 2), kw // 2 + 1):
            shifted = np.roll(x, (-dr, -dc), axis=(2, 3))
            tap = kernel[:, :, dr + kh // 2, dc + kw // 2]
            out += np.einsum("oi,bihw->bohw", tap, shifted)
    return out


def _roll_conv_adjoint(x, kernel, gout):
    """(gx, gkernel, gbias) of _roll_conv for cotangent gout, tap by tap:
    each tap's shift is undone by the opposite np.roll."""
    _, _, kh, kw = kernel.shape
    gx = np.zeros(x.shape)
    gkernel = np.zeros(kernel.shape)
    for dr in range(-(kh // 2), kh // 2 + 1):
        for dc in range(-(kw // 2), kw // 2 + 1):
            tap = kernel[:, :, dr + kh // 2, dc + kw // 2]
            gx += np.einsum("oi,bohw->bihw", tap, np.roll(gout, (dr, dc), axis=(2, 3)))
            shifted = np.roll(x, (-dr, -dc), axis=(2, 3))
            gkernel[:, :, dr + kh // 2, dc + kw // 2] = np.einsum("bohw,bihw->oi", gout, shifted)
    return gx, gkernel, gout.sum(axis=(0, 2, 3))


_gather_cases = given(
    batch=st.sampled_from([1, 3]),
    cin=st.sampled_from([1, 3]),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    k=st.sampled_from([3, 7]),
    seed=st.integers(0, 2**32 - 1),
)


class TestGatherPatches:
    # each test's examples put a 7x7 kernel on an image narrower than it,
    # whose taps wrap around more than once
    @settings(max_examples=60, deadline=None, derandomize=True)
    @_gather_cases
    @example(batch=1, cin=1, h=4, w=4, k=7, seed=1)
    @example(batch=3, cin=3, h=2, w=6, k=7, seed=2)
    def test_bitwise_equal_to_fancy_index_gather(self, batch, cin, h, w, k, seed):
        x = Prng(seed).gauss_array((batch, cin, h, w))
        assert np.array_equal(_gather_patches(x, k, k), _fancy_index_gather(x, k, k))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @_gather_cases
    @example(batch=1, cin=1, h=4, w=4, k=7, seed=1)
    @example(batch=3, cin=3, h=2, w=6, k=7, seed=2)
    def test_conv_matches_roll_sum(self, batch, cin, h, w, k, seed):
        rng = Prng(seed)
        x = rng.gauss_array((batch, cin, h, w))
        kernel = rng.gauss_array((2, cin, k, k))
        bias = rng.gauss_array(2)
        ref = _roll_conv(x, kernel, bias)
        assert np.max(np.abs(conv2d_circular(x, kernel, bias) - ref)) < 1e-12


class TestConvBackward:
    # channel counts on both sides of Cout = 2*Cin, where the rule switches
    # from gathering the input to gathering the cotangent
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        batch=st.sampled_from([1, 3]),
        cin=st.sampled_from([1, 2, 3, 16]),
        cout=st.sampled_from([1, 2, 3, 16]),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        k=st.sampled_from([3, 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=3, cin=1, cout=16, h=4, w=4, k=7, seed=1)
    @example(batch=3, cin=16, cout=2, h=2, w=6, k=7, seed=2)
    def test_matches_roll_adjoint(self, batch, cin, cout, h, w, k, seed):
        rng = Prng(seed)
        x = rng.gauss_array((batch, cin, h, w))
        kernel = rng.gauss_array((cout, cin, k, k))
        gout = rng.gauss_array((batch, cout, h, w))
        got = conv2d_circular_backward(x, kernel, gout)
        refs = _roll_conv_adjoint(x, kernel, gout)
        for name, g, ref in zip(("gx", "gkernel", "gbias"), got, refs):
            assert g.shape == ref.shape, name
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), name


class TestSmallDetInv:
    def test_identity(self):
        det, inv = small_det_inv(np.eye(3))
        assert det == 1.0
        assert np.array_equal(inv, np.eye(3))

    def test_permutation_self_inverse(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        det, inv = small_det_inv(m)
        assert det == -1.0
        assert np.array_equal(inv, m)

    def test_residual_random_4x4(self):
        m = np.eye(4) + 0.3 * Prng(6).gauss_array((4, 4))
        det, inv = small_det_inv(m)
        assert np.max(np.abs(m @ inv - np.eye(4))) < 1e-10

    def test_det_times_det_inverse(self):
        for seed in range(5):
            m = np.eye(5) + 0.2 * Prng(seed).gauss_array((5, 5))
            det, inv = small_det_inv(m)
            det_inv, _ = small_det_inv(inv)
            assert abs(det * det_inv - 1.0) < 1e-8

    def test_singular_raises(self):
        m = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            small_det_inv(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    def test_non_finite_raises(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(SingularMatrixError):
            small_det_inv(m)


class TestGaussianKernel:
    @pytest.mark.parametrize("sigma,radius", [(0.5, 1), (1.0, 3), (5.0, 15)])
    def test_sums_to_one(self, sigma, radius):
        k = gaussian_kernel(sigma, radius)
        assert abs(k.sum() - 1.0) < 1e-12
        assert k.shape == (2 * radius + 1, 2 * radius + 1)

    def test_delta_limit(self):
        k = gaussian_kernel(1e-3, 2)
        assert k[2, 2] >= 1.0 - 1e-9

    def test_even_symmetry(self):
        k = gaussian_kernel(1.7, 4)
        assert np.array_equal(k, k[::-1, ::-1])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0, 2)
        with pytest.raises(ValueError):
            gaussian_kernel(1.0, 0)
