import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowunfold.numerics
from flowunfold.errors import ShapeError, SingularMatrixError
from flowunfold.numerics import (
    Prng,
    _im2col,
    conv2d_circular,
    conv2d_circular_backward,
    conv_apply,
    conv_input_taps,
    conv_layout,
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


def _fancy_index_gather(x, kh, kw, sign=1):
    """Reference im2col: one fancy index per (row, col) tap, then transpose;
    ``sign=-1`` mirrors every tap offset."""
    b, cin, h, w = x.shape
    rows = (np.arange(h)[None, :] + sign * (np.arange(kh)[:, None] - kh // 2)) % h
    cols = (np.arange(w)[None, :] + sign * (np.arange(kw)[:, None] - kw // 2)) % w
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
        for sign in (1, -1):
            assert np.array_equal(_im2col(x, k, k, sign), _fancy_index_gather(x, k, k, sign))

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


class TestConvForward:
    # channel counts on both sides of Cout = Cin, where the forward pass
    # switches from gathering the input to gathering the per-tap products;
    # the scratch tests also run the reverse rule on both sides of
    # Cout = 2*Cin, where it switches from the input to the cotangent
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        batch=st.sampled_from([1, 3]),
        cin=st.sampled_from([1, 2, 4, 16]),
        cout=st.sampled_from([1, 2, 4, 16]),
        h=st.integers(1, 9),
        dw=st.integers(1, 5),
        kernel=st.sampled_from([(3, 3), (1, 7), (7, 1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=3, cin=16, cout=4, h=2, dw=3, kernel=(7, 1), seed=1)
    @example(batch=1, cin=2, cout=16, h=6, dw=1, kernel=(1, 7), seed=2)
    def test_matches_roll_sum(self, batch, cin, cout, h, dw, kernel, seed):
        rng = Prng(seed)
        x = rng.gauss_array((batch, cin, h, h + dw))
        k = rng.gauss_array((cout, cin) + kernel)
        bias = rng.gauss_array(cout)
        assert np.max(np.abs(conv2d_circular(x, k, bias) - _roll_conv(x, k, bias))) < 1e-12

    @pytest.mark.parametrize("cin, cout", [(16, 4), (2, 16)])
    def test_output_outlives_the_next_call(self, cin, cout):
        rng = Prng(0xC0)
        x1, x2 = rng.gauss_array((2, 3, cin, 6, 5))
        g1, g2 = rng.gauss_array((2, 3, cout, 6, 5))
        k = rng.gauss_array((cout, cin, 3, 3))
        first = conv2d_circular(x1, k)
        kept = first.copy()
        second = conv2d_circular(x2, k)
        assert np.array_equal(first, kept)
        assert np.max(np.abs(second - _roll_conv(x2, k, np.zeros(cout)))) < 1e-12
        first_grads = conv2d_circular_backward(x1, k, g1)
        kept_grads = [g.copy() for g in first_grads]
        second_grads = conv2d_circular_backward(x2, k, g2)
        for got, kept in zip(first_grads, kept_grads):
            assert np.array_equal(got, kept)
        for got, ref in zip(second_grads, _roll_conv_adjoint(x2, k, g2)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        for out in (first, second) + first_grads + second_grads:
            assert not np.shares_memory(out, flowunfold.numerics._SCRATCH.buf)

    def test_threads_get_the_single_thread_results(self):
        # more threads than cores, switching often, each on both branches
        rng = Prng(0xC1)
        cases = []
        for cin, cout in ((16, 4), (2, 16), (16, 8), (4, 16)):
            x = rng.gauss_array((3, cin, 24, 40))
            k = rng.gauss_array((cout, cin, 3, 3))
            bias = rng.gauss_array(cout)
            gout = rng.gauss_array((3, cout, 24, 40))
            cases.append(lambda x=x, k=k, bias=bias: (conv2d_circular(x, k, bias),))
            cases.append(lambda x=x, k=k, gout=gout: conv2d_circular_backward(x, k, gout))
        cases = [(call, call()) for call in cases]
        errors = []
        start = threading.Barrier(4)

        def work(offset):
            start.wait(timeout=10)
            for i in range(40):
                call, expect = cases[(offset + i) % len(cases)]
                if not all(np.array_equal(a, b) for a, b in zip(call(), expect, strict=True)):
                    errors.append((offset, i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


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


class TestInputTaps:
    # a caller that rebuilds a conv's output in its reverse rule passes x's
    # taps to both calls; they must change no bit of either and survive the
    # gathers between the calls
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        batch=st.sampled_from([1, 3]),
        cin=st.sampled_from([1, 2, 3, 8]),
        cout=st.sampled_from([1, 2, 7, 16, 40]),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=3, cin=8, cout=40, h=2, w=2, seed=1)
    def test_bitwise_equal_to_gathering_again(self, batch, cin, cout, h, w, seed):
        rng = Prng(seed)
        x = rng.gauss_array((batch, cin, h, w))
        kernel = rng.gauss_array((cout, cin, 3, 3))
        bias = rng.gauss_array(cout)
        gout = rng.gauss_array((batch, cout, h, w))
        taps = conv_input_taps(x, kernel)
        assert (taps is None) == (cout <= 2 * cin)
        kept = None if taps is None else taps.copy()
        out = conv_apply(x, conv_layout(kernel, bias), taps)
        conv2d_circular(gout, kernel.transpose(1, 0, 2, 3))  # another gather between
        assert np.array_equal(out, conv2d_circular(x, kernel, bias))
        got = conv2d_circular_backward(x, kernel, gout, taps)
        for g, ref in zip(got, conv2d_circular_backward(x, kernel, gout), strict=True):
            assert np.array_equal(g, ref)
        if taps is not None:
            assert np.array_equal(taps, kept)
            assert not np.shares_memory(taps, flowunfold.numerics._SCRATCH.buf)


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


    @pytest.mark.parametrize("n", [1, 2, 4, 8, 13])
    def test_a_stack_gives_each_matrix_its_own_result_bitwise(self, n):
        rng = Prng(0x5D0 + n)
        stack = np.stack([np.eye(n) * (1 + i) + 0.4 * rng.gauss_array((n, n))
                          for i in range(6)])
        dets, invs = small_det_inv(stack)
        assert dets.shape == (6,) and invs.shape == (6, n, n)
        for m, det, inv in zip(stack, dets, invs):
            alone_det, alone_inv = small_det_inv(m)
            assert float(det) == alone_det
            assert np.array_equal(inv, alone_inv)

    def test_a_stack_names_its_first_singular_matrix(self):
        stack = np.stack([np.eye(3), np.eye(3), np.ones((3, 3)), np.ones((3, 3))])
        with pytest.raises(SingularMatrixError, match="matrix of size 3") as raised:
            small_det_inv(stack)
        assert raised.value.index == 2
        with pytest.raises(SingularMatrixError) as raised:
            small_det_inv(np.ones((3, 3)))
        assert raised.value.index is None

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 3, 3), (2, 2, 3)])
    def test_rejects_what_is_not_a_square_matrix_or_a_stack(self, shape):
        with pytest.raises(ShapeError):
            small_det_inv(np.zeros(shape))


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
