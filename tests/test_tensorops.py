import numpy as np
import pytest

from ctrx.errors import DimensionError, SizeGuardError, ValidationError
from ctrx.tensorops import (clip_norm, conv2d_circular, conv2d_circular_adjoint,
                            conv_operator_norm, dense_norm_oracle,
                            dense_top_singular_vector, freq_response)


def identity_kernel(weight=1.0):
    return np.array(weight, dtype=np.float64).reshape(1, 1, 1, 1)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 6, 7))
    out = conv2d_circular(x, identity_kernel())
    np.testing.assert_allclose(out, x, atol=1e-13)


def test_conv_scaling_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 5, 5))
    out = conv2d_circular(x, identity_kernel(2.5))
    np.testing.assert_allclose(out, 2.5 * x, atol=1e-13)


def test_conv_matches_dense_circulant():
    # 4x4 input, 3x3 averaging kernel: build the 16x16 doubly circulant matrix
    # by hand from the documented orientation and compare.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 4, 4))
    k = np.full((1, 1, 3, 3), 1.0 / 9.0)
    dense = np.zeros((16, 16))
    for r in range(4):
        for c in range(4):
            for a in range(3):
                for b in range(3):
                    rr = (r + 1 - a) % 4  # center tap at (1, 1)
                    cc = (c + 1 - b) % 4
                    dense[r * 4 + c, rr * 4 + cc] += 1.0 / 9.0
    want = (dense @ x.ravel()).reshape(1, 4, 4)
    got = conv2d_circular(x, k)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_conv_channel_mismatch_raises():
    x = np.zeros((2, 4, 4))
    k = np.zeros((1, 3, 3, 3))
    with pytest.raises(DimensionError):
        conv2d_circular(x, k)


def test_conv_rejects_nonfinite():
    x = np.zeros((1, 4, 4))
    x[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        conv2d_circular(x, identity_kernel())


def test_conv_linearity():
    rng = np.random.default_rng(3)
    k = rng.standard_normal((2, 3, 3, 3))
    x1 = rng.standard_normal((3, 8, 8))
    x2 = rng.standard_normal((3, 8, 8))
    a, b = 1.7, -0.3
    lhs = conv2d_circular(a * x1 + b * x2, k)
    rhs = a * conv2d_circular(x1, k) + b * conv2d_circular(x2, k)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_conv_batched_matches_loop():
    rng = np.random.default_rng(4)
    k = rng.standard_normal((2, 2, 3, 3))
    batch = rng.standard_normal((5, 2, 6, 6))
    got = conv2d_circular(batch, k)
    for i in range(5):
        np.testing.assert_array_equal(got[i], conv2d_circular(batch[i], k))


def test_freq_response_delta_is_flat():
    fr = freq_response(identity_kernel(), 8, 8)
    np.testing.assert_allclose(fr, np.ones((8, 8, 1, 1)), atol=1e-14)


def test_freq_response_dc_gain_is_coefficient_sum():
    k = np.full((1, 1, 3, 3), 1.0 / 9.0)
    fr = freq_response(k, 8, 8)
    assert abs(fr[0, 0, 0, 0] - 1.0) < 1e-14


def test_freq_response_reproduces_spatial_conv():
    rng = np.random.default_rng(5)
    k = rng.standard_normal((2, 2, 3, 3))
    x = rng.standard_normal((2, 8, 8))
    fr = freq_response(k, 8, 8)
    xf = np.fft.fft2(x, axes=(-2, -1))
    yf = np.einsum("hwoi,ihw->ohw", fr, xf)
    want = np.fft.ifft2(yf, axes=(-2, -1)).real
    np.testing.assert_allclose(conv2d_circular(x, k), want, atol=1e-12)


def test_freq_response_grid_too_small():
    k = np.zeros((1, 1, 5, 5))
    with pytest.raises(DimensionError):
        freq_response(k, 4, 8)


def test_operator_norm_scalar_kernel():
    assert conv_operator_norm(identity_kernel(-3.0), 6, 6) == pytest.approx(3.0)


def test_operator_norm_averaging_kernel_is_one():
    k = np.full((1, 1, 3, 3), 1.0 / 9.0)
    assert conv_operator_norm(k, 8, 8) == pytest.approx(1.0, abs=1e-12)
    assert dense_norm_oracle(k, 8, 8) == pytest.approx(1.0, abs=1e-8)


def test_operator_norm_matches_dense_oracle_multichannel():
    rng = np.random.default_rng(6)
    k = rng.standard_normal((3, 3, 3, 3))
    fast = conv_operator_norm(k, 8, 8)
    slow = dense_norm_oracle(k, 8, 8)
    assert abs(fast - slow) <= 1e-8


def test_operator_norm_exactness_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        kh = int(rng.choice([1, 3, 5]))
        kw = int(rng.choice([1, 3, 5]))
        h = int(rng.integers(max(kh, 4), 13))
        w = int(rng.integers(max(kw, 4), 13))
        k = rng.standard_normal((c_out, c_in, kh, kw))
        assert abs(conv_operator_norm(k, h, w) - dense_norm_oracle(k, h, w)) <= 1e-8


def test_norm_tightness_via_top_singular_vector():
    rng = np.random.default_rng(8)
    for _ in range(5):
        k = rng.standard_normal((2, 2, 3, 3))
        sigma, v = dense_top_singular_vector(k, 8, 8)
        out = conv2d_circular(v, k)
        ratio = np.linalg.norm(out) / np.linalg.norm(v)
        assert ratio >= conv_operator_norm(k, 8, 8) * (1 - 1e-6)


def test_dense_oracle_identity_kernels():
    assert dense_norm_oracle(identity_kernel(1.0), 4, 4) == pytest.approx(1.0, abs=1e-10)
    assert dense_norm_oracle(identity_kernel(2.0), 4, 4) == pytest.approx(2.0, abs=1e-10)


def test_dense_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        dense_norm_oracle(np.zeros((1, 1, 3, 3)), 96, 96)


def test_adjoint_identity():
    rng = np.random.default_rng(9)
    k = rng.standard_normal((3, 2, 3, 5))
    x = rng.standard_normal((2, 8, 10))
    u = rng.standard_normal((3, 8, 10))
    lhs = np.sum(conv2d_circular(x, k) * u)
    rhs = np.sum(x * conv2d_circular_adjoint(u, k))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_clip_norm_within_budget_unchanged():
    k = identity_kernel(0.5)
    assert clip_norm(k, 8, 8, 1.0) is k


def test_clip_norm_rescales_to_budget():
    k = identity_kernel(2.0)
    clipped = clip_norm(k, 8, 8, 1.0)
    assert conv_operator_norm(clipped, 8, 8) == pytest.approx(1.0, abs=1e-9)


def test_clip_norm_reaches_budget_from_above():
    rng = np.random.default_rng(10)
    k = 3.0 * rng.standard_normal((2, 2, 3, 3))
    clipped = clip_norm(k, 8, 8, 0.7)
    s = conv_operator_norm(clipped, 8, 8)
    assert 0.7 - 1e-9 <= s <= 0.7


def test_clip_norm_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = 2.0 * rng.standard_normal((2, 2, 3, 3))
        once = clip_norm(k, 8, 8, 0.9)
        twice = clip_norm(once, 8, 8, 0.9)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)


def test_clip_norm_rejects_bad_budget():
    with pytest.raises(ValidationError):
        clip_norm(identity_kernel(), 4, 4, 0.0)
