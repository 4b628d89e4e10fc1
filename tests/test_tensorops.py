import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrx.errors import DimensionError, SizeGuardError, ValidationError
from ctrx.tensorops import (_kernel_rfft, conv2d_circular, conv_operator_norm,
                            dense_norm_oracle, dense_top_singular_vector,
                            freq_response)


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


def conv_reference(x, k):
    # out[o, n] = sum_{i,a} k[o, i, a] * x[i, n + center - a], looped directly
    c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for i in range(c_in):
            for a in range(kh):
                for b in range(kw):
                    for r in range(h):
                        for c in range(w):
                            out[o, r, c] += k[o, i, a, b] * x[
                                i, (r + kh // 2 - a) % h, (c + kw // 2 - b) % w]
    return out


ODD_AND_NON_SQUARE_GRIDS = [(5, 8), (8, 7), (7, 9), (6, 10)]


@pytest.mark.parametrize("h, w", ODD_AND_NON_SQUARE_GRIDS)
def test_conv_and_adjoint_match_direct_loops_on_odd_grids(h, w):
    # c_out != c_in and a 3x5 kernel: the half-spectrum path must give back
    # the full H x W grid whether W is odd or even (the blur's adjoint,
    # which lives in ctrx.pnp, is checked in test_pnp)
    rng = np.random.default_rng(h * 16 + w)
    k = rng.standard_normal((3, 2, 3, 5))
    x = rng.standard_normal((2, h, w))
    got = conv2d_circular(x, k)
    assert got.shape == (3, h, w)
    np.testing.assert_allclose(got, conv_reference(x, k), rtol=0, atol=1e-12)


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
    assert dense_norm_oracle(k, 8, 8) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_matches_dense_oracle_multichannel():
    rng = np.random.default_rng(6)
    k = rng.standard_normal((3, 3, 3, 3))
    fast = conv_operator_norm(k, 8, 8)
    slow = dense_norm_oracle(k, 8, 8)
    assert fast == pytest.approx(slow, rel=1e-12, abs=0)


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
        assert conv_operator_norm(k, h, w) == pytest.approx(
            dense_norm_oracle(k, h, w), rel=1e-12, abs=0)


@pytest.mark.parametrize("h, w", ODD_AND_NON_SQUARE_GRIDS + [(6, 6), (9, 9)])
@pytest.mark.parametrize("c_out, c_in", [(1, 1), (3, 2), (3, 3)])
def test_operator_norm_is_the_max_over_the_full_grid(h, w, c_out, c_in):
    # the half-spectrum norm must equal the largest singular value over all
    # H*W frequency matrices, not only over columns 0 .. W//2
    rng = np.random.default_rng(100 * h + 10 * w + c_out)
    k = rng.standard_normal((c_out, c_in, 3, 5))
    full = np.linalg.svd(freq_response(k, h, w), compute_uv=False).max()
    assert conv_operator_norm(k, h, w) == pytest.approx(full, rel=1e-13, abs=0)


def test_norm_tightness_via_top_singular_vector():
    rng = np.random.default_rng(8)
    for _ in range(5):
        k = rng.standard_normal((2, 2, 3, 3))
        sigma, v = dense_top_singular_vector(k, 8, 8)
        out = conv2d_circular(v, k)
        ratio = np.linalg.norm(out) / np.linalg.norm(v)
        assert ratio >= conv_operator_norm(k, 8, 8) * (1 - 1e-12)


def test_dense_oracle_identity_kernels():
    assert dense_norm_oracle(identity_kernel(1.0), 4, 4) == pytest.approx(1.0, abs=1e-12)
    assert dense_norm_oracle(identity_kernel(2.0), 4, 4) == pytest.approx(2.0, abs=1e-12)


def test_dense_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        dense_norm_oracle(np.zeros((1, 1, 3, 3)), 96, 96)


def full_svd_norm(k, h, w):
    """The largest singular value over every half-spectrum channel matrix."""
    kf = _kernel_rfft(k, h, w)
    mats = kf.reshape(k.shape[0], k.shape[1], -1).transpose(2, 0, 1)
    return float(np.linalg.svd(mats, compute_uv=False)[:, 0].max())


@st.composite
def multichannel_kernels(draw):
    c_out = draw(st.integers(1, 5))
    c_in = draw(st.integers(1 if c_out > 1 else 2, 5))
    k_h, k_w = draw(st.sampled_from([1, 3, 5])), draw(st.sampled_from([1, 3, 5]))
    h, w = draw(st.integers(k_h, 13)), draw(st.integers(k_w, 13))
    scale = draw(st.sampled_from([5e-324, 1e-310, 1e-300, 1e-150, 1e-5, 1.0, 1e5,
                                  1e150, 1e300]))
    kind = draw(st.sampled_from(["random", "zero", "diagonal", "near_identity"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = rng.standard_normal((c_out, c_in, k_h, k_w))
    if kind == "zero":
        k[:] = 0.0
    elif kind == "diagonal":
        # center taps on the diagonal: every frequency holds the same
        # diagonal matrix, so the Gershgorin bound is tight and every
        # frequency ties at the maximum
        k[:] = 0.0
        d = min(c_out, c_in)
        k[range(d), range(d), k_h // 2, k_w // 2] = draw(st.lists(
            st.sampled_from([0.5, 1.0, -2.0]), min_size=d, max_size=d))
    elif kind == "near_identity":
        k *= 0.05
        d = min(c_out, c_in)
        k[range(d), range(d), k_h // 2, k_w // 2] += 1.0
    return k * scale, h, w


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(multichannel_kernels())
def test_property_pruned_norm_is_bitwise_the_full_svd_norm(case):
    k, h, w = case
    assert conv_operator_norm(k, h, w) == full_svd_norm(k, h, w)


def test_pruned_norm_of_a_subnormal_kernel():
    # LAPACK rounds these singular values to multiples of 2^-1074 (here
    # 1.5e-323 for a true 1.29e-323), above the Gershgorin bound of their
    # own matrices: a lower bound taken from the unscaled SVD would prune
    # every frequency
    tiny = 5e-324
    k = np.array([[0, -2, -1, 1], [1, -1, 0, 0]], dtype=float) * tiny
    k = k.reshape(2, 4, 1, 1)
    assert conv_operator_norm(k, 7, 9) == full_svd_norm(k, 7, 9) == 3 * tiny


def test_norm_runs_the_svd_on_few_frequencies(monkeypatch):
    # a near-identity 3-channel kernel on 32x32: 544 half-spectrum
    # matrices, of which only those near the largest response can hold it
    k = 0.05 * np.random.default_rng(31).standard_normal((3, 3, 3, 3))
    k[range(3), range(3), 1, 1] += 1.0
    factored = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        factored.append(1 if np.ndim(a) == 2 else len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    norm = conv_operator_norm(k, 32, 32)
    assert sum(factored) < 544 / 4
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert norm == full_svd_norm(k, 32, 32)
