import math

import numpy as np
import pytest

from ctrx.errors import DimensionError, ValidationError
from ctrx.metrics import _gaussian_filter_valid, _gaussian_taps, metric_report, psnr, ssim
from oracles import correlate_valid


def test_psnr_identical_is_inf():
    x = np.random.default_rng(0).random((3, 12, 12))
    assert math.isinf(psnr(x, x))


def test_psnr_uniform_error():
    a = np.zeros((1, 16, 16))
    b = np.full((1, 16, 16), 0.1)
    assert psnr(a, b, peak=1.0) == pytest.approx(20.0, abs=1e-12)


def test_psnr_matches_direct_formula():
    rng = np.random.default_rng(1)
    a = rng.random((3, 20, 20))
    b = rng.random((3, 20, 20))
    mse = np.mean((a - b) ** 2)
    assert psnr(a, b) == pytest.approx(10 * np.log10(1.0 / mse), rel=1e-13)


def test_psnr_symmetric_and_shift_invariant():
    rng = np.random.default_rng(2)
    a = rng.random((1, 8, 8))
    b = rng.random((1, 8, 8))
    assert psnr(a, b) == psnr(b, a)
    assert psnr(a + 0.25, b + 0.25) == pytest.approx(psnr(a, b), rel=1e-9)


def test_psnr_shape_mismatch():
    with pytest.raises(DimensionError):
        psnr(np.zeros((1, 8, 8)), np.zeros((1, 8, 9)))


def gaussian_window():
    """SSIM's 11x11 window, the outer product of the taps."""
    return np.outer(_gaussian_taps(), _gaussian_taps())


def test_gaussian_window_normalized():
    g = _gaussian_taps()
    assert g.shape == (11,)
    assert g.sum() == pytest.approx(1.0, rel=1e-15)
    win = gaussian_window()
    assert win.shape == (11, 11)
    assert win.sum() == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(win, win.T)


@pytest.mark.parametrize("shape", [(11, 11), (11, 17), (3, 40, 33)])
def test_separable_filter_matches_direct_correlation(shape):
    x = np.random.default_rng(11).random(shape)
    got = _gaussian_filter_valid(x, _gaussian_taps())
    want = correlate_valid(x, gaussian_window())
    assert got.shape == want.shape == shape[:-2] + (shape[-2] - 10, shape[-1] - 10)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_ssim_identical_is_one():
    x = np.random.default_rng(3).random((3, 16, 16))
    assert ssim(x, x) == 1.0


def test_ssim_inverted_below_one():
    x = np.random.default_rng(4).random((1, 16, 16))
    assert ssim(x, 1.0 - x) < 1.0


def test_ssim_symmetry_and_range():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.random((1, 14, 14))
        b = rng.random((1, 14, 14))
        v = ssim(a, b)
        assert v == pytest.approx(ssim(b, a), rel=1e-13)
        assert -1.0 <= v <= 1.0


def test_ssim_matches_naive_double_loop():
    rng = np.random.default_rng(6)
    a = rng.random((1, 13, 15))
    b = rng.random((1, 13, 15))
    win = gaussian_window()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for r in range(13 - 10):
        for c in range(15 - 10):
            pa = a[0, r:r + 11, c:c + 11]
            pb = b[0, r:r + 11, c:c + 11]
            mu_a = np.sum(win * pa)
            mu_b = np.sum(win * pb)
            va = np.sum(win * pa * pa) - mu_a ** 2
            vb = np.sum(win * pb * pb) - mu_b ** 2
            cov = np.sum(win * pa * pb) - mu_a * mu_b
            vals.append((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    assert ssim(a, b) == pytest.approx(float(np.mean(vals)), abs=1e-10)


def test_ssim_rejects_small_images():
    with pytest.raises(DimensionError):
        ssim(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)))


def test_metric_report_per_channel():
    rng = np.random.default_rng(7)
    a = rng.random((3, 16, 16))
    b = a.copy()
    b[0] = rng.random((16, 16))
    rep = metric_report(a, b)
    assert len(rep.per_channel) == 3
    assert math.isinf(rep.per_channel[1][0])
    assert rep.per_channel[1][1] == pytest.approx(1.0)
    assert rep.per_channel[0][0] < 30
    assert rep.psnr_db == pytest.approx(psnr(a, b))
    assert rep.ssim == pytest.approx(ssim(a, b))


def test_metric_report_ssim_is_the_mean_of_its_channels():
    rng = np.random.default_rng(8)
    a = rng.random((3, 20, 23))
    b = rng.random((3, 20, 23))
    rep = metric_report(a, b)
    assert rep.ssim == ssim(a, b)
    assert rep.ssim == float(np.mean([s for _, s in rep.per_channel]))
    for c, (_, s) in enumerate(rep.per_channel):
        assert s == ssim(a[c:c + 1], b[c:c + 1])


@pytest.mark.parametrize("metric", [ssim, metric_report])
def test_ssim_checks_hold_for_the_report(metric):
    with pytest.raises(DimensionError, match="smaller than the 11x11"):
        metric(np.zeros((1, 10, 16)), np.zeros((1, 10, 16)))
    with pytest.raises(DimensionError, match="single image"):
        metric(np.zeros((2, 1, 12, 12)), np.zeros((2, 1, 12, 12)))


@pytest.mark.parametrize("metric", [psnr, ssim, metric_report])
@pytest.mark.parametrize("peak", [math.inf, math.nan, 0.0, -1.0])
def test_metrics_need_a_finite_positive_peak(metric, peak):
    x = np.random.default_rng(10).random((1, 12, 12))
    with pytest.raises(ValidationError, match="peak must be finite and positive"):
        metric(x, x, peak)
