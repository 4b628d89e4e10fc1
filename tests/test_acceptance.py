"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute; every tolerance is pinned here, nothing is deferred.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ctrx.errors import CorruptWeightsError, DivergenceError
from ctrx.inference import patch_denoise, plan_patches
from ctrx.io import Rng, add_awgn, chroma_subsample, load_weights, read_image, \
    save_weights, write_image
from ctrx.layers import (LayerParams, NetworkParams, constrain_params,
                         contraction_certificate, forward_steps, init_network,
                         network_forward, run_network, softplus_inverse)
from ctrx.metrics import psnr
from ctrx.pnp import (ForwardModel, apply_forward, composite_contraction_bound,
                      gaussian_blur, pnp_fbs)
from ctrx.tensorops import conv_operator_norm
from ctrx.trainer import TrainConfig, grad_check, synth_patches, train
from ctrx.wavelets import FAMILIES, dwt2, get_family
from oracles import dense_norm_oracle, idwt2


@contextmanager
def criterion(number, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL "
              f"({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({elapsed:.1f}s)")
    assert elapsed < budget_s


def test_criterion_01_spectral_norm_exactness():
    with criterion(1, "spectral-norm exactness", 30.0):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            kh = int(rng.choice([1, 3, 5]))
            kw = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(max(kh, 4), 13))
            w = int(rng.integers(max(kw, 4), 13))
            k = rng.standard_normal((c_out, c_in, kh, kw))
            gap = abs(conv_operator_norm(k, h, w) - dense_norm_oracle(k, h, w))
            worst = max(worst, gap)
        assert worst <= 1e-8, f"worst gap {worst:.2e}"


def test_criterion_02_wavelet_orthonormality():
    with criterion(2, "wavelet orthonormality", 10.0):
        rng = np.random.default_rng(102)
        checks = 0
        for name in sorted(FAMILIES):
            fam = FAMILIES[name]
            for size in (4, 8, 16, 64):
                x = rng.standard_normal((10, 1, size, size))
                coeffs = dwt2(x, fam)
                rec = idwt2(coeffs, fam)
                assert np.max(np.abs(rec - x)) <= 1e-10
                norm_c = np.sqrt(sum(np.sum(b ** 2) for b in coeffs))
                assert abs(norm_c - np.linalg.norm(x)) <= 1e-10 * max(
                    1.0, np.linalg.norm(x))
                checks += 10
        assert checks >= 100


def test_criterion_03_layer_contraction():
    with criterion(3, "layer contraction", 60.0):
        rng = np.random.default_rng(103)
        eps = 1e-3
        for trial in range(20):
            channels = int(rng.integers(1, 3))
            patch = 16
            net = init_network(depth=1, patch=patch, channels=channels,
                               seed=2000 + trial,
                               alpha_range=(0.05, 0.95))
            layer = net.layers[0]
            bound = contraction_certificate(net).per_layer[0].layer_bound
            assert bound < 1
            y = rng.standard_normal((channels, patch, patch))
            a = rng.standard_normal((1000, channels, patch, patch))
            b = rng.standard_normal((1000, channels, patch, patch))
            steps = forward_steps([layer], eps, [layer.conv_norm(patch, patch)],
                                  patch, patch)
            out_a, _ = run_network(y[None], steps, a)
            out_b, _ = run_network(y[None], steps, b)
            num = np.linalg.norm((out_a - out_b).reshape(1000, -1), axis=1)
            den = np.linalg.norm((a - b).reshape(1000, -1), axis=1)
            assert np.all(num / den <= bound), \
                f"trial {trial}: max ratio {np.max(num / den)} > bound {bound}"


def test_criterion_04_network_certificate_soundness():
    with criterion(4, "network certificate soundness (M=30, P=64)", 300.0):
        net = init_network(depth=30, patch=64, channels=1, seed=104)
        cert = contraction_certificate(net)
        assert cert.total_bound < 1
        rng = np.random.default_rng(104)
        chunks = []
        for start in range(0, 1000, 250):
            y = rng.standard_normal((250, 1, 64, 64))
            delta = rng.standard_normal((250, 1, 64, 64))
            base = network_forward(y, net)
            pert = network_forward(y, net, x0=y + delta)
            num = np.linalg.norm((pert - base).reshape(250, -1), axis=1)
            den = np.linalg.norm(delta.reshape(250, -1), axis=1)
            chunks.append(num / den)
        ratios = np.concatenate(chunks)
        assert ratios.size == 1000
        assert np.all(ratios <= cert.total_bound), \
            f"max ratio {ratios.max()} > bound {cert.total_bound}"


def _input_contractive_denoiser(seed, patch=64):
    # alpha < eps pushes the observation-sensitivity certificate below 1, so
    # the denoiser's full input-output map is provably contractive
    net = init_network(depth=3, patch=patch, channels=1, seed=seed,
                       alpha_range=(0.05, 0.25), eps=0.3)
    lip = contraction_certificate(net).observation_bound
    assert lip < 1
    return (lambda z: network_forward(z, net)), lip


def test_criterion_05_pnp_convergence_dichotomy():
    with criterion(5, "PnP convergence dichotomy", 120.0):
        rng = np.random.default_rng(105)
        clean = rng.random((1, 64, 64))
        model = ForwardModel(gaussian_blur(9, 2.0), stride=1)
        y = add_awgn(apply_forward(clean, model), 0.01, Rng(105))
        den, lip = _input_contractive_denoiser(seed=105)
        alpha = 1.0
        bound = composite_contraction_bound(model, alpha, lip, 64, 64)
        assert bound < 1
        trace = pnp_fbs(y, model, den, alpha, max_iters=500, tol=1e-6)
        assert trace.converged and trace.iterations <= 500
        res = trace.residuals
        floor = 1e-13 * np.linalg.norm(trace.final)
        for k in range(10, len(res) - 1):
            if res[k] <= floor:
                break
            assert res[k + 1] / res[k] <= bound + 0.05

        expansive = lambda z: 1.2 * z
        try:
            bad = pnp_fbs(y, model, expansive, alpha, max_iters=500, tol=1e-6)
        except DivergenceError:
            return
        assert not bad.converged
        assert bad.residuals[-1] >= bad.residuals[10]


def test_criterion_06_banach_uniqueness():
    with criterion(6, "Banach uniqueness of the PnP fixed point", 120.0):
        rng = np.random.default_rng(106)
        clean = rng.random((1, 64, 64))
        model = ForwardModel(gaussian_blur(9, 2.0), stride=1)
        y = apply_forward(clean, model)
        den, lip = _input_contractive_denoiser(seed=106)
        alpha = 1.0
        assert composite_contraction_bound(model, alpha, lip, 64, 64) < 1
        tol = 1e-8
        t1 = pnp_fbs(y, model, den, alpha, max_iters=500, tol=tol)
        t2 = pnp_fbs(y, model, den, alpha, max_iters=500, tol=tol,
                     x0=rng.random((1, 64, 64)))
        assert t1.converged and t2.converged
        gap = np.linalg.norm(t1.final - t2.final)
        assert gap <= 10 * tol * max(1.0, np.linalg.norm(t1.final))


def test_criterion_07_gradient_correctness():
    with criterion(7, "analytic gradients vs finite differences", 120.0):
        rng = np.random.default_rng(107)
        for trial in range(20):
            depth = int(rng.integers(1, 4))
            channels = int(rng.integers(1, 3))
            net = init_network(depth=depth, patch=8, channels=channels,
                               seed=3000 + trial)
            y = rng.random((1, channels, 8, 8))
            target = rng.random((1, channels, 8, 8))
            report = grad_check(net, y, target, step=1e-6, tol=1e-4, seed=trial)
            assert report.checked > 0
            assert report.max_rel_error <= 1e-4


@pytest.fixture(scope="module")
def trained_toy():
    data = synth_patches(200, 32, seed=108)
    train_set, heldout = data[:160], data[160:]
    net = init_network(depth=5, patch=32, channels=1, seed=108)
    cfg = TrainConfig(lr=0.03, epochs=30, batch_size=8, sigma=25.0 / 255.0,
                      decay_epochs=(20, 27), seed=108)
    trained, curve = train(net, train_set, cfg)
    return trained, curve, heldout


def test_criterion_08_toy_training_improves_denoising(trained_toy):
    with criterion(8, "toy training improves denoising", 600.0):
        trained, curve, heldout = trained_toy
        assert len(curve) == 30
        for stats in curve:
            assert stats.certificate_bound < 1.0
        noisy = add_awgn(heldout, 25.0 / 255.0, Rng(1080))
        denoised = network_forward(noisy, trained)
        noisy_psnr = psnr(noisy, heldout)
        out_psnr = psnr(denoised, heldout)
        print(f"    held-out: noisy {noisy_psnr:.2f} dB -> "
              f"denoised {out_psnr:.2f} dB")
        assert out_psnr > noisy_psnr


def test_criterion_09_robustness_bound(trained_toy):
    with criterion(9, "perturbations never amplified by the trained denoiser",
                   120.0):
        trained, _, _ = trained_toy
        plan = plan_patches(96, 96, 32, 16, taper=0.5)
        x = synth_patches(1, 96, seed=109)[0]
        base = patch_denoise(x, trained, plan)
        rng = np.random.default_rng(109)
        for magnitude in (1e-3, 1e-2, 1e-1):
            for _ in range(100):
                delta = rng.standard_normal(x.shape)
                delta *= magnitude / np.linalg.norm(delta)
                out = patch_denoise(x + delta, trained, plan)
                assert np.linalg.norm(out - base) <= np.linalg.norm(delta)

        # chroma subsampling perturbation on an RGB rendition, the grayscale
        # net applied channel by channel
        rgb = synth_patches(3, 96, seed=110)[:, 0]
        pert = chroma_subsample(rgb)
        delta = np.linalg.norm(pert - rgb)
        assert delta > 0

        def denoise_rgb(img):
            return np.concatenate([
                patch_denoise(img[c:c + 1], trained, plan) for c in range(3)])

        gap = np.linalg.norm(denoise_rgb(pert) - denoise_rgb(rgb))
        assert gap <= delta


def test_criterion_10_overlap_add_identity():
    with criterion(10, "overlap-add identity preservation", 60.0):
        rng = np.random.default_rng(110)
        identity = lambda patch: patch
        for h, w in ((65, 63), (100, 100), (481, 321)):
            x = rng.random((1, h, w))
            for divisor in (1, 2, 4, 8):
                stride = 64 // divisor
                taper = 0.0 if stride == 64 else 0.5
                plan = plan_patches(h, w, 64, stride, taper)
                out = patch_denoise(x, identity, plan)
                assert np.max(np.abs(out - x)) <= 1e-12, \
                    f"size {h}x{w} stride {stride}"


def test_criterion_11_serialization(tmp_path):
    with criterion(11, "bit-exact serialization and CRC rejection", 5.0):
        net = init_network(depth=4, patch=16, channels=3, seed=111)
        wpath = tmp_path / "w.ctrx"
        save_weights(wpath, net)
        back = load_weights(wpath)
        for a, b in zip(net.layers, back.layers):
            assert a.alpha == b.alpha
            np.testing.assert_array_equal(a.raw_thresholds, b.raw_thresholds)
            np.testing.assert_array_equal(a.kernel, b.kernel)

        raw = bytearray(wpath.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        bad = tmp_path / "bad.ctrx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptWeightsError):
            load_weights(bad)

        img = np.random.default_rng(111).standard_normal((3, 9, 7))
        ipath = tmp_path / "img.raw"
        write_image(ipath, img)
        np.testing.assert_array_equal(read_image(ipath), img)
