import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ctrx.inference
import ctrx.layers
from ctrx.errors import DimensionError, ValidationError
from ctrx.inference import patch_denoise, plan_patches, tukey_window
from ctrx.layers import init_network, network_forward


def test_tukey_taper_zero_is_rectangular():
    np.testing.assert_array_equal(tukey_window(8, 0.0), np.ones((8, 8)))


def test_tukey_taper_one_is_periodic_hann():
    w = tukey_window(8, 1.0)
    assert w[0, 0] == 0.0
    assert w[4, 4] == pytest.approx(1.0)
    n = np.arange(8)
    hann = 0.5 * (1 - np.cos(2 * np.pi * n / 8))
    np.testing.assert_allclose(w, np.outer(hann, hann), atol=1e-14)


def test_tukey_matches_pointwise_formula():
    p, taper = 8, 0.5
    w = tukey_window(p, taper)
    for i in range(p):
        for j in range(p):
            def w1(n):
                edge = taper * p / 2.0
                if n < edge:
                    return 0.5 * (1 + np.cos(np.pi * (2 * n / (taper * p) - 1)))
                if n > p - edge:
                    return 0.5 * (1 + np.cos(np.pi * (2 * (p - n) / (taper * p) - 1)))
                return 1.0
            assert w[i, j] == pytest.approx(w1(i) * w1(j), abs=1e-14)


def test_tukey_rejects_bad_taper():
    with pytest.raises(ValidationError):
        tukey_window(8, 1.5)
    with pytest.raises(ValidationError):
        tukey_window(8, -0.1)


def test_plan_requires_stride_dividing_patch():
    with pytest.raises(ValidationError):
        plan_patches(32, 32, 16, 5)


def test_plan_rejects_zero_weight_geometry():
    # non-overlapping stride with a tapered window has zero-weight pixels
    with pytest.raises(ValidationError):
        plan_patches(32, 32, 16, 16, taper=0.5)
    plan_patches(32, 32, 16, 16, taper=0.0)  # rectangular is fine
    plan_patches(32, 32, 16, 8, taper=0.5)   # overlap is fine


identity = lambda patch: patch


@pytest.mark.parametrize("size", [(65, 63), (100, 100), (481, 321)])
@pytest.mark.parametrize("stride_div", [1, 2, 4, 8])
def test_identity_preservation(size, stride_div):
    h, w = size
    p = 64
    stride = p // stride_div
    taper = 0.0 if stride == p else 0.5
    plan = plan_patches(h, w, p, stride, taper)
    rng = np.random.default_rng(h * w + stride_div)
    x = rng.random((1, h, w))
    out = patch_denoise(x, identity, plan)
    assert np.max(np.abs(out - x)) <= 1e-12


def test_single_patch_equals_direct_network():
    net = init_network(depth=3, patch=32, channels=1, seed=0)
    plan = plan_patches(32, 32, 32, 32, taper=0.0)
    rng = np.random.default_rng(1)
    x = rng.random((1, 32, 32))
    np.testing.assert_allclose(patch_denoise(x, net, plan),
                               network_forward(x, net), atol=1e-12)


def test_linearity_preservation_for_linear_denoiser():
    plan = plan_patches(48, 40, 16, 8, taper=0.5)
    rng = np.random.default_rng(2)
    x = rng.random((2, 48, 40))
    halver = lambda patch: 0.5 * patch
    out1 = patch_denoise(x, halver, plan)
    out3 = patch_denoise(3.0 * x, halver, plan)
    np.testing.assert_allclose(out3, 3.0 * out1, atol=1e-11)
    np.testing.assert_allclose(out1, 0.5 * x, atol=1e-12)


def test_network_patched_output_finite_and_shaped():
    net = init_network(depth=3, patch=16, channels=1, seed=3)
    plan = plan_patches(40, 56, 16, 8, taper=0.5)
    rng = np.random.default_rng(4)
    x = rng.random((1, 40, 56))
    out = patch_denoise(x, net, plan)
    assert out.shape == x.shape
    assert np.all(np.isfinite(out))


def test_batched_network_matches_per_patch_callable():
    net = init_network(depth=2, patch=16, channels=1, seed=5)
    plan = plan_patches(33, 47, 16, 4, taper=0.5)
    rng = np.random.default_rng(6)
    x = rng.random((1, 33, 47))
    got = patch_denoise(x, net, plan)
    want = patch_denoise(x, lambda patch: network_forward(patch, net), plan)
    np.testing.assert_array_equal(got, want)


def test_patched_input_perturbation_under_observation_bound():
    # the state map is certified < 1; the full input-output map is only
    # bounded by the observation-sensitivity certificate, which a random
    # (untrained) network does not push below 1
    from ctrx.layers import contraction_certificate

    net = init_network(depth=3, patch=16, channels=1, seed=7)
    obs = contraction_certificate(net).observation_bound
    plan = plan_patches(32, 32, 16, 8, taper=0.5)
    rng = np.random.default_rng(8)
    x = rng.random((1, 32, 32))
    base = patch_denoise(x, net, plan)
    for scale in (1e-3, 1e-2, 1e-1):
        for trial in range(5):
            delta = scale * rng.standard_normal(x.shape)
            out = patch_denoise(x + delta, net, plan)
            assert np.linalg.norm(out - base) <= obs * np.linalg.norm(delta)


def slow_overlap_add(x, denoiser, plan):
    # straightforward reference: explicit padded copy, python loops, no
    # batching; used to cross-check the production path
    c = x.shape[0]
    padded = np.zeros((c, plan.padded_h, plan.padded_w))
    for i in range(plan.padded_h):
        for j in range(plan.padded_w):
            padded[:, i, j] = x[:, (i - plan.pad_top) % plan.height,
                                (j - plan.pad_left) % plan.width]
    num = np.zeros_like(padded)
    den = np.zeros((plan.padded_h, plan.padded_w))
    p = plan.patch
    for r in plan.row_starts:
        for col in plan.col_starts:
            out = denoiser(padded[:, r:r + p, col:col + p])
            num[:, r:r + p, col:col + p] += plan.window * out
            den[r:r + p, col:col + p] += plan.window
    res = num[:, plan.pad_top:plan.pad_top + plan.height,
              plan.pad_left:plan.pad_left + plan.width]
    return res / den[plan.pad_top:plan.pad_top + plan.height,
                     plan.pad_left:plan.pad_left + plan.width]


def test_matches_slow_reference_and_stride_consistency():
    net = init_network(depth=2, patch=64, channels=1, seed=11)
    rng = np.random.default_rng(12)
    x = rng.random((1, 96, 96))
    fn = lambda patch: network_forward(patch, net)
    outs = {}
    for stride in (32, 16):
        plan = plan_patches(96, 96, 64, stride, taper=0.5)
        fast = patch_denoise(x, net, plan)
        slow = slow_overlap_add(x, fn, plan)
        np.testing.assert_allclose(fast, slow, atol=1e-10)
        outs[stride] = fast
    # different strides blend the same per-patch outputs differently but
    # stay close on overlapping content
    gap = np.linalg.norm(outs[32] - outs[16])
    assert 0 < gap < np.linalg.norm(x)


def test_plan_shape_mismatch_detected():
    plan = plan_patches(32, 32, 16, 8)
    with pytest.raises(DimensionError):
        patch_denoise(np.zeros((1, 16, 16)), identity, plan)


def test_patch_size_must_match_network():
    net = init_network(depth=2, patch=32, channels=1, seed=9)
    plan = plan_patches(64, 64, 16, 8)
    with pytest.raises(ValidationError):
        patch_denoise(np.zeros((1, 64, 64)), net, plan)


@st.composite
def plans(draw):
    # any accepted plan: stride divides the patch, the image may be smaller
    # than one patch, and a taper that leaves zero weight is rejected
    patch = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16]))
    stride = draw(st.sampled_from([d for d in range(1, patch + 1) if patch % d == 0]))
    taper = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    try:
        plan = plan_patches(h, w, patch, stride, taper)
    except ValidationError:
        assume(False)
    return plan, draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(plans())
def test_property_identity_preservation(case):
    plan, c, seed = case
    x = np.random.default_rng(seed).random((c, plan.height, plan.width))
    assert np.max(np.abs(patch_denoise(x, identity, plan) - x)) <= 1e-12


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(plans())
def test_property_matches_slow_reference_for_a_linear_map(case):
    plan, c, seed = case
    rng = np.random.default_rng(seed)
    x = rng.random((c, plan.height, plan.width))
    # moves pixels across both patch axes; elementwise arithmetic, so a
    # batch and a single patch round alike and the blend must match exactly
    linear = lambda t: 0.5 * np.flip(t, axis=-1) - 0.25 * np.swapaxes(t, -1, -2)
    np.testing.assert_array_equal(patch_denoise(x, linear, plan),
                                  slow_overlap_add(x, linear, plan))


def test_plan_weight_is_the_accumulated_window():
    plan = plan_patches(37, 29, 16, 4, taper=0.5)
    den = np.zeros((plan.padded_h, plan.padded_w))
    for r in plan.row_starts:
        for col in plan.col_starts:
            den[r:r + 16, col:col + 16] += plan.window
    np.testing.assert_array_equal(
        plan.weight, den[plan.pad_top:plan.pad_top + 37,
                         plan.pad_left:plan.pad_left + 29])


def test_denoiser_is_called_once_on_the_patch_batch():
    plan = plan_patches(40, 24, 16, 8, taper=0.5)
    calls = []

    def spy(batch):
        calls.append(batch.shape)
        return batch
    patch_denoise(np.zeros((2, 40, 24)), spy, plan)
    assert calls == [(len(plan.row_starts) * len(plan.col_starts), 2, 16, 16)]


def test_grayscale_network_folds_color_channels_into_the_batch():
    net = init_network(depth=2, patch=16, channels=1, seed=13)
    plan = plan_patches(40, 36, 16, 8, taper=0.5)
    x = np.random.default_rng(14).random((3, 40, 36))
    want = np.concatenate([patch_denoise(x[c:c + 1], net, plan) for c in range(3)])
    assert np.array_equal(patch_denoise(x, net, plan), want)


@pytest.mark.parametrize("net_channels, channels", [(3, 1), (2, 3), (3, 2)])
def test_network_and_image_channel_mismatch_is_named(net_channels, channels):
    # used to fail deep in the chunk runner on a patch count never passed
    net = init_network(depth=1, patch=16, channels=net_channels, seed=19)
    plan = plan_patches(40, 36, 16, 8, taper=0.5)
    with pytest.raises(DimensionError, match=f"a {net_channels}-channel network "
                                             f"cannot denoise a {channels}-channel image"):
        patch_denoise(np.zeros((channels, 40, 36)), net, plan)


@pytest.mark.parametrize("channels, net_channels, chunk_entries", [
    (1, 1, 5),   # chunks of 5 tiles split rows of 6
    (3, 1, 4),   # one channel per run, each in chunks of 4 tiles
    (3, 3, 5),
])
def test_chunks_that_split_tile_rows_sum_bitwise_alike(monkeypatch, channels,
                                                       net_channels, chunk_entries):
    net = init_network(depth=2, patch=16, channels=net_channels, seed=15)
    plan = plan_patches(40, 36, 16, 8, taper=0.5)
    x = np.random.default_rng(16).random((channels, 40, 36))
    want = patch_denoise(x, net, plan)   # one chunk: the batch is 216 KB
    firsts = []
    real = ctrx.inference._overlap_add
    monkeypatch.setattr(ctrx.inference, "_overlap_add",
                        lambda acc, tiles, first, *rest: firsts.append(first)
                        or real(acc, tiles, first, *rest))
    monkeypatch.setattr(ctrx.layers, "CHUNK_BYTES",
                        chunk_entries * net_channels * 16 * 16 * 8)
    assert np.array_equal(patch_denoise(x, net, plan), want)
    assert len(firsts) > 2 and any(first % len(plan.col_starts) for first in firsts)


def test_patch_denoise_traced_peak_is_bounded(monkeypatch):
    # no array of the whole patch batch: at P/s = 2 that batch alone is 4x
    # the image, and gather, output and windowed output were 12.7x in all.
    # Each worker holds one chunk's temporaries, so fix two workers.
    monkeypatch.setattr(ctrx.layers.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    net = init_network(depth=2, patch=32, channels=1, seed=17)
    plan = plan_patches(512, 512, 32, 16, taper=0.5)
    x = np.random.default_rng(18).random((1, 512, 512))
    net.steps()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        patch_denoise(x, net, plan)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * x.nbytes
