import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

import ctrx.layers
from ctrx.errors import DimensionError, ValidationError
from ctrx.layers import (ALPHA_MIN, LayerParams, NetworkParams, constrain_params,
                         contraction_certificate, gain_denominator, init_network,
                         layer_forward, network_forward, softplus, softplus_inverse)
from ctrx.tensorops import NORM_GUARD, conv2d_circular, conv_operator_norm
from ctrx.trainer import backward, loss_mse
from ctrx.wavelets import FAMILY_CYCLE, dwt2, get_family, idwt2, soft_threshold_hf


def make_layer(alpha=0.5, channels=1, patch=8, seed=0, family="haar",
               threshold=0.1, kernel=None):
    rng = np.random.default_rng(seed)
    half = patch // 2
    raw = np.full((3, channels, half, half), float(softplus_inverse(threshold)))
    if kernel is None:
        kernel = rng.standard_normal((channels, channels, 3, 3))
    return LayerParams(alpha, raw, kernel, get_family(family))


def prox_block(x, y, p):
    # the synthesis of the shrunk coefficients of the blend: the layer with a
    # 1x1 identity kernel at s = 1, its gain multiplied back out
    eye = np.eye(p.kernel.shape[0])[:, :, None, None]
    identity = LayerParams(p.alpha, p.raw_thresholds, eye, p.family)
    gain = (1.0 + NORM_GUARD) * gain_denominator(p.alpha, 1e-3)
    return layer_forward(x, y, identity, 1e-3, 1.0)[0] * gain


def layer_out(x, y, p, eps):
    return layer_forward(x, y, p, eps, p.conv_norm(*x.shape[-2:]))[0]


def pair_ratios(f, shape, n_pairs, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_pairs,) + shape)
    b = rng.standard_normal((n_pairs,) + shape)
    d_out = f(a) - f(b)
    num = np.linalg.norm(d_out.reshape(n_pairs, -1), axis=1)
    den = np.linalg.norm((a - b).reshape(n_pairs, -1), axis=1)
    return num / den


def test_softplus_positive_and_invertible():
    raw = np.array([-800.0, -5.0, 0.0, 3.0, 50.0])
    lam = softplus(raw)
    assert np.all(lam > 0)
    vals = np.array([1e-6, 0.05, 1.0, 20.0])
    np.testing.assert_allclose(softplus(softplus_inverse(vals)), vals, rtol=1e-12)


def test_prox_layer_alpha_near_one_ignores_state():
    p = make_layer(alpha=1.0 - ALPHA_MIN)
    rng = np.random.default_rng(1)
    y = rng.standard_normal((1, 8, 8))
    x1 = rng.standard_normal((1, 8, 8))
    x2 = rng.standard_normal((1, 8, 8))
    d = np.linalg.norm(prox_block(x1, y, p) - prox_block(x2, y, p))
    assert d <= ALPHA_MIN * np.linalg.norm(x1 - x2) + 1e-12


def test_prox_layer_identity_limit():
    p = make_layer(alpha=0.5)
    p = LayerParams(0.5, np.full_like(p.raw_thresholds, -60.0), p.kernel, p.family)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 8, 8))
    out = prox_block(x, x, p)
    np.testing.assert_allclose(out, x, atol=1e-10)


def test_prox_layer_contraction_sampled():
    p = make_layer(alpha=0.3, seed=3)
    rng = np.random.default_rng(4)
    y = rng.standard_normal((1, 8, 8))
    ratios = pair_ratios(lambda x: prox_block(x, y, p), (1, 8, 8), 1000, 5)
    assert np.all(ratios <= (1 - 0.3) + 1e-12)


def test_prox_layer_alpha_one_is_exact_prox():
    # with alpha = 1 the layer must return the exact minimizer of
    #   1/2 ||x - y||^2 + sum_H lambda_i |(Wx)_i|
    # checked against per-coordinate minimization by candidate enumeration.
    p = make_layer(alpha=1.0, threshold=0.2, family="db4", seed=6)
    rng = np.random.default_rng(7)
    y = rng.standard_normal((1, 8, 8))
    out = prox_block(y, y, p)

    wy = dwt2(y, p.family)
    thr = p.thresholds()

    def scalar_prox(v, lam):
        cands = [0.0, v - lam, v + lam]
        vals = [0.5 * (c - v) ** 2 + lam * abs(c) for c in cands]
        return cands[int(np.argmin(vals))]

    bands = {"lh": thr[0], "hl": thr[1], "hh": thr[2]}
    ref = {"ll": wy.ll.copy()}
    for name, lam in bands.items():
        src = getattr(wy, name)
        dst = np.empty_like(src)
        for idx in np.ndindex(src.shape):
            dst[idx] = scalar_prox(src[idx], lam[idx])
        ref[name] = dst
    want = idwt2(type(wy)(**ref), p.family)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_layer_forward_zero_kernel_outputs_zero():
    p = make_layer(kernel=np.zeros((1, 1, 3, 3)))
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 8, 8))
    out = layer_out(x, x, p, 1e-3)
    np.testing.assert_array_equal(out, np.zeros_like(x))


def test_layer_forward_deterministic():
    p = make_layer(seed=9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 8, 8))
    y = rng.standard_normal((1, 8, 8))
    np.testing.assert_array_equal(layer_out(x, y, p, 1e-3),
                                  layer_out(x, y, p, 1e-3))


def test_layer_forward_sampled_ratio_below_bound():
    eps = 1e-3
    for seed, alpha in [(11, 0.2), (12, 0.5), (13, 0.9)]:
        p = make_layer(alpha=alpha, seed=seed)
        rng = np.random.default_rng(seed + 100)
        y = rng.standard_normal((1, 8, 8))
        bound = (1 - alpha) / ((1 - alpha) + eps)
        ratios = pair_ratios(lambda x: layer_out(x, y, p, eps),
                             (1, 8, 8), 1000, seed + 200)
        assert np.all(ratios <= bound + 1e-10)


def test_network_params_rejects_bad_eps():
    p = make_layer()
    with pytest.raises(ValidationError):
        NetworkParams([p], eps=0.0, patch=8, channels=1)


@pytest.mark.parametrize("eps", [np.inf, np.nan, -1e-3])
def test_network_params_rejects_a_non_finite_or_negative_eps(eps):
    with pytest.raises(ValidationError, match="eps must be finite and positive"):
        NetworkParams([make_layer()], eps=eps, patch=8, channels=1)


def test_network_forward_single_zero_kernel_layer():
    layer = make_layer(kernel=np.zeros((1, 1, 3, 3)), patch=8)
    net = NetworkParams([layer], eps=1e-3, patch=8, channels=1)
    out = network_forward(np.ones((1, 8, 8)), net)
    np.testing.assert_array_equal(out, np.zeros((1, 8, 8)))


def test_network_forward_deterministic_and_batched():
    net = init_network(depth=4, patch=8, channels=2, seed=1)
    rng = np.random.default_rng(14)
    y = rng.standard_normal((3, 2, 8, 8))
    out1 = network_forward(y, net)
    out2 = network_forward(y, net)
    np.testing.assert_array_equal(out1, out2)
    for i in range(3):
        np.testing.assert_array_equal(out1[i], network_forward(y[i], net))


def test_network_forward_shape_checks():
    net = init_network(depth=2, patch=8, channels=1, seed=2)
    with pytest.raises(DimensionError):
        network_forward(np.zeros((1, 6, 6)), net)
    with pytest.raises(DimensionError):
        network_forward(np.zeros((2, 8, 8)), net)
    with pytest.raises(DimensionError):
        network_forward(np.zeros((1, 8, 8)), net, x0=np.zeros((1, 6, 6)))


def unsplit_forward(monkeypatch, y, net, x0=None):
    """The forward of the whole batch at once: one chunk, run inline."""
    with monkeypatch.context() as m:
        m.setattr(ctrx.layers, "CHUNK_BYTES", y.nbytes)
        return network_forward(y, net, x0=x0)


@pytest.mark.parametrize("batch, channels, patch", [
    (81, 1, 64),     # 6 chunks, the denoise workload's batch
    (250, 1, 32),    # 4 chunks
    (50, 3, 32),     # 3 chunks of a 3-channel net
])
def test_split_forward_is_bitwise_equal(monkeypatch, batch, channels, patch):
    net = init_network(depth=3, patch=patch, channels=channels, seed=7)
    y = np.random.default_rng(batch).random((batch, channels, patch, patch))
    assert y.nbytes > 2 * ctrx.layers.CHUNK_BYTES
    assert np.array_equal(network_forward(y, net), unsplit_forward(monkeypatch, y, net))


def test_split_forward_two_leading_axes_and_x0(monkeypatch):
    net = init_network(depth=3, patch=64, seed=8)
    rng = np.random.default_rng(17)
    y = rng.random((9, 9, 1, 64, 64))
    x0 = rng.standard_normal(y.shape)
    out = network_forward(y, net, x0=x0)
    assert out.shape == y.shape
    assert np.array_equal(out, unsplit_forward(monkeypatch, y, net, x0=x0))
    assert not np.array_equal(out, network_forward(y, net))


def test_split_forward_matches_the_training_forward():
    # backward runs the layers on the whole batch through the tape path
    net = init_network(depth=3, patch=64, seed=9)
    rng = np.random.default_rng(18)
    y = rng.random((81, 1, 64, 64))
    target = rng.random(y.shape)
    assert y.nbytes > ctrx.layers.CHUNK_BYTES
    loss, _ = backward(net, y, target)
    assert loss == loss_mse(network_forward(y, net), target)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_split_forward_threads_are_capped(monkeypatch, cpus):
    net = init_network(depth=2, patch=64, seed=10)
    y = np.random.default_rng(19).random((81, 1, 64, 64))
    want = unsplit_forward(monkeypatch, y, net)
    workers = []
    pool = ctrx.layers.ThreadPoolExecutor

    def spy(max_workers):
        workers.append(max_workers)
        return pool(max_workers)
    monkeypatch.setattr(ctrx.layers.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setattr(ctrx.layers, "ThreadPoolExecutor", spy)
    assert np.array_equal(network_forward(y, net), want)
    assert workers == [min(6, cpus)]   # 6 chunks of 81 patches of 64x64


def test_one_chunk_batch_runs_inline(monkeypatch):
    net = init_network(depth=2, patch=32, seed=11)
    y = np.random.default_rng(20).random((25, 1, 32, 32))
    assert y.nbytes <= ctrx.layers.CHUNK_BYTES
    monkeypatch.setattr(ctrx.layers, "ThreadPoolExecutor", None)
    assert network_forward(y, net).shape == y.shape


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, 1.5e308])
def test_a_non_finite_last_patch_raises(bad):
    # NaN fails the input check before the split; the finite 1.5e308
    # overflows in the last chunk's first dwt2, and the next finiteness
    # check fails in that chunk's worker thread
    net = init_network(depth=2, patch=64, seed=12)
    y = np.random.default_rng(21).random((81, 1, 64, 64))
    y[-1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        network_forward(y, net)


def test_network_step_table_is_built_once_and_read_only(monkeypatch):
    # the forward's worker threads and the backward share the network's
    # one table, so its arrays must not be writable
    calls = []
    real = ctrx.layers.forward_steps
    monkeypatch.setattr(ctrx.layers, "forward_steps",
                        lambda *args: calls.append(1) or real(*args))
    net = init_network(depth=4, patch=16, channels=2, seed=6)
    y = np.random.default_rng(7).random((160, 2, 16, 16))
    assert ctrx.layers.CHUNK_BYTES < y.nbytes  # the forward runs on threads
    first = network_forward(y, net)
    np.testing.assert_array_equal(network_forward(y, net), first)
    backward(net, y[:3], y[:3])
    assert calls == [1]
    steps = net.steps()
    assert net.steps() is steps and len(steps) == net.depth
    for layer, (*_, thresholds, transfer) in zip(net.layers, steps):
        np.testing.assert_array_equal(
            thresholds, softplus(layer.raw_thresholds).reshape(thresholds.shape))
        for table in (thresholds, transfer):
            with pytest.raises(ValueError):
                table.flat[0] = 1.0


def test_threads_sharing_a_fresh_network_get_the_same_output():
    # more threads than cores race to build the table of one fresh network
    # and then read it; every output must be the serial one
    y = np.random.default_rng(8).random((3, 1, 16, 16))
    want = network_forward(y, init_network(depth=3, patch=16, seed=9))
    net = init_network(depth=3, patch=16, seed=9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            outs = list(pool.map(lambda _: network_forward(y, net), range(32)))
    finally:
        sys.setswitchinterval(interval)
    for out in outs:
        np.testing.assert_array_equal(out, want)


def test_network_state_perturbation_obeys_certificate():
    net = init_network(depth=6, patch=16, channels=1, seed=3)
    cert = contraction_certificate(net)
    assert cert.total_bound < 1
    rng = np.random.default_rng(15)
    y = rng.standard_normal((200, 1, 16, 16))
    delta = rng.standard_normal((200, 1, 16, 16))
    base = network_forward(y, net)
    pert = network_forward(y, net, x0=y + delta)
    num = np.linalg.norm((pert - base).reshape(200, -1), axis=1)
    den = np.linalg.norm(delta.reshape(200, -1), axis=1)
    assert np.all(num / den <= cert.total_bound)


def test_certificate_single_layer_formula():
    eps = 1e-3
    layer = make_layer(alpha=0.5, patch=8, seed=16)
    net = NetworkParams([layer], eps=eps, patch=8, channels=1)
    cert = contraction_certificate(net)
    s = conv_operator_norm(layer.kernel, 8, 8)
    want = (0.5 / (0.5 + eps)) * (s / (s + NORM_GUARD))
    assert cert.total_bound == pytest.approx(want, rel=1e-15)
    assert cert.per_layer[0].conv_budget == pytest.approx(1.0 / (0.5 + eps), rel=1e-15)
    assert cert.per_layer[0].conv_norm == pytest.approx(s, rel=1e-15)


def test_certificate_product_law():
    k = np.random.default_rng(17).standard_normal((1, 1, 3, 3))
    layers = [
        LayerParams(0.4, make_layer().raw_thresholds, k, get_family(name))
        for name in ("haar", "db4", "sym4")
    ]
    net = NetworkParams(layers, eps=1e-3, patch=8, channels=1)
    cert = contraction_certificate(net)
    b = cert.per_layer[0].layer_bound
    for lb in cert.per_layer:
        assert lb.layer_bound == pytest.approx(b, rel=1e-15)
    assert cert.total_bound == pytest.approx(b ** 3, rel=1e-12)


def test_certificate_monotone_in_eps():
    layers_fn = lambda: [make_layer(alpha=0.5, seed=18)]
    small = contraction_certificate(
        NetworkParams(layers_fn(), eps=1e-4, patch=8, channels=1))
    large = contraction_certificate(
        NetworkParams(layers_fn(), eps=1e-2, patch=8, channels=1))
    for lb_small, lb_large in zip(small.per_layer, large.per_layer):
        assert lb_large.layer_bound < lb_small.layer_bound
    assert large.total_bound < small.total_bound


def test_certificate_observation_bound_recursion():
    net = init_network(depth=3, patch=8, channels=1, seed=4)
    cert = contraction_certificate(net)
    obs = 1.0
    for layer, lb in zip(net.layers, cert.per_layer):
        conv_factor = min(1.0, lb.conv_norm / (lb.conv_norm + NORM_GUARD))
        obs = lb.layer_bound * obs + conv_factor / ((1 - layer.alpha) + net.eps) * layer.alpha
    assert cert.observation_bound == pytest.approx(obs, rel=1e-12)


def test_constrain_params_clips_alpha():
    base = make_layer(alpha=0.5, patch=8)
    high = LayerParams(1.7, base.raw_thresholds, base.kernel, base.family)
    low = LayerParams(-0.2, base.raw_thresholds, base.kernel,
                      get_family("db4"))
    net = NetworkParams([high, low], eps=1e-3, patch=8, channels=1)
    out = constrain_params(net)
    assert out.layers[0].alpha == pytest.approx(0.999)
    assert out.layers[1].alpha == pytest.approx(0.001)


def test_constrain_params_clips_kernel_to_budget():
    rng = np.random.default_rng(19)
    k = rng.standard_normal((1, 1, 3, 3))
    k *= 3.0 / conv_operator_norm(k, 8, 8)  # norm exactly 3
    layer = LayerParams(0.5, make_layer().raw_thresholds, k, get_family("haar"))
    net = NetworkParams([layer], eps=1e-3, patch=8, channels=1)
    out = constrain_params(net)
    budget = 1.0 / (0.5 + 1e-3)
    s = conv_operator_norm(out.layers[0].kernel, 8, 8)
    assert s == pytest.approx(budget, abs=1e-9)
    # multichannel kernels over budget land just below it, and a second
    # projection leaves them where they are
    for _ in range(10):
        k = 3.0 * rng.standard_normal((2, 2, 3, 3))
        layer = LayerParams(0.3, make_layer(channels=2).raw_thresholds, k,
                            get_family("haar"))
        once = constrain_params(NetworkParams([layer], eps=1e-3, patch=8,
                                              channels=2))
        budget = 1.0 / (0.7 + 1e-3)
        assert conv_operator_norm(k, 8, 8) > budget
        s = conv_operator_norm(once.layers[0].kernel, 8, 8)
        assert budget - 1e-9 <= s <= budget
        twice = constrain_params(once)
        np.testing.assert_allclose(twice.layers[0].kernel, once.layers[0].kernel,
                                   rtol=0, atol=1e-12)


def test_constrain_params_carries_only_an_unchanged_kernels_norm(monkeypatch):
    # a kernel within budget keeps the norm the projection measured; a
    # rescaled one is measured afresh, so the certificate is the norm of the
    # kernel that runs
    calls = []

    def counted(k, h, w):
        calls.append((h, w))
        return conv_operator_norm(k, h, w)

    monkeypatch.setattr(ctrx.layers, "conv_operator_norm", counted)
    k = np.random.default_rng(20).standard_normal((1, 1, 3, 3))
    k /= conv_operator_norm(k, 8, 8)
    raw = make_layer().raw_thresholds
    inside = LayerParams(0.5, raw, 0.5 * k, get_family("haar"))
    outside = LayerParams(0.5, raw, 3.0 * k, get_family("db4"))
    net = NetworkParams([inside, outside], eps=1e-3, patch=8, channels=1)
    kept, rescaled = constrain_params(net).layers
    assert calls == [(8, 8), (8, 8)]
    # an in-budget kernel comes back as the same array
    assert kept.kernel is inside.kernel
    assert kept.conv_norm(8, 8) == conv_operator_norm(inside.kernel, 8, 8)
    assert len(calls) == 2
    assert rescaled.conv_norm(8, 8) == conv_operator_norm(rescaled.kernel, 8, 8)
    assert len(calls) == 3
    assert rescaled.conv_norm(8, 8) == pytest.approx(1.0 / (0.5 + 1e-3), rel=1e-9)


def test_constrain_params_keeps_thresholds():
    net = init_network(depth=2, patch=8, channels=1, seed=5)
    out = constrain_params(net)
    for a, b in zip(net.layers, out.layers):
        np.testing.assert_array_equal(a.raw_thresholds, b.raw_thresholds)


def test_network_params_validates_family_cycle():
    layer = make_layer(family="db4", patch=8)
    with pytest.raises(ValidationError):
        NetworkParams([layer], eps=1e-3, patch=8, channels=1)


def test_init_network_is_certified():
    net = init_network(depth=7, patch=16, channels=3, seed=6)
    cert = contraction_certificate(net)
    assert cert.total_bound < 1
    for i, layer in enumerate(net.layers):
        assert ALPHA_MIN <= layer.alpha <= 1 - ALPHA_MIN
        budget = 1.0 / ((1 - layer.alpha) + net.eps)
        assert layer.conv_norm(16, 16) <= budget + 1e-9


def apply_transfer(bands, transfer):
    half = bands.shape[-1]
    return fft.irfft2(ctrx.layers.mix(fft.rfft2(bands), transfer), s=(half, half))


# every consecutive pair of the family cycle, and the spatial target
TRANSFER_PAIRS = [(FAMILY_CYCLE[i], FAMILY_CYCLE[(i + 1) % 3]) for i in range(3)] + [
    (name, None) for name in FAMILY_CYCLE]


@st.composite
def transfer_cases(draw):
    fam, target = draw(st.sampled_from(TRANSFER_PAIRS))
    size = draw(st.sampled_from([1, 3, 5]))
    patch = 2 * draw(st.integers(max(2, (size + 1) // 2), 32))
    return (fam, target, draw(st.integers(1, 3)), size, patch,
            draw(st.floats(0.1, 10.0)), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(case=transfer_cases())
def test_transfer_matches_the_spatial_chain(spatial_transfer, case):
    fam, target, c, size, patch, scale, seed = case
    rng = np.random.default_rng(seed)
    kernel = rng.standard_normal((c, c, size, size))
    fam = get_family(fam)
    target = target and get_family(target)
    layer = LayerParams(0.5, np.zeros((3, c, patch // 2, patch // 2)), kernel, fam)
    transfer = ctrx.layers._transfers([layer], [scale], [target], patch, patch)[0]
    assert transfer.shape == (4 * c, 4 * c, patch // 2, patch // 4 + 1)
    bands = rng.standard_normal((4 * c, 2, patch // 2, patch // 2))
    want = spatial_transfer(bands, kernel, scale, fam, target)
    got = apply_transfer(bands, transfer)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the trainer's adjoint, the conjugate transpose at every frequency,
    # is the transpose of the map
    g = rng.standard_normal(bands.shape)
    adjoint = apply_transfer(g, np.conj(transfer).swapaxes(0, 1))
    lhs, rhs = np.sum(got * g), np.sum(bands * adjoint)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(got) * np.linalg.norm(g)


def reference_layer(x, y, layer, eps, s):
    """One layer in space: blend, dwt2, soft_threshold_hf, idwt2 and
    conv2d_circular, as the layers were first written."""
    u = idwt2(soft_threshold_hf(dwt2((1 - layer.alpha) * x + layer.alpha * y,
                                     layer.family), layer.thresholds()),
              layer.family)
    return conv2d_circular(u, layer.kernel) / (
        (s + NORM_GUARD) * gain_denominator(layer.alpha, eps))


def reference_forward(y, net, x0=None):
    """The network in space, layer by layer on its patch grid."""
    x = y if x0 is None else x0
    for layer in net.layers:
        x = reference_layer(x, y, layer, net.eps, layer.conv_norm(net.patch, net.patch))
    return x


@pytest.mark.parametrize("channels, patch, depth", [(1, 16, 7), (3, 8, 5), (1, 64, 4)])
@pytest.mark.parametrize("with_x0", [False, True])
def test_network_forward_matches_the_spatial_chain(channels, patch, depth, with_x0):
    net = init_network(depth=depth, patch=patch, channels=channels, seed=30)
    rng = np.random.default_rng(31)
    y = rng.random((5, channels, patch, patch))
    x0 = rng.standard_normal(y.shape) if with_x0 else None
    want = reference_forward(y, net, x0)
    got = network_forward(y, net, x0=x0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize("family", FAMILY_CYCLE)
@pytest.mark.parametrize("grid", [(16, 16), (16, 8), (8, 16), (16, 12), (12, 16),
                                  (10, 14), (14, 10), (6, 22)],
                         ids=lambda g: f"{g[0]}x{g[1]}")
def test_layer_forward_matches_the_spatial_chain(grid, family, size):
    # layer_forward builds its step on the grid of x, square or not
    h, w = grid
    rng = np.random.default_rng(33)
    kernel = 0.2 * rng.standard_normal((2, 2, size, size))
    kernel[:, :, size // 2, size // 2] += np.eye(2)
    raw = softplus_inverse(0.05) + 0.5 * rng.standard_normal((3, 2, h // 2, w // 2))
    layer = LayerParams(0.4, raw, kernel, get_family(family))
    y = rng.random((2, h, w))
    x = rng.standard_normal((4, 2, h, w))
    s = layer.conv_norm(h, w)
    want = reference_layer(x, np.broadcast_to(y, x.shape), layer, 1e-3, s)
    got = layer_forward(x, y, layer, 1e-3, s)[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_forward_analyses_the_observation_once_per_family(monkeypatch):
    # the layers stay in the wavelet domain: one dwt2 per family and chunk,
    # one more for x0, and no synthesis or spatial convolution at all
    calls = []
    real = ctrx.layers.dwt2
    monkeypatch.setattr(ctrx.layers, "dwt2", lambda x, fam: calls.append(fam.name) or real(x, fam))
    net = init_network(depth=7, patch=16, channels=1, seed=34)
    y = np.random.default_rng(35).random((3, 1, 16, 16))
    network_forward(y, net)
    assert sorted(calls) == sorted(FAMILY_CYCLE)
    calls.clear()
    network_forward(y, net, x0=y + 0.1)
    assert sorted(calls) == sorted(FAMILY_CYCLE + ("haar",))
