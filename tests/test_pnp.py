import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrx.errors import DimensionError, DivergenceError, ValidationError
from ctrx.io import Rng, add_awgn
from ctrx.layers import contraction_certificate, init_network, network_forward
from ctrx.metrics import psnr
from ctrx.pnp import (ForwardModel, _prox_datafit, anisotropic_gaussian_blur,
                      apply_adjoint, apply_forward, box_blur,
                      composite_contraction_bound, datafit, delta_blur,
                      disk_blur, drs_contraction_bound, gaussian_blur,
                      grad_datafit, motion_blur,
                      parse_blur_spec, pnp_drs, pnp_fbs, simulate,
                      sparse_random_blur, trace_to_csv)


def test_forward_identity_model():
    x = np.random.default_rng(0).random((3, 8, 8))
    m = ForwardModel(delta_blur(), stride=1)
    np.testing.assert_allclose(apply_forward(x, m), x, atol=1e-13)


def test_forward_decimates_constant():
    m = ForwardModel(gaussian_blur(3, 1.0), stride=2)
    x = np.full((1, 8, 8), 0.7)
    out = apply_forward(x, m)
    assert out.shape == (1, 4, 4)
    np.testing.assert_allclose(out, 0.7, atol=1e-12)


def test_forward_stride_divisibility():
    m = ForwardModel(delta_blur(), stride=3)
    with pytest.raises(DimensionError):
        apply_forward(np.zeros((1, 8, 8)), m)


def test_adjoint_identity_delta():
    u = np.random.default_rng(1).random((1, 6, 6))
    m = ForwardModel(delta_blur(), stride=1)
    np.testing.assert_allclose(apply_adjoint(u, m, 6, 6), u, atol=1e-13)


@pytest.mark.parametrize("stride", [1, 2])
def test_adjoint_identity_inner_products(stride):
    rng = np.random.default_rng(2)
    m = ForwardModel(gaussian_blur(5, 1.5), stride=stride)
    for _ in range(100):
        x = rng.standard_normal((2, 8, 8))
        u = rng.standard_normal((2, 8 // stride, 8 // stride))
        lhs = np.sum(apply_forward(x, m) * u)
        rhs = np.sum(x * apply_adjoint(u, m, 8, 8))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# aniso and motion blurs are point-symmetric, so their spectra are real;
# the sparse random ones are not, and only they would catch a missing conj
ASYMMETRIC_BLURS = st.one_of(
    st.sampled_from(["aniso:5:1:2:30", "aniso:3:0.7:1.6:-60", "motion:3:diag",
                     "motion:5:diag"]),
    st.builds("sparse:{}:{}:{}".format, st.sampled_from([3, 5]),
              st.sampled_from([0.0, 0.3, 0.6]), st.integers(0, 2 ** 16)))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(ASYMMETRIC_BLURS, st.integers(1, 3), st.integers(5, 9), st.integers(5, 9),
       st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_property_adjoint_identity_for_asymmetric_blurs(spec, stride, rows, cols,
                                                        channels, seed):
    # <A x, u> = <x, A^T u> on odd and non-square grids at strides 1-3
    m = ForwardModel(parse_blur_spec(spec), stride=stride)
    h, w = rows * stride, cols * stride
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((channels, h, w))
    u = rng.standard_normal((channels, rows, cols))
    lhs = np.sum(apply_forward(x, m) * u)
    rhs = np.sum(x * apply_adjoint(u, m, h, w))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(u)


def test_blur_and_adjoint_match_direct_loops_for_an_asymmetric_blur():
    # out[n] = sum_a blur[a] x[n + center - a] on a 7x9 grid, and the
    # adjoint scatters every term back onto the index it read
    blur = sparse_random_blur(5, 0.4, seed=3)
    assert not np.allclose(blur, blur[::-1, ::-1])
    m = ForwardModel(blur, stride=1)
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 7, 9))
    g = rng.standard_normal((2, 7, 9))
    want = np.zeros_like(x)
    want_adj = np.zeros_like(g)
    for a in range(5):
        for b in range(5):
            for r in range(7):
                for c in range(9):
                    src = (r + 2 - a) % 7, (c + 2 - b) % 9
                    want[:, r, c] += blur[a, b] * x[:, src[0], src[1]]
                    want_adj[:, src[0], src[1]] += blur[a, b] * g[:, r, c]
    np.testing.assert_allclose(apply_forward(x, m), want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(apply_adjoint(g, m, 7, 9), want_adj, rtol=0,
                               atol=1e-12)


def test_forward_composition_matches_dense_matrix():
    # materialize A from basis vectors and compare A A^T against the
    # composed operators on an 8x8 grid
    rng = np.random.default_rng(3)
    m = ForwardModel(gaussian_blur(3, 0.8), stride=2)
    basis = np.eye(64).reshape(64, 1, 8, 8)
    a_mat = apply_forward(basis, m).reshape(64, 16).T  # (16, 64)
    u = rng.standard_normal((1, 4, 4))
    want = (a_mat @ (a_mat.T @ u.ravel())).reshape(1, 4, 4)
    got = apply_forward(apply_adjoint(u, m, 8, 8), m)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_grad_zero_at_consistent_point():
    rng = np.random.default_rng(4)
    m = ForwardModel(gaussian_blur(3, 1.0), stride=1)
    x = rng.random((1, 8, 8))
    y = apply_forward(x, m)
    g = grad_datafit(x, y, m)
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_grad_identity_model_is_residual():
    rng = np.random.default_rng(5)
    m = ForwardModel(delta_blur(), stride=1)
    x = rng.random((1, 8, 8))
    y = rng.random((1, 8, 8))
    np.testing.assert_allclose(grad_datafit(x, y, m), x - y, atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    m = ForwardModel(gaussian_blur(5, 2.0), stride=2)
    x = rng.random((1, 8, 8))
    y = rng.random((1, 4, 4))
    g = grad_datafit(x, y, m)
    h = 1e-6
    for _ in range(10):
        d = rng.standard_normal(x.shape)
        d /= np.linalg.norm(d)
        fd = (datafit(x + h * d, y, m) - datafit(x - h * d, y, m)) / (2 * h)
        an = float(np.sum(g * d))
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_fbs_identity_converges_in_one_step():
    rng = np.random.default_rng(7)
    y = rng.random((1, 8, 8))
    m = ForwardModel(delta_blur(), stride=1)
    trace = pnp_fbs(y, m, lambda z: z, alpha_step=1.0, max_iters=10, tol=1e-12)
    assert trace.converged
    assert trace.iterations <= 2
    np.testing.assert_allclose(trace.final, y, atol=1e-12)


def _toy_denoiser(seed=0, patch=64):
    # alpha < eps makes the observation-sensitivity certificate itself < 1,
    # so the full input-output map of the denoiser is provably contractive --
    # the constant PnP convergence actually needs
    net = init_network(depth=3, patch=patch, channels=1, seed=seed,
                       alpha_range=(0.05, 0.25), eps=0.3)
    lip = contraction_certificate(net).observation_bound
    assert lip < 1
    return (lambda z: network_forward(z, net)), lip


def test_fbs_geometric_rate_below_composite_bound():
    rng = np.random.default_rng(8)
    x_true = rng.random((1, 64, 64))
    m = ForwardModel(gaussian_blur(9, 2.0), stride=1)
    y = add_awgn(apply_forward(x_true, m), 0.01, Rng(1))
    den, lip = _toy_denoiser(seed=0)
    alpha = 1.0
    bound = composite_contraction_bound(m, alpha, lip, 64, 64)
    assert bound < 1
    trace = pnp_fbs(y, m, den, alpha, max_iters=500, tol=1e-6)
    assert trace.converged
    res = trace.residuals
    for k in range(10, len(res) - 1):
        if res[k] <= 1e-12 * max(1.0, np.linalg.norm(trace.final)):
            break
        assert res[k + 1] / res[k] <= bound + 0.05


def test_fbs_banach_uniqueness():
    rng = np.random.default_rng(9)
    x_true = rng.random((1, 64, 64))
    m = ForwardModel(gaussian_blur(9, 2.0), stride=1)
    y = apply_forward(x_true, m)
    den, lip = _toy_denoiser(seed=1)
    alpha = 1.0
    assert composite_contraction_bound(m, alpha, lip, 64, 64) < 1
    tol = 1e-9
    t1 = pnp_fbs(y, m, den, alpha, max_iters=500, tol=tol)
    t2 = pnp_fbs(y, m, den, alpha, max_iters=500, tol=tol,
                 x0=np.zeros((1, 64, 64)) + rng.random((1, 64, 64)))
    assert t1.converged and t2.converged
    gap = np.linalg.norm(t1.final - t2.final)
    assert gap <= 10 * tol * max(np.linalg.norm(t1.final), 1.0)


def test_fbs_divergence_with_expansive_denoiser():
    rng = np.random.default_rng(10)
    x_true = rng.random((1, 64, 64))
    m = ForwardModel(gaussian_blur(9, 2.0), stride=1)
    y = add_awgn(apply_forward(x_true, m), 0.02, Rng(2))
    expansive = lambda z: 1.2 * z
    try:
        trace = pnp_fbs(y, m, expansive, 1.0, max_iters=500, tol=1e-6)
    except DivergenceError as err:
        assert err.trace is not None
        assert err.trace.iterations >= 1
        return
    assert not trace.converged
    assert trace.residuals[-1] >= trace.residuals[10]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solver", [pnp_fbs, pnp_drs])
def test_divergence_raises_without_a_runtime_warning(solver):
    # iterates that overflow end in DivergenceError; the residual of the
    # overflowing step must not emit a numpy overflow warning first
    y = np.random.default_rng(5).random((1, 16, 16))
    m = ForwardModel(gaussian_blur(3, 1.0), stride=1)
    with pytest.raises(DivergenceError) as err:
        solver(y, m, lambda z: 50.0 * z, 1.0, max_iters=400)
    assert err.value.trace.iterations >= 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_drs_divergence_keeps_the_prox_of_the_last_finite_state():
    y = np.random.default_rng(8).random((1, 16, 16))
    m = ForwardModel(gaussian_blur(3, 1.0), stride=1)
    expansive = lambda v: 1e150 * v
    with pytest.raises(DivergenceError) as err:
        pnp_drs(y, m, expansive, 1.0, max_iters=50)
    trace = err.value.trace
    assert trace.iterations >= 1
    assert not trace.converged
    assert np.all(np.isfinite(trace.final))
    # replay the recorded iterations: final is prox(z) of the last finite z
    z = apply_adjoint(y, m, 16, 16)
    for _ in range(trace.iterations):
        x = _prox_datafit(z, y, m, 1.0)
        z = z + expansive(2.0 * x - z) - x
    np.testing.assert_array_equal(trace.final, _prox_datafit(z, y, m, 1.0))


def test_fbs_fixed_point_residual_at_termination():
    rng = np.random.default_rng(11)
    x_true = rng.random((1, 64, 64))
    m = ForwardModel(gaussian_blur(5, 1.0), stride=1)
    y = apply_forward(x_true, m)
    den, _ = _toy_denoiser(seed=2)
    tol = 1e-6
    trace = pnp_fbs(y, m, den, 1.0, max_iters=500, tol=tol)
    assert trace.converged
    x = trace.final
    step = den(x - 1.0 * grad_datafit(x, y, m))
    assert np.linalg.norm(step - x) <= 2 * tol * np.linalg.norm(x)


def test_drs_identity_denoiser_converges_to_y():
    rng = np.random.default_rng(12)
    y = rng.random((1, 16, 16))
    m = ForwardModel(delta_blur(), stride=1)
    trace = pnp_drs(y, m, lambda z: z, step=1.0, max_iters=200, tol=1e-10)
    assert trace.converged
    np.testing.assert_allclose(trace.final, y, atol=1e-7)


def test_drs_close_to_fbs_on_deblurring_toy():
    rng = np.random.default_rng(13)
    x_true = rng.random((1, 64, 64))
    m = ForwardModel(gaussian_blur(9, 2.0), stride=1)
    y = add_awgn(apply_forward(x_true, m), 0.01, Rng(3))
    den, _ = _toy_denoiser(seed=3)
    alpha = 1.0
    fbs = pnp_fbs(y, m, den, alpha, max_iters=500, tol=1e-8, ref=x_true)
    drs = pnp_drs(y, m, den, step=1.0 / alpha, max_iters=500, tol=1e-8, ref=x_true)
    assert fbs.converged and drs.converged
    assert abs(psnr(fbs.final, x_true) - psnr(drs.final, x_true)) <= 0.5


def test_drs_residuals_monotone_after_burn_in():
    rng = np.random.default_rng(14)
    x_true = rng.random((1, 64, 64))
    m = ForwardModel(gaussian_blur(9, 2.0), stride=1)
    y = apply_forward(x_true, m)
    den, lip = _toy_denoiser(seed=4)
    # small 1/step keeps the DRS map contractive: c/(1+c) + L_D < 1
    step = 20.0
    assert (1 / step) / (1 + 1 / step) + lip < 1
    trace = pnp_drs(y, m, den, step=step, max_iters=300, tol=1e-9)
    res = trace.residuals
    for k in range(10, len(res) - 1):
        assert res[k + 1] <= res[k] * 1.001


@pytest.mark.parametrize("stride, h, w", [
    pytest.param(1, 9, 8, id="9-8"),
    pytest.param(1, 8, 9, id="8-9"),
    pytest.param(1, 7, 11, id="7-11"),
    pytest.param(2, 10, 14, id="stride2-10-14"),
    pytest.param(2, 14, 6, id="stride2-14-6"),
    pytest.param(3, 9, 15, id="stride3-9-15"),
    pytest.param(3, 15, 12, id="stride3-15-12"),
])
def test_prox_datafit_fft_solves_its_system_on_odd_grids(stride, h, w):
    # (I + weight A^T A) x = z + weight A^T y, with an asymmetric blur so a
    # wrong half of the spectrum cannot pass by symmetry, on full and
    # decimated grids with odd sides
    rng = np.random.default_rng(h * 16 + w)
    z = rng.random((2, h, w))
    y = rng.random((2, h // stride, w // stride))
    m = ForwardModel(sparse_random_blur(5, 0.3, seed=1), stride=stride)
    weight = 0.7
    x = _prox_datafit(z, y, m, weight)
    lhs = x + weight * apply_adjoint(apply_forward(x, m), m, h, w)
    rhs = z + weight * apply_adjoint(y, m, h, w)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_drs_converges_at_stride2():
    rng = np.random.default_rng(15)
    x_true = rng.random((1, 32, 32))
    m = ForwardModel(gaussian_blur(5, 1.2), stride=2)
    y = apply_forward(x_true, m)
    den, _ = _toy_denoiser(seed=5, patch=32)
    trace = pnp_drs(y, m, den, step=2.0, max_iters=300, tol=1e-7)
    assert trace.converged
    assert trace.final.shape == (1, 32, 32)


def test_composite_bound_identity_cases():
    m = ForwardModel(delta_blur(), stride=1)
    # with A = I and alpha = 1 the gradient step maps everything to y, so the
    # composed map is constant: the bound collapses to 0, not L_D
    assert composite_contraction_bound(m, 1.0, 0.9, 8, 8) == pytest.approx(0.0, abs=1e-12)
    assert composite_contraction_bound(m, 0.0, 0.9, 8, 8) == pytest.approx(0.9)


def test_composite_bound_quasi_convex_in_alpha():
    m = ForwardModel(gaussian_blur(9, 2.0), stride=1)
    alphas = np.linspace(0.0, 2.0, 41)
    vals = [composite_contraction_bound(m, a, 1.0, 32, 32) for a in alphas]
    i_min = int(np.argmin(vals))
    assert 0 < i_min < len(vals) - 1
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(i_min))
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(i_min, len(vals) - 1))


def test_composite_bound_power_iteration_matches_fft_path():
    # stride 2 closed-form bound vs the dense eigenvalues of I - alpha A^T A
    m = ForwardModel(gaussian_blur(3, 1.0), stride=2)
    alpha = 0.7
    got = composite_contraction_bound(m, alpha, 1.0, 8, 8)
    basis = np.eye(64).reshape(64, 1, 8, 8)
    a_mat = apply_forward(basis, m).reshape(64, 16).T
    sym = np.eye(64) - alpha * (a_mat.T @ a_mat)
    want = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("spec,stride,alpha,h,w", [
    ("gauss:3:1.0", 2, 0.7, 8, 8),
    ("gauss:5:1.2", 2, 1.0, 8, 12),
    ("box:3", 3, 0.9, 9, 12),
    ("disk:1", 1, 0.8, 6, 10),
    # a step this long makes |1 - alpha mu| > 1 the largest eigenvalue
    ("delta", 1, 2.5, 6, 10),
    ("sparse:3:0.3:2", 2, 9.0, 8, 12),
    ("aniso:5:1:2:30", 3, 14.0, 12, 9),
])
def test_composite_bound_is_the_exact_dense_norm(spec, stride, alpha, h, w):
    m = ForwardModel(parse_blur_spec(spec), stride=stride)
    got = composite_contraction_bound(m, alpha, 1.0, h, w)
    n = h * w
    a_mat = apply_forward(np.eye(n).reshape(n, 1, h, w), m).reshape(n, -1).T
    want = float(np.max(np.abs(np.linalg.eigvalsh(
        np.eye(n) - alpha * (a_mat.T @ a_mat)))))
    assert got >= want - 1e-12 * want
    assert abs(got - want) <= 1e-12 * want
    if stride > 1:
        assert got >= 1.0


def test_simulate_applies_noise_deterministically():
    x = np.random.default_rng(16).random((1, 8, 8))
    m = ForwardModel(gaussian_blur(3, 1.0), stride=2, noise_sigma=0.1)
    y1 = simulate(x, m, Rng(9))
    y2 = simulate(x, m, Rng(9))
    np.testing.assert_array_equal(y1, y2)
    assert y1.shape == (1, 4, 4)


def test_trace_csv_roundtrip(tmp_path):
    m = ForwardModel(delta_blur(), stride=1)
    y = np.random.default_rng(17).random((1, 8, 8))
    trace = pnp_fbs(y, m, lambda z: 0.5 * z + 0.1, 1.0, max_iters=20, tol=1e-9)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "iter,residual,datafit,psnr"
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == trace.residuals[0]  # round-trip exact
    assert first[3] == "nan"


def test_blur_kernels_unit_sum_and_shapes():
    for k in (gaussian_blur(9, 2.0), box_blur(9), disk_blur(5),
              anisotropic_gaussian_blur(21, 3.0, 1.5, 45.0),
              motion_blur(15), sparse_random_blur(15, 0.9, seed=7)):
        assert abs(k.sum() - 1.0) <= 1e-12
        assert k.shape[0] % 2 == 1 and k.shape[1] % 2 == 1
    assert disk_blur(5).shape == (11, 11)
    sparse = sparse_random_blur(15, 0.9, seed=7)
    assert np.mean(sparse == 0.0) >= 0.8


def test_parse_blur_spec():
    np.testing.assert_array_equal(parse_blur_spec("delta"), delta_blur())
    np.testing.assert_array_equal(parse_blur_spec("gauss:9:2.0"), gaussian_blur(9, 2.0))
    np.testing.assert_array_equal(parse_blur_spec("box:9"), box_blur(9))
    np.testing.assert_array_equal(parse_blur_spec("disk:5"), disk_blur(5))
    np.testing.assert_array_equal(parse_blur_spec("aniso:21:3.0:1.5:45"),
                                  anisotropic_gaussian_blur(21, 3.0, 1.5, 45.0))
    np.testing.assert_array_equal(parse_blur_spec("motion:15:diag"), motion_blur(15))
    np.testing.assert_array_equal(parse_blur_spec("sparse:15:0.9:7"),
                                  sparse_random_blur(15, 0.9, 7))
    with pytest.raises(ValidationError):
        parse_blur_spec("gauss:9")
    with pytest.raises(ValidationError):
        parse_blur_spec("swirl:3")


@pytest.mark.parametrize("stride,h,w", [(1, 6, 5), (2, 6, 8), (3, 9, 6)])
@pytest.mark.parametrize("step", [10.0, 1.0, 0.1])
def test_drs_bound_dominates_the_dense_jacobian(stride, h, w, step):
    # T(z) = z - P(z) + D(2 P(z) - z) with D = c Q, Q orthogonal: its
    # Jacobian is I - M + c Q (2M - I), M the prox's linear part
    m = ForwardModel(sparse_random_blur(3, 0.2, seed=stride), stride=stride)
    n = h * w
    basis = np.eye(n).reshape(n, 1, h, w)
    y0 = np.zeros((1, h // stride, w // stride))
    m_mat = _prox_datafit(basis, y0, m, 1.0 / step).reshape(n, n).T
    rng = np.random.default_rng(n + stride)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    for c in (0.5, 0.9, 1.0):
        jac = np.eye(n) - m_mat + c * q @ (2.0 * m_mat - np.eye(n))
        got = drs_contraction_bound(m, step, c, h, w)
        assert got >= np.linalg.norm(jac, 2) - 1e-12
        if stride > 1:
            assert got >= c


@pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")])
def test_bounds_reject_nan_and_negative_steps(value):
    m = ForwardModel(gaussian_blur(3, 1.0), stride=1)
    with pytest.raises(ValidationError):
        composite_contraction_bound(m, value, 0.9, 8, 8)
    with pytest.raises(ValidationError):
        drs_contraction_bound(m, value, 0.9, 8, 8)
    for solver in (pnp_fbs, pnp_drs):
        with pytest.raises(ValidationError):
            solver(np.zeros((1, 8, 8)), m, lambda z: z, value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_drs_rejects_a_step_whose_reciprocal_overflows():
    # 1/1e-310 is inf: the bound used to come out nan, with a RuntimeWarning
    m = ForwardModel(gaussian_blur(3, 1.0), stride=2)
    y = np.zeros((1, 4, 4))
    for step in (1e-310, np.float64(1e-310)):
        with pytest.raises(ValidationError, match="1/step must be finite"):
            drs_contraction_bound(m, step, 0.9, 8, 8)
        with pytest.raises(ValidationError, match="1/step must be finite"):
            pnp_drs(y, m, lambda z: z, step)
