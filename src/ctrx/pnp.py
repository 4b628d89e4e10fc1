"""Forward models and plug-and-play solvers for deblurring and superresolution.

The degradation is ``y = S B x + eta`` with ``B`` a known circular blur
applied per channel and ``S`` decimation by an integer stride (stride 1 means
deblurring); ``B`` and ``B^T`` multiply each channel's half-spectrum by
``B_hat`` and its conjugate. PnP-FBS iterates ``x <- D(x - alpha * grad
f(x))`` for a denoiser ``D``; when ``D`` is contractive with constant ``L_D``
and ``L_D * ||I - alpha A^T A|| < 1`` the iteration is a contraction, so the
residuals decay geometrically to a unique fixed point.
:func:`composite_contraction_bound` evaluates that product exactly, in closed
form over the frequencies of the decimated grid. For stride > 1 the norm is
never below 1 (decimation leaves ``A^T A`` a null space), so a certified
superresolution solve needs ``L_D < 1``. PnP-DRS swaps the denoiser into
Douglas-Rachford splitting, with the quadratic prox solved exactly in closed
form for every stride: by Woodbury, its inner system lives on the decimated
grid, where ``A A^T`` is diagonal in the Fourier basis. Its certificate,
:func:`drs_contraction_bound`, comes from the same eigenvalues.

Both solvers run the same loop on a state (FBS: ``x``; DRS: ``z``). Each
iteration records the residual ``||new - state||`` and the data fit and PSNR
of the iterate it shows, and the loop stops once the residual is at most
``tol * ||state||`` (``tol`` finite and >= 0) or after ``max_iters`` (at
least 1) iterations. A non-finite new state or residual raises
DivergenceError, its trace's ``final`` taken from the last finite state.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .errors import DimensionError, DivergenceError, ValidationError
from .io import Rng, add_awgn, open_new
from .metrics import psnr
from .tensorops import _kernel_rfft, as_image, freq_response

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 500


@dataclass(frozen=True)
class ForwardModel:
    """Blur taps (k x k, odd, unit sum by convention), decimation stride, noise level."""

    blur: np.ndarray
    stride: int = 1
    noise_sigma: float = 0.0

    def __post_init__(self):
        blur = np.asarray(self.blur, dtype=np.float64)
        if blur.ndim != 2 or blur.shape[0] % 2 == 0 or blur.shape[1] % 2 == 0:
            raise DimensionError(
                f"blur must be a 2D kernel with odd sides, got {blur.shape}")
        if not np.all(np.isfinite(blur)):
            raise ValidationError("blur taps must be finite")
        if self.stride < 1:
            raise ValidationError(f"stride must be >= 1, got {self.stride}")
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "blur", blur)


def apply_forward(x, model):
    """S B x: circular blur per channel, then keep every stride-th row/col."""
    x = as_image(x)
    h, w = x.shape[-2:]
    if h % model.stride or w % model.stride:
        raise DimensionError(
            f"image {h}x{w} not divisible by stride {model.stride}")
    bf = _kernel_rfft(model.blur[None, None], h, w)[0, 0]
    return fft.irfft2(fft.rfft2(x) * bf, s=(h, w))[..., ::model.stride, ::model.stride]


def apply_adjoint(u, model, full_h, full_w):
    """B^T S^T u: zero-fill upsample, then the adjoint blur, ``conj(B_hat)``."""
    u = as_image(u)
    s = model.stride
    if u.shape[-2] * s != full_h or u.shape[-1] * s != full_w:
        raise DimensionError(
            f"adjoint input {u.shape[-2]}x{u.shape[-1]} does not fold to "
            f"{full_h}x{full_w} at stride {s}")
    up = np.zeros(u.shape[:-2] + (full_h, full_w))
    up[..., ::s, ::s] = u
    bf = _kernel_rfft(model.blur[None, None], full_h, full_w)[0, 0]
    return fft.irfft2(fft.rfft2(up) * np.conj(bf), s=(full_h, full_w))


def grad_datafit(x, y, model):
    """Gradient of f(x) = 1/2 ||y - A x||^2, i.e. A^T (A x - y)."""
    x = as_image(x)
    y = as_image(y)
    return apply_adjoint(apply_forward(x, model) - y, model,
                         x.shape[-2], x.shape[-1])


def datafit(x, y, model):
    return 0.5 * float(np.sum((apply_forward(x, model) - y) ** 2))


def simulate(x, model, rng=None):
    """Degrade a clean image: forward model plus AWGN at the model's sigma."""
    y = apply_forward(x, model)
    if model.noise_sigma > 0:
        y = add_awgn(y, model.noise_sigma, rng if rng is not None else Rng(0))
    return y


@dataclass
class PnPTrace:
    """Per-iteration record of a PnP run."""

    residuals: list = field(default_factory=list)
    datafits: list = field(default_factory=list)
    psnrs: list = field(default_factory=list)
    final: np.ndarray = None
    converged: bool = False

    @property
    def iterations(self):
        return len(self.residuals)


def trace_to_csv(trace, path):
    """Write iter,residual,datafit,psnr rows with round-trip float precision."""
    with open_new(path, "w", newline="\n") as f:
        f.write("iter,residual,datafit,psnr\n")
        for i, (r, d, p) in enumerate(
                zip(trace.residuals, trace.datafits, trace.psnrs), start=1):
            f.write(f"{i},{r!r},{d!r},{p!r}\n")


def _iterate(state, update, output, y, model, max_iters, tol, ref, name):
    """Run ``state <- update(state)[0]`` as the module docstring describes.

    ``update`` returns (new state, shown iterate); ``output`` maps a state to
    the image it stands for, which becomes the trace's ``final``.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol}")
    trace = PnPTrace()
    for _ in range(max_iters):
        new, shown = update(state)
        with np.errstate(over="ignore", invalid="ignore"):
            res = float(np.linalg.norm(new - state))
        if not np.all(np.isfinite(new)) or not np.isfinite(res):
            trace.final = output(state)
            raise DivergenceError(
                f"non-finite iterate in {name} (expansive composition?)", trace)
        trace.residuals.append(res)
        trace.datafits.append(datafit(shown, y, model))
        trace.psnrs.append(float("nan") if ref is None else psnr(shown, ref))
        norm = float(np.linalg.norm(state))
        state = new
        if res <= tol * norm:
            trace.converged = True
            break
    trace.final = output(state)
    trace.converged = trace.converged and bool(np.all(np.isfinite(trace.final)))
    return trace


def pnp_fbs(y, model, denoiser, alpha_step, max_iters=DEFAULT_MAX_ITERS,
            tol=DEFAULT_TOL, ref=None, x0=None):
    """Plug-and-play forward-backward splitting: ``x <- D(x - alpha grad f(x))``.

    Args:
        y: Observation (C, H/s, W/s).
        model: ForwardModel whose stride relates y to the full grid.
        denoiser: Callable mapping full-resolution images to the same shape.
        alpha_step: Gradient step size (finite, > 0).
        max_iters, tol: Iteration cap and relative stopping tolerance.
        ref: Optional clean reference; records per-iteration PSNR.
        x0: Optional start; defaults to ``A^T y``.

    Returns:
        PnPTrace whose ``final`` is the last iterate.
    """
    if not (np.isfinite(alpha_step) and alpha_step > 0):
        raise ValidationError(f"alpha_step must be finite and positive, got {alpha_step}")
    y = as_image(y)
    full_h = y.shape[-2] * model.stride
    full_w = y.shape[-1] * model.stride
    x = apply_adjoint(y, model, full_h, full_w) if x0 is None else as_image(x0).copy()

    def update(x):
        x_new = denoiser(x - alpha_step * grad_datafit(x, y, model))
        return x_new, x_new
    return _iterate(x, update, lambda x: x, y, model, max_iters, tol, ref, "PnP-FBS")


def _alias_spectrum(model, grid_h, grid_w):
    """Eigenvalues ``mu(k)`` of ``A A^T`` on the decimated (H/s, W/s) grid."""
    s = model.stride
    if grid_h % s or grid_w % s:
        raise DimensionError(
            f"grid {grid_h}x{grid_w} not divisible by stride {s}")
    bf = freq_response(model.blur[None, None], grid_h, grid_w)[:, :, 0, 0]
    # the aliases of decimated frequency k are k + (m H/s, n W/s), 0 <= m, n < s
    aliases = (np.abs(bf) ** 2).reshape(s, grid_h // s, s, grid_w // s)
    return aliases.sum(axis=(0, 2)) / s ** 2


def _ata_spectrum(model, grid_h, grid_w):
    """The eigenvalues of ``A^T A`` up to multiplicity: ``mu(k)``, and 0 if s > 1."""
    mu = _alias_spectrum(model, grid_h, grid_w).ravel()
    return np.append(mu, 0.0) if model.stride > 1 else mu


def _datafit_prox(aty, model, weight):
    """From ``aty = A^T y``, ``z -> x`` solving ``(I + weight A^T A) x = z + weight aty``.

    Woodbury: ``(I + w A^T A)^-1 r = r - w A^T (I + w A A^T)^-1 A r``, and
    ``A A^T`` is diagonal in the Fourier basis of the decimated grid (Zhao et
    al., IEEE TIP 2016): the inner solve is one division on the half-spectrum.
    """
    h, w = aty.shape[-2:]
    mu = _alias_spectrum(model, h, w)
    shift = weight * aty
    denom = 1.0 + weight * mu[:, :mu.shape[1] // 2 + 1]

    def prox(z):
        r = z + shift
        t = fft.irfft2(fft.rfft2(apply_forward(r, model), axes=(-2, -1)) / denom,
                       s=mu.shape, axes=(-2, -1))
        return r - weight * apply_adjoint(t, model, h, w)
    return prox


def _prox_datafit(z, y, model, weight):
    """Solve ``(I + weight A^T A) x = z + weight A^T y`` exactly, any stride."""
    h, w = z.shape[-2:]
    return _datafit_prox(apply_adjoint(y, model, h, w), model, weight)(z)


def _drs_weight(step):
    """``1 / step``, the DRS prox's data-fit weight; both must be finite and > 0."""
    if not (step > 0 and np.isfinite(step) and np.isfinite(1.0 / float(step))):
        raise ValidationError(f"step and 1/step must be finite and positive, got {step}")
    return 1.0 / step


def pnp_drs(y, model, denoiser, step, max_iters=DEFAULT_MAX_ITERS,
            tol=DEFAULT_TOL, ref=None):
    """Plug-and-play Douglas-Rachford splitting.

    One iteration: ``x = prox(z)``, ``z <- z + D(2x - z) - x``, where prox
    solves ``(I + (1/step) A^T A) x = z + (1/step) A^T y`` exactly, in closed
    form for every stride; ``step`` and ``1/step`` must be finite and > 0. The trace shows ``x``; ``final`` is ``prox(z)``.
    """
    weight = _drs_weight(step)
    y = as_image(y)
    z = apply_adjoint(y, model, y.shape[-2] * model.stride, y.shape[-1] * model.stride)
    prox = _datafit_prox(z, model, weight)

    def update(z):
        x = prox(z)
        return z + denoiser(2.0 * x - z) - x, x
    return _iterate(z, update, prox, y, model, max_iters, tol, ref, "PnP-DRS")


def composite_contraction_bound(model, alpha_step, lip_denoiser, grid_h, grid_w):
    """``L_D * ||I - alpha A^T A||`` on the given grid; < 1 certifies PnP-FBS.

    Exact, in closed form. ``A A^T = S B B^T S^T`` is circular on the
    decimated (H/s) x (W/s) grid, with eigenvalue ``mu(k) = s^-2 *
    sum |B_hat|^2`` over the ``s^2`` frequencies of the full grid that alias
    to ``k``. ``A^T A`` shares these nonzero eigenvalues; for ``s > 1`` it
    also has eigenvalue 0, so ``||I - alpha A^T A||`` is the larger of 1 and
    ``max_k |1 - alpha mu(k)|``, and the bound is never below ``L_D``.
    """
    if not (np.isfinite(alpha_step) and alpha_step >= 0):
        raise ValidationError(f"alpha_step must be finite and >= 0, got {alpha_step}")
    lam = _ata_spectrum(model, grid_h, grid_w)
    return lip_denoiser * float(np.max(np.abs(1.0 - alpha_step * lam)))


def drs_contraction_bound(model, step, lip_denoiser, grid_h, grid_w):
    """``||I - M|| + L_D ||2M - I||``, ``M = (I + w A^T A)^-1``, ``w = 1/step``.

    Bounds the Lipschitz constant of the DRS map ``T(z) = z - P(z) + D(2 P(z)
    - z)``, whose prox ``P`` has linear part ``M``; < 1 certifies PnP-DRS.
    Over the eigenvalues ``lam`` of ``A^T A`` the two norms are
    ``max w lam / (1 + w lam)`` and ``max |1 - w lam| / (1 + w lam)``.
    """
    wlam = _drs_weight(step) * _ata_spectrum(model, grid_h, grid_w)
    return float(np.max(wlam / (1.0 + wlam))
                 + lip_denoiser * np.max(np.abs(1.0 - wlam) / (1.0 + wlam)))


# ---------------------------------------------------------------------------
# blur kernel families


def gaussian_blur(size, sigma):
    if size % 2 == 0 or size < 1:
        raise ValidationError(f"kernel size must be odd, got {size}")
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    r = np.arange(size) - size // 2
    g = np.exp(-(r ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def box_blur(size):
    if size % 2 == 0 or size < 1:
        raise ValidationError(f"kernel size must be odd, got {size}")
    return np.full((size, size), 1.0 / (size * size))


def disk_blur(radius):
    """Defocus disk of the given radius; kernel size 2*radius + 1."""
    if radius < 1:
        raise ValidationError(f"radius must be >= 1, got {radius}")
    size = 2 * radius + 1
    r = np.arange(size) - radius
    mask = (r[:, None] ** 2 + r[None, :] ** 2) <= radius ** 2
    k = mask.astype(np.float64)
    return k / k.sum()


def anisotropic_gaussian_blur(size, sigma_x, sigma_y, theta_deg):
    if size % 2 == 0 or size < 1:
        raise ValidationError(f"kernel size must be odd, got {size}")
    if not (sigma_x > 0 and sigma_y > 0):
        raise ValidationError("sigmas must be positive")
    r = np.arange(size) - size // 2
    yy, xx = np.meshgrid(r, r, indexing="ij")
    t = np.deg2rad(theta_deg)
    xr = np.cos(t) * xx + np.sin(t) * yy
    yr = -np.sin(t) * xx + np.cos(t) * yy
    k = np.exp(-(xr ** 2 / (2 * sigma_x ** 2) + yr ** 2 / (2 * sigma_y ** 2)))
    return k / k.sum()


def motion_blur(length, direction="diag"):
    """Straight-line motion kernel; currently the main diagonal."""
    if length % 2 == 0 or length < 1:
        raise ValidationError(f"length must be odd, got {length}")
    if direction != "diag":
        raise ValidationError(f"unsupported motion direction {direction!r}")
    k = np.zeros((length, length))
    np.fill_diagonal(k, 1.0)
    return k / k.sum()


def sparse_random_blur(size, density, seed=0):
    """Random nonnegative kernel with the given fraction of zeros, seeded."""
    if size % 2 == 0 or size < 1:
        raise ValidationError(f"kernel size must be odd, got {size}")
    if not 0.0 <= density < 1.0:
        raise ValidationError(f"density (zero fraction) must be in [0, 1), got {density}")
    rng = Rng(seed)
    vals = rng.uniform(size * size).reshape(size, size)
    keep = rng.uniform(size * size).reshape(size, size) >= density
    k = vals * keep
    if k.sum() == 0.0:
        k[size // 2, size // 2] = 1.0
    return k / k.sum()


def delta_blur():
    return np.ones((1, 1))


def parse_blur_spec(spec):
    """Parse the blur mini-language used on the command line.

    Forms: ``delta``, ``gauss:SIZE:SIGMA``, ``box:SIZE``, ``disk:RADIUS``,
    ``aniso:SIZE:SX:SY:THETA``, ``motion:LENGTH:diag``,
    ``sparse:SIZE:DENSITY:SEED``.
    """
    parts = str(spec).split(":")
    kind = parts[0]
    try:
        if kind == "delta" and len(parts) == 1:
            return delta_blur()
        if kind == "gauss" and len(parts) == 3:
            return gaussian_blur(int(parts[1]), float(parts[2]))
        if kind == "box" and len(parts) == 2:
            return box_blur(int(parts[1]))
        if kind == "disk" and len(parts) == 2:
            return disk_blur(int(parts[1]))
        if kind == "aniso" and len(parts) == 5:
            return anisotropic_gaussian_blur(int(parts[1]), float(parts[2]),
                                             float(parts[3]), float(parts[4]))
        if kind == "motion" and len(parts) == 3:
            return motion_blur(int(parts[1]), parts[2])
        if kind == "sparse" and len(parts) == 4:
            return sparse_random_blur(int(parts[1]), float(parts[2]), int(parts[3]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad blur spec {spec!r}: {exc}") from exc
    raise ValidationError(f"unrecognized blur spec {spec!r}")
