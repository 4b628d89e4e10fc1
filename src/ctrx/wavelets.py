"""Single-level orthonormal 2D wavelet transforms with periodic boundary.

Ships Haar, Daubechies-4 (db4, 8 taps) and Symlet-4 (sym4, 8 taps) filter
banks. Periodization keeps the transform exactly orthogonal on any grid with
even sides, so analysis satisfies Parseval and synthesis is both the inverse
and the adjoint.

Subband naming is (row filter, column filter): ``lh`` is lowpass over rows
and highpass over columns, ``hl`` the reverse, ``hh`` highpass in both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .tensorops import as_image

_SQRT2 = np.sqrt(2.0)

# db4/sym4 lowpass taps from the Daubechies spectral factorization with four
# vanishing moments (extremal-phase and least-asymmetric root choices),
# accurate to the last float64 digit; validated by the orthonormality tests.
_DB4_LO = np.array([
    0.23037781330889650086,
    0.71484657055291564709,
    0.63088076792985890788,
    -0.027983769416859854211,
    -0.18703481171909308408,
    0.030841381835560763627,
    0.032883011666885199735,
    -0.010597401785069032105,
])
_SYM4_LO = np.array([
    0.032223100604051467872,
    -0.012603967262031303754,
    -0.099219543576633532585,
    0.29785779560530605140,
    0.80373875180513208088,
    0.49761866763277498998,
    -0.029635527646002491764,
    -0.075765714789502213228,
])


def _qmf(lo):
    """Quadrature-mirror highpass: g[m] = (-1)^m h[L-1-m]."""
    signs = (-1.0) ** np.arange(len(lo))
    return signs * lo[::-1]


@dataclass(frozen=True)
class WaveletFamily:
    """Orthonormal two-channel filter bank."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray


HAAR = WaveletFamily("haar", np.array([1.0, 1.0]) / _SQRT2, _qmf(np.array([1.0, 1.0]) / _SQRT2))
DB4 = WaveletFamily("db4", _DB4_LO, _qmf(_DB4_LO))
SYM4 = WaveletFamily("sym4", _SYM4_LO, _qmf(_SYM4_LO))

FAMILIES = {f.name: f for f in (HAAR, DB4, SYM4)}

# layer assignment order: haar at layers 1, 4, 7, ...
FAMILY_CYCLE = ("haar", "db4", "sym4")


def get_family(name):
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown wavelet family {name!r}; choose from {sorted(FAMILIES)}") from None


@dataclass(frozen=True)
class WaveletCoeffs:
    """Single-level subbands, each of shape (..., C, H/2, W/2)."""

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    def norm(self):
        return float(np.sqrt(
            np.sum(self.ll ** 2) + np.sum(self.lh ** 2)
            + np.sum(self.hl ** 2) + np.sum(self.hh ** 2)))


def _analyze_axis(x, filt, axis):
    # a[j] = sum_m filt[m] * x[(2j + m) mod N]
    acc = filt[0] * x
    for m in range(1, len(filt)):
        acc = acc + filt[m] * np.roll(x, -m, axis=axis)
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(0, None, 2)
    return acc[tuple(slicer)]


def _synthesize_axis(lo, hi, fam, axis):
    # x[n] = sum_j lo[j] h[(n-2j) mod N] + hi[j] g[(n-2j) mod N]
    shape = list(lo.shape)
    shape[axis] *= 2
    up_lo = np.zeros(shape, dtype=np.float64)
    up_hi = np.zeros(shape, dtype=np.float64)
    slicer = [slice(None)] * lo.ndim
    slicer[axis] = slice(0, None, 2)
    up_lo[tuple(slicer)] = lo
    up_hi[tuple(slicer)] = hi
    h, g = fam.lowpass, fam.highpass
    acc = h[0] * up_lo + g[0] * up_hi
    for m in range(1, len(h)):
        acc = acc + h[m] * np.roll(up_lo, m, axis=axis) + g[m] * np.roll(up_hi, m, axis=axis)
    return acc


def dwt2(x, fam):
    """Single-level periodized 2D analysis, applied independently per channel.

    Requires even H and W. Orthonormal: the coefficient norm equals the input
    norm (Parseval) and :func:`idwt2` inverts it exactly.
    """
    x = as_image(x)
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise DimensionError(f"dwt2 needs even spatial dims, got {h}x{w}")
    lo_w = _analyze_axis(x, fam.lowpass, -1)
    hi_w = _analyze_axis(x, fam.highpass, -1)
    return WaveletCoeffs(
        ll=_analyze_axis(lo_w, fam.lowpass, -2),
        lh=_analyze_axis(hi_w, fam.lowpass, -2),
        hl=_analyze_axis(lo_w, fam.highpass, -2),
        hh=_analyze_axis(hi_w, fam.highpass, -2),
    )


def idwt2(c, fam):
    """Inverse (= adjoint) of :func:`dwt2`."""
    shapes = {c.ll.shape, c.lh.shape, c.hl.shape, c.hh.shape}
    if len(shapes) != 1:
        raise DimensionError(f"subband shapes disagree: {sorted(shapes)}")
    lo_w = _synthesize_axis(c.ll, c.hl, fam, -2)
    hi_w = _synthesize_axis(c.lh, c.hh, fam, -2)
    return _synthesize_axis(lo_w, hi_w, fam, -1)


def validate_thresholds(thr, channels, patch):
    """Check a per-coefficient threshold tensor for shape and positivity.

    Layout is (3, C, P/2, P/2) with detail bands ordered (lh, hl, hh).
    """
    thr = np.asarray(thr, dtype=np.float64)
    want = (3, channels, patch // 2, patch // 2)
    if thr.shape != want:
        raise DimensionError(f"thresholds must have shape {want}, got {thr.shape}")
    if not np.all(thr > 0):
        raise ValidationError("all thresholds must be strictly positive")
    return thr


def soft_threshold_hf(c, thr):
    """Soft-threshold the three detail subbands; the ll band passes through.

    ``thr`` has shape (3, C, H/2, W/2) in (lh, hl, hh) order and broadcasts
    over any leading batch axes of the coefficients. Entries map
    ``z -> sign(z) * max(|z| - lambda, 0)``.
    """
    thr = np.asarray(thr, dtype=np.float64)
    if thr.shape[0] != 3:
        raise DimensionError(f"threshold tensor must stack 3 bands, got {thr.shape}")
    if not np.all(thr > 0):
        raise ValidationError("all thresholds must be strictly positive")

    def shrink(z, lam):
        return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)

    return WaveletCoeffs(
        ll=c.ll,
        lh=shrink(c.lh, thr[0]),
        hl=shrink(c.hl, thr[1]),
        hh=shrink(c.hh, thr[2]),
    )
