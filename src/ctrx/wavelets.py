"""Single-level orthonormal 2D wavelet transforms with periodic boundary.

Ships Haar, Daubechies-4 (db4, 8 taps) and Symlet-4 (sym4, 8 taps) filter
banks. Along an axis of even length n the periodized filter bank is one
orthogonal n x n matrix A (lowpass outputs, then highpass), so analysis is
``A_H @ x @ A_W.T``; synthesis, its inverse and adjoint, would apply the
transposes. The analysis runs once per family on the observation of a
network forward; the layers themselves never leave the wavelet domain, and
their synthesis is the polyphase form below.

The layers apply the filter bank in its polyphase form (Vaidyanathan,
*Multirate Systems and Filter Banks*, 1993): the band outputs are shift
invariant by two, so on the n/2 grid every frequency w couples only the two
bands and the two aliases w, w + n/2 of the n grid. :func:`band_aliases`
gives that coupling on a 2D grid, built from the rows of A and cached like
A. :data:`POLYPHASE`, whose A is the even/odd sample split, is the family
the last layer maps to; it is not a wavelet and no layer uses it.

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


@dataclass(frozen=True, eq=False)
class WaveletFamily:
    """Orthonormal two-channel filter bank."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray


HAAR = WaveletFamily("haar", np.array([1.0, 1.0]) / _SQRT2, _qmf(np.array([1.0, 1.0]) / _SQRT2))
DB4 = WaveletFamily("db4", _DB4_LO, _qmf(_DB4_LO))
SYM4 = WaveletFamily("sym4", _SYM4_LO, _qmf(_SYM4_LO))
# band 0 holds the even samples and band 1 the odd ones
POLYPHASE = WaveletFamily("polyphase", np.array([1.0, 0.0]), np.array([0.0, 1.0]))

FAMILIES = {f.name: f for f in (HAAR, DB4, SYM4)}

# layer assignment order: haar at layers 1, 4, 7, ...
FAMILY_CYCLE = ("haar", "db4", "sym4")


def get_family(name):
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown wavelet family {name!r}; choose from {sorted(FAMILIES)}") from None


_MATRICES = {}


def _analysis_matrix(fam, n):
    """Orthogonal (n, n) periodized analysis along one axis, cached per taps and n.

    Row j < n/2 is ``a[j] = sum_m h[m] x[(2j + m) mod n]``, row n/2 + j the
    same with g; taps that wrap onto one column (n < taps) add up.
    """
    key = (fam.lowpass.tobytes(), fam.highpass.tobytes(), n)
    if key not in _MATRICES:
        j = np.arange(n // 2)[:, None]
        cols = (2 * j + np.arange(len(fam.lowpass))) % n
        a = np.zeros((n, n))
        np.add.at(a, (j, cols), fam.lowpass)
        np.add.at(a, (j + n // 2, cols), fam.highpass)
        a.flags.writeable = False
        _MATRICES[key] = a
    return _MATRICES[key]


def _synthesis_aliases(fam, n):
    """Complex (n/2, 2, 2) synthesis along an axis of even length n, per frequency.

    Entry ``[w, e, b]`` takes band b's spectrum (b = 0 lowpass, 1 highpass)
    at frequency w of the n/2 grid to the synthesized signal's spectrum at
    frequency w + e n/2 of the n grid; both spectra are unnormalized DFTs.
    Each matrix is sqrt(2) times a unitary one, so the analysis of the same
    frequency is its conjugate transpose over 2.
    """
    half = n // 2
    # spectrum of sample phase p at alias e: (-1)^(e p) e^(-2 pi i w p / n)
    phase = np.exp(-2j * np.pi * np.arange(half) / n)
    m = np.ones((half, 2, 2), dtype=np.complex128)
    m[:, 0, 1] = phase
    m[:, 1, 1] = -phase
    # band b's output j reads x[2(j + d) + p] with weight A[b n/2, 2d + p], so
    # the polyphase synthesis is the DFT of those weights over d
    taps = _analysis_matrix(fam, n)[[0, half]].reshape(2, half, 2)
    return m @ np.fft.fft(taps, axis=1).transpose(1, 2, 0)


_ALIASES = {}


def band_aliases(fam, grid_h, grid_w):
    """Complex (4, 4, H/2, W/4 + 1) 2D synthesis: entry ``[e, j]`` takes band
    j = (a, b) at each frequency of the half grid's half-spectrum to alias
    e = (e1, e2) of the full grid, pairs flattened row-major. Read-only and
    cached per taps and grid, like :func:`_analysis_matrix`."""
    key = (fam.lowpass.tobytes(), fam.highpass.tobytes(), grid_h, grid_w)
    if key not in _ALIASES:
        rows = _synthesis_aliases(fam, grid_h).transpose(1, 2, 0)
        cols = _synthesis_aliases(fam, grid_w)[:grid_w // 4 + 1].transpose(1, 2, 0)
        m = rows[:, None, :, None, :, None] * cols[None, :, None, :, None, :]
        m = m.reshape((4, 4) + m.shape[-2:])
        m.flags.writeable = False
        _ALIASES[key] = m
    return _ALIASES[key]


def alias_columns(grid_w):
    """The W grid's columns ``e2 W/2 + f2`` at the two column aliases of the
    half grid's half-spectrum, f2 in ``0 .. W/4``, e2-major."""
    return np.r_[:grid_w // 4 + 1, grid_w // 2:grid_w // 2 + grid_w // 4 + 1]


def dwt2(x, fam):
    """Single-level periodized 2D analysis, applied independently per channel.

    Requires even H and W. Returns the bands (ll, lh, hl, hh) stacked first,
    shape (4, ..., C, H/2, W/2). Orthonormal: the coefficient norm equals
    the input norm (Parseval), and the transposed matrices invert it exactly.
    """
    x = as_image(x)
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise DimensionError(f"dwt2 needs even spatial dims, got {h}x{w}")
    y = _analysis_matrix(fam, h) @ x @ _analysis_matrix(fam, w).T
    y = y.reshape(y.shape[:-2] + (2, h // 2, 2, w // 2))
    return np.moveaxis(y, (-4, -2), (0, 1)).reshape((4,) + y.shape[:-4] + y.shape[-3::2])


def shrink(z, lam, out=None):
    """Soft threshold ``sign(z) * max(|z| - lam, 0)``, into ``out`` if given
    (which may be ``z``)."""
    mag = np.abs(z)
    mag -= lam
    np.maximum(mag, 0.0, out=mag)
    return np.copysign(mag, z, out=mag if out is None else out)
