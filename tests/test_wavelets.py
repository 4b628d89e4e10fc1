import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrx.errors import DimensionError, ValidationError
from ctrx.wavelets import (FAMILIES, POLYPHASE, WaveletFamily, band_aliases, dwt2,
                           get_family, shrink)
from oracles import idwt2

ALL_FAMILIES = sorted(FAMILIES)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_filter_bank_orthonormality(name):
    fam = FAMILIES[name]
    h, g = fam.lowpass, fam.highpass
    L = len(h)
    assert abs(np.sum(h ** 2) - 1.0) <= 1e-12
    assert abs(np.sum(g ** 2) - 1.0) <= 1e-12
    assert abs(np.sum(h) - np.sqrt(2.0)) <= 1e-12
    for k in range(1, L // 2):
        assert abs(np.dot(h[: L - 2 * k], h[2 * k:])) <= 1e-12
        assert abs(np.dot(g[: L - 2 * k], g[2 * k:])) <= 1e-12
    for k in range(-(L // 2) + 1, L // 2):
        lo = max(0, 2 * k)
        hi = min(L, L + 2 * k)
        assert abs(np.dot(h[lo - 2 * k: hi - 2 * k], g[lo:hi])) <= 1e-12


def loop_analysis(v, filt):
    """a[j] = sum_m filt[m] v[(2j + m) mod N] for a 1-D signal v."""
    n = len(v)
    return np.array([sum(f * v[(2 * j + m) % n] for m, f in enumerate(filt))
                     for j in range(n // 2)])


def loop_dwt2(img, row_filt, col_filt):
    """``row_filt`` over the rows (down each column), ``col_filt`` over the columns."""
    over_cols = np.array([loop_analysis(row, col_filt) for row in img])
    return np.array([loop_analysis(col, row_filt) for col in over_cols.T]).T


@pytest.mark.parametrize("name", ALL_FAMILIES)
@pytest.mark.parametrize("n", [4, 8, 16])
def test_dwt2_matches_its_definition(name, n):
    # at n = 4, db4 and sym4 wrap their 8 taps around the rows twice
    fam = FAMILIES[name]
    h, g = fam.lowpass, fam.highpass
    x = np.random.default_rng(n).standard_normal((2, n, 2 * n))
    coeffs = dwt2(x, fam)
    for i, (band, (row_filt, col_filt)) in enumerate({"ll": (h, h), "lh": (h, g),
                                                      "hl": (g, h), "hh": (g, g)}.items()):
        want = np.array([loop_dwt2(img, row_filt, col_filt) for img in x])
        assert np.max(np.abs(coeffs[i] - want)) <= 1e-13, band


def test_dwt2_follows_the_taps_not_the_name():
    db4 = FAMILIES["db4"]
    renamed = WaveletFamily("haar", db4.lowpass, db4.highpass)
    x = np.random.default_rng(3).standard_normal((1, 8, 8))
    dwt2(x, FAMILIES["haar"])  # the 8x8 haar matrix is cached first
    np.testing.assert_array_equal(dwt2(x, renamed)[3], dwt2(x, db4)[3])


def test_polyphase_is_the_strided_split():
    x = np.random.default_rng(11).standard_normal((2, 3, 6, 10))
    want = np.stack([x[..., p::2, q::2] for p in (0, 1) for q in (0, 1)])
    got = dwt2(x, POLYPHASE)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_band_aliases_are_cached_per_taps_and_grid():
    db4 = FAMILIES["db4"]
    table = band_aliases(db4, 8, 12)
    assert band_aliases(db4, 8, 12) is table
    assert not table.flags.writeable
    renamed = WaveletFamily("haar", db4.lowpass.copy(), db4.highpass.copy())
    band_aliases(FAMILIES["haar"], 8, 12)  # the haar table is cached too
    assert band_aliases(renamed, 8, 12) is table
    assert band_aliases(db4, 12, 8) is not table


def test_haar_constant_image():
    c = 0.37
    x = np.full((1, 8, 8), c)
    coeffs = dwt2(x, get_family("haar"))
    np.testing.assert_allclose(coeffs[0], np.full((1, 4, 4), 2 * c), atol=1e-14)
    for band in coeffs[1:]:
        np.testing.assert_allclose(band, 0.0, atol=1e-14)


def test_zero_image_zero_coeffs():
    coeffs = dwt2(np.zeros((2, 4, 4)), get_family("db4"))
    for band in coeffs:
        np.testing.assert_array_equal(band, 0.0)


@pytest.mark.parametrize("name", ALL_FAMILIES)
@pytest.mark.parametrize("size", [4, 8, 16, 64])
def test_perfect_reconstruction(name, size):
    rng = np.random.default_rng(size)
    fam = FAMILIES[name]
    x = rng.standard_normal((2, size, size))
    rec = idwt2(dwt2(x, fam), fam)
    assert np.max(np.abs(rec - x)) <= 1e-10


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_parseval(name):
    rng = np.random.default_rng(99)
    fam = FAMILIES[name]
    for _ in range(20):
        x = rng.standard_normal((1, 16, 16))
        coeffs = dwt2(x, fam)
        norm_c = np.linalg.norm(coeffs)
        assert abs(norm_c - np.linalg.norm(x)) <= 1e-10


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_adjoint_identity(name):
    rng = np.random.default_rng(7)
    fam = FAMILIES[name]
    x = rng.standard_normal((1, 8, 8))
    c = rng.standard_normal((4, 1, 4, 4))
    wx = dwt2(x, fam)
    lhs = (np.sum(wx[0] * c[0]) + np.sum(wx[1] * c[1])
           + np.sum(wx[2] * c[2]) + np.sum(wx[3] * c[3]))
    rhs = np.sum(x * idwt2(c, fam))
    assert abs(lhs - rhs) <= 1e-10


def test_haar_inverse_of_constant():
    c = -1.25
    coeffs = (np.full((1, 4, 4), 2 * c), np.zeros((1, 4, 4)),
              np.zeros((1, 4, 4)), np.zeros((1, 4, 4)))
    rec = idwt2(coeffs, get_family("haar"))
    np.testing.assert_allclose(rec, np.full((1, 8, 8), c), atol=1e-14)


def test_idwt2_zero_coeffs():
    z = np.zeros((1, 4, 4))
    rec = idwt2((z, z, z, z), get_family("sym4"))
    np.testing.assert_array_equal(rec, np.zeros((1, 8, 8)))


def test_dwt2_rejects_odd_dims():
    with pytest.raises(DimensionError):
        dwt2(np.zeros((1, 5, 8)), get_family("haar"))


def test_idwt2_rejects_mismatched_subbands():
    z = np.zeros((1, 4, 4))
    bad = (z, z, z, np.zeros((1, 2, 2)))
    with pytest.raises(DimensionError):
        idwt2(bad, get_family("haar"))


def test_get_family_unknown():
    with pytest.raises(ValidationError):
        get_family("coif1")


def soft_scalar(z, lam):
    return np.sign(z) * max(abs(z) - lam, 0.0)


def test_soft_threshold_textbook_values():
    z = np.zeros((1, 2, 2))
    lh = np.array([[[2.0, -0.5], [0.0, 1.0]]])
    thr = np.ones((3, 1, 2, 2))
    np.testing.assert_array_equal(shrink(lh, thr[0]), np.array([[[1.0, 0.0], [0.0, 0.0]]]))
    np.testing.assert_array_equal(shrink(z, thr[1]), z)
    np.testing.assert_array_equal(shrink(z, thr[2]), z)


def test_soft_threshold_scalar_lipschitz():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = rng.standard_normal(2) * 3
        lam = rng.uniform(1e-3, 2.0)
        assert abs(soft_scalar(a, lam) - soft_scalar(b, lam)) <= abs(a - b) + 1e-15


def test_soft_threshold_nonexpansive_end_to_end():
    rng = np.random.default_rng(3)
    thr = np.exp(rng.standard_normal((3, 2, 4, 4)))
    for _ in range(50):
        # four bands, ll first: ll passes through and the details are shrunk
        c1 = rng.standard_normal((4, 2, 4, 4))
        c2 = rng.standard_normal((4, 2, 4, 4))
        s1 = np.concatenate([c1[:1], shrink(c1[1:], thr)])
        s2 = np.concatenate([c2[:1], shrink(c2[1:], thr)])
        num = np.sum((s1 - s2) ** 2)
        den = np.sum((c1 - c2) ** 2)
        assert num <= den + 1e-12


def test_batched_transform_matches_loop():
    rng = np.random.default_rng(5)
    fam = FAMILIES["db4"]
    batch = rng.standard_normal((4, 2, 8, 8))
    coeffs = dwt2(batch, fam)
    for i in range(4):
        single = dwt2(batch[i], fam)
        np.testing.assert_array_equal(coeffs[0, i], single[0])
        np.testing.assert_array_equal(coeffs[3, i], single[3])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(ALL_FAMILIES), st.integers(1, 3), st.integers(1, 8),
       st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_property_dwt_adjoint_identity(name, c, half_h, half_w, seed):
    # <W x, c> = <x, W^T c>, with idwt2 as W^T; grids down to 2x2 make the
    # 8-tap filters wrap onto one column several times
    fam = FAMILIES[name]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c, 2 * half_h, 2 * half_w))
    bands = rng.standard_normal((4, c, half_h, half_w))
    wx = dwt2(x, fam)
    lhs = sum(np.sum(wx[b] * bands[b]) for b in range(4))
    rhs = np.sum(x * idwt2(bands, fam))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(bands)
