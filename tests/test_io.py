import numpy as np
import pytest

from ctrx.errors import CorruptWeightsError, DimensionError, ValidationError
from ctrx.io import (Rng, add_awgn, chroma_subsample, load_weights, read_image,
                     save_weights, write_image)
from ctrx.layers import contraction_certificate, init_network

# first outputs for seed 0, frozen; the leading three equal the published
# splitmix64 reference vector, which pins the algorithm constants
GOLDEN_SEED0 = [
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    0xF88BB8A8724C81EC, 0x1B39896A51A8749B, 0x53CB9F0C747EA2EA,
    0x2C829ABE1F4532E1, 0xC584133AC916AB3C, 0x3EE5789041C98AC3,
    0xF3B8488C368CB0A6, 0x657EECDD3CB13D09, 0xC2D326E0055BDEF6,
    0x8621A03FE0BBDB7B, 0x8E1F7555983AA92F, 0xB54E0F1600CC4D19,
    0x84BB3F97971D80AB,
]


def test_rng_golden_stream():
    assert [int(v) for v in Rng(0).u64(16)] == GOLDEN_SEED0


def test_rng_streams_are_stateful_and_reproducible():
    a = Rng(7)
    first = a.u64(5)
    second = a.u64(5)
    b = Rng(7)
    np.testing.assert_array_equal(b.u64(10), np.concatenate([first, second]))


def test_rng_uniform_range():
    u = Rng(1).uniform(10000)
    assert np.all((0 <= u) & (u < 1))
    assert abs(u.mean() - 0.5) < 0.02


def test_rng_integers():
    v = Rng(2).integers(1000, 17)
    assert np.all((0 <= v) & (v < 17))
    with pytest.raises(ValidationError):
        Rng(2).integers(10, 0)


def test_awgn_sigma_zero_is_identity():
    x = np.random.default_rng(0).random((1, 8, 8))
    out = add_awgn(x, 0.0, Rng(3))
    np.testing.assert_array_equal(out, x)
    assert out is not x


def test_awgn_moments():
    n = 10 ** 6
    x = np.zeros((1, 1000, 1000))
    sigma = 25.0 / 255.0
    noise = add_awgn(x, sigma, Rng(4))
    se = sigma / np.sqrt(n)
    assert abs(noise.mean()) <= 4 * se
    assert abs(noise.std() - sigma) <= 0.01 * sigma


def test_awgn_deterministic_per_seed():
    x = np.zeros((1, 16, 16))
    np.testing.assert_array_equal(add_awgn(x, 0.1, Rng(5)), add_awgn(x, 0.1, Rng(5)))


def test_awgn_rejects_negative_sigma():
    with pytest.raises(ValidationError):
        add_awgn(np.zeros((1, 4, 4)), -1.0, Rng(0))


def test_chroma_noop_on_gray_content():
    rng = np.random.default_rng(6)
    g = rng.random((1, 8, 10))
    x = np.repeat(g, 3, axis=0)
    np.testing.assert_allclose(chroma_subsample(x), x, atol=1e-10)


def test_chroma_noop_on_constant_color():
    x = np.stack([np.full((6, 6), v) for v in (0.2, 0.5, 0.9)])
    np.testing.assert_allclose(chroma_subsample(x), x, atol=1e-12)


def test_chroma_changes_color_but_preserves_luma():
    rng = np.random.default_rng(7)
    x = rng.random((3, 16, 16))
    out = chroma_subsample(x)
    assert np.max(np.abs(out - x)) > 1e-3
    luma = np.array([0.299, 0.587, 0.114])
    y_in = np.einsum("c,chw->hw", luma, x)
    y_out = np.einsum("c,chw->hw", luma, out)
    np.testing.assert_allclose(y_out, y_in, atol=1e-10)


def test_chroma_idempotent():
    rng = np.random.default_rng(8)
    x = rng.random((3, 12, 12))
    once = chroma_subsample(x)
    np.testing.assert_allclose(chroma_subsample(once), once, atol=1e-12)


def test_chroma_rejects_wrong_channels_or_odd_dims():
    with pytest.raises(DimensionError):
        chroma_subsample(np.zeros((1, 8, 8)))
    with pytest.raises(DimensionError):
        chroma_subsample(np.zeros((3, 7, 8)))


def test_raw_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 11, 7))  # out-of-[0,1] values survive raw
    p = tmp_path / "img.raw"
    write_image(p, x)
    np.testing.assert_array_equal(read_image(p), x)


def test_overwrite_writes_a_new_file_and_follows_symlinks(tmp_path):
    rng = np.random.default_rng(11)
    old, new, newer = (rng.standard_normal((1, 4, 5)) for _ in range(3))
    p = tmp_path / "img.raw"
    write_image(p, old)
    (tmp_path / "hard.raw").hardlink_to(p)
    write_image(p, new)
    # a new file replaces the old one, so its other link keeps the old data
    np.testing.assert_array_equal(read_image(tmp_path / "hard.raw"), old)
    np.testing.assert_array_equal(read_image(p), new)
    link = tmp_path / "link.raw"
    link.symlink_to(p)
    write_image(link, newer)
    assert link.is_symlink()
    np.testing.assert_array_equal(read_image(p), newer)


def test_pgm_quantized_roundtrip(tmp_path):
    x = (np.arange(256, dtype=np.float64) / 255.0).reshape(1, 16, 16)
    p = tmp_path / "img.pgm"
    write_image(p, x)
    back = read_image(p)
    np.testing.assert_array_equal(back, x)
    assert back[0, 8, 0] == 128.0 / 255.0


def test_ppm_16bit_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    x = np.rint(rng.random((3, 5, 9)) * 65535) / 65535
    p = tmp_path / "img.ppm"
    write_image(p, x, maxval=65535)
    np.testing.assert_allclose(read_image(p), x, atol=1e-12)


def test_pnm_header_with_comments(tmp_path):
    p = tmp_path / "c.pgm"
    payload = bytes(range(6))
    p.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = read_image(p)
    assert img.shape == (1, 2, 3)
    np.testing.assert_allclose(img.ravel() * 255, np.arange(6), atol=1e-12)


def test_pnm_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValidationError):
        read_image(p)


def test_read_image_unknown_format(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"NOPE")
    with pytest.raises(ValidationError):
        read_image(p)


def test_large_ppm_fixture_dims(tmp_path):
    # 481x321 is the benchmark image size; generate procedurally and verify
    h, w = 321, 481
    vals = Rng(11).uniform(3 * h * w).reshape(3, h, w)
    p = tmp_path / "fixture.ppm"
    write_image(p, vals)
    img = read_image(p)
    assert img.shape == (3, 321, 481)
    np.testing.assert_allclose(img, np.rint(vals * 255) / 255, atol=1e-12)


def test_weights_roundtrip_bitwise(tmp_path):
    net = init_network(depth=4, patch=16, channels=3, seed=12)
    p = tmp_path / "w.ctrx"
    save_weights(p, net)
    back = load_weights(p)
    assert back.depth == net.depth
    assert back.eps == net.eps
    assert back.patch == net.patch
    assert back.channels == net.channels
    for a, b in zip(net.layers, back.layers):
        assert a.alpha == b.alpha
        np.testing.assert_array_equal(a.raw_thresholds, b.raw_thresholds)
        np.testing.assert_array_equal(a.kernel, b.kernel)
        assert a.family.name == b.family.name


def test_weights_flipped_byte_fails_crc(tmp_path):
    net = init_network(depth=2, patch=8, channels=1, seed=13)
    p = tmp_path / "w.ctrx"
    save_weights(p, net)
    data = bytearray(p.read_bytes())
    data[len(data) // 2] ^= 0x40
    p.write_bytes(bytes(data))
    with pytest.raises(CorruptWeightsError):
        load_weights(p)


def test_weights_bad_magic_and_version(tmp_path):
    p = tmp_path / "w.ctrx"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(CorruptWeightsError):
        load_weights(p)


def test_full_scale_weights_load_and_certify(tmp_path):
    net = init_network(depth=30, patch=64, channels=3, seed=14)
    p = tmp_path / "full.ctrx"
    save_weights(p, net)
    back = load_weights(p)
    cert = contraction_certificate(back)
    assert cert.total_bound < 1


def test_crafted_weights_file_loads(crafted_weights):
    net = load_weights(crafted_weights())
    assert net.depth == 1 and net.patch == 4
    assert net.layers[0].alpha == 0.5


@pytest.mark.parametrize("craft", [
    pytest.param({"blocks": ([np.nan], np.zeros(12), np.full(9, 0.1))}, id="nan_alpha"),
    pytest.param({"blocks": ([0.5], np.full(12, np.nan), np.full(9, 0.1))},
                 id="nan_thresholds"),
    pytest.param({"kernel_shapes": [[1, 3, 3]]}, id="kernel_shape_3d"),
    pytest.param({"patch": 4.0}, id="float_patch"),
    pytest.param({"header": [1, 4, 1]}, id="list_header"),
])
def test_malformed_weights_with_valid_crc_are_corrupt(crafted_weights, craft):
    with pytest.raises(CorruptWeightsError):
        load_weights(crafted_weights(**craft))
