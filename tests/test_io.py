import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctrx.errors import CorruptWeightsError, DimensionError, ValidationError
from ctrx.io import (MAX_ABS_VALUE, Rng, _parse_pnm, add_awgn, chroma_subsample,
                     load_weights, read_image, save_weights, write_image)
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


@pytest.mark.parametrize("extra", [-8, -1, 1, 24])
def test_raw_of_the_wrong_length_is_rejected(tmp_path, extra):
    # bytes after the payload used to be ignored, so the file read as its image
    p = tmp_path / "img.raw"
    write_image(p, np.zeros((1, 16, 16)))
    data = p.read_bytes()
    p.write_bytes(data[:extra] if extra < 0 else data + b"\x00" * extra)
    with pytest.raises(ValidationError, match="1x16x16 raw image is 2064 bytes"):
        read_image(p)


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


@pytest.mark.parametrize("value", [MAX_ABS_VALUE, -MAX_ABS_VALUE])
def test_raw_image_at_the_bound_reads(tmp_path, value):
    p = tmp_path / "x.raw"
    write_image(p, np.full((1, 2, 3), value))
    np.testing.assert_array_equal(read_image(p), np.full((1, 2, 3), value))


@pytest.mark.parametrize("value", [np.nextafter(MAX_ABS_VALUE, np.inf),
                                   -1.5e308, np.inf, -np.inf, np.nan])
def test_raw_image_beyond_the_bound_is_rejected(tmp_path, value):
    p = tmp_path / "x.raw"
    x = np.zeros((2, 4, 4))
    x[1, 2, 3] = value
    # write_image itself refuses non-finite values: write the payload by hand
    p.write_bytes(b"CTRI" + struct.pack("<III", 2, 4, 4) + x.astype("<f8").tobytes())
    with pytest.raises(ValidationError, match=r"within \+-1e\+64"):
        read_image(p)


def test_pnm_header_field_of_5000_digits_is_a_validation_error():
    # int() refuses strings beyond 4300 digits with a plain ValueError
    with pytest.raises(ValidationError, match="field too long"):
        _parse_pnm(b"P5 " + b"9" * 5000 + b" 1 255\n")


PNM_PREFIXES = st.sampled_from([b"", b"P5", b"P6", b"P5\n", b"P6 4 4 255\n",
                                b"P5 3 2 65535\n", b"P5\n#"])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(PNM_PREFIXES, st.binary(max_size=64))
def test_property_pnm_parser_raises_only_validation_errors(prefix, tail):
    try:
        _parse_pnm(prefix + tail)
    except ValidationError:
        pass


def _with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


WEIGHTS_PREFIXES = st.sampled_from([
    b"", b"CTRX", b"CTRX" + struct.pack("<I", 1),
    b"CTRX" + struct.pack("<II", 1, 2) + b"{}",
    b"CTRX" + struct.pack("<II", 1, 9) + b'{"depth":'])


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(WEIGHTS_PREFIXES, st.binary(max_size=96), st.booleans())
def test_property_weights_loader_raises_only_corrupt_weights(tmp_path, prefix,
                                                             tail, crc):
    # a valid CRC over random bytes takes the parser past the checksum
    body = prefix + tail
    p = tmp_path / "w.ctrx"
    p.unlink(missing_ok=True)  # a fresh file: a truncated one is flushed on close
    p.write_bytes(_with_crc(body) if crc else body)
    try:
        load_weights(p)
    except CorruptWeightsError:
        pass


FIELD_VALUES = st.one_of(st.integers(-2, 9), st.integers(), st.floats(),
                         st.none(), st.text(max_size=3),
                         st.lists(st.integers(-1, 5), max_size=5))


@st.composite
def weights_headers(draw):
    """A header dict whose fields hold valid values or random junk."""
    header = {"depth": draw(st.one_of(st.integers(0, 3), FIELD_VALUES)),
              "patch": draw(st.one_of(st.sampled_from([2, 4, 6]), FIELD_VALUES)),
              "channels": draw(st.one_of(st.integers(0, 2), FIELD_VALUES)),
              "eps": draw(st.one_of(st.floats(), FIELD_VALUES)),
              "kernel_shapes": draw(st.one_of(
                  st.lists(st.lists(st.integers(-1, 3), max_size=5), max_size=3),
                  FIELD_VALUES)),
              "family_cycle": draw(st.one_of(
                  st.just(["haar", "db4", "sym4"]), FIELD_VALUES)),
              "thresholds_per_channel": True}
    drop = draw(st.sets(st.sampled_from(sorted(header)), max_size=2))
    return {key: value for key, value in header.items() if key not in drop}


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weights_headers(),
       st.lists(st.lists(st.floats(), max_size=40), max_size=8),
       st.binary(max_size=8))
def test_property_structured_weights_raise_only_corrupt_weights(
        crafted_weights, header, blocks, tail):
    # a header of valid and junk fields, count-prefixed blocks and stray
    # bytes, all under a valid CRC
    path = crafted_weights(header=header, blocks=blocks)
    body = path.read_bytes()[:-4] + tail
    path.unlink()
    path.write_bytes(_with_crc(body))
    try:
        load_weights(path)
    except CorruptWeightsError:
        pass
    finally:
        path.unlink()  # the next example writes a fresh file, not a truncated one
