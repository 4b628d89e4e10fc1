"""File formats, seeded noise, and the chroma-subsampling perturbation.

Images travel as binary PGM (P5) / PPM (P6) with maxval 255 or 65535, or as
a raw float64 dump (16-byte header: magic ``CTRI``, then C, H, W as u32
little-endian). Weights files use magic ``CTRX`` with a trailing CRC32.
The RNG is splitmix64, so integer and uniform streams are identical on every
platform for a given seed.
"""

import json
import os
import struct
import zlib

import numpy as np

from .errors import CorruptWeightsError, DimensionError, ValidationError
from .layers import ALPHA_MIN, LayerParams, NetworkParams
from .tensorops import as_image
from .wavelets import FAMILY_CYCLE, get_family

RAW_MAGIC = b"CTRI"
# largest magnitude a raw image, a perturbed image or a kernel tap may hold:
# the fourth power of such a value (SSIM multiplies four) and sums of squares
# stay far from overflow, so the DWT, the kernel spectra and their Gram
# matrices, PSNR, SSIM and the training loss stay finite
MAX_ABS_VALUE = 1e64
WEIGHTS_MAGIC = b"CTRX"
WEIGHTS_VERSION = 1

_SM_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)


def open_new(path, mode="wb", **kwargs):
    """``open`` for writing that replaces a regular file instead of truncating
    it: ext4 flushes a truncated file on close, tens of ms swinging with disk load."""
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    return open(path, mode, **kwargs)


class Rng:
    """Counter-based splitmix64 generator.

    The raw u64 stream (and anything derived from it by exact float
    arithmetic, like :meth:`uniform`) is bit-identical across platforms;
    :meth:`normal` additionally goes through libm transcendentals.
    """

    def __init__(self, seed=0):
        self.seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._count = 0

    def u64(self, n):
        """Next ``n`` raw 64-bit outputs."""
        with np.errstate(over="ignore"):
            idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
            z = self.seed + idx * _SM_GOLDEN
            z = (z ^ (z >> np.uint64(30))) * _SM_MIX1
            z = (z ^ (z >> np.uint64(27))) * _SM_MIX2
            z = z ^ (z >> np.uint64(31))
        self._count += n
        return z

    def uniform(self, n):
        """n doubles in [0, 1), 53 random mantissa bits each."""
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def normal(self, n):
        """n standard normal draws via Box-Muller."""
        m = (n + 1) // 2
        bits = self.u64(2 * m)
        u1 = ((bits[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
        u2 = (bits[m:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def integers(self, n, bound):
        """n integers in [0, bound) by modulo reduction (bias < 2**-40 for desk-scale bounds)."""
        if bound <= 0:
            raise ValidationError(f"bound must be positive, got {bound}")
        return (self.u64(n) % np.uint64(bound)).astype(np.int64)


def add_awgn(x, sigma, rng):
    """Add white Gaussian noise of standard deviation ``sigma`` (intensity units).

    The benchmark convention sigma=25 on the 0-255 scale corresponds to
    ``sigma=25/255`` here. ``sigma=0`` returns a copy without consuming draws.
    """
    x = as_image(x)
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return x.copy()
    return x + sigma * rng.normal(x.size).reshape(x.shape)


def _ycbcr_matrix():
    kr, kg, kb = 0.299, 0.587, 0.114
    fwd = np.array([
        [kr, kg, kb],
        [-kr, -kg, 1 - kb],
        [1 - kr, -kg, -kb],
    ])
    fwd[1] *= 0.5 / (1 - kb)
    fwd[2] *= 0.5 / (1 - kr)
    return fwd


_CHROMA_FWD = _ycbcr_matrix()
_CHROMA_INV = np.linalg.inv(_CHROMA_FWD)


def chroma_subsample(x):
    """2x box-downsample and nearest-neighbor upsample of the chroma planes.

    RGB -> YCbCr (BT.601 full range), resample Cb/Cr, back to RGB. Luma is
    untouched, so grayscale content (R = G = B) passes through unchanged, and
    the operation is idempotent.
    """
    x = as_image(x)
    if x.ndim != 3 or x.shape[0] != 3:
        raise DimensionError(f"chroma_subsample needs a (3, H, W) image, got {x.shape}")
    h, w = x.shape[1:]
    if h % 2 or w % 2:
        raise DimensionError(f"chroma_subsample needs even dims, got {h}x{w}")
    ycc = np.einsum("ij,jhw->ihw", _CHROMA_FWD, x)
    for c in (1, 2):
        down = ycc[c].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
        ycc[c] = np.repeat(np.repeat(down, 2, axis=0), 2, axis=1)
    return np.einsum("ij,jhw->ihw", _CHROMA_INV, ycc)


# ---------------------------------------------------------------------------
# images


def write_image(path, x, maxval=255):
    """Write PGM/PPM by extension (.pgm/.ppm) or the raw float64 format."""
    x = as_image(x)
    if x.ndim != 3:
        raise DimensionError(f"write_image expects (C, H, W), got {x.shape}")
    path = str(path)
    c, h, w = x.shape
    if path.endswith(".pgm") or path.endswith(".ppm"):
        want = 1 if path.endswith(".pgm") else 3
        if c != want:
            raise DimensionError(
                f"{path[-4:]} needs {want} channel(s), image has {c}")
        if maxval not in (255, 65535):
            raise ValidationError(f"maxval must be 255 or 65535, got {maxval}")
        q = np.rint(np.clip(x, 0.0, 1.0) * maxval)
        q = q.astype(np.uint8 if maxval == 255 else ">u2")
        header = (b"P5" if want == 1 else b"P6") + b"\n%d %d\n%d\n" % (w, h, maxval)
        payload = q.transpose(1, 2, 0).tobytes()
    else:
        header = RAW_MAGIC + struct.pack("<III", c, h, w)
        payload = x.astype("<f8").tobytes()
    with open_new(path) as f:
        f.writelines((header, payload))


def _parse_pnm(data):
    channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ValidationError("truncated PNM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise ValidationError("unterminated PNM comment")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            end = pos
            while end < len(data) and data[end:end + 1].isdigit():
                end += 1
            if end - pos > 20:
                raise ValidationError(f"PNM header field too long at byte {pos}")
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise ValidationError(f"malformed PNM header near byte {pos}")
    w, h, maxval = fields
    if maxval not in (255, 65535):
        raise ValidationError(f"unsupported PNM maxval {maxval}")
    pos += 1  # single whitespace after maxval
    dtype = np.uint8 if maxval == 255 else ">u2"
    count = w * h * channels
    nbytes = count * (1 if maxval == 255 else 2)
    if len(data) - pos < nbytes:
        raise ValidationError("truncated PNM payload")
    payload = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    img = payload.reshape(h, w, channels).transpose(2, 0, 1)
    return img.astype(np.float64) / maxval


def read_image(path):
    """Read PGM/PPM/raw by sniffing the magic bytes; returns (C, H, W) float64.

    PGM/PPM values are scaled to [0, 1]; a raw image holding a value that is
    not finite or exceeds ``MAX_ABS_VALUE`` in magnitude is rejected.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] in (b"P5", b"P6"):
        return _parse_pnm(data)
    if data[:4] == RAW_MAGIC:
        if len(data) < 16:
            raise ValidationError("truncated raw image header")
        c, h, w = struct.unpack("<III", data[4:16])
        count = c * h * w
        if len(data) != 16 + 8 * count:
            raise ValidationError(
                f"{path}: a {c}x{h}x{w} raw image is {16 + 8 * count} bytes, "
                f"the file has {len(data)}")
        payload = np.frombuffer(data, dtype="<f8", count=count, offset=16)
        if not np.all(np.abs(payload) <= MAX_ABS_VALUE):
            raise ValidationError(
                f"{path}: raw image values must be finite and within "
                f"+-{MAX_ABS_VALUE:g}")
        return payload.reshape(c, h, w).copy()
    raise ValidationError(f"unrecognized image format in {path}")


# ---------------------------------------------------------------------------
# weights


def _block(arr):
    flat = np.asarray(arr, dtype="<f8").ravel()
    return struct.pack("<Q", flat.size) + flat.tobytes()


def save_weights(path, net):
    """Serialize NetworkParams; bit-exact round trip, CRC32-protected."""
    header = {
        "depth": net.depth,
        "patch": net.patch,
        "channels": net.channels,
        "eps": net.eps,
        "kernel_shapes": [list(l.kernel.shape) for l in net.layers],
        "family_cycle": list(FAMILY_CYCLE),
        "thresholds_per_channel": True,
    }
    meta = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = bytearray()
    buf += WEIGHTS_MAGIC
    buf += struct.pack("<I", WEIGHTS_VERSION)
    buf += struct.pack("<I", len(meta)) + meta
    for layer in net.layers:
        for arr in layer.params:
            buf += _block(arr)
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    with open_new(path) as f:
        f.write(bytes(buf))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise CorruptWeightsError("weights file truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def block(self, expect):
        (count,) = struct.unpack("<Q", self.take(8))
        if count != expect:
            raise CorruptWeightsError(
                f"block holds {count} values, header implies {expect}")
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()


def load_weights(path):
    """Load and validate a weights file; returns NetworkParams."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != WEIGHTS_MAGIC:
        raise CorruptWeightsError(f"not a weights file: {path}")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptWeightsError("CRC mismatch: weights file is corrupted")
    r = _Reader(data[:-4])
    r.take(4)
    (version,) = struct.unpack("<I", r.take(4))
    if version != WEIGHTS_VERSION:
        raise CorruptWeightsError(f"unsupported weights version {version}")
    (meta_len,) = struct.unpack("<I", r.take(4))
    # any field of the wrong type, shape or value is a corrupt file, not a
    # bad argument: the CRC only says the bytes are the ones written
    try:
        header = json.loads(r.take(meta_len).decode("utf-8"))
        depth, patch, channels = header["depth"], header["patch"], header["channels"]
        eps, kernel_shapes = header["eps"], header["kernel_shapes"]
        cycle = tuple(header["family_cycle"])
        if cycle != FAMILY_CYCLE:
            raise CorruptWeightsError(f"unsupported family cycle {cycle}")
        if len(kernel_shapes) != depth:
            raise CorruptWeightsError("kernel shape list does not match depth")
        half = patch // 2
        thr_count = 3 * channels * half * half
        layers = []
        for i in range(depth):
            alpha = r.block(1)[0]
            # the certificate's formulas hold only for alpha in this range,
            # the one constrain_params keeps
            if not ALPHA_MIN <= alpha <= 1.0 - ALPHA_MIN:
                raise CorruptWeightsError(
                    f"layer {i} alpha {alpha} is outside "
                    f"[{ALPHA_MIN}, {1.0 - ALPHA_MIN}]")
            raw = r.block(thr_count).reshape(3, channels, half, half)
            kshape = tuple(kernel_shapes[i])
            kernel = r.block(int(np.prod(kshape))).reshape(kshape)
            if not np.all(np.abs(kernel) <= MAX_ABS_VALUE):
                raise CorruptWeightsError(
                    f"layer {i} kernel taps must be finite and within "
                    f"+-{MAX_ABS_VALUE:g}")
            layers.append(LayerParams(alpha, raw, kernel,
                                      get_family(FAMILY_CYCLE[i % 3])))
        if r.pos != len(r.data):
            raise CorruptWeightsError("trailing bytes after final layer block")
        return NetworkParams(layers, eps=eps, patch=patch, channels=channels)
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise CorruptWeightsError(
            f"malformed weights file: {type(exc).__name__}: {exc}") from exc
