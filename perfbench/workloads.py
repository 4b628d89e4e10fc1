"""The benchmark's workloads: seeded inputs, the ctrx command of one op, and
the checks each op's outputs must pass.

Inputs are made here with numpy alone, from the workload seed, and reach
ctrx only as files and flags. Network weights are made with ctrx's own
``init_network`` at a fixed seed, so the certificates they carry do not
depend on the workload seed. Each workload's ``build`` makes the weights
and inputs in memory (the timed set-up); ``write`` saves them as the files
an op reads. Why each workload exists, and which layer it stresses, is in
NOTES.md.
"""

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from ctrx.io import save_weights
from ctrx.layers import init_network

WEIGHTS_SEED = 0
RAW_MAGIC = b"CTRI"


class CheckFailed(Exception):
    """An op's exit code, printed values or written image is wrong."""


@dataclass
class Prepared:
    """What one set-up made: the command of an op and what checks need."""

    argv: list
    out_path: str
    clean: np.ndarray = None
    trace_path: str = None


# ---------------------------------------------------------------------------
# inputs


def texture(rng, channels, height, width):
    """Smooth random field with a few flat blocks, scaled into [0, 1]."""
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    cutoff = rng.uniform(0.03, 0.12)
    lowpass = np.exp(-(fy ** 2 + fx ** 2) / (2.0 * cutoff ** 2))
    noise = rng.standard_normal((channels, height, width))
    img = np.fft.ifft2(np.fft.fft2(noise) * lowpass).real
    img = (img - img.min()) / (img.max() - img.min())
    for _ in range(3):
        rh = int(rng.integers(height // 8, height // 3))
        cw = int(rng.integers(width // 8, width // 3))
        r0 = int(rng.integers(0, height - rh))
        c0 = int(rng.integers(0, width - cw))
        level = rng.uniform(0.0, 1.0, size=(channels, 1, 1))
        img[:, r0:r0 + rh, c0:c0 + cw] = 0.6 * img[:, r0:r0 + rh, c0:c0 + cw] + 0.4 * level
    return img


def write_pnm(path, img):
    """8-bit binary PGM (1 channel) or PPM (3 channels)."""
    c, h, w = img.shape
    q = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write((b"P5" if c == 1 else b"P6") + b"\n%d %d\n255\n" % (w, h))
        f.write(q.transpose(1, 2, 0).tobytes())


def write_raw(path, img):
    """ctrx's lossless raw format: ``CTRI``, C, H, W as u32 LE, float64 LE."""
    c, h, w = img.shape
    with open(path, "wb") as f:
        f.write(RAW_MAGIC + struct.pack("<III", c, h, w))
        f.write(np.asarray(img, dtype="<f8").tobytes())


def read_raw(path):
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != RAW_MAGIC or len(data) < 16:
        raise CheckFailed(f"{path} is not a raw image")
    c, h, w = struct.unpack("<III", data[4:16])
    if len(data) != 16 + 8 * c * h * w:
        raise CheckFailed(f"{path} has {len(data)} bytes for a {c}x{h}x{w} image")
    return np.frombuffer(data, dtype="<f8", offset=16).reshape(c, h, w)


def gaussian_taps(size, sigma):
    r = np.arange(size) - size // 2
    g = np.exp(-(r ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def blur_circular(img, taps):
    """Circular convolution per channel, centre tap at the origin."""
    h, w = img.shape[-2:]
    kh, kw = taps.shape
    pad = np.zeros((h, w))
    pad[np.ix_((np.arange(kh) - kh // 2) % h, (np.arange(kw) - kw // 2) % w)] = taps
    return np.fft.ifft2(np.fft.fft2(img) * np.fft.fft2(pad)).real


# ---------------------------------------------------------------------------
# checks


def psnr_db(a, b):
    mse = float(np.mean((a - b) ** 2))
    return 10.0 * math.log10(1.0 / mse)


def parse_float(emitted, key):
    try:
        value = float(emitted[key])
    except (KeyError, ValueError):
        raise CheckFailed(f"no numeric {key}= line on stderr")
    if not math.isfinite(value):
        raise CheckFailed(f"{key}={value} is not finite")
    return value


def image_outputs(prep, shape):
    """Statistics of the written image and its PSNR against the clean input."""
    out = read_raw(prep.out_path)
    if out.shape != shape:
        raise CheckFailed(f"output shape {out.shape}, expected {shape}")
    if not np.all(np.isfinite(out)):
        raise CheckFailed("output image has non-finite values")
    return out, {
        "out_mean": float(out.mean()), "out_std": float(out.std()),
        "out_min": float(out.min()), "out_max": float(out.max()),
        "psnr_db": psnr_db(out, prep.clean),
    }


class Denoise:
    name = "denoise"
    size = 256
    sigma = 25.0 / 255.0
    # (name, unit, units per op): the workload's own throughput metric
    throughput = ("denoise_mpix_per_s", "Mpix/s", 256 * 256 / 1e6)
    # compared with the seed commit's values on every op, whatever the seed
    seed_free = ("certificate", "observation_bound")

    def build(self, seed):
        rng = np.random.default_rng(seed)
        clean = texture(rng, 1, self.size, self.size)
        return {"net": init_network(depth=30, patch=64, channels=1, seed=WEIGHTS_SEED),
                "clean": clean,
                "noisy": clean + self.sigma * rng.standard_normal(clean.shape)}

    def write(self, built, workdir):
        weights = str(workdir / "denoise.ctrx")
        save_weights(weights, built["net"])
        write_pnm(workdir / "noisy.pgm", built["noisy"])
        out = str(workdir / "denoised.raw")
        argv = ["denoise", "--in", str(workdir / "noisy.pgm"), "--out", out,
                "--weights", weights, "--stride", "32", "--taper", "0.5"]
        return Prepared(argv, out, built["clean"])

    def check(self, prep, emitted):
        got = {k: parse_float(emitted, k) for k in self.seed_free}
        if not got["certificate"] < 1.0:
            raise CheckFailed(f"certificate {got['certificate']} is not < 1")
        got.update(image_outputs(prep, (1, self.size, self.size))[1])
        return got


class RestoreSR:
    name = "restore_sr"
    iters = 25
    # one restore per op, counted per minute
    throughput = ("restores_per_min", "1/min", 60.0)
    seed_free = ("certificate", "observation_bound")

    def build(self, seed):
        rng = np.random.default_rng(seed)
        clean = texture(rng, 1, 64, 64)
        low = blur_circular(clean, gaussian_taps(9, 2.0))[:, ::2, ::2]
        # the input-contractive recipe: alpha below eps puts the full
        # input-output bound L_D under 1, so the composite bound is L_D * 1
        return {"net": init_network(depth=3, patch=32, channels=1,
                                    seed=WEIGHTS_SEED,
                                    alpha_range=(0.05, 0.25), eps=0.3),
                "clean": clean,
                "low": low + 0.01 * rng.standard_normal(low.shape)}

    def write(self, built, workdir):
        weights = str(workdir / "restore.ctrx")
        save_weights(weights, built["net"])
        write_pnm(workdir / "low.pgm", built["low"])
        write_raw(workdir / "clean.raw", built["clean"])
        out = str(workdir / "restored.raw")
        trace = str(workdir / "trace.csv")
        argv = ["restore", "--in", str(workdir / "low.pgm"), "--out", out,
                "--task", "sr", "--stride-sr", "2", "--blur", "gauss:9:2.0",
                "--algo", "fbs", "--alpha-step", "1.0", "--tol", "0",
                "--iters", str(self.iters), "--ref", str(workdir / "clean.raw"),
                "--trace", trace, "--weights", weights]
        return Prepared(argv, out, built["clean"], trace)

    def check(self, prep, emitted):
        got = {k: parse_float(emitted, k) for k in self.seed_free}
        bound = parse_float(emitted, "composite_bound")
        lip = got["observation_bound"]
        # ||I - A^T A|| is exactly 1 for x2 decimation of a unit-sum blur
        if not bound < 1.0 or abs(bound - lip) > 1e-5 * lip:
            raise CheckFailed(f"composite_bound {bound} is not L_D * 1 = {lip} < 1")
        iterations = parse_float(emitted, "iterations")
        if iterations != self.iters:
            raise CheckFailed(f"{iterations} iterations, expected {self.iters}")
        out, stats = image_outputs(prep, (1, 64, 64))
        got.update(stats)
        with open(prep.trace_path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != self.iters:
            raise CheckFailed(f"trace has {len(rows)} rows, expected {self.iters}")
        res = [float(r["residual"]) for r in rows]
        # acceptance criterion 5: the observed contraction stays within the
        # certified bound (plus slack) until the residual hits rounding level
        floor = 1e-13 * float(np.linalg.norm(out))
        for k in range(10, len(res) - 1):
            if res[k] <= floor:
                break
            if res[k + 1] > (bound + 0.05) * res[k]:
                raise CheckFailed(f"residual ratio {res[k + 1] / res[k]} at "
                                  f"iteration {k + 2} exceeds bound {bound} + 0.05")
        if not math.isclose(float(rows[-1]["psnr"]), got["psnr_db"], rel_tol=1e-9):
            raise CheckFailed("trace PSNR disagrees with the written image")
        return got


class TrainRGB:
    name = "train_rgb"
    patches = 200
    # 200 patches, 20 held for validation, 11 steps of 16 over the rest
    throughput = ("train_patches_per_s", "patches/s", 176.0)
    seed_free = ()

    def build(self, seed):
        rng = np.random.default_rng(seed)
        return {"seed": seed,
                "images": [texture(rng, 3, 32, 32) for _ in range(self.patches)]}

    def write(self, built, workdir):
        # one 32x32 image per patch, so --data gives exactly these patches
        data = workdir / "data"
        data.mkdir()
        for i, img in enumerate(built["images"]):
            write_pnm(data / f"{i:03d}.ppm", img)
        out = str(workdir / "trained.ctrx")
        argv = ["train", "--out", out, "--data", str(data), "--channels", "3",
                "--depth", "5", "--patch", "32", "--batch", "16",
                "--epochs", "1", "--seed", str(built["seed"])]
        return Prepared(argv, out)

    def check(self, prep, emitted):
        got = {k: parse_float(emitted, k) for k in
               ("certificate", "final_train_loss", "final_val_psnr")}
        if not got["certificate"] < 1.0:
            raise CheckFailed(f"certificate {got['certificate']} is not < 1")
        if not got["final_train_loss"] > 0.0:
            raise CheckFailed(f"train loss {got['final_train_loss']} is not > 0")
        with open(prep.out_path, "rb") as f:
            if f.read(4) != b"CTRX":
                raise CheckFailed("trained weights file lacks the CTRX magic")
        return got


WORKLOADS = {w.name: w for w in (Denoise(), RestoreSR(), TrainRGB())}
