import json
import struct
import zlib

import numpy as np
import pytest

from ctrx.layers import band_layout
from ctrx.wavelets import POLYPHASE, dwt2
from oracles import conv2d_circular, idwt2

# a depth-1, P=4 grayscale network: alpha, 3x1x2x2 raw thresholds, a 1x1x3x3 kernel
CRAFTED_HEADER = {"depth": 1, "patch": 4, "channels": 1, "eps": 1e-3,
                  "kernel_shapes": [[1, 1, 3, 3]],
                  "family_cycle": ["haar", "db4", "sym4"],
                  "thresholds_per_channel": True}
CRAFTED_BLOCKS = ([0.5], np.zeros(12), np.full(9, 0.1))


@pytest.fixture
def crafted_weights(tmp_path):
    """Writes a weights file with a valid CRC around any header and blocks.

    ``header`` replaces the valid header outright; keyword fields edit it.
    """
    def write(header=None, blocks=CRAFTED_BLOCKS, **fields):
        if header is None:
            header = dict(CRAFTED_HEADER, **fields)
        meta = json.dumps(header).encode("utf-8")
        buf = b"CTRX" + struct.pack("<II", 1, len(meta)) + meta
        for block in blocks:
            flat = np.asarray(block, dtype="<f8").ravel()
            buf += struct.pack("<Q", flat.size) + flat.tobytes()
        path = tmp_path / "crafted.ctrx"
        path.write_bytes(buf + struct.pack("<I", zlib.crc32(buf)))
        return path
    return write


@pytest.fixture(scope="session")
def spatial_transfer():
    """A layer transfer's map in space, for bands (4C, B, h, h) band-major:
    idwt2 by ``fam``, conv2d_circular, ``scale``, then dwt2 by ``target``,
    or strided slices for the polyphase split."""
    def apply(bands, kernel, scale, fam, target):
        c = kernel.shape[0]
        per_band = bands.reshape((4, c) + bands.shape[1:]).transpose(0, 2, 1, 3, 4)
        v = conv2d_circular(idwt2(per_band, fam), kernel) * scale
        if target is POLYPHASE:
            parts = np.stack([v[..., p::2, q::2] for p in (0, 1) for q in (0, 1)])
        else:
            parts = dwt2(v, target)
        return band_layout(parts)
    return apply
