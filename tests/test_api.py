"""The package's public surface: what ``ctrx`` exports, and what it no longer
ships."""

import ctrx
import ctrx.errors
import ctrx.layers
import ctrx.metrics
import ctrx.pnp
import ctrx.tensorops
import ctrx.wavelets

# names that moved to tests/oracles.py or were deleted in favour of the run
# path's own code (see README, "API changes")
REMOVED = {
    ctrx.tensorops: ("conv2d_circular", "_dense_matrix", "dense_norm_oracle",
                     "dense_top_singular_vector", "_padded_kernel", "_kernel_rfft",
                     "freq_response"),
    ctrx.wavelets: ("idwt2", "soft_threshold_hf"),
    ctrx.errors: ("SizeGuardError",),
    ctrx.layers: ("layer_forward", "tap_bases", "_transfers"),
    ctrx.pnp: ("_prox_datafit",),
    ctrx.metrics: ("gaussian_window",),
}


def test_every_exported_name_resolves():
    assert len(set(ctrx.__all__)) == len(ctrx.__all__)
    for name in ctrx.__all__:
        assert getattr(ctrx, name) is not None, name


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from ctrx import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ctrx.__all__)


def test_removed_names_are_neither_exported_nor_defined():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in ctrx.__all__, name
            assert not hasattr(ctrx, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(ctrx.WaveletCoeffs, "norm")
