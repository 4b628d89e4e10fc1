"""The package's public surface: what ``ctrx`` exports, and what it no longer
ships."""

import numpy as np
import pytest

import ctrx
import ctrx.errors
import ctrx.layers
import ctrx.metrics
import ctrx.pnp
import ctrx.tensorops
import ctrx.trainer
import ctrx.wavelets
from ctrx.inference import plan_patches
from ctrx.layers import init_network
from ctrx.pnp import PnPTrace
from ctrx.wavelets import WaveletFamily

# names that moved to tests/oracles.py or were deleted in favour of the run
# path's own code (see README, "API changes")
REMOVED = {
    ctrx.tensorops: ("conv2d_circular", "_dense_matrix", "dense_norm_oracle",
                     "dense_top_singular_vector", "_padded_kernel", "_kernel_rfft",
                     "freq_response"),
    ctrx.wavelets: ("idwt2", "soft_threshold_hf", "WaveletCoeffs", "synthesis_aliases"),
    ctrx.errors: ("SizeGuardError",),
    ctrx.layers: ("layer_forward", "tap_bases", "_transfers", "band_aliases",
                  "alias_columns"),
    ctrx.pnp: ("_prox_datafit", "pnp_drs", "drs_contraction_bound", "_datafit_prox",
               "_drs_weight", "_iterate", "_ata_spectrum", "_alias_spectrum",
               "simulate"),
    ctrx.metrics: ("gaussian_window",),
    ctrx.trainer: ("GradientSet",),
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


@pytest.mark.parametrize("make", [
    lambda: init_network(depth=2, patch=8, seed=0),
    lambda: init_network(depth=1, patch=8, seed=0).layers[0],
    lambda: plan_patches(16, 16, 8, 4),
    lambda: WaveletFamily("haar", np.full(2, 0.5 ** 0.5), np.array([0.5 ** 0.5, -0.5 ** 0.5])),
    lambda: PnPTrace(final=np.zeros((1, 4, 4))),
], ids=["NetworkParams", "LayerParams", "PatchPlan", "WaveletFamily", "PnPTrace"])
def test_array_dataclasses_compare_by_identity(make):
    # a generated __eq__ compared the array fields and raised ValueError
    a, b = make(), make()
    assert a == a
    assert (a == b) is False
