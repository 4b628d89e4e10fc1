"""The demos run against the installed API, exit 0 and leave no temp files.

Demo 04 solves for several seconds and is left to be run by hand
(``PYTHONPATH=src python demos/04_pnp_deblurring.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_certified_lipschitz_bounds.py",
                                  "02_wavelet_shrinkage.py",
                                  "03_train_toy_denoiser.py",
                                  "05_robustness_perturbations.py",
                                  "06_patched_inference.py"])
def test_quick_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
