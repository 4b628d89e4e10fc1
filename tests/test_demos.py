"""The quick demos run against the installed API and exit 0.

Demos 03-05 train or solve for several seconds each and are left to be run
by hand (``PYTHONPATH=src python demos/<name>.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_certified_lipschitz_bounds.py",
                                  "02_wavelet_shrinkage.py",
                                  "06_patched_inference.py"])
def test_quick_demo_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
