"""What importing ctrx loads: numpy, and no module of scipy.

Every ctrx command pays for its imports in start-up time and peak memory.
ctrx runs its FFTs on ``numpy.fft`` (``tensorops.rfft2``/``irfft2``);
``scipy.fft`` alone loads ``scipy.special``, ``numpy.f2py`` and about 300
other modules, about 26 MB of peak memory with scipy 1.17.1 on Linux, and
``scipy.signal`` loads about 450 more (README, "Import footprint"). scipy
is a test-only dependency: the tests use it as a reference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_ctrx_loads_no_scipy():
    # a fresh interpreter: this one has imported whatever the other tests use
    code = ("import json, sys; import ctrx, ctrx.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "ctrx.cli" in loaded
    assert sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) == []
