"""What importing ctrx loads: numpy and scipy.fft, not the rest of scipy.

Every ctrx command pays for its imports in start-up time and peak memory;
scipy.signal alone pulls in scipy.linalg, sparse, optimize, stats and
ndimage, which no ctrx command uses: about 450 modules and 49 MB of peak
memory with scipy 1.17.1 on Linux (README, "Import footprint").
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.signal", "scipy.linalg", "scipy.sparse", "scipy.optimize",
         "scipy.stats", "scipy.ndimage")


def test_importing_ctrx_loads_no_heavy_scipy_subpackage():
    # a fresh interpreter: this one has imported whatever the other tests use
    code = ("import json, sys; import ctrx, ctrx.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "scipy.fft" in loaded
    assert [m for m in HEAVY if m in loaded] == []
