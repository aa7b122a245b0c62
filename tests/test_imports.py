"""Import cost: the package loads numpy and scipy.linalg, nothing heavier.

Every CLI command is a fresh process, so what `import paracoh` pulls in is
paid on every call.  scipy.sparse is imported by the joint degree-1
fallback when it runs; scipy.integrate, scipy.optimize and scipy.special
are not used at all.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
HEAVY = ("scipy.integrate", "scipy.sparse", "scipy.optimize", "scipy.special")


def test_import_loads_no_heavy_scipy_module():
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, paracoh, paracoh.cli\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
        "print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out == ["", "True"]
