"""Import cost: the package loads numpy and no scipy module.

Every CLI command is a fresh process, so what `import paracoh` pulls in is
paid on every call.  The band solves call LAPACK in the OpenBLAS numpy has
already loaded (`paracoh._lapack`); scipy.sparse is imported by the joint
degree-1 fallback when it runs, and scipy.linalg only where numpy exports no
ILP64 band routines.
"""

import ctypes
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paracoh

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ROUTINES = ("zgbtrf", "zgbtrs")  # exported as scipy_<routine>_64_


def _numpy_openblas():
    """The OpenBLAS in numpy's wheel that exports both band routines, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        if all(hasattr(ctypes.CDLL(path), f"scipy_{r}_64_") for r in ROUTINES):
            return path
    return None


def test_import_loads_no_heavy_scipy_module():
    lib = _numpy_openblas()
    if lib is None:
        pytest.skip("numpy's wheel exports no ILP64 zgbtrf/zgbtrs; the solver imports scipy")
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import ctypes, sys, paracoh, paracoh.cli\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from paracoh import _lapack\n"
        f"lib = ctypes.CDLL({lib!r})\n"
        "addr = lambda f: ctypes.cast(f, ctypes.c_void_p).value\n"
        "print(all(addr(getattr(_lapack, f'_{r}')) == addr(getattr(lib, f'scipy_{r}_64_')) "
        f"for r in {ROUTINES!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out == ["", "True"]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == paracoh.__version__
