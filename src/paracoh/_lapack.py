"""The solver's two band LAPACK routines, in the OpenBLAS numpy already loaded.

numpy's wheels link an ILP64 OpenBLAS into their core extension, with every
symbol named ``scipy_<routine>_64_``.  Calling its zgbtrf and zgbtrs through
ctypes spares each process the ``scipy.linalg`` import, which costs about as
much as numpy's own.  The backend is resolved once, at import: where numpy
exports no such symbols (another numpy build or OS), the same two names are
``scipy.linalg.lapack``'s.

Both backends keep one contract for the arguments `solver` passes:
``zgbtrf(ab, kl, ku, overwrite_ab)`` returns ``(lu, piv, info)`` and
``zgbtrs(lu, kl, ku, b, piv, overwrite_b)`` returns ``(x, info)``.  Pivots
are 1-based here and 0-based in scipy; they pass only from one backend's
zgbtrf to its own zgbtrs.  An overwritten argument is worked on in place when
it is already a Fortran-order complex128 array.
"""

from __future__ import annotations

import ctypes

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p


def _ref(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def zgbtrf(ab, kl, ku, overwrite_ab=0):
    """LU of the square band matrix in LAPACK band storage ``ab``."""
    lu = np.array(ab, dtype=np.complex128, order="F", copy=None if overwrite_ab else True)
    ldab, n = lu.shape
    piv = np.empty(n, dtype=np.int64)
    info = ctypes.c_int64()
    _zgbtrf(_ref(n), _ref(n), _ref(kl), _ref(ku), lu.ctypes.data, _ref(ldab),
            piv.ctypes.data, ctypes.byref(info))
    return lu, piv, info.value


def zgbtrs(ab, kl, ku, b, ipiv, overwrite_b=0):
    """Solve with `zgbtrf`'s LU and pivots; each column of ``b`` is one right-hand side."""
    ab = np.asarray(ab, dtype=np.complex128, order="F")
    ipiv = np.asarray(ipiv, dtype=np.int64)
    x = np.array(b, dtype=np.complex128, order="F", copy=None if overwrite_b else True)
    ldab, n = ab.shape
    if ipiv.shape != (n,) or x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"zgbtrs: {n} unknowns, pivots {ipiv.shape}, right-hand sides {x.shape}")
    info = ctypes.c_int64()
    _zgbtrs(b"N", _ref(n), _ref(kl), _ref(ku), _ref(x.shape[1]), ab.ctypes.data, _ref(ldab),
            ipiv.ctypes.data, x.ctypes.data, _ref(n), ctypes.byref(info), 1)
    return x, info.value


try:
    # dlsym on numpy's core extension also searches the libraries it links
    _core = ctypes.CDLL(np._core._multiarray_umath.__file__)
    _zgbtrf, _zgbtrs = _core.scipy_zgbtrf_64_, _core.scipy_zgbtrs_64_
except (AttributeError, OSError):  # another numpy build or OS
    from scipy.linalg.lapack import zgbtrf, zgbtrs  # noqa: F811
else:
    _zgbtrf.argtypes = [_INT] * 4 + [_PTR, _INT, _PTR, _INT]
    # the trailing size_t is the length of the character argument TRANS
    _zgbtrs.argtypes = [ctypes.c_char_p] + [_INT] * 4 + [_PTR, _INT, _PTR, _PTR, _INT, _INT,
                                                        ctypes.c_size_t]
    _zgbtrf.restype = _zgbtrs.restype = None
