"""Single-irreducible layer: basis norms, the flow generator, Sobolev norms.

All elements are truncated coefficient vectors in the K-weight basis u(k).
The generator acts tridiagonally on coefficients:

    (U f)(k) = i k f(k) - (i/2) c+(k-1) f(k-1) + (i/2) c-(k+1) f(k+1),

with c+(k) = k + (1+nu)/2 and c-(k) = -k + (1+nu)/2.  For the discrete
series c-(n) = 0, so the lowest weight is never undershot.  Skew-adjointness
of this action with respect to the basis norms below is the build gate
validating both; see tests.

`apply_u_axis_array` is the one implementation of this stencil, on any axis
of a dense array.  `apply_U` (a CoeffVector) and `u_matrix` (the stencil on
the identity) are views of it, as are the scalar `basis_norm_sq` and
`weight_Q` of their array twins; `casimir_mu` is an alias of
`SeriesParam.mu`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamMismatch
from .params import IndexWindow, Kind, SeriesParam, check_window, expand_window


@dataclass(frozen=True)
class CoeffVector:
    """Truncated element of one irreducible: coefficients over a window."""

    param: SeriesParam
    window: IndexWindow
    coeffs: np.ndarray

    def __post_init__(self):
        check_window(self.param, self.window)
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (len(self.window),):
            raise ValueError(
                f"coefficient shape {arr.shape} does not match window size {len(self.window)}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def at(self, k: int) -> complex:
        if k not in self.window:
            return 0.0 + 0.0j
        return complex(self.coeffs[k - self.window.lo])

    def embedded(self, window: IndexWindow) -> "CoeffVector":
        """Same element, re-windowed (zero fill); target must cover support."""
        out = np.zeros(len(window), dtype=np.complex128)
        inside = np.zeros(len(self.window), dtype=bool)
        lo = max(self.window.lo, window.lo)
        hi = min(self.window.hi, window.hi)
        if lo <= hi:
            src = slice(lo - self.window.lo, hi - self.window.lo + 1)
            out[lo - window.lo : hi - window.lo + 1] = self.coeffs[src]
            inside[src] = True
        if np.any(self.coeffs[~inside] != 0):
            raise ValueError("target window does not cover the support")
        return CoeffVector(self.param, window, out)


def _overlap(a: IndexWindow, b: IndexWindow) -> bool:
    return max(a.lo, b.lo) <= min(a.hi, b.hi)


def basis_vector(param: SeriesParam, k: int, window: IndexWindow | None = None) -> CoeffVector:
    """The basis element u(k), optionally embedded in a given window."""
    param.check_index(k)
    if window is None:
        window = IndexWindow(k, k)
    coeffs = np.zeros(len(window), dtype=np.complex128)
    coeffs[k - window.lo] = 1.0
    return CoeffVector(param, window, coeffs)


def zero_vector(param: SeriesParam, window: IndexWindow) -> CoeffVector:
    return CoeffVector(param, window, np.zeros(len(window), dtype=np.complex128))


def casimir_mu(param: SeriesParam) -> float:
    """Casimir eigenvalue (1 - nu^2)/4."""
    return param.mu


def weight_Q(param: SeriesParam, k: int) -> float:
    """Sobolev weight Q(k) = mu + 2k^2 (scalar view of weight_q_array)."""
    param.check_index(k)
    return float(weight_q_array(param, k))


def weight_q_array(param: SeriesParam, ks: np.ndarray) -> np.ndarray:
    return param.mu + 2.0 * np.asarray(ks, dtype=np.float64) ** 2


def basis_norm_sq(param: SeriesParam, k: int) -> float:
    """Squared norm of u(k) (scalar view of basis_norm_sq_array)."""
    return float(basis_norm_sq_array(param, IndexWindow(k, k))[0])


def basis_norm_sq_array(param: SeriesParam, window: IndexWindow) -> np.ndarray:
    """Vector of ||u(k)||^2 over a window (cumulative products, O(K)).

    Principal: 1.  Complementary: prod_{i<=|k|} (2i-1-nu)/(2i-1+nu).
    Discrete (k = n+m): m! (2n-1)! / (2n-1+m)!.
    """
    check_window(param, window)
    if param.kind is Kind.PRINCIPAL:
        return np.ones(len(window))
    ks = window.indices()
    if param.kind is Kind.COMPLEMENTARY:
        nu = param.nu.real
        kmax = int(max(abs(window.lo), abs(window.hi)))
        odd = np.arange(1.0, 2 * kmax, 2.0)  # 2i - 1 for i = 1..kmax, in floats
        prods = np.concatenate([[1.0], np.cumprod((odd - nu) / (odd + nu))])
        return prods[np.abs(ks)]
    n = param.n
    mmax = window.hi - n
    j = np.arange(1, mmax + 1)
    prods = np.concatenate([[1.0], np.cumprod(j / (2 * n - 1 + j))])
    return prods[ks - n]


def c_plus(param: SeriesParam, ks: np.ndarray) -> np.ndarray:
    return ks + (1.0 + param.nu) / 2.0


def c_minus(param: SeriesParam, ks: np.ndarray) -> np.ndarray:
    return -ks + (1.0 + param.nu) / 2.0


def apply_u_axis_array(
    arr: np.ndarray, axis: int, param: SeriesParam, window: IndexWindow
) -> tuple[np.ndarray, IndexWindow]:
    """Generator action along one axis of a dense array; window grows by one."""
    out_win = expand_window(param, window, 1)
    moved = np.moveaxis(arr, axis, -1)
    out_shape = moved.shape[:-1] + (len(out_win),)
    out = np.zeros(out_shape, dtype=np.complex128)
    ks = window.indices()
    off = window.lo - out_win.lo
    n = len(window)
    # diagonal: i k f(k)
    out[..., off : off + n] += 1j * ks * moved
    # superdiagonal source: -(i/2) c+(j) f(j) lands at k = j+1
    out[..., off + 1 : off + n + 1] += -0.5j * c_plus(param, ks) * moved
    # subdiagonal source: (i/2) c-(j) f(j) lands at k = j-1
    cut = out_win.lo - (window.lo - 1)  # 1 when clipped at the lowest weight
    out[..., off - 1 + cut : off - 1 + n] += (0.5j * c_minus(param, ks) * moved)[..., cut:]
    return np.moveaxis(out, -1, axis), out_win


def apply_U(f: CoeffVector) -> CoeffVector:
    """Flow-generator action on coefficients; window grows by one each side."""
    out, out_win = apply_u_axis_array(f.coeffs, 0, f.param, f.window)
    return CoeffVector(f.param, out_win, out)


def u_matrix(param: SeriesParam, window: IndexWindow) -> tuple[np.ndarray, IndexWindow]:
    """Dense matrix of the generator from `window` to the expanded window."""
    check_window(param, window)
    a, out_win = apply_u_axis_array(np.eye(len(window)), 0, param, window)
    # C order keeps the summation order of products like `dv @ a` fixed
    return np.ascontiguousarray(a), out_win


def sobolev_norm(f: CoeffVector, t: float) -> float:
    """sqrt of sum (1+mu+2k^2)^t |f(k)|^2 ||u(k)||^2 (negative t allowed)."""
    q = weight_q_array(f.param, f.window.indices())
    w2 = basis_norm_sq_array(f.param, f.window)
    mag2 = np.abs(f.coeffs) ** 2
    if t == 0.0:
        total = float(np.sum(mag2 * w2))
    else:
        total = float(np.sum((1.0 + q) ** t * mag2 * w2))
    return float(np.sqrt(total))


def inner_product(f: CoeffVector, g: CoeffVector) -> complex:
    """sum f(k) conj(g(k)) ||u(k)||^2 over the window intersection."""
    if f.param != g.param:
        raise ParamMismatch(f"{f.param.label()} vs {g.param.label()}")
    if not _overlap(f.window, g.window):
        return 0.0 + 0.0j
    common = f.window.intersect(g.window)
    fs = f.coeffs[common.lo - f.window.lo : common.hi - f.window.lo + 1]
    gs = g.coeffs[common.lo - g.window.lo : common.hi - g.window.lo + 1]
    w2 = basis_norm_sq_array(f.param, common)
    return complex(np.sum(fs * np.conj(gs) * w2))
