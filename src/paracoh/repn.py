"""Single-irreducible layer: basis norms, the flow generator, Sobolev norms.

Coefficients are dense arrays in the K-weight basis u(k), one axis per
factor; an element of one irreducible is the rank-1 `tensor.TensorCoeffs`.
The generator acts tridiagonally on coefficients:

    (U f)(k) = i k f(k) - (i/2) c+(k-1) f(k-1) + (i/2) c-(k+1) f(k+1),

with c+(k) = k + (1+nu)/2 and c-(k) = -k + (1+nu)/2.  For the discrete
series c-(n) = 0, so the lowest weight is never undershot.  Skew-adjointness
of this action with respect to the basis norms below is the build gate
validating both; see tests.

`apply_u_axis_array` is the one implementation of this stencil, on any axis
of a dense array; `u_matrix` (the stencil on the identity) is a view of it.
`sobolev_norm_array` is the one Sobolev norm, on arrays over any factor
tuple, with leading axes a batch; it needs no `MultiParam`, so it also
serves parameters outside the product gates.  It is the only code that
weights |coefficients|^2 by the basis norms and (1 + Q)^t, and it takes a
tuple of orders in one pass, so every caller norms an array once for all of
its orders.  The scalar `basis_norm_sq` reads its array twin.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .params import IndexWindow, Kind, SeriesParam, check_window, expand_window


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
    axis %= arr.ndim
    shape = list(arr.shape)
    shape[axis] = len(out_win)
    out = np.zeros(shape, dtype=np.complex128)
    ks = window.indices()
    off = window.lo - out_win.lo
    n = len(window)
    col = (n,) + (1,) * (arr.ndim - axis - 1)  # coefficients broadcast along `axis`

    def at(lo, hi=None):
        return (slice(None),) * axis + (slice(lo, hi),)

    # diagonal: i k f(k)
    out[at(off, off + n)] += (1j * ks).reshape(col) * arr
    # superdiagonal source: -(i/2) c+(j) f(j) lands at k = j+1
    out[at(off + 1, off + n + 1)] += (-0.5j * c_plus(param, ks)).reshape(col) * arr
    # subdiagonal source: (i/2) c-(j) f(j) lands at k = j-1
    cut = out_win.lo - (window.lo - 1)  # 1 when clipped at the lowest weight
    lower = (0.5j * c_minus(param, ks)).reshape(col)
    out[at(off - 1 + cut, off - 1 + n)] += lower[cut:] * arr[at(cut)]
    return out, out_win


def u_matrix(param: SeriesParam, window: IndexWindow) -> tuple[np.ndarray, IndexWindow]:
    """Dense matrix of the generator from `window` to the expanded window."""
    check_window(param, window)
    a, out_win = apply_u_axis_array(np.eye(len(window)), 0, param, window)
    # C order keeps the summation order of products like `dv @ a` fixed
    return np.ascontiguousarray(a), out_win


def basis_norm_sq_grid(
    factors: tuple[SeriesParam, ...], windows: tuple[IndexWindow, ...]
) -> np.ndarray:
    """Product of the squared basis norms ||u(k_j)||^2 over the windows."""
    return reduce(np.multiply.outer, map(basis_norm_sq_array, factors, windows))


def weight_grids(
    factors: tuple[SeriesParam, ...], windows: tuple[IndexWindow, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(1 + sum mu + 2|k|^2) grid and the product of squared basis norms."""
    base = 1.0 + float(sum(p.mu for p in factors))
    ks = [w.indices().astype(np.float64) for w in windows]
    q = reduce(np.add.outer, [2.0 * k * k for k in ks])
    return base + q, basis_norm_sq_grid(factors, windows)


def sobolev_norm_array(
    factors: tuple[SeriesParam, ...],
    windows: tuple[IndexWindow, ...],
    coeffs: np.ndarray,
    t: float | tuple[float, ...],
) -> float | np.ndarray:
    """sqrt of sum (1 + sum mu_j + 2|k|^2)^t |f(k)|^2 prod ||u(k_j)||^2.

    The windows index the trailing axes of `coeffs`; leading axes are a
    batch, normed item by item.  A tuple of orders adds a trailing axis, one
    entry per order, each bitwise the value of that order alone; |f|^2 and
    the grids are built once.  Without a batch, one order gives a float.
    """
    orders = t if isinstance(t, tuple) else (t,)
    axes = tuple(range(-len(windows), 0))
    mag2 = np.abs(coeffs)
    np.square(mag2, out=mag2)
    if any(s != 0.0 for s in orders):
        qgrid, w2 = weight_grids(factors, windows)
    else:
        w2 = basis_norm_sq_grid(factors, windows)
    norms = np.empty(mag2.shape[: mag2.ndim - len(windows)] + (len(orders),))
    term = mag2 if len(orders) == 1 else np.empty_like(mag2)
    for i, s in enumerate(orders):
        # a weight past the float range gives inf, and inf * 0 nan, silently:
        # the callers turn a norm that is not finite into a typed failure
        with np.errstate(over="ignore", invalid="ignore"):
            if s == 0.0:
                np.multiply(mag2, w2, out=term)
            else:  # (1 + Q)^s goes into term, unless term is |f|^2 itself
                weight = qgrid**s if term is mag2 else np.power(qgrid, s, out=term)
                np.multiply(mag2, weight, out=term)
                term *= w2
        norms[..., i] = np.sqrt(np.sum(term, axis=axes))
    out = norms if isinstance(t, tuple) else norms[..., 0]
    return float(out) if out.ndim == 0 else out
