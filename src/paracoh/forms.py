"""Leafwise differential forms for the product action, and their primitives.

A degree-n form assigns a coefficient tensor to every increasing n-tuple of
axes (0-based).  Component arrays always carry all d index axes; the tuple
records which generators the form eats.  The exterior derivative is

    (d w)(a_0, ..., a_n) = sum_p (-1)^p U_{a_p} w(..., a_p omitted, ...),

and d o d = 0 because the per-axis actions commute.

Primitives of closed forms are found by the axis-0 slicing recursion: solve
the sub-problem on the axis-0 slices (top-degree solve when the degree fills
the remaining axes), form the invariant remainder theta for the components
containing axis 0, recurse on the slices of theta, and assemble.  The
recursion carries a leading batch axis on every component array: all axis-0
slices of all forms in the batch go to one recursive call, so the number of
least-squares calls does not grow with the window.  Every top-degree slice
is solved on its own windows, so only the U_0 in each remainder widens a
window, by one index: eta is wider than w by at most one index per axis,
unless the joint fallback below runs on its padded windows.  For degree 1
the remainder is a joint-invariant 0-form which must vanish; each form is
gated by its own ||theta||_0, and a marginal defect sends that form alone to
one joint least-squares solve over all axes.  A form's norm is the root sum of
its components' squared `repn.sobolev_norm_array` norms, each component
normed once for all orders: `solve_primitive` norms w once for ||w||_0 and
every varsigma_d(t), and eta once for every t.

A primitive solve holds its input, its output and one level's workspace.
The closedness defect ||d w||_0 and the residual ||d eta - w||_0 are summed
one component at a time, in `itertools.combinations` order, each component
made by `tensor.u_sum`, as in `exterior_derivative` and theta, and dropped
once normed.  The recursion negates theta in its own buffer, hands each dict
of arrays it only passes on to the level below, which empties it once used,
and drops every eta1 array once it is embedded in the assembled output.
Above degree 1 a level returns on zeta's windows, which cover eta1's, so
the zeta arrays go up as they are and no hull is formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import repn, tensor
from .errors import InvalidIndex, NoConvergence, NotClosed, ThetaNotVanishing
from .params import IndexWindow, MultiParam, check_window, expand_window
from .solver import (
    SolveOptions,
    SolveReport,
    _solve_top_rec,
    sigma_schedule,
    sobolev_ratios,
)
from .tensor import TensorCoeffs

if TYPE_CHECKING:
    import scipy.sparse as sp

Axes = tuple[int, ...]


@dataclass(frozen=True)
class LeafwiseForm:
    """Degree-n leafwise form; all components share params and windows."""

    degree: int
    params: MultiParam
    windows: tuple[IndexWindow, ...]
    components: dict[Axes, np.ndarray]

    def __post_init__(self):
        d = self.params.d
        n = self.degree
        if not 0 <= n <= d:
            raise ValueError(f"degree {n} out of range for d={d}")
        expected = set(itertools.combinations(range(d), n))
        if set(self.components) != expected:
            raise ValueError(
                f"degree-{n} form over d={d} needs components exactly at {sorted(expected)}"
            )
        windows = tuple(self.windows)
        object.__setattr__(self, "windows", windows)
        for p, w in zip(self.params.factors, windows):
            check_window(p, w)
        shape = tuple(len(w) for w in windows)
        comps = {}
        for axes, arr in self.components.items():
            a = np.ascontiguousarray(arr, dtype=np.complex128)
            if a.shape != shape:
                raise ValueError(f"component {axes} has shape {a.shape}, want {shape}")
            a.setflags(write=False)
            comps[axes] = a
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return self.params.d

    def component_tensor(self, axes: Axes) -> TensorCoeffs:
        return TensorCoeffs(self.params, self.windows, self.components[axes].copy())


def zero_form(params: MultiParam, windows: tuple[IndexWindow, ...], degree: int) -> LeafwiseForm:
    shape = tuple(len(w) for w in windows)
    comps = {
        axes: np.zeros(shape, dtype=np.complex128)
        for axes in itertools.combinations(range(params.d), degree)
    }
    return LeafwiseForm(degree, params, windows, comps)


def form_from_function(f: TensorCoeffs) -> LeafwiseForm:
    """Wrap a coefficient tensor as the top-degree form it determines."""
    return LeafwiseForm(f.d, f.params, f.windows, {tuple(range(f.d)): f.coeffs.copy()})


def form_sobolev_norm(w: LeafwiseForm, t: float | tuple[float, ...]) -> float | np.ndarray:
    """sqrt of the sum of the components' squared norms; `t` is one order or a
    tuple of orders, as in `repn.sobolev_norm_array`."""
    orders = t if isinstance(t, tuple) else (t,)
    norms = _form_norms(w.params.factors, w.windows, w.components, w.components.get, orders)
    return norms if isinstance(t, tuple) else float(norms[0])


def form_norm0(w: LeafwiseForm) -> float:
    return form_sobolev_norm(w, 0.0)


def _form_norms(factors, windows, keys, component, orders) -> np.ndarray:
    """Per order, the norm of the form whose component at each key is
    component(key) on `windows`: the squares add in key order, and each
    component is made, normed and dropped before the next."""
    totals = [0.0] * len(orders)
    for key in keys:
        norms = repn.sobolev_norm_array(factors, windows, component(key), orders).tolist()
        totals = [total + norm**2 for total, norm in zip(totals, norms)]
    return np.sqrt(totals)


def _d_windows(w: LeafwiseForm) -> tuple[IndexWindow, ...]:
    """The windows of d w: every window of w grown by one."""
    if w.degree >= w.d:
        raise ValueError(f"cannot differentiate a degree-{w.degree} form when d={w.d}")
    return tuple(expand_window(p, win, 1) for p, win in zip(w.params.factors, w.windows))


def _d_terms(w: LeafwiseForm, axes: Axes) -> list:
    """The `tensor.u_sum` terms of component `axes` of d w, in the order of
    `axes`: (-1)^p U_{a_p} w(axes without a_p)."""
    return [((-1) ** pos, w.components[axes[:pos] + axes[pos + 1 :]], w.windows, axis - w.d)
            for pos, axis in enumerate(axes)]


def _d_component(w: LeafwiseForm, axes: Axes, windows: tuple[IndexWindow, ...]) -> np.ndarray:
    """Component `axes` of d w on `windows`, which cover d w's."""
    return tensor.u_sum(w.params.factors, _d_terms(w, axes), windows)[0]


def exterior_derivative(w: LeafwiseForm) -> LeafwiseForm:
    """Degree n+1 form; every window grows by one."""
    windows = _d_windows(w)
    comps = {axes: _d_component(w, axes, windows)
             for axes in itertools.combinations(range(w.d), w.degree + 1)}
    return LeafwiseForm(w.degree + 1, w.params, windows, comps)


def _closedness_defect(w: LeafwiseForm) -> float:
    """||d w||_0, one component of d w at a time."""
    windows = _d_windows(w)
    keys = itertools.combinations(range(w.d), w.degree + 1)
    return float(_form_norms(w.params.factors, windows, keys,
                             lambda axes: _d_component(w, axes, windows), (0.0,))[0])


def is_closed(w: LeafwiseForm, tol: float = 1e-10) -> tuple[bool, float]:
    """(closed?, absolute defect ||d w||_0); closed iff defect <= tol*||w||_0."""
    defect = _closedness_defect(w)
    return defect <= tol * form_norm0(w), defect


def _primitive_residual(eta: LeafwiseForm, w: LeafwiseForm) -> float:
    """||d eta - w||_0 on the hull of their windows, one component at a time:
    each is d eta's component with w's subtracted last."""
    hull = tensor.hull(_d_windows(eta), w.windows)

    def component(axes: Axes) -> np.ndarray:
        terms = _d_terms(eta, axes) + [(-1, w.components[axes], w.windows, None)]
        return tensor.u_sum(w.params.factors, terms, hull)[0]

    keys = itertools.combinations(range(w.d), w.degree)
    return float(_form_norms(w.params.factors, hull, keys, component, (0.0,))[0])


def restrict_form(w: LeafwiseForm, axis: int, k: int) -> LeafwiseForm:
    """Forget the components containing `axis`, restrict the rest at index k.

    Restriction follows the projection convention: coefficients pick up the
    basis-norm factor of the fixed index.  Axes above `axis` shift down.
    """
    if not 0 <= axis < w.d:
        raise InvalidIndex(f"axis {axis} out of range for d={w.d}")
    if w.degree > w.d - 1:
        raise InvalidIndex("top-degree forms have no components away from any axis")
    win = w.windows[axis]
    if k not in win:
        raise InvalidIndex(f"index {k} outside window [{win.lo}, {win.hi}]")
    scale = np.sqrt(repn.basis_norm_sq(w.params.factors[axis], k))
    comps = {}
    for axes, arr in w.components.items():
        if axis in axes:
            continue
        sliced = np.take(arr, k - win.lo, axis=axis) * scale
        comps[tuple(a - 1 if a > axis else a for a in axes)] = sliced
    return LeafwiseForm(
        w.degree,
        w.params.drop(axis),
        w.windows[:axis] + w.windows[axis + 1 :],
        comps,
    )


VARSIGMA_2 = 4.0


def varsigma_schedule(t: float, d: int) -> float:
    """Sobolev loss for lower-degree primitives.

    Two factors: t + VARSIGMA_2.  Above that the recursion takes the max of
    vs_{d-1}(vs_{d-1}(t)+t+1), vs_{d-1}(t)+t, and sigma_{d-1}(t)+t.
    """
    if t <= 0:
        raise ValueError(f"needs t > 0, got {t}")
    if d < 2:
        raise ValueError(f"needs d >= 2, got {d}")
    if d == 2:
        return t + VARSIGMA_2
    inner = varsigma_schedule(t, d - 1)
    a = varsigma_schedule(inner + t + 1.0, d - 1)
    b = inner + t
    top = sigma_schedule(t, d - 1) + t
    return max(a, b, top)


# --- the primitive recursion --------------------------------------------------


def _top_degree_slice(
    sub_params: MultiParam,
    sub_windows: tuple[IndexWindow, ...],
    f_arr: np.ndarray,
    opts: SolveOptions,
    scale: float,
) -> tuple[dict[Axes, np.ndarray], tuple[IndexWindow, ...]]:
    """Primitives of a batch of top-degree forms over the remaining axes, via
    the coboundary solve, on the forms' windows; component at (all axes
    except p) gets sign (-1)^p, in the solve's own arrays."""
    sols = _solve_top_rec(sub_params, sub_windows, f_arr, opts, scale)
    every = tuple(range(sub_params.d))
    comps = {every[:p] + every[p + 1 :]: np.multiply(arr, (-1.0) ** p, out=arr)
             for p, arr in enumerate(sols)}
    return comps, sub_windows


def _primitive_rec(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    comps: dict[Axes, np.ndarray],
    n: int,
    opts: SolveOptions,
    scale: float,
) -> tuple[dict[Axes, np.ndarray], tuple[IndexWindow, ...]]:
    """Primitives of a batch of closed degree-n forms (1 <= n <= d-1), axes
    0-based; every component array has the batch axis first.

    Above degree 1 the call empties `comps` once its remainder theta is
    made, and the dicts it hands down are emptied in turn, so an array only
    a dict holds is freed as soon as it is used.  A level then holds its
    input, its output and its own workspace.
    """
    d = params.d
    batch = next(iter(comps.values())).shape[0]
    sub_params = params.drop(0)
    sub_windows = windows[1:]
    w0 = windows[0]

    # eta1: the forgotten-axis problem on every axis-0 slice of every form,
    # one batch item per (form, slice)
    sub = {
        tuple(a - 1 for a in axes): _unfold(arr)
        for axes, arr in comps.items()
        if 0 not in axes
    }
    if n == d - 1:
        got = _top_degree_slice(sub_params, sub_windows, sub[tuple(range(d - 1))], opts, scale)
    else:
        got = _primitive_rec(sub_params, sub_windows, sub, n, opts, scale)
    eta1_comps, eta1_sub_windows = _stack_slices(got, batch)
    del got  # eta1_comps holds the only references
    eta1_windows = (w0,) + eta1_sub_windows

    # theta: the components containing axis 0, minus U_0 eta1, which goes
    # first so that theta is allocated after the stencil's workspace is freed
    theta_comps: dict[Axes, np.ndarray] = {}
    for axes in itertools.combinations(range(1, d), n - 1):
        theta_comps[axes], theta_windows = tensor.u_sum(params.factors, [
            (-1, eta1_comps[tuple(a - 1 for a in axes)], eta1_windows, -d),
            (1, comps[(0,) + axes], windows, None),
        ])

    if n == 1:
        # theta is a 0-form invariant under every remaining generator: it must
        # vanish.  Per form, by its own ||theta||_0: accept eta1, fall back to
        # a joint solve of that form alone, or fail.
        norms = repn.sobolev_norm_array(params.factors, theta_windows, theta_comps[()], 0.0)
        accept = norms <= opts.tol_residual * scale
        fallback = ~accept & (norms <= np.sqrt(opts.tol_residual) * scale)
        failed = np.flatnonzero(~(accept | fallback))
        if len(failed):
            raise ThetaNotVanishing(
                f"invariant remainder has norm {norms[failed[0]]:.3e} "
                f"(budget {opts.tol_residual * scale:.3e}); input may not be closed"
            )
        eta, wins = eta1_comps[()], eta1_windows
        for b in np.flatnonzero(fallback):
            one = {axes: arr[b] for axes, arr in comps.items()}
            got, joint_wins = _joint_degree1_solve(
                params, windows, one, opts, eta1_comps[()][b], eta1_windows
            )
            # the joint solve's windows cover eta1's, which it starts from
            eta, wins = tensor.embed_array(eta, wins, joint_wins), joint_wins
            eta[b] = got[()]
        return {(): eta}, wins
    comps.clear()

    # zeta: primitives of the theta slices, recursed at degree n-1.  The
    # assembled components containing axis 0 enter d(eta) through -d(zeta_k),
    # so zeta solves for the negated remainder, negated in theta's buffer.
    sub = {tuple(a - 1 for a in axes): _unfold(np.negative(arr, out=arr))
           for axes, arr in theta_comps.items()}
    del theta_comps  # sub holds the only references, which the recursion drops
    got = _primitive_rec(sub_params, theta_windows[1:], sub, n - 1, opts, scale)
    del sub
    zeta_comps, zeta_sub_windows = _stack_slices(got, batch)
    del got
    zeta_windows = (theta_windows[0],) + zeta_sub_windows

    # assemble on zeta's windows, which cover eta1's: theta's cover eta1's
    # with axis 0 widened, and a primitive's cover its input's.  Tuples with
    # axis 0 take zeta slices as they are, the rest take eta1, each dropped
    # once it is embedded.
    out = {}
    for axes in itertools.combinations(range(d), n - 1):
        if axes[0] == 0:
            out[axes] = zeta_comps.pop(tuple(a - 1 for a in axes[1:]))
        else:
            arr = eta1_comps.pop(tuple(a - 1 for a in axes))
            out[axes] = tensor.embed_array(arr, eta1_windows, zeta_windows)
    return out, zeta_windows


def _unfold(arr: np.ndarray) -> np.ndarray:
    """Batch items and their axis-0 slices as one batch axis."""
    return arr.reshape((-1,) + arr.shape[2:])


def _stack_slices(
    got: tuple[dict[Axes, np.ndarray], tuple[IndexWindow, ...]], batch: int
) -> tuple[dict[Axes, np.ndarray], tuple[IndexWindow, ...]]:
    """Fold a batch of axis-0 slices back into axis 0 of `batch` items."""
    comps, wins = got
    return {key: arr.reshape((batch, -1) + arr.shape[1:]) for key, arr in comps.items()}, wins


def _axis_operator_sparse(
    params: MultiParam, windows: tuple[IndexWindow, ...], axis: int
) -> tuple[sp.csr_matrix, tuple[IndexWindow, ...]]:
    """Sparse matrix of U_axis from `windows` to the axis-expanded windows."""
    import scipy.sparse as sp  # the joint fallback alone needs it; kept off import
    mats = []
    out_windows = []
    for j, (p, w) in enumerate(zip(params.factors, windows)):
        if j == axis:
            a, w_out = repn.u_matrix(p, w)
            mats.append(sp.csr_matrix(a))
            out_windows.append(w_out)
        else:
            mats.append(sp.identity(len(w), dtype=np.complex128, format="csr"))
            out_windows.append(w)
    op = mats[0]
    for m in mats[1:]:
        op = sp.kron(op, m, format="csr")
    return op, tuple(out_windows)


def _joint_degree1_solve(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    comps: dict[Axes, np.ndarray],
    opts: SolveOptions,
    init: np.ndarray,
    init_windows: tuple[IndexWindow, ...],
) -> tuple[dict[Axes, np.ndarray], tuple[IndexWindow, ...]]:
    """Stacked least squares for U_j eta = w((j,)), all axes at once, on the
    padded windows widened to cover the starting point's."""
    import scipy.sparse as sp  # the joint fallback alone needs it; kept off import
    from scipy.sparse.linalg import lsmr
    d = params.d
    padded = tuple(expand_window(p, w, opts.pad) for p, w in zip(params.factors, windows))
    g_windows = tensor.hull(padded, init_windows)
    blocks = []
    rhs_parts = []
    col_scale = None
    for j in range(d):
        op, out_wins = _axis_operator_sparse(params, g_windows, j)
        w_out = _weight_vector(params, out_wins)
        w_in = _weight_vector(params, g_windows)
        blocks.append(sp.diags(w_out) @ op @ sp.diags(1.0 / w_in))
        col_scale = w_in
        rhs = tensor.embed_array(comps[(j,)], windows, out_wins).ravel()
        rhs_parts.append(rhs * w_out)
    a = sp.vstack(blocks, format="csr")
    b = np.concatenate(rhs_parts)
    x0 = tensor.embed_array(init, init_windows, g_windows).ravel() * col_scale
    res = lsmr(a, b, x0=x0, atol=1e-14, btol=1e-14, maxiter=5000)
    x = res[0] / col_scale
    return {(): x.reshape(tuple(len(w) for w in g_windows))}, g_windows


def _weight_vector(params: MultiParam, windows: tuple[IndexWindow, ...]) -> np.ndarray:
    w = np.ones(1)
    for p, win in zip(params.factors, windows):
        w = np.kron(w, np.sqrt(repn.basis_norm_sq_array(p, win)))
    return w


def solve_primitive(
    w: LeafwiseForm, opts: SolveOptions = SolveOptions()
) -> tuple[LeafwiseForm, SolveReport]:
    """Primitive eta with d(eta) = w, for closed w of degree 1..d-1.

    Raises NotClosed on the precondition, ThetaNotVanishing when the
    degenerate branch's invariant remainder survives, NoConvergence when
    the assembled residual misses the tolerance or a Sobolev norm of a
    ratio is not finite.
    """
    n, d = w.degree, w.d
    if d < 2 or not 1 <= n <= d - 1:
        raise ValueError(f"solve_primitive needs d >= 2 and 1 <= degree <= d-1, got n={n}, d={d}")
    w_norms = form_sobolev_norm(w, (0.0,) + tuple(varsigma_schedule(t, d) for t in opts.t_list))
    wn0, denoms = float(w_norms[0]), w_norms[1:].tolist()
    defect = _closedness_defect(w)
    if not defect <= opts.tol_kernel * wn0:  # as is_closed decides
        raise NotClosed(
            f"||d w||_0 = {defect:.3e} exceeds {opts.tol_kernel:.1e} * ||w||_0"
        )
    if wn0 == 0.0:
        eta = zero_form(w.params, w.windows, n - 1)
        return eta, SolveReport(0.0, 0.0, defect, {t: 0.0 for t in opts.t_list})
    batch = {axes: arr[None] for axes, arr in w.components.items()}
    comps, hull = _primitive_rec(w.params, w.windows, batch, n, opts, wn0)
    eta = LeafwiseForm(n - 1, w.params, hull, {axes: arr[0] for axes, arr in comps.items()})
    residual = _primitive_residual(eta, w)
    if residual > opts.tol_residual * wn0:
        raise NoConvergence(
            f"primitive residual {residual:.3e} above {opts.tol_residual:.1e} * ||w||_0"
        )
    nums = form_sobolev_norm(eta, tuple(opts.t_list)).tolist()
    return eta, SolveReport(residual, wn0, defect, sobolev_ratios(opts.t_list, nums, denoms))
