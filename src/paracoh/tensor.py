"""d-fold tensor products: multi-indexed coefficients and product functionals.

`TensorCoeffs` is the package's one coefficient type: a dense complex array
with one axis per factor, axis j indexed by window_j.  An element of a
single irreducible is the rank-1 case (d = 1); it is solved by `solve_top`,
normed by `tensor_sobolev_norm`, paired by `product_dist_evaluate` and
saved by `serialize.tensor_to_json` like any other.  Per-axis generator
actions, the norm-weighted restriction (which multiplies in the basis norms
of the fixed indices), product invariant functionals, and the joint-kernel
projector live here.

The per-axis action is `repn.apply_u_axis_array`, imported here by name; it
is the package's only copy of the generator stencil.  The norm is
`repn.sobolev_norm_array` on the tensor's factors.  `hull` is the one
window-hull helper, and `u_sum` builds every signed sum of blocks and
per-axis actions: sum_i U_i g_i - f, d w, d eta - w, theta, a coboundary.
The product functionals and the kernel projector work on arrays whose
leading axes are a batch (`product_dist_array`, `kernel_project_array`);
the `TensorCoeffs` functions are a batch of one.  The projector subtracts
c Phi item by item through one item-sized scratch, and `item_chunks` cuts a
batch into the whole-item chunks that `generate.random_coeffs` and
`solver.regularity_array` work through, so a check sweep holds its batch
and a fixed scratch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import repn
from .distributions import Sign
from .errors import InvalidIndex, ParamMismatch
from .params import IndexWindow, MultiParam, SeriesParam, check_window, expand_window
from .repn import apply_u_axis_array


@dataclass(frozen=True)
class TensorCoeffs:
    """Truncated element of a d-fold tensor product."""

    params: MultiParam
    windows: tuple[IndexWindow, ...]
    coeffs: np.ndarray

    def __post_init__(self):
        windows = tuple(self.windows)
        object.__setattr__(self, "windows", windows)
        if len(windows) != self.params.d:
            raise ValueError(f"{len(windows)} windows for d={self.params.d}")
        for p, w in zip(self.params.factors, windows):
            check_window(p, w)
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        shape = tuple(len(w) for w in windows)
        if arr.shape != shape:
            raise ValueError(f"coefficient shape {arr.shape} != window shape {shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def d(self) -> int:
        return self.params.d

    def embedded(self, windows: tuple[IndexWindow, ...]) -> "TensorCoeffs":
        """Zero-fill into larger (or shifted) windows covering the support."""
        arr = embed_array(self.coeffs, self.windows, windows)
        return TensorCoeffs(self.params, tuple(windows), arr)


def zeros(params: MultiParam, windows: tuple[IndexWindow, ...]) -> TensorCoeffs:
    shape = tuple(len(w) for w in windows)
    return TensorCoeffs(params, tuple(windows), np.zeros(shape, dtype=np.complex128))


def basis_vector(param: SeriesParam, k: int, window: IndexWindow | None = None) -> TensorCoeffs:
    """The rank-1 basis element u(k), optionally embedded in a given window."""
    param.check_index(k)
    if window is None:
        window = IndexWindow(k, k)
    coeffs = np.zeros(len(window), dtype=np.complex128)
    coeffs[k - window.lo] = 1.0
    return TensorCoeffs(MultiParam((param,)), (window,), coeffs)


def embed_array(
    arr: np.ndarray,
    old: tuple[IndexWindow, ...],
    new: tuple[IndexWindow, ...],
) -> np.ndarray:
    """Re-window a dense array; raises if nonzero support would be dropped.

    The windows index the trailing axes; leading axes (a batch) are kept.
    """
    if len(old) != len(new):
        raise ValueError("rank mismatch")
    lead = arr.shape[: arr.ndim - len(old)]
    out = np.zeros(lead + tuple(len(w) for w in new), dtype=np.complex128)
    src, dst = [...], [...]
    for wo, wn in zip(old, new):
        lo, hi = max(wo.lo, wn.lo), min(wo.hi, wn.hi)
        if lo > hi:
            if np.any(arr != 0):
                raise ValueError("windows do not overlap the support")
            return out
        src.append(slice(lo - wo.lo, hi - wo.lo + 1))
        dst.append(slice(lo - wn.lo, hi - wn.lo + 1))
    out[tuple(dst)] = arr[tuple(src)]
    kept = np.zeros(arr.shape, dtype=bool)
    kept[tuple(src)] = True
    if np.any(arr[~kept] != 0):
        raise ValueError("target windows do not cover the support")
    return out


def hull(*window_tuples: tuple[IndexWindow, ...]) -> tuple[IndexWindow, ...]:
    """Per-axis smallest windows covering every given tuple of windows."""
    return tuple(
        IndexWindow(min(w.lo for w in axis), max(w.hi for w in axis))
        for axis in zip(*window_tuples)
    )


def sub_slices(
    windows: tuple[IndexWindow, ...], outer: tuple[IndexWindow, ...]
) -> tuple[slice, ...]:
    """Index of the block `windows` inside an array on `outer` (which covers it)."""
    return tuple(slice(w.lo - o.lo, w.hi - o.lo + 1) for w, o in zip(windows, outer))


def u_sum(
    factors: tuple[SeriesParam, ...],
    terms: list[tuple[int, np.ndarray, tuple[IndexWindow, ...], int | None]],
    windows: tuple[IndexWindow, ...] | None = None,
) -> tuple[np.ndarray, tuple[IndexWindow, ...]]:
    """Signed sum of blocks and per-axis generator actions: (array, windows).

    A term (sign, arr, arr_windows, axis) is sign * arr, or sign * U_axis arr
    for a negative axis; arr_windows index arr's trailing axes, and leading
    axes are a batch.  The sum is on `windows`, which cover every term, or on
    the terms' hull, where U_axis widens `axis` by one.  Terms are added or
    subtracted in place in the order given, each U-term made only then; the
    sum is allocated once the first term is made.
    """
    placed = []
    for _, _, wins, axis in terms:
        if axis is not None:
            wins = list(wins)
            wins[axis] = expand_window(factors[axis], wins[axis])
        placed.append(tuple(wins))
    if windows is None:
        windows = hull(*placed)
    lead = terms[0][1].shape[: terms[0][1].ndim - len(windows)]
    out = None
    for (sign, arr, wins, axis), at in zip(terms, placed):
        if axis is not None:
            arr, _ = apply_u_axis_array(arr, axis, factors[axis], wins[axis])
        if out is None:  # a first U-term's stencil workspace is freed by now
            out = np.zeros(lead + tuple(len(w) for w in windows), dtype=np.complex128)
        view = out[(...,) + sub_slices(at, windows)]
        (np.add if sign > 0 else np.subtract)(view, arr, out=view)
    return out, windows


# entries a batched kernel works through at once (512 KiB of complex
# coefficients): whole items, at least one
CHUNK_ENTRIES = 1 << 15


def item_chunks(count: int, item_entries: int) -> list[slice]:
    """Slices of a batch of `count` items of `item_entries` entries each:
    whole items, CHUNK_ENTRIES entries together, or one item if it is larger."""
    step = max(1, CHUNK_ENTRIES // max(1, item_entries))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def add(a: TensorCoeffs, b: TensorCoeffs, scale: complex = 1.0) -> TensorCoeffs:
    """a + scale*b on the union windows."""
    if a.params != b.params:
        raise ParamMismatch("tensor params differ")
    wins = hull(a.windows, b.windows)
    arr = embed_array(a.coeffs, a.windows, wins) + scale * embed_array(b.coeffs, b.windows, wins)
    return TensorCoeffs(a.params, wins, arr)


def tensor_sobolev_norm(f: TensorCoeffs, t: float) -> float:
    """sqrt of sum (1 + sum mu_j + 2|k|^2)^t |f(k)|^2 prod ||u(k_j)||^2."""
    return repn.sobolev_norm_array(f.params.factors, f.windows, f.coeffs, t)


def norm0(f: TensorCoeffs) -> float:
    return tensor_sobolev_norm(f, 0.0)


def inner_product(f: TensorCoeffs, g: TensorCoeffs) -> complex:
    """sum f(k) conj(g(k)) prod ||u(k_j)||^2 over the window intersection."""
    if f.params != g.params:
        raise ParamMismatch(f"{f.params.label()} vs {g.params.label()}")
    if any(max(a.lo, b.lo) > min(a.hi, b.hi) for a, b in zip(f.windows, g.windows)):
        return 0.0 + 0.0j
    common = tuple(a.intersect(b) for a, b in zip(f.windows, g.windows))
    fs = f.coeffs[sub_slices(common, f.windows)]
    gs = g.coeffs[sub_slices(common, g.windows)]
    w2 = repn.basis_norm_sq_grid(f.params.factors, common)
    return complex(np.sum(fs * np.conj(gs) * w2))


def apply_U_factor(f: TensorCoeffs, axis: int) -> TensorCoeffs:
    """Per-factor generator action U_axis (0-based axis)."""
    if not 0 <= axis < f.d:
        raise InvalidIndex(f"axis {axis} out of range for d={f.d}")
    arr, out_win = apply_u_axis_array(
        f.coeffs, axis, f.params.factors[axis], f.windows[axis]
    )
    wins = list(f.windows)
    wins[axis] = out_win
    return TensorCoeffs(f.params, tuple(wins), arr)


def slice_axis(f: TensorCoeffs, axis: int, k: int) -> TensorCoeffs:
    """Raw coefficient slice at one fixed index (no norm factor)."""
    if not 0 <= axis < f.d:
        raise InvalidIndex(f"axis {axis} out of range for d={f.d}")
    if f.d == 1:
        raise InvalidIndex("cannot slice a rank-1 tensor to rank 0")
    w = f.windows[axis]
    if k not in w:
        raise InvalidIndex(f"index {k} outside window [{w.lo}, {w.hi}] on axis {axis}")
    arr = np.take(f.coeffs, k - w.lo, axis=axis)
    wins = f.windows[:axis] + f.windows[axis + 1 :]
    return TensorCoeffs(f.params.drop(axis), wins, arr.copy())


def restrict(f: TensorCoeffs, fixed: dict[int, int]) -> TensorCoeffs:
    """Projection onto the unfixed factors, times prod ||u(k_j)|| over fixed j.

    `fixed` maps 0-based axes to basis indices.  Matches the projection
    used by the norm inequalities, where the fixed-index basis norms are
    multiplied into the remaining coefficients.
    """
    if not fixed:
        return f
    axes = sorted(fixed)
    if len(axes) >= f.d:
        raise InvalidIndex("at least one axis must remain")
    scale = 1.0
    out = f
    for axis in reversed(axes):
        k = fixed[axis]
        p, w = out.params.factors[axis], out.windows[axis]
        if k not in w:
            raise InvalidIndex(f"index {k} outside window on axis {axis}")
        scale *= np.sqrt(repn.basis_norm_sq(p, k))
        out = slice_axis(out, axis, k)
    return TensorCoeffs(out.params, out.windows, out.coeffs * scale)


MultiTag = tuple[Sign, ...]


def valid_tags(params: MultiParam) -> list[MultiTag]:
    """All product functionals; discrete factors contribute Plus only."""
    choices = [dist.valid_signs(p) for p in params.factors]
    return list(itertools.product(*choices))


def product_dist_array(
    factors: tuple[SeriesParam, ...],
    windows: tuple[IndexWindow, ...],
    arr: np.ndarray,
    tag: MultiTag,
) -> np.ndarray:
    """sum_k arr[..., k] prod_j D^{tag_j}(u(k_j)) over the trailing axes.

    The windows index the trailing axes; leading axes are a batch and are
    kept.  Each factor is contracted by a matmul over the batch, which gives
    every item the sums it gets alone.
    """
    if len(tag) != len(windows):
        raise ValueError(f"tag length {len(tag)} != d={len(windows)}")
    lead = arr.shape[: arr.ndim - len(windows)]
    out = arr.reshape((-1,) + arr.shape[len(lead) :])
    batch = out.shape[0]
    for p, w, s in zip(factors[:-1], windows[:-1], tag[:-1]):
        vals = dist.dist_values_array(p, s, w)
        out = out.reshape(batch, len(w), -1).transpose(0, 2, 1) @ vals
    vals = dist.dist_values_array(factors[-1], tag[-1], windows[-1])
    return (out.reshape(batch, 1, -1) @ vals).reshape(lead)


def product_dist_evaluate(f: TensorCoeffs, tag: MultiTag) -> complex:
    """sum_k f(k) prod_j D^{tag_j}(u(k_j))."""
    return complex(product_dist_array(f.params.factors, f.windows, f.coeffs, tag))


def phi_tensor(params: MultiParam, tag: MultiTag, windows: tuple[IndexWindow, ...]) -> TensorCoeffs:
    """The product dual element Phi_tag = tensor of per-factor phis."""
    vecs = [dist.phi(p, s, w) for p, w, s in zip(params.factors, windows, tag)]
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return TensorCoeffs(params, tuple(windows), out)


def kernel_project_array(
    params: MultiParam, windows: tuple[IndexWindow, ...], arr: np.ndarray
) -> np.ndarray:
    """Remove the Phi components of every item of `arr`, in place.

    Leading axes of `arr` are a batch.  Every functional is evaluated on
    the input before the first subtraction, so each item loses the
    components it had.  c Phi is formed in one item-sized scratch and
    subtracted item by item; an item whose c is 0 is left as it is.
    """
    tags = valid_tags(params)
    coeffs = [product_dist_array(params.factors, windows, arr, tag) for tag in tags]
    lead = arr.shape[: arr.ndim - len(windows)]
    term = np.empty(arr.shape[len(lead) :], dtype=np.complex128)
    for tag, c in zip(tags, coeffs):
        phi_t = phi_tensor(params, tag, windows).coeffs
        for idx in np.ndindex(lead):
            if c[idx] != 0:
                item = arr[idx]  # a view, also of an unbatched arr
                np.subtract(item, np.multiply(c[idx], phi_t, out=term), out=item)
        del phi_t  # before the next tag's is built
    return arr


def kernel_project(f: TensorCoeffs) -> TensorCoeffs:
    """Remove the Phi components so every product functional vanishes."""
    arr = kernel_project_array(f.params, f.windows, f.coeffs.copy())
    return TensorCoeffs(f.params, f.windows, arr)


def kernel_defects(f: TensorCoeffs) -> dict[MultiTag, float]:
    return {tag: abs(product_dist_evaluate(f, tag)) for tag in valid_tags(f.params)}
