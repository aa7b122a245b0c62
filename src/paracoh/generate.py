"""Seeded random inputs: smooth-vector surrogates, coboundaries, closed forms.

Coefficients are i.i.d. complex Gaussian damped by (1+Q)^(-decay) so that
high Sobolev norms stay finite at desk scale; `margin` zeroes a band at the
truncation edges so the generator action cannot spill outside the window.
The lowest-weight edge of a discrete factor is a true boundary of the index
set, not a truncation cut, so no margin is applied there.

`random_coeff_chunks` draws whole items a chunk at a time (`tensor.item_chunks`),
continuing one normal stream: `random_coeffs` fills a batch from it, batch
axis first, so `random_tensor` is a batch of one and a batch holds the items
that as many single draws give.  The regularity sweep holds one chunk at a time.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from . import forms, repn, tensor
from .forms import LeafwiseForm
from .params import IndexWindow, Kind, MultiParam, SeriesParam
from .tensor import TensorCoeffs


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _edge_mask(param: SeriesParam, window: IndexWindow, margin: int) -> np.ndarray:
    keep = np.ones(len(window), dtype=bool)
    if margin > 0:
        keep[-margin:] = False
        if not (param.kind is Kind.DISCRETE and window.lo == param.n):
            keep[:margin] = False
    return keep


def random_vector(
    param: SeriesParam,
    window: IndexWindow,
    rng: np.random.Generator,
    decay: float = 4.0,
    margin: int = 2,
) -> TensorCoeffs:
    """Rank-1 random element of one irreducible."""
    q = 1.0 + repn.weight_q_array(param, window.indices())
    coeffs = _complex_normal(rng, len(window)) * q ** (-decay)
    coeffs[~_edge_mask(param, window, margin)] = 0.0
    return TensorCoeffs(MultiParam((param,)), (window,), coeffs)


def random_coeff_chunks(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    rng: np.random.Generator,
    count: int,
    decay: float = 4.0,
    margin: int = 2,
    out: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield `count` random coefficient arrays on `windows` a chunk of whole
    items at a time (`tensor.item_chunks`), batch axis first, each into its
    slice of `out` if one is given, else into one buffer that the next chunk
    overwrites.  Normals of shape (items, 2) + window shape give item b its
    real part [b, 0] and imaginary part [b, 1], so every item is that of
    `count` calls of `random_tensor`."""
    damp = repn.weight_grids(params.factors, windows)[0] ** (-decay)
    masks = []
    for j, (p, w) in enumerate(zip(params.factors, windows)):
        shape = [1] * params.d
        shape[j] = len(w)
        masks.append(_edge_mask(p, w, margin).reshape(shape))
    chunks = tensor.item_chunks(count, damp.size)
    if out is None:  # one buffer: a chunk allocated anew each time faulted in fresh pages
        buf = np.empty((chunks[0].stop if chunks else 0,) + damp.shape, dtype=np.complex128)
    for chunk in chunks:
        z = rng.standard_normal((chunk.stop - chunk.start, 2) + damp.shape)
        part = buf[: chunk.stop - chunk.start] if out is None else out[chunk]
        np.multiply(1j, z[:, 1], out=part)
        part += z[:, 0]
        part /= np.sqrt(2.0)
        part *= damp
        for mask in masks:
            part *= mask
        del z
        yield part


def random_coeffs(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    rng: np.random.Generator,
    count: int,
    decay: float = 4.0,
    margin: int = 2,
) -> np.ndarray:
    """`count` random coefficient arrays on `windows`, batch axis first,
    drawn chunk by chunk into one array by `random_coeff_chunks`."""
    coeffs = np.empty((count,) + tuple(len(w) for w in windows), dtype=np.complex128)
    for _ in random_coeff_chunks(params, windows, rng, count, decay, margin, out=coeffs):
        pass
    return coeffs


def random_tensor(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    rng: np.random.Generator,
    decay: float = 4.0,
    margin: int = 2,
) -> TensorCoeffs:
    """A batch of one from `random_coeffs`."""
    arr = random_coeffs(params, windows, rng, 1, decay, margin)[0]
    return TensorCoeffs(params, tuple(windows), arr)


def random_kernel_tensor(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    rng: np.random.Generator,
    decay: float = 4.0,
    margin: int = 2,
) -> TensorCoeffs:
    return tensor.kernel_project(random_tensor(params, windows, rng, decay, margin))


def random_coboundary_vector(
    param: SeriesParam,
    window: IndexWindow,
    rng: np.random.Generator,
    decay: float = 4.0,
    margin: int = 3,
) -> tuple[TensorCoeffs, TensorCoeffs]:
    """Rank-1 (f, g0) with f = U g0 re-windowed onto `window`; f is a coboundary."""
    g0 = random_vector(param, window, rng, decay, max(margin, 2))
    f = tensor.apply_U_factor(g0, 0).embedded((window,))
    return f, g0


def random_coboundary_tensor(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    rng: np.random.Generator,
    decay: float = 4.0,
    margin: int = 3,
) -> tuple[TensorCoeffs, list[TensorCoeffs]]:
    """(f, [h_i]) with f = sum_i U_i h_i on the original windows."""
    arrs = random_coeffs(params, windows, rng, params.d, decay, max(margin, 2))
    hs = [TensorCoeffs(params, tuple(windows), arr) for arr in arrs]
    terms = [(1, h.coeffs, h.windows, i - params.d) for i, h in enumerate(hs)]
    f, hull = tensor.u_sum(params.factors, terms)
    return TensorCoeffs(params, tuple(windows), tensor.embed_array(f, hull, windows)), hs


def random_form(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    degree: int,
    rng: np.random.Generator,
    decay: float = 4.0,
    margin: int = 2,
) -> LeafwiseForm:
    every = list(itertools.combinations(range(params.d), degree))
    arrs = random_coeffs(params, windows, rng, len(every), decay, margin)
    return LeafwiseForm(degree, params, tuple(windows), dict(zip(every, arrs)))


def random_closed_form(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    degree: int,
    rng: np.random.Generator,
    decay: float = 4.0,
    margin: int = 3,
) -> tuple[LeafwiseForm, LeafwiseForm]:
    """(w, eta_true) with w = d(eta_true): closed to machine precision."""
    if not 1 <= degree <= params.d:
        raise ValueError(f"degree {degree} out of range")
    eta = random_form(params, windows, degree - 1, rng, decay, max(margin, 2))
    return forms.exterior_derivative(eta), eta
