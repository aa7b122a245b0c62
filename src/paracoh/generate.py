"""Seeded random inputs: smooth-vector surrogates, coboundaries, closed forms.

Coefficients are i.i.d. complex Gaussian damped by (1+Q)^(-decay) so that
high Sobolev norms stay finite at desk scale; `margin` zeroes a band at the
truncation edges so the generator action cannot spill outside the window.
The lowest-weight edge of a discrete factor is a true boundary of the index
set, not a truncation cut, so no margin is applied there.

`random_coeffs` returns a batch of coefficient arrays, batch axis first,
from one normal draw; `random_tensor` is a batch of one, and the batch holds
the items that as many successive single draws give.
"""

from __future__ import annotations

import itertools

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


def random_coeffs(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    rng: np.random.Generator,
    count: int,
    decay: float = 4.0,
    margin: int = 2,
) -> np.ndarray:
    """`count` random coefficient arrays on `windows`, batch axis first.

    One normal draw of shape (count, 2) + window shape gives item b its real
    part [b, 0] and imaginary part [b, 1]: the stream, and so every item,
    is that of `count` calls of `random_tensor`.
    """
    qgrid, _ = repn.weight_grids(params.factors, windows)
    z = rng.standard_normal((count, 2) + qgrid.shape)
    coeffs = 1j * z[:, 1]
    coeffs += z[:, 0]
    coeffs /= np.sqrt(2.0)
    coeffs *= qgrid ** (-decay)
    for j, (p, w) in enumerate(zip(params.factors, windows)):
        shape = [1] * params.d
        shape[j] = len(w)
        coeffs *= _edge_mask(p, w, margin).reshape(shape)
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
