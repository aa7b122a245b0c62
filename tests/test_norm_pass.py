"""One weighted-norm pass: every order of a Sobolev norm from one call.

`repn.sobolev_norm_array` takes a tuple of orders and must give, bitwise,
what each order gets alone; the solvers norm each array once for all of
their orders, which the counting test pins.
"""

import collections
import itertools

import numpy as np
import pytest

from paracoh import MultiParam, SeriesParam, default_window, repn
from paracoh.forms import form_sobolev_norm, solve_primitive
from paracoh.generate import random_closed_form, random_coeffs, random_form, random_kernel_tensor
from paracoh.solver import solve_top, verify_solution

SERIES = (
    SeriesParam.principal(1.0),
    SeriesParam.complementary(0.5),
    SeriesParam.discrete(2),
)
ORDERS = (1.0, 0.0, 2.5, 0.5, 0.0)


def _bitwise(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [None, 3])
def test_tuple_of_orders_is_bitwise_each_order(d, batch):
    rng = np.random.default_rng(np.random.SeedSequence([41, d]))
    k = {1: 12, 2: 6, 3: 4, 4: 3}[d]
    for factors in itertools.product(SERIES, repeat=d):
        params = MultiParam(factors)
        windows = tuple(default_window(p, k) for p in factors)
        arr = random_coeffs(params, windows, rng, batch or 1, decay=1.0, margin=0)
        if batch is None:
            arr = arr[0]
        both = repn.sobolev_norm_array(factors, windows, arr, ORDERS)
        lead = () if batch is None else (batch,)
        assert both.shape == lead + (len(ORDERS),)
        for i, t in enumerate(ORDERS):
            one = repn.sobolev_norm_array(factors, windows, arr, t)
            assert isinstance(one, float) == (batch is None)
            assert _bitwise(both[..., i], one), (factors, t)
        zeros = repn.sobolev_norm_array(factors, windows, arr, (0.0, 0.0))
        assert _bitwise(zeros[..., 1], repn.sobolev_norm_array(factors, windows, arr, 0.0))


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_form_norm_tuple_is_bitwise_each_order(degree, rng):
    params = MultiParam(SERIES)
    windows = tuple(default_window(p, 5) for p in params.factors)
    w = random_form(params, windows, degree, rng, decay=1.0, margin=0)
    both = form_sobolev_norm(w, ORDERS)
    assert both.shape == (len(ORDERS),)
    for i, t in enumerate(ORDERS):
        one = form_sobolev_norm(w, t)
        assert isinstance(one, float) and _bitwise(both[i], one)


class _GridBuilds:
    """Counts the weight-grid builds: (1 + Q) grids by window tuple, and the
    basis-norm grids built outside of them."""

    def __init__(self, monkeypatch):
        self.weight = collections.Counter()
        self.basis = collections.Counter()
        inside = []
        weight_grids, basis_grid = repn.weight_grids, repn.basis_norm_sq_grid

        def count_weight(factors, windows):
            self.weight[tuple(windows)] += 1
            inside.append(True)
            try:
                return weight_grids(factors, windows)
            finally:
                inside.pop()

        def count_basis(factors, windows):
            if not inside:
                self.basis[tuple(windows)] += 1
            return basis_grid(factors, windows)

        monkeypatch.setattr(repn, "weight_grids", count_weight)
        monkeypatch.setattr(repn, "basis_norm_sq_grid", count_basis)


def test_verify_solution_norms_each_array_once(monkeypatch, rng):
    params = MultiParam(SERIES[:2])
    windows = tuple(default_window(p, 8) for p in params.factors)
    f = random_kernel_tensor(params, windows, rng)
    g_list, _ = solve_top(f)
    builds = _GridBuilds(monkeypatch)
    verify_solution(f, g_list, (1.0, 2.0))
    # f at (0, sigma_2(1), sigma_2(2)) and each g_i at (1, 2): one build each
    assert builds.weight == collections.Counter([f.windows] + [g.windows for g in g_list])
    # ||f||_0 comes from that pass: f's windows get one more build, the
    # residual's middle cell
    assert builds.basis[f.windows] == 1


def test_solve_primitive_norms_each_component_once(monkeypatch, rng):
    params = MultiParam(SERIES)
    windows = tuple(default_window(p, 4) for p in params.factors)
    w, _ = random_closed_form(params, windows, 2, rng)
    builds = _GridBuilds(monkeypatch)
    eta, _ = solve_primitive(w)
    # w's three components at (0, varsigma_3(1), varsigma_3(2)), eta's three at (1, 2)
    assert builds.weight == collections.Counter({w.windows: 3, eta.windows: 3})
    # closedness reuses ||w||_0 from that pass
    assert builds.basis[w.windows] == 0
