"""Single-irreducible layer: frozen examples plus the structural oracles.

Skew-adjointness of the generator against the basis norms is the oracle
validating both derived ingredients at once; the invariant-functional
checks live in test_distributions.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paracoh as pc
from paracoh import (
    IndexWindow,
    InvalidIndex,
    MultiParam,
    ParamMismatch,
    SeriesParam,
    TensorCoeffs,
    apply_U_factor,
    basis_norm_sq,
    basis_vector,
    default_window,
    inner_product,
    tensor_sobolev_norm,
)
from paracoh.experiments import skew_defect
from paracoh.params import Kind
from paracoh.rational import u_action_exact
from paracoh.repn import (
    basis_norm_sq_array,
    sobolev_norm_array,
    u_matrix,
    weight_grids,
    weight_q_array,
)
from paracoh.tensor import zeros


def _vec(p: SeriesParam, win: IndexWindow, coeffs) -> TensorCoeffs:
    """Rank-1 element of one irreducible."""
    return TensorCoeffs(MultiParam((p,)), (win,), coeffs)


def _at(f: TensorCoeffs, k: int) -> complex:
    """Rank-1 coefficient at basis index k, zero outside the window."""
    w = f.windows[0]
    return complex(f.coeffs[k - w.lo]) if k in w else 0j


def test_casimir_examples():
    assert SeriesParam.principal(1.0).mu == pytest.approx(0.5)
    assert SeriesParam.discrete(1).mu == pytest.approx(0.0)
    assert SeriesParam.complementary(0.5).mu == pytest.approx(3 / 16)


def test_weight_examples():
    assert weight_q_array(SeriesParam.principal(1.0), 0) == pytest.approx(0.5)
    assert weight_q_array(SeriesParam.discrete(1), 1) == pytest.approx(2.0)
    assert weight_q_array(SeriesParam.complementary(0.5), 3) == pytest.approx(3 / 16 + 18)


def test_basis_norm_examples():
    assert basis_norm_sq(SeriesParam.principal(3.0), 17) == 1.0
    # unitarity-oracle value: ratio -conj(c-(1))/c+(0) = (1-nu)/(1+nu) at nu=1/2
    assert basis_norm_sq(SeriesParam.complementary(0.5), 1) == pytest.approx(1 / 3)
    assert basis_norm_sq(SeriesParam.complementary(0.5), -1) == pytest.approx(1 / 3)
    assert basis_norm_sq(SeriesParam.discrete(1), 2) == pytest.approx(0.5)
    with pytest.raises(InvalidIndex):
        basis_norm_sq(SeriesParam.discrete(3), 2)


def test_basis_norm_array_matches_scalar(grid):
    for p in grid:
        win = default_window(p, 12)
        arr = basis_norm_sq_array(p, win)
        for k in win.indices():
            assert arr[k - win.lo] == pytest.approx(basis_norm_sq(p, int(k)), rel=1e-13)


def test_apply_u_discrete_example():
    p = SeriesParam.discrete(1)
    g = apply_U_factor(basis_vector(p, 1), 0)
    assert _at(g, 1) == pytest.approx(1j)
    assert _at(g, 2) == pytest.approx(-1j)
    assert g.windows[0].lo == 1  # lowest weight never undershot


def test_apply_u_nu_zero_example():
    p = SeriesParam.principal(0.0)
    g = apply_U_factor(basis_vector(p, 0), 0)
    assert _at(g, -1) == pytest.approx(0.25j)
    assert _at(g, 1) == pytest.approx(-0.25j)
    assert _at(g, 0) == 0


def test_apply_u_linearity_zero(grid):
    for p in grid:
        win = default_window(p, 6)
        g = apply_U_factor(zeros(MultiParam((p,)), (win,)), 0)
        assert tensor_sobolev_norm(g, 0.0) == 0.0


def test_discrete_lowest_weight_never_undershot(rng):
    p = SeriesParam.discrete(3)
    win = default_window(p, 16)
    f = _vec(p, win, (rng.standard_normal(len(win)) + 0j))
    g = apply_U_factor(f, 0)
    assert g.windows[0].lo == 3


def test_discrete_window_above_lowest_weight(rng):
    # windows need not start at the lowest weight; expansion stays valid
    p = SeriesParam.discrete(2)
    win = IndexWindow(7, 20)
    f = _vec(p, win, rng.standard_normal(len(win)) + 0j)
    g = apply_U_factor(f, 0)
    assert g.windows[0] == IndexWindow(6, 21)
    a, wout = u_matrix(p, win)
    assert wout == IndexWindow(6, 21)
    assert a.shape == (16, 14)


def test_sobolev_norm_examples():
    p = SeriesParam.principal(1.0)
    f = basis_vector(p, 0)
    # weight (1+mu+2k^2)^t: single term (3/2)^2, then the square root
    assert tensor_sobolev_norm(f, 2.0) == pytest.approx(1.5)
    assert tensor_sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(1.5))
    assert tensor_sobolev_norm(zeros(MultiParam((p,)), (IndexWindow(-2, 2),)), 3.0) == 0.0
    q = SeriesParam.complementary(0.5)
    assert tensor_sobolev_norm(basis_vector(q, 1), 0.0) == pytest.approx(np.sqrt(1 / 3))


def test_sobolev_negative_order():
    p = SeriesParam.principal(1.0)
    f = basis_vector(p, 5)
    assert tensor_sobolev_norm(f, -2.0) == pytest.approx((1 + 0.5 + 50) ** -1.0)


def test_inner_product():
    p = SeriesParam.principal(2.0)
    w = IndexWindow(-2, 2)
    assert inner_product(basis_vector(p, 0, w), basis_vector(p, 0, w)) == pytest.approx(1.0)
    assert inner_product(basis_vector(p, 0, w), basis_vector(p, 1, w)) == 0.0
    q = SeriesParam.complementary(0.5)
    v = basis_vector(q, 1)
    assert inner_product(v, v) == pytest.approx(1 / 3)
    with pytest.raises(ParamMismatch):
        inner_product(basis_vector(p, 0), basis_vector(q, 0))


def _skew_defect(p: SeriesParam, k: int) -> float:
    win = default_window(p, k)
    a, wout = u_matrix(p, win)
    w2o = basis_norm_sq_array(p, wout)
    b = a * w2o[:, None]
    sel = slice(win.lo - wout.lo, win.hi - wout.lo + 1)
    m = b[sel, :].T
    d = m + m.conj().T
    scale = np.maximum(np.abs(m), np.abs(m.conj().T))
    return float(np.max(np.abs(d) / np.maximum(scale, 1.0)))


def test_skew_adjointness_grid(grid):
    for p in grid:
        assert _skew_defect(p, 64) <= 1e-12, p.label()


@pytest.mark.parametrize("k", [16, 64, 128])
def test_banded_skew_defect_matches_dense(grid, k):
    # the report's banded check reads the same value as the dense matrices
    for p in grid:
        assert skew_defect(p, k) == _skew_defect(p, k), p.label()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["principal", "complementary", "discrete"]),
    val=st.floats(min_value=0.02, max_value=0.98),
    n=st.integers(min_value=1, max_value=9),
    k=st.integers(min_value=8, max_value=40),
)
def test_skew_adjointness_random_params(kind, val, n, k):
    if kind == "principal":
        p = SeriesParam.principal(val * 20)
    elif kind == "complementary":
        p = SeriesParam.complementary(val)
    else:
        p = SeriesParam.discrete(n)
    assert _skew_defect(p, k) <= 1e-12


def test_derivative_norm_constant(grid, rng):
    # ||U f||_t <= C ||f||_{t+1} with one constant C <= 4 across the grid
    from paracoh.generate import random_vector

    worst = 0.0
    for p in grid:
        win = default_window(p, 48)
        for t in (0.0, 1.0, 2.0):
            for _ in range(5):
                f = random_vector(p, win, rng, decay=2.0)
                uf = apply_U_factor(f, 0)
                worst = max(worst, tensor_sobolev_norm(uf, t) / tensor_sobolev_norm(f, t + 1.0))
    assert worst <= 4.0


def test_embedded_guards_support():
    p = SeriesParam.principal(1.0)
    v = basis_vector(p, 3, IndexWindow(0, 4))
    with pytest.raises(ValueError):
        v.embedded((IndexWindow(0, 2),))
    w = v.embedded((IndexWindow(-1, 6),))
    assert _at(w, 3) == 1.0


@pytest.mark.parametrize(
    "p, kind, nu, n",
    [
        (SeriesParam.principal(0.0), Kind.PRINCIPAL, Fraction(0), None),
        (SeriesParam.complementary(0.5), Kind.COMPLEMENTARY, Fraction(1, 2), None),
        (SeriesParam.discrete(2), Kind.DISCRETE, Fraction(3), 2),
    ],
    ids=["principal(nu=0i)", "complementary(nu=0.5)", "discrete(n=2)"],
)
def test_u_matrix_matches_exact_action(p, kind, nu, n):
    # the one float stencil against the independent rational oracle; at these
    # nu every entry is a dyadic rational, so the comparison is exact
    for k in range(17):
        win = default_window(p, k)
        a, wout = u_matrix(p, win)
        for col, j in enumerate(win.indices()):
            want = np.zeros(len(wout), dtype=np.complex128)
            for idx, c in u_action_exact(kind, nu, n, int(j)).items():
                want[idx - wout.lo] = 1j * float(c)
            assert np.array_equal(a[:, col], want), (k, int(j))


def _norm_sq_loop(p: SeriesParam, k: int) -> float:
    """The displayed product formulas, factor by factor."""
    out = 1.0
    if p.kind is Kind.COMPLEMENTARY:
        for i in range(1, abs(k) + 1):
            out *= (2 * i - 1 - p.nu.real) / (2 * i - 1 + p.nu.real)
    elif p.kind is Kind.DISCRETE:
        for j in range(1, k - p.n + 1):
            out *= j / (2 * p.n - 1 + j)
    return out


def test_basis_norm_array_matches_loop(grid):
    # the array code multiplies the same factors in the same order: bitwise
    for p in grid:
        win = default_window(p, 40)
        assert basis_norm_sq_array(p, win).tolist() == [
            _norm_sq_loop(p, int(k)) for k in win.indices()
        ]


def _weight_grids_loop(factors, windows):
    """The full-size broadcasting loop `weight_grids` replaced, kept as the reference."""
    d = len(factors)
    base = 1.0 + float(sum(p.mu for p in factors))
    q = np.zeros(tuple(len(w) for w in windows))
    w2 = np.ones(tuple(len(w) for w in windows))
    for j, (p, w) in enumerate(zip(factors, windows)):
        shape = [1] * d
        shape[j] = len(w)
        ks = w.indices().astype(np.float64)
        q = q + (2.0 * ks * ks).reshape(shape)
        w2 = w2 * basis_norm_sq_array(p, w).reshape(shape)
    return base + q, w2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_weight_grids_match_broadcast_loop(d, rng):
    # the outer-product chains add and multiply the same factors in the same
    # order as the loop, so grids and norms agree bitwise
    kinds = (SeriesParam.principal(1.5), SeriesParam.complementary(0.7), SeriesParam.discrete(2))
    for start in range(3):
        factors = tuple(kinds[(start + j) % 3] for j in range(d))
        windows = tuple(default_window(p, 6) for p in factors)
        got, ref = weight_grids(factors, windows), _weight_grids_loop(factors, windows)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        coeffs = rng.normal(size=ref[0].shape) + 1j * rng.normal(size=ref[0].shape)
        mag2 = np.abs(coeffs) ** 2
        assert sobolev_norm_array(factors, windows, coeffs, 0.0) == float(
            np.sqrt(np.sum(mag2 * ref[1]))
        )
        assert sobolev_norm_array(factors, windows, coeffs, 1.5) == float(
            np.sqrt(np.sum(ref[0] ** 1.5 * mag2 * ref[1]))
        )
