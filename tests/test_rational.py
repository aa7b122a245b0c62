"""Exact-arithmetic identities at rational nu: zero means identically zero."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paracoh import MultiParam, SeriesParam, default_window, solve_top
from paracoh.params import Kind
from paracoh.rational import (
    dist_invariance_defect_exact,
    dist_value_exact,
    pairing_matrix_exact,
    phi_exact,
    solve_u_exact,
    u_action_exact,
)
from paracoh.tensor import TensorCoeffs

POINTS = [
    (Kind.PRINCIPAL, Fraction(0), None),
    (Kind.COMPLEMENTARY, Fraction(1, 2), None),
    (Kind.DISCRETE, Fraction(3), 2),
]


def test_invariance_exact():
    for kind, nu, n in POINTS:
        lo = n if kind is Kind.DISCRETE else -12
        for k in range(lo, 13):
            for tag in ("+", "-"):
                assert dist_invariance_defect_exact(kind, nu, n, tag, k) == 0


@given(num=st.integers(min_value=-19, max_value=19), den=st.integers(min_value=20, max_value=40),
       k=st.integers(min_value=-10, max_value=10))
def test_invariance_exact_random_rational_nu(num, den, k):
    nu = Fraction(num, den)  # |nu| < 1
    kind = Kind.PRINCIPAL if nu == 0 else Kind.COMPLEMENTARY
    for tag in ("+", "-"):
        assert dist_invariance_defect_exact(kind, nu, None, tag, k) == 0


def test_pairing_exact():
    one, zero = Fraction(1), Fraction(0)
    assert pairing_matrix_exact(Kind.PRINCIPAL, Fraction(0)) == [[one, zero], [zero, one]]
    assert pairing_matrix_exact(Kind.COMPLEMENTARY, Fraction(1, 2)) == [[one, zero], [zero, one]]
    assert pairing_matrix_exact(Kind.DISCRETE, Fraction(3), 2) == [[one, zero], [zero, zero]]


def test_lowest_weight_annihilated_exact():
    act = u_action_exact(Kind.DISCRETE, Fraction(3), 2, 2)
    assert set(act) == {2, 3}  # no index below the lowest weight


def test_dist_values_exact_match_displays():
    assert dist_value_exact(Kind.COMPLEMENTARY, Fraction(1, 2), None, "-", 2) == Fraction(5, 21)
    assert dist_value_exact(Kind.PRINCIPAL, Fraction(0), None, "-", 2) == Fraction(4, 3)
    assert dist_value_exact(Kind.DISCRETE, Fraction(3), 2, "-", 5) == 0


def test_phi_exact_displays():
    v = phi_exact(Kind.COMPLEMENTARY, Fraction(1, 2), None, "+")
    assert v == {0: Fraction(-1, 2), 1: Fraction(3, 2)}


def _kernel_exact(kind, nu, n, lo, hi, rng):
    """Small integers on [lo, hi], moved at its first one or two indices so
    that every invariant functional vanishes on them exactly."""
    f = {k: Fraction(int(x)) for k, x in zip(range(lo, hi + 1), rng.integers(-9, 10, hi - lo + 1))}
    tags = ("+",) if kind is Kind.DISCRETE else ("+", "-")
    m = [[dist_value_exact(kind, nu, n, tag, lo + j) for j in range(len(tags))] for tag in tags]
    rhs = [-sum(c * dist_value_exact(kind, nu, n, tag, k) for k, c in f.items()) for tag in tags]
    if len(tags) == 1:
        fix = [rhs[0] / m[0][0]]
    else:  # Cramer's rule
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        fix = [(rhs[0] * m[1][1] - m[0][1] * rhs[1]) / det,
               (m[0][0] * rhs[1] - rhs[0] * m[1][0]) / det]
    for j, c in enumerate(fix):
        f[lo + j] += c
    assert all(sum(c * dist_value_exact(kind, nu, n, tag, k) for k, c in f.items()) == 0
               for tag in tags)
    return f


@pytest.mark.parametrize("k", [4, 8, 16])
@pytest.mark.parametrize(
    "param, nu",
    [
        (SeriesParam.principal(0.0), Fraction(0)),
        (SeriesParam.complementary(0.5), Fraction(1, 2)),
        (SeriesParam.complementary(-0.5), Fraction(-1, 2)),
        (SeriesParam.complementary(0.9), Fraction(9, 10)),
        (SeriesParam.discrete(1), Fraction(1)),
        (SeriesParam.discrete(3), Fraction(5)),
    ],
    ids=lambda v: v.label() if isinstance(v, SeriesParam) else str(v),
)
def test_recurrence_oracle_matches_solve_top(param, nu, k):
    # the exact solution of U g = f for a kernel f lies on f's window, and the
    # float solve on that window is it to rounding
    kind, n = param.kind, param.n if param.kind is Kind.DISCRETE else None
    win = default_window(param, k)
    f = _kernel_exact(kind, nu, n, win.lo, win.hi, np.random.default_rng(k))
    g = solve_u_exact(kind, nu, n, win.lo, win.hi, f)
    lo = win.lo if kind is Kind.DISCRETE else win.lo - 4
    wide = solve_u_exact(kind, nu, n, lo, win.hi + 4, f)
    assert wide == {j: g.get(j, Fraction(0)) for j in range(lo, win.hi + 5)}
    with pytest.raises(ValueError):  # u(lo) is not in the kernel
        solve_u_exact(kind, nu, n, win.lo, win.hi, {**f, win.lo: f[win.lo] + 1})

    coeffs = np.array([float(f[j]) for j in win.indices()], dtype=np.complex128)
    (got,), _ = solve_top(TensorCoeffs(MultiParam((param,)), (win,), coeffs))
    want = np.array([-1j * float(g[j]) for j in win.indices()])  # U = i A
    assert got.windows == (win,)
    assert np.max(np.abs(got.coeffs - want)) <= 1e-12 * np.max(np.abs(want))
