"""Invariant functionals, dual elements, and the bound sums.

The brute-force partial sum at a much larger cutoff is the oracle for
dist_order_sum, and mpmath.quad for its tail integral; phi values are
checked against the displayed two-term vectors and the duality conditions.
"""

import numpy as np
import pytest

from paracoh import (
    MultiParam,
    SeriesParam,
    Sign,
    TailNotConverged,
    TensorCoeffs,
    apply_U_factor,
    basis_vector,
    default_window,
    dist_basis_value,
    dist_order_sum,
    phi,
    phi_pairing_matrix,
    phi_sobolev_sum,
    product_dist_evaluate,
)
from paracoh.distributions import _tail_bound, dist_values_array, valid_signs
from paracoh.generate import random_vector
from paracoh.params import IndexWindow
from paracoh.repn import basis_norm_sq_array, weight_q_array


def test_dist_values_examples():
    assert dist_basis_value(SeriesParam.discrete(4), Sign.PLUS, 7) == 1.0
    p = SeriesParam.complementary(0.5)
    assert dist_basis_value(p, Sign.MINUS, 2) == pytest.approx(5 / 21)
    z = SeriesParam.principal(0.0)
    assert dist_basis_value(z, Sign.MINUS, 1) == pytest.approx(1.0)
    assert dist_basis_value(z, Sign.MINUS, 0) == 0.0  # empty sum
    assert dist_basis_value(p, Sign.MINUS, 0) == 1.0  # empty product
    assert dist_basis_value(SeriesParam.discrete(1), Sign.MINUS, 3) == 0.0


def test_dist_minus_symmetric_in_k(grid):
    for p in grid:
        if p.kind.value == "discrete":
            continue
        for k in (1, 2, 7):
            assert dist_basis_value(p, Sign.MINUS, k) == pytest.approx(
                dist_basis_value(p, Sign.MINUS, -k)
            )


def test_complementary_norm_cross_check(grid):
    # |D-(u(m))|^2 = ||u(m)||^4 in the complementary series
    for p in grid:
        if p.kind.value != "complementary":
            continue
        win = default_window(p, 24)
        dv = np.abs(dist_values_array(p, Sign.MINUS, win)) ** 2
        w4 = basis_norm_sq_array(p, win) ** 2
        assert np.allclose(dv, w4, rtol=1e-12)


def test_evaluate_examples():
    p = SeriesParam.principal(2.0)
    w = IndexWindow(0, 1)
    f = basis_vector(p, 0, w).coeffs - basis_vector(p, 1, w).coeffs
    assert product_dist_evaluate(TensorCoeffs(MultiParam((p,)), (w,), f), (Sign.PLUS,)) == 0.0
    q = SeriesParam.complementary(0.5)
    assert product_dist_evaluate(basis_vector(q, 2), (Sign.MINUS,)) == pytest.approx(5 / 21)
    phi_q = TensorCoeffs(MultiParam((q,)), (w,), phi(q, Sign.PLUS, w))
    assert product_dist_evaluate(phi_q, (Sign.MINUS,)) == pytest.approx(0.0, abs=1e-15)


def test_phi_displays():
    q = SeriesParam.complementary(0.5)
    w = IndexWindow(0, 1)  # arrays index k - 0
    v = phi(q, Sign.PLUS, w)
    assert v[0] == pytest.approx(-0.5)
    assert v[1] == pytest.approx(1.5)
    z = SeriesParam.principal(0.0)
    m = phi(z, Sign.MINUS, w)
    assert m[0] == pytest.approx(-1.0)
    assert m[1] == pytest.approx(1.0)
    assert phi(z, Sign.PLUS, w)[0] == pytest.approx(1.0)
    d = SeriesParam.discrete(2)
    vp = phi(d, Sign.PLUS, IndexWindow(2, 4))
    assert vp[0] == 1.0 and np.count_nonzero(vp) == 1
    assert np.all(phi(d, Sign.MINUS, IndexWindow(2, 4)) == 0)


def test_phi_window_must_cover_support():
    q = SeriesParam.complementary(0.5)
    with pytest.raises(ValueError):
        phi(q, Sign.PLUS, IndexWindow(1, 3))
    # zero coefficients may fall outside: phi_+ at nu = 0 is u(0) alone
    z = SeriesParam.principal(0.0)
    assert phi(z, Sign.PLUS, IndexWindow(-2, 0)).tolist() == [0, 0, 1]


def test_pairing_matrix_identity(grid):
    for p in grid:
        m = phi_pairing_matrix(p)
        target = np.eye(2, dtype=complex)
        if p.kind.value == "discrete":
            target[1, 1] = 0
        assert np.max(np.abs(m - target)) <= 1e-13, p.label()


def test_invariance_on_random_vectors(grid, rng):
    for p in grid:
        win = default_window(p, 32)
        for _ in range(3):
            f = random_vector(p, win, rng, decay=2.0, margin=2)
            n0 = np.sqrt(np.sum(np.abs(f.coeffs) ** 2 * basis_norm_sq_array(p, win)))
            for tag in valid_signs(p):
                uf = apply_U_factor(f, 0)
                assert abs(product_dist_evaluate(uf, (tag,))) <= 1e-10 * max(n0, 1e-30)


def _brute_order_sum(p: SeriesParam, t: float, kmax: int) -> float:
    if p.kind.value == "discrete":
        win = IndexWindow(p.n, p.n + kmax)
    else:
        win = IndexWindow(-kmax, kmax)
    q = weight_q_array(p, win.indices())
    w2 = basis_norm_sq_array(p, win)
    total = 0.0
    for tag in valid_signs(p):
        dv = np.abs(dist_values_array(p, tag, win)) ** 2
        total += float(np.sum((1 + q) ** (-t) * dv / w2))
    return total


@pytest.mark.parametrize(
    "param",
    [
        SeriesParam.principal(10.0),
        SeriesParam.principal(0.0),
        SeriesParam.complementary(0.5),
        SeriesParam.complementary(-0.5),
        SeriesParam.discrete(1),
    ],
    ids=lambda p: p.label(),
)
def test_dist_order_sum_against_brute_force(param):
    r = dist_order_sum(param, 2.0, head_max=2048)
    brute = _brute_order_sum(param, 2.0, 60000)
    # oracle sits between the head and the tail-bounded value
    assert r.head <= brute * (1 + 1e-12)
    assert brute <= r.value * (1 + 1e-9)
    assert r.value - r.head <= 0.01 * r.head


def test_dist_order_sum_monotone_in_t():
    p = SeriesParam.principal(3.0)
    vals = [dist_order_sum(p, t).value for t in (1.0, 1.5, 2.0, 3.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dist_order_sum_preconditions():
    with pytest.raises(ValueError):
        dist_order_sum(SeriesParam.principal(1.0), 0.5)
    # discrete series diverges unless t > n
    with pytest.raises(TailNotConverged):
        dist_order_sum(SeriesParam.discrete(2), 2.0)
    r = dist_order_sum(SeriesParam.discrete(2), 3.0)
    assert r.value > 0


def test_discrete_order_sum_example():
    # n=1, t=2: sum_m (1+2(1+m)^2)^-2 / ||u(1+m)||^2 with ||u(1+m)||^2 = 1/(1+m)
    r = dist_order_sum(SeriesParam.discrete(1), 2.0)
    m = np.arange(0, 100000)
    brute = np.sum((1 + 2.0 * (1 + m) ** 2) ** -2.0 * (m + 1))
    assert r.value == pytest.approx(brute, rel=1e-3)


def test_phi_sobolev_sum_examples():
    # discrete: exactly (1+mu+2n^2)^t, ratio 1
    for n in (1, 2, 5):
        for t in (1.0, 2.5):
            r = phi_sobolev_sum(SeriesParam.discrete(n), t)
            assert r.ratio == pytest.approx(1.0)
    # nu = 0 at t = 1: (1+1/4)*2 + (3+1/4)*1 = 5.75
    r = phi_sobolev_sum(SeriesParam.principal(0.0), 1.0)
    assert r.value == pytest.approx(5.75)


def test_phi_sum_blowup_as_nu_to_zero():
    # ratio ~ nu^-2 with the gate bypassed
    r1 = phi_sobolev_sum(SeriesParam.complementary(0.02), 1.0)
    r2 = phi_sobolev_sum(SeriesParam.complementary(0.01), 1.0)
    assert r2.ratio > 3.5 * r1.ratio  # doubling 1/nu quadruples the ratio


def test_phi_sum_monotone_in_t(grid):
    for p in grid:
        a = phi_sobolev_sum(p, 1.0).value
        b = phi_sobolev_sum(p, 2.0).value
        assert b >= a


def test_dist_order_sum_tail_overflow_is_typed():
    # (2n-1+x)^(2n-1) overflows a float inside the tail quadrature at large n
    with pytest.raises(TailNotConverged):
        dist_order_sum(SeriesParam.discrete(60), 62.0)


@pytest.mark.parametrize(
    "param,t", [(SeriesParam.principal(100.0), 100.0), (SeriesParam.discrete(40), 122.0)]
)
def test_dist_order_sum_comparison_underflow_is_typed(param, t):
    # (1+mu[+2n^2])^(1/2-t) underflows to 0 before the tail gives up
    with pytest.raises(TailNotConverged, match="underflows"):
        dist_order_sum(param, t)


def _dist_minus_loop(p: SeriesParam, k: int) -> complex:
    """The displayed D- formulas, term by term."""
    if p.nu == 0:
        return complex(sum(1.0 / (2 * i - 1) for i in range(1, abs(k) + 1)))
    out = 1.0 + 0.0j
    for i in range(1, abs(k) + 1):
        out *= (2 * i - 1 - p.nu) / (2 * i - 1 + p.nu)
    return out


def test_dist_values_array_matches_loop(grid):
    for p in grid:
        win = default_window(p, 40)
        assert np.all(dist_values_array(p, Sign.PLUS, win) == 1.0)
        if p.kind.value == "discrete":
            assert np.all(dist_values_array(p, Sign.MINUS, win) == 0.0)
            continue
        want = np.array([_dist_minus_loop(p, int(k)) for k in win.indices()])
        assert np.allclose(dist_values_array(p, Sign.MINUS, win), want, rtol=1e-13, atol=0)


_TAIL_KMAX = 4096  # dist_order_sum's default head_max


def _mp_tail(mp, p: SeriesParam, t: float, kmax: int):
    """_tail_bound's majorant integral by mpmath.quad, in s = log(x / kmax).

    The integrands are written out again in mpmath; the integral runs over
    breakpoints 0, 1, 2, 4, ..., 4096, inf in s and is normalised by its
    value at s = 0, because mpmath's error target is absolute.
    """
    t = mp.mpf(t)
    mu = mp.mpf(p.mu)
    if p.kind.value == "principal":
        if p.nu == 0:
            def h(x):
                return 2 * (1 + mu + 2 * x * x) ** -t * (1 + (1 + mp.log(2 * x - 1) / 2) ** 2)
        else:
            def h(x):
                return 4 * (1 + mu + 2 * x * x) ** -t
    elif p.kind.value == "complementary":
        w2 = mp.mpf(basis_norm_sq_array(p, IndexWindow(kmax, kmax))[0])
        grow, decay = max(w2, 1 / w2), min(w2, 1 / w2)

        def h(x):
            return 2 * (1 + mu + 2 * x * x) ** -t * (grow * x / kmax + decay)
    else:
        n = p.n

        def h(x):
            growth = (2 * n - 1 + x) ** (2 * n - 1) / mp.factorial(2 * n - 1)
            return (1 + mu + 2 * (n + x) ** 2) ** -t * growth

    scale = h(mp.mpf(kmax)) * kmax
    points = [0] + [2**j for j in range(13)] + [mp.inf]
    return scale * mp.quad(lambda s: h(kmax * mp.exp(s)) * kmax * mp.exp(s) / scale, points)


def _tail_grid():
    """(param, t, threshold): sweep-bounds' 17 integrals, then t near and
    away from the divergence threshold of each tail integrand."""
    grid = [(SeriesParam.principal(float(s)), 2.0, 0.5) for s in np.geomspace(1.0, 100.0, 16)]
    grid.append((SeriesParam.discrete(1), 2.0, 1.0))
    for p, threshold in [
        (SeriesParam.principal(0.0), 0.5),
        (SeriesParam.principal(3.0), 0.5),
        (SeriesParam.complementary(0.5), 1.0),
        (SeriesParam.complementary(-0.5), 1.0),
        (SeriesParam.complementary(0.9), 1.0),
        (SeriesParam.discrete(1), 1.0),
        (SeriesParam.discrete(2), 2.0),
        (SeriesParam.discrete(3), 3.0),
    ]:
        grid += [(p, threshold + dt, threshold) for dt in (0.02, 0.1, 0.5, 1.5, 3.0)]
    return grid


@pytest.mark.parametrize(
    "p,t,threshold",
    _tail_grid(),
    ids=lambda v: v.label() if isinstance(v, SeriesParam) else f"{v:g}",
)
def test_tail_rule_against_mpmath(p, t, threshold):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        ref = _mp_tail(mp, p, t, _TAIL_KMAX)
    rel = float((_tail_bound(p, t, _TAIL_KMAX) - ref) / ref)
    assert rel >= -1e-12  # a majorant, up to rounding
    if t >= threshold + 0.5:
        assert abs(rel) <= 1e-13
