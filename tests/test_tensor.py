"""Tensor products: norms, per-axis actions, restriction, product functionals."""

import numpy as np
import pytest

from paracoh import (
    InvalidIndex,
    MultiParam,
    SeriesParam,
    Sign,
    TensorCoeffs,
    apply_U_factor,
    default_window,
    kernel_project,
    product_dist_evaluate,
    restrict,
    tensor_sobolev_norm,
    valid_tags,
)
from paracoh.generate import random_tensor
from paracoh.params import IndexWindow
from paracoh.repn import weight_q_array
from paracoh.tensor import kernel_defects, norm0, phi_tensor, slice_axis
from paracoh import basis_vector


def _pp() -> MultiParam:
    return MultiParam((SeriesParam.principal(1.0), SeriesParam.principal(1.0)))


def _basis_tensor(params, windows, ks):
    arr = np.zeros(tuple(len(w) for w in windows), dtype=complex)
    arr[tuple(k - w.lo for k, w in zip(ks, windows))] = 1.0
    return TensorCoeffs(params, windows, arr)


def test_tensor_norm_single_term():
    mp = _pp()
    wins = (IndexWindow(-2, 2), IndexWindow(-2, 2))
    f = _basis_tensor(mp, wins, (0, 0))
    # (1 + 1/2 + 1/2)^(t=1), sqrt
    assert tensor_sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(2.0))
    assert tensor_sobolev_norm(TensorCoeffs(mp, wins, np.zeros((5, 5))), 2.0) == 0.0


def test_tensor_norm_factorizes_at_t0(rng):
    p = SeriesParam.complementary(0.5)
    q = SeriesParam.discrete(1)
    mp = MultiParam((p, q))
    wins = (default_window(p, 8), default_window(q, 8))
    a = rng.standard_normal(len(wins[0])) + 1j * rng.standard_normal(len(wins[0]))
    b = rng.standard_normal(len(wins[1])) + 1j * rng.standard_normal(len(wins[1]))
    f = TensorCoeffs(mp, wins, np.outer(a, b))
    na = norm0(TensorCoeffs(MultiParam((p,)), wins[:1], a))
    nb = norm0(TensorCoeffs(MultiParam((q,)), wins[1:], b))
    assert tensor_sobolev_norm(f, 0.0) == pytest.approx(na * nb)


def test_apply_u_factor_matches_single(rng):
    p = SeriesParam.principal(2.0)
    q = SeriesParam.discrete(1)
    mp = MultiParam((p, q))
    wins = (default_window(p, 6), default_window(q, 6))
    f = _basis_tensor(mp, wins, (0, 1))
    g = apply_U_factor(f, 1)
    gv = apply_U_factor(basis_vector(q, 1, wins[1]), 0)
    for k in g.windows[1].indices():
        assert g.coeffs[wins[0].lo * -1, k - g.windows[1].lo] == pytest.approx(
            gv.coeffs[k - gv.windows[0].lo]
        )


def test_apply_u_factors_commute(rng):
    mp = _pp()
    wins = (IndexWindow(-6, 6), IndexWindow(-6, 6))
    f = random_tensor(mp, wins, rng, margin=0)
    a = apply_U_factor(apply_U_factor(f, 0), 1)
    b = apply_U_factor(apply_U_factor(f, 1), 0)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-13)
    with pytest.raises(InvalidIndex):
        apply_U_factor(f, 2)


def test_product_dist_values_and_invariance(rng):
    mp = _pp()
    wins = (IndexWindow(-8, 8), IndexWindow(-8, 8))
    f = _basis_tensor(mp, wins, (2, -3))
    assert product_dist_evaluate(f, (Sign.PLUS, Sign.PLUS)) == pytest.approx(1.0)
    g = random_tensor(mp, wins, rng, margin=2)
    for i in (0, 1):
        for tag in valid_tags(mp):
            assert abs(product_dist_evaluate(apply_U_factor(g, i), tag)) <= 1e-12 * max(
                norm0(g), 1e-30
            )


def test_phi_tensor_duality():
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5)))
    wins = tuple(default_window(p, 6) for p in mp.factors)
    tags = valid_tags(mp)
    assert len(tags) == 4
    for a in tags:
        fa = phi_tensor(mp, a, wins)
        for b in tags:
            want = 1.0 if a == b else 0.0
            assert product_dist_evaluate(fa, b) == pytest.approx(want, abs=1e-14)


def test_valid_tags_discrete_excludes_minus():
    mp = MultiParam((SeriesParam.discrete(1), SeriesParam.principal(1.0)))
    tags = valid_tags(mp)
    assert len(tags) == 2
    assert all(t[0] is Sign.PLUS for t in tags)


def test_kernel_project(rng):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.discrete(2)))
    wins = tuple(default_window(p, 10) for p in mp.factors)
    f = random_tensor(mp, wins, rng, margin=1)
    kf = kernel_project(f)
    for tag, defect in kernel_defects(kf).items():
        assert defect <= 1e-12 * norm0(f)
    # idempotence
    kf2 = kernel_project(kf)
    assert np.max(np.abs(kf2.coeffs - kf.coeffs)) <= 1e-13 * max(
        np.max(np.abs(kf.coeffs)), 1e-30
    )
    # phi tensors project to zero
    for tag in valid_tags(mp):
        z = kernel_project(phi_tensor(mp, tag, wins))
        assert norm0(z) <= 1e-14


def test_restrict_principal_is_plain_slice(rng):
    mp = _pp()
    wins = (IndexWindow(-5, 5), IndexWindow(-5, 5))
    f = random_tensor(mp, wins, rng, margin=0)
    r = restrict(f, {1: 3})
    s = slice_axis(f, 1, 3)
    assert np.allclose(r.coeffs, s.coeffs)  # norms are 1 in the principal series
    with pytest.raises(InvalidIndex):
        restrict(f, {1: 9})
    with pytest.raises(InvalidIndex):
        restrict(f, {0: 0, 1: 0})


def test_projection_inequalities(rng):
    # both projection inequalities on random tensors, up to 1e-12 slack
    combos = [
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.5)),
        (SeriesParam.complementary(0.9), SeriesParam.discrete(1)),
        (SeriesParam.complementary(-0.5), SeriesParam.principal(0.0)),
    ]
    for facs in combos:
        mp = MultiParam(facs)
        wins = tuple(default_window(p, 8) for p in mp.factors)
        for _ in range(10):
            f = random_tensor(mp, wins, rng, decay=1.5, margin=0)
            tau, sig = 1.0, 1.0
            full_tau = tensor_sobolev_norm(f, tau)
            lhs2 = 0.0
            for k in wins[1].indices():
                r = restrict(f, {1: int(k)})
                assert tensor_sobolev_norm(r, tau) <= full_tau * (1 + 1e-12)
            for k in wins[0].indices():
                r = restrict(f, {0: int(k)})
                lhs2 += (1 + weight_q_array(mp.factors[0], int(k))) ** tau * tensor_sobolev_norm(
                    r, sig
                ) ** 2
            assert lhs2 <= tensor_sobolev_norm(f, tau + sig) ** 2 * (1 + 1e-12)

