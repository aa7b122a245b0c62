"""Coboundary solvers: round trips, obstructions, splitting, schedules."""

import tracemalloc

import numpy as np
import pytest

import paracoh as pc
from paracoh import (
    MultiParam,
    NoConvergence,
    NotInKernel,
    ParamMismatch,
    SeriesParam,
    Sign,
    SolveOptions,
    default_window,
    apply_U_factor,
    sigma_schedule,
    solve_top,
    split,
)
from paracoh.generate import (
    random_coboundary_tensor,
    random_coboundary_vector,
    random_kernel_tensor,
    random_tensor,
)
from paracoh.params import IndexWindow, expand_window
from paracoh.repn import basis_norm_sq_array, u_matrix
from paracoh.solver import (
    _lstsq_rows,
    least_squares_probe,
    obstruction_certificate,
    regularity_check,
    verify_solution,
)
from paracoh.tensor import (
    TensorCoeffs,
    basis_vector,
    norm0,
    phi_tensor,
    slice_axis,
    valid_tags,
    zeros,
)
from paracoh.distributions import dist_values_array, valid_signs


def test_sigma_schedule_values():
    assert sigma_schedule(2.0, 1) == pytest.approx(5.0)
    assert sigma_schedule(2.0, 2) == pytest.approx(14.5)
    assert sigma_schedule(1.0, 3) == pytest.approx(2 * (10.5 + 1) + 0.5)
    # monotone in t and d
    for d in (1, 2, 3):
        assert sigma_schedule(2.0, d) > sigma_schedule(1.0, d)
    for t in (0.5, 1.0, 2.0):
        assert sigma_schedule(t, 3) > sigma_schedule(t, 2) > sigma_schedule(t, 1)
    with pytest.raises(ValueError):
        sigma_schedule(-1.0, 2)
    with pytest.raises(ValueError):
        sigma_schedule(1.0, 0)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(pad=1)
    with pytest.raises(ValueError):
        SolveOptions(tol_residual=0.0)


def test_degree1_round_trip(grid, rng):
    opts = SolveOptions(pad=4)
    for p in grid:
        win = default_window(p, 48)
        for _ in range(3):
            f, g0 = random_coboundary_vector(p, win, rng)
            (g,), rep = solve_top(f, opts)
            assert rep.residual_interior <= 1e-8 * rep.f_norm0, p.label()
            # residual recomputed independently of the solver's own report
            ug = apply_U_factor(g, 0)
            diff = ug.coeffs - f.embedded(ug.windows).coeffs
            direct = norm0(TensorCoeffs(f.params, ug.windows, diff))
            assert direct <= 1e-8 * rep.f_norm0


def test_degree1_zero_input():
    p = SeriesParam.principal(1.0)
    (g,), rep = solve_top(zeros(MultiParam((p,)), (IndexWindow(-8, 8),)))
    assert norm0(g) == 0.0 and rep.residual_interior == 0.0


def test_degree1_obstruction_discrete():
    p = SeriesParam.discrete(1)
    f = basis_vector(p, 1, default_window(p, 32))
    with pytest.raises(NotInKernel):
        solve_top(f)


def test_degree1_obstruction_residual_bounded_below():
    # the minus functional on a complementary factor has slowly growing
    # dual norm, so the least-squares residual stays well above zero
    p = SeriesParam.complementary(0.9)
    win = default_window(p, 256)
    f = TensorCoeffs(MultiParam((p,)), (win,), pc.phi(p, Sign.MINUS, win))
    probe = least_squares_probe(f, SolveOptions(pad=8))
    assert probe.residual >= 0.1 * probe.f_norm0
    assert probe.residual_refined >= 0.1 * probe.f_norm0


def test_split_identities(rng):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5)))
    wins = tuple(default_window(p, 16) for p in mp.factors)
    f = random_kernel_tensor(mp, wins, rng)
    parts = split(f)
    # decomposition exact up to one floating addition per entry
    recon = parts.f_otimes.coeffs + parts.f_d.coeffs
    tol = 1e-15 * float(np.max(np.abs(f.coeffs)))
    assert np.max(np.abs(recon - f.coeffs)) <= tol
    # phi tensor splits to itself
    ft = phi_tensor(mp, (Sign.MINUS, Sign.PLUS), wins)
    pt = split(ft)
    assert np.allclose(pt.f_otimes.coeffs, ft.coeffs, atol=1e-15)
    assert norm0(pt.f_d) <= 1e-15
    # zero amplitudes leave f untouched: last-factor rows built to pair to
    # zero with both functionals (generalized cross product on 3 indices)
    dv_p = dist_values_array(mp.factors[1], Sign.PLUS, wins[1])
    dv_m = dist_values_array(mp.factors[1], Sign.MINUS, wins[1])
    a, b, c = 3, 7, 11
    v = np.zeros(len(wins[1]), dtype=complex)
    v[a] = dv_p[b] * dv_m[c] - dv_p[c] * dv_m[b]
    v[b] = dv_p[c] * dv_m[a] - dv_p[a] * dv_m[c]
    v[c] = dv_p[a] * dv_m[b] - dv_p[b] * dv_m[a]
    assert abs(v @ dv_p) <= 1e-14 and abs(v @ dv_m) <= 1e-14
    lead = rng.standard_normal(len(wins[0])) + 1j * rng.standard_normal(len(wins[0]))
    h = TensorCoeffs(mp, wins, np.outer(lead, v))
    ph = split(h)
    assert norm0(ph.f_otimes) <= 1e-12 * norm0(h)
    assert np.allclose(ph.f_d.coeffs, h.coeffs, atol=1e-14)


def test_split_slice_kernel_property(rng):
    # every f_otimes slice annihilates the leading product functionals and
    # every f_d slice annihilates the last factor's functionals
    mp = MultiParam(
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.5), SeriesParam.discrete(1))
    )
    wins = tuple(default_window(p, 10) for p in mp.factors)
    f = random_kernel_tensor(mp, wins, rng)
    parts = split(f)
    n0 = norm0(f)
    lead = mp.keep_leading(2)
    for k in wins[2].indices():
        sl = slice_axis(parts.f_otimes, 2, int(k))
        for tag in valid_tags(lead):
            assert abs(pc.product_dist_evaluate(sl, tag)) <= 1e-8 * n0
    rows = parts.f_d.coeffs.reshape(-1, len(wins[2]))
    for tag in valid_signs(mp.factors[2]):
        dv = dist_values_array(mp.factors[2], tag, wins[2])
        assert np.max(np.abs(rows @ dv)) <= 1e-8 * n0


def test_solve_top_d1_delegates():
    p = SeriesParam.principal(1.0)
    rng = np.random.default_rng(5)
    f, _ = random_coboundary_vector(p, default_window(p, 32), rng)
    g_list, rep = solve_top(f)
    assert len(g_list) == 1
    assert rep.residual_interior <= 1e-8 * rep.f_norm0


@pytest.mark.parametrize(
    "factors",
    [
        (SeriesParam.principal(1.0), SeriesParam.principal(2.0)),
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.5)),
        (SeriesParam.complementary(0.9), SeriesParam.discrete(1)),
        (SeriesParam.discrete(1), SeriesParam.discrete(2)),
        (SeriesParam.principal(0.0), SeriesParam.complementary(-0.5)),
    ],
    ids=lambda f: " x ".join(p.label() for p in f),
)
def test_solve_top_round_trip_d2(factors, rng):
    mp = MultiParam(factors)
    wins = tuple(default_window(p, 16) for p in mp.factors)
    for _ in range(20):
        f, hs = random_coboundary_tensor(mp, wins, rng)
        g_list, rep = solve_top(f)
        assert rep.residual_interior <= 1e-6 * rep.f_norm0
    f = random_kernel_tensor(mp, wins, rng)
    g_list, rep = solve_top(f)
    assert rep.residual_interior <= 1e-6 * rep.f_norm0


def test_solve_top_round_trip_d3(rng):
    mp = MultiParam(
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.5), SeriesParam.discrete(1))
    )
    wins = tuple(default_window(p, 8) for p in mp.factors)
    for _ in range(20):
        f, _ = random_coboundary_tensor(mp, wins, rng)
        g_list, rep = solve_top(f)
        assert rep.residual_interior <= 1e-6 * rep.f_norm0
    f2 = random_kernel_tensor(mp, wins, rng)
    _, rep2 = solve_top(f2)
    assert rep2.residual_interior <= 1e-6 * rep2.f_norm0


@pytest.mark.parametrize(
    "factors",
    [
        (SeriesParam.complementary(0.9),),
        (SeriesParam.complementary(0.9), SeriesParam.discrete(1)),
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.5), SeriesParam.discrete(2)),
        (
            SeriesParam.principal(1.0),
            SeriesParam.complementary(0.9),
            SeriesParam.discrete(1),
            SeriesParam.principal(3.0),
        ),
    ],
    ids=lambda f: f"d{len(f)}",
)
def test_solve_top_keeps_solver_windows(factors, rng):
    mp = MultiParam(factors)
    wins = tuple(default_window(p, 4) for p in mp.factors)
    f = random_kernel_tensor(mp, wins, rng)
    g_list, rep = solve_top(f)
    for g in g_list:
        assert g.windows == f.windows
    # zero-filled one index wider on every axis but its own, each U_i g_i
    # stays in the residual's hull, and the verification keeps its bits
    wider = [
        g.embedded(tuple(w if j == i else expand_window(p, w, 1)
                         for j, (p, w) in enumerate(zip(mp.factors, wins))))
        for i, g in enumerate(g_list)
    ]
    rep_wide = verify_solution(f, wider)
    rep_own = verify_solution(f, g_list)
    assert rep_own.residual_interior == rep_wide.residual_interior
    assert rep_own.kernel_defect == rep_wide.kernel_defect
    for t, ratio in rep_wide.sobolev_ratios.items():
        assert rep_own.sobolev_ratios[t] == pytest.approx(ratio, rel=1e-14, abs=0.0)
    assert rep.residual_interior == rep_own.residual_interior


def test_vanishing_amplitude_comes_back_on_f_windows(rng):
    # f = lead (x) (u(4) - u(5)) has F_plus exactly 0, so g_0 = 0; like every
    # g_i it comes back on f's windows, from the first solve
    p0, p1 = SeriesParam.principal(1.0), SeriesParam.discrete(1)
    w0, w1 = default_window(p0, 8), default_window(p1, 8)
    lead = random_tensor(MultiParam((p0,)), (w0,), rng).coeffs
    last = basis_vector(p1, 4, w1).coeffs - basis_vector(p1, 5, w1).coeffs
    f = TensorCoeffs(MultiParam((p0, p1)), (w0, w1), np.multiply.outer(lead, last))
    assert not np.any(split(f).amplitudes[Sign.PLUS].coeffs)  # the premise
    (g0, g1), rep = solve_top(f)
    assert not np.any(g0.coeffs)
    assert g0.windows == g1.windows == (w0, w1) == (IndexWindow(-8, 8), w1)
    assert rep.residual_interior <= 1e-15 * rep.f_norm0
    assert rep.refinements_used == 0


def test_solve_top_obstruction():
    mp = MultiParam((SeriesParam.complementary(0.9), SeriesParam.complementary(0.9)))
    wins = tuple(default_window(p, 32) for p in mp.factors)
    ft = phi_tensor(mp, (Sign.MINUS, Sign.MINUS), wins)
    with pytest.raises(NotInKernel):
        solve_top(ft)
    # certified lower bound on the joint least-squares residual
    lb = obstruction_certificate(ft, pad=8)
    assert lb >= 0.1 * norm0(ft)


def test_obstruction_certificate_below_lsmr_residual():
    # the certificate must genuinely bound the reachable residual from below:
    # assemble the joint operator (g1, g2) -> U1 g1 + U2 g2 into one common
    # output window and minimize with LSMR
    import scipy.sparse as sp
    from scipy.sparse.linalg import lsmr

    from paracoh.forms import _axis_operator_sparse, _weight_vector
    from paracoh.params import expand_window
    from paracoh.tensor import embed_array

    mp = MultiParam((SeriesParam.complementary(0.9), SeriesParam.complementary(0.9)))
    wins = tuple(default_window(p, 10) for p in mp.factors)
    ft = phi_tensor(mp, (Sign.MINUS, Sign.MINUS), wins)
    pad = 4
    g_wins = tuple(expand_window(p, w, pad) for p, w in zip(mp.factors, wins))
    out_common = tuple(expand_window(p, w, 1) for p, w in zip(mp.factors, g_wins))

    def embedding(win_from, win_to):
        m = sp.lil_matrix((len(win_to), len(win_from)), dtype=complex)
        off = win_from.lo - win_to.lo
        for i in range(len(win_from)):
            m[off + i, i] = 1.0
        return m.tocsr()

    w_in = _weight_vector(mp, g_wins)
    w_out = _weight_vector(mp, out_common)
    blocks = []
    for j in range(2):
        op, out_wins = _axis_operator_sparse(mp, g_wins, j)
        lift = sp.kron(
            embedding(out_wins[0], out_common[0]), embedding(out_wins[1], out_common[1])
        )
        blocks.append(sp.diags(w_out) @ lift @ op @ sp.diags(1.0 / w_in))
    a = sp.hstack(blocks, format="csr")
    rhs = embed_array(ft.coeffs, wins, out_common).ravel() * w_out
    res = lsmr(a, rhs, atol=1e-12, btol=1e-12, maxiter=40000)
    achieved = np.linalg.norm(rhs - a @ res[0])
    lb = obstruction_certificate(ft, pad=pad)
    assert lb <= achieved * (1 + 1e-6)
    assert achieved >= 0.1 * norm0(ft)


def test_verify_solution_edges(rng):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.principal(2.0)))
    wins = tuple(default_window(p, 8) for p in mp.factors)
    f = random_kernel_tensor(mp, wins, rng)
    zeros = [pc.tensor.zeros(mp, wins) for _ in range(2)]
    rep = verify_solution(f, zeros)
    assert rep.residual_interior == pytest.approx(norm0(f))
    ft = phi_tensor(mp, (Sign.PLUS, Sign.PLUS), wins)
    rep2 = verify_solution(ft, zeros)
    assert rep2.kernel_defect == pytest.approx(1.0)  # reported, not raised


def _hull_residual(f, g_list):
    """Reference: -f, U_0 g_0, ..., U_{d-1} g_{d-1} added on one hull array."""
    terms = [apply_U_factor(g, i) for i, g in enumerate(g_list)]
    wins = pc.tensor.hull(f.windows, *(u.windows for u in terms))
    resid = np.zeros(tuple(len(w) for w in wins), dtype=np.complex128)
    resid[pc.tensor.sub_slices(f.windows, wins)] -= f.coeffs
    for u in terms:
        resid[pc.tensor.sub_slices(u.windows, wins)] += u.coeffs
    return norm0(TensorCoeffs(f.params, wins, resid))


_TOP_D4 = (
    SeriesParam.principal(1.0),
    SeriesParam.complementary(0.9),
    SeriesParam.discrete(1),
    SeriesParam.principal(3.0),
)


@pytest.mark.parametrize(
    "factors, k",
    [
        ((SeriesParam.complementary(0.5),), 32),
        ((SeriesParam.principal(1.0), SeriesParam.discrete(2)), 12),
        ((SeriesParam.principal(1.0), SeriesParam.complementary(0.5), SeriesParam.discrete(2)), 6),
        (_TOP_D4, 4),
    ],
    ids=lambda v: f"d{len(v)}" if isinstance(v, tuple) else f"K{v}",
)
def test_verify_residual_matches_hull_on_solver_windows(factors, k, rng):
    mp = MultiParam(factors)
    f = random_kernel_tensor(mp, tuple(default_window(p, k) for p in factors), rng)
    g_list, rep = solve_top(f)
    ref = _hull_residual(f, g_list)
    assert ref > 0.0
    assert rep.residual_interior == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert verify_solution(f, g_list).residual_interior == rep.residual_interior


def test_verify_residual_matches_hull_on_irregular_windows(rng):
    factors = (SeriesParam.principal(1.0), SeriesParam.complementary(0.5), SeriesParam.discrete(2))
    mp = MultiParam(factors)
    fw = (IndexWindow(-4, 4), IndexWindow(-3, 5), IndexWindow(2, 8))
    f = random_kernel_tensor(mp, fw, rng)
    cases = {
        # g_0 misses part of f's window on axes 1 and 2
        "narrower": (
            (IndexWindow(-6, 6), IndexWindow(-1, 3), IndexWindow(4, 8)),
            fw,
            fw,
        ),
        # g_0 lies beside f on axis 0, g_1 reaches past f above only (axis 1),
        # g_2 past f below only (axis 0) and short of f on axis 2
        "one-sided": (
            (IndexWindow(6, 9), IndexWindow(-3, 5), IndexWindow(2, 8)),
            (IndexWindow(-4, 4), IndexWindow(-3, 11), IndexWindow(2, 8)),
            (IndexWindow(-7, 4), IndexWindow(-3, 5), IndexWindow(2, 5)),
        ),
    }
    for name, wins in cases.items():
        g_list = [random_tensor(mp, w, rng) for w in wins]
        ref = _hull_residual(f, g_list)
        got = verify_solution(f, g_list).residual_interior
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0), name
    zeros = [pc.tensor.zeros(mp, w) for w in cases["one-sided"]]
    assert verify_solution(f, zeros).residual_interior == pytest.approx(
        _hull_residual(f, zeros), rel=1e-14, abs=0.0
    )


def test_verify_rejects_mismatched_factors(rng):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5)))
    f = random_kernel_tensor(mp, tuple(default_window(p, 8) for p in mp.factors), rng)
    g_list, _ = solve_top(f)
    other = MultiParam((SeriesParam.principal(2.0), SeriesParam.complementary(0.5)))
    relabelled = [TensorCoeffs(other, g.windows, g.coeffs) for g in g_list]
    with pytest.raises(ParamMismatch):
        verify_solution(f, relabelled)
    with pytest.raises(ParamMismatch):
        verify_solution(f, [g_list[0], relabelled[1]])


def test_verify_memory_stays_on_the_residual_support(rng):
    # top_d4's residual hull, f's windows widened by one, holds 68.6k entries
    mp = MultiParam(_TOP_D4)
    f = random_kernel_tensor(mp, tuple(default_window(p, 8) for p in mp.factors), rng)
    g_list, rep = solve_top(f)
    tracemalloc.start()
    try:
        rep_again = verify_solution(f, g_list)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep_again.residual_interior == rep.residual_interior
    assert peak < 32 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_regularity_check(rng):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5)))
    wins = tuple(default_window(p, 12) for p in mp.factors)
    # vanishing amplitudes mean a zero ratio
    dv_p = dist_values_array(mp.factors[1], Sign.PLUS, wins[1])
    dv_m = dist_values_array(mp.factors[1], Sign.MINUS, wins[1])
    v = np.zeros(len(wins[1]), dtype=complex)
    a, b, c = 2, 5, 9
    v[a] = dv_p[b] * dv_m[c] - dv_p[c] * dv_m[b]
    v[b] = dv_p[c] * dv_m[a] - dv_p[a] * dv_m[c]
    v[c] = dv_p[a] * dv_m[b] - dv_p[b] * dv_m[a]
    lead = rng.standard_normal(len(wins[0])) + 0j
    flat = TensorCoeffs(mp, wins, np.outer(lead, v))
    assert regularity_check(flat, 1.0) <= 1e-14
    # dual elements have nonzero amplitudes and a finite recorded ratio
    ft = phi_tensor(mp, (Sign.PLUS, Sign.MINUS), wins)
    assert regularity_check(ft, 1.0) > 0
    vals = [regularity_check(random_kernel_tensor(mp, wins, rng), 1.0) for _ in range(20)]
    assert max(vals) < np.inf and min(vals) >= 0.0
    with pytest.raises(ValueError):
        regularity_check(ft, -1.0)


def test_ratio_stable_under_window_doubling(rng):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5)))
    stats = []
    for k in (12, 24):
        wins = tuple(default_window(p, k) for p in mp.factors)
        worst = {1.0: 0.0, 2.0: 0.0}
        for _ in range(10):
            f = random_kernel_tensor(mp, wins, rng)
            _, rep = solve_top(f)
            for t in worst:
                worst[t] = max(worst[t], rep.sobolev_ratios[t])
        stats.append(worst)
    for t in (1.0, 2.0):
        assert stats[1][t] <= 2.0 * stats[0][t]


def test_mutated_lowering_sign_breaks_invariance():
    # build the generator with the lowering coefficient's sign flipped and
    # check the minus functional sees it; guards the test's own sensitivity
    p = SeriesParam.complementary(0.5)
    win = default_window(p, 16)
    from paracoh.params import expand_window
    from paracoh.repn import c_minus, c_plus

    out_win = expand_window(p, win, 1)
    a = np.zeros((len(out_win), len(win)), dtype=complex)
    ks = win.indices()
    off = win.lo - out_win.lo
    j = np.arange(len(win))
    a[off + j, j] = 1j * ks
    a[off + j + 1, j] = -0.5j * c_plus(p, ks)
    a[off + j - 1, j] = -0.5j * c_minus(p, ks)  # sign flip
    dv = dist_values_array(p, Sign.MINUS, out_win)
    assert np.max(np.abs(dv @ a)) > 1e-3


def _marginal_input(p, k, frac, rng, opts=SolveOptions()):
    """A coboundary plus a defect: D(f) is a random direction of max modulus
    frac * tol_kernel * ||coboundary||_0, added along the functionals' Riesz
    representatives on the window."""
    win = default_window(p, k)
    f0, _ = random_coboundary_vector(p, win, rng)
    dv = np.stack([dist_values_array(p, s, win) for s in valid_signs(p)])
    riesz = np.conj(dv) / basis_norm_sq_array(p, win)
    delta = rng.standard_normal(len(dv)) + 1j * rng.standard_normal(len(dv))
    delta *= frac * opts.tol_kernel * norm0(f0) / np.max(np.abs(delta))
    v = np.linalg.solve(dv @ riesz.T, delta) @ riesz
    return TensorCoeffs(f0.params, (win,), f0.coeffs + v)


@pytest.mark.parametrize("k", [4, 32])
@pytest.mark.parametrize(
    "p",
    [
        SeriesParam.complementary(0.5),
        SeriesParam.complementary(0.95),
        SeriesParam.principal(0.0),
        SeriesParam.principal(1.0),
        SeriesParam.principal(100.0),
        SeriesParam.discrete(1),
        SeriesParam.discrete(20),
    ],
    ids=lambda p: p.label(),
)
def test_marginal_inputs_solve_within_tolerance_or_raise(p, k):
    # inputs that pass the kernel guard at 0.99 of its budget: the solve is
    # within tol_residual or raises NoConvergence, and nothing else
    opts = SolveOptions()
    for seed in range(3):
        f = _marginal_input(p, k, 0.99, np.random.default_rng(seed), opts)
        assert max(pc.tensor.kernel_defects(f).values()) <= opts.tol_kernel * norm0(f)
        try:
            _, rep = solve_top(f, opts)
        except NoConvergence:
            continue
        assert rep.residual_interior <= opts.tol_residual * rep.f_norm0


def test_marginal_input_accepted_on_its_own_window():
    # within tolerance on its own window; its solutions on windows padded by
    # 8 and 16 differ by more than tol_residual, so a test of the drift
    # between paddings would reject it
    f = _marginal_input(SeriesParam.principal(1.0), 8, 0.99, np.random.default_rng(5))
    (g,), rep = solve_top(f)
    assert g.windows == f.windows and rep.refinements_used == 0
    assert rep.residual_interior / rep.f_norm0 == pytest.approx(5.7e-9, rel=0.01)


def test_no_convergence_budget_exhausted():
    # an obstructed input forced past the kernel guard must raise
    p = SeriesParam.complementary(0.9)
    win = default_window(p, 64)
    f = pc.phi(p, Sign.MINUS, win)
    from paracoh.solver import _solve_rows_refined

    with pytest.raises(NoConvergence):
        _solve_rows_refined(p, win, f[None, :], SolveOptions(pad=4), 1.0)


# The reference is numpy's dense least squares on the weighted matrix
# w_out U / w_in; principal s=1e3, complementary nu at eps0 and nu0 and
# discrete n=60 are the edges the config admits.  n is kept near 140: at
# nu = 0.95 and n = 297 numpy's own solution of an obstructed system is
# 1.8e-10 away from an iteratively refined QR solution.
_KERNEL_PARAMS = [
    SeriesParam.principal(1.0),
    SeriesParam.principal(1e3),
    SeriesParam.complementary(0.05),
    SeriesParam.complementary(-0.5),
    SeriesParam.complementary(0.95),
    SeriesParam.discrete(1),
    SeriesParam.discrete(2),
    SeriesParam.discrete(60),
]


@pytest.mark.parametrize("batch", [1, 50])
@pytest.mark.parametrize("p", _KERNEL_PARAMS, ids=lambda p: p.label())
def test_lstsq_rows_matches_dense_lstsq(p, batch, rng):
    win = default_window(p, 128 if p.lowest else 64)
    win_in = expand_window(p, win, 8)
    a, win_out = u_matrix(p, win_in)
    w_in = np.sqrt(basis_norm_sq_array(p, win_in))
    w_out = np.sqrt(basis_norm_sq_array(p, win_out))
    a_hat = a * w_out[:, None] / w_in[None, :]
    off = win.lo - win_out.lo
    consistent = np.stack(
        [random_coboundary_vector(p, win, rng)[0].coeffs for _ in range(batch)]
    )
    # the lowest basis vector (discrete) or u(0), then generic rows: D(f) != 0
    shape = (batch, len(win))
    obstructed = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    obstructed[0] = basis_vector(p, p.lowest or 0, win).coeffs
    for rhs, is_obstructed in ((consistent, False), (obstructed, True)):
        sol, resid = _lstsq_rows(p, win_in, rhs, win)
        f_hat = np.zeros((batch, len(win_out)), dtype=np.complex128)
        f_hat[:, off : off + len(win)] = rhs
        f_hat *= w_out
        ref = np.linalg.lstsq(a_hat, f_hat.T, rcond=None)[0].T
        err = np.linalg.norm(sol * w_in - ref, axis=1)
        assert np.all(err <= 1e-10 * np.linalg.norm(ref, axis=1)), np.max(err)
        if is_obstructed:
            ref_resid = np.linalg.norm(f_hat - ref @ a_hat.T, axis=1)
            # discrete n=60 leaves only rounding in the residual: a floor at that level
            floor = 1e-13 * np.linalg.norm(f_hat, axis=1)
            assert np.all(np.abs(resid - ref_resid) <= 1e-10 * ref_resid + floor)


def test_least_squares_probe_values():
    # residuals of the dense QR this solver replaced, to 1e-10 relative
    cases = [
        (SeriesParam.discrete(1), 1, 0.01898315991504892, 0.017142297403507725),
        (SeriesParam.complementary(0.95), 0, 0.9310737049113266, 0.9287445421022178),
        (SeriesParam.principal(1e3), 0, 0.11655360461660096, 0.11104366079833854),
        (SeriesParam.principal(1.0), 3, 0.20360850835890215, 0.19626890708712802),
    ]
    for p, k, base, refined in cases:
        probe = least_squares_probe(basis_vector(p, k, default_window(p, 64)))
        assert probe.f_norm0 == 1.0
        assert probe.residual == pytest.approx(base, rel=1e-10)
        assert probe.residual_refined == pytest.approx(refined, rel=1e-10)


def test_degree1_memory_is_linear_in_k(rng):
    # one K=4096 solve (n ~ 8200); a dense factor alone would need > 1 GB
    p = SeriesParam.principal(1.0)
    f, _ = random_coboundary_vector(p, default_window(p, 4096), rng)
    tracemalloc.start()
    try:
        _, rep = solve_top(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.residual_interior <= 1e-8 * rep.f_norm0
    assert peak < 16 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_top_degree_memory_stays_on_solver_windows(rng):
    # d=4, K=8: each g_i on f's windows holds 44k entries; on the all-axes
    # padded hull it would hold 2.9M (49^3 * 25), and verification peaked near 400 MB
    mp = MultiParam(
        (
            SeriesParam.principal(1.0),
            SeriesParam.complementary(0.9),
            SeriesParam.discrete(1),
            SeriesParam.principal(3.0),
        )
    )
    f = random_kernel_tensor(mp, tuple(default_window(p, 8) for p in mp.factors), rng)
    tracemalloc.start()
    try:
        _, rep = solve_top(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.residual_interior <= 1e-8 * rep.f_norm0
    assert peak < 256 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_band_factor_weight_underflow_is_typed():
    # discrete(400) at K=2048: the squared basis norm of the top index
    # underflows to 0, and the band factor would divide by it
    p = SeriesParam.discrete(400)
    win = default_window(p, 2048)
    coeffs = basis_vector(p, 400, win).coeffs - basis_vector(p, 401, win).coeffs
    f = TensorCoeffs(MultiParam((p,)), (win,), coeffs)  # D+(f) = 0
    with pytest.raises(NoConvergence, match="finite positive weights"):
        solve_top(f)
