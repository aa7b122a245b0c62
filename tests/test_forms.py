"""Leafwise complex: d o d = 0, restriction identities, primitives, schedules."""

import itertools
import tracemalloc

import numpy as np
import pytest

import paracoh as pc
from paracoh import (
    LeafwiseForm,
    MultiParam,
    NotClosed,
    SeriesParam,
    SolveOptions,
    default_window,
    exterior_derivative,
    is_closed,
    restrict_form,
    sigma_schedule,
    solve_primitive,
    varsigma_schedule,
)
from paracoh import forms, repn, tensor
from paracoh.forms import (
    ThetaNotVanishing,
    form_from_function,
    form_norm0,
    zero_form,
)
from paracoh.generate import random_closed_form, random_form, random_kernel_tensor
from paracoh.params import expand_window
from paracoh.tensor import norm0, product_dist_evaluate, valid_tags


def _form_difference(a, b):
    """a - b on the hull of their windows, each form embedded whole: the
    oracle of the residual that `solve_primitive` takes one component at a
    time."""
    if a.degree != b.degree or a.params != b.params:
        raise ValueError("form mismatch")
    hull = tensor.hull(a.windows, b.windows)
    comps = {
        axes: tensor.embed_array(a.components[axes], a.windows, hull)
        - tensor.embed_array(b.components[axes], b.windows, hull)
        for axes in a.components
    }
    return LeafwiseForm(a.degree, a.params, hull, comps)


def _d_embedded(w):
    """d w with every signed U_a term embedded whole into d w's windows: the
    oracle of `exterior_derivative`'s in-place sums."""
    out_windows = tuple(expand_window(p, win, 1) for p, win in zip(w.params.factors, w.windows))
    comps = {}
    for axes in itertools.combinations(range(w.d), w.degree + 1):
        acc = np.zeros(tuple(len(win) for win in out_windows), dtype=np.complex128)
        for pos, axis in enumerate(axes):
            src = axes[:pos] + axes[pos + 1 :]
            term, term_win = repn.apply_u_axis_array(
                w.components[src], axis, w.params.factors[axis], w.windows[axis]
            )
            wins = w.windows[:axis] + (term_win,) + w.windows[axis + 1 :]
            acc += (-1.0) ** pos * tensor.embed_array(term, wins, out_windows)
        comps[axes] = acc
    return LeafwiseForm(w.degree + 1, w.params, out_windows, comps)


def _mp(d=2):
    facs = (
        SeriesParam.principal(1.0),
        SeriesParam.complementary(0.5),
        SeriesParam.discrete(1),
    )
    return MultiParam(facs[:d])


def test_zero_form_components():
    mp = _mp(3)
    wins = tuple(default_window(p, 4) for p in mp.factors)
    assert set(zero_form(mp, wins, 2).components) == {(0, 1), (0, 2), (1, 2)}
    assert set(zero_form(mp, wins, 0).components) == {()}


def test_d_of_function_is_gradient(rng):
    mp = _mp(2)
    wins = tuple(default_window(p, 8) for p in mp.factors)
    eta = random_form(mp, wins, 0, rng)
    d_eta = exterior_derivative(eta)
    f = eta.component_tensor(())
    for i in (0, 1):
        ui = pc.apply_U_factor(f, i)
        got = d_eta.component_tensor((i,))
        diff = pc.tensor.add(got, ui, scale=-1.0)
        assert norm0(diff) <= 1e-14 * max(norm0(f), 1e-30)


def test_d_two_term_case(rng):
    # d=2: (d w)(U0, U1) = U0 w(U1) - U1 w(U0)
    mp = _mp(2)
    wins = tuple(default_window(p, 8) for p in mp.factors)
    w = random_form(mp, wins, 1, rng)
    dw = exterior_derivative(w)
    lhs = dw.component_tensor((0, 1))
    rhs = pc.tensor.add(
        pc.apply_U_factor(w.component_tensor((1,)), 0),
        pc.apply_U_factor(w.component_tensor((0,)), 1),
        scale=-1.0,
    )
    assert norm0(_diff(lhs, rhs)) <= 1e-14 * max(norm0(lhs), 1e-30)


def _diff(a, b):
    return pc.tensor.add(a, b, scale=-1.0)


def test_dd_zero(rng):
    mp = _mp(3)
    wins = tuple(default_window(p, 6) for p in mp.factors)
    for degree in (0, 1):
        for _ in range(5):
            w = random_form(mp, wins, degree, rng, margin=0)
            dd = exterior_derivative(exterior_derivative(w))
            assert form_norm0(dd) <= 1e-12 * form_norm0(w)


def test_is_closed(rng):
    mp = _mp(2)
    wins = tuple(default_window(p, 8) for p in mp.factors)
    w, _ = random_closed_form(mp, wins, 1, rng)
    ok, defect = is_closed(w)
    assert ok and defect <= 1e-12 * form_norm0(w)
    bad = random_form(mp, wins, 1, rng)
    ok_bad, defect_bad = is_closed(bad)
    assert not ok_bad and defect_bad > 0


def test_restriction_preserves_closedness(rng):
    mp = _mp(3)
    wins = tuple(default_window(p, 6) for p in mp.factors)
    for _ in range(5):
        w, _ = random_closed_form(mp, wins, 1, rng)
        for axis in (0, 1, 2):
            for k in (w.windows[axis].lo + 1, 0 if axis != 2 else 2):
                r = restrict_form(w, axis, int(k))
                _, defect = is_closed(r)
                assert defect <= 1e-10 * max(form_norm0(w), 1e-30)


def test_restricted_top_slice_in_joint_kernel(rng):
    # closed (d-1)-forms restrict to joint-kernel top components
    mp = _mp(3)
    wins = tuple(default_window(p, 6) for p in mp.factors)
    for _ in range(5):
        w, _ = random_closed_form(mp, wins, 2, rng)
        n0 = form_norm0(w)
        for axis in (0, 1, 2):
            for k in w.windows[axis].indices()[1:-1:3]:
                r = restrict_form(w, axis, int(k))
                top = r.component_tensor((0, 1))
                for tag in valid_tags(top.params):
                    assert abs(product_dist_evaluate(top, tag)) <= 1e-8 * n0


def test_restrict_form_1form_slice(rng):
    mp = _mp(2)
    wins = tuple(default_window(p, 8) for p in mp.factors)
    w = random_form(mp, wins, 1, rng)
    r = restrict_form(w, 0, 2)
    # remaining component is the coefficient slice of w(U1) at k0 = 2 (norms are 1)
    got = r.components[(0,)]
    want = w.components[(1,)][2 - wins[0].lo, :]
    assert np.allclose(got, want)
    with pytest.raises(pc.InvalidIndex):
        restrict_form(w, 0, 99)


def test_varsigma_schedule():
    assert varsigma_schedule(1.0, 2) == pytest.approx(5.0)
    # d=3, t=1: max(vs2(7)=11, 6, sigma2(1)+1=11.5)
    assert varsigma_schedule(1.0, 3) == pytest.approx(11.5)
    for t in (0.5, 1.0, 2.0):
        assert varsigma_schedule(t + 0.1, 3) > varsigma_schedule(t, 3)
        assert varsigma_schedule(t, 3) >= sigma_schedule(t, 2) + t
    with pytest.raises(ValueError):
        varsigma_schedule(1.0, 1)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (3, 2)])
def test_solve_primitive_round_trip(d, n, rng):
    mp = _mp(d)
    wins = tuple(default_window(p, 8 if d == 3 else 12) for p in mp.factors)
    for _ in range(2):
        w, eta_true = random_closed_form(mp, wins, n, rng)
        eta, rep = solve_primitive(w)
        assert rep.residual_interior <= 1e-6 * rep.f_norm0
        # independent residual check
        resid = _form_difference(exterior_derivative(eta), w)
        assert form_norm0(resid) <= 1e-6 * form_norm0(w)


_D4 = (
    SeriesParam.principal(1.0),
    SeriesParam.complementary(0.9),
    SeriesParam.discrete(1),
    SeriesParam.principal(3.0),
)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_primitive_is_at_most_one_index_wider(d, n, rng):
    # every solve runs on its input's windows, and only the U_0 of a
    # remainder widens one, by an index: at degree 1 eta is on w's windows
    mp = MultiParam(_D4[:d])
    w, _ = random_closed_form(mp, tuple(default_window(p, 4) for p in mp.factors), n, rng)
    eta, rep = solve_primitive(w)
    assert rep.residual_interior <= 1e-8 * rep.f_norm0
    for p, e_win, w_win in zip(mp.factors, eta.windows, w.windows):
        assert e_win.contains_window(w_win)
        assert expand_window(p, w_win, 1).contains_window(e_win)
    if n == 1:
        assert eta.windows == w.windows


def test_primitive_d4_memory_stays_on_its_windows(rng):
    # d=4, K=8, degree 3: eta on windows one index wider than w's holds 84k
    # entries per component; nested padded solves would make it 5.4M
    mp = MultiParam(_D4)
    w, _ = random_closed_form(mp, tuple(default_window(p, 8) for p in mp.factors), 3, rng)
    tracemalloc.start()
    try:
        _, rep = solve_primitive(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.residual_interior <= 1e-8 * rep.f_norm0
    assert peak < 100 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("d", [3, 4])
def test_streamed_norms_are_bitwise_those_of_the_whole_forms(d, rng):
    # principal, complementary and discrete factors; the defect and the
    # residual are summed one component at a time in combinations order
    mp = MultiParam(_D4[:d])
    small = tuple(default_window(p, 3) for p in mp.factors)
    wide = tuple(default_window(p, 5) for p in mp.factors)
    for n in range(d):
        w = random_form(mp, wide, n, rng, margin=0)
        dw = exterior_derivative(w)
        ref = _d_embedded(w)
        assert all(dw.components[a].tobytes() == ref.components[a].tobytes() for a in dw.components)
        assert forms._closedness_defect(w) == form_norm0(dw) > 0
        assert is_closed(w)[1] == form_norm0(dw)
        if n == 0:
            continue
        closed, _ = random_closed_form(mp, wide, n, rng)
        eta, rep = solve_primitive(closed)
        assert rep.kernel_defect == form_norm0(exterior_derivative(closed))
        want = form_norm0(_form_difference(exterior_derivative(eta), closed))
        assert rep.residual_interior == forms._primitive_residual(eta, closed) == want
        # w on windows wider than d(eta)'s, then on narrower ones
        eta = random_form(mp, small, n - 1, rng, margin=0)
        for target in (w, random_form(mp, small, n, rng, margin=0)):
            want = form_norm0(_form_difference(exterior_derivative(eta), target))
            assert forms._primitive_residual(eta, target) == want > 0


@pytest.mark.parametrize("d, k, n, budget_mb", [(3, 16, 1, 2.3), (4, 8, 2, 20.0), (4, 8, 3, 22.5)])
def test_primitive_holds_one_level_at_a_time(d, k, n, budget_mb):
    # tracemalloc peak of a warm solve on one thread, above its input: the
    # defect and the residual hold one component, and the recursion drops
    # each level's arrays once they are used.  The budgets sit between the
    # measured 1.7, 11.6 and 13.9 MB and the 3.2, 29.5 and 25.6 MB that whole
    # d w and d eta - w forms and every level's arrays kept alive take
    mp = MultiParam(_D4[:d])
    w, _ = random_closed_form(mp, tuple(default_window(p, k) for p in mp.factors), n,
                              np.random.default_rng(0))
    solve_primitive(w)  # the band factors are cached from here on
    tracemalloc.start()
    try:
        _, rep = solve_primitive(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.residual_interior <= 1e-8 * rep.f_norm0
    assert peak <= budget_mb * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


def test_solve_primitive_zero():
    mp = _mp(2)
    wins = tuple(default_window(p, 6) for p in mp.factors)
    eta, rep = solve_primitive(zero_form(mp, wins, 1))
    assert form_norm0(eta) == 0.0 and rep.residual_interior == 0.0


def test_solve_primitive_rejects_nonclosed(rng):
    mp = _mp(2)
    wins = tuple(default_window(p, 8) for p in mp.factors)
    w = random_form(mp, wins, 1, rng)
    with pytest.raises(NotClosed):
        solve_primitive(w)


def test_solve_primitive_degree_bounds(rng):
    mp = _mp(2)
    wins = tuple(default_window(p, 6) for p in mp.factors)
    w, _ = random_closed_form(mp, wins, 1, rng)
    top = form_from_function(random_kernel_tensor(mp, wins, rng))
    with pytest.raises(ValueError):
        solve_primitive(top)  # degree d is the coboundary solver's job


def test_trivial_factor_unrepresentable():
    # the no-trivial-factor hypothesis is structural: the trivial
    # representation has no SeriesParam encoding (complementary nu=1 rejected)
    with pytest.raises(ValueError):
        SeriesParam.complementary(1.0)


def test_varsigma_ratio_stable_under_doubling(rng):
    mp = _mp(2)
    stats = []
    for k in (8, 16):
        wins = tuple(default_window(p, k) for p in mp.factors)
        worst = 0.0
        for _ in range(5):
            w, _ = random_closed_form(mp, wins, 1, rng)
            _, rep = solve_primitive(w)
            worst = max(worst, max(rep.sobolev_ratios.values()))
        stats.append(worst)
    assert stats[1] <= 2.0 * stats[0]


def test_joint_fallback_solve(rng):
    # exercise the stacked least-squares path directly on a closed 1-form
    from paracoh.forms import _joint_degree1_solve

    mp = _mp(2)
    wins = tuple(default_window(p, 8) for p in mp.factors)
    w, eta_true = random_closed_form(mp, wins, 1, rng)
    comps = {axes: arr for axes, arr in w.components.items()}
    init = np.zeros(tuple(len(x) for x in w.windows), dtype=complex)
    got, g_wins = _joint_degree1_solve(mp, w.windows, comps, SolveOptions(pad=4), init, w.windows)
    eta = LeafwiseForm(0, mp, g_wins, got)
    resid = _form_difference(exterior_derivative(eta), w)
    assert form_norm0(resid) <= 1e-6 * form_norm0(w)


def test_theta_not_vanishing_on_marginally_broken_input(rng):
    # a 1-form that is closed at the precheck tolerance but far from exact
    # must surface through the degenerate branch, not silently pass
    mp = _mp(2)
    wins = tuple(default_window(p, 10) for p in mp.factors)
    w, _ = random_closed_form(mp, wins, 1, rng)
    bad = {a: arr.copy() for a, arr in w.components.items()}
    bump = 2e-5 * form_norm0(w)
    arr = bad[(0,)].copy()
    arr[len(wins[0]) // 2, len(wins[1]) // 2] += bump
    bad[(0,)] = arr
    w_bad = LeafwiseForm(1, mp, w.windows, bad)
    opts = SolveOptions(tol_kernel=1e-3, tol_residual=1e-12)
    with pytest.raises((ThetaNotVanishing, pc.NoConvergence)):
        solve_primitive(w_bad, opts)
