"""The batched recursions against the per-slice ones they replaced.

`_solve_top_rec` and `forms._primitive_rec` carry a leading batch axis: every
axis-0 slice, and F_plus with F_minus, goes through one recursive call, and
each operator and level makes one `_solve_rows_refined` call.  The reference
below is the per-slice code as it stood before batching, kept here as the
oracle: one recursive call per slice and per split amplitude, one degree-1
solve per slice.
"""

import itertools

import numpy as np
import pytest

from paracoh import (
    MultiParam,
    SeriesParam,
    SolveOptions,
    default_window,
    solve_primitive,
    solve_top,
)
from paracoh import solver, tensor
from paracoh.distributions import Sign, phi
from paracoh.errors import NoConvergence, ThetaNotVanishing
from paracoh.forms import _joint_degree1_solve, _primitive_rec, exterior_derivative, form_norm0
from paracoh.generate import (
    random_closed_form,
    random_coboundary_vector,
    random_form,
    random_kernel_tensor,
)
from paracoh.solver import _slice_kernel_guard, _solve_rows_refined, split
from paracoh.tensor import TensorCoeffs, basis_vector, norm0, tensor_sobolev_norm

# --- reference: the per-slice recursions ---------------------------------------


def _ref_solve_top_rec(params, windows, arr, opts, scale):
    d = params.d
    p_last = params.factors[-1]
    w_last = windows[-1]
    if d == 1:
        rows = arr[None, :]
        _slice_kernel_guard(rows, p_last, w_last, opts, scale)
        sol, win, _, _ = _solve_rows_refined(p_last, w_last, rows, opts, scale)
        return [(sol[0], (win,))]
    f = TensorCoeffs(params, windows, arr)
    parts = split(f)
    lead_params = params.keep_leading(d - 1)
    lead_windows = windows[:-1]
    partials = {}
    for s in (Sign.PLUS, Sign.MINUS):
        amp = parts.amplitudes[s]
        if norm0(amp) > 0.0:
            partials[s] = _ref_solve_top_rec(lead_params, amp.windows, amp.coeffs, opts, scale)
    out = []
    for i in range(d - 1):
        wins = tensor.hull(lead_windows, *(sols[i][1] for sols in partials.values()))
        gi = np.zeros(tuple(len(w) for w in wins) + (len(w_last),), dtype=np.complex128)
        for s, sols in partials.items():
            a, a_wins = sols[i]
            gi[tensor.sub_slices(a_wins, wins)] += a[..., None] * phi(p_last, s, w_last)
        out.append((gi, wins + (w_last,)))
    lead_shape = tuple(len(w) for w in lead_windows)
    rows = parts.f_d.coeffs.reshape(int(np.prod(lead_shape)), len(w_last))
    _slice_kernel_guard(rows, p_last, w_last, opts, scale)
    sol, win, _, _ = _solve_rows_refined(p_last, w_last, rows, opts, scale)
    out.append((sol.reshape(lead_shape + (len(win),)), lead_windows + (win,)))
    return out


def _ref_top_degree_slice(sub_params, sub_windows, f_arr, opts, scale):
    sols = _ref_solve_top_rec(sub_params, sub_windows, f_arr, opts, scale)
    hull = tensor.hull(*(wins for _, wins in sols))
    every = tuple(range(sub_params.d))
    comps = {}
    for p, (arr, wins) in enumerate(sols):
        comps[every[:p] + every[p + 1 :]] = (-1.0) ** p * tensor.embed_array(arr, wins, hull)
    return comps, hull


def _ref_stack_slices(slices):
    hull = tensor.hull(*(wins for _, wins in slices))
    out = {}
    for key in slices[0][0]:
        out[key] = np.stack(
            [tensor.embed_array(comps[key], wins, hull) for comps, wins in slices], axis=0
        )
    return out, hull


def _ref_primitive_rec(params, windows, comps, n, opts, scale):
    d = params.d
    sub_params = params.drop(0)
    sub_windows = windows[1:]
    w0 = windows[0]
    slices = []
    for k in w0.indices():
        sub = {
            tuple(a - 1 for a in axes): np.take(arr, k - w0.lo, axis=0)
            for axes, arr in comps.items()
            if 0 not in axes
        }
        if n == d - 1:
            top = sub[tuple(range(d - 1))]
            got = _ref_top_degree_slice(sub_params, sub_windows, top, opts, scale)
        else:
            got = _ref_primitive_rec(sub_params, sub_windows, sub, n, opts, scale)
        slices.append(got)
    eta1_comps, eta1_sub_windows = _ref_stack_slices(slices)
    eta1_windows = (w0,) + eta1_sub_windows
    theta_comps = {}
    theta_windows = None
    for axes in itertools.combinations(range(1, d), n - 1):
        om_arr = comps[(0,) + axes]
        e_arr = eta1_comps[tuple(a - 1 for a in axes)]
        u0, w0x = tensor.apply_u_axis_array(e_arr, 0, params.factors[0], w0)
        u0_wins = (w0x,) + eta1_sub_windows
        hull = tensor.hull(u0_wins, windows)
        theta_comps[axes] = tensor.embed_array(om_arr, windows, hull) - tensor.embed_array(
            u0, u0_wins, hull
        )
        theta_windows = hull
    if n == 1:
        theta_norm = tensor_sobolev_norm(TensorCoeffs(params, theta_windows, theta_comps[()]), 0.0)
        if theta_norm <= opts.tol_residual * scale:
            return {(): eta1_comps[()]}, eta1_windows
        if theta_norm <= np.sqrt(opts.tol_residual) * scale:
            return _joint_degree1_solve(params, windows, comps, opts, eta1_comps[()], eta1_windows)
        raise ThetaNotVanishing(f"invariant remainder has norm {theta_norm:.3e}")
    zslices = []
    for k in theta_windows[0].indices():
        sub = {
            tuple(a - 1 for a in axes): -np.take(arr, k - theta_windows[0].lo, axis=0)
            for axes, arr in theta_comps.items()
        }
        zslices.append(_ref_primitive_rec(sub_params, theta_windows[1:], sub, n - 1, opts, scale))
    zeta_comps, zeta_sub_windows = _ref_stack_slices(zslices)
    zeta_windows = (theta_windows[0],) + zeta_sub_windows
    hull = tensor.hull(zeta_windows, eta1_windows)
    out = {}
    for axes in itertools.combinations(range(d), n - 1):
        if axes[0] == 0:
            arr, wins = zeta_comps[tuple(a - 1 for a in axes[1:])], zeta_windows
        else:
            arr, wins = eta1_comps[tuple(a - 1 for a in axes)], eta1_windows
        out[axes] = tensor.embed_array(arr, wins, hull)
    return out, hull


# --- batched against per-slice -------------------------------------------------

_P, _C, _D = SeriesParam.principal(1.0), SeriesParam.complementary(0.9), SeriesParam.discrete(1)


def _assert_same(a, a_wins, b, b_wins):
    """Equal after embedding into one hull: bitwise or to 1e-14 relative."""
    hull = tensor.hull(a_wins, b_wins)
    x = tensor.embed_array(a, a_wins, hull)
    y = tensor.embed_array(b, b_wins, hull)
    assert np.max(np.abs(x - y), initial=0.0) <= 1e-14 * np.max(np.abs(x), initial=0.0)


@pytest.mark.parametrize(
    "factors,degree,k",
    [
        ((_P, _C, _D), 1, 4),
        ((_P, _C, _D), 2, 4),
        ((_D, SeriesParam.principal(0.0), SeriesParam.complementary(-0.5)), 1, 3),
        ((_D, SeriesParam.principal(0.0), SeriesParam.complementary(-0.5)), 2, 3),
        ((_P, _C, _D, SeriesParam.principal(3.0)), 2, 2),
        ((_P, _C, _D, SeriesParam.principal(3.0)), 3, 1),
    ],
    ids=lambda v: f"d{len(v)}" if isinstance(v, tuple) else str(v),
)
def test_primitive_matches_per_slice_reference(factors, degree, k, rng):
    # w = d(eta) for a random eta filling its windows: nonzero even at K = 1
    mp = MultiParam(factors)
    wins = tuple(default_window(p, k) for p in mp.factors)
    w = exterior_derivative(random_form(mp, wins, degree - 1, rng, margin=0))
    opts, scale = SolveOptions(), form_norm0(w)
    want, want_wins = _ref_primitive_rec(mp, w.windows, dict(w.components), degree, opts, scale)
    batch = {axes: arr[None] for axes, arr in w.components.items()}
    got, got_wins = _primitive_rec(mp, w.windows, batch, degree, opts, scale)
    assert got_wins == want_wins and set(got) == set(want)
    for axes, arr in want.items():
        assert np.any(arr)
        _assert_same(arr, want_wins, got[axes][0], got_wins)


@pytest.mark.parametrize(
    "factors,k",
    [((_P, _C, _D), 4), ((_D, _C), 6), ((_P, _C, _D, SeriesParam.principal(3.0)), 4)],
    ids=["d3", "d2", "d4"],
)
def test_solve_top_matches_per_amplitude_reference(factors, k, rng):
    mp = MultiParam(factors)
    f = random_kernel_tensor(mp, tuple(default_window(p, k) for p in mp.factors), rng)
    opts = SolveOptions()
    want = _ref_solve_top_rec(mp, f.windows, f.coeffs, opts, norm0(f))
    g_list, rep = solve_top(f, opts)
    for g, (arr, wins) in zip(g_list, want):
        assert g.windows == wins
        _assert_same(arr, wins, g.coeffs, g.windows)


def test_zero_item_goes_through_the_same_step(rng):
    # an all-zero item between kernel items, as primitive_d3's edge slices
    # arrive: its amplitudes go down with the others and come back zero,
    # while every other item gets the bits it gets alone
    mp = MultiParam((_P, _C, _D))
    wins = tuple(default_window(p, 4) for p in mp.factors)
    items = [random_kernel_tensor(mp, wins, rng).coeffs for _ in range(2)]
    arr = np.stack([items[0], np.zeros_like(items[0]), items[1]])
    opts, scale = SolveOptions(), max(norm0(TensorCoeffs(mp, wins, a)) for a in items)
    got = solver._solve_top_rec(mp, wins, arr, opts, scale)
    alone = [_ref_solve_top_rec(mp, wins, a, opts, scale) for a in arr]
    for i, g in enumerate(got):
        assert g.shape == arr.shape and not np.any(g[1])
        for b in (0, 2):
            want, want_wins = alone[b][i]
            assert want_wins == wins
            assert np.array_equal(g[b], want)


# --- obstructed rows ------------------------------------------------------------


def _group(p, win, eps, rng, rows=2):
    """Consistent rows plus eps times an obstructed one, u at the lowest weight."""
    bump = basis_vector(p, p.lowest, win).coeffs
    consistent = [random_coboundary_vector(p, win, rng)[0].coeffs for _ in range(rows)]
    return np.stack(consistent) + eps * bump


def test_obstructed_group_raises_no_convergence(rng):
    # eps = 8e-6 leaves a residual of 2.5e-8 > tol_residual on the rows' window:
    # an obstruction, which no wider window may hide
    p = SeriesParam.discrete(3)
    win = default_window(p, 16)
    opts = SolveOptions()
    obstructed, consistent = _group(p, win, 8e-6, rng), _group(p, win, 0.0, rng)
    with pytest.raises(NoConvergence, match="residual 2.5"):
        _solve_rows_refined(p, win, obstructed, opts, 1.0)
    with pytest.raises(NoConvergence):  # one row that misses fails the batch
        _solve_rows_refined(p, win, np.concatenate([consistent, obstructed]), opts, 1.0)
    sol, sol_win, worst, refs = _solve_rows_refined(p, win, consistent, opts, 1.0)
    assert sol.shape == consistent.shape and sol_win == win
    assert worst <= opts.tol_residual and refs == 0


# --- the call count does not grow with K ---------------------------------------


@pytest.mark.parametrize("degree", [1, 2])
def test_lstsq_calls_do_not_grow_with_k(degree, monkeypatch):
    calls = []
    inner = solver._lstsq_rows

    def counted(*args, **kwargs):
        calls.append(args[2].shape[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver, "_lstsq_rows", counted)
    mp = MultiParam((_P, _C, _D))
    counts = []
    for k in (4, 8):
        wins = tuple(default_window(p, k) for p in mp.factors)
        w, _ = random_closed_form(mp, wins, degree, np.random.default_rng(k))
        calls.clear()
        solve_primitive(w)
        counts.append(len(calls))
    # one call per (operator, level): one level at degree 1, three at degree 2
    assert counts == [{1: 1, 2: 3}[degree]] * 2


def test_degree1_gate_per_form(rng, monkeypatch):
    # three 1-forms in one batch: a closed one passes the theta gate, two
    # marginally broken ones land in the fallback band and go to the joint
    # solve one by one, as each does when solved alone
    from paracoh import forms as forms_mod
    from paracoh.forms import LeafwiseForm

    joint_calls = []

    def joint(*args, **kwargs):
        joint_calls.append(args[2])
        return _joint_degree1_solve(*args, **kwargs)

    monkeypatch.setattr(forms_mod, "_joint_degree1_solve", joint)

    mp = MultiParam((_P, _C))
    wins = tuple(default_window(p, 6) for p in mp.factors)
    forms = [random_closed_form(mp, wins, 1, rng)[0] for _ in range(3)]
    wins = forms[0].windows
    for i in (1, 2):
        comps = {a: arr.copy() for a, arr in forms[i].components.items()}
        comps[(0,)][len(wins[0]) // 2, len(wins[1]) // 2 + i] += 1e-6 * form_norm0(forms[i])
        forms[i] = LeafwiseForm(1, mp, wins, comps)
    opts, scale = SolveOptions(pad=4), form_norm0(forms[0])
    batch = {a: np.stack([w.components[a] for w in forms]) for a in forms[0].components}
    got, got_wins = _primitive_rec(mp, wins, batch, 1, opts, scale)
    assert len(joint_calls) == 2  # the closed form stays out of the joint solve
    for comps, w in zip(joint_calls, forms[1:]):
        assert np.array_equal(comps[(0,)], w.components[(0,)])
    alone = [_ref_primitive_rec(mp, wins, dict(w.components), 1, opts, scale) for w in forms]
    # the premise: only the broken forms fell back, onto wider windows
    assert alone[0][1] != alone[1][1] == alone[2][1]
    assert got_wins == tensor.hull(*(w for _, w in alone))
    for b, (want, want_wins) in enumerate(alone):
        _assert_same(want[()], want_wins, got[()][b], got_wins)
