"""`tensor.u_sum` against the hand-placed sums it replaced.

Each `_ref_*` below is the code that built one sum of generator actions
before `u_sum` existed, kept as the oracle: `forms._remainder`,
`forms._d_component`, the residual loop of `solver.verify_solution` and the
`tensor.add` loop of `generate.random_coboundary_tensor`.  The sums must
agree byte for byte on principal, complementary and discrete factors, with
every discrete window at its lowest weight, where U clips, at d = 1 to 4,
with and without a leading batch axis.
"""

import itertools

import numpy as np
import pytest

from paracoh import MultiParam, SeriesParam, default_window, generate, solver, tensor
from paracoh.forms import LeafwiseForm, _d_component, _d_windows
from paracoh.generate import random_coeffs
from paracoh.params import expand_window
from paracoh.repn import sobolev_norm_array
from paracoh.tensor import TensorCoeffs

_P, _C, _D = SeriesParam.principal(1.0), SeriesParam.complementary(0.9), SeriesParam.discrete(1)
FACTORS = {
    1: (_D,),
    2: (_D, _C),
    3: (_P, _C, _D),
    4: (_D, _P, _C, SeriesParam.principal(3.0)),
}
DS = pytest.mark.parametrize("d", sorted(FACTORS))
BATCHES = pytest.mark.parametrize("batch", [None, 2], ids=["single", "batch2"])


def _ref_remainder(p0, om_arr, windows, e_arr, e_windows):
    u0, w0x = tensor.apply_u_axis_array(e_arr, 1, p0, e_windows[0])
    u0_wins = (w0x,) + e_windows[1:]
    hull = tensor.hull(u0_wins, windows)
    theta = tensor.embed_array(om_arr, windows, hull)
    view = theta[(...,) + tensor.sub_slices(u0_wins, hull)]
    np.subtract(view, u0, out=view)
    return theta, hull


def _ref_d_component(w, axes, windows):
    out = np.zeros(tuple(len(win) for win in windows), dtype=np.complex128)
    for pos, axis in enumerate(axes):
        term, term_win = tensor.apply_u_axis_array(
            w.components[axes[:pos] + axes[pos + 1 :]], axis, w.params.factors[axis],
            w.windows[axis],
        )
        np.multiply(term, (-1.0) ** pos, out=term)
        wins = w.windows[:axis] + (term_win,) + w.windows[axis + 1 :]
        view = out[tensor.sub_slices(wins, windows)]
        np.add(view, term, out=view)
    return out


def _ref_verify_residual(f, g_list):
    u_windows = [g.windows[:i] + (expand_window(p, g.windows[i]),) + g.windows[i + 1 :]
                 for i, (p, g) in enumerate(zip(f.params.factors, g_list))]
    wins = tensor.hull(f.windows, *u_windows)
    resid = np.zeros(tuple(len(w) for w in wins), dtype=np.complex128)
    view = resid[tensor.sub_slices(f.windows, wins)]
    np.subtract(view, f.coeffs, out=view)
    for i, g in enumerate(g_list):
        view = resid[tensor.sub_slices(u_windows[i], wins)]
        np.add(view, tensor.apply_U_factor(g, i).coeffs, out=view)
    return resid, wins


def _ref_coboundary(params, windows, rng, decay=4.0, margin=3):
    arrs = random_coeffs(params, windows, rng, params.d, decay, max(margin, 2))
    hs = [TensorCoeffs(params, tuple(windows), arr) for arr in arrs]
    f = tensor.zeros(params, windows)
    for i, h in enumerate(hs):
        f = tensor.add(f, tensor.apply_U_factor(h, i))
    return f.embedded(windows), hs


def _setup(d, k=3):
    mp = MultiParam(FACTORS[d])
    return mp, tuple(default_window(p, k) for p in mp.factors)


def _draw(mp, windows, count, batch, rng):
    """`count` arrays on `windows`, each with a batch axis of `batch` unless
    None; zero at the cut edges, so the sums meet exact zeros."""
    arrs = random_coeffs(mp, windows, rng, count * (batch or 1), margin=1)
    return arrs.reshape((count,) + ((batch,) if batch else ()) + arrs.shape[1:])


def _items(arr, batch):
    return list(arr) if batch else [arr]


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@DS
@BATCHES
def test_theta_matches_remainder(d, batch, rng):
    mp, wins = _setup(d)
    # eta1 comes back on windows wider than the level's beyond axis 0
    e_wins = (wins[0],) + tuple(expand_window(p, w) for p, w in zip(mp.factors[1:], wins[1:]))
    om = _draw(mp, wins, 1, batch, rng)[0]
    e = _draw(mp, e_wins, 1, batch, rng)[0]
    want, want_wins = _ref_remainder(mp.factors[0], om if batch else om[None], wins,
                                     e if batch else e[None], e_wins)
    # `_primitive_rec` puts U_0 eta1 first, so that the stencil's workspace is
    # freed before the sum is allocated; in a sum of two terms either order
    # gives the same bits
    for terms in ([(-1, e, e_wins, -d), (1, om, wins, None)],
                  [(1, om, wins, None), (-1, e, e_wins, -d)]):
        got, got_wins = tensor.u_sum(mp.factors, terms)
        assert got_wins == want_wins
        _same(got, want if batch else want[0])


def test_theta_from_a_negated_remainder_keeps_its_values(rng):
    # below the top level omega is a negated theta, with -0.0 wherever theta
    # is 0: u_sum adds it into zeros, which gives +0.0 there, where the copy
    # kept -0.0.  Every value agrees; only the sign of a zero can differ.
    mp, wins = _setup(3)
    om = np.negative(_draw(mp, wins, 1, 2, rng)[0])
    e = _draw(mp, wins, 1, 2, rng)[0]
    got, _ = tensor.u_sum(mp.factors, [(-1, e, wins, -3), (1, om, wins, None)])
    want, _ = _ref_remainder(mp.factors[0], om, wins, e, wins)
    assert np.any(np.signbit(want[want == 0].real))  # the premise
    assert np.array_equal(got, want) and not np.any(np.signbit(got[got == 0].real))


@DS
@BATCHES
def test_d_component_matches_reference(d, batch, rng):
    mp, wins = _setup(d)
    for n in range(d):
        keys = list(itertools.combinations(range(d), n))
        arrs = _draw(mp, wins, len(keys), batch, rng)
        forms = [LeafwiseForm(n, mp, wins, dict(zip(keys, item)))
                 for item in zip(*(_items(a, batch) for a in arrs))]
        d_wins = _d_windows(forms[0])
        wider = tuple(expand_window(p, w) for p, w in zip(mp.factors, d_wins))
        for axes in itertools.combinations(range(d), n + 1):
            for out_wins in (d_wins, wider):
                want = np.stack([_ref_d_component(w, axes, out_wins) for w in forms])
                if batch:
                    comps = dict(zip(keys, arrs))
                    terms = [((-1) ** pos, comps[axes[:pos] + axes[pos + 1 :]], wins, a - d)
                             for pos, a in enumerate(axes)]
                    got, _ = tensor.u_sum(mp.factors, terms, out_wins)
                else:
                    got = _d_component(forms[0], axes, out_wins)[None]
                _same(got, want)


@DS
@BATCHES
def test_verify_residual_matches_reference(d, batch, rng, monkeypatch):
    mp, wins = _setup(d)
    g_wins = tuple(expand_window(p, w) for p, w in zip(mp.factors, wins))
    f_arr = _draw(mp, wins, 1, batch, rng)[0]
    g_arrs = _draw(mp, g_wins, d, batch, rng)
    refs = [_ref_verify_residual(TensorCoeffs(mp, wins, f),
                                 [TensorCoeffs(mp, g_wins, g) for g in gs])
            for f, gs in zip(_items(f_arr, batch), zip(*(_items(g, batch) for g in g_arrs)))]
    want_wins = refs[0][1]
    want = np.stack([r for r, _ in refs])
    if batch:
        terms = [(-1, f_arr, wins, None)] + [(1, g, g_wins, i - d) for i, g in enumerate(g_arrs)]
        got, got_wins = tensor.u_sum(mp.factors, terms)
        assert got_wins == want_wins
        _same(got, want)
        return
    # the array verify_solution norms for its residual, and the norm
    normed = []

    def recording(factors, windows, arr, t):
        if t == 0.0:
            normed.append((arr.copy(), windows))
        return sobolev_norm_array(factors, windows, arr, t)

    monkeypatch.setattr(solver, "sobolev_norm_array", recording)
    rep = solver.verify_solution(TensorCoeffs(mp, wins, f_arr),
                                 [TensorCoeffs(mp, g_wins, g) for g in g_arrs])
    (got, got_wins), = normed
    assert got_wins == want_wins
    _same(got[None], want)
    assert rep.residual_interior == sobolev_norm_array(mp.factors, want_wins, want[0], 0.0)


@DS
@pytest.mark.parametrize("seed", [0, 1])
def test_coboundary_matches_add_loop(d, seed):
    mp, wins = _setup(d, k=5)
    f, hs = generate.random_coboundary_tensor(mp, wins, np.random.default_rng(seed))
    want, want_hs = _ref_coboundary(mp, wins, np.random.default_rng(seed))
    assert f.windows == want.windows == wins
    _same(f.coeffs, want.coeffs)
    for h, want_h in zip(hs, want_hs):
        _same(h.coeffs, want_h.coeffs)
