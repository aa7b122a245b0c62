"""The split and the top-degree recursion on phi's support, against the dense sums.

phi_+ and phi_- are supported on {0, 1}, or on {n} for a discrete factor, so
`solver._split_last` forms f_otimes = sum_s F_s (x) phi_s and the recursion
each g_i = sum_s G_s,i (x) phi_s on those columns only.  The references
below are the dense broadcast products over the whole last axis that they
replaced, kept here as the oracle; every array must be equal byte for byte,
signed zeros included.
"""

import numpy as np
import pytest

from paracoh import forms, solver
from paracoh.distributions import Sign, _phi_window, dist_values_array, phi, valid_signs
from paracoh.generate import random_closed_form, random_kernel_tensor
from paracoh.params import IndexWindow, MultiParam, SeriesParam, default_window

# --- reference: the dense sums over the last axis --------------------------------------


def _ref_split_last(p_last, w_last, arr):
    amplitudes = {
        s: np.tensordot(arr, dist_values_array(p_last, s, w_last), axes=([arr.ndim - 1], [0]))
        for s in (Sign.PLUS, Sign.MINUS)
    }
    f_ot = np.multiply(amplitudes[Sign.PLUS][..., None], phi(p_last, Sign.PLUS, w_last))
    f_ot += 0.0
    f_ot += amplitudes[Sign.MINUS][..., None] * phi(p_last, Sign.MINUS, w_last)
    return amplitudes, f_ot


def _ref_solve_top_rec(params, windows, arr, opts, scale):
    d = params.d
    p_last, w_last = params.factors[-1], windows[-1]
    out = []
    rows = arr
    if d > 1:
        amplitudes, f_ot = _ref_split_last(p_last, w_last, arr)
        signs = valid_signs(p_last)
        stacked = np.concatenate([amplitudes[s] for s in signs])
        rows = arr - f_ot
        sub = _ref_solve_top_rec(params.keep_leading(d - 1), windows[:-1], stacked, opts, scale)
        term = np.empty(arr.shape, dtype=np.complex128)
        for sols in sub:
            gi = np.zeros(arr.shape, dtype=np.complex128)
            for s, part in zip(signs, np.split(sols, len(signs))):
                gi += np.multiply(part[..., None], phi(p_last, s, w_last), out=term)
            out.append(gi)
    rows = rows.reshape(-1, len(w_last))
    solver._slice_kernel_guard(rows, p_last, w_last, opts, scale)
    sol, _, _, _ = solver._solve_rows_refined(p_last, w_last, rows, opts, scale)
    out.append(sol.reshape(arr.shape))
    return out


def _bits(x):
    return np.asarray(x).tobytes()


# principal(0) has phi_+ = [1, 0]; the discrete factors' support is {n}
LAST = [
    SeriesParam.principal(0.0),
    SeriesParam.principal(3.0),
    SeriesParam.complementary(0.3),
    SeriesParam.discrete(1),
    SeriesParam.discrete(3),
]


def _kernel_batch(p_last, d, k, seed):
    """Three kernel tensors, then one of +0.0, one of -0.0 and one whose real
    parts are -0.0 and imaginary parts +0.0, on d factors whose last is
    p_last."""
    lead = (SeriesParam.principal(1.0), SeriesParam.complementary(0.9))[: d - 1]
    mp = MultiParam(lead + (p_last,))
    wins = tuple(default_window(p, k) for p in mp.factors)
    rng = np.random.default_rng(seed)
    items = [random_kernel_tensor(mp, wins, rng).coeffs for _ in range(3)]
    shape = items[0].shape
    items += [np.full(shape, complex(z, w)) for z, w in ((0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0))]
    return mp, wins, np.stack(items)


@pytest.mark.parametrize("p_last", LAST, ids=lambda p: p.label())
def test_split_on_phi_support(p_last):
    mp, wins, batch = _kernel_batch(p_last, 2, 5, 21)
    # windows past the support on both sides, starting on it and ending on it
    full, sup = wins[-1], _phi_window(p_last)
    for w_last in (full, IndexWindow(sup.lo, sup.lo + 3), IndexWindow(full.lo, sup.hi)):
        arr = batch[..., w_last.lo - full.lo : w_last.hi - full.lo + 1]
        for part in (arr, arr[0], arr[-1]):  # batched, and items unbatched
            want_amps, want = _ref_split_last(p_last, w_last, part)
            got_amps, got = solver._split_last(p_last, w_last, part)
            assert _bits(got) == _bits(want)
            assert got_amps.keys() == want_amps.keys()
            for s in want_amps:
                assert _bits(got_amps[s]) == _bits(want_amps[s])


@pytest.mark.parametrize("p_last", LAST, ids=lambda p: p.label())
def test_signed_zero_parts_sum_from_plus_zero(p_last):
    # the dense sums begin at +0.0, so a column where every term is -0.0
    # holds +0.0; amplitudes of kernel tensors are seldom exactly zero
    w_last = default_window(p_last, 4)
    vals = [complex(a, b) for a in (-0.0, 0.0, -1.5) for b in (-0.0, 0.0, 2.0)]
    part = np.array(vals).reshape(3, 3)
    for signs in (valid_signs(p_last), (Sign.PLUS, Sign.MINUS)):
        parts = [(s, part if i == 0 else part[::-1]) for i, s in enumerate(signs)]
        want = np.zeros(part.shape + (len(w_last),), dtype=np.complex128)
        for s, q in parts:
            want += q[..., None] * phi(p_last, s, w_last)
        got = solver._phi_outer(p_last, w_last, want.shape, parts)
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p_last", LAST, ids=lambda p: p.label())
def test_recursion_on_phi_support(p_last, d):
    mp, wins, batch = _kernel_batch(p_last, d, 4, 22)
    opts = solver.SolveOptions()
    for arr in (batch, batch[:1]):  # batched, and a batch of one as solve_top makes
        want = _ref_solve_top_rec(mp, wins, arr, opts, 1.0)
        got = solver._solve_top_rec(mp, wins, arr, opts, 1.0)
        assert len(got) == len(want) == d
        for g, w in zip(got, want):
            assert g.shape == w.shape and _bits(g) == _bits(w)


@pytest.mark.parametrize("degree", [1, 2])
def test_d3_primitive_on_phi_support(monkeypatch, degree):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5),
                     SeriesParam.discrete(2)))
    wins = tuple(default_window(p, 5) for p in mp.factors)
    w, _ = random_closed_form(mp, wins, degree, np.random.default_rng(23))
    eta, rep = forms.solve_primitive(w)
    monkeypatch.setattr(forms, "_solve_top_rec", _ref_solve_top_rec)
    want_eta, want_rep = forms.solve_primitive(w)
    assert eta.components.keys() == want_eta.components.keys()
    for axes in want_eta.components:
        assert _bits(eta.components[axes]) == _bits(want_eta.components[axes])
    assert vars(rep) == vars(want_rep)
