"""The check sweeps in bounded memory, against the whole-batch kernels they replaced.

`regularity_rows` holds one batch plus a fixed scratch: `generate.random_coeffs`
draws whole items in chunks, `tensor.kernel_project_array` subtracts c Phi
item by item, `solver._split_last` writes its first term into f_otimes, and
`solver.regularity_array` splits and norms a chunk of items at a time.  The
references below are those kernels as they were before, kept here as the
oracle; every array must be equal byte for byte, signed zeros included.
The Sobolev ratios of the solvers are either finite or a typed failure.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from paracoh import experiments, generate, repn, solver, tensor
from paracoh.cli import main
from paracoh.config import ComponentConfig, ExperimentConfig, config_to_json, default_config
from paracoh.distributions import Sign, dist_values_array, phi
from paracoh.errors import NoConvergence
from paracoh.forms import solve_primitive
from paracoh.generate import random_kernel_tensor
from paracoh.params import IndexWindow, MultiParam, SeriesParam, default_window

# --- reference: the whole-batch kernels ---------------------------------------------


def _ref_random_coeffs(params, windows, rng, count, decay=4.0, margin=2):
    qgrid, _ = repn.weight_grids(params.factors, windows)
    z = rng.standard_normal((count, 2) + qgrid.shape)
    coeffs = 1j * z[:, 1]
    coeffs += z[:, 0]
    coeffs /= np.sqrt(2.0)
    coeffs *= qgrid ** (-decay)
    for j, (p, w) in enumerate(zip(params.factors, windows)):
        shape = [1] * params.d
        shape[j] = len(w)
        coeffs *= generate._edge_mask(p, w, margin).reshape(shape)
    return coeffs


def _ref_kernel_project_array(params, windows, arr):
    tags = tensor.valid_tags(params)
    coeffs = [tensor.product_dist_array(params.factors, windows, arr, tag) for tag in tags]
    for tag, c in zip(tags, coeffs):
        c = c.reshape(c.shape + (1,) * len(windows))
        phi_t = tensor.phi_tensor(params, tag, windows).coeffs
        np.subtract(arr, c * phi_t, out=arr, where=c != 0)
    return arr


def _ref_split_last(p_last, w_last, arr):
    amplitudes = {}
    f_ot = np.zeros(arr.shape, dtype=np.complex128)
    for s in (Sign.PLUS, Sign.MINUS):
        dv = dist_values_array(p_last, s, w_last)
        amp = np.tensordot(arr, dv, axes=([arr.ndim - 1], [0]))
        amplitudes[s] = amp
        f_ot += amp[..., None] * phi(p_last, s, w_last)
    return amplitudes, f_ot


def _ref_regularity_array(factors, windows, arr, t):
    denom = repn.sobolev_norm_array(factors, windows, arr, 2.0 * t + solver.SPLIT_C)
    _, f_ot = _ref_split_last(factors[-1], windows[-1], arr)
    num = repn.sobolev_norm_array(factors, windows, f_ot, t)
    return np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)


def _bits(x):
    return np.asarray(x).tobytes()


_D2 = MultiParam((SeriesParam.principal(1.5), SeriesParam.complementary(0.9)))
_D2_WINDOWS = tuple(default_window(p, 24) for p in _D2.factors)  # 2401 entries an item

# --- kernels, byte for byte ----------------------------------------------------------


def test_chunks_are_whole_items():
    assert tensor.item_chunks(30, 2401) == [slice(0, 13), slice(13, 26), slice(26, 30)]
    assert tensor.item_chunks(3, 10**6) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert tensor.item_chunks(0, 5) == []


@pytest.mark.parametrize("count", [1, 13, 30])
@pytest.mark.parametrize("decay, margin", [(4.0, 2), (2.0, 0)])
def test_chunked_draw_continues_the_stream(count, decay, margin):
    # 30 is not a multiple of the 13 items a chunk holds at this size
    want = _ref_random_coeffs(_D2, _D2_WINDOWS, np.random.default_rng(8), count, decay, margin)
    rng = np.random.default_rng(8)
    got = generate.random_coeffs(_D2, _D2_WINDOWS, rng, count, decay, margin)
    assert got.shape == want.shape and _bits(got) == _bits(want)
    # the stream goes on where the whole draw left it
    after = np.random.default_rng(8)
    after.standard_normal((count, 2) + got.shape[1:])
    assert _bits(rng.standard_normal(5)) == _bits(after.standard_normal(5))


def test_draw_of_items_larger_than_a_chunk(monkeypatch):
    mp = MultiParam((SeriesParam.discrete(2), SeriesParam.principal(0.0),
                     SeriesParam.complementary(0.5)))
    wins = tuple(default_window(p, 5) for p in mp.factors)
    monkeypatch.setattr(tensor, "CHUNK_ENTRIES", 100)  # an item has 6 * 11 * 11 entries
    want = _ref_random_coeffs(mp, wins, np.random.default_rng(9), 7)
    assert _bits(generate.random_coeffs(mp, wins, np.random.default_rng(9), 7)) == _bits(want)


def _signed_zero_batch(params, windows, rng, count):
    """Random items, then one of +0.0, one of -0.0 and one that is -0.0 in its
    real parts: every functional of the last three is exactly 0."""
    batch = generate.random_coeffs(params, windows, rng, count + 3)
    batch[count] = 0.0
    batch[count + 1] = complex(-0.0, -0.0)
    batch[count + 2].real = -0.0
    batch[count + 2].imag = 0.0
    return batch


@pytest.mark.parametrize(
    "factors",
    [
        (SeriesParam.principal(1.5), SeriesParam.complementary(0.9)),
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.9), SeriesParam.discrete(1)),
        (SeriesParam.discrete(2),),
    ],
)
def test_item_by_item_projection(factors):
    mp = MultiParam(factors)
    wins = tuple(default_window(p, 6) for p in factors)
    batch = _signed_zero_batch(mp, wins, np.random.default_rng(10), 4)
    want = _ref_kernel_project_array(mp, wins, batch.copy())
    assert _bits(want[-2]) == _bits(batch[-2])  # a zero functional leaves -0.0 alone
    got = tensor.kernel_project_array(mp, wins, batch.copy())
    assert _bits(got) == _bits(want)
    # unbatched, and with two batch axes
    for item, expect in zip(batch, want):
        assert _bits(tensor.kernel_project_array(mp, wins, item.copy())) == _bits(expect)
    square = batch[:6].reshape((2, 3) + batch.shape[1:]).copy()
    assert _bits(tensor.kernel_project_array(mp, wins, square)) == _bits(want[:6])


def _assert_split_matches(p_last, w_last, arr):
    want_amps, want = _ref_split_last(p_last, w_last, arr)
    got_amps, got = solver._split_last(p_last, w_last, arr)
    assert _bits(got) == _bits(want)
    assert got_amps.keys() == want_amps.keys()
    for s in want_amps:
        assert _bits(got_amps[s]) == _bits(want_amps[s])


@pytest.mark.parametrize("n", [1, 3])
def test_split_on_a_lowest_weight_discrete_window(n):
    p_last = SeriesParam.discrete(n)
    w_last = IndexWindow(n, n + 7)
    mp = MultiParam((SeriesParam.principal(1.0), p_last))
    wins = (default_window(mp.factors[0], 4), w_last)
    batch = _signed_zero_batch(mp, wins, np.random.default_rng(12), 3)
    _assert_split_matches(p_last, w_last, batch)
    _assert_split_matches(p_last, w_last, batch[0])
    assert not np.signbit(solver._split_last(p_last, w_last, batch[-2])[1].real).any()


def test_split_on_a_top_d4_batch():
    # the first level of the top_d4 solve: a batch of one f with
    # 17 * 17 * 9 = 2601 rows on principal(3)'s window
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.9),
                     SeriesParam.discrete(1), SeriesParam.principal(3.0)))
    wins = tuple(default_window(p, 8) for p in mp.factors)
    f = random_kernel_tensor(mp, wins, np.random.default_rng(13))
    arr = f.coeffs[None]
    assert arr[..., 0].size == 2601
    _assert_split_matches(mp.factors[-1], wins[-1], arr)


def test_chunked_regularity_array():
    batch = _signed_zero_batch(_D2, _D2_WINDOWS, np.random.default_rng(14), 27)
    tensor.kernel_project_array(_D2, _D2_WINDOWS, batch)
    for t in (0.5, 1.0):
        want = _ref_regularity_array(_D2.factors, _D2_WINDOWS, batch, t)
        got = solver.regularity_array(_D2.factors, _D2_WINDOWS, batch, t)
        assert got.shape == (30,) and _bits(got) == _bits(want)
        square = batch.reshape((5, 6) + batch.shape[1:])
        assert _bits(solver.regularity_array(_D2.factors, _D2_WINDOWS, square, t)) == _bits(
            want.reshape(5, 6)
        )


# --- memory ----------------------------------------------------------------------------


@pytest.mark.parametrize("d, budget_mb", [(2, 3.6), (3, 7.0)])
def test_regularity_rows_hold_one_batch_and_a_scratch(d, budget_mb):
    # tracemalloc peak of a warm sweep at the default config, K=24 on every
    # axis: the d=2 batch of 50 samples is 1.83 MB and a d=3 batch of four
    # 3.66 MB.  Drawing the next batch while the last is alive, and a
    # batch-sized draw, projection and split, peak at 6.46 and 12.52 MB
    cfg = default_config(d=d, seed=0, k_per_axis=32)
    experiments.regularity_rows(cfg, count=1)  # the cached functionals
    tracemalloc.start()
    try:
        experiments.regularity_rows(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget_mb * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


# --- the solvers' ratios and the values solve_top hands to its verification ------------


def test_solve_top_reports_what_verify_solution_reports(monkeypatch, rng):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5),
                     SeriesParam.discrete(2)))
    f = random_kernel_tensor(mp, tuple(default_window(p, 6) for p in mp.factors), rng)
    calls, verified = [], []
    defects, verify = tensor.kernel_defects, solver.verify_solution
    monkeypatch.setattr(tensor, "kernel_defects", lambda g: calls.append(g) or defects(g))
    monkeypatch.setattr(solver, "verify_solution",
                        lambda *a, **k: verified.append(k) or verify(*a, **k))
    g_list, rep = solver.solve_top(f)
    # the guard's ||f||_0 and functionals serve the verification, which
    # solve_top calls by its public name
    assert len(calls) == 1 and [set(k) for k in verified] == [{"known"}]
    assert json.dumps(vars(rep)) == json.dumps(vars(verify(f, g_list)))
    assert rep.f_norm0 == tensor.norm0(f)


def test_non_finite_norms_raise_naming_the_order():
    with pytest.raises(NoConvergence, match=r"t=2\.0"):
        solver.sobolev_ratios((1.0, 2.0), [1.0, 2.0], [3.0, float("nan")])
    with pytest.raises(NoConvergence, match=r"t=1\.0"):
        solver.sobolev_ratios((1.0,), [float("inf")], [3.0])
    assert solver.sobolev_ratios((1.0, 2.0), [1.0, 0.0], [4.0, 0.0]) == {1.0: 0.25, 2.0: 0.0}


_D4 = (SeriesParam.principal(1.0), SeriesParam.complementary(0.9), SeriesParam.discrete(1),
       SeriesParam.principal(3.0))


def _d4_k10_config():
    return ExperimentConfig(components=(ComponentConfig("c0", _D4),), seed=0, k_per_axis=10)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowed_primitive_ratio_is_no_convergence(tmp_path, capsys):
    # ||w|| at varsigma_4(2) = 104 overflows: (1 + Q)^104 is inf at |k| = 10,
    # and the ratio read 0.0 before
    cfg = _d4_k10_config()
    w = experiments._component_input(cfg, 0, cfg.components[0], 3, None)
    with pytest.raises(NoConvergence, match=r"t=2\.0"):
        solve_primitive(w)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    out = tmp_path / "out"
    argv = ["solve-form", "--config", str(cfg_path), "--degree", "3", "--out", str(out)]
    assert main(argv) == 4
    assert "t=2.0" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    # one order lower, every norm is finite and the solve reports
    eta, rep = solve_primitive(w, replace(solver.SolveOptions(), t_list=(1.0,)))
    assert 0.0 < rep.sobolev_ratios[1.0] < 1.0
