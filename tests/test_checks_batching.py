"""The batched checks against the per-sample code they replaced.

`projection_inequality_rows` and `regularity_rows` draw and check all their
samples as one batch: `generate.random_coeffs` makes one normal draw for the
batch, `tensor.kernel_project_array` and `tensor.product_dist_array` contract
every item at once, and `repn.sobolev_norm_array` norms over the trailing
axes.  The references below are the per-sample functions as they stood
before batching, kept here as the oracle.  The rows must be equal as JSON
text, and the batched layers bitwise equal item by item.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from paracoh import experiments, generate, repn, solver, tensor
from paracoh import distributions as dist
from paracoh.config import default_config
from paracoh.params import MultiParam, SeriesParam, default_window
from paracoh.tensor import TensorCoeffs

# --- reference: the per-sample checks --------------------------------------------


def _ref_sobolev_norm(factors, windows, coeffs, t):
    mag2 = np.abs(coeffs) ** 2
    if t == 0.0:
        return float(np.sqrt(np.sum(mag2 * repn.basis_norm_sq_grid(factors, windows))))
    qgrid, w2 = repn.weight_grids(factors, windows)
    return float(np.sqrt(np.sum(qgrid**t * mag2 * w2)))


def _ref_norm(f, t):
    return _ref_sobolev_norm(f.params.factors, f.windows, f.coeffs, t)


def _ref_random_tensor(params, windows, rng, decay=4.0, margin=2):
    qgrid, _ = repn.weight_grids(params.factors, windows)
    shape = qgrid.shape
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    coeffs = z * qgrid ** (-decay)
    for j, (p, w) in enumerate(zip(params.factors, windows)):
        mask_shape = [1] * params.d
        mask_shape[j] = len(w)
        coeffs = coeffs * generate._edge_mask(p, w, margin).reshape(mask_shape)
    return TensorCoeffs(params, tuple(windows), coeffs)


def _ref_product_dist(f, tag):
    out = f.coeffs
    for p, w, s in zip(f.params.factors, f.windows, tag):
        out = np.tensordot(out, dist.dist_values_array(p, s, w), axes=([0], [0]))
    return complex(out)


def _ref_kernel_project(f):
    arr = f.coeffs.copy()
    for tag in tensor.valid_tags(f.params):
        c = _ref_product_dist(f, tag)
        if c != 0:
            arr = arr - c * tensor.phi_tensor(f.params, tag, f.windows).coeffs
    return TensorCoeffs(f.params, f.windows, arr)


def _ref_regularity_check(f, t, c=0.5):
    denom = _ref_norm(f, 2.0 * t + c)
    if denom == 0.0:
        return 0.0
    return _ref_norm(solver.split(f).f_otimes, t) / denom


def _ref_projection_rows(seed, count=24, k=12):
    rows = []
    for pi, params in enumerate(experiments._default_products(2)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 101, pi]))
        windows = tuple(default_window(p, k) for p in params.factors)
        worst_one = 0.0
        worst_two = 0.0
        for _ in range(count):
            f = _ref_random_tensor(params, windows, rng, decay=2.0, margin=0)
            tau, sig = 1.0, 1.0
            norm_tau = _ref_norm(f, tau)
            for kk in windows[1].indices():
                r = tensor.restrict(f, {1: int(kk)})
                excess = _ref_norm(r, tau) - norm_tau
                worst_one = max(worst_one, excess / max(norm_tau, 1e-300))
            lhs = 0.0
            for kk in windows[0].indices():
                r = tensor.restrict(f, {0: int(kk)})
                q = repn.weight_q_array(params.factors[0], int(kk))
                lhs += (1.0 + q) ** tau * _ref_norm(r, sig) ** 2
            rhs = _ref_norm(f, tau + sig) ** 2
            worst_two = max(worst_two, (lhs - rhs) / max(rhs, 1e-300))
        rows.append(
            {
                "param": params.label(),
                "value": max(worst_one, worst_two),
                "bound": 1e-12,
                "ratio": max(worst_one, worst_two) / 1e-12,
                "pass": max(worst_one, worst_two) <= 1e-12,
            }
        )
    return rows


def _ref_projection_excess(params, windows, fs, tau, sig):
    # the two worst relative excesses above, before the rows clamp them at 0
    worst_one = worst_two = -np.inf
    for f in fs:
        norm_tau = _ref_norm(f, tau)
        for kk in windows[1].indices():
            excess = _ref_norm(tensor.restrict(f, {1: int(kk)}), tau) - norm_tau
            worst_one = max(worst_one, excess / max(norm_tau, 1e-300))
        lhs = 0.0
        for kk in windows[0].indices():
            q = repn.weight_q_array(params.factors[0], int(kk))
            lhs += (1.0 + q) ** tau * _ref_norm(tensor.restrict(f, {0: int(kk)}), sig) ** 2
        rhs = _ref_norm(f, tau + sig) ** 2
        worst_two = max(worst_two, (lhs - rhs) / max(rhs, 1e-300))
    return worst_one, worst_two


def _ref_regularity_rows(cfg, count=50):
    rows = []
    for idx, comp in enumerate(cfg.components):
        params = cfg.multi_param(comp)
        if params.d < 2:
            continue
        windows = tuple(default_window(p, min(cfg.k_per_axis, 24)) for p in params.factors)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 303, idx]))
        for t in cfg.t_list:
            worst = 0.0
            for _ in range(count):
                f = _ref_kernel_project(_ref_random_tensor(params, windows, rng))
                worst = max(worst, _ref_regularity_check(f, t))
            rows.append({"param": f"{comp.label}, t={t}", "value": worst,
                         "bound": None, "ratio": None})
    return rows


# --- rows ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_projection_rows_match_per_sample_reference(seed):
    got = experiments.projection_inequality_rows(seed)
    assert json.dumps(got) == json.dumps(_ref_projection_rows(seed))


@pytest.mark.parametrize("seed", range(5))
def test_projection_excess_matches_per_sample_reference(seed):
    # the rows read 0 whenever both inequalities hold with slack; the excess
    # itself is where a changed order of additions would show
    for pi, params in enumerate(experiments._default_products(2)):
        windows = tuple(default_window(p, 12) for p in params.factors)
        rng = np.random.default_rng([seed, pi])
        batch = generate.random_coeffs(params, windows, rng, 24, decay=2.0, margin=0)
        fs = [TensorCoeffs(params, windows, a) for a in batch]
        for tau, sig in ((1.0, 1.0), (0.5, 2.0))[: 2 if seed == 0 else 1]:
            got = experiments._projection_excess(params, windows, batch, tau, sig)
            assert got == _ref_projection_excess(params, windows, fs, tau, sig)


@pytest.mark.parametrize("seed", range(5))
def test_regularity_rows_match_per_sample_reference(seed):
    cfg = default_config(d=2, seed=seed, k_per_axis=32)
    assert json.dumps(experiments.regularity_rows(cfg)) == json.dumps(_ref_regularity_rows(cfg))


def test_regularity_rows_d3_in_several_batches(monkeypatch):
    # the 50 draws are one batch at this size; a budget of three samples
    # splits them into 16 batches of 3 and one of 2, as a large K would
    cfg = replace(default_config(d=3, seed=4, k_per_axis=6), t_list=(0.5, 1.5))
    want = json.dumps(_ref_regularity_rows(cfg))
    assert json.dumps(experiments.regularity_rows(cfg)) == want
    size = int(np.prod([len(default_window(p, 6)) for p in cfg.components[0].factors]))
    monkeypatch.setattr(experiments, "REGULARITY_BATCH_ENTRIES", 3 * size)
    assert json.dumps(experiments.regularity_rows(cfg)) == want


def test_regularity_check_zero_tensor_and_batch_of_one(rng):
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.discrete(1)))
    wins = tuple(default_window(p, 5) for p in mp.factors)
    assert solver.regularity_check(tensor.zeros(mp, wins), 1.0) == 0.0
    f = _ref_kernel_project(_ref_random_tensor(mp, wins, rng))
    assert solver.regularity_check(f, 1.5) == _ref_regularity_check(f, 1.5)
    with pytest.raises(ValueError):
        solver.regularity_array(mp.factors[:1], wins[:1], f.coeffs[None, :, 0], 1.0)


# --- layers, bitwise at d = 1..4 ----------------------------------------------------

KINDS = (
    SeriesParam.principal(1.5),
    SeriesParam.complementary(0.7),
    SeriesParam.discrete(2),
    SeriesParam.principal(0.0),
)


def _products(d):
    for start in range(len(KINDS)):
        factors = tuple(KINDS[(start + j) % len(KINDS)] for j in range(d))
        for k in (3, 9 if d < 4 else 5):
            yield MultiParam(factors), tuple(default_window(p, k) for p in factors)


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_draw_equals_sequential_draws(d):
    for mp, wins in _products(d):
        for decay, margin in ((4.0, 2), (2.0, 0)):
            batch = generate.random_coeffs(mp, wins, np.random.default_rng(3), 5, decay, margin)
            rng = np.random.default_rng(3)
            for item in batch:
                assert _bits(item) == _bits(_ref_random_tensor(mp, wins, rng, decay, margin).coeffs)
            one = generate.random_tensor(mp, wins, np.random.default_rng(3), decay, margin)
            assert _bits(one.coeffs) == _bits(batch[0])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batched_kernel_project_and_product_dist(d):
    for mp, wins in _products(d):
        batch = generate.random_coeffs(mp, wins, np.random.default_rng(5), 4)
        items = [TensorCoeffs(mp, wins, a) for a in batch]
        for tag in tensor.valid_tags(mp):
            vals = tensor.product_dist_array(mp.factors, wins, batch, tag)
            want = [_ref_product_dist(f, tag) for f in items]
            assert _bits(vals) == _bits(np.array(want))
            assert [tensor.product_dist_evaluate(f, tag) for f in items] == want
            # two batch axes contract like one
            square = batch.reshape((2, 2) + batch.shape[1:])
            two = tensor.product_dist_array(mp.factors, wins, square, tag)
            assert _bits(two) == _bits(vals)
        projected = tensor.kernel_project_array(mp, wins, batch.copy())
        for f, got in zip(items, projected):
            want = _ref_kernel_project(f).coeffs
            assert _bits(got) == _bits(want)
            assert _bits(tensor.kernel_project(f).coeffs) == _bits(want)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batched_sobolev_norm(d):
    for mp, wins in _products(d):
        batch = generate.random_coeffs(mp, wins, np.random.default_rng(7), 3, decay=1.0, margin=0)
        for t in (0.0, 1.0, 2.5):
            norms = repn.sobolev_norm_array(mp.factors, wins, batch, t)
            want = [_ref_sobolev_norm(mp.factors, wins, a, t) for a in batch]
            assert norms.shape == (3,) and norms.tolist() == want
            single = repn.sobolev_norm_array(mp.factors, wins, batch[0], t)
            assert type(single) is float and single == want[0]


def test_batch_of_one_keeps_generated_inputs():
    # `gen` and the solve commands draw one kernel tensor at a time
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.9)))
    wins = tuple(default_window(p, 8) for p in mp.factors)
    got = generate.random_kernel_tensor(mp, wins, np.random.default_rng(11))
    want = _ref_kernel_project(_ref_random_tensor(mp, wins, np.random.default_rng(11)))
    assert _bits(got.coeffs) == _bits(want.coeffs)
