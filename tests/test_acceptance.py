"""Acceptance criteria, one test per criterion, with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
per-criterion timings.  Tolerances are pinned here and nowhere else.
"""

import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

import paracoh as pc
from paracoh import (
    MultiParam,
    NotInKernel,
    SeriesParam,
    Sign,
    SolveOptions,
    default_window,
)
from paracoh.distributions import dist_values_array, valid_signs
from paracoh.experiments import (
    invariance_defect,
    principal_order_sweep,
    skew_defect,
)
from paracoh.generate import (
    random_closed_form,
    random_coboundary_vector,
    random_form,
    random_kernel_tensor,
    random_tensor,
)
from paracoh.params import Kind
from paracoh.rational import dist_invariance_defect_exact, pairing_matrix_exact
from paracoh.repn import weight_q_array
from paracoh.solver import least_squares_probe, obstruction_certificate, split
from paracoh.tensor import (
    TensorCoeffs,
    basis_vector,
    norm0,
    phi_tensor,
    slice_axis,
    tensor_sobolev_norm,
    valid_tags,
)
from paracoh import forms
from tests.test_forms import _form_difference


def acceptance_grid():
    return [
        SeriesParam.principal(0.0),
        SeriesParam.principal(1.0),
        SeriesParam.principal(10.0),
        SeriesParam.complementary(0.1),
        SeriesParam.complementary(0.5),
        SeriesParam.complementary(0.9),
        SeriesParam.complementary(-0.1),
        SeriesParam.complementary(-0.5),
        SeriesParam.complementary(-0.9),
        SeriesParam.discrete(1),
        SeriesParam.discrete(2),
        SeriesParam.discrete(5),
    ]


def _verdict(num, started, detail):
    print(f"ACCEPTANCE {num} PASS ({time.time() - started:.1f}s): {detail}")


def test_criterion_01_invariance_identity():
    t0 = time.time()
    worst = 0.0
    for p in acceptance_grid():
        worst = max(worst, invariance_defect(p, 16))
    assert worst <= 1e-12, f"float invariance defect {worst:.3e}"
    exact_points = [
        (Kind.PRINCIPAL, Fraction(0), None),
        (Kind.COMPLEMENTARY, Fraction(1, 2), None),
        (Kind.DISCRETE, Fraction(3), 2),
    ]
    for kind, nu, n in exact_points:
        lo = n if kind is Kind.DISCRETE else -12
        for k in range(lo, 13):
            for tag in ("+", "-"):
                assert dist_invariance_defect_exact(kind, nu, n, tag, k) == 0
    _verdict(1, t0, f"D±(U u(k)) = 0; worst float defect {worst:.2e}, rational defects exactly 0")


def test_criterion_02_phi_duality():
    t0 = time.time()
    worst = 0.0
    for p in acceptance_grid():
        target = np.eye(2, dtype=complex)
        if p.kind is Kind.DISCRETE:
            target[1, 1] = 0.0
        worst = max(worst, float(np.max(np.abs(pc.phi_pairing_matrix(p) - target))))
    assert worst <= 1e-13, f"pairing defect {worst:.3e}"
    one, zero = Fraction(1), Fraction(0)
    assert pairing_matrix_exact(Kind.PRINCIPAL, Fraction(0)) == [[one, zero], [zero, one]]
    assert pairing_matrix_exact(Kind.COMPLEMENTARY, Fraction(1, 2)) == [[one, zero], [zero, one]]
    assert pairing_matrix_exact(Kind.DISCRETE, Fraction(3), 2) == [[one, zero], [zero, zero]]
    _verdict(2, t0, f"pairing matrix identity; worst float defect {worst:.2e}, rational exact")


def test_criterion_03_unitarity():
    t0 = time.time()
    worst = 0.0
    for p in acceptance_grid():
        worst = max(worst, skew_defect(p, 128))
    assert worst <= 1e-12, f"skew-adjointness defect {worst:.3e}"
    _verdict(3, t0, f"skew-adjointness at K=128; worst relative defect {worst:.2e}")


def test_criterion_04_degree1_round_trip():
    t0 = time.time()
    opts = SolveOptions(pad=8)
    worst = 0.0
    for p in acceptance_grid():
        win = default_window(p, 256)
        rng = np.random.default_rng(np.random.SeedSequence([4, zlib.crc32(p.label().encode())]))
        for _ in range(20):
            f, _ = random_coboundary_vector(p, win, rng)
            _, rep = pc.solve_top(f, opts)
            worst = max(worst, rep.residual_interior / rep.f_norm0)
    assert worst <= 1e-8, f"round-trip residual {worst:.3e}"
    _verdict(4, t0, f"20 coboundaries x 12 params at K=256; worst relative residual {worst:.2e}")


def test_criterion_05_obstruction_detection():
    t0 = time.time()
    # lowest discrete basis vector: D+ = 1
    p = SeriesParam.discrete(1)
    with pytest.raises(NotInKernel):
        pc.solve_top(basis_vector(p, 1, default_window(p, 64)))
    # product dual element: every tag pairs to a Kronecker delta
    mp = MultiParam((SeriesParam.complementary(0.9), SeriesParam.complementary(0.9)))
    wins = tuple(default_window(q, 64) for q in mp.factors)
    ft = phi_tensor(mp, (Sign.MINUS, Sign.MINUS), wins)
    with pytest.raises(NotInKernel):
        pc.solve_top(ft)
    # the least-squares residual cannot be polished away by refinement:
    # base-level probe at pad and 2*pad, plus the certified lower bound for
    # the joint truncated operator at both window sizes
    q = mp.factors[0]
    qwin = default_window(q, 256)
    pv = TensorCoeffs(MultiParam((q,)), (qwin,), pc.phi(q, Sign.MINUS, qwin))
    probe = least_squares_probe(pv, SolveOptions(pad=8))
    assert probe.residual >= 0.1 * probe.f_norm0
    assert probe.residual_refined >= 0.1 * probe.f_norm0
    lb1 = obstruction_certificate(ft, pad=8) / norm0(ft)
    wins2 = tuple(default_window(qq, 128) for qq in mp.factors)
    ft2 = phi_tensor(mp, (Sign.MINUS, Sign.MINUS), wins2)
    lb2 = obstruction_certificate(ft2, pad=8) / norm0(ft2)
    assert lb1 >= 0.1 and lb2 >= 0.1
    _verdict(
        5,
        t0,
        "NotInKernel raised for u(lowest) and the product dual element; "
        f"base residual {probe.residual / probe.f_norm0:.2f}, refined "
        f"{probe.residual_refined / probe.f_norm0:.2f}, certified joint bounds "
        f"{lb1:.2f} -> {lb2:.2f} under refinement (all >= 0.1)",
    )


def _slice_kernel_worst(f) -> float:
    parts = split(f)
    mp, wins = f.params, f.windows
    lead = mp.keep_leading(mp.d - 1)
    worst = 0.0
    for k in wins[-1].indices():
        sl = slice_axis(parts.f_otimes, mp.d - 1, int(k))
        for tag in valid_tags(lead):
            worst = max(worst, abs(pc.product_dist_evaluate(sl, tag)))
    rows = parts.f_d.coeffs.reshape(-1, len(wins[-1]))
    for tag in valid_signs(mp.factors[-1]):
        dv = dist_values_array(mp.factors[-1], tag, wins[-1])
        worst = max(worst, float(np.max(np.abs(rows @ dv))))
    return worst


def test_criterion_06_top_degree_d2_d3():
    t0 = time.time()
    cases = [
        (MultiParam((SeriesParam.principal(1.0), SeriesParam.principal(2.0))), 64),
        (MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5))), 64),
        (
            MultiParam(
                (
                    SeriesParam.principal(1.0),
                    SeriesParam.complementary(0.5),
                    SeriesParam.discrete(1),
                )
            ),
            32,
        ),
    ]
    worst_resid, worst_slice = 0.0, 0.0
    for mp, k in cases:
        wins = tuple(default_window(q, k) for q in mp.factors)
        rng = np.random.default_rng(np.random.SeedSequence([6, mp.d, k]))
        f = random_kernel_tensor(mp, wins, rng)
        _, rep = pc.solve_top(f)
        worst_resid = max(worst_resid, rep.residual_interior / rep.f_norm0)
        worst_slice = max(worst_slice, _slice_kernel_worst(f) / rep.f_norm0)
    assert worst_resid <= 1e-6, f"top-degree residual {worst_resid:.3e}"
    assert worst_slice <= 1e-8, f"slice-kernel defect {worst_slice:.3e}"
    _verdict(
        6,
        t0,
        f"d=2 (K=64) and d=3 (K=32) solves; worst residual {worst_resid:.2e}, "
        f"worst slice-kernel defect {worst_slice:.2e}",
    )


def test_criterion_07_lower_degrees():
    t0 = time.time()
    mp = MultiParam(
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.5), SeriesParam.discrete(1))
    )
    wins = tuple(default_window(q, 16) for q in mp.factors)
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (1, 2):
        w, _ = random_closed_form(mp, wins, n, rng)
        eta, rep = pc.solve_primitive(w)
        worst = max(worst, rep.residual_interior / rep.f_norm0)
        resid = forms.form_norm0(_form_difference(forms.exterior_derivative(eta), w))
        worst = max(worst, resid / forms.form_norm0(w))
    assert worst <= 1e-6, f"primitive residual {worst:.3e}"
    worst_dd = 0.0
    for degree in (0, 1):
        for _ in range(5):
            u = random_form(mp, wins, degree, rng, margin=0)
            dd = forms.exterior_derivative(forms.exterior_derivative(u))
            worst_dd = max(worst_dd, forms.form_norm0(dd) / forms.form_norm0(u))
    assert worst_dd <= 1e-12, f"d o d defect {worst_dd:.3e}"
    _verdict(
        7,
        t0,
        f"d=3 primitives at n=1,2; worst residual {worst:.2e}; "
        f"d o d = 0 suite worst {worst_dd:.2e}",
    )


def test_criterion_08_distribution_sum_exponent():
    t0 = time.time()
    rows, slope = principal_order_sweep(t=2.0, count=16)
    assert abs(slope - (-1.5)) <= 0.1, f"fitted slope {slope:.3f}"
    _verdict(8, t0, f"fitted slope {slope:.3f} vs -(t - 1/2) = -1.5 (tolerance 0.1)")


def test_criterion_09_projection_and_regularity():
    t0 = time.time()
    combos = [
        (SeriesParam.principal(1.0), SeriesParam.principal(2.0)),
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.5)),
        (SeriesParam.complementary(0.9), SeriesParam.discrete(1)),
        (SeriesParam.complementary(-0.5), SeriesParam.discrete(2)),
    ]
    worst_slack = 0.0
    count_per = 25  # 100 random f in total
    for ci, facs in enumerate(combos):
        mp = MultiParam(facs)
        wins = tuple(default_window(q, 12) for q in mp.factors)
        rng = np.random.default_rng(np.random.SeedSequence([9, ci]))
        tau = sig = 1.0
        for _ in range(count_per):
            f = random_tensor(mp, wins, rng, decay=2.0, margin=0)
            full_tau = tensor_sobolev_norm(f, tau)
            lhs2 = 0.0
            for k in wins[1].indices():
                r = pc.restrict(f, {1: int(k)})
                worst_slack = max(
                    worst_slack,
                    (tensor_sobolev_norm(r, tau) - full_tau) / max(full_tau, 1e-300),
                )
            for k in wins[0].indices():
                r = pc.restrict(f, {0: int(k)})
                lhs2 += (1 + weight_q_array(mp.factors[0], int(k))) ** tau * (
                    tensor_sobolev_norm(r, sig) ** 2
                )
            rhs2 = tensor_sobolev_norm(f, tau + sig) ** 2
            worst_slack = max(worst_slack, (lhs2 - rhs2) / max(rhs2, 1e-300))
    assert worst_slack <= 1e-12, f"projection inequality slack {worst_slack:.3e}"
    # regularity ratio bounded under window doubling
    mp = MultiParam((SeriesParam.principal(1.0), SeriesParam.complementary(0.5)))
    maxima = []
    for k in (12, 24):
        wins = tuple(default_window(q, k) for q in mp.factors)
        rng = np.random.default_rng(99)
        maxima.append(
            max(
                pc.regularity_check(random_kernel_tensor(mp, wins, rng), 1.0)
                for _ in range(50)
            )
        )
    assert maxima[1] <= 2.0 * maxima[0], f"regularity grew {maxima[0]:.3g} -> {maxima[1]:.3g}"
    _verdict(
        9,
        t0,
        f"projection inequalities hold over 100 f (slack {worst_slack:.1e}); regularity "
        f"max ratio {maxima[0]:.3g} -> {maxima[1]:.3g} under doubling (<= 2x)",
    )


def test_criterion_10_direct_sum_uniformity():
    t0 = time.time()
    # a one-parameter slice of components, gates eps0 = 0.05, nu0 = 0.95
    svals = (1.0, 1.25, 1.5, 1.75, 2.0)
    ratios = []
    worst_resid = 0.0
    for i, s in enumerate(svals):
        mp = MultiParam(
            (SeriesParam.principal(s), SeriesParam.complementary(0.9)),
            eps0=0.05,
            nu0=0.95,
        )
        wins = tuple(default_window(q, 32) for q in mp.factors)
        rng = np.random.default_rng(np.random.SeedSequence([10, i]))
        f = random_kernel_tensor(mp, wins, rng)
        _, rep = pc.solve_top(f)
        worst_resid = max(worst_resid, rep.residual_interior / rep.f_norm0)
        ratios.append(max(rep.sobolev_ratios.values()))
    spread = max(ratios) / min(ratios)
    assert worst_resid <= 1e-6, f"component residual {worst_resid:.3e}"
    assert spread <= 10.0, f"Sobolev-ratio spread {spread:.2f}"
    _verdict(
        10,
        t0,
        f"5 components all solve (worst residual {worst_resid:.2e}); "
        f"ratio spread {spread:.2f}x <= 10x",
    )
