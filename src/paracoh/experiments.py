"""Experiment commands: invariant suites, solves, parameter sweeps, reports.

Each command consumes an ExperimentConfig and returns a Report holding
per-component rows and sweep tables; every table row carries its parameter
point.  Every random input comes from an RNG stream derived from (seed,
index), so identical config+seed yields an identical report regardless of
scheduling.  A solve command's components run through
`parallel.gated_map`, on worker threads only when one component's default
window box, times its C(d, degree) form components, holds at least
`parallel.MIN_TASK_ENTRIES` coefficients, and otherwise in order on the
calling thread; the grid checks and sweeps are plain loops.

`_component_input` is the one source of a component's input: the kernel
tensor or closed form drawn from (seed, index), or a document over the
component's factors, which the component's task reads when given its path.  `gen` writes what a solve without inputs draws.
Every gated check row comes from `_gate_row`.

The random-sample checks carry a leading batch axis: the projection
inequalities check all samples of a product at once (`_projection_excess`),
and the regularity sweep draws, projects and checks its samples one chunk
of whole items at a time (`generate.random_coeff_chunks`, which cuts them
with `tensor.item_chunks`).  Each sample gets the numbers it got alone.  The
sweep holds one chunk and a fixed scratch: the projection works through the
chunk item by item, and each chunk is drawn into the buffer of the last.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__, forms, generate, rational, repn, serialize, solver, tensor
from .config import ComponentConfig, ExperimentConfig, config_hash
from .distributions import (
    dist_order_sum,
    dist_values_array,
    phi_pairing_matrix,
    phi_sobolev_sum,
    valid_signs,
)
from .errors import ConfigError, TailNotConverged
from .params import IndexWindow, Kind, MultiParam, SeriesParam, default_window
from .parallel import gated_map
from .repn import apply_u_axis_array, basis_norm_sq_array, u_matrix


@dataclass
class Report:
    command: str
    passed: bool
    config_hash: str
    seed: int
    version: str = __version__
    metadata: dict = field(default_factory=dict)
    components: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _report(cfg: ExperimentConfig, command: str, passed: bool, **fields) -> Report:
    """A command's report, identified by its config's hash and seed."""
    return Report(command, passed, config_hash(cfg), cfg.seed, **fields)


def check_out_dir(out_dir: str) -> str:
    """out_dir, checked before any work: it, or the nearest existing path
    above it, must be a directory.  Writing creates it."""
    path = out_dir
    while not os.path.exists(path):
        path = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(path):
        raise ConfigError(f"cannot write output directory {out_dir}: {path} is not a directory")
    return out_dir


def write_report(report: Report, out_dir) -> list[str]:
    """report.json plus one CSV per sweep table; returns written paths.  An
    OSError from creating or writing them is a ConfigError."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = [os.path.join(out_dir, f"{report.command}.json")]
        serialize.save_json(paths[0], report.to_json())
        for name, rows in report.tables.items():
            paths.append(os.path.join(out_dir, f"{report.command}.{name}.csv"))
            serialize.table_to_csv(rows, paths[-1])
    except OSError as exc:
        raise ConfigError(f"cannot write report to {out_dir}: {exc}") from exc
    return paths


def verify_grid() -> list[SeriesParam]:
    """Default parameter grid for the invariant suites."""
    return [
        SeriesParam.principal(0.0),
        SeriesParam.principal(1.0),
        SeriesParam.principal(10.0),
        SeriesParam.complementary(0.1),
        SeriesParam.complementary(0.5),
        SeriesParam.complementary(0.9),
        SeriesParam.discrete(1),
        SeriesParam.discrete(2),
        SeriesParam.discrete(5),
    ]


RATIONAL_POINTS = [
    (Kind.PRINCIPAL, Fraction(0), None),
    (Kind.COMPLEMENTARY, Fraction(1, 2), None),
    (Kind.DISCRETE, Fraction(3), 2),
]


# --- invariant suites ---------------------------------------------------------


def invariance_defect(param: SeriesParam, k: int = 32) -> float:
    """max_j |D^±(U u(j))| over a [-k, k]-type window (identity's float noise)."""
    win = default_window(param, k)
    a, wout = u_matrix(param, win)
    worst = 0.0
    for tag in valid_signs(param):
        dv = dist_values_array(param, tag, wout)
        worst = max(worst, float(np.max(np.abs(dv @ a))))
    return worst


def skew_defect(param: SeriesParam, k: int = 128) -> float:
    """Relative skew-adjointness defect of the generator over a window.

    P[j, l] = <U u(j), u(l)> is tridiagonal, so P + Pᴴ is formed on its
    diagonal and superdiagonal only (the subdiagonal holds the conjugates
    of the superdiagonal, and every other entry is 0).  The three diagonals
    come from one stencil call on unit vectors three apart.
    """
    win = default_window(param, k)
    n = len(win)
    cols = np.arange(n)
    probe = np.zeros((3, n))
    probe[cols % 3, cols] = 1.0
    a, wout = apply_u_axis_array(probe, 1, param, win)
    w2o = basis_norm_sq_array(param, wout)
    off = win.lo - wout.lo

    def band(delta):  # P[j, j + delta] = (U u(j))(j + delta) ||u(j + delta)||^2
        j = cols[max(0, -delta) : n - max(0, delta)]
        rows = j + off + delta
        return a[j % 3, rows] * w2o[rows]

    diag, upper, lower = band(0), band(1), band(-1)
    d = np.concatenate([diag + diag.conj(), upper + lower.conj()])
    scale = np.concatenate([np.abs(diag), np.maximum(np.abs(upper), np.abs(lower))])
    return float(np.max(np.abs(d) / np.maximum(scale, 1.0)))


def duality_defect(param: SeriesParam) -> float:
    """Distance of the pairing matrix from its target."""
    target = np.eye(2, dtype=np.complex128)
    if param.kind is Kind.DISCRETE:
        target[1, 1] = 0.0
    return float(np.max(np.abs(phi_pairing_matrix(param) - target)))


def _gate_row(param, value: float, bound: float) -> dict:
    """A check row that passes when value <= bound."""
    return {"param": param, "value": value, "bound": bound, "ratio": value / bound,
            "pass": value <= bound}


def rational_identity_rows() -> list[dict]:
    rows = []
    for kind, nu, n in RATIONAL_POINTS:
        worst = Fraction(0)
        lo = n if kind is Kind.DISCRETE else -8
        for k in range(lo, 9):
            for tag in ("+", "-"):
                worst = max(worst, abs(rational.dist_invariance_defect_exact(kind, nu, n, tag, k)))
        mat = rational.pairing_matrix_exact(kind, nu, n)
        want = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0 if kind is Kind.DISCRETE else 1)]]
        rows.append(
            {
                "param": f"{kind.value}(nu={nu})",
                "value": float(worst),
                "bound": 0.0,
                "ratio": 0.0,
                "pairing_exact": mat == want,
                "pass": worst == 0 and mat == want,
            }
        )
    return rows


def _default_products(d: int = 2) -> list[MultiParam]:
    g = verify_grid()
    pairs = [
        (g[1], g[2]),  # principal x principal
        (g[1], g[4]),  # principal x complementary
        (g[4], g[6]),  # complementary x discrete
        (g[6], g[7]),  # discrete x discrete
    ]
    out = [MultiParam(p) for p in pairs]
    if d == 3:
        out = [MultiParam((g[1], g[4], g[6]))]
    return out


def _projection_excess(
    params: MultiParam, windows: tuple[IndexWindow, ...], f: np.ndarray, tau: float, sig: float
) -> tuple[float, float]:
    """Largest relative excess of each projection inequality over the batch f.

    Restricting a sample to k_j on axis j multiplies the remaining
    coefficients by ||u(k_j)||, so the axis-1 restrictions of every sample
    are the transposed stack times ||u(k_1)|| and the axis-0 ones the stack
    times ||u(k_0)||.  A negative excess is slack.
    """
    (p0, p1), (w0, w1) = params.factors, windows
    both = repn.sobolev_norm_array(params.factors, windows, f, (tau, tau + sig))
    # ||f restricted at k_1||_tau <= ||f||_tau
    norm_tau = both[:, 0]
    r1 = np.ascontiguousarray(f.transpose(0, 2, 1))
    r1 *= np.sqrt(basis_norm_sq_array(p1, w1))[:, None]
    excess = repn.sobolev_norm_array((p0,), (w0,), r1, tau) - norm_tau[:, None]
    one = float(np.max(excess / np.maximum(norm_tau, 1e-300)[:, None]))
    # sum_k0 (1 + Q(k_0))^tau ||f restricted at k_0||_sig^2 <= ||f||_{tau+sig}^2,
    # the left side summed in k_0 order in Python floats
    r0 = f * np.sqrt(basis_norm_sq_array(p0, w0))[:, None]
    restricted = repn.sobolev_norm_array((p1,), (w1,), r0, sig).tolist()
    whole = both[:, 1].tolist()
    q_pow = [(1.0 + q) ** tau for q in repn.weight_q_array(p0, w0.indices()).tolist()]
    two = -math.inf
    for norms, top in zip(restricted, whole):
        lhs = 0.0
        for qt, nr in zip(q_pow, norms):
            lhs += qt * nr**2
        rhs = top**2
        two = max(two, (lhs - rhs) / max(rhs, 1e-300))
    return one, two


def projection_inequality_rows(seed: int, count: int = 24, k: int = 12) -> list[dict]:
    """Projection-inequality checks on random tensors, slack 1e-12 relative.

    The `count` samples of a product are checked as one batch.
    """
    rows = []
    for pi, params in enumerate(_default_products(2)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 101, pi]))
        windows = tuple(default_window(p, k) for p in params.factors)
        f = generate.random_coeffs(params, windows, rng, count, decay=2.0, margin=0)
        worst = max(0.0, *_projection_excess(params, windows, f, 1.0, 1.0))
        rows.append(_gate_row(params.label(), worst, 1e-12))
    return rows


def dd_zero_rows(seed: int, k: int = 6) -> list[dict]:
    rows = []
    for pi, params in enumerate(_default_products(3)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 202, pi]))
        windows = tuple(default_window(p, k) for p in params.factors)
        worst = 0.0
        for degree in (0, 1):
            for _ in range(5):
                w = generate.random_form(params, windows, degree, rng, decay=2.0, margin=0)
                dd = forms.exterior_derivative(forms.exterior_derivative(w))
                worst = max(
                    worst, forms.form_norm0(dd) / max(forms.form_norm0(w), 1e-300)
                )
        rows.append(_gate_row(params.label(), worst, 1e-12))
    return rows


# (table, check on one grid point, bound), in report order
GRID_CHECKS = (
    ("invariance", invariance_defect, 1e-12),
    ("unitarity", skew_defect, 1e-12),
    ("duality", duality_defect, 1e-13),
)


def cmd_verify_invariants(cfg: ExperimentConfig) -> Report:
    grid = verify_grid()
    tables = {}
    for name, check, bound in GRID_CHECKS:
        tables[name] = [_gate_row(p.label(), check(p), bound) for p in grid]
    tables["rational"] = rational_identity_rows()
    tables["projection"] = projection_inequality_rows(cfg.seed)
    tables["dd_zero"] = dd_zero_rows(cfg.seed)
    passed = all(row["pass"] for rows in tables.values() for row in rows)
    return _report(cfg, "verify-invariants", passed, tables=tables)


# --- solves -------------------------------------------------------------------


def _component_input(cfg: ExperimentConfig, idx: int, comp: ComponentConfig,
                     degree: int | None, doc):
    """What component `idx` is solved on: a kernel tensor (degree None) or a
    closed form of `degree`, drawn from (seed, idx) on the default windows
    when `doc` is None, or loaded from `doc`, a document or the path of one,
    whose windows may differ but factors may not.  A path is read here, so
    its text and document live only while the input is decoded."""
    params = cfg.multi_param(comp)
    if doc is None:
        windows = tuple(default_window(p, cfg.k_per_axis) for p in params.factors)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, idx]))
        if degree is None:
            return generate.random_kernel_tensor(params, windows, rng)
        return generate.random_closed_form(params, windows, degree, rng)[0]
    if isinstance(doc, (str, os.PathLike)):
        doc = serialize.load_json(doc)
    load = serialize.tensor_from_json if degree is None else serialize.form_from_json
    obj = load(doc, eps0=cfg.eps0, nu0=cfg.nu0)
    if obj.params.factors != params.factors:
        raise ConfigError(f"input for component {comp.label!r} is over {obj.params.label()}, "
                          f"not its factors {params.label()}")
    if degree is not None and obj.degree != degree:
        raise ConfigError(f"input form has degree {obj.degree}, requested {degree}")
    return obj


def _solve_components(cfg: ExperimentConfig, input_docs, degree, solve, row) -> list[dict]:
    """row(comp, input, report, fn0) for every component, through the gated
    map: each input (its document, or the path of one, in `input_docs`, or
    drawn when None) solved by `solve`; fn0 is the input's norm, or 1 for a
    zero input.  A task loads its own input, so a worker holds one document.
    A task's size is its component's default window box times the C(d,
    degree) components of a form; a document's own windows do not count."""
    n = len(cfg.components)
    if input_docs is not None and len(input_docs) != n:
        raise ConfigError(f"{len(input_docs)} inputs for {n} components")
    docs = [None] * n if input_docs is None else input_docs

    def task(item):
        idx, comp, doc = item
        obj = _component_input(cfg, idx, comp, degree, doc)
        _, rep = solve(obj, cfg.solve_options())
        return row(comp, obj, rep, rep.f_norm0 if rep.f_norm0 > 0 else 1.0)

    box = max(math.prod(len(default_window(p, cfg.k_per_axis)) for p in comp.factors)
              for comp in cfg.components)
    entries = box * math.comb(cfg.d, cfg.d if degree is None else degree)
    return gated_map(task, list(zip(range(n), cfg.components, docs)), entries)


def _solve_report(cfg: ExperimentConfig, command: str, rows: list[dict], **metadata) -> Report:
    """A solve command passes when every component's residual is within tol_residual."""
    max_resid = max(r["residual_rel"] for r in rows)
    metadata = {"max_residual_rel": max_resid, **metadata}
    return _report(cfg, command, max_resid <= cfg.tol_residual, metadata=metadata, components=rows)


def cmd_solve_top(cfg: ExperimentConfig, input_docs=None) -> Report:
    """Top-degree solves; `input_docs` holds one document, or the path of
    one, per component, and None draws the inputs."""
    def row(comp, f, rep, fn0):
        return {
            "param": comp.label,
            "label": comp.label,
            "factors": f.params.label(),
            "residual_rel": rep.residual_interior / fn0,
            "kernel_defect_rel": rep.kernel_defect / fn0,
            "sobolev_ratios": {str(t): r for t, r in rep.sobolev_ratios.items()},
            "max_ratio": max(rep.sobolev_ratios.values(), default=0.0),
            "refinements": 0,  # every solve runs once; the key stays in the report schema
        }

    rows = _solve_components(cfg, input_docs, None, solver.solve_top, row)
    ratios = [r["max_ratio"] for r in rows if r["max_ratio"] > 0]
    spread = (max(ratios) / min(ratios)) if ratios else 1.0
    # uniformity is reported, not gated: heterogeneous component mixes vary
    # legitimately with the Casimir sums (ratios are one-sided bounds)
    return _solve_report(cfg, "solve-top", rows, ratio_spread=spread, uniformity_ok=spread <= 10.0)


def _check_form_degree(cfg: ExperimentConfig, degree: int | None) -> None:
    if degree is None or not 1 <= degree <= cfg.d - 1:
        raise ConfigError(f"form degree {degree} is not in [1, d-1] = [1, {cfg.d - 1}]; "
                          "top degree is solve-top's job")


def cmd_solve_form(cfg: ExperimentConfig, degree: int, input_docs=None) -> Report:
    """Primitive solves of degree-`degree` forms; `input_docs` as in
    `cmd_solve_top`."""
    _check_form_degree(cfg, degree)

    def row(comp, w, rep, fn0):
        return {
            "param": comp.label,
            "label": comp.label,
            "factors": w.params.label(),
            "degree": degree,
            "residual_rel": rep.residual_interior / fn0,
            "closedness_defect_rel": rep.kernel_defect / fn0,
            "sobolev_ratios": {str(t): r for t, r in rep.sobolev_ratios.items()},
            "max_ratio": max(rep.sobolev_ratios.values(), default=0.0),
        }

    rows = _solve_components(cfg, input_docs, degree, forms.solve_primitive, row)
    return _solve_report(cfg, "solve-form", rows, degree=degree)


# --- sweeps -------------------------------------------------------------------


def principal_order_sweep(t: float = 2.0, count: int = 16) -> tuple[list[dict], float]:
    """log dist_order_sum vs log(1+mu) over principal nu = i s, s in [1, 100]."""
    rows = []
    for s in np.geomspace(1.0, 100.0, count):
        p = SeriesParam.principal(float(s))
        r = dist_order_sum(p, t)
        rows.append({"param": float(s), "value": r.value, "bound": r.comparison,
                     "ratio": r.ratio, "mu": p.mu})
    xs = np.log([1.0 + r["mu"] for r in rows])
    ys = np.log([r["value"] for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope


def discrete_order_sweep(t: float = 2.0, ns=(1, 2, 5)) -> list[dict]:
    rows = []
    for n in ns:
        p = SeriesParam.discrete(n)
        try:
            r = dist_order_sum(p, t)
            rows.append(
                {"param": f"n={n}", "value": r.value, "bound": r.comparison,
                 "ratio": r.ratio, "tail_converged": True}
            )
        except TailNotConverged as exc:
            rows.append(
                {"param": f"n={n}", "value": None, "bound": None, "ratio": None,
                 "tail_converged": False, "note": str(exc)}
            )
    return rows


def phi_sum_rows(t_list=(1.0, 2.0)) -> list[dict]:
    rows = []
    for p in verify_grid():
        for t in t_list:
            r = phi_sobolev_sum(p, t)
            rows.append(
                {"param": f"{p.label()}, t={t}", "value": r.value, "bound": r.bound,
                 "ratio": r.ratio}
            )
    return rows


def phi_blowup_sweep(t: float = 1.0) -> tuple[list[dict], float]:
    """Complementary nu -> 0 with the gate bypassed; ratio grows like nu^-2."""
    nus = [0.2, 0.1, 0.05, 0.02, 0.01]
    rows = []
    for nu in nus:
        p = SeriesParam.complementary(nu)
        r = phi_sobolev_sum(p, t)
        rows.append(
            {"param": nu, "value": r.value, "bound": r.bound, "ratio": r.ratio,
             "gate_bypassed": True}
        )
    slope = float(
        np.polyfit(np.log([r["param"] for r in rows]), np.log([r["ratio"] for r in rows]), 1)[0]
    )
    return rows, slope


def regularity_rows(cfg: ExperimentConfig, count: int = 50) -> list[dict]:
    """Worst split-regularity ratio over `count` random kernel tensors per
    (component, t), drawn, projected and checked one chunk of whole items at
    a time, each drawn into the buffer of the last."""
    rows = []
    for idx, comp in enumerate(cfg.components):
        params = cfg.multi_param(comp)
        if params.d < 2:
            continue
        windows = tuple(default_window(p, min(cfg.k_per_axis, 24)) for p in params.factors)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 303, idx]))
        for t in cfg.t_list:
            worst = 0.0
            for arr in generate.random_coeff_chunks(params, windows, rng, count):
                tensor.kernel_project_array(params, windows, arr)
                ratios = solver.regularity_array(params.factors, windows, arr, t)
                worst = max(worst, float(np.max(ratios)))
            rows.append({"param": f"{comp.label}, t={t}", "value": worst,
                         "bound": None, "ratio": None})
    return rows


def cmd_sweep_bounds(cfg: ExperimentConfig) -> Report:
    principal_rows, slope = principal_order_sweep(t=2.0)
    blowup_rows, blow_slope = phi_blowup_sweep()
    tables = {
        "dist_order_principal": principal_rows,
        "dist_order_discrete": discrete_order_sweep(t=2.0),
        "phi_sum": phi_sum_rows(cfg.t_list),
        "phi_gate_blowup": blowup_rows,
        "regularity": regularity_rows(cfg),
    }
    slope_ok = abs(slope - (-1.5)) <= 0.1
    n1 = tables["dist_order_discrete"][0]
    metadata = {
        "principal_slope": slope,
        "principal_slope_expected": -1.5,
        "principal_slope_ok": slope_ok,
        "phi_blowup_exponent": blow_slope,
        "discrete_n1_ratio": n1["ratio"],
    }
    return _report(cfg, "sweep-bounds", slope_ok, metadata=metadata, tables=tables)


# --- input generation ---------------------------------------------------------


def cmd_gen(cfg: ExperimentConfig, kind: str, degree: int | None, out_dir) -> list[str]:
    """Write per-component random inputs (kernel tensors or closed forms)."""
    if kind == "tensor":
        degree, save = None, serialize.save_tensor
    elif kind == "form":
        _check_form_degree(cfg, degree)
        save = serialize.save_form
    else:
        raise ConfigError(f"unknown gen kind {kind!r} (want tensor|form)")
    paths = [os.path.join(out_dir, f"{comp.label}.{kind}.json") for comp in cfg.components]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for idx, (comp, path) in enumerate(zip(cfg.components, paths)):
            save(path, _component_input(cfg, idx, comp, degree, None))
    except OSError as exc:
        raise ConfigError(f"cannot write inputs to {out_dir}: {exc}") from exc
    return paths
