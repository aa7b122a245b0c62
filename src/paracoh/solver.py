"""Coboundary solvers: the degree-1 base case, the splitting, the recursion.

The degree-1 equation U g = f (`solve_top` on a rank-1 tensor) is solved as
a weighted least-squares problem on f's own window.  The truncated
operator is a full-column-rank banded matrix whose cokernel is exactly the
span of the restricted invariant functionals, so for inputs annihilated by
those functionals the truncated system is consistent and the (unique)
least-squares solution is exact up to rounding.  U is tridiagonal, so that
solution is the recurrence solved upward from f's lower window edge: it
vanishes outside f's window, and a wider window would only add zeros.
Obstructed inputs leave a residual bounded below by the dual certificate
|D(f)| / ||Riesz(D)||, which `obstruction_certificate` reports.

The least-squares problem min ||f̂ - Â x̂|| for the weighted generator
Â = w_out U / w_in goes through its augmented system [[a I, Â], [Âᴴ, 0]],
interleaved into a band matrix (`_band_factor`), so the normal equations
are never formed.  The band LU and the three diagonals of Â, read from the
one stencil `repn.apply_u_axis_array`, are cached per (parameter, window)
in O(n) memory; one LAPACK zgbtrs call (`_lapack`, in numpy's own OpenBLAS)
solves a batch of right-hand sides in O(n) per row, and the residual
f̂ - Â x̂ is taken directly from the band.

Top degree recurses on the number of factors, one step per level: split f
into f_otimes + f_d, solve the leading-factor problems for the split
amplitudes F_plus and F_minus, solve the last-factor equation row by row for
f_d (for f itself at d = 1), and assemble.  The recursion carries a leading
batch axis: every valid amplitude of every item, zero or not, goes down as
one batch, so each level makes one least-squares call whatever the batch
size (`forms` puts every axis-0 slice of a form in one batch).  Every
g_i comes back on f's windows, and every row whose residual misses
tol_residual * scale raises NoConvergence.  `verify_solution` sums the
residual with `tensor.u_sum` on one hull, f's windows widened by one on each
axis.  Every norm goes through `repn.sobolev_norm_array`: the verification
norms f once for ||f||_0 and every sigma_d(t), and each g_i once for every t;
`solve_top` hands it the ||f||_0 and the kernel defect of its guard, so f
is normed at the sigma_d(t) only.  A Sobolev ratio whose numerator or
denominator is not finite raises NoConvergence (`sobolev_ratios`).

Memory: a top-degree solve holds f, its d outputs and one level's workspace
at a time.  `_lstsq_rows` allocates only the zgbtrs right-hand sides and the
solutions, and forms the residual in the former's buffer; a level drops
f_otimes, the amplitudes and their batch once its rows exist, and makes its
product buffer only after the sub-recursion returns; `tensor.u_sum` makes
each U_i g_i only to add it into the hull.  The split writes F_+ phi_+ into
f_otimes and adds F_- phi_- from one scratch of the same size, and
`regularity_array` splits and norms a chunk of items at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _lapack, tensor
from .distributions import Sign, dist_values_array, phi, valid_signs
from .errors import NoConvergence, NotInKernel, ParamMismatch
from .params import IndexWindow, MultiParam, SeriesParam, expand_window
from .repn import apply_u_axis_array, basis_norm_sq_array, sobolev_norm_array
from .tensor import TensorCoeffs, norm0, valid_tags


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and reporting knobs for all solvers.

    Every solve runs on its input's own windows, one least-squares call per
    level.  Padded windows remain only in `least_squares_probe` and the joint
    degree-1 fallback of `forms.solve_primitive`, which read `pad`, and in
    `obstruction_certificate`, which takes its own.  `max_refine` no longer
    changes a solve; it stays a validated key because configs and the
    benchmark gate pin it.
    """

    pad: int = 8
    tol_kernel: float = 1e-8
    tol_residual: float = 1e-8
    max_refine: int = 3
    t_list: tuple[float, ...] = (1.0, 2.0)

    def __post_init__(self):
        if self.pad < 2:
            raise ValueError(f"pad must be >= 2, got {self.pad}")
        if self.tol_kernel <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_refine < 1:
            raise ValueError(
                f"max_refine must be >= 1, got {self.max_refine} (the key is validated "
                "for config compatibility; solves make no refinements)"
            )


@dataclass
class SolveReport:
    """Residual and Sobolev-ratio diagnostics for one solver call.

    residual_interior and kernel_defect are absolute ||.||_0 quantities;
    divide by f_norm0 for the relative gates.
    """

    residual_interior: float
    f_norm0: float
    kernel_defect: float
    sobolev_ratios: dict[float, float] = field(default_factory=dict)


# SPLIT_C is both what each level of `sigma_schedule` adds and the order
# 2t + SPLIT_C at which `regularity_array` measures f.
SIGMA_1 = 3.0
SPLIT_C = 0.5


def sigma_schedule(t: float, d: int) -> float:
    """Sobolev loss for the top-degree solve: sigma_1 = t + SIGMA_1, then
    sigma_d = 2(sigma_{d-1} + t) + SPLIT_C."""
    if t <= 0:
        raise ValueError(f"needs t > 0, got {t}")
    if d < 1:
        raise ValueError(f"needs d >= 1, got {d}")
    sigma = t + SIGMA_1
    for _ in range(d - 1):
        sigma = 2.0 * (sigma + t) + SPLIT_C
    return sigma


# --- degree-1 least squares ------------------------------------------------


# The augmented system [[a I, Â], [Âᴴ, 0]] [r; x̂] = [f̂; 0], with the scaled
# residual r_i = (f̂ - Â x̂)_i / a of output row i at position 2i and the
# unknown x̂_j at 2(j + off) + 1, is a band matrix with three sub- and
# superdiagonals.  x̂ does not depend on a, but its rounding error does: it
# is u * cond(Â) once a <= sigma_min(Â) (Björck), and sigma_min(Â) is about
# 0.3/n at nu0.  With a = 1 solutions were up to 70x less accurate (discrete
# n=1, K=1024) and d=2 primitives' residuals 15x larger than with a dense QR;
# every a from 1e-2 down to 1e-12 gave the same, better accuracy.
_ALPHA = 2.0**-20
_KL = _KU = 3
_DIAG = _KL + _KU  # row of the main diagonal in LAPACK band storage


@dataclass(frozen=True)
class _Factor:
    lu: np.ndarray     # zgbtrf band LU of the interleaved augmented system
    piv: np.ndarray    # its pivots, 1-based (0-based from the scipy fallback)
    wu: np.ndarray     # (3, n): w_out U at (j + off + delta, j), delta = -1, 0, 1
    win_out: IndexWindow
    w_in: np.ndarray
    w_out: np.ndarray


@lru_cache(maxsize=32)
def _band_factor(param: SeriesParam, lo: int, hi: int) -> _Factor:
    win_in = IndexWindow(lo, hi)
    n = len(win_in)
    cols = np.arange(n)
    # unit vectors three apart: each output of the stencil comes from one column
    probe = np.zeros((3, n))
    probe[cols % 3, cols] = 1.0
    a, win_out = apply_u_axis_array(probe, 1, param, win_in)
    m, off = len(win_out), lo - win_out.lo
    w_in = np.sqrt(basis_norm_sq_array(param, win_in))
    w_out = np.sqrt(basis_norm_sq_array(param, win_out))
    if not np.all(np.isfinite(w_out) & (w_out > 0)):
        raise NoConvergence(
            f"basis weights of {param.label()} on [{win_out.lo}, {win_out.hi}] leave the "
            "floating-point range; the band factor needs finite positive weights"
        )
    wu = np.zeros((3, n), dtype=np.complex128)
    ab = np.zeros((2 * _KL + _KU + 1, 2 * m - 1), dtype=np.complex128, order="F")
    ab[_DIAG, ::2] = _ALPHA
    ab[_DIAG, 1 : 2 * off : 2] = 1.0  # the odd slot left over below x̂_0
    for delta in (-1, 0, 1):
        j = cols[max(0, -(off + delta)) :]  # columns whose output row exists
        rows = j + off + delta
        wu[delta + 1, j] = w_out[rows] * a[j % 3, rows]
        a_hat = wu[delta + 1, j] / w_in[j]
        ab[_DIAG + 2 * delta - 1, 2 * (j + off) + 1] = a_hat
        ab[_DIAG + 1 - 2 * delta, 2 * rows] = np.conj(a_hat)
    lu, piv, info = _lapack.zgbtrf(ab, _KL, _KU, overwrite_ab=1)
    if info != 0:
        raise NoConvergence(f"band factor of {param.label()} on [{lo}, {hi}]: zgbtrf info={info}")
    return _Factor(lu, piv, wu, win_out, w_in, w_out)


def _lstsq_rows(
    param: SeriesParam, win_in: IndexWindow, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solve of the generator for a batch of right-hand sides.

    rhs has shape (batch, len(win_in)), on the solve's own window; returns
    (solutions on win_in, per-row residual in the ||.||_0 metric over the
    full output window).  Besides the two results it allocates only the
    zgbtrs right-hand sides b, whose buffer then holds the residual and its
    product term.
    """
    fac = _band_factor(param, win_in.lo, win_in.hi)
    n, off = len(win_in), win_in.lo - fac.win_out.lo
    w_rhs = fac.w_out[off : off + n]
    batch, width = rhs.shape[0], fac.lu.shape[1]
    # rows of b are right-hand sides, so b.T is the column-major (N, batch) zgbtrs
    # wants; f̂ = w_out f goes into the even slots
    b = np.zeros((batch, width), dtype=np.complex128)
    np.multiply(rhs, w_rhs, out=b[:, 2 * off : 2 * (off + n) : 2])
    x, _ = _lapack.zgbtrs(fac.lu, _KL, _KU, b.T, fac.piv, overwrite_b=1)
    sol = x.T[:, 2 * off + 1 :: 2] / fac.w_in
    # residual Â x̂ - f̂ = w_out U g - f̂ from the band, one column ahead so
    # that every slice starts at >= 0, in the buffer sol was read from (a view:
    # x is column-major); f̂ is formed again in the product term
    m = len(fac.win_out) + 1
    buf = np.ravel(x.T)
    resid = buf[: batch * m].reshape(batch, m)
    resid[...] = 0.0
    if width >= m + n:
        term = buf[batch * m : batch * (m + n)].reshape(batch, n)
    else:  # a window clipped at the lowest weight has one output fewer
        term = np.empty((batch, n), dtype=np.complex128)
    for delta in (-1, 0, 1):
        start = off + delta + 1
        resid[:, start : start + n] += np.multiply(fac.wu[delta + 1], sol, out=term)
    resid[:, off + 1 : off + 1 + n] -= np.multiply(rhs, w_rhs, out=term)
    parts = resid.view(np.float64)  # row norms without a complex temporary
    return sol, np.sqrt(np.einsum("ij,ij->i", parts, parts))


def _solve_rows_refined(
    param: SeriesParam,
    win_rhs: IndexWindow,
    rhs: np.ndarray,
    opts: SolveOptions,
    scale: float,
) -> tuple[np.ndarray, IndexWindow, float, int]:
    """One least-squares solve of a batch sharing one operator, on the rows'
    own window.

    Returns (solutions on win_rhs, win_rhs, worst residual, refinement count);
    the count is always 0 and stays in the result for its readers.  Raises
    NoConvergence if some row's residual exceeds tol_residual * scale.
    """
    sol, resid = _lstsq_rows(param, win_rhs, rhs)
    tol = opts.tol_residual * scale
    worst = float(np.max(resid, initial=0.0))
    if not np.all(resid <= tol):
        raise NoConvergence(
            f"degree-1 residual {worst:.3e} on {param.label()} [{win_rhs.lo}, {win_rhs.hi}] "
            f"above tol_residual * scale = {tol:.3e}"
        )
    return sol, win_rhs, worst, 0


# --- splitting --------------------------------------------------------------


@dataclass(frozen=True)
class SplitParts:
    """f = f_otimes + f_d, with the split amplitudes F_± exposed."""

    f_otimes: TensorCoeffs
    f_d: TensorCoeffs
    amplitudes: dict[Sign, TensorCoeffs]  # rank d-1, F_s(k) = sum_m f(k,m) D^s(u(m))


def split(f: TensorCoeffs) -> SplitParts:
    """Separate the last factor: f_otimes(k,l) = sum_± phi_±(l) F_±(k)."""
    d = f.d
    if d < 2:
        raise ValueError("split needs d >= 2")
    amps, f_ot = _split_last(f.params.factors[-1], f.windows[-1], f.coeffs)
    lead_params = f.params.keep_leading(d - 1)
    amplitudes = {s: TensorCoeffs(lead_params, f.windows[:-1], a) for s, a in amps.items()}
    f_otimes = TensorCoeffs(f.params, f.windows, f_ot)
    f_d = TensorCoeffs(f.params, f.windows, f.coeffs - f_ot)
    return SplitParts(f_otimes, f_d, amplitudes)


def _split_last(
    p_last: SeriesParam, w_last: IndexWindow, arr: np.ndarray
) -> tuple[dict[Sign, np.ndarray], np.ndarray]:
    """Amplitudes F_± over the last axis of arr (any leading axes) and f_otimes.

    F_+ phi_+ is written into f_otimes and F_- phi_- added from one
    arr-sized scratch, so the split holds two arrays the size of arr.
    """
    amplitudes = {
        s: np.tensordot(arr, dist_values_array(p_last, s, w_last), axes=([arr.ndim - 1], [0]))
        for s in (Sign.PLUS, Sign.MINUS)
    }
    f_ot = np.multiply(amplitudes[Sign.PLUS][..., None], phi(p_last, Sign.PLUS, w_last))
    f_ot += 0.0  # -0.0 becomes +0.0, as in a sum begun at 0.0: f_otimes keeps its bytes
    f_ot += amplitudes[Sign.MINUS][..., None] * phi(p_last, Sign.MINUS, w_last)
    return amplitudes, f_ot


def regularity_array(
    factors: tuple[SeriesParam, ...],
    windows: tuple[IndexWindow, ...],
    arr: np.ndarray,
    t: float,
) -> np.ndarray:
    """Diagnostic ratios ||f_otimes||_t / ||f||_{2t+SPLIT_C}, one per item of arr.

    The windows index the trailing axes; leading axes are a batch.  An
    item with ||f|| = 0 has ratio 0.  The items are split and normed a
    chunk at a time (`tensor.item_chunks`), so f_otimes exists for one
    chunk only.  Raises NoConvergence naming t when a norm is not finite,
    as `sobolev_ratios` does.
    """
    if len(windows) < 2:
        raise ValueError("needs d >= 2")
    if t <= 0:
        raise ValueError(f"needs t > 0, got {t}")
    lead = arr.shape[: arr.ndim - len(windows)]
    items = arr.reshape((-1,) + arr.shape[len(lead) :])
    ratios = np.zeros(len(items))
    for chunk in tensor.item_chunks(len(items), int(np.prod(items.shape[1:]))):
        part = items[chunk]
        denom = sobolev_norm_array(factors, windows, part, 2.0 * t + SPLIT_C)
        _, f_ot = _split_last(factors[-1], windows[-1], part)
        num = sobolev_norm_array(factors, windows, f_ot, t)
        del f_ot
        if not (np.isfinite(num).all() and np.isfinite(denom).all()):
            raise NoConvergence(f"regularity ratio at t={t}: a norm left the floating-point range")
        np.divide(num, denom, out=ratios[chunk], where=denom != 0.0)
    return ratios.reshape(lead)


def regularity_check(f: TensorCoeffs, t: float) -> float:
    """Diagnostic ratio ||f_otimes||_t / ||f||_{2t+SPLIT_C}."""
    return float(regularity_array(f.params.factors, f.windows, f.coeffs[None], t)[0])


# --- top-degree recursion ---------------------------------------------------


def _slice_kernel_guard(
    rows: np.ndarray, param: SeriesParam, window: IndexWindow, opts: SolveOptions, scale: float
) -> float:
    worst = 0.0
    for s in valid_signs(param):
        dv = dist_values_array(param, s, window)
        defects = np.abs(rows @ dv)
        worst = max(worst, float(np.max(defects, initial=0.0)))
    if worst > opts.tol_kernel * scale:
        raise NotInKernel(
            f"slice defect {worst:.3e} exceeds {opts.tol_kernel:.1e} * scale", defect=worst
        )
    return worst


def _solve_top_rec(
    params: MultiParam,
    windows: tuple[IndexWindow, ...],
    arr: np.ndarray,
    opts: SolveOptions,
    scale: float,
) -> list[np.ndarray]:
    """Recursive solve of a batch: arr[b] is one right-hand side on `windows`.

    Returns the g_i coefficients, batch axis first, each on `windows`.  Every
    level takes one step and makes one least-squares call: the valid
    amplitudes of every item, zero ones included, go down as one batch, and
    the rows of arr - f_otimes (of arr at d = 1) of every item are solved on
    the last factor's window.  Kernel membership is guarded per row against
    the global scale.
    """
    d = params.d
    p_last = params.factors[-1]
    w_last = windows[-1]
    out: list[np.ndarray] = []
    rows = arr
    if d > 1:
        # leading-factor problems: F_plus then F_minus of every item in one batch
        amplitudes, f_ot = _split_last(p_last, w_last, arr)
        signs = valid_signs(p_last)
        stacked = np.concatenate([amplitudes[s] for s in signs])
        del amplitudes
        rows = np.subtract(arr, f_ot, out=f_ot)  # in f_otimes' buffer
        lead = params.keep_leading(d - 1)
        sub = _solve_top_rec(lead, windows[:-1], stacked, opts, scale)
        del stacked
        term = np.empty(arr.shape, dtype=np.complex128)
        for sols in sub:
            # g_i = sum_s G_s,i (x) phi_s
            gi = np.zeros(arr.shape, dtype=np.complex128)
            for s, part in zip(signs, np.split(sols, len(signs))):
                gi += np.multiply(part[..., None], phi(p_last, s, w_last), out=term)
            out.append(gi)
        del sub, term

    # last-factor problem: the rows of all items
    rows = rows.reshape(-1, len(w_last))
    _slice_kernel_guard(rows, p_last, w_last, opts, scale)
    sol, _, _, _ = _solve_rows_refined(p_last, w_last, rows, opts, scale)
    out.append(sol.reshape(arr.shape))
    return out


def solve_top(
    f: TensorCoeffs, opts: SolveOptions = SolveOptions()
) -> tuple[list[TensorCoeffs], SolveReport]:
    """Solve U_1 g_1 + ... + U_d g_d = f for f in the joint kernel.

    Returns d tensors plus diagnostics.  Every g_i is on f's windows, from
    one least-squares call per level of the recursion.  Raises NotInKernel
    if some product functional does not vanish on f, and NoConvergence if a
    residual misses tol_residual.
    """
    fn0 = norm0(f)
    defects = tensor.kernel_defects(f)
    worst_tag = max(defects, key=defects.get)
    worst = defects[worst_tag]
    if worst > opts.tol_kernel * fn0:
        raise NotInKernel(
            f"product functional {''.join(s.value for s in worst_tag)} gives "
            f"{worst:.3e} on f (budget {opts.tol_kernel:.1e} * ||f||_0)",
            defect=worst,
            tag=worst_tag,
        )
    if fn0 == 0.0:
        zero = [tensor.zeros(f.params, f.windows) for _ in range(f.d)]
        return zero, SolveReport(0.0, 0.0, 0.0, {t: 0.0 for t in opts.t_list})
    raw = _solve_top_rec(f.params, f.windows, f.coeffs[None], opts, fn0)
    g_list = [TensorCoeffs(f.params, f.windows, arr[0]) for arr in raw]
    report = verify_solution(f, g_list, opts.t_list, known=(fn0, worst))
    if report.residual_interior > opts.tol_residual * fn0:
        raise NoConvergence(
            f"top-degree residual {report.residual_interior:.3e} above "
            f"{opts.tol_residual:.1e} * ||f||_0 = {opts.tol_residual * fn0:.3e}"
        )
    return g_list, report


def verify_solution(
    f: TensorCoeffs,
    g_list: list[TensorCoeffs],
    t_list: tuple[float, ...] = (1.0, 2.0),
    *,
    known: tuple[float, float] | None = None,
) -> SolveReport:
    """Residual of sum_i U_i g_i - f at t=0, kernel defect of f, and the
    ratios ||g_i||_t / ||f||_{sigma_d(t)}.

    Each g_i is used on its own windows and must be over f's factors.  The
    residual is taken over the whole hull of the windows of f and the U_i g_i
    (f's windows widened by one on each axis, for g_i on f's windows);
    truncated kernel-consistent systems are exactly solvable, so no edge
    region is excluded.  `tensor.u_sum` adds -f, U_0 g_0, ..., U_{d-1} g_{d-1}
    into one array on that hull in that order, so zero-filling the g_i into
    larger windows with the same hull leaves the residual bitwise unchanged.
    `known` is (||f||_0, kernel defect of f) when the caller has them, as
    `solve_top` has from its guard; otherwise f is normed at order 0 in the
    pass that takes every sigma_d(t), and its functionals are evaluated.
    Raises NoConvergence if a Sobolev norm of a ratio is not finite.
    """
    if len(g_list) != f.d:
        raise ValueError(f"expected {f.d} primitives, got {len(g_list)}")
    for i, g in enumerate(g_list):
        if g.params != f.params:
            raise ParamMismatch(f"g_{i} is over {g.params.label()}, f over {f.params.label()}")
    orders = tuple(sigma_schedule(t, f.d) for t in t_list)
    if known is None:
        fn0, *denoms = sobolev_norm_array(
            f.params.factors, f.windows, f.coeffs, (0.0,) + orders
        ).tolist()
        kernel_defect = max(tensor.kernel_defects(f).values(), default=0.0)
    else:
        fn0, kernel_defect = known
        denoms = sobolev_norm_array(f.params.factors, f.windows, f.coeffs, orders).tolist()
    g_norms = [sobolev_norm_array(g.params.factors, g.windows, g.coeffs, tuple(t_list))
               for g in g_list]
    terms = [(-1, f.coeffs, f.windows, None)]
    terms += [(1, g.coeffs, g.windows, i - f.d) for i, g in enumerate(g_list)]
    resid, wins = tensor.u_sum(f.params.factors, terms)
    residual = sobolev_norm_array(f.params.factors, wins, resid, 0.0)
    # np.max, unlike max, keeps a NaN norm of any g_i
    nums = np.max(g_norms, axis=0).tolist()
    return SolveReport(float(residual), fn0, kernel_defect, sobolev_ratios(t_list, nums, denoms))


def sobolev_ratios(
    t_list: tuple[float, ...], nums: list[float], denoms: list[float]
) -> dict[float, float]:
    """{t: num / denom}, 0 where denom is 0 (a zero input).

    Raises NoConvergence naming t when the numerator or the denominator is
    not finite: the weights (1 + Q)^sigma left the floating-point range, and
    a ratio formed from them would read 0 or NaN.
    """
    ratios = {}
    for t, num, denom in zip(t_list, nums, denoms):
        if not (np.isfinite(num) and np.isfinite(denom)):
            raise NoConvergence(
                f"Sobolev ratio at t={t}: numerator {num:.3e}, denominator {denom:.3e}; "
                "a norm left the floating-point range"
            )
        ratios[t] = num / denom if denom > 0 else 0.0
    return ratios


# --- obstruction probes ------------------------------------------------------


@dataclass(frozen=True)
class ObstructionProbe:
    """Least-squares residuals of an (intentionally) unsolvable problem."""

    residual: float          # at the requested padding
    residual_refined: float  # padding doubled
    f_norm0: float


def least_squares_probe(f: TensorCoeffs, opts: SolveOptions = SolveOptions()) -> ObstructionProbe:
    """Minimal degree-1 residuals of a rank-1 f at pad and 2*pad, skipping
    kernel checks."""
    if f.d != 1:
        raise ValueError(f"degree-1 probe needs a rank-1 tensor, got d={f.d}")
    (param,), (window,) = f.params.factors, f.windows
    out = []
    for pad in (opts.pad, 2 * opts.pad):
        win_in = expand_window(param, window, pad)
        rhs = tensor.embed_array(f.coeffs, (window,), (win_in,))
        _, resid = _lstsq_rows(param, win_in, rhs[None, :])
        out.append(float(resid[0]))
    return ObstructionProbe(out[0], out[1], norm0(f))


def obstruction_certificate(f: TensorCoeffs, pad: int = 8) -> float:
    """Certified lower bound on min ||sum_i U_i g_i - f||_0 over truncated g.

    Each product functional's Riesz representative r on the padded output
    windows satisfies A* r = 0 for the joint truncated operator, so the
    minimal residual is at least |D(f)| / ||r||_0; the best such bound over
    the functionals is returned.
    """
    best = 0.0
    for tag in valid_tags(f.params):
        num = abs(tensor.product_dist_evaluate(f, tag))
        if num == 0.0:
            continue
        denom_sq = 1.0
        for p, w, s in zip(f.params.factors, f.windows, tag):
            w_out = expand_window(p, w, pad + 1)
            dv = np.abs(dist_values_array(p, s, w_out)) ** 2
            w2 = basis_norm_sq_array(p, w_out)
            denom_sq *= float(np.sum(dv / w2))
        best = max(best, num / np.sqrt(denom_sq))
    return best
