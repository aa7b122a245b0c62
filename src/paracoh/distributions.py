"""Invariant functionals D+ and D-, their dual elements phi, and bound sums.

D+ takes the value 1 on every basis vector.  D- exists only for the
principal and complementary series:

    D-(u(k)) = prod_{i<=|k|} (2i-1-nu)/(2i-1+nu)     (nu != 0)
    D-(u(k)) = sum_{i<=|k|}  1/(2i-1)                (nu = 0),

empty products being 1 and empty sums 0.  For the discrete series the
minus functional is identically zero and the minus dual element is the
zero vector by convention.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import TailNotConverged
from .params import IndexWindow, Kind, SeriesParam, check_window
from .repn import basis_norm_sq_array, sobolev_norm_array, weight_q_array


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"


def valid_signs(param: SeriesParam) -> tuple[Sign, ...]:
    """Functionals that can constrain this factor (Plus only for discrete)."""
    if param.kind is Kind.DISCRETE:
        return (Sign.PLUS,)
    return (Sign.PLUS, Sign.MINUS)


def dist_basis_value(param: SeriesParam, tag: Sign, k: int) -> complex:
    """Value of the tagged functional on u(k) (scalar view of dist_values_array)."""
    return complex(dist_values_array(param, tag, IndexWindow(k, k))[0])


def dist_values_array(param: SeriesParam, tag: Sign, window: IndexWindow) -> np.ndarray:
    """Functional values over a window, via cumulative products/sums."""
    check_window(param, window)
    ks = window.indices()
    if tag is Sign.PLUS:
        return np.ones(len(ks), dtype=np.complex128)
    if param.kind is Kind.DISCRETE:
        return np.zeros(len(ks), dtype=np.complex128)
    kmax = int(max(abs(window.lo), abs(window.hi)))
    i = np.arange(1, kmax + 1)
    nu = param.nu
    if nu == 0:
        vals = np.concatenate([[0.0], np.cumsum(1.0 / (2 * i - 1))]).astype(np.complex128)
    else:
        vals = np.concatenate(
            [[1.0 + 0.0j], np.cumprod((2 * i - 1 - nu) / (2 * i - 1 + nu))]
        )
    return vals[np.abs(ks)]


def _phi_window(param: SeriesParam) -> IndexWindow:
    """Support of phi_+ and phi_-: {n} for the discrete series, else {0, 1}."""
    if param.kind is Kind.DISCRETE:
        return IndexWindow(param.n, param.n)
    return IndexWindow(0, 1)


def phi(param: SeriesParam, tag: Sign, window: IndexWindow) -> np.ndarray:
    """Coefficients on `window` of the dual element with D^a(phi_b) = delta_ab.

    Two-term vectors supported on {0, 1}; for the discrete series phi_+
    is the lowest basis vector u(n) and phi_- is zero.  Raises ValueError
    when the window does not cover the support.
    """
    check_window(param, window)
    nu = param.nu
    if param.kind is Kind.DISCRETE:
        coeffs = [1.0 if tag is Sign.PLUS else 0.0]
    elif nu == 0:
        coeffs = [1.0, 0.0] if tag is Sign.PLUS else [-1.0, 1.0]
    elif tag is Sign.PLUS:
        coeffs = [(nu - 1) / (2 * nu), (nu + 1) / (2 * nu)]
    else:
        coeffs = [(nu + 1) / (2 * nu), -(nu + 1) / (2 * nu)]
    out = np.zeros(len(window), dtype=np.complex128)
    for k, c in zip(_phi_window(param).indices(), coeffs):
        if k in window:
            out[k - window.lo] = c
        elif c != 0:
            raise ValueError(f"window [{window.lo}, {window.hi}] does not cover phi's support")
    return out


def phi_pairing_matrix(param: SeriesParam) -> np.ndarray:
    """[D^a(phi_b)] for a, b in {+, -}; identity (discrete: (-,-) entry 0)."""
    win = _phi_window(param)
    out = np.zeros((2, 2), dtype=np.complex128)
    for col, b in enumerate((Sign.PLUS, Sign.MINUS)):
        vec = phi(param, b, win)
        for row, a in enumerate((Sign.PLUS, Sign.MINUS)):
            out[row, col] = np.sum(vec * dist_values_array(param, a, win))
    return out


@dataclass(frozen=True)
class DistOrderSum:
    """Truncated functional-order sum with its tail bound and comparison."""

    value: float        # head + tail bound
    head: float
    tail_bound: float
    comparison: float   # (1+mu)^{1/2-t}, or (1+mu+2n^2)^{1/2-t} for discrete
    ratio: float


def _tail_integral(h, kmax: int) -> float:
    """integral of h over [kmax, inf), via x = kmax/u onto (0, 1]."""
    val, _ = quad(lambda u: h(kmax / u) * kmax / (u * u), 0.0, 1.0)
    return val


def _tail_bound(param: SeriesParam, t: float, kmax: int) -> float:
    """Integral majorant for the summand beyond |k| = kmax."""
    mu = param.mu
    if param.kind is Kind.PRINCIPAL:
        if param.nu == 0:
            # bracket 1 + (1 + log(2x-1)/2)^2 majorizes 1 + (harmonic sum)^2
            def h(x):
                return (1 + mu + 2 * x * x) ** (-t) * (
                    1.0 + (1.0 + 0.5 * math.log(2 * x - 1)) ** 2
                )

        else:
            def h(x):
                return 2.0 * (1 + mu + 2 * x * x) ** (-t)

        if 2 * t <= 1:
            raise TailNotConverged(f"tail integral diverges at t={t}")
        return 2.0 * _tail_integral(h, kmax)  # both tails m > kmax and m < -kmax
    if param.kind is Kind.COMPLEMENTARY:
        # bracket = ||u(m)||^2 + 1/||u(m)||^2; one factor grows like m^|nu|,
        # the other decays.  The growing one is majorized by its value at
        # kmax times x/kmax (the step ratio is below (m+1)/m since |nu| < 1).
        w2 = basis_norm_sq_array(param, IndexWindow(kmax, kmax))[0]
        grow = max(w2, 1.0 / w2)
        decay = min(w2, 1.0 / w2)
        if 2 * t <= 2:
            raise TailNotConverged(
                f"complementary tail majorant diverges at t={t}; need t > 1"
            )

        def h(x):
            return (1 + mu + 2 * x * x) ** (-t) * (grow * x / kmax + decay)

        return 2.0 * _tail_integral(h, kmax)
    # discrete: 1/||u(n+m)||^2 = binom(2n-1+m, 2n-1) <= (2n-1+m)^{2n-1}/(2n-1)!
    n = param.n
    if 2 * t - (2 * n - 1) <= 1:
        raise TailNotConverged(f"discrete sum needs t > n = {n}, got t={t}")
    fact = math.factorial(2 * n - 1)

    def h(x):
        return (1 + mu + 2 * (n + x) ** 2) ** (-t) * (2 * n - 1 + x) ** (2 * n - 1) / fact

    return _tail_integral(h, kmax)


def dist_order_sum(param: SeriesParam, t: float, head_max: int = 4096) -> DistOrderSum:
    """sum_± sum_k (1+Q(k))^{-t} |D^±(u(k))|^2 / ||u(k)||^2, with tail bound.

    Requires t > 1/2.  Raises TailNotConverged when the tail majorant
    diverges or exceeds 1% of the head.
    """
    if t <= 0.5:
        raise ValueError(f"order sum needs t > 1/2, got {t}")
    if param.kind is Kind.DISCRETE:
        window = IndexWindow(param.n, param.n + head_max)
    else:
        window = IndexWindow(-head_max, head_max)
    q = weight_q_array(param, window.indices())
    w2 = basis_norm_sq_array(param, window)
    head = 0.0
    for tag in valid_signs(param):
        dv = np.abs(dist_values_array(param, tag, window)) ** 2
        head += float(np.sum((1.0 + q) ** (-t) * dv / w2))
    try:
        tail = _tail_bound(param, t, head_max)
    except OverflowError as exc:  # (2n-1+x)^(2n-1) as quad pushes x to infinity
        raise TailNotConverged(f"tail majorant overflows at t={t}: {exc}") from exc
    if tail > 0.01 * head:
        raise TailNotConverged(
            f"tail bound {tail:.3e} exceeds 1% of head {head:.3e}; enlarge head_max"
        )
    mu = param.mu
    if param.kind is Kind.DISCRETE:
        comparison = (1.0 + mu + 2.0 * param.n**2) ** (0.5 - t)
    else:
        comparison = (1.0 + mu) ** (0.5 - t)
    value = head + tail
    return DistOrderSum(value, head, tail, comparison, value / comparison)


@dataclass(frozen=True)
class PhiSobolevSum:
    """sum_± ||phi_±||_t^2 against its (1+mu[+2n^2])^t comparison."""

    value: float
    bound: float
    ratio: float


def phi_sobolev_sum(param: SeriesParam, t: float) -> PhiSobolevSum:
    if t <= 0:
        raise ValueError(f"needs t > 0, got {t}")
    # the array norm takes bare factors, so nu below eps0 (the gate-bypassed
    # blowup sweep) is admitted
    win = _phi_window(param)
    value = sum(
        sobolev_norm_array((param,), (win,), phi(param, tag, win), t) ** 2
        for tag in (Sign.PLUS, Sign.MINUS)
    )
    mu = param.mu
    if param.kind is Kind.DISCRETE:
        bound = (1.0 + mu + 2.0 * param.n**2) ** t
    else:
        bound = (1.0 + mu) ** t
    return PhiSobolevSum(value, bound, value / bound)
