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


# Tanh-sinh (double-exponential) rule on (0, 1): u = 1/(1 + exp(-pi sinh tau))
# at tau = k/16, |tau| <= 4.  The end weights are below 1e-35, so dropping
# |tau| > 4 costs nothing for an integrand bounded near either end.
_TS_TAU = np.arange(-64, 65) / 16.0
_TS_U = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_TS_TAU)))
_TS_W = (np.pi / 16.0) * np.cosh(_TS_TAU) / (4.0 * np.cosh(0.5 * np.pi * np.sinh(_TS_TAU)) ** 2)

# The rule covers [kmax, kmax * _TAIL_SPAN]; past it a closed-form majorant.
_TAIL_SPAN = 2.0**48


def _power_tail(x0: float, gamma: float) -> float:
    """integral of x^-(1+gamma) over [x0, inf)."""
    return x0**-gamma / gamma


def _tail_integral(h, kmax: int, gamma: float, cap: float) -> float:
    """integral of h over [kmax, cap], where h(x) decays like x^-(1+gamma).

    The tanh-sinh rule runs on u = (kmax/x)^gamma, which maps the range onto
    [(kmax/cap)^gamma, 1].  With gamma matched to the decay, h(x) dx/du
    tends to a constant as x grows, so the rule sees a bounded, smooth
    integrand at any distance from the divergence threshold.
    """
    lo = (kmax / cap) ** gamma
    u = lo + (1.0 - lo) * _TS_U
    x = kmax * u ** (-1.0 / gamma)
    return (1.0 - lo) / gamma * float(np.sum(_TS_W * h(x) * x / u))


def _tail_bound(param: SeriesParam, t: float, kmax: int) -> float:
    """Integral majorant for the summand beyond |k| = kmax.

    The integral runs through the tanh-sinh rule up to a cap and adds the
    closed-form integral of a power-law majorant past it.  Every base
    1 + mu + 2 y^2 below is at least 2 x^2, so `lead` x^(-2t) majorizes its
    -t power there.
    """
    mu = param.mu
    cap = kmax * _TAIL_SPAN
    lead = 2.0**-t
    if param.kind is Kind.PRINCIPAL:
        if 2 * t <= 1:
            raise TailNotConverged(f"tail integral diverges at t={t}")
        gamma = 2 * t - 1
        if param.nu == 0:
            # bracket 1 + (1 + log(2x-1)/2)^2 majorizes 1 + (harmonic sum)^2
            def h(x):
                return (1 + mu + 2 * x * x) ** (-t) * (
                    1.0 + (1.0 + 0.5 * np.log(2 * x - 1)) ** 2
                )

            # past the cap, x = cap e^s: 1 + log(2x-1)/2 <= b + s/2
            b = 1.0 + 0.5 * math.log(2 * cap)
            past = lead * cap**-gamma * ((1.0 + b * b) / gamma + b / gamma**2 + 0.5 / gamma**3)
        else:
            def h(x):
                return 2.0 * (1 + mu + 2 * x * x) ** (-t)

            past = 2.0 * lead * _power_tail(cap, gamma)
        # both tails m > kmax and m < -kmax
        return 2.0 * (_tail_integral(h, kmax, gamma, cap) + past)
    if param.kind is Kind.COMPLEMENTARY:
        # bracket = ||u(m)||^2 + 1/||u(m)||^2; one factor grows like m^|nu|,
        # the other decays.  The growing one is majorized by its value at
        # kmax times x/kmax (the step ratio is below (m+1)/m since |nu| < 1).
        w2 = float(basis_norm_sq_array(param, IndexWindow(kmax, kmax))[0])
        grow = max(w2, 1.0 / w2)
        decay = min(w2, 1.0 / w2)
        if 2 * t <= 2:
            raise TailNotConverged(
                f"complementary tail majorant diverges at t={t}; need t > 1"
            )

        def h(x):
            return (1 + mu + 2 * x * x) ** (-t) * (grow * x / kmax + decay)

        past = lead * (
            grow / kmax * _power_tail(cap, 2 * t - 2) + decay * _power_tail(cap, 2 * t - 1)
        )
        return 2.0 * (_tail_integral(h, kmax, 2 * t - 2, cap) + past)
    # discrete: 1/||u(n+m)||^2 = binom(2n-1+m, 2n-1) <= (2n-1+m)^{2n-1}/(2n-1)!
    n = param.n
    if 2 * t - (2 * n - 1) <= 1:
        raise TailNotConverged(f"discrete sum needs t > n = {n}, got t={t}")
    # the rule stops before (2n-1+x)^{2n-1} leaves the float range
    cap = min(cap, 1e300 ** (1.0 / (2 * n - 1)) - (2 * n - 1))
    if cap <= kmax:
        raise TailNotConverged(
            f"tail majorant overflows at t={t}: (2n-1+x)^{2 * n - 1} at x={kmax}"
        )
    fact = float(math.factorial(2 * n - 1))

    def h(x):
        return (1 + mu + 2 * (n + x) ** 2) ** (-t) * (2 * n - 1 + x) ** (2 * n - 1) / fact

    # past the cap, 2n-1+x <= x (1 + (2n-1)/cap)
    past = lead * (1.0 + (2 * n - 1) / cap) ** (2 * n - 1) / fact
    past *= _power_tail(cap, 2 * t - 2 * n)
    return _tail_integral(h, kmax, 2 * t - 2 * n, cap) + past


def dist_order_sum(param: SeriesParam, t: float, head_max: int = 4096) -> DistOrderSum:
    """sum_± sum_k (1+Q(k))^{-t} |D^±(u(k))|^2 / ||u(k)||^2, with tail bound.

    Requires t > 1/2.  Raises TailNotConverged when the tail majorant
    diverges, overflows or exceeds 1% of the head, or the comparison underflows.
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
    tail = _tail_bound(param, t, head_max)
    if not math.isfinite(tail):
        raise TailNotConverged(f"tail majorant overflows at t={t}")
    if tail > 0.01 * head:
        raise TailNotConverged(
            f"tail bound {tail:.3e} exceeds 1% of head {head:.3e}; enlarge head_max"
        )
    mu = param.mu
    if param.kind is Kind.DISCRETE:
        comparison = (1.0 + mu + 2.0 * param.n**2) ** (0.5 - t)
    else:
        comparison = (1.0 + mu) ** (0.5 - t)
    if comparison == 0.0:
        raise TailNotConverged(f"comparison (1+mu[+2n^2])^(1/2-t) underflows to 0 at t={t}")
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
