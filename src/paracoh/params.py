"""Representation parameters, truncation windows, and product-parameter gates.

A single irreducible is identified by its series kind and the parameter nu:
purely imaginary (principal), real in (-1,1) minus 0 (complementary), or an
odd positive integer 2n-1 (discrete, lowest weight n).  The Casimir eigenvalue
mu = (1 - nu^2)/4 is real in all three cases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionGateError, InvalidIndex, SpectralGapError

_ATOL = 1e-14


class Kind(enum.Enum):
    PRINCIPAL = "principal"
    COMPLEMENTARY = "complementary"
    DISCRETE = "discrete"


@dataclass(frozen=True)
class SeriesParam:
    """One irreducible unitary representation of PSL(2,R)."""

    kind: Kind
    nu: complex
    n: int | None = None  # lowest weight, discrete series only

    def __post_init__(self):
        nu = complex(self.nu)
        object.__setattr__(self, "nu", nu)
        if self.kind is Kind.PRINCIPAL:
            if abs(nu.real) > _ATOL:
                raise ValueError(f"principal series needs purely imaginary nu, got {nu}")
            if self.n is not None:
                raise ValueError("n is a discrete-series field")
        elif self.kind is Kind.COMPLEMENTARY:
            if abs(nu.imag) > _ATOL:
                raise ValueError(f"complementary series needs real nu, got {nu}")
            if not 0.0 < abs(nu.real) < 1.0:
                raise ValueError(f"complementary series needs 0 < |nu| < 1, got {nu.real}")
            if self.n is not None:
                raise ValueError("n is a discrete-series field")
        elif self.kind is Kind.DISCRETE:
            if self.n is None or self.n < 1 or self.n != int(self.n):
                raise ValueError(f"discrete series needs integer n >= 1, got {self.n}")
            expected = 2 * self.n - 1
            if abs(nu - expected) > _ATOL:
                raise ValueError(f"discrete series needs nu = 2n-1 = {expected}, got {nu}")
        else:  # pragma: no cover
            raise ValueError(f"unknown kind {self.kind}")

    @classmethod
    def principal(cls, s: float) -> "SeriesParam":
        """Principal series with nu = i*s (s = 0 admitted)."""
        return cls(Kind.PRINCIPAL, complex(0.0, float(s)))

    @classmethod
    def complementary(cls, nu: float) -> "SeriesParam":
        return cls(Kind.COMPLEMENTARY, complex(float(nu), 0.0))

    @classmethod
    def discrete(cls, n: int) -> "SeriesParam":
        return cls(Kind.DISCRETE, complex(2 * n - 1, 0.0), n=int(n))

    @property
    def mu(self) -> float:
        """Casimir eigenvalue, (1 - nu^2)/4; real for every kind."""
        return ((1.0 - self.nu * self.nu) / 4.0).real

    @property
    def lowest(self) -> int | None:
        """Smallest admissible basis index (discrete only), else None."""
        return self.n if self.kind is Kind.DISCRETE else None

    def contains_index(self, k: int) -> bool:
        if self.kind is Kind.DISCRETE:
            return k >= self.n
        return True

    def check_index(self, k: int) -> None:
        if not self.contains_index(k):
            raise InvalidIndex(f"index {k} below lowest weight {self.n}")

    def label(self) -> str:
        if self.kind is Kind.PRINCIPAL:
            return f"principal(nu={self.nu.imag:g}i)"
        if self.kind is Kind.COMPLEMENTARY:
            return f"complementary(nu={self.nu.real:g})"
        return f"discrete(n={self.n})"


@dataclass(frozen=True)
class IndexWindow:
    """Inclusive truncation bounds [lo, hi] for the basis index."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, k: int) -> bool:
        return self.lo <= k <= self.hi

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def intersect(self, other: "IndexWindow") -> "IndexWindow":
        return IndexWindow(max(self.lo, other.lo), min(self.hi, other.hi))

    def contains_window(self, other: "IndexWindow") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def default_window(param: SeriesParam, k: int = 128) -> IndexWindow:
    """Symmetric [-K, K] window, or [n, n+K] for discrete series."""
    if k < 0:
        raise ValueError("window half-width must be nonnegative")
    if param.kind is Kind.DISCRETE:
        return IndexWindow(param.n, param.n + k)
    return IndexWindow(-k, k)


def check_window(param: SeriesParam, window: IndexWindow) -> None:
    if param.kind is Kind.DISCRETE and window.lo < param.n:
        raise InvalidIndex(
            f"window lo {window.lo} below lowest weight {param.n} for {param.label()}"
        )


def expand_window(param: SeriesParam, window: IndexWindow, by: int = 1) -> IndexWindow:
    """Grow a window by `by` on both sides, clipped to the index set."""
    lo = window.lo - by
    if param.kind is Kind.DISCRETE:
        lo = max(lo, param.n)
    return IndexWindow(lo, window.hi + by)


@dataclass(frozen=True)
class MultiParam:
    """Ordered factors of a d-fold tensor product, with the parameter gates.

    eps0 gates the punctured ball around zero (no factor may have
    0 < |nu| < eps0); nu0 is the spectral-gap bound for complementary
    factors (|nu| <= nu0 < 1).
    """

    factors: tuple[SeriesParam, ...]
    eps0: float = 0.05
    nu0: float = 0.95

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if len(factors) < 1:
            raise ValueError("need at least one factor")
        if not 0.0 < self.eps0 < 1.0:
            raise ValueError(f"eps0 must be in (0,1), got {self.eps0}")
        if not 0.0 < self.nu0 < 1.0:
            raise ValueError(f"nu0 must be in (0,1), got {self.nu0}")
        for j, p in enumerate(factors):
            absnu = abs(p.nu)
            if 0.0 < absnu < self.eps0:
                raise AssumptionGateError(
                    f"factor {j} ({p.label()}) has 0 < |nu| = {absnu:g} < eps0 = {self.eps0:g}"
                )
            if p.kind is Kind.COMPLEMENTARY and absnu > self.nu0:
                raise SpectralGapError(
                    f"factor {j} ({p.label()}) exceeds spectral-gap bound nu0 = {self.nu0:g}"
                )

    @property
    def d(self) -> int:
        return len(self.factors)

    def drop(self, axis: int) -> "MultiParam":
        """Product with one factor removed (for restrictions)."""
        if not 0 <= axis < self.d:
            raise InvalidIndex(f"axis {axis} out of range for d={self.d}")
        rest = self.factors[:axis] + self.factors[axis + 1 :]
        return MultiParam(rest, eps0=self.eps0, nu0=self.nu0)

    def keep_leading(self, count: int) -> "MultiParam":
        if not 1 <= count <= self.d:
            raise InvalidIndex(f"cannot keep {count} of {self.d} factors")
        return MultiParam(self.factors[:count], eps0=self.eps0, nu0=self.nu0)

    def label(self) -> str:
        return " x ".join(p.label() for p in self.factors)
