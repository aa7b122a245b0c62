"""Exact-arithmetic versions of the core identities, over rational nu.

Every quantity here is a `fractions.Fraction`.  For real rational nu the
generator's matrix entries are i times rationals, so identities of the form
D(U u(k)) = 0 reduce to a rational sum being exactly zero; the factor of i
is carried implicitly.  Applicable to nu = 0 (principal), rational
complementary nu, and discrete nu = 2n-1.  `solve_u_exact` solves U g = f by
the tridiagonal recurrence, as an oracle for the solver it shares no code
with.
"""

from __future__ import annotations

from fractions import Fraction

from .params import Kind
from .errors import InvalidIndex


def _check_index(kind: Kind, n: int | None, k: int) -> None:
    if kind is Kind.DISCRETE and k < n:
        raise InvalidIndex(f"index {k} below lowest weight {n}")


def u_action_exact(kind: Kind, nu: Fraction, n: int | None, k: int) -> dict[int, Fraction]:
    """Coefficients of U u(k) as {index: rational}, with the i factored out."""
    _check_index(kind, n, k)
    c_plus = Fraction(k) + (1 + nu) / 2
    c_minus = -Fraction(k) + (1 + nu) / 2
    out = {k: Fraction(k), k + 1: -c_plus / 2}
    if not (kind is Kind.DISCRETE and k == n):
        out[k - 1] = c_minus / 2
    elif c_minus != 0:
        raise AssertionError("lowest weight must be annihilated")
    return out


def solve_u_exact(
    kind: Kind, nu: Fraction, n: int | None, lo: int, hi: int, f: dict[int, Fraction]
) -> dict[int, Fraction]:
    """g on [lo, hi] with U g = i f, i.e. the i-factored generator of
    `u_action_exact` maps g to f on the output window [lo - 1, hi + 1].

    The output rows lo to hi - 1 give g(lo + 1), ..., g(hi) from g(lo) upward;
    the rows left, lo - 1 (where it exists), hi and hi + 1, fix g(lo) and must
    then hold exactly.  Raises ValueError if they do not: no g on [lo, hi]
    solves the equation.
    """
    if any(not lo - 1 <= m <= hi + 1 for m in f):
        raise ValueError(f"f reaches past the output window [{lo - 1}, {hi + 1}]")
    cols = {k: u_action_exact(kind, nu, n, k) for k in range(lo, hi + 1)}

    def row(m: int, g: dict[int, Fraction]) -> Fraction:
        return sum((cols[k].get(m, 0) * g[k] for k in (m - 1, m, m + 1) if k in g), Fraction(0))

    def upward(rhs: dict[int, Fraction], g_lo: Fraction) -> dict[int, Fraction]:
        g = {lo: g_lo}
        for m in range(lo, hi):
            g[m + 1] = (rhs.get(m, 0) - row(m, g)) / cols[m + 1][m]
        return g

    part, hom = upward(f, Fraction(0)), upward({}, Fraction(1))
    left = [(f.get(m, 0) - row(m, part), row(m, hom)) for m in (lo - 1, hi, hi + 1)]
    t = next((a / b for a, b in left if b != 0), Fraction(0))
    if any(a != b * t for a, b in left):
        raise ValueError(f"U g = i f has no solution g on [{lo}, {hi}]")
    return {k: part[k] + t * hom[k] for k in part}


def dist_value_exact(kind: Kind, nu: Fraction, n: int | None, tag: str, k: int) -> Fraction:
    """D^tag(u(k)) as a rational; tag is '+' or '-'."""
    _check_index(kind, n, k)
    if tag == "+":
        return Fraction(1)
    if kind is Kind.DISCRETE:
        return Fraction(0)
    if nu == 0:
        return sum((Fraction(1, 2 * i - 1) for i in range(1, abs(k) + 1)), Fraction(0))
    out = Fraction(1)
    for i in range(1, abs(k) + 1):
        out *= Fraction(2 * i - 1 - nu) / Fraction(2 * i - 1 + nu)
    return out


def dist_invariance_defect_exact(
    kind: Kind, nu: Fraction, n: int | None, tag: str, k: int
) -> Fraction:
    """D^tag(U u(k)) up to the overall factor i; zero iff invariant."""
    terms = u_action_exact(kind, nu, n, k)
    return sum(
        (coeff * dist_value_exact(kind, nu, n, tag, j) for j, coeff in terms.items()),
        Fraction(0),
    )


def phi_exact(kind: Kind, nu: Fraction, n: int | None, tag: str) -> dict[int, Fraction]:
    """The dual elements as {index: rational coefficient}."""
    if kind is Kind.DISCRETE:
        return {n: Fraction(1)} if tag == "+" else {}
    if nu == 0:
        if tag == "+":
            return {0: Fraction(1)}
        return {0: Fraction(-1), 1: Fraction(1)}
    if tag == "+":
        return {0: (nu - 1) / (2 * nu), 1: (nu + 1) / (2 * nu)}
    return {0: (nu + 1) / (2 * nu), 1: -(nu + 1) / (2 * nu)}


def pairing_matrix_exact(kind: Kind, nu: Fraction, n: int | None = None) -> list[list[Fraction]]:
    """[D^a(phi_b)]_{a,b in {+,-}} as exact rationals."""
    out = []
    for a in ("+", "-"):
        row = []
        for b in ("+", "-"):
            vec = phi_exact(kind, nu, n, b)
            row.append(
                sum(
                    (c * dist_value_exact(kind, nu, n, a, j) for j, c in vec.items()),
                    Fraction(0),
                )
            )
        out.append(row)
    return out
