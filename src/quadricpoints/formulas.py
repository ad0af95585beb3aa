"""Closed-form point counts on diagonal quadrics over F_q(t).

For f = a_1 X_1^2 + ... + a_n X_n^2 with unit coefficients, N(P) counts
solutions of f = 0 with all coordinates of height |x_i| < q^P.  The
closed forms split into three cases (see
:class:`~quadricpoints.forms.CaseTag`): even n with square signed
determinant, even n with nonsquare signed determinant, and odd n; they
cover every n >= 1.  From N one derives the primitive count (through
:func:`~quadricpoints.forms.primitive_from_counts`) and the number of
degree-P morphisms from the projective line into the quadric.

Two independent evaluation routes are provided: ``count_exact`` applies
the case formulas, ``count_circle`` reassembles N(P) from closed local
factors and arc integrals.  They agree exactly, and the enumeration
oracles in :mod:`quadricpoints.oracle` confirm both.
"""

from __future__ import annotations

from fractions import Fraction

from .expsums import arc_integral_closed, local_factor_closed, qpow
from .forms import CaseTag, QuadForm, classify, primitive_from_counts
from .polyring import Poly, enumerate_monic


# ---------------------------------------------------------------------------
# totient sums over monic strata


def phi_degree_sum(q: int, rho: int) -> int:
    """sum of phi(r) over monic r of degree rho: (q-1) q^(2 rho - 1) for rho >= 1.

    The degenerate stratum rho = 0 consists of the unit r = 1 alone and
    contributes 1; it sits outside the rho >= 1 product formula.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    if rho == 0:
        return 1
    return (q - 1) * q ** (2 * rho - 1)


def phi_power_sum(q: int, M: int, c: int, signed: bool = False) -> Fraction:
    """sum over monic r with deg r <= M of (-1)^(deg r)^[signed] phi(r) / |r|^c.

    Closed geometric forms; c = 2 is the boundary case where the ratio
    of consecutive strata is 1 (unsigned) or -1 (signed).
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    if not signed:
        if c == 2:
            return 1 + Fraction(q - 1, q) * M
        head = (1 - qpow(q, 1 - c)) / (1 - qpow(q, 2 - c))
        tail = (q - 1) * qpow(q, 1 - c) / (1 - qpow(q, 2 - c))
        return head - tail * qpow(q, M * (2 - c))
    if c == 2:
        return Fraction(1) if M % 2 == 0 else Fraction(1, q)
    head = (1 + qpow(q, 1 - c)) / (1 + qpow(q, 2 - c))
    tail = (q - 1) * qpow(q, 1 - c) / (1 + qpow(q, 2 - c))
    return head + (-1) ** M * tail * qpow(q, M * (2 - c))


# ---------------------------------------------------------------------------
# the point-count formulas


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise RuntimeError(f"{what} came out non-integral: {x}")
    return int(x)


def count_exact(f: QuadForm, P: int) -> int:
    """N(P) by the closed case formulas; defined for n >= 1 and P >= 0."""
    n = f.n
    q = f.ctx.q
    if P < 0:
        raise ValueError("closed count formulas need P >= 0")
    tag = classify(f)
    if n <= 2:
        # a x^2 and an anisotropic plane vanish only at 0; a split plane is
        # two lines through 0
        return 2 * q**P - 1 if tag is CaseTag.SPLIT_EVEN else 1
    even_P = P % 2 == 0
    if tag is CaseTag.ODD:
        if n == 3:
            val = Fraction(q * q - 1, 2 * q) * P * q**P
            val += q**P if even_P else Fraction(q * q + 1, 2 * q) * q**P
        else:
            val = Fraction(q ** (n - 1) - 1, q ** (n - 2) - q) * q ** (P * (n - 2))
            if even_P:
                val -= (q - 1) * Fraction(q ** (n - 2) + 1, q ** (n - 2) - q) * q ** (
                    (n - 1) * P // 2
                )
            else:
                val -= Fraction((q * q - 1) * q ** ((n - 3) // 2), q ** (n - 2) - q) * q ** (
                    (n - 1) * P // 2
                )
        return _as_int(val, "N(P), odd case")
    half = n // 2
    if tag is CaseTag.SPLIT_EVEN:
        if n == 4:
            val = Fraction(q * q - 1, q) * P * q ** (2 * P) + q ** (2 * P)
        else:
            val = Fraction(q**half - 1, q ** (half - 1) - q) * q ** (P * (n - 2))
            val -= (q - 1) * Fraction(q ** (half - 1) + 1, q ** (half - 1) - q) * q ** (
                n * P // 2
            )
        return _as_int(val, "N(P), split case")
    if n == 4:
        if even_P:
            val = Fraction(q ** (2 * P))
        else:
            val = Fraction(q * q - q + 1, q) * q ** (2 * P)
    else:
        val = Fraction(q**half + 1, q ** (half - 1) + q) * q ** (P * (n - 2))
        sign = 1 if even_P else -1
        val -= sign * (q - 1) * Fraction(q ** (half - 1) - 1, q ** (half - 1) + q) * q ** (
            n * P // 2
        )
    return _as_int(val, "N(P), nonsplit case")


def count_circle(f: QuadForm, P: int) -> int:
    """N(P) reassembled as sum over monic r, deg r <= P, of S_r(f) |r|^(-n) I_r.

    Works for every n >= 1; the local factors and arc integrals are the
    closed ones, so this is an independent route to the same integer.
    """
    if P < 0:
        raise ValueError("the box exponent P must be >= 0")
    ctx = f.ctx
    q = ctx.q
    n = f.n
    total = Fraction(0)
    for rho in range(P + 1):
        arc = arc_integral_closed(f, Poly.t_power(ctx, rho), P)
        if arc == 0:
            continue
        s_layer = sum(local_factor_closed(f, r) for r in enumerate_monic(ctx, rho))
        total += Fraction(s_layer, q ** (n * rho)) * arc
    return _as_int(total, "N(P) from the circle decomposition")


def count_primitive(f: QuadForm, P: int) -> int:
    """Primitive solutions up to units: (N(P) - q N(P-1)) / (q - 1) + 1."""
    if P < 1:
        raise ValueError("primitive counts need P >= 1")
    return primitive_from_counts(count_exact(f, P), count_exact(f, P - 1), f.ctx.q)


def morphism_count(f: QuadForm, P: int) -> int:
    """#Mor_P(P^1, X) by the closed formulas, X the quadric f = 0; P >= 1."""
    n = f.n
    q = f.ctx.q
    if P < 1:
        raise ValueError("morphism counts need P >= 1")
    if n <= 2:
        return 0  # the quadric is at most two points, where no map of degree >= 1 lands
    tag = classify(f)
    even_P = P % 2 == 0
    if tag is CaseTag.ODD:
        if n == 3:
            val = Fraction(q * q - 1, q) * q**P if even_P else Fraction(0)
        else:
            val = Fraction(
                (q ** (n - 1) - 1) * (q ** (n - 2) - 1), q ** (n - 2) * (q - 1)
            ) * q ** (P * (n - 2))
            if not even_P:
                val -= Fraction(q ** (n - 1) - 1, q ** ((n - 1) // 2)) * q ** (
                    (n - 1) * P // 2
                )
        return _as_int(val, "morphism count, odd case")
    half = n // 2
    if tag is CaseTag.SPLIT_EVEN:
        if n == 4:
            val = Fraction((q * q - 1) ** 2, q * q) * P * q ** (2 * P)
            val += Fraction((q * q - 1) * (q + 1) ** 2, q * q) * q ** (2 * P)
        else:
            val = Fraction(
                (q**half - 1) * (q ** (n - 2) - 1) * (q ** (n - 3) - 1),
                q ** (n - 2) * (q ** (half - 2) - 1) * (q - 1),
            ) * q ** (P * (n - 2))
            val -= Fraction(
                (q ** (n - 2) - 1) * (q**half - 1), q**half * (q ** (half - 2) - 1)
            ) * q ** (n * P // 2)
        return _as_int(val, "morphism count, split case")
    if n == 4:
        val = Fraction(q**4 - 1, q * q) * q ** (2 * P) if even_P else Fraction(0)
    else:
        val = Fraction(
            (q**half + 1) * (q ** (n - 2) - 1) * (q ** (n - 3) - 1),
            q ** (n - 2) * (q ** (half - 2) + 1) * (q - 1),
        ) * q ** (P * (n - 2))
        sign = 1 if even_P else -1
        val += sign * Fraction(
            (q ** (n - 2) - 1) * (q**half + 1), q**half * (q ** (half - 2) + 1)
        ) * q ** (n * P // 2)
    return _as_int(val, "morphism count, nonsplit case")
