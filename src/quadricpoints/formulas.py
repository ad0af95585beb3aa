"""Closed-form point counts on diagonal quadrics over F_q(t).

For f = a_1 X_1^2 + ... + a_n X_n^2 with unit coefficients, N(P) counts
solutions of f = 0 with all coordinates of height |x_i| < q^P.  The
closed forms depend on the parity of n and, for even n, on the square
class of the signed determinant d, read as the number eps = chi(d) = +-1
(:attr:`~quadricpoints.forms.CaseTag.epsilon`).  Each count has one
expression for odd n and one in eps for even n, and both hold for every
n >= 1: at n = 1, 2 they give N = 1 or 2q^P - 1 and no morphisms.  Only
the poles of those expressions (odd n = 3 for N, split n = 4 for both)
keep branches of their own.  From N one derives the primitive count
(through :func:`~quadricpoints.forms.primitive_from_counts`) and the
number of degree-P morphisms from the projective line into the quadric.

Two independent evaluation routes are provided: ``count_exact`` applies
the case formulas, ``count_circle`` reassembles N(P) from closed local
factors and arc integrals.  They agree exactly, and the enumeration
oracles in :mod:`quadricpoints.oracle` confirm both.
"""

from __future__ import annotations

from fractions import Fraction

from .expsums import arc_integral_closed, local_factor_closed
from .forms import CaseTag, QuadForm, classify, primitive_from_counts
from .polyring import enumerate_monic


# ---------------------------------------------------------------------------
# the point-count formulas


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise RuntimeError(f"{what} came out non-integral: {x}")
    return int(x)


def count_exact(f: QuadForm, P: int) -> int:
    """N(P) by the closed case formulas; defined for n >= 1 and P >= 0."""
    n = f.n
    q = Fraction(f.ctx.q)
    if P < 0:
        raise ValueError("closed count formulas need P >= 0")
    tag = classify(f)
    even_P = P % 2 == 0
    if tag is CaseTag.ODD and n == 3:
        # the pole q^(n-2) = q of the odd expression below
        val = (q * q - 1) / (2 * q) * P * q**P
        val += q**P if even_P else (q * q + 1) / (2 * q) * q**P
        return _as_int(val, "N(P), odd n = 3")
    if tag is CaseTag.ODD:
        den = q ** (n - 2) - q
        second = (q - 1) * (q ** (n - 2) + 1) if even_P else (q * q - 1) * q ** ((n - 3) // 2)
        val = (q ** (n - 1) - 1) / den * q ** (P * (n - 2))
        val -= second / den * q ** ((n - 1) * P // 2)
        return _as_int(val, "N(P), odd case")
    if tag is CaseTag.SPLIT_EVEN and n == 4:
        # the pole q^(half - 1) = eps q of the even expression below
        val = (q * q - 1) / q * P * q ** (2 * P) + q ** (2 * P)
        return _as_int(val, "N(P), split n = 4")
    eps, half = tag.epsilon, n // 2
    den = q ** (half - 1) - eps * q
    val = (q**half - eps) / den * q ** (P * (n - 2))
    val -= eps**P * (q - 1) * (q ** (half - 1) + eps) / den * q ** (n * P // 2)
    return _as_int(val, "N(P), even case")


def count_circle(f: QuadForm, P: int) -> int:
    """N(P) reassembled as sum over monic r, deg r <= P, of S_r(f) |r|^(-n) I(deg r, P).

    Works for every n >= 1; the local factors and arc integrals are the
    closed ones, so this is an independent route to the same integer.
    """
    if P < 0:
        raise ValueError("the box exponent P must be >= 0")
    q = f.ctx.q
    n = f.n
    total = Fraction(0)
    for rho in range(P + 1):
        arc = arc_integral_closed(f, rho, P)
        s_layer = sum(local_factor_closed(f, r) for r in enumerate_monic(f.ctx, rho))
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
    q = Fraction(f.ctx.q)
    if P < 1:
        raise ValueError("morphism counts need P >= 1")
    tag = classify(f)
    if tag is CaseTag.ODD:
        val = (q ** (n - 1) - 1) * (q ** (n - 2) - 1) / (q ** (n - 2) * (q - 1)) * q ** (P * (n - 2))
        if P % 2:
            val -= (q ** (n - 1) - 1) / q ** ((n - 1) // 2) * q ** ((n - 1) * P // 2)
        return _as_int(val, "morphism count, odd case")
    if tag is CaseTag.SPLIT_EVEN and n == 4:
        # the pole q^(half - 2) = eps of the even expression below
        val = (q * q - 1) ** 2 / (q * q) * P * q ** (2 * P)
        val += (q * q - 1) * (q + 1) ** 2 / (q * q) * q ** (2 * P)
        return _as_int(val, "morphism count, split n = 4")
    eps, half = tag.epsilon, n // 2
    shared = (q ** (n - 2) - 1) * (q**half - eps) / (q ** (half - 2) - eps)
    val = shared * (q ** (n - 3) - 1) / (q ** (n - 2) * (q - 1)) * q ** (P * (n - 2))
    val -= eps ** (P + 1) * shared / q**half * q ** (n * P // 2)
    return _as_int(val, "morphism count, even case")
