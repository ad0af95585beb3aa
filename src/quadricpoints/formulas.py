"""Closed-form point counts on diagonal quadrics over F_q(t).

For f = a_1 X_1^2 + ... + a_n X_n^2 with unit coefficients, N(P) counts
solutions of f = 0 with all coordinates of height |x_i| < q^P.  The
closed forms depend on the parity of n and, for even n, on the square
class of the signed determinant d, read as the number eps = chi(d) = +-1
(:attr:`~quadricpoints.forms.CaseTag.epsilon`).  Each count has one
expression for odd n and one in eps for even n, and both hold for every
n >= 1: at n = 1, 2 they give N = 1 or 2q^P - 1 and no morphisms.  Their
poles (odd n = 3 for N, split n = 4 for both) are the ratio x = 1 of one
``geometric_sum`` and keep no branch.  From N one derives the primitive count
(through :func:`~quadricpoints.forms.primitive_from_counts`) and the
number of degree-P morphisms from the projective line into the quadric.

Two independent evaluation routes are provided: ``count_exact`` applies
the case formulas, ``count_circle`` sums the circle method's P + 1 layers,
each a closed layer sum of local factors times a closed arc integral.
They agree exactly, and the enumeration oracles in
:mod:`quadricpoints.oracle` confirm both.
"""

from __future__ import annotations

from fractions import Fraction

from .expsums import arc_integral_closed, geometric_sum, layer_sum_closed
from .forms import CaseTag, QuadForm, classify, primitive_from_counts


# ---------------------------------------------------------------------------
# the point-count formulas


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise RuntimeError(f"{what} came out non-integral: {x}")
    return int(x)


def count_exact(f: QuadForm, P: int) -> int:
    """N(P) by the closed case formulas; defined for n >= 1 and P >= 0.

    Each case is its secondary term times 1 + c G(x, M), G the ``geometric_sum``
    and x the main term's growth over the secondary term's: for even n that
    term is eps^P q^(nP/2), x = eps q^(n/2 - 2) and M = P; for odd n and
    P = 2m + s it is q^((n-1)m), x = q^(n-3) per two steps and M = m, and
    an odd P scales it by q^(n-2) and the 1 by q.
    """
    n = f.n
    q = Fraction(f.ctx.q)
    if P < 0:
        raise ValueError("closed count formulas need P >= 0")
    tag = classify(f)
    if tag is CaseTag.ODD:
        m, s = divmod(P, 2)
        series = (q ** (n - 1) - 1) / q * geometric_sum(q ** (n - 3), m)
        return _as_int(q ** ((n - 1) * m + (n - 2) * s) * (q**s + series), "N(P), odd case")
    eps, half = tag.epsilon, n // 2
    series = (q**half - eps) / (eps * q) * geometric_sum(eps * q ** (half - 2), P)
    return _as_int(eps**P * q ** (half * P) * (1 + series), "N(P), even case")


def count_circle(f: QuadForm, P: int) -> int:
    """N(P) from the circle method: P + 1 terms, one per degree rho <= P of
    the moduli, each the closed layer sum of S_r(f) over monic r of degree
    rho, times q^(-n rho), times the closed arc integral I(rho, P).

    Works for every n >= 1; no modulus is enumerated, and the layer sums
    and arc integrals are closed forms of their own, so this is an
    independent route to the same integer.
    """
    if P < 0:
        raise ValueError("the box exponent P must be >= 0")
    q, n = f.ctx.q, f.n
    total = sum(
        Fraction(layer_sum_closed(f, rho), q ** (n * rho)) * arc_integral_closed(f, rho, P) for rho in range(P + 1)
    )
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
    eps, half = tag.epsilon, n // 2
    x = eps * q ** (half - 2)
    scale = (q ** (n - 2) - 1) * (q**half - eps) / (q ** (n - 2) * (q - 1))
    val = eps ** (P + 1) * q ** (half * P) * scale * ((q ** (n - 3) - 1) * geometric_sum(x, P) + q * x + 1)
    return _as_int(val, "morphism count, even case")
