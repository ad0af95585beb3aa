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
:mod:`quadricpoints.oracle` confirm both.  Every count here is an integer
over a power of q, summed in integers and ended by one exact division
whose remainder must be 0.
"""

from __future__ import annotations

from .expsums import geometric_sum, layer_sum_closed, scaled_arc_integral, scaled_geometric_sum
from .forms import CaseTag, QuadForm, classify, primitive_from_counts


# ---------------------------------------------------------------------------
# the point-count formulas


def _divide_exactly(num: int, q: int, k: int, what: str) -> int:
    """num / q^k, which must be an integer: the one division of a closed count."""
    quotient, rem = divmod(num, q**k)
    if rem:
        raise RuntimeError(f"{what} came out non-integral: remainder {rem} mod {q}^{k}")
    return quotient


def count_exact(f: QuadForm, P: int) -> int:
    """N(P) by the closed case formulas; defined for n >= 1 and P >= 0.

    Each case is its secondary term times 1 + c G(x, M), G the ``geometric_sum``
    and x the main term's growth over the secondary term's: for even n that
    term is eps^P q^(nP/2), x = eps q^(n/2 - 2) and M = P; for odd n and
    P = 2m + s it is q^((n-1)m), x = q^(n-3) per two steps and M = m, and
    an odd P scales it by q^(n-2) and the 1 by q.  G(x, M) = g / q^k
    (``scaled_geometric_sum``), so N is an integer over a power of q, and
    one exact division ends it.
    """
    n, q = f.n, f.ctx.q
    if P < 0:
        raise ValueError("closed count formulas need P >= 0")
    tag = classify(f)
    if tag is CaseTag.ODD:
        m, s = divmod(P, 2)
        g, k = scaled_geometric_sum(1, q, n - 3, m)
        num = q ** ((n - 1) * (m + s)) * (q ** (1 + s + k) + (q ** (n - 1) - 1) * g)
        return _divide_exactly(num, q, 1 + s + k, "N(P), odd case")
    eps, half = tag.epsilon, n // 2
    g, k = scaled_geometric_sum(eps, q, half - 2, P)
    num = eps**P * q ** (half * P) * (q ** (1 + k) + (eps * q**half - 1) * g)
    return _divide_exactly(num, q, 1 + k, "N(P), even case")


def count_circle(f: QuadForm, P: int) -> int:
    """N(P) from the circle method: P + 1 terms, one per degree rho <= P of
    the moduli, each the closed layer sum of S_r(f) over monic r of degree
    rho, times q^(-n rho), times the closed arc integral I(rho, P).

    Works for every n >= 1; no modulus is enumerated, and the layer sums
    and arc integrals are closed forms of their own, so this is an
    independent route to the same integer.  Each term is an integer over
    q^(2P), the rho = P term's power of q, so the terms are summed as
    integers over q^(2P) and one exact division ends the sum.
    """
    if P < 0:
        raise ValueError("the box exponent P must be >= 0")
    q, n = f.ctx.q, f.n
    num = 0
    for rho in range(P + 1):
        a, k = scaled_arc_integral(f, rho, P)
        num += layer_sum_closed(f, rho) * a * q ** (2 * P - n * rho - k)
    return _divide_exactly(num, q, 2 * P, "N(P) from the circle decomposition")


def count_primitive(f: QuadForm, P: int) -> int:
    """Primitive solutions up to units: (N(P) - q N(P-1)) / (q - 1) + 1."""
    if P < 1:
        raise ValueError("primitive counts need P >= 1")
    return primitive_from_counts(count_exact(f, P), count_exact(f, P - 1), f.ctx.q)


def morphism_count(f: QuadForm, P: int) -> int:
    """#Mor_P(P^1, X) by the closed formulas, X the quadric f = 0; P >= 1.

    Odd n:  G(q, n-1) (q^(n-2) - 1) q^((P-1)(n-2)), less (q^(n-1) - 1)
            q^((n-1)(P-1)/2) at odd P, taken over q^P so that n = 1 keeps
            nonnegative powers.
    Even n: eps^(P+1) q^(nP/2) (q^(n-2) - 1)(q^(n/2) - eps) / (q^(n-2) (q-1))
            times (q^(n-3) - 1) G(x, P) + q x + 1, x = eps q^(n/2 - 2).
    Either is an integer over a power of q, and one exact division ends it.
    """
    n, q = f.n, f.ctx.q
    if P < 1:
        raise ValueError("morphism counts need P >= 1")
    tag = classify(f)
    if tag is CaseTag.ODD:
        num = geometric_sum(q, n - 1) * (q ** (P * (n - 1)) - q ** ((P - 1) * (n - 1) + 1))
        num -= P % 2 * (q ** (n - 1) - 1) * q ** ((n - 1) // 2 * (P - 1) + P)
        return _divide_exactly(num, q, P, "morphism count, odd case")
    eps, half = tag.epsilon, n // 2
    g, k = scaled_geometric_sum(eps, q, half - 2, P)
    inner = (q ** (n - 2) - q) * g + (eps * q ** (half - 1) + 1) * q ** (1 + k)
    num = eps ** (P + 1) * q ** (half * P) * geometric_sum(q, n - 2) * (q**half - eps) * inner
    return _divide_exactly(num, q, n - 1 + k, "morphism count, even case")
