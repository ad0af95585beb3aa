"""Quadratic exponential sums over F_q[t], from Gauss sums to arc integrals.

Every quantity here comes in two independent flavors where a closed form
exists: a *direct* evaluator that sums characters term by term, and a
*closed* evaluator implementing the multiplicative formula.  The test
suite insists the two agree exactly; the counting layer then leans on
the closed forms only.

The hierarchy, for a diagonal form f = a_1 X_1^2 + ... + a_n X_n^2 (a
:class:`~quadricpoints.forms.QuadForm`, whose case tag ``classify``
gives the sign eps of the closed local factors):

* ``weyl_sum(f, alpha, P)``          S(alpha) over the height box |x_i| < q^P
* ``form_exp_sum(f, a, r)``          the complete sum, S at a/r and P = deg r, as a product
* ``twisted_gauss_sum(a, r)``        sum psi(a x^2 / r) over residues x: the complete sum of X^2
* ``gauss_sum(r)``                   tau_r, the twisted sum at a = 1
* ``local_factor_direct(f, r)``      summed over numerators coprime to r
* ``arc_integral_direct(f, rho, P)`` I(rho, P): S integrated over the arc ball at any a/r, deg r = rho

``weyl_sum`` is the one direct box sum.  A point alpha = a/r + theta is
one polynomial in 1/t, its tail (see :mod:`~quadricpoints.characters`),
and psi(alpha v) is a dot product of that tail against v.  At alpha = a/r
and P = deg r the box is the set of residues mod r, so S(a/r) is the
complete sum of f at a/r.

On the closed side each totient sum over monic strata is one
``geometric_sum`` in q, ``layer_sum_closed(f, rho)``, the sum of S_r(f)
over monic r of degree rho, is one ``phi_degree_sum``, and
``arc_integral_closed`` is one ``phi_power_sum``.  ``geometric_sum``
takes an int ratio; a ratio of size at most one, eps q^(-k), is summed
reversed (``scaled_geometric_sum``), so each phi power sum and arc
integral is an integer over a power of q, a pair the ``scaled_*``
functions return and the counts of :mod:`~quadricpoints.formulas` end
with one exact division.  The Fraction forms are built once from that
pair.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .characters import ball_integral, expansion_tail, tail_char_exponent
from .cyclotomic import CycInt
from .forms import CaseTag, QuadForm, classify
from .polyring import (
    Poly,
    enumerate_below,
    factor_type,
    is_irreducible,
    phi_of_type,
    poly_gcd,
    _legendre,
)


# ---------------------------------------------------------------------------
# Gauss sums


def _require_monic(r: Poly) -> None:
    if not r.is_monic():
        raise ValueError("modulus must be monic")


def twisted_gauss_sum(a: Poly, r: Poly) -> CycInt:
    """sum over |x| < |r| of psi(a x^2 / r), a need not be coprime to r: the
    complete sum of the one-variable form X^2."""
    return form_exp_sum(QuadForm(r.ctx, (1,)), a, r)


def gauss_sum(r: Poly) -> CycInt:
    """tau_r = sum over |x| < |r| of psi(x^2 / r): the twisted sum at a = 1."""
    return twisted_gauss_sum(Poly.one(r.ctx), r)


def gauss_sum_prime_power(pi: Poly, k: int) -> CycInt:
    """Closed form of tau_(pi^k) for monic irreducible pi: the twisted closed form at a = 1."""
    return twisted_gauss_sum_prime_power(Poly.one(pi.ctx), pi, k)


def twisted_gauss_sum_prime_power(a: Poly, pi: Poly, k: int) -> CycInt:
    """Closed form of (a / pi)^k tau_(pi^k) for monic irreducible pi; requires gcd(a, pi) = 1.

    Even k gives the rational integer |pi|^(k/2); odd k reduces to the
    degree-one-layer sum tau_pi times (a / pi) |pi|^((k-1)/2), so no square
    roots or fourth roots of unity are ever materialized.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if not is_irreducible(pi) or not pi.is_monic():
        raise ValueError("base must be monic irreducible")
    if not a % pi:
        raise ValueError("numerator must be coprime to the base")
    ctx = pi.ctx
    size = ctx.q ** pi.deg
    if k % 2 == 0:
        return CycInt.from_int(ctx.p, size ** (k // 2))
    return gauss_sum(pi) * (_legendre(a, pi) * size ** ((k - 1) // 2))


# ---------------------------------------------------------------------------
# complete sums of the form


def form_exp_sum(f: QuadForm, a: Poly, r: Poly) -> CycInt:
    """The complete n-variable sum  sum psi(a f(b) / r)  over residue tuples b.

    The character of a diagonal form splits over the coordinates, so the
    sum is a product of Weyl sums of c X^2 over the box P = deg r, one power
    per distinct coefficient c, all at the tail of a/r expanded once, to
    index 2 deg r - 1.
    """
    if a.ctx != f.ctx or r.ctx != f.ctx:
        raise ValueError("mixed coefficient fields")
    ctx = f.ctx
    alpha = expansion_tail(a, r, max(2 * r.deg - 1, 0))
    out = CycInt.from_int(ctx.p, 1)
    for c, k in Counter(f.coeffs).items():
        out = out * weyl_sum(QuadForm(ctx, (c,)), alpha, r.deg) ** k
    return out


def local_factor_direct(f: QuadForm, r: Poly) -> CycInt:
    """S_r(f): form_exp_sum summed over numerators coprime to r."""
    _require_monic(r)
    ctx = f.ctx
    total = CycInt.zero(ctx.p)
    for a in enumerate_below(ctx, r.deg):
        if poly_gcd(a, r).is_one():
            total = total + form_exp_sum(f, a, r)
    return total


def local_factor_closed(f: QuadForm, r: Poly) -> int:
    """Closed form of S_r(f) for monic r; multiplicative over coprime factors.

    Even n:  (d / r) * phi(r) * |r|^(n/2) with d the signed determinant, a
             constant, so (d / r) = eps^deg(r), eps the tag's ``epsilon``.
    Odd n:   phi(r) * |r|^(n/2) when r is a square, else 0.
    """
    _require_monic(r)
    if r.ctx != f.ctx:
        raise ValueError("mixed coefficient fields")
    ftype = factor_type(r)
    rho = r.deg
    q = f.ctx.q
    size = phi_of_type(q, ftype) * q ** (rho * f.n // 2)  # odd n keeps it only at even rho
    tag = classify(f)
    if tag is CaseTag.ODD:
        return size if all(k % 2 == 0 for _, k in ftype) else 0
    return tag.epsilon**rho * size


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


def layer_sum_closed(f: QuadForm, rho: int) -> int:
    """sum of S_r(f) over monic r of degree rho, one layer of the circle method.

    Even n:  eps^rho q^(rho n/2) phi_deg(rho), since (d / r) = eps^rho
             on the whole layer.
    Odd n:   only squares r = s^2 contribute, and phi(s^2) = |s| phi(s),
             so the layer is 0 at odd rho and q^(rho(n+1)/2) phi_deg(rho/2)
             at even rho.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    q = f.ctx.q
    tag = classify(f)
    if tag is CaseTag.ODD:
        return 0 if rho % 2 else q ** (rho * (f.n + 1) // 2) * phi_degree_sum(q, rho // 2)
    return tag.epsilon**rho * q ** (rho * f.n // 2) * phi_degree_sum(q, rho)


def geometric_sum(x: int, M: int) -> int:
    """sum of x^j over 0 <= j < M for an int x, in exact integers; M at the pole x = 1."""
    if M < 0:
        raise ValueError("M must be >= 0")
    return M if x == 1 else (x**M - 1) // (x - 1)


def scaled_geometric_sum(eps: int, q: int, e: int, M: int) -> tuple[int, int]:
    """sum of x^j over 0 <= j < M at x = eps q^e, eps = +-1, as a pair (g, k)
    worth g / q^k.

    A ratio above one is an int and is summed as it stands.  A ratio
    x = eps q^(-k) of size at most one is summed reversed, from its last
    term: x^(M-1) G(1/x, M) = eps^(M-1) G(eps q^k, M) / q^(k(M-1)), with
    eps^(M-1) = eps^(M+1), so g is an integer and the poles x = +-1 are
    ``geometric_sum``'s.
    """
    if e > 0:
        return geometric_sum(eps * q**e, M), 0
    return eps ** (M + 1) * geometric_sum(eps * q**-e, M), -e * max(M - 1, 0)


def scaled_phi_power_sum(q: int, M: int, c: int, signed: bool = False) -> tuple[int, int]:
    """``phi_power_sum(q, M, c, signed)`` as a pair (a, k) worth a / q^k, for M >= -1.

    The strata rho = 1..M add (q-1)/q x^rho, x = eps q^(2-c), and
    x + ... + x^M = G(x, M + 1) - 1.  With G(x, M + 1) = g / q^k that is
    (q^k + (q-1) g) / q^(k+1); at M = -1 the same expression is 1/q.
    """
    g, k = scaled_geometric_sum(-1 if signed else 1, q, 2 - c, M + 1)
    return q**k + (q - 1) * g, k + 1


def phi_power_sum(q: int, M: int, c: int, signed: bool = False) -> Fraction:
    """sum over monic r with deg r <= M of (-1)^(deg r)^[signed] phi(r) / |r|^c.

    Stratum rho >= 1 adds (q-1)/q * x^rho with x = eps q^(2-c), eps = -1
    when signed, so the sum is one ``geometric_sum``.  Its pole x = 1,
    the unsigned c = 2 where every stratum adds (q-1)/q, is that sum's.
    The sum is an integer over a power of q (``scaled_phi_power_sum``),
    made a Fraction once.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    a, k = scaled_phi_power_sum(q, M, c, signed)
    return Fraction(a, q**k)


# ---------------------------------------------------------------------------
# Weyl sums over the height box and their arc integrals


def weyl_sum(f: QuadForm, alpha: Poly, P: int) -> CycInt:
    """S(alpha) = sum over x in F_q[t]^n, each |x_i| < q^P, of psi(alpha f(x)),
    at the point alpha given by its tail.

    deg f(x) <= 2P - 2 on the box, so each term reads indices <= 2P - 1 of
    the tail.  S at alpha = 0 is q^(nP), and the box at P = 0 is {0}, so
    S = 1 there.  At alpha = a/r and P = deg r the box is the set of
    residues mod r, and S is the complete sum ``form_exp_sum(f, a, r)``.
    """
    if P < 0:
        raise ValueError("the box exponent P must be >= 0")
    ctx = f.ctx
    if alpha.ctx != ctx:
        raise ValueError("mixed coefficient fields")
    squares = [x * x for x in enumerate_below(ctx, P)]
    first, *rest = [[v.scale(c) for v in squares] for c in f.coeffs]
    sums = first  # f(x) over the box in the coordinates added so far
    for values in rest:
        sums = _add_each(sums, values)
    counts = [0] * ctx.p
    for v in sums:
        counts[tail_char_exponent(alpha, v)] += 1
    return CycInt.from_exponent_counts(ctx.p, counts)


def _add_each(sums, values):
    """s + v for every s in sums and v in values: one more coordinate of a box,
    each partial sum formed once.  A plain generator, unlike a recursive
    closure, leaves no reference cycle to wait for the garbage collector."""
    for s in sums:
        for v in values:
            yield s + v


def arc_integral_direct(f: QuadForm, rho: int, P: int) -> Fraction:
    """I(rho, P): the integral of S(theta) over the arc ball |theta| < q^(-rho - P),
    the same for every modulus r of degree rho.

    Evaluated as an exact finite average of Weyl sums, a rational; S only
    depends on tail indices up to 2P - 1 because deg f(x) <= 2P - 2 on the box.
    """
    if not 0 <= rho <= P:
        raise ValueError("arc integrals are only defined for 0 <= deg r <= P")
    return ball_integral(f.ctx, -(rho + P), max(2 * P - 1, 0), lambda tail: weyl_sum(f, tail, P))


def scaled_arc_integral(f: QuadForm, rho: int, P: int) -> tuple[int, int]:
    """I(rho, P) as a pair (a, k) worth a / q^k, k of either sign.

    I(rho, P) = q^(P(n-2)+1) T(P - rho - 1), T the phi power sum of
    ``arc_integral_closed``, so the pair is T's with k lowered by
    P(n-2) + 1.  At rho = P, T(-1) = 1/q gives q^(P(n-2)).
    """
    if P < 0:
        raise ValueError("the box exponent P must be >= 0")
    if not 0 <= rho <= P:
        raise ValueError("arc integrals are only defined for 0 <= deg r <= P")
    n = f.n
    M = P - rho - 1
    tag = classify(f)
    if tag is CaseTag.ODD:
        a, k = scaled_phi_power_sum(f.ctx.q, M // 2, n)
    else:
        a, k = scaled_phi_power_sum(f.ctx.q, M, n // 2 + 1, signed=tag.epsilon < 0)
    return a, k - P * (n - 2) - 1


def arc_integral_closed(f: QuadForm, rho: int, P: int) -> Fraction:
    """Closed form of I(rho, P), the arc integral at any modulus of degree
    rho, as an exact rational.

    For rho = P the ball is too small for S to oscillate and the value
    is q^(P(n-2)).  Below that it is q^(P(n-2)+1) T(P - rho - 1), with
    T(M) the sum of S_(t^m) q^(-nm) over m <= M.  S_(t^m) is
    eps^m phi(t^m) q^(mn/2) for even n, and for odd n that with eps = 1
    at even m and 0 at odd m, so T is a phi power sum.  The value is an
    integer over a power of q (``scaled_arc_integral``), made a Fraction
    once.
    """
    a, k = scaled_arc_integral(f, rho, P)
    return a * Fraction(f.ctx.q) ** -k
