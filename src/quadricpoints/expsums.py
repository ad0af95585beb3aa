"""Quadratic exponential sums over F_q[t], from Gauss sums to arc integrals.

Every quantity here comes in two independent flavors where a closed form
exists: a *direct* evaluator that sums characters term by term, and a
*closed* evaluator implementing the multiplicative formula.  The test
suite insists the two agree exactly; the counting layer then leans on
the closed forms only.

The hierarchy, for a diagonal form f = a_1 X_1^2 + ... + a_n X_n^2 (a
:class:`~quadricpoints.forms.QuadForm`, whose case tag ``classify``
gives the sign eps of the closed local factors):

* ``twisted_gauss_sum(a, r)``      sum psi(a x^2 / r) over residues x
* ``gauss_sum(r)``                 tau_r, the twisted sum at a = 1
* ``form_exp_sum(f, a, r)``        the n-variable complete sum, as a product
* ``local_factor_direct(f, r)``    summed over numerators coprime to r
* ``weyl_sum(f, a, r, tail, P)``   S(alpha) over the height box |x| < q^P
* ``arc_integral_direct(f, r, P)`` integral of S over the arc ball at a/r

The direct evaluators read every term's character from one tail: alpha =
a/r + theta is one polynomial in 1/t (see :mod:`~quadricpoints.characters`),
taken once per sum, and psi(alpha v) is a dot product of it against v.

On the closed side the totient sums over monic strata are geometric
series in q, and ``arc_integral_closed`` is one ``phi_power_sum``.
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
    euler_phi,
    factorize,
    is_irreducible,
    poly_gcd,
    _legendre,
)


# ---------------------------------------------------------------------------
# Gauss sums


def _require_monic(r: Poly) -> None:
    if not r.is_monic():
        raise ValueError("modulus must be monic")


def twisted_gauss_sum(a: Poly, r: Poly) -> CycInt:
    """sum over |x| < |r| of psi(a x^2 / r);  a need not be coprime to r."""
    _require_monic(r)
    ctx = r.ctx
    rho = len(r.coeffs) - 1
    # deg x^2 <= 2 rho - 2, so psi(a x^2 / r) reads tail indices <= 2 rho - 1
    alpha = expansion_tail(a, r, max(2 * rho - 1, 0))
    counts = [0] * ctx.p
    for x in enumerate_below(ctx, rho):
        counts[tail_char_exponent(alpha, x * x)] += 1
    return CycInt.from_exponent_counts(ctx.p, counts)


def gauss_sum(r: Poly) -> CycInt:
    """tau_r = sum over |x| < |r| of psi(x^2 / r): the twisted sum at a = 1."""
    return twisted_gauss_sum(Poly.one(r.ctx), r)


def gauss_sum_prime_power(pi: Poly, k: int) -> CycInt:
    """Closed form of tau_(pi^k) for monic irreducible pi.

    Even k gives the rational integer |pi|^(k/2); odd k reduces to the
    degree-one-layer sum tau_pi times |pi|^((k-1)/2), so no square roots
    or fourth roots of unity are ever materialized.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if not is_irreducible(pi) or not pi.is_monic():
        raise ValueError("base must be monic irreducible")
    ctx = pi.ctx
    size = ctx.q ** (len(pi.coeffs) - 1)
    if k % 2 == 0:
        return CycInt.from_int(ctx.p, size ** (k // 2))
    return gauss_sum(pi) * (size ** ((k - 1) // 2))


def twisted_gauss_sum_prime_power(a: Poly, pi: Poly, k: int) -> CycInt:
    """(a / pi)^k * tau_(pi^k); requires gcd(a, pi) = 1."""
    tau = gauss_sum_prime_power(pi, k)  # checks k and pi
    if not a % pi:
        raise ValueError("numerator must be coprime to the base")
    return tau * _legendre(a, pi) ** (k % 2)


# ---------------------------------------------------------------------------
# complete sums of the form


def form_exp_sum(f: QuadForm, a: Poly, r: Poly) -> CycInt:
    """The complete n-variable sum  sum psi(a f(b) / r)  over residue tuples b.

    The character of a diagonal form splits over the coordinates, so the
    sum is the product of one twisted Gauss sum per coefficient, and equal
    coefficients give a power of one sum.
    """
    out = CycInt.from_int(f.ctx.p, 1)
    for c, k in Counter(f.coeffs).items():
        out = out * twisted_gauss_sum(a.scale(c), r) ** k
    return out


def local_factor_direct(f: QuadForm, r: Poly) -> CycInt:
    """S_r(f): form_exp_sum summed over numerators coprime to r."""
    _require_monic(r)
    ctx = f.ctx
    total = CycInt.zero(ctx.p)
    for a in enumerate_below(ctx, len(r.coeffs) - 1):
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
    if r.is_one():
        return 1
    fac = factorize(r)
    rho = len(r.coeffs) - 1
    size = euler_phi(r, fac) * f.ctx.q ** (rho * f.n // 2)  # odd n keeps it only at even rho
    tag = classify(f)
    if tag is CaseTag.ODD:
        return size if fac.is_square() else 0
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


def phi_power_sum(q: int, M: int, c: int, signed: bool = False) -> Fraction:
    """sum over monic r with deg r <= M of (-1)^(deg r)^[signed] phi(r) / |r|^c.

    Stratum rho >= 1 adds (q-1)/q * x^rho with x = eps q^(2-c), eps = -1
    when signed, so the sum is geometric.  Its one pole x = 1 is the
    unsigned c = 2, where every stratum adds (q-1)/q.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    x = (-1 if signed else 1) * Fraction(q) ** (2 - c)
    if x == 1:
        return 1 + Fraction(q - 1, q) * M
    return 1 + Fraction(q - 1, q) * x * (1 - x**M) / (1 - x)


# ---------------------------------------------------------------------------
# Weyl sums over the height box and their arc integrals


def weyl_sum(f: QuadForm, a: Poly, r: Poly, tail: Poly, P: int) -> CycInt:
    """S(alpha) = sum over x in F_q[t]^n, each |x_i| < q^P, of psi(alpha f(x)),
    at the point alpha = a/r + theta where theta has the given tail.

    alpha is one tail, that of a/r plus that of theta; deg f(x) <= 2P - 2
    on the box, so each term reads indices <= 2P - 1 of it.  S at
    alpha = 0 is q^(nP).
    """
    _require_monic(r)
    if P < 1:
        raise ValueError("the box exponent P must be >= 1")
    ctx = f.ctx
    p = ctx.p
    xs = list(enumerate_below(ctx, P))
    values = [[(x * x).scale(ai) for x in xs] for ai in f.coeffs]
    alpha = tail + expansion_tail(a, r, 2 * P - 1)
    n = f.n
    counts = [0] * p
    idx = [0] * n
    partial = [Poly.zero(ctx)] * (n + 1)
    k = 0
    size = len(xs)
    while True:
        while k < n:
            partial[k + 1] = partial[k] + values[k][idx[k]]
            k += 1
        counts[tail_char_exponent(alpha, partial[n])] += 1
        k = n - 1
        while k >= 0:
            idx[k] += 1
            if idx[k] < size:
                break
            idx[k] = 0
            k -= 1
        if k < 0:
            break
    return CycInt.from_exponent_counts(p, counts)


def arc_integral_direct(f: QuadForm, r: Poly, P: int) -> Fraction:
    """Integral of S(theta) over the arc ball |theta| < q^(-deg r - P).

    Evaluated as an exact finite average of Weyl sums, a rational; S only
    depends on tail indices up to 2P - 1 because deg f(x) <= 2P - 2 on the box.
    """
    _require_monic(r)
    rho = len(r.coeffs) - 1
    if P < 1:
        raise ValueError("the box exponent P must be >= 1")
    if rho > P:
        raise ValueError("arc integrals are only defined for deg r <= P")
    ctx = f.ctx
    one = Poly.one(ctx)
    zero = Poly.zero(ctx)

    def functional(tail: Poly) -> CycInt:
        return weyl_sum(f, zero, one, tail, P)

    return ball_integral(ctx, -(rho + P), 2 * P - 1, functional)


def arc_integral_closed(f: QuadForm, r: Poly, P: int) -> Fraction:
    """Closed form of the arc integral as an exact rational.

    For deg r = P the ball is too small for S to oscillate and the value
    is q^(P(n-2)).  Below that it is q^(P(n-2)+1) T(P - deg r - 1), with
    T(M) the sum of S_(t^m) q^(-nm) over m <= M.  S_(t^m) is
    eps^m phi(t^m) q^(mn/2) for even n, and for odd n that with eps = 1
    at even m and 0 at odd m, so T is a phi power sum.
    """
    _require_monic(r)
    rho = len(r.coeffs) - 1
    if P < 0:
        raise ValueError("the box exponent P must be >= 0")
    if rho > P:
        raise ValueError("arc integrals are only defined for deg r <= P")
    q = f.ctx.q
    n = f.n
    if rho == P:
        return Fraction(q) ** (P * (n - 2))
    M = P - rho - 1
    tag = classify(f)
    if tag is CaseTag.ODD:
        T = phi_power_sum(q, M // 2, n)
    else:
        T = phi_power_sum(q, M, n // 2 + 1, signed=tag.epsilon < 0)
    return Fraction(q) ** (P * (n - 2) + 1) * T
