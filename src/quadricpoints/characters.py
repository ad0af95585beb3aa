"""The additive character on F_q((1/t)) and exact Haar integration on balls.

The local field at infinity expands its elements in powers of 1/t.  The
standard character psi reads off the t^(-1) Laurent coefficient and
feeds it to e_q(a) = zeta_p^(Tr(a)); it is trivial on F_q[t] and
depends on a rational x/r only through finitely many tail coefficients.

A tail, the principal part  sum b_i t^(-i)  (i >= 1) of an expansion,
is the :class:`~quadricpoints.polyring.Poly`  g = sum b_i s^(i-1)  in
s = 1/t: entry i is ``g.coeff(i - 1)``, and tails add as polynomials.
Everything the library integrates is a function of such a tail.  A point
alpha = a/r + theta is one tail too: ``expansion_tail(a, r, depth)``
plus the tail of theta, and ``tail_char_exponent`` is the one way a
term psi(alpha * v) is read, a dot product of the two coefficient
tuples.  Ball integrals over |theta| < q**M with the measure normalized
by mu(integers) = 1 reduce to finite averages of tail evaluations in
Z[zeta_p] / q**k; the integrals the library takes are exact rationals,
returned as Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .field import FieldCtx
from .polyring import Poly, enumerate_below


def expansion_tail(x: Poly, r: Poly, depth: int) -> Poly:
    """The tail of x/r truncated to indices <= depth, by one long division.

    Entry i is the coefficient of t^(depth - i) in (x * t^depth) div r:
    the discarded remainder only reaches indices deeper than depth.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    quot = Poly(x.ctx, (0,) * depth + x.coeffs) // r
    return Poly(x.ctx, [quot.coeff(depth - 1 - j) for j in range(depth)])


def ratio_char_exponent(x: Poly, r: Poly) -> int:
    """Exponent k with psi(x/r) = zeta_p^k, i.e. Tr of the t^(-1) coefficient."""
    return x.ctx.trace(expansion_tail(x, r, 1).coeff(0))


def tail_char_exponent(tail: Poly, v: Poly) -> int:
    """Exponent of psi(alpha * v) for alpha with the given tail.

    The t^(-1) coefficient of alpha*v is sum(b_i * v_{i-1}), a finite
    dot product of the tail's coefficients against those of v.
    """
    ctx = tail.ctx
    acc = 0
    for b, c in zip(tail.coeffs, v.coeffs):
        acc = ctx.add(acc, ctx.mul(b, c))
    return ctx.trace(acc)


def tails_supported(ctx: FieldCtx, lo: int, hi: int):
    """All tails supported on indices lo..hi inclusive (the zero tail included)."""
    if lo < 1:
        raise ValueError("tail indices start at 1")
    for h in enumerate_below(ctx, hi - lo + 1):
        yield Poly(ctx, (0,) * (lo - 1) + h.coeffs)


def ball_integral(ctx: FieldCtx, M: int, depth: int, functional) -> Fraction:
    """Exact integral of `functional` over the ball |theta| < q**M, M <= 0.

    `functional` maps a tail to a CycInt and must depend only on
    tail indices <= depth.  The ball consists of tails supported on
    indices > -M, so the integral is the exact finite average

        q**(-max(depth, -M)) * sum of functional over tails on indices (-M, depth].

    When depth + M <= 0 the index range is empty and its one tail is zero,
    so this is q**M * functional(0): the functional is constant on the
    whole ball.  `functional` is called once per tail and once more at
    t**depth; the result is a Fraction, and a total outside the rationals
    raises ValueError.
    """
    if M > 0:
        raise ValueError("only balls inside the integers are supported")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    tails = tails_supported(ctx, 1 - M, depth)
    total = functional(next(tails))  # the zero tail comes first
    # spot-check that the integrand really is constant below its declared depth
    if functional(Poly.t_power(ctx, depth)) != total:
        raise RuntimeError(f"integrand varies at depth {depth + 1}, deeper than declared")
    for tail in tails:
        total = total + functional(tail)
    value = total.to_int()
    if value is None:
        raise ValueError("the integral is not rational")
    return Fraction(value, ctx.q ** max(depth, -M))
