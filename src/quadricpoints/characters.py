"""The additive character on F_q((1/t)) and exact Haar integration on balls.

The local field at infinity expands its elements in powers of 1/t.  The
standard character psi reads off the t^(-1) Laurent coefficient and
feeds it to e_q(a) = zeta_p^(Tr(a)); it is trivial on F_q[t] and
depends on a rational x/r only through finitely many tail coefficients.

A :class:`LaurentTail` is a finitely supported map {i >= 1: b_i} holding
the principal part  sum b_i t^(-i)  of an expansion; everything the
library integrates is a function of such a tail.  Ball integrals over
|theta| < q**M with the measure normalized by mu(integers) = 1 reduce to
finite averages of tail evaluations, so they are exact elements of
Z[zeta_p] / q**k, represented as :class:`~quadricpoints.cyclotomic.QScaled`.
"""

from __future__ import annotations

import itertools

from .cyclotomic import CycInt, QScaled
from .field import FieldCtx
from .polyring import Poly


class LaurentTail:
    """Principal part sum(b_i * t^(-i), i >= 1) with finitely many nonzero b_i."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: FieldCtx, entries=None):
        self.ctx = ctx
        clean = {}
        for i, b in (entries or {}).items():
            if i < 1:
                raise ValueError("tail indices start at 1")
            if not 0 <= b < ctx.q:
                raise ValueError("tail entries must be F_q encodings")
            if b:
                clean[int(i)] = b
        self.entries = clean

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LaurentTail":
        return cls(ctx, {})

    @classmethod
    def single(cls, ctx: FieldCtx, i: int, b: int) -> "LaurentTail":
        return cls(ctx, {i: b})

    def entry(self, i: int) -> int:
        return self.entries.get(i, 0)

    @property
    def depth(self) -> int:
        """Largest index with a nonzero entry (0 for the zero tail)."""
        return max(self.entries) if self.entries else 0

    def is_zero(self) -> bool:
        return not self.entries

    def min_index(self) -> int:
        """Smallest supported index; 0 for the zero tail."""
        return min(self.entries) if self.entries else 0

    def __eq__(self, other):
        return (
            isinstance(other, LaurentTail)
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ctx.q, frozenset(self.entries.items())))

    def __repr__(self):
        body = " + ".join(f"{b}*t^-{i}" for i, b in sorted(self.entries.items()))
        return f"LaurentTail({body or '0'})"


def laurent_coefficient(x: Poly, r: Poly, j: int) -> int:
    """Coefficient of t^j, j <= -1, in the expansion of x/r at infinity.

    Computed by exact long division: the sought coefficient equals the
    constant coefficient of (x * t^(-j)) div r, because the discarded
    remainder only contributes to strictly deeper tail positions.
    """
    if j > -1:
        raise ValueError("only principal-part coefficients live here")
    if r.is_zero():
        raise ZeroDivisionError("expansion of x/0")
    shifted = x * Poly.t_power(x.ctx, -j)
    quot = shifted // r
    return quot.coeff(0)


def expansion_tail(x: Poly, r: Poly, depth: int) -> LaurentTail:
    """The tail of x/r truncated to indices <= depth."""
    entries = {i: laurent_coefficient(x, r, -i) for i in range(1, depth + 1)}
    return LaurentTail(x.ctx, entries)


def ratio_char_exponent(x: Poly, r: Poly) -> int:
    """Exponent k with psi(x/r) = zeta_p^k, i.e. Tr of the t^(-1) coefficient."""
    return x.ctx.char_exponent(laurent_coefficient(x, r, -1))


def psi_ratio(x: Poly, r: Poly) -> CycInt:
    """psi(x/r) as an exact cyclotomic integer."""
    return CycInt.root_power(x.ctx.p, ratio_char_exponent(x, r))


def tail_char_exponent(tail: LaurentTail, v: Poly) -> int:
    """Exponent of psi(theta * v) for theta with the given tail.

    The t^(-1) coefficient of theta*v is sum(b_i * v_{i-1}), a finite
    dot product of the tail against the low coefficients of v.
    """
    ctx = tail.ctx
    acc = 0
    for i, b in tail.entries.items():
        acc = ctx.add(acc, ctx.mul(b, v.coeff(i - 1)))
    return ctx.char_exponent(acc)


def psi_tail(tail: LaurentTail, v: Poly) -> CycInt:
    return CycInt.root_power(tail.ctx.p, tail_char_exponent(tail, v))


def tails_supported(ctx: FieldCtx, lo: int, hi: int):
    """All tails supported on indices lo..hi inclusive (the zero tail included)."""
    if lo < 1:
        raise ValueError("tail indices start at 1")
    indices = range(lo, hi + 1)
    for combo in itertools.product(ctx.elements(), repeat=len(indices)):
        yield LaurentTail(ctx, dict(zip(indices, combo)))


def ball_integral(ctx: FieldCtx, M: int, depth: int, functional) -> QScaled:
    """Exact integral of `functional` over the ball |theta| < q**M, M <= 0.

    `functional` maps a LaurentTail to a CycInt and must depend only on
    tail indices <= depth.  The ball consists of tails supported on
    indices > -M, so the integral is the exact finite average

        q**(-depth) * sum of functional over tails on indices (-M, depth],

    and collapses to q**M * functional(0) when depth + M <= 0 (the
    functional is then constant on the whole ball).
    """
    if M > 0:
        raise ValueError("only balls inside the integers are supported")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # spot-check that the integrand really is constant below its declared depth
    if functional(LaurentTail.single(ctx, depth + 1, 1)) != functional(LaurentTail.zero(ctx)):
        raise RuntimeError(f"integrand varies at depth {depth + 1}, deeper than declared")
    if depth + M <= 0:
        return QScaled(functional(LaurentTail.zero(ctx)), -M)
    total = CycInt.zero(ctx.p)
    for tail in tails_supported(ctx, 1 - M, depth):
        total = total + functional(tail)
    return QScaled(total, depth)
