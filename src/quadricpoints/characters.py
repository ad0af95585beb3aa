"""The additive character on F_q((1/t)) and exact Haar integration on balls.

The local field at infinity expands its elements in powers of 1/t.  The
standard character psi reads off the t^(-1) Laurent coefficient and
feeds it to e_q(a) = zeta_p^(Tr(a)); it is trivial on F_q[t] and
depends on a rational x/r only through finitely many tail coefficients.

A :class:`LaurentTail` is a finitely supported map {i >= 1: b_i} holding
the principal part  sum b_i t^(-i)  of an expansion; everything the
library integrates is a function of such a tail.  A point
alpha = a/r + theta is one tail too: ``expansion_tail(a, r, depth)``
plus the tail of theta, and ``tail_char_exponent`` is the one way a
term psi(alpha * v) is read.  Ball integrals over
|theta| < q**M with the measure normalized by mu(integers) = 1 reduce to
finite averages of tail evaluations in Z[zeta_p] / q**k; the integrals
the library takes are exact rationals, returned as Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cyclotomic import CycInt
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

    def __add__(self, other: "LaurentTail") -> "LaurentTail":
        """Entrywise sum in F_q: the tail of the sum of two expansions."""
        if self.ctx != other.ctx:
            raise ValueError("mixed coefficient fields")
        ctx = self.ctx
        out = dict(self.entries)
        for i, b in other.entries.items():
            out[i] = ctx.add(out.get(i, 0), b)
        return LaurentTail(ctx, out)

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


def expansion_tail(x: Poly, r: Poly, depth: int) -> LaurentTail:
    """The tail of x/r truncated to indices <= depth, by one long division.

    Entry i is the coefficient of t^(depth - i) in (x * t^depth) div r:
    the discarded remainder only reaches indices deeper than depth.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    quot = Poly(x.ctx, (0,) * depth + x.coeffs) // r
    return LaurentTail(x.ctx, {i: quot.coeff(depth - i) for i in range(1, depth + 1)})


def ratio_char_exponent(x: Poly, r: Poly) -> int:
    """Exponent k with psi(x/r) = zeta_p^k, i.e. Tr of the t^(-1) coefficient."""
    return x.ctx.char_exponent(expansion_tail(x, r, 1).entry(1))


def tail_char_exponent(tail: LaurentTail, v: Poly) -> int:
    """Exponent of psi(alpha * v) for alpha with the given tail.

    The t^(-1) coefficient of alpha*v is sum(b_i * v_{i-1}), a finite
    dot product of the tail against the low coefficients of v.
    """
    ctx = tail.ctx
    acc = 0
    for i, b in tail.entries.items():
        acc = ctx.add(acc, ctx.mul(b, v.coeff(i - 1)))
    return ctx.char_exponent(acc)


def tails_supported(ctx: FieldCtx, lo: int, hi: int):
    """All tails supported on indices lo..hi inclusive (the zero tail included)."""
    if lo < 1:
        raise ValueError("tail indices start at 1")
    indices = range(lo, hi + 1)
    for combo in itertools.product(ctx.elements(), repeat=len(indices)):
        yield LaurentTail(ctx, dict(zip(indices, combo)))


def ball_integral(ctx: FieldCtx, M: int, depth: int, functional) -> Fraction:
    """Exact integral of `functional` over the ball |theta| < q**M, M <= 0.

    `functional` maps a LaurentTail to a CycInt and must depend only on
    tail indices <= depth.  The ball consists of tails supported on
    indices > -M, so the integral is the exact finite average

        q**(-max(depth, -M)) * sum of functional over tails on indices (-M, depth].

    When depth + M <= 0 the index range is empty and its one tail is zero,
    so this is q**M * functional(0): the functional is constant on the
    whole ball.  The result is a Fraction; a total outside the rationals
    raises ValueError.
    """
    if M > 0:
        raise ValueError("only balls inside the integers are supported")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # spot-check that the integrand really is constant below its declared depth
    if functional(LaurentTail.single(ctx, depth + 1, 1)) != functional(LaurentTail.zero(ctx)):
        raise RuntimeError(f"integrand varies at depth {depth + 1}, deeper than declared")
    total = CycInt.zero(ctx.p)
    for tail in tails_supported(ctx, 1 - M, depth):
        total = total + functional(tail)
    value = total.to_int()
    if value is None:
        raise ValueError("the integral is not rational")
    return Fraction(value, ctx.q ** max(depth, -M))
