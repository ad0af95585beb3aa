"""Diagonal quadratic forms over F_q: the layer below both count routes.

A form is a :class:`QuadForm`; :func:`diagonalize` builds one from a
symmetric Gram matrix.  :func:`classify` decides the one invariant the
closed formulas branch on: the parity of n and, for even n, the square
class of the signed determinant.  The derived columns of a count table
are arithmetic on counts alone: the primitive count from N(P) and
N(P-1), and the morphism count from two primitive counts;
:func:`table_rows` derives a table's rows from N alone.

This module depends on nothing above F_q[t], so the closed route
(:mod:`~quadricpoints.expsums`, :mod:`~quadricpoints.formulas`) and the
enumeration oracles (:mod:`~quadricpoints.oracle`) share only it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .field import FieldCtx
from .polyring import Poly


class CaseTag(Enum):
    """Shape of the quadric: even rank splits by the square class of the
    signed determinant, odd rank is a single case."""

    SPLIT_EVEN = "split_even"
    NONSPLIT_EVEN = "nonsplit_even"
    ODD = "odd"

    @property
    def epsilon(self) -> int:
        """The even-rank tag as a number: the character chi(d) = +-1 of the
        signed determinant, 1 split and -1 nonsplit.  Odd rank has none."""
        if self is CaseTag.ODD:
            raise ValueError("odd rank has no determinant sign")
        return 1 if self is CaseTag.SPLIT_EVEN else -1


@dataclass(frozen=True)
class QuadForm:
    """Diagonal quadratic form sum(a_i X_i^2) with unit coefficients."""

    ctx: FieldCtx
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a quadratic form needs at least one variable")
        for a in self.coeffs:
            if not 0 < a < self.ctx.q:
                raise ValueError("diagonal coefficients must be nonzero field elements")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def det_unit(self) -> int:
        """Product of the diagonal coefficients."""
        out = 1
        for a in self.coeffs:
            out = self.ctx.mul(out, a)
        return out

    def signed_det_unit(self) -> int:
        """(-1)^(n/2) * det for even n; the unit whose square class splits the cases."""
        if self.n % 2:
            raise ValueError("signed determinant only drives the even-rank cases")
        d = self.det_unit()
        if (self.n // 2) % 2:
            d = self.ctx.neg(d)
        return d

    def value(self, xs) -> Poly:
        xs = list(xs)
        if len(xs) != self.n:
            raise ValueError("wrong number of coordinates")
        acc = Poly.zero(self.ctx)
        for a, x in zip(self.coeffs, xs):
            acc = acc + (x * x).scale(a)
        return acc

    def __str__(self):
        return " + ".join(f"{a}*X{i + 1}^2" for i, a in enumerate(self.coeffs))


def classify(f: QuadForm) -> CaseTag:
    """Case split of the closed formulas.

    Odd rank is one case.  For even rank the square class of
    (-1)^(n/2) * a_1 * ... * a_n decides whether the quadric carries the
    split or the nonsplit quadric space structure.
    """
    if f.n % 2:
        return CaseTag.ODD
    if f.ctx.is_square_unit(f.signed_det_unit()):
        return CaseTag.SPLIT_EVEN
    return CaseTag.NONSPLIT_EVEN


def diagonalize(ctx: FieldCtx, gram) -> QuadForm:
    """Diagonal model of the quadratic form x^T G x for symmetric G.

    Symmetric Gaussian elimination (congruence transformations) in odd
    characteristic: each pivot is the first nonzero diagonal entry of the
    trailing block, else x_0 -> x_0 + x_off makes it 2*G[0][off] != 0, and
    the trailing block becomes its Schur complement.  Degenerate input is
    rejected.  The diagonal is equivalent to G, not unique, but its CaseTag
    and counts are invariants.
    """
    n = len(gram)
    G = [list(row) for row in gram]
    for row in G:
        if len(row) != n:
            raise ValueError("Gram matrix must be square")
    for i in range(n):
        for j in range(n):
            if G[i][j] != G[j][i]:
                raise ValueError("Gram matrix must be symmetric")
            if not 0 <= G[i][j] < ctx.q:
                raise ValueError("Gram entries must be F_q encodings")
    diag = []
    while G:
        pivot = next((j for j in range(len(G)) if G[j][j]), None)
        if pivot is not None:
            G[0], G[pivot] = G[pivot], G[0]
            for row in G:
                row[0], row[pivot] = row[pivot], row[0]
        else:
            off = next((j for j in range(1, len(G)) if G[0][j]), None)
            if off is None:
                raise ValueError("Gram matrix is degenerate")
            G[0] = [ctx.add(a, b) for a, b in zip(G[0], G[off])]
            for row in G:
                row[0] = ctx.add(row[0], row[off])
        d, *top = G[0]
        diag.append(d)
        inv_d = ctx.inv(d)
        # the Schur complement: G[j][k] - G[j][0] * G[0][k] / d on the trailing block
        G = [
            [ctx.sub(g, ctx.mul(c, t)) for g, t in zip(row[1:], top)]
            for row in G[1:]
            for c in [ctx.mul(row[0], inv_d)]
        ]
    return QuadForm(ctx, tuple(diag))


# ---------------------------------------------------------------------------
# the derived columns: arithmetic on counts, whichever route produced them


def primitive_from_counts(n_mid: int, n_minus: int, q: int) -> int:
    """Primitive count at P from N(P), N(P-1): (N(P) - q N(P-1)) / (q - 1) + 1.

    Non-divisibility or a negative result signals inconsistent inputs.
    """
    num = n_mid - q * n_minus
    if num % (q - 1):
        raise ValueError("counts are inconsistent: difference not divisible by q - 1")
    out = num // (q - 1) + 1
    if out < 0:
        raise ValueError("counts are inconsistent: negative primitive count")
    return out


def morphisms_from_primitive(prim_above: int, prim: int) -> int:
    """Degree-P morphism count from the primitive counts at P + 1 and P."""
    if prim_above < prim:
        raise RuntimeError("primitive counts decreased with the box")
    return prim_above - prim


def table_rows(count, q: int, P_values):
    """(N(P), primitive count, morphism count) for each P in ``P_values``,
    from ``count(k)`` = N(k) alone.

    Each N(k) is asked for once, and a row asks for N(P + 1) first, then
    N(P), then N(P - 1), so a row whose largest box is over budget refuses
    before any of its work.
    """
    count = functools.cache(count)
    primitive = functools.cache(lambda k: primitive_from_counts(count(k), count(k - 1), q))
    for P in P_values:
        prim_above, prim = primitive(P + 1), primitive(P)
        yield count(P), prim, morphisms_from_primitive(prim_above, prim)
