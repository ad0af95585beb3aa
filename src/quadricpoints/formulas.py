"""Closed-form point counts on diagonal quadrics over F_q(t).

For f = a_1 X_1^2 + ... + a_n X_n^2 with unit coefficients, N(P) counts
solutions of f = 0 with all coordinates of height |x_i| < q^P.  The
closed forms split into three cases (see :class:`CaseTag`): even n with
square signed determinant, even n with nonsquare signed determinant, and
odd n.  From N one derives the primitive count and the number of degree-P
morphisms from the projective line into the quadric.

Two independent evaluation routes are provided: ``count_exact`` applies
the case formulas, ``count_circle`` reassembles N(P) from closed local
factors and arc integrals.  They agree exactly, and the enumeration
oracles in :mod:`quadricpoints.oracle` confirm both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expsums import CaseTag, QuadForm, arc_integral_closed, local_factor_closed, qpow
from .field import FieldCtx
from .polyring import Poly, enumerate_monic


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

    Runs symmetric Gaussian elimination (congruence transformations) in
    odd characteristic.  Degenerate input is rejected.  The diagonal
    returned is equivalent to G, not unique, but its CaseTag and counts
    are invariants.
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
    for i in range(n):
        if G[i][i] == 0:
            pivot = next((j for j in range(i + 1, n) if G[j][j] != 0), None)
            if pivot is not None:
                for k in range(n):
                    G[i][k], G[pivot][k] = G[pivot][k], G[i][k]
                for k in range(n):
                    G[k][i], G[k][pivot] = G[k][pivot], G[k][i]
            else:
                off = next((j for j in range(i + 1, n) if G[i][j] != 0), None)
                if off is None:
                    raise ValueError("Gram matrix is degenerate")
                # x_i -> x_i + x_off makes the diagonal entry 2*G[i][off] != 0
                for k in range(n):
                    G[i][k] = ctx.add(G[i][k], G[off][k])
                for k in range(n):
                    G[k][i] = ctx.add(G[k][i], G[k][off])
        d = G[i][i]
        inv_d = ctx.inv(d)
        for j in range(i + 1, n):
            c = ctx.mul(G[i][j], inv_d)
            if c:
                for k in range(n):
                    G[j][k] = ctx.sub(G[j][k], ctx.mul(c, G[i][k]))
                for k in range(n):
                    G[k][j] = ctx.sub(G[k][j], ctx.mul(c, G[k][i]))
        diag.append(G[i][i])
    if any(d == 0 for d in diag):
        raise ValueError("Gram matrix is degenerate")
    return QuadForm(ctx, tuple(diag))


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
    """N(P) by the closed case formulas; defined for n >= 3 and P >= 1."""
    n = f.n
    q = f.ctx.q
    if n < 3:
        raise ValueError("closed count formulas need n >= 3")
    if P < 1:
        raise ValueError("closed count formulas need P >= 1")
    tag = classify(f)
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
    if P < 1:
        raise ValueError("the box exponent P must be >= 1")
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


def _count_any(f: QuadForm, P: int) -> int:
    """N(P) with the convention N(0) = 1 (only the zero tuple)."""
    if P == 0:
        return 1
    if f.n >= 3:
        return count_exact(f, P)
    return count_circle(f, P)


def count_primitive(f: QuadForm, P: int) -> int:
    """Primitive solutions up to units: (N(P) - q N(P-1)) / (q - 1) + 1."""
    if P < 1:
        raise ValueError("primitive counts need P >= 1")
    return primitive_from_counts(_count_any(f, P), _count_any(f, P - 1), f.ctx.q)


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


def morphism_count_from_counts(n_plus: int, n_mid: int, n_minus: int, q: int) -> int:
    """Degree-P morphism count from N(P+1), N(P), N(P-1).

    (N(P+1) - (q+1) N(P) + q N(P-1)) / (q - 1); non-divisibility or a
    negative result signals inconsistent inputs.
    """
    num = n_plus - (q + 1) * n_mid + q * n_minus
    if num % (q - 1):
        raise ValueError("counts are inconsistent: difference not divisible by q - 1")
    out = num // (q - 1)
    if out < 0:
        raise ValueError("counts are inconsistent: negative morphism count")
    return out


def morphism_count(f: QuadForm, P: int) -> int:
    """#Mor_P(P^1, X) by the closed formulas, X the quadric f = 0; P >= 1."""
    n = f.n
    q = f.ctx.q
    if n < 3:
        raise ValueError("morphism counts need n >= 3")
    if P < 1:
        raise ValueError("morphism counts need P >= 1")
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


def low_stratum_sum(f: QuadForm, P: int) -> Fraction:
    """Closed value of sum over monic r with |r| <= q^(P-1) of S_r(f) |r|^(-n) I_r.

    This is N(P) minus the top stratum deg r = P; it is rational but not
    integral in general, hence the Fraction return.
    """
    n = f.n
    q = f.ctx.q
    if n < 3:
        raise ValueError("the closed stratum sums need n >= 3")
    if P < 1:
        raise ValueError("the box exponent P must be >= 1")
    tag = classify(f)
    even_P = P % 2 == 0
    if tag is CaseTag.ODD:
        if n == 3:
            val = Fraction(q * q - 1, 2 * q) * P * q**P
            val += Fraction(q**P, q) if even_P else Fraction((q * q + 1) * q**P, 2 * q)
            return val
        val = (Fraction(q) - qpow(q, 2 - n)) / (1 - qpow(q, 3 - n)) * q ** (P * (n - 2))
        scale = q ** (n - 3) if even_P else q ** ((n - 3) // 2)
        val -= Fraction((q * q - 1) * scale, q ** (n - 2) - q) * q ** ((n - 1) * P // 2)
        return val
    half = n // 2
    if tag is CaseTag.SPLIT_EVEN:
        if n == 4:
            return Fraction(q * q - 1, q) * P * q ** (2 * P) + Fraction(q ** (2 * P), q)
        val = Fraction(q**half - 1, q ** (half - 1) - q) * q ** (P * (n - 2))
        val -= Fraction(q * q - 1) / (q * (1 - qpow(q, 2 - half))) * q ** (n * P // 2)
        return val
    if n == 4:
        exp = 2 * P - 1 if even_P else 2 * P + 1
        return Fraction(q**exp)
    val = Fraction(q**half + 1, q ** (half - 1) + q) * q ** (P * (n - 2))
    sign = 1 if even_P else -1
    val -= sign * Fraction(q * q - 1) / (q * (1 + qpow(q, 2 - half))) * q ** (n * P // 2)
    return val


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class CountReport:
    """One computed count, ready for canonical serialization."""

    q: int
    n: int
    coeffs: tuple
    case: str
    P: int
    method: str
    value: int

    @classmethod
    def build(cls, f: QuadForm, P: int, method: str, value: int) -> "CountReport":
        ctx = f.ctx
        if ctx.nu == 1:
            coeffs = tuple(f.coeffs)
        else:
            coeffs = tuple(tuple(ctx.coeffs(a)) for a in f.coeffs)
        return cls(
            q=ctx.q,
            n=f.n,
            coeffs=coeffs,
            case=classify(f).value,
            P=P,
            method=method,
            value=value,
        )

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "coeffs": [list(c) if isinstance(c, tuple) else c for c in self.coeffs],
            "case": self.case,
            "P": self.P,
            "method": self.method,
            "value": self.value,
        }
