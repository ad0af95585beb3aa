"""The polynomial ring F_q[t]: arithmetic, factorization, multiplicative maps.

Polynomials are immutable, little-endian coefficient tuples over a
:class:`~quadricpoints.field.FieldCtx`.  The degree of the zero
polynomial is a dedicated sentinel (``-inf``) rather than -1, so the
absolute value ``|x| = q**deg(x)`` of zero is exactly 0 and ultrametric
comparisons read naturally.

Conventions used throughout:

* gcds are monic (gcd(0, 0) is an error),
* factorizations are ``unit * prod(pi_i ** k_i)`` with monic irreducible
  pi_i listed in a canonical order (degree, then coefficient encoding),
* the Jacobi symbol (a / r) is defined for monic r of degree >= 1 and is
  0 exactly when gcd(a, r) != 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .field import FieldCtx

NEG_INF = -math.inf  # degree of the zero polynomial


class Poly:
    """Element of F_q[t] as a trimmed little-endian coefficient tuple."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < ctx.q:
                raise ValueError(f"coefficient {c} is not an F_q encoding")
        self.ctx = ctx
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def constant(cls, ctx: FieldCtx, a: int) -> "Poly":
        return cls(ctx, (a,))

    @classmethod
    def gen(cls, ctx: FieldCtx) -> "Poly":
        """The variable t."""
        return cls(ctx, (0, 1))

    @classmethod
    def t_power(cls, ctx: FieldCtx, k: int) -> "Poly":
        if k < 0:
            raise ValueError("t_power wants k >= 0")
        return cls(ctx, (0,) * k + (1,))

    # -- basic queries ------------------------------------------------------

    @property
    def deg(self):
        """Degree, with deg(0) = -inf so that abs respects the ultrametric."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def absval(self) -> int:
        """|x| = q**deg(x), with |0| = 0."""
        return self.ctx.q ** (len(self.coeffs) - 1) if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        """Coefficient of t^i (0 when i is out of range)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ---------------------------------------------------------

    def _same_ring(self, other: "Poly") -> None:
        if self.ctx != other.ctx:
            raise ValueError("mixed coefficient fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly(ctx, out)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, [ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(ctx)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
        return Poly(ctx, out)

    def scale(self, a: int) -> "Poly":
        """Multiply by the field element a."""
        ctx = self.ctx
        return Poly(ctx, [ctx.mul(a, c) for c in self.coeffs])

    def __divmod__(self, other: "Poly"):
        self._same_ring(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        db = len(other.coeffs) - 1
        inv_lead = ctx.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        if len(rem) - 1 < db:
            return Poly.zero(ctx), self
        quot = [0] * (len(rem) - db)
        for shift in range(len(rem) - 1 - db, -1, -1):
            c = ctx.mul(rem[shift + db], inv_lead)
            if c:
                quot[shift] = c
                for i, bi in enumerate(other.coeffs):
                    rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(c, bi))
        return Poly(ctx, quot), Poly(ctx, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monic(self) -> "Poly":
        """The monic associate self / lead(self)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no monic associate")
        if self.is_monic():
            return self
        return self.scale(self.ctx.inv(self.lead))

    def evaluate(self, a: int) -> int:
        """Evaluate at a field element (Horner)."""
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, a), c)
        return acc

    def derivative(self) -> "Poly":
        ctx = self.ctx
        out = []
        for i in range(1, len(self.coeffs)):
            scalar = i % ctx.p  # prime-subfield encodings coincide with residues
            out.append(ctx.mul(scalar, self.coeffs[i]) if scalar else 0)
        return Poly(ctx, out)

    # -- hashing / display --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.q, self.ctx.modulus, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def encoding(self) -> int:
        """Integer encoding sum(c_i * q**i); total order used for canonical sorting."""
        q = self.ctx.q
        enc = 0
        for i, c in enumerate(self.coeffs):
            enc += c * q**i
        return enc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}{t}")
        return "+".join(parts)

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# gcd and irreducibility


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; errors on gcd(0, 0)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _powmod(base: Poly, e: int, mod: Poly) -> Poly:
    result = Poly.one(base.ctx)
    b = base % mod
    while e > 0:
        if e & 1:
            result = (result * b) % mod
        b = (b * b) % mod
        e >>= 1
    return result


def _frobenius_power(x: Poly, times: int, mod: Poly) -> Poly:
    """x^(q^times) mod the given modulus."""
    out = x % mod
    for _ in range(times):
        out = _powmod(out, x.ctx.q, mod)
    return out


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test; constants and the zero polynomial fail."""
    d = len(f.coeffs) - 1
    if d < 1:
        return False
    f = f.monic()
    t = Poly.gen(f.ctx)
    if _frobenius_power(t, d, f) != t % f:
        return False
    for l in _small_prime_divisors(d):
        g = poly_gcd(_frobenius_power(t, d // l, f) - t, f)
        if g.deg > 0:
            return False
    return True


def _small_prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# factorization


@dataclass(frozen=True)
class Factorization:
    """unit * prod(pi ** k) with monic irreducible pi in canonical order."""

    unit: int
    factors: tuple  # tuple[tuple[Poly, int], ...]

    def expand(self, ctx: FieldCtx) -> Poly:
        out = Poly.constant(ctx, self.unit)
        for pi, k in self.factors:
            out = out * pi**k
        return out

    def is_square(self) -> bool:
        return all(k % 2 == 0 for _, k in self.factors)


def _pth_root(f: Poly) -> Poly:
    """p-th root of f when f = g(t^p); valid since Frobenius is bijective."""
    ctx = f.ctx
    p = ctx.p
    out = []
    for i in range(0, len(f.coeffs), p):
        c = f.coeffs[i]
        # the p-th root of c in F_q is c^(p^(nu-1))
        out.append(ctx.pow(c, p ** (ctx.nu - 1)))
    return Poly(ctx, out)


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> Poly:
    """One irreducible factor of f, where f is squarefree with all factors of degree d."""
    if f.deg == d:
        return f
    ctx = f.ctx
    exponent = (ctx.q**d - 1) // 2
    while True:
        a = Poly(ctx, [rng.randrange(ctx.q) for _ in range(f.deg)])
        if a.deg < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.deg < f.deg:
            return _equal_degree_split(g, d, rng)
        b = _powmod(a, exponent, f) - Poly.one(ctx)
        if b.is_zero():
            continue
        g = poly_gcd(b, f)
        if 0 < g.deg < f.deg:
            return _equal_degree_split(g, d, rng)


def _one_irreducible_factor(f: Poly, rng: random.Random) -> Poly:
    """Some monic irreducible factor of monic f, deg f >= 1."""
    ctx = f.ctx
    deriv = f.derivative()
    if deriv.is_zero():
        # f = g(t)^p for the p-th root g; recurse on it
        return _one_irreducible_factor(_pth_root(f), rng)
    w = f // poly_gcd(f, deriv)  # squarefree; nonconstant since deriv != 0
    if w.deg < 1:
        raise RuntimeError("squarefree part of a nonconstant polynomial is constant")
    # distinct-degree scan on w
    t = Poly.gen(ctx)
    h = t % w
    d = 0
    while True:
        d += 1
        h = _powmod(h, ctx.q, w)
        g_d = poly_gcd(h - t, w)
        if g_d.deg >= 1:
            return _equal_degree_split(g_d, d, rng)
        if 2 * (d + 1) > w.deg:
            # no factor of degree <= d, so w itself is irreducible
            return w


def factorize(f: Poly) -> Factorization:
    """Canonical factorization of a nonzero polynomial.

    Internally randomized (equal-degree splitting) with a seed derived
    from the input, so the result and the work done are reproducible.
    The factor list is sorted by (degree, coefficient encoding).
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lead
    rest = f.monic()
    rng = random.Random(0xA1F ^ f.encoding())
    counts: dict[Poly, int] = {}
    while not rest.is_constant():
        pi = _one_irreducible_factor(rest, rng)
        k = 0
        while True:
            quot, rem = divmod(rest, pi)
            if not rem.is_zero():
                break
            rest = quot
            k += 1
        counts[pi] = counts.get(pi, 0) + k
    factors = tuple(
        sorted(counts.items(), key=lambda it: (len(it[0].coeffs), it[0].encoding()))
    )
    return Factorization(unit=unit, factors=factors)


# ---------------------------------------------------------------------------
# multiplicative functions


def euler_phi(r: Poly, fac: Factorization | None = None) -> int:
    """#(F_q[t]/r)^x for nonzero r; units give 1."""
    if r.is_zero():
        raise ValueError("euler_phi of zero")
    if fac is None:
        fac = factorize(r)
    q = r.ctx.q
    out = 1
    for pi, k in fac.factors:
        size = q ** (len(pi.coeffs) - 1)
        out *= (size - 1) * size ** (k - 1)
    return out


def moebius(r: Poly, fac: Factorization | None = None) -> int:
    if r.is_zero():
        raise ValueError("moebius of zero")
    if fac is None:
        fac = factorize(r)
    if any(k >= 2 for _, k in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def _legendre(a: Poly, pi: Poly) -> int:
    """Quadratic residue symbol mod a monic irreducible pi; values -1, 0, 1."""
    ctx = a.ctx
    a = a % pi
    if a.is_zero():
        return 0
    d = len(pi.coeffs) - 1
    power = _powmod(a, (ctx.q**d - 1) // 2, pi)
    if power.is_one():
        return 1
    if power == Poly.constant(ctx, ctx.neg(1)):
        return -1
    raise RuntimeError("Euler criterion computed a non-sign value")


def jacobi_symbol(a: Poly, r: Poly, fac: Factorization | None = None) -> int:
    """The quadratic symbol (a / r), multiplicative in r; 0 iff gcd(a, r) != 1.

    r must be monic of degree >= 1.  For a constant a in F_q^x the value
    collapses to sign(a)^deg(r) where sign is the square-class character
    of F_q^x, and this identity is exercised by the test suite.
    """
    if not r.is_monic() or r.is_constant():
        raise ValueError("Jacobi symbol modulus must be monic of degree >= 1")
    if a.ctx != r.ctx:
        raise ValueError("mixed coefficient fields")
    if fac is None:
        fac = factorize(r)
    out = 1
    for pi, k in fac.factors:
        if k % 2 == 0:
            if _legendre(a, pi) == 0:
                return 0
            continue
        s = _legendre(a, pi)
        if s == 0:
            return 0
        out *= s
    return out


def poly_square_root(r: Poly, fac: Factorization | None = None) -> Poly | None:
    """s with s*s == r, or None.

    For monic r the monic root is returned.  For non-monic r the leading
    unit must itself be a square in F_q^x; its smallest square root is
    folded into the result.
    """
    if r.is_zero():
        return Poly.zero(r.ctx)
    ctx = r.ctx
    lead_root = None
    if not r.is_monic():
        lead_root = ctx.sqrt_unit(r.lead)
        if lead_root is None:
            return None
    if fac is None:
        fac = factorize(r)
    if not fac.is_square():
        return None
    s = Poly.one(ctx)
    for pi, k in fac.factors:
        s = s * pi ** (k // 2)
    if lead_root is not None:
        s = s.scale(lead_root)
    return s


# ---------------------------------------------------------------------------
# enumeration and encoding


def poly_from_encoding(ctx: FieldCtx, enc: int) -> Poly:
    """Inverse of Poly.encoding()."""
    if enc < 0:
        raise ValueError("negative encoding")
    q = ctx.q
    coeffs = []
    while enc:
        enc, c = divmod(enc, q)
        coeffs.append(c)
    return Poly(ctx, coeffs)

def enumerate_below(ctx: FieldCtx, bound_deg: int):
    """All q**bound_deg polynomials with deg < bound_deg (0 included), in encoding order."""
    q = ctx.q
    for enc in range(q ** max(0, bound_deg)):
        yield poly_from_encoding(ctx, enc)


def enumerate_monic(ctx: FieldCtx, d: int):
    """All q**d monic polynomials of degree exactly d, in encoding order of the tail."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    q = ctx.q
    for enc in range(q**d):
        coeffs = []
        e = enc
        for _ in range(d):
            e, c = divmod(e, q)
            coeffs.append(c)
        yield Poly(ctx, tuple(coeffs) + (1,))


def irreducibles(ctx: FieldCtx, d: int):
    """Monic irreducibles of degree d in canonical order."""
    for f in enumerate_monic(ctx, d):
        if is_irreducible(f):
            yield f
