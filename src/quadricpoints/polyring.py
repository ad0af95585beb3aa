"""The polynomial ring F_q[t]: arithmetic, factor types, multiplicative maps.

Polynomials are immutable, little-endian coefficient tuples over a
:class:`~quadricpoints.field.FieldCtx`.

Conventions used throughout:

* gcds are monic (gcd(0, 0) is an error),
* the factor type of a nonzero f is the sorted tuple of (deg pi, k), one
  pair per monic irreducible pi with pi^k exactly dividing f.  phi, mu and
  squareness depend on f only through it, so no factor itself is found:
  one distinct-degree loop gives the degrees, and dividing each degree's
  gcd out of f until the two are coprime gives the multiplicities.
"""

from __future__ import annotations

from .field import FieldCtx, power


class Poly:
    """Element of F_q[t] as a trimmed little-endian coefficient tuple.

    ``Poly(ctx, coeffs)`` checks that every coefficient is an F_q encoding;
    arithmetic builds its results with :func:`_trusted`, which only trims.
    """

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
        return _trusted(ctx, [])

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return _trusted(ctx, [1])

    @classmethod
    def constant(cls, ctx: FieldCtx, a: int) -> "Poly":
        return cls(ctx, (a,))

    @classmethod
    def gen(cls, ctx: FieldCtx) -> "Poly":
        """The variable t."""
        return _trusted(ctx, [0, 1])

    @classmethod
    def t_power(cls, ctx: FieldCtx, k: int) -> "Poly":
        if k < 0:
            raise ValueError("t_power wants k >= 0")
        return _trusted(ctx, [0] * k + [1])

    # -- basic queries ------------------------------------------------------

    @property
    def deg(self) -> int:
        """Degree, with deg(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

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
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mixed coefficient fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        add = self.ctx.add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [add(x, y) for x, y in zip(a, b)]
        out += a[len(b) :]
        return _trusted(self.ctx, out)

    def __neg__(self) -> "Poly":
        neg = self.ctx.neg
        return _trusted(self.ctx, [neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        sub, neg = self.ctx.sub, self.ctx.neg
        a, b = self.coeffs, other.coeffs
        out = [sub(x, y) for x, y in zip(a, b)]
        out += a[len(b) :] if len(a) >= len(b) else map(neg, b[len(a) :])
        return _trusted(self.ctx, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _trusted(ctx, [])
        add, mul = ctx.add, ctx.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    if bj:
                        out[j] = add(out[j], mul(ai, bj))
        return _trusted(ctx, out)

    def scale(self, a: int) -> "Poly":
        """Multiply by the field element a; self itself at a = 1."""
        if a == 1:
            return self
        mul = self.ctx.mul
        return _trusted(self.ctx, [mul(a, c) for c in self.coeffs])

    def _divide(self, other: "Poly", want_quotient: bool):
        """Long division of self by other: (quotient coefficients, or None
        unless wanted, and the untrimmed remainder coefficients).

        Each step pops the remainder's leading term and subtracts its
        multiple of other from the terms below it; a monic divisor needs
        no inverse.
        """
        self._same_ring(other)
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        sub, mul = ctx.sub, ctx.mul
        body, lead = b[:-1], b[-1]
        inv_lead = 1 if lead == 1 else ctx.inv(lead)
        rem = list(self.coeffs)
        top = len(rem) - len(b)  # deg self - deg other
        quot = [0] * max(0, top + 1) if want_quotient else None
        for shift in range(top, -1, -1):
            c = rem.pop()
            if c:
                if inv_lead != 1:
                    c = mul(c, inv_lead)
                if want_quotient:
                    quot[shift] = c
                for i, bi in enumerate(body, shift):
                    if bi:
                        rem[i] = sub(rem[i], mul(c, bi))
        return quot, rem

    def __divmod__(self, other: "Poly"):
        quot, rem = self._divide(other, True)
        return _trusted(self.ctx, quot), _trusted(self.ctx, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return _trusted(self.ctx, self._divide(other, True)[0])

    def __mod__(self, other: "Poly") -> "Poly":
        return _trusted(self.ctx, self._divide(other, False)[1])

    def __pow__(self, e: int, mod: "Poly | None" = None) -> "Poly":
        """self**e, or with ``pow(self, e, mod)`` self**e % mod reduced at every step."""
        if e < 0:
            raise ValueError("negative polynomial power")
        one = Poly.one(self.ctx)
        if mod is None:
            return power(self, e, one)
        return power(self % mod, e, one % mod, lambda x, y: x * y % mod)

    def monic(self) -> "Poly":
        """The monic associate self / lead(self)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no monic associate")
        if self.is_monic():
            return self
        return self.scale(self.ctx.inv(self.lead))

    # -- hashing / display --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and (self.ctx is other.ctx or self.ctx == other.ctx)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.q, self.ctx.modulus, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def encoding(self) -> int:
        """Integer encoding sum(c_i * q**i), the inverse of poly_from_encoding."""
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


def _trusted(ctx: FieldCtx, cs: list) -> Poly:
    """The Poly with coefficient list cs, trailing zeros trimmed; the
    entries are taken to be F_q encodings, which arithmetic on Polys keeps."""
    while cs and cs[-1] == 0:
        cs.pop()
    out = object.__new__(Poly)
    out.ctx = ctx
    out.coeffs = tuple(cs)
    return out


# ---------------------------------------------------------------------------
# gcd


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; errors on gcd(0, 0)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# factor type and irreducibility


def _factor_pairs(f: Poly):
    """Yield (deg pi, k) for each monic irreducible pi with pi^k exactly dividing nonzero f,
    lowest degree first and, within a degree, lowest k first.

    At step d every factor of degree < d is divided out, so g = gcd(t^(q^d) - t, f)
    is the product of the distinct degree-d factors.  Round k divides f by g;
    gcd(g, f) then keeps those of multiplicity > k, and the degree g loses
    counts those of multiplicity k.  Once 2(d + 1) > deg f, a nonconstant
    rest is irreducible.
    """
    t = Poly.gen(f.ctx)
    h = t % f
    d = 0
    while 2 * (d + 1) <= f.deg:
        d += 1
        h = pow(h, f.ctx.q, f)
        g = poly_gcd(h - t, f)
        k = 1
        while g.deg >= 1:
            f = f // g
            rest = poly_gcd(g, f)
            yield from [(d, k)] * ((g.deg - rest.deg) // d)
            g, k = rest, k + 1
    if f.deg >= 1:
        yield f.deg, 1


def factor_type(f: Poly) -> tuple:
    """The sorted (degree, multiplicity) pairs of the monic irreducible factors of nonzero f."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    return tuple(_factor_pairs(f))


def is_irreducible(f: Poly) -> bool:
    """Whether f is irreducible: its first factor pair is (deg f, 1).

    Constants and the zero polynomial fail.
    """
    return f.deg >= 1 and next(_factor_pairs(f)) == (f.deg, 1)


# ---------------------------------------------------------------------------
# multiplicative functions, read from the factor type


def phi_of_type(q: int, ftype) -> int:
    """phi of a polynomial over F_q of factor type ftype: prod (q^d - 1) q^(d(k-1))."""
    out = 1
    for d, k in ftype:
        size = q**d
        out *= (size - 1) * size ** (k - 1)
    return out


def euler_phi(r: Poly) -> int:
    """#(F_q[t]/r)^x for nonzero r; units give 1."""
    return phi_of_type(r.ctx.q, factor_type(r))


def moebius(r: Poly) -> int:
    ftype = factor_type(r)
    if any(k >= 2 for _, k in ftype):
        return 0
    return -1 if len(ftype) % 2 else 1


def _legendre(a: Poly, pi: Poly) -> int:
    """Quadratic residue symbol mod a monic irreducible pi; values -1, 0, 1."""
    ctx = a.ctx
    a = a % pi
    if a.is_zero():
        return 0
    euler = pow(a, (ctx.q**pi.deg - 1) // 2, pi)
    if euler.is_one():
        return 1
    if euler == Poly.constant(ctx, ctx.neg(1)):
        return -1
    raise RuntimeError("Euler criterion computed a non-sign value")


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
    for enc in range(q**d, 2 * q**d):
        yield poly_from_encoding(ctx, enc)


def irreducibles(ctx: FieldCtx, d: int):
    """Monic irreducibles of degree d in encoding order."""
    for f in enumerate_monic(ctx, d):
        if is_irreducible(f):
            yield f
