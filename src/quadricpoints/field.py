"""Arithmetic in the coefficient field F_q, q = p^nu with p an odd prime.

Elements of F_q are plain integers in ``range(q)``: the element with
coordinates (c_0, ..., c_{nu-1}) in the power basis of the defining
modulus is encoded as ``c_0 + c_1*p + ... + c_{nu-1}*p**(nu-1)``.  All
arithmetic goes through a :class:`FieldCtx`, which owns the modulus and,
for small q, precomputed operation tables.  Contexts are immutable and
safe to share between threads.

The encoding makes elements hashable, cheap to enumerate (``range(q)``)
and gives a fixed deterministic ordering, which the rest of the library
relies on for canonical output.
"""

from __future__ import annotations

_TABLE_LIMIT = 512  # full q-by-q tables only below this


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases, deterministic for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 2**r, n) for r in range(s)):
            return False
    return True


class FieldCtx:
    """The field F_q together with its element encoding.

    Parameters
    ----------
    p : odd prime characteristic.
    nu : extension degree over F_p (default 1).
    modulus : optional coefficient tuple (little-endian, length nu+1,
        monic) of an irreducible degree-nu polynomial over F_p.  When
        omitted the lexicographically smallest such polynomial is chosen,
        so a (p, nu) pair always names the same field model.
    """

    __slots__ = ("p", "nu", "q", "modulus", "_mul")

    def __init__(self, p: int, nu: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p == 2:
            raise ValueError("even characteristic is not supported")
        if nu < 1:
            raise ValueError(f"extension degree must be >= 1, got {nu}")
        self.p = p
        self.nu = nu
        self.q = p**nu
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != nu + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree nu")
        if nu == 1:
            # degree 1 is always irreducible, and a search over F_p[u] would recurse
            self.modulus = modulus or (0, 1)
        else:
            from . import polyring  # here, not at the top: polyring imports FieldCtx

            base = FieldCtx(p)
            if modulus is None:
                modulus = next(polyring.irreducibles(base, nu)).coeffs
            elif not polyring.is_irreducible(polyring.Poly(base, modulus)):
                raise ValueError("modulus is reducible over F_p")
            self.modulus = modulus
        if self.nu > 1 and self.q <= _TABLE_LIMIT:
            self._mul = [[self._mul_raw(a, b) for b in range(self.q)] for a in range(self.q)]
        else:
            self._mul = None

    # -- encoding -----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Power-basis coordinates (c_0, ..., c_{nu-1}) of an element."""
        self._check(a)
        out = []
        for _ in range(self.nu):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.nu:
            raise ValueError("too many coordinates")
        enc = 0
        for i, c in enumerate(cs):
            enc += (int(c) % self.p) * self.p**i
        return enc

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element encoding for q={self.q}")

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.nu == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        pw = 1
        for _ in range(self.nu):
            out += ((a + b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return out

    def neg(self, a: int) -> int:
        if self.nu == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        pw = 1
        for _ in range(self.nu):
            out += ((-a) % p) * pw
            a //= p
            pw *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        nu, m = self.nu, self.modulus
        da, db = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * nu - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] += ai * bj
        # reduce by the monic modulus, top degree first: u^nu = -(m_0 + ... + m_{nu-1} u^{nu-1})
        for k in range(2 * nu - 2, nu - 1, -1):
            c = prod[k] % self.p
            for i in range(nu):
                prod[k - nu + i] -= c * m[i]
        return self.from_coeffs(prod[:nu])

    def mul(self, a: int, b: int) -> int:
        if self.nu == 1:
            return (a * b) % self.p
        if self._mul is not None:
            return self._mul[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in F_q")
        if self.nu == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.nu == 1:
            return pow(a, e, self.p)
        result = 1
        base = a
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- structure maps -----------------------------------------------------

    def trace(self, a: int) -> int:
        """Absolute trace F_q -> F_p, returned as an integer in range(p).

        Tr(a) = a + a^p + ... + a^(p^(nu-1)); the result is F_p-rational,
        i.e. its encoding is already an integer below p.
        """
        self._check(a)
        if self.nu == 1:
            return a
        acc = a
        frob = a
        for _ in range(self.nu - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        if acc >= self.p:
            raise RuntimeError("trace left the prime field")
        return acc

    def char_exponent(self, a: int) -> int:
        """Exponent k such that the additive character sends a to zeta_p^k."""
        return self.trace(a)

    def is_square_unit(self, a: int) -> bool:
        """Whether a is a nonzero square; membership test in (F_q^x)^2."""
        if a == 0:
            raise ValueError("square class of zero is undefined here")
        return self.pow(a, (self.q - 1) // 2) == 1

    def sqrt_unit(self, a: int):
        """Smallest b with b*b == a, or None if a is not a square unit."""
        if a == 0:
            raise ValueError("expected a unit")
        for b in self.units():
            if self.mul(b, b) == a:
                return b
        return None

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.nu == other.nu
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.nu, self.modulus))

    def __repr__(self):
        if self.nu == 1:
            return f"FieldCtx(p={self.p})"
        return f"FieldCtx(p={self.p}, nu={self.nu}, modulus={list(self.modulus)})"
