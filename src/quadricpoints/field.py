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

import operator

_TABLE_LIMIT = 512  # full q-by-q tables only below this


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases, proven below their least strong
    pseudoprime psi_13 (about 3.3e24); past it only their multiples get an answer."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    if n >= 3317044064679887385961981:
        raise ValueError(f"cannot prove {n} prime: the test is proven only below psi_13 = 3317044064679887385961981")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 2**r, n) for r in range(s)):
            return False
    return True


def power(x, e: int, one, mul=operator.mul):
    """x**e for e >= 0 by square-and-multiply, multiplying with ``mul``.

    The product starts at the lowest set bit of e, so it never multiplies
    by ``one``: that is returned at e = 0 alone, and e >= 1 takes
    bit_length(e) + popcount(e) - 2 products.
    """
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


class FieldCtx:
    """The field F_q together with its element encoding.

    Parameters
    ----------
    p : odd prime characteristic.
    nu : extension degree over F_p (default 1).
    modulus : optional coefficient tuple (little-endian, length nu+1,
        monic) of an irreducible degree-nu polynomial over F_p.  When
        omitted the lexicographically smallest such polynomial is chosen,
        so a (p, nu) pair always names the same field model; at nu = 1
        every modulus gives F_p, stored as (0, 1).
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
            self.modulus = (0, 1)  # arithmetic is mod p whichever u - c was named
        else:
            from . import polyring  # here, not at the top: polyring imports FieldCtx

            base = FieldCtx(p)
            if modulus is None:
                modulus = next(polyring.irreducibles(base, nu)).coeffs
            elif not polyring.is_irreducible(polyring.Poly(base, modulus)):
                raise ValueError("modulus is reducible over F_p")
            self.modulus = modulus
        self._mul = self._mul_table() if self.nu > 1 and self.q <= _TABLE_LIMIT else None

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

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign*b for nu > 1, coordinate by coordinate in the power basis."""
        p = self.p
        out = 0
        pw = 1
        for _ in range(self.nu):
            out += ((a + sign * b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return out

    def add(self, a: int, b: int) -> int:
        if self.nu == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        if self.nu == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

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

    def _mul_table(self) -> list[list[int]]:
        """The q-by-q product table: entry (a, b) is exp[log a + log b] over the
        powers of the first unit whose powers reach all q - 1 units, and row
        and column 0 are 0."""
        q = self.q
        for g in self.units():
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self._mul_raw(x, g)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for k, a in enumerate(exp):
            log[a] = k
        exp += exp  # log a + log b < 2(q - 1)
        logs = log[1:]
        return [[0] * q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]

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
        return power(a, e, 1, self.mul)

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

    def is_square_unit(self, a: int) -> bool:
        """Whether a is a nonzero square; membership test in (F_q^x)^2."""
        if a == 0:
            raise ValueError("square class of zero is undefined here")
        return self.pow(a, (self.q - 1) // 2) == 1

    def nonsquare(self) -> int:
        """The first unit that is not a square: the field's fixed nonsquare."""
        return next(u for u in self.units() if not self.is_square_unit(u))

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
