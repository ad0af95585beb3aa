"""Exact arithmetic in Z[zeta_p] for an odd prime p.

A :class:`CycInt` stores integer coordinates with respect to the power
basis 1, zeta, ..., zeta^(p-2); products are reduced modulo the p-th
cyclotomic polynomial via zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).
Coordinates are arbitrary-precision Python ints, so character sums never
round.  The integrals built from these sums are exact rationals: their
CycInt totals reduce to rational integers (``to_int``) over a power of q.
"""

from __future__ import annotations

from .field import power


class CycInt:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != p - 1:
            raise ValueError(f"expected {p - 1} coordinates, got {len(cs)}")
        self.p = p
        self.coeffs = cs

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def root_power(cls, p: int, k: int) -> "CycInt":
        """zeta_p^k; k is taken mod p."""
        return cls.from_exponent_counts(p, [int(i == k % p) for i in range(p)])

    @classmethod
    def from_exponent_counts(cls, p: int, counts) -> "CycInt":
        """sum(counts[k] * zeta^k for k in range(p)), reduced into the basis."""
        counts = list(counts)
        if len(counts) != p:
            raise ValueError("need one count per exponent mod p")
        top = counts[p - 1]
        return cls(p, [c - top for c in counts[: p - 1]])

    # -- ring operations ----------------------------------------------------

    def _match(self, other: "CycInt") -> None:
        if self.p != other.p:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        self._match(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        self._match(other)
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.coeffs))
        self._match(other)
        p = self.p
        # multiply mod x^p - 1 first (zeta^p = 1), then fold the top basis vector
        prod = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[(i + j) % p] += a * b
        top = prod[p - 1]
        return CycInt(p, [c - top for c in prod[: p - 1]])

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers leave Z[zeta_p]")
        return power(self, e, CycInt.from_int(self.p, 1))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.to_int() == other
        return isinstance(other, CycInt) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        # a rational value equals its int, so it hashes as that int
        value = self.to_int()
        return hash((self.p, self.coeffs) if value is None else value)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- conversions --------------------------------------------------------

    def to_int(self) -> int | None:
        """The rational-integer value, or None when not rational."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def to_json(self) -> dict:
        return {"p": self.p, "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"CycInt(p={self.p}, {list(self.coeffs)})"
