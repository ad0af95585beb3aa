"""
The polynomial ring F_q[t] and its multiplicative functions
===========================================================

Polynomials play the role that integers play over Q: they factor
uniquely into monic irreducibles, carry an absolute value |f| = q**deg f,
and support exact analogues of Euler phi and the Moebius function.
"""

from quadricpoints import (
    FieldCtx,
    Poly,
    euler_phi,
    factorize,
    irreducibles,
    moebius,
)

F3 = FieldCtx(3)
t = Poly.gen(F3)
one = Poly.one(F3)

# build and factor a polynomial
f = (t + one) ** 2 * (t * t + one) * Poly.constant(F3, 2)
print("f =", f)
fac = factorize(f)
print("unit:", fac.unit)
for pi, k in fac.factors:
    print(f"  ({pi})^{k}")
expanded = Poly.constant(F3, fac.unit)
for pi, k in fac.factors:
    expanded = expanded * pi**k
print("re-expanded:", expanded)

# factorization is deterministic: the splitting search runs in encoding
# order, so repeated calls give the same ordered answer
assert factorize(f).factors == fac.factors

# the monic irreducibles of low degree
print("\nmonic irreducible quadratics over F_3:")
for pi in irreducibles(F3, 2):
    print("  ", pi)

# phi(r) counts residues coprime to r; mu detects square factors
r = t * t
print("\nphi(t^2) =", euler_phi(r))
print("mu(t) =", moebius(t), " mu(t(t+1)) =", moebius(t * (t + one)), " mu(t^2) =", moebius(r))

# a monic polynomial is a square exactly when every multiplicity is even
square = (t * t + t + one) ** 2
print("\nis", square, "a square?", factorize(square).is_square())
print("is t *", square, "a square?", factorize(t * square).is_square())
