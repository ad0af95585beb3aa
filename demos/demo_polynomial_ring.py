"""
The polynomial ring F_q[t] and its multiplicative functions
===========================================================

Polynomials play the role that integers play over Q: they factor
uniquely into monic irreducibles, carry an absolute value |f| = q**deg f,
and support exact analogues of Euler phi and the Moebius function.
Like their integer cousins, phi and mu depend only on the factor type:
the degree and multiplicity of each monic irreducible factor.
"""

from quadricpoints import (
    FieldCtx,
    Poly,
    euler_phi,
    factor_type,
    irreducibles,
    moebius,
)

F3 = FieldCtx(3)
q = F3.q
t = Poly.gen(F3)
one = Poly.one(F3)

# the factor type of 2 (t+1)^2 (t^2+1): the unit 2 does not enter it
f = (t + one) ** 2 * (t * t + one) * Poly.constant(F3, 2)
ftype = factor_type(f)
print("f =", f)
for d, k in ftype:
    print(f"  a factor of degree {d} with multiplicity {k}")

# phi(r) = prod (q^d - 1) q^(d(k-1)) and mu(r) read the type alone
phi = 1
for d, k in ftype:
    phi *= (q**d - 1) * q ** (d * (k - 1))
mu = 0 if any(k >= 2 for _, k in ftype) else (-1) ** len(ftype)
print("phi(f) =", phi, " mu(f) =", mu)
assert (phi, mu) == (euler_phi(f), moebius(f))

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
for g in (square, t * square):
    print("is", g, "a square?", all(k % 2 == 0 for _, k in factor_type(g)))
