"""
Quadratic Gauss sums in exact cyclotomic arithmetic
===================================================

Character sums live in Z[zeta_p], represented exactly by integer
coordinate vectors -- no floating point anywhere.  The Gauss sum over a
prime power modulus has a closed form, which the direct summation
reproduces on the nose.
"""

from quadricpoints import (
    CycInt,
    FieldCtx,
    Poly,
    gauss_sum,
    gauss_sum_prime_power,
    poly_from_encoding,
    twisted_gauss_sum,
    twisted_gauss_sum_prime_power,
)

F3 = FieldCtx(3)
t = Poly.gen(F3)
one = Poly.one(F3)

# the basic quadratic Gauss sum modulo t: sum of zeta^(x^2) over x mod t
tau = gauss_sum(t)
print("tau_t =", tau)
print("tau_t in the basis 1, zeta:", tau.coeffs)

# its square is rational: tau^2 = chi(-1) q = -3 here
print("tau_t^2 =", tau * tau, "  (equals -q)")

# prime powers: even exponents collapse to integers, odd ones reduce
# to the degree-one sum times a power of |pi|
print("\ntau over t^k for k = 1..4:")
for k in range(1, 5):
    direct = gauss_sum(t**k)
    closed = gauss_sum_prime_power(t, k)
    print(f"  k={k}: direct {direct}  closed {closed}  equal: {direct == closed}")

# twisting by a unit multiplies by the quadratic character of the twist
two = Poly.constant(F3, 2)
print("\ntwist by the nonsquare 2:", twisted_gauss_sum(two, t), "= -tau_t")

# twisting by a coprime a multiplies by the quadratic symbol (a / r); at
# the irreducible r = t^2 + 1 the closed form reads it by Euler's criterion
r = t * t + one
for enc in (1, 2, 4):
    a = poly_from_encoding(F3, enc)
    lhs = twisted_gauss_sum(a, r)
    rhs = twisted_gauss_sum_prime_power(a, r, 1)
    print(f"twist by {a}: {lhs}   closed: {rhs}   equal: {lhs == rhs}")

# everything stays exact: a cyclotomic integer knows when it is rational
print("\nis tau_t rational?", tau.to_int())
print("is tau_{t^2} rational?", gauss_sum(t * t).to_int())
