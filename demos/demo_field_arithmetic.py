"""
Arithmetic in odd finite fields F_q
===================================

Field elements are plain integers in range(q): for q = p**nu they encode
the coefficient vector of the residue class in base p.  A FieldCtx holds
the modulus and does all arithmetic.
"""

from quadricpoints import FieldCtx

# a prime field: F_7
F7 = FieldCtx(7)
print("q =", F7.q)
print("3 + 5 =", F7.add(3, 5))
print("3 * 5 =", F7.mul(3, 5))
print("1 / 3 =", F7.inv(3), "  check:", F7.mul(3, F7.inv(3)))

# squares: exactly half of the units are squares
squares = [u for u in F7.units() if F7.is_square_unit(u)]
print("squares in F_7:", squares)
print("roots of 2:", [b for b in F7.units() if F7.mul(b, b) == 2])

# an extension field: F_9 = F_3[u]/(u^2 + 1); the modulus is found
# automatically (first monic irreducible in encoding order)
F9 = FieldCtx(3, 2)
print("\nF_9 modulus coefficients (low to high):", F9.modulus)

# element 5 encodes the coefficient vector (2, 1), i.e. 2 + u
a = F9.from_coeffs([2, 1])
print("element 2 + u is encoded as", a)
print("its square encodes", F9.mul(a, a), "=", F9.coeffs(F9.mul(a, a)))

# the absolute trace down to F_3 is additive and hits every value; it is
# the exponent of the additive character: psi(x) = zeta_p ** trace(x)
print("traces of all nine elements:", [F9.trace(x) for x in F9.elements()])
