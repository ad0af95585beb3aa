"""
Additive characters, ball integrals, and arc integrals
======================================================

The circle method over F_q(t) replaces the unit circle by the group of
Laurent tails sum(b_i t^-i).  Integrals over balls of tails are finite
averages, so they are computed exactly; the key orthogonality relation
and the closed arc-integral values fall out with no error terms.
"""

from fractions import Fraction

from quadricpoints import (
    CycInt,
    FieldCtx,
    Poly,
    QuadForm,
    arc_integral_closed,
    arc_integral_direct,
    ball_integral,
    enumerate_below,
)
from quadricpoints.characters import expansion_tail, tail_char_exponent

F3 = FieldCtx(3)
t = Poly.gen(F3)


def psi(tail, x):
    """psi(alpha * x) for alpha with the given tail, as an exact CycInt."""
    return CycInt.root_power(3, tail_char_exponent(tail, x))


# a tail sum(b_i t^-i) is the polynomial sum(b_i s^(i-1)) in s = 1/t;
# psi pairs it with a polynomial through the t^-1 coefficient of their
# product, so a single tail entry at index i sees coefficient i-1
tail = Poly.t_power(F3, 1)  # t^-2: entry 2 is 1
print("psi(tail, t) =", psi(tail, t))  # reads coefficient 1 of t
print("psi(tail, 1) =", psi(tail, Poly.one(F3)))  # blind to the constant

# a point alpha = a/r + theta is one tail: the expansion of a/r at
# infinity, cut at the depth the integrand reads, plus theta's tail
r = t + Poly.one(F3)
alpha = expansion_tail(Poly.one(F3), r, 3) + tail
print("1/(t+1) + t^-2 has tail entries b_1..b_3 =", [alpha.coeff(i - 1) for i in range(1, 4)])

# orthogonality: integrating psi(alpha x) over the ball |alpha| < q^-M
# detects whether deg x < M, scaled by the measure of the ball
M = 2
print(f"\nball integrals of psi(alpha x) over |alpha| < q^-{M}:")
for x in list(enumerate_below(F3, 3))[:8]:
    depth = (0 if x.is_zero() else x.deg) + 1
    val = ball_integral(F3, -M, depth, lambda tl, x=x: psi(tl, x))
    print(f"  x = {str(x):8s} integral = {val}")

# arc integrals: for a quadratic form, the integral of the Weyl sum
# against the character over the arc around a/r has a closed value
f = QuadForm(F3, (1, 1, 1))
print("\narc integrals for", f, " P = 2:")
for r in (Poly.one(F3), t, t + Poly.one(F3), t * t):
    direct = arc_integral_direct(f, r, 2)
    closed = arc_integral_closed(f, r, 2)
    print(f"  r = {str(r):8s} direct {direct}  closed {closed}  equal: {direct == closed}")

# the denominator degree is capped by P: deeper arcs are outside the
# dissection and are rejected
try:
    arc_integral_closed(f, t**3, 2)
except ValueError as e:
    print("\nr = t^3 with P = 2 is rejected:", e)

# the direct route integrates over q^(deg r + P) tails but divides by
# an exact power of q, so the result is an exact Fraction
print("\nexact rational value at r = t:", arc_integral_direct(f, t, 2))
assert arc_integral_direct(f, t, 2) == Fraction(arc_integral_closed(f, t, 2))
