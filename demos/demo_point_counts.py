"""
Counting points on diagonal quadrics four different ways
========================================================

N(P) counts solutions of a_1 x_1^2 + ... + a_n x_n^2 = 0 with every
coordinate a polynomial of degree < P.  Four independent routes exist:
closed formulas, circle-method reassembly, brute-force enumeration, and
histogram convolution.  They must agree exactly -- and they do.
"""

from quadricpoints import (
    FieldCtx,
    QuadForm,
    brute_count,
    classify,
    convolution_count,
    count_circle,
    count_exact,
    count_primitive,
    morphism_count,
)
from quadricpoints.forms import table_rows

F3 = FieldCtx(3)

# the closed formulas branch on a single invariant: for even n, the
# square class of (-1)^(n/2) a_1 ... a_n; odd n is one case
for coeffs in [(1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2)]:
    f = QuadForm(F3, coeffs)
    print(f"{str(f):30s} -> {classify(f).value}")

# all four methods on one cell
f = QuadForm(F3, (1, 1, 1, 2))
P = 2
print(f"\nN({P}) for {f}:")
print("  closed formula     :", count_exact(f, P))
print("  circle reassembly  :", count_circle(f, P))
print("  brute enumeration  :", brute_count(f, P))
print("  convolution        :", convolution_count(f, P))

# a growth table: N, the primitive classes, and morphism counts
f = QuadForm(F3, (1, 1, 1))
print(f"\ngrowth table for {f}:")
print(f"  {'P':>2} {'N(P)':>8} {'primitive':>10} {'morphisms':>10}")
for P in range(1, 5):
    print(
        f"  {P:>2} {count_exact(f, P):>8} {count_primitive(f, P):>10} {morphism_count(f, P):>10}"
    )

# morphism counts vanish in forced patterns (here: odd P) and otherwise
# match the ones derived from enumerated counts N(P + 1), N(P), N(P - 1)
P = 2
[(_, _, mor)] = table_rows(lambda k: brute_count(f, k), F3.q, [P])
print(f"\nmorphism count check at P = {P}:")
print("  closed formula :", morphism_count(f, P))
print("  oracle         :", mor)

# counts are uniform in the field: the same formulas drive F_9
F9 = FieldCtx(3, 2)
g = QuadForm(F9, (1, 1, 1))
print("\nover F_9:", count_exact(g, 1), "=", brute_count(g, 1), "(closed = brute)")

# big boxes stay cheap for the closed formulas, and for the circle route,
# which sums P + 1 closed layers
big = QuadForm(F3, (1, 1, 1, 1, 1, 1))
print("\nN(40) for six variables has", len(str(count_exact(big, 40))), "digits")
print("circle reassembly agrees:", count_circle(big, 40) == count_exact(big, 40))
