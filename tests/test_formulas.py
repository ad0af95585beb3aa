"""Closed point-count formulas, classification, and helper sums.

Frozen integers in this file were produced by the independent
enumeration oracles (`brute_count`, and primitive and morphism counts
enumerated by gcd) and written down; the tests check that the closed
formulas reproduce them.
"""

from fractions import Fraction

import pytest

from quadricpoints import (
    FieldCtx,
    count_circle,
    count_exact,
    count_primitive,
    enumerate_below,
    enumerate_monic,
    layer_sum_closed,
    morphism_count,
    phi_degree_sum,
    phi_power_sum,
)
from quadricpoints import formulas
from quadricpoints.expsums import geometric_sum, scaled_geometric_sum
from quadricpoints.forms import (
    CaseTag,
    QuadForm,
    classify,
    diagonalize,
    morphisms_from_primitive,
    primitive_from_counts,
    table_rows,
)
from quadricpoints.polyring import euler_phi


def test_classify(F3, F5):
    assert classify(QuadForm(F3, (1, 1, 1))) is CaseTag.ODD
    assert classify(QuadForm(F3, (1, 1, 1, 1, 1))) is CaseTag.ODD
    assert classify(QuadForm(F3, (1, 1, 1, 1))) is CaseTag.SPLIT_EVEN
    assert classify(QuadForm(F3, (1, 1, 1, 2))) is CaseTag.NONSPLIT_EVEN
    # n = 6: the sign (-1)^3 flips the determinant class
    assert classify(QuadForm(F3, (1, 1, 1, 1, 1, 1))) is CaseTag.NONSPLIT_EVEN
    assert classify(QuadForm(F3, (1, 1, 1, 1, 1, 2))) is CaseTag.SPLIT_EVEN
    assert classify(QuadForm(F5, (1, 1, 1, 4))) is CaseTag.SPLIT_EVEN
    assert classify(QuadForm(F5, (1, 1, 1, 2))) is CaseTag.NONSPLIT_EVEN


# oracle-frozen N(P) values: ((q, coeffs, P), N)
N_ANCHORS = [
    ((3, (1, 1, 1), 1), 9),
    ((3, (1, 1, 1), 2), 33),
    ((3, (1, 1, 1), 3), 153),
    ((3, (1, 1, 1), 4), 513),
    ((3, (1, 1, 1, 1), 1), 33),
    ((3, (1, 1, 1, 2), 1), 21),
    ((3, (1, 1, 1, 1, 1), 1), 81),
    ((3, (1, 1, 1, 1, 1), 2), 2241),
    ((3, (1, 1, 1, 1, 1, 1), 1), 225),
    ((3, (1, 1, 1, 1, 1, 2), 1), 261),
    ((5, (1, 1, 1), 1), 25),
    ((5, (1, 1, 1), 2), 145),
    ((5, (1, 1, 1, 4), 1), 145),
    ((5, (1, 1, 1, 2), 1), 105),
    ((3, (1, 1, 1, 2), 2), 81),
    ((5, (1, 1, 1, 2), 2), 625),
]

# oracle-frozen morphism counts: ((q, coeffs, P), count)
MOR_ANCHORS = [
    ((3, (1, 1, 1), 1), 0),
    ((3, (1, 1, 1), 2), 24),
    ((3, (1, 1, 1), 3), 0),
    ((3, (1, 1, 1), 4), 216),
    ((3, (1, 1, 1, 1), 1), 192),
    ((3, (1, 1, 1, 1), 2), 2304),
    ((3, (1, 1, 1, 2), 1), 0),
    ((3, (1, 1, 1, 2), 2), 720),
    ((3, (1, 1, 1, 1, 1), 1), 960),
    ((3, (1, 1, 1, 1, 1), 2), 28080),
    ((3, (1, 1, 1, 1, 1, 2), 1), 12480),
    ((3, (1, 1, 1, 1, 1, 1), 1), 6720),
    ((3, (1, 1, 1, 1, 1, 1), 2), 604800),
]


@pytest.mark.parametrize("key,expected", N_ANCHORS)
def test_count_exact_anchors(key, expected):
    q, coeffs, P = key
    f = QuadForm(FieldCtx(q), coeffs)
    assert count_exact(f, P) == expected


@pytest.mark.parametrize("key,expected", MOR_ANCHORS)
def test_morphism_anchors(key, expected):
    q, coeffs, P = key
    f = QuadForm(FieldCtx(q), coeffs)
    assert morphism_count(f, P) == expected


@pytest.mark.parametrize("p,nu", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_counts_at_the_poles_match_their_own_expressions(p, nu):
    # odd n = 3 and split n = 4, where the main and secondary growth coincide and
    # the geometric sums sit at x = 1, against the pole expressions written out
    ctx = FieldCtx(p, nu)
    q = Fraction(ctx.q)
    f3 = QuadForm(ctx, (1, 1, 1))
    f4s = [QuadForm(ctx, (1, 1, 1, c)) for c in (1, ctx.nonsquare())]
    (f4,) = [f for f in f4s if classify(f) is CaseTag.SPLIT_EVEN]
    for P in range(41):
        if P % 2 == 0:
            n3 = q**P * (1 + (q * q - 1) * P / (2 * q))
        else:
            n3 = q**P * ((q * q - 1) * P / (2 * q) + (q * q + 1) / (2 * q))
        assert count_exact(f3, P) == n3, (ctx.q, P)
        assert count_exact(f4, P) == q ** (2 * P) * (1 + (q * q - 1) * P / q), (ctx.q, P)
        if P >= 1:
            mor4 = q ** (2 * P) * (q * q - 1) * ((q * q - 1) * P + (q + 1) ** 2) / (q * q)
            assert morphism_count(f4, P) == mor4, (ctx.q, P)


def test_geometric_sum_is_the_term_by_term_sum():
    for x in (1, -1, 3, -3):
        for M in range(9):
            assert geometric_sum(x, M) == sum(x**k for k in range(M)), (x, M)
    with pytest.raises(ValueError):
        geometric_sum(3, -1)


def test_scaled_geometric_sum_is_the_term_by_term_sum():
    # x = eps q^e; a ratio of size at most one, e = -k, is summed reversed.  The
    # counts reach k = 2 at n = 1, k = 1 at n = 2, and k = 0 at the odd n = 3 pole,
    # the split n = 4 pole and nonsplit n = 4, where x = -1; the phi power sums of
    # the arc integrals reach k = c - 2
    for q in (3, 5, 9):
        for eps in (1, -1):
            for e in range(-3, 3):
                x = eps * Fraction(q) ** e
                for M in range(9):
                    g, k = scaled_geometric_sum(eps, q, e, M)
                    assert k >= 0 and Fraction(g, q**k) == sum(x**j for j in range(M)), (q, eps, e, M)
    with pytest.raises(ValueError):
        scaled_geometric_sum(1, 3, -1, -1)


def test_count_circle_agrees_with_exact():
    # every case tag for n = 3..6 over prime and non-prime fields, from N(0) = 1 up
    for ctx in (FieldCtx(3), FieldCtx(5), FieldCtx(7), FieldCtx(3, 2), FieldCtx(11)):
        nonsquare = ctx.nonsquare()
        for n in range(3, 7):
            for coeffs in [(1,) * n, (1,) * (n - 1) + (nonsquare,)]:
                f = QuadForm(ctx, coeffs)
                for P in range(9):
                    assert count_circle(f, P) == count_exact(f, P), (ctx.q, coeffs, P)


def test_count_circle_agrees_with_exact_in_large_boxes():
    # every case tag at n = 1..6 over prime and non-prime fields, at P sampled up to
    # 200: the circle route takes P + 1 closed terms, so a large box costs no more
    for ctx in (FieldCtx(3), FieldCtx(5), FieldCtx(3, 2)):
        nonsquare = ctx.nonsquare()
        for n in range(1, 7):
            for coeffs in [(1,) * n, (1,) * (n - 1) + (nonsquare,)]:
                f = QuadForm(ctx, coeffs)
                for P in (9, 10, 31, 64, 99, 128, 199, 200):
                    assert count_circle(f, P) == count_exact(f, P), (ctx.q, coeffs, P)


def test_count_circle_refuses_a_non_integral_total(monkeypatch, F3):
    # a rho = P layer off by one moves the total by q^(-2P): the one exact division
    # raises instead of rounding it away
    layer = formulas.layer_sum_closed
    for coeffs in ((1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2)):
        f = QuadForm(F3, coeffs)
        for P in (1, 2, 5):
            monkeypatch.setattr(formulas, "layer_sum_closed", lambda f, rho, P=P: layer(f, rho) + (rho == P))
            with pytest.raises(RuntimeError, match="non-integral"):
                count_circle(f, P)


def test_count_circle_small_n(F3):
    # below three variables the closed counts are N = 1, or 2 q^P - 1 on a split plane
    f1 = QuadForm(F3, (1,))
    f2 = QuadForm(F3, (1, 2))
    assert count_circle(f1, 2) == count_exact(f1, 2) == 1  # x^2 = 0 forces x = 0
    assert count_circle(f2, 2) == count_exact(f2, 2) == 17  # oracle-frozen


def test_closed_counts_below_three_variables():
    # every case tag at n = 1, 2 over prime and non-prime fields, from N(0) = 1 up
    for ctx in [FieldCtx(p) for p in (3, 5, 7, 11)] + [FieldCtx(3, 2), FieldCtx(5, 2), FieldCtx(3, 3)]:
        nonsquare = ctx.nonsquare()
        for coeffs in [(1,), (nonsquare,), (1, 1), (1, nonsquare)]:
            f = QuadForm(ctx, coeffs)
            split = classify(f) is CaseTag.SPLIT_EVEN
            for P in range(9):
                assert count_exact(f, P) == count_circle(f, P) == (2 * ctx.q**P - 1 if split else 1)
            for P in range(1, 9):
                assert count_primitive(f, P) == (2 if split else 0)
                assert morphism_count(f, P) == 0


def test_count_primitive(F3):
    f = QuadForm(F3, (1, 1, 1))
    assert count_primitive(f, 1) == 4
    assert count_primitive(f, 2) == 4


def test_morphism_from_counts_consistency(F3):
    for coeffs in [(1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2)]:
        f = QuadForm(F3, coeffs)
        for P in (1, 2, 3):
            assert count_primitive(f, P + 1) - count_primitive(f, P) == morphism_count(f, P)


def test_morphism_from_counts_rejects_inconsistent():
    with pytest.raises(ValueError):
        primitive_from_counts(4, 1, 3)  # 4 - 3 * 1 not divisible by q - 1 = 2
    with pytest.raises(ValueError):
        primitive_from_counts(0, 10, 3)  # negative result
    with pytest.raises(RuntimeError):
        morphisms_from_primitive(3, 4)  # the primitive count decreased


def test_table_rows_ask_each_count_once_largest_box_first(F3):
    f = QuadForm(F3, (1, 1, 1))
    asked = []

    def count(k):
        asked.append(k)
        return count_exact(f, k)

    rows = list(table_rows(count, 3, [1, 2, 3]))
    assert asked == [2, 1, 0, 3, 4]
    assert rows == [(count_exact(f, P), count_primitive(f, P), morphism_count(f, P)) for P in (1, 2, 3)]


def test_phi_degree_sum_matches_enumeration(F3, F5):
    for ctx in (F3, F5):
        for rho in range(0, 4 if ctx.q == 3 else 3):
            total = sum(euler_phi(r) for r in enumerate_monic(ctx, rho))
            assert total == phi_degree_sum(ctx.q, rho)
    assert phi_degree_sum(3, 0) == 1
    with pytest.raises(ValueError):
        phi_degree_sum(3, -1)
    with pytest.raises(ValueError):  # odd n: a negative odd degree is refused, not a zero layer
        layer_sum_closed(QuadForm(F3, (1, 1, 1)), -1)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_phi_power_sum_closed_forms(q, signed, c):
    for M in range(0, 6):
        direct = Fraction(0)
        for rho in range(M + 1):
            term = Fraction(phi_degree_sum(q, rho), q ** (c * rho))
            direct += -term if (signed and rho % 2) else term
        assert phi_power_sum(q, M, c, signed) == direct


def test_diagonalize_gram(F3, F5):
    # hyperbolic plane 2xy: congruent to a diagonal form with the same counts
    f = diagonalize(F3, [[0, 1], [1, 0]])
    assert f.n == 2

    def gram_count(ctx, gram, P):
        total = 0
        n = len(gram)
        from itertools import product

        from quadricpoints import Poly

        box = list(enumerate_below(ctx, P))
        for xs in product(box, repeat=n):
            acc = Poly.zero(ctx)
            for i in range(n):
                for j in range(n):
                    acc = acc + (xs[i] * xs[j]).scale(gram[i][j])
            if acc.is_zero():
                total += 1
        return total

    from quadricpoints import brute_count

    for ctx, gram in [
        (F3, [[0, 1], [1, 0]]),
        (F3, [[1, 2], [2, 2]]),
        (F5, [[0, 2], [2, 3]]),
        (F3, [[1, 0, 1], [0, 2, 0], [1, 0, 2]]),
    ]:
        diag = diagonalize(ctx, gram)
        for P in (1, 2):
            assert brute_count(diag, P) == gram_count(ctx, gram, P)


def test_diagonalize_rejects_bad_input(F3):
    with pytest.raises(ValueError):
        diagonalize(F3, [[1, 1], [1, 1]])  # degenerate (det = 0)
    with pytest.raises(ValueError):
        diagonalize(F3, [[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        diagonalize(F3, [[1, 0, 0], [0, 1, 0]])  # not square
    with pytest.raises(ValueError):
        diagonalize(F3, [[3, 0], [0, 1]])  # entries outside F_q encodings


def test_validation_errors(F3):
    f2 = QuadForm(F3, (1, 2))
    f3 = QuadForm(F3, (1, 1, 1))
    assert count_exact(f2, 1) == 5  # the split plane: two lines through 0
    assert count_exact(f3, 0) == 1  # only the zero tuple
    with pytest.raises(ValueError):
        count_exact(f3, -1)
    with pytest.raises(ValueError):
        morphism_count(f3, 0)
    with pytest.raises(ValueError):
        morphism_count(f2, 0)
