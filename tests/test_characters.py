"""Additive characters on F_q((1/t)) and exact ball integrals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadricpoints import CycInt, FieldCtx, Poly, ball_integral
from quadricpoints.characters import (
    expansion_tail,
    ratio_char_exponent,
    tail_char_exponent,
    tails_supported,
)
from quadricpoints.polyring import enumerate_below

FIELDS = {3: FieldCtx(3), 5: FieldCtx(5), 9: FieldCtx(3, 2)}


def psi(tail: Poly, v: Poly) -> CycInt:
    return CycInt.root_power(tail.ctx.p, tail_char_exponent(tail, v))


def psi_ratio(x: Poly, r: Poly) -> CycInt:
    return CycInt.root_power(x.ctx.p, ratio_char_exponent(x, r))


def coefficient_by_division(x: Poly, r: Poly, i: int) -> int:
    """Coefficient of t^(-i) in x/r: the constant term of (x * t^i) div r."""
    return ((x * Poly.t_power(x.ctx, i)) // r).coeff(0)


def test_laurent_coefficients_hand_expansions(F3):
    t = Poly.gen(F3)
    x = Poly(F3, [2, 1])  # t + 2
    # tail entry i is coefficient i - 1: (t + 2)/t = 1 + 2 t^-1
    assert expansion_tail(x, t, 2) == Poly(F3, [2])
    # (t + 2)/t^2 = t^-1 + 2 t^-2
    assert expansion_tail(x, t * t, 2) == Poly(F3, [1, 2])
    # 1/(t + 1) = t^-1 - t^-2 + t^-3 - ... (alternating signs)
    one = Poly.one(F3)
    tail = expansion_tail(one, t + one, 4)
    assert tail.coeffs == (1, 2, 1, 2)
    # a polynomial has no tail, and depth 0 reads nothing
    assert expansion_tail(t * (t + one), t + one, 3).is_zero()
    assert expansion_tail(one, t + one, 0).is_zero()
    with pytest.raises(ValueError):
        expansion_tail(one, t, -1)


def test_expansion_tail_matches_coefficients(F3):
    t = Poly.gen(F3)
    x = Poly(F3, [1, 0, 2])
    r = t * t + t + Poly.one(F3)
    tail = expansion_tail(x, r, 5)
    for j in range(1, 6):
        assert tail.coeff(j - 1) == coefficient_by_division(x, r, j)
    assert tail.deg < 5


def test_psi_ratio_is_additive_character(F3):
    t = Poly.gen(F3)
    r = t * t + Poly.one(F3)
    xs = list(enumerate_below(F3, 3))
    for x in xs[:10]:
        for y in xs[::7]:
            assert psi_ratio(x + y, r) == psi_ratio(x, r) * psi_ratio(y, r)
    # psi of a polynomial (no fractional part) is 1
    assert psi_ratio(t * r, r) == CycInt.from_int(3, 1)


def polys(ctx: FieldCtx, maxdeg: int):
    return st.lists(st.integers(0, ctx.q - 1), max_size=maxdeg + 1).map(lambda cs: Poly(ctx, cs))


@st.composite
def ratios(draw):
    """(x, r, v, depth): r monic of degree <= 3 and deg v <= depth - 1, over F_3, F_5 or F_9."""
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rho = draw(st.integers(0, 3))
    r = Poly(ctx, draw(st.lists(st.integers(0, ctx.q - 1), min_size=rho, max_size=rho)) + [1])
    x = draw(polys(ctx, 5))
    depth = draw(st.integers(0, 7))
    v = draw(polys(ctx, depth - 1)) if depth else Poly.zero(ctx)
    return x, r, v, depth


@given(ratios())
def test_tail_character_equals_ratio_character(case):
    # psi(x v / r) reads only tail indices <= deg v + 1 of x/r
    x, r, v, depth = case
    assert tail_char_exponent(expansion_tail(x, r, depth), v) == ratio_char_exponent(x * v, r)


@given(ratios())
def test_expansion_tail_matches_per_index_division(case):
    x, r, _, depth = case
    tail = expansion_tail(x, r, depth)
    assert tail == Poly(x.ctx, [coefficient_by_division(x, r, i) for i in range(1, depth + 1)])


def test_tails_supported_enumeration(F3):
    tails = list(tails_supported(F3, 2, 3))
    assert len(tails) == 9  # q^2 tails on the two indices 2..3
    assert len(set(tails)) == 9
    for tail in tails:
        # entries 2..3 are coefficients 1..2
        assert tail.coeff(0) == 0 and tail.deg <= 2
    with pytest.raises(ValueError, match="start at 1"):
        next(tails_supported(F3, 0, 2))


def test_psi_tail_reads_dot_product(F3):
    # psi(alpha v) pairs tail entry i with coefficient i-1 of v
    tail = Poly.t_power(F3, 1)  # t^-2
    v = Poly(F3, [0, 2])  # 2t; coefficient 1 is 2
    assert psi(tail, v) == CycInt.root_power(3, 2)
    assert psi(tail, Poly.one(F3)) == CycInt.from_int(3, 1)


def test_ball_integral_orthogonality(F3):
    # integral over the ball of psi(alpha x): q^-M when deg x < M, else 0
    q = F3.q
    for M in range(1, 4):
        for x in enumerate_below(F3, 4):
            depth = (0 if x.is_zero() else x.deg) + 1
            val = ball_integral(F3, -M, depth, lambda tail, x=x: psi(tail, x))
            expected = Fraction(1, q**M) if (x.is_zero() or x.deg < M) else Fraction(0)
            assert val == expected


def test_ball_integral_shortcut_region(F3):
    # when the functional's depth is inside the ball, the sum has one tail,
    # zero: the constant value is scaled by the measure
    val = ball_integral(F3, -3, 2, lambda tail: CycInt.from_int(3, 7))
    assert isinstance(val, Fraction) and val == Fraction(7, 27)
    # an irrational total is refused, collapsed (M = -3) or summed (M = -1)
    for M in (-3, -1):
        with pytest.raises(ValueError, match="not rational"):
            ball_integral(F3, M, 2, lambda tail: CycInt.root_power(3, 1))


def test_ball_integral_evaluates_each_tail_once():
    # one call per tail on indices (-M, depth], the depth spot-check's t^depth
    # the only extra; depth + M <= 0 collapses the ball to its zero tail
    for ctx in FIELDS.values():
        for M, depth in [(0, 0), (-3, 2), (-2, 2), (-1, 2), (0, 1), (0, 2), (-1, 3)]:
            calls = []
            val = ball_integral(ctx, M, depth, lambda tail: calls.append(tail) or CycInt.from_int(ctx.p, 1))
            assert val == Fraction(1, ctx.q ** -M)
            assert len(calls) == ctx.q ** max(0, depth + M) + 1


def test_ball_integral_depth_guard(F3):
    # a functional that secretly reads past its declared depth is rejected
    cheat = Poly.t_power(F3, 2)  # needs depth 3

    with pytest.raises(RuntimeError, match="deeper than declared"):
        ball_integral(F3, -1, 2, lambda tail: psi(tail, cheat))


def test_ball_integral_rejects_positive_radius(F3):
    with pytest.raises(ValueError):
        ball_integral(F3, 1, 2, lambda tail: CycInt.from_int(3, 1))
