"""Additive characters on F_q((1/t)) and exact ball integrals."""

from fractions import Fraction

import pytest

from quadricpoints import (
    CycInt,
    LaurentTail,
    Poly,
    ball_integral,
    laurent_coefficient,
    psi_ratio,
    psi_tail,
)
from quadricpoints.characters import expansion_tail, tails_supported
from quadricpoints.polyring import enumerate_below


def test_laurent_coefficients_hand_expansions(F3):
    t = Poly.gen(F3)
    x = Poly(F3, [2, 1])  # t + 2
    # (t + 2)/t = 1 + 2 t^-1
    assert laurent_coefficient(x, t, -1) == 2
    assert laurent_coefficient(x, t, -2) == 0
    # (t + 2)/t^2 = t^-1 + 2 t^-2
    assert laurent_coefficient(x, t * t, -1) == 1
    assert laurent_coefficient(x, t * t, -2) == 2
    # 1/(t + 1) = t^-1 - t^-2 + t^-3 - ... (alternating signs)
    one = Poly.one(F3)
    r = t + one
    assert [laurent_coefficient(one, r, -j) for j in range(1, 5)] == [1, 2, 1, 2]


def test_expansion_tail_matches_coefficients(F3):
    t = Poly.gen(F3)
    x = Poly(F3, [1, 0, 2])
    r = t * t + t + Poly.one(F3)
    tail = expansion_tail(x, r, 5)
    for j in range(1, 6):
        assert tail.entry(j) == laurent_coefficient(x, r, -j)
    assert tail.depth <= 5


def test_psi_ratio_is_additive_character(F3):
    t = Poly.gen(F3)
    r = t * t + Poly.one(F3)
    xs = list(enumerate_below(F3, 3))
    for x in xs[:10]:
        for y in xs[::7]:
            assert psi_ratio(x + y, r) == psi_ratio(x, r) * psi_ratio(y, r)
    # psi of a polynomial (no fractional part) is 1
    assert psi_ratio(t * r, r) == CycInt.from_int(3, 1)


def test_tail_container_semantics(F3):
    zero = LaurentTail.zero(F3)
    assert zero.is_zero() and zero.depth == 0 and zero.min_index() == 0
    s = LaurentTail.single(F3, 3, 2)
    assert s.entry(3) == 2 and s.entry(1) == 0
    assert s.depth == 3 and s.min_index() == 3
    assert s == LaurentTail.single(F3, 3, 2)
    assert hash(s) == hash(LaurentTail.single(F3, 3, 2))
    assert s != zero


def test_tails_supported_enumeration(F3):
    tails = list(tails_supported(F3, 2, 3))
    assert len(tails) == 9  # q^2 tails on the two indices 2..3
    assert len(set(tails)) == 9
    for tail in tails:
        assert tail.is_zero() or tail.min_index() >= 2
        assert tail.depth <= 3


def test_psi_tail_reads_dot_product(F3):
    # psi_tail(tail, v) pairs tail entry i with coefficient i-1 of v
    tail = LaurentTail.single(F3, 2, 1)
    v = Poly(F3, [0, 2])  # 2t; coefficient 1 is 2
    assert psi_tail(tail, v) == CycInt.root_power(3, 2)
    assert psi_tail(tail, Poly.one(F3)) == CycInt.from_int(3, 1)


def test_ball_integral_orthogonality(F3):
    # integral over the ball of psi(alpha x): q^-M when deg x < M, else 0
    q = F3.q
    for M in range(1, 4):
        for x in enumerate_below(F3, 4):
            depth = (0 if x.is_zero() else x.deg) + 1
            val = ball_integral(
                F3, -M, depth, lambda tail, x=x: psi_tail(tail, x)
            ).to_fraction(q)
            expected = Fraction(1, q**M) if (x.is_zero() or x.deg < M) else Fraction(0)
            assert val == expected


def test_ball_integral_shortcut_region(F3):
    # when the functional's depth is inside the ball, no summation happens:
    # the constant value is scaled by the measure
    val = ball_integral(F3, -3, 2, lambda tail: CycInt.from_int(3, 7))
    assert val.to_fraction(3) == Fraction(7, 27)


def test_ball_integral_depth_guard(F3):
    # a functional that secretly reads past its declared depth is rejected
    cheat = Poly.t_power(F3, 2)  # needs depth 3

    with pytest.raises(RuntimeError, match="deeper than declared"):
        ball_integral(F3, -1, 2, lambda tail: psi_tail(tail, cheat))


def test_ball_integral_rejects_positive_radius(F3):
    with pytest.raises(ValueError):
        ball_integral(F3, 1, 2, lambda tail: CycInt.from_int(3, 1))
