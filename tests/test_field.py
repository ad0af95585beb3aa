"""Finite field contexts: construction, arithmetic, traces, squares."""

import math
import random

import pytest

from quadricpoints import FieldCtx
from quadricpoints.field import is_prime


def test_prime_field_basics(F3):
    assert F3.q == 3 and F3.p == 3 and F3.nu == 1
    assert list(F3.elements()) == [0, 1, 2]
    assert list(F3.units()) == [1, 2]
    assert F3.add(1, 2) == 0
    assert F3.mul(2, 2) == 1
    assert F3.neg(1) == 2
    assert F3.sub(0, 1) == 2
    assert F3.inv(2) == 2
    assert F3.pow(2, 5) == 2


def test_invalid_constructions():
    with pytest.raises(ValueError):
        FieldCtx(2)
    with pytest.raises(ValueError):
        FieldCtx(9)
    with pytest.raises(ValueError):
        FieldCtx(3, 0)
    # u^2 + 2 = u^2 - 1 = (u-1)(u+1) is reducible over F_3
    with pytest.raises(ValueError):
        FieldCtx(3, 2, [2, 0, 1])


def test_is_prime_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in list(range(-3, 3000)) + list(range(1753412800, 1753413100)):
        assert is_prime(n) == by_division(n), n
    # strong pseudoprimes to the leading bases, and a Carmichael number
    for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051, 561):
        assert not is_prime(n), n


def test_inverse_of_zero_raises(F9):
    with pytest.raises(ZeroDivisionError):
        F9.inv(0)


def test_default_modulus_f9(F9):
    # first monic irreducible quadratic over F_3 in encoding order is u^2 + 1
    assert F9.modulus == (1, 0, 1)
    assert F9.q == 9
    # the first monic irreducible in encoding order, for higher degrees too
    pinned = {
        (3, 3): (1, 2, 0, 1),
        (3, 4): (2, 1, 0, 0, 1),
        (5, 3): (1, 1, 0, 1),
        (7, 3): (2, 0, 0, 1),
        (3, 6): (2, 1, 0, 0, 0, 0, 1),
    }
    for (p, nu), modulus in pinned.items():
        assert FieldCtx(p, nu).modulus == modulus


def test_untabled_extension_field_is_a_field():
    F = FieldCtx(3, 6)  # q = 729: products are reduced on the fly, not looked up
    assert F._mul is None
    rng = random.Random(7)
    sample = [rng.randrange(F.q) for _ in range(40)]
    for a, b, c in zip(sample, sample[1:], sample[2:]):
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in sample:
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_extension_field_is_a_field(F9):
    els = list(F9.elements())
    assert len(els) == 9
    for a in els:
        for b in els:
            assert F9.add(a, b) == F9.add(b, a)
            assert F9.mul(a, b) == F9.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert F9.mul(a, F9.add(b, c)) == F9.add(F9.mul(a, b), F9.mul(a, c))
    for a in F9.units():
        assert F9.mul(a, F9.inv(a)) == 1


def test_coeff_round_trip(F9):
    for a in F9.elements():
        assert F9.from_coeffs(F9.coeffs(a)) == a
    assert F9.coeffs(F9.from_coeffs([2, 1])) == (2, 1)


def test_trace_is_additive_and_surjective(F9):
    values = set()
    for a in F9.elements():
        for b in F9.elements():
            assert F9.trace(F9.add(a, b)) == (F9.trace(a) + F9.trace(b)) % 3
        values.add(F9.trace(a))
    assert values == {0, 1, 2}
    # trace counts are balanced: q / p elements per fiber
    for target in range(3):
        assert sum(1 for a in F9.elements() if F9.trace(a) == target) == 3


def test_char_exponent_prime_field(F5):
    for a in F5.elements():
        assert F5.char_exponent(a) == a


def test_squares_split_units_in_half(F3, F5, F9):
    for ctx in (F3, F5, F9):
        squares = [u for u in ctx.units() if ctx.is_square_unit(u)]
        assert len(squares) == (ctx.q - 1) // 2
        for u in squares:
            b = ctx.sqrt_unit(u)
            assert b is not None and ctx.mul(b, b) == u
        for u in ctx.units():
            if u not in squares:
                assert ctx.sqrt_unit(u) is None


def test_is_square_unit_rejects_zero(F3):
    with pytest.raises(ValueError):
        F3.is_square_unit(0)


def test_negative_exponent_pow(F5):
    assert F5.pow(2, -1) == F5.inv(2)
    assert F5.pow(3, -2) == F5.inv(F5.mul(3, 3))


def test_larger_extension_f25():
    F25 = FieldCtx(5, 2)
    assert F25.q == 25
    a = F25.from_coeffs([0, 1])  # the generator u
    # u satisfies its modulus; Frobenius trace additivity on a sample
    for x in (3, 7, 24):
        for y in (1, 12, 19):
            lhs = F25.trace(F25.add(x, y))
            rhs = (F25.trace(x) + F25.trace(y)) % 5
            assert lhs == rhs
    order = 1
    acc = a
    while acc != 1:
        acc = F25.mul(acc, a)
        order += 1
    assert 24 % order == 0
