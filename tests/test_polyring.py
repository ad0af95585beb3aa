"""Polynomial ring over F_q: arithmetic, factorization, phi, Moebius."""

import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from quadricpoints import (
    FieldCtx,
    Poly,
    enumerate_below,
    enumerate_monic,
    euler_phi,
    factorize,
    irreducibles,
    moebius,
    poly_from_encoding,
    poly_gcd,
)
from quadricpoints.characters import expansion_tail
from quadricpoints.polyring import is_irreducible

FIELDS = {3: FieldCtx(3), 5: FieldCtx(5), 7: FieldCtx(7), 9: FieldCtx(3, 2)}


def _random_poly(ctx, rng, maxdeg):
    d = rng.randrange(maxdeg + 1)
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(d + 1)])


def _expand(fac, ctx):
    """unit * prod(pi ** k) of a factorization."""
    out = Poly.constant(ctx, fac.unit)
    for pi, k in fac.factors:
        out = out * pi**k
    return out


def test_construction_and_degree(F3):
    z = Poly.zero(F3)
    assert z.deg == -1 and z.is_zero()
    one = Poly.one(F3)
    assert one.deg == 0 and one.is_one()
    t = Poly.gen(F3)
    assert t.deg == 1 and str(t) == "t"
    f = Poly(F3, [1, 2, 0, 0])  # trailing zeros trimmed
    assert f.deg == 1 and f.coeffs == (1, 2)
    assert Poly.t_power(F3, 4).deg == 4


def test_arithmetic_identities(F3, F9):
    rng = random.Random(7)
    for ctx in (F3, F9):
        for _ in range(60):
            a = _random_poly(ctx, rng, 5)
            b = _random_poly(ctx, rng, 4)
            assert (a + b) - b == a
            assert a * b == b * a
            if not b.is_zero():
                quo, rem = divmod(a, b)
                assert quo * b + rem == a
                assert rem.is_zero() or rem.deg < b.deg


def test_mixed_fields_are_refused(F3):
    F7 = FIELDS[7]
    a, b = Poly(F3, [1, 2, 1]), Poly(F7, [3, 1])
    for op in (lambda: a + b, lambda: a * b, lambda: divmod(a, b), lambda: divmod(b, a)):
        with pytest.raises(ValueError, match="mixed coefficient fields"):
            op()
    # a tail is a polynomial in 1/t, so two tails over different fields do not add
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        expansion_tail(Poly.one(F3), Poly.gen(F3), 2) + Poly.t_power(F7, 1)


def test_gcd_is_monic_and_divides(F3):
    t = Poly.gen(F3)
    one = Poly.one(F3)
    two = Poly.constant(F3, 2)
    a = (t + one) * (t + two) * (t + two)
    b = (t + two) * t
    g = poly_gcd(a, b)
    assert g.is_monic()
    assert (a % g).is_zero() and (b % g).is_zero()
    assert g == t + two
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(F3), Poly.zero(F3))


def test_irreducible_counts(F3, F5, F9):
    # number of monic irreducibles of degree d over F_q:
    # (1/d) sum_{e | d} mu(e) q^(d/e)
    def expected(q, d):
        total = 0
        for e in range(1, d + 1):
            if d % e:
                continue
            fac, m, mu = e, 2, 1
            while m * m <= fac:
                if fac % m == 0:
                    fac //= m
                    if fac % m == 0:
                        mu = 0
                        break
                    mu = -mu
                m += 1
            else:
                if fac > 1:
                    mu = -mu
            if mu:
                total += mu * q ** (d // e)
        return total // d

    fields = ((F3, 6), (F5, 4), (FieldCtx(7), 3), (F9, 3), (FieldCtx(5, 2), 2), (FieldCtx(3, 3), 2))
    for ctx, maxdeg in fields:
        for d in range(1, maxdeg + 1):
            got = sum(1 for _ in irreducibles(ctx, d))
            assert got == expected(ctx.q, d), (ctx.q, d)


def test_factorize_round_trip_exhaustive_deg3(F3):
    for enc in range(1, 3**4):
        f = poly_from_encoding(F3, enc)
        fac = factorize(f)
        assert _expand(fac, F3) == f
        for pi, _ in fac.factors:
            assert pi.is_monic() and is_irreducible(pi)


@st.composite
def nonzero_polys(draw):
    """A nonzero polynomial of degree <= 8 over F_3, F_5, F_7 or F_9."""
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    coeffs = draw(st.lists(st.integers(0, ctx.q - 1), max_size=8))
    return Poly(ctx, coeffs + [draw(st.integers(1, ctx.q - 1))])


@given(nonzero_polys())
def test_factorize_round_trip(f):
    fac = factorize(f)
    assert _expand(fac, f.ctx) == f
    for pi, k in fac.factors:
        assert k >= 1 and pi.is_monic() and is_irreducible(pi)
    keys = [(len(pi.coeffs), pi.encoding()) for pi, _ in fac.factors]
    assert keys == sorted(set(keys))


@given(nonzero_polys().filter(lambda f: f.ctx.nu == 1))
def test_factorize_matches_sympy(f):
    p = f.ctx.p
    t = sympy.symbols("t")
    theirs_poly = sympy.Poly(list(reversed(f.coeffs)), t, modulus=p)
    # sympy calls constants irreducible; here they are not
    assert is_irreducible(f) == (f.deg >= 1 and theirs_poly.is_irreducible)
    unit, factors = theirs_poly.factor_list()
    # sympy writes residues symmetrically, in (-p/2, p/2]
    theirs = sorted(
        (tuple(int(c) % p for c in reversed(g.all_coeffs())), k) for g, k in factors
    )
    fac = factorize(f)
    assert int(unit) % p == fac.unit
    assert sorted((pi.coeffs, k) for pi, k in fac.factors) == theirs


def test_factorize_repeated_and_derivative_zero(F3):
    t = Poly.gen(F3)
    # (t+1)^3 = t^3 + 1 has zero derivative in characteristic 3
    f = (t + Poly.one(F3)) ** 3
    fac = factorize(f)
    assert fac.factors == (((t + Poly.one(F3)), 3),)
    g = (t**3 - t) * (t**3 - t)  # squarefull with three distinct roots
    fac2 = factorize(g)
    assert _expand(fac2, F3) == g
    assert all(k == 2 for _, k in fac2.factors)


def test_factorize_is_deterministic(F5):
    rng = random.Random(13)
    for _ in range(20):
        f = _random_poly(F5, rng, 6)
        if f.is_zero():
            continue
        a = factorize(f)
        b = factorize(f)
        assert a.unit == b.unit and a.factors == b.factors


def test_factorize_extension_field(F9):
    rng = random.Random(99)
    for _ in range(10):
        f = _random_poly(F9, rng, 4)
        if f.is_zero():
            continue
        assert _expand(factorize(f), F9) == f


def test_euler_phi(F3):
    t = Poly.gen(F3)
    one = Poly.one(F3)
    two = Poly.constant(F3, 2)
    assert euler_phi(Poly.one(F3)) == 1
    assert euler_phi(t) == 2
    assert euler_phi(t * t) == 6
    assert euler_phi(t * (t + one)) == 4
    # multiplicative on coprime parts, |pi|^(k-1) (|pi| - 1) on powers
    f = t**2 * (t + two)
    assert euler_phi(f) == 6 * 2
    # phi counts coprime residues
    count = sum(
        1 for a in enumerate_below(F3, 2) if not a.is_zero() and poly_gcd(a, t * t).is_one()
    )
    assert count == 6


def test_moebius(F3):
    t = Poly.gen(F3)
    one = Poly.one(F3)
    assert moebius(Poly.one(F3)) == 1
    assert moebius(t) == -1
    assert moebius(t * (t + one)) == 1
    assert moebius(t * t) == 0


def test_enumeration_sizes(F3):
    assert sum(1 for _ in enumerate_below(F3, 2)) == 9
    assert sum(1 for _ in enumerate_monic(F3, 2)) == 9
    monics = list(enumerate_monic(F3, 0))
    assert monics == [Poly.one(F3)]
    for f in enumerate_monic(F3, 3):
        assert f.is_monic() and f.deg == 3


def test_encoding_round_trip(F9):
    for enc in (0, 1, 17, 80, 81, 700):
        assert poly_from_encoding(F9, enc).encoding() == enc
