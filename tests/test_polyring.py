"""Polynomial ring over F_q: arithmetic, factor types, phi, Moebius."""

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
    factor_type,
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


@pytest.mark.parametrize("p, nu", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (10007, 1), (23, 2)])
def test_kernel_agreement(p, nu):
    """divmod, %, //, -, and pow with a modulus agree with each other and with
    + and *, over monic and non-monic divisors; F_529 multiplies untabled."""
    ctx = FieldCtx(p, nu)
    q = ctx.q
    rng = random.Random(q)

    def well_formed(x):
        return type(x.coeffs) is tuple and x.coeffs[-1:] != (0,) and all(0 <= c < q for c in x.coeffs)

    for _ in range(30):
        a, c = _random_poly(ctx, rng, 6), _random_poly(ctx, rng, 6)
        for lead in (1, rng.randrange(2, q)):
            b = Poly(ctx, [rng.randrange(q) for _ in range(rng.randrange(4))] + [lead])
            quo, rem = divmod(a, b)
            assert quo * b + rem == a and rem.deg < b.deg, (a, b)
            assert a // b == quo and a % b == rem
            e = rng.randrange(7)
            power = pow(a, e, b)
            assert power == a**e % b, (a, e, b)
            results = (quo, rem, a - c, c - a, a - a, a + c, -a, a * c, a.scale(rng.randrange(q)), power)
            assert all(map(well_formed, results)), results
        assert a - c == a + (-c) and c - a == c + (-a)
    assert (ctx._mul is None) == (nu == 1 or q == 529)
    for bad in (q, -1):
        with pytest.raises(ValueError, match="not an F_q encoding"):
            Poly(ctx, [bad])


def test_mixed_fields_are_refused(F3):
    F7 = FIELDS[7]
    a, b = Poly(F3, [1, 2, 1]), Poly(F7, [3, 1])
    for op in (lambda: a + b, lambda: a * b, lambda: divmod(a, b), lambda: divmod(b, a)):
        with pytest.raises(ValueError, match="mixed coefficient fields"):
            op()
    # a tail is a polynomial in 1/t, so two tails over different fields do not add
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        expansion_tail(Poly.one(F3), Poly.gen(F3), 2) + Poly.t_power(F7, 1)


def test_pow_with_modulus_reduces_the_power():
    rng = random.Random(11)
    for ctx in (FIELDS[3], FIELDS[9]):
        for d in (1, 2, 3):
            m = Poly(ctx, [rng.randrange(ctx.q) for _ in range(d)] + [rng.randrange(1, ctx.q)])
            for _ in range(4):
                a = _random_poly(ctx, rng, 4)
                for e in (0, 1, 2, 5, 13):
                    assert pow(a, e, m) == a**e % m, (a, e, m)
        # e = 0 gives 1 % m, as for ints
        assert pow(Poly.gen(ctx), 0, Poly.one(ctx)).is_zero()
    with pytest.raises(ValueError):
        pow(Poly.gen(ctx), -1, Poly.gen(ctx) + Poly.one(ctx))


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


@st.composite
def nonzero_polys(draw):
    """A nonzero polynomial of degree <= 8 over F_3, F_5, F_7 or F_9."""
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    coeffs = draw(st.lists(st.integers(0, ctx.q - 1), max_size=8))
    return Poly(ctx, coeffs + [draw(st.integers(1, ctx.q - 1))])


@given(nonzero_polys().filter(lambda f: f.ctx.nu == 1))
def test_factor_type_matches_sympy(f):
    p = f.ctx.p
    t = sympy.symbols("t")
    theirs_poly = sympy.Poly(list(reversed(f.coeffs)), t, modulus=p)
    # sympy calls constants irreducible; here they are not
    assert is_irreducible(f) == (f.deg >= 1 and theirs_poly.is_irreducible)
    _, factors = theirs_poly.factor_list()
    assert factor_type(f) == tuple(sorted((g.degree(), k) for g, k in factors))


def _trial_division_factors(f, irreducibles_by_degree):
    """(pi, k) for the monic irreducible factors pi of f, by degree, then encoding.

    Divides out each irreducible of degree <= deg(rest)/2 in that order.
    """
    rest, out = f.monic(), []
    for d in range(1, rest.deg // 2 + 1):
        for pi in irreducibles_by_degree[d]:
            if 2 * d > rest.deg:
                break
            k = 0
            while (rest % pi).is_zero():
                rest, k = rest // pi, k + 1
            if k:
                out.append((pi, k))
    if rest.deg >= 1:  # no factor of degree <= deg(rest)/2 is left
        out.append((rest, 1))
    return out


def _sieved_irreducibles(ctx, maxdeg):
    """Monic irreducibles by degree: those of degree d that no irreducible of degree <= d/2 divides."""
    found = {d: [] for d in range(1, maxdeg + 1)}
    for d in range(1, maxdeg + 1):
        for f in enumerate_monic(ctx, d):
            if not any((f % pi).is_zero() for e in range(1, d // 2 + 1) for pi in found[e]):
                found[d].append(f)
    return found


@pytest.mark.parametrize(
    "p, nu, maxdeg", [(3, 1, 6), (5, 1, 4), (3, 2, 3), (5, 2, 2), (3, 3, 2)]
)
def test_factor_type_matches_trial_division(p, nu, maxdeg):
    ctx = FieldCtx(p, nu)
    found = _sieved_irreducibles(ctx, maxdeg)
    for d in range(1, maxdeg + 1):
        for f in enumerate_monic(ctx, d):
            reference = _trial_division_factors(f, found)
            assert factor_type(f) == tuple(sorted((pi.deg, k) for pi, k in reference)), f
            assert is_irreducible(f) == (reference == [(f, 1)]), f
            # phi and mu from the factors themselves
            phi = 1
            for pi, k in reference:
                phi *= (ctx.q**pi.deg - 1) * ctx.q ** (pi.deg * (k - 1))
            assert euler_phi(f) == phi, f
            squarefree = all(k == 1 for _, k in reference)
            assert moebius(f) == ((-1) ** len(reference) if squarefree else 0), f


def test_factor_type_repeated_and_derivative_zero(F3):
    t = Poly.gen(F3)
    one = Poly.one(F3)
    # (t+1)^3 = t^3 + 1 has zero derivative in characteristic 3
    assert factor_type((t + one) ** 3) == ((1, 3),)
    g = (t**3 - t) * (t**3 - t)  # squarefull with three distinct roots
    assert factor_type(g) == ((1, 2),) * 3
    # multiplicities p^2, p and 2p
    assert factor_type((t + one) ** 9) == ((1, 9),)
    assert factor_type(t**3 * (t**2 + one) ** 6) == ((1, 3), (2, 6))
    # p + 1 and 2p + 1 beside a factor of multiplicity p, and a unit that is not 1
    assert factor_type(Poly.constant(F3, 2) * t**4 * (t + one) ** 3 * (t**2 + one) ** 7) == ((1, 3), (1, 4), (2, 7))
    # the first peel at degree 2 finds no factor of multiplicity 1
    u, v = t**2 + one, t**2 + t + Poly.constant(F3, 2)
    assert factor_type(u**2 * v**3) == ((2, 2), (2, 3))
    # p^2 and p^2 + 1 at two degrees, either way round
    assert factor_type(t**9 * u**10) == ((1, 9), (2, 10))
    assert factor_type((t + one) ** 10 * v**9) == ((1, 10), (2, 9))
    # two distinct irreducibles of one degree, and a cube of one
    assert not is_irreducible(u * v) and not is_irreducible(u**3)
    # p^2 with a coefficient outside F_3, then p and p + 1 over F_27
    F9, F27 = FIELDS[9], FieldCtx(3, 3)
    a = Poly.gen(F9) + Poly.constant(F9, 3)
    b, c = Poly.gen(F27) + Poly.constant(F27, 3), Poly.gen(F27) + Poly.constant(F27, 9)
    assert factor_type(a**9) == ((1, 9),)
    assert factor_type(b**3 * c**4) == ((1, 3), (1, 4))
    assert not is_irreducible(a**9) and not is_irreducible(b**3 * c**4)
    # multiplicity 2p over F_9 (under a unit outside F_3) and F_27, and p + 1 over F_9
    assert factor_type(Poly.constant(F9, 5) * a**6) == ((1, 6),)
    assert factor_type(b**6 * c) == ((1, 1), (1, 6))
    assert factor_type(a**4 * (a + Poly.one(F9)) ** 3) == ((1, 3), (1, 4))
    # the cube of an irreducible of degree 2 over F_9
    pi = next(irreducibles(F9, 2))
    assert is_irreducible(pi) and not is_irreducible(pi**3)
    assert factor_type(pi**3) == ((2, 3),)
    with pytest.raises(ValueError):
        factor_type(Poly.zero(F3))


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
