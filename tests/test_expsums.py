"""Gauss sums, complete quadratic sums, Weyl sums, and arc integrals."""

import itertools
from fractions import Fraction

import pytest

from quadricpoints import (
    CaseTag,
    CycInt,
    FieldCtx,
    Poly,
    QuadForm,
    arc_integral_closed,
    arc_integral_direct,
    classify,
    enumerate_below,
    form_exp_sum,
    gauss_sum,
    gauss_sum_prime_power,
    local_factor_closed,
    local_factor_direct,
    twisted_gauss_sum,
    twisted_gauss_sum_prime_power,
    weyl_sum,
)
from quadricpoints import expsums
from quadricpoints.characters import ratio_char_exponent


def test_quadform_validation(F3):
    f = QuadForm(F3, (1, 2, 1))
    assert f.n == 3
    ones = [Poly.one(F3)] * 3
    assert f.value(ones) == Poly.constant(F3, (1 + 2 + 1) % 3)
    t = Poly.gen(F3)
    assert f.value([t, Poly.zero(F3), Poly.zero(F3)]) == t * t
    with pytest.raises(ValueError):
        QuadForm(F3, (1, 0, 1))
    with pytest.raises(ValueError):
        QuadForm(F3, ())
    with pytest.raises(ValueError):
        f.signed_det_unit()  # odd number of variables has no signed half-det


def test_quadform_determinants(F3):
    f = QuadForm(F3, (1, 1, 1, 2))
    assert f.det_unit() == 2
    assert f.signed_det_unit() == 2  # (-1)^2 * det
    g = QuadForm(F3, (1, 1, 1, 1, 1, 1))
    assert g.signed_det_unit() == F3.neg(1)  # (-1)^3 * 1


def test_gauss_sum_linear_modulus(F3):
    t = Poly.gen(F3)
    # sum over x mod t of zeta^(x^2) = 1 + 2 zeta
    assert gauss_sum(t) == CycInt(3, (1, 2))
    # tau^2 = -q for q = 3
    assert gauss_sum(t) * gauss_sum(t) == CycInt.from_int(3, -3)
    shifted = t + Poly.one(F3)
    assert gauss_sum(shifted) * gauss_sum(shifted) == CycInt.from_int(3, -3)


def test_gauss_sum_prime_powers(F3):
    t = Poly.gen(F3)
    # even exponent collapses to |pi|^(k/2)
    assert gauss_sum_prime_power(t, 2) == CycInt.from_int(3, 3)
    assert gauss_sum(t * t) == CycInt.from_int(3, 3)
    # odd exponent: tau_pi * |pi|^((k-1)/2)
    assert gauss_sum_prime_power(t, 3) == gauss_sum(t) * 3
    assert gauss_sum(t * t * t) == gauss_sum_prime_power(t, 3)
    with pytest.raises(ValueError):
        gauss_sum_prime_power(t * t, 1)  # modulus base must be irreducible


def test_twisted_gauss_sum(F3):
    t = Poly.gen(F3)
    two = Poly.constant(F3, 2)
    # 2 is not a square mod 3: the twist flips the sign
    assert twisted_gauss_sum(two, t) == -gauss_sum(t)
    assert twisted_gauss_sum(Poly.one(F3), t) == gauss_sum(t)
    # prime-power closed form agrees with direct summation
    for k in (1, 2, 3):
        r = t**k
        for a in (Poly.one(F3), two, t + Poly.one(F3)):
            assert twisted_gauss_sum_prime_power(a, t, k) == twisted_gauss_sum(a, r)
    with pytest.raises(ValueError):
        twisted_gauss_sum_prime_power(t, t, 2)  # twist must be coprime to pi


def test_twisted_gauss_sum_at_degree_two_base(F3):
    # r = t^2 + 1 is irreducible over F_3, so the closed form reads the
    # quadratic symbol (a / r) at a degree-two base: tau_r for squares mod r
    t = Poly.gen(F3)
    r = t * t + Poly.one(F3)
    tau = gauss_sum(r)
    units = [a for a in enumerate_below(F3, 2) if not a.is_zero()]
    squares = {(a * a % r).encoding() for a in units}
    for a in units:
        expected = tau if a.encoding() in squares else -tau
        assert twisted_gauss_sum(a, r) == expected
        assert twisted_gauss_sum_prime_power(a, r, 1) == expected


def test_local_factor_frozen_values(F3):
    t = Poly.gen(F3)
    f4 = QuadForm(F3, (1, 1, 1, 1))
    f3 = QuadForm(F3, (1, 1, 1))
    assert local_factor_direct(f4, t) == CycInt.from_int(3, 18)
    assert local_factor_closed(f4, t) == 18
    assert local_factor_direct(f3, t * t) == CycInt.from_int(3, 162)
    assert local_factor_closed(f3, t * t) == 162
    # odd variable count at odd prime-power exponent vanishes
    assert local_factor_closed(f3, t) == 0
    assert local_factor_direct(f3, t) == CycInt.zero(3)
    assert local_factor_closed(f3, Poly.one(F3)) == 1


def test_local_factor_multiplicative(F3):
    t = Poly.gen(F3)
    r1, r2 = t, t + Poly.one(F3)
    f4 = QuadForm(F3, (1, 1, 1, 1))
    lhs = local_factor_direct(f4, r1 * r2)
    rhs = local_factor_direct(f4, r1) * local_factor_direct(f4, r2)
    assert lhs == rhs


def test_local_factor_prime_power_matches_direct(F3):
    t = Poly.gen(F3)
    pi = t * t + Poly.one(F3)  # irreducible quadratic
    f4 = QuadForm(F3, (1, 1, 1, 1))
    f3 = QuadForm(F3, (1, 1, 1))
    for r in (pi, pi * pi):
        assert local_factor_direct(f4, r) == CycInt.from_int(3, local_factor_closed(f4, r))
        assert local_factor_direct(f3, r) == CycInt.from_int(3, local_factor_closed(f3, r))


def _tuple_sum(f, a, r):
    """The complete sum term by term over residue tuples: the reference
    that the product form of form_exp_sum must reproduce."""
    counts = [0] * f.ctx.p
    residues = list(enumerate_below(f.ctx, r.deg))
    for xs in itertools.product(residues, repeat=f.n):
        counts[ratio_char_exponent(a * f.value(xs), r)] += 1
    return CycInt.from_exponent_counts(f.ctx.p, counts)


def test_form_exp_sum_splits_into_twisted_factors(F3, F9):
    for ctx, n, maxdeg in ((F3, 3, 2), (F9, 3, 1), (F9, 2, 2)):
        c = next(u for u in ctx.units() if not ctx.is_square_unit(u))
        f = QuadForm(ctx, (1, c, c)[:n])  # both square classes, c repeated when n = 3
        one, t = Poly.one(ctx), Poly.gen(ctx)
        moduli = [r for r in (one, t, t + one, t * t, t * t + one) if r.deg <= maxdeg]
        # a = 0 and numerators sharing a factor with r, as well as units
        numerators = (Poly.zero(ctx), one, Poly.constant(ctx, c), t, t + one)
        for r in moduli:
            for a in numerators:
                assert form_exp_sum(f, a, r) == _tuple_sum(f, a, r), (f.coeffs, a, r)


def test_weyl_sum_at_zero_is_box_size(F3):
    f = QuadForm(F3, (1, 1, 1))
    zero = Poly.zero(F3)
    one = Poly.one(F3)
    for P in (1, 2):
        assert weyl_sum(f, zero, one, zero, P) == CycInt.from_int(3, 3 ** (3 * P))


def test_weyl_factorization_instance(F3):
    t = Poly.gen(F3)
    f = QuadForm(F3, (1, 1, 1))
    zero, one = Poly.zero(F3), Poly.one(F3)
    P = 2
    for r in (t, t + one):
        for tail in (zero, Poly.t_power(F3, 2 * P - 1).scale(2)):
            s_theta = weyl_sum(f, zero, one, tail, P)
            for a in (one, Poly.constant(F3, 2)):
                lhs = weyl_sum(f, a, r, tail, P) * (3 ** (f.n * r.deg))
                rhs = form_exp_sum(f, a, r) * s_theta
                assert lhs == rhs


def test_arc_integral_hand_values(F3):
    t = Poly.gen(F3)
    f = QuadForm(F3, (1, 1, 1))
    # major arc r = 1, P = 1: rho = 0 gives q^(n + 1 - 2P) * S_1 = 9
    direct = arc_integral_direct(f, Poly.one(F3), 1)
    assert direct == Fraction(9)
    assert arc_integral_closed(f, Poly.one(F3), 1) == Fraction(9)
    # boundary rho = P: the closed value collapses to q^(P (n - 2)) = 3
    assert arc_integral_closed(f, t, 1) == Fraction(3)
    assert arc_integral_direct(f, t, 1) == Fraction(3)


def test_arc_integral_agreement_sample(F5):
    t = Poly.gen(F5)
    f = QuadForm(F5, (1, 1, 2))
    for r in (Poly.one(F5), t, t + Poly.one(F5)):
        assert arc_integral_direct(f, r, 1) == arc_integral_closed(f, r, 1)


def test_arc_integral_rejects_deep_denominators(F3):
    t = Poly.gen(F3)
    f = QuadForm(F3, (1, 1, 1))
    with pytest.raises(ValueError):
        arc_integral_closed(f, t * t, 1)
    with pytest.raises(ValueError):
        arc_integral_direct(f, t * t, 1)



def _arc_by_local_factors(f, rho, P):
    """The arc integral as a layer sum of closed local factors at powers of t,
    q^(n rho + n + 1 - 2P) * sum_k q^(nk) S_(t^(P - rho - k - 1)): the
    reference the phi power sum form of arc_integral_closed must reproduce."""
    q, n = f.ctx.q, f.n
    if rho == P:
        return Fraction(q) ** (P * (n - 2))
    acc = sum(q ** (n * k) * local_factor_closed(f, Poly.t_power(f.ctx, P - rho - k - 1)) for k in range(P - rho))
    return Fraction(q) ** (n * rho + n + 1 - 2 * P) * acc


def test_arc_integral_closed_equals_the_local_factor_sum():
    # F_3, F_5, F_7, F_9, F_11; n = 1..7 in both square classes; 0 <= deg r <= P <= 7
    cells = 0
    for ctx in (FieldCtx(3), FieldCtx(5), FieldCtx(7), FieldCtx(3, 2), FieldCtx(11)):
        nonsquare = next(u for u in ctx.units() if not ctx.is_square_unit(u))
        for n in range(1, 8):
            for f in (QuadForm(ctx, (1,) * n), QuadForm(ctx, (1,) * (n - 1) + (nonsquare,))):
                for P in range(8):
                    for rho in range(P + 1):
                        got = arc_integral_closed(f, Poly.t_power(ctx, rho), P)
                        assert got == _arc_by_local_factors(f, rho, P), (ctx.q, f.coeffs, P, rho)
                        cells += 1
    assert cells == 2520


def test_arc_integral_closed_factors_nothing(monkeypatch, F3, F5):
    cells = [
        (QuadForm(ctx, coeffs), P, rho)
        for ctx in (F3, F5)
        for coeffs in ((1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 1, 1))
        for P in range(5)
        for rho in range(P + 1)
    ]
    assert {classify(f) for f, _, _ in cells} == set(CaseTag)
    expected = [_arc_by_local_factors(f, rho, P) for f, P, rho in cells]

    def refuse(r):
        raise RuntimeError("arc_integral_closed called factorize")

    monkeypatch.setattr(expsums, "factorize", refuse)
    got = [arc_integral_closed(f, Poly.t_power(f.ctx, rho), P) for f, P, rho in cells]
    assert got == expected
