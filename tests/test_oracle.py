"""Independent enumeration oracles and their agreement with the formulas."""

import math

import numpy as np
import pytest

from quadricpoints import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FieldCtx,
    QuadForm,
    brute_count,
    brute_morphism_count,
    brute_primitive_count,
    convolution_count,
    count_exact,
    count_primitive,
    irreducibles,
    morphism_count,
    poly_from_encoding,
)
from quadricpoints.field import is_prime
from quadricpoints.oracle import CONVOLUTION_STATE_CAP, _crt_primes, _divisor_masks


def test_brute_equals_convolution_equals_exact(F3):
    for coeffs in [(1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 2, 1)]:
        f = QuadForm(F3, coeffs)
        for P in (1, 2):
            b = brute_count(f, P)
            c = convolution_count(f, P)
            assert b == c == count_exact(f, P)


def test_brute_small_n(F3):
    # one variable: only x = 0 solves x^2 = 0
    f1 = QuadForm(F3, (1,))
    assert brute_count(f1, 3) == 1
    assert convolution_count(f1, 3) == 1
    # two variables, anisotropic: x^2 + y^2 = 0 only at the origin over F_3
    f2a = QuadForm(F3, (1, 1))
    assert brute_count(f2a, 2) == 1
    # two variables, isotropic
    f2b = QuadForm(F3, (1, 2))
    assert brute_count(f2b, 2) == 17
    assert convolution_count(f2b, 2) == 17


def test_brute_p_zero(F3):
    f = QuadForm(F3, (1, 1, 1))
    assert brute_count(f, 0) == 1
    assert convolution_count(f, 0) == 1


def test_q5_instance(F5):
    f = QuadForm(F5, (1, 1, 1, 2))
    assert brute_count(f, 1) == convolution_count(f, 1) == count_exact(f, 1) == 105


def test_extension_field_instance(F9):
    f = QuadForm(F9, (1, 1, 1))
    assert brute_count(f, 1) == 81
    assert convolution_count(f, 1) == 81
    assert count_exact(f, 1) == 81


def test_primitive_counts(F3):
    f = QuadForm(F3, (1, 1, 1))
    assert brute_primitive_count(f, 1) == 4
    assert brute_primitive_count(f, 2) == 4
    # recover the primitive count from plain counts
    for P in (1, 2):
        n_mid = brute_count(f, P)
        n_below = brute_count(f, P - 1)
        assert brute_primitive_count(f, P) == (n_mid - 3 * n_below) // 2 + 1


def test_morphism_oracle_matches_formula(F3):
    for coeffs in [(1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2)]:
        f = QuadForm(F3, coeffs)
        for P in (1, 2):
            assert brute_morphism_count(f, P) == morphism_count(f, P)


def test_budget_refusal(F3):
    f = QuadForm(F3, (1, 1, 1, 1, 1, 1))
    with pytest.raises(BudgetExceeded) as excinfo:
        brute_count(f, 3, budget=1000)
    assert "convolution" in str(excinfo.value)
    with pytest.raises(BudgetExceeded):
        brute_primitive_count(f, 3, budget=1000)
    with pytest.raises(BudgetExceeded):
        brute_morphism_count(f, 2, budget=1000)


def test_convolution_state_cap(F5):
    f = QuadForm(F5, (1, 1, 1))
    with pytest.raises(BudgetExceeded):
        convolution_count(f, 6)  # 5^11 residues exceed the state cap


def test_morphism_is_primitive_difference(F3):
    f = QuadForm(F3, (1, 1, 1, 1))
    for P in (1, 2):
        diff = brute_primitive_count(f, P + 1) - brute_primitive_count(f, P)
        assert brute_morphism_count(f, P) == diff


@pytest.mark.parametrize("q", [7, 11, 25, 27])
def test_oracles_agree_with_formulas_over_wider_fields(q):
    p = min(d for d in range(2, q + 1) if q % d == 0)
    ctx = FieldCtx(p, round(math.log(q, p)))
    nonsquare = min(a for a in ctx.units() if not ctx.is_square_unit(a))
    for n in range(1, 7):
        for coeffs in [(1,) * n, (1,) * (n - 1) + (nonsquare,)]:
            f = QuadForm(ctx, coeffs)
            for P in (1, 2, 3):
                if q ** (n * P) > DEFAULT_BUDGET or q ** (2 * P - 1) > CONVOLUTION_STATE_CAP:
                    continue
                assert brute_count(f, P) == convolution_count(f, P) == count_exact(f, P), (coeffs, P)
                if q ** (n * (P + 1)) <= DEFAULT_BUDGET:
                    assert brute_primitive_count(f, P) == count_primitive(f, P), (coeffs, P)
                    assert brute_morphism_count(f, P) == morphism_count(f, P), (coeffs, P)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_crt_primes_cover_the_bound_without_overflow(p):
    for bound in (1, p**7, 2**62):
        moduli = _crt_primes(p, bound)
        assert math.prod(moduli) > bound
        for l in moduli:
            assert is_prime(l) and l % p == 1
            assert p * (l - 1) ** 2 < 2**63


def test_convolution_at_a_large_prime():
    # one base-p axis of length 10007: the transform runs in row blocks
    f = QuadForm(FieldCtx(10007), (1, 1, 1))
    assert convolution_count(f, 1) == count_exact(f, 1)


@pytest.mark.parametrize("q, n, P", [(3, 14, 3), (3, 100, 2), (7, 61, 3)])
def test_convolution_past_64_bits(q, n, P):
    # q^(nP) >= 2^62: the CRT moduli multiply past the box, and the count is a Python int
    ctx = FieldCtx(q)
    assert q ** (n * P) >= 2**62
    nonsquare = min(a for a in ctx.units() if not ctx.is_square_unit(a))
    for coeffs in [(1,) * n, (1,) * (n - 1) + (nonsquare,)]:
        f = QuadForm(ctx, coeffs)
        assert convolution_count(f, P) == count_exact(f, P), coeffs


def test_convolution_refuses_without_crt_moduli():
    # every l = 1 (mod p) with p (l - 1)^2 < 2^63 is p + 1, which is even
    with pytest.raises(BudgetExceeded):
        convolution_count(QuadForm(FieldCtx(1999993), (1,)), 1)


@pytest.mark.parametrize("p, nu, P", [(3, 1, 5), (5, 1, 4), (7, 1, 3), (3, 2, 3)])
def test_mask_sieve_finds_the_irreducibles(p, nu, P):
    ctx = FieldCtx(p, nu)
    masks = _divisor_masks(ctx, P)
    want = [g for d in range(1, P) for g in irreducibles(ctx, d)]
    assert (masks[0] == ~masks.dtype.type(0)).all()
    bits = np.unpackbits(masks[1:].astype("<u8").view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, len(want) :].any()
    # an irreducible is the smallest nonzero element its bit divides
    first = 1 + bits[:, : len(want)].argmax(axis=0)
    assert [poly_from_encoding(ctx, int(e)) for e in first] == want
    for x in range(1, ctx.q**P, 7):
        assert bits[x - 1, : len(want)].tolist() == [int((poly_from_encoding(ctx, x) % g).is_zero()) for g in want]
