"""Independent enumeration oracles and their agreement with the formulas."""

import collections
import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadricpoints import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FieldCtx,
    Poly,
    QuadForm,
    brute_count,
    convolution_count,
    count_circle,
    count_exact,
    count_primitive,
    enumerate_below,
    morphism_count,
    poly_gcd,
)
from quadricpoints import oracle
from quadricpoints.field import is_prime
from quadricpoints.forms import primitive_from_counts, table_rows
from quadricpoints.oracle import CONVOLUTION_STATE_CAP, _crt_primes, _scaled_index


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


def primitive_reference(f, P):
    """The primitive count tuple by tuple: the box tuples that solve f and
    have monic gcd 1, once per unit multiple.  The tail tuples (the last
    floor(n/2) coordinates) are grouped by the value they add and by their
    gcd, and a solution's gcd is that of its head's and its tail's.  The
    reference the counts derived through ``primitive_from_counts`` must
    reproduce."""
    ctx, split = f.ctx, f.n - f.n // 2
    squares = {x: x * x for x in enumerate_below(ctx, P)}

    def value(coeffs, xs):
        return sum((squares[x].scale(a) for a, x in zip(coeffs, xs)), Poly.zero(ctx))

    @functools.cache
    def gcd(xs):
        # gcd(0, x) is x made monic, so the zero coordinates drop out; all zero gives 0
        return functools.reduce(poly_gcd, [x for x in xs if x], Poly.zero(ctx))

    tails = {}
    for ys in itertools.product(squares, repeat=f.n // 2):
        tails.setdefault(value(f.coeffs[split:], ys), collections.Counter())[gcd(ys)] += 1
    found = 0
    for xs in itertools.product(squares, repeat=split):
        matches = tails.get(-value(f.coeffs[:split], xs))
        if matches:
            g = gcd(xs)
            found += sum(count for h, count in matches.items() if gcd((g, h)).is_one())
    if found % (ctx.q - 1):
        raise ValueError("unit multiples of a primitive solution are primitive solutions")
    return found // (ctx.q - 1)


def derived_counts(f, P, budget=DEFAULT_BUDGET):
    """The primitive count at P and the morphism count of degree P, both
    derived by ``forms.table_rows`` from brute_count at P + 1, P and P - 1."""
    [(_, prim, mor)] = table_rows(lambda k: brute_count(f, k, budget), f.ctx.q, [P])
    return prim, mor


@pytest.mark.parametrize("q", [3, 5])
def test_derived_counts_match_the_gcd_reference(q):
    ctx = _field(q, 1)
    nonsquare = ctx.nonsquare()
    budget = q ** (4 * 3)  # the charge for n = 4, P = 3, which touches 2 q^6 tuples
    for n in range(1, 5):
        for coeffs in {(1,) * n, (1,) * (n - 1) + (nonsquare,)}:
            f = QuadForm(ctx, coeffs)
            want = [primitive_reference(f, P) for P in (1, 2, 3)]
            for P in (1, 2, 3):
                prim = primitive_from_counts(brute_count(f, P, budget), brute_count(f, P - 1), q)
                assert prim == want[P - 1] == count_primitive(f, P), (coeffs, P)
            for P in (1, 2):
                mor = derived_counts(f, P, budget)[1]
                assert mor == want[P] - want[P - 1] == morphism_count(f, P), (coeffs, P)


def test_primitive_oracle_splits_a_plane_one_variable_against_one(F3):
    # brute_count pits the first variable against the last, so P = 8 forms
    # 2 * 3^8 values, not 3^16 pair sums
    for coeffs in [(1, 1), (1, 2)]:
        f = QuadForm(F3, coeffs)
        assert primitive_from_counts(brute_count(f, 8), brute_count(f, 7), 3) == count_primitive(f, 8)


@pytest.mark.parametrize(
    "coeffs, P",
    [((1, 2), 8), ((1, 1, 1), 6), ((1, 1, 2), 6), ((1,) * 7 + (2,), 2)],
    ids=["n2-nonsquare", "n3-squares", "n3-nonsquare", "n8"],
)
def test_primitive_oracle_meets_in_the_middle_in_small_memory(F3, coeffs, P):
    # the derived primitive count holds no more than brute_count does: chunks
    # of head sums against one tally of tail sums, never a list of the
    # solutions; at n = 2, P = 8 the 3^8 tail sums are sorted, where a
    # histogram up to the largest would take ~3^15 bins (113 MiB)
    f = QuadForm(F3, coeffs)
    tracemalloc.start()
    try:
        got = primitive_from_counts(brute_count(f, P, budget=3**18), brute_count(f, P - 1), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == count_primitive(f, P)
    assert peak < 6 * 2**20, peak


def test_primitive_counts(F3):
    f = QuadForm(F3, (1, 1, 1))
    assert [derived_counts(f, P)[0] for P in (1, 2)] == [4, 4]


def test_morphism_oracle_matches_formula(F3):
    for coeffs in [(1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2)]:
        f = QuadForm(F3, coeffs)
        for P in (1, 2):
            assert derived_counts(f, P)[1] == morphism_count(f, P)


def test_budget_refusal(F3):
    f = QuadForm(F3, (1, 1, 1, 1, 1, 1))
    with pytest.raises(BudgetExceeded) as excinfo:
        brute_count(f, 3, budget=1000)
    assert "convolution" in str(excinfo.value)
    # the derived counts need the box at P + 1, which refuses first
    for P in (2, 3):
        with pytest.raises(BudgetExceeded) as excinfo:
            derived_counts(f, P, budget=1000)
        assert f"needs {3 ** (6 * (P + 1))} evaluations" in str(excinfo.value)


def test_budget_charges_the_one_variable_box_table(F3):
    # at n = 1 the q^P x (2P - 1) digit table outgrows the q^P tuples counted
    f = QuadForm(F3, (1,))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="needs 129140163 evaluations"):
        brute_count(f, 14)  # 3^14 * 27 entries, past the default budget
    assert time.perf_counter() - start < 1
    assert brute_count(f, 11) == 1


def test_convolution_state_cap(F5):
    f = QuadForm(F5, (1, 1, 1))
    with pytest.raises(BudgetExceeded):
        convolution_count(f, 6)  # 5^11 residues exceed the state cap


def test_morphism_is_primitive_difference(F3):
    f = QuadForm(F3, (1, 1, 1, 1))
    for P in (1, 2):
        assert derived_counts(f, P)[1] == count_primitive(f, P + 1) - count_primitive(f, P)


#: odd q <= 49 as (p, nu), prime and extension fields (nu = 2, 3)
_SWEEP_FIELDS = [(p, nu) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) for nu in (1, 2, 3) if p**nu <= 49]

#: the sweep's cap on brute's larger half, q^(ceil(n/2) P)
_SWEEP_TUPLES = 2 * 10**5

#: the cap on the gcd reference's larger half and on the solutions it lists
_REFERENCE_TUPLES, _REFERENCE_SOLUTIONS = 2 * 10**4, 5 * 10**4


@functools.cache
def _field(p, nu):
    return FieldCtx(p, nu)


def _sweep_boxes(q, n):
    """The P the sweep may draw: within the budget, the convolution cap and
    the cap on brute's larger half."""
    return [
        P
        for P in range(1, 20)
        if q ** (n * P) <= DEFAULT_BUDGET
        and q ** (2 * P - 1) <= CONVOLUTION_STATE_CAP
        and q ** ((n - n // 2) * P) <= _SWEEP_TUPLES
    ]


@st.composite
def _sweep_cases(draw):
    p, nu = draw(st.sampled_from(_SWEEP_FIELDS))
    n = draw(st.sampled_from([n for n in range(1, 9) if _sweep_boxes(p**nu, n)]))
    P = draw(st.sampled_from(_sweep_boxes(p**nu, n)))
    coeffs = draw(st.lists(st.integers(1, p**nu - 1), min_size=n, max_size=n))
    return (p, nu), tuple(coeffs), P


def _wider_field_grid(p, nu):
    """The hand-picked grid over F_q, q = p^nu: n <= 6, all-ones and one
    nonsquare, P <= 3 within the budget and the cap."""
    ctx, q = _field(p, nu), p**nu
    nonsquare = ctx.nonsquare()
    for n in range(1, 7):
        for coeffs in [(1,) * n, (1,) * (n - 1) + (nonsquare,)]:
            for P in (1, 2, 3):
                if q ** (n * P) <= DEFAULT_BUDGET and q ** (2 * P - 1) <= CONVOLUTION_STATE_CAP:
                    yield (p, nu), coeffs, P


def _check_oracles_agree(case, sweep=False):
    """brute == conv == circle == exact, and the closed primitive and morphism counts
    against those derived from brute where q^(n(P+1)) is within the
    budget, and against the gcd reference where n <= 4, its larger half
    q^(ceil(n/2)(P+1)) is at most _REFERENCE_TUPLES and the N(P+1)
    solutions it lists at most _REFERENCE_SOLUTIONS.  The sweep checks
    the derived counts only where brute's larger half at P + 1 is at most
    _SWEEP_TUPLES."""
    (p, nu), coeffs, P = case
    f, q, n = QuadForm(_field(p, nu), coeffs), p**nu, len(coeffs)
    want = count_exact(f, P)
    assert brute_count(f, P) == convolution_count(f, P) == count_circle(f, P) == want, case
    half = q ** ((n - n // 2) * (P + 1))
    if q ** (n * (P + 1)) > DEFAULT_BUDGET or (sweep and half > _SWEEP_TUPLES):
        return
    prim, mor = derived_counts(f, P)
    assert (prim, mor) == (count_primitive(f, P), morphism_count(f, P)), case
    if n <= 4 and half <= _REFERENCE_TUPLES and count_exact(f, P + 1) <= _REFERENCE_SOLUTIONS:
        assert prim + mor == primitive_reference(f, P + 1), case
        assert prim == primitive_reference(f, P), case


@pytest.mark.parametrize("q", [7, 11, 25, 27])
def test_oracles_agree_with_formulas_over_wider_fields(q):
    p, nu = {7: (7, 1), 11: (11, 1), 25: (5, 2), 27: (3, 3)}[q]
    for case in _wider_field_grid(p, nu):
        _check_oracles_agree(case)


@given(_sweep_cases())
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
def test_oracles_agree_with_formulas_over_swept_fields(case):
    _check_oracles_agree(case, sweep=True)


@pytest.mark.parametrize("n", [7, 8])
def test_brute_meets_in_the_middle_at_n_8(n):
    ctx = FieldCtx(3)
    for coeffs in [(1,) * n, (1,) * (n - 1) + (2,)]:
        f = QuadForm(ctx, coeffs)
        assert brute_count(f, 3, budget=3 ** (n * 3)) == count_exact(f, 3), coeffs


def test_brute_touches_both_halves_once(monkeypatch):
    touched = []
    real = oracle._tuple_sums

    def counted(*args):
        for sums in real(*args):
            touched.append(sums.size)
            yield sums

    monkeypatch.setattr(oracle, "_tuple_sums", counted)
    q, P = 3, 2
    for n in range(1, 9):
        f = QuadForm(FieldCtx(q), (1,) * (n - 1) + (2,))
        # at n = 1 the tail is the one empty tuple, which sums to 0
        want = q ** ((n - n // 2) * P) + q ** (n // 2 * P)
        touched.clear()
        assert brute_count(f, P) == count_exact(f, P)
        assert sum(touched) == want, n


@pytest.mark.parametrize("p, nu", [(7, 1), (3, 2), (5, 2), (3, 3)])
def test_convolution_with_distinct_coefficients_in_one_class(p, nu):
    # every square coefficient shares x^2's transform, every nonsquare its
    # permutation; for nu > 1 that permutation is F_p-linear on digit blocks
    ctx = _field(p, nu)
    squares = [a for a in ctx.units() if ctx.is_square_unit(a)][-3:]
    nonsquares = [a for a in ctx.units() if not ctx.is_square_unit(a)][-3:]
    for coeffs in [squares, nonsquares, squares[:2] + nonsquares[:2], nonsquares[:1] + squares]:
        f = QuadForm(ctx, coeffs)
        for P in (1, 2):
            assert convolution_count(f, P) == count_exact(f, P), (coeffs, P)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_crt_primes_cover_the_bound_without_overflow(p):
    for bound in (1, p**7, 2**62):
        moduli = _crt_primes(p, bound)
        assert math.prod(moduli) > bound
        for l in moduli:
            assert is_prime(l) and l % p == 1
            assert p * (l - 1) ** 2 < 2**63


def test_crt_primes_are_the_shortest_cover_in_any_call_order():
    # the search is kept per p, so a smaller bound after a larger one must
    # still get the shortest covering prefix
    longest = _crt_primes(13, 2**200)
    for bound in (2**62, 1, 2**200):
        moduli = _crt_primes(13, bound)
        assert moduli == longest[: len(moduli)]
        assert math.prod(moduli) > bound >= math.prod(moduli[:-1])


def test_convolution_at_a_large_prime():
    # one base-p axis of length 10007: the transform runs in row blocks;
    # 1, 2, 3 are squares mod 10007 and 5 is not
    f = QuadForm(FieldCtx(10007), (1, 2, 3, 5))
    assert convolution_count(f, 1) == count_exact(f, 1)


@pytest.mark.parametrize("q, n, P", [(3, 14, 3), (3, 100, 2), (7, 61, 3)])
def test_convolution_past_64_bits(q, n, P):
    # q^(nP) >= 2^62: the CRT moduli multiply past the box, and the count is a Python int
    ctx = FieldCtx(q)
    assert q ** (n * P) >= 2**62
    nonsquare = ctx.nonsquare()
    for coeffs in [(1,) * n, (1,) * (n - 1) + (nonsquare,)]:
        f = QuadForm(ctx, coeffs)
        assert convolution_count(f, P) == count_exact(f, P), coeffs


def test_convolution_refuses_without_crt_moduli():
    # every l = 1 (mod p) with p (l - 1)^2 < 2^63 is p + 1, which is even
    with pytest.raises(BudgetExceeded):
        convolution_count(QuadForm(FieldCtx(1999993), (1,)), 1)


def _scaled_index_by_digits(ctx, u, K):
    """M^T xi digit by digit over the whole group: the reference the
    per-block table of ``_scaled_index`` must reproduce."""
    p, nu = ctx.p, ctx.nu
    rows = [ctx.coeffs(ctx.mul(u, p**i)) for i in range(nu)]
    xi = np.arange(p**K)
    index = np.zeros_like(xi)
    for block in range(0, K, nu):
        for i, row in enumerate(rows):
            acc = sum(xi // p ** (block + j) % p * m for j, m in enumerate(row))
            index += acc % p * p ** (block + i)
    return index


@pytest.mark.parametrize("p, nu", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_scaled_index_acts_block_by_block(p, nu):
    ctx = _field(p, nu)
    for P in (1, 2, 3):
        K = (2 * P - 1) * nu
        if p**K > CONVOLUTION_STATE_CAP:
            continue
        for u in ctx.units():
            if not ctx.is_square_unit(u):
                assert np.array_equal(_scaled_index(ctx, u, K), _scaled_index_by_digits(ctx, u, K)), (u, P)
