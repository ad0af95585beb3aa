"""Exact arithmetic in Z[zeta_p]."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadricpoints import CycInt

PRIMES = st.sampled_from((3, 5, 7))


@st.composite
def cycints(draw, count):
    """count elements of Z[zeta_p] for one drawn p in {3, 5, 7}."""
    p = draw(PRIMES)
    coords = st.lists(st.integers(-20, 20), min_size=p - 1, max_size=p - 1)
    return [CycInt(p, draw(coords)) for _ in range(count)]


def test_ring_operations():
    z = CycInt.root_power(3, 1)
    one = CycInt.from_int(3, 1)
    # 1 + zeta + zeta^2 = 0
    assert (one + z + z * z).is_zero()
    assert z * z == CycInt.root_power(3, 2)
    assert z**3 == one
    assert (z - z).is_zero()
    assert -z + z == CycInt.zero(3)


def test_reduction_of_top_power():
    # zeta^(p-1) is stored as -(1 + zeta + ... + zeta^(p-2))
    z2 = CycInt.root_power(3, 2)
    assert z2.coeffs == (-1, -1)
    z4 = CycInt.root_power(5, 4)
    assert z4.coeffs == (-1, -1, -1, -1)


def test_from_exponent_counts():
    # histogram {0: 2, 1: 5, 2: 3} over p=3
    val = CycInt.from_exponent_counts(3, [2, 5, 3])
    direct = (
        CycInt.from_int(3, 2)
        + CycInt.from_int(3, 5) * CycInt.root_power(3, 1)
        + CycInt.from_int(3, 3) * CycInt.root_power(3, 2)
    )
    assert val == direct


def test_integer_interface():
    assert CycInt.from_int(5, -7).to_int() == -7
    assert CycInt.root_power(5, 2).to_int() is None
    assert CycInt.from_int(5, 4) == 4
    assert 4 == CycInt.from_int(5, 4)
    assert CycInt.from_int(5, 4) != 5


def test_quadratic_gauss_period_identity():
    # (1 + 2 zeta_3)^2 = -3
    val = CycInt(3, (1, 2))
    assert val * val == CycInt.from_int(3, -3)


def test_int_mixing_and_pow():
    z = CycInt.root_power(7, 3)
    assert (2 * z) * 3 == 6 * z
    assert (z + 1) - 1 == z
    assert (1 - z) + (z - 1) == CycInt.zero(7)
    assert z**0 == CycInt.from_int(7, 1)


def test_json_round_trip():
    val = CycInt(5, (3, -1, 0, 7))
    doc = val.to_json()
    assert doc == {"p": 5, "coeffs": [3, -1, 0, 7]}
    assert CycInt(doc["p"], doc["coeffs"]) == val


def test_hash_consistency():
    assert hash(CycInt.from_int(3, 11)) == hash(CycInt.from_int(3, 11))
    seen = {CycInt.root_power(3, 1): "a"}
    assert seen[CycInt.root_power(3, 1)] == "a"


def test_rational_values_hash_as_their_int():
    # equality with an int must carry over to sets and dict lookups
    assert len({CycInt.from_int(5, 4), 4}) == 1
    assert {4: "x"}.get(CycInt.from_int(5, 4)) == "x"
    assert {CycInt.from_int(3, -2): "y"}[-2] == "y"


def test_mismatched_roots_rejected():
    with pytest.raises(ValueError):
        CycInt.from_int(3, 1) + CycInt.from_int(5, 1)


@given(cycints(3))
def test_ring_laws(xyz):
    x, y, z = xyz
    zero, one = CycInt.zero(x.p), CycInt.from_int(x.p, 1)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + zero == x
    assert x + (-x) == zero
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * one == x
    assert x * (y + z) == x * y + x * z


@given(cycints(1), st.integers(0, 9))
def test_power_is_repeated_product(xs, k):
    (x,) = xs
    prod = CycInt.from_int(x.p, 1)
    for _ in range(k):
        prod = prod * x
    assert x**k == prod


@given(PRIMES.flatmap(lambda p: st.lists(st.integers(0, 50), min_size=p, max_size=p)))
def test_from_exponent_counts_sums_root_powers(counts):
    p = len(counts)
    total = CycInt.zero(p)
    for k, c in enumerate(counts):
        total = total + CycInt.root_power(p, k) * c
    assert CycInt.from_exponent_counts(p, counts) == total
