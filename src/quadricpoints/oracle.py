"""Enumeration oracles for cross-checking the closed formulas.

``brute_count`` counts the coordinate tuples of the height box exactly
and is the ground truth the rest of the library is validated against;
it refuses jobs above an evaluation budget of q^(nP), or at n = 1 of
its q^P (2P-1) nu box table entries.
``convolution_count`` is the big-box substitute.  Values live in
F_q[t]/t^(2P-1): under the base-p digits of the coefficient encodings,
the group (Z/p)^K, K = (2P-1) nu, added digit by digit, with elements
encoded below G = q^(2P-1).

* Brute force meets in the middle: the sums of the last floor(n/2)
  coordinates are tallied once (a histogram, or sorted distinct sums
  where those are fewer than its bins), and the negated sums of the
  first ceil(n/2), formed in chunks of ``_CHUNK`` tuples, are looked up
  in the tally; N is the total found.  That touches
  q^(ceil(n/2) P) + q^(floor(n/2) P) tuples.  Primitive and morphism
  counts are not enumerated: they follow from N alone
  (``forms.primitive_from_counts``).
* Convolution: the mass at 0 is G^-1 sum_xi prod_i H_i^(xi), with H_i^
  the length-p Fourier transform of variable i's value histogram along
  each axis, taken exactly modulo primes l = 1 (mod p) and recovered by
  CRT as a Python int of any size.  x -> s x permutes the box, so
  a x^2 has the histogram of x^2 when a is a square and of u x^2, u a
  fixed nonsquare, when it is not; and H_u^(xi) = H_1^(M^T xi), M the
  multiplication by u on each nu-digit block.  So one transform per
  modulus serves every coefficient.  It raises unless the moduli
  multiply past the box size q^(nP) and p (l - 1)^2 < 2^63, so no int64
  sum of p products overflows.

These two are the package's only numpy code, and each function that
uses numpy imports it in its own body, so ``import quadricpoints`` and
the closed and circle routes never load it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

from .field import FieldCtx, is_prime
from .forms import QuadForm

DEFAULT_BUDGET = 10**8

#: Hard cap on the value-group size q^(2P-1) for the convolution path.
CONVOLUTION_STATE_CAP = 2_000_000

#: Tuples per streamed chunk on the brute paths.
_CHUNK = 1 << 12


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its evaluation budget."""


def _check_budget(f: QuadForm, P: int, budget: int) -> None:
    # the q^(nP) tuples counted, or at n = 1 the q^P x (2P-1)nu box table entries
    ctx = f.ctx
    total = max(ctx.q ** (f.n * P), ctx.q**P * (2 * P - 1) * ctx.nu)
    if total > budget:
        raise BudgetExceeded(
            f"enumeration needs {total} evaluations, budget is {budget}; "
            "raise the budget or use convolution_count"
        )
    if total >= 2**62:
        raise BudgetExceeded("count could overflow 64-bit accumulators")


def _digits(v, base: int, width: int):
    """Little-endian base-``base`` digits of v along a new last axis."""
    import numpy as np

    return v[..., None] // base ** np.arange(width) % base


def _undigits(d, base: int):
    import numpy as np

    return d @ base ** np.arange(d.shape[-1])


def _fq_mul(ctx: FieldCtx, a, b):
    """Elementwise product of F_q encoding arrays, ``ctx.mul`` once per distinct pair."""
    import numpy as np

    if ctx.nu == 1:
        return a * b % ctx.p
    keys = np.asarray(a * ctx.q + b)
    pairs, inverse = np.unique(keys, return_inverse=True)
    products = np.array([ctx.mul(*divmod(int(k), ctx.q)) for k in pairs], dtype=np.int64)
    return products[inverse].reshape(keys.shape)


def _poly_mul(ctx: FieldCtx, A, B):
    """Products over F_q of coefficient arrays (last axis, little endian)."""
    import numpy as np

    da, db = A.shape[-1], B.shape[-1]
    shape = np.broadcast_shapes(A.shape[:-1], B.shape[:-1]) + (da + db - 1, ctx.nu)
    out = np.zeros(shape, dtype=np.int64)
    for i in range(da):
        out[..., i : i + db, :] += _digits(_fq_mul(ctx, A[..., i : i + 1], B), ctx.p, ctx.nu)
    return _undigits(out % ctx.p, ctx.p)


def _box_squares(ctx: FieldCtx, P: int):
    """The coefficient encodings (q^P, 2P - 1) of x^2, x the box polynomial
    with encoding equal to the row."""
    import numpy as np

    box = _digits(np.arange(ctx.q**P), ctx.q, P)
    return _poly_mul(ctx, box, box)


def _box_values(f: QuadForm, P: int) -> dict:
    """Per distinct coefficient a, the group digits (q^P, K) of a x^2, x the
    box polynomial with encoding equal to the row."""
    ctx = f.ctx
    squares = _box_squares(ctx, P)
    return {a: _digits(_fq_mul(ctx, a, squares), ctx.p, ctx.nu).reshape(len(squares), -1) for a in set(f.coeffs)}


def _tuple_sums(tables: list, p: int):
    """Chunks of the encodings of the group sums over every tuple of table
    rows, ``_CHUNK`` tuples at a time, the first table varying fastest; with
    no tables, the one empty tuple sums to 0."""
    import numpy as np

    total = math.prod(len(t) for t in tables)
    size = min(_CHUNK, total)
    steps = np.arange(size)
    rest, row = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    acc = np.empty((size, tables[0].shape[1] if tables else 1), dtype=np.int64)
    gathered = np.empty_like(acc)
    for start in range(0, total, size):
        m = min(size, total - start)
        index, r, sums = rest[:m], row[:m], acc[:m]
        np.add(steps[:m], start, out=index)
        sums.fill(0)
        for t in tables:
            np.divmod(index, len(t), out=(index, r))
            # r < len(t); "clip" fills out directly, where "raise" buffers it
            np.add(sums, np.take(t, r, axis=0, out=gathered[:m], mode="clip"), out=sums)
        yield _undigits(np.remainder(sums, p, out=sums), p)


def brute_count(f: QuadForm, P: int, budget: int = DEFAULT_BUDGET) -> int:
    """N(P) by exact enumeration of the height box, meeting in the middle.

    Where the tail tuples outnumber the bins up to the largest tail sum
    (n >= 4: q^(2P) or more tuples, under q^(2P-1) + 1 bins), they are
    histogrammed, with one empty bin last, into which head sums past the
    largest tail sum are clipped.  A tail of one variable (n = 2, 3) or
    none (n = 1) has q^P tuples or one, which could spread over ~q^(2P-1)
    bins, so the head sums are looked up among the sorted distinct tail
    sums instead.  The budget still charges the q^(nP) tuples the count
    covers, so no int64 chunk total overflows.
    """
    import numpy as np

    if P < 0:
        raise ValueError("P must be >= 0")
    _check_budget(f, P, budget)
    if P == 0:
        return 1
    p, split = f.ctx.p, f.n - f.n // 2
    digits = list(map(_box_values(f, P).get, f.coeffs))
    tail = np.concatenate(list(_tuple_sums(digits[split:], p)))
    head = [-d % p for d in digits[:split]]
    bins = int(tail.max()) + 2
    if bins <= len(tail):
        hist = np.bincount(tail, minlength=bins)
        return sum(int(hist.take(sums, mode="clip").sum()) for sums in _tuple_sums(head, p))
    keys, counts = np.unique(tail, return_counts=True)
    total = 0
    for sums in _tuple_sums(head, p):
        at = keys.searchsorted(sums).clip(max=len(keys) - 1)
        total += int(counts[at][keys[at] == sums].sum())
    return total


# ---------------------------------------------------------------------------
# transform convolution


@functools.cache
def _crt_search(p: int) -> tuple[list[int], Iterator[int]]:
    """The primes l = 1 (mod p), largest first under p (l - 1)^2 < 2^63: those
    found so far, and the search that finds the rest.  Kept per p, so a
    process that calls ``convolution_count`` again runs no test twice."""
    ks = range(math.isqrt((2**63 - 1) // p) // p, 0, -1)
    return [], (k * p + 1 for k in ks if is_prime(k * p + 1))


def _crt_primes(p: int, bound: int) -> list[int]:
    """Primes l = 1 (mod p), largest first under p (l - 1)^2 < 2^63, until
    their product exceeds bound."""
    found, search = _crt_search(p)
    count, product = 0, 1
    while product <= bound:
        if count == len(found):
            l = next(search, None)
            if l is None:
                break
            found.append(l)
        product *= found[count]
        count += 1
    return found[:count]


@functools.cache
def _root_powers(l: int, p: int):
    """w^0, ..., w^(p-1) mod l, read-only, for w of order p: the first
    g^((l-1)/p) != 1.  Kept per (l, p) for the same reason."""
    import numpy as np

    w = next(w for w in (pow(g, (l - 1) // p, l) for g in range(2, l)) if w != 1)
    powers = np.array([pow(w, e, l) for e in range(p)])
    powers.flags.writeable = False
    return powers


def _transform(h, powers, l: int):
    """sum_a w^(xi a) h[:, a, :] mod l for every xi, over the nonzero columns
    a, in blocks of at most ``_CHUNK`` * 64 powers so memory stays O(h.size)."""
    import numpy as np

    p = len(powers)
    support = np.flatnonzero(h.any(axis=(0, 2)))
    out, h = np.empty_like(h), h[:, support]
    for xi in np.array_split(np.arange(p), -(-p * support.size // (_CHUNK * 64))):
        out[:, xi] = np.matmul(powers[xi[:, None] * support % p], h) % l
    return out


def _scaled_index(ctx: FieldCtx, u: int, K: int):
    """The encodings of M^T xi for xi < p^K, M the multiplication by u on each
    nu-digit block, so that H_(u x^2)^ = H_(x^2)^[index].  M^T acts block by
    block with no carry, so the index is one q-entry table of its action on
    a block, laid out once per block, the last block outermost."""
    import numpy as np

    p, nu, q = ctx.p, ctx.nu, ctx.q
    # (M^T v)_i on a block v is <coordinates of u alpha^i, v>
    rows = np.array([ctx.coeffs(ctx.mul(u, p**i)) for i in range(nu)])
    table = _undigits(_digits(np.arange(q), p, nu) @ rows.T % p, p)
    index = table
    for b in range(1, K // nu):
        index = (table[:, None] * q**b + index).ravel()
    return index


def convolution_count(f: QuadForm, P: int) -> int:
    """N(P) by exact histogram convolution over the value group.

    The count is the mass at 0 of the convolution of the histograms of
    a_i x^2 over F_q[t]/t^(2P-1), read off the product of their
    transforms: per CRT modulus, the transform of x^2's histogram to the
    power of the square coefficients times its permutation for the
    nonsquare class to the power of the rest.  Memory is ~q^(2P-1)
    counters, independent of n.
    """
    import numpy as np

    if P < 0:
        raise ValueError("P must be >= 0")
    if P == 0:
        return 1
    ctx = f.ctx
    p, q = ctx.p, ctx.q
    K = (2 * P - 1) * ctx.nu
    G = p**K
    if G > CONVOLUTION_STATE_CAP:
        raise BudgetExceeded(f"value group has {G} elements, above the cap {CONVOLUTION_STATE_CAP}")
    bound = q ** (f.n * P)
    moduli = _crt_primes(p, bound)
    if math.prod(moduli) <= bound or any(p * (l - 1) ** 2 >= 2**63 for l in moduli):
        raise BudgetExceeded(f"no primes l = 1 (mod {p}) with p (l - 1)^2 < 2^63 cover counts up to {bound}")
    n_square = sum(map(ctx.is_square_unit, f.coeffs))
    if n_square < f.n:
        nonsquare = next(a for a in ctx.units() if not ctx.is_square_unit(a))
        index = _scaled_index(ctx, nonsquare, K)
    hist = np.bincount(_undigits(_box_squares(ctx, P), q), minlength=G)
    count, modulus = 0, 1
    for l in moduli:
        powers = _root_powers(l, p)
        h = hist % l
        for j in range(K):
            h = _transform(h.reshape(p**j, p, -1), powers, l)
        h = h.ravel()
        product = np.ones(G, dtype=np.int64)
        # the first n_square factors are H_1^, the rest H_u^
        for k in range(f.n):
            if k == n_square:
                h = h[index]
            np.multiply(product, h, out=product)
            product %= l
        residue = int(product.sum()) * pow(G, -1, l) % l
        count += modulus * ((residue - count) * pow(modulus, -1, l) % l)
        modulus *= l
    return count
