"""Enumeration oracles for cross-checking the closed formulas.

``brute_count`` counts the coordinate tuples of the height box exactly
and is the ground truth the rest of the library is validated against;
it refuses jobs above an evaluation budget of q^(nP).
``convolution_count`` is the big-box substitute.  Values live in
F_q[t]/t^(2P-1): under the base-p digits of the coefficient encodings,
the group (Z/p)^K, K = (2P-1) nu, added digit by digit, with elements
encoded below G = q^(2P-1).

* Brute force meets in the middle through one join: the sums of the last
  floor(n/2) coordinates are histogrammed once, and the negated sums of
  the first ceil(n/2), formed in chunks of ``_CHUNK`` tuples, are looked
  up in it; N is the total found.  That touches q^(ceil(n/2) P) +
  q^(floor(n/2) P) tuples.
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
* Primitivity: the same join, with the tail sums sorted, lists every
  solution.  Each box element has a bitmask of its monic irreducible
  divisors of degree <= P - 1 (zero has every bit); a tuple has gcd 1
  iff its masks AND to 0.  A sieve builds them: in ascending degree, a
  monic element no smaller irreducible divides is irreducible and marks
  its multiples pi * g.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .field import FieldCtx, is_prime
from .forms import QuadForm, morphisms_from_primitive

DEFAULT_BUDGET = 10**8

#: Hard cap on the value-group size q^(2P-1) for the convolution path.
CONVOLUTION_STATE_CAP = 2_000_000

#: Tuples per streamed chunk on the brute paths.
_CHUNK = 1 << 12


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its evaluation budget."""


def _check_budget(f: QuadForm, P: int, budget: int) -> None:
    total = f.ctx.q ** (f.n * P)
    if total > budget:
        raise BudgetExceeded(
            f"enumeration needs {total} evaluations, budget is {budget}; "
            "raise the budget or use convolution_count"
        )
    if total >= 2**62:
        raise BudgetExceeded("count could overflow 64-bit accumulators")


def _digits(v, base: int, width: int) -> np.ndarray:
    """Little-endian base-``base`` digits of v along a new last axis."""
    return v[..., None] // base ** np.arange(width) % base


def _undigits(d: np.ndarray, base: int) -> np.ndarray:
    return d @ base ** np.arange(d.shape[-1])


def _fq_mul(ctx: FieldCtx, a, b) -> np.ndarray:
    """Elementwise product of F_q encoding arrays, ``ctx.mul`` once per distinct pair."""
    if ctx.nu == 1:
        return a * b % ctx.p
    keys = np.asarray(a * ctx.q + b)
    pairs, inverse = np.unique(keys, return_inverse=True)
    products = np.array([ctx.mul(*divmod(int(k), ctx.q)) for k in pairs], dtype=np.int64)
    return products[inverse].reshape(keys.shape)


def _poly_mul(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Products over F_q of coefficient arrays (last axis, little endian)."""
    da, db = A.shape[-1], B.shape[-1]
    shape = np.broadcast_shapes(A.shape[:-1], B.shape[:-1]) + (da + db - 1, ctx.nu)
    out = np.zeros(shape, dtype=np.int64)
    for i in range(da):
        out[..., i : i + db, :] += _digits(_fq_mul(ctx, A[..., i : i + 1], B), ctx.p, ctx.nu)
    return _undigits(out % ctx.p, ctx.p)


def _box_squares(ctx: FieldCtx, P: int) -> np.ndarray:
    """The coefficient encodings (q^P, 2P - 1) of x^2, x the box polynomial
    with encoding equal to the row."""
    box = _digits(np.arange(ctx.q**P), ctx.q, P)
    return _poly_mul(ctx, box, box)


def _box_values(f: QuadForm, P: int) -> dict:
    """Per distinct coefficient a, the group digits (q^P, K) of a x^2, x the
    box polynomial with encoding equal to the row."""
    ctx = f.ctx
    squares = _box_squares(ctx, P)
    return {a: _digits(_fq_mul(ctx, a, squares), ctx.p, ctx.nu).reshape(len(squares), -1) for a in set(f.coeffs)}


def _tuple_sums(tables: list, p: int, chunk: int = _CHUNK):
    """Chunks (rows, encodings) of the group sums over every tuple of table
    rows, ``chunk`` tuples at a time, rows[k] indexing tables[k], the first
    table varying fastest; with no tables, the one empty tuple sums to 0.

    The chunk buffers are allocated once and reused, so the rows are views
    that stay valid only until the next chunk; the encodings are fresh.
    """
    total = math.prod(len(t) for t in tables)
    size = min(chunk, total)
    steps = np.arange(size)
    rest = np.empty(size, dtype=np.int64)
    acc = np.empty((size, tables[0].shape[1] if tables else 1), dtype=np.int64)
    gathered = np.empty_like(acc)
    buffers = [np.empty(size, dtype=np.int64) for _ in tables]
    for start in range(0, total, size):
        m = min(size, total - start)
        index, sums, rows = rest[:m], acc[:m], [b[:m] for b in buffers]
        np.add(steps[:m], start, out=index)
        sums.fill(0)
        for t, r in zip(tables, rows):
            np.divmod(index, len(t), out=(index, r))
            # r < len(t); "clip" fills out directly, where "raise" buffers it
            np.add(sums, np.take(t, r, axis=0, out=gathered[:m], mode="clip"), out=sums)
        yield rows, _undigits(np.remainder(sums, p, out=sums), p)


def _join(f: QuadForm, P: int):
    """The sums of every tail tuple (the last floor(n/2) variables, the
    first fastest), their histogram, and a stream of chunks (rows, sums,
    found) of the negated head sums (the first ceil(n/2)), found[i] being
    the number of tail tuples that complete head tuple i to a solution.

    The histogram ends in one empty bin, into which head sums past the
    largest tail sum are clipped: the one empty tail tuple of n = 1 needs
    no q^(2P-1) bins."""
    p, split = f.ctx.p, f.n - f.n // 2
    digits = list(map(_box_values(f, P).get, f.coeffs))
    tail = np.concatenate([enc for _, enc in _tuple_sums(digits[split:], p)])
    hist = np.bincount(tail, minlength=int(tail.max()) + 2)
    head = [-d % p for d in digits[:split]]

    def stream(chunk: int = _CHUNK):
        for rows, sums in _tuple_sums(head, p, chunk):
            yield rows, sums, hist.take(sums, mode="clip")

    return tail, hist, stream


def brute_count(f: QuadForm, P: int, budget: int = DEFAULT_BUDGET) -> int:
    """N(P) by exact enumeration of the height box, meeting in the middle.

    N is the total of ``_join``'s found counts.  The budget still charges
    the q^(nP) tuples the count covers, so no int64 chunk total overflows.
    """
    if P < 0:
        raise ValueError("P must be >= 0")
    _check_budget(f, P, budget)
    if P == 0:
        return 1
    _, _, stream = _join(f, P)
    return sum(int(found.sum()) for _, _, found in stream())


def _divisor_masks(ctx: FieldCtx, P: int) -> np.ndarray:
    """Bitmasks (q^P, W) uint64 of the monic irreducible divisors of degree
    <= P - 1 of each box element, zero having every bit; the bits follow
    the irreducibles' encodings in ascending order."""
    q = ctx.q
    box = _digits(np.arange(q**P), q, P)
    divided = np.zeros(q**P, dtype=bool)
    bits, marks = 0, []
    for d in range(1, P):
        monic = np.arange(q**d, 2 * q**d)
        pis = monic[~divided[monic]]
        products = _undigits(_poly_mul(ctx, box[pis, None, : d + 1], box[: q ** (P - d), : P - d]), q)
        divided[products] = True
        marks.append((products, np.arange(bits, bits + pis.size)[:, None]))
        bits += pis.size
    masks = np.zeros((q**P, bits // 64 + 1), dtype=np.uint64)
    for products, bit in marks:
        np.bitwise_or.at(masks, (products, bit // 64), np.uint64(1) << (bit % 64).astype(np.uint64))
    masks[0] = np.iinfo(np.uint64).max
    return masks


def brute_primitive_count(f: QuadForm, P: int, budget: int = DEFAULT_BUDGET) -> int:
    """Primitive solutions (unit gcd) in the box, divided by the q - 1 units.

    A head tuple's solutions are the run of its sum in the sorted tail
    sums; each tail index is decoded into its rows by divmod q^P.
    """
    if P < 0:
        raise ValueError("P must be >= 0")
    _check_budget(f, P, budget)
    if P == 0 or f.n == 1:
        return 0  # the box is {0}, or a x^2 = 0 only at x = 0
    masks = _divisor_masks(f.ctx, P)
    tail, hist, stream = _join(f, P)
    order = np.argsort(tail, kind="stable")
    starts = np.cumsum(hist) - hist  # where each sum's run begins in tail[order]
    acc = 0
    # a head tuple extends to at most max(hist) solutions, so a chunk lists at most _CHUNK * 16
    for rows, sums, found in stream(max(1, min(_CHUNK, _CHUNK * 16 // int(hist.max())))):
        which = np.repeat(np.arange(found.size), found)
        offset = np.arange(which.size) - np.repeat(np.cumsum(found) - found, found)
        match = order[starts[sums[which]] + offset]
        common = masks[rows[0][which]]
        for r in rows[1:]:
            common &= masks[r[which]]
        for _ in range(f.n // 2):
            match, r = np.divmod(match, len(masks))
            common &= masks[r]
        acc += which.size - int(np.count_nonzero(common.any(axis=1)))
    if acc % (f.ctx.q - 1):
        raise RuntimeError("unit orbits of primitive solutions tore")
    return acc // (f.ctx.q - 1)


def brute_morphism_count(f: QuadForm, P: int, budget: int = DEFAULT_BUDGET) -> int:
    """Degree-P morphism count as the increment of the primitive count.

    Needs the box at P + 1, so the budget must cover q^(n(P+1)).
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    hi = brute_primitive_count(f, P + 1, budget)
    return morphisms_from_primitive(hi, brute_primitive_count(f, P, budget))


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
def _root_powers(l: int, p: int) -> np.ndarray:
    """w^0, ..., w^(p-1) mod l, read-only, for w of order p: the first
    g^((l-1)/p) != 1.  Kept per (l, p) for the same reason."""
    w = next(w for w in (pow(g, (l - 1) // p, l) for g in range(2, l)) if w != 1)
    powers = np.array([pow(w, e, l) for e in range(p)])
    powers.flags.writeable = False
    return powers


def _transform(h: np.ndarray, powers: np.ndarray, l: int) -> np.ndarray:
    """sum_a w^(xi a) h[:, a, :] mod l for every xi, over the nonzero columns
    a, in blocks of at most ``_CHUNK`` * 64 powers so memory stays O(h.size)."""
    p = len(powers)
    support = np.flatnonzero(h.any(axis=(0, 2)))
    out, h = np.empty_like(h), h[:, support]
    for xi in np.array_split(np.arange(p), -(-p * support.size // (_CHUNK * 64))):
        out[:, xi] = np.matmul(powers[xi[:, None] * support % p], h) % l
    return out


def _scaled_index(ctx: FieldCtx, u: int, K: int) -> np.ndarray:
    """The encodings of M^T xi for xi < p^K, M the multiplication by u on each
    nu-digit block, so that H_(u x^2)^ = H_(x^2)^[index].  Built digit by
    digit, so only G-sized arrays are live."""
    p, nu = ctx.p, ctx.nu
    # (M^T xi)_i on a block is <coordinates of u alpha^i, xi's block>
    rows = [ctx.coeffs(ctx.mul(u, p**i)) for i in range(nu)]
    xi = np.arange(p**K)
    index, digit, acc = np.zeros_like(xi), np.empty_like(xi), np.empty_like(xi)
    for block in range(0, K, nu):
        for i, row in enumerate(rows):
            acc.fill(0)
            for j, m in enumerate(row):
                np.floor_divide(xi, p ** (block + j), out=digit)
                digit %= p
                digit *= m
                acc += digit
            acc %= p
            acc *= p ** (block + i)
            index += acc
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
