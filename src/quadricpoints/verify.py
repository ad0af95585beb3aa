"""Bundled identity checks, runnable from the command line.

Each suite returns a list of instance records ``{"id": ..., "ok": ...}``
in a deterministic order; a suite passes when every instance does.  A
failing record also carries every side of its comparison by name.  The
suites deliberately re-derive everything through the slow direct
evaluators, so they are small grids, not benchmarks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .characters import expansion_tail, ratio_char_exponent
from .cyclotomic import CycInt
from .expsums import (
    arc_integral_closed,
    arc_integral_direct,
    form_exp_sum,
    gauss_sum,
    gauss_sum_prime_power,
    layer_sum_closed,
    local_factor_closed,
    local_factor_direct,
    phi_degree_sum,
    phi_power_sum,
    twisted_gauss_sum,
    twisted_gauss_sum_prime_power,
    weyl_sum,
)
from .field import FieldCtx
from .forms import QuadForm, table_rows
from .formulas import count_circle, count_exact, morphism_count
from .oracle import DEFAULT_BUDGET, brute_count, convolution_count
from .polyring import (
    Poly,
    enumerate_below,
    enumerate_monic,
    euler_phi,
    irreducibles,
    moebius,
    poly_gcd,
)


def _json_value(v):
    if isinstance(v, CycInt):
        return v.to_json()
    if isinstance(v, Fraction):
        return str(v)
    return v


#: the four routes to N(P), for ``count``, ``table`` and ``verify counts``:
#: name -> (label written in ``data``, N(P) for P >= 0); brute is first, so
#: its refusal comes before any other route's work
METHODS = {
    "brute": ("brute_force", lambda f, P, budget: brute_count(f, P, budget)),
    "exact": ("exact_formula", lambda f, P, budget: count_exact(f, P)),
    "circle": ("circle_reassembly", lambda f, P, budget: count_circle(f, P)),
    "conv": ("convolution", lambda f, P, budget: convolution_count(f, P)),
}


def _record(rid: str, **sides) -> dict:
    """The record of one identity: ok when all sides agree, which the
    usual two-sided check names lhs and rhs.  A failing record carries
    every side, so a report shows what disagreed."""
    first, *rest = sides.values()
    if all(v == first for v in rest):
        return {"id": rid, "ok": True}
    return {"id": rid, "ok": False, **{k: _json_value(v) for k, v in sides.items()}}


def _form_family(ctx: FieldCtx, nmax: int):
    """Small deterministic family covering every case tag per n."""
    c = ctx.nonsquare()
    for n in range(1, nmax + 1):
        yield QuadForm(ctx, (1,) * n)
        if n > 1:
            yield QuadForm(ctx, (1,) * (n - 1) + (c,))


def suite_gauss(ctx: FieldCtx, maxdeg: int = 2, maxk: int = 3) -> list[dict]:
    out = []
    for d in range(1, maxdeg + 1):
        for pi in irreducibles(ctx, d):
            for k in range(1, maxk + 1):
                lhs, rhs = gauss_sum(pi**k), gauss_sum_prime_power(pi, k)
                out.append(_record(f"tau[{pi},k={k}]", lhs=lhs, rhs=rhs))
    # twisted variants at a degree-one base
    t = Poly.gen(ctx)
    for k in (1, 2):
        r = t**k
        for a in enumerate_below(ctx, k):
            if not poly_gcd(a, r).is_one():
                continue
            lhs, rhs = twisted_gauss_sum(a, r), twisted_gauss_sum_prime_power(a, t, k)
            out.append(_record(f"twisted[a={a},r={r}]", lhs=lhs, rhs=rhs))
    return out


def suite_local(ctx: FieldCtx, nmax: int = 4, maxdeg: int = 2) -> list[dict]:
    out = []
    forms = list(_form_family(ctx, nmax))
    for f in forms:
        for d in range(0, maxdeg + 1):
            for r in enumerate_monic(ctx, d):
                lhs, rhs = local_factor_direct(f, r), local_factor_closed(f, r)
                out.append(_record(f"S_r[{f.coeffs},r={r}]", lhs=lhs, rhs=rhs))
    # multiplicativity over a coprime pair
    t = Poly.gen(ctx)
    r1, r2 = t, t + Poly.one(ctx)
    for f in forms:
        lhs = local_factor_closed(f, r1 * r2)
        rhs = local_factor_closed(f, r1) * local_factor_closed(f, r2)
        out.append(_record(f"S_mult[{f.coeffs}]", lhs=lhs, rhs=rhs))
    # the complete sum term by term over residue tuples against its product form
    residues = list(enumerate_below(ctx, r2.deg))
    for f in forms:
        if f.n > 3:
            continue
        counts = [0] * ctx.p
        for xs in itertools.product(residues, repeat=f.n):
            counts[ratio_char_exponent(f.value(xs), r2)] += 1
        lhs = CycInt.from_exponent_counts(ctx.p, counts)
        rhs = form_exp_sum(f, Poly.one(ctx), r2)
        out.append(_record(f"S_prod[{f.coeffs}]", lhs=lhs, rhs=rhs))
    return out


def suite_layers(ctx: FieldCtx, nmax: int = 4, maxdeg: int = 3) -> list[dict]:
    """The closed layer sum against the closed local factors summed over
    every monic modulus of the layer's degree."""
    out = []
    for f in _form_family(ctx, nmax):
        for rho in range(0, maxdeg + 1):
            lhs = sum(local_factor_closed(f, r) for r in enumerate_monic(ctx, rho))
            out.append(_record(f"layer[{f.coeffs},rho={rho}]", lhs=lhs, rhs=layer_sum_closed(f, rho)))
    return out


def suite_weyl(ctx: FieldCtx, n: int = 3, pmax: int = 2) -> list[dict]:
    """S(a/r + theta) |r|^n == S_{a,r}(f) S(theta) on admissible points."""
    out = []
    f = QuadForm(ctx, (1,) * n)
    for P in range(1, pmax + 1):
        s_theta_cache: dict[Poly, CycInt] = {}
        for rho in range(1, P + 1):
            for r in enumerate_monic(ctx, rho):
                complete = {
                    a: form_exp_sum(f, a, r)
                    for a in enumerate_below(ctx, rho)
                    if poly_gcd(a, r).is_one()
                }
                tails = [Poly.zero(ctx)]
                if rho + P + 1 <= 2 * P - 1:
                    tails.append(Poly.t_power(ctx, rho + P))
                tails.append(Poly.t_power(ctx, 2 * P - 1).scale(2))  # beyond S's depth
                for tail in tails:
                    if tail not in s_theta_cache:
                        s_theta_cache[tail] = weyl_sum(f, tail, P)
                    s_theta = s_theta_cache[tail]
                    for a, s_ar in complete.items():
                        alpha = expansion_tail(a, r, 2 * P - 1) + tail
                        lhs = weyl_sum(f, alpha, P) * (ctx.q ** (n * rho))
                        rid = f"weyl[a={a},r={r},P={P},tail@{tail.deg + 1}]"
                        out.append(_record(rid, lhs=lhs, rhs=s_ar * s_theta))
    return out


def suite_arcs(ctx: FieldCtx, nmax: int = 3, pmax: int = 2) -> list[dict]:
    out = []
    for n in range(2, nmax + 1):
        f = QuadForm(ctx, (1,) * n)
        for P in range(1, pmax + 1):
            for rho in range(0, P + 1):
                for r in enumerate_monic(ctx, rho):
                    lhs = arc_integral_direct(f, rho, P)
                    rhs = arc_integral_closed(f, rho, P)
                    out.append(_record(f"arc[n={n},r={r},P={P}]", lhs=lhs, rhs=rhs))
    return out


def suite_counts(ctx: FieldCtx, nmax: int = 4, pmax: int = 2, budget: int = DEFAULT_BUDGET) -> list[dict]:
    out = []
    for f in _form_family(ctx, nmax):
        if f.n < 3:  # the paper's range, which fixes the record ids
            continue
        for P in range(1, pmax + 1):
            sides = {name: count(f, P, budget) for name, (_, count) in METHODS.items()}
            out.append(_record(f"N[{f.coeffs},P={P}]", **sides))
    return out


def suite_mor(ctx: FieldCtx, nmax: int = 4, pmax: int = 2, budget: int = DEFAULT_BUDGET) -> list[dict]:
    out = []
    P_values = range(1, pmax + 1)
    for f in _form_family(ctx, nmax):
        if f.n < 3:  # the paper's range, which fixes the record ids
            continue
        brute = table_rows(lambda k: brute_count(f, k, budget), ctx.q, P_values)
        derived = table_rows(lambda k: count_exact(f, k), ctx.q, P_values)
        for P, (*_, by_brute), (*_, by_exact) in zip(P_values, brute, derived):
            rid = f"mor[{f.coeffs},P={P}]"
            out.append(_record(rid, closed=morphism_count(f, P), brute=by_brute, derived=by_exact))
    return out


def suite_phis(ctx: FieldCtx, maxdeg: int = 3, mmax: int = 4) -> list[dict]:
    out = []
    q = ctx.q
    for rho in range(0, maxdeg + 1):
        total = sum(euler_phi(r) for r in enumerate_monic(ctx, rho))
        out.append(_record(f"phi_deg[{rho}]", lhs=total, rhs=phi_degree_sum(q, rho)))
    for rho in range(0, maxdeg + 1):
        mu_total = sum(moebius(r) for r in enumerate_monic(ctx, rho))
        expected = 1 if rho == 0 else (-q if rho == 1 else 0)
        out.append(_record(f"mu_deg[{rho}]", lhs=mu_total, rhs=expected))
    for signed in (False, True):
        for c in range(0, 4):
            for M in range(0, mmax + 1):
                stratum = Fraction(0)
                for rho in range(M + 1):
                    term = Fraction(phi_degree_sum(q, rho), q ** (rho * c))
                    stratum += -term if (signed and rho % 2) else term
                rid = f"phi_pow[c={c},M={M},{'signed' if signed else 'plain'}]"
                out.append(_record(rid, lhs=stratum, rhs=phi_power_sum(q, M, c, signed)))
    return out


SUITES = {
    "gauss": suite_gauss,
    "local": suite_local,
    "layers": suite_layers,
    "weyl": suite_weyl,
    "arcs": suite_arcs,
    "counts": suite_counts,
    "mor": suite_mor,
    "phis": suite_phis,
}
