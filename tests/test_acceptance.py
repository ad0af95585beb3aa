"""Acceptance gate: the headline guarantees of the package, checked end to end.

Every criterion prints one line

    ACCEPTANCE <i> (<name>): PASS|FAIL

directly to the terminal (bypassing capture) and then asserts.  All
comparisons are exact integer or exact rational equality; no tolerances
appear anywhere in this file.  Frozen integers come from the independent
enumeration oracles.
"""

import json
import time

from quadricpoints import (
    DEFAULT_BUDGET,
    CaseTag,
    FieldCtx,
    QuadForm,
    brute_count,
    classify,
    convolution_count,
    count_circle,
    count_exact,
    local_factor_closed,
    morphism_count,
)
from quadricpoints.cli import main as cli_main
from quadricpoints.polyring import Poly
from test_oracle import derived_counts, primitive_reference
from quadricpoints.verify import (
    suite_arcs,
    suite_gauss,
    suite_layers,
    suite_local,
    suite_phis,
    suite_weyl,
)


def _report(capsys, number: int, name: str, failures: list, elapsed: float | None = None):
    ok = not failures
    with capsys.disabled():
        stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
        print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{stamp}", flush=True)
    assert ok, f"criterion {number} ({name}): " + "; ".join(str(f) for f in failures[:10])


def _representatives(ctx, n):
    """One form per equivalence class that the closed formulas distinguish."""
    if n % 2 == 1:
        return [QuadForm(ctx, (1,) * n)]
    reps = {}
    for c in ctx.units():
        f = QuadForm(ctx, (1,) * (n - 1) + (c,))
        reps.setdefault(classify(f), f)
        if len(reps) == 2:
            break
    assert set(reps) == {CaseTag.SPLIT_EVEN, CaseTag.NONSPLIT_EVEN}
    return [reps[CaseTag.SPLIT_EVEN], reps[CaseTag.NONSPLIT_EVEN]]


def test_01_count_methods_agree(capsys):
    """Closed formula == circle reassembly == enumeration oracle on a grid."""
    start = time.monotonic()
    failures = []
    for q in (3, 5):
        ctx = FieldCtx(q)
        for n in (3, 4, 5, 6):
            for f in _representatives(ctx, n):
                for P in (1, 2, 3):
                    exact = count_exact(f, P)
                    circle = count_circle(f, P)
                    if q ** (n * P) <= DEFAULT_BUDGET:
                        oracle = brute_count(f, P)
                        how = "brute"
                    else:
                        oracle = convolution_count(f, P)
                        how = "conv"
                    if not (exact == circle == oracle):
                        failures.append(
                            f"q={q} {f.coeffs} P={P}: exact={exact} circle={circle} {how}={oracle}"
                        )
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s exceeds 300s")
    _report(capsys, 1, "count methods agree", failures, elapsed)


def test_02_unit_box_constants(capsys):
    """N(1) takes the predicted closed constants in each case."""
    failures = []
    for q in (3, 5):
        ctx = FieldCtx(q)
        cells = [
            (QuadForm(ctx, (1, 1, 1)), q * q),
            (_representatives(ctx, 4)[0], q**3 + q * q - q),  # split
            (_representatives(ctx, 4)[1], q**3 - q * q + q),  # nonsplit
        ]
        for f, expected in cells:
            got = count_exact(f, 1)
            oracle = brute_count(f, 1)
            if not (got == oracle == expected):
                failures.append(f"q={q} {f.coeffs}: exact={got} brute={oracle} want={expected}")
    _report(capsys, 2, "unit box constants", failures)


def test_03_morphism_counts_match_enumeration(capsys):
    """Closed morphism-count formulas against those derived from brute_count,
    and for n <= 4 against the gcd enumeration of primitive solutions."""
    start = time.monotonic()
    failures = []
    ctx = FieldCtx(3)
    zeros_seen = 0
    for n in (3, 4, 5, 6):
        for f in _representatives(ctx, n):
            for P in (1, 2):
                closed = morphism_count(f, P)
                sides = {"derived": derived_counts(f, P, budget=10**9)[1]}
                if n <= 4:
                    sides["gcd"] = primitive_reference(f, P + 1) - primitive_reference(f, P)
                if any(v != closed for v in sides.values()):
                    failures.append(f"{f.coeffs} P={P}: closed={closed} {sides}")
                if closed == 0:
                    zeros_seen += 1
    if zeros_seen == 0:
        failures.append("expected some parity-forced zero counts in the grid")
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.0f}s exceeds 600s")
    _report(capsys, 3, "morphism counts match enumeration", failures, elapsed)


def test_04_gauss_sum_identities(capsys):
    """Quadratic Gauss sums: closed prime-power values and twisted variants."""
    failures = []
    for q in (3, 5):
        records = suite_gauss(FieldCtx(q), maxdeg=2, maxk=3)
        failures.extend(f"q={q} {r['id']}" for r in records if not r["ok"])
    _report(capsys, 4, "gauss sum identities", failures)


def test_05_complete_sum_identities(capsys):
    """Complete quadratic sums: closed values, multiplicativity, vanishing,
    and the closed layer sums against the local factors of every modulus."""
    failures = []
    ctx = FieldCtx(3)
    records = suite_local(ctx, nmax=4, maxdeg=2)
    failures.extend(r["id"] for r in records if not r["ok"])
    for layer_ctx in (ctx, FieldCtx(5), FieldCtx(3, 2)):
        records = suite_layers(layer_ctx)
        failures.extend(f"q={layer_ctx.q} {r['id']}" for r in records if not r["ok"])
    # odd variable count kills every non-square modulus
    t = Poly.gen(ctx)
    f3 = QuadForm(ctx, (1, 1, 1))
    for r in (t, t**3, t * (t + Poly.one(ctx))):
        if local_factor_closed(f3, r) != 0:
            failures.append(f"S_r should vanish at r={r} for odd n")
    _report(capsys, 5, "complete sum identities", failures)


def test_06_weyl_and_arc_identities(capsys):
    """Weyl sum factorization and exact arc integrals, direct vs closed."""
    start = time.monotonic()
    failures = []
    ctx = FieldCtx(3)
    for n in (2, 3, 4):
        records = suite_weyl(ctx, n=n, pmax=2)
        failures.extend(f"n={n} {r['id']}" for r in records if not r["ok"])
    records = suite_arcs(ctx, nmax=4, pmax=2)
    failures.extend(r["id"] for r in records if not r["ok"])
    elapsed = time.monotonic() - start
    if elapsed >= 180:
        failures.append(f"runtime {elapsed:.0f}s exceeds 180s")
    _report(capsys, 6, "weyl and arc identities", failures, elapsed)


def test_07_summation_helper_identities(capsys):
    """Totient degree sums, Moebius cancellation, geometric stratum sums."""
    failures = []
    for q in (3, 5):
        records = suite_phis(FieldCtx(q), maxdeg=3, mmax=4)
        failures.extend(f"q={q} {r['id']}" for r in records if not r["ok"])
    _report(capsys, 7, "summation helper identities", failures)


def test_08_extension_field_counts(capsys):
    """Counting is uniform in q: the q = 9 column agrees with enumeration."""
    failures = []
    ctx = FieldCtx(3, 2)
    f = QuadForm(ctx, (1, 1, 1))
    exact = count_exact(f, 1)
    brute = brute_count(f, 1)
    conv = convolution_count(f, 1)
    if not (exact == brute == conv == 81):
        failures.append(f"exact={exact} brute={brute} conv={conv} want 81")
    _report(capsys, 8, "extension field counts", failures)


def test_09_cli_byte_determinism(capsys):
    """Identical invocations produce byte-identical data, also across --jobs."""
    failures = []
    argv = [
        "table", "--p", "3", "--coeffs", "1,1,1,2", "--P-range", "1..3",
        "--method", "exact,conv",
    ]
    outputs = []
    for jobs in ("1", "1", "4"):
        code = cli_main(argv + ["--jobs", jobs])
        out = capsys.readouterr().out
        if code != 0:
            failures.append(f"exit code {code} with --jobs {jobs}")
            continue
        doc = json.loads(out)
        doc.pop("meta", None)
        outputs.append(json.dumps(doc, sort_keys=True).encode())
    if len(set(outputs)) > 1:
        failures.append("data sections differ between runs")
    _report(capsys, 9, "cli byte determinism", failures)
