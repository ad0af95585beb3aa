"""The benchmark's workloads: seeded job lists and the checks on their answers.

A job is one argv for ``quadricpoints.cli.main``.  The listed argvs carry
base coefficients; ``jobs(name, seed)`` multiplies each by a nonzero
square drawn from the seed and keeps q, n and P.  The drawn form is the
base form after the change of variables x_i -> s_i x_i, so every count,
histogram and factorization the job does is the same at every seed:
the frozen integers in ``expected.json`` hold at every seed, and a
seed moves no cost.  Over F_3 the only nonzero square is 1, so jobs
over F_3 are the same at every seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from quadricpoints import (
    FieldCtx,
    QuadForm,
    count_exact,
    count_primitive,
    morphism_count,
)

# No circle or identities job takes much over 0.5 s (arcs about 0.75 s):
# the host-speed calibration around a job (host.py) tracks a short job
# more closely.
WORKLOADS = {
    # count_circle -> local_factor_closed -> factorize: Poly divmod-bound.
    # Odd and even n, prime and extension fields; never reaches oracle.
    "circle": [
        "count --p 3 --coeffs 1,1,1 --P-range 1..6 --method exact,circle --jobs 1",
        "count --p 5 --coeffs 1,1,1,2 --P-range 1..4 --method exact,circle --jobs 1",
        "count --q 9 --coeffs 1,1,1,1 --P-range 1..3 --method exact,circle --jobs 1",
        "count --p 7 --coeffs 1,1,1,1,3 --P-range 1..3 --method exact,circle --jobs 1",
    ],
    # Brute odometer, per-solution poly_gcd, both convolution paths
    # (G = 3125 takes the dense subtraction table, G = 16807 the
    # per-nonzero loop); the only workload with --jobs 2.
    "oracle": [
        "table --p 3 --coeffs 1,1,1,1,2 --P-range 1..2 --method exact,brute,conv --jobs 2",
        "table --p 3 --coeffs 1,1,1,2 --P-range 1..3 --method exact,brute,conv --jobs 2",
        "count --p 3 --coeffs 1,1,1,1,1,2 --P 3 --method exact,brute --budget 400000000",
        "count --p 5 --coeffs 1,1,1,2 --P 3 --method exact,conv",
        "count --p 7 --coeffs 1,1,3 --P 3 --method exact,conv",
    ],
    # Direct evaluators (weyl_sum, form_exp_sum, character exponents,
    # CycInt) and Laurent long division.  Seed-free: the suites take no form.
    "identities": [
        "verify weyl --p 3 --n 2 --pmax 2",
        "verify arcs --p 3 --nmax 4 --pmax 2",
        "verify local --p 3 --nmax 4 --maxdeg 2",
        "verify gauss --q 9 --maxdeg 1 --maxk 3",
        "verify local --q 9 --nmax 3 --maxdeg 1",
        "verify mor --p 3 --nmax 4 --pmax 2",
        "verify phis --p 7",
    ],
}

#: Output labels of the --method names, as the CLI writes them in ``data``.
METHOD_LABELS = {
    "exact": "exact_formula",
    "circle": "circle_reassembly",
    "brute": "brute_force",
    "conv": "convolution",
}

FROZEN = json.loads((Path(__file__).with_name("expected.json")).read_text())


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def field_of(argv: list[str]) -> FieldCtx:
    flags = _flags(argv)
    if "--q" in flags:
        q = int(flags["--q"])
        p = next(d for d in range(2, q + 1) if q % d == 0)
        nu = 0
        while q > 1:
            q //= p
            nu += 1
        return FieldCtx(p, nu)
    return FieldCtx(int(flags["--p"]))


def form_of(argv: list[str]) -> QuadForm:
    coeffs = tuple(int(c) for c in _flags(argv)["--coeffs"].split(","))
    return QuadForm(field_of(argv), coeffs)


def box_sizes(argv: list[str]) -> list[int]:
    flags = _flags(argv)
    if "--P" in flags:
        return [int(flags["--P"])]
    lo, hi = flags["--P-range"].split("..")
    return list(range(int(lo), int(hi) + 1))


def _redraw(argv: list[str], rng: random.Random) -> list[str]:
    """The argv with each coefficient multiplied by a random nonzero square."""
    base = form_of(argv)
    ctx = base.ctx
    squares = sorted({ctx.mul(u, u) for u in ctx.units()})
    coeffs = [ctx.mul(a, rng.choice(squares)) for a in base.coeffs]
    out = list(argv)
    out[out.index("--coeffs") + 1] = ",".join(map(str, coeffs))
    return out


def jobs(name: str, seed: int) -> list[list[str]]:
    """The workload's argv list for a seed; the same seed gives the same list."""
    out = []
    for index, line in enumerate(WORKLOADS[name]):
        argv = line.split()
        if "--coeffs" in argv:
            argv = _redraw(argv, random.Random(f"{name}:{seed}:{index}"))
        out.append(argv)
    return out


def _closed_values(kind: str, f: QuadForm, P: int) -> dict:
    if kind == "count":
        return {"value": count_exact(f, P)}
    return {
        "N": count_exact(f, P),
        "N_primitive": count_primitive(f, P),
        "morphisms": morphism_count(f, P),
    }


def expected_records(name: str, job_list: list[list[str]]) -> list:
    """Per job, what a correct run prints: rows for count/table, ids for verify.

    A count or table row is expected to carry the frozen integers.  Where
    the closed formulas for the drawn form disagree with them (or raise),
    the row is marked unattainable, so a broken closed formula fails the
    row whatever the CLI prints.
    """
    out = []
    for argv, frozen in zip(job_list, FROZEN[name]):
        if argv[0] == "verify":
            out.append(list(frozen))
            continue
        f = form_of(argv)
        methods = _flags(argv)["--method"].split(",")
        rows = []
        for P in box_sizes(argv):
            keys = ["value"] if argv[0] == "count" else ["N", "N_primitive", "morphisms"]
            want = frozen[str(P)]
            values = dict(zip(keys, want if isinstance(want, list) else [want]))
            try:
                agrees = _closed_values(argv[0], f, P) == values
            except Exception:  # a broken formula fails its rows, it does not stop the run
                agrees = False
            for m in methods:
                rows.append(({"P": P, "method": METHOD_LABELS[m], **values}, agrees))
        out.append(rows)
    return out


def check_job(argv: list[str], expected, rc: int, doc: dict | None) -> tuple[int, int]:
    """(attempted, failed) records of one job's output.

    A job that prints no JSON, or a count or table job that exits nonzero,
    fails every expected record.  A verify job exits 1 when records fail,
    and those records are counted from its output.
    """
    if argv[0] == "verify":
        got = {r["id"]: r["ok"] for r in doc["data"]} if doc else {}
        attempted = len(set(expected) | set(got))
        if any(i not in got for i in expected):
            return attempted, attempted
        return attempted, sum(1 for ok in got.values() if ok is not True)
    rows = doc["data"] if rc == 0 and doc else []
    failed = sum(
        1
        for i, (want, agrees) in enumerate(expected)
        if not agrees or i >= len(rows) or any(rows[i].get(k) != v for k, v in want.items())
    )
    return len(expected), failed
