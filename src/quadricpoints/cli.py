"""Command-line interface.

Three subcommands:

* ``count``  - N(P) for a diagonal form, by one or more methods
* ``table``  - rows (P, N, primitive count, morphism count) over a P range
* ``verify`` - run one of the bundled identity suites

JSON is the canonical output; ``--emit csv`` projects the data rows.
Data sections are byte-deterministic for a fixed invocation: ordering is
fixed, values are exact integers, and the wall-clock time lives only in
the ``meta`` block.  Exit codes: 0 success, 1 failed verification,
2 usage or validation error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import oracle
from .expsums import QuadForm
from .field import FieldCtx
from .formulas import (
    CountReport,
    classify,
    count_circle,
    count_exact,
    diagonalize,
    morphism_count,
    morphism_count_from_counts,
    primitive_from_counts,
)
from .oracle import BudgetExceeded, brute_count, brute_primitive_count, convolution_count, morphisms_from_primitive
from .verify import SUITES

SCHEMA_VERSION = 1
BUDGET_ENV_VAR = "QUADRICPOINTS_BUDGET"

#: --method name -> (label written in ``data``, N(P) for P >= 1)
METHODS = {
    "exact": ("exact_formula", lambda f, P, budget: count_exact(f, P)),
    "circle": ("circle_reassembly", lambda f, P, budget: count_circle(f, P)),
    "brute": ("brute_force", lambda f, P, budget: brute_count(f, P, budget)),
    "conv": ("convolution", lambda f, P, budget: convolution_count(f, P)),
}


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_element(ctx: FieldCtx, token: str) -> int:
    """An F_q element: an integer for nu = 1, '[c0 c1 ...]' otherwise."""
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise UsageError(f"unbalanced brackets in element {token!r}")
        parts = token[1:-1].split()
        return ctx.from_coeffs(int(p) % ctx.p for p in parts)
    value = int(token)
    if ctx.nu == 1:
        return value % ctx.p
    if not 0 <= value < ctx.q:
        raise UsageError(
            f"element {value} out of range for q={ctx.q}; use bracketed coordinates"
        )
    return value


def _split_elements(s: str) -> list[str]:
    """Split a comma list whose items may be bracketed, space-separated tuples."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [t for t in (t.strip() for t in out) if t]


def _build_ctx(args) -> FieldCtx:
    if args.p is None:
        raise UsageError("--p is required")
    modulus = None
    if args.modulus:
        modulus = [int(c) for c in args.modulus.split(",")]
    try:
        return FieldCtx(args.p, args.nu, modulus)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _build_form(ctx: FieldCtx, args) -> QuadForm:
    if args.coeffs and args.gram:
        raise UsageError("give either --coeffs or --gram, not both")
    try:
        if args.coeffs:
            coeffs = [_parse_element(ctx, tok) for tok in _split_elements(args.coeffs)]
            return QuadForm(ctx, tuple(coeffs))
        if args.gram:
            rows = [
                [_parse_element(ctx, tok) for tok in _split_elements(row)]
                for row in args.gram.split(";")
            ]
            return diagonalize(ctx, rows)
    except ValueError as e:
        raise UsageError(str(e)) from None
    raise UsageError("a form is required: --coeffs or --gram")


def _parse_P_values(args) -> list[int]:
    if args.P is not None and args.P_range is not None:
        raise UsageError("give either --P or --P-range, not both")
    if args.P is not None:
        return [args.P]
    if args.P_range is not None:
        text = args.P_range
        sep = ".." if ".." in text else ":"
        try:
            lo, hi = (int(x) for x in text.split(sep))
        except ValueError:
            raise UsageError(f"cannot parse P range {text!r}; use 'lo..hi'") from None
        if lo > hi:
            raise UsageError(f"empty P range {text!r}: lo must not exceed hi")
        return list(range(lo, hi + 1))
    raise UsageError("a box size is required: --P or --P-range")


def _parse_methods(spec: str) -> list[str]:
    methods = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in METHODS:
            raise UsageError(
                f"unknown method {tok!r}; choose from {', '.join(METHODS)}"
            )
        if tok not in methods:
            methods.append(tok)
    if not methods:
        raise UsageError("no methods given")
    return methods


def _resolve_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    return oracle.DEFAULT_BUDGET


@dataclass
class JobSpec:
    """Validated description of one CLI invocation."""

    command: str
    ctx: FieldCtx
    form: QuadForm | None
    P_values: list[int] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    emit: str = "json"
    budget: int = oracle.DEFAULT_BUDGET
    jobs: int = 1

    def spec_dict(self) -> dict:
        out = {
            "p": self.ctx.p,
            "nu": self.ctx.nu,
            "modulus": list(self.ctx.modulus),
            "q": self.ctx.q,
        }
        if self.form is not None:
            if self.ctx.nu == 1:
                out["coeffs"] = list(self.form.coeffs)
            else:
                out["coeffs"] = [list(self.ctx.coeffs(a)) for a in self.form.coeffs]
            out["case"] = classify(self.form).value
        if self.P_values:
            out["P"] = self.P_values
        if self.methods:
            out["methods"] = self.methods
        return out


# ---------------------------------------------------------------------------
# computations behind the subcommands


def _count(method: str, f: QuadForm, P: int, budget: int) -> int:
    """N(P) by one method, with the convention N(0) = 1 (only the zero tuple)."""
    return 1 if P == 0 else METHODS[method][1](f, P, budget)


def _run_cells(tasks, jobs: int):
    """Evaluate thunks, optionally in a thread pool; order is preserved."""
    if jobs <= 1 or len(tasks) <= 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(t) for t in tasks]
        return [fut.result() for fut in futures]


def cmd_count(spec: JobSpec) -> dict:
    tasks = [
        lambda P=P, m=m: CountReport.build(
            spec.form, P, METHODS[m][0], _count(m, spec.form, P, spec.budget)
        ).to_json_dict()
        for P in spec.P_values
        for m in spec.methods
    ]
    return {"data": _run_cells(tasks, spec.jobs)}


def _table_column(spec: JobSpec, method: str):
    """One method's rows in P order, computing each count once.

    The counts are taken in the order the rows first need them, so the
    first refusal or error is the one a row-by-row evaluation would hit.
    """
    f, q, budget = spec.form, spec.ctx.q, spec.budget
    N, prim = {}, {}
    for P in spec.P_values:
        if method == "brute":
            N[P] = brute_count(f, P, budget)
            for k in (P, P + 1):
                if k not in prim:
                    prim[k] = brute_primitive_count(f, k, budget)
            mor = morphisms_from_primitive(prim[P + 1], prim[P])
        else:
            for k in (P, P - 1, P + 1):
                if k not in N:
                    N[k] = _count(method, f, k, budget)
            prim[P] = primitive_from_counts(N[P], N[P - 1], q)
            if method == "exact":
                mor = morphism_count(f, P)
            else:
                mor = morphism_count_from_counts(N[P + 1], N[P], N[P - 1], q)
        yield {
            "P": P,
            "method": METHODS[method][0],
            "N": N[P],
            "N_primitive": prim[P],
            "morphisms": mor,
        }


def cmd_table(spec: JobSpec) -> dict:
    # zip pulls the rows lazily in P-major order, so a refusal stops all work
    columns = [_table_column(spec, m) for m in spec.methods]
    return {"data": [row for rows in zip(*columns) for row in rows]}


def cmd_verify(spec: JobSpec, suite: str, kwargs: dict) -> dict:
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    records = SUITES[suite](spec.ctx, **kwargs)
    return {
        "data": [{"suite": suite, **rec} for rec in records],
        "passed": sum(1 for r in records if r["ok"]),
        "failed": sum(1 for r in records if not r["ok"]),
    }


# ---------------------------------------------------------------------------
# emission


def _emit(payload: dict, command: str, spec: JobSpec, runtime_ms: int, stream) -> None:
    if spec.emit == "csv":
        rows = payload["data"]
        writer = csv.writer(stream)
        if command == "count":
            writer.writerow(["q", "n", "case", "P", "method", "value"])
            for r in rows:
                writer.writerow([r["q"], r["n"], r["case"], r["P"], r["method"], r["value"]])
        elif command == "table":
            writer.writerow(["P", "method", "N", "N_primitive", "morphisms"])
            for r in rows:
                writer.writerow([r["P"], r["method"], r["N"], r["N_primitive"], r["morphisms"]])
        else:
            writer.writerow(["suite", "id", "ok"])
            for r in rows:
                writer.writerow([r["suite"], r["id"], int(r["ok"])])
        return
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "spec": spec.spec_dict(),
        **payload,
        "meta": {"runtime_ms": runtime_ms},
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")


# ---------------------------------------------------------------------------
# argument wiring


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, help="odd prime characteristic")
    common.add_argument("--q", type=int, help="field size p^nu (alternative to --p/--nu)")
    common.add_argument("--nu", type=int, default=1, help="extension degree (default 1)")
    common.add_argument("--modulus", help="comma list of F_p coefficients, low to high")
    common.add_argument("--budget", type=int, help="enumeration budget (evaluations)")
    common.add_argument("--emit", choices=["json", "csv"], default="json")
    common.add_argument("--jobs", type=int, default=1, help="parallel cells (threads)")

    form_args = argparse.ArgumentParser(add_help=False)
    form_args.add_argument("--coeffs", help="diagonal coefficients, comma separated")
    form_args.add_argument("--gram", help="symmetric Gram rows 'a,b;b,c'")
    form_args.add_argument("--P", type=int, help="height box exponent")
    form_args.add_argument("--P-range", dest="P_range", help="inclusive range 'lo..hi'")

    parser = argparse.ArgumentParser(
        prog="quadricpoints",
        description="Exact point counts on diagonal quadrics over F_q(t).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[common, form_args], help="compute N(P)")
    p_count.add_argument("--method", default="exact", help="comma list: exact,circle,brute,conv")

    p_table = sub.add_parser(
        "table", parents=[common, form_args], help="N / primitive / morphism table"
    )
    p_table.add_argument("--method", default="exact", help="comma list: exact,circle,brute,conv")

    p_verify = sub.add_parser("verify", parents=[common], help="run an identity suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    p_verify.add_argument("--maxdeg", type=int, help="modulus degree bound")
    p_verify.add_argument("--maxk", type=int, help="prime-power exponent bound")
    p_verify.add_argument("--n", type=int, help="number of variables")
    p_verify.add_argument("--nmax", type=int, help="variable count bound")
    p_verify.add_argument("--pmax", type=int, help="box exponent bound")
    p_verify.add_argument("--mmax", type=int, help="stratum depth bound")
    return parser


def _apply_q_flag(args) -> None:
    if args.q is None:
        return
    if args.p is not None:
        raise UsageError("give either --q or --p/--nu, not both")
    q = args.q
    if q < 3:
        raise UsageError(f"--q must be an odd prime power, got {q}")
    d = 2
    while d * d <= q:
        if q % d == 0:
            break
        d += 1
    else:
        d = q
    p, nu = d, 0
    while q % p == 0 and q > 1:
        q //= p
        nu += 1
    if q != 1:
        raise UsageError(f"--q must be a prime power, got {args.q}")
    args.p, args.nu = p, nu


_VERIFY_KW = {
    "gauss": ("maxdeg", "maxk"),
    "local": ("nmax", "maxdeg"),
    "weyl": ("n", "pmax"),
    "arcs": ("nmax", "pmax"),
    "counts": ("nmax", "pmax"),
    "mor": ("nmax", "pmax"),
    "phis": ("maxdeg", "mmax"),
}


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        _apply_q_flag(args)
        ctx = _build_ctx(args)
        if args.command in ("count", "table"):
            spec = JobSpec(
                command=args.command,
                ctx=ctx,
                form=_build_form(ctx, args),
                P_values=_parse_P_values(args),
                methods=_parse_methods(args.method),
                emit=args.emit,
                budget=_resolve_budget(args),
                jobs=args.jobs,
            )
            for P in spec.P_values:
                if P < 1:
                    raise UsageError("P values must be >= 1")
            payload = cmd_count(spec) if args.command == "count" else cmd_table(spec)
            runtime_ms = int((time.monotonic() - start) * 1000)
            _emit(payload, args.command, spec, runtime_ms, sys.stdout)
            return 0
        # verify
        spec = JobSpec(
            command="verify",
            ctx=ctx,
            form=None,
            emit=args.emit,
            budget=_resolve_budget(args),
            jobs=args.jobs,
        )
        kwargs = {}
        for name in _VERIFY_KW.get(args.suite, ()):
            value = getattr(args, name, None)
            if value is not None:
                kwargs[name] = value
        if args.suite in ("counts", "mor"):
            kwargs["budget"] = spec.budget
        payload = cmd_verify(spec, args.suite, kwargs)
        runtime_ms = int((time.monotonic() - start) * 1000)
        _emit(payload, "verify", spec, runtime_ms, sys.stdout)
        return 0 if payload["failed"] == 0 else 1
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
