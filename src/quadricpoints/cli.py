"""Command-line interface.

Three subcommands:

* ``count``  - N(P) for a diagonal form, by one or more methods
* ``table``  - rows (P, N, primitive count, morphism count) over a P range
* ``verify`` - run one of the bundled identity suites: ``verify <suite>``
  takes the suite's own bound flags, read from its signature

JSON is the canonical output; ``--emit csv`` projects the data rows.
Data sections are byte-deterministic for a fixed invocation: ordering is
fixed, values are exact integers, and the wall-clock time lives only in
the ``meta`` block.  ``main(argv)`` returns the exit code: 0 success,
1 failed verification, 2 usage or validation error (one ``error:`` line,
argparse's own included; a flag is taken only as spelled, never by a
prefix), 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import re
import sys
import time

from .field import FieldCtx, is_prime
from .forms import QuadForm, classify, diagonalize, table_rows
from .oracle import DEFAULT_BUDGET, BudgetExceeded
from .verify import METHODS, SUITES

SCHEMA_VERSION = 1


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Bad input: ``main`` prints it as one ``error:`` line and returns 2.
    Raised in a flag's ``type=`` converter, argparse names the flag."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser that takes a flag only as spelled, not by a prefix,
    and whose errors are usage errors, not a usage dump and an exit."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's name comes before its flags; name the flag that came first
        args = sys.argv[1:] if args is None else args
        subcommand = [a.dest for a in self._actions if isinstance(a, argparse._SubParsersAction)]
        if subcommand and args[:1] and args[0].startswith("-") and args[0] not in self._option_string_actions:
            self.error(f"{args[0]} came before the {subcommand[0]}: the {subcommand[0]} name comes first")
        return super().parse_known_args(args, namespace)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _signed(text: str) -> int:
    """An element or modulus integer: an optional '-', then the digits 0-9."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_element(ctx: FieldCtx, token: str) -> int:
    """An F_q element: an integer for nu = 1, '[c0 c1 ...]' otherwise."""
    token = token.strip()
    bracketed = token.startswith("[")
    if bracketed and not token.endswith("]"):
        raise UsageError(f"unbalanced brackets in element {token!r}")
    try:
        values = [_signed(c) for c in (token[1:-1].split() if bracketed else [token])]
    except ValueError:
        raise UsageError(f"cannot read element {token!r}: write an integer or '[c0 c1 ...]'") from None
    if bracketed:
        if len(values) > ctx.nu:
            raise UsageError(f"element {token!r} has {len(values)} coordinates; F_{ctx.q} takes at most {ctx.nu}")
        return ctx.from_coeffs(c % ctx.p for c in values)
    (value,) = values
    if ctx.nu == 1:
        return value % ctx.p
    if not 0 <= value < ctx.q:
        raise UsageError(
            f"element {value} out of range for q={ctx.q}; use bracketed coordinates"
        )
    return value


def _split_elements(s: str) -> list[str]:
    """Split a comma list; a bracketed item separates its coordinates by spaces."""
    items = [t.strip() for t in s.split(",")]
    if "" in items:
        raise UsageError(f"empty item {items.index('') + 1} in {s!r}")
    return items


def _integer(text: str, least: int = 1) -> int:
    """An integer flag: >= 1 for ``--p``, ``--nu``, ``--q``, ``--P``, an end of
    ``--P-range``, ``--budget`` or ``--jobs``, >= 0 for a verify bound."""
    value = int(text) if re.fullmatch("[0-9]+", text) else -1
    if value < least:
        raise UsageError(f"expected an integer >= {least}, got {text!r}")
    return value


def _P_range(text: str) -> list[int]:
    """``--P-range lo..hi``: the box exponents lo, ..., hi."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"cannot parse P range {text!r}; use 'lo..hi'")
    lo, hi = _integer(lo), _integer(hi)
    if lo > hi:
        raise UsageError(f"empty P range {text!r}: lo must not exceed hi")
    return list(range(lo, hi + 1))


def _methods(text: str) -> list[str]:
    """``--method``: names of METHODS, each once, in the order given."""
    methods = _split_elements(text)
    for tok in methods:
        if tok not in METHODS:
            raise UsageError(f"unknown method {tok!r}; choose from {', '.join(METHODS)}")
    return list(dict.fromkeys(methods))


def _prime_power(text: str) -> tuple[int, int]:
    """``--q``: an odd prime power q, as (p, nu) with q = p^nu.  The exact root
    p at the largest nu is the least, so q is a prime power iff that p is prime."""
    q = _integer(text)
    for nu in reversed(range(1, q.bit_length() + 1)):
        p = 0  # the integer nu-th root of q, built bit by bit
        for bit in reversed(range(q.bit_length() // nu + 1)):
            if (p | 1 << bit) ** nu <= q:
                p |= 1 << bit
        if p**nu == q:
            break
    try:
        if p % 2 and is_prime(p):
            return p, nu
    except ValueError as e:  # p is past the range in which is_prime is proven
        raise UsageError(str(e)) from None
    raise UsageError(f"must be an odd prime power, got {q}")


def _modulus(text: str) -> list[int]:
    """``--modulus``: comma-separated F_p coefficients, low to high."""
    try:
        return [_signed(c.strip()) for c in text.split(",")]
    except ValueError:
        raise UsageError(f"expected a comma list of integers, got {text!r}") from None


def _build_ctx(args) -> FieldCtx:
    """The field of ``--p``/``--nu`` or ``--q``, whichever one the parser let through."""
    if args.q is None:
        return FieldCtx(args.p, 1 if args.nu is None else args.nu, args.modulus)
    if args.nu is not None:
        raise UsageError("give either --q or --p/--nu, not both")
    return FieldCtx(*args.q, args.modulus)


def _build_form(ctx: FieldCtx, args) -> QuadForm:
    """The form of ``--coeffs`` or ``--gram``, whichever one the parser let through."""
    if args.coeffs is not None:
        return QuadForm(ctx, tuple(_parse_element(ctx, tok) for tok in _split_elements(args.coeffs)))
    rows = [[_parse_element(ctx, tok) for tok in _split_elements(row)] for row in args.gram.split(";")]
    return diagonalize(ctx, rows)


def _coeffs_json(f: QuadForm) -> list:
    """The form's coefficients as written in JSON: ints for nu = 1, else coordinate lists."""
    if f.ctx.nu == 1:
        return list(f.coeffs)
    return [list(f.ctx.coeffs(a)) for a in f.coeffs]


def _spec(ctx: FieldCtx, form: QuadForm | None = None, P_values=(), methods=()) -> dict:
    """The ``spec`` block: the field, then the form, box sizes and methods when given."""
    out = {"p": ctx.p, "nu": ctx.nu, "modulus": list(ctx.modulus), "q": ctx.q}
    if form is not None:
        out["coeffs"] = _coeffs_json(form)
        out["case"] = classify(form).value
    if P_values:
        out["P"] = P_values
    if methods:
        out["methods"] = methods
    return out


# ---------------------------------------------------------------------------
# computations behind the subcommands


def _count_row(f: QuadForm, P: int, method: str, budget: int) -> dict:
    """One ``count`` data row."""
    label, count = METHODS[method]
    return {
        "q": f.ctx.q,
        "n": f.n,
        "coeffs": _coeffs_json(f),
        "case": classify(f).value,
        "P": P,
        "method": label,
        "value": count(f, P, budget),
    }


def cmd_count(f: QuadForm, P_values: list[int], methods: list[str], budget: int) -> dict:
    # cells run in order, so a refusal stops all work
    return {"data": [_count_row(f, P, m, budget) for P in P_values for m in methods]}


def _table_column(f: QuadForm, P_values: list[int], method: str, budget: int):
    """One method's rows in P order, derived by ``forms.table_rows``."""
    label, count = METHODS[method]
    rows = table_rows(lambda k: count(f, k, budget), f.ctx.q, P_values)
    for P, (n, prim, mor) in zip(P_values, rows):
        yield {"P": P, "method": label, "N": n, "N_primitive": prim, "morphisms": mor}


def cmd_table(f: QuadForm, P_values: list[int], methods: list[str], budget: int) -> dict:
    # zip pulls the rows lazily in P-major order, so a refusal stops all work
    columns = [_table_column(f, P_values, m, budget) for m in methods]
    return {"data": [row for rows in zip(*columns) for row in rows]}


def cmd_verify(ctx: FieldCtx, suite: str, kwargs: dict) -> dict:
    records = SUITES[suite](ctx, **kwargs)
    if not records:
        raise UsageError(f"verify {suite} has no instances at these bounds")
    return {
        "data": [{"suite": suite, **rec} for rec in records],
        "passed": sum(1 for r in records if r["ok"]),
        "failed": sum(1 for r in records if not r["ok"]),
    }


# ---------------------------------------------------------------------------
# emission


#: CSV columns of each command's data rows
_CSV_COLUMNS = {
    "count": ("q", "n", "case", "P", "method", "value"),
    "table": ("P", "method", "N", "N_primitive", "morphisms"),
    "verify": ("suite", "id", "ok"),
}


def _emit(payload: dict, command: str, spec: dict, emit: str, runtime_ms: int, stream) -> None:
    # counts are exact integers of any length: lift CPython's digit limit
    # on int-to-str conversion for the write only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if emit == "csv":
            columns = _CSV_COLUMNS[command]
            writer = csv.writer(stream)
            writer.writerow(columns)
            for r in payload["data"]:
                writer.writerow([int(r[c]) if isinstance(r[c], bool) else r[c] for c in columns])
            return
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "spec": spec,
            **payload,
            "meta": {"runtime_ms": runtime_ms},
        }
        json.dump(doc, stream, indent=2)
        stream.write("\n")
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# argument wiring

#: verify suite -> {parameter name: default}, read from its signature at
#: import, so a wrapper later put in place of a SUITES entry (a tracer's) hides none
_SUITE_PARAMS = {
    name: {p.name: p.default for p in inspect.signature(fn).parameters.values()}
    for name, fn in SUITES.items()
}


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _make_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    field = common.add_mutually_exclusive_group(required=True)
    field.add_argument("--p", type=_integer, help="odd prime characteristic")
    field.add_argument("--q", type=_prime_power, help="field size p^nu (alternative to --p/--nu)")
    common.add_argument("--nu", type=_integer, help="extension degree (default 1)")
    common.add_argument("--modulus", type=_modulus, help="comma list of F_p coefficients, low to high")
    common.add_argument("--emit", choices=["json", "csv"], default="json")
    # kept for argv lists that still pass it; benchmark v2 (ROADMAP item 1) deletes it
    common.add_argument("--jobs", type=_integer, default=1, help="accepted and ignored: cells run in order")

    form_args = _Parser(add_help=False)
    form = form_args.add_mutually_exclusive_group(required=True)
    form.add_argument("--coeffs", help="diagonal coefficients, comma separated")
    form.add_argument("--gram", help="symmetric Gram rows 'a,b;b,c'")
    box = form_args.add_mutually_exclusive_group(required=True)
    box.add_argument("--P", dest="P_values", metavar="P", type=lambda text: [_integer(text)], help="box exponent")
    box.add_argument("--P-range", dest="P_values", metavar="LO..HI", type=_P_range, help="inclusive P range")
    form_args.add_argument("--method", type=_methods, default="exact", help=f"comma list of: {','.join(METHODS)}")
    form_args.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET, help="enumeration budget (evaluations)")

    parser = _Parser(
        prog="quadricpoints",
        description="Exact point counts on diagonal quadrics over F_q(t).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("count", parents=[common, form_args], help="compute N(P)")
    sub.add_parser("table", parents=[common, form_args], help="N / primitive / morphism table")
    p_verify = sub.add_parser("verify", help="run an identity suite")
    suites = p_verify.add_subparsers(dest="suite", required=True, help="the identity suite to run")
    for name, params in _SUITE_PARAMS.items():
        p_suite = suites.add_parser(name, parents=[common])
        for bound, default in params.items():
            if bound != "ctx":  # a budget is >= 1, a grid bound >= 0
                bound_type = functools.partial(_integer, least=1 if bound == "budget" else 0)
                p_suite.add_argument(f"--{bound}", type=bound_type, default=default, help=f"default {default}")
    return parser


def main(argv=None) -> int:
    start = time.monotonic()
    try:
        args = _make_parser().parse_args(argv)
        ctx = _build_ctx(args)
        if args.command == "verify":
            kwargs = {name: getattr(args, name) for name in _SUITE_PARAMS[args.suite] if name != "ctx"}
            spec, payload = _spec(ctx), cmd_verify(ctx, args.suite, kwargs)
        else:
            f = _build_form(ctx, args)
            spec = _spec(ctx, f, args.P_values, args.method)
            command = cmd_count if args.command == "count" else cmd_table
            payload = command(f, args.P_values, args.method, args.budget)
        runtime_ms = int((time.monotonic() - start) * 1000)
        _emit(payload, args.command, spec, args.emit, runtime_ms, sys.stdout)
        return 1 if payload.get("failed") else 0
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
