"""End-to-end exercising of the command-line interface via main(argv)."""

import argparse
import inspect
import json
import sys
from fractions import Fraction

import pytest

from quadricpoints import FieldCtx, QuadForm, count_exact
from quadricpoints.cli import UsageError, _make_parser, _prime_power, main
from quadricpoints.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json_all_methods(capsys):
    code, out, _ = run(
        capsys,
        "count", "--p", "3", "--coeffs", "1,1,1,1", "--P", "1",
        "--method", "exact,circle,brute,conv",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "count"
    assert doc["spec"]["q"] == 3
    assert doc["spec"]["case"] == "split_even"
    assert [row["value"] for row in doc["data"]] == [33, 33, 33, 33]
    assert [row["method"] for row in doc["data"]] == [
        "exact_formula", "circle_reassembly", "brute_force", "convolution",
    ]
    assert "runtime_ms" in doc["meta"]


def test_count_csv_nonsplit(capsys):
    code, out, _ = run(
        capsys,
        "count", "--p", "3", "--coeffs", "1,1,1,2", "--P", "1", "--emit", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,n,case,P,method,value"
    assert lines[1] == "3,4,nonsplit_even,1,exact_formula,21"


def test_usage_errors(capsys):
    cases = [
        ("count", "--p", "2", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--coeffs", "1,1,1", "--P", "1"),  # no field given
        ("count", "--p", "3", "--P", "1"),  # no form given
        ("count", "--p", "3", "--coeffs", "1,1,1"),  # no box given
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--method", "magic"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--P-range", "1..2"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--gram", "1,0;0,1", "--P", "1"),
        ("count", "--p", "3", "--q", "9", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--q", "9", "--nu", "3", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--q", "12", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--q", "0", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--q", "1", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "0"),
        ("count", "--p", "3", "--coeffs", "1,0,1", "--P", "1"),  # zero coefficient
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P-range", "nonsense"),
        ("count", "--p", "3", "--coeffs", "1,,1,1", "--P", "1"),  # empty item
        ("count", "--p", "3", "--nu", "2", "--coeffs", "[1,0],1,1", "--P", "1"),  # comma inside brackets
        ("count", "--p", "3", "--coeffs", "1,1,1,", "--P", "1"),  # trailing comma
        ("count", "--p", "3", "--gram", "1,0;0,,1", "--P", "1"),  # empty item in a row
        ("count", "--p", "3", "--gram", "1,0;;0,1", "--P", "1"),  # empty row
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--method", "exact,"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--method", "exact,,circle"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1:2"),  # only 'lo..hi'
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--method", "brute", "--budget", "-5"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--method", "brute", "--budget", "0"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--jobs", "0"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--jobs", "-3"),
        ("count", "--p", "3317044064679887385961981", "--coeffs", "1,1,1", "--P", "1"),  # past is_prime's range
        ("count", "--q", "3317044064679887385961981", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--p", "1_1", "--coeffs", "1,1,1", "--P", "1"),  # int() would read 11
        ("count", "--p", "+3", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--p", "3", "--nu", "+2", "--coeffs", "1,1,1", "--P", "1"),
        # only ASCII digits: not full-width, Arabic-Indic or blank-padded ones
        ("count", "--p", "\uff13", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--p", " 3", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "\u0661"),
        ("count", "--p", "3", "--coeffs", "1_1,1,1", "--P", "1"),  # int() would read 11
        ("count", "--p", "3", "--modulus", "2,\uff12,1", "--coeffs", "1,1,1", "--P", "1"),
        ("verify", "nosuch", "--p", "3"),
        ("verify", "weyl", "--p", "3", "--nmax", "4", "--maxdeg", "9", "--pmax", "1"),
        ("verify", "phis", "--p", "5", "--pmax", "5"),
        ("verify", "gauss", "--p", "3", "--n", "2"),
        ("verify", "--p", "3", "weyl"),  # the suite comes before the field flags
        # argparse's own errors take the same path: one line, no usage dump
        (),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "x"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--bogus"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--emit", "xml"),
        ("table", "--p", "3", "--coeffs", "1,1,1", "--P", "1", "--budget", "x"),
        ("verify", "--p", "3"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, f"expected usage error for {argv}"
        assert err.startswith("error:")
        assert err.count("\n") == 1 and err.endswith("\n") and "usage:" not in err, err
    code, _, err = run(capsys, "count", "--p", "3", "--nu", "0", "--coeffs", "1,1,1", "--P", "1")
    assert (code, err) == (2, "error: argument --nu: expected an integer >= 1, got '0'\n")
    # an element keeps its optional leading minus sign
    code, _, err = run(capsys, "count", "--p", "3", "--coeffs=-1,1,1", "--P", "1")
    assert (code, err) == (0, "")


def test_verify_names_the_flags_it_does_not_take(capsys):
    code, _, err = run(capsys, "verify", "weyl", "--p", "3", "--nmax", "4", "--maxdeg", "9", "--pmax", "1")
    assert code == 2
    assert err == "error: unrecognized arguments: --nmax 4 --maxdeg 9\n"
    # only a suite whose signature has a budget takes --budget
    code, out, err = run(capsys, "verify", "phis", "--p", "3", "--budget", "10")
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --budget 10\n")


def test_a_bad_element_is_named_with_the_accepted_forms(capsys):
    for argv, token in [
        (("count", "--p", "3", "--coeffs", "1,x", "--P", "1"), "'x'"),
        (("count", "--p", "3", "--gram", "1,x;x,1", "--P", "1"), "'x'"),
        (("count", "--q", "9", "--coeffs", "[1 x],1,1", "--P", "1"), "'[1 x]'"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: cannot read element {token}: write an integer or '[c0 c1 ...]'\n", argv
    # a bracketed element with more coordinates than nu is named too
    code, _, err = run(capsys, "count", "--q", "9", "--coeffs", "[1 1 1],1,1", "--P", "1")
    assert (code, err) == (2, "error: element '[1 1 1]' has 3 coordinates; F_9 takes at most 2\n")


def test_verify_takes_the_suite_first(capsys):
    # a field flag before the suite is named, with the rule it breaks
    for argv in [("verify", "--p", "3"), ("verify", "--p", "3", "weyl"), ("verify", "--q", "9", "gauss")]:
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
        assert argv[1] in err and "suite" in err
    # a misspelt suite keeps argparse's line, and --help still prints help
    code, _, err = run(capsys, "verify", "wyl", "--p", "3")
    assert code == 2 and err.startswith("error: argument suite: invalid choice: 'wyl'")
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0 and capsys.readouterr().out.startswith("usage: quadricpoints verify")


def _subcommands(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _commands() -> dict:
    """``count``, ``table`` and each ``verify`` suite: its argv head and parser."""
    commands = _subcommands(_make_parser())
    out = {name: ([name], commands[name]) for name in ("count", "table")}
    for suite, parser in _subcommands(commands["verify"]).items():
        out[suite] = (["verify", suite], parser)
    return out


def test_a_flag_is_taken_only_as_spelled(capsys):
    # argparse's prefix matching would read --n as --nu (F_9), --meth as
    # --method and --bud as --budget, --mm as phis's --mmax
    count = ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "1")
    for argv in [
        ("count", "--p", "3", "--n", "2", "--coeffs", "1,1,1", "--P", "1"),
        (*count, "--meth", "brute"),
        (*count, "--bud", "5"),
        ("verify", "phis", "--p", "3", "--mm", "1"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, err
    # every proper prefix of a long option, unless an option itself, is refused
    form = ["--p", "3", "--coeffs", "1,1,1", "--P", "1"]
    for name, (head, parser) in _commands().items():
        base = head + (form if name in ("count", "table") else ["--p", "3"])
        options = set(parser._option_string_actions)
        prefixes = {o[:end] for o in options if o.startswith("--") for end in range(3, len(o))} - options
        assert prefixes
        for prefix in sorted(prefixes):
            assert run(capsys, *base, prefix, "1")[0] == 2, (name, prefix)


def test_each_suite_takes_exactly_its_parameters():
    commands = _commands()
    common = {a.dest for a in commands["count"][1]._actions} - {"coeffs", "gram", "P_values", "method", "budget"}
    for name, fn in SUITES.items():
        parser = commands[name][1]
        bounds = {a.dest: a.default for a in parser._actions if a.dest not in common}
        params = inspect.signature(fn).parameters.values()
        assert bounds == {p.name: p.default for p in params if p.name != "ctx"}, name
        assert {a.option_strings[0] for a in parser._actions if a.dest in bounds} == {f"--{b}" for b in bounds}


def test_q_flag_takes_any_odd_prime_power(capsys):
    # q is split by integer roots, not trial division: (10^9 + 7)^2 would take 10^9 divisions
    big = 10000000000000061
    for q, p, nu in [(3, 3, 1), (9, 3, 2), (3**20, 3, 20), (5**7, 5, 7), (big, big, 1), ((10**9 + 7) ** 2, 10**9 + 7, 2)]:
        assert _prime_power(str(q)) == (p, nu)
    # past is_prime's proven range only q itself is out of reach, not its least root
    assert _prime_power(str((10**9 + 7) ** 3)) == (10**9 + 7, 3)
    for q in (1, 2, 12, 15, 2**10):
        with pytest.raises(UsageError, match="must be an odd prime power"):
            _prime_power(str(q))
    code, out, _ = run(capsys, "count", "--q", str(big), "--coeffs", "1,1,1", "--P", "1")
    assert code == 0
    (row,) = json.loads(out)["data"]
    assert row["q"] == big and row["value"] == count_exact(QuadForm(FieldCtx(big), (1, 1, 1)), 1)


def test_count_rows_encode_coefficients(capsys):
    code, out, _ = run(capsys, "count", "--p", "3", "--coeffs", "1,1,1,2", "--P", "2")
    assert code == 0
    doc = json.loads(out)
    (row,) = doc["data"]
    assert list(row) == ["q", "n", "coeffs", "case", "P", "method", "value"]
    assert row["q"] == 3 and row["n"] == 4 and row["P"] == 2
    assert row["case"] == "nonsplit_even" and row["method"] == "exact_formula"
    assert row["coeffs"] == doc["spec"]["coeffs"] == [1, 1, 1, 2]
    code, out, _ = run(capsys, "count", "--q", "9", "--coeffs", "1,1,1", "--P", "1")
    assert code == 0
    doc = json.loads(out)
    (row,) = doc["data"]
    assert row["q"] == 9 and row["value"] == 81
    assert row["coeffs"] == doc["spec"]["coeffs"] == [[1, 0], [1, 0], [1, 0]]


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "count", "--p", "3", "--coeffs", "1,1,1,1,1,1", "--P", "3",
        "--method", "brute", "--budget", "1000",
    )
    assert code == 3
    assert "budget" in err


def test_one_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; a refused --budget and a CSV run
    # must not leak into the next call's defaults
    argv = ("count", "--p", "3", "--coeffs", "1,1,1,1,1,1", "--P", "2", "--method", "brute")
    assert run(capsys, *argv, "--budget", "5")[0] == 3
    code, out, _ = run(capsys, *argv, "--emit", "csv")
    assert code == 0 and out.startswith("q,n,case,P,method,value")
    code, out, _ = run(capsys, *argv)  # 3^12 evaluations, within the default budget
    assert code == 0
    assert json.loads(out)["data"][0]["value"] == count_exact(QuadForm(FieldCtx(3), (1,) * 6), 2)


@pytest.mark.parametrize(
    "argv",
    [
        ("counts", "--pmax", "0"),
        ("mor", "--pmax", "0"),
        ("weyl", "--pmax", "0"),
        ("local", "--nmax", "0"),
        ("arcs", "--nmax", "1"),
        ("gauss", "--maxdeg", "-1"),
    ],
    ids=lambda argv: argv[0],
)
def test_verify_refuses_an_empty_or_negative_grid(capsys, argv):
    code, out, err = run(capsys, "verify", argv[0], "--p", "3", *argv[1:])
    assert code == 2 and out == ""
    if argv[-1] == "-1":  # the bound's converter refuses before the suite runs
        assert err == "error: argument --maxdeg: expected an integer >= 0, got '-1'\n"
    else:
        assert err == f"error: verify {argv[0]} has no instances at these bounds\n"


def test_emitter_writes_counts_of_any_length(capsys):
    limit = sys.get_int_max_str_digits()
    argv = ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "10000", "--method", "exact")
    code, json_out, _ = run(capsys, *argv)
    assert code == 0
    code, csv_out, _ = run(capsys, *argv, "--emit", "csv")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # the emitter restored the limit
    want = count_exact(QuadForm(FieldCtx(3), (1, 1, 1)), 10000)
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(want)) > limit
        assert json.loads(json_out)["data"][0]["value"] == want
        assert csv_out.splitlines()[1] == f"3,3,odd,10000,exact_formula,{want}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "gauss", "--p", "3", "--maxdeg", "1", "--maxk", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0 and doc["passed"] == len(doc["data"]) > 0
    assert all(row["ok"] for row in doc["data"])


def test_table_morphism_column(capsys):
    code, out, _ = run(
        capsys,
        "table", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1..4", "--emit", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "P,method,N,N_primitive,morphisms"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[2]) for r in rows] == [9, 33, 153, 513]
    assert [int(r[3]) for r in rows] == [4, 4, 28, 28]
    assert [int(r[4]) for r in rows] == [0, 24, 0, 216]


def test_table_methods_agree(capsys):
    base = ["table", "--p", "3", "--coeffs", "1,1,1,2", "--P", "1", "--emit", "csv"]
    frames = {}
    for method in ("exact", "circle", "brute", "conv"):
        code, out, _ = run(capsys, *base, "--method", method)
        assert code == 0
        frames[method] = [line.split(",")[2:] for line in out.strip().splitlines()[1:]]
    assert frames["exact"] == frames["circle"] == frames["brute"] == frames["conv"]


def test_empty_range(capsys):
    for command in ("count", "table"):
        code, out, err = run(
            capsys, command, "--p", "3", "--coeffs", "1,1,1", "--P-range", "3..2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'3..2'" in err


def _count_calls(monkeypatch, name):
    import quadricpoints.verify as verify_mod

    calls = []
    real = getattr(verify_mod, name)

    def counted(f, P, *rest):
        calls.append(P)
        return real(f, P, *rest)

    monkeypatch.setattr(verify_mod, name, counted)
    return calls


def test_table_computes_each_convolution_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "convolution_count")
    code, _, _ = run(
        capsys, "table", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1..3", "--method", "conv"
    )
    assert code == 0
    assert sorted(calls) == [0, 1, 2, 3, 4]


def test_table_computes_each_brute_count_once(capsys, monkeypatch):
    # primitive and morphism counts derive from N, as on the conv column
    calls = _count_calls(monkeypatch, "brute_count")
    code, _, _ = run(
        capsys, "table", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1..2", "--method", "brute"
    )
    assert code == 0
    assert sorted(calls) == [0, 1, 2, 3]


def test_table_row_refuses_at_its_largest_box_first(capsys, monkeypatch):
    # brute can afford N(3) (3^12 evaluations) but not N(4): the row refuses
    # before it computes N(3) or N(2)
    calls = _count_calls(monkeypatch, "brute_count")
    code, out, err = run(
        capsys, "table", "--p", "3", "--coeffs", "1,1,1,1", "--P", "3", "--method", "brute", "--budget", "1000000"
    )
    assert code == 3 and out == "" and err.startswith("budget exceeded:")
    assert calls == [4]


def test_verify_counts_takes_its_sides_from_the_method_table(capsys, monkeypatch):
    # a failing record carries every side; a route added to METHODS is one more side
    import quadricpoints.verify as verify_mod

    monkeypatch.setitem(verify_mod.METHODS, "off_by_one", ("off", lambda f, P, budget: count_exact(f, P) + 1))
    code, out, _ = run(capsys, "verify", "counts", "--p", "3", "--nmax", "4", "--pmax", "1")
    assert code == 1
    records = json.loads(out)["data"]
    assert records and all(list(r)[3:] == list(verify_mod.METHODS) for r in records)
    assert list(verify_mod.METHODS)[:4] == ["brute", "exact", "circle", "conv"]


def test_count_refusal_stops_later_cells(capsys, monkeypatch):
    # brute refuses 3^28 evaluations; the conv cell after it must not run
    import quadricpoints.cli as cli_mod

    calls = []
    label, _ = cli_mod.METHODS["conv"]
    monkeypatch.setitem(cli_mod.METHODS, "conv", (label, lambda f, P, budget: calls.append(P) or 0))
    code, out, err = run(
        capsys, "count", "--p", "3", "--coeffs", "1,1,1,1", "--P", "7", "--method", "brute,conv", "--jobs", "2"
    )
    assert code == 3 and out == "" and err.startswith("budget exceeded:")
    assert calls == []


def test_byte_determinism_across_runs_and_jobs(capsys):
    # --jobs is accepted and ignored: every command computes its cells in order
    cases = [
        (["table", "--p", "3", "--coeffs", "1,1,1,1", "--P-range", "1..2", "--method", "exact,conv"], ("1", "1", "3")),
        (["count", "--p", "3", "--coeffs", "1,1,1,2", "--P-range", "1..3", "--method", "exact,circle,brute,conv"], ("1", "1", "4")),
    ]
    for argv, jobs_values in cases:
        docs = []
        for jobs in jobs_values:
            code, out, _ = run(capsys, *argv, "--jobs", jobs)
            assert code == 0
            doc = json.loads(out)
            doc.pop("meta")
            docs.append(json.dumps(doc))
        assert docs[0] == docs[1] == docs[2]


def test_prime_field_modulus_is_the_one_model(capsys):
    code, out, _ = run(capsys, "count", "--p", "3", "--modulus", "2,1", "--coeffs", "1,1,1", "--P", "1")
    assert code == 0
    assert json.loads(out)["spec"]["modulus"] == [0, 1]
    code, _, err = run(capsys, "count", "--p", "3", "--modulus", "1,x", "--coeffs", "1,1,1", "--P", "1")
    assert code == 2 and err == "error: argument --modulus: expected a comma list of integers, got '1,x'\n"


def test_q_flag_extension_field(capsys):
    code, out, _ = run(
        capsys, "count", "--q", "9", "--coeffs", "1,1,1", "--P", "1", "--emit", "csv"
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "9,3,odd,1,exact_formula,81"


def test_bracketed_extension_elements(capsys):
    code, out, _ = run(
        capsys,
        "count", "--p", "3", "--nu", "2", "--coeffs", "[1 0],[0 1],[2 1]",
        "--P", "1", "--method", "exact,brute",
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["value"] for row in doc["data"]] == [81, 81]
    assert doc["spec"]["coeffs"] == [[1, 0], [0, 1], [2, 1]]


def test_gram_flag(capsys):
    code, out, _ = run(
        capsys,
        "count", "--p", "3", "--gram", "0,1;1,0", "--P", "1",
        "--method", "circle,brute", "--emit", "csv",
    )
    assert code == 0
    values = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
    assert values == ["5", "5"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    import quadricpoints.verify as verify_mod

    def broken(ctx, **kwargs):
        return [{"id": "always-bad", "ok": False}]

    monkeypatch.setitem(verify_mod.SUITES, "gauss", broken)
    code, out, _ = run(capsys, "verify", "gauss", "--p", "3")
    assert code == 1
    assert json.loads(out)["failed"] == 1


def test_failing_verify_record_carries_both_sides(capsys, monkeypatch):
    import quadricpoints.verify as verify_mod

    closed = verify_mod.local_factor_closed
    monkeypatch.setattr(verify_mod, "local_factor_closed", lambda f, r: closed(f, r) + 1)
    code, out, _ = run(capsys, "verify", "local", "--p", "3", "--nmax", "2", "--maxdeg", "1")
    assert code == 1
    records = {rec["id"]: rec for rec in json.loads(out)["data"]}
    # S_1 = 1 directly, and the broken closed side says 2
    assert records["S_r[(1,),r=1]"] == {
        "suite": "local",
        "id": "S_r[(1,),r=1]",
        "ok": False,
        "lhs": {"p": 3, "coeffs": [1, 0]},
        "rhs": 2,
    }
    # the product-form check does not use the closed side and keeps its passing bytes
    assert records["S_prod[(1, 1)]"] == {"suite": "local", "id": "S_prod[(1, 1)]", "ok": True}
    # a check of more than two values carries each by name; a Fraction as its string
    assert verify_mod._record("m", closed=3, brute=4, derived=3) == {
        "id": "m", "ok": False, "closed": 3, "brute": 4, "derived": 3,
    }
    assert verify_mod._record("a", lhs=Fraction(1, 3), rhs=Fraction(1, 9))["lhs"] == "1/3"


def test_verify_counts_checks_the_convolution(capsys, monkeypatch):
    import quadricpoints.verify as verify_mod

    conv = verify_mod.convolution_count
    monkeypatch.setattr(verify_mod, "convolution_count", lambda f, P: conv(f, P) + 1)
    code, out, _ = run(capsys, "verify", "counts", "--p", "3", "--nmax", "3", "--pmax", "1")
    assert code == 1
    record = json.loads(out)["data"][0]
    assert record == {
        "suite": "counts", "id": "N[(1, 1, 1),P=1]", "ok": False,
        "brute": 9, "exact": 9, "circle": 9, "conv": 10,
    }
