"""End-to-end exercising of the command-line interface via main(argv)."""

import json

import pytest

from quadricpoints.cli import main


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
        ("count", "--q", "12", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--q", "0", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--q", "1", "--coeffs", "1,1,1", "--P", "1"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P", "0"),
        ("count", "--p", "3", "--coeffs", "1,0,1", "--P", "1"),  # zero coefficient
        ("count", "--p", "3", "--coeffs", "1,2", "--P", "1", "--method", "exact"),
        ("count", "--p", "3", "--coeffs", "1,1,1", "--P-range", "nonsense"),
        ("verify", "nosuch", "--p", "3"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, f"expected usage error for {argv}"
        assert err.startswith("error:")


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "count", "--p", "3", "--coeffs", "1,1,1,1,1,1", "--P", "3",
        "--method", "brute", "--budget", "1000",
    )
    assert code == 3
    assert "budget" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("QUADRICPOINTS_BUDGET", "1000")
    code, _, _ = run(
        capsys,
        "count", "--p", "3", "--coeffs", "1,1,1,1,1,1", "--P", "3", "--method", "brute",
    )
    assert code == 3
    # explicit flag wins over the environment
    monkeypatch.setenv("QUADRICPOINTS_BUDGET", "1")
    code, out, _ = run(
        capsys,
        "count", "--p", "3", "--coeffs", "1,1,1", "--P", "1",
        "--method", "brute", "--budget", "100000",
    )
    assert code == 0
    assert json.loads(out)["data"][0]["value"] == 9


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
    import quadricpoints.cli as cli_mod

    calls = []
    real = getattr(cli_mod, name)

    def counted(f, P, *rest):
        calls.append(P)
        return real(f, P, *rest)

    monkeypatch.setattr(cli_mod, name, counted)
    return calls


def test_table_computes_each_convolution_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "convolution_count")
    code, _, _ = run(
        capsys, "table", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1..3", "--method", "conv"
    )
    assert code == 0
    assert sorted(calls) == [1, 2, 3, 4]  # N(0) = 1 needs no call


def test_table_computes_each_brute_count_once(capsys, monkeypatch):
    primitive = _count_calls(monkeypatch, "brute_primitive_count")
    full = _count_calls(monkeypatch, "brute_count")
    code, _, _ = run(
        capsys, "table", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1..2", "--method", "brute"
    )
    assert code == 0
    assert sorted(primitive) == [1, 2, 3]
    assert sorted(full) == [1, 2]


def test_byte_determinism_across_runs_and_jobs(capsys):
    argv = [
        "table", "--p", "3", "--coeffs", "1,1,1,1", "--P-range", "1..2",
        "--method", "exact,conv",
    ]
    docs = []
    for jobs in ("1", "1", "3"):
        code, out, _ = run(capsys, *argv, "--jobs", jobs)
        assert code == 0
        doc = json.loads(out)
        doc.pop("meta")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1] == docs[2]


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
