"""CLI output frozen byte for byte: exit code, stderr and the document minus ``meta``.

``golden_cli.json`` was written by an earlier, trusted version of the code.
Regenerate it (``PYTHONPATH=src python tests/test_golden.py``) only when an
output change is intended, and say so in the change log.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from quadricpoints.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

ALL = ["--method", "exact,circle,brute,conv"]
JOBS = [
    ["count", "--p", "3", "--coeffs", "1,1,1,1", "--P-range", "1..3", *ALL],
    ["count", "--p", "5", "--coeffs", "1,2,3", "--P-range", "1..2", *ALL],
    ["count", "--p", "7", "--coeffs", "1,3", "--P-range", "1..2", "--method", "circle,brute,conv"],
    ["table", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1..3", *ALL],
    ["table", "--p", "5", "--coeffs", "1,1,2,3", "--P", "1", *ALL],
    ["count", "--q", "9", "--coeffs", "1,1,1", "--P", "1", *ALL],
    ["table", "--p", "5", "--coeffs", "1,1,2,3", "--P-range", "1..2", *ALL, "--jobs", "2"],
    # two refusing columns: the first failing row's refusal (brute at P = 5) wins
    ["table", "--p", "3", "--coeffs", "1,1,1", "--P-range", "5..7", "--method", "conv,brute", "--jobs", "2"],
    ["table", "--p", "7", "--coeffs", "1,3", "--P-range", "1..2", "--method", "circle,brute,conv"],
    ["table", "--p", "3", "--coeffs", "1,1", "--P", "1", "--method", "circle,exact"],
    ["table", "--q", "9", "--coeffs", "1,1,1,1", "--P", "1", "--method", "exact,conv"],
    ["count", "--p", "3", "--nu", "3", "--coeffs", "1,1,1", "--P", "1", "--method", "exact,conv"],
    ["count", "--p", "3", "--gram", "0,1;1,0", "--P-range", "1..2", "--method", "circle,brute,conv"],
    ["table", "--p", "3", "--coeffs", "1,1,1,2", "--P-range", "1..3", *ALL, "--emit", "csv"],
    ["count", "--p", "3", "--coeffs", "1,1,1,1,1,1", "--P", "3", "--method", "brute", "--budget", "1000"],
    ["verify", "gauss", "--q", "9", "--maxdeg", "1", "--maxk", "2"],
    ["verify", "mor", "--p", "3", "--nmax", "4", "--pmax", "2"],
    ["verify", "weyl", "--p", "3", "--n", "2", "--pmax", "2"],
    ["verify", "weyl", "--q", "9", "--n", "2", "--pmax", "1"],
    ["verify", "arcs", "--p", "3", "--nmax", "3", "--pmax", "2"],
]


def run(argv):
    """One job's exit code, stderr and stdout: the JSON document minus ``meta``, or CSV lines."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if text.startswith("{"):
        stdout = json.loads(text)
        del stdout["meta"]
    else:
        stdout = text.splitlines()
    return {"argv": list(argv), "exit": code, "stderr": err.getvalue(), "stdout": stdout}


@pytest.mark.parametrize("index", range(len(JOBS)), ids=lambda i: f"{i}-{JOBS[i][0]}")
def test_cli_output_matches_golden(index):
    expected = json.loads(FIXTURE.read_text())[index]
    # dumps compares key order too, as the emitted bytes would
    assert json.dumps(run(JOBS[index])) == json.dumps(expected)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps([run(job) for job in JOBS], indent=1) + "\n")
    sys.exit(0)
