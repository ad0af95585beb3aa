"""CLI output frozen byte for byte: exit code, stderr and the document minus ``meta``.

``golden_cli.json`` was written by an earlier, trusted version of the code.
``PYTHONPATH=src python tests/test_golden.py`` only appends: it keeps every
record already in the fixture and runs the jobs past its end, so a new job
is recorded without re-recording an old one.  To change a record on
purpose, delete it and every record after it, regenerate, and list the
change in the change log.
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
    # diagonalize: a pivot swap with the last index, then with a middle one
    ["count", "--p", "3", "--gram", "0,1,0;1,0,1;0,1,2", "--P-range", "1..2", *ALL],
    ["count", "--p", "3", "--gram", "0,0,1;0,2,0;1,0,0", "--P", "2", "--method", "circle,brute"],
    # an all-zero diagonal: x_0 -> x_0 + x_off runs twice
    ["table", "--p", "3", "--gram", "0,1,0,0;1,0,0,0;0,0,0,1;0,0,1,0", "--P-range", "1..2", "--method", "exact,conv"],
    ["count", "--q", "9", "--gram", "0,[0 1],0;[0 1],0,0;0,0,[2 2]", "--P", "1", "--method", "exact,brute"],
    # a suite's flag defaults are its signature's defaults
    ["verify", "phis", "--p", "3"],
    # --budget reaches the suites that take one
    ["verify", "counts", "--p", "3", "--nmax", "3", "--pmax", "1", "--budget", "10"],
    # exact at n = 1 (N = 1, no morphisms) and on a split plane (N = 2q^P - 1)
    ["table", "--p", "5", "--coeffs", "2", "--P-range", "1..3", *ALL],
    ["table", "--q", "9", "--coeffs", "1,1", "--P-range", "1..2", *ALL],
    # closed layer sums against the local factors summed over each layer's moduli
    ["verify", "layers", "--p", "3"],
    # the circle route in a large box: P + 1 closed terms
    ["count", "--p", "3", "--coeffs", "1,1,1", "--P", "1000", "--method", "exact,circle"],
    # an even one in a large box: nonsplit n = 4, whose count sums the ratio x = -1
    ["count", "--p", "5", "--coeffs", "1,1,1,2", "--P", "300", "--method", "exact,circle"],
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
    records = json.loads(FIXTURE.read_text())
    records += [run(job) for job in JOBS[len(records):]]
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    sys.exit(0)
