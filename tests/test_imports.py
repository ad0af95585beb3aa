"""Only the oracles load numpy, at their first call.

The test process itself has numpy loaded, so each check runs in a fresh
interpreter with the package's source directory on its path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import quadricpoints
from quadricpoints import FieldCtx
from quadricpoints.oracle import _scaled_index

SRC = Path(quadricpoints.__file__).resolve().parents[1]

#: Runs each argv list of sys.argv[1] through ``cli.main`` in turn and
#: prints whether numpy was loaded after the import and after each run,
#: and each run's exit code and ``data``.
CLI_CHILD = """
import contextlib, io, json, sys
import quadricpoints
from quadricpoints import cli

loaded, runs = ["numpy" in sys.modules], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    loaded.append("numpy" in sys.modules)
    runs.append([code, json.loads(out.getvalue())["data"]])
print(json.dumps([loaded, runs]))
"""

WITHOUT_NUMPY = [
    ["count", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1..3", "--method", "exact,circle"],
    ["table", "--p", "3", "--coeffs", "1,1,1,2", "--P-range", "1..2"],
    ["verify", "phis", "--p", "7"],
    ["verify", "local", "--p", "3", "--nmax", "3", "--maxdeg", "1"],
]

ORACLES = ["count", "--p", "3", "--coeffs", "1,1,1", "--P-range", "1..3", "--method", "exact,brute,conv"]


def _fresh(*args):
    """The JSON printed last by ``python -c`` on ``args`` in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_closed_circle_and_identity_paths_leave_numpy_unloaded():
    loaded, runs = _fresh(CLI_CHILD, json.dumps(WITHOUT_NUMPY + [ORACLES]))
    # the import and every run before the oracles leave numpy out; the oracles load it
    assert loaded == [False] * (1 + len(WITHOUT_NUMPY)) + [True]
    assert [code for code, _ in runs] == [0] * len(runs)
    by_P = {}
    for row in runs[-1][1]:
        by_P.setdefault(row["P"], {})[row["method"]] = row["value"]
    assert sorted(by_P) == [1, 2, 3]
    for P, values in by_P.items():
        assert values["brute_force"] == values["convolution"] == values["exact_formula"], (P, values)


def test_an_oracle_helper_called_first_imports_numpy_itself():
    # no entry point runs before the helper, so it cannot rely on one to load numpy
    script = "import json; from quadricpoints import FieldCtx, oracle\n"
    script += "print(json.dumps(oracle._scaled_index(FieldCtx(3), 2, 3).tolist()))"
    assert np.array_equal(_fresh(script), _scaled_index(FieldCtx(3), 2, 3))
