"""
Driving the package from the command line
=========================================

The console script `quadricpoints` wraps the library: counts, tables,
and verification suites, with JSON or CSV output.  This demo shells out
to the command line as a user would; it runs ``python -m
quadricpoints.cli``, which is the same program, so it also works from a
checkout with ``PYTHONPATH=src``.
"""

import subprocess
import sys


def show(args):
    print("$ " + " ".join(args))
    argv = [sys.executable, "-m", "quadricpoints.cli", *args[1:]]
    proc = subprocess.run(argv, capture_output=True, text=True)
    print(proc.stdout.rstrip())
    if proc.returncode != 0:
        print(f"  (exit code {proc.returncode}: {proc.stderr.strip()})")
    print()


# one count, every method, CSV projection
show(
    [
        "quadricpoints", "count", "--p", "3", "--coeffs", "1,1,1,2",
        "--P", "1", "--method", "exact,circle,brute,conv", "--emit", "csv",
    ]
)

# a growth table over a P range
show(
    [
        "quadricpoints", "table", "--p", "3", "--coeffs", "1,1,1",
        "--P-range", "1..4", "--emit", "csv",
    ]
)

# extension fields: name the field by q, or spell out the coefficients
show(["quadricpoints", "count", "--q", "9", "--coeffs", "1,1,1", "--P", "1", "--emit", "csv"])

# identity suites return a nonzero exit code on any failed instance
show(["quadricpoints", "verify", "phis", "--p", "5", "--emit", "csv"])

# each suite is a subcommand with its own bound flags; --help lists them with their defaults
show(["quadricpoints", "verify", "weyl", "--help"])

# refusing an oversized enumeration is an explicit exit code, not a hang
show(
    [
        "quadricpoints", "count", "--p", "3", "--coeffs", "1,1,1,1,1,1",
        "--P", "3", "--method", "brute", "--budget", "1000",
    ]
)

# bad input is one error line and exit code 2, never a usage dump or a traceback
show(["quadricpoints", "count", "--p", "3", "--coeffs", "1,1,1", "--P-range", "3..2"])

# a flag is taken only as spelled: --n is not read as --nu
show(["quadricpoints", "count", "--p", "3", "--n", "2", "--coeffs", "1,1,1", "--P", "1"])
