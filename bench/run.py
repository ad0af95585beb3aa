"""Benchmark for quadricpoints: one workload per process, through the public CLI.

Usage (from the repository root):

    python3 bench/run.py --workload circle --seed 1 --seconds 36 --trace 0

Each job of the workload is one in-process ``quadricpoints.cli.main(argv)``
call with stdout captured; a pass runs the job list back to back (a
closed loop, one client).  Passes repeat for about ``--seconds``.
Every record of every pass is checked after the timing ends.

Times are taken at nominal host speed (see ``host.py``): each job's wall
time is scaled by a calibration loop timed just before and after it.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
``run_s`` (median pass time), ``setup_s`` (median over fresh
interpreters, one before each pass, of importing the package, building
the workload's fields and the CLI parser) and ``peak_rss_mb``.  Raw wall
times go to the stderr summary.  ``--trace 1`` reports the per-layer
metrics: untraced passes for half the time, then one span-traced pass
(spans written to ``.bench_out/``) and one counting pass.  The last
stdout line is one JSON object; a human summary goes to stderr.  Without
the package source under ``src/`` the run exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "quadricpoints" / "__init__.py").is_file():
    sys.exit(f"error: no package source at {SRC}")
sys.path.insert(0, str(SRC))

import host  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quadricpoints import cli  # noqa: E402

#: Fewest set-up children in a run; one starts before each pass.
SETUP_REPEATS = 7

SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from host import calibrate
before = calibrate()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import quadricpoints
from quadricpoints import cli
for p, nu in json.loads(sys.argv[3]):
    quadricpoints.FieldCtx(p, nu)
cli._make_parser()
elapsed = time.perf_counter() - t0
print(json.dumps([elapsed, before, calibrate()]))
"""


def run_pass(job_list, tracer=None):
    """Run every job once.

    Returns per-job wall seconds, the same at nominal host speed, and
    [(exit code, parsed JSON or None)].
    """
    outputs, job_times, loops = [], [], []
    gc.collect()
    loops.append(host.calibrate())
    for index, argv in enumerate(job_list):
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # a crashing job fails its records; the run goes on
                traceback.print_exc(file=err)
                rc = -1
        job_times.append(time.perf_counter() - start)
        loops.append(host.calibrate())
        outputs.append((rc, out.getvalue(), err.getvalue()))
    for index, (rc, _, err_text) in enumerate(outputs):
        if rc not in (0, 1):
            print(f"job {index} exited {rc}: {err_text.strip()}", file=sys.stderr)
    nominal = [host.adjusted(t, *loops[i : i + 2]) for i, t in enumerate(job_times)]
    return job_times, nominal, [(rc, _parse(text)) for rc, text, _ in outputs]


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def check(job_list, expected, passes, reference=None) -> tuple[int, int]:
    """(attempted, failed) over all passes.

    With a reference pass, a pass's records also fail where its ``data``
    differs from the reference's.
    """
    attempted = failed = 0
    for outputs in passes:
        for j, (argv, want, (rc, doc)) in enumerate(zip(job_list, expected, outputs)):
            a, f = workloads.check_job(argv, want, rc, doc)
            if reference is not None and f < a:
                ref_doc = reference[j][1]
                if doc is None or ref_doc is None or json.dumps(doc["data"]) != json.dumps(ref_doc["data"]):
                    f = a
            attempted += a
            failed += f
    return attempted, failed


def setup_once(fields) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter that builds ``fields``: (wall, nominal)."""
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(BENCH), str(SRC), json.dumps(fields)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed, before, after = json.loads(child.stdout)
    return elapsed, host.adjusted(elapsed, before, after)


def timed_passes(job_list, seconds: float, before_pass=None):
    """Untraced passes for about ``seconds`` (at least one).

    Returns per-pass wall seconds, per-pass seconds at nominal host speed
    and per-pass outputs.  ``before_pass()``, if given, runs before each
    pass, inside the run's time.  Another pass starts only if it should
    end within half a pass of the deadline, so a run lasts about
    ``seconds`` whatever the pass length.
    """
    walls, nominals, passes, steps = [], [], [], []
    start = time.perf_counter()
    while not steps or time.perf_counter() - start + statistics.median(steps) / 2 <= seconds:
        t0 = time.perf_counter()
        if before_pass is not None:
            before_pass()
        wall, nominal, outputs = run_pass(job_list)
        steps.append(time.perf_counter() - t0)
        walls.append(sum(wall))
        nominals.append(sum(nominal))
        passes.append(outputs)
    return walls, nominals, passes


def end_to_end(job_list, expected, seconds):
    fields = sorted({(ctx.p, ctx.nu) for ctx in map(workloads.field_of, job_list)})
    setups = []
    walls, nominals, passes = timed_passes(job_list, seconds, lambda: setups.append(setup_once(fields)))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(fields))
    attempted, failed = check(job_list, expected, passes)
    metrics = {
        "run_s": statistics.median(nominals),
        "setup_s": statistics.median(nominal for _, nominal in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"median wall: pass {statistics.median(walls):.3f} s, set-up {statistics.median(w for w, _ in setups):.3f} s",
        file=sys.stderr,
    )
    return metrics, attempted, failed, walls


def per_layer(name, job_list, expected, seconds):
    walls, nominals, passes = timed_passes(job_list, seconds / 2)

    tracer = spans.SpanTracer()
    with tracer.active():
        traced_walls, traced_nominals, traced = run_pass(job_list, tracer)
    traced_s = sum(traced_walls)
    rows = tracer.spans()
    spans.save(ROOT / ".bench_out" / f"spans-{name}.npz", rows)

    counter = spans.CountTracer()
    with counter.active():
        _, _, counted = run_pass(job_list)

    attempted, failed = check(job_list, expected, passes)
    a, f = check(job_list, expected, [traced, counted], reference=passes[0])
    attempted, failed = attempted + a, failed + f

    m = spans.span_metrics(rows, traced_s)
    m.update(counter.metrics())
    m["trace.overhead_x"] = sum(traced_nominals) / statistics.median(nominals)
    m["field.FieldCtx.init_s"] = m["field.FieldCtx.init.self_s"]
    m["verify.records"] = sum(len(doc["data"]) for rc, doc in passes[0] if doc and doc.get("command") == "verify")
    return m, attempted, failed, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    os.environ.pop("QUADRICPOINTS_BUDGET", None)
    job_list = workloads.jobs(args.workload, args.seed)
    expected = workloads.expected_records(args.workload, job_list)

    if args.trace:
        values, attempted, failed, walls = per_layer(args.workload, job_list, expected, seconds)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, walls = end_to_end(job_list, expected, seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(
        f"workload {args.workload}, seed {args.seed}: {failed}/{attempted} records failed "
        f"(fail_frac {failed / attempted:.4g}); {len(walls)} untraced passes, wall s: "
        + " ".join(f"{t:.3f}" for t in walls),
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
