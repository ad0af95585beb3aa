"""Tests of the benchmark itself: python3 -m pytest bench

They run a few of the cheapest jobs of the real workloads, covering
count, table (with --jobs 2) and verify output.
"""

import copy
import json
import shutil
import subprocess
import sys

import host
import run  # puts the package source on sys.path
import spans
import workloads
from quadricpoints import cli

SMALL = {"circle": [3], "oracle": [1], "identities": [5, 6]}


def _small_jobs(seed=7):
    """(workload, argv list, expected records) for the cheap jobs."""
    out = []
    for name, picks in SMALL.items():
        job_list = [workloads.jobs(name, seed)[i] for i in picks]
        frozen = [workloads.FROZEN[name][i] for i in picks]
        out.append((name, job_list, frozen))
    return out


def _expected(name, job_list, frozen, monkeypatch):
    monkeypatch.setitem(workloads.FROZEN, name, frozen)
    return workloads.expected_records(name, job_list)


def test_answers_pass_and_a_corrupted_expected_value_fails(monkeypatch):
    for name, job_list, frozen in _small_jobs():
        expected = _expected(name, job_list, frozen, monkeypatch)
        _, _, outputs = run.run_pass(job_list)
        attempted, failed = run.check(job_list, expected, [outputs])
        assert attempted > 0 and failed == 0, name

        corrupt = copy.deepcopy(frozen)
        if name == "identities":
            corrupt[0].append("no-such-record")
        else:
            key = next(iter(corrupt[0]))
            want = corrupt[0][key]
            corrupt[0][key] = [want[0] + 1, *want[1:]] if isinstance(want, list) else want + 1
        expected = _expected(name, job_list, corrupt, monkeypatch)
        attempted, failed = run.check(job_list, expected, [outputs])
        assert failed / attempted > 0, name


def test_a_failing_job_fails_all_its_records(monkeypatch):
    name, job_list, frozen = _small_jobs()[0]
    expected = _expected(name, job_list, frozen, monkeypatch)
    attempted, failed = run.check(job_list, expected, [[(2, None)] * len(job_list)])
    assert failed == attempted > 0


def test_same_seed_same_argv_and_counts_match_frozen_at_other_seeds(monkeypatch):
    assert workloads.jobs("oracle", 3) == workloads.jobs("oracle", 3)
    assert workloads.jobs("circle", 1) != workloads.jobs("circle", 2)
    for seed in (1, 2):
        job_list = workloads.jobs("circle", seed)
        expected = workloads.expected_records("circle", job_list)
        assert all(agrees for rows in expected for _, agrees in rows)


def test_traced_and_untraced_data_are_byte_identical(monkeypatch):
    for name, job_list, frozen in _small_jobs():
        _, _, plain = run.run_pass(job_list)
        tracer = spans.SpanTracer()
        with tracer.active():
            _, _, traced = run.run_pass(job_list, tracer)
        counter = spans.CountTracer()
        with counter.active():
            _, _, counted = run.run_pass(job_list)
        for (_, a), (_, b), (_, c) in zip(plain, traced, counted):
            assert json.dumps(a["data"]) == json.dumps(b["data"]) == json.dumps(c["data"])
        assert len(tracer.spans()) > 0
    assert cli.main.__module__ == "quadricpoints.cli"  # patches were undone


def _traced_counts(job_list):
    tracer = spans.SpanTracer()
    with tracer.active():
        job_times, _, _ = run.run_pass(job_list, tracer)
    counter = spans.CountTracer()
    with counter.active():
        run.run_pass(job_list)
    m = spans.span_metrics(tracer.spans(), sum(job_times))
    m.update(counter.metrics())
    work = {f"{name}.{suffix}" for name, suffix in spans.WORK_METRICS.items()}
    return {k: v for k, v in m.items() if k.endswith((".calls", ".moduli")) or k in work}


def test_two_traced_runs_give_identical_counts():
    job_list = [argv for _, jl, _ in _small_jobs() for argv in jl]
    first = _traced_counts(job_list)
    assert first == _traced_counts(job_list)
    assert first["cli.main.calls"] == len(job_list)
    assert first["field.mul.calls"] > 0 and first["oracle.convolution_count.calls"] > 0


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "circle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0 and child.stdout == ""


def test_nominal_time_scales_wall_time_by_host_speed():
    assert host.adjusted(2.0, host.NOMINAL_S, host.NOMINAL_S) == 2.0
    assert host.adjusted(2.0, 2 * host.NOMINAL_S, 2 * host.NOMINAL_S) == 1.0
