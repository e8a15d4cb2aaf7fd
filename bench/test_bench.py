"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import json
import math
import os

import pytest

import calibrate
import run
import tracing
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: jobs in a tiny run: one generated block of each workload
TINY = {"orbit": 20, "bounds": 20, "portrait": 16}

#: layers that must read zero where the workload bypasses them
IDLE = {
    "bounds": ("integrate.calls", "integrate.steps", "integrate.nfev",
               "integrate.self_ms", "trajectory.field.self_ms"),
    "portrait": ("integrate.calls", "integrate.steps", "integrate.nfev",
                 "integrate.self_ms", "rootfind.solves", "rootfind.self_ms"),
}


def _jobs(workload, seed, n=40):
    return [(j.kind, j.argv, j.params)
            for j in itertools.islice(workloads.iter_jobs(workload, seed), n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_always_generates_the_same_jobs(workload):
    assert _jobs(workload, 7) == _jobs(workload, 7)
    assert _jobs(workload, 7) != _jobs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_failures_and_tracing_changes_no_output(
        workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.setup(workload)
    jobs, plain, _ = worker.run_loop(workload, 3, math.inf,
                                     max_jobs=TINY[workload])
    assert worker.failures(jobs, plain) == []

    tracer = tracing.Tracer()
    inst = tracing.Installation(tracer)
    try:
        jobs, traced, _ = worker.run_loop(workload, 3, math.inf,
                                          max_jobs=TINY[workload],
                                          tracer=tracer)
    finally:
        inst.uninstall()
    assert worker.failures(jobs, traced) == []
    assert [r.digest for r in traced] == [r.digest for r in plain]
    assert all(r.digest for r in plain)

    layer = tracing.layer_metrics(tracer, inst.installed, len(traced))
    assert all(v is not None for v, _ in layer.values())
    for name in IDLE.get(workload, ()):
        assert layer[name][0] == 0.0, name
    busiest = {"orbit": "integrate.steps", "bounds": "rootfind.solves",
               "portrait": "portrait.marching.calls"}[workload]
    assert layer[busiest][0] > 0.0


def test_timed_loop_ends_on_a_whole_block_and_calibrates(tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    speed = calibrate.Speedometer(warmup=0)
    jobs, results, _ = worker.run_loop("bounds", 3, 1e-9, speed=speed)
    assert len(results) == TINY["bounds"]
    # one burst before the first job, at least one after the last
    assert len(speed.times) >= 2 * calibrate.BURST
    assert speed.scale() > 0.0


def test_uninstall_restores_every_attribute():
    import starphase.bounds
    import starphase.trajectory
    before = (starphase.bounds.find_w, starphase.trajectory.Trajectory.to_csv)
    inst = tracing.Installation(tracing.Tracer())
    assert starphase.bounds.find_w is not before[0]
    inst.uninstall()
    assert (starphase.bounds.find_w,
            starphase.trajectory.Trajectory.to_csv) == before


def test_missing_wrapper_target_reports_absent_metric(monkeypatch):
    import starphase.bounds
    monkeypatch.delattr(starphase.bounds, "check_hypotheses")
    tracer = tracing.Tracer()
    inst = tracing.Installation(tracer)
    inst.uninstall()
    assert "bounds.hypotheses" not in inst.installed
    layer = tracing.layer_metrics(tracer, inst.installed, 1)
    assert layer["bounds.hypotheses.self_ms"][0] is None
    assert layer["bounds.bound_X.self_ms"][0] == 0.0


def test_hung_job_fails_on_its_budget(tmp_path, monkeypatch):
    # IntegratorConfig(rel_tol=nan) makes the shoot loop forever
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "JOB_BUDGET_S", 1)
    job = workloads.Job(index=0, kind="chain",
                        params={"family": "stiff", "rtol": math.nan,
                                "eps": 1e-6})
    res = workloads.run_job(job)
    assert res.reason == "exceeded the 1 s budget"
    assert 1.0 <= res.latency_s < 5.0


def test_failed_output_check_is_reported(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "AGREEMENT_TOL", -1.0)
    job = next(j for j in workloads.iter_jobs("bounds", 1)
               if j.kind == "bound")
    res = workloads.run_job(job)
    assert res.reason.startswith("agreement")


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "orbit", "--seconds", "1"]) == 2


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_job, _, _ = worker.end_to_end(
        "orbit", [workloads.JobResult(0, "x", 1.0, cpu_s=1.0)], 1.0)
    assert e2e == {**{k: u for k, (_, u) in per_job.items()}, "setup_s": "s"}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {k: u for k, (u, _, _) in tracing.LAYER_METRICS.items()}
    expected.update(tracing.DERIVED_UNITS)
    expected.update({"setup.import_s": "s", "trace.jobs_per_s": "1/s",
                     "trace.untraced_jobs_per_s": "1/s",
                     "trace.overhead": "ratio"})
    assert layer == expected
