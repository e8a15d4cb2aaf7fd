"""One workload, closed loop, one client, in this single-threaded process.

Started by ``run.py`` in a fresh interpreter from the repository root.
With ``--probe`` it only measures set-up (imports, the workload's models,
warm-up) and prints the monotonic clock at each point.  Otherwise it
runs the seeded job stream until the summed job latency reaches
``--seconds`` and prints one JSON line: the end-to-end metrics of the
untraced loop.  With ``--trace 1`` the untraced loop gets half the time
and a second, traced loop repeats its jobs, whose outputs must match
byte for byte; the line then holds the per-layer metrics.  Bursts of
the calibration kernel run between jobs, and every reported time is
scaled by the calibration of its own loop.  Job outputs go to
``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import starphase  # noqa: E402  (import time is part of what is measured)
import starphase.cli  # noqa: E402

IMPORT_DONE = time.monotonic()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import betainc  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: job CPU time between two calibration bursts
CALIBRATE_EVERY_S = 0.1


def run_loop(workload: str, seed: int, seconds: float,
             max_jobs: int | None = None, tracer=None, speed=None):
    """Run jobs until their summed latency reaches ``seconds`` and the
    last generated block is complete, so that the run holds the
    stratified mix of whole blocks (or until ``max_jobs`` have run).
    With a Speedometer, a calibration burst runs before the first job,
    after every CALIBRATE_EVERY_S of job CPU time and after the last
    job.  Returns (jobs by index, results, busy s)."""
    jobs, results, busy, since = {}, [], 0.0, math.inf
    for job in workloads.iter_jobs(workload, seed):
        if (busy >= seconds and job.opens_block) or (
                max_jobs is not None and len(results) >= max_jobs):
            break
        if speed is not None and since >= CALIBRATE_EVERY_S:
            speed.burst()
            since = 0.0
        jobs[job.index] = job
        res = workloads.run_job(job, tracer)
        busy += res.latency_s
        since += res.cpu_s
        results.append(res)
    if speed is not None:
        speed.burst()
    workloads.check_bounds(jobs, results)
    return jobs, results, busy


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    the order statistics.  Job latencies are multimodal (a portrait CSV
    costs a fraction of an SVG of the same grid); a single order
    statistic then jumps across the gap between modes from seed to seed,
    while this estimate moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def _timing(workload: str, seconds: np.ndarray) -> tuple:
    """(jobs_per_s, p50 ms, tail ms) of per-job times in seconds."""
    ms = seconds * 1e3
    pct = workloads.TAIL_PERCENTILE[workload]
    return (len(ms) / seconds.sum(), hd_quantile(ms, 0.5),
            hd_quantile(ms, pct / 100.0))


def end_to_end(workload: str, results: list, scale: float) -> tuple:
    """End-to-end metrics from job CPU times scaled to the reference
    core, and for the record the same timings unscaled and from
    wall-clock latency."""
    cpu = np.array([r.cpu_s for r in results])
    rate, p50, tail = _timing(workload, cpu * scale)
    failed = sum(r.reason is not None for r in results)
    raw = {f"{clock}_{name}": v
           for clock, times in (("cpu", cpu), ("wall", np.array(
               [r.latency_s for r in results])))
           for name, v in zip(("jobs_per_s", "job_p50_ms", "job_tail_ms"),
                              _timing(workload, times))}
    return {
        "jobs_per_s": (rate, "1/s"),
        "job_p50_ms": (p50, "ms"),
        "job_tail_ms": (tail, "ms"),
        "ok_frac": (1.0 - failed / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }, {"percentile": workloads.TAIL_PERCENTILE[workload],
        "jobs": len(results),
        "beyond": int(np.sum(cpu * scale * 1e3 > tail))}, raw


def failures(jobs: dict, results: list) -> list:
    return [{"job": r.index, "kind": r.kind,
             "input": jobs[r.index].argv or jobs[r.index].params,
             "reason": r.reason} for r in results if r.reason is not None]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "starphase": starphase.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


def _set_up(workload: str) -> None:
    outdir = os.path.join(".bench_out", workload)
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    workloads.setup(workload)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(seed)
    _set_up(workload)
    speed = calibrate.Speedometer()
    # a traced run spends half its time untraced, to measure the overhead
    jobs, results, busy = run_loop(workload, seed,
                                   seconds / 2 if trace else seconds,
                                   speed=speed)
    metrics, tail, raw = end_to_end(workload, results, speed.scale())
    fails = failures(jobs, results)
    doc = {"workload": workload, "env": env, "tail": tail, "raw": raw,
           "calibration": speed.record()}
    if trace:
        tracer = tracing.Tracer()
        inst = tracing.Installation(tracer)
        t_speed = calibrate.Speedometer(warmup=0)
        try:
            t_jobs, t_results, _ = run_loop(
                workload, seed, float("inf"), max_jobs=len(results),
                tracer=tracer, speed=t_speed)
        finally:
            inst.uninstall()
        tracer.save("spans.npz")
        fails += failures(t_jobs, t_results)
        # tracing must change no result
        for u, t in zip(results, t_results):
            if u.reason is None and t.reason is None and u.digest != t.digest:
                fails.append({"job": t.index, "kind": t.kind,
                              "input": t_jobs[t.index].argv
                              or t_jobs[t.index].params,
                              "reason": "traced output differs from untraced"})
        layer = tracing.layer_metrics(tracer, inst.installed, len(t_results),
                                      t_speed.scale())
        doc["traced_calibration"] = t_speed.record()
        traced_rate = len(t_results) / (sum(r.cpu_s for r in t_results)
                                        * t_speed.scale())
        untraced_rate = metrics["jobs_per_s"][0]
        layer["trace.jobs_per_s"] = (traced_rate, "1/s")
        layer["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
        layer["trace.overhead"] = (untraced_rate / traced_rate - 1.0, "ratio")
        doc["metrics"] = layer
        doc["attempted"] = len(results) + len(t_results)
    else:
        doc["metrics"] = metrics
        doc["attempted"] = len(results)
    doc["failures"] = fails
    return doc


def probe(workload: str) -> dict:
    """Set-up only: the clock after the imports and when ready."""
    _set_up(workload)
    return {"import_done": IMPORT_DONE, "ready": time.monotonic()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)
    if args.probe:
        doc = probe(args.workload)
    else:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
