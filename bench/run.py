"""starphase benchmark: seeded CLI and API job mixes, closed loop.

Run from the repository root:

    python3 bench/run.py --workload orbit --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # orbit, bounds, portrait

For each workload it measures set-up (median of SETUP_PROBES fresh
interpreters: imports, the workload's models and a warm-up), then starts
one worker process that runs the seeded job stream through
``starphase.cli.main(argv)`` and the public API for ``--seconds`` of job
time.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced loop over the same jobs.
Job times are CPU times scaled to a reference core by a calibration
kernel timed throughout the run (see calibrate.py); set-up times are
wall-clock times scaled by the same kernel, timed in this process
between the set-up probes.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A record with the environment and every failed job goes to
``.bench_out/<workload>/result-<seed>-<trace>.json``.

Worker processes run with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS set to 1, so the load uses one core.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

WORKLOADS = ("orbit", "bounds", "portrait")

#: fresh interpreters whose median set-up time is setup_s
SETUP_PROBES = 7
#: calibration kernel calls timed after each set-up probe
PROBE_KERNELS = 30

#: every process this script starts is killed after this many seconds
#: of its total run time
DEADLINE_S = 170.0

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _worker(args: list, deadline: float) -> dict:
    """Run worker.py with ``args``; its last stdout line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=ENV,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, deadline: float) -> tuple:
    """Median (setup_s, import_s) over fresh interpreters, unscaled,
    and the calibration taken between them."""
    setup, imports = [], []
    speed = calibrate.Speedometer()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        doc = _worker(["--probe", "--workload", workload], deadline)
        setup.append(doc["ready"] - t0)
        imports.append(doc["import_done"] - t0)
        speed.burst(PROBE_KERNELS)
    return statistics.median(setup), statistics.median(imports), speed


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    setup_s, import_s, speed = measure_setup(workload, deadline)
    doc = _worker(["--workload", workload, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(trace)],
                  deadline)
    doc["setup_calibration"] = speed.record()
    doc["raw"].update(setup_s=setup_s, import_s=import_s)
    if trace:
        doc["metrics"]["setup.import_s"] = (import_s * speed.scale(), "s")
    else:
        doc["metrics"]["setup_s"] = (setup_s * speed.scale(), "s")
    path = os.path.join(".bench_out", workload,
                        f"result-{seed}-{trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    doc["record"] = path
    return doc


def report(doc: dict) -> None:
    w = doc["workload"]
    env = doc["env"]
    print(f"[{w}] env: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}, cpu {env['cpu']!r}, "
          f"commit {env['commit']}, seed {env['seed']}")
    for name, (value, unit) in sorted(doc["metrics"].items()):
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"[{w}] {name:32s} {shown:>12s} {unit}")
    for key in ("setup_calibration", "calibration", "traced_calibration"):
        if key in doc:
            c = doc[key]
            print(f"[{w}] {key}: times scaled by {c['scale']:.4g} (kernel "
                  f"{c['kernel_mean_ms']:.4g} ms mean over "
                  f"{c['kernel_calls']} calls, reference "
                  f"{c['reference_ms']:.4g} ms)")
    if "job_tail_ms" in doc["metrics"]:
        raw = doc["raw"]
        print(f"[{w}] unscaled: wall {raw['wall_jobs_per_s']:.4g} jobs/s, "
              f"p50 {raw['wall_job_p50_ms']:.4g} ms, tail "
              f"{raw['wall_job_tail_ms']:.4g} ms, set-up "
              f"{raw['setup_s']:.4g} s")
        t = doc["tail"]
        print(f"[{w}] job_tail_ms is p{t['percentile']} of {t['jobs']} jobs "
              f"({t['beyond']} beyond it)")
    n_fail = len(doc["failures"])
    print(f"[{w}] fail_frac {n_fail}/{doc['attempted']} = "
          f"{n_fail / doc['attempted']:.4g}")
    for f in doc["failures"]:
        print(f"[{w}] FAILED job {f['job']} ({f['kind']}): {f['reason']}; "
              f"input {f['input']}")
    print(f"[{w}] record: {doc['record']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="job time measured per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "starphase", "cli.py")):
        print("bench/run.py: src/starphase not found; run from the root of "
              "a starphase checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    try:
        for w in names:
            docs.append(run_workload(w, args.seed, args.seconds, args.trace,
                                     deadline))
            report(docs[-1])
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    prefix = len(docs) > 1
    metrics = {(f"{d['workload']}.{k}" if prefix else k):
               {"value": v, "unit": u}
               for d in docs for k, (v, u) in d["metrics"].items()}
    failed = sum(len(d["failures"]) for d in docs)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(d["attempted"] for d in docs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
