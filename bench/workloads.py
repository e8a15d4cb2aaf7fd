"""Seeded job mixes for the starphase benchmark, how to run one job and
how to check its output.

A job is one ``starphase.cli.main(argv)`` call or one call chain through
the public API.  Each workload is an endless stream of jobs drawn from
``random.Random(seed)`` in blocks: inside a block every family appears
equally often and the cost-driving parameters (rtol, sweep length, grid
side) are stratified, so that two seeds give job mixes of nearly equal
total work.  Parameters stay inside the documented ranges: kappa in
(0, 1], scale > 0, eps_start small against w.

Workloads (why each was chosen is in BENCHMARK.json):

* ``orbit``    -- ``trajectory --out CSV --json`` over all four families,
  plus a minority of ``masstable`` runs and the API chain
  ``shoot_heteroclinic -> verify_lyapunov_monotone -> to_physical``.
* ``bounds``   -- ``analyze``, ``bound``, ``bound --sweep-kappa A:B:N``
  written to CSV, and the API call ``check_trap_region(m)``.
* ``portrait`` -- ``portrait`` to ``.svg`` and ``.csv``, default plot box
  or a seeded sub-box around (z, z).

Outputs are checked after the job's timer stops.  A check returns a
failure reason (None when the output is right) and a digest of the
bytes the job produced, so two runs can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import signal
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import starphase
import starphase.cli

WORKLOADS = ("orbit", "bounds", "portrait")

FAMILIES = ("nonrel", "stiff", "scaled", "kappa")
RELATIVISTIC = ("stiff", "scaled", "kappa")

#: wall-clock budget of one job; a job that runs longer counts as failed
JOB_BUDGET_S = 10

#: the orbit contract: V may not rise by more than this between samples
V_RISE_TOL = 1e-9
#: demanded agreement of X_numeric and X_closed in bound reports
AGREEMENT_TOL = 1e-9

#: tail percentile reported as job_tail_ms, per workload.  Chosen so a
#: run of the benchmark's length leaves at least 10 jobs beyond it at
#: the throughput measured when the benchmark was defined; fixed so that
#: runs of a faster or slower commit report the same percentile.
TAIL_PERCENTILE = {"orbit": 95, "bounds": 98, "portrait": 85}


@dataclass
class Job:
    """One generated job.  ``argv`` is set for CLI jobs; API jobs carry
    their arguments in ``params``."""

    index: int
    kind: str
    params: dict
    argv: list | None = None
    outputs: tuple = ()
    #: the first job of a generated block
    opens_block: bool = False


@dataclass
class JobResult:
    index: int
    kind: str
    latency_s: float
    #: CPU time (user + system, all threads) of the timed part
    cpu_s: float = 0.0
    reason: str | None = None
    digest: str = ""
    #: orbit peak, compared with the bound X after the timed loop
    max_x: float | None = None


class JobTimeout(BaseException):
    """Raised by SIGALRM when a job exceeds JOB_BUDGET_S.  Derives from
    BaseException so the program's own ``except`` clauses let it pass."""


def _num(v: float) -> str:
    return repr(float(v))


def _loguniform(rng: random.Random, lo: float, hi: float,
                u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def _strata(rng: random.Random, n: int) -> list:
    """n points in [0, 1), one in each of n equal strata, shuffled."""
    pts = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(pts)
    return pts


def _family_params(rng: random.Random, family: str,
                   u: float | None = None) -> dict:
    """Family parameters; ``u`` in [0, 1) places kappa or scale."""
    u = rng.random() if u is None else u
    if family == "kappa":
        return {"family": family, "kappa": 0.02 + u * 0.98}
    if family == "scaled":
        return {"family": family, "scale": _loguniform(rng, 0.1, 1e3, u)}
    return {"family": family}


def model_args(p: dict) -> list:
    args = ["--model", p["family"]]
    if "kappa" in p:
        args += ["--kappa", _num(p["kappa"])]
    if "scale" in p:
        args += ["--scale", _num(p["scale"])]
    return args


def make_model(p: dict):
    return starphase.model(p["family"], kappa=p.get("kappa"),
                           scale=p.get("scale"))


def closed_form_w(p: dict) -> float:
    """w from the family's closed form, independent of the package."""
    fam = p["family"]
    if fam == "nonrel":
        return 2.0
    if fam == "stiff":
        return 1.0 / 3.0
    if fam == "scaled":
        return 1.0 / (3.0 * p["scale"])
    k = p["kappa"]
    return 4.0 * k / (3.0 * k * k + 8.0 * k + 1.0)


def closed_form_z(p: dict) -> float:
    fam = p["family"]
    if fam == "nonrel":
        return 2.0
    if fam == "stiff":
        return 0.5
    if fam == "scaled":
        return 1.0 / (2.0 * p["scale"])
    k = p["kappa"]
    return 4.0 * k / ((k + 1.0) ** 2 + 4.0 * k)


def _x_max(p: dict) -> float:
    fam = p["family"]
    if fam == "nonrel":
        return math.inf
    return 1.0 / p["scale"] if fam == "scaled" else 1.0


# --------------------------------------------------------------------------
# job streams


def _orbit_block(rng: random.Random) -> list:
    """16 trajectory jobs, four per family, with rtol, eps and kappa or
    scale each in four strata; two masstable runs; two API chains on
    relativistic families."""
    specs = []
    for fam in FAMILIES:
        for u, v, e in zip(_strata(rng, 4), _strata(rng, 4), _strata(rng, 4)):
            p = _family_params(rng, fam, v)
            p["rtol"] = _loguniform(rng, 1e-12, 1e-7, u)
            p["eps"] = closed_form_w(p) * _loguniform(rng, 1e-6, 1e-3, e)
            specs.append(("trajectory", p))
    specs += [("masstable", {})] * 2
    for fam, u in zip(rng.sample(RELATIVISTIC, 2), _strata(rng, 2)):
        p = _family_params(rng, fam)
        p["rtol"] = _loguniform(rng, 1e-12, 1e-7, u)
        p["eps"] = closed_form_w(p) * _loguniform(rng, 1e-6, 1e-3)
        specs.append(("chain", p))
    rng.shuffle(specs)
    return specs


def _bounds_block(rng: random.Random) -> list:
    """Per family one analyze, two bounds and one trap check, kappa or
    scale in four strata; four kappa sweeps with N in four strata of
    5..40.  With two bounds the median job is a bound, not the gap
    between the analyze and bound latencies."""
    specs = []
    for fam in FAMILIES:
        for kind, u in zip(("analyze", "bound", "bound", "trap"),
                           _strata(rng, 4)):
            specs.append((kind, _family_params(rng, fam, u)))
    for u in _strata(rng, 4):
        a = rng.uniform(0.02, 0.5)
        b = rng.uniform(a + 0.1, 1.0)
        specs.append(("sweep", {"a": a, "b": b, "n": 5 + int(u * 36)}))
    rng.shuffle(specs)
    return specs


def _portrait_box(rng: random.Random, p: dict) -> tuple:
    """A sub-box around (z, z) inside the plot domain."""
    z = closed_form_z(p)
    x_hi_cap = 0.9 * _x_max(p) if math.isfinite(_x_max(p)) else 2.2 * z
    x_lo = z * rng.uniform(0.05, 0.8)
    x_hi = min(z * rng.uniform(1.2, 1.8), x_hi_cap)
    y_lo = z * rng.uniform(0.1, 0.8)
    y_hi = z * rng.uniform(1.2, 3.0)
    return (x_lo, x_hi), (y_lo, y_hi)


def _portrait_block(rng: random.Random) -> list:
    """For each format, per family one job on the default box and one on
    a seeded sub-box, with grid sides in 8 strata of 24..96."""
    specs = []
    for fmt in ("svg", "csv"):
        cells = [(fam, box) for fam in FAMILIES for box in (False, True)]
        for (fam, box), u in zip(cells, _strata(rng, 8)):
            p = _family_params(rng, fam)
            nx = 24 + int(u * 73)
            ny = min(96, max(24, round(nx * rng.uniform(0.8, 1.25))))
            p.update(fmt=fmt, nx=nx, ny=ny)
            if box:
                p["xrange"], p["yrange"] = _portrait_box(rng, p)
            specs.append(("portrait", p))
    rng.shuffle(specs)
    return specs


_BLOCKS = {"orbit": _orbit_block, "bounds": _bounds_block,
           "portrait": _portrait_block}


def _argv(kind: str, p: dict) -> tuple:
    """CLI argv and output files of one job (None for API jobs)."""
    if kind == "trajectory":
        return (["trajectory", *model_args(p), "--eps", _num(p["eps"]),
                 "--rtol", _num(p["rtol"]), "--out", "orbit.csv",
                 "--json", "orbit.json"], ("orbit.csv", "orbit.json"))
    if kind == "masstable":
        return ["masstable", "--json"], ()
    if kind == "analyze":
        return ["analyze", *model_args(p), "--json", "analyze.json"], \
            ("analyze.json",)
    if kind == "bound":
        return ["bound", *model_args(p), "--json", "bound.json"], ("bound.json",)
    if kind == "sweep":
        spec = f"{_num(p['a'])}:{_num(p['b'])}:{p['n']}"
        return (["bound", "--model", "kappa", "--sweep-kappa", spec,
                 "--out", "sweep.csv"], ("sweep.csv",))
    if kind == "portrait":
        out = f"portrait.{p['fmt']}"
        argv = ["portrait", *model_args(p), "--grid", f"{p['nx']},{p['ny']}"]
        if "xrange" in p:
            argv += ["--xrange", "{}:{}".format(*map(_num, p["xrange"])),
                     "--yrange", "{}:{}".format(*map(_num, p["yrange"]))]
        return argv + ["--out", out], (out,)
    return None, ()


def iter_jobs(workload: str, seed: int):
    """Endless deterministic job stream of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    block = _BLOCKS[workload]
    index = 0
    while True:
        for i, (kind, p) in enumerate(block(rng)):
            argv, outputs = _argv(kind, p)
            yield Job(index=index, kind=kind, params=p, argv=argv,
                      outputs=outputs, opens_block=i == 0)
            index += 1


def setup(workload: str) -> None:
    """Build the workload's models and run one warm-up job of each kind
    on fixed default parameters (not drawn from the seeded stream)."""
    for fam in FAMILIES:
        make_model(_family_params(random.Random(0), fam))
    warm = {
        "orbit": [("trajectory", {"family": "stiff", "rtol": 1e-8,
                                  "eps": 1e-6}),
                  ("chain", {"family": "stiff", "rtol": 1e-8, "eps": 1e-6})],
        "bounds": [("analyze", {"family": "stiff"}),
                   ("bound", {"family": "stiff"}),
                   ("sweep", {"a": 0.1, "b": 1.0, "n": 5}),
                   ("trap", {"family": "stiff"})],
        "portrait": [("portrait", {"family": "stiff", "fmt": "svg",
                                   "nx": 24, "ny": 24}),
                     ("portrait", {"family": "stiff", "fmt": "csv",
                                   "nx": 24, "ny": 24})],
    }[workload]
    for i, (kind, p) in enumerate(warm):
        argv, outputs = _argv(kind, p)
        res = run_job(Job(index=-1 - i, kind=kind, params=p, argv=argv,
                          outputs=outputs))
        if res.reason is not None:
            raise RuntimeError(f"warm-up {kind} failed: {res.reason}")


# --------------------------------------------------------------------------
# running and checking


def _on_alarm(signum, frame):
    raise JobTimeout()


def _call(job: Job, stdout: io.StringIO):
    """The timed part of a job.  Returns (exit code, API result)."""
    if job.argv is not None:
        with contextlib.redirect_stdout(stdout):
            return starphase.cli.main(job.argv), None
    p = job.params
    m = make_model(p)
    if job.kind == "trap":
        return 0, starphase.check_trap_region(m)
    # chain: shoot -> monotone check -> physical profile
    cfg = starphase.IntegratorConfig(eps_start=p["eps"], rel_tol=p["rtol"])
    traj = starphase.shoot_heteroclinic(m, cfg)
    worst = starphase.verify_lyapunov_monotone(traj)
    prof = starphase.to_physical(traj)
    return 0, (traj, worst, prof)


def run_job(job: Job, tracer=None) -> JobResult:
    """Run one job under its wall-clock budget, then check its output.
    With a tracer, the timed part runs inside the job's root span."""
    stdout = io.StringIO()
    for name in job.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(JOB_BUDGET_S)
    if tracer is not None:  # the job's root span; all others nest in it
        tracer.job_id = job.index
        span = tracer.open("job")
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc, result = _call(job, stdout)
        err = None if rc == 0 else f"exit code {rc}"
    except JobTimeout:
        err = f"exceeded the {JOB_BUDGET_S} s budget"
    except SystemExit as exc:  # argparse rejected the argv
        err = f"exit code {exc.code}"
    except Exception as exc:  # a job that raises is a failed job
        err = f"raised {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer is not None:
            tracer.close(span)
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    res = JobResult(index=job.index, kind=job.kind, latency_s=latency,
                    cpu_s=cpu)
    if err is not None:
        res.reason = err
        return res
    try:
        res.reason, res.digest = _CHECKS[job.kind](job, stdout.getvalue(),
                                                   result, res)
    except (OSError, ValueError, KeyError, TypeError, ET.ParseError) as exc:
        res.reason = f"output unreadable: {type(exc).__name__}: {exc}"
    return res


def _read(name: str) -> bytes:
    with open(name, "rb") as fh:
        return fh.read()


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()[:16]


def _csv_rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode())))


def _worst_rise(values: list) -> float:
    return max((b - a for a, b in zip(values, values[1:])), default=0.0)


def _check_trajectory(job, stdout, result, res):
    raw_csv, raw_json = _read("orbit.csv"), _read("orbit.json")
    doc = json.loads(raw_json)
    rows = _csv_rows(raw_csv)
    if rows[0] != ["t", "x", "y", "V"] or len(rows) < 3:
        return "orbit CSV malformed", ""
    if not doc["converged"]:
        return f"status {doc['status']}", ""
    rise = _worst_rise([float(r[3]) for r in rows[1:]])
    if rise > V_RISE_TOL:
        return f"V rises by {rise:.3g} along the orbit", ""
    res.max_x = doc["max_x"]
    return None, _digest(raw_csv, raw_json)


def _check_masstable(job, stdout, result, res):
    rows = json.loads(stdout)["rows"]
    values = [r["value"] for r in rows]
    if len(rows) != 5 or not all(math.isfinite(v) for v in values):
        return "mass-radius table malformed", ""
    if values[4] > values[2]:
        return "stiff orbit peak above the stiff bound", ""
    return None, _digest(stdout.encode())


def _check_chain(job, stdout, result, res):
    traj, worst, prof = result
    if not traj.converged:
        return f"status {traj.status}", ""
    if worst > V_RISE_TOL:
        return f"V rises by {worst:.3g} along the orbit", ""
    if len(prof.rho) != len(traj.t) or not all(
            math.isfinite(v) for v in (*prof.r, *prof.m, *prof.rho, *prof.p)):
        return "physical profile not finite", ""
    res.max_x = traj.max_x
    return None, _digest(traj.t.tobytes(), traj.x.tobytes(),
                         traj.y.tobytes(), prof.rho.tobytes())


def _check_analyze(job, stdout, result, res):
    raw = _read("analyze.json")
    eq = json.loads(raw)["equilibrium"]
    z = closed_form_z(job.params)
    if abs(eq["z"] - z) > 1e-12 * max(1.0, z):
        return f"z = {eq['z']!r}, closed form {z!r}", ""
    return None, _digest(raw)


def _check_bound(job, stdout, result, res):
    raw = _read("bound.json")
    agr = json.loads(raw)["agreement"]
    if not agr <= AGREEMENT_TOL:
        return f"agreement {agr!r} above {AGREEMENT_TOL}", ""
    return None, _digest(raw)


def _check_sweep(job, stdout, result, res):
    raw = _read("sweep.csv")
    rows = _csv_rows(raw)
    head = rows[0]
    if len(rows) != job.params["n"] + 1:
        return f"sweep has {len(rows) - 1} rows, expected {job.params['n']}", ""
    i, j = head.index("X_closed"), head.index("X_numeric")
    worst = max(abs(float(r[i]) - float(r[j])) for r in rows[1:])
    if not worst <= AGREEMENT_TOL:
        return f"sweep agreement {worst!r} above {AGREEMENT_TOL}", ""
    return None, _digest(raw)


def _check_trap(job, stdout, result, res):
    if not result.passed:
        return f"trap region fails: {result.violation}", ""
    return None, _digest(repr((result.line_margin, result.diagonal_min,
                               result.isocline_monotone)).encode())


def _check_portrait(job, stdout, result, res):
    p = job.params
    raw = _read(f"portrait.{p['fmt']}")
    if p["fmt"] == "csv":
        rows = _csv_rows(raw)
        if len(rows) - 1 != p["nx"] * p["ny"]:
            return f"portrait CSV has {len(rows) - 1} rows, expected " \
                   f"{p['nx'] * p['ny']}", ""
    elif not ET.fromstring(raw).tag.endswith("svg"):
        return "portrait SVG root is not <svg>", ""
    return None, _digest(raw)


_CHECKS = {
    "trajectory": _check_trajectory, "masstable": _check_masstable,
    "chain": _check_chain, "analyze": _check_analyze, "bound": _check_bound,
    "sweep": _check_sweep, "trap": _check_trap, "portrait": _check_portrait,
}


def check_bounds(jobs: dict, results: list) -> None:
    """Deferred orbit check, run after the timed loop: max_x may not
    exceed bound_X(m).X_numeric.  Computing the references after the
    loop keeps their root solves out of the measured jobs."""
    reference = {}
    for res in results:
        if res.reason is not None or res.max_x is None:
            continue
        p = jobs[res.index].params
        key = (p["family"], p.get("kappa"), p.get("scale"))
        if key not in reference:
            reference[key] = starphase.bound_X(make_model(p)).X_numeric
        if res.max_x > reference[key]:
            res.reason = (f"max_x {res.max_x!r} above the bound "
                          f"X {reference[key]!r}")
