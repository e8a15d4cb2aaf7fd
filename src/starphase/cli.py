"""Command-line interface.

Subcommands: analyze, trajectory, bound, portrait, masstable.
Exit codes: 0 ok, 2 usage error (argparse), 3 hypothesis or domain
failure or an output path that cannot be written, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .astro import mass_radius_table
from .bounds import bound_X, kappa_sweep, sweep_to_csv
from .errors import ConvergenceError, DomainError, HypothesisError
from .models import Family, ModelSpec, SystemModel, equilibrium, make_model
from .portrait import default_ranges, portrait_csv, portrait_svg
from .stability import stability_report
from .trajectory import IntegratorConfig, shoot_heteroclinic

SCHEMA = 1

EXIT_OK = 0
EXIT_HYPOTHESIS = 3
EXIT_NONCONVERGED = 4

#: most rows a ``bound --sweep-kappa`` spec may ask for
MAX_SWEEP_ROWS = 100_000


def _model_from(args) -> SystemModel:
    fam = Family(args.model)
    kappa = getattr(args, "kappa", None)
    scale = getattr(args, "scale", None)
    if fam is Family.KAPPA_FAMILY and kappa is None:
        kappa = 1.0 / 3.0
    return make_model(ModelSpec(fam, kappa=kappa, scale=scale))


def _emit_json(doc: dict, path: str | None) -> None:
    doc = {"schema": SCHEMA, **doc}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   choices=[f.value for f in Family],
                   help="model family")
    p.add_argument("--kappa", type=float, default=None,
                   help="equation-of-state ratio for the kappa family "
                        "(default 1/3)")
    p.add_argument("--scale", type=float, default=None,
                   help="sigma for the scaled family (default 8*pi)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starphase",
        description="Phase-plane analysis and mass-radius bounds for "
                    "integrated-density star models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stationary points and stability")
    _add_model_args(p)
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the report to this path instead of stdout")

    p = sub.add_parser("trajectory", help="shoot the heteroclinic orbit")
    _add_model_args(p)
    p.add_argument("--eps", type=float, default=1e-6,
                   help="launch offset along the unstable eigenvector")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--max-time", type=float, default=200.0,
                   help="integration-time cap")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--json", dest="json_path", default=None,
                   help="JSON output path")

    p = sub.add_parser("bound", help="analytic bound X (or a kappa sweep)")
    _add_model_args(p)
    p.add_argument("--sweep-kappa", default=None, metavar="A:B:N",
                   help="sweep kappa over N points from A to B (CSV)")
    p.add_argument("--out", default=None, help="sweep CSV output path")
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("portrait", help="vector field + Lyapunov level grid")
    _add_model_args(p)
    p.add_argument("--grid", default="80,80", metavar="NX,NY")
    p.add_argument("--xrange", default=None, metavar="LO:HI")
    p.add_argument("--yrange", default=None, metavar="LO:HI")
    p.add_argument("--out", required=True,
                   help="output path ending in .csv or .svg")

    p = sub.add_parser("masstable", help="mass-radius comparison table")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true")
    fmt.add_argument("--markdown", dest="as_markdown", action="store_true")

    return parser


def _cmd_analyze(args) -> int:
    m = _model_from(args)
    eq = equilibrium(m)
    rep = stability_report(m)
    doc = {
        "family": m.family.value,
        "stationary_points": {"origin": [0.0, 0.0],
                              "interior": [m.z, m.z]},
        "equilibrium": {"z": eq.z, "w": eq.w, "x0": eq.x0,
                        "r_at_z": eq.r_at_z},
        "stability": rep.to_dict(),
    }
    _emit_json(doc, args.json_path)
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    if not math.isfinite(args.rtol):
        raise ValueError(f"--rtol must be finite, got {args.rtol!r}")
    m = _model_from(args)
    cfg = IntegratorConfig(eps_start=args.eps, rel_tol=args.rtol,
                           max_time=args.max_time)
    traj = shoot_heteroclinic(m, cfg)
    if args.out:
        traj.to_csv(args.out)
    if args.json_path or not args.out:
        # with --out the samples live in the CSV
        doc = traj._summary() if args.out else traj.to_dict()
        _emit_json(doc, args.json_path)
    if not traj.converged:
        print(f"shoot did not converge: status={traj.status}, "
              f"last state={traj.final_state}", file=sys.stderr)
        return (EXIT_HYPOTHESIS if traj.status == "domain_exit"
                else EXIT_NONCONVERGED)
    return EXIT_OK


def _sweep_kappas(spec: str) -> list[float]:
    """The N kappa values of an A:B:N sweep spec, from A to B.

    Raises DomainError for a malformed spec, N < 2, N above
    MAX_SWEEP_ROWS, or an end outside (0, 1] (NaN and inf included).
    """
    try:
        a, b, n = spec.split(":")
        lo, hi, n = float(a), float(b), int(n)
        if n < 2:
            raise ValueError
    except ValueError:
        raise DomainError(f"bad sweep spec {spec!r}; "
                          "expected A:B:N with N >= 2") from None
    if not (0.0 < lo <= 1.0 and 0.0 < hi <= 1.0):
        raise DomainError(f"bad sweep spec {spec!r}: A and B must lie in "
                          "(0, 1]")
    if n > MAX_SWEEP_ROWS:
        raise DomainError(f"bad sweep spec {spec!r}: N = {n} is above "
                          f"MAX_SWEEP_ROWS = {MAX_SWEEP_ROWS}")
    # the last value is B itself, as in np.linspace: lo + (hi - lo) can
    # miss hi by an ulp
    return [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]


def _cmd_bound(args) -> int:
    if args.sweep_kappa:
        rows = kappa_sweep(_sweep_kappas(args.sweep_kappa))
        if args.out:
            sweep_to_csv(rows, args.out)
        else:
            _emit_json({"sweep": rows}, args.json_path)
        return EXIT_OK
    m = _model_from(args)
    rep = bound_X(m)
    _emit_json(rep.to_dict(), args.json_path)
    return EXIT_OK


def _cmd_portrait(args) -> int:
    m = _model_from(args)
    try:
        nx, ny = (int(v) for v in args.grid.split(","))
    except ValueError:
        raise DomainError(f"bad grid spec {args.grid!r}; expected NX,NY")

    def parse_range(text, fallback):
        if text is None:
            return fallback
        try:
            lo, hi = (float(v) for v in text.split(":"))
        except ValueError:
            raise DomainError(f"bad range spec {text!r}; expected LO:HI")
        return lo, hi

    xr_def, yr_def = default_ranges(m)
    xr = parse_range(args.xrange, xr_def)
    yr = parse_range(args.yrange, yr_def)
    if args.out.endswith(".svg"):
        portrait_svg(m, xr, yr, nx, ny, args.out)
    elif args.out.endswith(".csv"):
        portrait_csv(m, xr, yr, nx, ny, args.out)
    else:
        raise DomainError("portrait output must end in .csv or .svg")
    return EXIT_OK


def _cmd_masstable(args) -> int:
    table = mass_radius_table()
    if args.as_json:
        _emit_json(table.to_dict(), None)
    elif args.as_markdown:
        print(table.to_markdown())
    else:
        for row in table.rows:
            note = f"  [{row.note}]" if row.note else ""
            print(f"{row.value:.4f}  {row.label}  ({row.provenance}: "
                  f"{row.expression}){note}")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "trajectory": _cmd_trajectory,
    "bound": _cmd_bound,
    "portrait": _cmd_portrait,
    "masstable": _cmd_masstable,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one CLI command and return its exit code.

    All calls in a process share one parser, built on the first call:
    parsing reads it and never changes it, and each call gets a fresh
    namespace.  Usage errors raise ``SystemExit(2)`` as in argparse.
    """
    args = _shared_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, HypothesisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
