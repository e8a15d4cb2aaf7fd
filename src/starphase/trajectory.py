"""Heteroclinic orbit from the origin's unstable manifold to (z, z).

The orbit is shot from the first-order manifold approximation
``(eps, (a0 + 1) eps)`` along the unstable eigenvector and integrated
with the adaptive embedded pair until it enters a small ball around
(z, z) or the Lyapunov function drops below a floor (the robust monitor
for spiralling approaches).  The module also verifies the trap-region
geometry that underlies the analytic x bound: the field points below
the unstable tangent line, upward on the diagonal, and the y' = 0
isocline is a decreasing graph x(y), by the slope fact a' - b' y < 0.

The Lyapunov arrival test reads V = H(x) + y - z - L <= v, L = z log(y/z),
v = ``v_threshold``.  Since H >= 0 with its minimum 0 at z, a state whose
G = y - z - L exceeds v + delta is no arrival, whatever H is.  The
margin is delta = 1e-9 (v + y + z) + 1e-12 l, with l = x_max (z on the
unbounded ``nonrel`` domain).  It covers three things:

* The rounding of G and of V.  Both subtract the same float L, so with
  unit roundoff u = 2^-53 the float V is at least (1 - u)(G (1 - u) +
  min(H, 0)(1 + 3u) - 3.1 u (y + z)).  G > v + delta thus gives V > v
  as soon as delta >= 2.1 u v + 1.01 eta + 3.2 u (y + z).
* eta, the most negative value the float H returns.  Near z the float
  H is a difference of terms no larger than 3 l, each rounded a few
  times, so eta < 8 u * 3 l < 3e-15 l; sampled near z over kappa in
  [1e-10, 1] and scale in [1e-6, 1e12], it is at most 6.8e-16 l.
* The rounding of the threshold itself, a relative 3u.

The two parts of delta exceed these bounds by factors above 300, so the
float G above the float T = v (1 + 1e-9) + 1e-12 l + 1e-9 (y + z) gives
the float V above v.

Before the ball and the log, a log-free test rejects most states.  With
d = y - z and M = max(y, z), for y > 0

    G = d - z log(y/z) >= d^2 / (2 M).

(With t = y/z: for t >= 1, t/2 - 1/(2t) - log t vanishes at 1 and has
derivative (t - 1)^2/(2 t^2) >= 0; for t <= 1, t - 1 - log t - (t - 1)^2/2
vanishes at 1 and has derivative -(t - 1)^2/t <= 0.)  The test returns
False when the float d*d exceeds both r^2 raised by one float and
2 M T (1 + mu), mu = 1e-3.

* The ball test's float d**2 and d*d are faithful roundings of the same
  square, so they are equal or adjacent floats: d*d above r^2 raised by
  one float puts d**2 above r^2, and the ball test fails.  For y <= 0
  the test then returns False anyway.
* The float sides of the second comparison are within 10 u of their
  exact values, so G > T (1 + mu)(1 - 13 u).  The float G differs from G
  by at most 5.01 u (y + z) + 4.01 u G: the rounding of y - z, of y/z, of
  the log (within one ulp), of the product by z and of the last
  subtraction, with |L| <= G + |y - z| <= G + y + z.  Since T >= 1e-9
  (y + z), the float G exceeds the float T as soon as mu >= 5.6e-7;
  mu = 1e-3 exceeds that by a factor above 1000.

So wherever the log-free test rejects, the float V is above v, and the
shoot's bits are those of the test with H evaluated on every step; H
runs on about one accepted step in ten.  The argument takes y - z, y/z,
its log and z log(y/z) to be normal floats, as on every state a shoot
reaches.  A state with y > 0 whose y/z underflows to 0 is rejected
before the log: there V is far above any threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import integrate
from .bounds import _sample_count, _slope_witness
from .errors import DomainError
from .lyapunov import lyapunov_value
from .models import SystemModel, eval_field, find_w


@dataclass(frozen=True)
class IntegratorConfig:
    """Tuning knobs for the heteroclinic shoot.

    eps_start is the launch offset along the unstable eigenvector and
    must be small against z; converge_radius and v_threshold are the two
    alternative arrival criteria (ball around (z, z), Lyapunov floor).
    """

    eps_start: float = 1e-6
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    converge_radius: float = 1e-8
    v_threshold: float = 1e-14
    max_time: float = 200.0
    max_steps: int = 200_000

    def __post_init__(self):
        for name in ("eps_start", "rel_tol", "abs_tol", "converge_radius",
                     "v_threshold", "max_time", "max_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # rel_tol is not checked for finiteness: bench/test_bench.py uses
        # rel_tol=nan as the job that hangs until its time budget fires
        for name in ("eps_start", "abs_tol", "converge_radius",
                     "v_threshold", "max_time"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of one integration run.

    ``status`` is ``converged-radius`` or ``converged-lyapunov`` on
    arrival, otherwise ``max_time``, ``max_steps`` or ``domain_exit``
    (the last state is retained so callers can report the exit point).
    ``rejected`` and ``nfev`` are the integrator's work counters; they
    are not part of ``to_dict()``.
    """

    model: SystemModel
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    V: np.ndarray
    max_x: float
    converged: bool
    status: str
    steps: int
    rejected: int = 0
    nfev: int = 0
    config: IntegratorConfig | None = field(repr=False, default=None)

    @property
    def samples(self):
        """Iterator over (t, x, y, V) tuples."""
        return zip(self.t, self.x, self.y, self.V)

    @property
    def final_state(self) -> tuple:
        return float(self.x[-1]), float(self.y[-1])

    def to_csv(self, path) -> None:
        """Rows ``t,x,y,V`` with round-trip decimal formatting.

        The bytes are those of ``csv.writer`` over ``repr`` of each float
        (CRLF line ends, no quoting), formatted in bulk (``_floatcsv``).
        """
        from ._floatcsv import float_slots, write_csv  # as in write_grid_csv
        cols = [np.asarray(c, dtype=float).ravel()
                for c in (self.t, self.x, self.y, self.V)]
        write_csv(path, ("t", "x", "y", "V"), cols[0].size,
                  lambda lo, hi: np.split(
                      float_slots([c[lo:hi] for c in cols]), len(cols)))

    def _rows(self):
        """(t, x, y, V) rows of Python floats, one per sample."""
        return zip(*(np.asarray(c, dtype=float).tolist()
                     for c in (self.t, self.x, self.y, self.V)))

    def _summary(self) -> dict:
        """``to_dict()`` without the per-sample rows."""
        return {
            "family": self.model.family.value,
            "converged": self.converged,
            "status": self.status,
            "steps": self.steps,
            "max_x": self.max_x,
            "final_state": list(self.final_state),
        }

    def to_dict(self) -> dict:
        return {**self._summary(),
                "samples": [list(row) for row in self._rows()]}


def shoot_heteroclinic(m: SystemModel,
                       cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate from the unstable manifold of (0, 0) toward (z, z).

    Returns a Trajectory whose ``converged`` flag is set only on arrival;
    domain exit or budget exhaustion is reported through ``status``
    rather than raised, so the caller can inspect the last state.
    Raises ValueError unless ``cfg.eps_start < w``, which puts the launch
    point inside the trap region.
    """
    eps = cfg.eps_start
    if eps >= m.w:
        raise ValueError(f"eps_start must lie below w = {m.w!r} (launch "
                         f"inside the trap region), got {eps!r}")
    y0 = (eps, (m.a0 + 1.0) * eps)
    H, z = m.H, m.z

    r2 = cfg.converge_radius ** 2
    v = cfg.v_threshold
    # the log-free test compares d^2 with r^2 up one float and with
    # 2 M T (1 + mu) = M (c0 + c1 (y + z)) (module docstring)
    ell = m.x_max if math.isfinite(m.x_max) else z
    r2_up = math.nextafter(r2, math.inf)
    c0, c1 = 2.002 * (v * (1.0 + 1e-9) + 1e-12 * ell), 2.002e-9

    def arrived(x, y):
        # V on floats; the field validated this state at the FSAL stage
        d = y - z
        dd = d * d
        if dd > r2_up and dd > (y if y > z else z) * (c0 + c1 * (y + z)):
            return False
        if (x - z) ** 2 + d ** 2 <= r2:
            return True
        q = y / z
        if not q > 0.0:  # y <= 0, or y/z underflows: V is far above v
            return False
        return H(x) + y - z - z * math.log(q) <= v

    sol = integrate.integrate_adaptive(
        m.field, 0.0, y0, cfg.max_time, rtol=cfg.rel_tol, atol=cfg.abs_tol,
        max_steps=cfg.max_steps, stop=arrived)

    xs = sol.y[:, 0]
    ys = sol.y[:, 1]
    V = lyapunov_value(m, xs, np.maximum(ys, 1e-300))

    max_x = float(xs.max())
    # refine the x peak inside steps where x' changes sign (the sampled
    # maximum alone carries an O(h^2) bias)
    dx = sol.f[:, 0]
    for i in np.flatnonzero((dx[:-1] > 0.0) & (dx[1:] <= 0.0)):
        max_x = max(max_x, integrate.hermite_extremum_max(
            sol.t[i], sol.t[i + 1], xs[i], xs[i + 1], dx[i], dx[i + 1]))

    if sol.status == integrate.STOPPED:
        fin = sol.y[-1]
        if (fin[0] - m.z) ** 2 + (fin[1] - m.z) ** 2 <= r2:
            status, converged = "converged-radius", True
        else:
            status, converged = "converged-lyapunov", True
    elif sol.status == integrate.FINISHED:
        status, converged = "max_time", False
    else:
        status, converged = sol.status, False

    return Trajectory(model=m, t=sol.t, x=xs, y=ys, V=np.asarray(V),
                      max_x=max_x, converged=converged, status=status,
                      steps=sol.steps, rejected=sol.rejected, nfev=sol.nfev,
                      config=cfg)


def verify_lyapunov_monotone(traj: Trajectory) -> float:
    """Worst increase of V between consecutive samples (0.0 if fewer
    than two samples); the orbit contract is a value below 1e-9.

    Raises
    ------
    ValueError
        If the sample times are not strictly increasing.
    """
    if traj.t.size == 0:
        raise ValueError("empty trajectory")
    if np.any(np.diff(traj.t) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    if traj.t.size < 2:
        return 0.0
    return float(np.max(np.diff(traj.V)))


@dataclass(frozen=True)
class TrapRegionReport:
    """Sampled verification of the trap-region geometry.

    line_margin: worst dy/dx - (a0 + 1) on the unstable tangent line for
    x in (0, w] (must be <= tol); diagonal_min: worst y' on the diagonal
    segment (must be >= -1e-12 x_max, or -1e-12 for ``nonrel``);
    isocline_monotone is None for b = 0 (degenerate isocline, check
    skipped).
    """

    line_margin: float
    diagonal_min: float
    isocline_monotone: bool | None
    violation: tuple | None
    passed: bool


def check_trap_region(m: SystemModel, n: int = 1000,
                      tol: float = 1e-9) -> TrapRegionReport:
    """Sample the three geometric facts behind the trap-region argument.

    On the y' = 0 isocline dx/dy = b/(a' - b' y), so with b > 0 it is a
    decreasing graph x(y) where ``check_hypotheses``' slope fact holds
    (``bounds._slope_witness``).  A NaN margin is a violation: ``passed``
    is ``violation is None``.  Raises ``eval_field``'s DomainError where
    dy overflows (``scaled`` below a scale of about 1e-308), TypeError for
    an n that is not an integer, ValueError for n below 1 or a NaN tol.
    """
    n = _sample_count(n)
    if tol != tol:
        raise ValueError("tol must be a number, got nan")
    w = find_w(m)
    slope = m.a0 + 1.0
    xs, xs_d = np.linspace(w / n, w, n), np.linspace(m.z / n, m.z, n)
    ys = slope * xs
    dx, dy = eval_field(m, xs, ys)
    dy_d = eval_field(m, xs_d, xs_d)[1]  # on y = x, dx is 0.0

    violation = None
    margins = dy / dx - slope
    line_margin = float(margins.max())
    if not line_margin <= tol:
        i = int(np.argmax(margins))
        violation = ("line", float(xs[i]), float(ys[i]))

    diagonal_min = float(dy_d.min())
    # dy = x (a - b x) is 0 at x = z up to rounding, far below 1e-12 x_max
    if not diagonal_min >= -1e-12 * (m.x_max if m.x_max < math.inf else 1.0):
        x = float(xs_d[int(np.argmin(dy_d))])
        violation = violation or ("diagonal", x, x)

    point = None if m.b_is_zero else _slope_witness(m, w, n)
    if point is not None:
        violation = violation or ("isocline", *point)

    return TrapRegionReport(
        line_margin=line_margin, diagonal_min=diagonal_min,
        isocline_monotone=None if m.b_is_zero else point is None,
        violation=violation, passed=violation is None)


def isocline_x(m: SystemModel, y):
    """Abscissa x(y) of the y' = 0 isocline, from a(x) = y b(x).

    For the relativistic member (k, s) the isocline is the line
    x(y) = (2 - gamma s y)/((2 + beta) s) = x0 (1 - y b(0)/a(0)).
    Defined for y in [0, (a0 + 1) w]; maps that interval onto [w, x0]
    reversing the order, with x(z) = z and x(0) = x0.  Accepts a scalar
    or an array of y.

    Raises
    ------
    DomainError
        For the degenerate b = 0 family or y outside the interval.
    """
    if m.b_is_zero:
        raise DomainError("isocline degenerates for b = 0")
    hi = (m.a0 + 1.0) * m.w
    y = np.asarray(y, dtype=float)
    if not np.all((0.0 <= y) & (y <= hi * (1.0 + 1e-12))):
        raise DomainError(f"isocline is parameterised on [0, {hi}]")
    x = m.x0 * (1.0 - y * m.b(0.0) / m.a0)
    return x if x.ndim else float(x)
