"""Adaptive Dormand-Prince 5(4) integrator with PI step-size control.

Small, self-contained embedded pair for the autonomous planar fields of
this package: dense per-step recording (state and derivative at every
accepted step, enabling cubic Hermite post-processing), a user stop
predicate evaluated after each accepted step, and graceful handling of
stages that leave the field's domain (the step is shrunk instead of
aborting, so domain exit is reported at the boundary, not past it).

The step loop runs on two plain floats, since numpy's per-call overhead
outweighs the arithmetic of a planar state: ``field(x, y)`` returns the
pair ``(dx, dy)`` and ``stop(x, y)`` a truth value.  The time t is
accumulated and recorded but not passed to either.  numpy only
assembles the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Dormand-Prince 5(4) tableau without its zero entries and its nodes c
# (the fields are autonomous); the propagated solution is 5th order and
# the embedded 4th-order difference drives the error estimate.  FSAL:
# the last stage is the next step's first stage.
_A21, _A31, _A32 = 1 / 5, 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_ORDER = 5
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents (error^-kI * previous_error^kP)
_KI = 0.7 / _ORDER
_KP = 0.4 / _ORDER

FINISHED = "finished"
STOPPED = "stopped"
MAX_STEPS = "max_steps"
DOMAIN_EXIT = "domain_exit"


@dataclass
class OdeSolution:
    """Record of one adaptive integration run.

    ``t`` holds the accepted times, ``y`` the states (n, 2) and ``f``
    the field values at those states (n, 2); ``status`` is one of
    ``finished`` (reached max_time), ``stopped`` (stop predicate fired),
    ``max_steps`` or ``domain_exit``.  ``nfev`` counts every call of the
    field.
    """

    t: np.ndarray
    y: np.ndarray
    f: np.ndarray
    status: str
    steps: int
    rejected: int
    nfev: int


def integrate_adaptive(field, t0: float, y0, max_time: float, *,
                       rtol: float = 1e-10, atol: float = 1e-12,
                       max_steps: int = 200_000, stop=None) -> OdeSolution:
    """Integrate ``(x, y)' = field(x, y)`` from time ``t0`` until ``max_time``.

    Parameters
    ----------
    field : callable
        ``field(x, y) -> (dx, dy)`` on floats; may raise DomainError, in
        which case the offending step is shrunk and, below the minimal
        step size, the run ends with status ``domain_exit``.
    y0 : pair of float
        Initial state (x, y), converted to floats.
    stop : callable, optional
        ``stop(x, y) -> bool`` checked after every accepted step with the
        new state; a truthy value ends the run with status ``stopped``.

    Notes
    -----
    Step acceptance uses the scaled RMS norm of the embedded error
    estimate; accepted steps update the size through a PI controller
    (Gustafsson-style), rejected steps fall back to the plain integral
    controller.
    """
    # the tableau and the controller constants as locals, which the step
    # loop reads faster than module globals
    a21, a31, a32 = _A21, _A31, _A32
    a41, a42, a43 = _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    ki, kp, kr = -_KI, _KP, -1.0 / _ORDER

    t = float(t0)
    x, y = map(float, y0)
    nfev = 1
    try:
        k0x, k0y = field(x, y)
    except DomainError:
        raise DomainError("initial state outside the field domain")

    ts = [t]
    xs, ys = [x], [y]
    fxs, fys = [k0x], [k0y]

    # initial step from the scaled sizes of the state and its derivative
    sx = atol + rtol * abs(x)
    sy = atol + rtol * abs(y)
    d0 = max(abs(x) / sx, abs(y) / sy)
    d1 = max(abs(k0x) / sx, abs(k0y) / sy)
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    # the bookkeeping below spells min and max as comparisons, in the
    # builtins' argument order: min(a, b) is b only if b < a, max(a, b)
    # is b only if b > a, so a NaN h or err takes the same branch
    ax, ay = abs(x), abs(y)
    err_prev = 1.0
    status = FINISHED
    steps = 0
    rejected = 0

    while t < max_time:
        if steps >= max_steps:
            status = MAX_STEPS
            break
        # the floor 1e-14 max(1, |t|), the resolution of the step's start,
        # judges h before its cut to max_time; a NaN h passes
        if h < 1e-14 * (t if t > 1.0 else -t if t < -1.0 else 1.0):
            status = DOMAIN_EXIT
            break
        if max_time - t < h:
            h = max_time - t

        try:
            nfev += 1
            k1x, k1y = field(x + h * (a21 * k0x),
                             y + h * (a21 * k0y))
            nfev += 1
            k2x, k2y = field(x + h * (a31 * k0x + a32 * k1x),
                             y + h * (a31 * k0y + a32 * k1y))
            nfev += 1
            k3x, k3y = field(x + h * (a41 * k0x + a42 * k1x + a43 * k2x),
                             y + h * (a41 * k0y + a42 * k1y + a43 * k2y))
            nfev += 1
            k4x, k4y = field(x + h * (a51 * k0x + a52 * k1x + a53 * k2x
                                      + a54 * k3x),
                             y + h * (a51 * k0y + a52 * k1y + a53 * k2y
                                      + a54 * k3y))
            nfev += 1
            k5x, k5y = field(x + h * (a61 * k0x + a62 * k1x + a63 * k2x
                                      + a64 * k3x + a65 * k4x),
                             y + h * (a61 * k0y + a62 * k1y + a63 * k2y
                                      + a64 * k3y + a65 * k4y))
            xn = x + h * (b1 * k0x + b3 * k2x + b4 * k3x + b5 * k4x
                          + b6 * k5x)
            yn = y + h * (b1 * k0y + b3 * k2y + b4 * k3y + b5 * k4y
                          + b6 * k5y)
            nfev += 1
            k6x, k6y = field(xn, yn)
        except DomainError:
            h *= 0.25
            rejected += 1
            continue

        # |xn|, |yn| become the next step's |x|, |y|; the sign of a zero
        # or a NaN is lost in atol + rtol * |.| or in a rejected err
        axn = xn if xn >= 0.0 else -xn
        ayn = yn if yn >= 0.0 else -yn
        rx = (h * (e1 * k0x + e3 * k2x + e4 * k3x + e5 * k4x + e6 * k5x
                   + e7 * k6x) / (atol + rtol * (axn if axn > ax else ax)))
        ry = (h * (e1 * k0y + e3 * k2y + e4 * k3y + e5 * k4y + e6 * k5y
                   + e7 * k6y) / (atol + rtol * (ayn if ayn > ay else ay)))
        sq = rx * rx + ry * ry
        err = math.sqrt(sq / 2)

        if err <= 1.0:
            t += h
            x, y = xn, yn
            ax, ay = axn, ayn
            k0x, k0y = k6x, k6y  # FSAL
            steps += 1
            ts.append(t)
            xs.append(x)
            ys.append(y)
            fxs.append(k6x)
            fys.append(k6y)
            if stop is not None and stop(x, y):
                status = STOPPED
                break
            if err == 0.0:
                h *= max_factor
            else:
                # finite, since 0 < err <= 1 and 1e-10 <= err_prev <= 1
                factor = safety * err ** ki * err_prev ** kp
                h *= (min_factor if factor < min_factor else
                      max_factor if factor > max_factor else factor)
            err_prev = 1e-10 if 1e-10 > err else err
        else:
            rejected += 1
            # err > 1 or NaN, so the factor is below 0.9 or NaN and the
            # former cap at 1 never bound
            factor = safety * err ** kr
            h *= factor if factor > min_factor else min_factor

    return OdeSolution(t=np.array(ts), y=np.column_stack((xs, ys)),
                       f=np.column_stack((fxs, fys)).astype(float, copy=False),
                       status=status, steps=steps, rejected=rejected,
                       nfev=nfev)


def hermite_extremum_max(t0: float, t1: float, p0: float, p1: float,
                         d0: float, d1: float) -> float:
    """Maximum of the cubic Hermite interpolant of one component over a step.

    ``p0, p1`` are the endpoint values and ``d0, d1`` the endpoint time
    derivatives.  Used to refine the peak of x(t) between accepted steps.
    """
    h = t1 - t0
    m0, m1 = h * d0, h * d1
    best = max(p0, p1)
    # dp/dtheta = a theta^2 + b theta + c with:
    a = 6.0 * (p0 - p1) + 3.0 * (m0 + m1)
    b = -6.0 * (p0 - p1) - 4.0 * m0 - 2.0 * m1
    c = m0
    roots = []
    if a == 0.0:
        if b != 0.0:
            roots.append(-c / b)
    else:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            # stable form: the naive (-b +- sq)/(2a) loses the finite
            # root when a underflows toward zero (near-quadratic data)
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots.append(q / a)
            if q != 0.0:
                roots.append(c / q)
    for th in roots:
        if 0.0 < th < 1.0:
            h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
            h10 = th * (1.0 - th) ** 2
            h01 = th * th * (3.0 - 2.0 * th)
            h11 = th * th * (th - 1.0)
            best = max(best, h00 * p0 + h10 * m0 + h01 * p1 + h11 * m1)
    return best
