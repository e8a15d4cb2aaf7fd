"""Oracles for ``starphase.integrate.integrate_adaptive`` and the shoot.

``reference_integrate`` is the tuple-state Dormand-Prince loop that the
planar loop replaced, kept verbatim apart from its name: ``field(t, y)``
and ``stop(t, y)`` take the time and the state as a tuple of floats.
Same tableau, controller, FSAL, ``DomainError`` shrink and statuses, so
the planar loop must reproduce its arrays and counters bit for bit.

``reference_shoot`` drives that loop with the heteroclinic shoot's
closures as they were before the model carried a fused field: the field
``a(x)*y - b(x)*y*y`` from the coefficient callables and an arrival test
that evaluates H on every accepted step.
"""

import math

import numpy as np

from starphase.errors import DomainError
from starphase.integrate import (DOMAIN_EXIT, FINISHED, MAX_STEPS, STOPPED,
                                 OdeSolution)

# Dormand-Prince 5(4) tableau without its zero entries; the propagated
# solution is 5th order and the embedded 4th-order difference drives the
# error estimate.  FSAL: the last stage is the next step's first stage.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
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


def reference_integrate(field, t0: float, y0, max_time: float, *,
                        rtol: float = 1e-10, atol: float = 1e-12,
                        max_steps: int = 200_000, stop=None) -> OdeSolution:
    """Integrate ``y' = field(t, y)`` forward from ``t0`` until ``max_time``.

    Parameters
    ----------
    field : callable
        ``field(t, y) -> sequence of floats``, where ``y`` is a tuple of
        floats; may raise DomainError, in which case the offending step
        is shrunk and, below the minimal step size, the run ends with
        status ``domain_exit``.
    y0 : sequence of float
        Initial state, converted to a tuple of floats.
    stop : callable, optional
        ``stop(t, y) -> bool`` checked after every accepted step with the
        new state as a tuple of floats; a truthy value ends the run with
        status ``stopped``.

    Notes
    -----
    Step acceptance uses the scaled RMS norm of the embedded error
    estimate; accepted steps update the size through a PI controller
    (Gustafsson-style), rejected steps fall back to the plain integral
    controller.
    """
    t = float(t0)
    y = tuple(map(float, y0))
    nfev = 1
    try:
        k0 = field(t, y)
    except DomainError:
        raise DomainError("initial state outside the field domain")

    ts = [t]
    ys = [y]
    fs = [k0]

    # initial step from the scaled sizes of the state and its derivative
    scale = [atol + rtol * abs(v) for v in y]
    d0 = max(abs(v) / s for v, s in zip(y, scale))
    d1 = max(abs(f) / s for f, s in zip(k0, scale))
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h = min(h, max_time - t0)
    err_prev = 1.0
    status = FINISHED
    steps = 0
    rejected = 0
    h_min_floor = 1e-14 * max(1.0, abs(max_time))

    while t < max_time:
        if steps >= max_steps:
            status = MAX_STEPS
            break
        h = min(h, max_time - t)
        if h < h_min_floor:
            status = DOMAIN_EXIT
            break

        try:
            nfev += 1
            k1 = field(t + _C2 * h, tuple([
                v + h * (_A21 * a) for v, a in zip(y, k0)]))
            nfev += 1
            k2 = field(t + _C3 * h, tuple([
                v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k0, k1)]))
            nfev += 1
            k3 = field(t + _C4 * h, tuple([
                v + h * (_A41 * a + _A42 * b + _A43 * c)
                for v, a, b, c in zip(y, k0, k1, k2)]))
            nfev += 1
            k4 = field(t + _C5 * h, tuple([
                v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                for v, a, b, c, d in zip(y, k0, k1, k2, k3)]))
            nfev += 1
            k5 = field(t + h, tuple([
                v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d
                         + _A65 * e)
                for v, a, b, c, d, e in zip(y, k0, k1, k2, k3, k4)]))
            y_new = tuple([
                v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
                for v, a, c, d, e, f in zip(y, k0, k2, k3, k4, k5)])
            nfev += 1
            k6 = field(t + h, y_new)
        except DomainError:
            h *= 0.25
            rejected += 1
            continue

        sq = 0.0
        for v, vn, a, c, d, e, f, g in zip(y, y_new, k0, k2, k3, k4, k5, k6):
            r = (h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f
                      + _E7 * g) / (atol + rtol * max(abs(v), abs(vn))))
            sq += r * r
        err = math.sqrt(sq / len(y))

        if err <= 1.0:
            t += h
            y = y_new
            k0 = k6  # FSAL
            steps += 1
            ts.append(t)
            ys.append(y)
            fs.append(k6)
            if stop is not None and stop(t, y):
                status = STOPPED
                break
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_KI) * err_prev ** _KP
            err_prev = max(err, 1e-10)
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            rejected += 1
            h *= min(1.0, max(_MIN_FACTOR, _SAFETY * err ** (-1.0 / _ORDER)))

    return OdeSolution(t=np.array(ts), y=np.array(ys),
                       f=np.array(fs, dtype=float), status=status,
                       steps=steps, rejected=rejected, nfev=nfev)


def reference_shoot(m, cfg) -> OdeSolution:
    """The step record of ``shoot_heteroclinic(m, cfg)``, from
    ``reference_integrate`` and the shoot's former closures."""
    eps = cfg.eps_start
    y0 = (eps, (m.a0 + 1.0) * eps)
    a, b, H, z, x_end = m.a, m.b, m.H, m.z, m.x_end

    def field(t, s):
        x, y = s
        if not (0.0 <= x < x_end) or y < 0.0:
            raise DomainError("state left the admissible domain")
        return (y - x, a(x) * y - b(x) * y * y)

    r2 = cfg.converge_radius ** 2

    def arrived(t, s):
        x, y = s
        if (x - z) ** 2 + (y - z) ** 2 <= r2:
            return True
        return (y > 0.0 and H(x) + y - z - z * math.log(y / z)
                <= cfg.v_threshold)

    return reference_integrate(field, 0.0, y0, cfg.max_time,
                               rtol=cfg.rel_tol, atol=cfg.abs_tol,
                               max_steps=cfg.max_steps, stop=arrived)
