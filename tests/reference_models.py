"""Oracles for the closed-form ``r``, the hypothesis check and the
verification of z, w and x0.

``reference_r_at_z`` is ``models.r_at_z`` as it was before the interior
point read r(z) from the closed form ``m.r``: the derivative limit
z b'(z) - a'(z).  ``reference_r_factor`` is the guarded quotient that
``models.r_factor`` was before the model carried r in closed form: it
divides z b(x) - a(x) by x - z and returns the derivative limit inside
the absolute band |x - z| < SINGULARITY_GUARD.  ``reference_check_hypotheses`` is
``bounds.check_hypotheses`` as it was when it sampled r through that
quotient and built its grids with ``np.linspace``.
``reference_verified`` is ``models._verified`` as it was before the
two-point sign test: a bracket walk from 1e-9 x_max and a Brent solve of
the objective (scipy's, so that the oracle shares no solver with the
package), compared with the closed form.  ``oracle_verification``
routes ``find_z``, ``find_w`` and ``find_x0`` through it.  The three
oracles are kept verbatim apart from their names, and the old root solve
is split out as ``reference_root``.  ``reference_kappa_sweep`` is
``bounds.kappa_sweep`` as it was before it checked the hypotheses of its
rows in batches: one ``bound_X`` per row.
"""

import contextlib
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from starphase import models
from starphase.bounds import bound_X, kappa_constants
from starphase.errors import HypothesisError
from starphase.models import (VERIFY_TOL, Family, ModelSpec, SystemModel,
                              find_w, make_model)
from starphase.rootfind import ROOT_XTOL, expand_bracket

#: |x - z| below this: the quotient switches to its derivative limit
SINGULARITY_GUARD = 1e-7


def reference_r_at_z(m: SystemModel) -> float:
    """Limit value r(z) = z b'(z) - a'(z)."""
    return float(m.z * m.b_prime(m.z) - m.a_prime(m.z))


def reference_r_factor(m: SystemModel, x):
    """Structural factor r(x) = (z b(x) - a(x)) / (x - z).

    The quotient has a removable singularity at x = z; inside the
    SINGULARITY_GUARD band the derivative limit z b'(z) - a'(z) is used
    instead.  Vectorised over x.
    """
    m.check_x(x)
    x = np.asarray(x, dtype=float)
    limit = reference_r_at_z(m)
    near = np.abs(x - m.z) < SINGULARITY_GUARD
    denom = np.where(near, 1.0, x - m.z)
    quotient = (m.z * m.b(x) - m.a(x)) / denom
    out = np.where(near, limit, quotient)
    return out if out.ndim else float(out)


def reference_check_hypotheses(m: SystemModel, n: int = 200) -> None:
    """Sampled verification of the four structural hypotheses behind the
    bound: sign conditions on b, a(0) and r, the w crossing identity with
    its ordering, the tangent-line inequality below w, and the isocline
    slope condition on the rectangle [w, z] x [z, (a0+1) w].

    Raises HypothesisError naming the failing condition and a witness.
    """
    if m.a0 <= 0.0:
        raise HypothesisError(f"a(0) = {m.a0} is not positive")
    w = find_w(m)  # also enforces (a0+1)w > z >= w > 0

    hi = 0.95 * m.x_max if math.isfinite(m.x_max) else 4.0 * m.z
    xs = np.linspace(0.0, hi, 4 * n)
    bs = np.asarray(m.b(xs), dtype=float)
    if np.any(bs < 0.0):
        i = int(np.argmin(bs))
        raise HypothesisError(f"b < 0 at x = {xs[i]}", point=(float(xs[i]),))
    rs = np.asarray(reference_r_factor(m, xs), dtype=float)
    if np.any(rs < -1e-12):
        i = int(np.argmin(rs))
        raise HypothesisError(f"r < 0 at x = {xs[i]}", point=(float(xs[i]),))

    xs_w = np.linspace(w / n, w, n)
    lhs = (m.a0 + 1.0) * w * np.asarray(m.b(xs_w), dtype=float)
    rhs = np.asarray(m.a(xs_w), dtype=float) - m.a0
    gap = rhs - lhs
    if np.any(gap > 1e-12):
        i = int(np.argmax(gap))
        raise HypothesisError(
            f"(a0+1) w b(x) >= a(x) - a(0) fails at x = {xs_w[i]}",
            point=(float(xs_w[i]),))

    # a' and b' depend on x only, and the rounded a' - b' y is monotone
    # in y: on each abscissa its maximum over y in [z, (a0+1) w] is at one
    # of the two ends, bit for bit, so testing those two ordinates decides
    # the condition as any mesh of ordinates would
    xr = np.linspace(w, m.z, n)[:, None]
    yr = np.array([m.z, (m.a0 + 1.0) * w])
    slope_cond = np.asarray(m.a_prime(xr), dtype=float) \
        - np.asarray(m.b_prime(xr), dtype=float) * yr
    if np.any(slope_cond >= 0.0):
        i, j = np.unravel_index(int(np.argmax(slope_cond)), slope_cond.shape)
        raise HypothesisError(
            f"a' - b' y < 0 fails at ({xr[i, 0]}, {yr[j]})",
            point=(float(xr[i, 0]), float(yr[j])))


def reference_root(m: SystemModel, g) -> float:
    """Root of ``g``: bracket walk from 1e-9 x_max, then scipy's Brent."""
    a, b = expand_bracket(g, 1e-9 * min(1.0, m.x_max), m.x_max)
    return a if a == b else brentq(g, a, b, xtol=ROOT_XTOL)


def reference_verified(m: SystemModel, name: str, value: float, g) -> float:
    """Return the closed-form ``value`` after checking it against the
    bracketed root of ``g`` on (0, x_max)."""
    root = reference_root(m, g)
    if abs(root - value) > VERIFY_TOL * max(1.0, abs(value)):
        raise HypothesisError(
            f"numeric {name}={root!r} disagrees with closed form {value!r}")
    return value


@contextlib.contextmanager
def oracle_verification(m: SystemModel):
    """Within the block, ``find_z``, ``find_w`` and ``find_x0`` of ``m``
    verify through ``reference_verified``.  Yields a dict that maps each
    verified name to (closed form, the oracle's root)."""
    found = {}

    def through_oracle(name, value, g):
        found[name] = (value, reference_root(m, g))
        return reference_verified(m, name, value, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_verified", through_oracle)
        yield found


def reference_kappa_sweep(kappas) -> list[dict]:
    """Bound evaluation over a kappa grid.

    Each row carries the published constants alongside both bound
    routes; ``X_closed`` is the primitive-consistent closed form (equal
    to ``X_numeric`` to round-off).
    """
    rows = []
    for k in kappas:
        m = make_model(ModelSpec(Family.KAPPA_FAMILY, kappa=float(k)))
        rep = bound_X(m)
        kc = kappa_constants(float(k))
        rows.append({
            "kappa": float(k), "z": rep.z, "w": rep.w,
            "alpha": kc.alpha, "D": kc.D, "E": rep.E,
            "X_closed": rep.X_closed, "X_numeric": rep.X_numeric,
        })
    return rows
