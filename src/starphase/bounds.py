"""Analytic upper bound X for the x extent of the heteroclinic orbit.

The orbit is trapped below the Lyapunov level through the corner point
``(z, (a0 + 1) w)`` of the trap region, so its x values never exceed

    X = H^{-1}(E),   E = (a0 + 1) w - z - z log((a0 + 1) w / z),

with ``H(x) = z B(x) - A(x)`` monotone on [z, x_max).  E is the "excess"
of the corner level over the minimum; X is computed both by direct
monotone inversion of H and, where available, in closed form through the
principal Lambert W branch.  ``bound_X`` requires the two routes to
agree to ``CLOSED_FORM_TOL`` (1e-9) relative.

For the kappa family two closed forms coexist:

* the one derived here from the actual primitives (log coefficient
  ``Q = (2 + beta)(x_max - z)``, see ``closed_form_X``), which matches
  the H inversion exactly and is what ``bound_X`` reports as
  ``X_closed``;
* the published corollary constants (``kappa_constants``), whose log
  coefficient differs for k != 1 and whose bound value is exposed as
  ``X_printed`` for reference and for the k = 1/3 literature comparison.

The two coincide at k = 1 (the stiff case).  Where they disagree the H
inversion is authoritative.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import rootfind
from .errors import ConvergenceError, DomainError, HypothesisError
from .lambertw import lambert_w
from .lyapunov import H
from .models import (DOMAIN_GUARD, Family, ModelSpec, SystemModel, find_w,
                     find_z, make_model)

#: demanded agreement between the closed form and the H inversion,
#: relative to X; ``bound_X`` raises above it
CLOSED_FORM_TOL = 1e-9


def excess_E(m: SystemModel) -> float:
    """Excess level E = (a0 + 1) w - z - z log((a0 + 1) w / z).

    Positive whenever (a0 + 1) w > z (strictly above the Lyapunov
    minimum), zero only in the degenerate coincidence (a0 + 1) w = z.
    Reads the model's closed-form w; ``find_w`` verifies it.
    """
    s = (m.a0 + 1.0) * m.w
    if s < m.z:
        raise HypothesisError(f"(a0+1)w = {s} < z = {m.z}")
    return s - m.z - m.z * math.log(s / m.z)


def invert_H(m: SystemModel, level: float) -> float:
    """The unique x >= z with H(x) = level.

    H is strictly increasing on [z, x_max), so a bracketed root search
    suffices; its right bracket end walks toward x_max - DOMAIN_GUARD
    (geometrically for an unbounded domain, halving the gap otherwise),
    where H is still defined.

    Raises
    ------
    DomainError
        For negative levels, or when the level is unreachable below
        x_max (the achievable supremum estimate is reported).
    """
    if level < 0.0:
        raise DomainError("H levels are nonnegative on [z, x_max)")
    # every probe of the bracket walk and of brentq lies in
    # [z, x_max - DOMAIN_GUARD), so H's domain is checked once, at z
    if not 0.0 <= m.z < m.x_max - DOMAIN_GUARD:
        m.check_x(m.z)
    try:
        return rootfind.solve_bracketed(lambda x: m.H(x) - level,
                                        m.z, m.x_max - DOMAIN_GUARD)
    except ConvergenceError:
        sup = H(m, m.x_max - 2.0 * max(DOMAIN_GUARD, 1e-15 * m.x_max)) \
            if math.isfinite(m.x_max) else math.inf
        raise DomainError(
            f"level {level} unreachable below x_max (sup H ~ {sup})") from None


#: Lambert argument of the stiff closed form, -2^(1/3) e^(-4/3); the
#: relativistic case of ``closed_form_X`` reduces to it at (k, s) = (1, 1)
STIFF_LAMBERT_ARG = -2.0 ** (1.0 / 3.0) * math.exp(-4.0 / 3.0)


def closed_form_X(m: SystemModel) -> float:
    """Closed-form bound, for every family.

    * b = 0 family: H = (x - z)^2 / 2, so X = z + sqrt(2 E).
    * relativistic member (k, s), a = 2 - beta s x/(1 - s x): H =
      -P (x - z) - Q log((x_max - x)/(x_max - z)) with P = 2 + beta and
      Q = P (x_max - z), giving
      X = x_max + (x_max - z) W0(-exp(-1 - E/Q)).
      At (1, 1) the Lambert argument is STIFF_LAMBERT_ARG and
      X = 1 + W0(-2^(1/3) e^(-4/3)) / 2.
    """
    E = excess_E(m)
    if m.b_is_zero:
        return m.z + math.sqrt(2.0 * E)
    k, _ = m.spec.ks
    Q = (2.0 + (1.0 + k) / (2.0 * k)) * (m.x_max - m.z)
    return m.x_max + (m.x_max - m.z) * lambert_w(-math.exp(-1.0 - E / Q))


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """``np.linspace(start, stop, num)`` bit for bit, for float ends and
    num >= 1, without its per-call overhead: the same operations on the
    same values, the subnormal-step and single-sample paths included."""
    y = np.arange(num, dtype=float)
    div, delta = num - 1, stop - start
    if div > 0 and delta / div != 0.0:
        y *= delta / div
    else:
        if div > 0:
            y /= div
        y *= delta
    y += start
    if div > 0:
        y[-1] = stop
    return y


def check_hypotheses(m: SystemModel, n: int = 200) -> None:
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
    xs = _linspace(0.0, hi, 4 * n)
    bs = np.asarray(m.b(xs), dtype=float)
    if (bs < 0.0).any():
        i = int(np.argmin(bs))
        raise HypothesisError(f"b < 0 at x = {xs[i]}", point=(float(xs[i]),))
    # the r sample spans [0, hi], so its domain check is the one at hi
    if not 0.0 <= hi < m.x_max - DOMAIN_GUARD:
        m.check_x(xs)
    rs = np.asarray(m.r(xs), dtype=float)
    if (rs < -1e-12).any():
        i = int(np.argmin(rs))
        raise HypothesisError(f"r < 0 at x = {xs[i]}", point=(float(xs[i]),))

    xs_w = _linspace(w / n, w, n)
    lhs = (m.a0 + 1.0) * w * np.asarray(m.b(xs_w), dtype=float)
    rhs = np.asarray(m.a(xs_w), dtype=float) - m.a0
    gap = rhs - lhs
    if (gap > 1e-12).any():
        i = int(np.argmax(gap))
        raise HypothesisError(
            f"(a0+1) w b(x) >= a(x) - a(0) fails at x = {xs_w[i]}",
            point=(float(xs_w[i]),))

    # a' and b' depend on x only, and the rounded a' - b' y is monotone
    # in y: on each abscissa its maximum over y in [z, (a0+1) w] is at one
    # of the two ends, bit for bit, so testing those two ordinates decides
    # the condition as any mesh of ordinates would
    xr = _linspace(w, m.z, n)[:, None]
    yr = np.array([m.z, (m.a0 + 1.0) * w])
    slope_cond = np.asarray(m.a_prime(xr), dtype=float) \
        - np.asarray(m.b_prime(xr), dtype=float) * yr
    if (slope_cond >= 0.0).any():
        i, j = np.unravel_index(int(np.argmax(slope_cond)), slope_cond.shape)
        raise HypothesisError(
            f"a' - b' y < 0 fails at ({xr[i, 0]}, {yr[j]})",
            point=(float(xr[i, 0]), float(yr[j])))


@dataclass(frozen=True)
class BoundReport:
    """Bound evaluation for one model: numeric inversion, closed form
    and their agreement."""

    family: str
    z: float
    w: float
    E: float
    X_numeric: float
    X_closed: float | None
    agreement: float | None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "z": self.z,
            "w": self.w,
            "E": self.E,
            "X_numeric": self.X_numeric,
            "X_closed": self.X_closed,
            "agreement": self.agreement,
        }


def bound_X(m: SystemModel) -> BoundReport:
    """Evaluate the bound: hypotheses check, H inversion, closed form.

    ``check_hypotheses`` verifies w and ``find_z`` verifies z by sign
    tests; the H inversion is the one root solve.  Raises
    ``ConvergenceError`` if the absolute ``agreement`` of the two routes
    exceeds ``CLOSED_FORM_TOL * X_numeric``.
    """
    check_hypotheses(m)
    z = find_z(m)
    E = excess_E(m)
    X_num = invert_H(m, E)
    X_cl = closed_form_X(m)
    agr = abs(X_num - X_cl)
    if agr > CLOSED_FORM_TOL * X_num:
        raise ConvergenceError(
            f"closed form X = {X_cl!r} and H inversion X = {X_num!r} differ "
            f"by {agr / X_num:.3g} relative, above CLOSED_FORM_TOL = "
            f"{CLOSED_FORM_TOL:g}")
    return BoundReport(family=m.family.value, z=z, w=m.w, E=E,
                       X_numeric=X_num, X_closed=X_cl, agreement=agr)


@dataclass(frozen=True)
class KappaConstants:
    """Published closed-form constants of the kappa-family corollary,
    evaluated verbatim.

    ``delta`` solves 8 k^2 delta = (5k + 1)(k + 1)^2; ``C`` is the
    additive constant of the published Lyapunov display; ``alpha`` and
    ``s`` are the Lambert prefactor and exponent scale of the published
    bound, and ``X_printed`` the bound value they produce.  For k != 1
    the published s disagrees with the model primitives and X_printed
    differs from the H inversion (see ``bound_X``); at k = 1 everything
    coincides with the stiff case.
    """

    kappa: float
    z: float
    w: float
    alpha: float
    D: float
    E: float
    delta: float
    C: float
    s: float
    X_printed: float

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa, "z": self.z, "w": self.w,
            "alpha": self.alpha, "D": self.D, "E": self.E,
            "delta": self.delta, "C": self.C, "s": self.s,
            "X_printed": self.X_printed,
        }


def kappa_constants(kappa: float) -> KappaConstants:
    """Evaluate the published kappa-family constants at one kappa."""
    k = float(kappa)
    if not 0.0 < k <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    one = (1.0 + k)
    den2 = 4.0 * k + one ** 2          # 4k + (1+k)^2
    den3 = 4.0 * k + one ** 3          # 4k + (1+k)^3
    z = 4.0 * k / den2
    w = 4.0 * k / (3.0 * k * k + 8.0 * k + 1.0)
    alpha = (1.0 + 5.0 * k) / one * den2 / den3
    s = one / (2.0 * k) * den3 / den2
    D = 2.0 * (1.0 + 5.0 * k) / den2 + s * math.log(one ** 2 / den2)
    E = (12.0 * k / (3.0 * k * k + 8.0 * k + 1.0) - z
         - z * math.log((3.0 * k * k + 18.0 * k + 3.0)
                        / (3.0 * k * k + 8.0 * k + 1.0)))
    delta = (5.0 * k + 1.0) * one ** 2 / (8.0 * k * k)
    C = (3.0 + 1.0 / k) * z + 2.0 * z * math.log(z * (1.0 - z) ** delta)
    X_printed = 1.0 + lambert_w(
        -alpha * math.exp(-alpha - (E - D) / s)) / alpha
    return KappaConstants(kappa=k, z=z, w=w, alpha=alpha, D=D, E=E,
                          delta=delta, C=C, s=s, X_printed=X_printed)


def kappa_sweep(kappas) -> list[dict]:
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


def sweep_to_csv(rows: list[dict], path) -> None:
    """CSV with header kappa,z,w,alpha,D,E,X_closed,X_numeric."""
    fields = ["kappa", "z", "w", "alpha", "D", "E", "X_closed", "X_numeric"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([repr(float(row[f])) for f in fields])
