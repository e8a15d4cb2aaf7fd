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

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import rootfind
from .errors import (ConvergenceError, DomainError, HypothesisError,
                     StarphaseError)
from .lambertw import BRANCH_POINT, lambert_w
from .models import (Family, ModelSpec, SystemModel, find_w, find_z,
                     make_model)

#: demanded agreement between the closed form and the H inversion,
#: relative to X; ``bound_X`` raises above it
CLOSED_FORM_TOL = 1e-9

#: columns of a ``kappa_sweep`` row, in CSV order
SWEEP_FIELDS = ("kappa", "z", "w", "alpha", "D", "E", "X_closed", "X_numeric")


def excess_E(m: SystemModel) -> float:
    """Excess level E = (a0 + 1) w - z - z log((a0 + 1) w / z).

    Positive whenever (a0 + 1) w > z (strictly above the Lyapunov
    minimum), zero only in the degenerate coincidence (a0 + 1) w = z.
    Reads the model's closed-form w; ``find_w`` verifies it.
    """
    s, z = (m.a0 + 1.0) * m.w, m.z
    if s < z:
        raise HypothesisError(f"(a0+1)w = {s} < z = {z}")
    return s - z - z * math.log(s / z)


def invert_H(m: SystemModel, level: float) -> float:
    """The unique x >= z with H(x) = level.

    H is increasing and convex on [z, x_max), with H' = z b - a, so
    one call of ``rootfind.solve_bracketed`` on H - level with that
    derivative finds it, by Newton from the right end of a bracket that
    walks toward ``m.x_end`` (geometrically for an unbounded domain,
    halving the gap otherwise), where H is still defined.  Every probe
    lies in [z, x_end), so H's domain check is made once, at z.  The
    solve's tolerance is ROOT_XTOL x_max (ROOT_XTOL for ``nonrel``), and
    a member of any scale needs no rescaling.

    Raises
    ------
    DomainError
        For z outside the domain, for NaN and negative levels, where H
        overflows to NaN near x_max, or for a level above H(x_end).
    ConvergenceError
        When the Newton solve's budget runs out on a bracket.
    """
    H, a, b, z, x_max, x_end = m.H, m.a, m.b, m.z, m.x_max, m.x_end
    if not 0.0 <= z < x_end:
        m.check_x(z)
    if level != level:
        raise DomainError(f"H level must be a number, got {level}")
    if level < 0.0:
        raise DomainError("H levels are nonnegative on [z, x_max)")
    try:
        return rootfind.solve_bracketed(
            lambda x: H(x) - level, lambda x: z * b(x) - a(x), z, x_end,
            rootfind.ROOT_XTOL * (x_max if x_max < math.inf else 1.0))
    except ConvergenceError:
        sup = H(x_end) if x_end < math.inf else math.inf
        if not sup < level:  # the walk found a bracket; Newton gave up
            raise
        raise DomainError(
            f"level {level} unreachable below x_max (sup H ~ {sup})") from None
    except ValueError as exc:
        raise DomainError(f"H overflows near x_max = {x_max:g}: {exc}") from None


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
    if m.b_is_zero:
        return m.z + math.sqrt(2.0 * excess_E(m))
    k, _ = m.spec.ks
    Q = (2.0 + (1.0 + k) / (2.0 * k)) * (m.x_max - m.z)
    return m.x_max + (m.x_max - m.z) * lambert_w(
        -math.exp(-1.0 - excess_E(m) / Q))


def check_hypotheses(m: SystemModel, n: int = 200) -> None:
    """Verification of the four structural hypotheses behind the bound:
    sign conditions on b, a(0) and r, the w crossing identity with its
    ordering, the tangent-line inequality below w, and the isocline slope
    condition on the rectangle [w, z] x [z, (a0+1) w].

    Every model gets the checks of n (an integer in [1, MAX_SAMPLES])
    and of a(0) > 0, and ``find_w``'s sign test of w with its ordering
    (a0 + 1) w > z >= w > 0.  For a model that ``make_model`` built
    (``SystemModel.built_in``) the r sample's largest abscissa hi =
    0.95 x_max (4 z for ``nonrel``) lies below ``m.x_end``, and the
    sampled facts are identities of the closed forms (a0 = 2):

    * b = gamma s/(1 - s x) > 0 and r = c/(1 - s x) > 0 on [0, hi];
    * a - a0 - (a0 + 1) w b = -s (beta x + 3 gamma w)/(1 - s x) < 0;
    * a' - b' y = -s (beta + gamma s y)/(1 - s x)^2 < 0;

    and for ``nonrel`` b = 0, r = 1, a - a0 = -x and a' - b' y = -1.  So
    this O(1) predicate raises what the sampled check raises, in the
    same order.  Any other model, hand-built or made by
    ``dataclasses.replace``, is checked on samples: b and r on 4n
    abscissae of [0, hi], the tangent line on n of [w/n, w] and the slope
    on n of [w, z]; the sampled check is the predicate's test oracle.

    Raises HypothesisError naming the failing condition and a witness,
    DomainError when the r sample leaves [0, x_end), TypeError for an n
    that is not an integer and ValueError for n below 1 or above
    MAX_SAMPLES, before anything is allocated.
    """
    n = _sample_count(n)
    if m.a0 <= 0.0:
        raise HypothesisError(f"a(0) = {m.a0} is not positive")
    w = find_w(m)  # also enforces (a0+1)w > z >= w > 0
    if m.built_in:
        return

    hi = 0.95 * m.x_max if math.isfinite(m.x_max) else 4.0 * m.z
    xs = np.linspace(0.0, hi, 4 * n)
    bs = np.asarray(m.b(xs), dtype=float)
    if (bs < 0.0).any():
        i = int(np.argmin(bs))
        raise HypothesisError(f"b < 0 at x = {xs[i]}", point=(float(xs[i]),))
    # the r sample spans [0, hi], so its domain check is the one at hi
    if not 0.0 <= hi < m.x_end:
        m.check_x(xs)
    # r = c/(1 - s x) overflows to +inf, which passes, when c is near the
    # float maximum (kappa below about 1e-307)
    with np.errstate(over="ignore"):
        rs = np.asarray(m.r(xs), dtype=float)
    if (rs < -1e-12).any():
        i = int(np.argmin(rs))
        raise HypothesisError(f"r < 0 at x = {xs[i]}", point=(float(xs[i]),))

    xs_w = np.linspace(w / n, w, n)
    lhs = (m.a0 + 1.0) * w * np.asarray(m.b(xs_w), dtype=float)
    gap = np.asarray(m.a(xs_w), dtype=float) - m.a0 - lhs
    if (gap > 1e-12).any():
        i = int(np.argmax(gap))
        raise HypothesisError(
            f"(a0+1) w b(x) >= a(x) - a(0) fails at x = {xs_w[i]}",
            point=(float(xs_w[i]),))

    point = _slope_witness(m, w, n)
    if point is not None:
        raise HypothesisError(f"a' - b' y < 0 fails at {point}", point=point)


#: most samples n that ``check_hypotheses`` and ``check_trap_region`` take;
#: like ``lyapunov.MAX_GRID_NODES``, it bounds the arrays they allocate
MAX_SAMPLES = 10 ** 6


def _sample_count(n) -> int:
    """n as a sample count: TypeError unless an integer, ValueError below
    1 or above MAX_SAMPLES."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"n = {n} is above MAX_SAMPLES = {MAX_SAMPLES}")
    return n


def _slope_witness(m: SystemModel, w: float, n: int) -> tuple | None:
    """The worst point (x, y) of [w, z] x [z, (a0+1) w] where a' - b' y < 0
    fails, or None: an identity for a member of ``make_model``, else
    sampled at n abscissae and the two end ordinates, which decide bit for
    bit as a' and b' depend on x only and the rounded a' - b' y is monotone
    in y."""
    if m.built_in:
        return None
    xr = np.linspace(w, m.z, n)[:, None]
    yr = np.array([m.z, (m.a0 + 1.0) * w])
    slope_cond = np.asarray(m.a_prime(xr), dtype=float) \
        - np.asarray(m.b_prime(xr), dtype=float) * yr
    if not (slope_cond >= 0.0).any():
        return None
    i, j = np.unravel_index(int(np.argmax(slope_cond)), slope_cond.shape)
    return float(xr[i, 0]), float(yr[j])


@dataclass(frozen=True)
class BoundReport:
    """Bound evaluation for one model: numeric inversion, closed form
    and their agreement."""

    family: str
    z: float
    w: float
    E: float
    X_numeric: float
    X_closed: float
    agreement: float

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

    ``check_hypotheses`` verifies w (by its O(1) predicate for a member
    that ``make_model`` built) and ``find_z`` verifies z, both by sign
    tests; ``invert_H`` checks z's domain and makes the one root solve.
    Raises ``ConvergenceError`` if the absolute ``agreement`` of the two
    routes exceeds ``CLOSED_FORM_TOL * X_numeric``.
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


def _lambert_constants(k: float) -> tuple[float, float, float, float]:
    """z, alpha, s and D of the published bound at kappa k in (0, 1],
    verbatim: the one coding of these formulas, for ``kappa_constants``
    and for the alpha and D columns of ``kappa_sweep``."""
    one = (1.0 + k)
    den2 = 4.0 * k + one ** 2          # 4k + (1+k)^2
    den3 = 4.0 * k + one ** 3          # 4k + (1+k)^3
    alpha = (1.0 + 5.0 * k) / one * den2 / den3
    s = one / (2.0 * k) * den3 / den2
    D = 2.0 * (1.0 + 5.0 * k) / den2 + s * math.log(one ** 2 / den2)
    return 4.0 * k / den2, alpha, s, D


def kappa_constants(kappa: float) -> KappaConstants:
    """Evaluate the published kappa-family constants at one kappa.

    Raises ValueError for kappa outside (0, 1], and below kappa of about
    2.6e-155, where 8 kappa^2 underflows so far that delta overflows
    (below about 1e-162 it is 0).
    """
    k = float(kappa)
    if not 0.0 < k <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    eight_k2 = 8.0 * k * k
    delta = (5.0 * k + 1.0) * (1.0 + k) ** 2 / eight_k2 \
        if eight_k2 else math.inf
    if delta == math.inf:
        raise ValueError(
            f"kappa = {kappa} is too small: 8 kappa^2 = {eight_k2!r} "
            "underflows and delta = (5k + 1)(k + 1)^2 / (8 kappa^2) "
            "overflows")
    z, alpha, s, D = _lambert_constants(k)
    w = 4.0 * k / (3.0 * k * k + 8.0 * k + 1.0)
    E = (12.0 * k / (3.0 * k * k + 8.0 * k + 1.0) - z
         - z * math.log((3.0 * k * k + 18.0 * k + 3.0)
                        / (3.0 * k * k + 8.0 * k + 1.0)))
    # log z + delta log(1 - z): the power (1 - z)**delta underflows to 0
    # for kappa below about 6e-4, where delta ~ 1/(8 kappa^2) is huge
    C = (3.0 + 1.0 / k) * z + 2.0 * z * (math.log(z) + delta * math.log1p(-z))
    # the argument lies above -1/e (by 8e-24 relative at kappa = 1e-12),
    # but near kappa = 2e-9 it rounds an ulp below
    X_printed = 1.0 + lambert_w(
        max(BRANCH_POINT, -alpha * math.exp(-alpha - (E - D) / s))) / alpha
    return KappaConstants(kappa=k, z=z, w=w, alpha=alpha, D=D, E=E,
                          delta=delta, C=C, s=s, X_printed=X_printed)


def kappa_sweep(kappas) -> list[dict]:
    """Bound evaluation over a kappa grid.

    Row i is ``bound_X`` of the member that ``make_model`` builds at
    kappa i, so the O(1) predicate of ``check_hypotheses`` decides its
    hypotheses.  Each row carries the published alpha and D
    (``_lambert_constants``, as ``kappa_constants`` reports them)
    alongside both bound routes; ``X_closed`` is the primitive-consistent
    closed form (equal to ``X_numeric`` to round-off).

    Raises
    ------
    ValueError, StarphaseError
        From the first failing row, as ``ModelSpec`` or ``bound_X``
        raises it, the message prefixed with
        ``kappa = <repr> (row i of N): ``.
    """
    ks = [float(k) for k in kappas]
    rows = []
    for i, k in enumerate(ks, 1):
        try:
            rep = bound_X(make_model(ModelSpec(Family.KAPPA_FAMILY, kappa=k)))
        except (StarphaseError, ValueError) as exc:
            exc.args = (f"kappa = {k!r} (row {i} of {len(ks)}): {exc}",)
            raise
        _, alpha, _, D = _lambert_constants(k)
        rows.append({
            "kappa": k, "z": rep.z, "w": rep.w, "alpha": alpha, "D": D,
            "E": rep.E, "X_closed": rep.X_closed, "X_numeric": rep.X_numeric,
        })
    return rows


def sweep_to_csv(rows: list[dict], path) -> None:
    """CSV with header kappa,z,w,alpha,D,E,X_closed,X_numeric.

    Floats are written as ``repr``, in one write.  The bytes equal those
    of ``csv.writer`` with its default dialect: CRLF line ends, and no
    field here needs quoting.
    """
    lines = [",".join(SWEEP_FIELDS)]
    lines += [",".join([repr(float(row[f])) for f in SWEEP_FIELDS])
              for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
