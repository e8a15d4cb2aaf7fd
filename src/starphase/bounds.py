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
from dataclasses import dataclass

import numpy as np

from . import rootfind
from .errors import (ConvergenceError, DomainError, HypothesisError,
                     StarphaseError)
from .lambertw import BRANCH_POINT, lambert_w
from .models import (DOMAIN_GUARD, VERIFY_TOL, Family, ModelSpec, SystemModel,
                     find_w, find_z, make_model, primitives, relativistic,
                     w_objective, z_objective)

#: demanded agreement between the closed form and the H inversion,
#: relative to X; ``bound_X`` raises above it
CLOSED_FORM_TOL = 1e-9

#: rows per batched hypothesis check in ``kappa_sweep``, a memory cap: at
#: the default n = 200 its largest arrays, b and r on the 4n grid, hold
#: 64 x 800 floats (410 KB).  A batch's cost per row is near its floor
#: from about 30 to 100 rows and rises above that (BENCH_14.json)
SWEEP_CHUNK = 64

#: columns of a ``kappa_sweep`` row, in CSV order
SWEEP_FIELDS = ("kappa", "z", "w", "alpha", "D", "E", "X_closed", "X_numeric")


def excess_E(m: SystemModel) -> float:
    """Excess level E = (a0 + 1) w - z - z log((a0 + 1) w / z).

    Positive whenever (a0 + 1) w > z (strictly above the Lyapunov
    minimum), zero only in the degenerate coincidence (a0 + 1) w = z.
    Reads the model's closed-form w; ``find_w`` verifies it.
    """
    return _excess(m.a0, m.w, m.z)


def _excess(a0: float, w: float, z: float) -> float:
    """``excess_E`` of the member with these constants."""
    s = (a0 + 1.0) * w
    if s < z:
        raise HypothesisError(f"(a0+1)w = {s} < z = {z}")
    return s - z - z * math.log(s / z)


def invert_H(m: SystemModel, level: float) -> float:
    """The unique x >= z with H(x) = level.

    H is strictly increasing on [z, x_max), so a bracketed root search
    suffices; its right bracket end walks toward x_max - DOMAIN_GUARD
    (geometrically for an unbounded domain, halving the gap otherwise),
    where H is still defined.

    Raises
    ------
    DomainError
        For z outside the domain, for NaN and negative levels, or when
        the level is unreachable below x_max (the achievable supremum
        estimate is reported).
    """
    _check_z_in_domain(m)
    return _invert(m.H, m.z, m.x_max, level)


def _check_z_in_domain(m: SystemModel) -> None:
    """H's domain check for an inversion: every probe of the bracket walk
    and of brentq lies in [z, x_max - DOMAIN_GUARD), so it is made once,
    at z."""
    if not 0.0 <= m.z < m.x_max - DOMAIN_GUARD:
        m.check_x(m.z)


def _invert(H, z: float, x_max: float, level: float) -> float:
    """``invert_H`` on the level map H of a member whose z lies in the
    domain [0, x_max - DOMAIN_GUARD)."""
    if level != level:
        raise DomainError(f"H level must be a number, got {level}")
    if level < 0.0:
        raise DomainError("H levels are nonnegative on [z, x_max)")
    try:
        return rootfind.solve_bracketed(lambda x: H(x) - level,
                                        z, x_max - DOMAIN_GUARD)
    except ConvergenceError:
        sup = H(x_max - 2.0 * max(DOMAIN_GUARD, 1e-15 * x_max)) \
            if math.isfinite(x_max) else math.inf
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
    return _closed_form(m.z, m.x_max, _lambert_P(m), excess_E(m))


def _lambert_P(m: SystemModel) -> float | None:
    """P = 2 + beta of a relativistic model, None for b = 0."""
    if m.b_is_zero:
        return None
    k, _ = m.spec.ks
    return 2.0 + (1.0 + k) / (2.0 * k)


def _closed_form(z: float, x_max: float, P: float | None, E: float) -> float:
    """``closed_form_X`` of the member with these constants and excess E;
    P is None for the b = 0 family."""
    if P is None:
        return z + math.sqrt(2.0 * E)
    Q = P * (x_max - z)
    return x_max + (x_max - z) * lambert_w(-math.exp(-1.0 - E / Q))


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


def _row_linspace(start, stop, num: int) -> np.ndarray:
    """``_linspace`` for column arrays (R, 1) of ends: row i of the
    (R, num) result equals ``_linspace(start[i, 0], stop[i, 0], num)``
    bit for bit, the rows whose step underflows to zero included.  Float
    ends give the one row of ``_linspace``."""
    div, delta = num - 1, stop - start
    if np.ndim(delta) == 0:
        return _linspace(start, stop, num)
    y = np.arange(num, dtype=float)
    if div > 0:
        step = delta / div
        tiny = step == 0.0
        y = y * step
        if tiny.any():
            y = np.where(tiny, np.arange(num, dtype=float) / div * delta, y)
    else:
        y = y * delta
    y = y + start
    if div > 0:
        y[..., -1:] = stop
    return y


def check_hypotheses(m: SystemModel, n: int = 200) -> None:
    """Sampled verification of the four structural hypotheses behind the
    bound: sign conditions on b, a(0) and r, the w crossing identity with
    its ordering, the tangent-line inequality below w, and the isocline
    slope condition on the rectangle [w, z] x [z, (a0+1) w].

    Raises HypothesisError naming the failing condition and a witness,
    and ValueError for n below 1.

    ``kappa_sweep`` evaluates the same samples for up to SWEEP_CHUNK
    (64) members at once (``_hypotheses_hold``): the same elementwise
    IEEE operations on the same values, so its verdict is this check's, bit
    for bit; only a member it fails comes back here for the message.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
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
    # r = c/(1 - s x) overflows to +inf, which passes, when c is near the
    # float maximum (kappa below about 1e-307)
    with np.errstate(over="ignore"):
        rs = np.asarray(m.r(xs), dtype=float)
    if (rs < -1e-12).any():
        i = int(np.argmin(rs))
        raise HypothesisError(f"r < 0 at x = {xs[i]}", point=(float(xs[i]),))

    xs_w = _linspace(w / n, w, n)
    gap = _tangent_gap(m, w, xs_w)
    if (gap > 1e-12).any():
        i = int(np.argmax(gap))
        raise HypothesisError(
            f"(a0+1) w b(x) >= a(x) - a(0) fails at x = {xs_w[i]}",
            point=(float(xs_w[i]),))

    xr = _linspace(w, m.z, n)[:, None]
    yr = np.array([m.z, (m.a0 + 1.0) * w])
    slope_cond = _slope_condition(m, xr, yr)
    if (slope_cond >= 0.0).any():
        i, j = np.unravel_index(int(np.argmax(slope_cond)), slope_cond.shape)
        raise HypothesisError(
            f"a' - b' y < 0 fails at ({xr[i, 0]}, {yr[j]})",
            point=(float(xr[i, 0]), float(yr[j])))


def _tangent_gap(m, w, x):
    """a(x) - a(0) - (a0 + 1) w b(x); the tangent-line condition of
    ``check_hypotheses`` fails where it exceeds 1e-12."""
    lhs = (m.a0 + 1.0) * w * np.asarray(m.b(x), dtype=float)
    rhs = np.asarray(m.a(x), dtype=float) - m.a0
    return rhs - lhs


def _slope_condition(m, x, y):
    """a'(x) - b'(x) y, broadcast over the shapes of ``x`` and ``y``; the
    isocline slope condition of ``check_hypotheses`` needs it below 0.

    a' and b' depend on x only, and the rounded a' - b' y is monotone
    in y: on each abscissa its maximum over y in [z, (a0+1) w] is at one
    of the two ends, bit for bit, so testing those two ordinates decides
    the condition as any mesh of ordinates would."""
    return np.asarray(m.a_prime(x), dtype=float) \
        - np.asarray(m.b_prime(x), dtype=float) * y


#: a closed-form constant v is verified on the band v * _BAND
#: (``models._verified``)
_BAND = np.array([1.0 - VERIFY_TOL, 1.0 + VERIFY_TOL])


def _changes_sign(g) -> np.ndarray:
    """Column (R, 1): whether each row of objective values g (R, 2) on
    the band changes sign, as ``models._verified`` decides it (min <= 0
    <= max is its test, a zero counting and NaN failing)."""
    return ((g.min(axis=-1, keepdims=True) <= 0.0)
            & (g.max(axis=-1, keepdims=True) >= 0.0))


def _hypotheses_hold(p, n: int = 200) -> np.ndarray:
    """Verdicts of ``check_hypotheses(m, n)`` for a stack of R members:
    element i is True exactly when the check passes for member i.

    ``p`` holds a0, z, w and x_max as columns (R, 1), x_max finite (it
    may be one float for all rows), and a, b, r, a' and b' as callables
    that map samples of shape (n,) or (R, n) to (R, n), as
    ``models.relativistic`` builds them for a column of kappa.  Each
    check takes the same elementwise operations on the same samples as
    the scalar one (``_row_linspace`` builds each row of a grid bit for
    bit), so only the reductions differ.  The caller re-runs
    ``check_hypotheses`` on a failing member for its error and witness.
    """
    a0, z, w = p.a0, p.z, p.w
    top = (a0 + 1.0) * w
    # find_w: its objective changes sign on the band, and w is ordered
    ok = ((a0 > 0.0) & _changes_sign(w_objective(p, w * _BAND))
          & (top > z) & (z >= w - 1e-15) & (w > 0.0))

    # b and r signs, and the domain check of the r sample
    xs = _row_linspace(0.0, 0.95 * p.x_max, 4 * n)
    bad = ((p.b(xs) < 0.0) | (xs < 0.0) | (xs >= p.x_max - DOMAIN_GUARD)
           | (p.r(xs) < -1e-12))
    ok &= ~bad.any(axis=-1, keepdims=True)
    gap = _tangent_gap(p, w, _row_linspace(w / n, w, n))
    ok &= ~(gap > 1e-12).any(axis=-1, keepdims=True)
    # ordinates first, so each array operation runs along a whole row
    yr = np.stack([z, top])
    slope_cond = _slope_condition(p, _row_linspace(w, z, n), yr)
    return ok[:, 0] & ~(slope_cond >= 0.0).any(axis=(0, 2))


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
    return _bound_report(m)


def _bound_report(m: SystemModel) -> BoundReport:
    """``bound_X`` of a model whose hypotheses are checked."""
    z = find_z(m)
    E = excess_E(m)
    _check_z_in_domain(m)
    X_num, X_cl, agr = _bound(m.H, z, m.x_max, _lambert_P(m), E)
    return BoundReport(family=m.family.value, z=z, w=m.w, E=E,
                       X_numeric=X_num, X_closed=X_cl, agreement=agr)


def _bound(H, z: float, x_max: float, P: float | None,
           E: float) -> tuple[float, float, float]:
    """X_numeric, X_closed and their absolute agreement for the member
    with level map H, verified z in the domain, x_max, P = 2 + beta
    (None for b = 0) and excess E: the one bound computation of
    ``bound_X`` and of ``kappa_sweep``'s rows.  Raises
    ``ConvergenceError`` if the agreement exceeds
    ``CLOSED_FORM_TOL * X_numeric``."""
    X_num = _invert(H, z, x_max, E)
    X_cl = _closed_form(z, x_max, P, E)
    agr = abs(X_num - X_cl)
    if agr > CLOSED_FORM_TOL * X_num:
        raise ConvergenceError(
            f"closed form X = {X_cl!r} and H inversion X = {X_num!r} differ "
            f"by {agr / X_num:.3g} relative, above CLOSED_FORM_TOL = "
            f"{CLOSED_FORM_TOL:g}")
    return X_num, X_cl, agr


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

    Each row carries the published alpha and D (``_lambert_constants``,
    as ``kappa_constants`` reports them) alongside both bound routes;
    ``X_closed`` is the primitive-consistent closed form (equal to
    ``X_numeric`` to round-off).

    The rows are taken SWEEP_CHUNK (64) at a time, a shorter sweep in one
    batch: ``models.relativistic`` writes the constants of the stacked
    members as columns, ``_hypotheses_hold`` evaluates
    ``check_hypotheses``'s samples on them, and z's sign test
    (``find_z``) runs on the z column; each is exact because it takes
    the same IEEE operations on the same values.  A row whose kappa lies
    in (0, 1] and that passes both takes its bound from its own column
    entries: its excess E, its level map (``models.primitives``) and
    ``_bound``, the computation of ``bound_X``, so the row equals
    ``bound_X``'s report bit for bit, with no ``ModelSpec`` or
    ``SystemModel`` built.  Every other row takes the scalar path in row
    order (``make_model``, ``check_hypotheses``, ``bound_X``'s report)
    for the error and witness.

    Raises
    ------
    ValueError, StarphaseError
        From the first failing row, as ``ModelSpec`` or ``bound_X``
        raises it, the message prefixed with
        ``kappa = <repr> (row i of N): ``.
    """
    ks = [float(k) for k in kappas]
    rows = []
    for start in range(0, len(ks), SWEEP_CHUNK):
        chunk = np.array(ks[start:start + SWEEP_CHUNK])
        with np.errstate(all="ignore"):
            rel = relativistic(chunk[:, None], 1.0)
            # ModelSpec's range; a kappa outside it is refused by the
            # scalar path in its turn
            fast = ((chunk > 0.0) & (chunk <= 1.0) & _hypotheses_hold(rel)
                    & _changes_sign(z_objective(rel, rel.z * _BAND))[:, 0])
        columns = zip(*[v[:, 0].tolist() for v in
                        (rel.z, rel.w, rel.a0, rel.P, rel.beta, rel.gamma)])
        for i, (k, ok, (z, w, a0, P, beta, gamma)) in enumerate(
                zip(chunk.tolist(), fast.tolist(), columns), start + 1):
            try:
                if ok:
                    E = _excess(a0, w, z)
                    H = primitives(1.0, z, P, beta, gamma).H
                    X_num, X_cl, _ = _bound(H, z, rel.x_max, P, E)
                else:
                    m = make_model(ModelSpec(Family.KAPPA_FAMILY, kappa=k))
                    check_hypotheses(m)
                    rep = _bound_report(m)
                    z, w, E = rep.z, rep.w, rep.E
                    X_num, X_cl = rep.X_numeric, rep.X_closed
            except (StarphaseError, ValueError) as exc:
                exc.args = (f"kappa = {k!r} (row {i} of {len(ks)}): {exc}",)
                raise
            _, alpha, _, D = _lambert_constants(k)
            rows.append({
                "kappa": k, "z": z, "w": w, "alpha": alpha, "D": D, "E": E,
                "X_closed": X_cl, "X_numeric": X_num,
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
