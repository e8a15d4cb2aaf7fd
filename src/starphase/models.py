"""Model families for the planar system x' = y - x, y' = a(x) y - b(x) y^2.

Each family fixes a pair of coefficient functions (a, b) together with
their derivatives and primitives.  The four built-in families all come
from integrated-density reductions of self-gravitating matter:

* ``nonrel`` -- a(x) = 2 - x, b = 0 (isothermal Newtonian cloud)
* the relativistic stars, p = k c^2 rho with 0 < k <= 1: the members
  (k, s) of a(x) = 2 - beta s x/(1 - s x), b(x) = gamma s/(1 - s x),
  beta = (1+k)/(2k), gamma = (1+k)/2, on [0, 1/s).  ``ModelSpec.ks``
  names the presets: ``stiff`` is (1, 1), ``scaled`` is (1, sigma) and
  ``kappa`` is (k, 1).

A member is the (k, 1) member shrunk by 1/s, so z = 4k/((1+k)^2 + 4k)/s,
w = 4k/(3k^2 + 8k + 1)/s and x0 = 4k/(1 + 5k)/s; the y' = 0 isocline is
the line x(y) = (2 - gamma s y)/((2 + beta) s), and the bound is
X = x_max + (x_max - z) W0(-exp(-1 - E/Q)), Q = (2 + beta)(x_max - z)
(``starphase.bounds``).

Primitives are stored pre-shifted so A(z) = B(z) = 0 at the interior
stationary point z, which normalises the Lyapunov function to vanish at
(z, z).  Three derived callables have closed forms: the structural factor
r(x) = (z b(x) - a(x))/(x - z), which is c/(1 - s x) with c = (2 + beta) s
(1 for ``nonrel``) and so has no singularity at z; the level map
H(x) = z B(x) - A(x), evaluated as one expression that takes
log1p(-s x) once and returns ``z*B(x) - A(x)`` bit for bit; and the
planar field ``field(x, y)`` of the heteroclinic shoot, which takes
1 - s x once and returns ``(y - x, a(x)*y - b(x)*y*y)`` bit for bit.
The field is float-only and raises ``DomainError`` outside the shoot's
box 0 <= x < x_end, y >= 0 (``SystemModel.x_end``, the one pole guard);
every other coefficient callable accepts scalars or numpy arrays.
``make_model`` marks the members it builds (``SystemModel.built_in``):
for them ``bounds.check_hypotheses`` runs an O(1) predicate in place of
its samples, whose facts are identities of the closed forms above.
``find_z``, ``find_w`` and ``find_x0`` return the closed forms after a
sign test of their objective on the band v (1 -+ VERIFY_TOL); no root is
solved here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, HypothesisError

#: relative pole guard: evaluation rejects x >= x_max (1 - DOMAIN_GUARD)
DOMAIN_GUARD = 1e-12

#: relative half-width of the band where a constant's objective changes sign
VERIFY_TOL = 1e-9


class Family(str, Enum):
    NONRELATIVISTIC = "nonrel"
    STIFF_RELATIVISTIC = "stiff"
    SCALED_RELATIVISTIC = "scaled"
    KAPPA_FAMILY = "kappa"


@dataclass(frozen=True)
class ModelSpec:
    """Validated request for one member of the model family.

    Parameters
    ----------
    family : Family or str
        One of the four built-in families.
    kappa : float, optional
        Equation-of-state ratio, required for ``kappa`` and restricted to
        (0, 1]; values above 1 are untested and rejected, and so are
        values below about 2.8e-309, where beta = (1 + kappa)/(2 kappa)
        overflows.
    scale : float, optional
        Positive rescaling sigma for ``scaled`` (default 8 pi); values
        below about 5.6e-309, where x_max = 1/sigma overflows, and above
        about 5.99e307, where c = 3 sigma overflows, are rejected.
    """

    family: Family
    kappa: float | None = None
    scale: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.family is Family.KAPPA_FAMILY:
            if self.kappa is None:
                raise ValueError("kappa family requires a kappa value")
            if not 0.0 < self.kappa <= 1.0:
                raise ValueError(f"kappa must lie in (0, 1], got {self.kappa}")
            k = float(self.kappa)
            if (1.0 + k) / (2.0 * k) == math.inf:
                raise ValueError(
                    f"kappa = {self.kappa} is too small: beta = (1 + kappa)"
                    " / (2 kappa) overflows")
        elif self.kappa is not None:
            raise ValueError("kappa is only meaningful for the kappa family")
        if self.family is Family.SCALED_RELATIVISTIC:
            if self.scale is None:
                object.__setattr__(self, "scale", 8.0 * math.pi)
            if not (math.isfinite(self.scale) and self.scale > 0.0):
                raise ValueError(
                    f"scale must be positive and finite, got {self.scale}")
            if 1.0 / float(self.scale) == math.inf:
                raise ValueError(
                    f"scale = {self.scale} is too small: x_max = 1 / scale"
                    " overflows")
            if 3.0 * float(self.scale) == math.inf:
                raise ValueError(f"scale = {self.scale} is too large: "
                                 "c = 3 scale overflows")
        elif self.scale is not None:
            raise ValueError("scale is only meaningful for the scaled family")

    @property
    def ks(self) -> tuple[float, float] | None:
        """(k, s) of the relativistic member, None for ``nonrel``."""
        if self.family is Family.NONRELATIVISTIC:
            return None
        return (1.0 if self.kappa is None else self.kappa,
                1.0 if self.scale is None else self.scale)


@dataclass(frozen=True)
class SystemModel:
    """One member of the family, with coefficients, derivatives and
    normalised primitives.

    Immutable after construction; every callable is pure, so instances
    are safe for unrestricted concurrent use.

    Attributes
    ----------
    a, b : callable
        Coefficient functions of x.
    a_prime, b_prime : callable
        Their derivatives; only the sampled slope check reads them.
    A, B : callable
        Primitives of a and b, shifted so ``A(z) = B(z) = 0``.
    r : callable
        Structural factor (z b(x) - a(x))/(x - z) in closed form,
        c/(1 - s x) with c = (2 + beta) s, and 1 for ``nonrel``; r(z) is
        the limit z b'(z) - a'(z), which the interior point reads from it.
    H : callable
        Level map z B(x) - A(x), bit-identical to that expression on
        floats and arrays (the sign of the zero at x = z included).
    field : callable
        Planar field ``field(x, y) -> (dx, dy)`` on floats only,
        bit-identical to ``(y - x, a(x)*y - b(x)*y*y)``; ``make_model``
        fuses it into one expression (the relativistic branch takes
        1 - s x once).  It raises ``DomainError`` outside the shoot's box
        ``0.0 <= x < x_end``, ``y >= 0.0``, so ``shoot_heteroclinic``
        integrates it as it is.  ``make_model`` builds r, H and field; a
        hand-built model must supply them.
    x_max : float
        Right end of the admissible x interval (pole of a, b or +inf).
    a0 : float
        ``a(0)``; positive for every built-in family.
    z, w, x0 : float
        Closed-form structural constants: interior stationary abscissa,
        unstable-line/isocline intersection, zero of a.
    b_is_zero : bool
        True for the degenerate b = 0 family.
    built_in : bool
        True only for a member that ``make_model`` built, whose
        hypotheses ``bounds.check_hypotheses`` decides by an O(1)
        predicate.  It is not a constructor argument, and
        ``dataclasses.replace`` does not copy it, so every other model
        is unmarked and gets the sampled check.
    """

    spec: ModelSpec
    a: Callable
    b: Callable
    a_prime: Callable
    b_prime: Callable
    A: Callable
    B: Callable
    r: Callable
    H: Callable
    field: Callable
    x_max: float
    a0: float
    z: float
    w: float
    x0: float
    b_is_zero: bool = False
    built_in: bool = dataclasses.field(default=False, init=False)

    @property
    def family(self) -> Family:
        return self.spec.family

    @property
    def x_end(self) -> float:
        """End x_max (1 - DOMAIN_GUARD) of the domain [0, x_end)."""
        return self.x_max * (1.0 - DOMAIN_GUARD)

    def check_x(self, x) -> None:
        """Reject x outside [0, x_end), NaN included."""
        x = np.asarray(x, dtype=float)
        if not np.all((0.0 <= x) & (x < self.x_end)):
            raise DomainError(
                f"x outside [0, {self.x_max}) for family '{self.family.value}'")

    def check_xy(self, x, y, y_positive: bool = False) -> None:
        """``check_x``, and reject y that is not finite and nonnegative
        (positive with ``y_positive``)."""
        self.check_x(x)
        y = np.asarray(y, dtype=float)
        ok = (0.0 < y) if y_positive else (0.0 <= y)
        if not np.all(ok & (y < math.inf)):
            sign = "positive" if y_positive else "nonnegative"
            raise DomainError(f"y must be {sign} and finite")


def make_model(spec: ModelSpec) -> SystemModel:
    """Construct the requested family member.

    Raises
    ------
    ValueError
        If the requested parameters violate the ModelSpec invariants.
    """
    if spec.ks is None:
        z, w, x0 = 2.0, 2.0, 2.0
        a = lambda x: 2.0 - x
        b = lambda x: x * 0.0
        a_prime = lambda x: np.asarray(x, dtype=float) * 0.0 - 1.0
        b_prime = lambda x: np.asarray(x, dtype=float) * 0.0
        # A(z) = 4 - 2 - 2 = 0 and B = 0 exactly
        # x * x equals np.square(x) bit for bit, and keeps a float a float
        A = lambda x: 2.0 * x - x * x / 2.0 - 2.0
        B = lambda x: np.asarray(x, dtype=float) * 0.0
        r = lambda x: x * 0.0 + 1.0
        # z B(x) is +0.0 on the domain, so z B(x) - A(x) is 0.0 - A(x)
        H = lambda x: 0.0 - A(x)
        x_max = math.inf

        def field(x, y):
            if not (0.0 <= x < x_end) or y < 0.0:
                raise DomainError("state left the admissible domain")
            return (y - x, (2.0 - x) * y - (x * 0.0) * y * y)

        b_is_zero = True
    else:
        k, s = spec.ks
        beta = (1.0 + k) / (2.0 * k)
        gamma = (1.0 + k) / 2.0
        P = 2.0 + beta
        c, gs = P * s, gamma * s
        a = lambda x: (2.0 - c * x) / (1.0 - s * x)
        b = lambda x: gs / (1.0 - s * x)
        a_prime = lambda x: -beta * s / np.square(1.0 - s * x)
        b_prime = lambda x: gs * s / np.square(1.0 - s * x)
        # z b - a = c (x - z)/(1 - s x), since a(z) = z b(z)
        r = lambda x: c / (1.0 - s * x)
        # C pow, not (k + 1) * (k + 1): the two round apart for about 1
        # in 1100 arguments in [1, 2]
        z = 4.0 * k / ((k + 1.0) ** 2 + 4.0 * k) / s
        w = 4.0 * k / (3.0 * k * k + 8.0 * k + 1.0) / s
        x0 = 4.0 * k / (1.0 + 5.0 * k) / s
        x_max = 1.0 / s

        # A = P x + beta log1p(-s x)/s and B = -gamma log1p(-s x), each
        # shifted by its float value at z so that A(z) = B(z) = 0
        L_z = float(np.log1p(-s * z))
        A_z, B_z = P * z + beta * L_z / s, -gamma * L_z
        A = lambda x: P * x + beta * np.log1p(-s * x) / s - A_z
        B = lambda x: -gamma * np.log1p(-s * x) - B_z

        def H(x):
            # z*B(x) - A(x) with the logarithm taken once; on a Python
            # float the rest runs on Python floats, the same operations
            L = np.log1p(-s * x)
            if isinstance(x, float):
                L = float(L)
            return z * (-gamma * L - B_z) - (P * x + beta * L / s - A_z)

        def field(x, y):
            if not (0.0 <= x < x_end) or y < 0.0:
                raise DomainError("state left the admissible domain")
            # (y - x, a(x)*y - b(x)*y*y) with 1 - s x taken once
            q = 1.0 - s * x
            return (y - x, (2.0 - c * x) / q * y - gs / q * y * y)

        b_is_zero = False

    m = SystemModel(spec=spec, a=a, b=b, a_prime=a_prime, b_prime=b_prime,
                    A=A, B=B, r=r, H=H, field=field, x_max=x_max,
                    a0=float(a(0.0)), z=z, w=w, x0=x0, b_is_zero=b_is_zero)
    object.__setattr__(m, "built_in", True)
    x_end = m.x_end  # the box of the field closures above
    return m


def model(family: Family | str, kappa: float | None = None,
          scale: float | None = None) -> SystemModel:
    """Shorthand: ``model("stiff")`` instead of ``make_model(ModelSpec(...))``."""
    return make_model(ModelSpec(Family(family), kappa=kappa, scale=scale))


def eval_field(m: SystemModel, x, y):
    """Vector field (dx, dy) = (y - x, a(x)*y - b(x)*y*y).

    Accepts scalars or arrays; y = 0 is admissible and yields dy = 0.
    The grouping is ``m.field``'s, bit for bit.  Raises DomainError
    naming how many dy are not finite (``scaled`` below about 1e-308).
    """
    m.check_xy(x, y)
    dx = np.asarray(y, dtype=float) - x
    with np.errstate(over="ignore", invalid="ignore"):
        dy = m.a(x) * y - m.b(x) * y * y
    bad = np.size(dy) - np.count_nonzero(np.isfinite(dy))
    if bad:
        raise DomainError(f"the field overflows: dy is not finite at {bad} "
                          f"of {np.size(dy)} points")
    return dx, dy


def _verified(name: str, value: float, g) -> float:
    """Return the closed-form ``value`` if ``g`` changes sign (a zero
    counts, a NaN fails) on [value (1 - VERIFY_TOL), value (1 + VERIFY_TOL)].
    """
    lo, hi = value * (1.0 - VERIFY_TOL), value * (1.0 + VERIFY_TOL)
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo <= 0.0 <= g_hi or g_hi <= 0.0 <= g_lo):
        raise HypothesisError(
            f"closed form {name}={value!r}: objective has no sign change on "
            f"[{lo!r}, {hi!r}] (values {g_lo!r}, {g_hi!r})")
    return value


def find_z(m: SystemModel) -> float:
    """Interior stationary abscissa: the positive root of a(z) = z b(z).

    The closed form is verified by a sign test of a(x) - x b(x).
    """
    return _verified("z", m.z, lambda x: m.a(x) - x * m.b(x))


def find_w(m: SystemModel) -> float:
    """Abscissa where the unstable tangent line meets the y' = 0 isocline,
    i.e. the root of (a0 + 1) w b(w) = a(w).

    For b = 0 the condition degenerates to a(w) = 0 and w = z is returned.
    Verifies the closed form by a sign test and the ordering
    (a0 + 1) w > z >= w > 0 (equality z = w only in the degenerate family).
    """
    if m.b_is_zero:
        w = m.z
    else:
        w = _verified("w", m.w,
                      lambda x: (m.a0 + 1.0) * x * m.b(x) - m.a(x))
    if not ((m.a0 + 1.0) * w > m.z >= w and w > 0.0):
        raise HypothesisError(
            f"ordering (a0+1)w > z >= w > 0 violated: w={w}, z={m.z}",
            point=(w, m.z))
    return w


def find_x0(m: SystemModel) -> float:
    """Positive zero of a.  The closed form is verified by a sign test."""
    return _verified("x0", m.x0, m.a)


def r_factor(m: SystemModel, x):
    """Structural factor r(x) = (z b(x) - a(x)) / (x - z), read from the
    model's closed form ``m.r``, which is regular at x = z.  Vectorised
    over x."""
    m.check_x(x)
    r = m.r(np.asarray(x, dtype=float))
    return r if np.ndim(r) else float(r)


@dataclass(frozen=True)
class EquilibriumData:
    """Structural constants of one family member, numerically verified."""

    z: float
    w: float
    x0: float
    r_at_z: float


def equilibrium(m: SystemModel) -> EquilibriumData:
    """Locate and verify z, w and x0, and read r(z) from the closed form."""
    z = find_z(m)
    w = find_w(m)
    x0 = find_x0(m)
    r = float(m.r(z))
    if not math.isfinite(z * r):
        raise DomainError(f"r(z) overflows: r(z) = {r!r} at z = {z!r}")
    if r < 0.0:
        raise HypothesisError(f"r(z) = {r} is negative", point=(z, z))
    return EquilibriumData(z=z, w=w, x0=x0, r_at_z=r)
