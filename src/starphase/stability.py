"""Linear stability analysis at the two stationary points.

The origin is always a saddle with eigenpairs (-1, [1, 0]) and
(a(0), [1, a(0) + 1]); the slope a(0) + 1 of the second eigenvector is
the launch direction used by the heteroclinic shooter.  At the interior
point (z, z) the Jacobian [[-1, 1], [-z r(z), -a(z)]] has the eigenvalues

    2 lambda = -(1 + a(z)) +- sqrt((1 - a(z))^2 - 4 z r(z))

with a complex square root, so the point is asymptotically stable
whenever a(z) > -1 (spiral for negative discriminant, node otherwise).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import SystemModel

SADDLE = "saddle"
STABLE_SPIRAL = "stable spiral"
STABLE_NODE = "stable node"
UNSTABLE = "unstable"


def linearize_origin(m: SystemModel):
    """Eigenpairs of the linearisation x' = y - x, y' = a(0) y at (0, 0).

    Returns
    -------
    eigenpairs : tuple
        ``((-1.0, [1, 0]), (a0, [1, a0 + 1]))``, exact.
    slope : float
        Slope a(0) + 1 of the unstable direction.
    """
    slope = m.a0 + 1.0
    pairs = ((-1.0, np.array([1.0, 0.0])),
             (m.a0, np.array([1.0, slope])))
    return pairs, slope


def interior_jacobian(m: SystemModel) -> np.ndarray:
    """Jacobian [[-1, 1], [-z r(z), -a(z)]] at (z, z), as a(z) = z b(z)."""
    return _interior(m)[0]


def linearize_interior(m: SystemModel):
    """Interior Jacobian, closed-form eigenvalues and classification.

    Returns
    -------
    jacobian : (2, 2) ndarray
    eigenvalues : tuple of complex
        ``(lambda_plus, lambda_minus)`` from the closed formula.
    classification : str
        One of ``"stable spiral"``, ``"stable node"``, ``"unstable"``.
    """
    return _interior(m)[:3]


def _interior(m: SystemModel):
    """``linearize_interior`` and the discriminant, from one a(z) and r(z)."""
    z = m.z
    az, zr = float(m.a(z)), z * float(m.r(z))
    if not cmath.isfinite(complex(az, zr)):
        raise DomainError(f"a(z) = {az!r} or z r(z) = {zr!r} overflows")
    jac = np.array([[-1.0, 1.0], [-zr, 0.0 - az]])  # +0.0 where a(z) = 0.0
    disc = (1.0 - az) ** 2 - 4.0 * zr
    root = cmath.sqrt(complex(disc))
    lam_plus = (-(1.0 + az) + root) / 2.0
    lam_minus = (-(1.0 + az) - root) / 2.0
    # the root's real part is nonnegative, so lam_plus leads in real part
    kind = STABLE_SPIRAL if disc < 0.0 else STABLE_NODE
    cls = kind if lam_plus.real < 0.0 else UNSTABLE
    return jac, (lam_plus, lam_minus), cls, disc


def jacobian_fd(m: SystemModel, x: float, y: float, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of the field at (x, y).

    Validation oracle for the analytic linearisations.  The stencil may
    poke marginally below x = 0 or y = 0 (the coefficient functions are
    analytic there); only the pole side, x + h < x_end, is enforced.
    Raises DomainError for a non-finite x or y and ValueError for an h
    outside (0, inf) or one that x +- h or y +- h rounds away.
    """
    if not cmath.isfinite(complex(x, y)):
        raise DomainError(f"(x, y) = ({x!r}, {y!r}) is not finite")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must lie in (0, inf), got {h!r}")
    if x + h == x or x - h == x or y + h == y or y - h == y:
        raise ValueError(f"h = {h!r} is below the resolution of "
                         f"(x, y) = ({x!r}, {y!r})")
    if x + h >= m.x_end:
        raise DomainError("finite-difference stencil crosses the pole")

    def raw(xx, yy):
        return yy - xx, float(m.a(xx)) * yy - float(m.b(xx)) * yy * yy

    J = np.empty((2, 2))
    fxp = raw(x + h, y)
    fxm = raw(x - h, y)
    fyp = raw(x, y + h)
    fym = raw(x, y - h)
    J[0, 0] = (fxp[0] - fxm[0]) / (2.0 * h)
    J[1, 0] = (fxp[1] - fxm[1]) / (2.0 * h)
    J[0, 1] = (fyp[0] - fym[0]) / (2.0 * h)
    J[1, 1] = (fyp[1] - fym[1]) / (2.0 * h)
    return J


@dataclass(frozen=True)
class StabilityReport:
    """Full linearisation record at both stationary points."""

    origin_eigenpairs: tuple
    unstable_slope: float
    origin_classification: str
    interior_jacobian: np.ndarray
    interior_eigenvalues: tuple
    interior_classification: str
    discriminant: float

    def to_dict(self) -> dict:
        return {
            "origin": {
                "classification": self.origin_classification,
                "eigenvalues": [val for val, _ in self.origin_eigenpairs],
                "eigenvectors": [list(map(float, vec))
                                 for _, vec in self.origin_eigenpairs],
                "unstable_slope": self.unstable_slope,
            },
            "interior": {
                "classification": self.interior_classification,
                "jacobian": self.interior_jacobian.tolist(),
                "eigenvalues": [{"re": lam.real, "im": lam.imag}
                                for lam in self.interior_eigenvalues],
                "discriminant": self.discriminant,
            },
        }


def stability_report(m: SystemModel) -> StabilityReport:
    """Assemble the report for both stationary points."""
    pairs, slope = linearize_origin(m)
    jac, eigs, cls, disc = _interior(m)
    return StabilityReport(
        origin_eigenpairs=pairs,
        unstable_slope=slope,
        origin_classification=SADDLE,
        interior_jacobian=jac,
        interior_eigenvalues=eigs,
        interior_classification=cls,
        discriminant=disc,
    )
