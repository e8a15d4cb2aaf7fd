"""Linear stability analysis at the two stationary points.

The origin is always a saddle with eigenpairs (-1, [1, 0]) and
(a(0), [1, a(0) + 1]); the slope a(0) + 1 of the second eigenvector is
the launch direction used by the heteroclinic shooter.  At the interior
point (z, z) the eigenvalues satisfy

    2 lambda = -(1 + a(z)) +- sqrt((1 - a(z))^2 - 4 z r(z))

with a complex square root, so the point is asymptotically stable
whenever a(z) > -1 (spiral for negative discriminant, node otherwise).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import SystemModel, r_at_z

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
    """Jacobian [[-1, 1], [a'(z) z - b'(z) z^2, a(z) - 2 b(z) z]] at (z, z)."""
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
    az = float(m.a(z))
    jac = np.array([[-1.0, 1.0],
                    [float(m.a_prime(z)) * z - float(m.b_prime(z)) * z * z,
                     az - 2.0 * float(m.b(z)) * z]])
    disc = (1.0 - az) ** 2 - 4.0 * z * r_at_z(m)
    root = cmath.sqrt(complex(disc))
    lam_plus = (-(1.0 + az) + root) / 2.0
    lam_minus = (-(1.0 + az) - root) / 2.0
    if disc < 0.0:
        cls = STABLE_SPIRAL if lam_plus.real < 0.0 else UNSTABLE
    else:
        cls = STABLE_NODE if max(lam_plus.real, lam_minus.real) < 0.0 else UNSTABLE
    return jac, (lam_plus, lam_minus), cls, disc


def jacobian_fd(m: SystemModel, x: float, y: float, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of the field at (x, y).

    Validation oracle for the analytic linearisations.  The stencil may
    poke marginally below x = 0 or y = 0 (the coefficient functions are
    analytic there); only the pole side of the domain is enforced.
    """
    if x + h >= m.x_max - 1e-9:
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
