"""Physical interpretation of relativistic orbits and the mass-radius table.

The autonomous phase variables of the relativistic member (k, s) relate
to a static spherically symmetric star through t = log r (defined up to
a shift; ``r_ref`` anchors it):

    s x = 2 G m(r) / (r c^2),    s y = 8 pi G r^2 rho(r) / c^2,

since (s x, s y) solves the (k, 1) system, whose variables these are;
the horizon s x = 1 is the right end of the member's domain.  Each
trajectory sample thus converts to a radius/mass/density/pressure
quadruple with the equation of state p = k c^2 rho (stiff and scaled:
k = 1; kappa family: k = kappa).  The nonrelativistic family has no such
hydrostatic reading and is refused.

``mass_radius_table`` assembles the compactness comparison: classical
literature limits kept as exact expressions (their published decimal
renderings contain misprints, so decimals are always recomputed here)
next to this package's computed bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_X, kappa_constants
from .errors import DomainError
from .models import Family, ModelSpec, SystemModel, make_model
from .trajectory import IntegratorConfig, Trajectory, shoot_heteroclinic

#: CODATA-ish constants for the SI mode
G_SI = 6.67430e-11
C_SI = 2.99792458e8

NATURAL = "natural"
SI = "si"


def _relativistic_ks(m: SystemModel) -> tuple[float, float]:
    if m.spec.ks is None:
        raise DomainError(
            "nonrelativistic trajectories have no hydrostatic interpretation; "
            "use a relativistic family")
    return m.spec.ks


@dataclass(frozen=True)
class PhysicalProfile:
    """Radial star profile recovered from one trajectory.

    ``compactness`` is 2 G m / (r c^2), the x samples times s; it stays
    below 1 for every exported sample (sub-Schwarzschild), since the
    member's domain is s x < 1.
    """

    r: np.ndarray
    m: np.ndarray
    rho: np.ndarray
    p: np.ndarray
    compactness: np.ndarray
    units: str
    r_ref: float

    @property
    def samples(self):
        return zip(self.r, self.m, self.rho, self.p)


def to_physical(traj: Trajectory, r_ref: float = 1.0,
                units: str = NATURAL, *, G: float | None = None,
                c: float | None = None) -> PhysicalProfile:
    """Convert a relativistic-family trajectory to an (r, m, rho, p) profile.

    The final sample is anchored at r = r_ref (the system is scale free
    in r).  Natural units take G = c = 1; SI mode multiplies through
    user-supplied constants without touching the dimensionless x, y.

    Raises ValueError unless r_ref, and in SI mode G and c, are positive
    and finite.
    """
    if not (math.isfinite(r_ref) and r_ref > 0.0):
        raise ValueError(f"r_ref must be positive and finite, got {r_ref}")
    k_eos, s = _relativistic_ks(traj.model)
    if units == NATURAL:
        Gv, cv = 1.0, 1.0
    elif units == SI:
        Gv = G_SI if G is None else G
        cv = C_SI if c is None else c
        for name, v in (("G", Gv), ("c", cv)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(
                    f"{name} must be positive and finite, got {v}")
    else:
        raise ValueError(f"unknown unit system {units!r}")
    r = r_ref * np.exp(traj.t - traj.t[-1])
    compactness = s * traj.x
    mass = r * cv ** 2 * compactness / (2.0 * Gv)
    rho = cv ** 2 * (s * traj.y) / (8.0 * math.pi * Gv * np.square(r))
    p = k_eos * cv ** 2 * rho
    return PhysicalProfile(r=r, m=mass, rho=rho, p=p,
                           compactness=compactness, units=units,
                           r_ref=r_ref)


@dataclass(frozen=True)
class TableRow:
    label: str
    expression: str
    value: float
    provenance: str  # "literature" or "computed"
    note: str = ""

    def to_dict(self) -> dict:
        return {"label": self.label, "expression": self.expression,
                "value": self.value, "provenance": self.provenance,
                "note": self.note}


@dataclass(frozen=True)
class MassRadiusTable:
    rows: tuple

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows]}

    def to_markdown(self) -> str:
        lines = ["| bound on 2GM/(R c^2) | expression | value | provenance | note |",
                 "|---|---|---|---|---|"]
        for row in self.rows:
            lines.append(f"| {row.label} | {row.expression} "
                         f"| {row.value:.4f} | {row.provenance} | {row.note} |")
        return "\n".join(lines)


def mass_radius_table(stiff_trajectory: Trajectory | None = None) -> MassRadiusTable:
    """Compactness-limit comparison table (five rows).

    Literature rows store exact expressions and recompute their decimals
    (the published decimal labels are misprinted); computed rows are
    taken from the bounds module and the stiff heteroclinic in-process,
    so they are bit-identical to the direct API results.

    Parameters
    ----------
    stiff_trajectory : Trajectory, optional
        Reuse an already-shot stiff orbit; by default one is integrated
        here with default settings.
    """
    stiff = make_model(ModelSpec(Family.STIFF_RELATIVISTIC))
    stiff_bound = bound_X(stiff)
    k3 = kappa_constants(1.0 / 3.0)
    if stiff_trajectory is None:
        stiff_trajectory = shoot_heteroclinic(stiff, IntegratorConfig())
    elif stiff_trajectory.model.family is not Family.STIFF_RELATIVISTIC:
        raise ValueError("the numeric row requires a stiff-family trajectory")
    rows = (
        TableRow(label="TOV / Buchdahl / Schwarzschild interior",
                 expression="8/9",
                 value=8.0 / 9.0,
                 provenance="literature"),
        TableRow(label="Bondi (rho >= 0)",
                 expression="12*sqrt(2) - 16",
                 value=12.0 * math.sqrt(2.0) - 16.0,
                 provenance="literature"),
        TableRow(label="stiff equation of state (p = c^2 rho)",
                 expression="1 + W0(-2^(1/3) e^(-4/3))/2",
                 value=stiff_bound.X_closed,
                 provenance="computed",
                 note="< 0.7"),
        TableRow(label="radiation border case (c^2 rho = 3 p)",
                 expression="published corollary constants at kappa = 1/3",
                 value=k3.X_printed,
                 provenance="computed",
                 note="< 0.622"),
        TableRow(label="stiff heteroclinic peak (numeric)",
                 expression="max x along the computed orbit",
                 value=stiff_trajectory.max_x,
                 provenance="computed"),
    )
    return MassRadiusTable(rows=rows)
