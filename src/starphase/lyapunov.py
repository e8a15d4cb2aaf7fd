"""Lyapunov function of the planar system and the monotone level map H.

With primitives normalised so A(z) = B(z) = 0,

    V(x, y) = z B(x) - A(x) + y - z - z log(y / z)

vanishes at the interior stationary point (z, z) and decreases along
orbits; its orbital derivative has the closed form

    dV/dt = -b(x) (y - z)^2 - r(x) (z - x)^2  <=  0.

``H(x) = z B(x) - A(x)`` restricted to x >= z is strictly increasing and
is inverted by the bounds module to turn an energy excess into an x bound.
Both H and the structural factor r(x) = (z b(x) - a(x))/(x - z) are read
from the model's closed forms ``m.H`` and ``m.r`` (see
``starphase.models``); V is evaluated as ``m.H(x) + y - z - z log(y/z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import SystemModel


def lyapunov_value(m: SystemModel, x, y):
    """V(x, y); zero at (z, z) by normalisation.  Requires y > 0."""
    m.check_xy(x, y, y_positive=True)
    y = np.asarray(y, dtype=float)
    h, q, tiny = m.H(x), np.asarray(y / m.z), np.finfo(float).tiny
    # log y - log z where y/z would lose digits below the normals
    log_q = np.log(q, out=q) if q.min() >= tiny else np.where(
        q < tiny, np.log(y) - math.log(m.z), np.log(np.maximum(q, tiny)))
    val = h + y - m.z - m.z * log_q
    return val if val.ndim else float(val)


def lyapunov_gradient(m: SystemModel, x, y):
    """Gradient (dV/dx, dV/dy) = (z b - a, 1 - z/y)."""
    m.check_xy(x, y, y_positive=True)
    gx = m.z * m.b(x) - m.a(x)
    gy = 1.0 - m.z / np.asarray(y, dtype=float)
    return gx, gy


def lyapunov_derivative(m: SystemModel, x, y):
    """Orbital derivative -b(x)(y - z)^2 - r(x)(z - x)^2.

    Nonpositive wherever b and r are nonnegative, i.e. on the whole
    domain of every built-in family.  Equals grad(V) . field; the test
    suite cross-checks that identity by central differences.
    """
    m.check_xy(x, y, y_positive=True)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    val = -m.b(x) * np.square(y - m.z) - m.r(x) * np.square(m.z - x)
    return val if np.ndim(val) else float(val)


def H(m: SystemModel, x):
    """Level map H(x) = z B(x) - A(x) for x >= z; strictly increasing."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr >= m.z):
        raise DomainError(f"H is defined for x >= z = {m.z}")
    m.check_x(x)
    val = m.H(x_arr)
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class LevelSetGrid:
    """Rectangular sample of V with invalid cells flagged.

    ``values[i, j]`` is V at ``(xs[i], ys[j])`` where valid; invalid
    cells (outside the domain) hold nan and ``valid[i, j]`` is False,
    which keeps exported plot data finite.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    valid: np.ndarray

    def to_csv(self, path) -> None:
        """Write rows ``x,y,V,valid``; V is empty for invalid cells."""
        write_grid_csv(path, self, ("x", "y", "V", "valid"), (self.values,))


def write_grid_csv(path, grid: LevelSetGrid, header, columns) -> None:
    """One CSV row per grid node, x-major: x, y, one field per array in
    ``columns`` (each shaped like the grid), then valid as 0 or 1.

    The bytes are those of ``csv.writer`` over ``repr`` of each float (CRLF
    line ends, no quoting), formatted in bulk (``_floatcsv``).  The column
    fields of an invalid node are empty."""
    # imported here, so that commands that write no CSV skip its set-up
    from ._floatcsv import SLOT, float_slots, write_csv
    xs, ys = float_slots(grid.xs), float_slots(grid.ys)
    valid = grid.valid.ravel()
    flat = [np.ravel(c) for c in columns]

    def cells(lo, hi):
        node, ok = np.arange(lo, hi), valid[lo:hi]
        # an invalid node's fields are formatted from 1.0, then blanked
        fields = float_slots(np.where(ok, [c[lo:hi] for c in flat], 1.0))
        fields.reshape(len(flat), -1, SLOT)[:, ~ok] = 0
        return [xs[node // len(ys)], ys[node % len(ys)],
                *np.split(fields, len(flat)),
                ok.view(np.uint8)[:, None] + np.uint8(48)]

    write_csv(path, header, valid.size, cells)


#: most nodes (nx * ny) a ``level_set_grid`` may sample; the portrait
#: exports hold several arrays of that size, the SVG one per level
MAX_GRID_NODES = 10 ** 6


def level_set_grid(m: SystemModel, x_range, y_range,
                   nx: int, ny: int) -> LevelSetGrid:
    """Sample V on the closed box ``x_range`` x ``y_range``.

    Cells with x outside [0, x_end) or y <= 0 are flagged invalid rather
    than evaluated.  Raises ValueError for a non-finite or empty box and
    for more than MAX_GRID_NODES nodes, before allocating anything, and
    DomainError where V overflows (``nonrel`` from x of about 1e154).
    """
    if not all(math.isfinite(v) for v in (*x_range, *y_range)):
        raise ValueError(f"plot box bounds must be finite, got x range "
                         f"{tuple(x_range)} and y range {tuple(y_range)}")
    if nx < 1 or ny < 1 or x_range[1] < x_range[0] or y_range[1] < y_range[0]:
        raise ValueError("empty grid range")
    if int(nx) * int(ny) > MAX_GRID_NODES:
        raise ValueError(f"grid of {nx} x {ny} nodes is above "
                         f"MAX_GRID_NODES = {MAX_GRID_NODES}")
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    valid = (X >= 0.0) & (X < m.x_end) & (Y > 0.0)
    values = np.full((nx, ny), np.nan)
    if valid.any():
        with np.errstate(over="ignore", invalid="ignore"):
            values[valid] = v = lyapunov_value(m, X[valid], Y[valid])
        if not np.isfinite(v).all():
            bad = np.count_nonzero(~np.isfinite(v))
            raise DomainError(f"V overflows on this plot box: it is not "
                              f"finite at {bad} of {v.size} nodes")
    return LevelSetGrid(xs=xs, ys=ys, values=values, valid=valid)
