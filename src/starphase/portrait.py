"""Phase-portrait exports: field samples as CSV, minimal static SVG.

CSV is the authoritative format (one row per grid node with the field
components and the Lyapunov value); the SVG rendering is a convenience
view with normalised field arrows and Lyapunov level polylines.

The polylines come from vectorised marching squares on the sampled
grid: numpy computes each cell's 4-bit case from a 16-entry table and
one crossing point per crossed grid edge, and the segments are chained
through a dict keyed on integer edge ids, so that matching endpoints
needs no float tolerance.
"""

from __future__ import annotations

import numpy as np

from .lyapunov import LevelSetGrid, level_set_grid, write_grid_csv
from .models import SystemModel


def default_ranges(m: SystemModel):
    """Plot box heuristics: x up to 0.9 x_max (or 2.2 z when unbounded),
    y spanning two decades around z."""
    if np.isfinite(m.x_max):
        x_hi = 0.9 * m.x_max
    else:
        x_hi = 2.2 * m.z
    return (0.0, x_hi), (0.02 * m.z, 4.0 * m.z)


def field_grid(m: SystemModel, x_range, y_range, nx: int, ny: int):
    """Sample the vector field and V on a rectangular grid.

    Returns (grid, U, W) where grid is the LevelSetGrid of V and U, W
    hold the field components (nan outside the domain).
    """
    grid = level_set_grid(m, x_range, y_range, nx, ny)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    U = np.full_like(X, np.nan)
    W = np.full_like(X, np.nan)
    v = grid.valid
    if v.any():
        U[v] = Y[v] - X[v]
        W[v] = np.asarray(m.a(X[v]), dtype=float) * Y[v] \
            - np.asarray(m.b(X[v]), dtype=float) * np.square(Y[v])
    return grid, U, W


def portrait_csv(m: SystemModel, x_range, y_range, nx: int, ny: int,
                 path) -> None:
    """Rows ``x,y,dx,dy,V,valid`` over the grid."""
    grid, U, W = field_grid(m, x_range, y_range, nx, ny)
    write_grid_csv(path, grid, ("x", "y", "dx", "dy", "V", "valid"),
                   (U, W, grid.values))


def _case_segments():
    """Segments of each 4-bit cell case as pairs of local edge indices.

    Corner k of cell (i, j) is bit k of the case: (i, j), (i+1, j),
    (i+1, j+1), (i, j+1).  Local edge e joins corners e and e+1 (mod 4),
    so edges 0..3 are bottom, right, top, left.  The crossed edges are
    taken in that order and paired 0-1 and 2-3; the second pair exists
    only in the two saddle cases (5 and 10) and is -1 elsewhere.
    """
    table = np.full((16, 2, 2), -1)
    for case in range(16):
        bit = [(case >> k) & 1 for k in range(4)]
        crossed = [e for e in range(4) if bit[e] != bit[(e + 1) % 4]]
        for s in range(len(crossed) // 2):
            table[case, s] = crossed[2 * s:2 * s + 2]
    return table


_CASE_SEGMENTS = _case_segments()


def marching_squares(grid: LevelSetGrid, level: float) -> list:
    """Level-set polylines of V at one level, as lists of (x, y) points.

    Marching squares with linear edge interpolation (Lorensen & Cline
    1987).  numpy classifies every cell by its 4-bit case (a corner's bit
    is set where V > level), skips cells with any invalid corner, and
    interpolates one crossing point per crossed grid edge.  Segments join
    crossed edges of a cell as in ``_case_segments``: in a saddle cell
    the crossings, taken bottom, right, top, left, pair 0-1 and 2-3.

    Each grid edge has an integer id: the horizontal edge (i, j)-(i+1, j)
    is ``i*ny + j`` and the vertical edge (i, j)-(i, j+1) is
    ``(nx-1)*ny + i*(ny-1) + j``.  Two segments join exactly where they
    share an edge id, so chaining needs no float tolerance.  Open chains
    start from their end ids in ascending order; the closed loops
    follow, each from its smallest id, with the first point repeated at
    the end.
    """
    xs, ys, V, ok = grid.xs, grid.ys, grid.values, grid.valid
    nx, ny = V.shape
    above = (V > level).astype(np.intp)
    case = (above[:-1, :-1] | above[1:, :-1] << 1 | above[1:, 1:] << 2
            | above[:-1, 1:] << 3)
    cell_ok = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    ci, cj = np.nonzero(cell_ok & (case != 0) & (case != 15))

    off = (nx - 1) * ny
    edges = np.stack([ci * ny + cj, off + (ci + 1) * (ny - 1) + cj,
                      ci * ny + cj + 1, off + ci * (ny - 1) + cj], axis=1)
    pairs = _CASE_SEGMENTS[case[ci, cj]]
    saddle = pairs[:, 1, 0] >= 0
    segments = np.concatenate([
        np.take_along_axis(edges, pairs[:, 0], axis=1),
        np.take_along_axis(edges[saddle], pairs[saddle, 1], axis=1)])

    ids = np.unique(segments)
    h, v = ids[ids < off], ids[ids >= off] - off
    hi, hj = np.divmod(h, ny)
    vi, vj = np.divmod(v, ny - 1)
    th = (level - V[hi, hj]) / (V[hi + 1, hj] - V[hi, hj])
    tv = (level - V[vi, vj]) / (V[vi, vj + 1] - V[vi, vj])
    px = np.concatenate([xs[hi] + th * (xs[hi + 1] - xs[hi]), xs[vi]])
    py = np.concatenate([ys[hj], ys[vj] + tv * (ys[vj + 1] - ys[vj])])
    point = dict(zip(ids.tolist(), zip(px.tolist(), py.tolist())))

    nbrs = {}
    for a, b in segments.tolist():
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    order = ids.tolist()
    seen = set()
    polylines = []
    for start in [e for e in order if len(nbrs[e]) == 1] + order:
        if start in seen:
            continue
        seen.add(start)
        line = [point[start]]
        prev, cur = None, start
        while True:
            adj = nbrs[cur]
            nxt = adj[0] if adj[0] != prev else (
                adj[1] if len(adj) > 1 else None)
            if nxt is None:
                break
            line.append(point[nxt])
            if nxt in seen:  # back at the start of a closed loop
                break
            seen.add(nxt)
            prev, cur = cur, nxt
        polylines.append(line)
    return polylines


def portrait_svg(m: SystemModel, x_range, y_range, nx: int, ny: int,
                 path, levels: int = 8, width: int = 640,
                 height: int = 480) -> None:
    """Static SVG: normalised field arrows plus V level polylines."""
    grid, U, W = field_grid(m, x_range, y_range, nx, ny)
    x0, x1 = x_range
    y0, y1 = y_range
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"SVG plot box needs x1 > x0 and y1 > y0, got x "
                         f"range {tuple(x_range)} and y range "
                         f"{tuple(y_range)}")
    pad = 10.0

    def to_px(x, y):
        px = pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
        py = height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
        return px, py

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']

    finite = grid.values[grid.valid]
    if finite.size:
        vmin = float(np.nanmin(finite))
        vmax = float(np.nanquantile(finite, 0.85))
        for q in np.linspace(0.0, 1.0, levels + 2)[1:-1]:
            level = vmin + q * (vmax - vmin)
            for line in marching_squares(grid, level):
                pts = " ".join(f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}"
                               for x, y in line)
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="#7a5fc0" stroke-width="1"/>')

    # arrows on a thinned sub-grid
    step_i = max(1, len(grid.xs) // 24)
    step_j = max(1, len(grid.ys) // 24)
    arrow = 0.35 * min((x1 - x0) / max(len(grid.xs) - 1, 1) * step_i,
                       (y1 - y0) / max(len(grid.ys) - 1, 1) * step_j)
    for i in range(0, len(grid.xs), step_i):
        for j in range(0, len(grid.ys), step_j):
            if not grid.valid[i, j]:
                continue
            u, w = U[i, j], W[i, j]
            norm = float(np.hypot(u, w))
            if norm == 0.0:
                continue
            x, y = grid.xs[i], grid.ys[j]
            tip = (x + arrow * u / norm, y + arrow * w / norm)
            ax, ay = to_px(x, y)
            bx, by = to_px(*tip)
            parts.append(f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" '
                         f'y2="{by:.2f}" stroke="#444" stroke-width="0.8"/>')
            parts.append(f'<circle cx="{bx:.2f}" cy="{by:.2f}" r="1.2" '
                         f'fill="#444"/>')

    zx, zy = to_px(m.z, m.z)
    parts.append(f'<circle cx="{zx:.2f}" cy="{zy:.2f}" r="3.5" '
                 f'fill="#d0504e"/>')
    ox, oy = to_px(0.0, 0.0)
    parts.append(f'<circle cx="{ox:.2f}" cy="{oy:.2f}" r="3.5" fill="none" '
                 f'stroke="#d0504e" stroke-width="1.5"/>')
    parts.append("</svg>")

    with open(path, "w") as fh:
        fh.write("\n".join(parts))
