"""Phase-portrait exports: field samples as CSV, minimal static SVG.

CSV is the authoritative format (one row per grid node with the field
components and the Lyapunov value); the SVG rendering is a convenience
view with normalised field arrows and Lyapunov level polylines.

The polylines come from vectorised marching squares on the sampled
grid: ``marching_squares`` takes one level or a sequence of levels and
handles all of them in one numpy pass.  numpy computes each cell's 4-bit
case at every level, its segments from a 16-entry table, and one
crossing point per crossed grid edge.  Every grid edge has an integer
id, offset by the level's index times the number of edges so that no
two levels share an id.  The segments are chained through compact
indices of those ids, so that matching endpoints needs no float
tolerance, and the polylines come out level by level, each level's in
the order of a one-level call.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import DomainError
from .lyapunov import LevelSetGrid, level_set_grid, write_grid_csv
from .models import SystemModel, eval_field


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
    hold the field components (nan outside the domain).  Raises
    DomainError from ``eval_field`` if dy is not finite on a valid node,
    as on the default box of a ``scaled`` member below a scale of about
    1e-306.
    """
    grid = level_set_grid(m, x_range, y_range, nx, ny)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    U = np.full_like(X, np.nan)
    W = np.full_like(X, np.nan)
    v = grid.valid
    if v.any():
        U[v], W[v] = eval_field(m, X[v], Y[v])
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


def marching_squares(grid: LevelSetGrid, level) -> list:
    """Level-set polylines of V, as lists of (x, y) points.

    ``level`` is a float or a sequence of floats; for a sequence the
    polylines of each level follow those of the level before it, so the
    result equals the concatenation of the one-level results.

    Marching squares with linear edge interpolation (Lorensen & Cline
    1987), all levels in one numpy pass.  numpy classifies every cell at
    every level by its 4-bit case (a corner's bit is set where
    V > level), held as uint8 in one (levels, nx-1, ny-1) array, skips
    cells with any invalid corner, and interpolates one crossing point
    per crossed grid edge.  Segments join crossed edges of a cell as in
    ``_case_segments``: in a saddle cell the crossings, taken bottom,
    right, top, left, pair 0-1 and 2-3.  Within a level the segments
    keep cell order, the first segment of every crossed cell before the
    second segments of the saddle cells.

    Each grid edge has an integer id: the horizontal edge (i, j)-(i+1, j)
    is ``i*ny + j`` and the vertical edge (i, j)-(i, j+1) is
    ``(nx-1)*ny + i*(ny-1) + j``, and level k adds ``k * n_edges``, so
    the levels share no id.  Two segments join exactly where they share
    an id, so chaining needs no float tolerance.  The sorted distinct
    ids are renumbered 0..n-1, and a stable sort of the segment ends
    gives each of them its one or two neighbours in segment order.  In
    each level, open chains start from their end ids in ascending
    order; the closed loops follow, each from its smallest id, with the
    first point repeated at the end.
    """
    xs, ys, V, ok = grid.xs, grid.ys, grid.values, grid.valid
    nx, ny = V.shape
    levels = np.asarray(level, dtype=float).reshape(-1)
    above = (V > levels[:, None, None]).view(np.uint8)
    case = (above[:, :-1, :-1] | above[:, 1:, :-1] * 2
            | above[:, 1:, 1:] * 4 | above[:, :-1, 1:] * 8)
    cell_ok = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    crossed = np.flatnonzero(cell_ok & (case != 0) & (case != 15))
    if crossed.size == 0:
        return []
    lk, cell = np.divmod(crossed, (nx - 1) * (ny - 1))
    ci, cj = np.divmod(cell, ny - 1)

    off = (nx - 1) * ny
    n_edges = off + nx * (ny - 1)
    h = lk * n_edges + ci * ny + cj
    v = lk * n_edges + off + ci * (ny - 1) + cj
    edges = np.stack([h, v + (ny - 1), h + 1, v], axis=1)
    pairs = _CASE_SEGMENTS[case.ravel()[crossed]]
    saddle = pairs[:, 1, 0] >= 0
    segments = np.concatenate([
        np.take_along_axis(edges, pairs[:, 0], axis=1),
        np.take_along_axis(edges[saddle], pairs[saddle, 1], axis=1)])
    segments = segments[np.argsort(np.concatenate([lk, lk[saddle]]),
                                   kind="stable")]

    # compact indices 0..n-1 of the distinct ids, from one stable sort
    # of the segment ends that also groups each id's neighbours in
    # segment order: first, and second (-1 at a chain end)
    ends = segments.ravel()
    order = np.argsort(ends, kind="stable")
    sorted_ends = ends[order]
    head = np.empty(ends.size, dtype=bool)
    head[0] = True
    np.not_equal(sorted_ends[1:], sorted_ends[:-1], out=head[1:])
    compact = np.empty(ends.size, dtype=np.intp)
    compact[order] = np.cumsum(head) - 1
    nbr = compact.reshape(-1, 2)[:, ::-1].ravel()[order]
    first = np.flatnonzero(head)
    last = np.append(first[1:], ends.size) - 1
    nb1 = nbr[first].tolist()
    nb2 = np.where(last > first, nbr[last], -1).tolist()
    ids = sorted_ends[first]

    k, loc = np.divmod(ids, n_edges)
    lv = levels[k]
    px, py = np.empty(ids.size), np.empty(ids.size)
    hor = loc < off
    hi, hj = np.divmod(loc[hor], ny)
    th = (lv[hor] - V[hi, hj]) / (V[hi + 1, hj] - V[hi, hj])
    px[hor] = xs[hi] + th * (xs[hi + 1] - xs[hi])
    py[hor] = ys[hj]
    ver = ~hor
    vi, vj = np.divmod(loc[ver] - off, ny - 1)
    tv = (lv[ver] - V[vi, vj]) / (V[vi, vj + 1] - V[vi, vj])
    px[ver] = xs[vi]
    py[ver] = ys[vj] + tv * (ys[vj + 1] - ys[vj])
    point = list(zip(px.tolist(), py.tolist()))

    # per level: its chain ends ascending, then all of its ids
    tips = np.flatnonzero(last == first)
    starts = np.concatenate([tips, np.arange(ids.size)])
    starts = starts[np.argsort(np.concatenate([2 * k[tips], 2 * k + 1]),
                               kind="stable")]

    seen = [False] * ids.size
    polylines = []
    for start in starts.tolist():
        if seen[start]:
            continue
        seen[start] = True
        line = [point[start]]
        prev, cur = -1, start
        while True:
            nxt = nb1[cur]
            if nxt == prev:
                nxt = nb2[cur]
                if nxt < 0:
                    break
            line.append(point[nxt])
            if seen[nxt]:  # back at the start of a closed loop
                break
            seen[nxt] = True
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
        with np.errstate(over="ignore", invalid="ignore"):
            px = pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
            py = height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
        if not (np.isfinite(px).all() and np.isfinite(py).all()):
            raise DomainError("a pixel coordinate is not finite on this box")
        return px, py

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']

    # "%.2f" % v and f"{v:.2f}" give the same text for every float, so
    # each polyline and all arrows are formatted by one %-format call
    finite = grid.values[grid.valid]
    if finite.size:
        vmin = float(np.nanmin(finite))
        vmax = float(np.nanquantile(finite, 0.85))
        lines = marching_squares(
            grid, [vmin + q * (vmax - vmin)
                   for q in np.linspace(0.0, 1.0, levels + 2)[1:-1]])
        if lines:
            # every vertex of every polyline mapped in one numpy pass
            xy = np.fromiter(chain.from_iterable(chain.from_iterable(lines)),
                             float)
            xy[0::2], xy[1::2] = to_px(xy[0::2], xy[1::2])
            coords = xy.tolist()
            k = 0
            for line in lines:
                n = len(line)
                pts = " ".join(["%.2f,%.2f"] * n) % tuple(coords[k:k + 2 * n])
                k += 2 * n
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="#7a5fc0" stroke-width="1"/>')

    # arrows on a thinned sub-grid, in (i, j) row-major order
    step_i = max(1, len(grid.xs) // 24)
    step_j = max(1, len(grid.ys) // 24)
    arrow = 0.35 * min((x1 - x0) / max(len(grid.xs) - 1, 1) * step_i,
                       (y1 - y0) / max(len(grid.ys) - 1, 1) * step_j)
    sub = (slice(None, None, step_i), slice(None, None, step_j))
    X, Y = np.meshgrid(grid.xs[sub[0]], grid.ys[sub[1]], indexing="ij")
    u, w = U[sub], W[sub]
    norm = np.hypot(u, w)
    keep = grid.valid[sub] & (norm != 0.0)
    u, w, norm, x, y = u[keep], w[keep], norm[keep], X[keep], Y[keep]
    if x.size:
        ax, ay = to_px(x, y)
        bx, by = to_px(x + arrow * (u / norm), y + arrow * (w / norm))
        svg = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#444" '
               'stroke-width="0.8"/>\n'
               '<circle cx="%.2f" cy="%.2f" r="1.2" fill="#444"/>')
        values = np.stack([ax, ay, bx, by, bx, by], axis=1).ravel().tolist()
        parts.append("\n".join([svg] * x.size) % tuple(values))

    zx, zy = to_px(m.z, m.z)
    parts.append(f'<circle cx="{zx:.2f}" cy="{zy:.2f}" r="3.5" '
                 f'fill="#d0504e"/>')
    ox, oy = to_px(0.0, 0.0)
    parts.append(f'<circle cx="{ox:.2f}" cy="{oy:.2f}" r="3.5" fill="none" '
                 f'stroke="#d0504e" stroke-width="1.5"/>')
    parts.append("</svg>")

    with open(path, "w") as fh:
        fh.write("\n".join(parts))
