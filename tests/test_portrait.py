import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import starphase as sp
from starphase.lyapunov import LevelSetGrid
from starphase.portrait import _CASE_SEGMENTS, default_ranges, field_grid
from starphase._floatcsv import BLOCK
from starphase.portrait import marching_squares, portrait_csv, portrait_svg


# -- reference implementation: per-cell marching squares with a greedy
# -- float-tolerance chainer, kept as the oracle for the vectorised one

def reference_marching_squares(grid: LevelSetGrid, level: float) -> list:
    """Level-set polylines of V at one level, as lists of (x, y) points.

    Plain per-cell marching squares with linear edge interpolation; the
    per-cell segments are chained greedily into polylines.  Cells with
    any invalid corner are skipped.
    """
    xs, ys, V, ok = grid.xs, grid.ys, grid.values, grid.valid
    segments = []

    def interp(pa, pb, va, vb):
        t = 0.5 if vb == va else (level - va) / (vb - va)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            if not (ok[i, j] and ok[i + 1, j] and ok[i, j + 1]
                    and ok[i + 1, j + 1]):
                continue
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            vals = [V[i, j], V[i + 1, j], V[i + 1, j + 1], V[i, j + 1]]
            pts = []
            for a in range(4):
                b = (a + 1) % 4
                above_a, above_b = vals[a] > level, vals[b] > level
                if above_a != above_b:
                    pts.append(interp(corners[a], corners[b],
                                      vals[a], vals[b]))
            if len(pts) == 2:
                segments.append((pts[0], pts[1]))
            elif len(pts) == 4:  # saddle cell: keep both crossings
                segments.append((pts[0], pts[1]))
                segments.append((pts[2], pts[3]))

    return _chain_segments(segments)


def _chain_segments(segments, tol: float = 1e-12):
    """Greedy merge of 2-point segments into longer polylines."""
    polylines = []
    remaining = list(segments)
    while remaining:
        a, b = remaining.pop()
        line = [a, b]
        grew = True
        while grew:
            grew = False
            for idx, (p, q) in enumerate(remaining):
                if _close(line[-1], p, tol):
                    line.append(q)
                elif _close(line[-1], q, tol):
                    line.append(p)
                elif _close(line[0], p, tol):
                    line.insert(0, q)
                elif _close(line[0], q, tol):
                    line.insert(0, p)
                else:
                    continue
                remaining.pop(idx)
                grew = True
                break
        polylines.append(line)
    return polylines


def _close(p, q, tol):
    return abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol


# -- exact oracle: the one-level marching squares with a dict chainer
# -- that the batched one replaced; same polylines, same order, same bits

def dict_marching_squares(grid: LevelSetGrid, level: float) -> list:
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


def oracle_levels(grid: LevelSetGrid, levels) -> list:
    """The oracle's polylines of each level in turn."""
    return [line for level in levels
            for line in dict_marching_squares(grid, level)]


# -- helpers

def segment_array(polylines) -> np.ndarray:
    """Consecutive vertex pairs of all polylines as rows (x0, y0, x1, y1)."""
    rows = [(*p, *q) for line in polylines for p, q in zip(line, line[1:])]
    return np.array(rows, dtype=float).reshape(-1, 4)


def same_segments(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> bool:
    """Multiset equality of two segment arrays, either orientation,
    coordinates within ``tol``."""
    if a.shape != b.shape:
        return False
    used = np.zeros(len(b), dtype=bool)
    for s in a:
        d = np.minimum(np.abs(b - s).max(axis=1),
                       np.abs(b[:, [2, 3, 0, 1]] - s).max(axis=1))
        hits = np.flatnonzero((d <= tol) & ~used)
        if hits.size == 0:
            return False
        used[hits[0]] = True
    return True


def svg_levels(grid: LevelSetGrid, levels: int = 8) -> list:
    """The contour levels ``portrait_svg`` draws."""
    finite = grid.values[grid.valid]
    vmin = float(np.nanmin(finite))
    vmax = float(np.nanquantile(finite, 0.85))
    return [vmin + q * (vmax - vmin)
            for q in np.linspace(0.0, 1.0, levels + 2)[1:-1]]


def grid_cases(m):
    """Default box at two sizes, a non-square sub-box around (z, z), and
    a box reaching past the domain so that some cells are invalid."""
    xr, yr = default_ranges(m)
    z = m.z
    x_hi = m.x_max * 1.05 if math.isfinite(m.x_max) else 2.5 * z
    return [(xr, yr, 17, 17), (xr, yr, 40, 33),
            ((0.6 * z, 1.5 * z), (0.5 * z, 2.0 * z), 29, 36),
            ((-0.2 * z, x_hi), (-0.3 * z, 3.0 * z), 34, 28)]


def edge_residual(grid: LevelSetGrid, level: float, point) -> float:
    """|linear interpolant of V on the grid edge through ``point`` -
    level|; the point lies on a grid line by construction."""
    x, y = point
    xs, ys, V = grid.xs, grid.ys, grid.values
    j = np.flatnonzero(ys == y)
    if j.size:  # horizontal edge
        j = j[0]
        i = min(int(np.searchsorted(xs, x, side="right")) - 1, len(xs) - 2)
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        va, vb = V[i, j], V[i + 1, j]
    else:       # vertical edge
        i = np.flatnonzero(xs == x)[0]
        j = min(int(np.searchsorted(ys, y, side="right")) - 1, len(ys) - 2)
        t = (y - ys[j]) / (ys[j + 1] - ys[j])
        va, vb = V[i, j], V[i, j + 1]
    return abs(va + t * (vb - va) - level)


# -- marching squares against the reference

class TestAgainstReference:
    @pytest.mark.parametrize("case", range(4))
    def test_same_segments(self, each_model, case):
        xr, yr, nx, ny = grid_cases(each_model)[case]
        grid = sp.level_set_grid(each_model, xr, yr, nx, ny)
        for level in svg_levels(grid):
            new = segment_array(marching_squares(grid, level))
            ref = segment_array(reference_marching_squares(grid, level))
            assert len(new) > 0
            assert same_segments(new, ref), (xr, yr, nx, ny, level)

    def test_grid_with_invalid_cells_is_exercised(self, each_model):
        xr, yr, nx, ny = grid_cases(each_model)[3]
        grid = sp.level_set_grid(each_model, xr, yr, nx, ny)
        assert 0 < grid.valid.sum() < grid.valid.size

    def test_saddle_pairs_like_reference(self):
        # corners (0,0) and (1,1) above the level, (1,0) and (0,1) below
        grid = LevelSetGrid(xs=np.array([0.0, 1.0]), ys=np.array([0.0, 1.0]),
                            values=np.array([[1.0, 0.0], [0.0, 1.0]]),
                            valid=np.ones((2, 2), dtype=bool))
        lines = marching_squares(grid, 0.5)
        got = sorted(tuple(sorted(line)) for line in lines)
        assert got == [((0.0, 0.5), (0.5, 1.0)), ((0.5, 0.0), (1.0, 0.5))]
        assert same_segments(
            segment_array(lines),
            segment_array(reference_marching_squares(grid, 0.5)))


# -- marching squares against the exact oracle

def random_grid(rng, nx: int, ny: int) -> LevelSetGrid:
    """Values on a few integer steps, so that saddles and exact level
    hits are common, plus a jitter on half the grids; about one node in
    seven invalid, holding nan."""
    V = rng.integers(0, 4, (nx, ny)).astype(float)
    if rng.random() < 0.5:
        V += rng.random((nx, ny))
    ok = rng.random((nx, ny)) > 0.15
    V[~ok] = np.nan
    return LevelSetGrid(xs=np.sort(rng.random(nx)),
                        ys=np.sort(rng.random(ny)), values=V, valid=ok)


SADDLE = LevelSetGrid(xs=np.array([0.0, 1.0]), ys=np.array([0.0, 1.0]),
                      values=np.array([[1.0, 0.0], [0.0, 1.0]]),
                      valid=np.ones((2, 2), dtype=bool))


class TestAgainstDictOracle:
    @pytest.mark.parametrize("case", range(4))
    def test_each_level_equals_oracle(self, each_model, case):
        xr, yr, nx, ny = grid_cases(each_model)[case]
        grid = sp.level_set_grid(each_model, xr, yr, nx, ny)
        for level in svg_levels(grid):
            assert marching_squares(grid, level) \
                == dict_marching_squares(grid, level)

    @pytest.mark.parametrize("case", range(4))
    def test_levels_in_one_call_concatenate_oracle(self, each_model, case):
        xr, yr, nx, ny = grid_cases(each_model)[case]
        grid = sp.level_set_grid(each_model, xr, yr, nx, ny)
        levels = svg_levels(grid)
        assert marching_squares(grid, levels) == oracle_levels(grid, levels)
        assert marching_squares(grid, np.array(levels)) \
            == oracle_levels(grid, levels)

    def test_saddle_grid(self):
        levels = [0.25, 0.5, 0.75]
        for level in levels:
            assert marching_squares(SADDLE, level) \
                == dict_marching_squares(SADDLE, level)
        assert marching_squares(SADDLE, levels) \
            == oracle_levels(SADDLE, levels)

    def test_random_grids_with_invalid_corners(self):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            grid = random_grid(rng, *rng.integers(1, 13, 2))
            levels = (rng.integers(0, 4, 4)
                      + np.where(rng.random(4) < 0.5, rng.random(4), 0.0))
            levels = levels.tolist()
            for level in levels:
                assert marching_squares(grid, level) \
                    == dict_marching_squares(grid, level)
            assert marching_squares(grid, levels) \
                == oracle_levels(grid, levels)

    def test_random_grids_cover_saddles_and_invalid_cells(self):
        rng = np.random.default_rng(20261018)
        saddles = invalid = 0
        for _ in range(300):
            grid = random_grid(rng, *rng.integers(1, 13, 2))
            V, ok = grid.values, grid.valid
            a = V > 1.5
            saddles += int(np.sum((a[:-1, :-1] == a[1:, 1:])
                                  & (a[1:, :-1] == a[:-1, 1:])
                                  & (a[:-1, :-1] != a[1:, :-1])))
            invalid += int((~ok).sum())
        assert saddles > 50 and invalid > 500


# -- properties of the vectorised marching squares

class TestMarchingSquares:
    def test_vertices_interpolate_to_level(self, each_model):
        xr, yr, nx, ny = grid_cases(each_model)[3]
        grid = sp.level_set_grid(each_model, xr, yr, nx, ny)
        scale = float(np.nanmax(np.abs(grid.values)))
        for level in svg_levels(grid):
            lines = marching_squares(grid, level)
            worst = max(edge_residual(grid, level, p)
                        for line in lines for p in line)
            assert worst <= 1e-13 * scale

    def test_level_set_around_interior_point_is_one_closed_loop(
            self, each_model):
        m = each_model
        z = m.z
        grid = sp.level_set_grid(m, (0.7 * z, 1.3 * z), (0.6 * z, 1.6 * z),
                                 41, 47)
        assert grid.valid.all()
        rim = np.concatenate([grid.values[0], grid.values[-1],
                              grid.values[:, 0], grid.values[:, -1]])
        lines = marching_squares(grid, 0.5 * float(rim.min()))
        assert len(lines) == 1
        assert len(lines[0]) > 8
        assert lines[0][0] == lines[0][-1]

    def test_open_chains_end_on_the_grid_border(self, models):
        m = models["stiff"]
        grid = sp.level_set_grid(m, (0.5 * m.z, m.z), (0.5 * m.z, 1.5 * m.z),
                                 30, 30)
        lines = marching_squares(grid, svg_levels(grid)[2])
        assert lines
        for line in lines:
            assert line[0] != line[-1]
            for x, y in (line[0], line[-1]):
                assert x in (grid.xs[0], grid.xs[-1]) \
                    or y in (grid.ys[0], grid.ys[-1])

    def test_repeated_calls_identical(self, models):
        m = models["kappa"]
        xr, yr = default_ranges(m)
        grid = sp.level_set_grid(m, xr, yr, 45, 38)
        for level in svg_levels(grid):
            assert marching_squares(grid, level) \
                == marching_squares(grid, level)

    @pytest.mark.parametrize("nx,ny", [(1, 12), (12, 1), (1, 1)])
    def test_single_row_or_column_is_empty(self, models, nx, ny):
        m = models["stiff"]
        grid = sp.level_set_grid(m, (0.2, 0.9), (0.1, 1.5), nx, ny)
        level = float(np.nanmean(grid.values))
        assert marching_squares(grid, level) == []
        assert marching_squares(grid, [level, 0.5 * level]) == []

    def test_all_invalid_grid_is_empty(self, models):
        m = models["stiff"]  # x_max = 1: the whole box is past the pole
        grid = sp.level_set_grid(m, (1.5, 2.0), (0.1, 1.0), 10, 10)
        assert not grid.valid.any()
        assert marching_squares(grid, 0.1) == []
        assert marching_squares(grid, [0.1, 0.2, 0.3]) == []

    def test_level_outside_value_range_is_empty(self, models):
        m = models["nonrel"]
        grid = sp.level_set_grid(m, *default_ranges(m), 25, 25)
        finite = grid.values[grid.valid]
        below, above = float(finite.min()) - 1.0, float(finite.max()) + 1.0
        assert marching_squares(grid, below) == []
        assert marching_squares(grid, above) == []
        assert marching_squares(grid, [below, above]) == []

    def test_empty_level_sequence_is_empty(self, models):
        m = models["kappa"]
        grid = sp.level_set_grid(m, *default_ranges(m), 25, 25)
        assert marching_squares(grid, []) == []
        assert marching_squares(grid, np.array([])) == []

    def test_empty_levels_between_crossed_ones(self, models):
        m = models["stiff"]
        grid = sp.level_set_grid(m, *default_ranges(m), 30, 30)
        inside = svg_levels(grid)[:2]
        beyond = float(np.nanmax(grid.values)) + 1.0
        levels = [beyond, inside[0], beyond, inside[1], beyond]
        lines = marching_squares(grid, levels)
        assert lines and lines == oracle_levels(grid, levels)


# -- CSV bytes against the csv-module writer

def reference_portrait_csv(m, x_range, y_range, nx, ny, path):
    grid, U, W = field_grid(m, x_range, y_range, nx, ny)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "dx", "dy", "V", "valid"])
        for i, xv in enumerate(grid.xs):
            for j, yv in enumerate(grid.ys):
                ok = bool(grid.valid[i, j])
                writer.writerow([
                    repr(float(xv)), repr(float(yv)),
                    repr(float(U[i, j])) if ok else "",
                    repr(float(W[i, j])) if ok else "",
                    repr(float(grid.values[i, j])) if ok else "",
                    int(ok),
                ])


def reference_grid_csv(grid, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "V", "valid"])
        for i, xv in enumerate(grid.xs):
            for j, yv in enumerate(grid.ys):
                ok = bool(grid.valid[i, j])
                writer.writerow([repr(float(xv)), repr(float(yv)),
                                 repr(float(grid.values[i, j])) if ok else "",
                                 int(ok)])


class TestCsvBytes:
    @pytest.mark.parametrize("case", [1, 3])
    def test_portrait_csv_matches_csv_writer(self, each_model, case,
                                             tmp_path):
        xr, yr, nx, ny = grid_cases(each_model)[case]
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        portrait_csv(each_model, xr, yr, nx, ny, new)
        reference_portrait_csv(each_model, xr, yr, nx, ny, ref)
        assert new.read_bytes() == ref.read_bytes()

    def test_level_set_grid_csv_matches_csv_writer(self, each_model,
                                                   tmp_path):
        xr, yr, nx, ny = grid_cases(each_model)[3]
        grid = sp.level_set_grid(each_model, xr, yr, nx, ny)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        grid.to_csv(new)
        reference_grid_csv(grid, ref)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("nodes", [BLOCK - 1, BLOCK + 1])
    def test_block_boundaries_match_csv_writer(self, models, nodes,
                                               tmp_path):
        # a grid one node short of and one past a block of rows, on a box
        # reaching past the domain so that blank fields cross the block
        nx = max(n for n in range(1, int(nodes ** 0.5) + 1) if nodes % n == 0)
        m = models["stiff"]
        xr, yr = (-0.1, 1.1), (-0.3, 3.0)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        portrait_csv(m, xr, yr, nx, nodes // nx, new)
        reference_portrait_csv(m, xr, yr, nx, nodes // nx, ref)
        assert new.read_bytes() == ref.read_bytes()
        grid = sp.level_set_grid(m, xr, yr, nx, nodes // nx)
        grid.to_csv(new)
        reference_grid_csv(grid, ref)
        assert new.read_bytes() == ref.read_bytes()


# -- SVG bytes against the per-point pixel mapping

def reference_portrait_svg(m, x_range, y_range, nx, ny, path, levels=8,
                           width=640, height=480):
    """``portrait_svg`` as it mapped each vertex and arrow to pixels one
    scalar call at a time, with the polylines of the dict-chaining
    oracle one level at a time; kept as the byte-for-byte oracle."""
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
            for line in dict_marching_squares(grid, level):
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


class TestSvgBytes:
    @pytest.mark.parametrize("grid_n", [24, 57, 96])
    @pytest.mark.parametrize("box", [0, 2, 3])
    def test_portrait_svg_matches_scalar_mapping(self, each_model, box,
                                                 grid_n, tmp_path):
        xr, yr, _, _ = grid_cases(each_model)[box]
        new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
        portrait_svg(each_model, xr, yr, grid_n, grid_n, new)
        reference_portrait_svg(each_model, xr, yr, grid_n, grid_n, ref)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("grid_n", [25, 97])
    @pytest.mark.parametrize("name", ["nonrel", "stiff"])
    def test_zero_field_node_drops_its_arrow(self, models, name, grid_n,
                                             tmp_path):
        """A box with (z, z) on a sub-grid node, where the field is
        exactly zero and no arrow is drawn."""
        m = models[name]
        xr, yr = (0.0, 2.0 * m.z), (0.5 * m.z, 1.5 * m.z)
        _, U, W = field_grid(m, xr, yr, grid_n, grid_n)
        mid = (grid_n - 1) // 2
        assert U[mid, mid] == 0.0 and W[mid, mid] == 0.0
        new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
        portrait_svg(m, xr, yr, grid_n, grid_n, new)
        reference_portrait_svg(m, xr, yr, grid_n, grid_n, ref)
        assert new.read_bytes() == ref.read_bytes()


    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 30), (30, 1)])
    def test_single_row_or_column(self, models, nx, ny, tmp_path):
        m = models["stiff"]
        xr, yr = default_ranges(m)
        new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
        portrait_svg(m, xr, yr, nx, ny, new)
        reference_portrait_svg(m, xr, yr, nx, ny, ref)
        assert "<polyline" not in new.read_text()
        assert new.read_bytes() == ref.read_bytes()

    def test_all_invalid_box(self, models, tmp_path):
        m = models["stiff"]  # x_max = 1: the whole box is past the pole
        new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
        portrait_svg(m, (1.5, 2.0), (0.1, 1.0), 10, 10, new)
        reference_portrait_svg(m, (1.5, 2.0), (0.1, 1.0), 10, 10, ref)
        text = new.read_text()
        assert "<polyline" not in text and "<line" not in text
        assert new.read_bytes() == ref.read_bytes()


# -- plot box validation

class TestPlotBox:
    @pytest.mark.parametrize("x_range,y_range", [
        ((math.nan, 1.0), (0.1, 1.0)), ((0.0, math.inf), (0.1, 1.0)),
        ((0.0, 1.0), (-math.inf, 1.0)), ((0.0, 1.0), (0.1, math.nan))])
    def test_level_set_grid_rejects_non_finite_bounds(self, models, x_range,
                                                      y_range):
        with pytest.raises(ValueError, match="finite"):
            sp.level_set_grid(models["stiff"], x_range, y_range, 5, 5)

    def test_level_set_grid_rejects_more_than_max_grid_nodes(self, models):
        with pytest.raises(ValueError, match="MAX_GRID_NODES"):
            sp.level_set_grid(models["stiff"], (0.1, 0.9), (0.1, 1.0),
                              100000, 100000)

    @pytest.mark.parametrize("export", [portrait_csv, portrait_svg])
    def test_exports_reject_more_than_max_grid_nodes(self, models, export,
                                                     tmp_path):
        path = tmp_path / "p.out"
        with pytest.raises(ValueError, match="MAX_GRID_NODES = 1000000"):
            export(models["stiff"], (0.1, 0.9), (0.1, 1.0), 100000, 100000,
                   path)
        assert not path.exists()

    @pytest.mark.parametrize("x_range,y_range", [
        ((0.1, 0.1), (0.1, 1.0)), ((0.1, 0.9), (0.5, 0.5))])
    def test_svg_rejects_degenerate_box(self, models, x_range, y_range,
                                        tmp_path):
        path = tmp_path / "p.svg"
        with pytest.raises(ValueError, match="x1 > x0 and y1 > y0"):
            portrait_svg(models["stiff"], x_range, y_range, 6, 6, path)
        assert not path.exists()


# -- python -m starphase

def test_module_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(sp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "starphase", "portrait", "--model", "stiff",
         "--grid", "6,5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 1 + 6 * 5
