import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import starphase as sp
from starphase.lyapunov import LevelSetGrid
from starphase.portrait import default_ranges, field_grid, marching_squares
from starphase.portrait import portrait_csv


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
        assert marching_squares(grid, float(np.nanmean(grid.values))) == []

    def test_all_invalid_grid_is_empty(self, models):
        m = models["stiff"]  # x_max = 1: the whole box is past the pole
        grid = sp.level_set_grid(m, (1.5, 2.0), (0.1, 1.0), 10, 10)
        assert not grid.valid.any()
        assert marching_squares(grid, 0.1) == []

    def test_level_outside_value_range_is_empty(self, models):
        m = models["nonrel"]
        grid = sp.level_set_grid(m, *default_ranges(m), 25, 25)
        finite = grid.values[grid.valid]
        assert marching_squares(grid, float(finite.min()) - 1.0) == []
        assert marching_squares(grid, float(finite.max()) + 1.0) == []


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


# -- plot box validation

class TestPlotBox:
    @pytest.mark.parametrize("x_range,y_range", [
        ((math.nan, 1.0), (0.1, 1.0)), ((0.0, math.inf), (0.1, 1.0)),
        ((0.0, 1.0), (-math.inf, 1.0)), ((0.0, 1.0), (0.1, math.nan))])
    def test_level_set_grid_rejects_non_finite_bounds(self, models, x_range,
                                                      y_range):
        with pytest.raises(ValueError, match="finite"):
            sp.level_set_grid(models["stiff"], x_range, y_range, 5, 5)

    @pytest.mark.parametrize("x_range,y_range", [
        ((0.1, 0.1), (0.1, 1.0)), ((0.1, 0.9), (0.5, 0.5))])
    def test_svg_rejects_degenerate_box(self, models, x_range, y_range,
                                        tmp_path):
        from starphase.portrait import portrait_svg
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
