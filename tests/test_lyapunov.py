import csv
import math

import numpy as np
import pytest

import starphase as sp

LOG2 = math.log(2.0)


def domain_points(m, n, seed=0):
    rng = np.random.default_rng(seed)
    x_hi = 0.95 * m.x_max if math.isfinite(m.x_max) else 2.5 * m.z
    xs = rng.uniform(0.0, x_hi, n)
    ys = rng.uniform(0.05 * m.z, 4.0 * m.z, n)
    return xs, ys




class TestValue:
    def test_zero_at_interior_point(self, each_model):
        assert sp.lyapunov_value(each_model, each_model.z, each_model.z) == 0.0

    @pytest.mark.parametrize("y", [5e-324, 1e-310, 2.2250738585072014e-308,
                                   1e-300])
    def test_y_over_z_below_the_normals(self, y):
        # log(y / z) underflowed or lost digits; log y - log z does not
        for m in (sp.model("nonrel"), sp.model("scaled", scale=1e-10)):
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                v = sp.lyapunov_value(m, m.z, np.array([y, m.z]))
            want = float(m.H(m.z)) + y - m.z - m.z * (math.log(y)
                                                       - math.log(m.z))
            if y / m.z < np.finfo(float).tiny:
                assert v[0] == pytest.approx(want, rel=1e-15)
            assert v[1] == 0.0

    def test_stiff_closed_form(self, models):
        # 2V = -6x - 3 log(1-x) + 2y - log y + 2 - 4 log 2
        m = models["stiff"]
        xs, ys = domain_points(m, 500)
        expected = (-6 * xs - 3 * np.log1p(-xs) + 2 * ys - np.log(ys)
                    + 2 - 4 * LOG2) / 2
        np.testing.assert_allclose(sp.lyapunov_value(m, xs, ys), expected,
                                   atol=1e-12)

    def test_nonrel_closed_form(self, models):
        # 2V = (x-2)^2 + 2y - 4 log y + C with C fixed by V(2,2) = 0
        m = models["nonrel"]
        xs, ys = domain_points(m, 500)
        C = 4 * LOG2 - 4
        expected = ((xs - 2) ** 2 + 2 * ys - 4 * np.log(ys) + C) / 2
        np.testing.assert_allclose(sp.lyapunov_value(m, xs, ys), expected,
                                   atol=1e-12)

    def test_rejects_nonpositive_y(self, models):
        with pytest.raises(sp.DomainError):
            sp.lyapunov_value(models["stiff"], 0.2, 0.0)
        with pytest.raises(sp.DomainError):
            sp.lyapunov_value(models["stiff"], 0.2, -1.0)

    def test_barrier_in_y(self, each_model):
        # V -> inf both as y -> 0+ and y -> inf at fixed x
        m = each_model
        x = 0.3 * m.z
        small = [sp.lyapunov_value(m, x, m.z * 10.0 ** (-k)) for k in range(1, 8)]
        large = [sp.lyapunov_value(m, x, m.z * 10.0 ** k) for k in range(1, 8)]
        assert all(np.diff(small) > 0)
        assert all(np.diff(large) > 0)
        # -z log(y/z) contributes z log(10) per decade toward 0+
        assert small[-1] - small[0] > 4.0 * m.z
        assert large[-1] - large[0] > 100.0 * m.z


class TestDerivative:
    def test_zero_at_interior_point(self, each_model):
        assert sp.lyapunov_derivative(each_model, each_model.z,
                                      each_model.z) == 0.0

    def test_nonrel_example(self, models):
        # b = 0, r = 1: dV = -(z - x)^2 = -4 at (0, 1)
        assert sp.lyapunov_derivative(models["nonrel"], 0.0, 1.0) == \
            pytest.approx(-4.0, abs=1e-14)

    def test_stiff_example(self, models):
        # x = z kills the r term; -b(1/2) (1 - 1/2)^2 = -1/2
        assert sp.lyapunov_derivative(models["stiff"], 0.5, 1.0) == \
            pytest.approx(-0.5, abs=1e-14)

    def test_nonpositive_everywhere(self, each_model):
        xs, ys = domain_points(each_model, 10_000, seed=3)
        vals = sp.lyapunov_derivative(each_model, xs, ys)
        assert float(np.max(vals)) <= 1e-12

    def test_equals_gradient_dot_field(self, each_model):
        m = each_model
        xs, ys = domain_points(m, 2000, seed=4)
        gx, gy = sp.lyapunov_gradient(m, xs, ys)
        dx, dy = sp.eval_field(m, xs, ys)
        analytic = sp.lyapunov_derivative(m, xs, ys)
        dot = np.asarray(gx) * dx + np.asarray(gy) * dy
        np.testing.assert_allclose(analytic, dot,
                                   atol=1e-9, rtol=1e-9)

    def test_matches_finite_difference_gradient(self, each_model):
        from conftest import max_fd_deviation
        assert max_fd_deviation(each_model, 10_000, seed=5) < 1e-6


class TestH:
    def test_zero_at_z(self, each_model):
        assert sp.H(each_model, each_model.z) == 0.0

    def test_nonrel_closed_form(self, models):
        m = models["nonrel"]
        xs = np.linspace(2.0, 6.0, 50)
        np.testing.assert_allclose(sp.H(m, xs), (xs - 2) ** 2 / 2, atol=1e-12)

    def test_stiff_closed_form(self, models):
        # 2H = -6x - 3 log(1-x) + 3 - 3 log 2
        m = models["stiff"]
        xs = np.linspace(0.5, 0.95, 50)
        expected = (-6 * xs - 3 * np.log1p(-xs) + 3 - 3 * LOG2) / 2
        np.testing.assert_allclose(sp.H(m, xs), expected, atol=1e-12)

    def test_strictly_increasing(self, each_model):
        m = each_model
        hi = m.x_max * (1 - 1e-6) if math.isfinite(m.x_max) else 8.0
        xs = np.linspace(m.z, hi, 300)
        vals = np.asarray(sp.H(m, xs))
        assert np.all(np.diff(vals) > 0.0)

    def test_rejects_x_below_z(self, models):
        with pytest.raises(sp.DomainError):
            sp.H(models["stiff"], 0.4)

    def test_lower_end_is_exact_on_a_narrow_member(self):
        # the test was x >= z - 1e-12, which let 0.0 through at z = 5e-13
        m = sp.model("scaled", scale=1e12)
        assert sp.H(m, m.z) == 0.0
        for x in (0.0, np.nextafter(m.z, 0.0)):
            with pytest.raises(sp.DomainError, match="x >= z"):
                sp.H(m, x)


#: the domain-checked entry points, each with the argument v in one
#: place and valid values (x = 0.6 z, y = 0.5) in the others
NON_FINITE_CALLS = {
    "H": lambda m, v: sp.H(m, v),
    "lyapunov_value(x)": lambda m, v: sp.lyapunov_value(m, v, 0.5),
    "lyapunov_value(y)": lambda m, v: sp.lyapunov_value(m, 0.6 * m.z, v),
    "eval_field(x)": lambda m, v: sp.eval_field(m, v, 0.5),
    "eval_field(y)": lambda m, v: sp.eval_field(m, 0.6 * m.z, v),
    "r_factor": lambda m, v: sp.r_factor(m, v),
    "lyapunov_derivative":
        lambda m, v: sp.lyapunov_derivative(m, 0.6 * m.z, v),
    "lyapunov_gradient": lambda m, v: sp.lyapunov_gradient(m, v, v),
}


class TestNonFiniteInput:
    """NaN failed none of the domain comparisons, so these calls returned
    NaN; +inf passed the y checks."""

    @pytest.mark.parametrize("name", list(NON_FINITE_CALLS))
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_rejected(self, each_model, name, v, as_array):
        arg = np.array([1.2 * each_model.z, v]) if as_array else v
        with pytest.raises(sp.DomainError):
            NON_FINITE_CALLS[name](each_model, arg)

    @pytest.mark.parametrize("name", list(NON_FINITE_CALLS))
    def test_finite_arrays_accepted(self, each_model, name):
        # the valid companion of the array case above
        arg = np.array([1.2 * each_model.z, 1.1 * each_model.z])
        assert np.all(np.isfinite(NON_FINITE_CALLS[name](each_model, arg)))


#: the array entry points, each given an empty x and y
EMPTY_CALLS = {
    "H": lambda m, e: sp.H(m, e),
    "lyapunov_value": lambda m, e: sp.lyapunov_value(m, e, e),
    "lyapunov_gradient": lambda m, e: sp.lyapunov_gradient(m, e, e),
    "lyapunov_derivative": lambda m, e: sp.lyapunov_derivative(m, e, e),
    "eval_field": lambda m, e: sp.eval_field(m, e, e),
    "r_factor": lambda m, e: sp.r_factor(m, e),
    "isocline_x": lambda m, e: sp.isocline_x(m, e),
}


class TestEmptyInput:
    """Empty arrays give empty results; lyapunov_value raised numpy's
    zero-size reduction error."""

    @pytest.mark.parametrize("name", list(EMPTY_CALLS))
    def test_empty_in_empty_out(self, models, name):
        out = EMPTY_CALLS[name](models["stiff"], np.array([]))
        for part in out if isinstance(out, tuple) else (out,):
            assert np.shape(part) == (0,)


class TestLevelSetGrid:
    def test_matches_pointwise_values(self, models):
        m = models["stiff"]
        g = sp.level_set_grid(m, (0.0, 0.9), (0.01, 2.0), 13, 17)
        for i in (0, 5, 12):
            for j in (0, 9, 16):
                assert g.valid[i, j]
                assert g.values[i, j] == sp.lyapunov_value(m, g.xs[i], g.ys[j])

    def test_cell_at_interior_point_is_zero(self, models):
        m = models["stiff"]
        g = sp.level_set_grid(m, (0.5, 0.6), (0.5, 0.7), 2, 2)
        assert g.values[0, 0] == 0.0

    def test_minimum_at_cell_nearest_interior_point(self, models):
        m = models["stiff"]
        g = sp.level_set_grid(m, (0.0, 0.9), (0.01, 2.0), 60, 77)
        masked = np.where(g.valid, g.values, np.inf)
        i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        assert i == int(np.argmin(np.abs(g.xs - m.z)))
        assert j == int(np.argmin(np.abs(g.ys - m.z)))

    def test_invalid_cells_flagged(self, models):
        m = models["stiff"]
        g = sp.level_set_grid(m, (0.8, 1.2), (-0.5, 1.0), 5, 4)
        assert not g.valid[4, 3]       # x beyond the pole
        assert not g.valid[0, 0]       # y <= 0
        assert np.isnan(g.values[4, 3])
        assert g.valid[0, 3] and np.isfinite(g.values[0, 3])

    def test_empty_range_rejected(self, models):
        with pytest.raises(ValueError):
            sp.level_set_grid(models["stiff"], (0.5, 0.1), (0.1, 1.0), 4, 4)

    def test_csv_export(self, models, tmp_path):
        m = models["stiff"]
        g = sp.level_set_grid(m, (0.8, 1.2), (0.5, 1.0), 4, 3)
        path = tmp_path / "grid.csv"
        g.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "V", "valid"]
        assert len(rows) == 1 + 4 * 3
        for row in rows[1:]:
            if row[3] == "1":
                x, y, v = float(row[0]), float(row[1]), float(row[2])
                assert v == sp.lyapunov_value(m, x, y)
            else:
                assert row[2] == ""
