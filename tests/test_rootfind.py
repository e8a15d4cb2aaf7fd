"""The bracketed Newton solver: its accuracy against exact roots and
against scipy's brentq at machine precision, each of its branches, its
error paths, the NaN checks of the bracket walk, and the scipy-free
runtime import."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import starphase as sp
from starphase import rootfind
from conftest import machine_root, near_machine_root, run_python, ulps


def objective(kind, c, scale):
    """An increasing test objective with its one root exactly at ``c``
    (the factor x - c decides the sign, so rounding cannot move the
    root), and its derivative."""
    if kind == "cubic":
        return (lambda x: scale * (x - c) * ((x - c) ** 2 + 0.5),
                lambda x: scale * (3.0 * (x - c) ** 2 + 0.5))
    if kind == "exp":
        # the derivative is not positive below c - 1: bisection there
        return (lambda x: scale * (x - c) * math.exp(x),
                lambda x: scale * (1.0 + x - c) * math.exp(x))
    if kind == "pole":
        return (lambda x: scale * (x - c) / (c + 1.0 - x),
                lambda x: scale / (c + 1.0 - x) ** 2)
    if kind == "sqrt":
        return (lambda x: scale * (x - c) * math.sqrt(1.0 + x * x),
                lambda x: scale * (math.sqrt(1.0 + x * x)
                                   + (x - c) * x / math.sqrt(1.0 + x * x)))
    raise ValueError(kind)


def logged(f, points):
    """``f`` that appends each of its arguments to ``points``."""
    def g(x):
        points.append(x)
        return f(x)
    return g


class TestAgainstScipy:
    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(["cubic", "exp", "pole", "sqrt"]),
           c=st.floats(0.25, 3.0) | st.floats(-3.0, -0.25),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e8, 1e300]),
           left=st.floats(1e-12, 8.0), right=st.floats(1e-12, 8.0),
           unbounded=st.booleans())
    def test_roots_within_two_ulps_of_the_exact_root(self, kind, c, scale,
                                                      left, right,
                                                      unbounded):
        """At objective scales of 1e-300 and 1e300 too, where Brent's
        products of two values underflow or overflow.  (Roots are drawn
        off zero: at 1e-300 the objective is subnormal near its root,
        which limits any solver to about 5e-324 / f' = 1e-23.)"""
        f, df = objective(kind, c, scale)
        x_max = c + 1.0 if kind == "pole" else \
            math.inf if unbounded else c + right
        assert ulps(rootfind.solve_bracketed(f, df, c - left, x_max), c) <= 2

    def test_numpy_scalar_objective(self):
        f = lambda x: np.log1p(np.float64(x)) - 0.25
        df = lambda x: 1.0 / (1.0 + np.float64(x))
        got = rootfind.solve_bracketed(f, df, 0.0, 1.0)
        assert type(got) is float
        assert ulps(got, scipy_brentq(f, 0.0, 1.0, xtol=5e-324)) <= 1


class TestBranches:
    def test_newton_descends_from_the_upper_end(self):
        # x^2 - 2 is increasing and convex on (0, 2): the walk probes 0,
        # 1 and 1.5, and Newton runs from 1.5 down to sqrt(2)
        points = []
        f = logged(lambda x: x * x - 2.0, points)
        got = rootfind.solve_bracketed(f, lambda x: 2.0 * x, 0.0, 2.0)
        assert ulps(got, math.sqrt(2.0)) <= 1
        assert points[:4] == [0.0, 1.0, 1.5, 1.5]
        newton = points[3:]
        assert newton == sorted(newton, reverse=True)
        assert len(newton) <= 5

    def test_newton_on_a_decreasing_objective(self):
        # a negative slope sends the Newton point inside the bracket
        # (0, 0.5) of a decreasing f, onto its root 0.3
        points = []
        f = logged(lambda x: 0.3 - x, points)
        assert rootfind.solve_bracketed(f, lambda x: -1.0, 0.0, 1.0) == 0.3
        assert points == [0.0, 0.5, 0.5, 0.3]

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.inf, math.nan])
    def test_bisects_where_the_slope_is_not_positive_and_finite(self,
                                                                 slope):
        points = []
        f = logged(lambda x: x - 0.3, points)
        got = rootfind.solve_bracketed(f, lambda x: slope, 0.0, 1.0)
        assert abs(got - 0.3) <= rootfind.ROOT_XTOL
        # after the walk's 0 and 0.5, 0.5 again, then midpoints only
        assert points[:4] == [0.0, 0.5, 0.5, 0.25]
        assert points[4:7] == [0.375, 0.3125, 0.28125]

    def test_bisects_where_the_newton_point_leaves_the_bracket(self):
        # a slope 1e-3 of the true 1 sends Newton far below the bracket
        # (0, 0.5): the step bisects it instead
        points = []
        f = logged(lambda x: x - 0.3, points)
        got = rootfind.solve_bracketed(f, lambda x: 1e-3, 0.0, 1.0)
        assert abs(got - 0.3) <= rootfind.ROOT_XTOL
        assert points[3] == 0.25

    def test_exact_zero_at_an_iterate_is_returned(self):
        # the walk brackets (0.5, 0.75); Newton lands on 0.625 itself, and
        # its zero ends the solve before the slope there is taken
        points, slopes = [], []
        f = logged(lambda x: x - 0.625, points)
        df = logged(lambda x: 1.0, slopes)
        assert rootfind.solve_bracketed(f, df, 0.0, 1.0) == 0.625
        assert points == [0.0, 0.5, 0.75, 0.75, 0.625]
        assert slopes == [0.75]

    def test_short_step_returns_its_point_unevaluated(self):
        # one Newton step of 0.125 reaches the root of the line; a
        # tolerance above it ends the solve before 0.625 is evaluated
        points = []
        f = logged(lambda x: x - 0.625, points)
        assert rootfind.solve_bracketed(f, lambda x: 1.0, 0.0, 1.0,
                                        xtol=0.2) == 0.625
        assert points == [0.0, 0.5, 0.75, 0.75]


@contextlib.contextmanager
def scipy_checked_solves(m):
    """Make every ``rootfind.solve_bracketed`` call, the H inversions of
    member ``m``, also solve with scipy's brentq at machine precision on
    the bracket of ``expand_bracket``, and require ``near_machine_root``;
    yields the list of compared roots."""
    roots = []
    solve = rootfind.solve_bracketed

    def both(f, df, lo, x_max, xtol=rootfind.ROOT_XTOL):
        root = solve(f, df, lo, x_max, xtol)
        want = machine_root(f, lo, x_max)
        assert near_machine_root(m, root, want), (lo, x_max, root, want)
        roots.append(root)
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "solve_bracketed", both)
        yield roots


def solve_every_objective(m):
    """Invert H at five levels of the order of E."""
    E = sp.excess_E(m)
    for level in (0.25 * E, 0.5 * E, 0.75 * E, E, 1.5 * E):
        sp.invert_H(m, level)


class TestPackageObjectives:
    @settings(max_examples=40, deadline=None)
    @given(log_s=st.floats(-3.0, 3.0))
    def test_scaled_members(self, log_s):
        m = sp.model("scaled", scale=10.0 ** log_s)
        with scipy_checked_solves(m) as roots:
            solve_every_objective(m)
        assert len(roots) == 5

    @settings(max_examples=40, deadline=None)
    @given(kappa=st.floats(1e-3, 1.0))
    def test_kappa_members(self, kappa):
        m = sp.model("kappa", kappa=kappa)
        with scipy_checked_solves(m) as roots:
            solve_every_objective(m)
        assert len(roots) == 5

    @pytest.mark.parametrize("name", ["nonrel", "stiff", "scaled", "kappa"])
    def test_presets(self, models, name):
        with scipy_checked_solves(models[name]) as roots:
            solve_every_objective(models[name])
            sp.bound_X(models[name])
        assert len(roots) == 6


class TestErrors:
    def test_nan_objective_raises_value_error(self):
        with pytest.raises(ValueError, match="NaN"):
            rootfind.solve_bracketed(lambda x: math.nan, lambda x: 1.0,
                                     0.0, 1.0)

    def test_nan_inside_the_bracket_raises_value_error(self):
        # finite at the walk's 0 and 0.5, NaN at the Newton point 0.3
        f = lambda x: math.nan if 0.1 < x < 0.45 else x - 0.3
        with pytest.raises(ValueError, match="x=0.3"):
            rootfind.solve_bracketed(f, lambda x: 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("xtol", [0.0, -1e-12, math.nan])
    def test_nonpositive_xtol_rejected(self, xtol):
        with pytest.raises(ValueError, match="xtol"):
            rootfind.solve_bracketed(lambda x: x - 0.5, lambda x: 1.0,
                                     0.0, 1.0, xtol=xtol)

    def test_budget_counts_every_evaluation(self):
        # a root of order 9: Newton closes only 1/9 of the gap a step
        points = []
        f = logged(lambda x: (x - 0.3) ** 9, points)
        with pytest.raises(sp.ConvergenceError) as err:
            rootfind.solve_bracketed(f, lambda x: 9.0 * (x - 0.3) ** 8,
                                     0.0, 1.0)
        assert isinstance(err.value, RuntimeError)
        # the walk's 0 and 0.5, 0.5 again, then one per step
        assert len(points) == 3 + rootfind._MAX_NEWTON

    def test_root_on_an_end_point_returns_it(self):
        # at the left end, and at the walk's first probe 1.5
        assert rootfind.solve_bracketed(lambda x: x - 1.0, lambda x: 1.0,
                                        1.0, 2.0) == 1.0
        assert rootfind.solve_bracketed(lambda x: x - 1.5, lambda x: 1.0,
                                        1.0, 2.0) == 1.5


class TestExpandBracketZero:
    def test_exact_zero_at_a_probe_is_returned(self):
        # the first probe, 1 - (1 - 0.5)/2 = 0.75, is the root itself,
        # and the solve returns it without another evaluation
        assert rootfind.expand_bracket(lambda x: x - 0.75, 0.5, 1.0) \
            == (0.75, 0.75)
        points = []
        f = logged(lambda x: x - 0.75, points)
        assert rootfind.solve_bracketed(f, lambda x: 1.0, 0.5, 1.0) == 0.75
        assert points == [0.5, 0.75]


class TestExpandBracketNaN:
    def test_nan_probe_is_not_read_as_no_sign_change(self):
        # negative up to 0.7 and NaN beyond: read as "not positive", the
        # NaN would let the walk end in a "no sign change" error
        f = lambda x: -1.0 if x < 0.7 else math.nan
        with pytest.raises(ValueError, match="x=0.75"):
            rootfind.expand_bracket(f, 0.5, 1.0)

    def test_nan_probe_is_not_handed_on_as_a_bracket_end(self):
        # positive up to 0.7 and NaN beyond: read as "not positive", the
        # NaN would end the walk on the bracket (0.5, 0.75) with a NaN end
        f = lambda x: 1.0 if x < 0.7 else math.nan
        with pytest.raises(ValueError, match="x=0.75"):
            rootfind.expand_bracket(f, 0.5, 1.0)

    def test_nan_on_an_unbounded_walk(self):
        f = lambda x: x - 100.0 if x < 3.0 else math.nan
        with pytest.raises(ValueError, match="NaN"):
            rootfind.solve_bracketed(f, lambda x: 1.0, 0.0, math.inf)

    def test_nan_at_the_left_end(self):
        with pytest.raises(ValueError, match="x=0.5"):
            rootfind.expand_bracket(lambda x: math.nan, 0.5, 1.0)


class TestNoRuntimeScipy:
    def test_cli_import_loads_no_scipy(self):
        proc = run_python(
            "import starphase.cli, sys; "
            "print(sorted(k for k in sys.modules if k == 'scipy' "
            "or k.startswith('scipy.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_bound_runs_with_scipy_blocked(self):
        proc = run_python(
            "import runpy, sys; sys.modules['scipy'] = None; "
            "sys.argv = ['starphase', 'bound', '--model', 'stiff']; "
            "runpy.run_module('starphase', run_name='__main__')")
        assert proc.returncode == 0, proc.stderr
        assert '"X_numeric": 0.6934159639728906' in proc.stdout
