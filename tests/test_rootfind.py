"""The stdlib Brent solver against scipy's brentq, its error paths, the
NaN checks of the bracket walk, and the scipy-free runtime import."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import starphase as sp
from starphase import rootfind
from conftest import run_python
from reference_models import oracle_verification


def outcome(solver, f, a, b, **kwargs):
    """The root, or the kind of error: ``"value"`` for ValueError and
    ``"budget"`` for a RuntimeError (scipy's budget error, and the
    package's ConvergenceError that subclasses it)."""
    try:
        return solver(f, a, b, **kwargs)
    except ValueError:
        return "value"
    except RuntimeError:
        return "budget"


def objective(kind, c, scale):
    """A monotone-near-the-root test objective with its root at ``c``."""
    if kind == "cubic":
        return lambda x: scale * (x - c) * ((x - c) ** 2 + 0.5)
    if kind == "poly9":
        return lambda x: scale * (x - c) ** 9
    if kind == "exp":
        return lambda x: scale * (math.exp(x) - math.exp(c))
    if kind == "log":
        return lambda x: scale * (math.log1p(abs(x)) - math.log1p(abs(c))) \
            * math.copysign(1.0, c) + scale * (x - c) ** 3
    if kind == "mix":
        return lambda x: scale * (math.exp(x - c) - 1.0
                                  + math.log1p((x - c) ** 2))
    if kind == "tiny":
        # products of values near the underflow limit, as brentq.c sees them
        return lambda x: 1e-300 * scale * (x - c) ** 3
    raise ValueError(kind)


#: distance of a bracket end from the root: on it, one ulp off, or away
end_offset = st.one_of(
    st.just(0.0), st.just("ulp"),
    st.floats(1e-12, 8.0, allow_nan=False, allow_infinity=False))


def bracket_end(c, off, direction):
    if off == "ulp":
        return math.nextafter(c, direction * math.inf)
    return c + direction * off


class TestAgainstScipy:
    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(["cubic", "poly9", "exp", "log", "mix",
                                 "tiny"]),
           c=st.floats(-3.0, 3.0, allow_nan=False),
           scale=st.sampled_from([-1e3, -1.0, 1e-3, 1.0, 1e8]),
           left=end_offset, right=end_offset,
           flip=st.booleans(),
           xtol=st.sampled_from([rootfind.ROOT_XTOL, 2e-12, 1e-6, 0.1,
                                  0.5]))
    def test_roots_bit_identical(self, kind, c, scale, left, right, flip,
                                 xtol):
        f = objective(kind, c, scale)
        a, b = bracket_end(c, left, -1.0), bracket_end(c, right, 1.0)
        if flip:
            a, b = b, a
        got = outcome(rootfind.brentq, f, a, b, xtol=xtol)
        want = outcome(scipy_brentq, f, a, b, xtol=xtol)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("c, a, b, xtol", [
        (-1.83, -3.7, 1.0, 0.5), (2.85, 0.9, 5.9, 0.1),
        (-1.07, -2.6, -0.3, 0.5)])
    def test_short_step_limit_keeps_its_delta(self, c, a, b, xtol):
        """Coarse tolerances where the step test's ``3 |sbis| - delta``
        limit decides between the interpolated step and bisection."""
        f = objective("exp", c, 1.0)
        assert rootfind.brentq(f, a, b, xtol=xtol) == scipy_brentq(
            f, a, b, xtol=xtol)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(0.01, 0.99), maxiter=st.integers(0, 12),
           xtol=st.sampled_from([1e-300, rootfind.ROOT_XTOL]))
    def test_budget_boundary_matches(self, c, maxiter, xtol):
        """Where scipy runs out of iterations, so does the port, and
        where it converges, both return the same root."""
        f = objective("poly9", c, 1.0)
        got = outcome(rootfind.brentq, f, 0.0, 1.0, xtol=xtol,
                      maxiter=maxiter)
        want = outcome(scipy_brentq, f, 0.0, 1.0, xtol=xtol,
                       maxiter=maxiter)
        assert got == want

    def test_numpy_scalar_objective(self):
        f = lambda x: np.log1p(np.float64(x)) - 0.25
        assert rootfind.brentq(f, 0.0, 1.0) == scipy_brentq(
            f, 0.0, 1.0, xtol=rootfind.ROOT_XTOL)


@contextlib.contextmanager
def scipy_checked_solves():
    """Make every ``rootfind.brentq`` call also solve with scipy and
    require the same root; yields the list of compared roots."""
    roots = []
    port = rootfind.brentq

    def both(f, a, b, **kwargs):
        root = port(f, a, b, **kwargs)
        assert root == scipy_brentq(f, a, b, **kwargs), (a, b, kwargs)
        roots.append(root)
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "brentq", both)
        yield roots


def solve_every_objective(m):
    """Solve the z, w and x0 objectives through the bracket-walk oracle
    (the package verifies them by a sign test) and run three H
    inversions."""
    with oracle_verification(m):
        sp.equilibrium(m)
    E = sp.excess_E(m)
    for level in (0.25 * E, E, 1.5 * E):
        try:
            sp.invert_H(m, level)
        except sp.DomainError:
            pass   # level above sup H: no bracket, so no brentq call


class TestPackageObjectives:
    @settings(max_examples=40, deadline=None)
    @given(log_s=st.floats(-3.0, 3.0))
    def test_scaled_members(self, log_s):
        with scipy_checked_solves() as roots:
            solve_every_objective(sp.model("scaled", scale=10.0 ** log_s))
        assert len(roots) >= 5

    @settings(max_examples=40, deadline=None)
    @given(kappa=st.floats(1e-3, 1.0))
    def test_kappa_members(self, kappa):
        with scipy_checked_solves() as roots:
            solve_every_objective(sp.model("kappa", kappa=kappa))
        assert len(roots) >= 5

    @pytest.mark.parametrize("name", ["nonrel", "stiff", "scaled", "kappa"])
    def test_presets(self, models, name):
        with scipy_checked_solves() as roots:
            solve_every_objective(models[name])
            sp.bound_X(models[name])
        assert len(roots) >= 5


class TestErrors:
    def test_nan_objective_raises_value_error(self):
        with pytest.raises(ValueError, match="NaN"):
            rootfind.brentq(lambda x: math.nan, 0.0, 1.0)

    def test_nan_inside_the_bracket_raises_value_error(self):
        # finite at both ends, NaN at the first secant iterate 0.3
        f = lambda x: math.nan if 0.1 < x < 0.9 else x - 0.3
        with pytest.raises(ValueError, match="x=0.3"):
            rootfind.brentq(f, 0.0, 1.0)
        with pytest.raises(ValueError, match="x=0.3"):
            scipy_brentq(f, 0.0, 1.0)

    def test_same_sign_bracket_raises_value_error(self):
        with pytest.raises(ValueError, match="different signs"):
            rootfind.brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("xtol", [0.0, -1e-12, math.nan])
    def test_nonpositive_xtol_rejected(self, xtol):
        with pytest.raises(ValueError, match="xtol"):
            rootfind.brentq(lambda x: x - 0.5, 0.0, 1.0, xtol=xtol)

    def test_budget_counts_every_evaluation(self):
        calls = []

        def slow(x):
            calls.append(x)
            return (x - 0.3) ** 9   # flat root: many bisections needed

        with pytest.raises(sp.ConvergenceError) as err:
            rootfind.brentq(slow, 0.0, 1.0, maxiter=5)
        assert isinstance(err.value, RuntimeError)
        assert len(calls) == 5 + 2   # both ends, then one per iteration

    def test_root_on_an_end_point_returns_it(self):
        assert rootfind.brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert rootfind.brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0


class TestExpandBracketZero:
    def test_exact_zero_at_a_probe_is_returned(self):
        # the first probe, 1 - (1 - 0.5)/2 = 0.75, is the root itself
        assert rootfind.expand_bracket(lambda x: x - 0.75, 0.5, 1.0) \
            == (0.75, 0.75)
        assert rootfind.solve_bracketed(lambda x: x - 0.75, 0.5, 1.0) == 0.75


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
            rootfind.solve_bracketed(f, 0.0, math.inf)

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
        assert '"X_numeric": 0.6934159639728907' in proc.stdout
