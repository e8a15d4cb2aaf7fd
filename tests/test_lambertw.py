import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

import starphase as sp
from starphase.lambertw import BRANCH_POINT

#: the stiff-bound Lambert argument -2^(1/3) e^(-4/3) and its W0 value
STIFF_ARG = -(2.0 ** (1.0 / 3.0)) * math.exp(-4.0 / 3.0)
STIFF_W = -0.6131680720542186


def bisect_w(arg, branch=0, iters=400):
    """Plain bisection oracle on w e^w = arg, independent of the package."""
    f = lambda w: w * math.exp(w) - arg
    if branch == 0:
        lo, hi = -1.0, 1.0
        while f(hi) < 0.0:
            hi *= 2.0
    else:
        lo = -2.0
        while f(lo) < 0.0:
            lo *= 2.0
        hi = -1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (f(hi) > 0.0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestKnownValues:
    def test_w0_of_zero(self):
        assert sp.lambert_w(0.0) == 0.0

    def test_w0_of_e(self):
        assert sp.lambert_w(math.e) == pytest.approx(1.0, abs=1e-15)

    def test_branch_point_both_branches(self):
        assert sp.lambert_w(BRANCH_POINT, 0) == -1.0
        assert sp.lambert_w(BRANCH_POINT, -1) == -1.0

    def test_stiff_argument(self):
        # feeds the X < 0.7 check of the stiff bound
        w = sp.lambert_w(STIFF_ARG)
        assert w == pytest.approx(STIFF_W, abs=1e-13)
        assert w == pytest.approx(bisect_w(STIFF_ARG), abs=1e-13)

    def test_against_bisection_oracle(self):
        for arg in (-0.332112, -0.25, -0.1, 0.5, 2.0, 10.0, 1e4):
            assert sp.lambert_w(arg) == pytest.approx(bisect_w(arg), abs=1e-13)
        for arg in (-0.35, -0.2, -0.05, -1e-4):
            assert sp.lambert_w(arg, -1) == \
                pytest.approx(bisect_w(arg, -1), rel=1e-13)

    def test_lower_branch_value(self):
        assert sp.lambert_w(-0.2, -1) == pytest.approx(-2.542641357773526,
                                                       abs=1e-12)


class TestDomain:
    def test_below_branch_point_rejected(self):
        with pytest.raises(sp.DomainError):
            sp.lambert_w(BRANCH_POINT - 1e-12)
        with pytest.raises(sp.DomainError):
            sp.lambert_w(-0.4, -1)

    def test_lower_branch_rejects_nonnegative(self):
        with pytest.raises(sp.DomainError):
            sp.lambert_w(0.0, -1)
        with pytest.raises(sp.DomainError):
            sp.lambert_w(0.5, -1)

    @pytest.mark.parametrize("branch", [0, -1])
    def test_nan_rejected(self, branch):
        with pytest.raises(sp.DomainError, match="got nan"):
            sp.lambert_w(math.nan, branch)

    def test_w0_of_inf_is_inf(self):
        assert sp.lambert_w(math.inf) == math.inf
        with pytest.raises(sp.DomainError):
            sp.lambert_w(math.inf, -1)

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            sp.lambert_w(0.5, branch=1)


class TestRoundTrip:
    def test_principal_branch_10k(self):
        # up to ~1e40 (W ~ 87) binary64 can represent W tightly enough
        # for a 1e-14 relative round trip; beyond that see test below
        rng = np.random.default_rng(11)
        args = np.concatenate([
            rng.uniform(BRANCH_POINT, 0.0, 4000),
            rng.uniform(0.0, 10.0, 3000),
            10.0 ** rng.uniform(1.0, 40.0, 2900),
            BRANCH_POINT + 10.0 ** rng.uniform(-15.0, -6.0, 100),
        ])
        worst = 0.0
        for a in args:
            w = sp.lambert_w(float(a))
            assert w >= -1.0
            if a != 0.0:
                worst = max(worst, abs(w * math.exp(w) - a) / abs(a))
        assert worst < 1e-14

    def test_huge_arguments_machine_optimal(self):
        # for W ~ several hundred the double spacing alone costs
        # eps * W / 2 in relative round trip; demand near-optimality
        rng = np.random.default_rng(13)
        for a in 10.0 ** rng.uniform(40.0, 300.0, 300):
            w = sp.lambert_w(float(a))
            rel = abs(w * math.exp(w) - a) / a
            assert rel <= 2.3e-16 * (2.0 + w)

    def test_lower_branch_10k(self):
        rng = np.random.default_rng(12)
        args = np.concatenate([
            rng.uniform(BRANCH_POINT, -1e-6, 6000),
            -(10.0 ** rng.uniform(-12.0, -6.0, 3900)),
            BRANCH_POINT + 10.0 ** rng.uniform(-15.0, -6.0, 100),
        ])
        worst = 0.0
        for a in args:
            w = sp.lambert_w(float(a), -1)
            assert w <= -1.0
            worst = max(worst, abs(w * math.exp(w) - a) / abs(a))
        assert worst < 1e-14

    def test_near_branch_point_within_1e6(self):
        for u in (1e-6, 1e-8, 1e-10, 1e-13):
            for branch in (0, -1):
                a = BRANCH_POINT + u
                w = sp.lambert_w(a, branch)
                assert abs(w * math.exp(w) - a) <= 1e-14 * abs(a)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(BRANCH_POINT, 1e6, allow_nan=False))
    def test_principal_property(self, a):
        w = sp.lambert_w(a)
        assert w >= -1.0
        assert abs(w * math.exp(w) - a) <= 1e-14 * max(abs(a), 1e-300)


class TestLowerBranchSubnormal:
    """Above -2.2250738585072014e-308 w e^w underflows on W_-1; the
    bisection fallback's bracket walk gave up there (ConvergenceError)."""

    @pytest.mark.parametrize("arg", [-5e-324, -1e-320, -1e-310, -2.2e-308])
    def test_against_mpmath(self, arg):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.lambertw(mpmath.mpf(arg), -1).real)
        assert sp.lambert_w(arg, -1) == pytest.approx(ref, rel=4e-16)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-2.2250738585072014e-308, -5e-324))
    def test_solves_the_log_equation(self, a):
        # w e^w = a as w + log(-w) = log(-a), which stays in range
        w = sp.lambert_w(a, -1)
        assert w <= -1.0
        assert w + math.log(-w) == pytest.approx(math.log(-a), rel=4e-16)


class TestAgainstScipy:
    def test_principal(self):
        rng = np.random.default_rng(21)
        args = np.concatenate([rng.uniform(BRANCH_POINT, 5.0, 150),
                               10.0 ** rng.uniform(1.0, 12.0, 50)])
        for a in args:
            ref = float(scipy_lambertw(float(a), 0).real)
            assert sp.lambert_w(float(a)) == pytest.approx(ref, rel=1e-13,
                                                           abs=1e-15)

    def test_lower(self):
        rng = np.random.default_rng(22)
        args = rng.uniform(BRANCH_POINT, -1e-8, 200)
        for a in args:
            ref = float(scipy_lambertw(float(a), -1).real)
            assert sp.lambert_w(float(a), -1) == pytest.approx(ref, rel=1e-13)
