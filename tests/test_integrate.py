import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starphase as sp
from starphase import integrate
from starphase.errors import DomainError
from starphase.trajectory import IntegratorConfig

from conftest import FAMILY_ARGS, ORBIT_DRAWS, orbit_case
from reference_integrate import reference_integrate, reference_shoot


class TestAccuracy:
    def test_exponential_decay(self):
        sol = integrate.integrate_adaptive(
            lambda x, y: (-x, -y), 0.0, [1.0, 1.0], 5.0, rtol=1e-10,
            atol=1e-12)
        assert sol.status == integrate.FINISHED
        assert sol.t[-1] == 5.0
        assert sol.y[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-8)

    def test_harmonic_oscillator_energy(self):
        f = lambda x, y: np.array([y, -x])
        sol = integrate.integrate_adaptive(f, 0.0, [1.0, 0.0], 20.0,
                                           rtol=1e-10, atol=1e-12)
        energy = sol.y[:, 0] ** 2 + sol.y[:, 1] ** 2
        assert float(np.max(np.abs(energy - 1.0))) < 1e-7
        assert sol.y[-1, 0] == pytest.approx(math.cos(20.0), abs=1e-7)

    def test_tolerance_scaling(self):
        # y' = sin(t) y made autonomous: x carries the time, x' = 1
        f = lambda x, y: np.array([1.0, math.sin(x) * y])
        errs = []
        for rtol in (1e-6, 1e-9):
            sol = integrate.integrate_adaptive(f, 0.0, [0.0, 1.0], 3.0,
                                               rtol=rtol, atol=1e-14)
            exact = math.exp(1.0 - math.cos(3.0))
            errs.append(abs(sol.y[-1, 1] - exact) / exact)
        assert errs[1] < errs[0] / 10.0


class TestControlFlow:
    def test_stop_predicate(self):
        sol = integrate.integrate_adaptive(
            lambda x, y: np.array([1.0, 1.0]), 0.0, [0.0, 0.0], 100.0,
            stop=lambda x, y: x >= 1.0)
        assert sol.status == integrate.STOPPED
        assert sol.y[-1, 0] >= 1.0
        assert sol.t[-1] < 100.0

    def test_max_steps(self):
        sol = integrate.integrate_adaptive(
            lambda x, y: (-x, -y), 0.0, [1.0, 1.0], 1e6, max_steps=10)
        assert sol.status == integrate.MAX_STEPS
        assert sol.steps == 10

    def test_domain_exit_shrinks_then_reports(self):
        def f(x, y):
            if x > 1.0:
                raise DomainError("beyond the wall")
            return np.array([1.0, 1.0])

        sol = integrate.integrate_adaptive(f, 0.0, [0.0, 0.0], 10.0)
        assert sol.status == integrate.DOMAIN_EXIT
        # stops essentially at the wall, not far past the last good step
        assert sol.y[-1, 0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("t0, max_time", [(0.0, 1e-20),
                                              (200.0 - 1e-12, 200.0)])
    def test_last_step_below_the_floor_finishes(self, t0, max_time):
        # the floor 1e-14 max(1, |t|) judges the controller's h; the h cut
        # to the time left lay below it, and the run ended as domain_exit
        sol = integrate.integrate_adaptive(lambda x, y: (-x, -y), t0,
                                           [1.0, 1.0], max_time)
        assert sol.status == integrate.FINISHED
        assert sol.steps == 1 and sol.t[-1] == max_time

    def test_initial_state_outside_domain(self):
        def f(x, y):
            raise DomainError("nowhere is safe")

        with pytest.raises(DomainError):
            integrate.integrate_adaptive(f, 0.0, [0.0, 0.0], 1.0)

    def test_samples_strictly_increasing_and_derivatives_recorded(self):
        f = lambda x, y: np.array([y, -x])
        sol = integrate.integrate_adaptive(f, 0.0, [1.0, 0.0], 5.0)
        assert np.all(np.diff(sol.t) > 0.0)
        np.testing.assert_allclose(sol.f[:, 0], sol.y[:, 1], atol=1e-12)


class TestFloatContract:
    def test_field_and_stop_receive_floats(self):
        seen = []

        def f(x, y):
            seen.append((x, y))
            return (y, -x)

        def stop(x, y):
            seen.append((x, y))
            return False

        integrate.integrate_adaptive(f, 0.0, np.array([1.0, 0.0]), 2.0,
                                     stop=stop)
        assert len(seen) > 7
        for state in seen:
            assert all(type(v) is float for v in state)

    def test_nfev_counts_every_field_call(self):
        calls = [0]

        def f(x, y):
            calls[0] += 1
            return (y, -x)

        sol = integrate.integrate_adaptive(f, 0.0, [1.0, 0.0], 5.0)
        assert sol.nfev == calls[0]
        # FSAL: one initial call, then six per attempted step
        assert sol.nfev == 1 + 6 * (sol.steps + sol.rejected)

    def test_nfev_counts_calls_that_leave_the_domain(self):
        calls = [0]

        def f(x, y):
            calls[0] += 1
            if x > 1.0:
                raise DomainError("beyond the wall")
            return (1.0, 1.0)

        sol = integrate.integrate_adaptive(f, 0.0, [0.0, 0.0], 10.0)
        assert sol.status == integrate.DOMAIN_EXIT
        assert sol.rejected > 0
        assert sol.nfev == calls[0]


def shoot_against_reference(m, cfg):
    """Shoot once while the tuple-state reference loop integrates the
    same field and stop; return the (reference, planar) solution pair."""
    planar = integrate.integrate_adaptive
    pairs = []

    def both(field, t0, y0, max_time, *, stop, **kwargs):
        ref = reference_integrate(lambda t, s: field(*s), t0, y0, max_time,
                                  stop=lambda t, s: stop(*s), **kwargs)
        sol = planar(field, t0, y0, max_time, stop=stop, **kwargs)
        pairs.append((ref, sol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrate, "integrate_adaptive", both)
        sp.shoot_heteroclinic(m, cfg)
    (pair,) = pairs
    return pair


def assert_bit_identical(ref, sol):
    for name in ("t", "y", "f"):
        want, got = getattr(ref, name), getattr(sol, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert (sol.status, sol.steps, sol.rejected, sol.nfev) == \
        (ref.status, ref.steps, ref.rejected, ref.nfev)


class TestReferenceOracle:
    """The planar loop against the tuple-state loop it replaced: same
    arithmetic in the same order, so every array and counter is equal
    bit for bit."""

    @pytest.mark.parametrize("name", list(FAMILY_ARGS))
    def test_presets(self, models, name):
        ref, sol = shoot_against_reference(models[name], IntegratorConfig())
        assert sol.y.shape == (sol.steps + 1, 2)
        assert_bit_identical(ref, sol)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(list(FAMILY_ARGS)),
           kappa=st.floats(0.02, 1.0), e_scale=st.floats(-1.0, 3.0),
           e_rtol=st.floats(-12.0, -7.0), e_eps=st.floats(-6.0, -3.0))
    def test_random_shoots(self, family, kappa, e_scale, e_rtol, e_eps):
        m = sp.model(family,
                     kappa=kappa if family == "kappa" else None,
                     scale=10.0 ** e_scale if family == "scaled" else None)
        cfg = IntegratorConfig(eps_start=m.w * 10.0 ** e_eps,
                               rel_tol=10.0 ** e_rtol)
        assert_bit_identical(*shoot_against_reference(m, cfg))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_values(self, bad):
        # a NaN or infinite error estimate rejects the step and shrinks
        # it by the minimal factor, until the run ends at the step floor
        def f(x, y):
            return (1.0, bad if x > 0.5 else -y)

        ref = reference_integrate(lambda t, s: f(*s), 0.0, (0.0, -1.0), 5.0)
        sol = integrate.integrate_adaptive(f, 0.0, (0.0, -1.0), 5.0)
        assert sol.status == integrate.DOMAIN_EXIT and sol.rejected > 0
        assert_bit_identical(ref, sol)


class TestClosureOracle:
    """The shoot with the model's fused field and the arrival pre-test
    against the tuple-state loop driven by the closures they replaced:
    ``a(x)*y - b(x)*y*y`` and an arrival test that always evaluates H.
    ``TestReferenceOracle`` feeds the same closures to both loops, so
    only this oracle sees a change in the closures."""

    @pytest.mark.parametrize("name", list(FAMILY_ARGS))
    def test_presets(self, models, name):
        cfg = IntegratorConfig()
        assert_bit_identical(reference_shoot(models[name], cfg),
                             shoot_against_reference(models[name], cfg)[1])

    @settings(max_examples=100, deadline=None)
    @given(**ORBIT_DRAWS)
    def test_orbit_contract_draws(self, family, kappa, e_scale, e_eps,
                                  e_rtol):
        m, cfg = orbit_case(family, kappa, e_scale, e_eps, e_rtol)
        assert_bit_identical(reference_shoot(m, cfg),
                             shoot_against_reference(m, cfg)[1])


class TestHermiteMax:
    def test_quadratic_peak_inside(self):
        # x(t) = 1 - (t - 0.3)^2 on [0, 1]: cubic Hermite is exact
        x = lambda t: 1.0 - (t - 0.3) ** 2
        d = lambda t: -2.0 * (t - 0.3)
        best = integrate.hermite_extremum_max(0.0, 1.0, x(0.0), x(1.0),
                                              d(0.0), d(1.0))
        assert best == pytest.approx(1.0, abs=1e-14)

    def test_monotone_segment_returns_endpoint(self):
        best = integrate.hermite_extremum_max(0.0, 1.0, 0.0, 2.0, 1.0, 3.0)
        assert best == 2.0

    def test_cubic_exact(self):
        x = lambda t: t ** 3 - 2.0 * t ** 2 + t      # local max at t = 1/3
        d = lambda t: 3.0 * t ** 2 - 4.0 * t + 1.0
        best = integrate.hermite_extremum_max(0.0, 1.0, x(0.0), x(1.0),
                                              d(0.0), d(1.0))
        assert best == pytest.approx(x(1.0 / 3.0), abs=1e-14)
