import math

import numpy as np
import pytest

from starphase import integrate
from starphase.errors import DomainError


class TestAccuracy:
    def test_exponential_decay(self):
        sol = integrate.integrate_adaptive(
            lambda t, y: (-y[0],), 0.0, [1.0], 5.0, rtol=1e-10, atol=1e-12)
        assert sol.status == integrate.FINISHED
        assert sol.t[-1] == 5.0
        assert sol.y[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-8)

    def test_harmonic_oscillator_energy(self):
        f = lambda t, y: np.array([y[1], -y[0]])
        sol = integrate.integrate_adaptive(f, 0.0, [1.0, 0.0], 20.0,
                                           rtol=1e-10, atol=1e-12)
        energy = sol.y[:, 0] ** 2 + sol.y[:, 1] ** 2
        assert float(np.max(np.abs(energy - 1.0))) < 1e-7
        assert sol.y[-1, 0] == pytest.approx(math.cos(20.0), abs=1e-7)

    def test_tolerance_scaling(self):
        f = lambda t, y: np.array([math.sin(t) * y[0]])
        errs = []
        for rtol in (1e-6, 1e-9):
            sol = integrate.integrate_adaptive(f, 0.0, [1.0], 3.0,
                                               rtol=rtol, atol=1e-14)
            exact = math.exp(1.0 - math.cos(3.0))
            errs.append(abs(sol.y[-1, 0] - exact) / exact)
        assert errs[1] < errs[0] / 10.0


class TestControlFlow:
    def test_stop_predicate(self):
        sol = integrate.integrate_adaptive(
            lambda t, y: np.array([1.0]), 0.0, [0.0], 100.0,
            stop=lambda t, y: y[0] >= 1.0)
        assert sol.status == integrate.STOPPED
        assert sol.y[-1, 0] >= 1.0
        assert sol.t[-1] < 100.0

    def test_max_steps(self):
        sol = integrate.integrate_adaptive(
            lambda t, y: (-y[0],), 0.0, [1.0], 1e6, max_steps=10)
        assert sol.status == integrate.MAX_STEPS
        assert sol.steps == 10

    def test_domain_exit_shrinks_then_reports(self):
        def f(t, y):
            if y[0] > 1.0:
                raise DomainError("beyond the wall")
            return np.array([1.0])

        sol = integrate.integrate_adaptive(f, 0.0, [0.0], 10.0)
        assert sol.status == integrate.DOMAIN_EXIT
        # stops essentially at the wall, not far past the last good step
        assert sol.y[-1, 0] == pytest.approx(1.0, abs=1e-6)

    def test_initial_state_outside_domain(self):
        def f(t, y):
            raise DomainError("nowhere is safe")

        with pytest.raises(DomainError):
            integrate.integrate_adaptive(f, 0.0, [0.0], 1.0)

    def test_samples_strictly_increasing_and_derivatives_recorded(self):
        f = lambda t, y: np.array([y[1], -y[0]])
        sol = integrate.integrate_adaptive(f, 0.0, [1.0, 0.0], 5.0)
        assert np.all(np.diff(sol.t) > 0.0)
        np.testing.assert_allclose(sol.f[:, 0], sol.y[:, 1], atol=1e-12)


class TestFloatContract:
    def test_field_and_stop_receive_float_tuples(self):
        seen = []

        def f(t, y):
            seen.append(y)
            return (y[1], -y[0])

        def stop(t, y):
            seen.append(y)
            return False

        integrate.integrate_adaptive(f, 0.0, np.array([1.0, 0.0]), 2.0,
                                     stop=stop)
        assert len(seen) > 7
        for y in seen:
            assert type(y) is tuple and len(y) == 2
            assert all(type(v) is float for v in y)

    def test_nfev_counts_every_field_call(self):
        calls = [0]

        def f(t, y):
            calls[0] += 1
            return (y[1], -y[0])

        sol = integrate.integrate_adaptive(f, 0.0, [1.0, 0.0], 5.0)
        assert sol.nfev == calls[0]
        # FSAL: one initial call, then six per attempted step
        assert sol.nfev == 1 + 6 * (sol.steps + sol.rejected)

    def test_nfev_counts_calls_that_leave_the_domain(self):
        calls = [0]

        def f(t, y):
            calls[0] += 1
            if y[0] > 1.0:
                raise DomainError("beyond the wall")
            return (1.0,)

        sol = integrate.integrate_adaptive(f, 0.0, [0.0], 10.0)
        assert sol.status == integrate.DOMAIN_EXIT
        assert sol.rejected > 0
        assert sol.nfev == calls[0]


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
