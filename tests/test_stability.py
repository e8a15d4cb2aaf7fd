import dataclasses
import math

import numpy as np
import pytest

import starphase as sp
from starphase import stability
from reference_models import reference_r_at_z

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)


class TestOrigin:
    def test_eigenpairs_exact(self, each_model):
        pairs, slope = sp.linearize_origin(each_model)
        (lam1, v1), (lam2, v2) = pairs
        assert lam1 == -1.0
        assert lam2 == each_model.a0
        assert list(v1) == [1.0, 0.0]
        assert list(v2) == [1.0, each_model.a0 + 1.0]

    def test_slope_three_for_all_families(self, each_model):
        # a(0) = 2 in every built-in family, so the unstable slope is 3
        _, slope = sp.linearize_origin(each_model)
        assert slope == pytest.approx(3.0, abs=1e-15)

    def test_eigenvectors_satisfy_linearised_system(self, each_model):
        # J0 = [[-1, 1], [0, a0]]
        a0 = each_model.a0
        J0 = np.array([[-1.0, 1.0], [0.0, a0]])
        pairs, _ = sp.linearize_origin(each_model)
        for lam, vec in pairs:
            np.testing.assert_allclose(J0 @ vec, lam * vec, atol=1e-14)


class TestInterior:
    def test_nonrel_jacobian(self, models):
        jac, _, _ = sp.linearize_interior(models["nonrel"])
        np.testing.assert_allclose(jac, [[-1.0, 1.0], [-2.0, 0.0]], atol=1e-14)

    def test_stiff_jacobian(self, models):
        jac, _, _ = sp.linearize_interior(models["stiff"])
        np.testing.assert_allclose(jac, [[-1.0, 1.0], [-3.0, -1.0]], atol=1e-13)

    def test_stiff_eigenvalues(self, models):
        _, (lp, lm), cls = sp.linearize_interior(models["stiff"])
        assert abs(lp - complex(-1.0, SQRT3)) < 1e-12
        assert abs(lm - complex(-1.0, -SQRT3)) < 1e-12
        assert cls == stability.STABLE_SPIRAL

    def test_nonrel_eigenvalues(self, models):
        _, (lp, lm), cls = sp.linearize_interior(models["nonrel"])
        assert abs(lp - complex(-0.5, SQRT7 / 2.0)) < 1e-12
        assert abs(lm - complex(-0.5, -SQRT7 / 2.0)) < 1e-12
        assert cls == stability.STABLE_SPIRAL

    def test_nonrel_discriminant_condition(self, models):
        # 4 z r(z) = 8 beats (1 - a(z))^2 = 1
        m = models["nonrel"]
        az = float(m.a(m.z))
        four_zr = 4.0 * m.z * (m.z * float(m.b_prime(m.z)) - float(m.a_prime(m.z)))
        assert four_zr == 8.0
        assert (1.0 - az) ** 2 == 1.0
        assert four_zr > (1.0 - az) ** 2

    def test_closed_formula_matches_eigensolver(self, each_model):
        jac, (lp, lm), _ = sp.linearize_interior(each_model)
        ev = sorted(np.linalg.eigvals(jac), key=lambda v: v.imag)
        closed = sorted([lp, lm], key=lambda v: v.imag)
        for got, want in zip(closed, ev):
            assert abs(got - want) < 1e-10

    def test_real_part_identity_in_complex_case(self, each_model):
        # Re(2 lambda) = -(1 + a(z)) whenever the discriminant is negative
        m = each_model
        rep = sp.stability_report(m)
        assert rep.discriminant < 0.0
        az = float(m.a(m.z))
        for lam in rep.interior_eigenvalues:
            assert 2.0 * lam.real == pytest.approx(-(1.0 + az), abs=1e-12)

    def test_all_families_stable_iff_az_above_minus_one(self, each_model):
        m = each_model
        _, _, cls = sp.linearize_interior(m)
        assert cls in (stability.STABLE_SPIRAL, stability.STABLE_NODE)
        assert float(m.a(m.z)) > -1.0

    def test_degenerate_constant_a_reduces_to_quadratic_roots(self):
        # b = 0, a' = 0 makes r vanish; under the equilibrium identity
        # z b(z) = a(z) the Jacobian is [[-1, 1], [-z r, -a]], so the
        # closed formula must give the roots of (lam + 1)(lam + a)
        for a in (-0.5, 0.25, 1.5):
            z, r = 0.7, 0.0
            disc = (1.0 - a) ** 2 - 4.0 * z * r
            lp = (-(1.0 + a) + math.sqrt(disc)) / 2.0
            lm = (-(1.0 + a) - math.sqrt(disc)) / 2.0
            ev = sorted(np.linalg.eigvals(
                np.array([[-1.0, 1.0], [-z * r, -a]])))
            assert sorted([lp, lm]) == pytest.approx(ev, abs=1e-13)

    def test_scaled_matches_stiff_eigenvalues(self, models):
        # rescaling x does not move the interior spectrum
        _, eig_sc, _ = sp.linearize_interior(models["scaled"])
        _, eig_st, _ = sp.linearize_interior(models["stiff"])
        for a, b in zip(eig_sc, eig_st):
            assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("az, zr, want", [
        (0.5, 0.05, stability.STABLE_NODE),
        (1.0, 3.0, stability.STABLE_SPIRAL),
        (-2.0, 0.5, stability.UNSTABLE),  # node
        (-2.0, 3.0, stability.UNSTABLE),  # spiral
    ])
    def test_classification_matches_eigensolver(self, models, az, zr, want):
        # hand-built a(z) and z r(z) reach the node and unstable verdicts,
        # which no member of the family does
        base = models["stiff"]
        m = dataclasses.replace(base, a=lambda x: az + 0.0 * x,
                                r=lambda x: zr / base.z + 0.0 * x)
        jac, _, cls = sp.linearize_interior(m)
        assert cls == want
        stable = bool(max(np.linalg.eigvals(jac).real) < 0.0)
        assert stable == (want != stability.UNSTABLE)

    @pytest.mark.parametrize("field", ["a", "r"])
    def test_non_finite_interior_is_refused(self, models, field):
        # an overflowing a(z) or z r(z) read "unstable" with NaN
        # eigenvalues
        m = dataclasses.replace(models["stiff"],
                                **{field: lambda x: math.inf + 0.0 * x})
        with pytest.raises(sp.DomainError, match="overflows"):
            sp.stability_report(m)
        if field == "r":
            with pytest.raises(sp.DomainError, match="r\\(z\\) overflows"):
                sp.equilibrium(m)


class TestJacobianFD:
    def test_matches_analytic_at_interior_point(self, each_model):
        m = each_model
        h = 1e-5 * (m.x_max if math.isfinite(m.x_max) else 1.0)
        fd = sp.jacobian_fd(m, m.z, m.z, h=h)
        jac, _, _ = sp.linearize_interior(m)
        np.testing.assert_allclose(fd, jac, atol=1e-6 * max(1.0, 1.0 / m.z))

    def test_first_row_linear(self, models):
        fd = sp.jacobian_fd(models["stiff"], 0.0, 1e-3)
        np.testing.assert_allclose(fd[0], [-1.0, 1.0], atol=1e-9)

    def test_nonrel_at_interior(self, models):
        fd = sp.jacobian_fd(models["nonrel"], 2.0, 2.0)
        np.testing.assert_allclose(fd, [[-1.0, 1.0], [-2.0, 0.0]], atol=1e-6)

    def test_rejects_stencil_across_pole(self, models):
        with pytest.raises(sp.DomainError):
            sp.jacobian_fd(models["stiff"], 1.0 - 1e-12, 0.5)

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_pole_test_is_relative(self, scale):
        # an absolute x + h >= x_max - 1e-9 refused every stencil of a
        # member with x_max at or below 1e-9
        m = sp.model("scaled", scale=scale)
        fd = sp.jacobian_fd(m, m.z, m.z, h=1e-5 * m.x_max)
        jac, _, _ = sp.linearize_interior(m)
        np.testing.assert_allclose(fd, jac, rtol=1e-6)
        with pytest.raises(sp.DomainError, match="crosses the pole"):
            sp.jacobian_fd(m, m.x_end - 5e-6 * m.x_max, m.z,
                           h=1e-5 * m.x_max)


class TestReport:
    def test_report_fields(self, models):
        rep = sp.stability_report(models["stiff"])
        assert rep.origin_classification == stability.SADDLE
        assert rep.unstable_slope == 3.0
        assert rep.discriminant == pytest.approx(-12.0, abs=1e-12)

    def test_json_round_trip(self, models):
        import json
        doc = sp.stability_report(models["kappa"]).to_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["origin"]["eigenvalues"] == [-1.0, 2.0]
        assert back["interior"]["classification"] == "stable spiral"

    def test_evaluates_a_and_r_once(self, each_model):
        # the report recomputed a(z) and the discriminant after
        # linearize_interior had computed them; the interior point reads
        # the closed forms a and r, and no derivative
        calls = {"a": 0, "r": 0, "a_prime": 0, "b_prime": 0}

        def counting(name):
            f = getattr(each_model, name)

            def wrapped(x):
                calls[name] += 1
                return f(x)
            return wrapped

        m = dataclasses.replace(each_model, **{k: counting(k) for k in calls})
        rep = sp.stability_report(m)
        assert calls == {"a": 1, "r": 1, "a_prime": 0, "b_prime": 0}
        az, r = float(m.a(m.z)), float(m.r(m.z))
        assert rep.discriminant == (1.0 - az) ** 2 - 4.0 * (m.z * r)
        assert rep.discriminant == pytest.approx(
            (1.0 - az) ** 2 - 4.0 * m.z * reference_r_at_z(m), rel=1e-13)
        jac, eigs, cls = sp.linearize_interior(m)
        assert rep.interior_jacobian.tolist() == jac.tolist()
        assert rep.interior_eigenvalues == eigs
        assert rep.interior_classification == cls
        np.testing.assert_array_equal(stability.interior_jacobian(m), jac)
