import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starphase as sp
from starphase import models as models_mod
from starphase import rootfind
from starphase.models import VERIFY_TOL
from conftest import (SIGMA, count_root_solves, drawn_models, drawn_points,
                      random_domain_points, run_python)
from reference_models import (SINGULARITY_GUARD, oracle_verification,
                              reference_r_at_z)

# closed-form structural constants per family
CONSTANTS = {
    "nonrel": (2.0, 2.0, 2.0),
    "stiff": (0.5, 1.0 / 3.0, 2.0 / 3.0),
    "scaled": (1.0 / (2.0 * SIGMA), 1.0 / (3.0 * SIGMA), 2.0 / (3.0 * SIGMA)),
    "kappa": (3.0 / 7.0, 1.0 / 3.0, 0.5),
}


def sample_xs(m, n=100):
    hi = 0.95 * m.x_max if math.isfinite(m.x_max) else 4.0
    return np.linspace(0.0, hi, n)


class TestModelSpec:
    def test_kappa_required(self):
        with pytest.raises(ValueError):
            sp.ModelSpec(sp.Family.KAPPA_FAMILY)

    @pytest.mark.parametrize("kappa", [0.0, -0.2, 1.0000001, 5.0])
    def test_kappa_out_of_range(self, kappa):
        with pytest.raises(ValueError):
            sp.ModelSpec(sp.Family.KAPPA_FAMILY, kappa=kappa)

    @pytest.mark.parametrize("kappa", [2.7e-309, 1e-315, 5e-324])
    def test_kappa_whose_beta_overflows(self, kappa):
        # make_model built NaN constants here and numpy warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta .* overflows"):
                sp.model("kappa", kappa=kappa)

    def test_smallest_kappa_with_finite_beta_accepted(self):
        assert sp.ModelSpec("kappa", kappa=2.8e-309).kappa == 2.8e-309

    def test_kappa_only_for_kappa_family(self):
        with pytest.raises(ValueError):
            sp.ModelSpec(sp.Family.STIFF_RELATIVISTIC, kappa=0.5)

    def test_scale_only_for_scaled_family(self):
        with pytest.raises(ValueError, match="scale is only meaningful for "
                                             "the scaled family"):
            sp.ModelSpec("stiff", scale=2.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_scale_positive(self, scale):
        with pytest.raises(ValueError):
            sp.ModelSpec(sp.Family.SCALED_RELATIVISTIC, scale=scale)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_scale_finite(self, scale):
        with pytest.raises(ValueError, match="scale"):
            sp.model("scaled", scale=scale)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_kappa_finite(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            sp.model("kappa", kappa=kappa)

    @pytest.mark.parametrize("scale", [5.5e-309, 1e-310, 5e-324])
    def test_scale_whose_x_max_overflows(self, scale):
        # 1/scale overflowed: make_model warned in log1p and built a member
        # with z = inf and NaN primitives
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"scale = {scale!r} is too "
                               "small: x_max = 1 / scale overflows"):
                sp.model("scaled", scale=scale)

    def test_smallest_scale_with_finite_x_max_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sp.model("scaled", scale=5.6e-309).x_max < math.inf

    def test_default_scale_is_8pi(self):
        spec = sp.ModelSpec(sp.Family.SCALED_RELATIVISTIC)
        assert spec.scale == 8.0 * math.pi

    def test_family_from_string(self):
        assert sp.ModelSpec("stiff").family is sp.Family.STIFF_RELATIVISTIC

    @pytest.mark.parametrize("family,key,value", [
        ("kappa", "kappa", np.float64(0.25)),
        ("scaled", "scale", np.float32(2.5)),
        ("scaled", "scale", np.float64(1e200)), ("scaled", "scale", 3)])
    def test_parameters_are_stored_as_python_floats(self, family, key, value):
        spec = sp.ModelSpec(family, **{key: value})
        assert type(getattr(spec, key)) is float
        assert getattr(spec, key) == float(value)

    @pytest.mark.parametrize("family,key", [("kappa", "kappa"),
                                            ("scaled", "scale")])
    @pytest.mark.parametrize("value", ["0.5", 0.5j, [0.5]])
    def test_parameter_that_is_no_real_number_is_refused(self, family, key,
                                                         value):
        with pytest.raises(TypeError):
            sp.ModelSpec(family, **{key: value})

    def test_numpy_scale_runs_on_python_floats(self):
        # a numpy scale made every constant of the member a numpy scalar,
        # whose overflow inside brentq warned 14 times where Python floats
        # are silent
        proc = run_python(
            "import numpy as np, starphase as sp; "
            "m = sp.model('scaled', scale=np.float64(1e200)); "
            "print(sp.bound_X(m).X_numeric * 1e200)", "-W", "error")
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(
            sp.bound_X(sp.model("stiff")).X_numeric, rel=1e-15)

    def test_presets_are_relativistic_members(self):
        assert sp.ModelSpec("nonrel").ks is None
        assert sp.ModelSpec("stiff").ks == (1.0, 1.0)
        assert sp.ModelSpec("scaled", scale=2.5).ks == (1.0, 2.5)
        assert sp.ModelSpec("kappa", kappa=0.25).ks == (0.25, 1.0)


class TestFamilies:
    @pytest.mark.parametrize("name", list(CONSTANTS))
    def test_structural_constants(self, models, name):
        z, w, x0 = CONSTANTS[name]
        m = models[name]
        assert m.z == pytest.approx(z, abs=1e-15)
        assert m.w == pytest.approx(w, abs=1e-15)
        assert m.x0 == pytest.approx(x0, abs=1e-15)

    def test_nonrel_values(self, models):
        m = models["nonrel"]
        assert float(m.a(0.5)) == 1.5
        assert float(m.b(0.5)) == 0.0
        # A(x) = 2x - x^2/2 - 2 once shifted to A(2) = 0
        xs = sample_xs(m)
        np.testing.assert_allclose(m.A(xs), 2 * xs - xs ** 2 / 2 - 2,
                                   atol=1e-14)

    def test_stiff_values(self, models):
        m = models["stiff"]
        assert float(m.a(0.5)) == pytest.approx(1.0, abs=1e-15)
        assert float(m.b(0.5)) == pytest.approx(2.0, abs=1e-15)
        assert float(m.a_prime(0.5)) == pytest.approx(-4.0, abs=1e-14)
        assert float(m.b_prime(0.5)) == pytest.approx(4.0, abs=1e-14)

    def test_a0_is_two_for_all_families(self, each_model):
        assert each_model.a0 == pytest.approx(2.0, abs=1e-15)

    def test_primitives_vanish_at_z(self, each_model):
        assert float(each_model.A(each_model.z)) == 0.0
        assert float(each_model.B(each_model.z)) == 0.0

    def test_primitives_match_derivatives(self, each_model):
        # central difference of A reproduces a (and B' = b) to 1e-6
        m = each_model
        xs = sample_xs(m)[1:-1]
        h = 1e-6 * max(1.0, float(np.max(np.abs(xs))))
        dA = (np.asarray(m.A(xs + h)) - np.asarray(m.A(xs - h))) / (2 * h)
        dB = (np.asarray(m.B(xs + h)) - np.asarray(m.B(xs - h))) / (2 * h)
        np.testing.assert_allclose(dA, m.a(xs), rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(dB, m.b(xs), rtol=1e-6, atol=1e-6)

    def test_kappa_one_equals_stiff(self, models):
        m1, ms = models["kappa1"], models["stiff"]
        assert m1.z == pytest.approx(ms.z, abs=1e-12)
        assert m1.w == pytest.approx(ms.w, abs=1e-12)
        xs = np.linspace(0.0, 0.95, 100)
        for fn in ("a", "b", "A", "B"):
            np.testing.assert_allclose(getattr(m1, fn)(xs),
                                       getattr(ms, fn)(xs), atol=1e-12)

    @pytest.mark.parametrize("sigma", [8.0 * math.pi, 2.0, 17.5])
    def test_scaled_is_rescaled_stiff(self, sigma):
        msc = sp.model("scaled", scale=sigma)
        mst = sp.model("stiff")
        assert msc.z == pytest.approx(1.0 / (2.0 * sigma), rel=1e-14)
        assert msc.w == pytest.approx(1.0 / (3.0 * sigma), rel=1e-14)
        xs = np.linspace(0.0, 0.95 / sigma, 50)
        np.testing.assert_allclose(msc.a(xs), mst.a(sigma * xs), atol=1e-12)
        np.testing.assert_allclose(msc.b(xs), sigma * np.asarray(mst.b(sigma * xs)),
                                   rtol=1e-12)
        np.testing.assert_allclose(msc.B(xs), mst.B(sigma * xs), atol=1e-12)
        np.testing.assert_allclose(msc.A(xs),
                                   np.asarray(mst.A(sigma * xs)) / sigma,
                                   atol=1e-14)


    def test_z_takes_float_power(self):
        # for these kappa C pow((k + 1), 2) and (k + 1) * (k + 1) round
        # differently; z must take the power
        ks = [0.3795, 0.6658, 0.4437, 0.0204]
        assert all((k + 1.0) ** 2 != (k + 1.0) * (k + 1.0) for k in ks)
        for k in ks:
            assert sp.model("kappa", kappa=k).z == \
                4.0 * k / ((k + 1.0) ** 2 + 4.0 * k)

    def test_make_model_marks_its_members(self, models):
        # the mark is set by make_model only: dataclasses.replace does not
        # copy an init=False field, and no constructor argument sets it
        for m in models.values():
            assert m.built_in
            assert not dataclasses.replace(m).built_in
            assert not dataclasses.replace(m, w=m.w).built_in
        m = models["stiff"]
        with pytest.raises(ValueError):
            dataclasses.replace(m, built_in=True)
        fields = {f.name: getattr(m, f.name)
                  for f in dataclasses.fields(m) if f.init}
        assert not sp.SystemModel(**fields).built_in
        with pytest.raises(TypeError):
            sp.SystemModel(**fields, built_in=True)

    def test_coefficients_keep_float_type(self, models):
        for name, m in models.items():
            assert type(m.a(0.25 * m.z)) is float, name
            assert type(m.b(0.25 * m.z)) is float, name

    def test_level_map_keeps_float_type(self, models):
        # the shoot's arrival test compares m.H(x) on a float and returns
        # a plain bool
        for name, m in models.items():
            assert type(m.H(1.5 * m.z)) is float, name


class TestEvalField:
    def test_stationary_points(self, each_model):
        z = each_model.z
        dx, dy = sp.eval_field(each_model, z, z)
        assert dx == 0.0
        assert abs(dy) < 1e-15

    def test_nonrel_sample(self, models):
        dx, dy = sp.eval_field(models["nonrel"], 0.0, 1.0)
        assert (dx, dy) == (1.0, 2.0)

    def test_y_zero_gives_dy_zero(self, each_model):
        dx, dy = sp.eval_field(each_model, each_model.z / 2.0, 0.0)
        assert dy == 0.0

    def test_domain_errors(self, models):
        m = models["stiff"]
        with pytest.raises(sp.DomainError):
            sp.eval_field(m, -0.1, 1.0)
        with pytest.raises(sp.DomainError):
            sp.eval_field(m, 1.0, 1.0)
        with pytest.raises(sp.DomainError):
            sp.eval_field(m, 0.5, -1e-9)

    def test_vectorised(self, models):
        m = models["stiff"]
        xs = np.array([0.1, 0.5])
        ys = np.array([0.2, 0.5])
        dx, dy = sp.eval_field(m, xs, ys)
        assert dx.shape == (2,)
        assert dx[1] == 0.0


class TestFusedField:
    """``m.field`` fuses a and b into one expression but must return
    ``(y - x, a(x)*y - b(x)*y*y)`` bit for bit on floats inside the
    shoot's box 0 <= x < x_end, y >= 0, and raise ``DomainError`` outside
    it.  The oracle is ``eval_field``, which evaluates that expression
    from the coefficient callables, on scalars and arrays alike."""

    def test_bit_identical_on_random_domain_points(self, each_model):
        m = each_model
        xs, ys = random_domain_points(m, 200_000, seed=3)
        got = [m.field(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert all(type(dy) is float for _, dy in got)
        want = np.stack(sp.eval_field(m, xs, ys), axis=1)
        assert same_bits(np.array(got), want)
        edge = [(0.0, 0.0), (0.0, m.z), (m.z, m.z), (m.z, 0.0)]
        if math.isfinite(m.x_end):
            edge.append((math.nextafter(m.x_end, 0.0), m.z))
        for x, y in edge:
            assert same_bits(m.field(x, y), sp.eval_field(m, x, y)), (x, y)

    def test_domain_error_outside_the_box(self, each_model):
        m = each_model
        x_end = m.x_end
        outside = [(-5e-324, m.z), (-m.z, m.z), (m.z, -5e-324),
                   (m.z, -m.z), (math.nan, m.z), (math.inf, m.z),
                   (x_end, m.z), (-math.inf, m.z)]
        if math.isfinite(x_end):
            outside += [(m.x_max, m.z), (2.0 * m.x_max, 0.0),
                        (math.nextafter(x_end, math.inf), m.z)]
        for x, y in outside:
            with pytest.raises(sp.DomainError, match="admissible domain"):
                m.field(x, y)

    @settings(max_examples=200, deadline=None)
    @given(m=drawn_models(), data=st.data(),
           u=st.floats(0.0, 4.0))
    def test_bit_identical_on_drawn_members(self, m, data, u):
        x, y = data.draw(drawn_points(m)), u * m.z
        if x < m.x_end:
            assert same_bits(m.field(x, y), sp.eval_field(m, x, y))
        else:
            with pytest.raises(sp.DomainError):
                m.field(x, y)


class TestRoots:
    @pytest.mark.parametrize("name", list(CONSTANTS))
    def test_find_z_w_x0(self, models, name):
        m = models[name]
        z, w, x0 = CONSTANTS[name]
        assert sp.find_z(m) == pytest.approx(z, abs=1e-12)
        assert sp.find_w(m) == pytest.approx(w, abs=1e-12)
        assert sp.find_x0(m) == pytest.approx(x0, abs=1e-12)

    def test_ordering(self, each_model):
        eq = sp.equilibrium(each_model)
        m = each_model
        assert (m.a0 + 1.0) * eq.w > eq.z >= eq.w > 0.0 or eq.z == eq.w
        assert eq.r_at_z >= 0.0

    def test_nonrel_degenerate_w_equals_z(self, models):
        eq = sp.equilibrium(models["nonrel"])
        assert eq.w == eq.z == eq.x0 == 2.0

    def test_w_condition_residual(self, each_model):
        m = each_model
        w = sp.find_w(m)
        res = (m.a0 + 1.0) * w * float(m.b(w)) - float(m.a(w))
        assert abs(res) < 1e-10

    def test_bracket_search_never_probes_the_pole(self):
        probes = []

        def f(x):
            probes.append(x)
            return 1.0 / (1.0 - x)   # no sign change on (0.5, 1)

        with pytest.raises(sp.ConvergenceError):
            rootfind.expand_bracket(f, 0.5, 1.0)
        assert max(probes) < 1.0

    def test_z_condition_residual(self, each_model):
        m = each_model
        res = float(m.a(m.z)) - m.z * float(m.b(m.z))
        assert abs(res) < 1e-12


FINDERS = {"z": sp.find_z, "w": sp.find_w, "x0": sp.find_x0}


class TestSignTestVerification:
    """z, w and x0 are the closed forms, accepted by a sign change of
    their objective on v (1 -+ VERIFY_TOL); the old bracket walk plus
    Brent is the oracle (``reference_models.reference_verified``)."""

    @settings(max_examples=60, deadline=None)
    @given(m=drawn_models())
    def test_oracle_root_within_the_relative_band(self, m):
        with oracle_verification(m) as found:
            eq = sp.equilibrium(m)
        assert set(found) == ({"z", "x0"} if m.b_is_zero
                              else {"z", "w", "x0"})
        for name, (value, root) in found.items():
            assert abs(root - value) <= VERIFY_TOL * abs(value), name
        assert (eq.z, eq.w, eq.x0) == (m.z, m.w, m.x0)

    @settings(max_examples=60, deadline=None)
    @given(m=drawn_models())
    def test_accepts_each_closed_form(self, m):
        eq = sp.equilibrium(m)
        assert (eq.z, eq.w, eq.x0) == (m.z, m.w, m.x0)

    @settings(max_examples=60, deadline=None)
    @given(m=drawn_models(), name=st.sampled_from(list(FINDERS)),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_rejects_a_constant_four_band_widths_off(self, m, name, sign):
        if name == "w" and m.b_is_zero:
            return   # w = z without a check of its own
        v = getattr(m, name) * (1.0 + sign * 4.0 * VERIFY_TOL)
        bad = dataclasses.replace(m, **{name: v})
        with pytest.raises(sp.HypothesisError,
                           match=f"closed form {name}={v!r}"):
            FINDERS[name](bad)

    def test_ordering_violation_on_a_hand_built_model(self, models):
        # w passes its sign test, but z = 0.9 w lies below it
        base = models["stiff"]
        bad = dataclasses.replace(base, z=0.9 * base.w)
        for check in (sp.find_w, sp.bound_X):
            with pytest.raises(sp.HypothesisError,
                               match=r"ordering \(a0\+1\)w > z >= w > 0 "
                                     "violated") as err:
                check(bad)
            assert err.value.point == (base.w, 0.9 * base.w)

    def test_negative_r_at_z_on_a_hand_built_model(self, models):
        base = models["stiff"]
        bad = dataclasses.replace(base, r=lambda x: -base.r(x))
        with pytest.raises(sp.HypothesisError,
                           match=r"r\(z\) = -6.0 is negative") as err:
            sp.equilibrium(bad)
        assert err.value.point == (0.5, 0.5)

    def test_wrong_z_on_a_hand_built_model(self, models):
        bad = dataclasses.replace(models["stiff"], z=0.4)
        with pytest.raises(sp.HypothesisError, match="z=0.4"):
            sp.equilibrium(bad)
        with pytest.raises(sp.HypothesisError, match="z=0.4"):
            sp.bound_X(bad)

    @pytest.mark.parametrize("g", [
        lambda x: math.nan,
        lambda x: math.nan if x > 0.5 else 1.0,
        lambda x: math.nan if x < 0.5 else -1.0])
    def test_nan_objective_raises(self, g):
        with pytest.raises(sp.HypothesisError, match="no sign change"):
            models_mod._verified("z", 0.5, g)

    def test_band_and_its_ends(self):
        lo, hi = 0.5 * (1.0 - VERIFY_TOL), 0.5 * (1.0 + VERIFY_TOL)
        # a zero at either end is a sign change
        assert models_mod._verified("z", 0.5, lambda x: x - lo) == 0.5
        assert models_mod._verified("z", 0.5, lambda x: hi - x) == 0.5
        # a root just outside the band is not
        with pytest.raises(sp.HypothesisError) as err:
            models_mod._verified("z", 0.5, lambda x: x - 0.5 * (1 + 2e-9))
        assert f"[{lo!r}, {hi!r}]" in str(err.value)

    def test_equilibrium_makes_no_root_solve(self, each_model, monkeypatch):
        calls = count_root_solves(monkeypatch)
        sp.equilibrium(each_model)
        assert calls[0] == 0


class TestRFactor:
    def test_nonrel_identically_one(self, models):
        m = models["nonrel"]
        xs = np.linspace(0.0, 10.0, 200)
        np.testing.assert_allclose(sp.r_factor(m, xs), 1.0, atol=1e-12)
        # exactly at the removable singularity the limit is used
        assert sp.r_factor(m, 2.0) == 1.0

    def test_stiff_at_z(self, models):
        # removable singularity takes the limit z b'(z) - a'(z) = 6
        assert sp.r_factor(models["stiff"], 0.5) == pytest.approx(6.0, abs=1e-14)

    def test_limit_continuous_with_neighbours(self, each_model):
        m = each_model
        eps = 2.0 * SINGULARITY_GUARD
        near = sp.r_factor(m, m.z + eps)
        at = sp.r_factor(m, m.z)
        assert abs(near - at) < 1e-4 * max(1.0, abs(at))

    def test_structural_identity(self, each_model):
        # z b(x) - a(x) + r(x) (z - x) = 0 to 1e-10 relative
        m = each_model
        xs = sample_xs(m, 500)
        lhs = m.z * np.asarray(m.b(xs)) - np.asarray(m.a(xs))
        resid = lhs + np.asarray(sp.r_factor(m, xs)) * (m.z - xs)
        scale = 1.0 + np.abs(lhs)
        assert float(np.max(np.abs(resid) / scale)) < 1e-10

    def test_domain_error(self, models):
        with pytest.raises(sp.DomainError):
            sp.r_factor(models["stiff"], 1.5)


@settings(max_examples=150, deadline=None)
@given(kappa=st.floats(0.02, 1.0), u=st.floats(0.0, 0.98))
def test_structural_identity_property(kappa, u):
    m = sp.model("kappa", kappa=kappa)
    x = u * 0.97 * m.x_max
    lhs = m.z * float(m.b(x)) - float(m.a(x))
    resid = lhs + float(sp.r_factor(m, x)) * (m.z - x)
    assert abs(resid) < 1e-10 * (1.0 + abs(lhs))


def same_bits(got, want) -> bool:
    """Equal shape and equal float64 bytes: NaN payloads and the sign of
    zero included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLevelMap:
    """``m.H`` takes log1p once but must equal z*B(x) - A(x) bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(m=drawn_models(), data=st.data())
    def test_float_bit_identical(self, m, data):
        x = data.draw(drawn_points(m))
        assert same_bits(m.H(x), m.z * m.B(x) - m.A(x))

    @settings(max_examples=100, deadline=None)
    @given(m=drawn_models(), data=st.data())
    def test_array_bit_identical(self, m, data):
        xs = np.array([m.z] + data.draw(st.lists(drawn_points(m),
                                                 min_size=0, max_size=60)))
        assert same_bits(m.H(xs), m.z * m.B(xs) - m.A(xs))

    @settings(max_examples=200, deadline=None)
    @given(e=st.floats(-12.0, 0.0),
           fracs=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          min_size=1, max_size=20))
    def test_float_equals_array_and_column(self, e, fracs):
        # a Python float takes H's float path, an array the numpy path
        k = 10.0 ** e
        m = sp.model("kappa", kappa=k)
        top = m.x_end
        xs = [min(m.z + f * (top - m.z), math.nextafter(top, 0.0))
              for f in fracs]
        got = [m.H(x) for x in xs]
        assert all(type(h) is float for h in got)
        assert [h.hex() for h in got] == \
            [h.hex() for h in m.H(np.array(xs)).tolist()]

    def test_positive_zero_at_z(self, each_model):
        for x in (each_model.z, np.array([each_model.z])):
            h = np.asarray(each_model.H(x))
            assert same_bits(h, np.zeros_like(h))


#: members of the accuracy check near z: one far narrower than the
#: others (z = 5e-4), the stiff star and a soft equation of state
MP_MEMBERS = {"scaled(1e3)": ("scaled", {"scale": 1e3}),
              "stiff": ("stiff", {}),
              "kappa(0.02)": ("kappa", {"kappa": 0.02})}


def mp_quotient(m, x):
    """(z b(x) - a(x)) / (x - z) at 50 digits, from the member's (k, s)
    with its exact stationary abscissa z, so the removable singularity
    cancels exactly."""
    k, s = m.spec.ks
    with mpmath.workdps(50):
        k, s, x = mpmath.mpf(k), mpmath.mpf(s), mpmath.mpf(x)
        beta, gamma = (1 + k) / (2 * k), (1 + k) / 2
        z = 4 * k / ((k + 1) ** 2 + 4 * k) / s
        a = (2 - (2 + beta) * s * x) / (1 - s * x)
        b = gamma * s / (1 - s * x)
        return (z * b - a) / (x - z)


class TestRAccuracyNearZ:
    """r and dV/dt against the 50-digit quotient at z +- 9e-8 (inside the
    old absolute SINGULARITY_GUARD band) and z +- 1e-3 x_max (1e-3 on
    the unit-width members; the narrow member's domain is only 1e-3
    wide)."""

    @pytest.mark.parametrize("name", list(MP_MEMBERS))
    @pytest.mark.parametrize("offset", [-9e-8, 9e-8, -1e-3, 1e-3])
    def test_r_and_derivative(self, name, offset):
        family, kw = MP_MEMBERS[name]
        m = sp.model(family, **kw)
        x = m.z + (offset * m.x_max if abs(offset) == 1e-3 else offset)
        want = mp_quotient(m, x)
        for got in (m.r(x), sp.r_factor(m, x)):
            assert abs(got / want - 1) < 1e-13
        # y = z leaves only the r term; the squares use the model's z
        dv = sp.lyapunov_derivative(m, x, m.z)
        with mpmath.workdps(50):
            dv_want = -want * (mpmath.mpf(m.z) - mpmath.mpf(x)) ** 2
        assert abs(dv / dv_want - 1) < 1e-13

    @pytest.mark.parametrize("name", list(MP_MEMBERS))
    def test_r_at_z_is_the_closed_form_limit(self, models, name):
        family, kw = MP_MEMBERS[name]
        for m in (sp.model(family, **kw), *models.values()):
            assert reference_r_at_z(m) == pytest.approx(m.r(m.z),
                                                        rel=1e-13)
