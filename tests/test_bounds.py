import csv
import dataclasses
import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import starphase as sp
from starphase import bounds, lyapunov, rootfind
from starphase.bounds import (STIFF_LAMBERT_ARG, check_hypotheses,
                              closed_form_X, kappa_sweep, sweep_to_csv)
from starphase.models import DOMAIN_GUARD, ModelSpec, SystemModel

from conftest import count_root_solves, drawn_models
from reference_models import (reference_check_hypotheses,
                              reference_kappa_sweep)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)

# frozen oracle values (50-digit mpmath evaluation of the defining
# expressions; the published decimal renderings are coarser)
X_NONREL = 3.8988288088523308          # 2 + 2 sqrt(2 - log 3)
X_STIFF = 0.6934159639728907           # 1 + W0(-2^(1/3) e^(-4/3)) / 2
W_STIFF = -0.6131680720542186
X_KAPPA3_TRUE = 0.6391177014889554     # H inversion of the actual model
X_KAPPA3_PRINTED = 0.6211700518129574  # published corollary formulas
E_KAPPA3 = 0.2083009169769127


def bisect_level(m, level, lo, hi, iters=200):
    """Bisection oracle for H(x) = level, independent of invert_H."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if sp.H(m, mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_invert_H(m, level):
    """``invert_H``'s solve on the checked objective H(m, x) - level that
    it replaced, kept as the bit-for-bit oracle: the package's bracket
    walk, then scipy's brentq, so the oracle does not share the solver
    under test."""
    def f(x):
        return sp.H(m, x) - level

    a, b = rootfind.expand_bracket(f, m.z, m.x_max - DOMAIN_GUARD)
    if a == b:
        return a
    return scipy_brentq(f, a, b, xtol=rootfind.ROOT_XTOL)


def mesh_slope_check(m, n):
    """The isocline slope condition a' - b' y < 0 tested on the full
    n x n mesh of [w, z] x [z, (a0+1) w], as ``check_hypotheses`` did
    before it took only the two end ordinates; the oracle."""
    w = m.w
    xr = np.linspace(w, m.z, n)[:, None]
    yr = np.linspace(m.z, (m.a0 + 1.0) * w, n)
    slope_cond = np.asarray(m.a_prime(xr), dtype=float) \
        - np.asarray(m.b_prime(xr), dtype=float) * yr
    if np.any(slope_cond >= 0.0):
        i, j = np.unravel_index(int(np.argmax(slope_cond)), slope_cond.shape)
        raise sp.HypothesisError(
            f"a' - b' y < 0 fails at ({xr[i, 0]}, {yr[j]})",
            point=(float(xr[i, 0]), float(yr[j])))


def hypothesis_outcome(check, m, n):
    """None when ``check(m, n)`` passes, else its error type, message and
    witness."""
    try:
        check(m, n)
    except (sp.HypothesisError, sp.DomainError) as exc:
        return type(exc), str(exc), getattr(exc, "point", None)
    return None


def assert_matches_reference(m, n=200):
    """``check_hypotheses`` and its oracle agree on pass or fail, on the
    error type and message, and on the witness point."""
    assert (hypothesis_outcome(check_hypotheses, m, n)
            == hypothesis_outcome(reference_check_hypotheses, m, n))


def slope_cases(base):
    """Name -> the a' and/or b' of a hand-built stiff model whose isocline
    slope condition fails."""
    y_mid = 0.5 * (base.z + (base.a0 + 1.0) * base.w)
    x_mid = 0.5 * (base.w + base.z)

    def arr(x):
        return np.asarray(x, dtype=float)

    return {
        # a' - b' y rises with y: fails at the top ordinate
        "b_prime_flipped": dict(
            b_prime=lambda x: -10.0 / np.square(1.0 - arr(x))),
        # falls with y: fails at the bottom ordinate
        "a_prime_positive": dict(a_prime=lambda x: 10.0 + 0.0 * arr(x)),
        # changes sign inside the y range
        "fails_below_mid_y": dict(
            a_prime=lambda x: base.b_prime(arr(x)) * y_mid),
        # fails only at abscissae right of the middle
        "fails_right_of_mid_x": dict(a_prime=lambda x: np.where(
            arr(x) > x_mid, 1e3, base.a_prime(arr(x)))),
        # nan never compares >= 0; argmax picks the first nan
        "nan_rows": dict(a_prime=lambda x: np.where(
            arr(x) > x_mid, np.nan, 10.0)),
        # a' - b' y = 0 everywhere: every node ties
        "all_ties": dict(a_prime=lambda x: 0.0 * arr(x),
                         b_prime=lambda x: 0.0 * arr(x)),
    }


def negative_b_model(base):
    """``base`` with b = -1 and b' = 0: the b sign check fails."""
    return SystemModel(
        spec=base.spec, a=base.a, b=lambda x: -np.ones_like(
            np.asarray(x, dtype=float)),
        a_prime=base.a_prime, b_prime=lambda x: np.zeros_like(
            np.asarray(x, dtype=float)),
        A=base.A, B=base.B, r=base.r, H=base.H,
        field=base.field, x_max=base.x_max,
        a0=base.a0, z=base.z, w=base.w, x0=base.x0)


def x_max_at_z_model(base):
    """``base`` with its domain cut at z."""
    return SystemModel(
        spec=base.spec, a=base.a, b=base.b, a_prime=base.a_prime,
        b_prime=base.b_prime, A=base.A, B=base.B, r=base.r, H=base.H,
        field=base.field, x_max=base.z, a0=base.a0, z=base.z, w=base.w,
        x0=base.x0)


def hand_built_models(base):
    """Name -> every hand-built model of this module, built on ``base``."""
    out = {name: with_slopes(base, **kw)
           for name, kw in slope_cases(base).items()}
    out["negative_b"] = negative_b_model(base)
    out["x_max_at_z"] = x_max_at_z_model(base)
    # the w objective is nan at the upper end of the sign-test band
    out["b_nan_right_of_w"] = dataclasses.replace(base, b=lambda x: np.where(
        np.asarray(x, dtype=float) > base.w, np.nan, base.b(x)))
    # w is off its objective's root on either side, or above z
    out["w_too_low"] = dataclasses.replace(base, w=0.99 * base.w)
    out["w_too_high"] = dataclasses.replace(base, w=1.01 * base.w)
    out["z_below_w"] = dataclasses.replace(base, z=0.9 * base.w)
    out["a0_zero"] = dataclasses.replace(base, a0=0.0)
    return out


def stacked(members):
    """``members`` as one stack for ``bounds._hypotheses_hold``: columns
    of a0, z, w and x_max, and callables that evaluate member i on row i
    of their samples."""
    def column(name):
        return np.array([[getattr(m, name)] for m in members], dtype=float)

    def rowwise(name):
        def f(x):
            x = np.broadcast_to(x, (len(members), np.shape(x)[-1]))
            return np.stack([
                np.broadcast_to(np.asarray(getattr(m, name)(row),
                                           dtype=float), row.shape)
                for m, row in zip(members, x)])
        return f

    return SimpleNamespace(
        **{name: column(name) for name in ("a0", "z", "w", "x_max")},
        **{name: rowwise(name)
           for name in ("a", "b", "r", "a_prime", "b_prime")})


def hex_rows(rows):
    """Every value of every sweep row as ``float.hex``."""
    return [{key: float.hex(v) for key, v in row.items()} for row in rows]


def oracle_sweep_outcome(ks):
    """The rows of ``reference_kappa_sweep(ks)`` as ``hex_rows``, or the
    type, message and witness of its first failing row, the message
    prefixed as ``kappa_sweep`` prefixes it."""
    rows = []
    for i, k in enumerate(ks, 1):
        try:
            rows += reference_kappa_sweep([k])
        except (sp.StarphaseError, ValueError) as exc:
            return (type(exc), f"kappa = {k!r} (row {i} of {len(ks)}): {exc}",
                    getattr(exc, "point", None))
    return hex_rows(rows)


def sweep_outcome(ks):
    """``oracle_sweep_outcome`` of ``kappa_sweep``."""
    try:
        return hex_rows(kappa_sweep(ks))
    except (sp.StarphaseError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "point", None)


def with_slopes(base, a_prime=None, b_prime=None):
    """``base`` with a' and/or b' replaced; only the slope condition of
    ``check_hypotheses`` reads them."""
    return SystemModel(
        spec=base.spec, a=base.a, b=base.b,
        a_prime=a_prime or base.a_prime, b_prime=b_prime or base.b_prime,
        A=base.A, B=base.B, r=base.r, H=base.H,
        field=base.field, x_max=base.x_max,
        a0=base.a0, z=base.z, w=base.w, x0=base.x0,
        b_is_zero=base.b_is_zero)


class TestExcess:
    def test_stiff(self, models):
        assert sp.excess_E(models["stiff"]) == pytest.approx(
            0.5 - 0.5 * LOG2, abs=1e-15)

    def test_nonrel(self, models):
        assert sp.excess_E(models["nonrel"]) == pytest.approx(
            4.0 - 2.0 * LOG3, abs=1e-15)

    def test_kappa3(self, models):
        assert sp.excess_E(models["kappa"]) == pytest.approx(E_KAPPA3,
                                                             abs=1e-14)

    def test_vanishes_at_coincidence(self):
        # s - z - z log(s/z) at s = z is exactly zero
        z = 0.73
        s = z
        assert s - z - z * math.log(s / z) == 0.0

    def test_positive_for_all_families(self, each_model):
        assert sp.excess_E(each_model) > 0.0


class TestInvertH:
    def test_level_zero_returns_z(self, each_model):
        assert sp.invert_H(each_model, 0.0) == each_model.z

    def test_nonrel_closed_form_level(self, models):
        got = sp.invert_H(models["nonrel"], 4.0 - 2.0 * LOG3)
        assert got == pytest.approx(X_NONREL, abs=1e-10)

    def test_stiff_level_against_bisection(self, models):
        m = models["stiff"]
        E = sp.excess_E(m)
        got = sp.invert_H(m, E)
        ref = bisect_level(m, E, m.z, 1.0 - 1e-9)
        assert got == pytest.approx(ref, abs=1e-12)
        assert got == pytest.approx(X_STIFF, abs=1e-12)

    def test_round_trip(self, each_model):
        # deep levels sit close to the pole where H' is huge, so the
        # level residual is limited by x-space resolution, not by the
        # root finder; 1e-8 relative covers that conditioning
        m = each_model
        for level in (1e-6, 0.05, 0.7):
            x = sp.invert_H(m, level * (1.0 + m.z))
            assert sp.H(m, x) == pytest.approx(level * (1.0 + m.z),
                                               rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("frac", [0.0, 1e-6, 0.05, 0.7, 1.0])
    def test_bit_identical_to_checked_objective(self, each_model, frac):
        m = each_model
        level = frac * sp.excess_E(m)
        assert sp.invert_H(m, level) == reference_invert_H(m, level)

    @settings(max_examples=60, deadline=None)
    @given(e=st.floats(-3.0, 3.0), frac=st.floats(0.0, 1.0))
    def test_scaled_bit_identical_to_checked_objective(self, e, frac):
        m = sp.model("scaled", scale=10.0 ** e)
        level = frac * sp.excess_E(m)
        assert sp.invert_H(m, level) == reference_invert_H(m, level)

    @settings(max_examples=60, deadline=None)
    @given(e=st.floats(-3.0, 0.0), frac=st.floats(0.0, 1.0))
    def test_kappa_bit_identical_to_checked_objective(self, e, frac):
        m = sp.model("kappa", kappa=10.0 ** e)
        level = frac * sp.excess_E(m)
        assert sp.invert_H(m, level) == reference_invert_H(m, level)

    def test_bound_makes_no_H_calls(self, each_model, monkeypatch):
        calls = [0]
        original = lyapunov.H

        def counting(m, x):
            calls[0] += 1
            return original(m, x)

        # bounds reads m.H only; it does not import lyapunov's H
        assert not hasattr(bounds, "H")
        for module in (lyapunov, sp):
            monkeypatch.setattr(module, "H", counting)
        rep = sp.bound_X(each_model)
        assert calls[0] == 0
        assert rep.X_numeric == reference_invert_H(each_model, rep.E)

    def test_z_outside_domain_rejected(self, models):
        # H's domain check, made once at the left bracket end
        bad = x_max_at_z_model(models["stiff"])
        with pytest.raises(sp.DomainError, match="x outside"):
            sp.invert_H(bad, 0.1)
        assert_matches_reference(bad)

    def test_nan_level_rejected(self, models):
        # it passed the sign check and failed inside brentq on a NaN value
        with pytest.raises(sp.DomainError, match="H level must be a number, "
                                                 "got nan"):
            sp.invert_H(models["stiff"], math.nan)

    def test_negative_level_rejected(self, models):
        with pytest.raises(sp.DomainError):
            sp.invert_H(models["stiff"], -0.1)

    def test_unreachable_level_reports_supremum(self, models):
        # H grows only logarithmically toward the pole; demand a level
        # beyond what is attainable left of the domain guard
        with pytest.raises(sp.DomainError, match="sup"):
            sp.invert_H(models["stiff"], 1e6)


class TestClosedForms:
    def test_stiff_lambert_argument(self):
        assert STIFF_LAMBERT_ARG == pytest.approx(-0.3321115830040504,
                                                  abs=1e-15)
        assert sp.lambert_w(STIFF_LAMBERT_ARG) == pytest.approx(W_STIFF,
                                                                abs=1e-13)

    def test_stiff(self, models):
        assert closed_form_X(models["stiff"]) == pytest.approx(X_STIFF,
                                                               abs=1e-13)

    def test_stiff_below_published_cap(self, models):
        assert closed_form_X(models["stiff"]) < 0.7

    def test_nonrel(self, models):
        assert closed_form_X(models["nonrel"]) == pytest.approx(X_NONREL,
                                                                abs=1e-13)

    def test_scaled_is_stiff_over_sigma(self, models):
        sigma = 8.0 * math.pi
        assert closed_form_X(models["scaled"]) == pytest.approx(
            X_STIFF / sigma, rel=1e-14)

    def test_kappa3_true_value(self, models):
        assert closed_form_X(models["kappa"]) == pytest.approx(
            X_KAPPA3_TRUE, abs=1e-12)

    def test_agreement_with_inversion(self, each_model):
        rep = sp.bound_X(each_model)
        assert rep.agreement <= 1e-9
        assert rep.X_numeric >= rep.z

    def test_only_root_solve_is_the_H_inversion(self, each_model,
                                                monkeypatch):
        solves, w_calls = count_root_solves(monkeypatch), [0]
        find_w = bounds.find_w

        def counting_find_w(m):
            w_calls[0] += 1
            return find_w(m)

        monkeypatch.setattr(bounds, "find_w", counting_find_w)
        sp.bound_X(each_model)
        assert w_calls[0] == 1
        # z and w are verified by a sign test; invert_H solves once
        assert solves[0] == 1

    def test_kappa_one_equals_stiff(self, models):
        x_k1 = closed_form_X(models["kappa1"])
        x_st = closed_form_X(models["stiff"])
        assert abs(x_k1 - x_st) < 1e-10


class TestKappaConstants:
    def test_kappa_one_reduces_to_stiff_constants(self):
        kc = sp.kappa_constants(1.0)
        assert kc.alpha == pytest.approx(2.0, abs=1e-14)
        assert kc.E == pytest.approx(0.5 - 0.5 * LOG2, abs=1e-14)
        assert kc.D == pytest.approx(1.5 - 1.5 * LOG2, abs=1e-14)
        assert kc.delta == pytest.approx(3.0, abs=1e-14)
        assert kc.s == pytest.approx(1.5, abs=1e-14)
        assert kc.X_printed == pytest.approx(X_STIFF, abs=1e-10)

    def test_kappa_one_lyapunov_display_constant(self):
        # C_1 = 2 - 4 log 2, the additive constant of the stiff display
        kc = sp.kappa_constants(1.0)
        assert kc.C == pytest.approx(2.0 - 4.0 * LOG2, abs=1e-14)

    def test_kappa_third_structural_values(self):
        kc = sp.kappa_constants(1.0 / 3.0)
        assert kc.z == pytest.approx(3.0 / 7.0, abs=1e-15)
        assert kc.w == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_kappa_third_prefactor_identity(self):
        # 1/alpha at kappa = 1/3 is exactly 25/42
        kc = sp.kappa_constants(1.0 / 3.0)
        assert abs(1.0 / kc.alpha - 25.0 / 42.0) < 1e-14

    def test_kappa_third_printed_bound(self):
        kc = sp.kappa_constants(1.0 / 3.0)
        assert kc.X_printed == pytest.approx(X_KAPPA3_PRINTED, abs=1e-12)
        assert kc.X_printed < 0.622

    def test_kappa_third_verbatim_display(self):
        # X = 1 + (25/42) W(-8 * 3^(41/50) * 7^(9/50) * e^(-6/5) / 25):
        # the standalone display equals the general printed formula
        arg = (-8.0 * 3.0 ** (41.0 / 50.0) * 7.0 ** (9.0 / 50.0)
               * math.exp(-6.0 / 5.0) / 25.0)
        x = 1.0 + 25.0 / 42.0 * sp.lambert_w(arg)
        kc = sp.kappa_constants(1.0 / 3.0)
        assert x == pytest.approx(kc.X_printed, abs=1e-13)

    def test_exponent_scale_vs_alpha_identity(self):
        # the published exponent scale times alpha gives the x slope
        # (1 + 5k)/(2k) for every kappa
        for k in (0.1, 0.33, 0.7, 1.0):
            kc = sp.kappa_constants(k)
            assert kc.alpha * kc.s == pytest.approx((1 + 5 * k) / (2 * k),
                                                    rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 1.0))
    def test_delta_identity(self, k):
        kc = sp.kappa_constants(k)
        assert 8.0 * k * k * kc.delta == pytest.approx(
            (5 * k + 1) * (k + 1) ** 2, rel=1e-12)

    def test_printed_excess_matches_model_excess(self):
        # the long published E display agrees with the defining formula
        for k in np.linspace(0.05, 1.0, 20):
            kc = sp.kappa_constants(float(k))
            m = sp.model("kappa", kappa=float(k))
            assert abs(kc.E - sp.excess_E(m)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-12.0, 0.0))
    def test_display_constant_finite_at_small_kappa(self, e):
        # (1 - z)**delta underflowed to 0 below kappa ~ 6e-4 and the
        # logarithm of the product raised
        kc = sp.kappa_constants(10.0 ** e)
        assert math.isfinite(kc.C) and kc.C < 0.0

    def test_display_constant_matches_high_precision(self):
        for k in (1e-6, 1e-3, 1.0 / 3.0):
            K = mpmath.mpf(k)
            z = 4 * K / (4 * K + (1 + K) ** 2)
            delta = (5 * K + 1) * (1 + K) ** 2 / (8 * K * K)
            C = (3 + 1 / K) * z + 2 * z * (mpmath.log(z)
                                           + delta * mpmath.log1p(-z))
            assert sp.kappa_constants(k).C == pytest.approx(float(C),
                                                            rel=1e-10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sp.kappa_constants(0.0)
        with pytest.raises(ValueError):
            sp.kappa_constants(1.2)

    @pytest.mark.parametrize("k", [2.5e-155, 1e-162, 1e-170, 1e-200,
                                   5e-324])
    def test_underflow_below_kappa_2_6e_155(self, k):
        # 8 kappa^2 underflows: delta overflowed to inf (C = -inf), and
        # below about 1e-162 the division by 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match="8 kappa\\^2 .* underflows"):
            sp.kappa_constants(k)

    def test_smallest_finite_delta_kept(self):
        kc = sp.kappa_constants(3e-155)
        assert kc.delta == (5 * 3e-155 + 1.0) * (1.0 + 3e-155) ** 2 \
            / (8.0 * 3e-155 * 3e-155)
        assert all(math.isfinite(v) for v in kc.to_dict().values())

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-12.0, 0.0))
    def test_lambert_constants_are_the_published_fields(self, e):
        # one coding of alpha, s and D: the helper's values are the
        # fields of kappa_constants, and the sweep's columns, bit for bit
        k = 10.0 ** e
        kc = sp.kappa_constants(k)
        z, alpha, s, D = bounds._lambert_constants(k)
        assert [float.hex(v) for v in (z, alpha, s, D)] == \
            [float.hex(v) for v in (kc.z, kc.alpha, kc.s, kc.D)]
        if k >= 1e-4:
            row, = kappa_sweep([k])
            assert (float.hex(row["alpha"]), float.hex(row["D"])) == \
                (float.hex(kc.alpha), float.hex(kc.D))

    def test_printed_corollary_disagrees_with_primitives_off_kappa_one(self):
        # documented misprint: the published H log-coefficient is
        # (1+k)(4k+(1+k)^3)/(2k(4k+(1+k)^2)) but integrating the model's
        # own b gives (1+5k)(1+k)^2/(2k(4k+(1+k)^2)); they agree only at
        # k = 1, so away from it the printed bound is not the H
        # inversion.  The H-inversion value is authoritative.
        kc = sp.kappa_constants(1.0 / 3.0)
        m = sp.model("kappa", kappa=1.0 / 3.0)
        rep = sp.bound_X(m)
        assert rep.X_numeric == pytest.approx(X_KAPPA3_TRUE, abs=1e-10)
        assert 0.015 < rep.X_numeric - kc.X_printed < 0.020
        # the model's own Lyapunov display exponent confirms the true
        # coefficient: z * delta equals P (1 - z)
        P = (1 + 5.0 / 3.0) / (2.0 / 3.0)
        assert kc.z * kc.delta == pytest.approx(P * (1 - kc.z), rel=1e-13)


class TestHypotheses:
    def test_all_families_pass(self, each_model):
        check_hypotheses(each_model)

    def test_negative_b_detected(self, models):
        bad = negative_b_model(models["stiff"])
        with pytest.raises(sp.HypothesisError):
            check_hypotheses(bad)
        assert_matches_reference(bad)

    def test_violation_point_reported(self, models):
        # flip the sign of b' so the isocline slope condition
        # a' - b' y < 0 fails on the rectangle, with a named witness
        base = models["stiff"]
        bad = hand_built_models(base)["b_prime_flipped"]
        with pytest.raises(sp.HypothesisError, match="a' - b' y") as err:
            check_hypotheses(bad)
        assert_matches_reference(bad)
        assert err.value.point is not None
        x, y = err.value.point
        assert base.w <= x <= base.z
        assert base.z <= y <= 3.0 * base.w


    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, models, n):
        # n = 0 divided by zero; n = -3 passed on empty samples
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            check_hypotheses(models["stiff"], n)

    def test_no_warning_where_r_overflows(self):
        # c = (2 + beta) s is near the float maximum, so r = c/(1 - s x)
        # overflows to +inf on the sample (a pass), once with a numpy
        # RuntimeWarning
        m = sp.model("kappa", kappa=1e-308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_hypotheses(m)
        assert m.r(0.95) == math.inf


class TestHypothesesMatchReference:
    """``check_hypotheses`` samples r in closed form and builds its grids
    without ``np.linspace``; the check it replaced is the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
    def test_presets(self, each_model, n):
        assert_matches_reference(each_model, n)

    @settings(max_examples=80, deadline=None)
    @given(m=drawn_models())
    def test_drawn_members(self, m):
        assert_matches_reference(m)

    def test_tiny_member_domain_error(self):
        # x_max = 1e-12 puts the whole r sample beyond x_max - DOMAIN_GUARD
        m = sp.model("scaled", scale=1e12)
        with pytest.raises(sp.DomainError):
            check_hypotheses(m)
        assert_matches_reference(m)

    @settings(max_examples=200, deadline=None)
    @given(start=st.floats(-1e3, 1e3), stop=st.floats(-1e3, 1e3),
           num=st.integers(1, 900))
    def test_grid_is_linspace(self, start, stop, num):
        got = bounds._linspace(start, stop, num)
        assert got.tobytes() == np.linspace(start, stop, num).tobytes()

    @pytest.mark.parametrize("start, stop", [
        (0.0, 5e-324), (1.0, 1.0), (0.0, 0.0), (2.0, 1.0),
        (0.0, math.inf), (math.nan, 1.0)])
    @pytest.mark.parametrize("num", [1, 2, 7])
    def test_grid_edge_cases_are_linspace(self, start, stop, num):
        with np.errstate(invalid="ignore"):
            got = bounds._linspace(start, stop, num)
            want = np.linspace(start, stop, num)
        assert got.tobytes() == want.tobytes()


class TestTwoOrdinateSlopeCheck:
    """``check_hypotheses`` tests a' - b' y only at y = z and
    y = (a0+1) w; it must agree with the full mesh, witness included."""

    @pytest.mark.parametrize("n", [2, 3, 50, 200])
    def test_presets_pass_like_the_mesh(self, each_model, n):
        assert hypothesis_outcome(check_hypotheses, each_model, n) is None
        assert hypothesis_outcome(mesh_slope_check, each_model, n) is None

    @pytest.mark.parametrize("n", [2, 3, 50, 200])
    @pytest.mark.parametrize("case", [
        "b_prime_flipped", "a_prime_positive", "fails_below_mid_y",
        "fails_right_of_mid_x", "nan_rows", "all_ties"])
    def test_failing_models_match_the_mesh(self, models, n, case):
        bad = hand_built_models(models["stiff"])[case]
        want = hypothesis_outcome(mesh_slope_check, bad, n)
        assert want is not None
        assert hypothesis_outcome(check_hypotheses, bad, n) == want
        assert_matches_reference(bad, n)


class TestSmallKappa:
    """Known small-kappa defect (ROADMAP item 2); the xfail is strict, so
    the test fails once the defect is mended and the mark must go.
    Until then ``bound_X`` refuses the disagreement."""

    @pytest.mark.xfail(strict=True, raises=sp.ConvergenceError, reason=(
        "closed_form_X cancels near the Lambert branch point: -exp(-1 - t) "
        "loses t = E/Q ~ 7e-16, so bound_X raises"))
    def test_kappa_1e8_closed_form_agrees(self):
        rep = sp.bound_X(sp.model("kappa", kappa=1e-8))
        assert rep.agreement <= bounds.CLOSED_FORM_TOL * rep.X_numeric

    @pytest.mark.parametrize("family, kw, gap", [
        ("kappa", {"kappa": 1e-10}, "0.487"),
        ("kappa", {"kappa": 1e-6}, "3.42e-06"),
        ("scaled", {"scale": 1e9}, "7.17e-07")])
    def test_relative_disagreement_raises(self, family, kw, gap):
        with pytest.raises(sp.ConvergenceError) as err:
            sp.bound_X(sp.model(family, **kw))
        msg = str(err.value)
        assert "CLOSED_FORM_TOL" in msg and f"by {gap} relative" in msg

    @settings(max_examples=40, deadline=None)
    @given(m=drawn_models())
    def test_bench_and_test_ranges_agree(self, m):
        rep = sp.bound_X(m)
        assert rep.agreement <= bounds.CLOSED_FORM_TOL * rep.X_numeric


class TestSweep:
    def test_sweep_shape_and_bounds(self):
        ks = np.linspace(0.05, 1.0, 20)
        rows = kappa_sweep(ks)
        xs = np.array([r["X_numeric"] for r in rows])
        zs = np.array([r["z"] for r in rows])
        assert np.all(np.isfinite(xs))
        assert np.all(xs >= zs)
        # recorded trend: X(kappa) rises steeply, crests near kappa 0.83
        # and eases off by well under 1% toward kappa = 1 (not globally
        # monotone)
        peak = int(np.argmax(xs))
        assert 0.7 < ks[peak] < 0.95
        assert np.all(np.diff(xs[:peak + 1]) > 0.0)
        assert np.all(np.diff(xs[peak:]) < 0.0)
        assert xs[peak] - xs[-1] < 0.005

    def test_sweep_closed_matches_numeric(self):
        for row in kappa_sweep([0.1, 0.5, 0.9]):
            assert abs(row["X_closed"] - row["X_numeric"]) < 1e-9

    def test_csv_export(self, tmp_path):
        rows = kappa_sweep([0.25, 0.75])
        path = tmp_path / "sweep.csv"
        sweep_to_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kappa,z,w,alpha,D,E,X_closed,X_numeric"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.25

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        rows = kappa_sweep([0.25, 0.75])
        rows.append(dict.fromkeys(bounds.SWEEP_FIELDS, -0.0))
        rows[-1].update(kappa=math.nan, z=math.inf, w=-math.inf, D=5e-324,
                        E=1e300, X_closed=1 / 3)
        path, want = tmp_path / "sweep.csv", tmp_path / "want.csv"
        sweep_to_csv(rows, path)
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(bounds.SWEEP_FIELDS)
            for row in rows:
                writer.writerow([repr(float(row[f]))
                                 for f in bounds.SWEEP_FIELDS])
        assert path.read_bytes() == want.read_bytes()


class TestRowLinspace:
    """``_row_linspace`` builds the rows of the batched grids; row i must
    equal ``_linspace`` on the ends of row i bit for bit."""

    @staticmethod
    def assert_rows_equal(starts, stops, num):
        with np.errstate(all="ignore"):
            got = bounds._row_linspace(np.array(starts)[:, None],
                                       np.array(stops)[:, None], num)
            want = [bounds._linspace(a, b, num)
                    for a, b in zip(starts, stops)]
        assert got.shape == (len(starts), num)
        for row, w in zip(got, want):
            assert row.tobytes() == w.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(ends=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                         min_size=1, max_size=8),
           num=st.integers(1, 900))
    def test_rows_are_linspace(self, ends, num):
        self.assert_rows_equal(*zip(*ends), num)

    @pytest.mark.parametrize("num", [1, 2, 7, 800])
    def test_subnormal_step_rows_among_normal_rows(self, num):
        # the step of the first two rows underflows to zero, so those
        # rows divide first; the others multiply
        self.assert_rows_equal(
            [0.0, 1.0, 0.0, 2.0, 0.0, math.nan, 0.0],
            [5e-324, 1.0, 1.0, 1.0, math.inf, 1.0, 1e-300], num)

    def test_float_ends_give_one_row(self):
        got = bounds._row_linspace(0.0, 0.95, 800)
        assert got.tobytes() == bounds._linspace(0.0, 0.95, 800).tobytes()


def finite_members():
    """``drawn_models`` without ``nonrel``: the batch needs a finite
    x_max."""
    return drawn_models().filter(lambda m: math.isfinite(m.x_max))


class TestBatchedHypotheses:
    """``_hypotheses_hold`` gives the verdict of ``check_hypotheses`` for
    each member of a stack; a failing member is re-checked one by one."""

    @settings(max_examples=60, deadline=None)
    @given(members=st.lists(st.one_of(
        finite_members(),
        # x_max = 1e-12: the r sample leaves the domain
        st.just(sp.model("scaled", scale=1e12)),
        st.sampled_from(sorted(hand_built_models(sp.model("stiff"))))),
        min_size=1, max_size=bounds.SWEEP_CHUNK),
        n=st.sampled_from([1, 2, 3, 200]))
    def test_mixed_batch_matches_scalar_verdicts(self, members, n):
        bad = hand_built_models(sp.model("stiff"))
        members = [bad[m] if isinstance(m, str) else m for m in members]
        with np.errstate(all="ignore"):
            want = [hypothesis_outcome(check_hypotheses, m, n)
                    for m in members]
            got = bounds._hypotheses_hold(stacked(members), n)
            assert got.tolist() == [w is None for w in want]
            # the first failing member: re-checked alone, it raises what
            # the oracle raises, witness included
            failing = [m for m, ok in zip(members, got) if not ok]
            if failing:
                assert hypothesis_outcome(check_hypotheses, failing[0], n) \
                    == hypothesis_outcome(reference_check_hypotheses,
                                          failing[0], n) is not None

    def test_kappa_column_rows_pass(self):
        col = np.geomspace(1e-4, 1.0, 8)[:, None]
        p = sp.models.relativistic(col, 1.0)
        assert bounds._hypotheses_hold(p).tolist() == [True] * 8

    def test_column_z_takes_float_power(self):
        # for these kappa C pow((k + 1), 2) and (k + 1) * (k + 1) round
        # differently; the column z must be the float z
        ks = [0.3795, 0.6658, 0.4437, 0.0204]
        assert all((k + 1.0) ** 2 != (k + 1.0) * (k + 1.0) for k in ks)
        p = sp.models.relativistic(np.array(ks)[:, None], 1.0)
        assert p.z.ravel().tolist() == [sp.model("kappa", kappa=k).z
                                        for k in ks]

    @settings(max_examples=100, deadline=None)
    @given(ks=st.lists(st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
                       min_size=1, max_size=8),
           e_scale=st.floats(-3.0, 3.0))
    def test_relativistic_rows_equal_make_model(self, ks, e_scale):
        # the constants of a column of members are those of each member,
        # bit for bit, and their callables agree on every row
        s = 10.0 ** e_scale
        p = sp.models.relativistic(np.array(ks)[:, None], s)
        xs = np.linspace(0.0, 0.9 / s, 50)
        for i, k in enumerate(ks):
            q = sp.models.relativistic(k, s)
            for name in ("beta", "gamma", "P", "c", "gs", "x_max", "z", "w",
                         "x0", "a0"):
                assert float.hex(float(np.broadcast_to(
                    getattr(p, name), (len(ks), 1))[i, 0])) \
                    == float.hex(getattr(q, name)), name
            for name in ("a", "b", "r", "a_prime", "b_prime"):
                assert getattr(p, name)(xs)[i].tobytes() \
                    == getattr(q, name)(xs).tobytes(), name


class TestBatchedSweep:
    """``kappa_sweep`` checks hypotheses in chunks; every row and every
    error equals the one-``bound_X``-per-row oracle."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 2 * bounds.SWEEP_CHUNK + 3),
           ea=st.floats(-4.0, 0.0),
           eb=st.floats(-4.0, 0.0),
           order=st.sampled_from(["ascending", "descending", "constant"]))
    def test_rows_equal_the_oracle(self, n, ea, eb, order):
        lo, hi = sorted([10.0 ** ea, 10.0 ** eb])
        if order == "descending":
            lo, hi = hi, lo
        elif order == "constant":
            hi = lo
        ks = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        assert sweep_outcome(ks) == oracle_sweep_outcome(ks)

    @pytest.mark.parametrize("ks", [
        [0.5, 1e-6, 0.7], [1e-10], [0.3, 0.0, 1e-6], [0.2, 1.5],
        [0.1] * 9 + [math.nan]])
    def test_errors_equal_the_oracle(self, ks):
        got = sweep_outcome(ks)
        assert not isinstance(got, list)
        assert got == oracle_sweep_outcome(ks)

    def test_error_names_its_row(self):
        with pytest.raises(sp.ConvergenceError) as err:
            kappa_sweep([0.5, 0.6, 1e-6])
        assert str(err.value).startswith(
            "kappa = 1e-06 (row 3 of 3): closed form X = ")

    def test_passing_sweep_checks_in_batches(self, monkeypatch):
        # a passing row takes its bound from the batch's columns: it
        # builds no ModelSpec or SystemModel
        calls = {"scalar": 0, "batch": 0, "spec": 0, "model": 0}
        scalar, batch = bounds.check_hypotheses, bounds._hypotheses_hold
        post_init, init = ModelSpec.__post_init__, SystemModel.__init__

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(bounds, "check_hypotheses",
                            counting("scalar", scalar))
        monkeypatch.setattr(bounds, "_hypotheses_hold",
                            counting("batch", batch))
        monkeypatch.setattr(ModelSpec, "__post_init__",
                            counting("spec", post_init))
        monkeypatch.setattr(SystemModel, "__init__", counting("model", init))
        # one batch for the longest bench sweep; three, the last of 3
        # rows, just past two full chunks
        for n in (40, 2 * bounds.SWEEP_CHUNK + 3):
            ks = [0.02 + (1.0 - 0.02) * i / (n - 1) for i in range(n)]
            want = hex_rows(reference_kappa_sweep(ks))
            assert calls["model"] >= n  # the oracle builds one per row
            calls.update(scalar=0, batch=0, spec=0, model=0)
            assert hex_rows(kappa_sweep(ks)) == want
            assert calls == {"scalar": 0,
                             "batch": math.ceil(n / bounds.SWEEP_CHUNK),
                             "spec": 0, "model": 0}, n

    def test_failing_rows_rechecked_in_order(self, monkeypatch):
        # the batch fails rows 2 and 12; the scalar check passes row 2
        # and raises on row 12 with a witness, which the sweep keeps
        checked = []

        def batch(p, n=200):
            k = p.beta.ravel()
            return ~np.isin(k, [sp.models.relativistic(0.2, 1.0).beta,
                                sp.models.relativistic(0.7, 1.0).beta])

        def scalar(m, n=200):
            checked.append(m.spec.kappa)
            if m.spec.kappa == 0.7:
                raise sp.HypothesisError("b < 0 at x = 0.5", point=(0.5,))

        monkeypatch.setattr(bounds, "_hypotheses_hold", batch)
        monkeypatch.setattr(bounds, "check_hypotheses", scalar)
        ks = [0.1, 0.2] + [0.3] * 9 + [0.7, 0.8]
        with pytest.raises(sp.HypothesisError) as err:
            kappa_sweep(ks)
        assert checked == [0.2, 0.7]
        assert str(err.value) == "kappa = 0.7 (row 12 of 13): b < 0 at x = 0.5"
        assert err.value.point == (0.5,)

    def test_empty_grid(self):
        assert kappa_sweep([]) == []
