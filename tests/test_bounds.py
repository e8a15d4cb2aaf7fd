import csv
import dataclasses
import math
import re
import warnings

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
from starphase.models import SystemModel

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
    walk, then scipy's brentq with the tolerance ROOT_XTOL x_max
    (ROOT_XTOL for ``nonrel``), so the oracle does not share the solver
    under test."""
    def f(x):
        return sp.H(m, x) - level

    a, b = rootfind.expand_bracket(f, m.z, m.x_end)
    if a == b:
        return a
    scale = m.x_max if math.isfinite(m.x_max) else 1.0
    return scipy_brentq(f, a, b, xtol=rootfind.ROOT_XTOL * scale)


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
        m = models["stiff"]
        with pytest.raises(sp.DomainError,
                           match=re.escape(f"(sup H ~ {m.H(m.x_end)})")):
            sp.invert_H(m, 1e6)

    @pytest.mark.parametrize("scale", [5.6e-309, 6e-309, 1e-308])
    def test_overflowing_H_is_named(self, scale):
        # H overflows to NaN near x_max ~ 1e308; brentq's NaN message
        # named neither the overflow nor x_max
        m = sp.model("scaled", scale=scale)
        with pytest.raises(sp.DomainError, match=re.escape(
                f"H overflows near x_max = {m.x_max:g}: ")):
            sp.invert_H(m, sp.excess_E(m))

    def test_brentq_budget_is_not_unreachable(self, models):
        # the level is reached at x_max / 1.44; brentq's steps f dx fell
        # below the smallest normal double and its budget ran out, until
        # the objective was scaled by 2^k ~ 1/x_max
        s, stiff = 1e300, models["stiff"]
        m = sp.model("scaled", scale=s)
        got = sp.invert_H(m, sp.excess_E(m))
        want = sp.invert_H(stiff, sp.excess_E(stiff))
        assert got * s == pytest.approx(want, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("e", [-3.0, 0.0, 3.0, 9.0, 12.0, 100.0, 159.0,
                                   200.0, 300.0])
    def test_root_of_a_member_is_stiff_root_over_scale(self, models, e):
        # the member (1, s) is stiff shrunk by 1/s, its levels with it;
        # the root tolerance ROOT_XTOL x_max shrinks along
        s = 10.0 ** e
        m, stiff = sp.model("scaled", scale=s), models["stiff"]
        # (near z, at small fractions, the root is ill-conditioned in the
        # level, which rounds apart between the two members)
        for frac in (0.05, 0.7, 1.0):
            got = sp.invert_H(m, frac * sp.excess_E(m))
            want = sp.invert_H(stiff, frac * sp.excess_E(stiff))
            assert got * s == pytest.approx(want, rel=4e-15, abs=0.0)


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

    @pytest.mark.parametrize("n", [2.5, 200.0, "200", None])
    def test_n_must_be_an_integer(self, models, n):
        # n = 2.5 passed the n < 1 test and failed later in np.linspace;
        # the predicate of a member of make_model samples nothing, so the
        # type is checked up front on every model
        for m in (models["stiff"], dataclasses.replace(models["stiff"])):
            with pytest.raises(TypeError):
                check_hypotheses(m, n)

    def test_integer_like_n_accepted(self, models):
        for m in (models["stiff"], dataclasses.replace(models["stiff"])):
            check_hypotheses(m, np.int64(3))
            with pytest.raises(ValueError, match="n must be at least 1"):
                check_hypotheses(m, np.int64(0))

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
    """``check_hypotheses`` samples r in closed form, and decides a member
    of ``make_model`` by its predicate; the check it replaced is the
    oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
    def test_presets(self, each_model, n):
        assert_matches_reference(each_model, n)

    @settings(max_examples=80, deadline=None)
    @given(m=drawn_models())
    def test_drawn_members(self, m):
        assert_matches_reference(m)

    def test_tiny_member_passes(self):
        # the guard is relative: 0.95 x_max lies below x_end at x_max =
        # 1e-12, where an absolute 1e-12 put the whole r sample beyond it
        m = sp.model("scaled", scale=1e12)
        check_hypotheses(m)
        check_hypotheses(dataclasses.replace(m))
        assert_matches_reference(m)

def log_uniform(lo, hi):
    """Floats log-uniform in [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0 ** e, lo), hi))


class TestBuiltInPredicate:
    """A member that ``make_model`` built is decided by an O(1) predicate;
    the sampled check of an unmarked copy is its oracle."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(m=st.one_of(
        log_uniform(3e-309, 1.0).map(lambda k: sp.model("kappa", kappa=k)),
        log_uniform(1e-300, 1e300).map(lambda s: sp.model("scaled", scale=s)),
        st.sampled_from(["nonrel", "stiff"]).map(sp.model)),
        n=st.sampled_from([1, 2, 200]))
    def test_predicate_equals_sampled_check(self, m, n):
        copy = dataclasses.replace(m)
        assert m.built_in and not copy.built_in
        assert (hypothesis_outcome(check_hypotheses, m, n)
                == hypothesis_outcome(check_hypotheses, copy, n))

    @pytest.mark.parametrize("family, kw", [
        ("scaled", {"scale": s})
        for s in (4.8e10, 6e10, 6.3e10, 3e11, 1e12, 1e300, 1e-300)] + [
        ("kappa", {"kappa": k}) for k in (3e-309, 1e-308, 1e-300, 1e-10)])
    def test_edge_members(self, family, kw):
        m = sp.model(family, **kw)
        assert (hypothesis_outcome(check_hypotheses, m, 200)
                == hypothesis_outcome(check_hypotheses,
                                      dataclasses.replace(m), 200))

    def test_marked_member_evaluates_no_array(self, each_model):
        ndims = []

        def recording(f):
            def wrapped(x):
                ndims.append(np.ndim(x))
                return f(x)
            return wrapped

        m = sp.make_model(each_model.spec)
        for name in ("a", "b", "r", "a_prime", "b_prime", "A", "B", "H"):
            object.__setattr__(m, name, recording(getattr(m, name)))
        check_hypotheses(m)
        assert all(d == 0 for d in ndims)
        check_hypotheses(dataclasses.replace(m))
        assert any(d == 1 for d in ndims)


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
        ("kappa", {"kappa": 1e-6}, "3.42e-06")])
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


class TestBatchedSweep:
    """``kappa_sweep`` computes each row by ``bound_X``; every row and
    every error equals the one-``bound_X``-per-row oracle."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 131),
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

    def test_each_row_is_one_bound_X(self, monkeypatch):
        # one bound path: every row is bound_X of a member of make_model
        calls = []
        original = bounds.bound_X

        def counting(m):
            calls.append((m.spec.kappa, m.built_in))
            return original(m)

        monkeypatch.setattr(bounds, "bound_X", counting)
        ks = [0.02 + (1.0 - 0.02) * i / 39 for i in range(40)]
        rows = kappa_sweep(ks)
        assert calls == [(k, True) for k in ks]
        monkeypatch.undo()
        assert hex_rows(rows) == hex_rows(reference_kappa_sweep(ks))

    def test_failing_row_keeps_its_witness(self, monkeypatch):
        # the rows run in order; the first failing one ends the sweep
        # with its error and witness, its message prefixed
        checked = []

        def scalar(m, n=200):
            checked.append(m.spec.kappa)
            if m.spec.kappa == 0.7:
                raise sp.HypothesisError("b < 0 at x = 0.5", point=(0.5,))

        monkeypatch.setattr(bounds, "check_hypotheses", scalar)
        ks = [0.1, 0.2] + [0.3] * 9 + [0.7, 0.8]
        with pytest.raises(sp.HypothesisError) as err:
            kappa_sweep(ks)
        assert checked == ks[:12]
        assert str(err.value) == "kappa = 0.7 (row 12 of 13): b < 0 at x = 0.5"
        assert err.value.point == (0.5,)

    def test_empty_grid(self):
        assert kappa_sweep([]) == []
