import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starphase as sp
from starphase.astro import (G_SI, SI, TableRow, mass_radius_table,
                            to_physical)
from starphase.trajectory import Trajectory


def make_traj(model, t, x, y):
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    V = np.asarray(sp.lyapunov_value(model, x, y))
    return Trajectory(model=model, t=t, x=x, y=y, V=np.atleast_1d(V),
                      max_x=float(x.max()), converged=True,
                      status="converged-radius", steps=len(t) - 1)


class TestToPhysical:
    def test_single_point_natural_units(self, models):
        # (x, y) = (1/2, 1/2) at r = 1: m = 1/4, rho = 1/(16 pi), p = rho
        traj = make_traj(models["stiff"], [0.0], [0.5], [0.5])
        prof = to_physical(traj, r_ref=1.0)
        assert prof.r[0] == 1.0
        assert prof.m[0] == 0.25
        assert prof.rho[0] == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-15)
        assert prof.p[0] == prof.rho[0]

    def test_kappa_equation_of_state(self, models):
        traj = make_traj(models["kappa"], [0.0], [0.3], [0.3])
        prof = to_physical(traj)
        np.testing.assert_allclose(prof.p, prof.rho / 3.0, rtol=1e-15)

    def test_compactness_round_trip(self, trajectories):
        traj = trajectories["stiff"]
        prof = to_physical(traj, r_ref=2.5)
        # x column reproduced exactly: 2 G m / (r c^2) = x
        np.testing.assert_array_equal(prof.compactness, traj.x)
        back = 2.0 * prof.m / prof.r
        np.testing.assert_allclose(back, traj.x, rtol=1e-13)

    def test_peak_compactness_equals_max_x(self, trajectories):
        traj = trajectories["stiff"]
        prof = to_physical(traj)
        assert float(prof.compactness.max()) == float(traj.x.max())
        # max_x refines the peak between samples, so it may exceed the
        # sampled column max by the O(h^2) sampling bias
        assert 0.0 <= traj.max_x - float(prof.compactness.max()) < 1e-4

    def test_sub_schwarzschild_everywhere(self, trajectories):
        for name in ("stiff", "kappa", "scaled"):
            prof = to_physical(trajectories[name])
            assert float(prof.compactness.max()) < 1.0

    @pytest.mark.parametrize("sigma", [0.5, 8.0 * math.pi])
    def test_scaled_state_is_stiff_state_times_sigma(self, models, sigma):
        # (sigma x, sigma y) of the scaled member solves the stiff system,
        # so both states describe the same star
        x, y = 0.3 / sigma, 0.4 / sigma
        scaled = to_physical(make_traj(sp.model("scaled", scale=sigma),
                                       [0.0], [x], [y]))
        stiff = to_physical(make_traj(models["stiff"], [0.0],
                                      [sigma * x], [sigma * y]))
        for col in ("compactness", "m", "rho", "p"):
            np.testing.assert_allclose(getattr(scaled, col),
                                       getattr(stiff, col), rtol=1e-15)

    @settings(max_examples=15, deadline=None)
    @given(e=st.floats(-3.0, 3.0))
    def test_scaled_compactness_below_one(self, e):
        # to_physical on scaled(0.5) read the bare x: compactness 1.087
        s = 10.0 ** e
        traj = sp.shoot_heteroclinic(sp.model("scaled", scale=s))
        prof = to_physical(traj)
        assert float(prof.compactness.max()) < 1.0
        np.testing.assert_allclose(2.0 * prof.m / prof.r, prof.compactness,
                                   rtol=1e-13)

    def test_mass_nondecreasing_density_nonnegative(self, trajectories):
        prof = to_physical(trajectories["stiff"])
        assert np.all(np.diff(prof.m) >= -1e-15)
        assert np.all(prof.rho >= 0.0)

    def test_final_sample_anchored_at_r_ref(self, trajectories):
        prof = to_physical(trajectories["kappa"], r_ref=3.0)
        assert prof.r[-1] == 3.0
        assert np.all(np.diff(prof.r) > 0.0)

    def test_samples_are_the_rows_of_the_columns(self, trajectories):
        prof = to_physical(trajectories["stiff"])
        rows = list(prof.samples)
        assert len(rows) == prof.r.size > 1
        assert rows == list(zip(prof.r, prof.m, prof.rho, prof.p))
        assert rows[-1][0] == prof.r_ref

    def test_si_mode_scales_dimensionful_columns_only(self, models):
        traj = make_traj(models["stiff"], [0.0], [0.5], [0.5])
        nat = to_physical(traj, units="natural")
        si = to_physical(traj, units="si", c=1.0)   # keep c = 1, vary G
        np.testing.assert_array_equal(si.compactness, nat.compactness)
        assert si.m[0] == pytest.approx(nat.m[0] / G_SI, rel=1e-15)

    def test_nonrelativistic_refused(self, models):
        traj = make_traj(models["nonrel"], [0.0], [2.0], [2.0])
        with pytest.raises(sp.DomainError, match="hydrostatic"):
            to_physical(traj)

    def test_bad_r_ref(self, trajectories):
        with pytest.raises(ValueError):
            to_physical(trajectories["stiff"], r_ref=0.0)

    @pytest.mark.parametrize("r_ref", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_ref(self, trajectories, r_ref):
        with pytest.raises(ValueError, match="r_ref must be positive and "
                                             "finite"):
            to_physical(trajectories["stiff"], r_ref=r_ref)

    @pytest.mark.parametrize("name", ["G", "c"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_si_constant(self, trajectories, name, value):
        # G = 0 divided by zero (a numpy warning, then inf), NaN gave NaN
        with pytest.raises(ValueError, match=f"{name} must be positive and "
                                             "finite"):
            to_physical(trajectories["stiff"], units=SI, **{name: value})

    @pytest.mark.parametrize("name", ["G", "c"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_natural_constant(self, trajectories, name, value):
        # natural units ignore G and c, but used to ignore a bad one too
        with pytest.raises(ValueError, match=f"{name} must be positive and "
                                             "finite"):
            to_physical(trajectories["stiff"], **{name: value})

    def test_bad_natural_pair_names_G(self, trajectories):
        with pytest.raises(ValueError, match="G must be positive and finite, "
                                             "got nan"):
            to_physical(trajectories["stiff"], units="natural", G=math.nan,
                        c=-1.0)

    def test_bad_units(self, trajectories):
        with pytest.raises(ValueError):
            to_physical(trajectories["stiff"], units="imperial")


@pytest.fixture(scope="module")
def table(trajectories):
    return mass_radius_table(stiff_trajectory=trajectories["stiff"])


class TestMassRadiusTable:
    def test_five_rows(self, table):
        assert len(table.rows) == 5

    def test_literature_rows_self_computed(self, table):
        buchdahl, bondi = table.rows[0], table.rows[1]
        assert buchdahl.provenance == "literature"
        assert buchdahl.expression == "8/9"
        assert round(buchdahl.value, 4) == 0.8889
        assert bondi.provenance == "literature"
        assert bondi.value == 12.0 * math.sqrt(2.0) - 16.0
        assert round(bondi.value, 4) == 0.9706

    def test_computed_rows_bit_identical_to_bounds(self, table, models,
                                                   trajectories):
        rep = sp.bound_X(models["stiff"])
        kc = sp.kappa_constants(1.0 / 3.0)
        assert table.rows[2].value == rep.X_closed
        assert table.rows[3].value == kc.X_printed
        assert table.rows[4].value == trajectories["stiff"].max_x

    def test_flags(self, table):
        assert table.rows[2].note == "< 0.7"
        assert table.rows[2].value < 0.7
        assert table.rows[3].note == "< 0.622"
        assert table.rows[3].value < 0.622

    def test_markdown(self, table):
        md = table.to_markdown()
        lines = md.splitlines()
        assert len(lines) == 2 + 5
        assert "0.8889" in md and "0.9706" in md
        assert "computed" in md and "literature" in md

    def test_json_dict(self, table):
        doc = table.to_dict()
        assert [r["provenance"] for r in doc["rows"]] == \
            ["literature", "literature", "computed", "computed", "computed"]

    def test_rejects_wrong_family_trajectory(self, trajectories):
        with pytest.raises(ValueError):
            mass_radius_table(stiff_trajectory=trajectories["kappa"])

    def test_row_is_plain_record(self):
        row = TableRow(label="x", expression="1", value=1.0,
                       provenance="literature")
        assert row.to_dict()["note"] == ""
