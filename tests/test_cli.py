import contextlib
import errno
import hashlib
import io
import json
import math
import os
import pathlib
import runpy
import shlex
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings

import starphase as sp
from starphase import cli, lyapunov

from conftest import wide_scales

#: 1 + W0(-2^(1/3) e^(-4/3)) / 2, the stiff bound (tests/test_bounds.py)
X_STIFF = 0.6934159639728907


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_strict(*argv):
    """``run`` with every warning raised as an error, for Hypothesis
    tests (which cannot take the function-scoped ``capsys``)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_finite_portrait(path):
    """Every number in a portrait file is finite: ``repr`` and ``%.2f``
    write a non-finite float as nan or inf."""
    text = path.read_text()
    assert "nan" not in text and "inf" not in text


def strict_json(text):
    """``json.loads`` that refuses Infinity and NaN, which RFC 8259 JSON
    does not allow."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


#: stiff points (x, y) of the scale law of V, shrunk by 1/s for (1, s)
LAW_POINTS = ((0.55, 0.6), (0.7, 0.4), (0.9, 0.2))

#: below this scale the level map H overflows in P x at x = 0.9/s
H_FLOOR = 3.0 * 0.9 / sys.float_info.max

#: the largest scale that ``ModelSpec`` accepts (c = 3 scale is finite)
MAX_SCALE = 5.992310449541052e307


def assert_level_map_law(s):
    """lyapunov.H and lyapunov_value of (1, s) at LAW_POINTS / s are
    stiff's over s; near z they cancel to about 5e-14."""
    m, stiff = sp.model("scaled", scale=s), sp.model("stiff")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in LAW_POINTS:
            assert lyapunov.H(m, x / s) * s == pytest.approx(
                lyapunov.H(stiff, x), rel=1e-12, abs=0.0)
            assert sp.lyapunov_value(m, x / s, y / s) * s == pytest.approx(
                sp.lyapunov_value(stiff, x, y), rel=1e-12, abs=0.0)


class TestAnalyze:
    def test_nonrel_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--model", "nonrel")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["stability"]["origin"]["eigenvalues"] == [-1.0, 2.0]
        assert doc["stability"]["origin"]["unstable_slope"] == 3.0
        assert doc["equilibrium"]["z"] == 2.0

    def test_json_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "--model", "stiff",
                           "--json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["equilibrium"]["w"] == pytest.approx(1.0 / 3.0)

    def test_nan_scale_exit_3(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "scaled",
                           "--scale", "nan")
        assert code == 3
        assert "scale" in err

    def test_kappa_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "--model", "kappa",
                           "--kappa", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["equilibrium"]["z"] == pytest.approx(2.0 / 4.25)

    def test_tiny_kappa(self, capsys):
        # z < 1e-9 here: the closed forms pass their relative sign test
        for kappa in ("1e-10", "1e-12"):
            code, out, _ = run(capsys, "analyze", "--model", "kappa",
                               "--kappa", kappa)
            assert code == 0, kappa
            eq = json.loads(out)["equilibrium"]
            m = sp.model("kappa", kappa=float(kappa))
            assert (eq["z"], eq["w"], eq["x0"]) == (m.z, m.w, m.x0)

    @settings(max_examples=150, deadline=None)
    @given(s=wide_scales())
    def test_scale_law_at_any_scale(self, s):
        # the member (1, s) is stiff shrunk by 1/s: its lengths scale by
        # 1/s, r(z) by s, V by 1/s, and its spectrum not at all; b' = s^2
        # under- or overflowed, so 1e-200 read Im lambda = sqrt(2) and
        # 1e160 an "unstable" point with NaN eigenvalues
        code, out, err = run_strict("analyze", "--model", "scaled",
                                    "--scale", repr(s))
        if code != 0:
            assert code == 3 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            return
        doc = strict_json(out)
        want = strict_json(run_strict("analyze", "--model", "stiff")[1])
        assert doc["stability"]["origin"] == want["stability"]["origin"]
        got, ref = doc["stability"]["interior"], want["stability"]["interior"]
        assert got["classification"] == ref["classification"]
        eq, eq_ref = doc["equilibrium"], want["equilibrium"]
        pairs = [(eq[k] * s, eq_ref[k]) for k in ("z", "w", "x0")]
        pairs.append((eq["r_at_z"] / s, eq_ref["r_at_z"]))
        pairs.append((got["discriminant"], ref["discriminant"]))
        pairs += [(lam[k], lam_ref[k]) for lam, lam_ref in zip(
            got["eigenvalues"], ref["eigenvalues"]) for k in ("re", "im")]
        for value, stiff in pairs:
            assert value == pytest.approx(stiff, rel=1e-15, abs=0.0)
        for row, row_ref in zip(got["jacobian"], ref["jacobian"]):
            assert row == pytest.approx(row_ref, rel=0.0, abs=1e-15)
        if s >= H_FLOOR:
            assert_level_map_law(s)

    @pytest.mark.xfail(raises=RuntimeWarning, reason="H overflows in P x")
    @pytest.mark.parametrize("s", [1e-308, 1.4e-308])
    def test_level_map_law_below_its_floor(self, s):
        # stiff's H and V over s are finite at these points, but the
        # level map forms P x = 2.7/s at x = 0.9/s, which overflows
        assert s < H_FLOOR
        assert_level_map_law(s)

    @pytest.mark.parametrize("scale", ["5.992310449541053e307", "1e308",
                                       "1.7976931348623157e308"])
    def test_scale_whose_c_overflows_exit_3(self, capsys, scale):
        # the z sign test failed on c x = -inf ("objective has no sign
        # change ... (values -inf, -inf)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", "--model", "scaled",
                                 "--scale", scale)
        assert code == 3 and out == ""
        assert err == (f"error: scale = {float(scale)!r} is too large: "
                       "c = 3 scale overflows\n")


class TestBound:
    def test_stiff(self, capsys):
        code, out, _ = run(capsys, "bound", "--model", "stiff")
        assert code == 0
        doc = json.loads(out)
        assert doc["X_numeric"] == pytest.approx(0.6934159639728907,
                                                 abs=1e-12)
        assert doc["agreement"] <= 1e-9

    @pytest.mark.parametrize("scale", sorted(
        {repr(10.0 ** (-3.0 + 0.5 * i)) for i in range(31)}
        | {"6e10", "3e11"}, key=float), ids=lambda s: f"{float(s):.3g}")
    def test_scaled_bound_is_stiff_over_scale(self, capsys, scale):
        # the member (1, s) is stiff shrunk by 1/s; with an absolute guard
        # and root tolerance, 1e9 disagreed by 7.2e-7 (exit 4) and 6e10
        # up exited 3, 0.95 x_max lying beyond x_max - 1e-12
        code, out, _ = run(capsys, "bound", "--model", "scaled",
                           "--scale", scale)
        assert code == 0
        doc = json.loads(out)
        s = float(scale)
        for key in ("X_numeric", "X_closed"):
            assert doc[key] * s == pytest.approx(X_STIFF, rel=1e-15, abs=0.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(s=wide_scales())
    def test_scaled_bound_at_any_scale(self, s):
        # a bound that is stiff over s from the H floor up to the largest
        # accepted scale (it exited 4 from about 1e159, as Brent's steps
        # underflowed), else exit 3 with one error line
        code, out, err = run_strict("bound", "--model", "scaled",
                                    "--scale", repr(s))
        assert code in (0, 3)
        if H_FLOOR <= s <= MAX_SCALE:
            assert code == 0, err
        if code == 0:
            doc = json.loads(out)
            for key in ("X_numeric", "X_closed"):
                assert doc[key] * s == pytest.approx(X_STIFF, rel=1e-14,
                                                     abs=0.0)
        else:
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("scale", ["1e-310", "5e-324"])
    def test_scale_whose_x_max_overflows_exit_3(self, capsys, scale):
        # numpy warned in log1p, then the w sign test failed on z = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bound", "--model", "scaled",
                                 "--scale", scale)
        assert code == 3 and out == ""
        assert err == (f"error: scale = {float(scale)!r} is too small: "
                       "x_max = 1 / scale overflows\n")

    @pytest.mark.parametrize("kappa", ["1e-10", "1e-6"])
    def test_closed_form_disagreement_exit_4(self, capsys, kappa):
        code, out, err = run(capsys, "bound", "--model", "kappa",
                             "--kappa", kappa)
        assert code == 4
        assert out == ""
        assert "CLOSED_FORM_TOL" in err

    def test_small_kappa_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "bound", "--model", "kappa",
                           "--kappa", "1e-4")
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] <= 1e-9 * doc["X_numeric"]

    def test_kappa_out_of_range_exit_3(self, capsys):
        code, _, err = run(capsys, "bound", "--model", "kappa",
                           "--kappa", "1.5")
        assert code == 3
        assert "kappa" in err

    @pytest.mark.parametrize("command", ["analyze", "bound"])
    def test_kappa_whose_beta_overflows_exit_3(self, capsys, command):
        # NaN constants ended in "objective has no sign change" here, after
        # a numpy RuntimeWarning; as an error, a warning fails this test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--model", "kappa",
                                 "--kappa", "5e-324")
        assert (code, out) == (3, "")
        assert err == ("error: kappa = 5e-324 is too small: "
                       "beta = (1 + kappa) / (2 kappa) overflows\n")

    @pytest.mark.parametrize("argv", [["--kappa", "1e-308"],
                                      ["--sweep-kappa", "1e-308:1e-307:3"]])
    def test_kappa_whose_r_overflows_has_only_the_error(self, capsys, argv):
        # r = c/(1 - s x) of the hypotheses' r sample overflows to +inf
        # here, with a numpy RuntimeWarning on stderr before the error.
        # H's terms of order beta x ~ 1e308 x leave its values rounding
        # noise against E ~ 1e-308, so X is any point of that noise where
        # the solve ends (Brent ended at 4e-308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bound", "--model", "kappa", *argv)
        assert (code, out) == (4, "")
        prefix = "kappa = 1e-308 (row 1 of 3): " if "--sweep-kappa" in argv \
            else ""
        assert err == (f"error: {prefix}closed form X = 0.0 and H inversion "
                       "X = 5.6012380100610845e-15 differ by 1 relative, "
                       "above CLOSED_FORM_TOL = 1e-09\n")

    def test_sweep_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "bound", "--model", "kappa",
                         "--sweep-kappa", "0.2:1:5", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kappa,z,w,alpha,D,E,X_closed,X_numeric"
        assert len(lines) == 6

    def test_sweep_below_kappa_6e_4(self, capsys):
        # the published display constant C underflowed there (exit 3)
        code, out, _ = run(capsys, "bound", "--model", "kappa",
                           "--sweep-kappa", "1e-4:1e-3:3")
        assert code == 0
        assert [row["kappa"] for row in json.loads(out)["sweep"]] == \
            [1e-4, 0.00055, 1e-3]

    def test_bad_sweep_spec_exit_3(self, capsys):
        code, _, err = run(capsys, "bound", "--model", "kappa",
                           "--sweep-kappa", "nope")
        assert code == 3

    @pytest.mark.parametrize("spec", ["0.1:0.5:0", "0.1:0.5:-3",
                                      "0.1:0.5:1"])
    def test_sweep_below_two_points_exit_3(self, capsys, spec):
        code, out, err = run(capsys, "bound", "--model", "kappa",
                             "--sweep-kappa", spec)
        assert code == 3
        assert out == ""
        assert spec in err and "N >= 2" in err


    def test_sweep_csv_bytes_frozen(self, capsys, tmp_path):
        # SHA-256 of the CSV as written before the hypotheses of a sweep
        # were checked in batches, with the X_numeric of the Newton solve
        # (34 of its 40 rows moved by an ulp or a few from Brent's)
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "bound", "--model", "kappa",
                         "--sweep-kappa", "0.02:1:40", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9f056195faa6a23b756075df6c86fd6f0d087f4b5bc8deeabef3930357d88c07")

    def test_sweep_ends_exactly_at_b(self, capsys, tmp_path):
        # lo + (hi - lo) * 44/44 is 1.0000000000000002 for this spec
        path = tmp_path / "f.csv"
        code, _, err = run(capsys, "bound", "--model", "kappa",
                           "--sweep-kappa", "0.22053849081414173:1:45",
                           "--out", str(path))
        assert code == 0, err
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 45
        assert float(rows[0].split(",")[0]) == 0.22053849081414173
        assert rows[-1].split(",")[0] == "1.0"

    @pytest.mark.parametrize("spec", ["0.22053849081414173:1:45",
                                      "0.02:1:40", "0.9:0.1:7"])
    def test_sweep_grid_is_the_formula_with_b_last(self, spec):
        a, b, n = spec.split(":")
        lo, hi, n = float(a), float(b), int(n)
        assert cli._sweep_kappas(spec) == \
            [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]

    @pytest.mark.parametrize("spec", [
        "0:1:5", "-0.1:0.5:3", "0.1:1.5:3", "1.0000000000000002:0.5:3",
        "nan:0.5:3", "0.1:inf:3", "-inf:0.5:3", "0.1:nan:4"])
    def test_sweep_ends_outside_unit_interval_exit_3(self, capsys, tmp_path,
                                                     monkeypatch, spec):
        monkeypatch.setattr(cli, "kappa_sweep", None)  # never reached
        path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "bound", "--model", "kappa",
                             f"--sweep-kappa={spec}", "--out", str(path))
        assert code == 3
        assert out == "" and not path.exists()
        assert f"bad sweep spec {spec!r}: A and B must lie in (0, 1]" in err

    @pytest.mark.parametrize("n", [cli.MAX_SWEEP_ROWS + 1, 10 ** 9])
    def test_sweep_above_max_rows_exit_3(self, capsys, tmp_path, monkeypatch,
                                         n):
        monkeypatch.setattr(cli, "kappa_sweep", None)  # never reached
        path = tmp_path / "sweep.csv"
        spec = f"0.1:0.5:{n}"
        code, out, err = run(capsys, "bound", "--model", "kappa",
                             "--sweep-kappa", spec, "--out", str(path))
        assert code == 3
        assert out == "" and not path.exists()
        assert (f"bad sweep spec {spec!r}: N = {n} is above "
                f"MAX_SWEEP_ROWS = 100000") in err

    def test_sweep_error_names_its_row(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "bound", "--model", "kappa",
                             "--sweep-kappa", "1e-6:1e-3:5",
                             "--out", str(path))
        assert code == 4
        assert out == "" and not path.exists()
        assert err.startswith("error: kappa = 1e-06 (row 1 of 5): "
                              "closed form X = ")
        assert "CLOSED_FORM_TOL" in err

    def test_sweep_hypothesis_error_keeps_exit_3(self, capsys, monkeypatch):
        def failing(m, n=200):
            raise sp.HypothesisError("b < 0 at x = 0.5", point=(0.5,))

        monkeypatch.setattr(sp.bounds, "check_hypotheses", failing)
        code, _, err = run(capsys, "bound", "--model", "kappa",
                           "--sweep-kappa", "0.2:1:3")
        assert code == 3
        assert err == "error: kappa = 0.2 (row 1 of 3): b < 0 at x = 0.5\n"


class TestTrajectory:
    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, _, _ = run(capsys, "trajectory", "--model", "stiff",
                         "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y,V"
        assert len(lines) > 100

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "trajectory", "--model", "kappa", "--out", str(a))
        run(capsys, "trajectory", "--model", "kappa", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_summary(self, capsys, tmp_path):
        path = tmp_path / "orbit.json"
        code, _, _ = run(capsys, "trajectory", "--model", "stiff",
                         "--json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["converged"] is True
        assert 0.53 <= doc["max_x"] <= 0.57

    def test_launch_outside_trap_region_exit_3(self, capsys):
        code, _, err = run(capsys, "trajectory", "--model", "stiff",
                           "--eps", "0.6")
        assert code == 3
        assert "eps_start" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_max_time_exit_3(self, capsys, value):
        code, out, err = run(capsys, "trajectory", "--model", "stiff",
                             "--max-time", value)
        assert code == 3
        assert out == ""
        assert "max_time must be finite" in err

    # --rtol nan looped until killed; --rtol inf integrated to max_time
    @pytest.mark.parametrize("flag,name", [("--rtol", "--rtol"),
                                           ("--eps", "eps_start")])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_exit_3(self, capsys, flag, name, value):
        code, out, err = run(capsys, "trajectory", "--model", "stiff",
                             flag, value)
        assert code == 3
        assert out == ""
        assert f"{name} must be finite" in err

    def test_summary_json_is_stdout_json_without_samples(self, capsys,
                                                         tmp_path):
        csv_path, json_path = tmp_path / "orbit.csv", tmp_path / "orbit.json"
        code, _, _ = run(capsys, "trajectory", "--model", "kappa",
                         "--out", str(csv_path), "--json", str(json_path))
        assert code == 0
        code, out, _ = run(capsys, "trajectory", "--model", "kappa")
        assert code == 0
        full = json.loads(out)
        assert len(full.pop("samples")) == full["steps"] + 1
        assert json_path.read_text() == json.dumps(
            full, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("scale", ["1e-160", "1e-300"])
    def test_tiny_scale_ends_with_a_status(self, capsys, tmp_path, scale):
        # the arrival ball's squares overflow there; an overflow is no
        # arrival, not an uncaught OverflowError
        code, _, err = run(capsys, "trajectory", "--model", "scaled",
                           "--scale", scale, "--out",
                           str(tmp_path / "t.csv"))
        assert code in (3, 4)
        assert "shoot did not converge: status=" in err

    def test_max_time_below_the_step_floor_exit_4(self, capsys):
        # cut to max_time, the first h lay below the step floor 1e-14: the
        # run ended as domain_exit (exit 3) inside the domain
        code, out, err = run(capsys, "trajectory", "--model", "stiff",
                             "--max-time", "1e-300")
        doc = json.loads(out)
        assert code == 4
        assert doc["status"] == "max_time" and doc["steps"] == 1
        assert err == ("shoot did not converge: status=max_time, last "
                       f"state={tuple(doc['final_state'])}\n")

    def test_long_max_time_arrives(self, capsys):
        # the step floor 1e-14 max(1, max_time) exceeded the first step:
        # exit 3 with the launch point as the last state
        code, out, _ = run(capsys, "trajectory", "--model", "stiff",
                           "--max-time", "1e12")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "converged-lyapunov" and doc["steps"] == 534

    def test_nonconvergence_exit_4(self, capsys):
        code, _, err = run(capsys, "trajectory", "--model", "stiff",
                           "--max-time", "1.0")
        assert code == 4
        assert "did not converge" in err


class TestPortrait:
    @pytest.mark.parametrize("argv", [
        # the pixel map of the (z, z) marker overflowed: cx="inf"
        ["--model", "stiff", "--xrange", "0:5e-324", "--grid", "6,6",
         "--out", "p.svg"],
        ["--model", "nonrel", "--xrange", "0:5e-324", "--grid", "6,6",
         "--out", "p.svg"],
        # A overflowed in the nonrel level map, with a numpy warning
        ["--model", "nonrel", "--xrange", "0:1e300", "--out", "p.svg"],
        ["--model", "nonrel", "--xrange", "0:1e300", "--out", "p.csv"],
    ])
    def test_non_finite_output_exit_3(self, capsys, tmp_path, argv):
        argv[-1] = str(tmp_path / argv[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "portrait", *argv)
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "not finite" in lines[0]
        assert list(tmp_path.iterdir()) == []

    def test_zero_width_range_exit_3(self, capsys, tmp_path):
        # every row of the CSV repeated the one x
        path = tmp_path / "p.csv"
        code, out, err = run(capsys, "portrait", "--model", "stiff",
                             "--xrange", "0.2:0.2", "--grid", "6,6",
                             "--out", str(path))
        assert code == 3 and out == ""
        assert "x range 0.2:0.2 has zero width" in err
        assert not path.exists()

    def test_svg_box_error_comes_before_sampling(self, capsys, tmp_path):
        # it read "V overflows on this plot box"
        path = tmp_path / "p.svg"
        code, _, err = run(capsys, "portrait", "--model", "nonrel",
                           "--xrange", "1e300:1e300", "--out", str(path))
        assert code == 3
        assert "x1 > x0 and y1 > y0" in err and "overflows" not in err

    def test_negative_range_in_the_equals_form(self, capsys, tmp_path):
        # "--xrange -0.5:-0.1" reads -0.5:-0.1 as an option (exit 2)
        path = tmp_path / "p.csv"
        code, _, err = run(capsys, "portrait", "--model", "stiff",
                           "--xrange=-0.5:-0.1", "--grid", "3,3",
                           "--out", str(path))
        assert code == 0, err
        assert path.read_text().splitlines()[1].startswith("-0.5,")

    def test_subnormal_y_gives_finite_v(self, capsys, tmp_path):
        # y/z underflowed to 0 in V, which read inf at y = 5e-324
        path = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "portrait", "--model", "nonrel",
                               "--yrange", "5e-324:3", "--grid", "6,6",
                               "--out", str(path))
        assert code == 0 and err == ""
        rows = [line.split(",") for line in path.read_text().splitlines()]
        values = [float(v) for row in rows[1:] for v in row]
        assert len(values) == 36 * 6 and all(map(math.isfinite, values))
        m = sp.model("nonrel")
        for row in rows[1:]:
            x, y, v = float(row[0]), float(row[1]), float(row[4])
            want = float(m.H(x)) + y - m.z - m.z * (math.log(y)
                                                    - math.log(m.z))
            assert v == pytest.approx(want, rel=1e-14)
            if y == 5e-324:
                assert v > 1400.0

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "field.csv"
        code, _, _ = run(capsys, "portrait", "--model", "stiff",
                         "--grid", "24,20", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,dx,dy,V,valid"
        assert len(lines) == 1 + 24 * 20

    def test_svg(self, capsys, tmp_path):
        path = tmp_path / "field.svg"
        code, _, _ = run(capsys, "portrait", "--model", "scaled",
                         "--grid", "40,40", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text and "<line" in text

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "portrait", "--model", "stiff", "--grid", "30,30",
            "--out", str(a))
        run(capsys, "portrait", "--model", "stiff", "--grid", "30,30",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_ranges(self, capsys, tmp_path):
        path = tmp_path / "field.csv"
        code, _, _ = run(capsys, "portrait", "--model", "nonrel",
                         "--grid", "8,8", "--xrange", "0:4",
                         "--yrange", "0.1:6", "--out", str(path))
        assert code == 0
        first = path.read_text().splitlines()[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.1

    def test_bad_extension_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "portrait", "--model", "stiff",
                           "--grid", "8,8",
                           "--out", str(tmp_path / "field.txt"))
        assert code == 3

    def test_grid_without_a_comma_exit_3(self, capsys, tmp_path):
        path = tmp_path / "field.svg"
        code, out, err = run(capsys, "portrait", "--model", "stiff",
                             "--grid", "8", "--out", str(path))
        assert (code, out) == (3, "")
        assert err == "error: bad grid spec '8'; expected NX,NY\n"
        assert not path.exists()

    def test_nan_range_exit_3(self, capsys, tmp_path):
        path = tmp_path / "field.svg"
        code, _, err = run(capsys, "portrait", "--model", "stiff",
                           "--grid", "30,30", "--xrange", "nan:1",
                           "--out", str(path))
        assert code == 3
        assert "finite" in err
        assert not path.exists()

    def test_infinite_range_exit_3(self, capsys, tmp_path):
        path = tmp_path / "field.svg"
        code, _, err = run(capsys, "portrait", "--model", "stiff",
                           "--grid", "30,30", "--xrange", "0:inf",
                           "--out", str(path))
        assert code == 3
        assert "finite" in err
        assert not path.exists()

    @pytest.mark.parametrize("flag", ["--xrange", "--yrange"])
    @pytest.mark.parametrize("spec", ["1:2:3", "abc", "0.5"])
    def test_malformed_range_exit_3(self, capsys, tmp_path, flag, spec):
        path = tmp_path / "field.svg"
        code, _, err = run(capsys, "portrait", "--model", "stiff",
                           "--grid", "8,8", flag, spec, "--out", str(path))
        assert code == 3
        assert repr(spec) in err and "LO:HI" in err
        assert not path.exists()

    def test_single_node_svg(self, capsys, tmp_path):
        path = tmp_path / "x.svg"
        code, _, err = run(capsys, "portrait", "--model", "stiff",
                           "--grid", "1,1", "--out", str(path))
        assert code == 0, err
        assert path.read_text().startswith("<svg")

    @pytest.mark.parametrize("ext", ["svg", "csv"])
    def test_grid_above_max_nodes_exit_3(self, capsys, tmp_path, ext):
        path = tmp_path / f"field.{ext}"
        code, out, err = run(capsys, "portrait", "--model", "stiff",
                             "--grid", "100000,100000", "--out", str(path))
        assert code == 3
        assert out == "" and not path.exists()
        assert "MAX_GRID_NODES = 1000000" in err

    def test_degenerate_svg_box_exit_3(self, capsys, tmp_path):
        path = tmp_path / "field.svg"
        code, _, err = run(capsys, "portrait", "--model", "stiff",
                           "--grid", "30,30", "--xrange", "0.1:0.1",
                           "--out", str(path))
        assert code == 3
        assert "x1 > x0" in err
        assert not path.exists()


    @pytest.mark.parametrize("ext", ["svg", "csv"])
    @pytest.mark.parametrize("scale", ["1e-160", "1e-300"])
    def test_overflowing_field_exit_3(self, capsys, tmp_path, ext, scale):
        # the default box of these members squared y above the float
        # range and exited 3; b(x)*y*y stays in range, so they write
        # finite numbers, and the field overflows only from about 3e-307
        path = tmp_path / f"field.{ext}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "portrait", "--model", "scaled",
                               "--scale", scale, "--grid", "24,24",
                               "--out", str(path))
            assert code == 0, err
            assert_finite_portrait(path)
            bad = tmp_path / f"bad.{ext}"
            code, out, err = run(capsys, "portrait", "--model", "scaled",
                                 "--scale", "1e-307", "--grid", "24,24",
                                 "--out", str(bad))
        assert code == 3
        assert out == "" and not bad.exists()
        assert err == ("error: the field overflows: dy is not finite at 28 "
                       "of 576 points\n")

    @pytest.mark.parametrize("ext", ["svg", "csv"])
    def test_overflowing_field_entry_point(self, tmp_path, ext):
        path = tmp_path / f"field.{ext}"
        src = os.path.dirname(os.path.dirname(sp.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "starphase",
             "portrait", "--model", "scaled", "--scale", "1e-307",
             "--grid", "24,24", "--out", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == "" and not path.exists()
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: the field overflows: dy is")

    @settings(max_examples=60, deadline=None)
    @given(s=wide_scales())
    def test_trap_and_portrait_scale_law(self, s):
        # (1, s) is stiff shrunk by 1/s: its trap facts are stiff's and its
        # portrait is finite, unless the field overflows, which is named
        try:
            m = sp.model("scaled", scale=s)
        except ValueError:  # x_max = 1/s or c = 3 s overflows
            m = None
        if m is not None:
            stiff = sp.check_trap_region(sp.model("stiff"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    rep = sp.check_trap_region(m)
                except sp.DomainError as exc:
                    assert "dy is not finite" in str(exc)
                else:
                    assert rep.passed is True
                    assert rep.line_margin == pytest.approx(
                        stiff.line_margin, rel=1e-9, abs=0.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "x.csv"
            code, out, err = run_strict("portrait", "--model", "scaled",
                                        "--scale", repr(s), "--grid", "24,24",
                                        "--out", str(path))
            assert out == ""
            if code == 0:
                assert_finite_portrait(path)
            else:
                assert code == 3 and not path.exists()
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("ext", ["svg", "csv"])
    def test_small_scale_is_finite(self, capsys, tmp_path, ext):
        path = tmp_path / f"field.{ext}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "portrait", "--model", "scaled",
                               "--scale", "1e-100", "--grid", "24,24",
                               "--out", str(path))
        assert code == 0, err
        text = path.read_text()
        assert "nan" not in text and "inf" not in text


class TestMasstable:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "masstable")
        assert code == 0
        assert len(out.strip().splitlines()) == 5
        assert "0.8889" in out and "0.9706" in out

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "masstable", "--markdown")
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_json(self, capsys):
        code, out, _ = run(capsys, "masstable", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 5
        values = [r["value"] for r in doc["rows"]]
        assert values[0] == pytest.approx(8.0 / 9.0)
        assert values[2] == pytest.approx(0.6934159639728907, abs=1e-12)
        assert values[3] == pytest.approx(0.6211700518129574, abs=1e-12)
        assert 0.53 <= values[4] <= 0.57


def readme_cli_examples():
    """The ``starphase ...`` command lines of README's ``## CLI`` block,
    each as its argument list, comments dropped."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("starphase ")]


class TestUnwritableOutput:
    """An output path in a missing directory exits 3 with one error line,
    as a bad portrait suffix does; it was an uncaught FileNotFoundError."""

    @pytest.mark.parametrize("argv", [
        ("analyze", "--model", "stiff", "--json", "a.json"),
        ("trajectory", "--model", "stiff", "--out", "t.csv"),
        ("bound", "--model", "kappa", "--sweep-kappa", "0.1:0.2:3",
         "--out", "x.csv"),
        ("portrait", "--model", "stiff", "--grid", "8,8", "--out", "p.svg"),
    ], ids=lambda argv: argv[0])
    def test_exit_3(self, capsys, tmp_path, argv):
        path = str(tmp_path / "nodir" / argv[-1])
        code, out, err = run(capsys, *argv[:-1], path)
        missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    path)
        assert (code, out) == (3, "")
        assert err == f"error: {missing}\n"


class TestModuleEntryPoints:
    """``python -m starphase`` and ``python -m starphase.cli`` run ``main``
    on ``sys.argv``; run here in this process."""

    @pytest.mark.parametrize("module, runs", [
        ("starphase", "starphase.__main__"),
        ("starphase.cli", "starphase.cli")])
    def test_same_exit_and_output_as_main(self, capsys, monkeypatch, module,
                                          runs):
        want = run(capsys, "bound", "--model", "stiff")
        monkeypatch.setattr(sys, "argv", [module, "bound", "--model", "stiff"])
        # runpy warns when the module it runs as __main__ is imported
        monkeypatch.delitem(sys.modules, runs, raising=False)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module(module, run_name="__main__")
        got = capsys.readouterr()
        assert (exc.value.code, got.out, got.err) == want


class TestReadme:
    def test_cli_examples_found(self):
        examples = readme_cli_examples()
        assert len(examples) == 6
        assert [a[0] for a in examples] == ["analyze", "trajectory", "bound",
                                            "bound", "portrait", "masstable"]

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids="_".join)
    def test_cli_example_runs(self, argv, tmp_path, monkeypatch):
        # the documented commands run as written: exit 0, with every
        # named output file written
        monkeypatch.chdir(tmp_path)
        code, _, err = run_strict(*argv)
        assert code == 0, err
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).is_file()


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_unknown_model_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["bound", "--model", "weird"])
        assert err.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0


class TestSharedParser:
    """``main`` parses with one parser per process; no call may see the
    arguments of an earlier one."""

    def test_built_once(self, capsys, monkeypatch):
        built = [0]
        original = cli.build_parser

        def counting():
            built[0] += 1
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._shared_parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "analyze", "--model", "stiff")[0] == 0
        assert built[0] == 1
        assert cli.build_parser() is not cli.build_parser()

    def test_kappa_does_not_leak(self, capsys):
        code, out, _ = run(capsys, "bound", "--model", "kappa",
                           "--kappa", "0.5")
        assert code == 0
        assert json.loads(out)["z"] == sp.model("kappa", kappa=0.5).z
        code, out, _ = run(capsys, "bound", "--model", "kappa")
        assert code == 0
        assert json.loads(out)["z"] == sp.model("kappa", kappa=1 / 3).z

    def test_sweep_does_not_leak(self, capsys):
        code, out, _ = run(capsys, "bound", "--model", "kappa",
                           "--sweep-kappa", "0.2:1:3")
        assert code == 0
        assert len(json.loads(out)["sweep"]) == 3
        code, out, _ = run(capsys, "bound", "--model", "stiff")
        assert code == 0
        doc = json.loads(out)
        assert "sweep" not in doc
        assert doc["family"] == "stiff"

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bound", "--model", "stiff", "--kappa"])
        assert err.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "bound", "--model", "stiff")
        assert code == 0
        assert json.loads(out)["X_numeric"] == pytest.approx(
            0.6934159639728907, abs=1e-12)

    def test_module_entry_point_bound(self):
        src = os.path.dirname(os.path.dirname(sp.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "starphase", "bound", "--model", "stiff"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["X_numeric"] == pytest.approx(
            0.6934159639728907, abs=1e-12)
