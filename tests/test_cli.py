import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import starphase as sp
from starphase import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestBound:
    def test_stiff(self, capsys):
        code, out, _ = run(capsys, "bound", "--model", "stiff")
        assert code == 0
        doc = json.loads(out)
        assert doc["X_numeric"] == pytest.approx(0.6934159639728907,
                                                 abs=1e-12)
        assert doc["agreement"] <= 1e-9

    @pytest.mark.parametrize("scale", ["6e10", "1e11", "3e11", "1e12"])
    def test_tiny_member_exit_3(self, capsys, scale):
        # 0.95 x_max, the r sample's largest x, lies at or beyond
        # x_max - DOMAIN_GUARD, so the hypotheses check refuses the member
        # before the bound's two routes can disagree
        code, out, err = run(capsys, "bound", "--model", "scaled",
                             "--scale", scale)
        assert code == 3 and out == ""
        assert err == (f"error: x outside [0, {1.0 / float(scale)!r}) "
                       "for family 'scaled'\n")

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
        # here, with a numpy RuntimeWarning on stderr before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bound", "--model", "kappa", *argv)
        assert (code, out) == (4, "")
        prefix = "kappa = 1e-308 (row 1 of 3): " if "--sweep-kappa" in argv \
            else ""
        assert err == (f"error: {prefix}closed form X = 0.0 and H inversion "
                       "X = 3.9999999999999996e-308 differ by 1 relative, "
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
        # were checked in batches
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "bound", "--model", "kappa",
                         "--sweep-kappa", "0.02:1:40", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "bbaebc61c7024f5fee26f799b267bc5f4edc0901520a10c34474eff99e29f92c")

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

    def test_nonconvergence_exit_4(self, capsys):
        code, _, err = run(capsys, "trajectory", "--model", "stiff",
                           "--max-time", "1.0")
        assert code == 4
        assert "did not converge" in err


class TestPortrait:
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
        # the default box of these members squares y above the float
        # range: the SVG was written with nan arrows, the CSV with inf
        path = tmp_path / f"field.{ext}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "portrait", "--model", "scaled",
                                 "--scale", scale, "--grid", "24,24",
                                 "--out", str(path))
        assert code == 3
        assert out == "" and not path.exists()
        assert err == ("error: the field overflows on this plot box: dy is "
                       "not finite at 576 of 576 nodes\n")

    @pytest.mark.parametrize("ext", ["svg", "csv"])
    def test_overflowing_field_entry_point(self, tmp_path, ext):
        path = tmp_path / f"field.{ext}"
        src = os.path.dirname(os.path.dirname(sp.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "starphase",
             "portrait", "--model", "scaled", "--scale", "1e-160",
             "--grid", "24,24", "--out", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == "" and not path.exists()
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: the field overflows")

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
