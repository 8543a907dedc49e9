import csv
import dataclasses
import json

import numpy as np
import pytest

from shapeinv import (
    FAMILY_TAGS,
    REAL_TAGS,
    GridSpec,
    compatibility_lhs,
    get_family,
    make_grid,
    sample_valid_params,
)
from shapeinv import cli
from shapeinv.cli import main


def run(tmp_path, *args, out_name="report.json"):
    out = tmp_path / out_name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


class TestVerify:
    def test_all_families_pass(self, tmp_path):
        from shapeinv import FAMILY_TAGS

        for tag in FAMILY_TAGS:
            code, text = run(
                tmp_path, "verify", "--family", tag, "--sample", "2", "--seed", "7",
                "--grid-points", "128", "--no-timestamp",
            )
            doc = json.loads(text)
            assert code == 0, tag
            assert doc["overall_pass"] is True
            assert len(doc["results"]) == 2

    def test_scarf_degree_10_passes(self, tmp_path):
        # a false compatibility violation (residual 1.5e-8 against 1e-9)
        # before Jacobi values near z = 0 moved to the monomial basis
        code, text = run(
            tmp_path, "verify", "--family", "Xl-PT-Scarf",
            "--params", '{"m": 0.3, "B": -2.0, "ell": 10}', "--no-timestamp",
        )
        assert code == 0
        assert json.loads(text)["results"][0]["residuals"]["compatibility"] < 1e-10

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        code = main([
            "verify", "--family", "X1-radial-oscillator",
            "--params", '{"m": -1.0, "omega": 1.0, "d": 1.0}',
        ])
        assert code == 2
        assert "m < -(1 + 2*d)/2" in capsys.readouterr().err

    @pytest.mark.parametrize("c, message", [("0.0", "violates c > 0"),
                                            ("1e-160", "c^2 is not a normal double"),
                                            ("1e-170", "c^2 is not a normal double"),
                                            ("1e-200", "c^2 is not a normal double")])
    @pytest.mark.parametrize("tag", ["X1-hyperbolic", "X1-trigonometric"])
    def test_zero_c_exit_2(self, tag, c, message, capsys):
        # the m edges divide by 2*c^2 and X1-trigonometric's domain by c;
        # c = 0, and a c > 0 whose 2*c^2 underflows to 0, once raised
        # ZeroDivisionError (exit 1, the violation code); at c = 1e-160
        # X1-trigonometric once ran on a subnormal c^2 and exited 1.  c = 0
        # is outside the region, a subnormal c^2 outside the float support
        code = main(["verify", "--family", tag,
                     "--params", f'{{"m": 1.0, "c": {c}, "beta": 0.5, "d": 1.0}}'])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("beta, d, m", [(0.5, 1.0, 1.0), (-0.5, 1.0, 2.0),
                                            (0.5, -1.0, -1.0)])
    @pytest.mark.parametrize("tag", ["X1-hyperbolic", "X1-trigonometric"])
    def test_small_c_never_a_violation(self, tag, beta, d, m):
        # c = 10^-j, j = 150..163: c^2 turns subnormal at j = 154, where
        # k0 and k1 lose their digits; X1-trigonometric exited 1 for
        # j = 157..161.  A run either checks a normal c^2 or exits 2
        codes = []
        for j in range(150, 164):
            params = json.dumps({"m": m, "c": float(f"1e-{j}"), "beta": beta, "d": d})
            codes.append(main(["verify", "--family", tag, "--params", params,
                               "--no-timestamp"]))
        assert set(codes) <= {0, 2}
        assert set(codes[4:]) == {2}

    def test_invalid_first_translate_exit_2(self, capsys):
        # m = 0.3 and 1.3 lie in the region m > 0, but translation, algebra,
        # equivalence and the remainder also read W at m_list[0] - 1 = -0.7
        code = main(["verify", "--family", "X1-hyperbolic",
                     "--params", '{"m": 0.3, "c": 1.0, "beta": 0.5, "d": 1.0}',
                     "--m-list", "0.3,1.3", "--no-timestamp"])
        assert code == 2
        assert "m = -0.7 violates m > (2*beta + c^2 - 2*c*d)/(2*c^2)" in capsys.readouterr().err

    def test_singular_scarf_point_exit_2(self, capsys):
        # P+ = P_2^(-7/4,-7/4) vanishes at z = +-i*sqrt(2), so D+ has real
        # poles at x = +-1.146; the run once passed with compatibility 2e-13
        code = main(["verify", "--family", "Xl-PT-Scarf",
                     "--params", '{"m": -0.5, "B": 0.75, "ell": 2}', "--no-timestamp"])
        assert code == 2
        assert "P+- has no root i*s with real s != 0" in capsys.readouterr().err

    def test_coefficients_beyond_float_range_exit_2(self, capsys):
        # L_2^(1e200) has c_0 ~ 5e399; int / int division once escaped main
        # as an OverflowError (exit 1)
        code = main(["verify", "--family", "Xl-radial-oscillator",
                     "--params", '{"m": -1e200, "omega": 1.0, "ell": 2}', "--no-timestamp"])
        assert code == 2
        assert "exceed the float range" in capsys.readouterr().err

    def test_unknown_family_exit_2(self, capsys):
        assert main(["verify", "--family", "X9-unknown", "--sample", "1"]) == 2

    def test_perturbation_hook_exit_1(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--family", "X1-radial-oscillator", "--sample", "1",
            "--seed", "7", "--grid-points", "128", "--perturb", "0.01", "--no-timestamp",
        )
        assert code == 1
        doc = json.loads(text)
        assert doc["overall_pass"] is False
        assert doc["results"][0]["verdicts"]["translation"] is False

    def test_pole_radius_is_an_unknown_grid_key_exit_2(self, tmp_path, capsys):
        # the pole exclusion radius is a constant of make_grid: a config
        # file's grid key for it once set it, and 1e308 left Xl-PT-Scarf no
        # grid point, so every residual read 0.0 and a control passed
        config = tmp_path / "config.json"
        config.write_text('{"family": "Xl-PT-Scarf", "sample": 1, "seed": 5, '
                          '"grid": {"pole_exclusion_radius": 1e308}}', encoding="utf-8")
        code = main(["verify", "--config", str(config), "--perturb", "0.01",
                     "--checks", "translation,compatibility,algebra", "--no-timestamp",
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert "unknown grid fields ['pole_exclusion_radius']" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, message", [
        # c^2 overflows: expected (a, b) = (c ** 2, beta) once raised a bare
        # OverflowError in the family record
        (["verify", "--family", "X1-hyperbolic",
          "--params", '{"m": 1.0, "c": 1e160, "beta": 0.5, "d": 1.0}'],
         "c = 1e+160 is outside the float support: c^2 is not a normal double"),
        (["verify", "--family", "X1-trigonometric",
          "--params", '{"m": 1.0, "c": 1e160, "beta": 0.5, "d": 1.0}'],
         "c = 1e+160 is outside the float support: c^2 is not a normal double"),
        # the far edge's slope ** 2 once raised OverflowError
        (["verify", "--family", "X1-radial-oscillator",
          "--params", '{"m": -3.0, "omega": 1e160, "d": 1.0}'],
         "the slope 1e+160 of W0*g' is outside the float support: its square overflows"),
        # V+ = W^2 + W' overflows on the window: PotentialGrid's ValueError
        # once escaped main
        (["spectrum", "--family", "X1-radial-oscillator",
          "--params", '{"m": -3.0, "omega": 1e160, "d": 1.0}'],
         "V+ is not finite on the spectral window"),
        (["spectrum", "--family", "X1-radial-oscillator", "--sample", "1",
          "--perturb", "1e160"],
         "V+ is not finite on the spectral window"),
        (["verify", "--family", "X1-radial-oscillator", "--sample", "1",
          "--checks", "remainder,spectrum", "--perturb", "1e200"],
         "V+ is not finite on the spectral window"),
    ])
    def test_overflowing_constants_exit_2(self, tmp_path, capsys, argv, message):
        # exit 1 is the code of a violation; these exited 1 with a traceback
        out = tmp_path / "report.json"
        assert main([*argv, "--no-timestamp", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_reports(self, tmp_path):
        args = (
            "verify", "--family", "Xl-radial-oscillator", "--sample", "2", "--seed", "3",
            "--grid-points", "96", "--no-timestamp",
        )
        _, text_a = run(tmp_path, *args, out_name="a.json")
        _, text_b = run(tmp_path, *args, out_name="b.json")
        assert text_a == text_b
        assert len(text_a) > 100

    def test_timestamp_present_by_default(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--family", "X1-radial-oscillator", "--sample", "1",
            "--seed", "1", "--grid-points", "96",
        )
        assert "timestamp" in json.loads(text)

    def test_checks_subset_and_m_list(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--family", "X1-radial-oscillator",
            "--params", '{"m": -3.0, "omega": 1.0, "d": 1.0}',
            "--m-list=-3,-4", "--checks", "translation,compatibility",
            "--grid-points", "96", "--no-timestamp",
        )
        doc = json.loads(text)
        assert code == 0
        assert set(doc["results"][0]["verdicts"]) == {"translation", "compatibility"}
        assert doc["results"][0]["m_list"] == [-3.0, -4.0]

    @pytest.mark.parametrize("checks, calls", [("compatibility", 1),
                                               ("compatibility,remainder", 1)])
    def test_remainder_reuses_the_checks_values(self, tmp_path, monkeypatch, checks, calls):
        # one kernel pass, for the grid (its edge is a closed form); the
        # remainder reads the checks' W1 table instead of a second pass
        from shapeinv import catalog

        points = []
        poly_eval = catalog.poly_eval
        monkeypatch.setattr(catalog, "poly_eval",
                            lambda spec, z, *a, **kw: points.append(np.size(z))
                            or poly_eval(spec, z, *a, **kw))
        code, text = run(tmp_path, "verify", "--family", "Xl-Poschl-Teller", "--sample", "1",
                         "--seed", "3", "--checks", checks, "--no-timestamp")
        assert code == 0
        assert len(points) == calls

    def test_remainder_equals_its_own_evaluation(self, tmp_path):
        # the shared table changes no bit of the remainder or its flatness
        from shapeinv import remainder

        code, text = run(tmp_path, "verify", "--family", "Xl-radial-oscillator", "--sample", "1",
                         "--seed", "3", "--checks", "remainder", "--no-timestamp")
        result = json.loads(text)["results"][0]
        p = sample_valid_params("Xl-radial-oscillator", 1, 3)[0]
        fam = get_family("Xl-radial-oscillator", p)
        m_list = (p.m, p.m - 1.0, p.m - 2.0)
        r, flat = remainder(fam, p.m, make_grid(fam, GridSpec(), m_values=m_list))
        assert code == 0
        assert (result["remainder"], result["residuals"]["remainder_flatness"]) == (r, flat)

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_remainder_matches_its_closed_form(self, tmp_path, tag):
        # compatibility cancels W1 and Infeld-Hull leaves R(m) = (2m - 1)a - 2b:
        # the numeric R of 6 sampled points is within 1.5e-14 of it, relative
        code, text = run(tmp_path, "verify", "--family", tag, "--sample", "6", "--seed", "3",
                         "--checks", "remainder", "--no-timestamp")
        assert code == 0
        results = json.loads(text)["results"]
        for result, p in zip(results, sample_valid_params(tag, 6, 3), strict=True):
            a, b = get_family(tag, p).expected_ab
            want = (2.0 * p.m - 1.0) * a - 2.0 * b
            gap = result["residuals"]["remainder_match"]
            assert gap == abs(result["remainder"] - want)
            assert gap <= 1e-13 * abs(want)
            assert result["verdicts"]["remainder_match"]
            assert result["tolerances"]["remainder_match"] == result["tolerances"]["remainder"]

    def test_perturbed_remainder_misses_its_closed_form(self, tmp_path):
        # verify --perturb adds 1e-3*x to W1- (the wminus-slope control): R
        # moves from (2m - 1)a - 2b by what the perturbation adds to the
        # mean of V+ - V- on the run's grid
        from shapeinv import remainder, with_perturbation

        code, text = run(tmp_path, "verify", "--family", "X1-hyperbolic", "--sample", "1",
                         "--seed", "3", "--checks", "remainder", "--perturb", "1e-3",
                         "--no-timestamp")
        assert code == 1
        result = json.loads(text)["results"][0]
        assert not result["verdicts"]["remainder_match"]
        p = sample_valid_params("X1-hyperbolic", 1, 3)[0]
        fam = get_family("X1-hyperbolic", p)
        grid = make_grid(fam, GridSpec(), m_values=(p.m, p.m - 1.0, p.m - 2.0))
        shift = (remainder(with_perturbation(fam, "wminus-slope", 1e-3), p.m, grid)[0]
                 - remainder(fam, p.m, grid)[0])
        assert result["residuals"]["remainder_match"] == pytest.approx(abs(shift), rel=1e-9)

    def test_unknown_check_exit_2(self, capsys):
        assert main([
            "verify", "--family", "X1-radial-oscillator", "--sample", "1",
            "--checks", "translation,frobnicate",
        ]) == 2

    def test_csv_format(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--family", "X1-radial-oscillator", "--sample", "1",
            "--seed", "5", "--grid-points", "96", "--format", "csv", "--no-timestamp",
            out_name="report.csv",
        )
        assert code == 0
        rows = list(csv.DictReader(text.splitlines()))
        assert {"param_index", "check", "residual", "tolerance", "pass"} == set(rows[0])
        assert all(r["pass"] == "True" for r in rows)

    def test_unwritable_path_exit_2(self, tmp_path, capsys):
        code = main([
            "verify", "--family", "X1-radial-oscillator", "--sample", "1",
            "--grid-points", "96", "--out", str(tmp_path / "missing-dir" / "r.json"),
        ])
        assert code == 2

    def test_config_file(self, tmp_path):
        cfg = {
            "family": "X1-radial-oscillator",
            "params": {"m": -3.0, "omega": 1.0, "d": 1.0},
            "checks": ["translation", "algebra"],
            "grid": {"n_points": 96},
            "no_timestamp": True,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code, text = run(tmp_path, "verify", "--config", str(cfg_path))
        doc = json.loads(text)
        assert code == 0
        assert set(doc["results"][0]["verdicts"]) == {"translation", "algebra"}

    def test_explicit_flags_win_over_config_file(self, tmp_path):
        # a flag equal to its default once counted as not given, so the
        # config file's 96 points and 1e-6 tolerance won
        cfg = {
            "family": "X1-radial-oscillator",
            "params": {"m": -3.0, "omega": 1.0, "d": 1.0},
            "checks": ["translation", "compatibility"],
            "grid": {"n_points": 96},
            "tol": 1e-6,
            "no_timestamp": True,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        _, from_file = run(tmp_path, "verify", "--config", str(cfg_path), out_name="f.json")
        _, flagged = run(tmp_path, "verify", "--config", str(cfg_path),
                         "--grid-points", "512", "--tol", "1e-9", out_name="g.json")
        from_file, flagged = json.loads(from_file), json.loads(flagged)
        assert from_file["config"]["grid_points"] == 96
        assert from_file["config"]["tolerances"]["compatibility"] == 1e-6
        assert flagged["config"]["grid_points"] == 512
        assert flagged["config"]["tolerances"]["compatibility"] == 1e-9
        assert flagged["results"][0]["grid"]["n_points"] == 512

    def test_back_to_back_calls_share_no_state(self, tmp_path):
        # the parser is built once per process; a flag given to one call
        # must not reach the next
        assert cli.build_parser() is cli.build_parser()
        args = ("verify", "--family", "X1-radial-oscillator",
                "--params", '{"m": -3.0, "omega": 1.0, "d": 1.0}',
                "--grid-points", "96", "--no-timestamp")
        _, before = run(tmp_path, *args, out_name="a.json")
        code, flagged = run(tmp_path, *args, "--checks", "translation", "--tol", "1e-3",
                            "--perturb", "0.01", out_name="b.json")
        _, after = run(tmp_path, *args, out_name="c.json")
        assert code == 1
        flagged = json.loads(flagged)["config"]
        assert (flagged["checks"], flagged["perturb"]) == (["translation"], 0.01)
        assert flagged["tolerances"]["compatibility"] == 1e-3
        assert after == before
        config = json.loads(after)["config"]
        assert config["checks"] == list(cli.CHECK_NAMES)
        assert config["perturb"] == 0.0
        assert config["tolerances"]["compatibility"] == cli.DEFAULT_TOL

    def test_invalid_grid_exit_2(self, capsys):
        # GridSpec's ValueError once escaped main as a traceback
        code = main([
            "verify", "--family", "X1-radial-oscillator", "--sample", "1", "--grid-points", "8",
        ])
        assert code == 2
        assert "n_points" in capsys.readouterr().err

    def test_jobs_flag_rejected(self, capsys):
        # verify runs its points in one thread; there is no --jobs option
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "X1-trigonometric", "--sample", "3", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestInputErrors:
    """Bad input exits 2 with a message, never 1 (a violation) or a run on
    a silently converted value."""

    X1 = {"m": -3.0, "omega": 1.0, "d": 1.0}

    def test_non_integral_ell_exit_2(self, capsys):
        # int() once turned 2.5 into 2, and the run passed at ell = 2
        code = main(["verify", "--family", "Xl-Poschl-Teller",
                     "--params", '{"m": 0.5, "B": -3.0, "ell": 2.5}', "--grid-points", "96"])
        assert code == 2
        assert "ell must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("m", "-3.0"), ("omega", True), ("d", None)])
    def test_non_numeric_param_exit_2(self, capsys, field, value):
        params = json.dumps({**self.X1, field: value})
        code = main(["verify", "--family", "X1-radial-oscillator", "--params", params,
                     "--grid-points", "96"])
        assert code == 2
        assert f"parameter {field} must be a number" in capsys.readouterr().err

    def test_long_inline_params(self, tmp_path):
        # an inline object longer than the file-name limit was once tried as
        # a path first, and the OS error exited 2
        args = ("verify", "--family", "X1-radial-oscillator", "--grid-points", "96",
                "--no-timestamp")
        long_params = json.dumps(self.X1, indent=100)
        assert len(long_params) > 300
        code, text = run(tmp_path, *args, "--params", long_params, out_name="long.json")
        assert code == 0
        _, short = run(tmp_path, *args, "--params", json.dumps(self.X1), out_name="short.json")
        assert text == short

    def test_non_numeric_m_list_exit_2(self, capsys):
        # float("a") once escaped main as a traceback (exit 1)
        code = main(["verify", "--family", "X1-radial-oscillator",
                     "--params", json.dumps(self.X1), "--m-list=a,b"])
        assert code == 2
        assert "m_list" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-3", "39"])
    def test_too_few_spectrum_points_exit_2(self, monkeypatch, capsys, points):
        # rejected before the window search: the grid must hold 8*k points
        def no_search(*args, **kwargs):
            raise AssertionError("window search reached")

        monkeypatch.setattr("shapeinv.spectral.spectral_window", no_search)
        code = main(["spectrum", "--family", "X1-radial-oscillator",
                     "--params", json.dumps(self.X1), "--k", "5", "--spectrum-points", points])
        assert code == 2
        assert f"too large for a {points}-point grid" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("k", 2.5, "k must be an integer"),
        ("grid", {"n_points": 512.5}, "n_points must be an integer"),
        ("spectrum_points", 4000.0, "spectrum_points must be an integer"),
        # each of these once escaped main as a traceback (exit 1)
        ("m_list", "-3", "m_list must be a list of numbers"),
        ("tolerances", {"compatibility": "1e-9"}, "tolerances must be numbers"),
        ("tolerances", [1], "tolerances must be an object"),
        ("out", 3, "out must be a path"),
        ("perturb", "x", "perturb must be a number"),
        ("grid", [1], "grid must be an object"),
        ("grid", "x", "grid must be an object"),
        ("grid", {"boundary_margin": "0.1"}, "grid: "),
        ("checks", 3, "checks must be a list"),
        ("format", "xml", "format must be json or csv, got 'xml'"),
        # once accepted and ignored: compatibility was judged at 1e-9
        ("tolerances", {"compatibilty": 1e-30}, "unknown tolerances ['compatibilty']"),
        # once accepted and ignored: translation judged at 1e-12 on 512 points
        ("tolerance", {"translation": 1e-30}, "unknown config fields ['tolerance']"),
        ("grid", {"n_point": 16}, "unknown grid fields ['n_point']"),
        # once numpy's ValueError from the sampler (exit 1)
        ("seed", -1, "seed must be >= 0, got -1"),
        # NaN failed every gate (exit 1); Infinity opened every gate (exit 0)
        ("tol", float("nan"), "tol must be a finite number > 0, got nan"),
        ("tol", float("inf"), "tol must be a finite number > 0, got inf"),
        ("tolerances", {"compatibility": float("nan")},
         "tolerances.compatibility must be a finite number > 0, got nan"),
        ("tolerances", {"translation": float("inf")},
         "tolerances.translation must be a finite number > 0, got inf"),
    ])
    def test_non_integral_config_value_exit_2(self, tmp_path, capsys, field, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "X1-radial-oscillator", "params": self.X1,
                                        field: value}), encoding="utf-8")
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--tol", "nan", "tol must be a finite number > 0, got nan"),
        ("--tol", "inf", "tol must be a finite number > 0, got inf"),
        ("--tol", "0", "tol must be a finite number > 0, got 0.0"),
    ])
    def test_negative_seed_and_non_finite_tol_flags_exit_2(self, capsys, flag, value, message):
        # --seed -1 once escaped main as numpy's ValueError (exit 1); --tol
        # nan failed every gate (exit 1) and --tol inf opened every gate
        code = main(["verify", "--family", "X1-hyperbolic", "--sample", "1", flag, value])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_unknown_config_and_grid_keys_named_together(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "X1-radial-oscillator", "params": self.X1,
                                        "tolerance": {"translation": 1e-30},
                                        "grid": {"n_point": 16}}), encoding="utf-8")
        assert main(["verify", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown config fields ['tolerance']" in err
        assert "unknown grid fields ['n_point']" in err


class TestCommandDefaults:
    @pytest.mark.parametrize("command, m_list", [("verify", "m, m-1, m-2"),
                                                 ("scan", "m, m-1"), ("spectrum", "m")])
    def test_m_list_help_names_the_commands_default(self, monkeypatch, capsys, command, m_list):
        monkeypatch.setenv("COLUMNS", "200")  # one help line per option
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"comma-separated m values (default: {m_list})" in capsys.readouterr().out

    # every RunConfig field but params and m_list, which exclude sample,
    # each but format and out away from its default
    EVERY_FIELD = {
        "family": "Xl-radial-oscillator",
        "sample": 2,
        "seed": 9,
        "checks": ["translation", "compatibility", "remainder", "spectrum"],
        "grid": {"n_points": 96, "boundary_margin": 0.04},
        "tol": 1e-8,
        "tolerances": {"compatibility": 1e-10},
        "no_timestamp": True,
        "perturb": 1e-3,
        "k": 3,
        "spectrum_points": 1000,
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_config_file_writes_what_the_flags_write(self, tmp_path, fmt):
        cfg = {**self.EVERY_FIELD, "format": fmt, "out": str(tmp_path / "file.out")}
        assert set(cfg) == {f.name for f in dataclasses.fields(cli.RunConfig)} - {"params",
                                                                                  "m_list"}
        assert set(cfg["grid"]) == {f.name for f in dataclasses.fields(GridSpec)}
        (tmp_path / "all.json").write_text(json.dumps(cfg), encoding="utf-8")
        # tolerances and the grid's boundary_margin have no flag
        rest = {"tolerances": cfg["tolerances"],
                "grid": {k: v for k, v in cfg["grid"].items() if k != "n_points"}}
        (tmp_path / "rest.json").write_text(json.dumps(rest), encoding="utf-8")
        flags = ["--config", str(tmp_path / "rest.json"), "--family", cfg["family"],
                 "--sample", "2", "--seed", "9", "--checks", ",".join(cfg["checks"]),
                 "--grid-points", "96", "--tol", "1e-8", "--format", fmt,
                 "--out", str(tmp_path / "flags.out"), "--no-timestamp", "--perturb", "1e-3",
                 "--k", "3", "--spectrum-points", "1000"]
        assert main(["verify", "--config", str(tmp_path / "all.json")]) == 1
        assert main(["verify", *flags]) == 1
        from_file = (tmp_path / "file.out").read_text(encoding="utf-8")
        assert from_file == (tmp_path / "flags.out").read_text(encoding="utf-8")
        if fmt == "json":
            config = json.loads(from_file)["config"]
            assert (config["grid_points"], config["sample"], config["seed"]) == (96, 2, 9)


class TestCommandReads:
    """A command takes a setting, as a flag or a config key, exactly when it
    reads it (Command.reads); scan once wrote the same CSV under --checks,
    --tol, --format, --no-timestamp, --k and --spectrum-points."""

    X1 = {"m": -3.0, "omega": 1.0, "d": 1.0}
    # each field's flag value (None: the flag takes none) and config value
    VALUES = {
        "family": ("X1-radial-oscillator", "X1-radial-oscillator"),
        "params": (json.dumps(X1), X1),
        "sample": ("1", 0),
        "seed": ("3", 3),
        "m_list": ("-3", [-3.0]),
        "checks": ("translation", ["translation"]),
        "grid": ("64", {"n_points": 64}),
        "tol": ("1e-8", 1e-8),
        "tolerances": (None, {"spectrum": 1e-3}),
        "format": ("csv", "csv"),
        "out": ("r.json", "-"),
        "no_timestamp": (None, True),
        "perturb": ("0.01", 0.01),
        "k": ("3", 3),
        "spectrum_points": ("1000", 1000),
    }

    def test_every_field_has_values(self):
        assert list(self.VALUES) == [f.name for f in dataclasses.fields(cli.RunConfig)]

    @pytest.mark.parametrize("field", list(VALUES))
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_flag_and_config_key_iff_read(self, tmp_path, capsys, command, field):
        reads = field in cli.COMMANDS[command].reads
        flag_value, value = self.VALUES[field]
        if field != "tolerances":  # the one field with no flag
            flag = "--grid-points" if field == "grid" else "--" + field.replace("_", "-")
            argv = [command, flag] + ([flag_value] if flag_value is not None else [])
            if reads:
                cli.build_parser().parse_args(argv)
            else:
                with pytest.raises(SystemExit) as exc:
                    cli.build_parser().parse_args(argv)
                assert exc.value.code == 2
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "X1-radial-oscillator", "params": self.X1,
                                        field: value}), encoding="utf-8")
        args = cli.build_parser().parse_args([command, "--config", str(cfg_path)])
        if reads:
            assert isinstance(cli._config_from_args(args), cli.RunConfig)
        else:
            assert main([command, "--config", str(cfg_path)]) == 2
            assert f"unknown config fields ['{field}']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_params_with_sample_exit_2(self, command, capsys):
        # verify --params P --sample 3 once ran P alone and echoed sample 3
        code = main([command, "--family", "X1-radial-oscillator",
                     "--params", json.dumps(self.X1), "--sample", "1"])
        assert code == 2
        assert "give params or sample, not both: params with sample 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_m_list_with_sample_exit_2(self, command, capsys):
        # verify --sample 2 --m-list=-2.5,-3.5 once drew and validated each
        # point's m, ran the checks at the given list and echoed the drawn m
        code = main([command, "--family", "Xl-radial-oscillator", "--sample", "1",
                     "--seed", "9", "--m-list=-2.5"])
        assert code == 2
        assert "give m_list or sample, not both: m_list with sample 1" in capsys.readouterr().err


def assert_reference_json(text):
    """text is json.dumps(doc, indent=2, sort_keys=True) + newline for the
    document it holds.  The first differing byte is reported instead of a
    diff of two long texts."""
    ref = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if text != ref:
        i = next((i for i, (a, b) in enumerate(zip(text, ref)) if a != b), min(len(text), len(ref)))
        pytest.fail(f"differs at byte {i} of {len(ref)}: {text[max(i - 40, 0):i + 40]!r} "
                    f"instead of {ref[max(i - 40, 0):i + 40]!r}")


class TestJsonWriter:
    """A JSON report is json.dumps(doc, indent=2, sort_keys=True) + newline."""

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_sampled_verify_reports(self, tmp_path, tag):
        code, text = run(tmp_path, "verify", "--family", tag, "--sample", "3", "--seed", "7",
                         "--no-timestamp")
        assert code == 0
        results = json.loads(text)["results"]
        assert len(results) == 3
        # epsilon(x) is plot data, written by scan, not by verify
        assert not any("epsilon_samples" in r for r in results)
        assert_reference_json(text)

    def test_perturbed_control(self, tmp_path):
        code, text = run(tmp_path, "verify", "--family", "Xl-Poschl-Teller", "--sample", "1",
                         "--seed", "5", "--perturb", "0.01")
        assert code == 1
        assert "timestamp" in json.loads(text)
        assert_reference_json(text)

    def test_translation_only_report(self, tmp_path):
        code, text = run(tmp_path, "verify", "--family", "X1-trigonometric", "--sample", "2",
                         "--seed", "5", "--checks", "translation", "--no-timestamp")
        assert code == 0
        assert not {"k", "spectrum_points"} & set(json.loads(text)["config"])
        assert [list(r["verdicts"]) for r in json.loads(text)["results"]] == [["translation"]] * 2
        assert_reference_json(text)

    def test_spectrum_report(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--family", REAL_TAGS[-1], "--sample", "1",
                         "--seed", "5", "--k", "3", "--spectrum-points", "1000",
                         "--no-timestamp")
        assert code == 0
        assert_reference_json(text)

    def test_verify_with_spectrum(self, tmp_path):
        code, text = run(tmp_path, "verify", "--family", "X1-hyperbolic", "--sample", "2",
                         "--seed", "5", "--checks", "compatibility,remainder,spectrum",
                         "--spectrum-points", "1000", "--no-timestamp")
        assert code == 0
        doc = json.loads(text)
        assert "spectrum" in doc["results"][1]
        # the spectral settings that verify reads are echoed with its others
        assert (doc["config"]["k"], doc["config"]["spectrum_points"]) == (5, 1000)
        assert_reference_json(text)


class TestScan:
    def test_epsilon_columns_match_across_m(self, tmp_path):
        code, text = run(
            tmp_path, "scan", "--family", "X1-hyperbolic", "--sample", "1", "--seed", "13",
            "--grid-points", "64", out_name="scan.csv",
        )
        assert code == 0
        rows = list(csv.reader(text.splitlines()))
        header, data = rows[0], rows[1:]
        assert header[0] == "x"
        re_cols = [i for i, name in enumerate(header) if name.endswith("_re")]
        assert len(re_cols) == 2
        for row in data:
            eps_a, eps_b = float(row[re_cols[0]]), float(row[re_cols[1]])
            assert abs(eps_a - eps_b) < 1e-9
        assert header[-2:] == ["V_minus", "V_plus"]

    def test_round_trip_17_digits(self, tmp_path):
        code, text = run(
            tmp_path, "scan", "--family", "X1-radial-oscillator",
            "--params", '{"m": -3.0, "omega": 1.0, "d": 1.0}',
            "--grid-points", "32", out_name="scan.csv",
        )
        rows = list(csv.reader(text.splitlines()))
        xs = np.asarray([float(r[0]) for r in rows[1:]])
        from shapeinv import GridSpec, ParamPoint, get_family, make_grid

        fam = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=1.0, d=1.0))
        grid = make_grid(fam, GridSpec(n_points=32), m_values=(-3.0, -4.0))
        assert np.array_equal(xs, grid)  # 17 significant digits reproduce doubles exactly

    @pytest.mark.parametrize("tag,seed", [("Xl-Poschl-Teller", 3), ("Xl-PT-Scarf", 7)])
    def test_epsilon_columns_are_the_compatibility_samples(self, tmp_path, tag, seed):
        # scan --m-list m,m-1,m-2 builds the grid verify builds for the
        # point, and writes compatibility_lhs's samples at m
        p = sample_valid_params(tag, 1, seed)[0]
        m_list = (p.m, p.m - 1.0, p.m - 2.0)
        code, text = run(tmp_path, "scan", "--family", tag, "--params", json.dumps(p.to_dict()),
                         "--m-list=" + ",".join(map(repr, m_list)), out_name="scan.csv")
        assert code == 0
        rows = list(csv.reader(text.splitlines()))
        assert rows[0][:3] == ["x", f"eps[m={p.m:g}]_re", f"eps[m={p.m:g}]_im"]
        columns = np.asarray(rows[1:], dtype=float).T
        fam = get_family(tag, p)
        grid = make_grid(fam, GridSpec(), m_values=m_list)
        eps = np.asarray(compatibility_lhs(fam, p.m, grid), dtype=complex)
        assert np.array_equal(columns[0], grid)
        assert np.array_equal(columns[1], eps.real)
        assert np.array_equal(columns[2], eps.imag)
        assert (tag == "Xl-PT-Scarf") == np.any(eps.imag != 0.0)

    def test_potentials_reuse_the_epsilon_values(self, tmp_path, monkeypatch):
        # one kernel pass, for the grid (its edge is a closed form): V+-
        # read the epsilon columns' W table, and equal V+- evaluated alone
        # bit for bit
        from shapeinv import catalog, partner_potentials

        points = []
        poly_eval = catalog.poly_eval
        monkeypatch.setattr(catalog, "poly_eval",
                            lambda spec, z, *a, **kw: points.append(np.size(z))
                            or poly_eval(spec, z, *a, **kw))
        code, text = run(tmp_path, "scan", "--family", "Xl-Poschl-Teller", "--sample", "1",
                         "--seed", "3", out_name="scan.csv")
        assert code == 0
        assert points == [512]
        rows = list(csv.reader(text.splitlines()))
        assert rows[0][-2:] == ["V_minus", "V_plus"]
        columns = np.asarray(rows[1:], dtype=float).T
        p = sample_valid_params("Xl-Poschl-Teller", 1, 3)[0]
        v_minus, v_plus = partner_potentials(get_family("Xl-Poschl-Teller", p), p.m,
                                             columns[0])
        assert np.array_equal(columns[-2], v_minus.values)
        assert np.array_equal(columns[-1], v_plus.values)

    @pytest.mark.parametrize("command", ["scan", "spectrum"])
    @pytest.mark.parametrize("source, message", [
        (["--sample", "3"], "{command} runs one parameter point: sample must be at most 1"),
        (["--sample", "2", "--params", '{"m": -3.0, "omega": 2.0, "d": 1.0}'],
         "give params or sample, not both: params with sample 2"),
    ])
    def test_more_than_one_point_exit_2(self, command, source, message, capsys):
        # both run one parameter point; --sample 3 once wrote the report of
        # --sample 1
        code = main([command, "--family", "X1-radial-oscillator", *source])
        assert code == 2
        assert message.format(command=command) in capsys.readouterr().err

    def test_complex_family_has_no_potential_columns(self, tmp_path):
        code, text = run(
            tmp_path, "scan", "--family", "Xl-PT-Scarf",
            "--params", '{"m": 0.5, "B": -1.5, "ell": 1}',
            "--grid-points", "32", out_name="scan.csv",
        )
        assert code == 0
        header = text.splitlines()[0].split(",")
        assert "V_minus" not in header
        assert any(name.endswith("_im") for name in header)


class TestSpectrum:
    def test_x1_radial(self, tmp_path):
        code, text = run(
            tmp_path, "spectrum", "--family", "X1-radial-oscillator",
            "--params", '{"m": -3.0, "omega": 2.0, "d": 1.0}',
            "--k", "5", "--spectrum-points", "2000", "--no-timestamp",
        )
        doc = json.loads(text)
        assert code == 0
        spect = doc["spectrum"]
        assert spect["mismatch"] < 1e-4
        assert len(spect["plus"]) == 5
        assert not {"minus", "minus_error_estimates", "minus_shifted"} & set(spect)
        # k, the grid's points and the tolerance are in the spectrum block
        assert set(doc["config"]) == {"family", "perturb", "sample", "seed"}

    def test_more_than_one_m_exit_2(self, capsys):
        # spectrum runs one m; --m-list=-3,-9 once wrote the report of no list
        code = main(["spectrum", "--family", "X1-radial-oscillator",
                     "--params", '{"m": -3.0, "omega": 2.0, "d": 1.0}', "--m-list=-3,-9"])
        assert code == 2
        assert "spectrum runs one m: m_list must hold one value, got 2" in capsys.readouterr().err

    def test_invalid_m_exit_2(self, tmp_path, capsys):
        # D+ = 7 - 2x^2 vanishes at x = 1.871, inside the window [0.1, 10.98]
        # the spectrum once ran on: it exited 0 with mismatch 3.7e-10
        out = tmp_path / "spectrum.json"
        code = main(["spectrum", "--family", "X1-radial-oscillator",
                     "--params", '{"m": 2.0, "omega": 2.0, "d": 1.0}',
                     "--no-timestamp", "--out", str(out)])
        assert code == 2
        assert "m = 2.0 violates m < -(1 + 2*d)/2" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_translate_exit_2(self, tmp_path, capsys):
        # m = 0.3 lies in X1-hyperbolic's region m > 0 here, m - 1, the
        # partner V-(., m - 1) + R is built from, does not
        out = tmp_path / "spectrum.json"
        code = main(["spectrum", "--family", "X1-hyperbolic",
                     "--params", '{"m": 0.3, "c": 1.0, "beta": 0.5, "d": 1.0}',
                     "--no-timestamp", "--out", str(out)])
        assert code == 2
        assert "m = -0.7 violates m > (2*beta + c^2 - 2*c*d)/(2*c^2)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("omega", ["1e80", "1e150"])
    def test_solve_beyond_float_range_exit_2(self, omega, tmp_path, capsys):
        # ||T||_1 reaches 4e160 and 4e300: the solve's squared residuals
        # overflow, and it once exited 0 after RuntimeWarnings from inverse
        # iteration, with levels near 2.5e157 and 2.5e297
        out = tmp_path / "spectrum.json"
        code = main(["spectrum", "--family", "X1-radial-oscillator",
                     "--params", f'{{"m": -3.0, "omega": {omega}, "d": 1.0}}',
                     "--no-timestamp", "--out", str(out)])
        assert code == 2
        assert "squared residuals overflow float64" in capsys.readouterr().err
        assert not out.exists()

    def test_large_omega_within_float_range_exit_0(self, tmp_path):
        # ||T||_1 about 4e80: its square is finite, and the spectrum runs
        code, text = run(
            tmp_path, "spectrum", "--family", "X1-radial-oscillator",
            "--params", '{"m": -3.0, "omega": 1e40, "d": 1.0}', "--no-timestamp",
        )
        assert code == 0
        assert np.all(np.isfinite(json.loads(text)["spectrum"]["plus"]))

    def test_complex_family_exit_2(self, capsys):
        code = main([
            "spectrum", "--family", "Xl-PT-Scarf",
            "--params", '{"m": 0.5, "B": -1.5, "ell": 1}',
        ])
        assert code == 2
        assert "unsupported" in capsys.readouterr().err

    def test_k_zero_exit_2(self, capsys):
        code = main([
            "spectrum", "--family", "X1-radial-oscillator",
            "--params", '{"m": -3.0, "omega": 2.0, "d": 1.0}', "--k", "0",
        ])
        assert code == 2
