import csv
import json

import numpy as np
import pytest

from shapeinv import FAMILY_TAGS, REAL_TAGS
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
    ])
    def test_non_integral_config_value_exit_2(self, tmp_path, capsys, field, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "X1-radial-oscillator", "params": self.X1,
                                        field: value}), encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err


def assert_reference_json(text, doc):
    """text is json.dumps(doc, indent=2, sort_keys=True) + newline.  The
    first differing byte is reported instead of a diff of two 50 KB texts."""
    ref = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if text != ref:
        i = next((i for i, (a, b) in enumerate(zip(text, ref)) if a != b), min(len(text), len(ref)))
        pytest.fail(f"differs at byte {i} of {len(ref)}: {text[max(i - 40, 0):i + 40]!r} "
                    f"instead of {ref[max(i - 40, 0):i + 40]!r}")


def written_docs(monkeypatch, tmp_path, *args):
    """The documents main hands to the JSON writer, and the text it wrote."""
    docs = []
    real = cli._dump_json

    def recording(doc):
        docs.append(doc)
        return real(doc)

    monkeypatch.setattr(cli, "_dump_json", recording)
    code, text = run(tmp_path, *args)
    assert len(docs) == 1
    return code, docs[0], text


class TestJsonWriter:
    """_dump_json is json.dumps(doc, indent=2, sort_keys=True) + newline, byte
    for byte; only the way it spells epsilon_samples differs."""

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_sampled_verify_reports(self, monkeypatch, tmp_path, tag):
        code, doc, text = written_docs(monkeypatch, tmp_path, "verify", "--family", tag,
                                       "--sample", "3", "--seed", "7", "--no-timestamp")
        assert code == 0
        assert len(doc["results"]) == 3
        assert all(len(r["epsilon_samples"]) == 512 for r in doc["results"])
        if tag == "Xl-PT-Scarf":
            assert any(im != 0.0 for r in doc["results"] for _, _, im in r["epsilon_samples"])
        assert_reference_json(text, doc)
        assert_reference_json(cli._dump_json(doc), doc)

    def test_perturbed_control(self, monkeypatch, tmp_path):
        code, doc, text = written_docs(monkeypatch, tmp_path, "verify", "--family",
                                       "Xl-Poschl-Teller", "--sample", "1", "--seed", "5",
                                       "--perturb", "0.01")
        assert code == 1
        assert "timestamp" in doc
        assert_reference_json(text, doc)

    def test_empty_samples(self, monkeypatch, tmp_path):
        code, doc, text = written_docs(monkeypatch, tmp_path, "verify", "--family",
                                       "X1-trigonometric", "--sample", "2", "--seed", "5",
                                       "--checks", "translation", "--no-timestamp")
        assert code == 0
        assert [r["epsilon_samples"] for r in doc["results"]] == [[], []]
        assert_reference_json(text, doc)

    def test_spectrum_report(self, monkeypatch, tmp_path):
        code, doc, text = written_docs(monkeypatch, tmp_path, "spectrum", "--family",
                                       REAL_TAGS[-1], "--sample", "1", "--seed", "5",
                                       "--k", "3", "--spectrum-points", "1000",
                                       "--no-timestamp")
        assert code == 0
        assert_reference_json(text, doc)

    def test_verify_with_spectrum(self, monkeypatch, tmp_path):
        code, doc, text = written_docs(monkeypatch, tmp_path, "verify", "--family",
                                       "X1-hyperbolic", "--sample", "2", "--seed", "5",
                                       "--checks", "compatibility,remainder,spectrum",
                                       "--spectrum-points", "1000", "--no-timestamp")
        assert code == 0
        assert "spectrum" in doc["results"][1]
        assert_reference_json(text, doc)

    def test_special_floats(self):
        nan, inf = float("nan"), float("inf")
        doc = {
            "schema": "s",
            "results": [
                {"epsilon_samples": [[0.0, -0.0, 5e-324], [nan, inf, -inf],
                                     [1e300, -1.7976931348623157e308, 0.1]],
                 "residuals": {"a": nan}},
                {"epsilon_samples": []},
                {"epsilon_samples": [[1.0, 2.0, 3.0], []], "z": [[4.0]]},
                {"epsilon_samples": [[np.float64(2.5)], [-1.0]], "m_list": [1.0]},
            ],
            "overall_pass": False,
        }
        text = cli._dump_json(doc)
        assert_reference_json(text, doc)
        assert isinstance(doc["results"][0]["epsilon_samples"], list)  # input untouched
        assert "NaN" in text and "-Infinity" in text and "5e-324" in text


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

        fam = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=1.0, d=1.0)).family
        grid = make_grid(fam, GridSpec(n_points=32), m_values=(-3.0, -4.0))
        assert np.array_equal(xs, grid)  # 17 significant digits reproduce doubles exactly

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
        assert len(spect["minus_shifted"]) == 5

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
