"""End-to-end command-line flows, exit codes, and reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pstarann as pa
from pstarann.cli import main


MODEL1_CONFIG = {
    "lattice": {"n1": 6, "n2": 6},
    "model": {"p": 1, "q": 2, "h": 1, "density": "normal", "linear_term": False},
    "covariates": [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}],
    "theta": {"phi0": 0.6, "phi": [-0.274], "beta": [], "lambda": [1.5],
              "gamma": [[0.75, -0.35]]},
    "simulate": {"T": 8, "burn_in": 100},
    "optim": {"n_starts": 3},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSimulateCommand:
    def test_outputs_and_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        panel = (out / "panel.csv").read_text().splitlines()
        assert len(panel) - 1 == (8 + 1) * 36  # (T + p) * n data rows
        assert (out / "theta.json").exists()
        for t in (6, 7, 8):
            assert (out / f"heatmap_t{t}.csv").exists()

    def test_seed_repetition_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(a), "--seed", "9"])
        main(["simulate", "--config", cfg, "--out", str(b), "--seed", "9"])
        assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()

    def test_noncausal_config_exit_2(self, tmp_path, capsys):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["theta"]["phi"] = [1.5]
        cfg = write_config(tmp_path, cfg_dict)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "root modulus" in capsys.readouterr().err

    def test_noncausal_message_shared(self, tmp_path, capsys):
        # simulate, psi_expansion and replicate raise one and the same error
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["theta"]["phi"] = [1.5]
        cfg = write_config(tmp_path, cfg_dict)
        spec = pa.ModelSpec(W=pa.build_queen_lattice(6, 6), p=1, q=2, h=1,
                            density=pa.normal(), linear_term=False)
        theta = pa.ParameterVector.from_json_dict(cfg_dict["theta"])
        messages = []
        for call in (lambda: pa.simulate(spec, theta, T=8,
                                         covariate_columns=cfg_dict["covariates"]),
                     lambda: pa.psi_expansion(spec, theta, 3)):
            with pytest.raises(ValueError) as exc:
                call()
            messages.append(str(exc.value))
        for command in (["simulate"], ["replicate", "--replicates", "2"]):
            code = main(command + ["--config", cfg, "--out", str(tmp_path / "x")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            messages.append(err[len("error: "):].rstrip("\n"))
        assert len(set(messages)) == 1, messages
        assert "non-causal parameters" in messages[0] and "root modulus" in messages[0]
        assert "exceeds 1 - 1e-06" in messages[0]

    @pytest.mark.parametrize("command", [["simulate"], ["replicate", "--replicates", "2"]])
    def test_inadmissible_phi0_exit_2(self, tmp_path, capsys, command):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["theta"]["phi0"] = 1.5
        cfg = write_config(tmp_path, cfg_dict)
        code = main(command + ["--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "phi0=1.5 outside the admissible interval" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("model", "p", 1.7),
        ("model", "h", True),
        ("model", "q", "2"),
        ("model", "linear_term", "false"),
        ("model", "intercept", "no"),
        ("model", "linear_term", 0),
        ("simulate", "T", 8.9),
        ("simulate", "burn_in", 100.5),
        ("lattice", "n1", 6.5),
        ("optim", "n_starts", "3"),
        ("optim", "max_iter", float("inf")),
        ("optim", "tol", float("nan")),
        ("optim", "tol", True),
    ])
    def test_mistyped_config_key_exit_2(self, tmp_path, capsys, section, key, value):
        # replicate reads every section before its first simulation
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict[section][key] = value
        cfg = write_config(tmp_path, cfg_dict)
        code = main(["replicate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--replicates", "2"])
        assert code == 2
        assert f"error: {section}.{key} must be " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section, key, value, commands", [
        ("optim", "n_starts", 0, ["fit", "replicate"]),
        ("optim", "max_iter", 0, ["fit", "replicate"]),
        ("simulate", "T", 0, ["simulate", "replicate"]),
        ("simulate", "T", -2, ["simulate", "replicate"]),
        ("simulate", "burn_in", -1, ["simulate", "replicate"]),
        ("optim", "tol", -1.0, ["fit", "replicate"]),
        ("optim", "tol", "abc", ["fit", "replicate"]),
    ])
    def test_out_of_range_config_key_exit_2(self, tmp_path, capsys, section, key, value,
                                            commands):
        # rejected while the config is read: no replicate runs, no panel is written
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict[section][key] = value
        cfg = write_config(tmp_path, cfg_dict)
        main(["simulate", "--config", write_config(tmp_path, MODEL1_CONFIG, "ok.json"),
              "--out", str(tmp_path / "sim")])
        extra = {"fit": ["--panel", str(tmp_path / "sim" / "panel.csv")],
                 "replicate": ["--replicates", "2"], "simulate": []}
        capsys.readouterr()
        for command in commands:
            out = tmp_path / command
            code = main([command, "--config", cfg, "--out", str(out)] + extra[command])
            assert code == 2
            minimum = 0 if key in ("burn_in", "tol") else 1
            expected = (f"a finite number, got {value!r}" if isinstance(value, str)
                        else f">= {minimum}, got {value}")
            assert capsys.readouterr().err == f"error: {section}.{key} must be {expected}\n"
            assert not out.exists()

    def test_missing_density_named_once(self, tmp_path, capsys):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        del cfg_dict["model"]["density"]
        code = main(["simulate", "--config", write_config(tmp_path, cfg_dict),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "error: model: missing required key 'density'\n"

    def test_integer_valued_floats_accepted(self, tmp_path, capsys):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["lattice"]["n1"] = 6.0
        cfg_dict["simulate"]["T"] = 8.0
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", write_config(tmp_path, MODEL1_CONFIG, "int.json"),
              "--out", str(a), "--seed", "2"])
        assert main(["simulate", "--config", write_config(tmp_path, cfg_dict),
                     "--out", str(b), "--seed", "2"]) == 0
        capsys.readouterr()
        assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()

    @pytest.mark.parametrize("section, value, commands, expected", [
        ("optim", [1], ["fit", "replicate"], "config.optim must be a JSON object, got [1]"),
        ("simulate", 8, ["simulate", "replicate"], "config.simulate must be a JSON object, got 8"),
        ("theta", [0.6], ["simulate"], "config.theta must be a JSON object, got [0.6]"),
        ("lattice", "6x6", ["simulate", "fit"], "config.lattice must be a JSON object, got '6x6'"),
        ("model", {**MODEL1_CONFIG["model"], "density": 5}, ["simulate", "fit"],
         "model.density must be a string, got 5"),
        ("covariates", ["normal", "normal"], ["simulate", "fit", "replicate"],
         "covariates[0] must be a JSON object, got 'normal'"),
        ("covariates", {"a": 1, "b": 2}, ["simulate", "fit"],
         "config.covariates must be a JSON array, got {'a': 1, 'b': 2}"),
        ("covariates", [{"sd": "abc"}, {"sd": 3.0}], ["simulate", "replicate"],
         "covariates[0].sd must be a finite number, got 'abc'"),
        ("covariates", [{"sd": 1.5}, {"kind": "constant", "value": None}], ["simulate"],
         "covariates[1].value must be a finite number, got None"),
        ("covariates", [{"kind": 1}, {"sd": 3.0}], ["simulate"],
         "covariates[0].kind must be a string, got 1"),
        ("covariates", [{"sd": 1.5}, {"kind": "poisson"}], ["simulate", "replicate"],
         "covariates[1].kind must be 'normal' or 'constant', got 'poisson'"),
    ])
    def test_mistyped_config_section_exit_2(self, sim_dir, capsys, section, value, commands,
                                            expected):
        # a section or covariate spec of the wrong JSON type is rejected while
        # the config is read, naming it; no output directory is written
        tmp, _, sim = sim_dir
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict[section] = value
        cfg = write_config(tmp, cfg_dict, "mistyped.json")
        extra = {"fit": ["--panel", str(sim / "panel.csv")],
                 "replicate": ["--replicates", "2"], "simulate": []}
        capsys.readouterr()
        for command in commands:
            out = tmp / f"mistyped_{command}"
            code = main([command, "--config", cfg, "--out", str(out)] + extra[command])
            assert code == 2
            assert capsys.readouterr().err == f"error: {expected}\n"
            assert not out.exists()

    @pytest.mark.parametrize("density", ["t:nan", "t:inf"])
    def test_non_finite_t_degrees_of_freedom_exit_2(self, sim_dir, capsys, density):
        tmp, _, sim = sim_dir
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["model"]["density"] = density
        cfg = write_config(tmp, cfg_dict, f"{density[2:]}.json")
        for command in (["simulate"], ["fit", "--panel", str(sim / "panel.csv")]):
            code = main(command + ["--config", cfg, "--out", str(tmp / "nu")])
            assert code == 2
            assert f"got nu={density[2:]}" in capsys.readouterr().err
        assert not (tmp / "nu").exists()

    def test_bad_json_named_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "lattice": {,}\n}')
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]"])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "scalar.json: the config must be a JSON object" in capsys.readouterr().err

    def test_theta_without_phi0_exit_2(self, tmp_path, capsys):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        del cfg_dict["theta"]["phi0"]
        cfg = write_config(tmp_path, cfg_dict)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "theta: missing required key 'phi0'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("block, entry, value, name", [
        ("phi0", None, float("nan"), "phi0"),
        ("lambda", 0, float("inf"), "lambda1"),
        ("gamma", (0, 1), float("-inf"), "gamma12"),
    ])
    def test_nonfinite_theta_entry_named_exit_2(self, tmp_path, capsys, block, entry,
                                                value, name):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        if entry is None:
            cfg_dict["theta"][block] = value
        elif isinstance(entry, tuple):
            cfg_dict["theta"][block][entry[0]][entry[1]] = value
        else:
            cfg_dict["theta"][block][entry] = value
        cfg = write_config(tmp_path, cfg_dict)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "theta: non-finite value for" in err and f"{name} (" in err

    def test_missing_key_reported(self, tmp_path, capsys):
        cfg_dict = {"lattice": {"n1": 3, "n2": 3}, "model": {"p": 1, "q": 0,
                    "h": 0, "density": "normal"}, "covariates": []}
        cfg = write_config(tmp_path, cfg_dict)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "theta" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flow")
    cfg = write_config(tmp, MODEL1_CONFIG)
    out = tmp / "sim"
    main(["simulate", "--config", cfg, "--out", str(out), "--seed", "3"])
    return tmp, cfg, out


class TestFitCommand:
    def test_fit_recovers_within_4_sds(self, sim_dir, capsys):
        tmp, cfg, out = sim_dir
        fit_out = tmp / "fit"
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(fit_out), "--seed", "0"])
        assert code == 0
        capsys.readouterr()
        result = json.loads((fit_out / "fit.json").read_text())
        truth = pa.ParameterVector.from_json_dict(MODEL1_CONFIG["theta"])
        est = pa.ParameterVector.from_json_dict(result["parameters"])
        se = np.array(result["std_errors"])
        gap = np.abs(est.to_array() - truth.to_array())
        assert np.all(gap <= 4.0 * se)
        assert (fit_out / "fit.txt").exists()
        assert (fit_out / "diagnostics.json").exists()
        diag = json.loads((fit_out / "diagnostics.json").read_text())
        assert len(diag["moran_per_t"]) == 8

    def test_one_workspace_per_fit(self, sim_dir, capsys, monkeypatch):
        # the starts, the covariance and the diagnostics read the fit's
        # workspace instead of building their own
        built = []
        real_init = pa.LikelihoodWorkspace.__init__

        def counting_init(self, spec, data):
            built.append(data)
            real_init(self, spec, data)

        monkeypatch.setattr(pa.LikelihoodWorkspace, "__init__", counting_init)
        tmp, cfg, out = sim_dir
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(tmp / "fit_one_ws"), "--seed", "0"])
        capsys.readouterr()
        assert code == 0
        assert len(built) == 1
        assert (tmp / "fit_one_ws" / "diagnostics.json").exists()

    def test_fit_json_records_log_det_build(self, sim_dir, capsys):
        tmp, cfg, out = sim_dir
        runs = []
        for name in ("a", "b"):
            main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                  "--out", str(tmp / name), "--seed", "2"])
            runs.append(json.loads((tmp / name / "fit.json").read_text()))
        capsys.readouterr()
        for run in runs:
            assert run["log_det"]["backend"] == "spectrum"  # n = 36
            assert run["log_det"]["build_s"] > 0.0
            run["log_det"].pop("build_s")
            for start in run["trace"]:
                start.pop("seconds")
        assert runs[0] == runs[1]
        assert (tmp / "a" / "fit.txt").read_bytes() == (tmp / "b" / "fit.txt").read_bytes()

    def test_malformed_csv_row_exit_2(self, sim_dir, capsys):
        tmp, cfg, out = sim_dir
        bad = tmp / "bad.csv"
        lines = (out / "panel.csv").read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",not_a_number"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--config", cfg, "--panel", str(bad),
                     "--out", str(tmp / "fitbad")])
        assert code == 2
        assert "line 6" in capsys.readouterr().err

    # the ids name each injected fault by its row, which is its line
    @pytest.mark.parametrize("fault, expected", [
        pytest.param("duplicate", "line 326 repeats (t, s) = (1, 3) of line 41",
                     id="duplicate-row 326 repeats (t, s) = (1, 3) of row 41"),
        pytest.param("nan", "non-finite value at line 41", id="nan-non-finite value at row 41"),
        pytest.param("inf", "non-finite value at line 41", id="inf-non-finite value at row 41"),
        pytest.param("presample", "covariate value on presample line 4",
                     id="presample-covariate value on presample row 4"),
    ])
    def test_bad_csv_row_exit_2(self, sim_dir, capsys, fault, expected):
        # 6x6 lattice, p = 1, T = 8: lines 2-37 are presample (t = 0), line 41
        # is (t, s) = (1, 3) and line 325 is the last
        tmp, cfg, out = sim_dir
        lines = (out / "panel.csv").read_text().splitlines()
        t, s, y, x1, x2 = lines[40].split(",")
        if fault == "duplicate":
            lines.append(lines[40])
        elif fault == "nan":
            lines[40] = ",".join((t, s, "nan", x1, x2))
        elif fault == "inf":
            lines[40] = ",".join((t, s, y, "inf", x2))
        else:
            lines[3] += "0.5"
        bad = tmp / f"bad_{fault}.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--config", cfg, "--panel", str(bad),
                     "--out", str(tmp / f"fit_{fault}")])
        assert code == 2
        assert expected in capsys.readouterr().err

    def test_panel_of_other_lattice_exit_2(self, sim_dir, capsys):
        tmp, _, out = sim_dir
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["lattice"] = {"n1": 5, "n2": 5}
        cfg = write_config(tmp, cfg_dict, "lattice5.json")
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(tmp / "fit5")])
        assert code == 2
        assert "panel has n=36" in capsys.readouterr().err

    def test_unreachable_tolerance_exit_3_with_diagnostics(self, sim_dir, capsys):
        tmp, cfg, out = sim_dir
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["optim"] = {"n_starts": 2, "tol": 0.0}
        cfg0 = write_config(tmp, cfg_dict, "tol0.json")
        fit_out = tmp / "fit_tol0"
        code = main(["fit", "--config", cfg0, "--panel", str(out / "panel.csv"),
                     "--out", str(fit_out), "--seed", "0"])
        assert code == 3
        assert (fit_out / "fit.json").exists()
        assert (fit_out / "diagnostics.json").exists()
        capsys.readouterr()

    def test_numerical_guard_exit_3_with_message(self, sim_dir, capsys, monkeypatch):
        def failing_hessian(self, theta):
            raise pa.NumericalError("Hessian asymmetry 1.000e-03 exceeds tolerance")

        monkeypatch.setattr(pa.LikelihoodWorkspace, "hessian", failing_hessian)
        tmp, cfg, out = sim_dir
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(tmp / "fit_guard"), "--seed", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: Hessian asymmetry" in err

    def test_laplace_table_without_se_columns(self, tmp_path, capsys):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["model"]["density"] = "laplace"
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out), "--seed", "2"])
        capsys.readouterr()
        fit_out = tmp_path / "fit"
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(fit_out), "--seed", "0"])
        assert code == 0
        text = (fit_out / "fit.txt").read_text()
        assert "Std." not in text
        assert "Laplace" in text  # covariance-unavailable note
        result = json.loads((fit_out / "fit.json").read_text())
        assert "std_errors" not in result
        assert "covariance_note" in result


class TestReplicateCommand:
    def test_r2_runs_with_bessel_denominator(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "rep"
        code = main(["replicate", "--config", cfg, "--out", str(out),
                     "--seed", "5", "--replicates", "2"])
        assert code == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["R"] == 2 and summary["n_success"] == 2
        est = np.array([r["estimate"] for r in summary["records"]])
        assert np.allclose(summary["empirical_sd"], est.std(axis=0, ddof=1))

    def test_r1_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        code = main(["replicate", "--config", cfg, "--out", str(tmp_path / "r"),
                     "--replicates", "1"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        code = main(["replicate", "--config", cfg, "--out", str(tmp_path / "r"),
                     "--replicates", "2", "--threads", threads])
        assert code == 2
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"
        assert not (tmp_path / "r").exists()

    def test_replicates_flag_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "--config", cfg, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "--replicates" in capsys.readouterr().err

    def test_thread_count_does_not_change_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        a, b = tmp_path / "t1", tmp_path / "t2"
        main(["replicate", "--config", cfg, "--out", str(a), "--seed", "8",
              "--replicates", "4", "--threads", "1"])
        main(["replicate", "--config", cfg, "--out", str(b), "--seed", "8",
              "--replicates", "4", "--threads", "2"])
        capsys.readouterr()
        assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()
        ja = json.loads((a / "summary.json").read_text())
        jb = json.loads((b / "summary.json").read_text())
        assert ja["mean"] == jb["mean"] and ja["empirical_sd"] == jb["empirical_sd"]

    def test_rank_deficient_design_rejected_per_replicate(self, tmp_path, capsys):
        # two constant columns: every X_t has rank 1 < q, so each replicate's
        # fit must refuse the data instead of fitting an unidentified model
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["covariates"] = [{"kind": "constant", "value": 1.0},
                                  {"kind": "constant", "value": 2.0}]
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "rep"
        code = main(["replicate", "--config", cfg, "--out", str(out),
                     "--seed", "5", "--replicates", "2"])
        capsys.readouterr()
        assert code == 3
        records = json.loads((out / "summary.json").read_text())["records"]
        assert [r["ok"] for r in records] == [False, False]
        assert all("rank deficient at t=1" in r["error"] for r in records)

    def test_partial_failures_recorded(self, tmp_path, capsys, monkeypatch):
        import pstarann.cli as cli

        real_fit = cli.fit
        calls = {"n": 0}

        def flaky_fit(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic optimizer failure")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(cli, "fit", flaky_fit)
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "rep"
        code = main(["replicate", "--config", cfg, "--out", str(out),
                     "--seed", "5", "--replicates", "3"])
        assert code == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_success"] == 2 and summary["n_failed"] == 1
        failed = [r for r in summary["records"] if not r["ok"]]
        assert len(failed) == 1 and "synthetic optimizer failure" in failed[0]["error"]
        assert " 2" in (out / "summary.txt").read_text()  # count column

    def test_failures_counted_by_type(self, tmp_path, capsys, monkeypatch):
        import pstarann.cli as cli

        real_fit = cli.fit
        calls = {"n": 0}

        def fit_failing_once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise pa.FitError("all 5 starts failed to produce a finite optimum")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(cli, "fit", fit_failing_once)
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "rep"
        code = main(["replicate", "--config", cfg, "--out", str(out),
                     "--seed", "5", "--replicates", "2"])
        assert code == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures_by_type"] == {"FitError": 1}
        failed, ok = summary["records"]
        assert failed["error_type"] == "FitError" and not failed["ok"]
        assert failed["error"].startswith("FitError: all 5 starts failed")
        assert ok["ok"] and "error_type" not in ok

    def test_all_failures_exit_3(self, tmp_path, capsys, monkeypatch):
        import pstarann.cli as cli

        def broken_fit(*args, **kwargs):
            raise RuntimeError("synthetic optimizer failure")

        monkeypatch.setattr(cli, "fit", broken_fit)
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "rep"
        code = main(["replicate", "--config", cfg, "--out", str(out),
                     "--replicates", "2"])
        assert code == 3
        assert "failed" in (out / "summary.txt").read_text()
        capsys.readouterr()

    def test_fixed_design_reuses_covariates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "fx"
        code = main(["replicate", "--config", cfg, "--out", str(out), "--seed", "6",
                     "--replicates", "2", "--fixed-design"])
        assert code == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_success"] == 2


class TestReplicateCovariance:
    """Each replicate record carries the fit's covariance note."""

    TINY = dict(MODEL1_CONFIG, lattice={"n1": 4, "n2": 4}, simulate={"T": 6, "burn_in": 50},
                optim={"n_starts": 2})

    def run_one(self, density, r=1, seed=4):
        import pstarann.cli as cli

        cfg = json.loads(json.dumps(self.TINY))
        cfg["model"]["density"] = density
        W = cli.build_weights(cfg)
        spec = cli.build_spec(cfg, W)
        theta = cli.build_theta(cfg, spec)
        sim = cfg["simulate"]
        payload = (spec, theta, sim["T"], sim["burn_in"], cfg["covariates"], None, seed, r,
                   cli._optim_options(cfg))
        rec = cli._replicate_one(payload)
        # the replicate's own panel, regenerated from the same seed
        data = pa.simulate(spec, theta, seed=np.random.SeedSequence(seed, spawn_key=(r,)),
                           burn_in=sim["burn_in"], T=sim["T"],
                           covariate_columns=cfg["covariates"])
        return spec, data, rec

    def test_normal_se_matches_sandwich(self):
        spec, data, rec = self.run_one("normal")
        assert rec["ok"] and rec["covariance_note"] is None
        theta_hat = pa.ParameterVector.from_array(rec["estimate"], spec)
        se = pa.sandwich_covariance(pa.LikelihoodWorkspace(spec, data), theta_hat)["se"]
        assert_allclose(rec["asymptotic_se"], se, rtol=0, atol=1e-12)

    def test_laplace_se_null_with_note(self):
        spec, data, rec = self.run_one("laplace")
        assert rec["ok"]
        assert rec["asymptotic_se"] is None
        assert "Laplace" in rec["covariance_note"]


class TestPureSpatialConfig:
    def test_q0_model_flows(self, tmp_path, capsys):
        cfg_dict = {
            "lattice": {"n1": 5, "n2": 5},
            "model": {"p": 1, "q": 0, "h": 0, "density": "normal"},
            "theta": {"phi0": 0.5, "phi": [-0.2], "beta": [], "lambda": [],
                      "gamma": []},
            "simulate": {"T": 10, "burn_in": 50},
            "optim": {"n_starts": 2},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(tmp_path / "fit")])
        assert code == 0
        capsys.readouterr()


class TestAdjacencyInput:
    def test_adjacency_flow(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        lines = ["i,j"]
        for i in range(11):
            lines.append(f"{i},{i + 1}")  # path graph on 12 nodes
        edges.write_text("\n".join(lines) + "\n")
        cfg_dict = {
            "adjacency": {"file": "edges.csv", "n": 12},
            "model": {"p": 0, "q": 1, "h": 0, "density": "normal"},
            "covariates": [{"kind": "normal", "sd": 1.0}],
            "theta": {"phi0": 0.25, "phi": [], "beta": [0.5], "lambda": [],
                      "gamma": []},
            "simulate": {"T": 5, "burn_in": 20},
            "optim": {"n_starts": 2},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        # no lattice: no heatmap grids, but the panel exists
        assert (out / "panel.csv").exists()
        assert not list(out.glob("heatmap_*.csv"))
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(tmp_path / "fit")])
        assert code == 0
        capsys.readouterr()


class TestStartup:
    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats takes most of a second to import; the CLI needs none of it
        src = str(Path(pa.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import sys, pstarann.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "False"
