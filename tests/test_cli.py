"""End-to-end command-line flows, exit codes, and reproducibility."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import pstarann as pa
from conftest import assert_reads_agree, skew_every_gram
from pstarann import _csv, weights
from pstarann.cli import main, write_diagnostics
from pstarann.diagnostics import residual_diagnostics
from pstarann.simulate import BURN_IN


MODEL1_CONFIG = {
    "lattice": {"n1": 6, "n2": 6},
    "model": {"p": 1, "q": 2, "h": 1, "density": "normal", "linear_term": False},
    "covariates": [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}],
    "theta": {"phi0": 0.6, "phi": [-0.274], "beta": [], "lambda": [1.5],
              "gamma": [[0.75, -0.35]]},
    "simulate": {"T": 8, "burn_in": 100},
    "optim": {"n_starts": 3},
}


ALL_COMMANDS = ["simulate", "fit", "replicate"]


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

    @pytest.mark.parametrize("command", [
        ["simulate"], ["replicate", "--replicates", "2"],
        ["replicate", "--replicates", "2", "--threads", "2"]],
        ids=["simulate-lu", "replicate-spectral", "replicate-pool"])
    def test_overflowing_network_argument_exit_2(self, tmp_path, capsys, command):
        # gamma x overflows for every nonzero x; the sigmoid would saturate
        # and hide it, so it is refused before any panel is written
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["theta"]["gamma"] = [[1e308, 1.0]]
        cfg = write_config(tmp_path, cfg_dict)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(command + ["--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: theta.gamma: the network argument gamma x is not finite")
        assert not (tmp_path / "x").exists()

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
        # each section is typed while the config is read, also by a command
        # that does not read it
        ("optim", "tol", "1e-8"),
        ("theta", "phi0", "x"),
    ])
    def test_mistyped_config_key_exit_2(self, tmp_path, capsys, section, key, value):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict[section][key] = value
        cfg = write_config(tmp_path, cfg_dict)
        for command in (["simulate"], ["fit", "--panel", str(tmp_path / "panel.csv")],
                        ["replicate", "--replicates", "2"]):
            code = main(command + ["--config", cfg, "--out", str(tmp_path / "x")])
            assert code == 2
            assert f"error: {section}.{key} must be " in capsys.readouterr().err, command
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section, key, value, commands", [
        ("optim", "n_starts", 0, ["fit", "replicate"]),
        ("optim", "max_iter", 0, ["fit", "replicate"]),
        ("simulate", "T", 0, ["simulate", "replicate"]),
        ("simulate", "T", -2, ["simulate", "replicate"]),
        ("simulate", "burn_in", -1, ["simulate", "replicate"]),
        ("optim", "tol", -1.0, ["fit", "replicate"]),
        ("optim", "tol", "abc", ["fit", "replicate"]),
        # model orders and design sizes, before any weights are built
        ("model", "p", -1, ALL_COMMANDS),
        ("model", "q", -1, ALL_COMMANDS),
        ("model", "h", -1, ALL_COMMANDS),
        ("lattice", "n1", 0, ALL_COMMANDS),
        ("lattice", "n2", 0, ALL_COMMANDS),
        ("adjacency", "n", 0, ALL_COMMANDS),
    ])
    def test_out_of_range_config_key_exit_2(self, tmp_path, capsys, section, key, value,
                                            commands):
        # rejected while the config is read: no replicate runs, no panel is written
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict.setdefault(section, {"file": "edges.csv"})[key] = value
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
            minimum = 0 if key in ("burn_in", "tol", "p", "q", "h") else 1
            expected = (f"a finite number, got {value!r}" if isinstance(value, str)
                        else f">= {minimum}, got {value}")
            assert capsys.readouterr().err == f"error: {section}.{key} must be {expected}\n"
            assert not out.exists()

    def test_network_without_covariates_exit_2(self, tmp_path, capsys):
        # each order is in range, but h = 1 neuron needs q >= 1 covariates:
        # ModelSpec refuses it, and the message names the model section
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["model"]["q"] = 0
        cfg = write_config(tmp_path, cfg_dict)
        extra = {"fit": ["--panel", str(tmp_path / "panel.csv")],
                 "replicate": ["--replicates", "2"], "simulate": []}
        for command in ALL_COMMANDS:
            out = tmp_path / command
            code = main([command, "--config", cfg, "--out", str(out)] + extra[command])
            assert code == 2
            assert capsys.readouterr().err == \
                "error: model: network component needs q >= 1 covariates\n"
            assert not out.exists()

    @pytest.mark.parametrize("section, key, value, limit", [
        ("lattice", "n1", 1e20, "MAX_LOCATIONS"),
        ("lattice", "n2", 1e20, "MAX_LOCATIONS"),
        ("adjacency", "n", 1e20, "MAX_LOCATIONS"),
        ("optim", "n_starts", 1e308, "MAX_STARTS"),
        ("optim", "n_starts", 1001, "MAX_STARTS"),
        ("model", "p", 1e6, "MAX_ORDER"),
        ("model", "h", 1e8, "MAX_ORDER"),
        ("model", "q", 1e8, "MAX_ORDER"),
    ])
    def test_too_large_config_key_exit_2(self, tmp_path, capsys, monkeypatch, section, key,
                                         value, limit):
        # rejected while the config is read, under every command; a fit that
        # reached its starts would raise here instead of drawing them
        import pstarann.cli as cli
        import pstarann.estimate as estimate

        def no_starts(*args, **kwargs):
            raise AssertionError("initial_points reached")

        monkeypatch.setattr(estimate, "initial_points", no_starts)
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        if section == "adjacency":
            cfg_dict["adjacency"] = {"file": "edges.csv", "n": 36}
            del cfg_dict["lattice"]
        cfg_dict[section][key] = value
        cfg = write_config(tmp_path, cfg_dict)
        for command in (["simulate"], ["fit", "--panel", str(tmp_path / "panel.csv")],
                        ["replicate", "--replicates", "2"]):
            out = tmp_path / command[0]
            code = main(command + ["--config", cfg, "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err == \
                f"error: {section}.{key} must be <= {getattr(cli, limit)}, got {value!r}\n"
            assert not out.exists()

    def test_lattice_above_max_locations_exit_2(self, tmp_path, capsys, monkeypatch):
        # each side of the 6x6 lattice is within the bound, their product is
        # not: no W is built (the bound is lowered, so that a tree without
        # the check does not build a W of MAX_LOCATIONS locations)
        import pstarann.cli as cli

        monkeypatch.setattr(cli, "MAX_LOCATIONS", 30)
        monkeypatch.setattr(cli, "build_queen_lattice", None)
        code = main(["simulate", "--config", write_config(tmp_path, MODEL1_CONFIG),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "error: lattice: n1 n2 = 36 locations exceeds 30\n"

    def test_ragged_theta_gamma_named(self, tmp_path, capsys):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["model"]["h"] = 2
        cfg_dict["theta"].update({"lambda": [1.5, 0.5], "gamma": [[1.0, 2.0], [3.0]]})
        cfg = write_config(tmp_path, cfg_dict)
        for command in (["simulate"], ["fit", "--panel", str(tmp_path / "panel.csv")],
                        ["replicate", "--replicates", "2"]):
            code = main(command + ["--config", cfg, "--out", str(tmp_path / "x")])
            assert code == 2
            assert capsys.readouterr().err == ("error: theta.gamma must have rows of equal "
                                               "length, got lengths [2, 1]\n")

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
        # every command checks every section, also one it does not read
        ("optim", [1], ["simulate", "fit", "replicate"],
         "config.optim must be a JSON object, got [1]"),
        ("simulate", 8, ["simulate", "fit", "replicate"],
         "config.simulate must be a JSON object, got 8"),
        ("theta", [0.6], ["simulate", "fit"], "config.theta must be a JSON object, got [0.6]"),
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

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        # the parser's recursion limit, not a traceback
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        for command in (["simulate"], ["fit", "--panel", str(tmp_path / "panel.csv")],
                        ["replicate", "--replicates", "2"]):
            code = main(command + ["--config", str(path), "--out", str(tmp_path / "x")])
            assert code == 2
            assert capsys.readouterr().err == \
                f"error: {path}: invalid JSON: nested too deeply\n"
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]"])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "scalar.json: the config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("simulate", "burnin"), 50, "simulate: unknown key 'burnin'"),
        (("optim", "nstarts"), 2, "optim: unknown key 'nstarts'"),
        (("optimizer",), {"n_starts": 2}, "config: unknown key 'optimizer'"),
        (("model", "intercpt"), True, "model: unknown key 'intercpt'"),
        (("lattice", "n3"), 2, "lattice: unknown key 'n3'"),
        (("theta", "lam"), [1.5], "theta: unknown key 'lam'"),
        # a normal column drawn with sd 1, a constant one drawn N(0, 1), a
        # value that a normal column ignores, and a negative sd
        (("covariates", 0), {"kind": "normal", "sigma": 9}, "unknown key 'sigma'"),
        (("covariates", 0), {"knd": "constant", "value": 1}, "unknown key 'knd'"),
        (("covariates", 0), {"kind": "normal", "value": 7}, "unknown key 'value'"),
        (("covariates", 0), {"kind": "normal", "sd": -1.5},
         "covariates[0].sd must be >= 0, got -1.5"),
    ], ids=["simulate.burnin", "optim.nstarts", "optimizer", "model.intercpt", "lattice.n3",
            "theta.lam", "normal-sigma", "knd-constant", "normal-value", "negative-sd"])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, path, value, message):
        # every command checks every section, also one it does not read
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        *parents, last = path
        section = cfg_dict
        for key in parents:
            section = section[key]
        section[last] = value
        cfg = write_config(tmp_path, cfg_dict)
        for command in (["simulate"], ["fit", "--panel", str(tmp_path / "panel.csv")],
                        ["replicate", "--replicates", "2"]):
            code = main(command + ["--config", cfg, "--out", str(tmp_path / "x")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, (command, err)
            assert not (tmp_path / "x").exists()

    def test_theta_without_phi0_exit_2(self, tmp_path, capsys):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        del cfg_dict["theta"]["phi0"]
        cfg = write_config(tmp_path, cfg_dict)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "theta: missing required key 'phi0'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("block, value, message", [
        # model 2 (h = 2, q = 2) with its gamma written as one row, and a
        # nested phi: neither may be flattened into theta
        ("gamma", [[0.75, 0.7, 0.35, -1.0]],
         "theta: gamma must be a 2-D array with one row per neuron (h=2), got shape (1, 4)"),
        pytest.param("phi", [[0.1]], "theta.phi[0] must be a finite number, got [0.1]",
                     id="phi-value1-theta: phi must be a 1-D array, got shape (1, 1)"),
        ("phi0", [0.5], "theta.phi0 must be a finite number, got [0.5]"),
        ("beta", {"x1": 0.5}, "theta.beta must be a JSON array, got {'x1': 0.5}"),
    ])
    def test_theta_block_of_wrong_shape_exit_2(self, tmp_path, capsys, block, value, message):
        cfg_dict = json.loads((Path(__file__).resolve().parent.parent / "demos"
                               / "model2.json").read_text())
        cfg_dict["theta"][block] = value
        cfg = write_config(tmp_path, cfg_dict)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"), "--seed", "1"])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    # the ids name each entry as param_names does
    @pytest.mark.parametrize("block, entry, value, path", [
        ("phi0", None, float("nan"), "theta.phi0"),
        ("lambda", 0, float("inf"), "theta.lambda[0]"),
        ("gamma", (0, 1), float("-inf"), "theta.gamma[0][1]"),
    ], ids=["phi0-None-nan-phi0", "lambda-0-inf-lambda1", "gamma-entry2--inf-gamma12"])
    def test_nonfinite_theta_entry_named_exit_2(self, tmp_path, capsys, block, entry,
                                                value, path):
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
        assert capsys.readouterr().err == f"error: {path} must be a finite number, got {value}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("block, value, message", [
        # one number rule for theta and every other section: a JSON number,
        # not a numeric string, a boolean or null
        ("phi0", "0.5", "theta.phi0 must be a finite number, got '0.5'"),
        ("phi", ["-0.2"], "theta.phi[0] must be a finite number, got '-0.2'"),
        ("lambda", [True], "theta.lambda[0] must be a finite number, got True"),
        ("gamma", [[True, 1.0]], "theta.gamma[0][0] must be a finite number, got True"),
        ("gamma", [0.75, -0.35], "theta.gamma[0] must be a JSON array, got 0.75"),
        ("phi0", None, "theta.phi0 must be a finite number, got None"),
        ("phi0", 10**400, "theta.phi0 must be a finite number, got 1000"),
    ], ids=["phi0-string", "phi-string", "lambda-true", "gamma-true", "gamma-flat",
            "phi0-null", "phi0-long-int"])
    def test_theta_number_rule_exit_2(self, tmp_path, capsys, block, value, message):
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["theta"][block] = value
        cfg = write_config(tmp_path, cfg_dict)
        for command in (["simulate"], ["fit", "--panel", str(tmp_path / "panel.csv")],
                        ["replicate", "--replicates", "2"]):
            code = main(command + ["--config", cfg, "--out", str(tmp_path / "x")])
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: {message}"), command
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", [["simulate"], ["replicate", "--replicates", "2"],
                                         ["replicate", "--replicates", "2", "--fixed-design"]])
    def test_simulation_too_large_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # refused from the sizes alone, before anything is drawn
        import pstarann.cli as cli

        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was attempted")

        monkeypatch.setattr(cli, "generate_covariates", no_draw)
        monkeypatch.setattr(cli, "simulate", no_draw)
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["simulate"]["T"] = 10**12
        cfg = write_config(tmp_path, cfg_dict)
        code = main(command + ["--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: simulate.T = 1000000000000 is too large: (burn_in + p + T) n max(q, 1) = "
            f"{(100 + 1 + 10**12) * 36 * 2} entries exceeds 2147483648\n")
        assert not (tmp_path / "x").exists()

    def test_simulation_size_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        # (burn_in + p + T) n max(q, 1) = (100 + 1 + 8) * 36 * 2 entries; an
        # absent burn_in counts as simulate()'s default
        import pstarann.cli as cli

        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg = write_config(tmp_path, cfg_dict)
        del cfg_dict["simulate"]["burn_in"]
        default = write_config(tmp_path, cfg_dict, "default_burn_in.json")
        for path, entries in ((cfg, 109 * 72), (default, (BURN_IN + 9) * 72)):
            for limit, expected in ((entries, 0), (entries - 1, 2)):
                monkeypatch.setattr(cli, "MAX_SIMULATION_ENTRIES", limit)
                assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) \
                    == expected
        capsys.readouterr()

    def test_missing_key_reported(self, tmp_path, capsys):
        cfg_dict = {"lattice": {"n1": 3, "n2": 3}, "model": {"p": 1, "q": 0,
                    "h": 0, "density": "normal"}, "covariates": []}
        cfg = write_config(tmp_path, cfg_dict)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "theta" in capsys.readouterr().err


def hostile_config(density="normal", linear=False):
    """A copy of ``TestFitCommand.HOSTILE_CONFIG`` with ``density``, and with
    a linear term, beta (0.5, -0.3), when ``linear``."""
    cfg = json.loads(json.dumps(TestFitCommand.HOSTILE_CONFIG))
    cfg["model"]["density"] = density
    if linear:
        cfg["model"]["linear_term"] = True
        cfg["theta"]["beta"] = [0.5, -0.3]
    return cfg


# in-place changes of a hostile panel (TestFitCommand.hostile_panel)
def unchanged(data):
    pass


def overflow_covariates(data):
    data.X[...] *= 1e200


def zero_first_covariate(data):  # X_t rank deficient: exit 2
    data.X[..., 0] = 0.0


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

    def test_fit_json_records_log_det_build(self, sim_dir, capsys, monkeypatch):
        tmp, cfg, out = sim_dir
        runs = []
        for name in ("a", "b"):
            main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                  "--out", str(tmp / name), "--seed", "2"])
            runs.append(json.loads((tmp / name / "fit.json").read_text()))
        capsys.readouterr()
        for run in runs:
            assert list(run["log_det"]) == ["backend", "build_s", "pieces", "factorizations"]
            assert run["log_det"]["backend"] == "spectrum"  # n = 36
            assert run["log_det"]["build_s"] > 0.0 and run["log_det"]["pieces"] == []
            assert run["log_det"]["factorizations"] == 0
            run["log_det"].pop("build_s")
            for start in run["trace"]:
                start.pop("seconds")
        assert runs[0] == runs[1]
        assert (tmp / "a" / "fit.txt").read_bytes() == (tmp / "b" / "fit.txt").read_bytes()

        # on the series the fit stays at phi0 >= 0, but on this small panel a
        # trust-region trial reaches the box's edge, 0.995: both positive
        # pieces, each with its own node LUs
        monkeypatch.setattr(weights, "N_SERIES", 20)
        main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
              "--out", str(tmp / "series"), "--seed", "2"])
        capsys.readouterr()
        log_det = json.loads((tmp / "series" / "fit.json").read_text())["log_det"]
        assert log_det["backend"] == "series"
        assert log_det["pieces"] == ["positive-inner", "positive-outer"]
        nodes = weights.SERIES_NODES["positive-inner"] + weights.SERIES_NODES["positive-outer"]
        assert log_det["build_s"] > 0.0 and log_det["factorizations"] == nodes

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

    # faults that stop fit before any estimate: a config that cannot be read,
    # one that builds no weights or a spec with the wrong covariate count,
    # and a panel with one period (t = 4) missing
    @pytest.mark.parametrize("fault, expected", [
        ("no-config", "config file not found: "),
        ("no-weights", "config needs exactly one of 'lattice' or 'adjacency'"),
        ("covariates", "covariates: 1 column specs but model.q=2"),
        ("time-gap", "time index has gaps"),
    ])
    def test_input_fault_exit_2(self, sim_dir, capsys, fault, expected):
        tmp, cfg, out = sim_dir
        cfg_dict, panel = json.loads(json.dumps(MODEL1_CONFIG)), out / "panel.csv"
        if fault == "no-config":
            cfg = str(tmp / "missing.json")
        elif fault == "no-weights":
            del cfg_dict["lattice"]
        elif fault == "covariates":
            del cfg_dict["covariates"][1]
        else:
            lines = panel.read_text().splitlines()
            panel = tmp / "gap.csv"
            panel.write_text("".join(f"{line}\n" for line in lines if not line.startswith("4,")))
        if fault in ("no-weights", "covariates"):
            cfg = write_config(tmp, cfg_dict, f"{fault}.json")
        capsys.readouterr()
        code = main(["fit", "--config", cfg, "--panel", str(panel), "--out",
                     str(tmp / f"fit_{fault}")])
        assert code == 2
        assert expected in capsys.readouterr().err

    def test_intercept_not_exactly_one_exit_2(self, tmp_path, capsys):
        # an intercept column only close to 1 is an input error, named by
        # its value, t and s, not a failed canonicalization check (exit 3)
        cfg_dict = json.loads(json.dumps(MODEL1_CONFIG))
        cfg_dict["model"].update(q=2, linear_term=True, intercept=True)
        cfg_dict["covariates"] = [{"kind": "constant", "value": 1.0},
                                  {"kind": "normal", "sd": 1.5}]
        cfg_dict["theta"].update(beta=[0.3, -0.5])
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        lines = (out / "panel.csv").read_text().splitlines()
        t, s, y, _, x2 = lines[40].split(",")  # (t, s) = (1, 3)
        lines[40] = ",".join((t, s, y, "1.000000001", x2))
        bad = tmp_path / "bad_intercept.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["fit", "--config", cfg, "--panel", str(bad), "--out", str(tmp_path / "fit")])
        assert code == 2
        assert ("spec declares an intercept but X[:, :, 0] is not exactly 1: "
                "1.000000001 at t=1, s=3") in capsys.readouterr().err

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
        # with tol = 0 the projected gradient never passes: every start ends
        # at the trust radius' stop, the only Tier-1 fit that reaches it
        trace = json.loads((fit_out / "fit.json").read_text())["trace"]
        assert [record["message"] for record in trace] == \
            ["trust radius fell below the rounding of x"] * 2
        capsys.readouterr()

    def test_numerical_guard_exit_3_with_message(self, sim_dir, capsys, monkeypatch):
        # an asymmetric Hessian fails the start that meets it, as a non-finite
        # entry does; with every start failed, fit_error.json says why. The
        # skewed Grams trip hessian's own asymmetry check
        skew_every_gram(monkeypatch)
        tmp, cfg, out = sim_dir
        fit_out = tmp / "fit_guard"
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(fit_out), "--seed", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: all 3 starts failed") and "Hessian asymmetry" in err
        assert sorted(p.name for p in fit_out.iterdir()) == ["fit_error.json"]
        trace = json.loads((fit_out / "fit_error.json").read_text())["trace"]
        assert len(trace) == 3
        for start in trace:
            assert re.fullmatch(r"Hessian failed: Hessian asymmetry \S+ exceeds tolerance",
                                start["message"]), start

    @pytest.mark.parametrize("fault", ["series pivot", "canonicalization"])
    def test_numerical_error_without_estimate_writes_fit_error(self, sim_dir, monkeypatch,
                                                                fault):
        # the two NumericalErrors that end a fit: a log-det series node that
        # fails its pivot check (a fault of W, not of one start) and the
        # canonicalization check. Each exits 3 with fit_error.json, no fit.json
        if fault == "series pivot":
            real = weights._splu

            def unordered(A, permc_spec):  # every node; the ordering LU reads no pivots
                lu = real(A, permc_spec)
                if permc_spec == "NATURAL":
                    return SimpleNamespace(U=lu.U, perm_r=lu.perm_r[::-1], perm_c=lu.perm_c)
                return lu

            monkeypatch.setattr(weights, "N_SERIES", 20)
            monkeypatch.setattr(weights, "_splu", unordered)
            message, backend = "sparse LU left its symmetric ordering", "series"
        else:
            def shifted(theta, include_intercept):  # no longer the same residuals
                theta = theta.copy()
                theta.lam = theta.lam + 0.5
                return theta

            monkeypatch.setattr(pa.estimate, "canonicalize", shifted)
            message, backend = "canonicalization changed the log-likelihood", "spectrum"
        tmp, cfg, out = sim_dir
        fit_out = tmp / f"fit_{fault}"
        code, err = run_main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                              "--out", str(fit_out), "--seed", "0"])
        assert code == 3, err
        assert sorted(p.name for p in fit_out.iterdir()) == ["fit_error.json"]
        record = json.loads((fit_out / "fit_error.json").read_text())
        assert err == f"error: {record['error']}\n"
        assert record["error"].startswith(message)
        if fault == "series pivot":  # its node fails in fit's log-det build, before any start
            assert record["trace"] == []
        else:  # every start ran and reached an optimum
            assert len(record["trace"]) == MODEL1_CONFIG["optim"]["n_starts"]
            assert all(start["loglik"] is not None for start in record["trace"])
        assert record["log_det"]["backend"] == backend

    # model 1 as demos/model1.json has it, on a 6x6 lattice with T = 8
    HOSTILE_CONFIG = {**MODEL1_CONFIG, "simulate": {"T": 8, "burn_in": 200},
                      "optim": {"n_starts": 5, "tol": 1e-8, "max_iter": 500}}

    def hostile_panel(self, tmp_path, cfg_dict, change, name="hostile"):
        """(config path, panel path): a panel simulated with seed 3 under
        ``cfg_dict``, then ``change(data)`` in place, written to ``name``.csv."""
        cfg = write_config(tmp_path, cfg_dict)
        code, err = run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"),
                              "--seed", "3"])
        assert (code, err) == (0, "")
        data = pa.read_panel_csv(tmp_path / "sim" / "panel.csv", p=1, q=2)
        change(data)
        pa.write_panel_csv(tmp_path / f"{name}.csv", data)
        return cfg, str(tmp_path / f"{name}.csv")

    def overflowing_panel(self, tmp_path):
        """(config path, panel path): the hostile panel with a linear term,
        beta (0.5, -0.3), and its covariates times 1e200."""
        return self.hostile_panel(tmp_path, hostile_config(linear=True), overflow_covariates)

    def test_overflowing_covariates_exit_3_or_agree(self, tmp_path):
        # X times 1e200 overflows the Hessian's beta block to inf: a start
        # that meets it fails, and a covariance that meets it is a note. A
        # NaN that reached eigh would raise LinAlgError, a ValueError: exit 2
        cfg, panel = self.overflowing_panel(tmp_path)
        out = tmp_path / "fit"
        code, err = run_main(["fit", "--config", cfg, "--panel", panel, "--out", str(out),
                              "--seed", "1"])
        assert code in (0, 3), err
        if (out / "fit.json").exists():
            assert json.loads((out / "fit.json").read_text())["converged"] == (code == 0)
        else:
            assert code == 3 and "Hessian entry (beta1, beta1) is not finite" in err, err
        assert "Traceback" not in err

    def test_every_start_failed_writes_fit_error(self, tmp_path):
        # every start of this fit fails on the Hessian: no fit.json, whose
        # parameters a reader would take for an estimate, but each start's
        # record, with the log-det's, in fit_error.json
        cfg, panel = self.overflowing_panel(tmp_path)
        out = tmp_path / "fit"
        code, err = run_main(["fit", "--config", cfg, "--panel", panel, "--out", str(out),
                              "--seed", "1"])
        assert code == 3, err
        assert not (out / "fit.json").exists()
        record = json.loads((out / "fit_error.json").read_text())
        assert sorted(record) == ["error", "log_det", "trace"]
        assert err == f"error: {record['error']}\n"
        assert record["log_det"]["backend"] == "spectrum"
        assert len(record["trace"]) == 5
        for start in record["trace"]:
            assert start["loglik"] is None
            assert "Hessian entry (beta1, beta1) is not finite" in start["message"]

    def test_overflowing_covariates_raise_no_runtime_warning(self, tmp_path):
        # the fit names the entry that overflowed; numpy's overflow warnings
        # from the Hessian's products would only repeat it on stderr
        cfg, panel = self.overflowing_panel(tmp_path)
        code, _, warned = main_warnings(["fit", "--config", cfg, "--panel", panel,
                                      "--out", str(tmp_path / "fit"), "--seed", "1"])
        assert code == 3
        assert warned == []

    @pytest.mark.parametrize("first, second, left", [
        (unchanged, overflow_covariates, ["fit_error.json"]),
        (overflow_covariates, unchanged, ["diagnostics.json", "fit.json", "fit.txt"]),
        (unchanged, zero_first_covariate, []),
    ], ids=["success-then-failed", "failed-then-success", "success-then-exit-2"])
    def test_reused_out_holds_only_the_last_run(self, tmp_path, first, second, left):
        # an earlier run's files leave --out before the next fit reads its
        # input, so a reader that takes fit.json for the estimate never
        # reads a stale one, whatever the next fit's exit
        outcomes = {unchanged: ((0, 3), ["diagnostics.json", "fit.json", "fit.txt"]),
                    overflow_covariates: ((3,), ["fit_error.json"]),
                    zero_first_covariate: ((2,), [])}
        out = tmp_path / "fit"
        for k, change in enumerate((first, second)):
            cfg, panel = self.hostile_panel(tmp_path, hostile_config(linear=True), change,
                                            f"p{k}")
            code, err = run_main(["fit", "--config", cfg, "--panel", panel, "--out", str(out),
                                  "--seed", "1"])
            codes, files = outcomes[change]
            assert code in codes, err
            assert sorted(p.name for p in out.iterdir()) == files
        assert files == left

    def test_indefinite_sandwich_is_a_note(self, tmp_path, monkeypatch):
        # y = 1 everywhere: this normal fit converges, but its sandwich has a
        # negative eigenvalue. fit.json reports the point estimates and says
        # why it has no standard errors; a replicate record of the same fit
        # (fit seed 1 + r for r = 0, on the eigenbasis' spectrum, whose tau
        # differ from the dense spectrum's in their last bits) has no
        # asymptotic SEs either
        import pstarann.cli as cli

        def ones(data):
            data.Y[...] = 1.0

        cfg, panel = self.hostile_panel(tmp_path, hostile_config(), ones)
        out = tmp_path / "fit"
        code, _, warned = main_warnings(["fit", "--config", cfg, "--panel", panel,
                                         "--out", str(out), "--seed", "1"])
        assert (code, warned) == (0, [])
        record = json.loads((out / "fit.json").read_text())
        assert record["covariance_note"].startswith(
            "sandwich covariance is not positive definite (min eigenvalue -")
        assert not {"std_errors", "ci95", "covariance"} & set(record)
        assert f"note: {record['covariance_note']}" in (out / "fit.txt").read_text()

        data = pa.read_panel_csv(panel, p=1, q=2)
        monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: data)
        code, err = run_main(["replicate", "--config", cfg, "--out", str(tmp_path / "rep"),
                              "--seed", "1", "--replicates", "2"])
        assert code == 0, err
        records = json.loads((tmp_path / "rep" / "summary.json").read_text())["records"]
        assert records[0]["covariance_note"].startswith(
            "sandwich covariance is not positive definite (min eigenvalue -")
        assert records[0]["asymptotic_se"] is None
        for r in records:
            assert (r["asymptotic_se"] is None) == ("covariance_note" in r)

    def ones_laplace_panel(self, tmp_path):
        """(config path, panel path): the hostile panel with y = 1 everywhere,
        for a Laplace fit."""
        def ones(data):
            data.Y[...] = 1.0

        return self.hostile_panel(tmp_path, hostile_config("laplace"), ones)

    def test_non_canonical_estimate_raises_no_runtime_warning(self, tmp_path):
        # this fit ends with gamma_11 < 0 and no intercept column to flip it:
        # fit.json and fit.txt record the non-canonical form, and no warning
        # repeats it on stderr
        cfg, panel = self.ones_laplace_panel(tmp_path)
        out = tmp_path / "fit"
        code, _, warned = main_warnings(["fit", "--config", cfg, "--panel", panel,
                                      "--out", str(out), "--seed", "1"])
        assert code == 0
        assert warned == []
        assert json.loads((out / "fit.json").read_text())["canonical"] is False
        assert "warning: estimate reported in non-canonical form" in (out / "fit.txt").read_text()

    def test_constant_panel_laplace_fit_exit_0_with_diagnostics(self, tmp_path):
        # y = 1 everywhere: this Laplace fit reaches residuals that are
        # constant in every slice, where Moran's I is undefined. Its entries
        # are null with their reason, and the exit code follows converged
        cfg, panel = self.ones_laplace_panel(tmp_path)
        out = tmp_path / "fit"
        code, err = run_main(["fit", "--config", cfg, "--panel", panel, "--out", str(out),
                              "--seed", "1"])
        assert json.loads((out / "fit.json").read_text())["converged"] == (code == 0)
        assert code == 0, err
        moran = json.loads((out / "diagnostics.json").read_text())["moran_per_t"]
        assert len(moran) == 8
        for entry in moran:
            if entry["I"] is None:
                assert entry["z"] is None and entry["pvalue"] is None
                assert entry["reason"] == "residuals constant in this slice: Moran's I is undefined"

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


class TestDiagnosticsJSON:
    """``fit`` writes diagnostics.json through ``cli.write_diagnostics``, which
    dumps the QQ pairs one block of ``_csv.BLOCK_ROWS`` at a time."""

    @pytest.mark.parametrize("block_rows", [1, 2, None], ids=["block1", "block2", "default"])
    @pytest.mark.parametrize("pairs", ["none", "one", "blocks"])
    def test_bytes_of_one_dumps(self, tmp_path, monkeypatch, block_rows, pairs):
        if block_rows:
            monkeypatch.setattr(_csv, "BLOCK_ROWS", block_rows)
        rows = {"none": 0, "one": 1, "blocks": 2 * _csv.BLOCK_ROWS + 3}[pairs]
        qq = np.sort(np.random.default_rng(rows).standard_normal((rows, 2)), axis=0)
        diag = {"moran_per_t": [0.25, -0.125, float("nan")], "qq": qq}
        write_diagnostics(tmp_path / "diagnostics.json", diag)
        assert (tmp_path / "diagnostics.json").read_text() == json.dumps(
            {"moran_per_t": diag["moran_per_t"], "qq": qq.tolist()})

    def test_write_peak(self, w2020, tmp_path):
        # the 12,000 QQ pairs of the replicate study's model-1 panel (20x20,
        # T = 30): one json.dumps of qq.tolist() peaked at 4.3 MB under
        # tracemalloc, blocks of pairs at 0.38 MB
        spec = pa.ModelSpec(W=w2020, p=1, q=2, h=1, density=pa.normal(), linear_term=False)
        residuals = np.random.default_rng(0).standard_normal((30, spec.n))
        diag = residual_diagnostics(spec, residuals)
        tracemalloc.start()
        try:
            write_diagnostics(tmp_path / "diagnostics.json", diag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6


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

    def test_records_carry_canonical_and_boundary_warning(self, tmp_path, capsys, monkeypatch):
        # a replicate record keeps the two caveats that fit.json records,
        # the study's one record of them
        import pstarann.cli as cli

        real_fit = cli.fit

        def caveated_fit(spec, data, seed, **kwargs):  # fit seeds 5 + r
            res = real_fit(spec, data, seed=seed, **kwargs)
            res.canonical, res.boundary_warning = seed % 2 == 0, seed % 2 == 1
            return res

        monkeypatch.setattr(cli, "fit", caveated_fit)
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "rep"
        code = main(["replicate", "--config", cfg, "--out", str(out),
                     "--seed", "5", "--replicates", "2"])
        assert code == 0
        capsys.readouterr()
        records = json.loads((out / "summary.json").read_text())["records"]
        assert [(r["canonical"], r["boundary_warning"]) for r in records] == [
            (False, True), (True, False)]

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

    @pytest.mark.parametrize("design", [[], ["--fixed-design"]],
                             ids=["random-design", "fixed-design"])
    def test_thread_count_does_not_change_series_summary(self, tmp_path, capsys, monkeypatch,
                                                         design):
        # a real pool: the study, X_fixed included, reaches each worker once
        monkeypatch.setattr(weights, "N_SERIES", 20)
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        for threads in ("1", "2"):
            main(["replicate", "--config", cfg, "--out", str(tmp_path / threads), "--seed", "8",
                  "--replicates", "3", "--threads", threads, *design])
        capsys.readouterr()
        assert (tmp_path / "1" / "summary.json").read_bytes() == \
            (tmp_path / "2" / "summary.json").read_bytes()

    def test_worker_builds_each_series_piece_at_most_once(self, tmp_path, capsys, monkeypatch):
        # a worker keeps the study it received, so a piece built for one
        # replicate serves its later ones; the parent builds none
        import pickle

        import pstarann.cli as cli

        parent = []

        class InlinePool:  # one worker: the study pickled once, the replicates run here
            def __init__(self, max_workers, initializer, initargs):
                parent.append(initargs[0][0])
                initializer(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        builds = []
        real_build = weights.LogDetSeries._build

        def counted_build(series, k):
            builds.append(weights.LogDetSeries.PIECES[k])
            return real_build(series, k)

        monkeypatch.setattr(weights, "N_SERIES", 20)
        monkeypatch.setattr(weights.LogDetSeries, "_build", counted_build)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_worker_job", None)
        out = tmp_path / "rep"
        code = main(["replicate", "--config", write_config(tmp_path, MODEL1_CONFIG), "--out",
                     str(out), "--seed", "8", "--replicates", "3", "--threads", "2"])
        capsys.readouterr()
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["n_success"] == 3
        assert "positive-inner" in builds
        assert len(builds) == len(set(builds))
        [spec] = parent
        assert "log_det_series" not in spec.W.__dict__

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
                raise pa.FitError("synthetic optimizer failure")
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
            raise pa.FitError("synthetic optimizer failure")

        monkeypatch.setattr(cli, "fit", broken_fit)
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "rep"
        code = main(["replicate", "--config", cfg, "--out", str(out),
                     "--replicates", "2"])
        assert code == 3
        assert "failed" in (out / "summary.txt").read_text()
        capsys.readouterr()

    def test_program_error_ends_the_study(self, tmp_path, capsys, monkeypatch):
        # only a fit's documented failures (ValueError, NumericalError) are
        # a failed replicate: a TypeError is a fault of the program, and
        # leaves cli.main with its traceback before any summary is written
        import pstarann.cli as cli

        def buggy_fit(*args, **kwargs):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(cli, "fit", buggy_fit)
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        out = tmp_path / "rep"
        with pytest.raises(TypeError, match="synthetic programming error"):
            main(["replicate", "--config", cfg, "--out", str(out), "--replicates", "2"])
        assert not (out / "summary.json").exists()
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

    @pytest.mark.parametrize("design", [[], ["--fixed-design"]],
                             ids=["random-design", "fixed-design"])
    def test_spectral_panels_agree_with_oracle(self, tmp_path, capsys, monkeypatch, design):
        # n = 36 is below N_SPECTRAL: each replicate's panel comes from the
        # eigenbasis and agrees with the LU oracle on the same draws
        import pstarann.cli as cli
        from conftest import (MODEL1_COLUMNS, assert_spectral_agrees, assert_spectral_draws,
                              oracle_simulate)

        panels = []
        real_fit = cli.fit

        def recording_fit(spec, data, **kwargs):
            panels.append((spec, data))
            return real_fit(spec, data, **kwargs)

        monkeypatch.setattr(cli, "fit", recording_fit)
        code = main(["replicate", "--config", write_config(tmp_path, MODEL1_CONFIG), "--out",
                     str(tmp_path / "rep"), "--seed", "6", "--replicates", "2", *design])
        capsys.readouterr()
        assert code == 0
        spec = panels[0][0]
        assert "eigenbasis" in spec.W.__dict__
        theta = pa.ParameterVector.from_json_dict(MODEL1_CONFIG["theta"])
        X = None
        if design:
            X = pa.generate_covariates(MODEL1_COLUMNS, spec.n, 100 + 1 + 8,
                                       np.random.SeedSequence(6, spawn_key=(10**6,)))
        kwargs = {"X": X, "burn_in": 100, "T": 8, "covariate_columns": MODEL1_COLUMNS}
        for r, (_, data) in enumerate(panels):
            seed = np.random.SeedSequence(6, spawn_key=(r,))
            assert_spectral_agrees(data, oracle_simulate(spec, theta, seed=seed, **kwargs))
            assert_spectral_draws(data, spec, theta, seed, 100 + 1 + 8, **kwargs)

    def test_spectral_summary_independent_of_thread_count(self, tmp_path, capsys):
        # a real pool below N_SPECTRAL: the workers filter in the eigenbasis
        # that the parent built and sent, so the summaries are the same bytes
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        for threads in ("1", "2"):
            main(["replicate", "--config", cfg, "--out", str(tmp_path / threads), "--seed", "3",
                  "--replicates", "3", "--threads", threads])
        capsys.readouterr()
        assert (tmp_path / "1" / "summary.json").read_bytes() == \
            (tmp_path / "2" / "summary.json").read_bytes()

    def test_eigenbasis_only_for_replicate_below_n_spectral(self, tmp_path, capsys,
                                                            monkeypatch):
        # simulate and fit keep A0's sparse LU, and so does replicate from
        # N_SPECTRAL locations on (lowered here below n = 36)
        import pstarann.cli as cli

        def no_basis(W):
            raise AssertionError("eigenbasis built")

        monkeypatch.setattr(weights.WeightMatrix, "eigenbasis", property(no_basis))
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
        assert main(["fit", "--config", cfg, "--panel", str(tmp_path / "sim" / "panel.csv"),
                     "--out", str(tmp_path / "fit")]) == 0
        monkeypatch.setattr(cli, "N_SPECTRAL", 36)
        assert main(["replicate", "--config", cfg, "--out", str(tmp_path / "rep"),
                     "--replicates", "2"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("phi", [[-0.274], [-0.2, 0.05, 0.02]], ids=["p1", "p3"])
    def test_replicate_builds_one_spectrum(self, tmp_path, capsys, monkeypatch, phi):
        # the basis comes first, so the p >= 3 causality check, the fits'
        # log-dets and traces and the panels all read its tau
        builds = []
        real = weights.WeightMatrix._spectrum

        def counting(W, vectors):
            builds.append(vectors)
            return real(W, vectors)

        monkeypatch.setattr(weights.WeightMatrix, "_spectrum", counting)
        cfg = dict(MODEL1_CONFIG, model=dict(MODEL1_CONFIG["model"], p=len(phi)),
                   theta=dict(MODEL1_CONFIG["theta"], phi=phi))
        code = main(["replicate", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "rep"), "--seed", "4", "--replicates", "2"])
        capsys.readouterr()
        assert code == 0
        assert builds == [True]

    def test_parent_builds_eigenbasis_before_workers(self, tmp_path, capsys, monkeypatch):
        import pickle

        import pstarann.cli as cli

        received = []

        class InlinePool:  # one worker: the study pickled once, the replicates run here
            def __init__(self, max_workers, initializer, initargs):
                parent_w = initargs[0][0].W
                assert "eigenbasis" in parent_w.__dict__
                initializer(*pickle.loads(pickle.dumps(initargs)))
                received.append((parent_w.eigenbasis, cli._worker_job[0].W.__dict__))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_worker_job", None)
        code = main(["replicate", "--config", write_config(tmp_path, MODEL1_CONFIG), "--out",
                     str(tmp_path / "rep"), "--seed", "8", "--replicates", "2", "--threads", "2"])
        capsys.readouterr()
        assert code == 0
        [(basis, worker)] = received
        for a, b in zip(basis, worker["eigenbasis"]):
            assert np.array_equal(a, b)


    def test_pool_starts_at_most_one_worker_per_replicate(self, tmp_path, capsys,
                                                            monkeypatch):
        # a pool forks all its workers at once; no real process starts here
        import pickle

        import pstarann.cli as cli

        workers = []

        class InlinePool:  # one worker: the study pickled once, the replicates run here
            def __init__(self, max_workers, initializer, initargs):
                workers.append(max_workers)
                initializer(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_worker_job", None)
        cfg = write_config(tmp_path, MODEL1_CONFIG)
        for threads in ("1", "64"):
            code = main(["replicate", "--config", cfg, "--out", str(tmp_path / threads),
                         "--seed", "8", "--replicates", "2", "--threads", threads])
            assert code == 0
        capsys.readouterr()
        assert workers == [2]
        assert (tmp_path / "1" / "summary.json").read_bytes() == \
            (tmp_path / "64" / "summary.json").read_bytes()


class TestReplicateCovariance:
    """Each replicate record is fit.json's record of its fit, covariance
    note included."""

    TINY = dict(MODEL1_CONFIG, lattice={"n1": 4, "n2": 4}, simulate={"T": 6, "burn_in": 50},
                optim={"n_starts": 2})

    def run_one(self, tmp_path, density, r=1, seed=4):
        """(spec, panel, record) of replicate r of the TINY study under
        ``density``. An ok record must be ``to_json_dict()`` of a fit of the
        replicate's own panel, regenerated here from the same seed, key by
        key with each start's ``seconds`` left out, plus the replicate's
        four keys."""
        import pstarann.cli as cli

        cfg = json.loads(json.dumps(self.TINY))
        cfg["model"]["density"] = density
        cfg = cli.load_config(write_config(tmp_path, cfg))
        spec = cli.build_spec(cfg, cli.build_weights(cfg))
        theta, sim, _ = cli.simulation_inputs(cfg, spec)
        # as cmd_replicate runs it at n = 16, below N_SPECTRAL
        sim["spectral"] = spec.n < cli.N_SPECTRAL
        rec = cli._replicate_one((spec, theta, sim, None, seed, cfg["optim"]), r)
        # the replicate's own panel, regenerated from the same seed
        data = pa.simulate(spec, theta, seed=np.random.SeedSequence(seed, spawn_key=(r,)),
                           burn_in=50, T=6, covariate_columns=self.TINY["covariates"],
                           spectral=sim["spectral"])
        if rec["ok"]:
            res = pa.fit(spec, data, seed=seed + r, covariance=True, **cfg["optim"])
            expected = res.to_json_dict()
            for start in expected["trace"]:
                del start["seconds"]
            expected.update(replicate=r, ok=True, estimate=res.theta.x.tolist(),
                            asymptotic_se=None if res.std_errors is None
                            else res.std_errors.tolist())
            assert set(rec) == set(expected)
            for key, value in expected.items():
                assert rec[key] == value, key
        return spec, data, rec

    def test_normal_se_matches_sandwich(self, tmp_path):
        spec, data, rec = self.run_one(tmp_path, "normal")
        assert rec["ok"] and "covariance_note" not in rec
        theta_hat = pa.ParameterVector.from_array(rec["estimate"], spec)
        se = pa.sandwich_covariance(pa.LikelihoodWorkspace(spec, data), theta_hat)["se"]
        assert_allclose(rec["asymptotic_se"], se, rtol=0, atol=1e-12)

    def test_laplace_se_null_with_note(self, tmp_path):
        spec, data, rec = self.run_one(tmp_path, "laplace")
        assert rec["ok"]
        assert rec["asymptotic_se"] is None
        assert "Laplace" in rec["covariance_note"]

    def test_fit_error_keeps_the_trace_of_its_starts(self, tmp_path, monkeypatch):
        # y x 1e300 overflows every start's objective, so the fit raises
        # FitError: the failed record keeps one trace entry per start that
        # ran, without its seconds, beside the error that fit_error.json holds
        import pstarann.cli as cli

        real_simulate = cli.simulate

        def overflowing(*args, **kwargs):
            data = real_simulate(*args, **kwargs)
            data.Y[...] *= 1e300
            return data

        monkeypatch.setattr(cli, "simulate", overflowing)
        _, _, rec = self.run_one(tmp_path, "normal")
        assert (rec["ok"], rec["error_type"]) == (False, "FitError")
        assert rec["error"].startswith("FitError: all 2 starts failed to produce a finite optimum")
        assert len(rec["trace"]) == self.TINY["optim"]["n_starts"]
        for start in rec["trace"]:
            assert set(start) == {"start_loglik", "loglik", "nit", "nfev", "message"}
            assert start["loglik"] is None


class TestPureSpatialConfig:
    CONFIG = {
        "lattice": {"n1": 5, "n2": 5},
        "model": {"p": 1, "q": 0, "h": 0, "density": "normal"},
        "theta": {"phi0": 0.5, "phi": [-0.2], "beta": [], "lambda": [],
                  "gamma": []},
        "simulate": {"T": 10, "burn_in": 50},
        "optim": {"n_starts": 2},
    }

    def test_q0_model_flows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        code = main(["fit", "--config", cfg, "--panel", str(out / "panel.csv"),
                     "--out", str(tmp_path / "fit")])
        assert code == 0
        capsys.readouterr()

    def test_q0_fixed_design_replicates(self, tmp_path, capsys):
        # no covariates to hold fixed: the fixed (T, n, 0) design draws nothing,
        # so the study is the one without --fixed-design, byte for byte
        cfg = write_config(tmp_path, self.CONFIG)
        summaries = []
        for flags in (["--fixed-design"], []):
            out = tmp_path / f"rep{len(summaries)}"
            code = main(["replicate", "--config", cfg, "--out", str(out), "--seed", "3",
                         "--replicates", "2"] + flags)
            capsys.readouterr()
            assert code == 0
            summaries.append((out / "summary.json").read_bytes())
        assert json.loads(summaries[0])["n_success"] == 2
        assert summaries[0] == summaries[1]


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

    def test_two_component_edge_list_accepted(self, tmp_path, capsys):
        # an edge list need not be connected: two disjoint 8-node paths are
        # one design of 16 locations, which simulate and fit both accept
        edges = [(i, i + 1) for first in (0, 8) for i in range(first, first + 7)]
        (tmp_path / "edges.csv").write_text("i,j\n" + "".join(f"{i},{j}\n" for i, j in edges))
        cfg = write_config(tmp_path, {
            "adjacency": {"file": "edges.csv", "n": 16},
            "model": {"p": 0, "q": 1, "h": 0, "density": "normal"},
            "covariates": [{"kind": "normal", "sd": 1.0}],
            "theta": {"phi0": 0.25, "phi": [], "beta": [0.5], "lambda": [], "gamma": []},
            "simulate": {"T": 5, "burn_in": 20},
            "optim": {"n_starts": 2},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
        assert main(["fit", "--config", cfg, "--panel", str(tmp_path / "sim" / "panel.csv"),
                     "--out", str(tmp_path / "fit")]) == 0
        capsys.readouterr()


# ----------------------------------------------------------------------
# Config fuzz gate: one mutation of a valid config per example (property-based
# testing after MacIver et al., "Hypothesis: a new approach to
# property-based testing", JOSS 2019)
# ----------------------------------------------------------------------

FUZZ_CONFIG = {
    "lattice": {"n1": 4, "n2": 4},
    "model": {"p": 1, "q": 2, "h": 1, "density": "normal", "linear_term": False},
    "covariates": [{"kind": "normal", "mean": 0.0, "sd": 1.5},
                   {"kind": "constant", "value": 1.0}],
    "theta": {"phi0": 0.6, "phi": [-0.274], "beta": [], "lambda": [1.5],
              "gamma": [[0.75, -0.35]]},
    "simulate": {"T": 4, "burn_in": 20},
    "optim": {"n_starts": 2, "tol": 1e-8, "max_iter": 500},
}
# keys that size an array or a loop: no mutation enlarges them
SIZE_KEYS = {"n1", "n2", "p", "q", "h", "T", "burn_in", "n_starts", "max_iter"}


def config_paths(node, path=()):
    """The path of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from config_paths(value, path + (key,))


def key_path(path):
    """A path as the CLI names it: ``theta.gamma[0][1]``, ``covariates[1].sd``."""
    head, *rest = path
    return head + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in rest)


def json_kind(value):
    return "number" if type(value) in (int, float) else type(value).__name__


@st.composite
def config_mutations(draw):
    """(config, path, what): FUZZ_CONFIG with the value at ``path`` replaced
    (what = "replace") or its key renamed (what = the new key)."""
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    paths = list(config_paths(cfg))
    path = draw(st.sampled_from(paths))
    *parents, last = path
    parent = cfg
    for key in parents:
        parent = parent[key]
    if isinstance(last, str) and draw(st.booleans()):
        new = last + "_" + draw(st.text("xyz", min_size=0, max_size=2))
        renamed = {new if key == last else key: value for key, value in parent.items()}
        parent.clear()
        parent.update(renamed)
        return cfg, path, new
    numbers = [0, -1, -2.5, -1e308] + ([] if last in SIZE_KEYS else [1e308])
    parent[last] = draw(st.one_of(
        st.text(max_size=3), st.sampled_from(["0.5", "1", "nan", "normal"]),
        st.booleans(), st.none(), st.sampled_from([[[0.5]], [[]], [["x"]]]),
        st.sampled_from(numbers)))
    return cfg, path, "replace"


@pytest.fixture(scope="module")
def fuzz_panel(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    assert main(["simulate", "--config", write_config(tmp, FUZZ_CONFIG), "--out",
                 str(tmp / "sim"), "--seed", "1"]) == 0
    return tmp / "sim" / "panel.csv"


class TestConfigFuzz:
    @settings(derandomize=True, max_examples=200, deadline=5000, database=None)
    @given(mutation=config_mutations())
    def test_one_mutation_exits_cleanly(self, fuzz_panel, mutation):
        # every outcome is a documented exit code; a value of the wrong JSON
        # type and an unknown key exit 2 under every command, naming the key
        cfg, path, what = mutation
        original = FUZZ_CONFIG
        for key in path:
            original = original[key]
        value = cfg
        for key in path if what == "replace" else ():
            value = value[key]
        if what != "replace":
            where = "config" if len(path) == 1 else key_path(path[:-1])
            expected = f"error: {where}: unknown key {what!r}"
        elif json_kind(value) != json_kind(original):
            name = f"config.{path[0]}" if len(path) == 1 else key_path(path)
            expected = f"error: {name} must be "
        else:
            expected = None
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), cfg)
            for command in (["simulate"], ["fit", "--panel", str(fuzz_panel)],
                            ["replicate", "--replicates", "2"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # an overflowing theta warns
                    code = main(command + ["--config", config, "--out", f"{tmp}/out",
                                           "--seed", "1"])
                assert code in (0, 2, 3), (command, code)
                if expected is not None:
                    assert code == 2 and err.getvalue().startswith(expected), \
                        (command, err.getvalue())


# ----------------------------------------------------------------------
# Hostile-panel fuzz gate: TestFitCommand's hostile model (model 1 on a 6x6
# lattice, T = 8, simulated with seed 3) under each error family, with and
# without a linear term, its panel changed one way: y or X times 10^k for
# |k| <= 300, a zero or constant covariate column, y = 1, y = 0, or one y of
# 1e300. Every fit must end in a documented outcome that leaves its record,
# and raise no RuntimeWarning in the package: fit.json or fit_error.json
# records every caveat and every non-finite value that a fit meets.
# ----------------------------------------------------------------------

HOSTILE_FAMILIES = ("normal", "t:5", "laplace")


@pytest.fixture(scope="module")
def hostile_bases(tmp_path_factory):
    """{(family, linear term): (config path, panel path)} of the unchanged panels."""
    tmp = tmp_path_factory.mktemp("hostile")
    bases = {}
    for family in HOSTILE_FAMILIES:
        for linear in (False, True):
            name = f"{family.replace(':', '')}{int(linear)}"
            cfg = write_config(tmp, hostile_config(family, linear), f"{name}.json")
            assert main(["simulate", "--config", cfg, "--out", str(tmp / name),
                         "--seed", "3"]) == 0
            bases[family, linear] = cfg, tmp / name / "panel.csv"
    return bases


@st.composite
def hostile_changes(draw):
    """(family, linear term, kind, value): the fit's model and the change to
    its panel, as ``change_panel`` applies it."""
    family = draw(st.sampled_from(HOSTILE_FAMILIES))
    linear = draw(st.booleans())
    kind = draw(st.sampled_from(["scale y", "scale X", "zero column", "constant column",
                                 "constant y", "spike"]))
    value = {"scale y": st.integers(-300, 300), "scale X": st.integers(-300, 300),
             "zero column": st.integers(0, 1),
             "constant column": st.tuples(st.integers(0, 1), st.sampled_from([1.0, -2.5])),
             "constant y": st.sampled_from([1.0, 0.0]),
             "spike": st.tuples(st.integers(0, 8), st.integers(0, 35))}[kind]
    return family, linear, kind, draw(value)


def change_panel(data, kind, value):
    if kind == "scale y":
        data.Y[...] *= 10.0 ** value
    elif kind == "scale X":
        data.X[...] *= 10.0 ** value
    elif kind == "zero column":
        data.X[..., value] = 0.0
    elif kind == "constant column":
        data.X[..., value[0]] = value[1]
    elif kind == "constant y":
        data.Y[...] = value
    else:  # spike
        data.Y[value] = 1e300


class TestHostilePanelFuzz:
    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(change=hostile_changes())
    # y x 1e150 overflows the covariance's Gram products, and y x 1e300
    # every start's objective: numpy's overflow warnings must not leave fit
    @example(change=("normal", False, "scale y", 150))
    @example(change=("normal", False, "scale y", 300))
    def test_fit_exits_with_its_record(self, hostile_bases, change):
        # exit 0 or 3 with a fit.json whose converged agrees, exit 3 with
        # only fit_error.json, or exit 2 naming where the input is at fault;
        # no RuntimeWarning from the package at all
        family, linear, kind, value = change
        cfg, base = hostile_bases[family, linear]
        data = pa.read_panel_csv(base, p=1, q=2)
        change_panel(data, kind, value)
        with tempfile.TemporaryDirectory() as tmp:
            pa.write_panel_csv(Path(tmp) / "panel.csv", data)
            out = Path(tmp) / "fit"
            code, err, warned = main_warnings(["fit", "--config", cfg, "--panel",
                                               f"{tmp}/panel.csv", "--out", str(out),
                                               "--seed", "1"])
            files = sorted(p.name for p in out.iterdir()) if out.exists() else []
            record = json.loads((out / "fit.json").read_text()) if "fit.json" in files else None
        assert "Traceback" not in err
        if code == 2:
            assert re.search(r"\b(?:t|s|line|row|column)[= ]\d+\b|\bkey\b", err), err
            assert files == [], files
        elif record is not None:
            assert code in (0, 3) and record["converged"] == (code == 0), (code, err)
            assert files == ["diagnostics.json", "fit.json", "fit.txt"]
        else:
            assert code == 3 and files == ["fit_error.json"], (code, err, files)
        assert warned == [], warned


# ----------------------------------------------------------------------
# Reader fuzz gate: one mutation of a valid panel or edge list per example.
# read_columns must give the checked parser's arrays bit for bit or raise
# its error, and fit (a panel) or simulate (an edge list) must exit cleanly.
# ----------------------------------------------------------------------

# (kind, value) of each mutation: a data line dropped, duplicated, swapped
# with another, a field quoted, a field quoted across a line end, a blank
# line put before it, its line end switched (LF, CRLF), a field or an id
# field replaced
MUTATIONS = {"drop": ("drop", None), "duplicate": ("duplicate", None), "swap": ("swap", None),
             "quote": ("quote", None), "quote-split": ("split", None),
             "blank-empty": ("blank", ""), "blank-spaces": ("blank", "  "),
             "line-end": ("line end", None),
             "field-empty": ("field", ""), "field-space": ("field", " "),
             "field-nan": ("field", "nan"), "field-inf": ("field", "inf"),
             "field-1e308": ("field", "1e308"), "field-word": ("field", "oops"),
             "field-overlong": ("field", "1." + "0" * 131072),
             "id-1.0": ("id", "1.0"), "id-negative": ("id", "-1"), "id-fraction": ("id", "0.5")}
# mutations that leave every value in its cell
KEEPS_VALUES = {"swap", "quote", "blank", "line end"}
# mutations that must exit 2 naming the mutated line: a record is one line,
# and a field over csv.field_size_limit() is an input fault
NAMES_ITS_LINE = {MUTATIONS["quote-split"], MUTATIONS["field-overlong"]}
# faults of a whole panel or graph, which no one line holds
WHOLE_FILE_FAULTS = ("missing (t, s) cells", "location ids must be 0..n-1",
                     "presample starts at", "time index has gaps", "isolated location(s)")


@st.composite
def csv_mutations(draw, text, kind, value):
    """``(text, line)``: ``text``, a CSV file whose first two columns hold
    ids, with a mutation of ``MUTATIONS`` applied at a drawn data line, the
    line ``line`` of the file."""
    lines = [[line.rstrip("\r\n"), line[len(line.rstrip("\r\n")):]]
             for line in text.splitlines(keepends=True)]
    k = draw(st.integers(1, len(lines) - 1))
    body, end = lines[k]
    fields = body.split(",")
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(draw(st.integers(1, len(lines))), lines[k])
    elif kind == "swap":
        j = draw(st.integers(1, len(lines) - 1))
        lines[j], lines[k] = lines[k], lines[j]
    elif kind == "blank":
        lines.insert(k, [value, end])
    elif kind == "line end":
        lines[k] = [body, "\n" if end == "\r\n" else "\r\n"]
    else:
        j = draw(st.integers(0, 1 if kind == "id" else len(fields) - 1))
        if kind == "quote":
            fields[j] = f'"{fields[j]}"'
        elif kind == "split":  # the quote closes on the next line
            fields[j] = f'"{fields[j][:1]}{end}{fields[j][1:]}"'
        else:
            fields[j] = value
        lines[k] = [",".join(fields), end]
    return "".join(body + end for body, end in lines), k + 1


def main_warnings(argv):
    """(exit code, stderr, messages of the RuntimeWarnings raised in the
    package) of an in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(argv)
    package = str(Path(pa.__file__).parent)
    return code, err.getvalue(), [str(w.message) for w in seen if issubclass(
        w.category, RuntimeWarning) and w.filename.startswith(package)]


def run_main(argv):
    """(exit code, stderr) of an in-process command; a traceback fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a fit of a panel holding 1e308 warns
        code = main(argv)
    return code, err.getvalue()


def read_or_input_error(code, err, read):
    """``read()``, or None where it raises ValueError: the command must then
    have exited 2 with that error, which names a line unless the fault is
    the whole file's."""
    try:
        return read()
    except ValueError as exc:
        message = str(exc)
        assert (code, err) == (2, f"error: {message}\n")
        assert re.search(r"line \d+", message) or any(w in message for w in WHOLE_FILE_FAULTS), \
            message
        return None


def assert_names_line(mutation, code, err, line):
    """A mutation of ``NAMES_ITS_LINE`` exits 2 naming its line."""
    if mutation in NAMES_ITS_LINE:
        assert code == 2 and re.search(rf": line {line}\b", err), (code, err)


class TestReaderFuzz:
    """The 4x4 model-1 panel of FUZZ_CONFIG (81 lines) and the 4x4 queen
    lattice's 42 edges, each with one mutation per example; each read also
    runs in blocks of 1 and 7 lines, and a fit makes one start."""

    CONFIG = {**FUZZ_CONFIG, "optim": {**FUZZ_CONFIG["optim"], "n_starts": 1}}

    @pytest.fixture(scope="class")
    def panel_base(self, fuzz_panel, tmp_path_factory):
        out = tmp_path_factory.mktemp("panel_base")
        config = write_config(out, self.CONFIG)
        code, _ = run_main(["fit", "--config", config, "--panel", str(fuzz_panel), "--out",
                            str(out / "fit"), "--seed", "1"])
        data = pa.read_panel_csv(fuzz_panel, p=1, q=2)
        return fuzz_panel.read_bytes().decode(), config, data, code, (out / "fit" / "fit.txt")

    @pytest.fixture(scope="class")
    def edges_base(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("edges_base")
        A = sp.triu(pa.build_queen_lattice(4, 4).W, 1).tocoo()
        text = "i,j\n" + "".join(f"{i},{j}\n" for i, j in zip(A.row, A.col))
        cfg = {k: v for k, v in self.CONFIG.items() if k != "lattice"}
        cfg["adjacency"] = {"file": "edges.csv", "n": 16}
        (out / "edges.csv").write_text(text)
        config = write_config(out, cfg)
        assert run_main(["simulate", "--config", config, "--out", str(out / "sim"),
                         "--seed", "1"])[0] == 0
        return text, cfg, pa.read_adjacency_csv(out / "edges.csv", 16).W, out / "sim" / "panel.csv"

    def test_float_id_exits_2_naming_its_line(self, panel_base, tmp_path):
        # np.loadtxt in numpy 1.23-1.26 accepts an integer field written as
        # 1.0, with a DeprecationWarning; the checked reader rejects it
        base_text, config = panel_base[:2]
        lines = base_text.split("\r\n")
        lines[19] = "1.0" + lines[19][1:]  # line 20, a sample line (t = 1)
        (tmp_path / "panel.csv").write_bytes("\r\n".join(lines).encode())
        code, err = run_main(["fit", "--config", config, "--panel", str(tmp_path / "panel.csv"),
                              "--out", str(tmp_path / "out"), "--seed", "1"])
        assert (code, err) == (2, f"error: {tmp_path / 'panel.csv'}: malformed value at line 20\n")

    @pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS)
    @settings(derandomize=True, max_examples=4, deadline=5000, database=None)
    @given(data=st.data())
    def test_panel_mutation(self, panel_base, mutation, data):
        # a mutation that keeps every value must give the unmutated fit.txt
        base_text, config, base, base_code, base_fit = panel_base
        kind, (text, line) = mutation[0], data.draw(csv_mutations(base_text, *mutation))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            path.write_bytes(text.encode())
            for rows in (1, 7, _csv.BLOCK_ROWS):
                with mock.patch.object(_csv, "BLOCK_ROWS", rows):
                    assert_reads_agree(path, ["t", "s", "y", "x1", "x2"],
                                       [np.int64, np.int64, float, float, float], blank=2)
            code, err = run_main(["fit", "--config", config, "--panel", str(path), "--out",
                                  f"{tmp}/out", "--seed", "1"])
            assert code in (0, 2, 3)
            assert_names_line(mutation, code, err, line)
            data = read_or_input_error(code, err, lambda: pa.read_panel_csv(path, 1, 2))
            same = data is not None and np.array_equal(data.Y, base.Y) \
                and np.array_equal(data.X, base.X)
            assert same or kind not in KEEPS_VALUES
            if same:
                assert code == base_code
                assert (Path(tmp) / "out" / "fit.txt").read_bytes() == base_fit.read_bytes()

    @pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS)
    @settings(derandomize=True, max_examples=2, deadline=5000, database=None)
    @given(data=st.data())
    def test_edge_list_mutation(self, edges_base, mutation, data):
        # a mutation that keeps the graph must give the unmutated panel.csv
        base_text, cfg, base, base_panel = edges_base
        kind, (text, line) = mutation[0], data.draw(csv_mutations(base_text, *mutation))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.csv"
            path.write_bytes(text.encode())
            for rows in (1, 7, _csv.BLOCK_ROWS):
                with mock.patch.object(_csv, "BLOCK_ROWS", rows):
                    assert_reads_agree(path, ["i", "j"], [np.int64, np.int64])
            code, err = run_main(["simulate", "--config", write_config(Path(tmp), cfg), "--out",
                                  f"{tmp}/out", "--seed", "1"])
            assert code in (0, 2, 3)
            assert_names_line(mutation, code, err, line)
            W = read_or_input_error(code, err, lambda: pa.read_adjacency_csv(path, 16))
            same = W is not None and (W.W != base).nnz == 0
            assert same or kind not in KEEPS_VALUES
            if same:
                assert code == 0
                assert (Path(tmp) / "out" / "panel.csv").read_bytes() == base_panel.read_bytes()


class TestStartup:
    @staticmethod
    def modules_after_cli_import():
        """sys.modules of a fresh interpreter that has imported pstarann.cli."""
        src = str(Path(pa.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import json, sys, pstarann.cli; print(json.dumps(sorted(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        return json.loads(out.stdout)

    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats takes most of a second to import; the CLI needs none of it
        assert "scipy.stats" not in self.modules_after_cli_import()

    def test_cli_import_leaves_out_scipy_optimize(self):
        # scipy.optimize took about 0.18 s of every command's start-up; fit
        # calls its own trust region
        loaded = [m for m in self.modules_after_cli_import()
                  if m == "scipy.optimize" or m.startswith("scipy.optimize.")]
        assert loaded == []
