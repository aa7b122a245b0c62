"""CLI surface: exit codes, flags, report files, gen round trips."""

import json
import math

import pytest

from paracoh.cli import EXIT_CONFIG, main
from paracoh.config import config_hash, config_to_json, default_config
from tests.test_harness import _small_config


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_json(cfg)))
    return str(path)


def test_verify_invariants_ok(tmp_path, capsys):
    code = main(["verify-invariants", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "verify-invariants.json").exists()
    assert (tmp_path / "verify-invariants.invariance.csv").exists()
    out = capsys.readouterr().out
    assert "verify-invariants: ok" in out


def test_solve_top_ok_and_seed_flag(tmp_path):
    cfg_path = _write_config(tmp_path, _small_config(k=8))
    code = main(
        ["solve-top", "--config", cfg_path, "--seed", "9", "--out", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "solve-top.json").read_text())
    assert doc["seed"] == 9


def test_solve_form_flags(tmp_path):
    cfg_path = _write_config(tmp_path, _small_config(k=8))
    assert main(
        ["solve-form", "--config", cfg_path, "--degree", "1", "--out", str(tmp_path)]
    ) == 0
    # degree d rejected as a config error
    assert main(
        ["solve-form", "--config", cfg_path, "--degree", "2", "--out", str(tmp_path)]
    ) == 1


def test_obstruction_exit_code(tmp_path):
    # a component whose generated input is replaced by an obstructed one
    import paracoh as pc
    from paracoh.serialize import save_tensor
    from paracoh.params import MultiParam, default_window
    from paracoh.tensor import phi_tensor

    cfg = _small_config(k=8)
    cfg_path = _write_config(tmp_path, cfg)
    inputs = []
    for comp in cfg.components:
        mp = MultiParam(comp.factors)
        wins = tuple(default_window(p, 8) for p in mp.factors)
        ft = phi_tensor(mp, pc.valid_tags(mp)[0], wins)
        path = tmp_path / f"{comp.label}.json"
        save_tensor(path, ft)
        inputs.append(str(path))
    argv = ["solve-top", "--config", cfg_path, "--out", str(tmp_path)]
    for p in inputs:
        argv += ["--input", p]
    assert main(argv) == 3


def test_config_error_exit_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["solve-top", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"components\": []}")
    assert main(["verify-invariants", "--config", str(bad)]) == 1
    # usage errors are remapped off exit code 2
    assert main(["solve-form"]) == 1
    assert main(["no-such-command"]) == 1


def test_gen_then_solve(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _small_config(k=8))
    out = tmp_path / "inputs"
    assert main(["gen", "--config", cfg_path, "--kind", "tensor", "--out", str(out)]) == 0
    paths = capsys.readouterr().out.strip().splitlines()
    assert len(paths) == 3
    argv = ["solve-top", "--config", cfg_path, "--out", str(tmp_path)]
    for p in paths:
        argv += ["--input", p]
    assert main(argv) == 0


def test_sweep_bounds_cli(tmp_path):
    cfg_path = _write_config(tmp_path, _small_config(k=8))
    assert main(["sweep-bounds", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep-bounds.dist_order_principal.csv").exists()
    lines = (tmp_path / "sweep-bounds.dist_order_principal.csv").read_text().splitlines()
    assert lines[0] == "param,value,bound,ratio"


def test_t_flag_parsing(tmp_path):
    cfg_path = _write_config(tmp_path, _small_config(k=8))
    assert main(["solve-top", "--config", cfg_path, "--t", "1,3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve-top.json").read_text())
    ratios = doc["components"][0]["sobolev_ratios"]
    assert set(ratios) == {"1.0", "3.0"}
    assert main(["solve-top", "--config", cfg_path, "--t", "abc"]) == 1


def test_band_factor_failure_exit_code(tmp_path, capsys):
    from paracoh import SeriesParam
    from paracoh.config import ComponentConfig, ExperimentConfig

    comp = ComponentConfig(label="d400", factors=(SeriesParam.discrete(400),))
    cfg_path = _write_config(tmp_path, ExperimentConfig(components=(comp,), k_per_axis=2048))
    assert main(["solve-top", "--config", cfg_path, "--out", str(tmp_path)]) == 4
    assert "finite positive weights" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("tol_kernel", math.nan), ("tol_residual", math.inf), ("t_list", [math.nan]),
     ("t_list", [1.0, math.inf]), ("eps0", -math.inf), ("nu0", math.nan)],
)
def test_non_finite_config_reals_are_config_errors(tmp_path, capsys, field, value):
    # json reads the tokens NaN and Infinity as floats; a NaN tolerance would
    # switch its gate off, and an infinite one pass every residual
    doc = config_to_json(_small_config(k=8))
    doc[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    assert main(["solve-top", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "solve-top.json").exists()


@pytest.mark.parametrize("t", ["inf", "nan", "1,-inf", "0"])
def test_non_finite_t_flag_is_a_config_error(tmp_path, capsys, t):
    argv = ["sweep-bounds", "--t", t, "--out", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep-bounds.json").exists()


def test_non_finite_factor_in_input_file_is_a_schema_error(tmp_path, capsys):
    import numpy as np

    from paracoh.generate import random_kernel_tensor
    from paracoh.params import default_window
    from paracoh.serialize import save_json, tensor_to_json

    cfg = _small_config(k=8)
    cfg_path = _write_config(tmp_path, cfg)
    argv = ["solve-top", "--config", cfg_path, "--out", str(tmp_path)]
    for i, comp in enumerate(cfg.components):
        mp = cfg.multi_param(comp)
        wins = tuple(default_window(p, 8) for p in mp.factors)
        doc = tensor_to_json(random_kernel_tensor(mp, wins, np.random.default_rng(i)))
        if i == 1:
            doc["factors"][0] = {"kind": "principal", "nu_im": math.nan}
        path = tmp_path / f"in{i}.json"
        save_json(path, doc)
        argv += ["--input", str(path)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "finite" in err


@pytest.mark.parametrize(
    "field, value",
    [("eps0", 0.0), ("eps0", 1.5), ("nu0", 1.0), ("nu0", -0.5), ("pad", 1), ("pad", -3),
     ("max_refine", 0), ("seed", -1), ("tol_kernel", 0.0), ("tol_residual", -1e-8)],
)
def test_out_of_range_config_values_are_config_errors(tmp_path, capsys, field, value):
    doc = config_to_json(_small_config(k=8))
    doc[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep-bounds", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    assert main(["verify-invariants", "--seed", "-1", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error: seed must be non-negative" in capsys.readouterr().err


def test_valid_configs_keep_their_hash():
    # the range checks read the config; they change no field, so no hash
    assert config_hash(default_config()) == "a6c14b6cf024697a"
    assert config_hash(default_config(d=3, seed=7, k_per_axis=16)) == "bb3edc73f44ea946"
