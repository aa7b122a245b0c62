"""CLI surface: exit codes, flags, report files, gen round trips."""

import json
import math
from dataclasses import replace

import pytest

from paracoh import ConfigError, SchemaError, experiments, forms, solver
from paracoh.cli import EXIT_CONFIG, main
from paracoh.config import config_hash, config_to_json, default_config, load_config
from paracoh.serialize import form_from_json, load_json, tensor_from_json
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


@pytest.mark.parametrize(
    "raw",
    [b'{"components": [[1]]}', b'{"components": "ab"}',
     b'{"components": [{"label": "c0", "factors": []}]}', b'{"components": [], "seed": "\xff"}'],
    ids=["entry-not-object", "components-string", "no-factors", "not-utf8"],
)
def test_malformed_config_files_are_config_errors(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["solve-top", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


def _gen_docs(tmp_path, cfg, kind, degree=None):
    paths = experiments.cmd_gen(cfg, kind, degree, tmp_path / f"gen-{kind}")
    return [json.loads(open(p).read()) for p in paths]


def _solve_argv(tmp_path, cfg, kind, docs):
    argv = ["solve-top"] if kind == "tensor" else ["solve-form", "--degree", "1"]
    argv += ["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    for i, doc in enumerate(docs):
        path = tmp_path / f"input{i}.json"
        path.write_text(json.dumps(doc))
        argv += ["--input", str(path)]
    return argv


NO_FACTORS = {"factors": [], "windows": []}
# c1 is principal(2) x discrete(1): its second window starts below the lowest weight
LOW_WINDOW = {"windows": [{"lo": -8, "hi": 8}, {"lo": 0, "hi": 8}]}
# window boxes no allocator can give: 5.68 PiB, and an axis longer than an index-sized integer;
# both fail before any memory is touched
HUGE_BOX = {"windows": [{"lo": -(10**7), "hi": 10**7}, {"lo": 1, "hi": 2 * 10**7 + 1}]}
FAR_BOUND = {"windows": [{"lo": -(10**30), "hi": 8}, {"lo": 1, "hi": 8}]}


def _shifted(shift):
    """c1's discrete window moved out by `shift`: a small box whose basis norms
    would need a table `shift` long."""
    return {"windows": [{"lo": -8, "hi": 8}, {"lo": 1 + shift, "hi": 9 + shift}]}


SHIFTS = {"1e9": 10**9, "1e15": 10**15, "2p62": 2**62, "1e30": 10**30}


@pytest.mark.parametrize(
    "kind, bad",
    [("tensor", {"factors": 5}), ("tensor", NO_FACTORS), ("tensor", {"windows": {"lo": 0}}),
     ("form", {"factors": 5}), ("form", NO_FACTORS), ("form", {"components": 5}),
     ("form", {"components": {"axes": [1]}}), ("tensor", LOW_WINDOW), ("form", LOW_WINDOW),
     ("tensor", {"format_version": 1}), ("form", {"format_version": 1}),
     ("tensor", HUGE_BOX), ("form", HUGE_BOX), ("tensor", FAR_BOUND), ("form", FAR_BOUND)]
    + [(kind, _shifted(shift)) for shift in SHIFTS.values() for kind in ("tensor", "form")],
    ids=["tensor-factors-int", "tensor-no-factors", "tensor-windows-object", "form-factors-int",
         "form-no-factors", "form-components-int", "form-components-object",
         "tensor-window-below-lowest-weight", "form-window-below-lowest-weight",
         "tensor-format-1", "form-format-1", "tensor-box-too-large", "form-box-too-large",
         "tensor-bound-past-index-range", "form-bound-past-index-range"]
    + [f"{kind}-window-shifted-{name}" for name in SHIFTS for kind in ("tensor", "form")],
)
def test_malformed_input_documents_are_schema_errors(tmp_path, capsys, kind, bad):
    cfg = _small_config(k=8)
    docs = _gen_docs(tmp_path, cfg, kind, None if kind == "tensor" else 1)
    docs[1].update(bad)
    load = tensor_from_json if kind == "tensor" else form_from_json
    with pytest.raises(SchemaError):
        load(docs[1])
    assert main(_solve_argv(tmp_path, cfg, kind, docs)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["tensor", "form"])
def test_format_2_inputs_are_schema_errors_naming_the_version(tmp_path, capsys, kind):
    cfg = _small_config(k=8)
    docs = _gen_docs(tmp_path, cfg, kind, None if kind == "tensor" else 1)
    docs[0]["format_version"] = 2
    assert main(_solve_argv(tmp_path, cfg, kind, docs)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: format_version 2 not supported (want 3)" in err
    assert "Traceback" not in err


def test_documents_without_coeffs_are_schema_errors(tmp_path, capsys):
    # both once solved as zero inputs, exit 0
    cfg = _small_config(k=8)
    forms = _gen_docs(tmp_path, cfg, "form", 1)
    assert main(_solve_argv(tmp_path, cfg, "tensor", forms)) == EXIT_CONFIG
    assert "config error: missing field 'coeffs'" in capsys.readouterr().err
    for comp in forms[0]["components"]:
        del comp["coeffs"]
    assert main(_solve_argv(tmp_path, cfg, "form", forms)) == EXIT_CONFIG
    assert "config error: bad component entry: 'coeffs'" in capsys.readouterr().err


def test_unreadable_input_files_are_schema_errors(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _small_config(k=8))
    missing = tmp_path / "missing.json"
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"format_version": 1, "factors": "\xe9"}')
    for path in (missing, latin1):
        with pytest.raises(SchemaError):
            load_json(path)
        argv = ["solve-top", "--config", cfg_path, "--out", str(tmp_path)]
        assert main(argv + ["--input", str(path)] * 3) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["tensor", "form"])
def test_a_missing_or_malformed_input_fails_naming_its_file(tmp_path, capsys, monkeypatch, kind):
    # every path is opened before the first solve; a document is read and
    # decoded by the task of its component, so a malformed one fails there
    cfg = _small_config(k=8)
    docs = _gen_docs(tmp_path, cfg, kind, None if kind == "tensor" else 1)
    argv = _solve_argv(tmp_path, cfg, kind, docs)
    second = tmp_path / "input1.json"
    text = second.read_text()
    solves = []
    name = "solve_top" if kind == "tensor" else "solve_primitive"
    module = solver if kind == "tensor" else forms
    solve = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: solves.append(1) or solve(*a, **k))
    second.unlink()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: cannot read {second}" in err and "Traceback" not in err
    assert not solves and not (tmp_path / "out").exists()
    second.write_text(text[: len(text) // 2])
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {second} is not UTF-8 JSON" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["tensor", "form"])
def test_input_must_be_over_its_components_factors(tmp_path, capsys, kind):
    cfg = _small_config(k=8)
    docs = _gen_docs(tmp_path, cfg, kind, None if kind == "tensor" else 1)
    swapped = [docs[1], docs[0], docs[2]]
    assert main(_solve_argv(tmp_path, cfg, kind, swapped)) == EXIT_CONFIG
    err = capsys.readouterr().err
    c0, c1 = (cfg.multi_param(c).label() for c in cfg.components[:2])
    assert "'c0'" in err and c0 in err and c1 in err
    assert not (tmp_path / "out").exists()
    # the file defines the windows: other windows over the same factors solve
    wider = _gen_docs(tmp_path / "wider", replace(cfg, k_per_axis=10), kind,
                      None if kind == "tensor" else 1)
    assert main(_solve_argv(tmp_path, cfg, kind, wider)) == 0


@pytest.mark.parametrize(
    "labels",
    [["a", "b", "a"], ["a", "", "c"], ["a", 7, "c"], ["a", "sub/b", "c"], ["a", "b\u0000", "c"]],
    ids=["duplicate", "empty", "not-a-string", "separator", "nul"],
)
def test_labels_gen_cannot_use_are_config_errors(tmp_path, capsys, labels):
    doc = config_to_json(_small_config(k=8))
    for comp, label in zip(doc["components"], labels):
        comp["label"] = label
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "inputs"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: component label" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, fail_code",
    [(["verify-invariants"], 2), (["sweep-bounds"], 2),
     (["solve-top"], 4), (["solve-form", "--degree", "1"], 4)],
)
def test_report_exit_codes(tmp_path, monkeypatch, argv, fail_code):
    command = "cmd_" + argv[0].replace("-", "_")
    for passed, code in ((True, 0), (False, fail_code)):
        report = experiments.Report(argv[0], passed, "0" * 16, 0)
        monkeypatch.setattr(experiments, command, lambda *a, report=report, **k: report)
        assert main(argv + ["--out", str(tmp_path)]) == code
        doc = json.loads((tmp_path / f"{argv[0]}.json").read_text())
        assert doc["passed"] is passed


@pytest.mark.parametrize(
    "edit, key",
    [(lambda doc: doc.update(tol_residul=1e-30), "'tol_residul'"),
     (lambda doc: doc.update(max_refin=0), "'max_refin'"),
     (lambda doc: doc["components"][1].update(lable="x"), "'lable'"),
     (lambda doc: doc["components"][0]["factors"][0].update(nu=0.5), "'nu'"),
     (lambda doc: doc.update(out_dir=5), "out_dir")],
    ids=["top-level", "top-level-int", "component", "factor", "out-dir-not-string"],
)
def test_unknown_config_keys_are_config_errors(tmp_path, capsys, edit, key):
    doc = config_to_json(_small_config(k=8))
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises((ConfigError, SchemaError), match=key):
        load_config(str(path))
    assert main(["solve-top", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unknown_factor_key_in_a_data_file_is_a_schema_error(tmp_path):
    docs = _gen_docs(tmp_path, _small_config(k=8), "tensor")
    docs[0]["factors"][0]["lo"] = 0
    with pytest.raises(SchemaError, match="unknown key 'lo'"):
        tensor_from_json(docs[0])


@pytest.mark.parametrize(
    "argv", [["gen"], ["verify-invariants"], ["solve-form", "--degree", "1"]]
)
def test_an_out_that_is_not_a_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("cmd_gen", "cmd_verify_invariants", "cmd_solve_form"):
        monkeypatch.setattr(experiments, name, no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and str(blocker) in err and "Traceback" not in err


@pytest.mark.parametrize("argv, name", [(["gen"], "component-1.tensor.json"),
                                        (["verify-invariants"], "verify-invariants.duality.csv")])
def test_an_unwritable_output_file_is_a_config_error(tmp_path, capsys, argv, name):
    (tmp_path / name).mkdir()  # a directory where the file goes
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and name in err and "Traceback" not in err
