"""Experiment commands: suites pass, reports are deterministic, gates gate."""

import base64
import importlib.util
import itertools
import json
import os
import sys
import threading

import numpy as np
import pytest

from paracoh import AssumptionGateError, ConfigError, SeriesParam, forms, parallel, solver
from paracoh.config import (
    ComponentConfig,
    ExperimentConfig,
    config_from_json,
    config_hash,
    config_to_json,
    default_config,
)
from paracoh.experiments import (
    cmd_gen,
    cmd_solve_form,
    cmd_solve_top,
    cmd_sweep_bounds,
    cmd_verify_invariants,
    write_report,
)


def _small_config(seed=0, d=2, k=12):
    pool = [
        (SeriesParam.principal(1.0), SeriesParam.complementary(0.5)),
        (SeriesParam.principal(2.0), SeriesParam.discrete(1)),
        (SeriesParam.complementary(0.9), SeriesParam.principal(1.0)),
    ]
    comps = tuple(
        ComponentConfig(label=f"c{i}", factors=f[:d]) for i, f in enumerate(pool)
    )
    return ExperimentConfig(components=comps, k_per_axis=k, seed=seed)


def test_config_round_trip_and_hash():
    cfg = _small_config(seed=7)
    doc = config_to_json(cfg)
    back = config_from_json(doc)
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)
    doc["out_dir"] = "elsewhere"
    assert config_hash(config_from_json(doc)) == config_hash(cfg)


def test_empty_components_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(components=())
    with pytest.raises(ConfigError):
        config_from_json({"components": []})


def test_mismatched_d_rejected():
    comps = (
        ComponentConfig("a", (SeriesParam.principal(1.0),)),
        ComponentConfig("b", (SeriesParam.principal(1.0), SeriesParam.discrete(1))),
    )
    with pytest.raises(ConfigError):
        ExperimentConfig(components=comps)


def test_gate_violation_surfaces():
    cfg = _small_config()
    bad = ComponentConfig("bad", (SeriesParam.complementary(0.01), SeriesParam.discrete(1)))
    cfg2 = ExperimentConfig(components=(bad,), k_per_axis=8, eps0=0.05)
    with pytest.raises(AssumptionGateError):
        cmd_solve_top(cfg2)


def test_verify_invariants_passes():
    report = cmd_verify_invariants(_small_config())
    assert report.passed
    assert set(report.tables) == {
        "invariance",
        "unitarity",
        "duality",
        "rational",
        "projection",
        "dd_zero",
    }
    for rows in report.tables.values():
        for row in rows:
            assert "param" in row


def test_solve_top_report_and_determinism():
    cfg = _small_config(seed=3)
    r1 = cmd_solve_top(cfg)
    r2 = cmd_solve_top(cfg)
    assert r1.passed
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
        r2.to_json(), sort_keys=True
    )
    assert r1.metadata["max_residual_rel"] <= 1e-8
    labels = [row["label"] for row in r1.components]
    assert labels == ["c0", "c1", "c2"]


def test_solve_top_parallel_matches_serial(monkeypatch):
    # identical reports at any PARACOH_THREADS, for each command; the solves
    # here fall below parallel.MIN_TASK_ENTRIES, so the threaded runs lower
    # the gate to put their components on worker threads
    p1, c5 = SeriesParam.principal(1.0), SeriesParam.complementary(0.5)
    d1 = SeriesParam.discrete(1)
    cfg3 = ExperimentConfig(
        components=(ComponentConfig("a", (p1, c5, d1)), ComponentConfig("b", (d1, p1, c5))),
        k_per_axis=6,
        seed=11,
    )
    runs = {
        "solve-top": lambda: cmd_solve_top(_small_config(seed=3)),
        "solve-form d=3 degree 2": lambda: cmd_solve_form(cfg3, 2),
        "verify-invariants": lambda: cmd_verify_invariants(_small_config()),
        "sweep-bounds": lambda: cmd_sweep_bounds(_small_config(seed=2, k=8)),
    }
    solver_threads, meeting = [], {}

    def recorded(solve):
        def wrapper(*args, **kwargs):
            solver_threads.append(threading.get_ident())
            # in a threaded run the first two tasks wait for each other, so a
            # pool cannot finish one before it starts a second worker
            if meeting and next(meeting["arrivals"]) < 2:
                meeting["barrier"].wait()
            return solve(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "solve_top", recorded(solver.solve_top))
    monkeypatch.setattr(forms, "solve_primitive", recorded(forms.solve_primitive))
    gate = parallel.MIN_TASK_ENTRIES
    for name, run in runs.items():
        monkeypatch.setenv("PARACOH_THREADS", "1")
        monkeypatch.setattr(parallel, "MIN_TASK_ENTRIES", gate)
        meeting.clear()
        serial = run().to_json()
        monkeypatch.setenv("PARACOH_THREADS", "4")
        monkeypatch.setattr(parallel, "MIN_TASK_ENTRIES", 1)
        meeting.update(arrivals=itertools.count(), barrier=threading.Barrier(2, timeout=60))
        solver_threads.clear()
        threaded = run().to_json()
        assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True), name
        if name.startswith("solve"):  # every component on a worker, two workers at least
            assert len(solver_threads) == len(threaded["components"]), name
            assert threading.get_ident() not in solver_threads, name
            assert len(set(solver_threads)) >= 2, name


def test_solve_form_and_degree_validation():
    cfg = _small_config(seed=5)
    report = cmd_solve_form(cfg, 1)
    assert report.passed
    with pytest.raises(ConfigError):
        cmd_solve_form(cfg, 2)  # n = d is the top solver's job
    with pytest.raises(ConfigError):
        cmd_solve_form(cfg, 0)


def test_solve_form_d3_n2():
    comp = ComponentConfig(
        "c3",
        (
            SeriesParam.principal(1.0),
            SeriesParam.complementary(0.5),
            SeriesParam.discrete(1),
        ),
    )
    cfg = ExperimentConfig(components=(comp,), k_per_axis=8, seed=11)
    for degree in (1, 2):
        report = cmd_solve_form(cfg, degree)
        assert report.passed
        assert report.components[0]["residual_rel"] <= 1e-6


def test_sweep_bounds():
    cfg = _small_config(seed=1, k=8)
    report = cmd_sweep_bounds(cfg)
    assert report.passed
    slope = report.metadata["principal_slope"]
    assert abs(slope + 1.5) <= 0.1
    # discrete rows flag divergent tails instead of lying
    rows = report.tables["dist_order_discrete"]
    assert rows[0]["tail_converged"] is True
    assert any(r["tail_converged"] is False for r in rows[1:])
    # the gate-bypassed blowup behaves like nu^-2
    assert report.metadata["phi_blowup_exponent"] == pytest.approx(-2.0, abs=0.2)


def test_write_report_and_gen(tmp_path):
    cfg = _small_config(seed=2, k=8)
    report = cmd_solve_top(cfg)
    paths = write_report(report, tmp_path)
    assert (tmp_path / "solve-top.json").exists()
    doc = json.loads((tmp_path / "solve-top.json").read_text())
    assert doc["command"] == "solve-top" and doc["config_hash"] == config_hash(cfg)

    gen_paths = cmd_gen(cfg, "tensor", None, tmp_path / "inputs")
    assert len(gen_paths) == 3
    docs = [json.loads(open(p).read()) for p in gen_paths]
    r = cmd_solve_top(cfg, input_docs=docs)
    assert r.passed

    form_paths = cmd_gen(cfg, "form", 1, tmp_path / "forms")
    fdocs = [json.loads(open(p).read()) for p in form_paths]
    rf = cmd_solve_form(cfg, 1, input_docs=fdocs)
    assert rf.passed
    with pytest.raises(ConfigError):
        cmd_gen(cfg, "spline", None, tmp_path)


@pytest.mark.parametrize(
    "d, degree, k",
    [(1, None, 16), (2, None, 8), (3, None, 6), (2, 1, 8), (3, 2, 6)],
)
def test_gen_writes_the_inputs_a_solve_draws(tmp_path, d, degree, k):
    # a solve without inputs and a solve of gen's files report the same bytes
    cfg = default_config(d=d, seed=4, k_per_axis=k)
    paths = cmd_gen(cfg, "tensor" if degree is None else "form", degree, tmp_path)
    docs = [json.loads(open(p).read()) for p in paths]
    if degree is None:
        drawn, loaded = cmd_solve_top(cfg), cmd_solve_top(cfg, input_docs=docs)
    else:
        drawn, loaded = cmd_solve_form(cfg, degree), cmd_solve_form(cfg, degree, input_docs=docs)
    assert drawn.passed
    assert json.dumps(drawn.to_json()) == json.dumps(loaded.to_json())


def test_default_config_runs():
    cfg = default_config(d=1, k_per_axis=16)
    report = cmd_solve_top(cfg)
    assert report.passed  # d=1 reduces to the degree-1 report


def _script(folder, name):
    """Import folder/name.py from the repo root without running its main."""
    path = os.path.join(os.path.dirname(__file__), "..", folder, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _report_diff():
    return _script("tools", "report_diff")


def test_layertrace_hooks_name_package_attributes():
    # a deleted or renamed hooked name fails every traced benchmark run
    hooks = _script("benchmarks", "layertrace").HOOKS
    assert len(hooks) > 40
    missing = [
        f"paracoh.{h.module}.{h.attr}"
        for h in hooks
        if not hasattr(importlib.import_module(f"paracoh.{h.module}"), h.attr)
    ]
    assert missing == []


def test_report_diff_lists_moved_fields(tmp_path, capsys):
    a, b = tmp_path / "a" / "seed0", tmp_path / "b" / "seed0"
    a.mkdir(parents=True)
    b.mkdir(parents=True)
    doc = {"metadata": {"max_residual_rel": 2.0, "command": "solve-top"}, "components": [{"k": 1}]}
    (a / "r.json").write_text(json.dumps(doc))
    doc["metadata"]["max_residual_rel"] = 2.5
    doc["components"].append({"k": 2})
    (b / "r.json").write_text(json.dumps(doc))
    (a / "t.csv").write_text("param,value\np,1.5\n")
    (b / "t.csv").write_text("param,value\np,1.5\n")
    (b / "extra.json").write_text("{}")
    tool = _report_diff()
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "seed0/extra.json  missing in A",
        "seed0/r.json  metadata.max_residual_rel  2.0 -> 2.5  rel 0.2",
        "seed0/r.json  components[1]  '<absent>' -> {'k': 2}",
        "2 files compared, 1 differ, 2 leaves differ, 1 missing",
    ]
    (b / "extra.json").unlink()
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out == "2 files compared, 0 differ, 0 leaves differ, 0 missing\n"
    # gen documents: one line per component with a moved coefficient, matched by basis index
    def coeffs(index, values):
        vals = np.asarray(values, dtype=complex)
        return {key: base64.b64encode(np.asarray(col, dtype).tobytes()).decode("ascii")
                for key, dtype, col in (("index", "<i8", index), ("re", "<f8", vals.real),
                                        ("im", "<f8", vals.imag))}

    form = {"format_version": 3, "degree": 1, "windows": [{"lo": -2, "hi": 2}, {"lo": 1, "hi": 3}],
            "components": [{"axes": [1], "coeffs": coeffs([0, 7], [1, 2j])},
                           {"axes": [2], "coeffs": coeffs([4], [3])}]}
    (a / "f.form.json").write_text(json.dumps(form))
    form["components"][1]["coeffs"] = coeffs([4], [3.3])
    (b / "f.form.json").write_text(json.dumps(form))
    # k = -1 is offset 1 in [-2, 2] and offset 0 in [-1, 2]
    tensor = {"format_version": 3, "windows": [{"lo": -2, "hi": 2}], "coeffs": coeffs([1], [1.5])}
    (a / "t.tensor.json").write_text(json.dumps(tensor))
    tensor.update(windows=[{"lo": -1, "hi": 2}], coeffs=coeffs([0], [1.5]))
    (b / "t.tensor.json").write_text(json.dumps(tensor))
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seed0/f.form.json  components[1].coeffs  1 -> 1 coefficients  max rel 0.0909",
        "seed0/r.json  metadata.max_residual_rel  2.0 -> 2.5  rel 0.2",
        "seed0/r.json  components[1]  '<absent>' -> {'k': 2}",
        "seed0/t.tensor.json  windows[0].lo  -2 -> -1  rel 0.5",
        "4 files compared, 3 differ, 4 leaves differ, 0 missing",
    ]
