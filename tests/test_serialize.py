"""File schemas: bit-exact round trips and validation failures."""

import base64
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from paracoh import (
    ConfigError,
    IndexWindow,
    InvalidIndex,
    MultiParam,
    SchemaError,
    SeriesParam,
    default_window,
)
from paracoh.config import config_from_json, config_to_json, default_config
from paracoh.experiments import cmd_gen
from paracoh.forms import zero_form
from paracoh.generate import random_closed_form, random_tensor
from paracoh.serialize import (
    MAX_INDEX,
    factor_from_json,
    form_from_json,
    form_to_json,
    json_float,
    load_form,
    load_tensor,
    save_form,
    save_tensor,
    table_to_csv,
    tensor_from_json,
    tensor_to_json,
)
from paracoh.tensor import TensorCoeffs
from tests.test_harness import _small_config


def _mp():
    return MultiParam((SeriesParam.principal(2.0), SeriesParam.discrete(1)))


def _b64(values, dtype="<f8"):
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def _coeffs(index, re, im):
    """A format-3 coeffs object from plain lists."""
    return {"index": _b64(index, "<i8"), "re": _b64(re), "im": _b64(im)}


def _columns(coeffs):
    """The decoded index, re and im arrays of a format-3 coeffs object."""
    return [np.frombuffer(base64.b64decode(coeffs[key], validate=True), dtype)
            for key, dtype in (("index", "<i8"), ("re", "<f8"), ("im", "<f8"))]


# bit patterns of a quiet NaN, a negative NaN with a payload, a signalling NaN, +Inf and -Inf
NON_FINITE_BITS = np.array(
    [0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001,
     0x7FF0000000000000, 0xFFF0000000000000], dtype="<u8").view("<f8")


def test_tensor_round_trip_bitwise(tmp_path, rng):
    mp = _mp()
    wins = tuple(default_window(p, 6) for p in mp.factors)
    f = random_tensor(mp, wins, rng, margin=0)
    path = tmp_path / "t.json"
    save_tensor(path, f)
    g = load_tensor(path)
    assert g.params == f.params
    assert g.windows == f.windows
    assert np.array_equal(g.coeffs, f.coeffs)  # bitwise
    # document shape matches the published schema
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 3
    assert doc["factors"][0] == {"kind": "principal", "nu_im": 2.0}
    assert doc["factors"][1] == {"kind": "discrete", "n": 1}
    assert list(doc["coeffs"]) == ["index", "re", "im"]
    assert all(isinstance(v, str) and "\n" not in v for v in doc["coeffs"].values())
    # C-order flat offsets into the window box, strictly increasing, as <i8; values as <f8
    index, re, im = _columns(doc["coeffs"])
    assert index.tolist() == np.flatnonzero(f.coeffs).tolist()
    vals = f.coeffs.reshape(-1)[index]
    assert re.tobytes() == vals.real.tobytes() and im.tobytes() == vals.imag.tobytes()


def test_vector_round_trip(rng):
    p = SeriesParam.complementary(-0.5)
    from paracoh.generate import random_vector

    v = random_vector(p, default_window(p, 8), rng)
    doc = tensor_to_json(v)
    w = tensor_from_json(doc)
    assert np.array_equal(w.coeffs, v.coeffs)
    assert w.params.factors == (p,)


def test_form_round_trip(tmp_path, rng):
    mp = _mp()
    wins = tuple(default_window(p, 6) for p in mp.factors)
    w, _ = random_closed_form(mp, wins, 1, rng)
    path = tmp_path / "f.json"
    save_form(path, w)
    back = load_form(path)
    assert back.degree == w.degree and back.windows == w.windows
    for axes in w.components:
        assert np.array_equal(back.components[axes], w.components[axes])
    doc = json.loads(path.read_text())
    assert doc["components"][0]["axes"] == [1]  # file schema is 1-based


def test_version_mismatch_rejected(rng):
    mp = _mp()
    wins = tuple(default_window(p, 4) for p in mp.factors)
    doc = tensor_to_json(random_tensor(mp, wins, rng))
    for bad in (1, 2, 4, "3", True):
        with pytest.raises(SchemaError, match=f"format_version {bad!r} not supported"):
            tensor_from_json({**doc, "format_version": bad})
    doc.pop("format_version")
    with pytest.raises(SchemaError):
        tensor_from_json(doc)


def test_nan_rejected(rng):
    mp = _mp()
    wins = tuple(default_window(p, 4) for p in mp.factors)
    doc = tensor_to_json(random_tensor(mp, wins, rng))
    for part in ("re", "im"):
        for bad in (math.nan, math.inf, -math.inf, *NON_FINITE_BITS):
            index, re, im = (c.copy() for c in _columns(doc["coeffs"]))
            {"re": re, "im": im}[part][0] = bad
            with pytest.raises(SchemaError, match="non-finite"):
                tensor_from_json({**doc, "coeffs": _coeffs(index, re, im)})


def test_schema_violations(rng):
    mp = _mp()
    wins = tuple(default_window(p, 4) for p in mp.factors)
    base = tensor_to_json(random_tensor(mp, wins, rng, margin=0))
    size = len(wins[0]) * len(wins[1])
    # outside the box, a duplicate, out of order, and offsets past int64's sign bit:
    # each breaks the one rule
    for index in ([-1], [size], [3, 3], [4, 3], [0, -(2**63)], [2**62]):
        doc = json.loads(json.dumps(base))
        n = len(index)
        doc["coeffs"] = _coeffs(index, [1.0] * n, [0.0] * n)
        with pytest.raises(SchemaError, match="increase strictly"):
            tensor_from_json(doc)
    doc = json.loads(json.dumps(base))
    doc["factors"][0] = {"kind": "mystery"}
    with pytest.raises(SchemaError):
        tensor_from_json(doc)
    doc = json.loads(json.dumps(base))
    doc["windows"][0] = {"lo": 5, "hi": -5}
    with pytest.raises(SchemaError):
        tensor_from_json(doc)


def test_gate_enforced_on_load(rng):
    from paracoh import SpectralGapError

    p = SeriesParam.complementary(0.97)
    mp = MultiParam((p,), nu0=0.99)
    doc = tensor_to_json(random_tensor(mp, (default_window(p, 4),), rng))
    with pytest.raises(SpectralGapError):
        tensor_from_json(doc)  # default nu0 = 0.95 rejects
    t = tensor_from_json(doc, nu0=0.99)
    assert t.params.factors[0] == p


def test_csv_header(tmp_path):
    rows = [{"param": "x", "value": 1.0, "bound": 2.0, "ratio": 0.5}]
    path = tmp_path / "t.csv"
    table_to_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "param,value,bound,ratio"
    assert lines[1] == "x,1.0,2.0,0.5"


@pytest.mark.parametrize("bad", [40.7, True, "40", None])
def test_config_ints_not_coerced(bad):
    doc = config_to_json(default_config())
    for key in ("k_per_axis", "seed", "pad", "max_refine"):
        with pytest.raises(ConfigError):
            config_from_json({**doc, key: bad})
    assert config_from_json({**doc, "k_per_axis": 40.0}).k_per_axis == 40


def test_real_fields_not_coerced():
    # float() would read each of these as a valid value
    with pytest.raises(SchemaError):
        factor_from_json({"kind": "principal", "nu_im": "2.0"})
    doc = config_to_json(default_config())
    for bad in ({"eps0": True}, {"t_list": ["1", True]}):
        with pytest.raises(ConfigError):
            config_from_json({**doc, **bad})
    assert factor_from_json({"kind": "principal", "nu_im": 2}) == SeriesParam.principal(2.0)
    cfg = config_from_json({**doc, "eps0": 0.04, "t_list": [1, 2.5]})
    assert (cfg.eps0, cfg.t_list) == (0.04, (1.0, 2.5))


def test_non_finite_reals_rejected():
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError):
            json_float(bad)
        with pytest.raises(SchemaError):
            factor_from_json({"kind": "complementary", "nu": bad})
        with pytest.raises(ConfigError):
            config_from_json({**config_to_json(default_config()), "tol_kernel": bad})
    assert json_float(10**300) == 1e300 and json_float(-2) == -2.0


def test_schema_ints_not_coerced(rng):
    # int() would turn each of these into a valid document
    mp = _mp()
    wins = tuple(default_window(p, 4) for p in mp.factors)
    base = tensor_to_json(random_tensor(mp, wins, rng, margin=0))
    cases = [("factors", 1, "n", bad) for bad in (1.5, True, "1")]
    cases += [("windows", 0, "lo", -4.5), ("windows", 0, "lo", "-4"), ("windows", 1, "lo", True)]
    for section, idx, key, bad in cases:
        doc = json.loads(json.dumps(base))
        doc[section][idx][key] = bad
        with pytest.raises(SchemaError):
            tensor_from_json(doc)
    # coefficient payloads: one entry, so no ordering rule masks the check
    offset = 4 * len(wins[1])
    one = _coeffs([offset], [1.0], [0.0])
    assert tensor_from_json({**base, "coeffs": one}).coeffs[4, 0] == 1.0
    # an offset written as <f8 bytes is not read as its value
    bads = [{"index": _b64([float(offset)])}]
    # payloads that are not strings, including format-2 lists
    for key in ("index", "re", "im"):
        bads += [{key: bad} for bad in ([offset], [1.0], offset, 1.0, True, None, {"0": 1.0})]
    for bad in bads:
        with pytest.raises(SchemaError):
            tensor_from_json({**base, "coeffs": {**one, **bad}})
    # 1-based form axes: int() would read 1.9 and true as axis 1
    form = form_to_json(random_closed_form(mp, wins, 1, rng)[0])
    for bad in (1.9, True):
        doc = json.loads(json.dumps(form))
        doc["components"][0]["axes"] = [bad]
        with pytest.raises(SchemaError):
            form_from_json(doc)


def test_coeffs_lists_must_match_the_schema(rng):
    mp = _mp()
    wins = tuple(default_window(p, 4) for p in mp.factors)
    base = tensor_to_json(random_tensor(mp, wins, rng, margin=0))
    one = _coeffs([0, 5], [1.0, 2.0], [0.0, -1.0])
    got = tensor_from_json({**base, "coeffs": one}).coeffs
    assert got[0, 0] == 1.0 and got[divmod(5, len(wins[1]))] == 2 - 1j
    bads = [
        {**one, "re": _b64([1.0])},  # unequal counts
        {**one, "im": _b64([0.0, 1.0, 2.0])},
        {**one, "index": _b64([0], "<i8")},
        {"index": one["index"], "re": one["re"]},  # missing key
        {**one, "k": one["index"]},  # extra key
        {**one, "index": 5},  # not strings
        {**one, "re": {"0": 1.0}},
        {"index": [0, 5], "re": [1.0, 2.0], "im": [0.0, -1.0]},  # a format-2 object
        [{"k": [0, 0], "re": 1.0, "im": 0.0}],  # a format-1 entry list
        None,
    ]
    for bad in bads:
        with pytest.raises(SchemaError):
            tensor_from_json({**base, "coeffs": bad})
    # not base64: a character outside the alphabet, a newline, a non-ASCII
    # character, padding missing, misplaced or in excess, a lone trailing character
    text = one["re"]
    for bad in ("*" + text[1:], text[:8] + "\n" + text[8:], "\u00e9" + text[1:],
                text.rstrip("="), "=" + text[:-1], text[:-4] + "=" + text[-4:], text + "==",
                text + "A"):
        with pytest.raises(SchemaError, match="coeffs re"):
            tensor_from_json({**base, "coeffs": {**one, "re": bad}})
    # whole 3-byte groups need no padding, so "==" after them is in excess
    three = _coeffs([0, 5, 6], [1.0, 2.0, 3.0], [0.0] * 3)
    with pytest.raises(SchemaError, match="coeffs re"):
        tensor_from_json({**base, "coeffs": {**three, "re": three["re"] + "=="}})
    # valid base64 of a byte count that is not a multiple of 8
    for nbytes in (1, 7, 9, 15):
        payload = base64.b64encode(bytes(nbytes)).decode("ascii")
        with pytest.raises(SchemaError, match="8-byte items"):
            tensor_from_json({**base, "coeffs": {**one, "im": payload}})
    empty = tensor_from_json({**base, "coeffs": {"index": "", "re": "", "im": ""}})
    assert not empty.coeffs.any()


def test_form_components_use_the_columnar_coeffs(rng):
    mp = _mp()
    wins = tuple(default_window(p, 4) for p in mp.factors)
    w = random_closed_form(mp, wins, 1, rng)[0]
    doc = form_to_json(w)
    assert doc["format_version"] == 3
    assert [list(c["coeffs"]) for c in doc["components"]] == [["index", "re", "im"]] * 2
    for bad in (
        _coeffs([0], [math.nan], [0.0]),
        _coeffs([w.components[(0,)].size], [1.0], [0.0]),
        _coeffs([2, 1], [1.0, 1.0], [0.0, 0.0]),
        _coeffs([0], [1.0], [0.0, 0.0]),
        {**_coeffs([0], [1.0], [0.0]), "re": "AAAA"},
        {"index": [0], "re": [1.0], "im": [0.0]},
        [{"k": [0, 0], "re": 1.0, "im": 0.0}],
    ):
        bad_doc = json.loads(json.dumps(doc))
        bad_doc["components"][1]["coeffs"] = bad
        with pytest.raises(SchemaError):
            form_from_json(bad_doc)
    for old in (1, 2):
        with pytest.raises(SchemaError, match=f"format_version {old}"):
            form_from_json({**doc, "format_version": old})


def test_window_box_that_cannot_be_allocated_names_its_shape(rng):
    # 5.68 PiB, and an axis past an index-sized integer: both fail before touching memory
    mp = _mp()
    doc = tensor_to_json(random_tensor(mp, tuple(default_window(p, 4) for p in mp.factors), rng))
    for lo, shape in ((-(10**7), (20000001, 20000001)),
                      (-(10**30), (10**30 + 10**7 + 1, 20000001))):
        windows = [{"lo": lo, "hi": 10**7}, {"lo": 1, "hi": 20000001}]
        with pytest.raises(SchemaError) as exc:
            tensor_from_json({**doc, "windows": windows})
        assert f"window box {shape} cannot be allocated" in str(exc.value)


def test_window_past_the_index_limit_names_it(rng):
    mp = _mp()
    doc = tensor_to_json(random_tensor(mp, tuple(default_window(p, 4) for p in mp.factors), rng))
    top = MAX_INDEX - 8  # the box stays 9 x 5
    discrete = {"lo": 1, "hi": 5}
    at_limit = tensor_from_json({**doc, "windows": [{"lo": top, "hi": MAX_INDEX}, discrete]})
    assert at_limit.windows[0] == IndexWindow(top, MAX_INDEX)
    for windows, named in (
        ([{"lo": top + 1, "hi": MAX_INDEX + 1}, discrete], f"[{top + 1}, {MAX_INDEX + 1}]"),
        ([{"lo": -MAX_INDEX - 1, "hi": -top - 1}, discrete], f"[{-MAX_INDEX - 1}, {-top - 1}]"),
        ([{"lo": -4, "hi": 4}, {"lo": 10**15, "hi": 10**15 + 4}], f"[{10**15}, {10**15 + 4}]"),
    ):
        with pytest.raises(SchemaError) as exc:
            tensor_from_json({**doc, "windows": windows})
        assert f"window {named}" in str(exc.value) and f"|k| = {MAX_INDEX}" in str(exc.value)


@pytest.mark.parametrize(
    "values",
    [[], [5e-324, -2.2250738585072009e-308], [1e308, -1e308], [1.0]],
    ids=["all-zero", "subnormal", "1e308", "one-entry-box"],
)
def test_extreme_payloads_round_trip_bitwise(values):
    mp = _mp()
    if len(values) == 1:  # a box of one entry
        wins = (IndexWindow(0, 0), IndexWindow(1, 1))
    else:
        wins = tuple(default_window(p, 4) for p in mp.factors)
    arr = np.zeros(tuple(map(len, wins)), dtype=np.complex128)
    flat = arr.reshape(-1)
    flat.real[: len(values)] = values
    flat.imag[flat.size - len(values):] = values[::-1]  # the same entries when the box is one
    doc = tensor_to_json(TensorCoeffs(mp, wins, arr))
    if not values:
        assert doc["coeffs"] == {"index": "", "re": "", "im": ""}
    back = tensor_from_json(json.loads(json.dumps(doc)))
    assert back.coeffs.tobytes() == arr.tobytes()


def test_window_below_lowest_weight_is_a_schema_error(rng):
    mp = _mp()  # principal(2) x discrete(1)
    wins = tuple(default_window(p, 4) for p in mp.factors)
    tdoc = tensor_to_json(random_tensor(mp, wins, rng))
    fdoc = form_to_json(random_closed_form(mp, wins, 1, rng)[0])
    for doc, load in ((tdoc, tensor_from_json), (fdoc, form_from_json)):
        bad = json.loads(json.dumps(doc))
        bad["windows"][1]["lo"] = 0
        with pytest.raises(SchemaError, match="below lowest weight 1"):
            load(bad)
    # the form type itself checks its windows, as the tensor type does
    with pytest.raises(InvalidIndex):
        zero_form(mp, (wins[0], IndexWindow(0, 4)), 1)


@pytest.mark.parametrize("kind, degree", [("tensor", None), ("form", 1)])
def test_gen_documents_round_trip_to_themselves(tmp_path, kind, degree):
    to_json, from_json = {
        "tensor": (tensor_to_json, tensor_from_json),
        "form": (form_to_json, form_from_json),
    }[kind]
    for path in cmd_gen(_small_config(k=8), kind, degree, tmp_path):
        text = open(path).read()
        assert json.dumps(to_json(from_json(json.loads(text)))) + "\n" == text


def test_gen_files_do_not_depend_on_the_hash_seed(tmp_path):
    # benchmarks/run.py marks a run incorrect when one seed gives other input hashes
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config_to_json(_small_config(k=8))))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for kind, extra in (("tensor", []), ("form", ["--degree", "1"])):
            argv = [sys.executable, "-m", "paracoh.cli", "gen", "--config", str(cfg),
                    "--kind", kind, "--out", str(out / kind), *extra]
            subprocess.run(argv, env=env, check=True, capture_output=True)
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.json"))})
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]
