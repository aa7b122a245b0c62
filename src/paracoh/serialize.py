"""JSON schemas for coefficient data, forms, and reports.

One document per object.  Tensors:

    {"format_version": 3,
     "factors": [{"kind": "principal", "nu_im": 2.0} |
                 {"kind": "complementary", "nu": 0.5} |
                 {"kind": "discrete", "n": 1}, ...],
     "windows": [{"lo": -64, "hi": 64}, ...],
     "coeffs": {"index": "<base64>", "re": "<base64>", "im": "<base64>"}}

Coefficients are sparse and columnar.  Each payload is standard, padded
base64 of the raw little-endian bytes of one array: "index" is <i8 and
holds the C-order flat offset of each nonzero entry in the box of the
windows, strictly increasing, and "re" and "im" are <f8.  The layout is
canonical and round-trips bit-exactly.  Forms add "degree" and per-component
documents under "components", with 1-based "axes".  Loads validate kinds,
windows (against each factor's index set, an allocatable box and
|k| <= MAX_INDEX), the payloads as whole arrays, finiteness, and the format
version; there is no reader for any other version.  Tensor and form files
are written compact, by json's C encoder; reports keep indent=1.
"""

from __future__ import annotations

import base64
import json
import math
import os
from typing import Any

import numpy as np

from .errors import InvalidIndex, SchemaError
from .forms import LeafwiseForm
from .params import IndexWindow, Kind, MultiParam, SeriesParam, check_window
from .tensor import TensorCoeffs

FORMAT_VERSION = 3
# Largest |k| a window may reach.  Basis norms are running products from
# k = 0 (complementary) or the lowest weight (discrete), so a window far out
# costs tables of that length however small its box; 2**20 is far above the
# K <= 2048 the solves are run at.
MAX_INDEX = 2**20


def json_int(value: Any) -> int:
    """An integer field of a JSON document.

    Raises ValueError for bools, strings and non-integral numbers, which
    int() would silently truncate or convert.
    """
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def json_float(value: Any) -> float:
    """A finite real-number field of a JSON document.

    Raises ValueError for bools, strings, NaN, ±Infinity (which json reads
    from the tokens NaN and Infinity) and integers too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def factor_to_json(p: SeriesParam) -> dict:
    if p.kind is Kind.PRINCIPAL:
        return {"kind": "principal", "nu_im": p.nu.imag}
    if p.kind is Kind.COMPLEMENTARY:
        return {"kind": "complementary", "nu": p.nu.real}
    return {"kind": "discrete", "n": p.n}


def factor_from_json(obj: Any) -> SeriesParam:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"bad factor entry: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "principal":
            param = SeriesParam.principal(json_float(obj["nu_im"]))
        elif kind == "complementary":
            param = SeriesParam.complementary(json_float(obj["nu"]))
        elif kind == "discrete":
            param = SeriesParam.discrete(json_int(obj["n"]))
        else:
            raise SchemaError(f"unknown factor kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad factor entry {obj!r}: {exc}") from exc
    unknown = [key for key in obj if key not in factor_to_json(param)]
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r} in factor entry {obj!r}")
    return param


def window_from_json(obj: Any) -> IndexWindow:
    try:
        return IndexWindow(json_int(obj["lo"]), json_int(obj["hi"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad window entry {obj!r}: {exc}") from exc


_PAYLOADS = (("index", "<i8"), ("re", "<f8"), ("im", "<f8"))


def _coeffs_to_json(arr: np.ndarray) -> dict:
    index = np.flatnonzero(arr)  # C-order offsets, increasing
    vals = arr.reshape(-1)[index]
    columns = (index, vals.real, vals.imag)
    return {key: base64.b64encode(np.asarray(col, dtype).tobytes()).decode("ascii")
            for (key, dtype), col in zip(_PAYLOADS, columns)}


def _payload(text: Any, key: str, dtype: str) -> np.ndarray:
    """One column from padded base64 of whole 8-byte little-endian items."""
    if not isinstance(text, str):
        raise SchemaError(f"coeffs {key} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise SchemaError(f"coeffs {key} is not base64: {exc}") from exc
    if len(raw) % 8 or len(text) != 4 * -(-len(raw) // 3):
        raise SchemaError(f"coeffs {key} must be padded base64 of whole 8-byte items")
    return np.frombuffer(raw, dtype)


def _coeffs_from_json(obj: Any, windows: tuple[IndexWindow, ...]) -> np.ndarray:
    """Dense coefficients from the columnar payloads, validated as whole arrays."""
    if not isinstance(obj, dict) or set(obj) != {"index", "re", "im"}:
        raise SchemaError("coeffs must be an object with exactly the keys index, re, im")
    pos, re, im = (_payload(obj[key], key, dtype) for key, dtype in _PAYLOADS)
    if not len(pos) == len(re) == len(im):
        raise SchemaError("coeffs index, re and im must hold equally many items")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise SchemaError("non-finite coefficient value")
    arr = _zero_box(windows)
    if len(pos) and not (0 <= pos[0] and pos[-1] < arr.size and np.all(pos[1:] > pos[:-1])):
        raise SchemaError(f"coefficient indices must increase strictly within [0, {arr.size})")
    flat = arr.reshape(-1)
    flat.real[pos], flat.imag[pos] = re, im
    return arr


def _zero_box(windows: tuple[IndexWindow, ...]) -> np.ndarray:
    shape = tuple(w.hi - w.lo + 1 for w in windows)  # len() overflows past sys.maxsize
    try:
        return np.zeros(shape, dtype=np.complex128)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise SchemaError(f"window box {shape} cannot be allocated: {exc}") from exc


def _list_field(doc: dict, key: str) -> list:
    """A required non-empty list field of a document."""
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    if not isinstance(doc[key], list) or not doc[key]:
        raise SchemaError(f"{key} must be a non-empty list, got {doc[key]!r}")
    return doc[key]


def _params_windows(
    doc: dict, eps0: float, nu0: float
) -> tuple[MultiParam, tuple[IndexWindow, ...]]:
    """The factors and windows of a tensor or form document."""
    factors = tuple(factor_from_json(o) for o in _list_field(doc, "factors"))
    windows = tuple(window_from_json(o) for o in _list_field(doc, "windows"))
    if len(factors) != len(windows):
        raise SchemaError("factors and windows disagree in length")
    try:
        for p, w in zip(factors, windows):
            check_window(p, w)
    except InvalidIndex as exc:
        raise SchemaError(str(exc)) from exc
    _zero_box(windows)  # a box no allocator can give is named as such first
    for p, w in zip(factors, windows):
        if max(-w.lo, w.hi) > MAX_INDEX:
            raise SchemaError(
                f"window [{w.lo}, {w.hi}] of {p.label()} reaches past |k| = {MAX_INDEX}, "
                "the largest index a window may hold"
            )
    return MultiParam(factors, eps0=eps0, nu0=nu0), windows


def _check_version(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"format_version {doc.get('format_version')!r} not supported "
            f"(want {FORMAT_VERSION})"
        )


def tensor_to_json(f: TensorCoeffs) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "factors": [factor_to_json(p) for p in f.params.factors],
        "windows": [{"lo": w.lo, "hi": w.hi} for w in f.windows],
        "coeffs": _coeffs_to_json(f.coeffs),
    }


def tensor_from_json(doc: Any, eps0: float = 0.05, nu0: float = 0.95) -> TensorCoeffs:
    _check_version(doc)
    params, windows = _params_windows(doc, eps0, nu0)
    if "coeffs" not in doc:  # a form document, say, is not the zero tensor
        raise SchemaError("missing field 'coeffs'")
    return TensorCoeffs(params, windows, _coeffs_from_json(doc["coeffs"], windows))


def form_to_json(w: LeafwiseForm) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "degree": w.degree,
        "factors": [factor_to_json(p) for p in w.params.factors],
        "windows": [{"lo": win.lo, "hi": win.hi} for win in w.windows],
        "components": [
            {"axes": [a + 1 for a in axes], "coeffs": _coeffs_to_json(arr)}
            for axes, arr in sorted(w.components.items())
        ],
    }


def form_from_json(doc: Any, eps0: float = 0.05, nu0: float = 0.95) -> LeafwiseForm:
    _check_version(doc)
    try:
        degree = json_int(doc["degree"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad form degree: {exc}") from exc
    params, windows = _params_windows(doc, eps0, nu0)
    entries = _list_field(doc, "components")
    comps = {}
    for e in entries:
        try:
            axes = tuple(json_int(a) - 1 for a in e["axes"])
            coeffs = e["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad component entry: {exc}") from exc
        if axes in comps:
            raise SchemaError(f"duplicate component {axes}")
        if any(not 0 <= a < params.d for a in axes) or tuple(sorted(axes)) != axes:
            raise SchemaError(f"bad axes tuple {[a + 1 for a in axes]}")
        comps[axes] = _coeffs_from_json(coeffs, windows)
    try:
        return LeafwiseForm(degree, params, windows, comps)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def save_json(path: str | os.PathLike, doc: dict, indent: int | None = 1) -> None:
    """Write one document; indent=None gives compact text from the C encoder,
    which json.dump never uses."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=indent))
        fh.write("\n")


def load_json(path: str | os.PathLike) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path} is not UTF-8 JSON: {exc}") from exc


def save_tensor(path: str | os.PathLike, f: TensorCoeffs) -> None:
    save_json(path, tensor_to_json(f), indent=None)


def load_tensor(path: str | os.PathLike, eps0: float = 0.05, nu0: float = 0.95) -> TensorCoeffs:
    return tensor_from_json(load_json(path), eps0, nu0)


def save_form(path: str | os.PathLike, w: LeafwiseForm) -> None:
    save_json(path, form_to_json(w), indent=None)


def load_form(path: str | os.PathLike, eps0: float = 0.05, nu0: float = 0.95) -> LeafwiseForm:
    return form_from_json(load_json(path), eps0, nu0)


def table_to_csv(rows: list[dict], path: str | os.PathLike) -> None:
    """Sweep table with the fixed header param,value,bound,ratio."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "bound", "ratio"])
        for row in rows:
            writer.writerow(
                [row.get("param"), row.get("value"), row.get("bound"), row.get("ratio")]
            )
