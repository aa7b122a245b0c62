"""Print every report field that differs between two kept report sets.

    python3 tools/report_diff.py A B

A and B are directories of reports, such as two sets written by
`tools/report_digest.py --keep`.  Files present in both are compared leaf by
leaf: a JSON leaf is a number, string, bool or null, named by its path of
keys and list indices, and a CSV leaf is one cell, named [row][column].
Each differing leaf prints on one line, with the relative change
|b - a| / max(|a|, |b|) when both values are numbers:

    seed0/solve-top-d2/solve-top.json  components[1].residual_rel  3.1e-16 -> 3.2e-16  rel 0.031

The base64 `coeffs` payloads of a tensor or form document (`gen` output) are
decoded and compared as one leaf per tensor or form component, keyed by the
basis index k of each entry, so shifted windows still line up.  The line
gives the entry counts and the largest relative change over the union of
entries, an entry missing on one side counting as 0:

    seed0/gen-tensor-d2/component-0.tensor.json  coeffs  4225 -> 4225 coefficients  max rel 2.2e-16

A file present on one side only prints as `missing in A` or `missing in B`
and makes the exit status 1; otherwise it is 0, whether or not values
differ.  A last line counts the files compared, the files that differ and
the differing leaves.
"""

from __future__ import annotations

import argparse
import base64
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

_ABSENT = "<absent>"
_PAYLOADS = (("index", "<i8"), ("re", "<f8"), ("im", "<f8"))


@dataclass(repr=False)
class _Coeffs:
    """Decoded coefficients of one component: basis index tuple -> complex value."""

    values: dict

    def __repr__(self) -> str:
        return f"<{len(self.values)} coefficients>"


def _decode(coeffs: dict, windows: list) -> _Coeffs:
    index, re, im = (np.frombuffer(base64.b64decode(coeffs[key], validate=True), dtype)
                     for key, dtype in _PAYLOADS)
    shape = tuple(w["hi"] - w["lo"] + 1 for w in windows)
    ks = np.stack(np.unravel_index(index, shape), axis=-1) + [w["lo"] for w in windows]
    return _Coeffs(dict(zip(map(tuple, ks.tolist()), (re + 1j * im).tolist())))


def _decode_payloads(doc):
    """A tensor or form document with each coeffs object decoded to _Coeffs."""
    if not isinstance(doc, dict) or "windows" not in doc:
        return doc
    comps = doc.get("components")
    for holder in [doc, *(comps if isinstance(comps, list) else [])]:
        try:
            holder["coeffs"] = _decode(holder["coeffs"], doc["windows"])
        except (KeyError, TypeError, ValueError):  # not a format-3 coeffs object: compare as JSON
            pass
    return doc


def _files(root: str) -> set[str]:
    out = set()
    for dirpath, _, files in os.walk(root):
        out.update(os.path.relpath(os.path.join(dirpath, f), root) for f in files)
    return out


def _load(path: str):
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return _decode_payloads(json.load(fh))
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    with open(path, "rb") as fh:
        return fh.read()


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _same(a, b) -> bool:
    if _is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _leaves(a, b, path: str = ""):
    """(path, a, b) for every leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            sub = f"{path}.{key}" if path else str(key)
            yield from _leaves(a.get(key, _ABSENT), b.get(key, _ABSENT), sub)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from _leaves(
                a[i] if i < len(a) else _ABSENT, b[i] if i < len(b) else _ABSENT, f"{path}[{i}]"
            )
    elif not _same(a, b):
        yield path, a, b


def _describe(a, b) -> str:
    if isinstance(a, _Coeffs) and isinstance(b, _Coeffs):
        va, vb = a.values, b.values
        pairs = ((va.get(k, 0), vb.get(k, 0)) for k in va.keys() | vb.keys())
        rel = max(abs(y - x) / (max(abs(x), abs(y)) or 1) for x, y in pairs)
        return f"{len(va)} -> {len(vb)} coefficients  max rel {rel:.3g}"
    text = f"{a!r} -> {b!r}"
    if _is_number(a) and _is_number(b):
        text += f"  rel {abs(b - a) / max(abs(a), abs(b)):.3g}"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", metavar="A", help="directory of the reference reports")
    parser.add_argument("b", metavar="B", help="directory of the reports to compare")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not os.path.isdir(root):
            parser.error(f"{root} is not a directory")
    files_a, files_b = _files(args.a), _files(args.b)
    missing = 0
    compared = differ = leaves = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print(f"{rel}  missing in {'B' if rel in files_a else 'A'}")
            missing += 1
            continue
        compared += 1
        a, b = _load(os.path.join(args.a, rel)), _load(os.path.join(args.b, rel))
        if isinstance(a, bytes):
            diffs = [] if a == b else [("<bytes>", f"{len(a)} bytes", f"{len(b)} bytes")]
        else:
            diffs = list(_leaves(a, b))
        differ += bool(diffs)
        leaves += len(diffs)
        for path, va, vb in diffs:
            print(f"{rel}  {path}  {_describe(va, vb)}")
    print(f"{compared} files compared, {differ} differ, {leaves} leaves differ, {missing} missing")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
