"""Print every report field that differs between two kept report sets.

    python3 tools/report_diff.py A B

A and B are directories of reports, such as two sets written by
`tools/report_digest.py --keep`.  Files present in both are compared leaf by
leaf: a JSON leaf is a number, string, bool or null, named by its path of
keys and list indices, and a CSV leaf is one cell, named [row][column].
Each differing leaf prints on one line, with the relative change
|b - a| / max(|a|, |b|) when both values are numbers:

    seed0/solve-top-d2/solve-top.json  components[1].residual_rel  3.1e-16 -> 3.2e-16  rel 0.031

A file present on one side only prints as `missing in A` or `missing in B`
and makes the exit status 1; otherwise it is 0, whether or not values
differ.  A last line counts the files compared, the files that differ and
the differing leaves.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

_ABSENT = "<absent>"


def _files(root: str) -> set[str]:
    out = set()
    for dirpath, _, files in os.walk(root):
        out.update(os.path.relpath(os.path.join(dirpath, f), root) for f in files)
    return out


def _load(path: str):
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
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
