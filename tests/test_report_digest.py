"""`tools/report_digest.py --check FILE` against a saved digest, on a one-run set."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _tool(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "_report_digest", os.path.join(ROOT, "tools", "report_digest.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "RUNS", [("gen-tensor-d2", tool.default(2), 4, tool.gen("tensor"))])
    monkeypatch.setattr(tool, "SEEDS", (0,))
    return tool


def test_check_passes_on_the_saved_digest_and_lists_what_differs(monkeypatch, tmp_path, capsys):
    tool = _tool(monkeypatch)
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.endswith(".tensor.json") for line in lines)
    saved = tmp_path / "digest.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert tool.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out == f"all 3 lines match {saved}\n"
    moved = "0" * 64 + lines[1][64:]
    saved.write_text("\n".join([lines[0], moved, lines[2]]) + "\n")
    assert tool.main(["--check", str(saved)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"2 lines differ from {saved}:", f"- {moved}", f"+ {lines[1]}"]
