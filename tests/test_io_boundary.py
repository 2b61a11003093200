"""Only `taglok.cli` touches files.

Every other module takes and returns text: the map, waypoint and stream
parsers take it, the emitters return it, and `cli` alone reads inputs and
writes outputs, naming a failure by its key or flag. This parses each
module and fails on a call of `open`, `.open`, `.read_text`, `.write_text`,
`.read_bytes` or `.write_bytes`, or an import of `pathlib`, outside `cli.py`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "taglok"
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_uses(path: Path) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                uses.append(f"line {node.lineno}: {name}()")
        elif isinstance(node, ast.Import):
            uses += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                     if alias.name.split(".")[0] == "pathlib"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pathlib":
            uses.append(f"line {node.lineno}: from pathlib import")
    return uses


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py"))
def test_no_module_but_cli_touches_files(module):
    assert file_uses(SRC / module) == []


def test_the_check_finds_the_files_cli_touches():
    uses = file_uses(SRC / "cli.py")
    assert any("import" in use for use in uses) and any("open()" in use for use in uses)
