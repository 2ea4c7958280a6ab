"""Modules of the package use one another only through public names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_private_name_is_imported_from_another_module():
    leaks = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        leaks += [
            f"{path.relative_to(SRC)}:{node.lineno}: "
            f"from {'.' * node.level}{node.module or ''} import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert not leaks, "private names imported across modules:\n" + "\n".join(leaks)
