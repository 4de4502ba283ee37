"""Source checks that keep the library safe to run under ``python -O``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logcy2"


def test_library_has_no_assert_statements():
    # ``python -O`` strips assert statements, so an invariant check written
    # as one silently stops running; the library raises explicitly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert not found, f"assert statements in the library: {found}"
