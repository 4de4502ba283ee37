"""Source checks that keep the library safe to run under ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logcy2"

# Run under ``python -O``; every check raises SystemExit, none is an assert.
OPTIMIZED_CHECKS = """
import sys
from logcy2.lattice import MAT_ID, PLMap, pl_validate
from logcy2.polyrat import InexactDivisionError, Poly2, normalize, parse_poly, poly_divexact

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
try:
    poly_divexact(Poly2.x() + Poly2.const(1), Poly2.x())
except InexactDivisionError:
    pass
else:
    raise SystemExit("poly_divexact(x + 1, x) did not raise")
try:
    pl_validate(PLMap(((0, 1), (0, -1)), (((1, 1), (0, 1)), MAT_ID)))
except AssertionError:
    pass
else:
    raise SystemExit("pl_validate passed a discontinuous map")
text = str(normalize(parse_poly("x^2 + x*y + x + y"), parse_poly("2*x^2 + (-2)*x*y + 2*x + (-2)*y")))
if text != "((1/2)*x + (1/2)*y) / (x + (-1)*y)":
    raise SystemExit(f"normalize gave {text}")
"""


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


def test_library_checks_run_under_optimize():
    pythonpath = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert result.returncode == 0, result.stderr
