"""The lazy package namespace and what an import loads, each check in a fresh interpreter.

Every check runs with ``PYTHONDONTWRITEBYTECODE=1``, as a cold start does.
The library runs the same code under ``python -O`` (the static rule of
``test_lint.py``), so the checks run only in a plain interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = "sorted(m for m in sys.modules if m.startswith('logcy2.'))"

CHECKS = {
    "bare_import_loads_no_submodule": f"""
import sys
import logcy2
if {LOADED}:
    raise SystemExit(f"import logcy2 loaded {{{LOADED}}}")
""",
    "one_name_loads_its_home_and_its_imports": f"""
import sys
from logcy2 import realize
if {LOADED} != ["logcy2.birmap", "logcy2.errors", "logcy2.lattice", "logcy2.polyrat", "logcy2.words"]:
    raise SystemExit(f"from logcy2 import realize loaded {{{LOADED}}}")
""",
    "every_public_name_is_its_home_modules_object": """
import importlib
import logcy2
for name in logcy2.__all__:
    home = importlib.import_module(f"logcy2.{logcy2._HOME[name]}")
    if getattr(logcy2, name) is not getattr(home, name):
        raise SystemExit(f"logcy2.{name} is not {home.__name__}.{name}")
""",
    "star_import_binds_all": """
import logcy2
from logcy2 import *
missing = [name for name in logcy2.__all__ if name not in globals()]
if missing or not logcy2.__all__:
    raise SystemExit(f"from logcy2 import * did not bind {missing}")
""",
    "dir_lists_all": """
import logcy2
missing = set(logcy2.__all__) - set(dir(logcy2))
if missing:
    raise SystemExit(f"dir(logcy2) lacks {sorted(missing)}")
""",
    "unknown_name_raises_attribute_error": """
import logcy2
try:
    logcy2.no_such_name
except AttributeError as exc:
    if "no_such_name" not in str(exc):
        raise SystemExit(f"AttributeError does not name the attribute: {exc}")
else:
    raise SystemExit("logcy2.no_such_name did not raise")
try:
    from logcy2 import no_such_name
except ImportError:
    pass
else:
    raise SystemExit("from logcy2 import no_such_name did not raise")
""",
    "submodule_attribute_loads_the_submodule": """
import sys
import logcy2
if logcy2.surfaces.p2().total_m() != 0 or sys.modules.get("logcy2.surfaces") is not logcy2.surfaces:
    raise SystemExit("logcy2.surfaces did not load the submodule")
if logcy2.__version__ != "0.1.0":
    raise SystemExit(f"__version__ is {logcy2.__version__}")
""",
    # Surfaces move rays by ``words.ray_image``, so the surface side of the
    # library never loads the rational-function algebra.
    "diagrams_and_catalog_load_neither_birmap_nor_polyrat": f"""
import sys
import logcy2.diagrams, logcy2.catalog
want = ["logcy2.catalog", "logcy2.diagrams", "logcy2.errors", "logcy2.lattice", "logcy2.surfaces", "logcy2.words"]
if {LOADED} != want:
    raise SystemExit(f"import logcy2.diagrams, logcy2.catalog loaded {{{LOADED}}}")
""",
}

# The value classes are plain ``__slots__`` classes: neither the CLI nor the
# word path pays for importing ``dataclasses`` and, through it, ``inspect``.
for name, statement in (("cli", "import logcy2.cli"), ("realize", "from logcy2 import realize")):
    CHECKS[f"{name}_loads_neither_dataclasses_nor_inspect"] = f"""
import sys
{statement}
heavy = sorted({{"dataclasses", "inspect"}} & set(sys.modules))
if heavy:
    raise SystemExit(f"{statement} loaded {{heavy}}")
"""


# Each id names the plain interpreter, without -O, that the check runs in.
@pytest.mark.parametrize("name", sorted(CHECKS), ids=lambda name: f"{name}-plain")
def test_lazy_namespace(name):
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", CHECKS[name]], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
