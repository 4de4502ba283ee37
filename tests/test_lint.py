"""Source checks on the library: safe under ``python -O``, no private reach-ins, no
``Poly2`` internals outside ``polyrat``, every input fault a ``DomainError``."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from logcy2.errors import DomainError

SRC = Path(__file__).resolve().parent.parent / "src" / "logcy2"

# Run under ``python -O``; every check raises SystemExit, none is an assert.
OPTIMIZED_CHECKS = """
import sys
from logcy2 import polyrat
from logcy2.birmap import IDENTITY_MAP, BirationalMap, compose, elementary_realization, monomial_map, realize
from logcy2.lattice import MAT_ID, PLMap, mat_inv, pl_validate
from logcy2.polyrat import (
    InexactDivisionError, Poly2, RatFunc2, dlog_ratio, normalize, parse_poly, parse_ratfunc, poly_divexact,
)
from logcy2.surfaces import InvalidSurfaceError, Surface
from logcy2.words import Linear, parse_word

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
try:
    poly_divexact(Poly2.x() + Poly2.const(1), Poly2.x())
except InexactDivisionError:
    pass
else:
    raise SystemExit("poly_divexact(x + 1, x) did not raise")
# The synthetic division of the E-step kernel: 1 + 2x, in alternating signs
# [1, -2], is not divisible by 1 + x.
try:
    polyrat._times_one_plus_x([1, -2], -1)
except InexactDivisionError:
    pass
else:
    raise SystemExit("dividing 1 + 2x by 1 + x did not raise")
try:
    pl_validate(PLMap(((0, 1), (0, -1)), (((1, 1), (0, 1)), MAT_ID)))
except AssertionError:
    pass
else:
    raise SystemExit("pl_validate passed a discontinuous map")
text = str(normalize(parse_poly("x^2 + x*y + x + y"), parse_poly("2*x^2 + (-2)*x*y + 2*x + (-2)*y")))
if text != "((1/2)*x + (1/2)*y) / (x + (-1)*y)":
    raise SystemExit(f"normalize gave {text}")
# A numerator whose content is not an integer prints content times each term
# and reads back to the same fraction.
r = normalize(parse_poly("(1/2)*x + (3/2)*y"), parse_poly("(1/3)*x + 1"))
if str(r) != "((3/2)*x + (9/2)*y) / (x + 3)":
    raise SystemExit(f"normalize gave {r}")
if parse_ratfunc(str(r)) != r:
    raise SystemExit(f"{r} did not read back to itself")
# r1 after r3 gives one text on both routes: pulled back through r3's steps,
# and substituted into r3 without them, which runs the one-term product path
# and the plain substitute once per coordinate.
r1, r3 = realize(parse_word("r1")), realize(parse_word("r3"))
for inner in (r3, BirationalMap(r3.f, r3.g)):
    text = str(compose(r1, inner))
    if text != (
        "((x^4 + 4*x^3*y + 6*x^2*y^2 + 4*x*y^3 + y^4 + 2*x^2*y + 4*x*y^2 + 2*y^3 + y^2)"
        " / (x^3 + 2*x^2*y + x*y^2), (y) / (x^2 + 2*x*y + y^2))"
    ):
        raise SystemExit(f"r1 after r3 gave {text} with inner steps {inner.steps}")
# realize runs the pullback kernels; a fold of compose by substitution gives
# the same text.
w = parse_word("E^-3*E[1,0]^2*A[0,1;1,0]")
folded = IDENTITY_MAP
for gen, e in w.letters:
    if isinstance(gen, Linear):
        m = monomial_map(gen.mat if e == 1 else mat_inv(gen.mat))
    else:
        m = elementary_realization(gen.n, e)
    folded = compose(folded, BirationalMap(m.f, m.g))
if str(realize(w)) != str(folded):
    raise SystemExit(f"realize gave {realize(w)}, the compose fold {folded}")
# The second pass of dlog_ratio decides both: (x^2, y) scales the form by
# 2 and (x + 1, y) by a non-constant.
x2, y = RatFunc2.from_poly(parse_poly("x^2")), RatFunc2.y()
if dlog_ratio(x2, y) != 2:
    raise SystemExit(f"dlog_ratio(x^2, y) gave {dlog_ratio(x2, y)}")
if dlog_ratio(RatFunc2.from_poly(parse_poly("x + 1")), y) is not None:
    raise SystemExit("dlog_ratio(x + 1, y) gave a constant")
# validate's accept pass passes neither a determinant-2 pair nor seven
# distinct rays with every adjacent determinant 1 that wind twice, so
# constructing either surface raises.
bad_det = (((1, 0), (0, 1), (-2, -1)), (0, 0, 0))
twice = (((1, 0), (0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0), (-2, -1)), (0,) * 7)
for data, expected in (
    (bad_det, ["det((0, 1), (-2, -1)) = 2, expected 1"]),
    (twice, ["rays wind 2 times around the origin"]),
):
    try:
        Surface(*data)
    except InvalidSurfaceError as err:
        if err.violations != expected:
            raise SystemExit(f"Surface{data} raised {err.violations}")
    else:
        raise SystemExit(f"Surface{data} constructed")
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


def test_library_has_no_global_statements():
    # A ``global`` rebinds module state between calls; the library keeps
    # state across calls only in its function caches.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert not found, f"global statements in the library: {found}"


def test_library_checks_run_under_optimize():
    pythonpath = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert result.returncode == 0, result.stderr


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reach_ins(tree: ast.AST) -> list[str]:
    """Underscore names a module imports from, or reads off, another package module."""
    modules: set[str] = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "logcy2"):
            for alias in node.names:
                if node.module in (None, "logcy2"):  # from . import birmap
                    modules.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    found.append(f"{node.lineno}: from {node.module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "logcy2":
                    modules.add(alias.asname or "logcy2")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_private_name_check_sees_both_forms():
    source = (
        "from .birmap import _letter_trop, tropicalize\n"
        "from . import birmap\n"
        "import logcy2.surfaces\n"
        "def f(self):\n"
        "    return birmap._letter_map, logcy2.surfaces._negative_definite, self._cache, birmap.__name__\n"
    )
    assert _private_reach_ins(ast.parse(source)) == [
        "1: from birmap import _letter_trop",
        "5: birmap._letter_map",
        "5: logcy2.surfaces._negative_definite",
    ]


def test_no_module_reaches_into_private_names():
    # A module uses only the public names of its siblings, so each module's
    # private helpers can change without breaking another.
    found = [
        f"{path.name}:{item}"
        for path in sorted(SRC.glob("*.py"))
        for item in _private_reach_ins(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert not found, f"private names used across modules: {found}"


def _poly_internals(tree: ast.AST) -> list[str]:
    """Every use of a ``.terms`` or ``.content`` attribute, the integer terms and the content of a ``Poly2``."""
    found = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in ("terms", "content")]
    return [f"{node.lineno}: {ast.unparse(node)}" for node in sorted(found, key=lambda node: node.lineno)]


def test_poly_internals_check_sees_attribute_reads():
    source = (
        "def f(r, terms):\n"
        "    content = r.num.content\n"
        "    return r.num.terms, terms, content, r.content_of\n"
    )
    assert _poly_internals(ast.parse(source)) == ["2: r.num.content", "3: r.num.terms"]


def test_only_polyrat_reads_poly_internals():
    # The polynomial core has one home: every other module goes through
    # polyrat's public functions, never through a Poly2's terms or content.
    found = [
        f"{path.name}:{item}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "polyrat.py"
        for item in _poly_internals(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert not found, f"Poly2 internals read outside polyrat: {found}"


def _unused_private_names(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and constants the module never refers to.

    A function's or class's own body does not count as a use of its name.
    """
    defined: dict[str, int] = {}
    bindings: set[int] = set()  # ids of the Name nodes that define or self-refer
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == node.name]
            bound = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            bound = [(n.id, n.lineno) for n in names]
        else:
            continue
        bindings.update(map(id, names))
        for name, line in bound:
            if _is_private(name):
                defined.setdefault(name, line)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and id(n) not in bindings}
    return [f"{line}: {name}" for name, line in defined.items() if name not in used]


def test_unused_private_name_check_sees_functions_classes_and_constants():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "class _Gone:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert _unused_private_names(ast.parse(source)) == ["2: _UNUSED", "5: _recursive", "7: _Gone"]


def test_no_module_keeps_an_unused_private_name():
    # A private helper nothing in its own module calls is dead code: no
    # other module may reach it either (see the check above).
    found = [
        f"{path.name}:{item}"
        for path in sorted(SRC.glob("*.py"))
        for item in _unused_private_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert not found, f"private names their module never uses: {found}"


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names a module imports, at any depth, and never reads; ``from __future__`` aside."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]


def test_unused_import_check_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import json as j\n"
        "from .lattice import cross, in_sector\n"
        "import logcy2.surfaces\n"
        "def f(v):\n"
        "    from .birmap import realize\n"
        "    return cross(v, v), sys.argv, logcy2.surfaces.p2\n"
    )
    assert _unused_imports(ast.parse(source)) == ["2: os", "3: j", "4: in_sector", "7: realize"]


def test_no_module_imports_a_name_it_never_uses():
    # A leftover import of a moved or deleted helper keeps a dependency
    # between modules that the code no longer has.
    found = [
        f"{path.name}:{item}"
        for path in sorted(SRC.glob("*.py"))
        for item in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert not found, f"imported names never used: {found}"


def _root_name_imports(tree: ast.AST, submodules: set[str]) -> list[str]:
    """Names a module imports from the package root that are not submodules.

    The root resolves its public names lazily from the submodules, so a
    submodule that imported one back would import in a cycle.
    """
    return [
        f"{node.lineno}: from {node.module or '.'} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and ((node.level == 1 and node.module is None) or (node.level == 0 and node.module == "logcy2"))
        for alias in node.names
        if alias.name not in submodules
    ]


def test_root_name_check_sees_both_forms():
    source = (
        "from . import birmap, realize\n"
        "from logcy2 import surfaces, Surface\n"
        "from .birmap import realize\n"
        "from logcy2.words import Word\n"
    )
    assert _root_name_imports(ast.parse(source), {"birmap", "surfaces"}) == [
        "1: from . import realize",
        "2: from logcy2 import Surface",
    ]


def test_no_module_imports_a_name_from_the_package_root():
    submodules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    found = [
        f"{path.name}:{item}"
        for path in sorted(SRC.glob("*.py"))
        for item in _root_name_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), submodules)
    ]
    assert not found, f"names imported from the package root: {found}"


def test_lazy_table_matches_all():
    import logcy2

    assert sorted(logcy2._HOME) == logcy2.__all__
    submodules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert set(logcy2._HOME.values()) <= submodules


# The library's exception classes that are not a ``DomainError``, each with its reason.
NOT_DOMAIN_ERRORS = {
    "logcy2.words.WordSyntaxError": "a usage error: the CLI exits 2 and reprints the grammar",
    "logcy2.polyrat.InexactDivisionError": "library API that no CLI command reaches",
    "logcy2.polyrat.ZeroDenominatorError": "library API that no CLI command reaches",
    "logcy2.polyrat.IdenticallySingularError": "library API that no CLI command reaches",
    "logcy2.polyrat.PolyParseError": "library API that no CLI command reaches",
}


def _exception_classes(prefix: str) -> dict[str, type]:
    """Every exception class defined in a module whose name starts with prefix, by qualified name."""
    found, todo = {}, [BaseException]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith(prefix):
            found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


def _non_domain_errors(prefix: str, listed) -> list[str]:
    """The exception classes under prefix that are neither a ``DomainError`` nor listed."""
    return sorted(
        name for name, cls in _exception_classes(prefix).items()
        if not issubclass(cls, DomainError) and name not in listed
    )


def test_domain_error_check_sees_every_other_exception_class():
    namespace = {"__name__": "lint_sample", "DomainError": DomainError}
    exec(
        "class Good(DomainError, ValueError): pass\n"
        "class Indirect(Good): pass\n"
        "class Bad(ValueError): pass\n"
        "class AlsoBad(Bad): pass\n"
        "class Listed(ArithmeticError): pass\n"
        "class NotAnError: pass\n"
        "def make():\n"
        "    class Nested(KeyError): pass\n"
        "    return Nested\n"
        "nested = make()\n",
        namespace,
    )
    assert _non_domain_errors("lint_sample", {"lint_sample.Listed"}) == [
        "lint_sample.AlsoBad",
        "lint_sample.Bad",
        "lint_sample.make.<locals>.Nested",
    ]


def test_every_library_exception_is_a_domain_error_or_listed():
    # The CLI exits 1 on every DomainError, so a new exception class for a
    # fault of the input gets exit 1 without a second list to extend; any
    # other class has to be listed above with its reason.
    for path in SRC.glob("*.py"):
        importlib.import_module("logcy2" if path.stem == "__init__" else f"logcy2.{path.stem}")
    found = _non_domain_errors("logcy2.", NOT_DOMAIN_ERRORS)
    assert not found, f"exception classes neither a DomainError nor listed: {found}"
    classes = _exception_classes("logcy2.")
    stale = [name for name in NOT_DOMAIN_ERRORS if name not in classes or issubclass(classes[name], DomainError)]
    assert not stale, f"listed classes that are gone or are a DomainError: {stale}"
