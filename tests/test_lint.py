"""Source checks on the library: safe under ``python -O``, no private reach-ins, no
``Poly2`` internals outside ``polyrat``, every JSON result behind the digit-limit
guard, every input fault a ``DomainError``."""

import ast
import importlib
from pathlib import Path

from logcy2.errors import DomainError

SRC = Path(__file__).resolve().parent.parent / "src" / "logcy2"

# Parsed once: every lint below runs over these trees, keyed by module name.
SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(SRC.glob("*.py"))
}
SUBMODULES = set(SOURCES) - {"__init__"}


def _found(lint, *args, skip: tuple[str, ...] = ()) -> list[str]:
    """``lint(tree, *args)`` over every source but those in skip, each finding prefixed by its module."""
    return [
        f"{module}.py:{item}" for module, tree in SOURCES.items() if module not in skip for item in lint(tree, *args)
    ]


def _reads_sys_flags(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(alias.name == "flags" for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == "flags"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


# ``python -O`` strips assert statements and code under ``__debug__`` and sets
# ``sys.flags.optimize``; a library with none of them runs the same code with
# or without it.  A ``global`` rebinds module state between calls, which the
# library keeps only in its function caches.
OPTIMIZE_HAZARDS = {
    "assert": lambda node: isinstance(node, ast.Assert),
    "global": lambda node: isinstance(node, ast.Global),
    "__debug__": lambda node: (isinstance(node, ast.Name) and node.id == "__debug__"
                               or isinstance(node, ast.Attribute) and node.attr == "__debug__"),
    "sys.flags": _reads_sys_flags,
}


def _optimize_hazards(tree: ast.AST) -> list[str]:
    """Every node of tree that one of ``OPTIMIZE_HAZARDS`` matches, by line and kind."""
    found = [(node.lineno, kind) for node in ast.walk(tree) for kind, hit in OPTIMIZE_HAZARDS.items() if hit(node)]
    return [f"{line}: {kind}" for line, kind in sorted(found)]


def test_optimize_check_sees_every_form():
    source = (
        "import sys\n"
        "from sys import argv, flags\n"
        "def f(x):\n"
        "    global CACHE\n"
        "    assert x, 'x'\n"
        "    if __debug__ or sys.flags.optimize or builtins.__debug__:\n"
        "        return flags\n"
        "    return sys.argv, x.flags, x.debug\n"
    )
    assert _optimize_hazards(ast.parse(source)) == [
        "2: sys.flags", "4: global", "5: assert", "6: __debug__", "6: __debug__", "6: sys.flags",
    ]


def _library_hazards(*kinds: str) -> list[str]:
    assert SUBMODULES, f"no sources under {SRC}"
    return [item for item in _found(_optimize_hazards) if item.rsplit(": ", 1)[1] in kinds]


# One rule, split by kind so a finding fails under the name of what it breaks; with every
# kind covered, the regular suite runs each check that ``python -O`` would run.
def test_library_has_no_assert_statements():
    found = _library_hazards("assert")
    assert not found, f"assert statements, which python -O strips: {found}"


def test_library_has_no_global_statements():
    found = _library_hazards("global")
    assert not found, f"global statements: {found}"


def test_library_checks_run_under_optimize():
    found = _library_hazards("__debug__", "sys.flags")
    assert not found, f"code python -O would strip or that reads its flags: {found}"


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
    found = _found(_private_reach_ins)
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
    found = _found(_poly_internals, skip=("polyrat",))
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
    found = _found(_unused_private_names)
    assert not found, f"private names their module never uses: {found}"


# Public functions and classes that no package code refers to and the
# package root does not export, each with the reason it stays.
KEPT_PUBLIC_NAMES = {
    "logcy2.polyrat.poly_gcd": "the benchmark tracer wraps it; the tests check it against sympy",
    "logcy2.polyrat.poly_divexact": "the benchmark tracer wraps it; the tests check it against sympy",
    "logcy2.surfaces.hirzebruch1": "the benchmark records and the acceptance tests build surfaces with it",
    "logcy2.lattice.pl_validate": "the tests check PL maps with it",
    "logcy2.sampling.random_elementary_setup": "the acceptance and diagram tests sample moves with it",
}


def _import_bindings(module: str, tree: ast.Module) -> dict[str, str]:
    """The local names the imports of ``module``, at any depth, bind, each to the qualified name it reaches."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package node.level - 1 levels above module's own
                package = module.rsplit(".", node.level)[0]
                base = f"{package}.{base}" if base else package
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    return bound


def _reached(node: ast.AST, module: str, bound: dict[str, str]) -> str | None:
    """The qualified name a name, or an attribute chain on one, reaches: an import's target, else a global of module."""
    if isinstance(node, ast.Name):
        return bound.get(node.id, f"{module}.{node.id}")
    if isinstance(node, ast.Attribute) and (base := _reached(node.value, module, bound)):
        return f"{base}.{node.attr}"
    return None


def _public_names_without_caller(trees: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """Module-level public functions and classes that no other definition refers to and that are not exported.

    A reference reaches the definition through a binding, outside the
    definition's own body: a name in its own module, a name imported from
    its home module, or the attribute ``home.name`` on the imported home
    module.  A name or attribute that only spells the same word, such as
    ``args.name``, is not one.
    """
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{module}.{node.name}"] = node
    readers: dict[str, list[ast.AST]] = {}
    for module, tree in trees.items():
        bound = _import_bindings(module, tree)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)) and (qualified := _reached(node, module, bound)):
                    readers.setdefault(qualified, []).append(top)
    return [
        qualified for qualified, node in defined.items()
        if node.name not in exported and all(top is node for top in readers.get(qualified, []))
    ]


def test_public_name_check_sees_names_no_other_definition_reads():
    trees = {
        "m.a": ast.parse(
            "def used(): pass\n"
            "def exported(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Lonely:\n"
            "    def method(self):\n"
            "        return Lonely\n"
            "def _private(): pass\n"
            "CONSTANT = used()\n"
        ),
        "m.b": ast.parse("from . import a\ndef reader():\n    return a.used, exported_elsewhere\n"),
    }
    assert _public_names_without_caller(trees, {"exported"}) == ["m.a.recursive", "m.a.Lonely", "m.b.reader"]


def test_public_name_check_reads_references_not_names():
    # The decoy reads attributes and locals that only spell a definition's
    # name; of the four, only linear and power are reached through a binding.
    trees = {
        "m.words": ast.parse("def elementary(n): pass\ndef linear(m): pass\ndef power(w): pass\ndef inverse(w): pass"),
        "m.cli": ast.parse(
            "from . import words\n"
            "from .words import linear as lin\n"
            "def move(args, elementary):\n"
            "    return args.elementary, elementary, lin, words.power, other.inverse, words.lin\n"
        ),
        "m.tools": ast.parse("import m.words\ndef run():\n    return m.words.power, m.inverse\n"),
    }
    assert _public_names_without_caller(trees, {"move", "run"}) == ["m.words.elementary", "m.words.inverse"]


def test_every_public_name_has_a_caller_or_is_exported_or_listed():
    # A public helper that no module calls and the package root does not
    # export is dead code unless something outside the package reads it.
    import logcy2

    trees = {f"logcy2.{module}": SOURCES[module] for module in sorted(SUBMODULES)}
    found = _public_names_without_caller(trees, set(logcy2._HOME))
    unlisted = [name for name in found if name not in KEPT_PUBLIC_NAMES]
    assert not unlisted, f"public names without a caller, an export or a listed reason: {unlisted}"
    stale = [name for name in KEPT_PUBLIC_NAMES if name not in found]
    assert not stale, f"listed names that are gone, exported or called: {stale}"


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
    found = _found(_unused_imports)
    assert not found, f"imported names never used: {found}"


def _unguarded_json_dumps(tree: ast.Module) -> list[str]:
    """References to ``json.dumps`` outside the guard of ``errors.output``, by their definition.

    A guarded reference is an argument of an ``output(...)`` call, as in
    ``output(json.dumps, x)``, or sits in a lambda passed to it; a
    ``json.dumps(x)`` passed as an argument runs before the guard does.
    """
    guarded = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "output":
            for arg in call.args:
                guarded.update(map(id, ast.walk(arg) if isinstance(arg, ast.Lambda) else [arg]))
    return [
        f"{node.lineno}: {getattr(top, 'name', '<module>')}"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "dumps"
        and isinstance(node.value, ast.Name) and node.value.id == "json" and id(node) not in guarded
    ]


def test_unguarded_json_check_tells_a_guarded_render_from_a_bare_one():
    source = (
        "import json\n"
        "def bare(x):\n"
        "    print(json.dumps(x))\n"
        "def passed(x):\n"
        "    print(output(json.dumps, x))\n"
        "def wrapped(x):\n"
        "    return output(lambda: json.dumps([str(x)]))\n"
        "def early(x):\n"
        "    return output(str, json.dumps(x))\n"
        "RENDER = json.dumps\n"
    )
    assert _unguarded_json_dumps(ast.parse(source)) == ["3: bare", "9: early", "10: <module>"]


def test_every_json_result_passes_the_digit_limit_guard():
    # json.dumps of an integer past the int-to-text digit limit raises a bare
    # ValueError, which the CLI would let out as a traceback.
    found = _found(_unguarded_json_dumps)
    assert not found, f"json.dumps outside output(...): {found}"


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
    found = _found(_root_name_imports, SUBMODULES)
    assert not found, f"names imported from the package root: {found}"


def test_lazy_table_matches_all():
    import logcy2

    assert sorted(logcy2._HOME) == logcy2.__all__
    assert set(logcy2._HOME.values()) <= SUBMODULES


# The library's exception classes that are not a ``DomainError``, each with its reason.
NOT_DOMAIN_ERRORS = {
    "logcy2.words.WordSyntaxError": "a usage error: the CLI exits 2 and reprints the grammar",
    "logcy2.polyrat.InexactDivisionError": "library API that no CLI command reaches",
    "logcy2.polyrat.ZeroDenominatorError": "library API that no CLI command reaches",
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
    for module in SUBMODULES:
        importlib.import_module(f"logcy2.{module}")
    found = _non_domain_errors("logcy2.", NOT_DOMAIN_ERRORS)
    assert not found, f"exception classes neither a DomainError nor listed: {found}"
    classes = _exception_classes("logcy2.")
    stale = [name for name in NOT_DOMAIN_ERRORS if name not in classes or issubclass(classes[name], DomainError)]
    assert not stale, f"listed classes that are gone or are a DomainError: {stale}"
