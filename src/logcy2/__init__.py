"""Exact-arithmetic word algebra and surface combinatorics for
volume-preserving birational transformations of the plane, with log
Calabi-Yau surface data, almost-toric base diagrams and mirror bookkeeping.

The namespace is lazy (PEP 562): ``import logcy2`` loads no submodule.  The
first use of a public name, say ``logcy2.realize`` or ``from logcy2 import
realize``, imports its home submodule (and what that one imports), and
``logcy2.surfaces`` loads that submodule the same way.  A public name is
read from its home module on every use and is never copied into this
namespace, so it always is the home module's current binding, also where a
test or a profiler rebinds it there.  ``logcy2.cli`` imports everything it
dispatches to when it is loaded, so a CLI run pays for the whole library
once, before its first command.
"""

import importlib

__version__ = "0.1.0"

# Public name -> its home submodule.  ``__all__`` is this table's keys.
_HOME = {
    **dict.fromkeys(
        (
            "BirationalMap",
            "BoundaryAction",
            "boundary_limit",
            "compose",
            "equal",
            "realize",
            "tropical_image",
            "tropicalize",
            "volume_character",
        ),
        "birmap",
    ),
    **dict.fromkeys(
        (
            "BaseDiagram",
            "Node",
            "apply_linear",
            "cut_transfer",
            "diagram",
            "elementary_move",
            "elementary_move_inverse",
            "nodal_slide",
            "render_svg",
            "visible_spheres",
        ),
        "diagrams",
    ),
    **dict.fromkeys(("check_counts", "exceptional_collection", "vanishing_cycles"), "catalog"),
    **dict.fromkeys(("PLMap", "complement_matrix", "pl_apply", "pl_compose", "pl_inverse"), "lattice"),
    **dict.fromkeys(("Poly2", "RatFunc2", "evaluate", "normalize", "substitute"), "polyrat"),
    **dict.fromkeys(
        (
            "NotRegularError",
            "Surface",
            "boundary_form",
            "cubic_surface",
            "insert_ray",
            "interior_blowup",
            "leq",
            "numeric_invariants",
            "p1xp1",
            "p2",
            "pushforward",
            "resolve",
            "toric_self_intersections",
            "validate",
        ),
        "surfaces",
    ),
    **dict.fromkeys(("Word", "parse_word", "word_to_text"), "words"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME.values():
        # Importing a submodule binds it in this namespace.
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
