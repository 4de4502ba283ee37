"""Exact-arithmetic word algebra and surface combinatorics for
volume-preserving birational transformations of the plane, with log
Calabi-Yau surface data, almost-toric base diagrams and mirror bookkeeping.
"""

from .birmap import (
    BirationalMap,
    BoundaryAction,
    boundary_limit,
    equal,
    extend,
    realize,
    tropical_image,
    tropicalize,
    volume_character,
)
from .diagrams import (
    BaseDiagram,
    Node,
    apply_linear,
    cut_transfer,
    diagram,
    elementary_move,
    elementary_move_inverse,
    nodal_slide,
    render_svg,
    visible_spheres,
)
from .catalog import check_counts, exceptional_collection, vanishing_cycles
from .lattice import PLMap, complement_matrix, pl_apply, pl_compose, pl_inverse
from .polyrat import Poly2, RatFunc2, evaluate, normalize, partial_derivative, substitute
from .surfaces import (
    NotRegularError,
    Surface,
    boundary_intersection_matrix,
    cubic_surface,
    insert_ray,
    interior_blowup,
    leq,
    numeric_invariants,
    p1xp1,
    p2,
    pushforward,
    resolve,
    toric_self_intersections,
    validate,
)
from .words import Word, parse_word, word_to_text

__version__ = "0.1.0"

__all__ = [
    "BaseDiagram",
    "BirationalMap",
    "BoundaryAction",
    "Node",
    "NotRegularError",
    "PLMap",
    "Poly2",
    "RatFunc2",
    "Surface",
    "Word",
    "apply_linear",
    "boundary_intersection_matrix",
    "boundary_limit",
    "check_counts",
    "complement_matrix",
    "cubic_surface",
    "cut_transfer",
    "diagram",
    "elementary_move",
    "elementary_move_inverse",
    "equal",
    "evaluate",
    "exceptional_collection",
    "extend",
    "insert_ray",
    "interior_blowup",
    "leq",
    "nodal_slide",
    "normalize",
    "numeric_invariants",
    "p1xp1",
    "p2",
    "parse_word",
    "partial_derivative",
    "pl_apply",
    "pl_compose",
    "pl_inverse",
    "pushforward",
    "realize",
    "render_svg",
    "resolve",
    "substitute",
    "toric_self_intersections",
    "tropical_image",
    "tropicalize",
    "validate",
    "vanishing_cycles",
    "visible_spheres",
    "volume_character",
    "word_to_text",
]
