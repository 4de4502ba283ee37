"""Almost-toric base diagrams and their moves.

A diagram is a finite set of nodes in the plane.  Each node sits on a line
through the origin (its eigenline) and carries a branch cut along it:
``cut_sign * direction`` is the direction of the cut ray, which either
avoids the origin or passes through it.  The node's monodromy, the
unipotent map fixing the eigenline, is computed from the direction when it
is used: ``lattice.elementary_shear(direction, -1)``, the inverse of the
shear by which the elementary map at that direction moves rays.  Directions
are stored sign-canonically (first nonzero coordinate positive) so that
equal geometric data serializes identically.

``diagram`` places one node at each point j*n, 1 <= j <= m_n, of a surface
datum, cut away from the origin.  Nodal slides move a node along its
eigenline; a cut transfer flips a node's cut to the opposite ray and
re-charts one open half-plane by the node's monodromy (the inverse
monodromy when the cut leaves the origin, the monodromy itself when it
returns, making the two transfers exactly inverse).  ``elementary_move``
steps one line's nodes in one pass and transfers one cut: the base-diagram
mirror of an elementary transformation, tested against the pushforward.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .lattice import (
    Mat,
    NonPrimitiveError,
    Vec,
    elementary_shear,
    mat_vec,
    neg,
    require_primitive,
    require_unimodular,
)
from .errors import DomainError, Value, cut, output, rational, rationals
from .surfaces import Surface, check_blowup_budget

# A position: each coordinate an int when it is integral and a Fraction only
# otherwise, on every path that makes one, so lattice diagrams never build a
# Fraction.  The two forms of a value compare, hash and print alike.
Point = tuple[int | Fraction, int | Fraction]


class InvalidDiagramError(DomainError, ValueError):
    """A diagram or one of its node records is malformed."""


class OffEigenlineError(DomainError, ValueError):
    pass


class BlockedError(DomainError, ValueError):
    def __init__(self, message: str, blocker: int | None = None):
        super().__init__(message)
        self.blocker = blocker


class PreconditionFailedError(DomainError, ValueError):
    pass


def monodromy_for(direction: Vec) -> Mat:
    """The unipotent monodromy v -> v - cross(direction, v) direction, fixing the eigenline."""
    return elementary_shear(require_primitive(direction), -1)


def canonical_direction(v: Vec) -> tuple[Vec, int]:
    """(canonical representative, sign), first nonzero coordinate positive."""
    require_primitive(v)
    if v[0] > 0 or (v[0] == 0 and v[1] > 0):
        return v, 1
    return (-v[0], -v[1]), -1


class Node(Value):
    """Ordered by (position, direction, cut_sign), as ``BaseDiagram`` sorts its nodes."""

    __slots__ = ("position", "direction", "cut_sign")
    position: Point
    direction: Vec
    cut_sign: int

    def __lt__(self, other):  # with __le__, reflection gives > and >=
        return self._key(self) < other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self._key(self) <= other._key(other) if other.__class__ is self.__class__ else NotImplemented

    @property
    def monodromy(self) -> Mat:
        return monodromy_for(self.direction)

    def cut_vector(self) -> Vec:
        return (self.cut_sign * self.direction[0], self.cut_sign * self.direction[1])


def make_node(position: Point, direction: Vec, cut_sign: int) -> Node:
    """Build a node, canonicalizing the direction sign."""
    pos = (rational(position[0]), rational(position[1]))
    if cut_sign not in (1, -1):
        raise InvalidDiagramError(f"cut_sign must be +-1, got {cut(cut_sign)}")
    direction, flip = canonical_direction(direction)
    if pos[0] * direction[1] - pos[1] * direction[0] != 0:
        raise OffEigenlineError(f"position {cut(pos)} not on line through {cut(direction)}")
    return Node(pos, direction, cut_sign * flip)


class BaseDiagram(Value):
    """Nodes, kept sorted so equal diagrams compare and serialize equal."""

    __slots__ = ("nodes",)
    nodes: tuple[Node, ...]

    def __init__(self, nodes: tuple[Node, ...] = ()) -> None:
        nodes = tuple(sorted(nodes))
        positions = [n.position for n in nodes]
        if len(set(positions)) != len(positions):
            raise InvalidDiagramError("two nodes share a position")
        object.__setattr__(self, "nodes", nodes)

    def node_at(self, point: Point) -> int:
        pos = (rational(point[0]), rational(point[1]))
        for i, n in enumerate(self.nodes):
            if n.position == pos:
                return i
        raise PreconditionFailedError(f"no node at {cut(pos)}")


def diagram(s: Surface) -> BaseDiagram:
    """One node at j*n for each ray with m_n >= 1, cut away from the origin."""
    check_blowup_budget(s)
    nodes = []
    for ray, m in s.blown_up_rays():
        direction, flip = canonical_direction(ray)  # each j*ray lies on the line: make_node's checks hold
        nodes += [Node((j * ray[0], j * ray[1]), direction, flip) for j in range(1, m + 1)]
    return BaseDiagram(tuple(nodes))


def _transform_node(node: Node, mat: Mat) -> Node:
    return make_node(mat_vec(mat, node.position), mat_vec(mat, node.direction), node.cut_sign)


def apply_linear(d: BaseDiagram, mat: Mat) -> BaseDiagram:
    """Transform positions and directions by a unimodular matrix."""
    require_unimodular(mat)
    return BaseDiagram(tuple(_transform_node(n, mat) for n in d.nodes))


def _node(d: BaseDiagram, index: int) -> Node:
    """Node ``index`` of d; an index outside ``range(len(d.nodes))`` is a domain error."""
    if not 0 <= index < len(d.nodes):
        raise PreconditionFailedError(f"no node {cut(index)} in a diagram of {len(d.nodes)} nodes")
    return d.nodes[index]


def nodal_slide(d: BaseDiagram, index: int, target: Point) -> BaseDiagram:
    """Move node ``index`` along its eigenline to ``target``.

    The open segment swept must contain no other node (passing through the
    origin is allowed; stopping on it is not).
    """
    node = _node(d, index)
    tgt = (rational(target[0]), rational(target[1]))
    dx, dy = node.direction
    if tgt[0] * dy - tgt[1] * dx != 0:
        raise OffEigenlineError(f"target {cut(tgt)} off the line through {cut(node.direction)}")
    if tgt == (0, 0):
        raise BlockedError("cannot park a node on the origin")
    lo, hi = sorted([_line_coordinate(node.position, node.direction), _line_coordinate(tgt, node.direction)])
    for j, other in enumerate(d.nodes):
        if j == index:
            continue
        if other.position == tgt:
            raise BlockedError(f"target occupied by node {j}", blocker=j)
        if other.direction == node.direction:
            t = _line_coordinate(other.position, node.direction)
            if lo < t < hi:
                raise BlockedError(f"slide blocked by node {j}", blocker=j)
    moved = make_node(tgt, node.direction, node.cut_sign)
    return BaseDiagram(tuple(moved if j == index else n for j, n in enumerate(d.nodes)))


def _line_coordinate(pos: Point, direction: Vec) -> int | Fraction:
    """The t with pos = t * direction, for pos on the line: an int when integral."""
    p, q = (pos[0], direction[0]) if direction[0] else (pos[1], direction[1])
    if type(p) is int and not p % q:
        return p // q
    return rational(Fraction(p, q))


def cut_transfer(d: BaseDiagram, index: int) -> BaseDiagram:
    """Flip node ``index``'s cut to the opposite ray, re-charting a half-plane.

    A cut pointing through the origin transfers by the inverse monodromy on
    the open half-plane counterclockwise of the old cut; the opposite
    transfer applies the monodromy on the other half, so the two compose to
    the identity.
    """
    node = _node(d, index)
    u = node.cut_vector()
    through_origin = node.position[0] * u[0] + node.position[1] * u[1] < 0
    # A cut through the origin re-charts the nodes with cross(position, u) < 0
    # by the inverse monodromy; the opposite transfer those with cross > 0 by
    # the monodromy.
    side = 1 if through_origin else -1
    shear = elementary_shear(node.direction, side)
    new_nodes = []
    for j, other in enumerate(d.nodes):
        if j == index:
            new_nodes.append(Node(other.position, other.direction, -other.cut_sign))  # already canonical
            continue
        c = other.position[0] * u[1] - other.position[1] * u[0]
        if side * c < 0:
            new_nodes.append(_transform_node(other, shear))
        else:
            new_nodes.append(other)
    return BaseDiagram(tuple(new_nodes))


def _line_profile(d: BaseDiagram, n: Vec) -> tuple[int, int]:
    """Counts (a, b) of nodes at n, 2n, .., an and -n, .., -bn; enforces standard form."""
    ts = []
    for node in d.nodes:
        if node.position[0] * n[1] - node.position[1] * n[0] == 0:
            t = _line_coordinate(node.position, n)
            u = node.cut_vector()
            if node.position[0] * u[0] + node.position[1] * u[1] <= 0:
                raise PreconditionFailedError(
                    f"node at {cut(node.position)} has its cut toward the origin"
                )
            ts.append(t)
    plus = sorted(t for t in ts if t > 0)
    minus = sorted(-t for t in ts if t < 0)
    if plus != list(range(1, len(plus) + 1)):
        shown = [Fraction(t) for t in plus]  # quoted as Fraction(p, q), as this message always has
        raise PreconditionFailedError(f"nodes on ray {cut(n)} not at consecutive multiples: {cut(shown)}")
    if minus != list(range(1, len(minus) + 1)):
        raise PreconditionFailedError(f"nodes on ray {cut(neg(n))} not at consecutive multiples")
    return len(plus), len(minus)


def _scaled(n: Vec, t: int) -> Point:
    return (t * n[0], t * n[1])


def _step_line(d: BaseDiagram, n: Vec, step: int) -> BaseDiagram:
    """Move each node at t*n to (t + step)*n, over the origin, as the slides of a standard line would."""
    nodes = []
    for node in d.nodes:
        if node.position[0] * n[1] - node.position[1] * n[0] == 0:
            t = _line_coordinate(node.position, n) + step
            node = Node(_scaled(n, t or step), node.direction, node.cut_sign)  # t = 0 is the origin: step over it
        nodes.append(node)
    return BaseDiagram(tuple(nodes))


def elementary_move(d: BaseDiagram, n: Vec) -> BaseDiagram:
    """The base-diagram mirror of the elementary transformation at ray n.

    Steps the line's nodes once toward -n (the node at n over the origin)
    and transfers the cut of the node now at -n.  Matches
    ``diagram(pushforward(E_n, s))`` whenever d = diagram(s) and the
    pushforward is regular.
    """
    require_primitive(n)
    a, _ = _line_profile(d, n)
    if a < 1:
        raise PreconditionFailedError(f"no node at {cut(n)} to move")
    d = _step_line(d, n, -1)
    return cut_transfer(d, d.node_at(_scaled(n, -1)))


def elementary_move_inverse(d: BaseDiagram, n: Vec) -> BaseDiagram:
    """Exact inverse of :func:`elementary_move` at the same ray."""
    require_primitive(n)
    _, b = _line_profile(d, n)
    if b < 1:
        raise PreconditionFailedError(f"no node at {cut(neg(n))} to move back")
    return _step_line(cut_transfer(d, d.node_at(_scaled(n, -1))), n, 1)


def visible_spheres(s: Surface) -> list[tuple[Vec, Vec]]:
    """Segments between consecutive nodes on a ray: one per (-2) class."""
    check_blowup_budget(s)
    out = []
    for ray, m in s.blown_up_rays():
        for i in range(1, m):
            out.append(
                ((i * ray[0], i * ray[1]), ((i + 1) * ray[0], (i + 1) * ray[1]))
            )
    return out


# --- serialization ------------------------------------------------------------


def to_json(d: BaseDiagram) -> str:
    # The positions are written by str() while the dict is built, so the guard takes the whole build.
    return output(lambda: json.dumps(
        {
            "nodes": [
                {
                    "position": [str(n.position[0]), str(n.position[1])],
                    "direction": list(n.direction),
                    "cut_sign": n.cut_sign,
                }
                for n in d.nodes
            ]
        }
    ))


def from_json(text: str) -> BaseDiagram:
    """Parse ``to_json`` output; every malformed input raises InvalidDiagramError."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers past int's digit limit, and deep nesting
        raise InvalidDiagramError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"nodes"} or not isinstance(data["nodes"], list):
        raise InvalidDiagramError("expected an object with exactly the key 'nodes', holding a list")
    nodes = []
    for item in data["nodes"]:
        if not isinstance(item, dict) or set(item) != {"position", "direction", "cut_sign"}:
            raise InvalidDiagramError(f"bad node record: {cut(item)}")
        position, direction, cut_sign = item["position"], item["direction"], item["cut_sign"]
        if (
            not isinstance(position, list)
            or len(position) != 2
            or not isinstance(direction, list)
            or len(direction) != 2
            or not all(type(x) is int for x in (*direction, cut_sign))
            or not all(type(x) in (int, str) for x in position)
        ):
            raise InvalidDiagramError(f"bad node record: {cut(item)}")
        try:
            point = rationals(*position)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise InvalidDiagramError(f"bad position {cut(position)}: {cut(exc)}") from exc
        try:
            nodes.append(make_node(point, (direction[0], direction[1]), cut_sign))
        except (NonPrimitiveError, OffEigenlineError) as exc:
            raise InvalidDiagramError(str(exc)) from exc
    return BaseDiagram(tuple(nodes))


# --- rendering ----------------------------------------------------------------


def _fmt(x: int | Fraction, a: int, b: int) -> str:
    """x + a/b, for b > 0, in fixed point with up to 6 decimals, with no float and no new Fraction.

    x + a/b is the unreduced pair n/d = (x.numerator * b + a * x.denominator)
    / (x.denominator * b), and n/d * 10^6 rounds half up, in integers, to the
    floor of (2 n 10^6 + d) / 2d.  Only the value of the pair counts.
    """
    d = x.denominator * b
    q = ((x.numerator * b + a * x.denominator) * 2 * 10**6 + d) // (2 * d)
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), 10**6)
    if frac:
        return f"{sign}{whole}.{frac:06d}".rstrip("0")
    return f"{sign}{whole}" if whole else "0"


def render_svg(d: BaseDiagram) -> str:
    """Deterministic SVG: origin dot, x node markers, dashed cuts, solid eigenlines.

    A coordinate past the int-to-text digit limit raises ``DigitLimitError``.
    """
    return output(_svg, d)


def _svg(d: BaseDiagram) -> str:
    # The y axis is flipped: (x, -y) is emitted, so the diagram reads with y
    # upward.  Every number is written by _fmt as a coordinate plus a rational
    # offset.
    xs = [0] + [n.position[0] for n in d.nodes]
    ys = [0] + [-n.position[1] for n in d.nodes]
    lo_x, lo_y = min(xs), min(ys)
    # The view pads the nodes and the origin by 1 on each side.
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(lo_x, -1, 1)} {_fmt(lo_y, -1, 1)} {_fmt(max(xs) - lo_x, 2, 1)} {_fmt(max(ys) - lo_y, 2, 1)}">',
        '<circle cx="0" cy="0" r="0.08" fill="black"/>',
    ]
    ends = [(_fmt(x, 0, 1), _fmt(y, 0, 1)) for x, y in zip(xs[1:], ys[1:])]
    for px, py in ends:
        lines.append(f'<line x1="0" y1="0" x2="{px}" y2="{py}" stroke="black" stroke-width="0.03"/>')
    for n, x, y, (px, py) in zip(d.nodes, xs[1:], ys[1:], ends):
        # The cut runs 3/5 along u, scaled to max|u| = 1: to (x, y) + 3u / (5m),
        # with u's y flipped too.
        u = n.cut_vector()
        m5 = 5 * max(abs(u[0]), abs(u[1]))
        lines.append(
            f'<line x1="{px}" y1="{py}" x2="{_fmt(x, 3 * u[0], m5)}" y2="{_fmt(y, -3 * u[1], m5)}" '
            f'stroke="black" stroke-width="0.03" stroke-dasharray="0.12,0.08"/>'
        )
        # The marker's two strokes end at (x +- 15/100, y +- 15/100).
        x0, x1, y0, y1 = _fmt(x, -15, 100), _fmt(x, 15, 100), _fmt(y, -15, 100), _fmt(y, 15, 100)
        for ya, yb in ((y0, y1), (y1, y0)):
            lines.append(f'<line x1="{x0}" y1="{ya}" x2="{x1}" y2="{yb}" stroke="black" stroke-width="0.05"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
