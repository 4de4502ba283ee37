"""Exact lattice linear algebra in rank two.

Vectors are plain ``(x, y)`` tuples of Python ints; matrices are row-major
``((a, b), (c, d))`` tuples with determinant +1 or -1.  All arithmetic is
exact integer arithmetic.

The main structured object is :class:`PLMap`, a piecewise-linear self-map
of the plane: unimodular matrices on a fan of closed sectors, agreeing on
shared boundary rays.  These record which boundary ray a boundary ray is
carried to by a birational map of the torus.  ``sector_index`` is the one
cone search, for these maps and for fans: a bisection on angle.

``elementary_shear(n, e)`` is the one shear these maps are made of: v goes
to v + e cross(n, v) n.  The elementary map at n, to the power e, moves the
rays strictly ccw of n by it and fixes the others (``pl_elementary``); the
nodal monodromy along n is its e = -1 shear.
"""

from __future__ import annotations

import math
from functools import cmp_to_key

from .errors import DomainError, Value, cut

Vec = tuple[int, int]
Mat = tuple[tuple[int, int], tuple[int, int]]

MAT_ID: Mat = ((1, 0), (0, 1))


class NonPrimitiveError(DomainError, ValueError):
    """A vector required to be primitive has a common factor (or is zero)."""


class NonUnimodularError(DomainError, ValueError):
    """A matrix required to lie in GL2(Z) has determinant outside {+1, -1}."""


def is_primitive(v: Vec) -> bool:
    return math.gcd(v[0], v[1]) == 1


def require_primitive(v: Vec) -> Vec:
    if not is_primitive(v):
        raise NonPrimitiveError(f"vector {cut(v)} is not primitive")
    return v


def neg(v: Vec) -> Vec:
    return (-v[0], -v[1])


def vadd(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def cross(u: Vec, v: Vec) -> int:
    """Determinant of the 2x2 matrix with rows u, v."""
    return u[0] * v[1] - u[1] * v[0]


def rot90(v: Vec) -> Vec:
    """Counterclockwise quarter turn."""
    return (-v[1], v[0])


def elementary_shear(n: Vec, e: int) -> Mat:
    """The matrix of v -> v + e cross(n, v) n, fixing the line of n pointwise."""
    n1, n2 = n
    return ((1 - e * n1 * n2, e * n1 * n1), (-e * n2 * n2, 1 + e * n1 * n2))


def mat_det(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def require_unimodular(m: Mat) -> Mat:
    if mat_det(m) not in (1, -1):
        raise NonUnimodularError(f"matrix {cut(m)} has determinant {cut(mat_det(m))}")
    return m


def mat_mul(m: Mat, n: Mat) -> Mat:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_vec(m: Mat, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_inv(m: Mat) -> Mat:
    """Exact inverse of a unimodular matrix (1/det = det)."""
    d = mat_det(m)
    if d not in (1, -1):
        raise NonUnimodularError(f"matrix {cut(m)} has determinant {cut(d)}")
    return ((m[1][1] * d, -m[0][1] * d), (-m[1][0] * d, m[0][0] * d))


def mat_transpose(m: Mat) -> Mat:
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def complement_matrix(n: Vec) -> Mat:
    """The canonical A in SL2(Z) with A n = (0, 1).

    First row is (n2, -n1); the second row (c, d) solves c n1 + d n2 = 1
    with |c| minimal, c >= 0 on a tie: c is the inverse of n1 modulo |n2|
    nearest 0 and d = (1 - c n1) / n2, or (n1, 0) when n2 = 0.
    """
    require_primitive(n)
    n1, n2 = n
    if n2 == 0:
        # c is forced to 1/n1 = n1; d is free, pinned to 0.
        c, d = n1, 0
    else:
        m = abs(n2)
        c = pow(n1, -1, m)  # 0 when m = 1
        if 2 * c > m:
            c -= m
        d = (1 - c * n1) // n2
    a = ((n2, -n1), (c, d))
    if mat_det(a) != 1 or mat_vec(a, n) != (0, 1):
        raise AssertionError(f"complement {a} of {n} is not in SL2(Z) with a n = (0, 1)")
    return a


# --- angular order ----------------------------------------------------------

def _half(v: Vec) -> int:
    """0 for angles in [0, pi), 1 for [pi, 2pi), measured from (1, 0)."""
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def angle_cmp(u: Vec, v: Vec) -> int:
    """Compare directions counterclockwise from (1, 0).  0 iff parallel, same side."""
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = cross(u, v)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def ccw_sorted(vecs: list[Vec]) -> list[Vec]:
    return sorted(vecs, key=cmp_to_key(angle_cmp))


def sector_index(rays: tuple[Vec, ...], v: Vec) -> int:
    """The i with v in [rays[i], rays[i+1]), cyclically, for ccw rays from any start.

    v = 0 gives 0.  Directions are ranked from a = rays[0] by class (0 on a,
    1 ccw of a, 2 on -a, 3 cw of a), then by a cross product within a class.
    """
    if v == (0, 0):
        return 0
    a0, a1 = rays[0]
    c = a0 * v[1] - a1 * v[0]
    kv = (1 if c > 0 else 3) if c else (0 if a0 * v[0] + a1 * v[1] > 0 else 2)
    lo, hi = 0, len(rays)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        r0, r1 = rays[mid]
        c = a0 * r1 - a1 * r0
        kr = (1 if c > 0 else 3) if c else (0 if a0 * r0 + a1 * r1 > 0 else 2)
        if kr < kv or (kr == kv and (not kr & 1 or r0 * v[1] - r1 * v[0] >= 0)):
            lo = mid
        else:
            hi = mid
    return lo


class PLMap(Value):
    """Piecewise-linear self-map of the plane.

    ``rays`` is a ccw-ordered tuple of primitive boundary rays; piece i is the
    sector from rays[i] ccw to rays[i+1] (cyclically) with matrix mats[i].
    A globally linear map has ``rays == ()`` and a single matrix.
    Continuity: consecutive matrices agree on the shared boundary ray.
    """

    __slots__ = ("rays", "mats")
    rays: tuple[Vec, ...]
    mats: tuple[Mat, ...]

    def __init__(self, rays: tuple[Vec, ...], mats: tuple[Mat, ...]) -> None:
        if rays:
            if len(rays) < 2 or len(rays) != len(mats):
                raise ValueError("piece count mismatch")
        elif len(mats) != 1:
            raise ValueError("linear map must carry exactly one matrix")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "mats", mats)

    @staticmethod
    def linear(m: Mat) -> "PLMap":
        return PLMap((), (require_unimodular(m),))

    @staticmethod
    def identity() -> "PLMap":
        return PLMap((), (MAT_ID,))

    def is_linear(self) -> bool:
        return not self.rays

    def piece_index(self, v: Vec) -> int:
        return sector_index(self.rays, v) if self.rays else 0

    def matrix_at(self, v: Vec) -> Mat:
        return self.mats[self.piece_index(v)]


def pl_validate(p: PLMap) -> None:
    """Check the structural invariants: ccw rays, continuity, uniform det sign.

    Raises AssertionError on the first violation, also under ``python -O``.
    """
    dets = {mat_det(m) for m in p.mats}
    if not (dets <= {1} or dets <= {-1}):
        raise AssertionError(f"mixed determinant signs: {dets}")
    k = len(p.rays)
    for i in range(k):
        if not is_primitive(p.rays[i]):
            raise AssertionError(f"ray {cut(p.rays[i])} is not primitive")
        if angle_cmp(p.rays[i], p.rays[(i + 1) % k]) == 0:
            raise AssertionError("repeated ray")
        prev = p.mats[i - 1]
        here = p.mats[i]
        if mat_vec(prev, p.rays[i]) != mat_vec(here, p.rays[i]):
            raise AssertionError(f"discontinuous at ray {p.rays[i]}")
    if k:
        order = ccw_sorted(list(p.rays))
        start = order.index(p.rays[0])
        if list(p.rays) != order[start:] + order[:start]:
            raise AssertionError("rays not ccw")


def pl_apply(p: PLMap, v: Vec) -> Vec:
    """Image of v under the unique piece whose sector contains it."""
    return mat_vec(p.matrix_at(v), v)


# Sorts (ray, matrix) pairs ccw from (1, 0) by their rays.
_BY_RAY = cmp_to_key(lambda p, q: angle_cmp(p[0], q[0]))


def _canonical(pairs: list[tuple[Vec, Mat]]) -> PLMap:
    """Build a PLMap from (boundary ray, matrix-of-following-sector) pairs in ccw order from (1, 0).

    Merges sectors with equal matrices; the ray list then starts at the
    angularly least ray, making structural equality canonical.
    """
    k = len(pairs)
    kept = [i for i in range(k) if pairs[i - 1][1] != pairs[i][1]]
    if not kept:
        return PLMap.linear(pairs[0][1])
    return PLMap(tuple(pairs[i][0] for i in kept), tuple(pairs[i][1] for i in kept))


def _sector_probe(a: Vec, b: Vec) -> Vec:
    """An integer direction strictly inside the sector [a, b)."""
    if cross(a, b) > 0:
        return vadd(a, b)
    return rot90(a)


def pl_compose(p: PLMap, q: PLMap) -> PLMap:
    """The composite p after q, with sectors refined and then re-merged."""
    if p.is_linear() and q.is_linear():
        return PLMap.linear(mat_mul(p.mats[0], q.mats[0]))
    rays: list[Vec] = list(q.rays)
    # Preimages under q of p's breakpoints, primitive as q's pieces are
    # unimodular, are the other potential breakpoints.
    for i, inv in enumerate(map(mat_inv, q.mats)):
        for r in p.rays:
            w = mat_vec(inv, r)
            if q.piece_index(w) == i:
                rays.append(w)
    unique: list[Vec] = []
    for r in ccw_sorted(rays):
        if not unique or angle_cmp(unique[-1], r) != 0:
            unique.append(r)
    pairs = []
    k = len(unique)
    for i in range(k):
        t = _sector_probe(unique[i], unique[(i + 1) % k])
        mq = q.matrix_at(t)
        m = mat_mul(p.matrix_at(mat_vec(mq, t)), mq)
        pairs.append((unique[i], m))
    return _canonical(pairs)


def pl_inverse(p: PLMap) -> PLMap:
    """The inverse piecewise-linear bijection."""
    if p.is_linear():
        return PLMap.linear(mat_inv(p.mats[0]))
    pairs = []
    k = len(p.rays)
    # A det -1 piece maps its sector [r_i, r_i+1) onto the sector that starts at the image of r_i+1;
    # a unimodular image of a primitive ray is primitive.
    shift = 1 if mat_det(p.mats[0]) < 0 else 0
    for i in range(k):
        pairs.append((mat_vec(p.mats[i], p.rays[(i + shift) % k]), mat_inv(p.mats[i])))
    return _canonical(sorted(pairs, key=_BY_RAY))


def pl_elementary(n: Vec = (0, 1), e: int = 1) -> PLMap:
    """Tropicalization of the elementary map at ray n, to the power e.

    ``elementary_shear(n, e)`` on the sector [n, -n) and the identity on
    [-n, n).  For n = (0, 1) and e = 1: the shear (1,0;-1,1) on the left
    half-plane, so (-1, 0) goes to (-1, 1).
    """
    return _canonical(sorted([(require_primitive(n), elementary_shear(n, e)), (neg(n), MAT_ID)], key=_BY_RAY))
