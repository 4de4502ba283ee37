"""Exact lattice linear algebra in rank two.

Vectors are plain ``(x, y)`` tuples of Python ints; matrices are row-major
``((a, b), (c, d))`` tuples with determinant +1 or -1.  All arithmetic is
exact integer arithmetic.

The main structured object is :class:`PLMap`, a piecewise-linear self-map
of the plane: unimodular matrices on a fan of closed sectors, agreeing on
shared boundary rays.  These record which boundary ray a boundary ray is
carried to by a birational map of the torus.  ``sector_index``, a bisection
on angle, is the one angular order: the cone search for these maps and fans,
and where each constructor puts a ray, so no ray list is ever sorted.

``elementary_shear(n, e)`` is the one shear these maps are made of: v goes
to v + e cross(n, v) n.  The elementary map at n, to the power e, moves the
rays strictly ccw of n by it and fixes the others (``pl_elementary``); the
nodal monodromy along n is its e = -1 shear.
"""

from __future__ import annotations

import math

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
    rays = p.rays
    k = len(rays)
    for i in range(k):
        if not is_primitive(rays[i]):
            raise AssertionError(f"ray {cut(rays[i])} is not primitive")
        if rays[i] == rays[(i + 1) % k]:
            raise AssertionError("repeated ray")
        if mat_vec(p.mats[i - 1], rays[i]) != mat_vec(p.mats[i], rays[i]):
            raise AssertionError(f"discontinuous at ray {rays[i]}")
    # Rays run ccw and wind once iff exactly one sector [rays[i-1], rays[i]) holds (1, 0).
    if k and sum(sector_index((rays[i - 1], rays[i]), (1, 0)) == 0 for i in range(k)) != 1:
        raise AssertionError("rays not ccw")


def pl_apply(p: PLMap, v: Vec) -> Vec:
    """Image of v under the unique piece whose sector contains it."""
    return mat_vec(p.matrix_at(v), v)


def _canonical(pairs: list[tuple[Vec, Mat]]) -> PLMap:
    """Build a PLMap from (boundary ray, matrix-of-following-sector) pairs in ccw order from any start.

    Merges sectors with equal matrices, then turns the ray list to start at
    the first ray at or ccw after (1, 0), the angularly least, found by
    ``sector_index``: structural equality is then canonical.
    """
    kept = [pair for i, pair in enumerate(pairs) if pairs[i - 1][1] != pair[1]]
    if not kept:
        return PLMap.linear(pairs[0][1])
    rays, mats = zip(*kept)
    s = sector_index(rays, (1, 0))
    if rays[s] != (1, 0):
        s += 1
    return PLMap(rays[s:] + rays[:s], mats[s:] + mats[:s])


def pl_compose(p: PLMap, q: PLMap) -> PLMap:
    """The composite p after q, with sectors refined and then re-merged."""
    if p.is_linear() and q.is_linear():
        return PLMap.linear(mat_mul(p.mats[0], q.mats[0]))
    rays: list[Vec] = list(q.rays)
    # Preimages under q of p's breakpoints, primitive as q's pieces are
    # unimodular, are the other potential breakpoints.  Each goes in after the
    # ray that starts its sector, unless it is that ray, so the list stays ccw.
    for i, inv in enumerate(map(mat_inv, q.mats)):
        for r in p.rays:
            w = mat_vec(inv, r)
            if q.piece_index(w) == i:
                j = sector_index(rays, w) if rays else -1
                if j < 0 or rays[j] != w:
                    rays.insert(j + 1, w)
    pairs = []
    k = len(rays)
    # q is linear on each refined sector [rays[i], rays[i+1]) and p on its image, which
    # starts ccw at the image of rays[i], or at that of rays[i+1] when det -1 runs it cw.
    shift = 1 if mat_det(q.mats[0]) < 0 else 0
    for i in range(k):
        mq = q.matrix_at(rays[i])
        pairs.append((rays[i], mat_mul(p.matrix_at(mat_vec(mq, rays[(i + shift) % k])), mq)))
    return _canonical(pairs)


def pl_inverse(p: PLMap) -> PLMap:
    """The inverse piecewise-linear bijection."""
    if p.is_linear():
        return PLMap.linear(mat_inv(p.mats[0]))
    pairs = []
    k = len(p.rays)
    # A det -1 piece maps its sector [r_i, r_i+1) onto the sector that starts at the image of r_i+1,
    # so the images run cw and are reversed; a unimodular image of a primitive ray is primitive.
    shift = 1 if mat_det(p.mats[0]) < 0 else 0
    for i in range(k):
        pairs.append((mat_vec(p.mats[i], p.rays[(i + shift) % k]), mat_inv(p.mats[i])))
    return _canonical(pairs[::-1] if shift else pairs)


def pl_elementary(n: Vec = (0, 1), e: int = 1) -> PLMap:
    """Tropicalization of the elementary map at ray n, to the power e.

    ``elementary_shear(n, e)`` on the sector [n, -n) and the identity on
    [-n, n).  For n = (0, 1) and e = 1: the shear (1,0;-1,1) on the left
    half-plane, so (-1, 0) goes to (-1, 1).
    """
    return _canonical([(require_primitive(n), elementary_shear(n, e)), (neg(n), MAT_ID)])
