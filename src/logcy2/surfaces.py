"""Explicit toric models of log Calabi-Yau surfaces and their transport.

A surface datum is a smooth complete fan in Z^2 (primitive rays, ccw, each
adjacent pair a lattice basis) plus one nonnegative integer per ray: the
number of interior blow-ups at the distinguished point of the corresponding
boundary component.  Corner blow-ups insert rays with multiplicity zero and
do not change the interior; interior blow-ups increment a multiplicity.

``pushforward`` transports a surface along a word when every letter is
regular; ``resolve`` makes one pass over the word, augmenting the starting
surface (ray insertions and interior blow-ups pulled back through the applied
suffix) and the surface reached so far alike until the whole word is regular.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .birmap import tropical_image, tropicalize
from .lattice import (
    NonPrimitiveError,
    Vec,
    angle_cmp,
    cross,
    is_primitive,
    mat_det,
    neg,
    pl_apply,
    vadd,
)
from .words import Elementary, Letter, Word


class InvalidSurfaceError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class RayAbsentError(ValueError):
    pass


class TooFewRaysError(ValueError):
    pass


class NotRegularError(ValueError):
    """A word letter failed its regularity precondition on a surface.

    ``applied_count`` letters (from the right end of the word) were already
    applied; ``ray`` is the offending ray in the coordinates of the surface
    reached at that point.
    """

    def __init__(self, reason: str, applied_count: int, ray: Vec):
        super().__init__(f"{reason} at ray {ray} after {applied_count} letters")
        self.reason = reason
        self.applied_count = applied_count
        self.ray = ray


@dataclass(frozen=True)
class Surface:
    """Fan rays (ccw, starting at the lexicographically least ray) plus multiplicities."""

    rays: tuple[Vec, ...]
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        rays = tuple(tuple(r) for r in self.rays)
        m = tuple(self.m)
        if rays and len(rays) == len(m):
            start = rays.index(min(rays))
            rays = rays[start:] + rays[:start]
            m = m[start:] + m[:start]
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "m", m)

    def multiplicity(self, ray: Vec) -> int:
        try:
            return self.m[self.rays.index(ray)]
        except ValueError:
            raise RayAbsentError(f"ray {ray} not in fan") from None

    def total_m(self) -> int:
        return sum(self.m)

    def blown_up_rays(self) -> list[tuple[Vec, int]]:
        return [(r, mm) for r, mm in zip(self.rays, self.m) if mm > 0]


def p2(m: tuple[int, int, int] = (0, 0, 0)) -> Surface:
    """The projective plane; m ordered along rays (1,0), (0,1), (-1,-1)."""
    return Surface(((1, 0), (0, 1), (-1, -1)), m)


def p1xp1(m: tuple[int, int, int, int] = (0, 0, 0, 0)) -> Surface:
    """P1 x P1; m ordered along rays (1,0), (0,1), (-1,0), (0,-1)."""
    return Surface(((1, 0), (0, 1), (-1, 0), (0, -1)), m)


def hirzebruch1(m: tuple[int, int, int, int] = (0, 0, 0, 0)) -> Surface:
    """The first Hirzebruch surface; rays (1,0), (0,1), (-1,1), (0,-1)."""
    return Surface(((1, 0), (0, 1), (-1, 1), (0, -1)), m)


def cubic_surface() -> Surface:
    """The plane blown up twice at the distinguished point of each boundary line."""
    return p2((2, 2, 2))


def validate(s: Surface) -> list[str]:
    """All fan/surface invariant violations, as data; empty means valid."""
    out: list[str] = []
    k = len(s.rays)
    if k < 3:
        out.append(f"fan needs at least 3 rays, has {k}")
    if len(s.m) != k:
        out.append(f"{len(s.m)} multiplicities for {k} rays")
    for r in s.rays:
        if not is_primitive(r):
            out.append(f"ray {r} is not primitive")
    if len(set(s.rays)) != k:
        out.append("rays are not pairwise distinct")
    for mm in s.m:
        if type(mm) is not int or mm < 0:
            out.append(f"multiplicity {mm} is not a nonnegative integer")
    if out:
        return out
    descents = 0
    for i in range(k):
        a, b = s.rays[i], s.rays[(i + 1) % k]
        d = cross(a, b)
        if d != 1:
            out.append(f"det({a}, {b}) = {d}, expected 1")
        if angle_cmp(a, b) > 0:
            descents += 1
    if not out and descents != 1:
        out.append(f"rays wind {descents} times around the origin")
    return out


def require_valid(s: Surface) -> Surface:
    violations = validate(s)
    if violations:
        raise InvalidSurfaceError(violations)
    return s


def toric_self_intersections(s: Surface) -> tuple[int, ...]:
    """The integers a_i with v_{i-1} + v_{i+1} = -a_i v_i."""
    require_valid(s)
    k = len(s.rays)
    out = []
    for i in range(k):
        w = vadd(s.rays[i - 1], s.rays[(i + 1) % k])
        a = -cross(w, s.rays[(i + 1) % k])
        if vadd(w, (a * s.rays[i][0], a * s.rays[i][1])) != (0, 0):
            raise AssertionError(f"neighbours of ray {s.rays[i]} do not sum to a multiple of it")
        out.append(a)
    return tuple(out)


def boundary_intersection_matrix(s: Surface) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Intersection matrix of the boundary components, and negative-definiteness.

    Diagonal a_i - m_i, off-diagonal 1 for cyclically adjacent rays; the
    verdict comes from exact leading principal minors.
    """
    require_valid(s)
    k = len(s.rays)
    if k < 3:
        raise TooFewRaysError(f"need at least 3 rays, got {k}")
    selfints = toric_self_intersections(s)
    mat = [[0] * k for _ in range(k)]
    for i in range(k):
        mat[i][i] = selfints[i] - s.m[i]
        mat[i][(i + 1) % k] += 1
        mat[(i + 1) % k][i] += 1
    if k == 3:
        # The three components pairwise meet once; the cyclic rule would
        # double-count the shared corners.
        mat = [[1 if i != j else mat[i][i] for j in range(k)] for i in range(k)]
    frozen = tuple(tuple(row) for row in mat)
    return frozen, _negative_definite(frozen)


def _negative_definite(mat: tuple[tuple[int, ...], ...]) -> bool:
    k = len(mat)
    for i in range(1, k + 1):
        minor = _det([row[:i] for row in mat[:i]])
        if (minor if i % 2 else -minor) >= 0:
            return False
    return True


def _det(rows: list) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Every entry it writes is a minor of the row-swapped input, so each
    division by the previous pivot is exact and all arithmetic stays in Z.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pk, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            rk = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - rk * row_k[j]) // prev
        prev = pk
    return sign * a[-1][-1] if n else 1


class NumericInvariants(NamedTuple):
    k: int
    total_m: int
    b2: int
    chi_y: int
    chi_u: int


def numeric_invariants(s: Surface) -> NumericInvariants:
    require_valid(s)
    k, t = len(s.rays), s.total_m()
    return NumericInvariants(k, t, k - 2 + t, k + t, t)


def insert_ray(s: Surface, v: Vec) -> Surface:
    """Stellar-subdivide until v is a ray (corner blow-ups; new rays get m = 0)."""
    require_valid(s)
    if not is_primitive(v):
        raise NonPrimitiveError(f"ray {v} is not primitive")
    rays, m = list(s.rays), list(s.m)
    while v not in rays:
        k = len(rays)
        i = next(
            i for i in range(k) if _in_cone(rays[i], rays[(i + 1) % k], v)
        )
        rays.insert(i + 1, vadd(rays[i], rays[(i + 1) % k]))
        m.insert(i + 1, 0)
    return require_valid(Surface(tuple(rays), tuple(m)))


def _in_cone(a: Vec, b: Vec, v: Vec) -> bool:
    """v strictly inside the smooth cone spanned by adjacent rays a, b."""
    return cross(a, v) > 0 and cross(v, b) > 0


def interior_blowup(s: Surface, n: Vec) -> Surface:
    require_valid(s)
    if n not in s.rays:
        raise RayAbsentError(f"ray {n} not in fan; insert it first")
    i = s.rays.index(n)
    m = list(s.m)
    m[i] += 1
    return Surface(s.rays, tuple(m))


def leq(s: Surface, t: Surface) -> bool:
    """The blow-up partial order: t dominates s."""
    require_valid(s)
    require_valid(t)
    return all(r in t.rays for r in s.rays) and all(
        ms <= t.multiplicity(r) for r, ms in zip(s.rays, s.m)
    )


def _push_letter(letter: Letter, s: Surface, applied: int) -> Surface:
    gen, e = letter
    trop = tropicalize(Word((letter,)))
    if isinstance(gen, Elementary):
        n = gen.n
        for needed in (n, neg(n)):
            if needed not in s.rays:
                raise NotRegularError("missing ray", applied, needed)
        src = n if e == 1 else neg(n)
        if s.multiplicity(src) < 1:
            raise NotRegularError("zero multiplicity", applied, src)
    # A letter's tropicalization is a PL homeomorphism, so it keeps the
    # cyclic order of the rays, reversed when it reverses orientation;
    # Surface rotates the result to its canonical start.
    rays = tuple(pl_apply(trop, r) for r in s.rays)
    m = list(s.m)
    if mat_det(trop.mats[0]) < 0:
        rays, m = rays[::-1], m[::-1]
    if isinstance(gen, Elementary):
        src = gen.n if e == 1 else neg(gen.n)
        dst = neg(src)
        m[rays.index(src)] -= 1
        m[rays.index(dst)] += 1
    return require_valid(Surface(rays, tuple(m)))


def pushforward(w: Word, s: Surface) -> Surface:
    """Transport s along w (letters applied right to left); NotRegular on failure."""
    require_valid(s)
    current = s
    for applied, letter in enumerate(reversed(w.letters)):
        current = _push_letter(letter, current, applied)
    return current


def resolve(w: Word, s0: Surface) -> Surface:
    """A surface above s0 on which every prefix of w is regular.

    The push keeps ``current``, the candidate transported through the letters
    applied so far.  When a letter fails, the offending ray is pulled back
    through the inverse tropicalization of that suffix and grafted onto the
    candidate (ray insertion or one extra interior blow-up); the same
    augmentation at the ray itself goes on ``current``, and the letter is
    retried there.  The applied letters are linear on every cone, so the two
    augmentations commute with the push.  A letter fails at most three times
    (missing n, missing -n, zero multiplicity), so the run makes at most
    4 * len(w) letter pushes.
    """
    require_valid(s0)
    candidate = current = s0
    for applied, letter in enumerate(reversed(w.letters)):
        for _ in range(4):
            try:
                current = _push_letter(letter, current, applied)
                break
            except NotRegularError as err:
                r0 = tropical_image(Word(w.letters[len(w.letters) - applied:]).inverse(), err.ray)
                if err.reason == "missing ray":
                    candidate, current = insert_ray(candidate, r0), insert_ray(current, err.ray)
                else:
                    candidate, current = interior_blowup(candidate, r0), interior_blowup(current, err.ray)
        else:
            raise AssertionError(f"letter {applied} failed a fourth time in resolve")
    return candidate


# --- serialization ------------------------------------------------------------


def to_json(s: Surface) -> str:
    """Canonical JSON; rays ccw starting at the lexicographically least ray."""
    return json.dumps({"rays": [list(r) for r in s.rays], "m": list(s.m)})


def from_json(text: str) -> Surface:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSurfaceError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict) or set(data) != {"rays", "m"}:
        raise InvalidSurfaceError(["expected an object with exactly the keys 'rays' and 'm'"])
    rays = data["rays"]
    m = data["m"]
    if (
        not isinstance(rays, list)
        or not isinstance(m, list)
        or not all(isinstance(r, list) and len(r) == 2 and all(type(x) is int for x in r) for r in rays)
        or not all(type(x) is int for x in m)
    ):
        raise InvalidSurfaceError(["rays must be integer pairs and m a list of integers"])
    s = Surface(tuple((r[0], r[1]) for r in rays), tuple(m))
    return require_valid(s)
