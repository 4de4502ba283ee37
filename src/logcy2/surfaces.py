"""Explicit toric models of log Calabi-Yau surfaces and their transport.

A surface datum is a smooth complete fan in Z^2 (primitive rays, ccw, each
adjacent pair a lattice basis) plus one nonnegative integer per ray: the
number of interior blow-ups at the distinguished point of the corresponding
boundary component.  Corner blow-ups insert rays with multiplicity zero and
do not change the interior; interior blow-ups increment a multiplicity.

``pushforward`` transports a surface along a word when every letter is
regular; ``resolve`` makes one pass over the word, augmenting the starting fan
and the fan reached so far alike until the whole word is regular.  Both push
plain rays and multiplicities, and build, so validate, only what they return.
A letter moves each ray by ``words.ray_image``, its closed-form
tropicalization, so this module needs neither ``birmap`` nor ``polyrat``.

Validation: a ``Surface`` validates itself once, when it is constructed,
and raises ``InvalidSurfaceError`` if it breaks an invariant.  Every surface
that exists is valid, so no operation validates its arguments again.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DomainError, Value, cut, output
from .lattice import (
    NonPrimitiveError,
    Vec,
    cross,
    is_primitive,
    neg,
    sector_index,
    vadd,
)
from .words import Elementary, Letter, Word, generator_determinant, ray_image


class InvalidSurfaceError(DomainError, ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class RayAbsentError(DomainError, ValueError):
    pass


# The most rays one ``insert_ray`` may add.  A corner blow-up adds the sum of
# two adjacent rays, so a ray deep in a cone whose rays have entries near N
# takes about N of them; each fan that many rays longer is a larger surface
# for every later step of ``resolve`` to map and validate.
RAY_BUDGET = 1000


class RayBudgetError(DomainError, ValueError):
    """Inserting a ray would add more than ``RAY_BUDGET`` rays."""


# ``diagrams`` and ``catalog`` build one object per interior blow-up; on a
# 2-core machine with CPython 3.11, ``diagrams.diagram`` builds 100000 nodes
# in about 2.8 s.
BLOWUP_BUDGET = 10_000


class BlowupBudgetError(DomainError, ValueError):
    """A surface has more interior blow-ups than ``BLOWUP_BUDGET``."""


class NotRegularError(DomainError, ValueError):
    """A word letter failed its regularity precondition on a surface.

    ``applied_count`` letters (from the right end of the word) were already
    applied; ``ray`` is the offending ray in the coordinates of the surface
    reached at that point.
    """

    def __init__(self, reason: str, applied_count: int, ray: Vec):
        super().__init__(f"{reason} at ray {cut(ray)} after {applied_count} letters")
        self.reason = reason
        self.applied_count = applied_count
        self.ray = ray


class Surface(Value):
    """Fan rays (ccw, starting at the lexicographically least ray) plus multiplicities.

    A surface validates itself once, when it is constructed, after rotating
    its rays: ``InvalidSurfaceError`` lists every violation ``validate`` finds.
    """

    __slots__ = ("rays", "m")
    rays: tuple[Vec, ...]
    m: tuple[int, ...]

    def __init__(self, rays: tuple[Vec, ...], m: tuple[int, ...]) -> None:
        rays = tuple(tuple(r) for r in rays)
        m = tuple(m)
        if rays and len(rays) == len(m):
            start = rays.index(min(rays))
            rays = rays[start:] + rays[:start]
            m = m[start:] + m[:start]
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "m", m)
        require_valid(self)

    def multiplicity(self, ray: Vec) -> int:
        try:
            return self.m[self.rays.index(ray)]
        except ValueError:
            raise RayAbsentError(f"ray {cut(ray)} not in fan") from None

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
    """All fan/surface invariant violations, as data; empty means valid.

    A valid surface passes one accept pass over its adjacent pairs: a
    determinant of 1 already makes both rays primitive and turns ccw by less
    than pi, so the fan winds once exactly when one step goes from y < 0 to
    y >= 0, and then its rays are distinct.  Any other surface gets the full
    list of violations below, which counts windings by the same steps.
    """
    rays, m = s.rays, s.m
    k = len(rays)
    if k >= 3 and len(m) == k:
        ax, ay = rays[-1][0], rays[-1][1]
        ups = 0
        for r, mm in zip(rays, m):
            bx, by = r[0], r[1]
            d = ax * by - ay * bx
            if d != 1 or type(d) is not int or type(mm) is not int or mm < 0:
                break
            ups += ay < 0 <= by
            ax, ay = bx, by
        else:
            if ups == 1:
                return []
    out: list[str] = []
    if k < 3:
        out.append(f"fan needs at least 3 rays, has {k}")
    if len(s.m) != k:
        out.append(f"{len(s.m)} multiplicities for {k} rays")
    for r in s.rays:
        if not is_primitive(r):
            out.append(f"ray {cut(r)} is not primitive")
    if len(set(s.rays)) != k:
        out.append("rays are not pairwise distinct")
    for mm in s.m:
        if type(mm) is not int or mm < 0:
            out.append(f"multiplicity {cut(mm)} is not a nonnegative integer")
    if out:
        return out
    ups = 0
    for i in range(k):
        a, b = s.rays[i], s.rays[(i + 1) % k]
        d = cross(a, b)
        if d != 1:
            out.append(f"det({cut(a)}, {cut(b)}) = {cut(d)}, expected 1")
        ups += a[1] < 0 <= b[1]
    if not out and ups != 1:
        out.append(f"rays wind {ups} times around the origin")
    return out


def require_valid(s: Surface) -> Surface:
    """s itself, or ``InvalidSurfaceError`` with every violation ``validate`` finds."""
    violations = validate(s)
    if violations:
        raise InvalidSurfaceError(violations)
    return s


def check_blowup_budget(s: Surface) -> None:
    if s.total_m() > BLOWUP_BUDGET:
        raise BlowupBudgetError(f"more than {BLOWUP_BUDGET} interior blow-ups")


def toric_self_intersections(s: Surface) -> tuple[int, ...]:
    """The integers a_i with v_{i-1} + v_{i+1} = -a_i v_i."""
    k = len(s.rays)
    out = []
    for i in range(k):
        w = vadd(s.rays[i - 1], s.rays[(i + 1) % k])
        a = -cross(w, s.rays[(i + 1) % k])
        if vadd(w, (a * s.rays[i][0], a * s.rays[i][1])) != (0, 0):
            raise AssertionError(f"neighbours of ray {s.rays[i]} do not sum to a multiple of it")
        out.append(a)
    return tuple(out)


def boundary_form(s: Surface) -> tuple[tuple[int, ...], bool]:
    """The boundary's intersection form as its diagonal d_i = a_i - m_i, and whether it is negative definite.

    The boundary is a cycle of curves, so the diagonal fixes the form:
    ``cycle_row`` gives its rows, and the verdict reads the diagonal alone.
    """
    diag = tuple(a - m for a, m in zip(toric_self_intersections(s), s.m))
    return diag, _negative_definite(diag)


def cycle_row(diag, i: int, zero=0, one=1) -> list:
    """Row i, also column i, of the form of a cycle of k >= 3 curves with diagonal ``diag``.

    ``diag[i]`` at i, ``one`` at i - 1 and i + 1 mod k, ``zero`` elsewhere;
    "0" and "1" give the row as text cells."""
    row = [zero] * len(diag)
    row[i - 1] = row[(i + 1) % len(diag)] = one
    row[i] = diag[i]
    return row


def _continuants(diag):
    """Continuants T(d_0), T(d_0, d_1), ...: T(d_0 ... d_i) = d_i T(d_0 ... d_(i-1)) - T(d_0 ... d_(i-2)), T() = 1."""
    before, t = 0, 1
    for d in diag:
        before, t = t, d * t - before
        yield t


def _negative_definite(diag: tuple[int, ...]) -> bool:
    """Sylvester's criterion, (-1)^i D_i > 0 for every leading minor D_i, on a cycle form.

    The form has the k >= 3 entries of ``diag`` on its diagonal and 1 for
    each pair of cyclically adjacent indices.  Its leading minors D_1 ...
    D_(k-1) are the continuants T(d_0 ... d_(i-1)), and the first one of the
    wrong sign ends the pass.  The two corner entries reach only the whole
    determinant, D_k = T(d_0 ... d_(k-1)) - T(d_1 ... d_(k-2)) + 2 (-1)^(k+1).
    """
    k = len(diag)
    for i, minor in enumerate(_continuants(diag)):
        if i == k - 1:
            *_, inner = _continuants(diag[1:-1])
            minor -= inner + 2 * (-1) ** k
        if (minor if i % 2 else -minor) <= 0:
            return False
    return True


class NumericInvariants(NamedTuple):
    k: int
    total_m: int
    b2: int
    chi_y: int
    chi_u: int


def numeric_invariants(s: Surface) -> NumericInvariants:
    k, t = len(s.rays), s.total_m()
    return NumericInvariants(k, t, k - 2 + t, k + t, t)


def insert_ray(s: Surface, v: Vec) -> Surface:
    """Stellar-subdivide until v is a ray (corner blow-ups; new rays get m = 0).

    The rays added are the sums c = a + b of the cone (a, b) that holds v,
    descending into (c, b) or (a, c), whichever holds v, until c = v.
    """
    return Surface(*_insert(s.rays, s.m, v))


def _insert(rays: tuple[Vec, ...], m: tuple[int, ...] | list[int], v: Vec) -> tuple[tuple[Vec, ...], list[int]]:
    """``insert_ray`` on plain rays and multiplicities."""
    if not is_primitive(v):
        raise NonPrimitiveError(f"ray {cut(v)} is not primitive")
    i = sector_index(rays, v)
    a, b = rays[i], rays[(i + 1) % len(rays)]
    ccw: list[Vec] = []  # the added rays beside a, in ccw order
    cw: list[Vec] = []  # the added rays beside b, in cw order
    while a != v:
        if len(ccw) + len(cw) == RAY_BUDGET:
            raise RayBudgetError(f"inserting ray {cut(v)} adds more than {RAY_BUDGET} rays")
        c = vadd(a, b)
        if cross(c, v) >= 0:
            ccw.append(a := c)
        else:
            cw.append(b := c)
    added = tuple(ccw + cw[::-1])
    return rays[: i + 1] + added + rays[i + 1 :], [*m[: i + 1], *(0,) * len(added), *m[i + 1 :]]


def interior_blowup(s: Surface, n: Vec) -> Surface:
    if n not in s.rays:
        raise RayAbsentError(f"ray {cut(n)} not in fan; insert it first")
    m = list(s.m)
    m[s.rays.index(n)] += 1
    return Surface(s.rays, tuple(m))


def leq(s: Surface, t: Surface) -> bool:
    """The blow-up partial order: t dominates s."""
    return all(r in t.rays for r in s.rays) and all(ms <= t.multiplicity(r) for r, ms in zip(s.rays, s.m))


def _fault(letter: Letter, rays: tuple[Vec, ...], m: list[int]) -> tuple[str, Vec] | None:
    """Why ``letter`` is not regular on the fan (rays, m): a reason and a ray; None if it is."""
    gen, e = letter
    if isinstance(gen, Elementary):
        for needed in (gen.n, neg(gen.n)):
            if needed not in rays:
                return "missing ray", needed
        src = gen.n if e == 1 else neg(gen.n)
        if m[rays.index(src)] < 1:
            return "zero multiplicity", src
    return None


def _push(letter: Letter, rays: tuple[Vec, ...], m: list[int]) -> tuple[tuple[Vec, ...], list[int]]:
    """The fan (rays, m) pushed along a letter that is regular on it.

    Each ray moves by ``ray_image``.  The letter keeps the cyclic order of
    the rays, reversed if it reverses orientation.
    """
    gen, e = letter
    rays, m = tuple(ray_image(letter, r) for r in rays), list(m)
    if generator_determinant(gen) < 0:
        rays, m = rays[::-1], m[::-1]
    if isinstance(gen, Elementary):
        src = gen.n if e == 1 else neg(gen.n)
        m[rays.index(src)] -= 1
        m[rays.index(neg(src))] += 1
    return rays, m


def pushforward(w: Word, s: Surface) -> Surface:
    """Transport s along w (letters applied right to left); NotRegular on failure."""
    rays, m = s.rays, list(s.m)
    for applied, letter in enumerate(reversed(w.letters)):
        if fault := _fault(letter, rays, m):
            raise NotRegularError(fault[0], applied, fault[1])
        rays, m = _push(letter, rays, m)
    return Surface(rays, tuple(m))


def resolve(w: Word, s0: Surface) -> Surface:
    """A surface above s0 on which every prefix of w is regular.

    Two fans ride along as plain rays and multiplicities: the candidate, and
    the current fan, the candidate pushed through the letters applied so far.
    A ray at which a letter fails on the current fan is pulled back through
    the applied suffix and grafted onto the candidate (ray insertion or one
    more interior blow-up), and at the ray itself onto the current fan; the
    applied letters are linear on every cone, so both commute with the push.
    A letter fails at most three times (missing n, missing -n, zero
    multiplicity).  Only the final candidate becomes a ``Surface``.
    """
    letters = w.letters
    cand_rays, cand_m, rays, m = s0.rays, list(s0.m), s0.rays, list(s0.m)
    for applied, letter in enumerate(reversed(letters)):
        for _ in range(4):
            if not (fault := _fault(letter, rays, m)):
                break
            reason, ray = fault
            r0 = ray
            for gen, e in letters[len(letters) - applied :]:
                r0 = ray_image((gen, -e), r0)
            if reason == "missing ray":
                cand_rays, cand_m = _insert(cand_rays, cand_m, r0)
                rays, m = _insert(rays, m, ray)
            else:
                cand_m[cand_rays.index(r0)] += 1
                m[rays.index(ray)] += 1
        else:
            raise AssertionError(f"letter {applied} failed a fourth time in resolve")
        rays, m = _push(letter, rays, m)
    return Surface(cand_rays, tuple(cand_m))


# --- serialization ------------------------------------------------------------


def to_json(s: Surface) -> str:
    """Canonical JSON; rays ccw starting at the lexicographically least ray."""
    return output(json.dumps, {"rays": [list(r) for r in s.rays], "m": list(s.m)})


def from_json(text: str) -> Surface:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers past int's digit limit, and deep nesting
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
    return Surface(tuple((r[0], r[1]) for r in rays), tuple(m))
