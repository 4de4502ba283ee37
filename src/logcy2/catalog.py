"""Symbolic catalogs attached to a surface datum: the ordered exceptional
collection on the compact side and the matching distinguished collection of
vanishing cycles, tracked at the level of orders, counts and exact twist
integers.  No sheaves or curves are materialized; the combinatorial shadow
is what the consistency checks exercise.
"""

from __future__ import annotations

from .errors import Value
from .surfaces import Surface, check_blowup_budget, cycle_row, numeric_invariants, toric_self_intersections


class SheafOnException(Value):
    """Twisted sheaf on the j-th exceptional curve over boundary component i."""

    __slots__ = ("ray_index", "blowup_index")
    ray_index: int  # 1-based, in the stored ccw ray order
    blowup_index: int  # 1-based, 1 <= j <= m_i


class StructureSheaf(Value):
    __slots__ = ()


class LineBundle(Value):
    """Pullback of the sum of the first ``prefix_length`` boundary divisors."""

    __slots__ = ("prefix_length",)
    prefix_length: int


ExceptionalItem = SheafOnException | StructureSheaf | LineBundle


class Meridian(Value):
    __slots__ = ("ray_index", "blowup_index")
    ray_index: int
    blowup_index: int


class Longitude(Value):
    __slots__ = ("index", "twist_vector")
    index: int
    twist_vector: tuple[int, ...]


VanishingCycleItem = Meridian | Longitude


def exceptional_collection(s: Surface) -> list[ExceptionalItem]:
    """Exceptional sheaves (descending through the blow-ups), O, then line bundles."""
    check_blowup_budget(s)
    k = len(s.rays)
    items: list[ExceptionalItem] = []
    for i in range(k, 0, -1):
        for j in range(s.m[i - 1], 0, -1):
            items.append(SheafOnException(i, j))
    items.append(StructureSheaf())
    for ell in range(1, k):
        items.append(LineBundle(ell))
    return items


def vanishing_cycles(s: Surface) -> list[VanishingCycleItem]:
    """Meridians mirroring the exceptional sheaves one-for-one, then longitudes.

    Longitude ``ell`` carries the twist vector whose i-th entry is the product
    of boundary component i with the sum of the first ``ell`` components.
    The toric pairing is symmetric, so its column ``ell`` is ``cycle_row``.
    The result holds k twist vectors of k integers each, k^2 in all, and
    ``BLOWUP_BUDGET`` bounds the blow-ups, not k: on a fan of 3203 rays it
    takes about 0.66 s and a 79 MiB ``tracemalloc`` peak.  No CLI command
    builds it; ``hms counts`` counts without it (``check_counts``).
    """
    check_blowup_budget(s)
    selfints = toric_self_intersections(s)
    k = len(s.rays)
    items: list[VanishingCycleItem] = []
    for i in range(k, 0, -1):
        for j in range(s.m[i - 1], 0, -1):
            items.append(Meridian(i, j))
    twists = (0,) * k
    for ell in range(k):
        items.append(Longitude(ell, twists))
        twists = tuple(t + p for t, p in zip(twists, cycle_row(selfints, ell)))
    return items


class CountReport(Value):
    __slots__ = ("exceptional_count", "vanishing_count", "chi_y", "sphere_count", "expected_spheres")
    exceptional_count: int
    vanishing_count: int
    chi_y: int
    sphere_count: int
    expected_spheres: int

    @property
    def ok(self) -> bool:
        return (
            self.exceptional_count == self.chi_y
            and self.vanishing_count == self.chi_y
            and self.sphere_count == self.expected_spheres
        )


def check_counts(s: Surface) -> CountReport:
    """Collection lengths against chi(Y); sphere count against sum of (m-1)+.

    Counted without building an item: both collections hold one item per
    blow-up and k more, and ``diagrams.visible_spheres`` m - 1 per ray.
    """
    check_blowup_budget(s)
    length = len(s.rays) + s.total_m()
    spheres = sum(max(m - 1, 0) for m in s.m)
    return CountReport(length, length, numeric_invariants(s).chi_y, spheres, spheres)

