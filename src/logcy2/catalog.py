"""Symbolic catalogs attached to a surface datum: the ordered exceptional
collection on the compact side and the matching distinguished collection of
vanishing cycles, tracked at the level of orders, counts and exact twist
integers.  No sheaves or curves are materialized; the combinatorial shadow
is what the consistency checks exercise.
"""

from __future__ import annotations

import json

from .errors import Value
from .surfaces import Surface, check_blowup_budget, numeric_invariants, toric_intersection_matrix


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
    """
    check_blowup_budget(s)
    pairing = toric_intersection_matrix(s)
    k = len(s.rays)
    items: list[VanishingCycleItem] = []
    for i in range(k, 0, -1):
        for j in range(s.m[i - 1], 0, -1):
            items.append(Meridian(i, j))
    twists = (0,) * k
    for ell in range(k):
        items.append(Longitude(ell, twists))
        twists = tuple(t + row[ell] for t, row in zip(twists, pairing))
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


_KIND = {
    SheafOnException: "sheaf_on_exception",
    StructureSheaf: "structure_sheaf",
    LineBundle: "line_bundle",
    Meridian: "meridian",
    Longitude: "longitude",
}


def _item_dict(item) -> dict:
    return {"kind": _KIND[type(item)], **{name: getattr(item, name) for name in item.__slots__}}


def collections_to_json(s: Surface) -> str:
    """Both ordered catalogs as one JSON document."""
    return json.dumps(
        {
            "exceptional_collection": [_item_dict(i) for i in exceptional_collection(s)],
            "vanishing_cycles": [_item_dict(i) for i in vanishing_cycles(s)],
        }
    )
