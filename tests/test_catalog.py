import pytest

from logcy2 import catalog
from logcy2.catalog import (
    LineBundle,
    Longitude,
    Meridian,
    SheafOnException,
    StructureSheaf,
    check_counts,
    exceptional_collection,
    vanishing_cycles,
)
from logcy2.diagrams import diagram, visible_spheres
from logcy2.sampling import random_surface, random_word
from logcy2.surfaces import (
    BLOWUP_BUDGET,
    BlowupBudgetError,
    Surface,
    cubic_surface,
    interior_blowup,
    numeric_invariants,
    p1xp1,
    p2,
    pushforward,
    resolve,
)
from test_surfaces import toric_intersection_matrix


def test_collection_lengths():
    assert len(exceptional_collection(cubic_surface())) == 9
    assert len(exceptional_collection(p2())) == 3
    assert len(exceptional_collection(interior_blowup(p2(), (1, 0)))) == 4


def test_collection_order():
    s = p2((1, 0, 2))
    # canonical storage starts at the lexicographically least ray (-1,-1),
    # so the stored multiplicities are (2, 1, 0)
    assert s.m == (2, 1, 0)
    items = exceptional_collection(s)
    kinds = [type(i).__name__ for i in items]
    assert kinds == [
        "SheafOnException",
        "SheafOnException",
        "SheafOnException",
        "StructureSheaf",
        "LineBundle",
        "LineBundle",
    ]
    sheaves = [i for i in items if isinstance(i, SheafOnException)]
    assert [(sh.ray_index, sh.blowup_index) for sh in sheaves] == [(2, 1), (1, 2), (1, 1)]
    assert [b.prefix_length for b in items if isinstance(b, LineBundle)] == [1, 2]


def test_meridians_mirror_sheaves():
    s = cubic_surface()
    sheaves = [i for i in exceptional_collection(s) if isinstance(i, SheafOnException)]
    meridians = [i for i in vanishing_cycles(s) if isinstance(i, Meridian)]
    assert [(m.ray_index, m.blowup_index) for m in meridians] == [
        (s.ray_index, s.blowup_index) for s in sheaves
    ]


def test_longitude_twists_plane():
    cycles = vanishing_cycles(p2())
    longitudes = {c.index: c.twist_vector for c in cycles if isinstance(c, Longitude)}
    assert longitudes[0] == (0, 0, 0)
    assert longitudes[2] == (2, 2, 2)


def test_longitude_twists_quadric():
    cycles = vanishing_cycles(p1xp1())
    longitudes = {c.index: c.twist_vector for c in cycles if isinstance(c, Longitude)}
    assert longitudes[1] == (0, 1, 0, 1)


def _twists_by_prefix_sums(s) -> list[tuple[int, ...]]:
    """Longitude ell's twist vector summed from scratch over the first ell columns."""
    pairing = toric_intersection_matrix(s)
    k = len(s.rays)
    return [tuple(sum(pairing[i][j] for j in range(ell)) for i in range(k)) for ell in range(k)]


def test_longitude_twists_match_prefix_sums(srng):
    fan = Surface(tuple((1, j) for j in range(101)) + ((0, 1), (-1, -1)), (0,) * 103)
    for s in [random_surface(srng, extra_rays=8, blowups=6) for _ in range(40)] + [fan]:
        longitudes = [c for c in vanishing_cycles(s) if isinstance(c, Longitude)]
        assert [c.index for c in longitudes] == list(range(len(s.rays)))
        assert [c.twist_vector for c in longitudes] == _twists_by_prefix_sums(s)


def test_check_counts_examples():
    report = check_counts(cubic_surface())
    assert report.ok
    assert report.exceptional_count == report.vanishing_count == 9
    assert report.sphere_count == 3
    report = check_counts(p2())
    assert report.ok and report.exceptional_count == 3 and report.sphere_count == 0


def test_counts_fuzz(srng):
    for _ in range(40):
        s = random_surface(srng)
        report = check_counts(s)
        assert report.ok
        assert report.chi_y == numeric_invariants(s).chi_y


def test_counts_are_the_lengths_of_the_builders(srng, monkeypatch):
    surfaces = [random_surface(srng, extra_rays=6, blowups=8) for _ in range(40)]
    built = [
        (len(exceptional_collection(s)), len(vanishing_cycles(s)), len(visible_spheres(s))) for s in surfaces
    ]
    # check_counts counts without building: the collections are never built.
    for name in ("exceptional_collection", "vanishing_cycles"):
        monkeypatch.setattr(catalog, name, lambda s, name=name: pytest.fail(f"check_counts called {name}"))
    for s, lengths in zip(surfaces, built):
        report = check_counts(s)
        assert (report.exceptional_count, report.vanishing_count, report.sphere_count) == lengths


def test_counts_invariant_under_pushforward(srng):
    # chi-level counts transport; sphere counts may redistribute between rays
    # (an elementary letter moves one blow-up), so only consistency is stable.
    for _ in range(15):
        w = random_word(srng, 3)
        s = resolve(w, random_surface(srng))
        before, after = check_counts(s), check_counts(pushforward(w, s))
        assert before.exceptional_count == after.exceptional_count
        assert before.vanishing_count == after.vanishing_count
        assert before.chi_y == after.chi_y
        assert before.ok and after.ok


def test_blowups_past_the_budget_build_nothing():
    at, past = p2((0, BLOWUP_BUDGET, 0)), p1xp1((BLOWUP_BUDGET, 0, 0, 1))
    assert check_counts(at).ok
    for build in (check_counts, exceptional_collection, vanishing_cycles, diagram):
        with pytest.raises(BlowupBudgetError):
            build(past)

