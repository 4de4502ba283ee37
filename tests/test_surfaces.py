from functools import cmp_to_key

import pytest

from logcy2.lattice import NonPrimitiveError, angle_cmp, neg, pl_apply
from logcy2.birmap import tropicalize
from logcy2.sampling import random_letter, random_surface, random_word
from logcy2.surfaces import (
    InvalidSurfaceError,
    NotRegularError,
    RayAbsentError,
    Surface,
    _det,
    boundary_intersection_matrix,
    cubic_surface,
    from_json,
    hirzebruch1,
    insert_ray,
    interior_blowup,
    leq,
    numeric_invariants,
    p1xp1,
    p2,
    pushforward,
    resolve,
    to_json,
    require_valid,
    toric_self_intersections,
    validate,
)
from logcy2.words import Elementary, Word, parse_word


def test_validate_plane_with_any_multiplicities():
    assert validate(p2((2, 2, 2))) == []
    assert validate(p2((0, 5, 1))) == []


def test_validate_flags_bad_determinant():
    s = Surface(((1, 0), (0, 1), (-2, -1)), (0, 0, 0))
    assert any("det" in v for v in validate(s))


def test_validate_flags_incomplete_fan():
    s = Surface(((1, 0), (0, 1)), (0, 0))
    assert any("at least 3" in v for v in validate(s))


def test_self_intersections_examples():
    assert toric_self_intersections(p2()) == (1, 1, 1)
    assert toric_self_intersections(p1xp1()) == (0, 0, 0, 0)
    f1 = hirzebruch1()
    by_ray = dict(zip(f1.rays, toric_self_intersections(f1)))
    assert by_ray == {(1, 0): 0, (0, 1): -1, (-1, 1): 0, (0, -1): 1}


def test_intersection_matrix_negative_definite_case():
    mat, negdef = boundary_intersection_matrix(p2((4, 3, 3)))
    diag = sorted(mat[i][i] for i in range(3))
    assert diag == [-3, -2, -2]
    assert all(mat[i][j] == 1 for i in range(3) for j in range(3) if i != j)
    assert negdef


def test_intersection_matrix_degenerate_cycle():
    _, negdef = boundary_intersection_matrix(p2((3, 3, 3)))
    assert not negdef


def test_intersection_matrix_p1xp1_indefinite():
    mat, negdef = boundary_intersection_matrix(p1xp1())
    assert [mat[i][i] for i in range(4)] == [0, 0, 0, 0]
    assert not negdef


def test_numeric_invariants_examples():
    assert tuple(numeric_invariants(cubic_surface())) == (3, 6, 7, 9, 6)
    assert tuple(numeric_invariants(p2())) == (3, 0, 1, 3, 0)
    f1 = hirzebruch1()
    f1 = interior_blowup(f1, (0, -1))
    assert tuple(numeric_invariants(f1)) == (4, 1, 3, 5, 1)


def test_insert_ray_one_step():
    s = insert_ray(p2(), (0, -1))
    assert set(s.rays) == {(1, 0), (0, 1), (-1, -1), (0, -1)}
    s2 = insert_ray(p2(), (1, 1))
    assert set(s2.rays) == {(1, 0), (0, 1), (-1, -1), (1, 1)}


def test_insert_ray_noop_and_errors():
    assert insert_ray(p2(), (1, 0)) == p2()
    with pytest.raises(NonPrimitiveError):
        insert_ray(p2(), (2, 2))


def test_insert_ray_deep_subdivision():
    s = insert_ray(p2(), (3, 2))
    assert (3, 2) in s.rays
    assert validate(s) == []


def test_interior_blowup():
    s = interior_blowup(p2(), (1, 0))
    assert s.multiplicity((1, 0)) == 1
    assert interior_blowup(interior_blowup(s, (1, 0)), (0, 1)).total_m() == 3
    with pytest.raises(RayAbsentError):
        interior_blowup(p2(), (0, -1))


def test_cubic_by_repeated_blowups():
    s = p2()
    for ray in s.rays:
        s = interior_blowup(interior_blowup(s, ray), ray)
    assert s == cubic_surface()


def test_leq_examples():
    assert leq(p2(), p2())
    assert leq(p2(), cubic_surface())
    assert not leq(p2((1, 0, 0)), p2((0, 1, 1)))
    assert leq(p2(), insert_ray(p2(), (0, -1)))


def test_pushforward_worked_example():
    s = p1xp1((0, 1, 0, 0))
    out = pushforward(parse_word("E"), s)
    assert out == hirzebruch1((0, 0, 0, 1))
    # transported boundary self-intersections agree on all four rays
    trop = tropicalize(parse_word("E"))
    before = dict(zip(s.rays, (a - m for a, m in zip(toric_self_intersections(s), s.m))))
    after = dict(zip(out.rays, (a - m for a, m in zip(toric_self_intersections(out), out.m))))
    for ray, value in before.items():
        assert after[pl_apply(trop, ray)] == value


def test_pushforward_rotation():
    s = p2((1, 2, 3))
    out = pushforward(parse_word("A[0,-1;1,0]"), s)
    by_ray = dict(zip(out.rays, out.m))
    assert by_ray == {(0, -1): 1, (1, 0): 2, (-1, 1): 3}


def test_pushforward_missing_ray():
    with pytest.raises(NotRegularError) as err:
        pushforward(parse_word("E"), p2())
    assert err.value.reason == "missing ray"
    assert err.value.ray == (0, -1)


def test_pushforward_zero_multiplicity():
    s = insert_ray(p2(), (0, -1))
    with pytest.raises(NotRegularError) as err:
        pushforward(parse_word("E"), s)
    assert err.value.reason == "zero multiplicity"


def test_pushforward_preserves_invariants(srng):
    for _ in range(25):
        w = random_word(srng, 3)
        s = resolve(w, random_surface(srng))
        out = pushforward(w, s)
        assert validate(out) == []
        i0, i1 = numeric_invariants(s), numeric_invariants(out)
        assert i0 == i1


def test_pushforward_transports_self_intersections(srng):
    for _ in range(15):
        w = random_word(srng, 3)
        s = resolve(w, random_surface(srng))
        out = pushforward(w, s)
        trop = tropicalize(w)
        a_s, a_o = toric_self_intersections(s), toric_self_intersections(out)
        after = {r: a - m for r, a, m in zip(out.rays, a_o, out.m)}
        for ray, a, m in zip(s.rays, a_s, s.m):
            assert after[pl_apply(trop, ray)] == a - m


def test_pushforward_monotone(srng):
    for _ in range(15):
        w = random_word(srng, 3)
        s = resolve(w, random_surface(srng))
        t = interior_blowup(insert_ray(s, (5, 1)), srng.choice(s.rays))
        assert leq(s, t)
        ps, pt = pushforward(w, s), pushforward(w, t)
        assert leq(ps, pt)


def _pushforward_by_sorting(w: Word, s: Surface) -> Surface:
    """Reference pushforward: map every ray, then sort the images by angle."""
    for letter in reversed(w.letters):
        gen, e = letter
        trop = tropicalize(Word((letter,)))
        mapped = sorted(
            ((pl_apply(trop, r), mm) for r, mm in zip(s.rays, s.m)),
            key=lambda pair: cmp_to_key(angle_cmp)(pair[0]),
        )
        rays = tuple(r for r, _ in mapped)
        m = [mm for _, mm in mapped]
        if isinstance(gen, Elementary):
            src = gen.n if e == 1 else neg(gen.n)
            m[rays.index(src)] -= 1
            m[rays.index(neg(src))] += 1
        s = require_valid(Surface(rays, tuple(m)))
    return s


def test_pushforward_matches_sorting_reference(srng):
    flip = parse_word("A[0,1;1,0]")  # det -1: reverses the cyclic order
    for i in range(40):
        w = Word(tuple(random_letter(srng) for _ in range(srng.randint(0, 6))))
        if i % 2:
            w = w * flip * Word(tuple(random_letter(srng) for _ in range(srng.randint(0, 3))))
        s = resolve(w, random_surface(srng))
        assert pushforward(w, s) == _pushforward_by_sorting(w, s)
    s = p2((1, 2, 3))
    assert pushforward(flip, s) == _pushforward_by_sorting(flip, s)


def test_det_matches_sympy(srng):
    sympy = pytest.importorskip("sympy")
    for _ in range(120):
        n = srng.randint(1, 8)
        bound = srng.choice([1, 2, 9, 10**6])
        rows = [[srng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        assert _det(rows) == sympy.Matrix(rows).det()


def test_resolve_identity_and_elementary():
    assert resolve(Word(), p2()) == p2()
    r = resolve(parse_word("E"), p2())
    assert {(0, 1), (0, -1)} <= set(r.rays)
    assert r.multiplicity((0, 1)) == 1
    assert leq(p2(), r)


def test_resolve_cubic_reflection_is_corner_only():
    xi = cubic_surface()
    r = resolve(parse_word("r2"), xi)
    assert leq(xi, r)
    assert r.total_m() == xi.total_m()
    assert numeric_invariants(r).chi_u == numeric_invariants(xi).chi_u


def test_resolve_soundness(srng):
    for _ in range(20):
        w = random_word(srng, 4)
        s = resolve(w, p2())
        assert leq(p2(), s)
        current = s
        for i, letter in enumerate(reversed(w.letters)):
            current = pushforward(Word((letter,)), current)


def test_group_action_consistency():
    # words equal in the group transport every surface identically; the
    # identity word is the reference side of each pair
    s = resolve(parse_word("P^5"), p2((1, 1, 1)))
    assert pushforward(parse_word("P^5"), s) == s
    r1_squared = parse_word("r1") * parse_word("r1")
    t = resolve(r1_squared, cubic_surface())
    assert pushforward(r1_squared, t) == t
    assert parse_word("E * E^-1").is_empty()


def test_json_roundtrip():
    s = cubic_surface()
    text = to_json(s)
    assert from_json(text) == s
    assert to_json(from_json(text)) == text


def test_json_starts_at_lexicographically_least_ray():
    text = to_json(cubic_surface())
    assert text.startswith('{"rays": [[-1, -1]')


def test_json_strict_validation():
    with pytest.raises(InvalidSurfaceError):
        from_json('{"rays": [[1, 0], [0, 1]], "m": [0, 0]}')
    with pytest.raises(InvalidSurfaceError):
        from_json('{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 0]}')
    with pytest.raises(InvalidSurfaceError):
        from_json('{"rays": "nope", "m": []}')
    with pytest.raises(InvalidSurfaceError):
        from_json('not json')
    with pytest.raises(InvalidSurfaceError):
        from_json('{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 0, 0], "extra": 1}')
