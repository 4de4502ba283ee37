import json
import math
import random
import sys
from collections import Counter
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from cli_cases import run_cli
from logcy2.errors import DigitLimitError
from logcy2.lattice import NonPrimitiveError, cross, neg, pl_apply
from logcy2 import surfaces
from logcy2.birmap import letter_trop, realize, tropicalize
from logcy2.catalog import check_counts
from logcy2.diagrams import diagram, visible_spheres
from logcy2.sampling import random_letter, random_surface, random_word
from logcy2.surfaces import (
    InvalidSurfaceError,
    NotRegularError,
    RayAbsentError,
    RayBudgetError,
    Surface,
    _negative_definite,
    boundary_form,
    cubic_surface,
    cycle_row,
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
    toric_self_intersections,
    validate,
)
from logcy2.words import Elementary, Word, parse_word
from test_lattice import angle_cmp


def test_validate_plane_with_any_multiplicities():
    assert validate(p2((2, 2, 2))) == []
    assert validate(p2((0, 5, 1))) == []


def _violations(rays, m) -> list[str]:
    """The violations ``Surface(rays, m)`` raises, or [] when it constructs."""
    try:
        Surface(rays, m)
    except InvalidSurfaceError as err:
        return err.violations
    return []


def test_validate_flags_bad_determinant():
    assert _violations(((1, 0), (0, 1), (-2, -1)), (0, 0, 0)) == ["det((0, 1), (-2, -1)) = 2, expected 1"]


def test_validate_flags_incomplete_fan():
    assert any("at least 3" in v for v in _violations(((1, 0), (0, 1)), (0, 0)))


def test_self_intersections_examples():
    assert toric_self_intersections(p2()) == (1, 1, 1)
    assert toric_self_intersections(p1xp1()) == (0, 0, 0, 0)
    f1 = hirzebruch1()
    by_ray = dict(zip(f1.rays, toric_self_intersections(f1)))
    assert by_ray == {(1, 0): 0, (0, 1): -1, (-1, 1): 0, (0, -1): 1}


def toric_intersection_matrix(s: Surface) -> tuple[tuple[int, ...], ...]:
    """Reference: the dense intersection matrix of the toric boundary components, before the blow-ups.

    Diagonal a_i, off-diagonal 1 for cyclically adjacent rays.
    """
    selfints = toric_self_intersections(s)
    k = len(s.rays)
    mat = [[0] * k for _ in range(k)]
    for i in range(k):
        mat[i][i] = selfints[i]
        mat[i][(i + 1) % k] = mat[(i + 1) % k][i] = 1
    return tuple(tuple(row) for row in mat)


def boundary_intersection_matrix(s: Surface) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Reference: the dense intersection matrix of the boundary components, and negative-definiteness.

    ``toric_intersection_matrix`` with m_i subtracted on the diagonal, and
    the verdict on that diagonal.
    """
    mat = tuple(
        tuple(v - s.m[i] if i == j else v for j, v in enumerate(row))
        for i, row in enumerate(toric_intersection_matrix(s))
    )
    return mat, _negative_definite(tuple(row[i] for i, row in enumerate(mat)))


def test_intersection_matrix_negative_definite_case():
    mat, negdef = boundary_intersection_matrix(p2((4, 3, 3)))
    diag = sorted(mat[i][i] for i in range(3))
    assert diag == [-3, -2, -2]
    assert all(mat[i][j] == 1 for i in range(3) for j in range(3) if i != j)
    assert negdef
    assert boundary_form(p2((4, 3, 3))) == (tuple(mat[i][i] for i in range(3)), True)


def test_intersection_matrix_degenerate_cycle():
    _, negdef = boundary_intersection_matrix(p2((3, 3, 3)))
    assert not negdef
    assert boundary_form(p2((3, 3, 3))) == ((-2, -2, -2), False)


def test_intersection_matrix_p1xp1_indefinite():
    mat, negdef = boundary_intersection_matrix(p1xp1())
    assert [mat[i][i] for i in range(4)] == [0, 0, 0, 0]
    assert not negdef
    assert boundary_form(p1xp1()) == ((0, 0, 0, 0), False)


def _dense_intersections(s: Surface) -> str:
    """Reference: the stdout of ``surface intersections``, one ``json.dumps`` of the dense matrix."""
    mat, negdef = boundary_intersection_matrix(s)
    return json.dumps({
        "self_intersections": list(toric_self_intersections(s)),
        "matrix": [list(row) for row in mat],
        "negative_definite": negdef,
        "all_m_above_two": all(m > 2 for m in s.m),
    }) + "\n"


def test_cycle_form_matches_the_dense_reference(srng):
    # p2 and p1xp1 fix k = 3 and k = 4 among the draws.
    draws = [p2((4, 3, 3)), p1xp1()] + [random_surface(srng, srng.choice([0, 3, 12]), 12) for _ in range(40)]
    for s in draws:
        mat, negdef = boundary_intersection_matrix(s)
        diag, verdict = boundary_form(s)
        assert [cycle_row(diag, i) for i in range(len(diag))] == [list(row) for row in mat]
        assert verdict is negdef
        got = run_cli(["surface", "intersections", "@s.json"], {"s.json": to_json(s)})
        assert got == (0, _dense_intersections(s), "", None)


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


def test_insert_ray_stops_at_the_ray_budget():
    # Inserting (0, -1) into the cone of (-1 - n, -1) and (1, 0) takes n + 1
    # corner blow-ups, each adding the sum of the cone's two rays.
    def fan(n):
        return Surface(((1, 0), (n, 1), (-1 - n, -1)), (0, 0, 0))

    n = surfaces.RAY_BUDGET - 1
    s = insert_ray(fan(n), (0, -1))
    assert len(s.rays) == 3 + surfaces.RAY_BUDGET and validate(s) == []
    with pytest.raises(surfaces.RayBudgetError, match="more than"):
        insert_ray(fan(surfaces.RAY_BUDGET), (0, -1))
    with pytest.raises(surfaces.RayBudgetError):
        resolve(parse_word("E"), fan(10**7))


def test_to_json_past_the_digit_limit_is_a_domain_error():
    big = 10 ** sys.get_int_max_str_digits()
    with pytest.raises(DigitLimitError, match="digits"):
        to_json(Surface(((1, 0), (big, 1), (-1 - big, -1)), (0, 0, 0)))


def test_interior_blowup():
    s = interior_blowup(p2(), (1, 0))
    assert s.multiplicity((1, 0)) == 1
    assert interior_blowup(interior_blowup(s, (1, 0)), (0, 1)).total_m() == 3
    with pytest.raises(RayAbsentError):
        interior_blowup(p2(), (0, -1))


def test_absent_ray_messages_quote_at_most_40_characters_of_an_integer():
    big = 10**3000
    with pytest.raises(RayAbsentError) as err:
        interior_blowup(p2(), (big, 1))
    assert str(err.value) == f"ray ({str(big)[:40]}..., 1) not in fan; insert it first"
    with pytest.raises(RayAbsentError) as err:
        p2().multiplicity((big, 1))
    assert str(err.value) == f"ray ({str(big)[:40]}..., 1) not in fan"


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


def test_negative_definite_matches_sympy(srng):
    sympy = pytest.importorskip("sympy")
    verdicts, zero_minors = Counter(), 0
    for _ in range(150):
        if srng.random() < 0.5:
            k, bound = srng.randint(3, 12), srng.choice([1, 2, 9, 10**6])
            diag = tuple(srng.randint(-2 * bound, bound) for _ in range(k))
            rows = [[diag[i] if i == j else int((i - j) % k in (1, k - 1)) for j in range(k)] for i in range(k)]
        else:
            rows, _ = boundary_intersection_matrix(random_surface(srng, 3, 24))
            k, diag = len(rows), tuple(rows[i][i] for i in range(len(rows)))
        m = sympy.Matrix(rows)
        zero_minors += any(m[:i, :i].det() == 0 for i in range(1, k + 1))
        verdict = _negative_definite(diag)
        assert verdict is m.is_negative_definite
        verdicts[verdict] += 1
    assert verdicts[True] > 10 and verdicts[False] > 10 and zero_minors > 10


def test_negative_definite_on_a_long_cycle():
    # A cycle of -2 curves is semidefinite (the all-ones vector squares to 0);
    # one -3 in it makes it definite.
    assert not _negative_definite((-2,) * 2000)
    assert _negative_definite((-2,) * 1999 + (-3,))
    assert _negative_definite((-3,) + (-2,) * 1999)


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
        for letter in reversed(w.letters):
            current = pushforward(Word((letter,)), current)
            assert validate(current) == []
        assert current == pushforward(w, s)


def _removals(s0: Surface, s: Surface):
    """(rays, m) for s less one interior blow-up, or less one m = 0 ray, that s has above s0."""
    below = dict(zip(s0.rays, s0.m))
    for i, (r, mm) in enumerate(zip(s.rays, s.m)):
        if mm > below.get(r, 0):
            yield s.rays, s.m[:i] + (mm - 1,) + s.m[i + 1 :]
        elif r not in below:
            yield s.rays[:i] + s.rays[i + 1 :], s.m[:i] + s.m[i + 1 :]


def test_resolve_is_locally_minimal(srng):
    # Taking back one augmentation of resolve leaves some letter irregular;
    # a ray removal that breaks the fan gives no surface and is skipped.
    checked = 0
    for _ in range(100):
        w = random_word(srng, 8)
        for s0 in (p2(), cubic_surface(), random_surface(srng)):
            for rays, m in _removals(s0, resolve(w, s0)):
                try:
                    smaller = Surface(rays, m)
                except InvalidSurfaceError:
                    continue
                checked += 1
                with pytest.raises(NotRegularError):
                    pushforward(w, smaller)
    assert checked >= 400


def _hull(points) -> list[tuple[int, int]]:
    """The vertices of the convex hull of points, ccw, none in the middle of an edge (monotone chain)."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross((out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                                          (p[0] - out[-2][0], p[1] - out[-2][1])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts)) if len(pts) > 1 else pts


def _newton_edges(terms: dict) -> list[tuple[tuple[int, int], list]]:
    """(r, row) per edge of the Newton polygon of terms, r its inner primitive normal.

    row[k] is the coefficient k lattice steps e along the edge from its
    first vertex p, k = dot(t - p, e) / |e|^2, so the edge terms are
    x^p times the polynomial in z = x^e[0] y^e[1] whose coefficients are
    row.  A segment has two edges, one on each side.
    """
    dot = lambda u, v: u[0] * v[0] + u[1] * v[1]
    hull = _hull(terms)
    edges = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        steps = math.gcd(q[0] - p[0], q[1] - p[1])
        e = ((q[0] - p[0]) // steps, (q[1] - p[1]) // steps)
        r = (-e[1], e[0])  # e turned a quarter ccw: the left of a ccw edge is inside
        row = [0] * (steps + 1)
        for t, c in terms.items():
            if dot(r, t) == dot(r, p):
                row[dot((t[0] - p[0], t[1] - p[1]), e) // dot(e, e)] = c
        edges.append((r, row))
    return edges


def test_newton_edges_of_realized_maps_are_resolved_rays_with_binomial_terms(srng):
    # For an edge of the Newton polygon of a side of realize(w), with inner
    # normal r and z = x^r2 y^-r1 along it: (a) r is a ray of resolve(w, s0),
    # and (b) the edge terms are c z^a (1 + z)^K, so the side's curve meets
    # the boundary divisor D_r only at z = -1, the distinguished point.
    edges = 0
    for _ in range(600):
        w = random_word(srng, 6)
        m = realize(w)
        normals = set()
        for side in (m.f.num, m.f.den, m.g.num, m.g.den):
            if len(side.terms) < 2:
                continue
            for r, row in _newton_edges(side.terms):
                K = len(row) - 1
                assert row == [row[0] * math.comb(K, k) for k in range(K + 1)], (str(w), r, row)
                normals.add(r)
                edges += 1
        for s0 in (p2(), cubic_surface(), random_surface(srng)):
            assert normals <= set(resolve(w, s0).rays), (str(w), s0, normals - set(resolve(w, s0).rays))
    assert edges >= 1000


def _spy_push(monkeypatch) -> list[tuple[int, Surface]]:
    """Record (applied, fan as a Surface) each time resolve tries a letter.

    resolve checks a letter with ``_fault`` before each augmentation and once
    more before it pushes the letter with ``_push``; ``applied`` counts the
    pushes made so far.
    """
    calls, pushes = [], []
    fault, push = surfaces._fault, surfaces._push

    def fault_spy(letter, rays, m):
        calls.append((len(pushes), Surface(rays, tuple(m))))
        return fault(letter, rays, m)

    def push_spy(letter, rays, m):
        pushes.append(letter)
        return push(letter, rays, m)

    monkeypatch.setattr(surfaces, "_fault", fault_spy)
    monkeypatch.setattr(surfaces, "_push", push_spy)
    return calls


def test_resolve_pushes_each_letter_plus_each_augmentation_once(monkeypatch):
    w = parse_word("(E*E[1,0])^200")
    calls = _spy_push(monkeypatch)
    r = resolve(w, p2())
    augmentations = len(r.rays) - 3 + r.total_m()
    assert len(calls) == len(w.letters) + augmentations == 400 + 402
    per_letter = Counter(applied for applied, _ in calls)
    assert max(per_letter.values()) <= 4


def _push_letter_reference(letter, s: Surface, applied: int) -> Surface:
    """Reference push of one letter: every ray through ``pl_apply``, the images sorted by angle.

    One validated Surface per letter; the order of the rays comes from the
    sort, not from the letter's determinant.
    """
    gen, e = letter
    if isinstance(gen, Elementary):
        n = gen.n
        for needed in (n, neg(n)):
            if needed not in s.rays:
                raise NotRegularError("missing ray", applied, needed)
        src = n if e == 1 else neg(n)
        if s.multiplicity(src) < 1:
            raise NotRegularError("zero multiplicity", applied, src)
    trop = letter_trop(letter)
    mapped = sorted(
        ((pl_apply(trop, r), mm) for r, mm in zip(s.rays, s.m)),
        key=lambda pair: cmp_to_key(angle_cmp)(pair[0]),
    )
    rays = tuple(r for r, _ in mapped)
    m = [mm for _, mm in mapped]
    if isinstance(gen, Elementary):
        m[rays.index(src)] -= 1
        m[rays.index(neg(src))] += 1
    return Surface(rays, tuple(m))


def _pushforward_reference(w: Word, s: Surface) -> Surface:
    for applied, letter in enumerate(reversed(w.letters)):
        s = _push_letter_reference(letter, s, applied)
    return s


def _resolve_reference(w: Word, s0: Surface) -> tuple[Surface, list[tuple[int, Surface]]]:
    """Reference resolve: candidate and current kept as Surfaces, a failure raised and caught.

    Also returns, per augmentation, the number of letters applied before the
    failure and the augmented candidate.
    """
    candidate = current = s0
    steps = []
    for applied, letter in enumerate(reversed(w.letters)):
        for _ in range(4):
            try:
                current = _push_letter_reference(letter, current, applied)
                break
            except NotRegularError as err:
                r0 = err.ray
                for gen, e in w.letters[len(w.letters) - applied:]:
                    r0 = pl_apply(letter_trop((gen, -e)), r0)
                if err.reason == "missing ray":
                    candidate, current = insert_ray(candidate, r0), insert_ray(current, err.ray)
                else:
                    candidate, current = interior_blowup(candidate, r0), interior_blowup(current, err.ray)
                steps.append((applied, candidate))
        else:
            raise AssertionError(f"letter {applied} failed a fourth time in resolve")
    return candidate, steps


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the class, text and fields of the domain error it raises."""
    try:
        return call(*args)
    except NotRegularError as err:
        return NotRegularError, str(err), err.reason, err.applied_count, err.ray
    except RayBudgetError as err:
        return RayBudgetError, str(err)


def _transport_cases(srng):
    """200 (word, surface) pairs: every 4th word ``random_word(srng, 5)``, every 2nd through a det -1 letter."""
    flip = parse_word("A[0,1;1,0]")  # det -1: reverses the cyclic order
    for i in range(200):
        if i % 4 == 3:
            w = random_word(srng, 5)
        else:
            w = Word(tuple(random_letter(srng) for _ in range(srng.randint(0, 8))))
        if i % 2:
            w = w * flip * Word(tuple(random_letter(srng) for _ in range(srng.randint(0, 3))))
        yield w, random_surface(srng)


def test_push_matches_the_surface_per_letter_reference(srng):
    irregular = 0
    for w, s0 in _transport_cases(srng):
        got = _outcome(pushforward, w, s0)
        assert got == _outcome(_pushforward_reference, w, s0)
        irregular += isinstance(got, tuple)
    assert irregular > 120  # the error fields were compared, not only results


def test_pushforward_matches_sorting_reference(srng):
    # _push_letter_reference orders the mapped rays by sorting them by angle
    for w, s0 in _transport_cases(srng):
        s = resolve(w, s0)
        assert pushforward(w, s) == _pushforward_reference(w, s)
    flip = parse_word("A[0,1;1,0]")
    s = p2((1, 2, 3))
    assert pushforward(flip, s) == _pushforward_reference(flip, s)


def test_resolve_matches_restarting_reference(srng, monkeypatch):
    # Restarting the push from the first letter after an augmentation reaches
    # the failing letter with the augmented candidate pushed through the
    # letters applied so far; resolve's current fan at each retry must be that.
    augmentations = 0
    for w, s0 in _transport_cases(srng):
        with monkeypatch.context() as mp:
            calls = _spy_push(mp)
            s = resolve(w, s0)
        want, steps = _resolve_reference(w, s0)
        assert s == want
        # A try at the same applied count as the one before it is the retry
        # after an augmentation; it sees the augmented current fan.
        retries = [after for before, after in zip(calls, calls[1:]) if before[0] == after[0]]
        assert [applied for applied, _ in retries] == [applied for applied, _ in steps]
        for (applied, current), (_, candidate) in zip(retries, steps):
            assert current == pushforward(Word(w.letters[len(w.letters) - applied:]), candidate)
        augmentations += len(steps)
    assert augmentations > 600  # the augmentations were compared, not only results


def test_resolve_hits_the_ray_budget_where_the_reference_does(srng):
    # Inserting (0, -1), E's missing ray, into the cone of (-1 - n, -1) and
    # (1, 0) takes n + 1 corner blow-ups.
    budget = surfaces.RAY_BUDGET
    raised = 0
    for n in range(budget - 6, budget + 6):
        s0 = Surface(((1, 0), (n, 1), (-1 - n, -1)), (0, 0, 0))
        w = Word(tuple(random_letter(srng) for _ in range(srng.randint(0, 3)))) * parse_word("E")
        got = _outcome(resolve, w, s0)
        assert got == _outcome(lambda *args: _resolve_reference(*args)[0], w, s0)
        raised += isinstance(got, tuple) and got[0] is RayBudgetError
    assert 0 < raised < 12


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
    with pytest.raises(InvalidSurfaceError):
        from_json("[" * 100000)
    with pytest.raises(InvalidSurfaceError):
        from_json('{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [' + "1" * 5000 + ", 0, 0]}")


@pytest.mark.parametrize(
    "text",
    [
        '{"rays": [[true, false], [false, true], [-1, -1]], "m": [0, 0, 0]}',
        '{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, false, 0]}',
        '{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [true, 0, 0]}',
    ],
)
def test_json_rejects_booleans(text):
    with pytest.raises(InvalidSurfaceError):
        from_json(text)


def test_validate_rejects_boolean_multiplicity():
    assert any("multiplicity" in v for v in _violations(p2().rays, (0, True, 0)))


def _validate_reference(rays, m) -> list[str]:
    """Every check of ``validate`` made one by one: the diagnostic its accept pass must reproduce.

    The data is first rotated to its least ray, as ``Surface`` rotates it.
    """
    rays, m = tuple(rays), tuple(m)
    if rays and len(rays) == len(m):
        start = rays.index(min(rays))
        rays, m = rays[start:] + rays[:start], m[start:] + m[:start]
    out: list[str] = []
    k = len(rays)
    if k < 3:
        out.append(f"fan needs at least 3 rays, has {k}")
    if len(m) != k:
        out.append(f"{len(m)} multiplicities for {k} rays")
    for r in rays:
        if math.gcd(r[0], r[1]) != 1:
            out.append(f"ray {r} is not primitive")
    if len(set(rays)) != k:
        out.append("rays are not pairwise distinct")
    for mm in m:
        if type(mm) is not int or mm < 0:
            out.append(f"multiplicity {mm} is not a nonnegative integer")
    if out:
        return out
    descents = 0
    for i in range(k):
        a, b = rays[i], rays[(i + 1) % k]
        d = a[0] * b[1] - a[1] * b[0]
        if d != 1:
            out.append(f"det({a}, {b}) = {d}, expected 1")
        if angle_cmp(a, b) > 0:
            descents += 1
    if not out and descents != 1:
        out.append(f"rays wind {descents} times around the origin")
    return out


# Seven distinct rays, every adjacent determinant 1, winding twice.
WOUND_TWICE = ((1, 0), (0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0), (-2, -1))


def test_validate_flags_a_fan_that_winds_twice():
    assert _violations(WOUND_TWICE, (0,) * 7) == ["rays wind 2 times around the origin"]


valid_surfaces = st.integers(0, 2**32).map(
    lambda seed: random_surface(random.Random(seed), extra_rays=6, blowups=6)
)
valid_data = valid_surfaces.map(lambda s: (s.rays, s.m))


@st.composite
def mutated_data(draw) -> tuple:
    """A valid surface's rays and multiplicities with one ray or multiplicity broken."""
    s = draw(valid_surfaces)
    rays, m = list(s.rays), list(s.m)
    i, j = draw(st.integers(0, len(rays) - 1)), draw(st.integers(0, len(rays) - 1))
    kind = draw(st.sampled_from(["swap", "repeat", "negate", "scale", "drop", "drop_m", "m", "double"]))
    if kind == "swap":
        rays[i], rays[j] = rays[j], rays[i]
    elif kind == "repeat":
        rays[i] = rays[j]
    elif kind == "negate":
        rays[i] = neg(rays[i])
    elif kind == "scale":
        rays[i] = (draw(st.integers(-3, 3)) * rays[i][0], draw(st.integers(-3, 3)) * rays[i][1])
    elif kind == "drop":
        del rays[i], m[i]
    elif kind == "drop_m":
        del m[i]
    elif kind == "m":
        m[i] = draw(st.sampled_from([-1, -(10**20), True, False]))
    else:
        rays, m = rays * 2, m * 2
    return tuple(rays), tuple(m)


hostile_data = st.one_of(
    st.tuples(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12).map(tuple),
        st.lists(st.one_of(st.integers(-2, 3), st.booleans()), max_size=12).map(tuple),
    ),
    st.lists(st.one_of(st.integers(0, 2), st.booleans()), min_size=7, max_size=7).map(
        lambda m: (WOUND_TWICE, tuple(m))
    ),
)


@settings(max_examples=300)
@given(st.one_of(valid_data, mutated_data(), hostile_data))
def test_validate_matches_reference_diagnostic(data):
    assert _violations(*data) == _validate_reference(*data)


def _spy_validate(monkeypatch) -> tuple[list[Surface], list[Surface]]:
    """Record every surface ``surfaces.validate`` sees, and every Surface the module creates."""
    validated, created = [], []
    real = surfaces.validate

    def spy(s):
        validated.append(s)
        return real(s)

    class Recorded(Surface):
        def __init__(self, rays, m) -> None:
            super().__init__(rays, m)
            created.append(self)

    monkeypatch.setattr(surfaces, "validate", spy)
    monkeypatch.setattr(surfaces, "Surface", Recorded)
    return validated, created


def test_resolve_and_pushforward_validate_each_surface_once(srng, monkeypatch):
    cases = [(parse_word("(E*E[1,0])^20"), p2())]
    cases += [(random_word(srng, 4), random_surface(srng)) for _ in range(40)]
    for w, s0 in cases:
        regular = resolve(w, s0)  # every letter of w is regular on it
        for call, s in ((resolve, s0), (pushforward, regular)):
            with monkeypatch.context() as mp:
                validated, created = _spy_validate(mp)
                call(w, s)
            # The lists keep every surface alive, so ids are not reused.
            assert len({id(x) for x in validated}) == len(validated)
            assert {id(x) for x in validated} == {id(x) for x in created}


def test_operations_on_a_surface_never_validate_it_again(monkeypatch):
    s, t = cubic_surface(), insert_ray(cubic_surface(), (1, 1))
    validated, created = _spy_validate(monkeypatch)
    check_counts(s)
    diagram(s)
    visible_spheres(s)
    numeric_invariants(s)
    toric_self_intersections(s)
    leq(s, t)
    assert validated == [] and created == []
