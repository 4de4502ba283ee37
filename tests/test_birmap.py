import itertools
import json
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from logcy2.birmap import (
    CACHE_SIZE,
    IDENTITY_MAP,
    BirationalMap,
    boundary_limit,
    character_from_letters,
    compose,
    equal,
    _letter_steps,
    letter_trop,
    realize,
    tropical_image,
    tropicalize,
    volume_character,
)
from logcy2 import polyrat
from logcy2.lattice import complement_matrix, mat_inv, mat_mul, pl_apply, pl_compose, pl_elementary, PLMap
from logcy2.polyrat import Poly2, RatFunc2, TermBudgetError, evaluate, normalize, substitute
from logcy2.sampling import DEGREE_CAP, random_letter, random_primitive, random_unimodular, random_word, realized_degree
from logcy2.words import E, Elementary, Letter, Linear, Word, linear, linear_from_literal, parse_word, ray_image
from cli_cases import run_cli
from test_polyrat import arc_limit, pull_one, running_sums

X, Y, ONE = Poly2.x(), Poly2.y(), Poly2.const(1)


def test_realize_elementary():
    m = realize(parse_word("E"))
    assert m == BirationalMap(RatFunc2.x(), normalize(Y, ONE + X))


def test_realize_inversion_letter():
    m = realize(parse_word("A[-1,0;0,1]"))
    assert m == BirationalMap(normalize(ONE, X), RatFunc2.y())


def test_realize_pentagon():
    m = realize(parse_word("P"))
    assert m == BirationalMap(RatFunc2.y(), normalize(ONE + Y, X))


def test_realize_conjugated_elementary():
    m = realize(parse_word("E[0,-1]"))
    assert m == BirationalMap(RatFunc2.x(), normalize(Y * (ONE + X), X))


# --- the realize fold ---------------------------------------------------------------


def letter_map(letter: Letter) -> BirationalMap:
    """One letter's map: the one-letter word realized."""
    return realize(Word((letter,)))


def coordinates_only(m: BirationalMap) -> BirationalMap:
    """m without its steps, as a map given by f and g alone: ``compose`` takes it only as outer."""
    return BirationalMap(m.f, m.g)


def substituted(outer: BirationalMap, inner: BirationalMap) -> BirationalMap:
    """outer after inner by ``substitute``, one call per coordinate: the reference for ``compose``."""
    return BirationalMap(substitute(outer.f, inner.f, inner.g), substitute(outer.g, inner.f, inner.g))


def _realize_right_fold(w: Word) -> BirationalMap:
    """An earlier fold: letter after accumulated map, from the identity, by substitution."""
    acc = IDENTITY_MAP
    for letter in reversed(w.letters):
        acc = substituted(letter_map(letter), acc)
    return acc


def _realize_left_fold(w: Word) -> BirationalMap:
    """Accumulated map after letter, from the identity, by substitution.

    Its intermediate maps are the word's prefixes; the right fold's are its
    suffixes, and on long runs of one letter such as ``E[2,1]^-6`` it spends
    seconds in ``substitute`` where this fold spends milliseconds.
    """
    acc = IDENTITY_MAP
    for letter in w.letters:
        acc = substituted(acc, letter_map(letter))
    return acc


def _tropicalize_right_fold(w: Word) -> PLMap:
    acc = PLMap.identity()
    for letter in reversed(w.letters):
        acc = pl_compose(letter_trop(letter), acc)
    return acc


MACRO_17 = "P^5*E^3*A[1,1;0,1]*E[1,0]^2*E[-1,2]"


def _one_letter_words() -> list[Word]:
    """Both signs of E[n] for primitive n in [-2, 2]^2 and of A[...] with entries in [-1, 1]."""
    gens = [Elementary(n) for n in itertools.product(range(-2, 3), repeat=2) if math.gcd(*n) == 1]
    literals = itertools.product(range(-1, 2), repeat=4)
    gens += [linear_from_literal(a, b, c, d) for a, b, c, d in literals if abs(a * d - b * c) == 1]
    return [Word(((gen, e),)) for gen in gens for e in (1, -1)]


def test_realize_and_tropicalize_match_right_fold_reference(srng):
    words = [random_word(srng, 5) for _ in range(30)]
    words += [parse_word(t) for t in ("P", "r1", "r2", "r3", MACRO_17, "E^-3*E[1,0]^2*A[0,1;1,0]", "id")]
    words += _one_letter_words()
    for w in words:
        got, want = realize(w), _realize_right_fold(w)
        assert got == want and str(got) == str(want), str(w)
        got_trop, want_trop = tropicalize(w), _tropicalize_right_fold(w)
        assert got_trop == want_trop and str(got_trop) == str(want_trop), str(w)


RAYS = [(0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (1, -1), (-1, 2), (2, 1)]
LINEARS = [Linear(((0, 1), (1, 0))), Linear(((1, 1), (0, 1))), Linear(((0, -1), (1, -1))), Linear(((-1, 0), (0, 1)))]


def powered_words():
    """Products of up to four generator powers: E[n]^k with |k| <= 12, linear letters to +-2.

    Every prefix stays within realized degree 60, so the left fold stays fast.
    """
    elementary = st.tuples(st.sampled_from(RAYS).map(Elementary), st.integers(-12, 12).filter(bool))
    linear = st.tuples(st.sampled_from(LINEARS), st.sampled_from([1, -1, 2, -2]))
    atom = st.one_of(elementary, linear).map(lambda gk: Word(((gk[0], 1 if gk[1] > 0 else -1),)) ** abs(gk[1]))
    words = st.lists(atom, min_size=1, max_size=4).map(lambda ws: Word(tuple(l for w in ws for l in w.letters)))
    return words.filter(lambda w: all(realized_degree(Word(w.letters[:n])) <= 60 for n in range(1, len(w) + 1)))


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(powered_words())
@example(parse_word("E^12*A[0,1;1,0]*E^-7"))
@example(parse_word("E^-12*E[1,0]^12"))
@example(parse_word("E[1,1]^12*E[-1,0]^-3"))
@example(parse_word("E[2,1]^-6*E^-1*A[-1,0;0,1]^2*A[0,1;-1,-1]^2"))
def test_realize_matches_left_fold_on_powered_words(w):
    got, want = realize(w), _realize_left_fold(w)
    assert got == want and str(got) == str(want)


def test_realize_folds_from_the_first_letter(monkeypatch):
    # realize pulls back through the letters in order by exact kernels: no
    # composition, substitution, normalization or gcd runs.
    w = parse_word(MACRO_17)
    expected = _realize_right_fold(w)
    one_letter = Word(w.letters[:1])
    first = letter_map(w.letters[0])
    realize.cache_clear()
    calls = []

    def spy(name):
        def record(*args):
            calls.append(name)
            raise AssertionError(f"realize called {name}")

        return record

    for target in ("birmap.compose", "polyrat.substitute", "polyrat.normalize", "polyrat._ip_gcd"):
        monkeypatch.setattr(f"logcy2.{target}", spy(target))
    assert realize(w) == expected and str(realize(w)) == str(expected)
    assert realize(one_letter) == first
    assert realize(Word()) is IDENTITY_MAP
    assert calls == []


def test_compose_pulls_back_any_outer_map_as_substitution_would(srng):
    # Outer maps whose sides have integer contents other than 1, and a
    # constant coordinate too: x2 is (x / 2 - 1 / 3) / (3 y + x y).
    x2 = normalize(Poly2({(1, 0): 3, (0, 0): -2}), Poly2({(0, 1): 18, (1, 1): 6}))
    maps = [realize(parse_word(t)) for t in ("r1", "P", "E^-2*E[1,1]")]
    maps += [BirationalMap(x2, normalize(Poly2.const(5), Poly2.const(7))), BirationalMap(normalize(Poly2.zero(), ONE), x2)]
    for m in maps:
        for w in [random_word(srng, 3) for _ in range(6)] + [Word()]:
            got, want = compose(m, realize(w)), substituted(m, realize(w))
            assert got == want and str(got) == str(want), str(w)
    assert compose(maps[0], realize(Word())) == maps[0]


def test_equal_trivial_and_pentagon():
    assert equal(parse_word("E * E^-1"), Word())
    assert equal(parse_word("P^5"), Word())
    for k in range(1, 5):
        assert not equal(parse_word(f"P^{k}"), Word())


RELATORS = [
    parse_word(text)
    for text in ("P^5", "r1^2", "r2^2", "r3^2", "A[-1,0;0,1] * E * A[-1,0;0,1] * (A[1,1;0,1] * E)^-1")
]


def _insert(w: Word, relator: Word, i: int) -> Word:
    return Word(w.letters[:i]) * relator * Word(w.letters[i:])


def test_equal_agrees_with_full_realization(srng):
    ends_in_e_inverse = [parse_word("E^-1"), parse_word("E[1,0] * A[1,1;0,1] * E^-1"), parse_word("P^2 * E^-1")]
    pairs = [(w, w * E) for w in ends_in_e_inverse]
    for _ in range(10):
        w = random_word(srng, 4)
        pairs.append((w, random_word(srng, 4)))
        pairs.append((w, w * E))
    for relator in RELATORS * 2:
        w = random_word(srng, 4)
        inserted = _insert(w, relator, srng.randint(0, len(w)))
        assert equal(w, inserted)
        pairs.append((w, inserted))
    for w1, w2 in pairs:
        expected = realize(w1) == realize(w2)
        assert equal(w1, w2) == equal(w2, w1) == expected
    for w in ends_in_e_inverse:
        assert len(w * E) == len(w) - 1


def test_equal_cancels_shared_ends(srng):
    # Realizing u a v in full is out of reach for some samples, so the
    # reference is the homomorphism itself: u a v = u b v iff a = b.
    for _ in range(20):
        u, v = random_word(srng, 3), random_word(srng, 3)
        a = random_word(srng, 3)
        b = a if srng.random() < 0.3 else random_word(srng, 3)
        assert equal(u * a * v, u * b * v) == (realize(a) == realize(b))


def test_equal_realizes_only_the_differing_middle(monkeypatch):
    w = parse_word("P^5*E^3*A[1,1;0,1]*E[1,0]^2*E[-1,2]")
    assert len(w) == 17
    realize.cache_clear()
    lengths = []

    def spy(word):
        lengths.append(len(word))
        return realize(word)

    monkeypatch.setattr("logcy2.birmap.realize", spy)
    assert equal(w, w)
    assert lengths == []
    assert not equal(w, w * E)  # common prefix: id against E
    assert not equal(E * w, w)  # E cancels w's leading E^-1; common suffix: id against E^-1
    assert sorted(lengths) == [0, 0, 1, 1]
    assert realize.cache_info().currsize == 3
    # Nothing cancels between unrelated words, so each middle is its whole
    # word and hits that word's cache entry: asked twice, each is realized once.
    u, v = parse_word("E*A[0,-1;1,0]"), parse_word("E[1,0]^2")
    before = realize.cache_info()
    assert not equal(u, v) and not equal(u, v)
    after = realize.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 2)
    assert realize.cache_info().currsize == 5


def test_oracle_soundness(srng):
    for _ in range(20):
        w1, w2 = random_word(srng, 2), random_word(srng, 2)
        assert equal(w1 * w2.inverse(), Word()) == equal(w1, w2)


def test_realize_is_homomorphism(srng):
    for _ in range(15):
        w1, w2 = random_word(srng, 2), random_word(srng, 2)
        assert realize(w1 * w2) == substituted(realize(w1), realize(w2))


def test_compose_takes_a_map_without_steps_only_as_outer():
    outer, inner = realize(parse_word("r1")), realize(parse_word("r3"))
    with pytest.raises(ValueError, match="polyrat.substitute"):
        compose(outer, coordinates_only(inner))
    got = compose(coordinates_only(outer), inner)
    assert got == substituted(outer, inner) and str(got) == str(substituted(outer, inner))
    assert got.steps is None
    # r1 after r3 has one text on both routes: compose pulls r1 back through
    # r3's steps, and substitute, once per coordinate, runs the one-term
    # product path.
    text = ("((x^4 + 4*x^3*y + 6*x^2*y^2 + 4*x*y^3 + y^4 + 2*x^2*y + 4*x*y^2 + 2*y^3 + y^2)"
            " / (x^3 + 2*x^2*y + x*y^2), (y) / (x^2 + 2*x*y + y^2))")
    assert str(compose(outer, inner)) == text and str(substituted(outer, inner)) == text


def test_compose_is_safe_across_threads():
    # Threads compose realized maps at once, with a thread switch every
    # microsecond; no call may see another call's inner map.
    maps = [realize(parse_word(t)) for t in ("r1", "r2", "r3", "E", "P", "r1*r2")]
    expected = {(a, b): compose(outer, inner) for a, outer in enumerate(maps) for b, inner in enumerate(maps)}
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(250):
            a, b = rng.randrange(len(maps)), rng.randrange(len(maps))
            if compose(maps[a], maps[b]) != expected[a, b]:
                wrong.append((a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_compose_pulls_back_through_steps_as_substitution_would():
    # The 93 alternating r1/r2/r3 words up to depth 5, each extended on the right.
    refl = [realize(parse_word(f"r{i}")) for i in (1, 2, 3)]
    maps, level = {"": IDENTITY_MAP}, [""]
    for _ in range(5):
        level = [key + i for key in level for i in "123" if not key.endswith(i)]
        for key in level:
            outer, inner = maps[key[:-1]], refl[int(key[-1]) - 1]
            maps[key] = m = compose(outer, inner)
            assert str(m) == str(substituted(outer, inner)), key
            assert m.steps == outer.steps + inner.steps, key
            assert m == realize(parse_word("*".join(f"r{i}" for i in key))), key
    assert len(maps) == 94


def test_compose_of_realized_maps_takes_no_substitution_or_gcd(monkeypatch):
    outer, inner = realize(parse_word("r1*r2")), realize(parse_word(MACRO_17))
    expected = substituted(outer, inner)

    def refuse(*args):
        raise AssertionError("compose substituted or took a gcd")

    for target in ("polyrat.substitute", "polyrat.normalize", "polyrat._ip_gcd"):
        monkeypatch.setattr(f"logcy2.{target}", refuse)
    got = compose(outer, inner)
    assert got == expected and str(got) == str(expected)
    assert compose(coordinates_only(outer), inner) == expected
    assert compose(coordinates_only(outer), inner).steps is None


def test_steps_stay_out_of_equality_and_hash():
    m = realize(parse_word("r1*E"))
    plain = coordinates_only(m)
    assert m.steps and plain.steps is None
    assert m == plain and hash(m) == hash(plain) and repr(m) == repr(plain)
    assert IDENTITY_MAP.steps == ()


def multiplied_rows(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """Each row the E-step multiplies by a power of 1 + x, with that power, as ``_times_one_plus_x`` gets it."""
    rows = []
    times = polyrat._times_one_plus_x
    monkeypatch.setattr(polyrat, "_times_one_plus_x", lambda b, t: rows.append((tuple(b), t)) or times(b, t))
    return rows


def test_term_budget_stops_realize_and_compose_before_building(monkeypatch):
    monkeypatch.setattr("logcy2.polyrat.TERM_BUDGET", 50)
    rows = multiplied_rows(monkeypatch)
    realize.cache_clear()
    # The spy sees the one row that gets a positive power under this budget:
    # y's denominator 1, times (1 + x)^49; x's rows and y's own get (1 + x)^0.
    assert realize(E**49).g == normalize(Y, (ONE + X) ** 49)
    assert rows == [((1,), 49)]
    half = realize(E**25)
    rows.clear()
    with pytest.raises(TermBudgetError, match="E\\^50 would build 51 terms"):
        realize(E**50)
    with pytest.raises(TermBudgetError):
        compose(half, half)
    # No row gets a positive power of 1 + x before either raise.
    assert rows == []
    realize.cache_clear()


def test_compose_convolves_a_shared_denominator_once_per_e_step(monkeypatch):
    # r3*r1 has one denominator for both coordinates, and r3 takes one E-step.
    # There y's numerator rows get (1 + x)^0, so each row y's pass would
    # multiply alone is a denominator row, and in compose x's pass has
    # multiplied it already: the denominator is convolved once, not twice.
    outer, inner = realize(parse_word("r3*r1")), realize(parse_word("r3"))
    assert outer.f.den == outer.g.den and sum(isinstance(step, int) for step in inner.steps) == 1
    rows = multiplied_rows(monkeypatch)
    got = compose(outer, inner)
    joint = Counter(rows)
    rows.clear()
    f = pull_one(outer.f, inner.steps)
    alone_f = Counter(rows)
    rows.clear()
    g = pull_one(outer.g, inner.steps)
    alone_g = Counter(rows)
    assert (got.f, got.g) == (f, g) and got.g.den is got.f.den
    assert alone_g and alone_g <= alone_f
    assert joint == alone_f


@pytest.mark.parametrize("word", ["E^4000*A[1,1;0,1]*E^-1", "E^-4000*A[1,1;0,1]*E"])
def test_elementary_step_counts_only_valuations_that_can_matter(monkeypatch, word):
    # The last E^+-1 step meets rows of up to 4001 terms; k starts at 1 there,
    # the least len(R_j) - 1 - e j, so the one row that can lower it is summed
    # once, and no row is divided by 1 + x twice.
    sums = running_sums(monkeypatch)
    realize.cache_clear()
    realize(parse_word(word))
    realize.cache_clear()
    assert sums == [4001]


def test_conjugation_identity_holds_as_stated():
    lhs = parse_word("A[-1,0;0,1] * E * A[-1,0;0,1]")
    rhs = parse_word("A[1,1;0,1] * E")
    assert equal(lhs, rhs)


def test_volume_character_examples():
    assert volume_character(parse_word("E")) == 1
    assert volume_character(parse_word("A[-1,0;0,1]")) == -1
    assert volume_character(Word()) == 1


@pytest.mark.parametrize(
    "f, g, expected",
    [
        (X * X, Y, "is 2"),
        (X + ONE, Y, "is non-constant"),
        (Y, X, -1),
        (X * Y, Y, 1),
    ],
)
def test_volume_character_of_a_given_map(monkeypatch, f, g, expected):
    # Words only realize to volume-preserving maps, so the error path is
    # reached by standing in another map for the realization.
    m = BirationalMap(RatFunc2.from_poly(f), RatFunc2.from_poly(g))
    monkeypatch.setattr("logcy2.birmap.realize", lambda w: m)
    w = parse_word("E")
    if isinstance(expected, int):
        assert volume_character(w) == expected
    else:
        with pytest.raises(AssertionError, match=f"character of E {expected}$"):
            volume_character(w)


def test_volume_character_multiplicative(srng):
    for _ in range(25):
        w = random_word(srng, 6)
        assert volume_character(w) == character_from_letters(w)
        # Letters join w2 only while w * w2 stays under the sampler's degree
        # cap: two capped words can multiply to a degree in the hundreds,
        # whose realization took most of a minute.
        w2 = Word()
        for _ in range(srng.randint(0, 2)):
            longer = w2 * Word((random_letter(srng),))
            if realized_degree(w * longer) > DEGREE_CAP:
                break
            w2 = longer
        assert volume_character(w * w2) == volume_character(w) * volume_character(w2)


def test_elementary_realization_complement_independent(srng):
    # Any complement (n2, -n1; c, d) of n conjugates E to the same map.
    for _ in range(25):
        n = random_primitive(srng, 4)
        cc, dd = complement_matrix(n)[1]
        k = srng.randint(-3, 3)
        alt = ((n[1], -n[0]), (cc + k * n[1], dd - k * n[0]))
        conjugate = compose(compose(realize(linear(mat_inv(alt))), realize(E)), realize(linear(alt)))
        assert realize(Word(((Elementary(n), 1),))) == conjugate


# --- tropicalization -------------------------------------------------------------


def test_tropicalize_elementary():
    t = tropicalize(parse_word("E"))
    assert pl_apply(t, (-1, 0)) == (-1, 1)
    assert pl_apply(t, (0, 1)) == (0, 1)


def test_tropicalize_matches_manual_composition():
    w = parse_word("A[0,-1;1,0] * E")
    t = tropicalize(w)
    manual = pl_compose(tropicalize(parse_word("A[0,-1;1,0]")), pl_elementary())
    assert t == manual
    # spot-check three vectors against the exact boundary computation
    for n in ((1, 0), (-2, 1), (0, -1)):
        assert pl_apply(t, n) == boundary_limit(w, n).ray


def test_tropicalize_functorial(srng):
    for _ in range(25):
        w1, w2 = random_word(srng, 2), random_word(srng, 2)
        combined = tropicalize(w1 * w2)
        composed = pl_compose(tropicalize(w1), tropicalize(w2))
        for _ in range(10):
            v = (srng.randint(-9, 9), srng.randint(-9, 9))
            assert pl_apply(combined, v) == pl_apply(composed, v)


def test_tropicalize_linear_is_ray_action():
    t = tropicalize(parse_word("A[1,1;0,1]"))
    # (x,y) -> (x y, y): rays move by the transpose of the literal
    assert t == PLMap.linear(((1, 0), (1, 1)))


def test_tropicalization_is_bijection_on_lattice(srng):
    w = parse_word("E[1,0] * A[1,1;0,1] * E^-1 * A[0,-1;1,0]")
    forward = tropicalize(w)
    backward = tropicalize(w.inverse())
    for _ in range(100):
        v = (srng.randint(-25, 25), srng.randint(-25, 25))
        assert pl_apply(backward, pl_apply(forward, v)) == v


def test_tropical_image_matches_composite_map(srng):
    words = [Word(), parse_word("A[0,1;1,0]")]
    words += [Word(tuple(random_letter(srng) for _ in range(srng.randint(1, 12)))) for _ in range(30)]
    for w in words:
        trop = tropicalize(w)
        vectors = [(0, 0), (2, -4), (-7, 2)]
        vectors += [(srng.randint(-9, 9), srng.randint(-9, 9)) for _ in range(10)]
        for v in vectors:
            assert tropical_image(w, v) == pl_apply(trop, v)


def test_ray_image_is_the_letter_tropicalization(srng):
    flip = ((0, 1), (1, 0))
    for i in range(300):
        bound = 10**30 if i % 3 == 2 else 50
        kind = i % 4
        if kind == 0:
            gen = Linear(mat_mul(random_unimodular(srng), flip))  # det -1
        elif kind == 1:
            gen = Linear(mat_mul(((1, srng.randint(-bound, bound)), (0, 1)), random_unimodular(srng)))
        else:
            gen = Elementary(random_primitive(srng, bound))
        letter = (gen, srng.choice([1, -1]))
        trop = letter_trop(letter)
        n = gen.n if isinstance(gen, Elementary) else random_primitive(srng, bound)
        vectors = [(0, 0), (2 * n[0], -2 * n[1]), (3, 6), (n[0] - n[1], n[1] + n[0]), (n[0] + n[1], n[1] - n[0])]
        vectors += [(k * n[0], k * n[1]) for k in range(-5, 6)]
        vectors += [(srng.randint(-bound, bound), srng.randint(-bound, bound)) for _ in range(10)]
        for v in vectors:
            assert ray_image(letter, v) == pl_apply(trop, v), (letter, v)


# --- caches -----------------------------------------------------------------------


def test_word_caches_are_bounded():
    for cached in (realize, _letter_steps, letter_trop):
        assert cached.cache_info().maxsize == CACHE_SIZE
    assert tropicalize.cache_info().maxsize == 0
    k = math.isqrt(CACHE_SIZE) + 2  # k * k distinct two-letter words
    for a in range(k):
        for b in range(k):
            realize(parse_word(f"A[1,{a};0,1] * A[1,0;{b},1]"))
    assert realize.cache_info().currsize == CACHE_SIZE


# --- boundary limits --------------------------------------------------------------


def test_boundary_limit_identity(srng):
    for _ in range(10):
        n = random_primitive(srng, 5)
        act = boundary_limit(Word(), n)
        assert act.ray == n
        assert act.coeff == 1 and act.exponent == 1


def test_boundary_limit_elementary_fixed_ray():
    act = boundary_limit(parse_word("E"), (0, 1))
    assert act.ray == (0, 1)
    assert act.apply(Fraction(-1)) == -1


def test_boundary_limit_elementary_moved_ray():
    act = boundary_limit(parse_word("E"), (-1, 0))
    assert act.ray == (-1, 1)
    assert act.apply(Fraction(-1)) == -1


def test_boundary_limit_matches_tropicalization(srng):
    for _ in range(25):
        w = random_word(srng, 3)
        n = random_primitive(srng, 3)
        assert boundary_limit(w, n).ray == pl_apply(tropicalize(w), n)


def test_boundary_limit_builds_no_pl_map(monkeypatch):
    # The check against the tropicalization moves the one ray letter by letter.
    pool = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data" / "words.json").read_text())
    queries = [(parse_word(item["word"]), tuple(n)) for item in pool[::20] + pool[-1:] for n in item["rays"]]
    expected = [pl_apply(tropicalize(w), n) for w, n in queries]

    def refuse(*args):
        raise AssertionError("boundary_limit built a PL map")

    for target in ("birmap.tropicalize", "birmap.pl_compose", "lattice.pl_compose"):
        monkeypatch.setattr(f"logcy2.{target}", refuse)
    assert [boundary_limit(w, n).ray for w, n in queries] == expected


# The word of ``test_pl_data_do_not_decide_equality``, whose tropicalization
# and boundary actions are those of the identity.
PL_IDENTITY_WORD = "E[1,0]^-1*E^-1*E[1,0]*E^-1*A[1,-1;0,1]*E[1,0]^-1*E*E[1,0]*A[1,-1;0,1]^-1*E"


def reference_action(w: Word, n) -> tuple:
    """(ray, coefficient, exponent) of w at n, read off ``realize(w)`` on the boundary arc by the sympy reference."""
    # x = lam^p t^n1, y = lam^q t^n2 with p n2 - q n1 = 1; on the image ray
    # (a, b), the boundary coordinate is x'^b y'^-a at leading order.
    cc, dd = complement_matrix(n)[1]
    m = realize(w)
    ray, action = arc_limit(m.f, m.g, ((dd, n[0]), (-cc, n[1])))
    assert action is not None, f"the action of {w} at {n} is not a monomial"
    return (ray, *action)


def test_boundary_limit_matches_the_sympy_reference(srng):
    pool = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data" / "words.json").read_text())
    queries = [(parse_word(item["word"]), tuple(n)) for item in srng.sample(pool, 300) for n in item["rays"]]
    queries += [(random_word(srng, 12), random_primitive(srng, 9)) for _ in range(300)]
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (2, -3), (-5, 7)]
    for text in ("A[2,1;1,1]^12", "E^300", "A[1,0;0,-1]*E^20*A[1,0;0,-1]*E^-19", "(r1*r2*r3)^2", PL_IDENTITY_WORD):
        queries += [(parse_word(text), n) for n in rays]
    for w, n in queries:
        act = boundary_limit(w, n)
        assert (act.ray, act.coeff, act.exponent) == reference_action(w, n), (str(w), n)


def test_boundary_limit_answers_past_the_term_budget(monkeypatch):
    # The action is read off the letters, so a word whose realization
    # exceeds ``polyrat.TERM_BUDGET`` still has one, and nothing is realized.
    w = parse_word("(r1*r2*r3)^4")
    with pytest.raises(TermBudgetError):
        realize(w)

    def refuse(*args):
        raise AssertionError("boundary_limit realized the word")

    for target in ("birmap.realize", "birmap.pullback", "polyrat.pullback"):
        monkeypatch.setattr(f"logcy2.{target}", refuse)
    act = boundary_limit(w, (1, 0))
    assert (act.ray, act.coeff, act.exponent) == ((-89, -34), 1, 1)


def test_library_takes_no_gcd(monkeypatch, cli_env, srng):
    # ``pullback`` keeps every fraction reduced by construction, so no library
    # path needs a gcd, an exact division or a substitution: not the CLI's
    # demo and check, not the reflection composes, not the word queries.
    calls = []

    def spy(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for target in ("_ip_gcd", "_ip_divexact", "substitute"):
        monkeypatch.setattr(polyrat, target, spy(target, getattr(polyrat, target)))
    realize.cache_clear()
    tropicalize.cache_clear()
    for argv in (["demo", "cubic"], ["verify", "relations"]):
        assert run_cli(argv).exit == 0
    refl = [realize(parse_word(f"r{i}")) for i in (1, 2, 3)]
    maps, level = {"": IDENTITY_MAP}, [""]
    for _ in range(5):
        level = [key + i for key in level for i in "123" if not key.endswith(i)]
        for key in level:
            maps[key] = compose(maps[key[:-1]], refl[int(key[-1]) - 1])
    assert len(maps) == 94
    pool = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data" / "words.json").read_text())
    for item in srng.sample(pool, 60):
        w, rays = parse_word(item["word"]), [tuple(n) for n in item["rays"]]
        realize(w)
        volume_character(w)
        trop = tropicalize(w)
        assert [boundary_limit(w, n).ray for n in rays] == [pl_apply(trop, n) for n in rays]
        assert equal(w, parse_word(item["equal_partner"]))
        assert not equal(w, parse_word(item["unequal_partner"]))
    assert calls == []


def test_library_maps_have_primitive_sides_and_a_denominator_leading_1(srng):
    # Monomial relabelling, products by (1 + x)^t and exact quotients by
    # 1 + x keep each side primitive (Gauss's lemma), and from x / 1 and
    # y / 1 they keep every grlex-leading coefficient at +-1.  So no library
    # map has a content to print, and the canonical form prints each one as
    # a form with a monic denominator would.
    pool = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data" / "words.json").read_text())
    texts = [item[part] for item in srng.sample(pool, 120) for part in ("word", "equal_partner", "unequal_partner")]
    maps = [realize(parse_word(t)) for t in texts] + [realize(random_word(srng, 12)) for _ in range(300)]
    refl = [realize(parse_word(f"r{i}")) for i in (1, 2, 3)]
    composed, level = {"": IDENTITY_MAP}, [""]
    for _ in range(5):
        level = [key + i for key in level for i in "123" if not key.endswith(i)]
        for key in level:
            composed[key] = compose(composed[key[:-1]], refl[int(key[-1]) - 1])
    assert len(composed) == 94
    maps += list(composed.values())
    for m in maps:
        for r in (m.f, m.g):
            for side in (r.num.terms, r.den.terms):
                assert all(type(c) is int for c in side.values()) and math.gcd(*side.values()) == 1, str(m)
            assert r.den.terms[max(r.den.terms, key=lambda t: (t[0] + t[1], t[0]))] == 1, str(m)


def test_pl_data_do_not_decide_equality():
    # The tropicalization and the boundary actions of this word are those of
    # the identity, yet the map is not: equal may not answer true from them.
    w = parse_word(PL_IDENTITY_WORD)
    assert tropicalize(w) == PLMap.identity()
    rays = [(a, b) for a in range(-5, 6) for b in range(-5, 6) if math.gcd(a, b) == 1]
    assert len(rays) == 80
    for n in rays:
        act = boundary_limit(w, n)
        assert (act.ray, act.coeff, act.exponent) == (n, 1, 1)
    m = realize(w)
    assert (evaluate(m.f, (1, 1)), evaluate(m.g, (1, 1))) == (Fraction(3014, 3071), Fraction(415, 407))
    assert not equal(w, Word())


def test_generators_fix_distinguished_points(srng):
    gens = [
        parse_word("E"),
        parse_word("E^-1"),
        parse_word("E[1,0]"),
        parse_word("E[0,-1]"),
        parse_word("E[1,-1]"),
        parse_word("A[0,-1;1,0]"),
        parse_word("A[-1,0;0,1]"),
        parse_word("A[1,1;0,1]"),
    ]
    rays = [random_primitive(srng, 4) for _ in range(20)]
    for g in gens:
        for n in rays:
            assert boundary_limit(g, n).fixes_distinguished_point()
