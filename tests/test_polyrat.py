import heapq
import math
import types
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logcy2 import polyrat
from logcy2.birmap import realize
from logcy2.polyrat import (
    InexactDivisionError,
    PoleAtPointError,
    Poly2,
    PolyParseError,
    RatFunc2,
    ZeroDenominatorError,
    arc_limit,
    dlog_ratio,
    evaluate,
    format_poly,
    format_ratfunc,
    normalize,
    parse_poly,
    parse_ratfunc,
    partial_derivative,
    poly_divexact,
    poly_gcd,
    pullback,
    substitute,
)
from logcy2.sampling import random_word
from logcy2.words import parse_word

X, Y, ONE = Poly2.x(), Poly2.y(), Poly2.const(1)


def rf(num, den=ONE):
    return normalize(num, den)


def random_poly(rng, deg=3, terms=4):
    d = {}
    for _ in range(terms):
        d[(rng.randint(0, deg), rng.randint(0, deg))] = Fraction(
            rng.randint(-6, 6), rng.randint(1, 3)
        )
    return Poly2(d)


# --- representation: content times primitive integer terms --------------------


def is_canonical(p: Poly2) -> bool:
    """Primitive int terms, positive grlex-leading coefficient, content an int when integral, 0 only for zero."""
    if not p.terms:
        return p.content == 0 and type(p.content) is int
    return (all(type(c) is int for c in p.terms.values())
            and math.gcd(*p.terms.values()) == 1
            and p.terms[max(p.terms, key=lambda t: (t[0] + t[1], t[0]))] > 0
            and p.content != 0
            and type(p.content) is (int if p.content.denominator == 1 else Fraction))


def test_every_result_is_content_times_primitive_terms(srng):
    half = Poly2.const(Fraction(1, 2))
    h = X.scale(Fraction(1, 2)) + Y.scale(Fraction(3, 2))
    r = normalize(h, X.scale(Fraction(1, 3)))
    f = normalize(h * Poly2.const(2), ONE + Y)
    pulled = pullback(r, [1, ((0, 1), (1, 0)), -2])
    flipped = pullback(rf(X - Y, ONE + X), [((0, 1), (1, 0))])  # x - y becomes y - x
    results = [
        h * Poly2.const(2), half * half * Poly2.const(4), h**2 * Poly2.const(4), h**0,
        h + h, h - half, h.scale(2), (h * X).derivative("x"),
        r.num, r.den, f.num, f.den,
        substitute(f, r, f).num, substitute(f, r, f).den,
        parse_poly("(4/2)*x + (1/2)*y + (-6/3)"), parse_poly("(-3/4)*x^2 + (9/2)*y"),
        poly_gcd(h * X, h * Y), poly_divexact(h * (X - Y), X - Y), -h, -(X + ONE),
        pulled.num, pulled.den, flipped.num, flipped.den,
        Poly2.zero(), h - h, X.scale(0), h * Poly2.zero(), Poly2.zero() ** 2,
    ]
    for _ in range(20):
        n, d = random_poly(srng), random_poly(srng)
        if d.is_zero():
            continue
        r = normalize(n, d)
        results += [n * d, n**3, r.num, r.den, substitute(r, r, r).num, substitute(r, r, r).den]
    assert results[0].terms == {(1, 0): 1, (0, 1): 3}
    assert all(is_canonical(p) for p in results)


def test_public_values_are_fractions():
    assert type((X + ONE).leading_term()[1]) is Fraction
    assert type(Poly2.const(3).constant_value()) is Fraction
    assert type(Poly2.zero().constant_value()) is Fraction
    assert type(RatFunc2.const(3).constant_value()) is Fraction
    assert type(evaluate(rf(X), (2, 3))) is Fraction


def test_integral_fraction_equals_int_coefficient():
    p = Poly2({(0, 0): Fraction(2)})
    assert p == Poly2.const(2) and hash(p) == hash(Poly2.const(2))
    q = X.scale(Fraction(1, 2)).scale(4)  # content 1/2 times 4, an integral Fraction
    assert q == X.scale(2) and hash(q) == hash(X.scale(2)) and type(q.content) is int
    assert X.scale(2) != X
    assert p.terms == {(0, 0): 1}


# --- normalize -----------------------------------------------------------------


def test_normalize_cancels_common_factor():
    r = normalize((ONE + X) ** 2 * Y, (ONE + X) * X)
    assert r == rf((ONE + X) * Y, X)
    assert str(r) == "(x*y + y) / (x)"


def test_normalize_already_reduced():
    assert normalize(X, ONE) == RatFunc2(X, ONE)


def test_normalize_scaling():
    assert normalize(X.scale(2), Poly2.const(2)) == RatFunc2(X, ONE)


def test_normalize_monic_denominator():
    r = normalize(Y, X.scale(3) + ONE)
    lead_coeff = r.den.leading_term()[1]
    assert lead_coeff == 1


def test_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        normalize(X, Poly2.zero())


def test_normalize_idempotent(srng):
    for _ in range(30):
        n, d = random_poly(srng), random_poly(srng)
        if d.is_zero():
            continue
        r = normalize(n, d)
        again = normalize(r.num, r.den)
        assert again == r


def test_equality_matches_cross_multiplication(srng):
    for _ in range(30):
        n1, d1 = random_poly(srng), random_poly(srng)
        n2, d2 = random_poly(srng), random_poly(srng)
        if d1.is_zero() or d2.is_zero():
            continue
        r1, r2 = normalize(n1, d1), normalize(n2, d2)
        assert (r1 == r2) == (n1 * d2 == n2 * d1)


# --- gcd and division ----------------------------------------------------------


def test_gcd_of_built_product():
    a = (ONE + X) ** 3 * (X + Y) ** 2 * Y
    b = (ONE + X) * (X + Y) ** 4 * X
    assert poly_gcd(a, b) == (ONE + X) * (X + Y) ** 2


def test_divexact_roundtrip(srng):
    for _ in range(20):
        p, q = random_poly(srng, 2, 3), random_poly(srng, 2, 3)
        if p.is_zero() or q.is_zero():
            continue
        assert poly_divexact(p * q, q) == p


def test_gcd_settles_tall_coprime_pair():
    # Heights of thousands of digits: GCDHEU, which takes every pair without
    # a monomial side, must find the gcd 1 there.
    tall = 3**20000
    h = Poly2({(1, 1): 1, (1, 0): tall, (0, 0): 1})
    p = h * Poly2({(1, 0): 1, (0, 1): 2, (0, 0): 3})
    q = (h + ONE) * Poly2({(1, 0): 2, (0, 1): 1, (0, 0): 5})
    assert poly_gcd(p, q) == ONE


def test_gcd_cofactors_take_no_second_division(monkeypatch):
    # GCDHEU's proving divisions are the cofactors, and a monomial side
    # gives them by exponent shifts with no division at all.
    calls = []
    divexact = polyrat._ip_divexact
    monkeypatch.setattr(polyrat, "_ip_divexact", lambda p, d: calls.append(1) or divexact(p, d))
    h = X + Y**2
    heuristic = normalize(h * (X + ONE), h * (X - ONE))
    assert len(calls) == 5
    calls.clear()
    monomial = normalize(X**3 * Y**2, X * Y + X**2 * Y.scale(3))
    assert calls == []
    assert heuristic == parse_ratfunc("(x + 1) / (x + (-1))")
    assert monomial == parse_ratfunc("((1/3)*x^2*y) / (x + (1/3))")


def test_monomial_gcd_route_keeps_huge_degrees_off_gcdheu(monkeypatch):
    # GCDHEU's images run Horner's rule over every degree of the evaluated
    # variable, and realized monomial maps reach degrees near 10^12, so a
    # monomial side must never get there.
    m = realize(parse_word("A[2,1;1,1]^30"))

    def refuse(p, q):
        raise AssertionError("GCDHEU on a monomial side")

    monkeypatch.setattr(polyrat, "_heugcd", refuse)
    assert str(m.f + RatFunc2.x()) == "x^2504730781961*y^1548008755920 + x"
    assert str(normalize(Poly2.monomial(10**12, 1), Y + ONE)) == "(x^1000000000000*y) / (y + 1)"


def test_divexact_rejects_inexact_division():
    with pytest.raises(InexactDivisionError):
        poly_divexact(X + ONE, X)
    with pytest.raises(InexactDivisionError):
        poly_divexact(ONE, X)


def test_divexact_rejects_a_wrong_lowest_term_before_the_heap(monkeypatch):
    # The grlex-lowest term of p is that of d times that of p / d, so a
    # divisor whose lowest term does not divide p's raises with no term taken
    # off the heap: 3 does not divide 1, and neither x nor y divides 1.
    pops = []
    monkeypatch.setattr(polyrat, "heapq", types.SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush, heappop=lambda h: pops.append(1) or heapq.heappop(h)))
    p = ((X + ONE) ** 6).terms
    for d in (X + Poly2.const(3), X * X + X, X + Y):
        with pytest.raises(InexactDivisionError):
            polyrat._ip_divexact(p, d.terms)
        assert pops == [], d
    # A divisor that passes the check is still divided out term by term.
    with pytest.raises(InexactDivisionError):
        polyrat._ip_divexact(p, (X * X + ONE).terms)
    assert pops
    pops.clear()
    assert polyrat._ip_divexact(p, (X + ONE).terms) == ((X + ONE) ** 5).terms
    assert len(pops) >= 6


def test_divexact_and_gcd_with_a_zero_side():
    zero = Poly2.zero()
    assert poly_divexact(zero, X + ONE) == zero
    with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
        poly_divexact(X + ONE, zero)
    p = Poly2({(1, 0): 2, (0, 1): 4})
    assert poly_gcd(zero, p) == poly_gcd(p, zero) == X + Y.scale(2)
    assert poly_gcd(zero, zero) == zero


# --- substitute ----------------------------------------------------------------


def test_substitute_composes_elementary_twice():
    e = rf(Y, ONE + X)
    assert substitute(e, rf(X), e) == rf(Y, (ONE + X) ** 2)


def test_substitute_projection():
    f, g = rf(X * Y + ONE), rf(Y, X)
    assert substitute(rf(X), f, g) == f


def test_substitute_monomial():
    assert substitute(rf(X * Y), rf(Y), rf(ONE, X)) == rf(Y, X)


def test_substitute_identically_singular():
    r = rf(ONE, X - Y)
    with pytest.raises(ZeroDenominatorError):
        substitute(r, rf(X), rf(X))


@pytest.mark.parametrize("e", [-1, 1])
@pytest.mark.parametrize("tall_first", [False, True])
def test_elementary_step_stops_counting_once_k_is_fixed(monkeypatch, e, tall_first):
    # Through E^e, (p y^a + (1 + x)^3000 y^b) / (q y^a) with b = a - e is
    # (p y^a + (1 + x)^3001 y^b) / (q y^a).  p and q are nonzero at x = -1,
    # so their rows fix k and the tall row is not divided at all, in
    # whichever order the rows come.
    a, b = max(e, 0), max(-e, 0)
    p, q = (ONE + X**3000) * Y**a, (Poly2.const(2) + X**3000) * Y**a
    tall = {t: Poly2._raw({(i, b): abs(c) for i, c in enumerate(polyrat._binomial_row(t))}, 1) for t in (3000, 3001)}
    found = []
    quotient = polyrat._one_plus_x_quotient
    monkeypatch.setattr(polyrat, "_one_plus_x_quotient", lambda row, cap: found.append(quotient(row, cap)) or found[-1])
    num = tall[3000] + p if tall_first else p + tall[3000]
    assert pullback(rf(num, q), [e]) == rf(p + tall[3001], q)
    assert len(found) == 3 and all(v == 0 for v, _ in found)


# --- derivatives ----------------------------------------------------------------


def test_partial_derivative_quotient_rule():
    r = rf(Y, ONE + X)
    assert partial_derivative(r, "x") == rf(-Y, (ONE + X) ** 2)


def test_partial_derivative_trivial():
    assert partial_derivative(rf(X), "y") == rf(Poly2.zero())
    assert partial_derivative(rf(X * X), "x") == rf(X.scale(2))


def jacobian_dlog_ratio(f: RatFunc2, g: RatFunc2):
    """Reference for dlog_ratio: (x y / (f g)) (f_x g_y - f_y g_x) by the quotient rule."""
    if f.is_zero() or g.is_zero():
        return None
    fx, fy = partial_derivative(f, "x"), partial_derivative(f, "y")
    gx, gy = partial_derivative(g, "x"), partial_derivative(g, "y")
    j = rf(X * Y) / (f * g) * (fx * gy - fy * gx)
    return j.constant_value() if j.is_constant() else None


def test_dlog_ratio_examples():
    assert dlog_ratio(rf(X * X), rf(Y)) == 2
    assert dlog_ratio(rf(X + ONE), rf(Y)) is None
    # -x / (x + y^2): constant along x = t^2, y = t, so colliding keys would show.
    assert dlog_ratio(rf(Y), rf(X + Y * Y)) is None
    assert dlog_ratio(rf(Y), rf(X)) == -1
    assert dlog_ratio(rf(X * Y), rf(Y)) == 1
    assert dlog_ratio(rf(X.scale(3)), rf(ONE, Y.scale(Fraction(1, 2)))) == -1
    assert dlog_ratio(rf(X), rf(Poly2.const(5))) == 0
    assert dlog_ratio(RatFunc2(X * X, X), rf(Y)) == 1  # unreduced input
    assert dlog_ratio(rf(Poly2.zero()), rf(Y)) is None
    with pytest.raises(ZeroDenominatorError):
        dlog_ratio(RatFunc2(X, Poly2.zero()), rf(Y))


def test_dlog_ratio_matches_quotient_rule_jacobian(srng):
    # Fraction coefficients reach the denominator-clearing path.  A map
    # g = c x^a y^b h(f), with f a monomial map, has dlog f ^ dlog g a
    # constant multiple of dlog x ^ dlog y, so constants other than 0 and
    # +-1 come up alongside the generic non-constant case.
    seen = set()
    for _ in range(60):
        if srng.random() < 0.5:
            f = rf(random_poly(srng), random_poly(srng) or ONE)
            g = rf(random_poly(srng), random_poly(srng) or ONE)
        else:
            a, b, c, d = (srng.randint(-2, 2) for _ in range(4))
            f = rf(X ** max(a, 0) * Y ** max(b, 0), X ** max(-a, 0) * Y ** max(-b, 0))
            f = f * rf(Poly2.const(Fraction(srng.randint(1, 5), srng.randint(1, 3))))
            g = rf(X ** max(c, 0) * Y ** max(d, 0), X ** max(-c, 0) * Y ** max(-d, 0))
            h = random_poly(srng, 2, 3)
            if h:
                g = g * substitute(rf(h), f, f)
        got = dlog_ratio(f, g)
        assert got == jacobian_dlog_ratio(f, g), (f, g)
        seen.add("none" if got is None else "unit" if got in (1, -1) else "zero" if got == 0 else "other")
    assert seen == {"none", "unit", "zero", "other"}


HEAVY = "E*E[-2,-1]*E*A[2,1;1,0]^-1*E"  # the heaviest -1 word of the benchmark pool


def test_dlog_routes_agree(srng, monkeypatch):
    # Realized maps give +-1; f (1 + x + y) gives no constant; (f, f) gives 0;
    # (f^2, g) and (g, f^2) give +-2.  dlog_ratio takes each route at least
    # once, and both routes, called directly, give its answer.
    pairs_route, packed_route = polyrat._dlog_pairs, polyrat._dlog_packed
    taken = []
    monkeypatch.setattr(polyrat, "_dlog_pairs", lambda *a: taken.append("pairs") or pairs_route(*a))
    monkeypatch.setattr(polyrat, "_dlog_packed", lambda *a: taken.append("packed") or packed_route(*a))
    words = [random_word(srng, 8) for _ in range(12)] + [parse_word(HEAVY), parse_word("E")]
    seen = set()
    for k, w in enumerate(words):
        m = realize(w)
        f, g = m.f, m.g
        cases = [(f, g), (RatFunc2(f.num * (ONE + X + Y), f.den), g), (f, f)]
        if k < 4 or k == len(words) - 1:
            f2 = RatFunc2(f.num * f.num, f.den * f.den)
            cases += [(f2, g), (g, f2)]
        for a, b in cases:
            want = dlog_ratio(a, b)
            sides = a.num.terms, a.den.terms, b.num.terms, b.den.terms
            assert pairs_route(sides) == want, (w, a, b)
            assert packed_route(sides, *polyrat._packing(sides)[:3]) == want, (w, a, b)
            seen.add(want)
    assert seen >= {None, 0, 1, -1, 2, -2}
    assert {"pairs", "packed"} <= set(taken)


def test_dlog_ratio_packs_dense_sides_only(monkeypatch):
    # Small sides, exponents near 10^12 and sides spread so far that their
    # packed F G would have more than 4 bits a pair keep the pair loop, so
    # packing never builds ints far larger than the loop's work.
    packed = []
    packed_route = polyrat._dlog_packed
    monkeypatch.setattr(polyrat, "_dlog_packed", lambda *a: packed.append(1) or packed_route(*a))
    for text, want, times in ((HEAVY, -1, 1), ("A[-1,0;0,1]", -1, 0), ("E*A[2,1;1,1]^30", 1, 0),
                              ("E*A[5,2;2,1]^3*E*A[1,1;0,1]", 1, 0)):
        m = realize(parse_word(text))
        packed.clear()
        assert dlog_ratio(m.f, m.g) == want
        assert len(packed) == times, text


def test_mixed_partials_commute(srng):
    for _ in range(15):
        n, d = random_poly(srng), random_poly(srng)
        if d.is_zero():
            continue
        r = normalize(n, d)
        xy = partial_derivative(partial_derivative(r, "x"), "y")
        yx = partial_derivative(partial_derivative(r, "y"), "x")
        assert xy == yx


# --- evaluation ------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(rf(Y, ONE + X), (2, 3)) == 1
    assert evaluate(rf(X), (5, 9)) == 5


def test_evaluate_pole():
    with pytest.raises(PoleAtPointError):
        evaluate(rf(ONE, ONE + X), (-1, 0))


def test_evaluation_is_ring_homomorphism(srng):
    for _ in range(20):
        polys = [random_poly(srng, 2, 3) for _ in range(4)]
        if any(p.is_zero() for p in polys):
            continue
        a, b, c, d = polys
        r1, r2 = normalize(a, b), normalize(c, d)
        pt = (srng.randint(1, 5), srng.randint(1, 5))
        try:
            v1, v2 = evaluate(r1, pt), evaluate(r2, pt)
            assert evaluate(r1 * r2, pt) == v1 * v2
            assert evaluate(r1 + r2, pt) == v1 + v2
        except PoleAtPointError:
            continue


def test_evaluation_respects_substitution(srng):
    e = rf(Y, ONE + X)
    f, g = rf(X * Y), rf(X + Y, X)
    composed = substitute(e, f, g)
    for _ in range(10):
        pt = (Fraction(srng.randint(1, 7)), Fraction(srng.randint(1, 7)))
        try:
            inner = (evaluate(f, pt), evaluate(g, pt))
            assert evaluate(composed, pt) == evaluate(e, inner)
        except PoleAtPointError:
            continue


# --- leading order on an arc ----------------------------------------------------


# On the arc x = lam, y = t (matrix ((1, 0), (0, 1))) with g = y, the ray is
# (0, 1) for an f of t-order 0, and the action reads f's lowest rows in lam.
ARC_X = ((1, 0), (0, 1))


def test_arc_limit_reads_a_monomial_ratio():
    # (-3/2 lam^2 + 3 lam^-1) / (lam^-1 - 2 lam^-4) is -3/2 lam^3; times
    # lam^4 on both sides, and + y keeps the fraction from cancelling.
    f = rf(parse_poly("(-3/2)*x^6 + 3*x^3 + y"), parse_poly("x^3 + (-2) + y"))
    assert arc_limit(f, RatFunc2.y(), ARC_X) == ((0, 1), (Fraction(-3, 2), 3))
    # 5 lam^-2 over 1/3: the contents come in.
    assert arc_limit(rf(Poly2.const(5), X.scale(Fraction(1, 3)) * X), RatFunc2.y(), ARC_X) == ((0, 1), (15, -2))


def test_arc_limit_rejects_a_non_monomial_ratio():
    # (lam + 1) / (lam - 1): same leading terms, different tails.
    assert arc_limit(rf(X + ONE, X - ONE), RatFunc2.y(), ARC_X) == ((0, 1), None)
    # lam^2 + 1 over lam: the leading terms alone would say lam.
    assert arc_limit(rf(X * X + ONE, X), RatFunc2.y(), ARC_X) == ((0, 1), None)


def test_arc_limit_reads_the_orders_from_the_lowest_rows():
    # On the arc x = lam^2 t^-3, y = lam t^-1 (determinant 1), x^5 + y has
    # t-order -15 and row lam^10, and x has t-order -3 and row lam^2;
    # f^-3 x^15 = lam^-30 lam^30.
    assert arc_limit(rf(parse_poly("x^5 + y")), RatFunc2.x(), ((2, -3), (1, -1))) == ((-15, -3), (1, 0))


# --- textual form -----------------------------------------------------------------


def test_format_matches_documented_example():
    p = Poly2({(2, 1): Fraction(-1), (1, 0): Fraction(3)})
    assert format_poly(p) == "(-1)*x^2*y + 3*x"


def test_format_zero_and_constants():
    assert format_poly(Poly2.zero()) == "0"
    assert format_poly(Poly2.const(Fraction(1, 2))) == "(1/2)"
    assert format_poly(ONE + X) == "x + 1"


@pytest.mark.parametrize("text", ["(1/0)*x", "x^y", "x^-1", "(1/-2)*x", "", "x +", "+x", "2x", "x*2", "2*3",
                                  "x y", "x*", "(1/2)x", "x^",
                                  # integers past the int-to-text digit limit
                                  pytest.param("9" * 5000, id="huge-coefficient"),
                                  pytest.param("x^" + "9" * 5000, id="huge-exponent"),
                                  pytest.param("(1/" + "9" * 5000 + ")*x", id="huge-denominator")])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(PolyParseError):
        parse_poly(text)


def test_malformed_factor_is_quoted_by_its_first_40_characters():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x*" + "z" * 100000)
    assert str(err.value) == f"malformed factor {'z' * 40!r}..."
    with pytest.raises(PolyParseError) as err:
        parse_poly("x*" + "z" * 40)
    assert str(err.value) == f"malformed factor {'z' * 40!r}"


def test_parse_ignores_surrounding_whitespace():
    assert parse_poly("x ") == X
    assert parse_poly(" x + 1\t") == X + ONE
    assert parse_ratfunc("(x + 1 ) / (y)") == rf(X + ONE, Y)
    assert parse_poly(" ( - 3 / 4 ) * x ^ 2 * y ") == (X * X * Y).scale(Fraction(-3, 4))


def test_parse_sums_repeated_monomials():
    assert parse_poly("x*y + (1/2)*y*x + 1") == (X * Y).scale(Fraction(3, 2)) + ONE
    assert parse_poly("x + 2*x + (-3)*x^1 + y") == Y
    assert parse_poly("x + (-1)*x").is_zero()


def test_poly_text_roundtrip(srng):
    for _ in range(40):
        p = random_poly(srng)
        assert parse_poly(format_poly(p)) == p


def test_ratfunc_text_roundtrip(srng):
    for _ in range(30):
        n, d = random_poly(srng), random_poly(srng)
        if d.is_zero():
            continue
        r = normalize(n, d)
        assert parse_ratfunc(format_ratfunc(r)) == r


# Negative, integral and Fraction coefficients; an empty or all-zero dict is
# the zero polynomial.
coefficients = st.one_of(st.integers(-50, 50), st.fractions(min_value=-20, max_value=20, max_denominator=12))
polys = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), coefficients, max_size=6).map(Poly2)
constants = coefficients.filter(bool).map(Poly2.const)


@given(polys)
def test_poly_text_roundtrip_property(p):
    text = format_poly(p)
    assert parse_poly(text) == p
    assert (text == "0") == p.is_zero()


@given(polys, st.one_of(constants, polys.filter(bool)))
def test_ratfunc_text_roundtrip_property(n, d):
    r = normalize(n, d)
    assert parse_ratfunc(format_ratfunc(r)) == r
