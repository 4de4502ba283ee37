import itertools
import math
import types
from collections import Counter
from fractions import Fraction

import pytest

from logcy2 import polyrat
from logcy2.birmap import realize
from logcy2.polyrat import (
    InexactDivisionError,
    PoleAtPointError,
    Poly2,
    RatFunc2,
    TermBudgetError,
    ZeroDenominatorError,
    dlog_ratio,
    evaluate,
    format_poly,
    normalize,
    poly_divexact,
    poly_gcd,
    pullback,
    substitute,
)
from logcy2.sampling import random_word
from logcy2.words import parse_word

X, Y, ONE, NEG = Poly2.x(), Poly2.y(), Poly2.const(1), Poly2.const(-1)


def rf(num, den=ONE):
    return normalize(num, den)


def cleared(coeffs: dict) -> tuple[Poly2, int]:
    """Rational coefficients as (N, m): N in Z[x, y] and an int m > 0 with N / m the polynomial they give."""
    m = math.lcm(*(Fraction(c).denominator for c in coeffs.values()))
    return Poly2({t: int(Fraction(c) * m) for t, c in coeffs.items()}), m


def sides(p: tuple[Poly2, int], q: tuple[Poly2, int]) -> tuple[Poly2, Poly2]:
    """Integer sides of p / q for two polynomials given as ``cleared`` gives them."""
    (n, a), (d, b) = p, q
    return n * Poly2.const(b), d * Poly2.const(a)


def qf(num: dict, den: dict | None = None) -> RatFunc2:
    """num / den, 1 by default, for two dicts of rational coefficients, as a canonical fraction."""
    return normalize(*sides(cleared(num), cleared(den or {(0, 0): 1})))


def pull_one(r: RatFunc2, steps) -> RatFunc2:
    """r alone through ``pullback``: the per-coordinate pullback, which shares no rows, and the reference for a map's."""
    [pulled] = pullback((r,), steps)
    return pulled


def random_poly(rng, deg=3, terms=4) -> tuple[Poly2, int]:
    """A random polynomial with rational coefficients, as ``cleared`` gives it."""
    d = {}
    for _ in range(terms):
        d[(rng.randint(0, deg), rng.randint(0, deg))] = Fraction(
            rng.randint(-6, 6), rng.randint(1, 3)
        )
    return cleared(d)


def random_sides(rng, deg=3, terms=4) -> tuple[Poly2, Poly2]:
    """Integer sides of n / d for two polynomials drawn by ``random_poly``, d read as 1 when it is 0."""
    n, d = random_poly(rng, deg, terms), random_poly(rng, deg, terms)
    return sides(n, d) if d[0] else sides(n, (ONE, 1))


# --- representation: integer terms, and fractions with no common factor ---------


def grlex_lead(p: dict) -> int:
    return p[max(p, key=lambda t: (t[0] + t[1], t[0]))]


def is_canonical(r: RatFunc2) -> bool:
    """Nonzero int coefficients, no common factor, integer content included, and a denominator leading positive in grlex."""
    n, d = r.num.terms, r.den.terms
    return (all(type(c) is int and c for c in [*n.values(), *d.values()])
            and math.gcd(*n.values(), *d.values()) == 1
            and grlex_lead(d) > 0
            and poly_gcd(r.num, r.den) == ONE)


def test_every_result_has_int_terms_and_reduced_fractions(srng):
    h = X + Y * Poly2.const(3)  # 2 (x/2 + 3y/2)
    r = qf({(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)}, {(1, 0): Fraction(1, 3)})
    f = normalize(h, ONE + Y)
    pulled = pull_one(r, [1, ((0, 1), (1, 0)), -2])
    flipped = pull_one(rf(X + NEG * Y, ONE + X), [((0, 1), (1, 0))])  # x - y becomes y - x
    turned = pull_one(rf(ONE, X + NEG * Y), [((0, 1), (1, 0))])  # 1 / (y - x) is -1 / (x - y)
    polys = [
        h, h * h, h**2, h**0, h + h, h + NEG, h * NEG + h,
        poly_gcd(h * X, h * Y), poly_divexact(h * (X + NEG * Y), X + NEG * Y),
        Poly2.zero(), h * Poly2.zero(), Poly2.zero() ** 2,
    ]
    fractions = [r, f, substitute(f, r, f), pulled, flipped, turned, rf(Poly2.zero(), h)]
    for _ in range(20):
        n, d = random_sides(srng)
        r = normalize(n, d)
        polys += [n * d, n**3]
        fractions += [r, substitute(r, r, r)]
    assert str(fractions[0]) == "(3*x + 9*y) / (2*x)"
    assert all(type(c) is int and c for p in polys for c in p.terms.values())
    assert all(is_canonical(q) for q in fractions)
    assert str(turned) == "((-1)) / (x + (-1)*y)"


def test_public_values_are_fractions():
    assert type(evaluate(rf(X), (2, 3))) is Fraction


def test_coefficients_are_ints_only():
    # A float, text, a bool or a Fraction is refused, also where its value is an integer.
    for c in (0.1, 2.0, "3/4", "1", True, False, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError, match="is not an int"):
            Poly2({(1, 0): c})
    assert Poly2({(1, 0): 2, (0, 0): 0}).terms == {(1, 0): 2}
    assert Poly2.__slots__ == ("terms",)  # no rational content beside the terms
    assert Poly2.const(2) == Poly2({(0, 0): 2}) and hash(Poly2.const(2)) == hash(Poly2({(0, 0): 2}))
    assert Poly2.const(2) != ONE


# --- normalize -----------------------------------------------------------------


def test_normalize_cancels_common_factor():
    r = normalize((ONE + X) ** 2 * Y, (ONE + X) * X)
    assert r == rf((ONE + X) * Y, X)
    assert str(r) == "(x*y + y) / (x)"


def test_normalize_prints_integer_sides():
    # A fraction prints its integer sides: their shared content and a sign
    # that would lead the denominator negative are cancelled, and the
    # content of one side alone stays.
    cases = [
        ({(2, 0): 1, (1, 1): 1, (1, 0): 1, (0, 1): 1}, {(2, 0): 2, (1, 1): -2, (1, 0): 2, (0, 1): -2},
         "(x + y) / (2*x + (-2)*y)"),
        ({(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)}, {(1, 0): Fraction(1, 3), (0, 0): 1},
         "(3*x + 9*y) / (2*x + 6)"),
        ({(1, 0): 4}, {(0, 1): -6}, "((-2)*x) / (3*y)"),
    ]
    for num, den, text in cases:
        assert str(qf(num, den)) == text


def test_normalize_already_reduced():
    assert normalize(X, ONE) == RatFunc2(X, ONE)


def test_normalize_scaling():
    assert normalize(Poly2.monomial(1, 0, 2), Poly2.const(2)) == RatFunc2(X, ONE)


def test_normalize_denominator_leads_positive():
    three_x_plus_one = Poly2({(1, 0): 3, (0, 0): 1})
    assert normalize(Y, three_x_plus_one) == RatFunc2(Y, three_x_plus_one)
    assert normalize(Y, three_x_plus_one * NEG) == RatFunc2(Y * NEG, three_x_plus_one)


def test_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        normalize(X, Poly2.zero())


def test_normalize_zero_numerator_is_canonical_zero():
    # The gcd of 0 and d is d, on either gcd route, so 0 / d is 0 / 1.
    for den in (Poly2.monomial(1, 0, 2), X + Y * Poly2.const(3), (X + Y) * (X + NEG)):
        r = normalize(Poly2.zero(), den)
        assert r == RatFunc2(Poly2.zero(), ONE) and str(r) == "0"
        assert r.num.terms == {} and r.den.terms == {(0, 0): 1}


def test_normalize_idempotent(srng):
    for _ in range(30):
        r = normalize(*random_sides(srng))
        again = normalize(r.num, r.den)
        assert again == r


def test_equality_matches_cross_multiplication(srng):
    for _ in range(30):
        n1, d1 = random_sides(srng)
        n2, d2 = random_sides(srng)
        r1, r2 = normalize(n1, d1), normalize(n2, d2)
        assert (r1 == r2) == (n1 * d2 == n2 * d1)


# --- gcd and division ----------------------------------------------------------


def test_gcd_of_built_product():
    a = (ONE + X) ** 3 * (X + Y) ** 2 * Y
    b = (ONE + X) * (X + Y) ** 4 * X
    assert poly_gcd(a, b) == (ONE + X) * (X + Y) ** 2


def test_divexact_roundtrip(srng):
    for _ in range(20):
        (p, _), (q, _) = random_poly(srng, 2, 3), random_poly(srng, 2, 3)
        if not p or not q:
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
    heuristic = normalize(h * (X + ONE), h * (X + NEG))
    assert len(calls) == 5
    calls.clear()
    monomial = normalize(X**3 * Y**2, X * Y + X**2 * Y * Poly2.const(3))
    assert calls == []
    assert heuristic == normalize(Poly2({(1, 0): 1, (0, 0): 1}), Poly2({(1, 0): 1, (0, 0): -1}))
    assert monomial == qf({(2, 1): Fraction(1, 3)}, {(1, 0): 1, (0, 0): Fraction(1, 3)})


def test_monomial_gcd_route_keeps_huge_degrees_off_gcdheu(monkeypatch):
    # GCDHEU's images run Horner's rule over every degree of the evaluated
    # variable, and realized monomial maps reach degrees near 10^12, so a
    # monomial side must never get there.
    m = realize(parse_word("A[2,1;1,1]^30"))

    def refuse(p, q):
        raise AssertionError("GCDHEU on a monomial side")

    monkeypatch.setattr(polyrat, "_heugcd", refuse)
    assert str(normalize(m.f.num + X * m.f.den, m.f.den)) == "x^2504730781961*y^1548008755920 + x"
    assert str(normalize(Poly2.monomial(10**12, 1), Y + ONE)) == "(x^1000000000000*y) / (y + 1)"


def test_divexact_rejects_inexact_division():
    with pytest.raises(InexactDivisionError):
        poly_divexact(X + ONE, X)
    with pytest.raises(InexactDivisionError):
        poly_divexact(ONE, X)
    # Divisors of (x + 1)^6 whose lowest term does not divide its lowest
    # term 1, and one whose lowest term does but which still leaves a remainder.
    p = (X + ONE) ** 6
    for d in (X + Poly2.const(3), X * X + X, X + Y, X * X + ONE):
        with pytest.raises(InexactDivisionError):
            poly_divexact(p, d)
    assert poly_divexact(p, X + ONE) == (X + ONE) ** 5


def test_divexact_and_gcd_with_a_zero_side():
    zero = Poly2.zero()
    assert poly_divexact(zero, X + ONE) == zero
    with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
        poly_divexact(X + ONE, zero)
    p = Poly2({(1, 0): 2, (0, 1): 4})
    assert poly_gcd(zero, p) == poly_gcd(p, zero) == X + Y * Poly2.const(2)
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
    r = rf(ONE, X + NEG * Y)
    with pytest.raises(ZeroDenominatorError):
        substitute(r, rf(X), rf(X))


def test_substitute_zero_over_a_vanishing_denominator_is_zero():
    # 0 / (x - y) is not canonical, but it is 0, also where x - y vanishes
    # identically: its zero numerator returns before any denominator is built.
    zero = RatFunc2(Poly2.zero(), X + NEG * Y)
    assert substitute(zero, rf(X), rf(X)) == RatFunc2(Poly2.zero(), ONE)


def running_sums(monkeypatch) -> list[int]:
    """The length of each row ``polyrat`` sums with ``itertools.accumulate``, as it sums it."""
    sums = []
    monkeypatch.setattr(polyrat, "itertools", types.SimpleNamespace(
        accumulate=lambda row: sums.append(len(row)) or itertools.accumulate(row), chain=itertools.chain))
    return sums


@pytest.mark.parametrize("e", [-1, 1])
@pytest.mark.parametrize("tall_first", [False, True])
def test_elementary_step_stops_counting_once_k_is_fixed(monkeypatch, e, tall_first):
    # Through E^e, (p y^a + (1 + x)^3000 y^b) / (q y^a) with b = a - e is
    # (p y^a + (1 + x)^3001 y^b) / (q y^a).  p and q are nonzero at x = -1,
    # so the first of their rows takes one running sum and fixes k, and the
    # tall row is not divided at all, in whichever order the rows come.
    a, b = max(e, 0), max(-e, 0)
    p, q = (ONE + X**3000) * Y**a, (Poly2.const(2) + X**3000) * Y**a
    tall = {t: Poly2({(i, b): abs(c) for i, c in enumerate(polyrat._binomial_row(t))}) for t in (3000, 3001)}
    num = tall[3000] + p if tall_first else p + tall[3000]
    sums = running_sums(monkeypatch)
    assert pull_one(rf(num, q), [e]) == rf(p + tall[3001], q)
    assert sums == [3001]


def test_times_one_plus_x_refuses_a_negative_power():
    # The E-step divides by 1 + x with running sums, so a negative power here is a bug.
    with pytest.raises(AssertionError):
        polyrat._times_one_plus_x([1, 0, -1], -1)
    # The E-step keeps a row whose power is 0 and never calls this with t = 0
    # (test_term_budget_stops_realize_and_compose_before_building counts the
    # rows it gets); (1 + x)^0 still multiplies a row to an equal one.
    row = [1, -2]
    assert polyrat._times_one_plus_x(row, 0) == row


# --- pullback, one branch of its three passes at a time ------------------------------

ID, SWAP, INVERT_X, SHEAR = ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((1, 1), (0, 1))


def test_pullback_through_an_odd_x_shift():
    # x -> 1/x leaves x-exponents down to -1, an odd shift, from the terms dicts,
    # from the rows after E^-1, and on the way into an E-step.
    three_x, two_x = Poly2.monomial(1, 0, 3), Poly2.monomial(1, 0, 2)
    r = rf(Y + three_x, X + Poly2.const(2))
    assert pull_one(rf(ONE + three_x, X + Poly2.const(2)), [INVERT_X, ID]) == rf(X + Poly2.const(3), ONE + two_x)
    got = pull_one(r, [-1, INVERT_X, ID])
    assert got == rf(X * Y + Y + Poly2.const(3), ONE + two_x)
    assert got.num.terms == {(1, 1): 1, (0, 1): 1, (0, 0): 3} and got.den.terms == {(1, 0): 2, (0, 0): 1}
    assert pull_one(r, [INVERT_X, 1, ID]) == rf(X * Y + three_x + Poly2.const(3), (ONE + X) * (ONE + two_x))


def test_exit_through_a_det_minus_one_matrix_with_a_y_shift():
    # (x, y) -> (x, x / y): (1 + y) / (x - y) pulled back through E is
    # (x y + x + y) / (x (x y + y - 1)).
    got = pull_one(rf(ONE + Y, X + NEG * Y), [1, ((1, 0), (1, -1))])
    assert got == rf(X * Y + X + Y, X * (X * Y + Y + NEG))
    assert got.den.terms == {(2, 1): 1, (1, 1): 1, (1, 0): -1}


def test_exit_skips_interior_zeros_of_a_row():
    assert pull_one(rf(ONE + X * X), [SHEAR]) == rf(ONE + X * X * Y * Y)
    # Through E, (x^3 + 1) / y gains one power of 1 + x: the row x^4 + x^3 + x + 1 has no x^2.
    got = pull_one(rf(ONE + X**3, Y), [1])
    assert got.num.terms == {(0, 0): 1, (1, 0): 1, (3, 0): 1, (4, 0): 1} and got.den.terms == {(0, 1): 1}


def test_exit_flips_a_negative_leading_coefficient_into_the_numerator():
    # Only the denominator's grlex-leading coefficient sets the sign: a
    # numerator may lead negative, and a denominator that would is negated
    # together with its numerator.
    num = pull_one(rf(X + NEG * Y), [SWAP])  # y - x
    assert (num.num.terms, num.den) == ({(1, 0): -1, (0, 1): 1}, ONE)
    den = pull_one(rf(ONE, X + NEG * Y), [SWAP])  # 1 / (y - x) = -1 / (x - y)
    assert den.num.terms == {(0, 0): -1}
    assert den.den.terms == {(1, 0): 1, (0, 1): -1}
    assert str(num) == "(-1)*x + y" and str(den) == "((-1)) / (x + (-1)*y)"


def test_pullback_of_one_term_sides():
    r = rf(X * Y * Y, Poly2.const(3))
    assert pull_one(r, [SHEAR]) == rf(X * Y**3, Poly2.const(3))
    assert pull_one(r, [2, SHEAR]) == rf(X * Y**3, Poly2.const(3) * (ONE + X * Y) ** 4)


@pytest.mark.parametrize("e, expected", [(1, rf(Y * Y, X * (ONE + X) ** 2)), (-1, rf(Y * Y * (ONE + X) ** 2, X))])
def test_elementary_step_where_every_row_cap_is_at_most_zero(monkeypatch, e, expected):
    # One-term rows: k starts at the least -e j, so no row may be divided,
    # and none is summed.
    sums = running_sums(monkeypatch)
    assert pull_one(rf(Y * Y, X), [e]) == expected
    assert sums == []


# --- a map's fractions pulled back together ----------------------------------------


def e_step_offers(monkeypatch) -> list[bool | None]:
    """Per E-step, in order: None when it was offered no denominator, else whether it took the one offered."""
    offers = []
    step = polyrat._elementary_step

    def spy(sides, e, den=()):
        built = step(sides, e, den)
        offers.append(not built[1] if den else None)
        return built

    monkeypatch.setattr(polyrat, "_elementary_step", spy)
    return offers


def assert_same_as_one_at_a_time(rs, steps) -> list[RatFunc2]:
    """``pullback`` of rs together, checked against the reference field by field; returns it."""
    got = pullback(rs, steps)
    expected = [pull_one(r, steps) for r in rs]
    assert got == expected
    assert [(p.num.terms, p.den.terms) for p in got] == [(p.num.terms, p.den.terms) for p in expected]
    return got


def test_pullback_of_a_shared_denominator_matches_one_fraction_at_a_time(srng, monkeypatch):
    # Pairs with one denominator, whose sides carry powers of 1 + x and y, through random
    # steps: the sharing of a denominator of more than one term lasts to the end, ends at an
    # E-step whose k differs, or ends at the exit, whose shift differs; all three happen,
    # and every result is the reference's.
    offers = e_step_offers(monkeypatch)
    steps_pool = [ID, SWAP, INVERT_X, SHEAR, ((1, -2), (0, 1)), ((0, -1), (1, -1)), -3, -2, -1, 1, 2, 3]
    ends = Counter()
    for _ in range(400):
        if srng.random() < 0.9:
            d, b = random_poly(srng, 2, 3)
            den = d * (ONE + X) ** srng.randint(0, 2)
        else:
            den, b = Poly2.monomial(srng.randint(0, 2), srng.randint(0, 2), srng.randint(1, 5)), 1
        nums = []
        for _ in "fg":
            n, a = random_poly(srng, 2, 3)
            nums.append((n * (ONE + X) ** srng.randint(0, 2) * Y ** srng.randint(0, 2), a))
        if not den or not all(n for n, _ in nums):
            continue
        rs = tuple(rf(*sides(num, (den, b))) for num in nums)
        if rs[0].den != rs[1].den:
            continue
        offers.clear()
        got = assert_same_as_one_at_a_time(rs, [srng.choice(steps_pool) for _ in range(srng.randint(1, 4))])
        if len(rs[0].den.terms) == 1:  # nothing worth sharing: no pass keeps rows or offers them
            assert offers == [None] * len(offers)
            ends["one term"] += 1
        elif got[1].den is got[0].den:
            ends["kept"] += 1
        elif False in offers:
            ends["E-step"] += 1
        else:
            ends["exit"] += 1
    assert min(ends["kept"], ends["E-step"], ends["exit"], ends["one term"]) >= 5, ends


def test_shared_denominator_is_rebuilt_where_k_differs(monkeypatch):
    # Through E, 1 / (1 + x) stays as it is at k = 0, and y / (1 + x) gains a power at k = -1.
    offers = e_step_offers(monkeypatch)
    got = assert_same_as_one_at_a_time((rf(ONE, ONE + X), rf(Y, ONE + X)), [1])
    assert got == [rf(ONE, ONE + X), rf(Y, (ONE + X) ** 2)]
    assert offers == [None, False, None, None]  # together, then the reference's two passes


def test_shared_denominator_at_the_exit():
    # x -> 1/x shifts x-exponents by the least one over both sides: -1 for 1 / (1 + x),
    # -2 for x^2 / (1 + x), so the second denominator is rebuilt.
    got = assert_same_as_one_at_a_time((rf(ONE, ONE + X), rf(X * X, ONE + X)), [INVERT_X])
    assert got == [rf(X, X + ONE), rf(ONE, X * X + X)]
    # Numerators whose leading coefficients differ in sign leave the denominator shared:
    # its own leading coefficient is read from its own rows.
    den = ONE + X + Y
    got = assert_same_as_one_at_a_time((rf(X + NEG * Y, den), rf(Y + NEG * X, den)), [1, SWAP])
    assert got[0].num == got[1].num * NEG and got[1].den is got[0].den


def test_pullback_passes_a_zero_numerator_through():
    zero = rf(Poly2.zero())
    for rs in [(zero, rf(Y, ONE + X)), (rf(X, ONE + X), zero), (zero, zero)]:
        got = assert_same_as_one_at_a_time(rs, [1, SWAP, -2])
        assert [p is r for p, r in zip(got, rs)] == [r is zero for r in rs]


def test_pullback_of_a_map_raises_the_first_fraction_error_first(monkeypatch):
    monkeypatch.setattr(polyrat, "TERM_BUDGET", 20)
    rs = (rf(X, ONE + X), rf(Y, ONE + X))  # one denominator of two terms
    # y / (1 + x) would go over at E^30, the first step, and x / (1 + x) only at E^40,
    # after the swap: the first fraction's error wins, as one at a time.
    with pytest.raises(TermBudgetError, match=r"E\^30 would build 32 terms"):
        pull_one(rs[1], [30, SWAP, 40])
    with pytest.raises(TermBudgetError, match=r"E\^40 would build 42 terms"):
        pull_one(rs[0], [30, SWAP, 40])
    with pytest.raises(TermBudgetError, match=r"E\^40 would build 42 terms"):
        pullback(rs, [30, SWAP, 40])
    # Only y / (1 + x) goes over.
    assert pull_one(rs[0], [30]) == rs[0]
    with pytest.raises(TermBudgetError, match=r"E\^30 would build 32 terms"):
        pullback(rs, [30])


# --- dlog ratio ------------------------------------------------------------------


def test_dlog_ratio_examples():
    assert dlog_ratio(rf(X * X), rf(Y)) == 2
    assert dlog_ratio(rf(X + ONE), rf(Y)) is None
    # -x / (x + y^2): constant along x = t^2, y = t, so colliding keys would show.
    assert dlog_ratio(rf(Y), rf(X + Y * Y)) is None
    assert dlog_ratio(rf(Y), rf(X)) == -1
    assert dlog_ratio(rf(X * Y), rf(Y)) == 1
    assert dlog_ratio(rf(Poly2.monomial(1, 0, 3)), qf({(0, 0): 1}, {(0, 1): Fraction(1, 2)})) == -1
    assert dlog_ratio(rf(X), rf(Poly2.const(5))) == 0
    assert dlog_ratio(RatFunc2(X * X, X), rf(Y)) == 1  # unreduced input
    assert dlog_ratio(rf(Poly2.zero()), rf(Y)) is None
    with pytest.raises(ZeroDenominatorError):
        dlog_ratio(RatFunc2(X, Poly2.zero()), rf(Y))


HEAVY = "E*E[-2,-1]*E*A[2,1;1,0]^-1*E"  # the heaviest -1 word of the benchmark pool


def leading_det(sides) -> int:
    """The determinant of the exponent differences fn - fd and gn - gd of the grlex-leading terms."""
    (a, b), (a2, b2), (p, q), (p2, q2) = (max(s, key=lambda t: (t[0] + t[1], t[0])) for s in sides)
    return (a - a2) * (q - q2) - (b - b2) * (p - p2)


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
            c = leading_det(sides)
            assert pairs_route(sides, c) == want, (w, a, b)
            assert packed_route(sides, c, *polyrat._packing(sides)[:3]) == want, (w, a, b)
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


# --- evaluation ------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(rf(Y, ONE + X), (2, 3)) == 1
    assert evaluate(rf(X), (5, 9)) == 5


def test_evaluate_pole():
    with pytest.raises(PoleAtPointError):
        evaluate(rf(ONE, ONE + X), (-1, 0))


def test_evaluate_one_tall_power_beside_many_short_ones():
    # y^N + x + ... + x^M: the one power of y is as tall as the budget's
    # count of it, and sits beside M short powers of x.
    n, m = 20000, 300
    p = rf(Poly2({(0, n): 1, **{(i, 0): 1 for i in range(1, m + 1)}}))
    assert evaluate(p, (2, Fraction(1, 3))) == Fraction(1, 3**n) + 2 ** (m + 1) - 2
    assert evaluate(p, (Fraction(-1, 2), 0)) == sum(Fraction(-1, 2) ** i for i in range(1, m + 1))


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


def arc_limit(f: RatFunc2, g: RatFunc2, arc):
    """The leading order in t of (f, g) on the arc x = lam^p t^n1, y = lam^q t^n2, read with sympy.

    ``arc`` is that monomial map's matrix ((p, n1), (q, n2)), of determinant
    p n2 - q n1 = 1, so no two monomials of a side land on one.  Each side's
    lowest t-row is lam^s times a ``sympy.Poly`` in lam with a nonzero
    constant term; the t-orders of f and g are (a, b), each row of
    f^b g^-a goes to the top or the bottom by the sign of its power, and
    the quotient must be one term.  Returns (a, b) with (c, e) such that
    f^b g^-a = c lam^e + O(t), or with None when it leads with no monomial.
    The library reads the boundary action off the letters instead
    (``birmap.boundary_limit``); this is the tests' independent reference.
    """
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    (lp, tp), (lq, tq) = arc

    def row(p: Poly2):  # (t-order, s, the lowest t-row over lam^s)
        ts = {(i, j): tp * i + tq * j for i, j in p.terms}
        t0 = min(ts.values())
        ks = {lp * i + lq * j: p.terms[i, j] for (i, j), t in ts.items() if t == t0}
        s = min(ks)
        return t0, s, sympy.Poly.from_dict({(k - s,): c for k, c in ks.items()}, lam, domain=sympy.QQ)

    (tfn, sfn, fn), (tfd, sfd, fd), (tgn, sgn, gn), (tgd, sgd, gd) = map(row, (f.num, f.den, g.num, g.den))
    a, b = tfn - tfd, tgn - tgd
    top = bottom = sympy.Poly(1, lam, domain=sympy.QQ)
    e = 0
    for num, s, den, r, k in ((fn, sfn, fd, sfd, b), (gn, sgn, gd, sgd, -a)):
        e += k * (s - r)
        if k < 0:
            num, den, k = den, num, -k
        top, bottom = top * num**k, bottom * den**k
    quotient, rest = top.div(bottom)
    if not rest.is_zero or len(quotient.terms()) != 1:
        return (a, b), None
    [((d,), c)] = quotient.terms()
    return (a, b), (Fraction(int(c.p), int(c.q)), e + d)


# On the arc x = lam, y = t (matrix ((1, 0), (0, 1))) with g = y, the ray is
# (0, 1) for an f of t-order 0, and the action reads f's lowest rows in lam.
ARC_X = ((1, 0), (0, 1))


def test_arc_limit_reads_a_monomial_ratio():
    # (-3/2 lam^2 + 3 lam^-1) / (lam^-1 - 2 lam^-4) is -3/2 lam^3; times
    # lam^4 on both sides, and + y keeps the fraction from cancelling.
    f = qf({(6, 0): Fraction(-3, 2), (3, 0): 3, (0, 1): 1}, {(3, 0): 1, (0, 0): -2, (0, 1): 1})
    assert arc_limit(f, RatFunc2.y(), ARC_X) == ((0, 1), (Fraction(-3, 2), 3))
    # 5 lam^-2 over 1/3: the integer contents come in.
    assert arc_limit(qf({(0, 0): 5}, {(2, 0): Fraction(1, 3)}), RatFunc2.y(), ARC_X) == ((0, 1), (15, -2))


def test_arc_limit_rejects_a_non_monomial_ratio():
    # (lam + 1) / (lam - 1): same leading terms, different tails.
    assert arc_limit(rf(X + ONE, X + NEG), RatFunc2.y(), ARC_X) == ((0, 1), None)
    # lam^2 + 1 over lam: the leading terms alone would say lam.
    assert arc_limit(rf(X * X + ONE, X), RatFunc2.y(), ARC_X) == ((0, 1), None)


def test_arc_limit_reads_the_orders_from_the_lowest_rows():
    # On the arc x = lam^2 t^-3, y = lam t^-1 (determinant 1), x^5 + y has
    # t-order -15 and row lam^10, and x has t-order -3 and row lam^2;
    # f^-3 x^15 = lam^-30 lam^30.
    assert arc_limit(rf(X**5 + Y), RatFunc2.x(), ((2, -3), (1, -1))) == ((-15, -3), (1, 0))


# --- textual form -----------------------------------------------------------------


def test_format_matches_documented_example():
    p = Poly2({(2, 1): -1, (1, 0): 3})
    assert format_poly(p) == "(-1)*x^2*y + 3*x"


def test_format_zero_and_constants():
    assert format_poly(Poly2.zero()) == "0"
    assert format_poly(Poly2.const(-2)) == "(-2)"
    assert format_poly(ONE + X) == "x + 1"
    # A rational value is a fraction of integers: x / 2, not (1/2)*x.
    assert str(qf({(1, 0): Fraction(1, 2)})) == "(x) / (2)" and str(qf({(0, 0): Fraction(1, 2)})) == "(1) / (2)"
