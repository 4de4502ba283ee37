"""Differential tests of the polynomial core against sympy.

sympy is a test-only oracle: the module is skipped where it is missing.
Both gcd routes of ``polyrat._ip_gcd`` get inputs that reach them: a
monomial side for the shortcut; for GCDHEU, which recurses on its images
from y down to x, a shared factor of positive degree in both variables,
coprime pairs, x-only pairs, and inputs whose heights or degrees make it
raise its evaluation point many times: coefficients of thousands of
digits, a seeded pair of high y-degree, and a tall product of cyclotomic
factors of x^210 - 1.
``pullback``, which takes no gcd, is checked one fraction at a time (the
reference for a map's fractions pulled back together, in ``test_polyrat.py``)
against sympy's ``cancel`` of the substituted fraction, its row kernel ``_times_one_plus_x`` against
``sympy.Poly`` products, and the powers of 1 + x an E-step divides out
against sympy's multiplicities, capped by a denominator.  ``dlog_ratio`` is
checked against sympy's derivatives in the field Q(x, y), ``evaluate``
against sympy's value of the same fraction, poles included, and sympy
reads the text of ``format_poly`` and ``format_ratfunc`` back to the same
value.  ``realize``, which runs on ``pullback``, is checked against a fold
of ``substitute`` in ``test_birmap.py``, where sympy is not needed.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from logcy2 import polyrat
from logcy2.birmap import BirationalMap, realize
from logcy2.polyrat import (
    PoleAtPointError,
    Poly2,
    RatFunc2,
    ZeroDenominatorError,
    dlog_ratio,
    evaluate,
    format_poly,
    format_ratfunc,
    normalize,
    poly_divexact,
    poly_gcd,
    substitute,
)
from logcy2.words import parse_word
from test_polyrat import cleared, grlex_lead, pull_one, random_poly, random_sides, sides

sympy = pytest.importorskip("sympy")

SX, SY = sympy.symbols("x y")
QXY, FX, FY = sympy.polys.fields.field("x,y", sympy.QQ)
ORACLE = settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
ONE = Poly2.const(1)


RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def rationals(max_deg: int = 3, max_terms: int = 4):
    """Nonzero polynomials with rational coefficients, as ``cleared`` gives them: (N, m) for N / m."""
    monos = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(monos, RATIONAL, min_size=1, max_size=max_terms).map(cleared).filter(lambda p: bool(p[0]))


def polys(max_deg: int = 3, max_terms: int = 4, integral: bool = False):
    """Nonzero polynomials in Z[x, y]: integer coefficients, or else the N of ``rationals``."""
    if not integral:
        return rationals(max_deg, max_terms).map(lambda p: p[0])
    monos = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(monos, st.integers(-6, 6), min_size=1, max_size=max_terms).map(Poly2).filter(bool)


def rational_monomials(max_deg: int = 3):
    """Monomials with a nonzero rational coefficient, as ``cleared`` gives them."""
    return st.builds(lambda i, j, c: cleared({(i, j): c}), st.integers(0, max_deg), st.integers(0, max_deg),
                     RATIONAL.filter(bool))


def monomials(max_deg: int = 3):
    """The N of ``rational_monomials``: monomials with a nonzero integer coefficient."""
    return rational_monomials(max_deg).map(lambda p: p[0])


def to_sympy(p: Poly2):
    return sum((c * SX**i * SY**j for (i, j), c in p.terms.items()), sympy.Integer(0))


def from_sympy(expr) -> Poly2:
    poly = sympy.Poly(expr, SX, SY, domain="ZZ")
    return Poly2({m: int(c) for m, c in poly.as_dict().items()})


def canonical(expr) -> RatFunc2:
    """sympy's reduced fraction as integer sides with no common content and a denominator leading positive in grlex."""
    num, den = (sympy.Poly(e, SX, SY, domain="QQ") for e in sympy.fraction(sympy.cancel(sympy.together(expr))))
    num, den = (n.terms for n in sides(*(cleared({m: Fraction(int(c.p), int(c.q)) for m, c in e.as_dict().items()})
                                         for e in (num, den))))
    c = math.gcd(*num.values(), *den.values()) * (1 if grlex_lead(den) > 0 else -1)
    return RatFunc2(*(Poly2({m: v // c for m, v in e.items()}) for e in (num, den)))


def same_up_to_scalar(a: Poly2, b: Poly2) -> bool:
    return a * Poly2.const(grlex_lead(b.terms)) == b * Poly2.const(grlex_lead(a.terms))


# --- normalize --------------------------------------------------------------------


@ORACLE
@given(rationals(), rationals(), polys(2, 3))
def test_normalize_matches_cancel(p, q, h):
    p, q = sides(p, q)
    assert normalize(p * h, q * h) == canonical(to_sympy(p) / to_sympy(q))


@ORACLE
@given(rationals(), rational_monomials(), polys(2, 3))
def test_normalize_matches_cancel_monomial_side(p, m, h):
    num, den = sides(p, m)
    assert normalize(num, den) == canonical(to_sympy(num) / to_sympy(den))
    num, den = sides(m, p)
    assert normalize(num * h, den * h) == canonical(to_sympy(num) / to_sympy(den))


# --- gcd routes -------------------------------------------------------------------


@ORACLE
@given(polys(), monomials())
def test_gcd_monomial_shortcut_matches_sympy(p, m):
    ours = poly_gcd(p, m)
    assert same_up_to_scalar(ours, from_sympy(sympy.gcd(to_sympy(p), to_sympy(m))))
    assert ours == poly_gcd(m, p)


def shared_factors():
    """Integral polynomials with a factor x + a*y + b, so the gcd has both variables."""
    return st.builds(lambda p, a, b: p * Poly2({(1, 0): 1, (0, 1): a, (0, 0): b}),
                     polys(1, 2, integral=True), st.integers(-4, 4).filter(bool), st.integers(-4, 4))


@ORACLE
@given(polys(2, 3, integral=True), polys(2, 3, integral=True), shared_factors())
def test_gcd_heuristic_route_matches_sympy(a, b, h):
    p, q = a * h, b * h
    ours = poly_gcd(p, q)
    assert same_up_to_scalar(ours, from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))))
    assert all(type(c) is int for c in ours.terms.values())
    assert grlex_lead(ours.terms) > 0


def test_gcd_heuristic_candidate_has_no_zero_digits():
    # x + y^2 evaluates to x + xi^2, whose base-xi digits include zeros.
    h = {(1, 0): 1, (0, 2): 1}
    p = polyrat._ip_mul(h, {(1, 0): 1, (0, 0): 1})
    q = polyrat._ip_mul(h, {(1, 0): 1, (0, 0): -1})
    assert polyrat._heugcd(p, q) == (h, {(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): -1})


@ORACLE
@given(polys(3, 4, integral=True), polys(3, 4, integral=True))
# (y - 31)(x + 1) vanishes at GCDHEU's first evaluation point y = 31.
@example(Poly2({(1, 1): 1, (1, 0): -31, (0, 1): 1, (0, 0): -31}), Poly2({(1, 0): 1, (0, 1): 1}))
def test_gcd_of_coprime_pair_returns_the_inputs_as_cofactors(a, b):
    assume(sympy.gcd(to_sympy(a), to_sympy(b)) == 1)
    p, q = a.terms, b.terms
    g, cp, cq = polyrat._ip_gcd(p, q)
    assert g == {(0, 0): 1}
    assert cp == p and cq == q


@ORACLE
@given(polys(2, 3, integral=True), polys(2, 3, integral=True), shared_factors())
def test_gcd_cofactors_multiply_back(a, b, h):
    p, q = (a * h).terms, (b * h).terms
    g, cp, cq = polyrat._ip_gcd(p, q)
    assert polyrat._ip_mul(g, cp) == p
    assert polyrat._ip_mul(g, cq) == q


def univariates():
    return st.dictionaries(st.integers(0, 4), st.integers(-9, 9).filter(bool), min_size=1, max_size=4)


@ORACLE
@given(univariates(), univariates(), univariates())
def test_gcd_of_x_only_pair_matches_sympy(a, b, h):
    # Two x-only dicts, built as products: ``_ip_gcd`` on their primitive
    # parts, and ``_heugcd`` on the dicts as they stand, integer content
    # included.
    x_only = lambda d: {(j, 0): c for j, c in d.items()}
    p, q = (polyrat._ip_mul(x_only(u), x_only(h)) for u in (a, b))
    expected = sympy.Poly(sympy.gcd(to_sympy(Poly2(p)), to_sympy(Poly2(q))), SX)
    expected = expected if expected.LC() > 0 else -expected
    pp, pq = (polyrat._primitive(d)[0] for d in (p, q))
    g, cp, cq = polyrat._ip_gcd(pp, pq)
    assert g == from_sympy(expected.primitive()[1].as_expr()).terms
    assert polyrat._ip_mul(g, cp) == pp and polyrat._ip_mul(g, cq) == pq
    assert polyrat._heugcd(p, q)[0] == from_sympy(expected.as_expr()).terms


def test_gcd_of_tall_pair_matches_sympy():
    tall = 3**20000  # heights of thousands of digits
    h = Poly2({(1, 1): 1, (1, 0): tall, (0, 0): 1})
    p = h * Poly2({(1, 0): 1, (0, 1): 2, (0, 0): 3})
    q = h * Poly2({(1, 0): 2, (0, 1): 1, (0, 0): 5})
    ours = poly_gcd(p, q)
    assert ours == h
    assert same_up_to_scalar(ours, from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))))
    assert normalize(p, q) == canonical(to_sympy(p) / to_sympy(q))


def sympy_poly(p: dict) -> "sympy.Poly":
    return sympy.Poly.from_dict(p, SX, SY, domain="ZZ")


def test_gcd_of_seeded_pair_of_high_y_degree_matches_sympy():
    # A shared factor of positive degree in both variables, with inputs of
    # y-degree 29 and coefficients of about 2000 bits: the bits of GCDHEU's
    # first evaluation point times 1 + y-degree exceed 60000, the size at
    # which GCDHEU used to give up.
    rng = random.Random(7)
    g, a, b = (polyrat._primitive({(rng.randint(0, 2), rng.randint(0, 15)): rng.choice((-1, 1)) * rng.getrandbits(1000)
                                   for _ in range(12)})[0] for _ in range(3))
    p, q = polyrat._ip_mul(g, a), polyrat._ip_mul(g, b)
    deg = max(j for _, j in [*p, *q])
    xi = 2 * min(max(map(abs, p.values())), max(map(abs, q.values()))) + 29
    assert xi.bit_length() * (1 + deg) > 60000
    got, cp, cq = polyrat._ip_gcd(p, q)
    expected = sympy_poly(p).gcd(sympy_poly(q))
    assert got == {m: int(c) for m, c in expected.as_dict().items()}
    assert got == g and cp == a and cq == b


def test_gcd_of_cyclotomic_product_matches_sympy():
    # x^210 - 1 against the tallest of the 2^16 - 1 products of its
    # cyclotomic factors, in x and in y: the gcd is that product, whose
    # height makes GCDHEU raise its evaluation point seven times before its
    # digits are exact.
    factor = sympy.prod(sympy.cyclotomic_poly(d, SX) for d in (1, 6, 10, 14, 15, 21, 35, 210))
    tall = {(i, 0): int(c) for (i,), c in sympy.Poly(factor, SX).as_dict().items()}
    assert max(map(abs, tall.values())) == 10188
    for swap in (lambda d: d, lambda d: {(j, i): c for (i, j), c in d.items()}):
        p, q = swap({(210, 0): 1, (0, 0): -1}), swap(tall)
        g, cp, cq = polyrat._ip_gcd(p, q)
        assert g == q and cq == {(0, 0): 1} and polyrat._ip_mul(g, cp) == p
        assert g == {m: int(c) for m, c in sympy_poly(p).gcd(sympy_poly(q)).as_dict().items()}


# --- one-term products -----------------------------------------------------------


def one_term_factors():
    """The constant 1, monomials with coefficient 1 or -1, and the integer N of rational monomials."""
    return st.one_of(
        st.just(Poly2.const(1)),
        st.builds(Poly2.monomial, st.integers(0, 3), st.integers(0, 3), st.sampled_from([1, -1])),
        monomials(),
    )


@ORACLE
@given(one_term_factors(), polys())
def test_one_term_product_matches_sympy(m, p):
    before = (dict(m.terms), dict(p.terms))
    expected = from_sympy(sympy.expand(to_sympy(m) * to_sympy(p)))
    assert m * p == expected
    assert p * m == expected
    assert (m.terms, p.terms) == before


@ORACLE
@given(one_term_factors(), polys(2, 3), st.integers(0, 5))
def test_one_term_power_matches_sympy(m, p, k):
    before = (dict(m.terms), dict(p.terms))
    assert m**k == from_sympy(sympy.expand(to_sympy(m) ** k))
    assert (m * p) ** k == from_sympy(sympy.expand((to_sympy(m) * to_sympy(p)) ** k))
    assert (m.terms, p.terms) == before


@ORACLE
@given(polys(integral=True))
def test_integer_product_by_one_is_the_other_factor(p):
    ints, one = p.terms, {(0, 0): 1}
    before = dict(ints)
    for product in (polyrat._ip_mul(one, ints), polyrat._ip_mul(ints, one)):
        assert product is ints or (product is one and ints == one)
    assert polyrat._ip_mul({(0, 0): -1}, ints) == {t: -c for t, c in ints.items()}
    assert ints == before


# --- dlog ratio ------------------------------------------------------------------


def to_field(r: RatFunc2):
    """r as an element of sympy's field Q(x, y), kept reduced by its own gcds."""
    num, den = ({m: sympy.QQ(c) for m, c in p.terms.items()} for p in (r.num, r.den))
    return QXY(QXY.ring(num)) / QXY(QXY.ring(den))


def sympy_dlog_ratio(f: RatFunc2, g: RatFunc2):
    """(x y / (f g)) (f_x g_y - f_y g_x) as a Fraction when sympy finds it constant."""
    sf, sg = to_field(f), to_field(g)
    if not sf or not sg:
        return None
    jac = sf.diff(FX) * sg.diff(FY) - sf.diff(FY) * sg.diff(FX)
    ratio = FX * FY * jac / (sf * sg)
    if not (ratio.numer.is_ground and ratio.denom.is_ground):
        return None
    c = ratio.numer.LC / ratio.denom.LC
    return Fraction(int(c.numerator), int(c.denominator))


def times_monomial(a: int, b: int, num: Poly2, den: Poly2 = ONE) -> RatFunc2:
    """x^a y^b num / den, for exponents of either sign, in one ``normalize``."""
    return normalize(Poly2.monomial(max(a, 0), max(b, 0)) * num, Poly2.monomial(max(-a, 0), max(-b, 0)) * den)


@ORACLE
@given(rationals(2, 3), rationals(2, 3), rationals(2, 3), st.tuples(*[st.integers(-2, 2)] * 4))
def test_dlog_ratio_matches_sympy(p, q, h, exps):
    # A generic pair, and f = x^a y^b p with g = x^c y^d h(f, f), whose
    # ratio is the constant a d - b c whenever p has one term.
    a, b, c, d = exps
    f = times_monomial(a, b, p[0], Poly2.const(p[1]))
    s = substitute(normalize(h[0], Poly2.const(h[1])), f, f)
    g = times_monomial(c, d, s.num, s.den)
    pairs = [(normalize(*sides(p, q)), normalize(*sides(h, p))), (f, g)]
    for f, g in pairs:
        assert dlog_ratio(f, g) == sympy_dlog_ratio(f, g)


def test_dlog_ratio_matches_quotient_rule_jacobian(srng):
    # Sides with integer contents other than 1.  A map g = c x^a y^b h(f),
    # with f a monomial map, has dlog f ^ dlog g a constant multiple of
    # dlog x ^ dlog y, so constants other than 0 and +-1 come up alongside
    # the generic non-constant case.
    seen = set()
    for _ in range(60):
        if srng.random() < 0.5:
            f = normalize(*random_sides(srng))
            g = normalize(*random_sides(srng))
        else:
            a, b, c, d = (srng.randint(-2, 2) for _ in range(4))
            f = times_monomial(a, b, Poly2.const(srng.randint(1, 5)), Poly2.const(srng.randint(1, 3)))
            g = times_monomial(c, d, ONE)
            if (h := random_poly(srng, 2, 3))[0]:
                s = substitute(normalize(h[0], Poly2.const(h[1])), f, f)
                g = times_monomial(c, d, s.num, s.den)
        got = dlog_ratio(f, g)
        assert got == sympy_dlog_ratio(f, g), (f, g)
        seen.add("none" if got is None else "unit" if got in (1, -1) else "zero" if got == 0 else "other")
    assert seen == {"none", "unit", "zero", "other"}


# --- substitute into the letters' maps ------------------------------------------


def rebuilt(m: BirationalMap) -> BirationalMap:
    """A map equal to m made of new objects, down to the terms dicts."""

    def copy(r: RatFunc2) -> RatFunc2:
        return RatFunc2(Poly2(dict(r.num.terms)), Poly2(dict(r.den.terms)))

    return BirationalMap(copy(m.f), copy(m.g))


def sympy_substitute(r: RatFunc2, f: RatFunc2, g: RatFunc2) -> RatFunc2:
    point = {SX: to_sympy(f.num) / to_sympy(f.den), SY: to_sympy(g.num) / to_sympy(g.den)}
    return canonical((to_sympy(r.num) / to_sympy(r.den)).subs(point, simultaneous=True))


LETTERS = ("r1", "r2", "r3", "E", "E^-1", "E[1,0]", "A[0,1;-1,-1]", "A[2,1;1,1]^-1", "P")


def test_substitute_into_letter_maps_matches_sympy():
    # Each call substitutes into a new copy of the inner map, which no
    # earlier call has seen.
    maps = [rebuilt(realize(parse_word(t))) for t in LETTERS]
    for outer in maps:
        for inner in maps:
            fresh = rebuilt(inner)
            got = BirationalMap(substitute(outer.f, fresh.f, fresh.g), substitute(outer.g, fresh.f, fresh.g))
            assert got == BirationalMap(sympy_substitute(outer.f, inner.f, inner.g),
                                        sympy_substitute(outer.g, inner.f, inner.g))


# --- exact division ---------------------------------------------------------------


@ORACLE
@given(polys(), polys())
def test_divexact_matches_sympy_quotient(p, d):
    assert poly_divexact(p * d, d) == from_sympy(sympy.exquo(to_sympy(p * d), to_sympy(d), SX, SY))


# --- substitute -------------------------------------------------------------------


def small_ratfuncs():
    return st.builds(lambda p, q: normalize(*sides(p, q)), rationals(2, 3), rationals(2, 2))


# Terms of r that share an x-exponent, then terms that share a y-exponent.
SHARED_X = normalize(Poly2({(1, 0): 1, (1, 1): 2, (1, 2): -3}), Poly2({(2, 1): 1, (2, 0): 5, (0, 0): 1}))
SHARED_Y = normalize(Poly2({(0, 1): 3, (1, 1): 1, (2, 1): -2}), Poly2({(1, 2): 1, (2, 0): 1, (0, 0): 4}))


@ORACLE
@given(small_ratfuncs(), small_ratfuncs(), small_ratfuncs())
@example(SHARED_X, normalize(Poly2({(1, 0): 1, (0, 0): 1}), Poly2.y()), normalize(Poly2({(1, 1): 2}), Poly2({(1, 0): 1, (0, 2): 1})))
@example(SHARED_Y, normalize(Poly2({(0, 1): 1}), Poly2({(1, 0): 1, (0, 0): -1})), normalize(Poly2({(2, 0): 1, (0, 1): 1}), ONE))
@example(SHARED_X, SHARED_Y, SHARED_X)
def test_substitute_matches_subs_then_cancel(r, f, g):
    point = {SX: to_sympy(f.num) / to_sympy(f.den), SY: to_sympy(g.num) / to_sympy(g.den)}
    den = sympy.cancel(to_sympy(r.den).subs(point, simultaneous=True))
    if den == 0:
        with pytest.raises(ZeroDenominatorError):
            substitute(r, f, g)
        return
    expected = canonical(to_sympy(r.num).subs(point, simultaneous=True) / den)
    assert substitute(r, f, g) == expected


# --- pullbacks through the generators ---------------------------------------------

ONE_PLUS_X = Poly2({(0, 0): 1, (1, 0): 1})


def reduced_fractions():
    """Reduced fractions of rational polynomials, constant sides and (1 + x)-powers.

    A side is a rational constant or a random rational polynomial; each side
    is multiplied by (1 + x)^a y^b, so valuations up to 6 on either side are
    common.  The fraction's integer sides carry the constants.
    """
    constants = RATIONAL.filter(bool).map(lambda c: cleared({(0, 0): c}))
    side = st.one_of(rationals(2, 4), constants)
    powers = st.tuples(st.integers(0, 6), st.integers(0, 2))

    def build(p, q, pa, qa):
        p, q = sides(p, q)
        return normalize(p * ONE_PLUS_X ** pa[0] * Poly2.monomial(0, pa[1]),
                         q * ONE_PLUS_X ** qa[0] * Poly2.monomial(0, qa[1]))

    return st.builds(build, side, side, powers, powers)


def sympy_ratfunc(r: RatFunc2):
    return to_sympy(r.num) / to_sympy(r.den)


UNIMODULAR = st.sampled_from([((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((1, 1), (0, 1)),
                              ((1, -2), (0, 1)), ((2, 1), (1, 1)), ((0, -1), (1, -1)), ((-3, 2), (-2, 1))])


def sympy_step(expr, step):
    """expr pulled back through one step: E^e for an int e, else the monomial map of a matrix."""
    if isinstance(step, int):
        return expr.subs({SY: SY * (1 + SX) ** -step})
    (a, b), (c, d) = step
    return expr.subs({SX: SX**a * SY**b, SY: SX**c * SY**d}, simultaneous=True)


@ORACLE
@given(reduced_fractions(), UNIMODULAR)
def test_monomial_pullback_matches_cancel(r, mat):
    assert pull_one(r, [mat]) == canonical(sympy_step(sympy_ratfunc(r), mat))


@ORACLE
@given(reduced_fractions(), st.integers(-4, 4).filter(bool))
def test_elementary_pullback_matches_cancel(r, e):
    assert pull_one(r, [e]) == canonical(sympy_step(sympy_ratfunc(r), e))


@ORACLE
@given(reduced_fractions(), st.lists(st.one_of(UNIMODULAR, st.integers(-3, 3).filter(bool)), max_size=3))
def test_kernels_keep_integer_pairs_reduced(r, steps):
    # After every prefix of the steps, pullback gives primitive integer
    # sides with no common factor at all, so normalize leaves it as it is,
    # and its value is sympy's substitution step by step.
    expr = sympy_ratfunc(r)
    for n in range(len(steps) + 1):
        p = pull_one(r, steps[:n])
        assert all(isinstance(c, int) for c in [*p.num.terms.values(), *p.den.terms.values()])
        assert polyrat._ip_gcd(p.num.terms, p.den.terms)[0] == {(0, 0): 1}
        assert p == normalize(p.num, p.den)
        assert p == canonical(expr)
        if n < len(steps):
            expr = sympy.cancel(sympy_step(expr, steps[n]))


def test_elementary_pullback_cancels_a_high_power_of_one_plus_x():
    # y / (1 + x)^k pulled back through E^-k is y, and through E^k gains
    # k more powers.
    for k in (12, 500):
        r = normalize(Poly2.y(), ONE_PLUS_X**k)
        assert pull_one(r, [-k]) == RatFunc2.y()
        assert pull_one(r, [k]) == normalize(Poly2.y(), ONE_PLUS_X ** (2 * k))


def alternating_row(poly) -> list[int]:
    """The coefficients c_i of a sympy polynomial in x, as the row (-1)^i c_i from i = 0."""
    return [-int(c) if i & 1 else int(c) for i, c in enumerate(reversed(poly.all_coeffs()))]


ROWS = st.lists(st.integers(-9, 9), min_size=1, max_size=40).filter(lambda b: b[0] and b[-1])


@ORACLE
@given(ROWS, st.integers(0, 64))
def test_times_one_plus_x_matches_sympy(b, t):
    poly = sympy.Poly(sum((-c if i & 1 else c) * SX**i for i, c in enumerate(b)), SX)
    power = sympy.Poly((1 + SX) ** t, SX)
    assert polyrat._times_one_plus_x(b, t) == alternating_row(poly * power)


@ORACLE
@given(ROWS, st.integers(0, 12), st.integers(-2, 3))
@example([1, -2], 0, 1)  # 1 + 2x: 1 + x does not divide it
@example([1], 3, -2)  # (1 + x)^3 / y: the cap 1 stops the count below m = 3
def test_one_plus_x_quotient_matches_sympy(b, t, slack):
    # R = b (1 + x)^t, whose multiplicity m of x = -1 is t plus b's own.
    # Through E^-1, R / y^j is R / ((1 + x)^j y^j): the denominator's row caps
    # the count at j, from below m to above it, so the E-step divides R by
    # (1 + x)^min(m, j), and the reduced fraction is sympy's.
    row = polyrat._times_one_plus_x(b, t)
    poly = sum((-c if i & 1 else c) * SX**i for i, c in enumerate(row))
    m = dict(sympy.factor_list(sympy.Poly(poly, SX))[1]).get(sympy.Poly(SX + 1, SX), 0)
    j = max(m + slack, 0)
    r = normalize(Poly2({(i, 0): -c if i & 1 else c for i, c in enumerate(row)}), Poly2.y() ** j)
    assert pull_one(r, [-1]) == canonical(poly / ((1 + SX) ** j * SY**j))


# --- evaluation -------------------------------------------------------------------


def test_evaluate_matches_sympy(srng):
    # Random fractions at rational points whose coordinates are negative,
    # fractional or zero.  In two cases of three a factor that vanishes at
    # the point goes into the denominator alone, a pole, or into both sides,
    # where it cancels.  sympy reduces num / den on its own, so a pole is
    # expected exactly where its denominator vanishes.
    seen = set()
    for _ in range(60):
        pt = [srng.choice((0, srng.randint(-4, -1), Fraction(srng.randint(-6, 6), srng.randint(2, 4))))
              for _ in range(2)]
        num, den = random_sides(srng, 2, 3)
        # x - c or y - c, for a coordinate c = p / q of the point, as (q x - p) / q.
        axis, c = srng.choice(((0, pt[0]), (1, pt[1])))
        p, q = Fraction(c).as_integer_ratio()
        vanishing = Poly2({(1 - axis, axis): q, (0, 0): -p})
        k = srng.randrange(3)
        if k:
            num, den = num * Poly2.const(q), den * vanishing
        if k == 2:
            num, den = num * vanishing, den * Poly2.const(q)
        point = {s: sympy.Rational(v.numerator, v.denominator) for s, v in zip((SX, SY), pt)}
        want_num, want_den = (e.subs(point) for e in sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den))))
        r = normalize(num, den)
        if want_den == 0:
            with pytest.raises(PoleAtPointError):
                evaluate(r, pt)
            seen.add("pole")
        else:
            want = want_num / want_den
            assert evaluate(r, pt) == Fraction(int(want.p), int(want.q)), (r, pt)
            seen.add("value")
        seen.update("zero" for v in pt if v == 0)
        seen.update("negative" for v in pt if v < 0)
        seen.update("fractional" for v in pt if v != int(v))
        seen.update("negative fractional" for v in pt if v < 0 and v != int(v))
    assert seen == {"pole", "value", "zero", "negative", "fractional", "negative fractional"}


# --- textual form -----------------------------------------------------------------


# Negative, integral and rational coefficients, as ``cleared`` gives them;
# an empty or all-zero dict is the zero polynomial.
COEFFICIENTS = st.one_of(st.integers(-50, 50), st.fractions(min_value=-20, max_value=20, max_denominator=12))
ANY_RATIONALS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), COEFFICIENTS, max_size=6).map(cleared)


def read_text(text: str):
    """sympy's reading of the text form, with ``^`` written ``**``."""
    return sympy.sympify(text.replace("^", "**"), locals={"x": SX, "y": SY})


@given(ANY_RATIONALS)
def test_poly_text_reads_back_in_sympy(p):
    p, _ = p
    text = format_poly(p)
    assert sympy.expand(read_text(text) - to_sympy(p)) == 0
    assert (text == "0") == (not p)


@given(ANY_RATIONALS, st.one_of(COEFFICIENTS.filter(bool).map(lambda c: cleared({(0, 0): c})),
                               ANY_RATIONALS.filter(lambda d: bool(d[0]))))
def test_ratfunc_text_reads_back_in_sympy(n, d):
    r = normalize(*sides(n, d))
    assert sympy.cancel(read_text(format_ratfunc(r)) - sympy_ratfunc(r)) == 0
