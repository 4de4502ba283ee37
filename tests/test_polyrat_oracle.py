"""Differential tests of the polynomial core against sympy.

sympy is a test-only oracle: the module is skipped where it is missing.
Each gcd route of ``polyrat._ip_gcd`` gets inputs that reach it: a monomial
side for the shortcut, a shared factor of positive degree in both variables
and coprime pairs for the two-level GCDHEU, and one explicit input whose
coefficients are too tall for GCDHEU, so the remainder sequence runs.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from logcy2 import polyrat
from logcy2.birmap import BirationalMap, compose, realize
from logcy2.polyrat import (
    IdenticallySingularError,
    Poly2,
    RatFunc2,
    dlog_ratio,
    normalize,
    poly_divexact,
    poly_gcd,
    substitute,
)
from logcy2.words import parse_word

sympy = pytest.importorskip("sympy")

SX, SY = sympy.symbols("x y")
ORACLE = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def polys(max_deg: int = 3, max_terms: int = 4, integral: bool = False):
    coeffs = (st.integers(-6, 6) if integral
              else st.fractions(min_value=-6, max_value=6, max_denominator=4))
    monos = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(monos, coeffs, min_size=1, max_size=max_terms).map(Poly2).filter(bool)


def monomials(max_deg: int = 3):
    return st.builds(Poly2.monomial, st.integers(0, max_deg), st.integers(0, max_deg),
                     st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool))


def to_sympy(p: Poly2):
    return sum((sympy.Rational(c.numerator, c.denominator) * SX**i * SY**j
                for (i, j), c in p.terms.items()), sympy.Integer(0))


def from_sympy(expr) -> Poly2:
    poly = sympy.Poly(expr, SX, SY, domain="QQ")
    return Poly2({m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items()})


def canonical(expr) -> RatFunc2:
    """sympy's reduced fraction, scaled so the denominator is grlex-monic."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num, den = from_sympy(num), from_sympy(den)
    lc = den.leading_term()[1]
    return RatFunc2(num.scale(1 / lc), den.scale(1 / lc))


def same_up_to_scalar(a: Poly2, b: Poly2) -> bool:
    return a.scale(b.leading_term()[1]) == b.scale(a.leading_term()[1])


# --- normalize --------------------------------------------------------------------


@ORACLE
@given(polys(), polys(), polys(2, 3))
def test_normalize_matches_cancel(p, q, h):
    assert normalize(p * h, q * h) == canonical(to_sympy(p) / to_sympy(q))


@ORACLE
@given(polys(), monomials(), polys(2, 3))
def test_normalize_matches_cancel_monomial_side(p, m, h):
    assert normalize(p, m) == canonical(to_sympy(p) / to_sympy(m))
    assert normalize(m * h, p * h) == canonical(to_sympy(m) / to_sympy(p))


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
    assert all(c.denominator == 1 for c in ours.terms.values())
    assert ours.leading_term()[1] > 0


def test_gcd_heuristic_candidate_has_no_zero_digits():
    # x + y^2 evaluates to x + xi^2, whose base-xi digits include zeros.
    h = {(1, 0): 1, (0, 2): 1}
    p = polyrat._ip_mul(h, {(1, 0): 1, (0, 0): 1})
    q = polyrat._ip_mul(h, {(1, 0): 1, (0, 0): -1})
    assert polyrat._ip_heugcd(p, q)[0] == h


@ORACLE
@given(polys(3, 4, integral=True), polys(3, 4, integral=True))
def test_gcd_of_coprime_pair_returns_the_inputs_as_cofactors(a, b):
    assume(sympy.gcd(to_sympy(a), to_sympy(b)) == 1)
    p, q = polyrat._split(a)[1], polyrat._split(b)[1]
    g, cp, cq = polyrat._ip_gcd(p, q)
    assert g == {(0, 0): 1}
    assert cp == p and cq == q


@ORACLE
@given(polys(2, 3, integral=True), polys(2, 3, integral=True), shared_factors())
def test_gcd_cofactors_multiply_back(a, b, h):
    p, q = polyrat._split(a * h)[1], polyrat._split(b * h)[1]
    g, cp, cq = polyrat._ip_gcd(p, q)
    assert polyrat._ip_mul(g, cp) == p
    assert polyrat._ip_mul(g, cq) == q


def univariates():
    return st.dictionaries(st.integers(0, 4), st.integers(-9, 9).filter(bool), min_size=1, max_size=4)


@ORACLE
@given(univariates(), univariates(), univariates())
def test_univariate_gcd_matches_sympy(a, b, h):
    p, q = polyrat.univariate_mul(a, h), polyrat.univariate_mul(b, h)
    g, cp, cq = polyrat.univariate_gcd(p, q)
    as_x = lambda d: Poly2({(i, 0): c for i, c in d.items()})
    expected = sympy.gcd(to_sympy(as_x(p)), to_sympy(as_x(q)))
    assert as_x(g) == from_sympy(expected if sympy.Poly(expected, SX).LC() > 0 else -expected)
    assert polyrat.univariate_mul(g, cp) == p and polyrat.univariate_mul(g, cq) == q


def test_gcd_prs_fallback_matches_sympy(monkeypatch):
    reductions = []
    original = polyrat._xp_reduce

    def spy(f, g):
        reductions.append(1)
        return original(f, g)

    monkeypatch.setattr(polyrat, "_xp_reduce", spy)
    tall = 3**20000  # heights past the heuristic's size limit
    h = Poly2({(1, 1): 1, (1, 0): tall, (0, 0): 1})
    p = h * Poly2({(1, 0): 1, (0, 1): 2, (0, 0): 3})
    q = h * Poly2({(1, 0): 2, (0, 1): 1, (0, 0): 5})
    ours = poly_gcd(p, q)
    assert reductions, "the remainder sequence did not run"
    assert ours == h
    assert same_up_to_scalar(ours, from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))))
    assert normalize(p, q) == canonical(to_sympy(p) / to_sympy(q))


# --- one-term products -----------------------------------------------------------


def one_term_factors():
    """The constant 1, monomials with coefficient 1 or -1, and Fraction monomials."""
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
    ints, one = polyrat._split(p)[1], {(0, 0): 1}
    before = dict(ints)
    for product in (polyrat._ip_mul(one, ints), polyrat._ip_mul(ints, one)):
        assert product is ints or (product is one and ints == one)
    assert polyrat._ip_mul({(0, 0): -1}, ints) == {t: -c for t, c in ints.items()}
    assert ints == before


# --- dlog ratio ------------------------------------------------------------------


def sympy_dlog_ratio(f: RatFunc2, g: RatFunc2):
    """(x y / (f g)) (f_x g_y - f_y g_x) as a Fraction when sympy finds it constant."""
    sf, sg = to_sympy(f.num) / to_sympy(f.den), to_sympy(g.num) / to_sympy(g.den)
    if sf == 0 or sg == 0:
        return None
    jac = sympy.diff(sf, SX) * sympy.diff(sg, SY) - sympy.diff(sf, SY) * sympy.diff(sg, SX)
    ratio = sympy.cancel(SX * SY * jac / (sf * sg))
    return Fraction(int(ratio.p), int(ratio.q)) if ratio.is_Rational else None


def monomial_ratfunc(a: int, b: int) -> RatFunc2:
    return normalize(Poly2.monomial(max(a, 0), max(b, 0)), Poly2.monomial(max(-a, 0), max(-b, 0)))


@ORACLE
@given(polys(2, 3), polys(2, 3), polys(2, 3), st.tuples(*[st.integers(-2, 2)] * 4))
def test_dlog_ratio_matches_sympy(p, q, h, exps):
    # A generic pair, and f = x^a y^b p with g = x^c y^d h(f, f), whose
    # ratio is the constant a d - b c whenever p has one term.
    a, b, c, d = exps
    f = monomial_ratfunc(a, b) * normalize(p, Poly2.const(1))
    g = monomial_ratfunc(c, d) * substitute(normalize(h, Poly2.const(1)), f, f)
    pairs = [(normalize(p, q), normalize(h, p)), (f, g)]
    for f, g in pairs:
        assert dlog_ratio(f, g) == sympy_dlog_ratio(f, g)


# --- inner tables shared across substitute calls --------------------------------


def rebuilt(m: BirationalMap) -> BirationalMap:
    """A map equal to m made of new objects, down to the terms dicts."""

    def copy(r: RatFunc2) -> RatFunc2:
        return RatFunc2(Poly2(dict(r.num.terms)), Poly2(dict(r.den.terms)))

    return BirationalMap(copy(m.f), copy(m.g))


def sympy_substitute(r: RatFunc2, f: RatFunc2, g: RatFunc2) -> RatFunc2:
    point = {SX: to_sympy(f.num) / to_sympy(f.den), SY: to_sympy(g.num) / to_sympy(g.den)}
    return canonical((to_sympy(r.num) / to_sympy(r.den)).subs(point, simultaneous=True))


LETTERS = ("r1", "r2", "r3", "E", "E^-1", "E[1,0]", "A[0,1;-1,-1]", "A[2,1;1,1]^-1", "P")
LONGER = ("r1*r2", "r3*r1*r2", "E^2*A[1,1;0,1]", "P^2*r2")


def test_compose_tables_never_leak_between_inners(srng):
    inners = [realize(parse_word(t)) for t in LETTERS]
    outers = inners + [realize(parse_word(t)) for t in LONGER]
    # Each reference substitutes into a new copy of the inner map, which no
    # earlier call has seen.
    expected = {}
    for a, outer in enumerate(outers):
        for b, inner in enumerate(inners):
            fresh = rebuilt(inner)
            expected[a, b] = BirationalMap(substitute(outer.f, fresh.f, fresh.g),
                                           substitute(outer.g, fresh.f, fresh.g))
            if a < len(LETTERS):
                assert expected[a, b] == BirationalMap(sympy_substitute(outer.f, inner.f, inner.g),
                                                       sympy_substitute(outer.g, inner.f, inner.g))
    # Runs of one inner against outers of different degrees, alternating the
    # original objects, long-lived equal copies and short-lived copies whose
    # ids can be recycled.
    copies = [rebuilt(m) for m in inners]
    b = 0
    for _ in range(120):
        if srng.random() < 0.6:
            b = srng.randrange(len(inners))
        a = srng.randrange(len(outers))
        form = srng.random()
        inner = inners[b] if form < 0.4 else copies[b] if form < 0.7 else rebuilt(inners[b])
        assert compose(outers[a], inner) == expected[a, b], (a, b)


# --- exact division ---------------------------------------------------------------


@ORACLE
@given(polys(), polys())
def test_divexact_matches_sympy_quotient(p, d):
    assert poly_divexact(p * d, d) == from_sympy(sympy.exquo(to_sympy(p * d), to_sympy(d), SX, SY))


# --- substitute -------------------------------------------------------------------


def small_ratfuncs():
    return st.builds(normalize, polys(2, 3), polys(2, 2))


@ORACLE
@given(small_ratfuncs(), small_ratfuncs(), small_ratfuncs())
def test_substitute_matches_subs_then_cancel(r, f, g):
    point = {SX: to_sympy(f.num) / to_sympy(f.den), SY: to_sympy(g.num) / to_sympy(g.den)}
    den = sympy.cancel(to_sympy(r.den).subs(point, simultaneous=True))
    if den == 0:
        with pytest.raises(IdenticallySingularError):
            substitute(r, f, g)
        return
    expected = canonical(to_sympy(r.num).subs(point, simultaneous=True) / den)
    assert substitute(r, f, g) == expected
