"""Differential tests of the polynomial core against sympy.

sympy is a test-only oracle: the module is skipped where it is missing.
Each gcd route of ``polyrat._ip_gcd`` gets inputs that reach it: a monomial
side for the shortcut, a shared factor of positive degree in both variables
and coprime pairs for the two-level GCDHEU, and for the remainder sequence
one explicit input whose coefficients are too tall for GCDHEU plus random
pairs with GCDHEU made to give up, in two variables and in one.  The
two pullback kernels, which take no gcd, are checked against sympy's
``cancel`` of the substituted fraction, and ``realize``, which runs on them,
against a fold of ``compose``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from logcy2 import polyrat
from logcy2.birmap import IDENTITY_MAP, BirationalMap, compose, elementary_realization, monomial_map, realize
from logcy2.lattice import mat_inv
from logcy2.polyrat import (
    IdenticallySingularError,
    Poly2,
    RatFunc2,
    dlog_ratio,
    elementary_pullback,
    monomial_pullback,
    normalize,
    poly_divexact,
    poly_gcd,
    pullback,
    substitute,
)
from logcy2.sampling import realized_degree
from logcy2.words import Elementary, Linear, Word, parse_word

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
    content = sympy.Rational(p.content.numerator, p.content.denominator)
    return content * sum((c * SX**i * SY**j for (i, j), c in p.terms.items()), sympy.Integer(0))


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
    assert polyrat._heugcd(p, q) == (h, {(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): -1})


@ORACLE
@given(polys(3, 4, integral=True), polys(3, 4, integral=True))
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
def test_univariate_gcd_matches_sympy(a, b, h):
    check_univariate_gcd(a, b, h)


def check_univariate_gcd(a, b, h):
    # The gcd in Z[y] of two rows, integer content included; the rows are
    # built as products of x-only dicts.
    x_only = lambda d: {(j, 0): c for j, c in d.items()}
    p, q = ({j: c for (j, _), c in polyrat._ip_mul(x_only(u), x_only(h)).items()} for u in (a, b))
    g = polyrat._y_gcd([p, q])
    as_x = lambda d: Poly2({(i, 0): c for i, c in d.items()})
    expected = sympy.gcd(to_sympy(as_x(p)), to_sympy(as_x(q)))
    assert as_x(g) == from_sympy(expected if sympy.Poly(expected, SX).LC() > 0 else -expected)


def test_gcd_prs_fallback_matches_sympy(monkeypatch):
    calls = []
    original = polyrat._ip_prs_gcd

    def spy(p, q):
        calls.append(1)
        return original(p, q)

    monkeypatch.setattr(polyrat, "_ip_prs_gcd", spy)
    tall = 3**20000  # heights past the heuristic's size limit
    h = Poly2({(1, 1): 1, (1, 0): tall, (0, 0): 1})
    p = h * Poly2({(1, 0): 1, (0, 1): 2, (0, 0): 3})
    q = h * Poly2({(1, 0): 2, (0, 1): 1, (0, 0): 5})
    ours = poly_gcd(p, q)
    assert calls, "the remainder sequence did not run"
    assert ours == h
    assert same_up_to_scalar(ours, from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))))
    assert normalize(p, q) == canonical(to_sympy(p) / to_sympy(q))


@ORACLE
@given(polys(2, 3, integral=True), polys(2, 3, integral=True), shared_factors())
def test_gcd_forced_remainder_sequence_matches_sympy(a, b, h):
    # GCDHEU gives up on every pair, so the remainder sequence decides, and
    # it also takes the gcd of each y-content on x-only dicts.
    p, q = (a * h).terms, (b * h).terms
    expected = from_sympy(sympy.gcd(to_sympy(a * h), to_sympy(b * h)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyrat, "_heugcd", lambda p, q: None)
        g, cp, cq = polyrat._ip_gcd(p, q)
    assert same_up_to_scalar(Poly2(g), expected)
    assert math.gcd(*g.values()) == 1 and g[max(g, key=lambda t: (t[0] + t[1], t[0]))] > 0
    assert polyrat._ip_mul(g, cp) == p and polyrat._ip_mul(g, cq) == q


@ORACLE
@given(univariates(), univariates(), univariates())
def test_univariate_gcd_forced_remainder_sequence_matches_sympy(a, b, h):
    # GCDHEU gives up, so the remainder sequence decides on the x-only dicts.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyrat, "_heugcd", lambda p, q: None)
        check_univariate_gcd(a, b, h)


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
    ints, one = p.terms, {(0, 0): 1}
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


# --- compose into inner maps without steps -------------------------------------


def rebuilt(m: BirationalMap) -> BirationalMap:
    """A map equal to m made of new objects, down to the terms dicts."""

    def copy(r: RatFunc2) -> RatFunc2:
        return RatFunc2(Poly2(dict(r.num.terms)).scale(r.num.content), Poly2(dict(r.den.terms)).scale(r.den.content))

    return BirationalMap(copy(m.f), copy(m.g))


def sympy_substitute(r: RatFunc2, f: RatFunc2, g: RatFunc2) -> RatFunc2:
    point = {SX: to_sympy(f.num) / to_sympy(f.den), SY: to_sympy(g.num) / to_sympy(g.den)}
    return canonical((to_sympy(r.num) / to_sympy(r.den)).subs(point, simultaneous=True))


LETTERS = ("r1", "r2", "r3", "E", "E^-1", "E[1,0]", "A[0,1;-1,-1]", "A[2,1;1,1]^-1", "P")
LONGER = ("r1*r2", "r3*r1*r2", "E^2*A[1,1;0,1]", "P^2*r2")


def test_compose_tables_never_leak_between_inners(srng):
    # Inner maps without steps, so compose substitutes into them.
    inners = [rebuilt(realize(parse_word(t))) for t in LETTERS]
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


# --- pullbacks through the generators ---------------------------------------------

ONE_PLUS_X = Poly2({(0, 0): 1, (1, 0): 1})


def reduced_fractions():
    """Reduced fractions with Fraction coefficients, constant sides and (1 + x)-powers.

    A side is a constant or a random polynomial; each side is multiplied by
    (1 + x)^a y^b, so valuations up to 6 on either side are common.
    """
    constants = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool).map(Poly2.const)
    side = st.one_of(polys(2, 4), constants)
    powers = st.tuples(st.integers(0, 6), st.integers(0, 2))

    def build(p, q, pa, qa):
        return normalize(p * ONE_PLUS_X ** pa[0] * Poly2.monomial(0, pa[1]),
                         q * ONE_PLUS_X ** qa[0] * Poly2.monomial(0, qa[1]))

    return st.builds(build, side, side, powers, powers)


def sympy_ratfunc(r: RatFunc2):
    return to_sympy(r.num) / to_sympy(r.den)


UNIMODULAR = st.sampled_from([((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((1, 1), (0, 1)),
                              ((1, -2), (0, 1)), ((2, 1), (1, 1)), ((0, -1), (1, -1)), ((-3, 2), (-2, 1))])


@ORACLE
@given(reduced_fractions(), UNIMODULAR)
def test_monomial_pullback_matches_cancel(r, mat):
    (a, b), (c, d) = mat
    point = {SX: SX**a * SY**b, SY: SX**c * SY**d}
    assert pullback(r, [mat]) == canonical(sympy_ratfunc(r).subs(point, simultaneous=True))


@ORACLE
@given(reduced_fractions(), st.integers(-4, 4).filter(bool))
def test_elementary_pullback_matches_cancel(r, e):
    point = {SY: SY * (1 + SX) ** -e}
    assert pullback(r, [e]) == canonical(sympy_ratfunc(r).subs(point, simultaneous=True))


@ORACLE
@given(reduced_fractions(), st.lists(st.one_of(UNIMODULAR, st.integers(-3, 3).filter(bool)), max_size=3))
def test_kernels_keep_integer_pairs_reduced(r, steps):
    # On integer sides the kernels return a pair with no common
    # factor at all, which pullback then only scales.
    num, den = polyrat._int_pair(r)
    for step in steps:
        num, den = (elementary_pullback if isinstance(step, int) else monomial_pullback)(num, den, step)
    assert all(isinstance(c, int) for c in [*num.values(), *den.values()])
    assert polyrat._ip_gcd(Poly2(num).terms, Poly2(den).terms)[0] == {(0, 0): 1}
    assert pullback(r, steps) == normalize(Poly2(num), Poly2(den))


def test_elementary_pullback_cancels_a_high_power_of_one_plus_x():
    # y / (1 + x)^12 pulled back through E^-12 is y, and through E^12 gains
    # twelve more powers.
    r = normalize(Poly2.y(), ONE_PLUS_X**12)
    assert pullback(r, [-12]) == RatFunc2.y()
    assert pullback(r, [12]) == normalize(Poly2.y(), ONE_PLUS_X**24)


def test_inexact_synthetic_division_raises():
    # 1 + 2x (signs alternate: [1, -2]) is not divisible by 1 + x.
    with pytest.raises(polyrat.InexactDivisionError):
        polyrat._times_one_plus_x([1, -2], -1)
    assert polyrat._times_one_plus_x([1, 0, -1], -1) == [1, 1]


def letter_map(letter) -> BirationalMap:
    gen, e = letter
    if isinstance(gen, Linear):
        return monomial_map(gen.mat if e == 1 else mat_inv(gen.mat))
    return elementary_realization(gen.n, e)


def compose_fold(w: Word) -> BirationalMap:
    """The letter maps substituted one by one: each inner map goes in without its steps."""
    acc = IDENTITY_MAP
    for letter in w.letters:
        m = letter_map(letter)
        acc = compose(acc, BirationalMap(m.f, m.g))
    return acc


RAYS = [(0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (1, -1), (-1, 2), (2, 1)]
LINEARS = [Linear(((0, 1), (1, 0))), Linear(((1, 1), (0, 1))), Linear(((0, -1), (1, -1))), Linear(((-1, 0), (0, 1)))]


def powered_words():
    """Products of up to four generator powers: E[n]^k with |k| <= 12, linear letters to +-2.

    Every prefix stays within degree 60, so the reference fold stays fast.
    """
    elementary = st.tuples(st.sampled_from(RAYS).map(Elementary), st.integers(-12, 12).filter(bool))
    linear = st.tuples(st.sampled_from(LINEARS), st.sampled_from([1, -1, 2, -2]))
    atom = st.one_of(elementary, linear).map(lambda gk: Word(((gk[0], 1 if gk[1] > 0 else -1),)) ** abs(gk[1]))
    words = st.lists(atom, min_size=1, max_size=4).map(lambda ws: Word(tuple(l for w in ws for l in w.letters)))
    return words.filter(lambda w: all(realized_degree(Word(w.letters[:n])) <= 60 for n in range(1, len(w) + 1)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(powered_words())
@example(parse_word("E^12*A[0,1;1,0]*E^-7"))
@example(parse_word("E^-12*E[1,0]^12"))
@example(parse_word("E[1,1]^12*E[-1,0]^-3"))
def test_realize_matches_compose_fold(w):
    got, want = realize(w), compose_fold(w)
    assert got == want and str(got) == str(want)
