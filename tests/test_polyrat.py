from fractions import Fraction

import pytest

from logcy2.polyrat import (
    IdenticallySingularError,
    InexactDivisionError,
    PoleAtPointError,
    Poly2,
    RatFunc2,
    ZeroDenominatorError,
    evaluate,
    format_poly,
    format_ratfunc,
    normalize,
    parse_poly,
    parse_ratfunc,
    partial_derivative,
    poly_divexact,
    poly_gcd,
    substitute,
)

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


def test_divexact_rejects_inexact_division():
    with pytest.raises(InexactDivisionError):
        poly_divexact(X + ONE, X)
    with pytest.raises(InexactDivisionError):
        poly_divexact(ONE, X)


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
    with pytest.raises(IdenticallySingularError):
        substitute(r, rf(X), rf(X))


# --- derivatives ----------------------------------------------------------------


def test_partial_derivative_quotient_rule():
    r = rf(Y, ONE + X)
    assert partial_derivative(r, "x") == rf(-Y, (ONE + X) ** 2)


def test_partial_derivative_trivial():
    assert partial_derivative(rf(X), "y") == rf(Poly2.zero())
    assert partial_derivative(rf(X * X), "x") == rf(X.scale(2))


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


# --- textual form -----------------------------------------------------------------


def test_format_matches_documented_example():
    p = Poly2({(2, 1): Fraction(-1), (1, 0): Fraction(3)})
    assert format_poly(p) == "(-1)*x^2*y + 3*x"


def test_format_zero_and_constants():
    assert format_poly(Poly2.zero()) == "0"
    assert format_poly(Poly2.const(Fraction(1, 2))) == "(1/2)"
    assert format_poly(ONE + X) == "x + 1"


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
