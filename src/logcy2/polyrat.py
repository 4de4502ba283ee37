"""Exact sparse bivariate polynomials and rational functions over Q.

A polynomial is one rational content times a primitive integer polynomial:
a map from exponent pairs (i, j), both nonnegative, to nonzero ints with gcd
1 and a positive graded-lexicographic leading coefficient.  The content is
an int when it is integral; the zero polynomial is the empty map with
content 0.
A rational function is a reduced fraction of two such polynomials whose
denominator is monic in the graded-lexicographic leading term (total degree
first, then x-degree).  That canonical form makes structural equality a
valid equality test for rational functions, which is what the word-problem
oracle relies on.

GCDs run in integer arithmetic and return the cofactors with the gcd, each
computed once, by one of two routes (see ``_ip_gcd``): a monomial shortcut,
or the heuristic gcd GCDHEU, which raises its evaluation point until its
candidate divides both sides.  Every other routine runs on the integer
terms as well.
By Gauss's lemma products, powers, exact quotients, the gcd cofactors in
``normalize`` and ``pullback`` keep the terms primitive, so they only
multiply or divide contents; sums, derivatives and the result of
``substitute`` take one content gcd.  A product with a one-term factor
shifts and scales the other factor, and a factor 1 returns the other one as
it stands.  ``substitute`` composes into a map given by formulas, and is
the reference the pullbacks are tested against: it clears denominators,
expands, takes one ``normalize`` and keeps no state.
``dlog_ratio`` decides exactly whether dlog f ^ dlog g is a constant
multiple of dlog x ^ dlog y, in one integer pass over term pairs or, for
dense sides, in 13 products of Kronecker-packed ints; over ``PAIR_BUDGET``
pairs it raises first.
``pullback`` pulls a fraction back through monomial maps and powers of
E = (x, y (1 + x)^-1) with no substitution and no gcd, on y-rows of its
integer sides (see "pullbacks through the generators"); an E-step that
would build more than ``TERM_BUDGET`` terms raises first.
``arc_limit`` reads the leading order in t of a pair of fractions on a
boundary arc x = lam^p t^n1, y = lam^q t^n2 from each side's lowest t-row,
raised with ``_Powers`` and multiplied with ``_ip_mul``.
``leading_term``, ``constant_value`` and ``evaluate`` return Fractions;
``evaluate`` refuses powers of more than ``EVAL_BIT_BUDGET`` bits in all.
Negative powers never appear: monomial maps with negative exponents are
represented with explicit denominators.

Textual form (round-trip parseable):

    poly     := "0" | term (" + " term)*          terms in descending grlex
    term     := coeff | coeff "*" factors | factors
    factors  := varpow ("*" varpow)*
    varpow   := ("x" | "y") ("^" digits)?         exponent >= 2 when printed
    coeff    := digits | "(" "-"? digits ("/" digits)? ")"

A positive integer coefficient prints bare, 1 is omitted before variables,
anything negative or fractional is parenthesized: ``(-1)*x^2*y + 3*x``.
A rational function prints as ``num`` when the denominator is 1, otherwise
``(num) / (den)``.  "+" and "*" occur only as separators, so ``parse_poly``
splits the text at them; it also reads whitespace between tokens, any
exponent, and repeated monomials, whose coefficients it sums.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import re
import sys
from fractions import Fraction

from .errors import DomainError, Value, cut

Term = tuple[int, int]


# --- Poly2 -------------------------------------------------------------------


class Poly2:
    """Sparse bivariate polynomial over Q, stored as ``content * terms``.

    ``terms`` maps (i, j) to a nonzero ``int``; the dict is primitive (its
    coefficients have gcd 1) with a positive grlex-leading coefficient, so
    the integer routines below run on it as it stands.  ``content`` is one
    nonzero rational, an ``int`` when it is integral; the zero polynomial is
    ``{}`` with content 0.  The dict is shared, not copied, and must not be
    mutated.
    """

    __slots__ = ("terms", "content")

    def __init__(self, terms: dict[Term, int | Fraction] | None = None):
        clean: dict[Term, Fraction] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term {(i, j)}")
            c = Fraction(c)
            if c:
                clean[(i, j)] = c
        m = math.lcm(*[c.denominator for c in clean.values()])
        p = _canonical({t: c.numerator * (m // c.denominator) for t, c in clean.items()}, Fraction(1, m))
        self.terms, self.content = p.terms, p.content

    @staticmethod
    def _raw(terms: dict[Term, int], content: int | Fraction) -> "Poly2":
        """Internal constructor: terms already primitive with a positive leading coefficient."""
        p = object.__new__(Poly2)
        p.terms = terms
        p.content = content.numerator if content.denominator == 1 else content  # an int when integral
        return p

    # Construction helpers.

    @staticmethod
    def zero() -> "Poly2":
        return Poly2()

    @staticmethod
    def const(c) -> "Poly2":
        return Poly2({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, c=1) -> "Poly2":
        return Poly2({(i, j): c})

    @staticmethod
    def x() -> "Poly2":
        return Poly2.monomial(1, 0)

    @staticmethod
    def y() -> "Poly2":
        return Poly2.monomial(0, 1)

    # Structure.

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0)}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.content)

    def leading_term(self) -> tuple[Term, Fraction]:
        """Greatest term in graded-lex order (total degree, then x-degree)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = _grlex_max(self.terms)
        return key, Fraction(self.content * self.terms[key])

    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.content == other.content and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.content, frozenset(self.terms.items())))

    # Arithmetic.  Products, powers and exact quotients of primitive dicts
    # with positive leading coefficients are again such dicts (Gauss's
    # lemma), so only sums and derivatives take a content gcd.

    def __add__(self, other: "Poly2") -> "Poly2":
        m = math.lcm(self.content.denominator, other.content.denominator)
        out = {}
        for p in (self, other):
            _ip_add_scaled(out, p.terms, p.content.numerator * (m // p.content.denominator))
        return _canonical(out, Fraction(1, m))

    def __neg__(self) -> "Poly2":
        return Poly2._raw(self.terms, -self.content)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        return Poly2._raw(_ip_mul(self.terms, other.terms), self.content * other.content)

    def scale(self, c) -> "Poly2":
        c = Fraction(c)
        return Poly2._raw(self.terms if c else {}, self.content * c)

    def __pow__(self, k: int) -> "Poly2":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return Poly2._raw(_Powers(self.terms)[k], self.content**k)

    def derivative(self, var: str) -> "Poly2":
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        out: dict[Term, int] = {}
        for (i, j), c in self.terms.items():
            if var == "x" and i:
                out[(i - 1, j)] = c * i
            elif var == "y" and j:
                out[(i, j - 1)] = c * j
        return _canonical(out, self.content)

    def evaluate(self, a, b) -> Fraction:
        a, b = Fraction(a), Fraction(b)
        return self.content * sum((c * a**i * b**j for (i, j), c in self.terms.items()), Fraction(0))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly2({format_poly(self)!r})"


# --- integer-level machinery -------------------------------------------------
#
# The product, gcd, exact division and substitution work on plain dicts
# with int coefficients, which is what the terms of a Poly2 are:
#   ypoly:  dict[j -> int]       an element of Z[y]
#   ipoly:  dict[(i, j) -> int]  an element of Z[x, y]


_ONE = {(0, 0): 1}


class InexactDivisionError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


def _grlex_max(p: dict[Term, int]) -> Term:
    return max(p, key=lambda t: (t[0] + t[1], t[0]))


def _canonical(p: dict[Term, int], factor: int | Fraction = 1) -> Poly2:
    """The Poly2 factor * p, for a zero-free p and a nonzero rational factor.

    p is divided by its integer content, signed so that the grlex-leading
    coefficient is positive, and what it is divided by goes into ``content``.
    """
    if not p:
        return Poly2._raw({}, 0)
    c = math.gcd(*p.values())
    if p[_grlex_max(p)] < 0:
        c = -c
    return Poly2._raw(p if c == 1 else {t: v // c for t, v in p.items()}, factor * c)


def _ip_scale(p: dict[Term, int], c: int) -> dict[Term, int]:
    """c * p for a nonzero int c; p itself when c is 1."""
    return p if c == 1 else {t: v * c for t, v in p.items()}


def _ip_mul(p: dict[Term, int], q: dict[Term, int]) -> dict[Term, int]:
    """Product in Z[x, y].

    When either factor has one term, the other factor's exponents are
    shifted and its coefficients scaled, and a factor equal to 1 gives the
    other factor back as it stands, so the result may be an argument's own
    dict; like every terms dict here, it is shared and never mutated.
    Otherwise a monomial (i, j) is keyed by the int i * base + j, with base
    above every y-degree of the product, so the key of a product is the sum
    of the keys and no tuple is built per term pair.
    """
    if not p or not q:
        return {}
    if q == _ONE:
        return p
    if p == _ONE:
        return q
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        [((a, b), c)] = p.items()
        return {(i + a, j + b): c * v for (i, j), v in q.items()}
    base = 1 + max(j for _, j in p) + max(j for _, j in q)
    b = [(i * base + j, c) for (i, j), c in q.items()]
    out: dict[int, int] = {}
    get = out.get
    for (i, j), c1 in p.items():
        k1 = i * base + j
        for k2, c2 in b:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {divmod(k, base): c for k, c in out.items() if c}


def _ip_add_scaled(acc: dict[Term, int], p: dict[Term, int], c: int) -> None:
    """acc += c * p in place; cancelled terms are deleted."""
    get = acc.get
    for t, v in p.items():
        if s := get(t, 0) + c * v:
            acc[t] = s
        else:
            del acc[t]


def _ip_divexact(p: dict[Term, int], d: dict[Term, int]) -> dict[Term, int]:
    """Exact quotient p/d in Z[x, y]; raises InexactDivisionError otherwise.

    The remainder's grlex-leading term comes off a max-heap of its
    monomials, and entries whose term has since cancelled are skipped when
    popped.  A monomial (i, j) is keyed by the int (i + j) * base + i, with
    base above every total degree involved, so integer order is grlex order
    and the key of a product is the sum of the keys.
    """
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    base = 1 + max(i + j for i, j in [*p, *d])
    dk = {(i + j) * base + i: c for (i, j), c in d.items()}
    r = {(i + j) * base + i: c for (i, j), c in p.items()}
    # The grlex-lowest term of p is that of d times that of the quotient.
    if r:
        k, low = min(r), min(dk)
        (deg, i), (low_deg, low_i) = divmod(k, base), divmod(low, base)
        if r[k] % dk[low] or i < low_i or deg - i < low_deg - low_i:
            raise InexactDivisionError("inexact division in Z[x, y]")
    lead = max(dk)
    lc = dk.pop(lead)
    lead_deg, lead_i = divmod(lead, base)
    rest = list(dk.items())
    heap = [-k for k in r]
    heapq.heapify(heap)
    out: dict[int, int] = {}
    while heap:
        k = -heapq.heappop(heap)
        c = r.pop(k, 0)
        if not c:
            continue
        qc, rem = divmod(c, lc)
        deg, i = divmod(k, base)
        if rem or i < lead_i or deg - i < lead_deg - lead_i:
            raise InexactDivisionError("inexact division in Z[x, y]")
        k -= lead
        out[k] = qc
        for kd, cd in rest:
            t = k + kd
            v = r.get(t)
            if v is None:
                r[t] = -qc * cd
                heapq.heappush(heap, -t)
            else:
                v -= qc * cd
                if v:
                    r[t] = v
                else:
                    del r[t]
    return {(k % base, k // base - k % base): c for k, c in out.items()}


def _balanced_digits(value: int, xi: int):
    """Digits of value in balanced base xi (each in (-xi/2, xi/2])."""
    k = 0
    while value:
        digit = value % xi
        if 2 * digit > xi:
            digit -= xi
        yield k, digit
        value = (value - digit) // xi
        k += 1


# GCDHEU evaluates at xi >= 2 * min(height) + 29 and only ever raises xi.
# Every root of the input of smaller height is below 1 + height in absolute
# value (Cauchy), so once xi > 2 * height + 2 a nonconstant common factor G,
# in either variable, has |G(xi)| > xi / 2 and its value never fits in one
# balanced digit.  A candidate equal to 1 is then the true gcd, with no
# division to check it.  Lowering the starting point loses that guarantee.
#
# The loop that raises xi always ends.  Write f = G * F and g = G * H, with
# F and H coprime; no integer divides both, as the content c is out.  Once
# xi is past the roots of Res_x(F, H)(y), the gcd of the images is G(xi)
# times an integer d, and d divides every x-coefficient of F(x, xi) and
# H(x, xi).  Those coefficient polynomials have no common factor, so by
# Bezout d divides one fixed nonzero integer N; in one variable
# N = Res(F, H).  So once xi > 2 * N * |G|, with |G| G's largest
# coefficient, the balanced digits of d * G(xi) are exact, the candidate
# is G, and its divisions succeed.


def _heugcd(p: dict[Term, int], q: dict[Term, int]):
    """(g, p/g, q/g) for nonzero p, q in Z[x, y], content included in g.

    GCDHEU (Char, Geddes and Gonnet 1989).  Two constants give their integer
    gcd.  Otherwise the top variable, y if either side has a y and else x,
    is set to a large xi, the gcd of the two images comes from a call on
    them, and its values are read back in balanced base xi as coefficients
    of that variable; the primitive candidate is checked by exact division,
    and the two quotients that prove it are the cofactors.  A candidate that
    fails, or an image that vanishes, raises xi and tries again, until a
    candidate divides both sides (see the comment above).
    """
    c = math.gcd(*p.values(), *q.values())
    f, g = (d if c == 1 else {t: a // c for t, a in d.items()} for d in (p, q))
    v = 1 if any(j for _, j in [*p, *q]) else 0
    deg = max(t[v] for t in [*p, *q])
    if not deg:
        return {(0, 0): c}, f, g
    # The side of lower degree in the evaluated variable is divided first:
    # its quotient is shorter, so a wrong candidate fails there in fewer
    # steps, where the other side's division may run its full length
    # before a remainder shows.
    first = int(max(t[v] for t in g) < deg)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    while True:
        fe, ge = _image(f, v, xi), _image(g, v, xi)
        if fe and ge:
            gamma = _heugcd(fe, ge)[0]
            h = _canonical({(i, k) if v else (k, i): d
                            for (i, _), a in gamma.items() for k, d in _balanced_digits(a, xi) if d}).terms
            if h == _ONE:
                return {(0, 0): c}, f, g
            try:
                cofactors = {k: _ip_divexact((f, g)[k], h) for k in (first, 1 - first)}
            except InexactDivisionError:
                pass
            else:
                return _ip_scale(h, c), cofactors[0], cofactors[1]
        xi = xi * 73794 // 27011 + 1


def _image(p: dict[Term, int], v: int, xi: int) -> dict[Term, int]:
    """p at x = xi (v = 0, p x-only) or y = xi (v = 1), as {(i, 0): value} without zero values."""
    rows: dict[int, dict[int, int]] = {}
    for t, c in p.items():
        rows.setdefault(t[1 - v], {})[t[v]] = c
    out = {}
    for i, row in rows.items():
        value = 0
        for k in range(max(row), -1, -1):
            value = value * xi + row.get(k, 0)
        if value:
            out[(i, 0)] = value
    return out


def _ip_gcd(p: dict[Term, int], q: dict[Term, int]):
    """(g, p/g, q/g) for primitive p, q in Z[x, y].

    g is primitive with a positive grlex-leading coefficient.  A zero side
    makes the other side the gcd.  Otherwise there are two routes: a
    monomial input, whose coefficient is 1 since it is primitive, settles g
    as a monomial at once and the cofactors are exponent shifts; every
    other pair goes to ``_heugcd``, which gives the cofactors with g, from
    the divisions that prove it.  The monomial route is not only a shortcut:
    ``_image`` runs Horner's rule over every degree of the evaluated
    variable, and realized monomial maps reach degrees near 10^12 (the x of
    ``A[2,1;1,1]^30`` is x^2504730781961*y^1548008755920), where GCDHEU
    would not finish.
    """
    if not p or not q:
        return p or q, (_ONE if p else {}), (_ONE if q else {})
    if len(p) == 1 or len(q) == 1:
        mono, other = (p, q) if len(p) == 1 else (q, p)
        ((mi, mj),) = mono
        gi = min([mi] + [i for i, _ in other])
        gj = min([mj] + [j for _, j in other])
        cp, cq = ({(i - gi, j - gj): c for (i, j), c in d.items()} for d in (p, q))
        return {(gi, gj): 1}, cp, cq
    return _heugcd(p, q)


def _int_pair(r: RatFunc2) -> tuple[dict[Term, int], dict[Term, int]]:
    """(a * num.terms, b * den.terms): integer sides of r, with a / b the ratio of r's contents.

    When the ratio is 1 the terms dicts themselves are returned, not copies.
    """
    c = Fraction(r.num.content, r.den.content)
    return _ip_scale(r.num.terms, c.numerator), _ip_scale(r.den.terms, c.denominator)


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """Gcd up to units, returned primitive over Z with positive leading coeff."""
    g = _ip_gcd(p.terms, q.terms)[0]
    return Poly2._raw(g, 1 if g else 0)


def poly_divexact(p: Poly2, d: Poly2) -> Poly2:
    """Exact quotient p/d; raises InexactDivisionError when d does not divide p."""
    return Poly2._raw(_ip_divexact(p.terms, d.terms), Fraction(p.content, d.content))


# --- RatFunc2 ----------------------------------------------------------------


class ZeroDenominatorError(ZeroDivisionError):
    pass


class PoleAtPointError(DomainError, ZeroDivisionError):
    pass


class RatFunc2(Value):
    """Reduced fraction of bivariate polynomials, denominator grlex-monic.

    Use :func:`normalize` (or the arithmetic operators) to construct values;
    the constructor trusts its inputs.
    """

    __slots__ = ("num", "den")
    num: Poly2
    den: Poly2

    @staticmethod
    def from_poly(p: Poly2) -> "RatFunc2":
        return RatFunc2(p, Poly2.const(1))

    @staticmethod
    def const(c) -> "RatFunc2":
        return RatFunc2.from_poly(Poly2.const(c))

    @staticmethod
    def x() -> "RatFunc2":
        return RatFunc2.from_poly(Poly2.x())

    @staticmethod
    def y() -> "RatFunc2":
        return RatFunc2.from_poly(Poly2.y())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def __add__(self, other: "RatFunc2") -> "RatFunc2":
        return normalize(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc2") -> "RatFunc2":
        return normalize(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RatFunc2") -> "RatFunc2":
        return normalize(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc2") -> "RatFunc2":
        return normalize(self.num * other.den, self.den * other.num)

    def __neg__(self) -> "RatFunc2":
        return RatFunc2(-self.num, self.den)

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc2({format_ratfunc(self)!r})"


def normalize(num: Poly2, den: Poly2) -> RatFunc2:
    """Reduced canonical fraction num/den.

    The gcd and its cofactors come from the two primitive terms dicts in
    one call; the cofactors are primitive again, so the contents and the
    denominator's leading coefficient only set the two new contents, which
    make the denominator grlex-monic.
    """
    if den.is_zero():
        raise ZeroDenominatorError("denominator is identically zero")
    if num.is_zero():
        return RatFunc2(Poly2.zero(), Poly2.const(1))
    _, ip, iq = _ip_gcd(num.terms, den.terms)
    lc = iq[_grlex_max(iq)]
    return RatFunc2(Poly2._raw(ip, Fraction(num.content, den.content * lc)), Poly2._raw(iq, Fraction(1, lc)))


class _Powers:
    """Lazy powers of an integer polynomial, square-and-multiply with memoization.

    Monomial words drive exponents into the hundreds; computing only the
    requested powers keeps composition cost proportional to the sparse data.
    """

    def __init__(self, base: dict[Term, int]):
        self.cache = {0: _ONE, 1: base}

    def __getitem__(self, k: int) -> dict[Term, int]:
        if k not in self.cache:
            half = self[k // 2]
            square = _ip_mul(half, half)
            self.cache[k] = square if k % 2 == 0 else _ip_mul(square, self.cache[1])
        return self.cache[k]


def substitute(r: RatFunc2, f: RatFunc2, g: RatFunc2) -> RatFunc2:
    """r(f, g) in canonical form.

    Both sides of r(f, g) are multiplied by fd^dx gd^dy, with dx and dy r's
    degrees in x and y, so each becomes a polynomial; terms are grouped by
    x-exponent, so one large product is taken per distinct exponent.  A
    denominator that vanishes identically reaches ``normalize``, which raises
    ZeroDenominatorError.
    """
    if r.num.is_zero():
        return RatFunc2(Poly2.zero(), Poly2.const(1))
    # Each fraction's contents are folded into its integer sides, which
    # leaves its value alone.
    rn, rd = _int_pair(r)
    fn, fd = map(_Powers, _int_pair(f))
    gn, gd = map(_Powers, _int_pair(g))
    dx = max(i for i, _ in [*rn, *rd])
    dy = max(j for _, j in [*rn, *rd])
    # The y-factor of each y-exponent of r, shared by both sides.
    gy = {j: _ip_mul(gn[j], gd[dy - j]) for j in {j for _, j in [*rn, *rd]}}

    def cleared(p: dict[Term, int]) -> dict[Term, int]:
        by_i: dict[int, dict[Term, int]] = {}
        for (i, j), c in p.items():
            _ip_add_scaled(by_i.setdefault(i, {}), gy[j], c)
        total: dict[Term, int] = {}
        for i, inner in by_i.items():
            _ip_add_scaled(total, _ip_mul(fn[i], _ip_mul(fd[dx - i], inner)), 1)
        return total

    return normalize(_canonical(cleared(rn)), _canonical(cleared(rd)))


# --- pullbacks through the generators ----------------------------------------
#
# A monomial map (x, y) -> (x^B11 y^B12, x^B21 y^B22) is an automorphism of
# Z[x^+-1, y^+-1], and E^e = (x, y (1 + x)^-e) one of Z[x^+-1, y^+-1,
# (1 + x)^-1], so a reduced num/den pulled back through either can only gain
# common monomials and, for E^e, powers of 1 + x; each step divides exactly
# those out, with no gcd.  ``pullback`` holds each side as rows (j, lo, b),
# b[t] = (-1)^i c for the coefficient c of x^i y^j, i = lo + t: in these
# signs a product by 1 + x is b[t] - b[t - 1], and a quotient a running sum,
# exact when its last entry is 0.  Row ends are nonzero and stay so, and a
# linear form in the exponents peaks at an end, so shifts and leading
# coefficients are read there.  By Gauss's lemma each side stays primitive;
# the exit applies the last matrix, the shift and the sign in one pass per
# side and sets the contents so the denominator is grlex-monic.


_MAT_ID = ((1, 0), (0, 1))

# The most terms one side of an E-step may build.  (r1*r2*r3)^3 needs 11925;
# (r1*r2*r3)^4 would need 216401 and (r1*r2*r3)^5 ran out of memory.
TERM_BUDGET = 12_000


class TermBudgetError(DomainError, ArithmeticError):
    """A pullback or ``dlog_ratio`` would go over ``TERM_BUDGET`` or ``PAIR_BUDGET``."""


def _monomial_step(sides, mat: tuple[Term, Term]):
    """Both sides, terms dicts or rows, pulled back through the monomial map ``mat``, as rows.

    x^i y^j becomes x^(B11 i + B21 j) y^(B12 i + B22 j), then both sides
    shift by the least exponents, the new rows' lowest ends; an odd x-shift
    flips every alternating sign.
    """
    (a, b), (c, d) = mat
    grouped = []
    for side in sides:
        g: dict[int, dict[int, int]] = collections.defaultdict(dict)
        if isinstance(side, dict):
            for (i, j), v in side.items():
                i2 = a * i + c * j
                g[b * i + d * j][i2] = -v if i2 & 1 else v
        else:
            for j, lo, row in side:
                cj, dj = c * j, d * j
                for i, v in enumerate(row, lo):
                    if v:
                        i2 = a * i + cj
                        g[b * i + dj][i2] = -v if (i ^ i2) & 1 else v
        grouped.append([(j, min(row), row) for j, row in g.items()])
    si = min(lo for side in grouped for _, lo, _ in side)
    sj = min(j for side in grouped for j, _, _ in side)
    sign = -1 if si & 1 else 1
    return [[(j - sj, lo - si, [sign * row.get(i, 0) for i in range(lo, max(row) + 1)])
             for j, lo, row in side] for side in grouped]


def _one_plus_x_quotient(b: list[int], cap: int) -> tuple[int, list[int]]:
    """(v, b / (1 + x)^v), v the times 1 + x divides the row b up to ``cap``: one running sum each."""
    v = 0
    while v < cap and not (q := list(itertools.accumulate(b))).pop():
        b = q
        v += 1
    return v, b


def _binomial_row(t: int) -> tuple[int, ...]:
    """(-1)^k C(t, k) for k = 0..t, the row of (1 + x)^t, by C(t, k + 1) = C(t, k) (t - k) / (k + 1)."""
    a = [1]
    for k in range(t):
        a.append(-a[-1] * (t - k) // (k + 1))
    return tuple(a)


def _times_one_plus_x(b: list[int], t: int) -> list[int]:
    """The row b times (1 + x)^t: b itself for t = 0, else one convolution with the binomial row."""
    if t < 0:
        raise AssertionError(f"negative power {cut(t)} of 1 + x")
    if not t:
        return b
    a = _binomial_row(t)
    out = [0] * (len(b) + t)
    for s, c in enumerate(b):
        if c:
            for k, v in enumerate(a, s):
                out[k] += c * v
    return out


def _elementary_step(sides, e: int):
    """Both sides' rows pulled back through E^e, for a reduced num/den.

    Row j, R_j(x) y^j, becomes (1 + x)^(-e j - k) R_j y^j, with k the least
    v(R_j) - e j over both sides for the (1 + x)-valuation v: both sides
    times (1 + x)^-k, which leaves the least valuation 0.  Counting v_j
    keeps Q_j = R_j / (1 + x)^v_j, times (1 + x)^(v_j - e j - k) after.
    No monomial is gained, as each row keeps its y- and lowest x-degree.
    """
    # Rows in increasing -e j, each counted up to the running k + e j: a row
    # below that cap lowers k to v_j - e j, one at it has v_j - e j = k then,
    # and one with -e j >= k is not counted, so v_j - e j >= the final k.  k
    # starts at the least len(R_j) - 1 - e j: a row has fewer powers of 1 + x
    # than terms.
    rows = [(-e * j, b) for side in sides for j, _, b in side]
    k = min(base + len(b) - 1 for base, b in rows)
    found = [None] * len(rows)
    for base, n in sorted((base, n) for n, (base, _) in enumerate(rows)):
        v, _ = found[n] = _one_plus_x_quotient(rows[n][1], k - base)
        if base + v < k:
            k = base + v
    # Row j is rebuilt with len(R_j) - e j - k coefficients, zeros included.
    size = max(sum(len(b) - e * j - k for j, _, b in side) for side in sides)
    if size > TERM_BUDGET:
        raise TermBudgetError(f"a pullback through E^{e} would build {cut(size)} terms, over {TERM_BUDGET}")
    quotients = iter(found)  # zip stops at each side's end
    return [[(j, lo, _times_one_plus_x(q, v - e * j - k)) for (j, lo, _), (v, q) in zip(side, quotients)]
            for side in sides]


def pullback(r: RatFunc2, steps: list[int | tuple[Term, Term]]) -> RatFunc2:
    """r pulled back through each step in turn, in canonical form.

    A step is an int e, for E^e, or a 2x2 integer matrix, for the monomial
    map.  The first matrix, or the identity, turns the terms dicts into
    rows, and the exit applies the last one (see above).
    """
    if r.num.is_zero():
        return r
    steps = list(steps)
    last = steps.pop() if steps and not isinstance(steps[-1], int) else _MAT_ID
    if not steps or isinstance(steps[0], int):
        steps.insert(0, _MAT_ID)
    sides = [r.num.terms, r.den.terms]
    for step in steps:
        sides = _elementary_step(sides, step) if isinstance(step, int) else _monomial_step(sides, step)
    (a, b), (c, d) = last
    ends = [[(i, j, -row[s] if i & 1 else row[s])
             for j, lo, row in side for s, i in ((0, lo), (-1, lo + len(row) - 1))]
            for side in sides]
    si = min([a * i + c * j for side in ends for i, j, _ in side])
    sj = min([b * i + d * j for side in ends for i, j, _ in side])
    # The grlex-leading coefficient of each side, from its row ends.
    ln, ld = [max([((a + b) * i + (c + d) * j, a * i + c * j, v) for i, j, v in side])[2] for side in ends]
    # A side whose leading coefficient is negative flips its signs into its content.
    num, den = {}, {}
    for out, side, flip in ((num, sides[0], ln < 0), (den, sides[1], ld < 0)):
        for j, lo, row in side:
            ci, cj = c * j - si, d * j - sj
            for i, v in enumerate(row, lo):
                if v:
                    out[a * i + ci, b * i + cj] = -v if (i ^ flip) & 1 else v
    sn, sd = (1 if ln > 0 else -1), (1 if ld > 0 else -1)
    return RatFunc2(Poly2._raw(num, Fraction(sn * r.num.content, r.den.content * ld)),
                    Poly2._raw(den, Fraction(1, sd * ld)))


def partial_derivative(r: RatFunc2, var: str) -> RatFunc2:
    """Exact quotient-rule derivative."""
    n, d = r.num, r.den
    return normalize(n.derivative(var) * d - n * d.derivative(var), d * d)


def _euler_parts(num: dict[Term, int], den: dict[Term, int], base: int) -> dict[int, list[int]]:
    """{key: [v, vx, vy]}: v = num den, vx = Dx(num) den - num Dx(den), vy alike.

    A term pair c1 x^i1 y^j1, c2 x^i2 y^j2 adds c1 c2, c1 c2 (i1 - i2) and
    c1 c2 (j1 - j2); (i, j) is keyed (i + j) * base + i, as in ``_ip_divexact``.
    """
    dl = [(i, j, (i + j) * base + i, c) for (i, j), c in den.items()]
    out: dict[int, list[int]] = {}
    get = out.get
    for (i1, j1), c1 in num.items():
        k1 = (i1 + j1) * base + i1
        for i2, j2, k2, c2 in dl:
            c = c1 * c2
            k = k1 + k2
            e = get(k)
            if e is None:
                out[k] = [c, c * (i1 - i2), c * (j1 - j2)]
            else:
                e[0] += c
                e[1] += c * (i1 - i2)
                e[2] += c * (j1 - j2)
    return out


def _dlog_pairs(sides) -> Fraction | None:
    """Fraction(c) if D = 0, else None, by one pass over the term pairs (see ``dlog_ratio``)."""
    # The x-degree of every product monomial stays below base, so keys add.
    base = 1 + sum(max(i for i, _ in p) for p in sides)
    fp, gp = _euler_parts(sides[0], sides[1], base), _euler_parts(sides[2], sides[3], base)
    # The leading parts come from the leading pairs alone: vx / v and vy / v
    # are their exponent differences.
    (v, px, py), (w, qx, qy) = fp[max(fp)], gp[max(gp)]
    c = (px * qy - py * qx) // (v * w)
    gl = [(k, *e) for k, e in gp.items()]
    acc: dict[int, int] = {}
    get = acc.get
    for k1, (v, px, py) in fp.items():
        e = c * v
        for k2, w, qx, qy in gl:
            k = k1 + k2
            acc[k] = get(k, 0) + px * qy - py * qx - e * w
    return None if any(acc.values()) else Fraction(c)


def _packing(sides):
    """(boxes (i0, i1, j0, j1), nx, nb, bits of F G), with B = 8 nb >= 2 + bitlen(e^2 N).

    e is above every exponent and N is the sides' L1 norms multiplied: a
    term pair weighs at most e in Px or Py and |c| <= 2 e^2, so |D| < 4 e^2 N
    and a weighted side is at most e N.
    """
    boxes = [(min(xs), max(xs), min(ys), max(ys)) for xs, ys in (zip(*p) for p in sides)]
    e = 1 + max(max(b[1], b[3]) for b in boxes)
    nb = ((e * e * math.prod(sum(map(abs, p.values())) for p in sides)).bit_length() + 9) // 8
    nx = 1 + sum(b[1] - b[0] for b in boxes)
    return boxes, nx, nb, 8 * nb * nx * (1 + sum(b[3] - b[2] for b in boxes))


def _dlog_packed(sides, boxes, nx: int, nb: int) -> Fraction | None:
    """``_dlog_pairs`` by 13 products of packed ints.

    Each side / x^i0 y^j0 and its copies weighted by i and by j are packed
    at x = 2^(8 nb), y = x^nx; a slot holds its coefficient plus half its
    range, and the offsets come off after.
    """
    half = 1 << (8 * nb - 1)
    packed = []
    for p, (i0, i1, j0, j1) in zip(sides, boxes):
        fill = half.to_bytes(nb, "little") * (i1 - i0 + 1 + nx * (j1 - j0))
        b0, bx, by = bufs = [bytearray(fill) for _ in range(3)]
        for (i, j), v in p.items():
            s = (i - i0 + nx * (j - j0)) * nb
            b0[s : s + nb] = (v + half).to_bytes(nb, "little")
            bx[s : s + nb] = (v * i + half).to_bytes(nb, "little")
            by[s : s + nb] = (v * j + half).to_bytes(nb, "little")
        zero = int.from_bytes(fill, "little")
        packed.append([int.from_bytes(b, "little") - zero for b in bufs])
    (v, px, py), (w, qx, qy) = ((a * b, ax * b - a * bx, ay * b - a * by)
                                for (a, ax, ay), (b, bx, by) in (packed[:2], packed[2:]))
    (a, b), (a2, b2), (p, q), (p2, q2) = map(_grlex_max, sides)
    c = (a - a2) * (q - q2) - (b - b2) * (p - p2)
    return None if px * qy - py * qx != c * v * w else Fraction(c)


def _support_size(p: dict[Term, int], q: dict[Term, int]) -> int:
    """The number of monomials that the term pairs of p q reach."""
    base = 1 + max(j for _, j in p) + max(j for _, j in q)
    kq = [i * base + j for i, j in q]
    keys: set[int] = set()
    for i, j in p:
        keys.update(map((i * base + j).__add__, kq))
    return len(keys)


# The most term pairs the pair loop of ``dlog_ratio`` may visit, at about
# 0.6 us a pair (CPython 3.11): max(|fn| |fd|, |gn| |gd|), then
# |supp F| |supp G|.  (r1*r2*r3)^2 needs 621045; P*r3*r2*r1*E[0,1]*E[-3,2]
# would need 12.9 million, refused in about 0.1 s.  Packing wins over
# PACK_PAIRS pairs while F G packs into at most 4 bits a pair.
PAIR_BUDGET = 1_000_000
PACK_PAIRS = 1000


def dlog_ratio(f: RatFunc2, g: RatFunc2) -> Fraction | None:
    """c with dlog f ^ dlog g = c dlog x ^ dlog y, or None when no constant c does.

    With Dx = x d/dx, F = fn fd, Px = Dx(fn) fd - fn Dx(fd), Py alike, and
    G, Qx, Qy from g, the claim is D = Px Qy - Py Qx - c F G = 0 in Z[x, y].
    Only the grlex-leading terms of the four sides reach the top monomial of
    F G, so c is the determinant of their exponent differences fn - fd and
    gn - gd.  ``_dlog_pairs`` visits the term pairs; ``_dlog_packed``, for
    dense sides (see ``PACK_PAIRS``), shifts each side by its least
    exponents, which divides D by a monomial, and evaluates D at x = 2^B,
    y = 2^(B nx), nx above its x-degree, so each monomial has its own B-bit
    slot.  B is above |D| (``_packing``), so the lowest nonzero coefficient
    is no multiple of 2^B: D packs to 0 only when D = 0.  f and g need not
    be reduced; a zero f or g gives None.
    """
    if not f.den or not g.den:
        raise ZeroDenominatorError("denominator is identically zero")
    if not f.num or not g.num:
        return None
    # Constants have dlog 0, so the contents drop out.
    sides = fn, fd, gn, gd = f.num.terms, f.den.terms, g.num.terms, g.den.terms
    nf, ng = len(fn) * len(fd), len(gn) * len(gd)
    pairs = nf * ng
    if pairs > PAIR_BUDGET:
        pairs = max(nf, ng)
        if pairs <= PAIR_BUDGET:
            pairs = _support_size(fn, fd) * _support_size(gn, gd)
        if pairs > PAIR_BUDGET:
            raise TermBudgetError(f"dlog_ratio would visit {pairs} term pairs, over {PAIR_BUDGET}")
    if pairs > PACK_PAIRS:
        *packing, bits = _packing(sides)
        if bits <= 4 * pairs:
            return _dlog_packed(sides, *packing)
    return _dlog_pairs(sides)


# The most bits the powers built by one ``evaluate`` may take in total, a^i
# for a = p/q counted as i (floor(log2 |p|) + floor(log2 q)) bits.  E^-3000
# at (-2, 1) needs 4.5 million; one power of 8.4 million bits takes about 4 s
# (CPython 3.11, 2 cores), and A[2,1;1,1]^30 at (2, 1) would need 2.5 * 10^12.
EVAL_BIT_BUDGET = 1 << 23


class EvalBudgetError(DomainError, ArithmeticError):
    """An evaluation would build more bits of powers than ``EVAL_BIT_BUDGET`` allows."""


def evaluate(r: RatFunc2, point) -> Fraction:
    """r at an exact point; raises EvalBudgetError before building powers over the budget."""
    a, b = map(Fraction, point)
    ha, hb = (max(v.numerator.bit_length(), 1) + v.denominator.bit_length() - 2 for v in (a, b))
    size = sum(i * ha + j * hb for p in (r.num, r.den) for i, j in p.terms)
    if size > EVAL_BIT_BUDGET:
        raise EvalBudgetError(f"an evaluation would build {cut(size)} bits of powers, over {EVAL_BIT_BUDGET}")
    dv = r.den.evaluate(a, b)
    if dv == 0:
        raise PoleAtPointError(f"pole at ({cut(a)}, {cut(b)})")
    return r.num.evaluate(a, b) / dv


# --- leading order on an arc ----------------------------------------------------


def _arc_row(p: dict[Term, int], arc: tuple[Term, Term]) -> tuple[int, dict[Term, int]]:
    """(t-order, lowest t-row) of p on the arc, the row an x-only dict {(k, 0): c} in lam, k of either sign."""
    (lp, tp), (lq, tq) = arc
    ts = [tp * i + tq * j for i, j in p]
    t0 = min(ts)
    return t0, {(lp * i + lq * j, 0): c for ((i, j), c), t in zip(p.items(), ts) if t == t0}


def arc_limit(f: RatFunc2, g: RatFunc2, arc: tuple[Term, Term]):
    """The leading order in t of (f, g) on the arc x = lam^p t^n1, y = lam^q t^n2.

    ``arc`` is that monomial map's matrix ((p, n1), (q, n2)), of determinant
    p n2 - q n1 = 1, so no two monomials of a side land on one: one pass
    relabels each integer side (``_int_pair``, which folds in the contents)
    and keeps its lowest t-row.  Returns the t-orders (a, b) of f and g, and
    (c, e) with f^b g^-a = c lam^e + O(t), or None when that coefficient is
    not a monomial in lam.  Z[lam^+-1] is a domain, so the lowest row of a
    product is the product of the lowest rows.
    """
    (tfn, fn), (tfd, fd), (tgn, gn), (tgd, gd) = (_arc_row(p, arc) for p in (*_int_pair(f), *_int_pair(g)))
    a, b = tfn - tfd, tgn - tgd

    def power(top, bottom, k):  # (top / bottom)^k as a pair of rows
        return (_Powers(top)[k], _Powers(bottom)[k]) if k >= 0 else (_Powers(bottom)[-k], _Powers(top)[-k])

    (n1, d1), (n2, d2) = power(fn, fd, b), power(gn, gd, -a)
    num, den = _ip_mul(n1, n2), _ip_mul(d1, d2)
    (top, _), (bottom, _) = max(num), max(den)
    e, nl, dl = top - bottom, num[(top, 0)], den[(bottom, 0)]
    if len(num) != len(den) or any(num.get((k + e, 0), 0) * dl != c * nl for (k, _), c in den.items()):
        return (a, b), None
    return (a, b), (Fraction(nl, dl), e)


# --- textual form -------------------------------------------------------------


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1 and c >= 0:
        return str(c.numerator)
    return f"({c})"


def format_poly(p: Poly2) -> str:
    if p.is_zero():
        return "0"
    keys = sorted(p.terms, key=lambda t: (t[0] + t[1], t[0]), reverse=True)
    parts = []
    for i, j in keys:
        c = p.content * p.terms[(i, j)]
        factors = []
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        if not factors or c != 1:
            factors.insert(0, _format_coeff(c))
        parts.append("*".join(factors))
    return " + ".join(parts)


def format_ratfunc(r: RatFunc2) -> str:
    if r.den == Poly2.const(1):
        return format_poly(r.num)
    return f"({format_poly(r.num)}) / ({format_poly(r.den)})"


# The factors of a term: a coefficient, first in its term only, and powers.
_COEFF = re.compile(r"\s*(?:(\d+)|\(\s*(-)?\s*(\d+)\s*(?:/\s*(\d+)\s*)?\))\s*")
_POWER = re.compile(r"\s*([xy])\s*(?:\^\s*(\d+)\s*)?")


class PolyParseError(ValueError):
    pass


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the int-to-text digit limit
        raise PolyParseError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None


def parse_poly(text: str) -> Poly2:
    """The polynomial a text in the textual form stands for.

    "+" and "*" occur in the grammar only between terms and between factors,
    so the text is split at them.  Whitespace may stand between any two
    tokens.  The terms' coefficients are summed per monomial and
    canonicalized once, so a long polynomial parses in linear time.
    """
    coeffs: dict[Term, int | Fraction] = {}
    for term in text.split("+"):
        factors = term.split("*")
        c, i, j = 1, 0, 0
        if m := _COEFF.fullmatch(factors[0]):
            whole, minus, numer, denom = m.groups()
            try:
                c = Fraction(_int(whole or numer) * (-1 if minus else 1), _int(denom or "1"))
            except ZeroDivisionError:
                raise PolyParseError("zero denominator in a coefficient") from None
            factors.pop(0)
        for factor in factors:
            if not (m := _POWER.fullmatch(factor)):
                tail = "..." if len(factor) > 40 else ""
                raise PolyParseError(f"malformed factor {factor[:40]!r}{tail}")
            e = _int(m[2] or "1")
            i, j = (i + e, j) if m[1] == "x" else (i, j + e)
        coeffs[(i, j)] = coeffs.get((i, j), 0) + c
    return Poly2(coeffs)


def parse_ratfunc(text: str) -> RatFunc2:
    text = text.strip()
    m = re.fullmatch(r"\((?P<num>.*)\)\s*/\s*\((?P<den>.*)\)", text, re.DOTALL)
    if m:
        return normalize(parse_poly(m.group("num")), parse_poly(m.group("den")))
    return normalize(parse_poly(text), Poly2.const(1))
