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
computed once.  A monomial input settles the gcd at once and its cofactors
are exponent shifts; otherwise one heuristic gcd (GCDHEU) sets y, and then
x, to xi >= 2 * min(height) + 29, calls itself on the images down to an
integer gcd, and reads each level back in balanced base xi, verified by
exact division, whose quotients are the cofactors; what it gives up on goes
to one primitive pseudo-remainder sequence in x on the same term dicts,
whose y-contents are gcds of x-only dicts by the same two routes, and its
cofactors come from one exact division each.  Every other routine runs on
the integer terms as well.
By Gauss's lemma products, powers, exact quotients, the gcd cofactors in
``normalize`` and the pullback kernels keep the terms primitive, so they
only multiply or divide contents; sums, derivatives and the result of
``substitute`` take one content gcd.  A product with a one-term factor
shifts and scales the other factor, and a factor 1 returns the other one as
it stands.  ``substitute`` is the plain reference route for a composition:
it clears denominators, expands, takes one ``normalize`` and keeps no state.
``dlog_ratio`` decides exactly, in two integer passes over term pairs,
whether dlog f ^ dlog g is a constant multiple of dlog x ^ dlog y; a pass
over more than ``PAIR_BUDGET`` pairs raises first.
``pullback`` pulls a fraction back through monomial maps and powers of
E = (x, y (1 + x)^-1) with no substitution and no gcd: the only common
factors such a step can create are monomials and powers of 1 + x, and its
kernel divides them out exactly (see "pullbacks through the generators");
an E-step that would build more than ``TERM_BUDGET`` terms raises first.
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

import heapq
import itertools
import math
import operator
import re
import sys
from fractions import Fraction

from .errors import DomainError, Value, cut, shown

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

    __slots__ = ("terms", "content", "_hash")

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
        self.terms, self.content, self._hash = p.terms, p.content, None

    @staticmethod
    def _raw(terms: dict[Term, int], content: int | Fraction) -> "Poly2":
        """Internal constructor: terms already primitive with a positive leading coefficient."""
        p = object.__new__(Poly2)
        p.terms = terms
        p.content = content.numerator if content.denominator == 1 else content  # an int when integral
        p._hash = None
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
        if self._hash is None:
            self._hash = hash((self.content, frozenset(self.terms.items())))
        return self._hash

    # Arithmetic.  Products, powers and exact quotients of primitive dicts
    # with positive leading coefficients are again such dicts (Gauss's
    # lemma), so only sums and derivatives take a content gcd.

    def __add__(self, other: "Poly2") -> "Poly2":
        if self.content == other.content:
            # Both grlex-leading coefficients are positive, so the sum's is too.
            out = self.terms.copy()
            _ip_add_scaled(out, other.terms, 1)
            c = math.gcd(*out.values())
            return Poly2._raw(out if c == 1 else {t: v // c for t, v in out.items()}, self.content * c)
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


def _ip_to_x(p: dict[Term, int]) -> dict[int, dict[int, int]]:
    """{i: the coefficient of x^i in p, a ypoly}."""
    out: dict[int, dict[int, int]] = {}
    for (i, j), c in p.items():
        out.setdefault(i, {})[j] = c
    return out


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
    if not p:
        return {}
    base = 1 + max(i + j for i, j in [*p, *d])
    dk = {(i + j) * base + i: c for (i, j), c in d.items()}
    lead = max(dk)
    lc = dk.pop(lead)
    lead_deg, lead_i = divmod(lead, base)
    rest = list(dk.items())
    r = {(i + j) * base + i: c for (i, j), c in p.items()}
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


def _heugcd(p: dict[Term, int], q: dict[Term, int]):
    """(g, p/g, q/g) for nonzero p, q in Z[x, y], content included in g, or None.

    GCDHEU (Char, Geddes and Gonnet 1989).  Two constants give their integer
    gcd.  Otherwise the top variable, y if either side has a y and else x,
    is set to a large xi, the gcd of the two images comes from a call on
    them, and its values are read back in balanced base xi as coefficients
    of that variable; the primitive candidate is checked by exact division,
    and the two quotients that prove it are the cofactors.  Gives up after
    six attempts, or once xi is too tall for the y-degree.
    """
    c = math.gcd(*p.values(), *q.values())
    f, g = (d if c == 1 else {t: a // c for t, a in d.items()} for d in (p, q))
    v = 1 if any(j for _, j in [*p, *q]) else 0
    deg = max(t[v] for t in [*p, *q])
    if not deg:
        return {(0, 0): c}, f, g
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(6):
        if v and xi.bit_length() * (1 + deg) > 60000:
            return None
        fe, ge = _image(f, v, xi), _image(g, v, xi)
        if fe and ge and (gamma := _heugcd(fe, ge)) is not None:
            h = _canonical({(i, k) if v else (k, i): d
                            for (i, _), a in gamma[0].items() for k, d in _balanced_digits(a, xi) if d}).terms
            if h == _ONE:
                return {(0, 0): c}, f, g
            try:
                return _ip_scale(h, c), _ip_divexact(f, h), _ip_divexact(g, h)
            except InexactDivisionError:
                pass
        xi = xi * 73794 // 27011 + 1
    return None


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


def _y_gcd(rows: list[dict[int, int]]) -> dict[int, int]:
    """Gcd in Z[y] of nonzero rows.

    ``_heugcd``, or ``_ip_prs_gcd`` where it gives up, folds over the rows as
    x-only dicts {(j, 0): c} until the gcd is a constant; from then on, or
    when the first row is a constant, it is the integer gcd of every
    coefficient, taken with no further call.
    """
    g = rows[0]
    for row in rows[1:]:
        if not max(g):
            break
        a, b = {(j, 0): c for j, c in g.items()}, {(j, 0): c for j, c in row.items()}
        h = _heugcd(a, b)
        g = {j: c for (j, _), c in (h[0] if h else _ip_prs_gcd(a, b)).items()}
    return {0: math.gcd(*[c for row in rows for c in row.values()])} if not max(g) else g


def _ip_prs_gcd(p: dict[Term, int], q: dict[Term, int]) -> dict[Term, int]:
    """Gcd in Z[x, y] by a primitive pseudo-remainder sequence in x.

    The y-content of a polynomial is the gcd in Z[y] of its x-coefficients,
    taken by ``_y_gcd``.  Each side is divided by its y-content with
    ``_ip_divexact``, each pseudo-remainder is built with ``_ip_mul`` and
    divided by its own y-content in the same way, and the gcd is the gcd of
    the two contents times the last nonzero remainder, with a positive
    grlex-leading coefficient.  ``_y_gcd`` calls back here on x-only dicts
    {(i, 0): c}: their y-contents are integer constants, which it takes with
    no further call, so the recursion stops after one level.
    """

    def primitive(d: dict[Term, int]) -> tuple[dict[int, int], dict[Term, int]]:
        c = _y_gcd(list(_ip_to_x(d).values()))
        return c, _ip_divexact(d, {(0, j): a for j, a in c.items()})

    r = p or q
    if p and q:
        (cp, f), (cq, g) = primitive(p), primitive(q)
        if max(i for i, _ in f) < max(i for i, _ in g):
            f, g = g, f
        while g and (dg := max(i for i, _ in g)):
            lg = {(0, j): c for (i, j), c in g.items() if i == dg}
            while f and (df := max(i for i, _ in f)) >= dg:
                lf = {(df - dg, j): c for (i, j), c in f.items() if i == df}
                f = dict(_ip_mul(lg, f))
                _ip_add_scaled(f, _ip_mul(lf, g), -1)
            f, g = g, (primitive(f)[1] if f else {})
        r = _ip_mul(_ONE if g else f, {(0, j): c for j, c in _y_gcd([cp, cq]).items()})
    return {t: -c for t, c in r.items()} if r and r[_grlex_max(r)] < 0 else r


def _ip_gcd(p: dict[Term, int], q: dict[Term, int]):
    """(g, p/g, q/g) for primitive p, q in Z[x, y].

    g is primitive with a positive grlex-leading coefficient.  The routes,
    in order: a monomial input, whose coefficient is 1 since it is
    primitive, settles g as a monomial at once and the cofactors are
    exponent shifts; otherwise ``_heugcd`` gives the cofactors with g, from
    the divisions that prove it, and what it gives up on goes to
    ``_ip_prs_gcd``, the one remainder sequence, whose cofactors come from
    one exact division each.
    """
    if not p or not q:
        return p or q, (_ONE if p else {}), (_ONE if q else {})
    if len(p) == 1 or len(q) == 1:
        mono, other = (p, q) if len(p) == 1 else (q, p)
        ((mi, mj),) = mono
        gi = min([mi] + [i for i, _ in other])
        gj = min([mj] + [j for _, j in other])
        if not gi and not gj:
            return _ONE, p, q
        cp, cq = ({(i - gi, j - gj): c for (i, j), c in d.items()} for d in (p, q))
        return {(gi, gj): 1}, cp, cq
    if (heu := _heugcd(p, q)) is not None:
        return heu
    g = _ip_prs_gcd(p, q)
    if g == _ONE:
        return g, p, q
    return g, _ip_divexact(p, g), _ip_divexact(q, g)


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
    if d.is_zero():
        raise ZeroDivisionError
    return Poly2._raw(_ip_divexact(p.terms, d.terms), Fraction(p.content, d.content))


# --- RatFunc2 ----------------------------------------------------------------


class ZeroDenominatorError(ZeroDivisionError):
    pass


class IdenticallySingularError(ZeroDivisionError):
    """Substitution produced an identically vanishing denominator."""


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
    g, ip, iq = _ip_gcd(num.terms, den.terms)
    lc = iq[_grlex_max(iq)]
    if g == _ONE and den.content * lc == 1:
        return RatFunc2(num, den)
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
    x-exponent, so one large product is taken per distinct exponent.
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

    num, den = cleared(rn), cleared(rd)
    if not den:
        raise IdenticallySingularError("denominator vanishes identically under substitution")
    return normalize(_canonical(num), _canonical(den))


# --- pullbacks through the generators ----------------------------------------
#
# A monomial map with matrix B, (x, y) -> (x^B11 y^B12, x^B21 y^B22), is an
# automorphism of Z[x^+-1, y^+-1], and E^e = (x, y (1 + x)^-e) one of
# Z[x^+-1, y^+-1, (1 + x)^-1].  Pulling a reduced fraction num/den back
# through either keeps num and den coprime in that ring, so over Q[x, y]
# the only common factors they can gain are monomials and, for E^e, powers
# of 1 + x.  Each kernel removes exactly those, and no gcd is taken.  Both
# steps only relabel exponents and multiply or divide rows by powers of the
# primitive 1 + x, so by Gauss's lemma each side stays primitive; only the
# sign of its grlex-leading coefficient can change.  ``pullback`` runs the
# kernels on the terms dicts as they stand and, once on exit, fixes the signs
# and sets the two contents so the denominator is grlex-monic.


# The most terms one side of an E-step may build.  (r1*r2*r3)^3 needs 11925;
# (r1*r2*r3)^4 would need 216401 and (r1*r2*r3)^5 ran out of memory.
TERM_BUDGET = 12_000


class TermBudgetError(DomainError, ArithmeticError):
    """A pullback or ``dlog_ratio`` would go over ``TERM_BUDGET`` or ``PAIR_BUDGET``."""


def monomial_pullback(num: dict[Term, int], den: dict[Term, int], mat: tuple[Term, Term]):
    """num/den pulled back through the monomial map with matrix ``mat``.

    x^i y^j becomes x^(B11 i + B21 j) y^(B12 i + B22 j).  The relabelled
    pair is a reduced pair of Laurent polynomials, so one shift by the
    smallest x- and y-exponents over both sides clears the negative
    exponents and removes the only common factor a reduced num/den can gain.
    """
    (a, b), (c, d) = mat
    num = {(a * i + c * j, b * i + d * j): v for (i, j), v in num.items()}
    den = {(a * i + c * j, b * i + d * j): v for (i, j), v in den.items()}
    keys = [*num, *den]
    si = min(i for i, _ in keys)
    sj = min(j for _, j in keys)
    if si or sj:
        num = {(i - si, j - sj): v for (i, j), v in num.items()}
        den = {(i - si, j - sj): v for (i, j), v in den.items()}
    return num, den


def _alternating_rows(p: dict[Term, int]) -> dict[int, tuple[int, list[int]]]:
    """{j: (lo, b)} with b[t] = (-1)^i c for the coefficient c of x^i y^j, i = lo + t.

    In these signs a product by 1 + x is a difference, b[t] - b[t - 1], and a
    quotient by 1 + x a running sum, exact when the whole sum is 0.
    """
    by_j: dict[int, dict[int, int]] = {}
    for (i, j), c in p.items():
        row = by_j.get(j)
        if row is None:
            row = by_j[j] = {}
        row[i] = -c if i & 1 else c
    out = {}
    for j, row in by_j.items():
        lo = min(row)
        b = [0] * (max(row) - lo + 1)
        for i, c in row.items():
            b[i - lo] = c
        out[j] = (lo, b)
    return out


def _one_plus_x_valuation(b: list[int], cap: int) -> int:
    """How many times 1 + x divides the row b (alternating signs), counting up to ``cap``."""
    v = 0
    while v < cap and not sum(b):
        b = list(itertools.accumulate(b))
        b.pop()
        v += 1
    return v


def _times_one_plus_x(b: list[int], t: int) -> list[int]:
    """The row b (alternating signs) times (1 + x)^t; for t < 0 an exact synthetic division."""
    for _ in range(t):
        b = list(map(operator.sub, [*b, 0], [0, *b]))
    for _ in range(-t):
        b = list(itertools.accumulate(b))
        if b.pop():
            raise InexactDivisionError("1 + x does not divide the row")
    return b


def elementary_pullback(num: dict[Term, int], den: dict[Term, int], e: int):
    """num/den pulled back through E^e = (x, y (1 + x)^-e), for a reduced num/den.

    Row j, the coefficient R_j(x) of y^j, becomes y^j (1 + x)^(-e j) R_j.
    With v the (1 + x)-valuation, k = min over both sides and all rows of
    v(R_j) - e j, and each row is rebuilt as y^j (1 + x)^(-e j - k) R_j:
    that is both sides times (1 + x)^-k, which leaves the fraction's value
    alone and makes the smallest valuation over both sides 0.  Every
    exponent -e j - k is at least -v(R_j), so a negative one is an exact
    synthetic division at x = -1.  The rows keep their y-degrees and lowest
    x-degrees, so no monomial factor is gained.
    """
    rows = (_alternating_rows(num), _alternating_rows(den))
    # Rows in increasing -e j: once -e j reaches k, no later row lowers it,
    # and a row's valuation is only counted as far as it could.  k starts
    # above the first row's -e j + v, as v is below the row's length, and is
    # an integer, as -e j can be past float range.
    by_base = sorted(((-e * j, b) for side in rows for j, (_, b) in side.items()), key=operator.itemgetter(0))
    k = by_base[0][0] + len(by_base[0][1])
    for base, b in by_base:
        if base >= k:
            break
        k = min(k, base + _one_plus_x_valuation(b, k - base))
    # Row j is rebuilt with len(b) - e j - k coefficients, zeros included.
    size = max(sum(len(b) - e * j - k for j, (_, b) in side.items()) for side in rows)
    if size > TERM_BUDGET:
        raise TermBudgetError(f"a pullback through E^{e} would build {shown(size)} terms, over {TERM_BUDGET}")
    out = []
    for side in rows:
        terms = {}
        for j, (lo, b) in side.items():
            b = _times_one_plus_x(b, -e * j - k)
            terms.update({(i, j): -c if i & 1 else c for i, c in enumerate(b, lo) if c})
        out.append(terms)
    return out[0], out[1]


def pullback(r: RatFunc2, steps: list[int | tuple[Term, Term]]) -> RatFunc2:
    """r pulled back through each step in turn, in canonical form.

    A step is an int e, for E^e (``elementary_pullback``), or a 2x2 integer
    matrix, for the monomial map (``monomial_pullback``).  The kernels run on
    the primitive terms dicts, and the contents only come back in on the way
    out, where they make the denominator grlex-monic (see above).
    """
    if r.num.is_zero():
        return r
    num, den = r.num.terms, r.den.terms
    for step in steps:
        if isinstance(step, int):
            num, den = elementary_pullback(num, den, step)
        else:
            num, den = monomial_pullback(num, den, step)
    ln, ld = num[_grlex_max(num)], den[_grlex_max(den)]
    sn, sd = (1 if ln > 0 else -1), (1 if ld > 0 else -1)
    return RatFunc2(Poly2._raw(_ip_scale(num, sn), Fraction(sn * r.num.content, r.den.content * ld)),
                    Poly2._raw(_ip_scale(den, sd), Fraction(1, sd * ld)))


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


# The most term pairs one pass of ``dlog_ratio`` may visit, at about 1.3 us a
# pair (CPython 3.11).  (r1*r2*r3)^2 needs 621045; the 6-letter
# P*r3*r2*r1*E[0,1]*E[-3,2] would need 12.9 million, 19 s.
PAIR_BUDGET = 1_000_000


def dlog_ratio(f: RatFunc2, g: RatFunc2) -> Fraction | None:
    """c with dlog f ^ dlog g = c dlog x ^ dlog y, or None when no constant c does.

    With Dx = x d/dx, F = fn fd, Px = Dx(fn) fd - fn Dx(fd), Py alike, and G,
    Qx, Qy from g, the claim is Px Qy - Py Qx = c F G.  c = n / d is read at
    the grlex-leading monomial of F G, and one pass over the term pairs then
    proves d (Px Qy - Py Qx) = n F G in Z[x, y].  f and g need not be
    reduced; a zero f or g gives None.
    """
    if not f.den or not g.den:
        raise ZeroDenominatorError("denominator is identically zero")
    if not f.num or not g.num:
        return None
    # Constants have dlog 0, so the contents drop out.
    fn, fd, gn, gd = f.num.terms, f.den.terms, g.num.terms, g.den.terms
    # The x-degree of every product monomial stays below base, so keys add.
    base = 1 + sum(max(i for i, _ in p) for p in (fn, fd, gn, gd))
    pairs = max(len(fn) * len(fd), len(gn) * len(gd))
    if pairs <= PAIR_BUDGET:
        fp, gp = _euler_parts(fn, fd, base), _euler_parts(gn, gd, base)
        pairs = len(fp) * len(gp)
    if pairs > PAIR_BUDGET:
        raise TermBudgetError(f"dlog_ratio would visit {pairs} term pairs, over {PAIR_BUDGET}")
    lf = max(k for k, e in fp.items() if e[0])
    lg = max(k for k, e in gp.items() if e[0])
    top = lf + lg
    n = 0
    for k, (_, px, py) in fp.items():
        q = gp.get(top - k)
        if q is not None:
            n += px * q[2] - py * q[1]
    c = Fraction(n, fp[lf][0] * gp[lg][0])
    n, d = c.numerator, c.denominator
    gl = [(k, v, qx, qy) for k, (v, qx, qy) in gp.items()]
    acc: dict[int, int] = {}
    get = acc.get
    for k1, (v, px, py) in fp.items():
        a, b, e = d * px, d * py, n * v
        for k2, w, qx, qy in gl:
            k = k1 + k2
            acc[k] = get(k, 0) + a * qy - b * qx - e * w
    return None if any(acc.values()) else c


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
        raise EvalBudgetError(f"an evaluation would build {shown(size)} bits of powers, over {EVAL_BIT_BUDGET}")
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
    a function giving (c, e) with f^b g^-a = c lam^e + O(t), or None when
    that coefficient is not a monomial in lam; only it raises rows to powers.
    Z[lam^+-1] is a domain, so the lowest row of a product is the product
    of the lowest rows.
    """
    (tfn, fn), (tfd, fd), (tgn, gn), (tgd, gd) = (_arc_row(p, arc) for p in (*_int_pair(f), *_int_pair(g)))
    a, b = tfn - tfd, tgn - tgd

    def action() -> tuple[Fraction, int] | None:
        def power(top, bottom, k):  # (top / bottom)^k as a pair of rows
            return (_Powers(top)[k], _Powers(bottom)[k]) if k >= 0 else (_Powers(bottom)[-k], _Powers(top)[-k])

        (n1, d1), (n2, d2) = power(fn, fd, b), power(gn, gd, -a)
        num, den = _ip_mul(n1, n2), _ip_mul(d1, d2)
        (top, _), (bottom, _) = max(num), max(den)
        e, nl, dl = top - bottom, num[(top, 0)], den[(bottom, 0)]
        if len(num) != len(den) or any(num.get((k + e, 0), 0) * dl != c * nl for (k, _), c in den.items()):
            return None
        return Fraction(nl, dl), e

    return (a, b), action


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
                raise PolyParseError(f"malformed factor {factor!r}")
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
