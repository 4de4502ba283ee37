"""Exact sparse bivariate polynomials over Z and their fractions.

A polynomial is a map from exponent pairs (i, j), both nonnegative, to
nonzero ints; the zero polynomial is the empty map.
A rational function is a fraction of two such polynomials with no common
factor in Z[x, y], integer content included, whose denominator has a
positive coefficient at its graded-lexicographic leading term (total degree
first, then x-degree).  That canonical form, which is canonical over Q as
well, makes structural equality a valid equality test for rational
functions, which is what the word-problem oracle relies on.

GCDs run in integer arithmetic and return the cofactors with the gcd, each
computed once, by one of two routes (see ``_ip_gcd``): a monomial shortcut,
or the heuristic gcd GCDHEU, which raises its evaluation point until its
candidate divides one side and then the other by grlex long division.  No
library path takes a gcd, so GCDHEU and that division keep their plain form.
``normalize`` divides the cofactors by their joint integer content.  The
product is a schoolbook loop over term pairs, and a factor 1 returns the
other one as it stands; ints that key monomials appear only in ``dlog_ratio``.
``substitute`` composes into a map given by formulas, and is the reference
the pullbacks are tested against: it clears denominators, expands each
term of r on its own, takes one ``normalize`` and keeps no state.
``dlog_ratio`` decides exactly whether dlog f ^ dlog g is a constant
multiple of dlog x ^ dlog y, in one integer pass over term pairs or, for
dense sides, in 13 products of Kronecker-packed ints; over ``PAIR_BUDGET``
pairs it raises first.
``pullback`` pulls a map's fractions back through monomial maps and powers
of E = (x, y (1 + x)^-1), one plain pass a step on y-rows, with no gcd; an
E-step that would build over ``TERM_BUDGET`` terms raises first.  A fraction
reuses the rows a shared denominator of more than one term got before it.
``evaluate`` returns a Fraction and refuses powers of more than
``EVAL_BIT_BUDGET`` bits in all.
Negative powers never appear: monomial maps with negative exponents are
represented with explicit denominators.

Textual form:

    poly     := "0" | term (" + " term)*          terms in descending grlex
    term     := coeff | coeff "*" factors | factors
    factors  := varpow ("*" varpow)*
    varpow   := ("x" | "y") ("^" digits)?         exponent >= 2 when printed
    coeff    := digits | "(" "-" digits ")"

A positive coefficient prints bare, 1 is omitted before variables, and a
negative one is parenthesized: ``(-1)*x^2*y + 3*x``.
A rational function prints as ``num`` when the denominator is 1, otherwise
``(num) / (den)``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DomainError, Value, cut

Term = tuple[int, int]


# --- Poly2 -------------------------------------------------------------------


class Poly2:
    """Sparse bivariate polynomial over Z, stored as its ``terms``.

    ``terms`` maps (i, j), both nonnegative, to a nonzero ``int``; the zero
    polynomial is ``{}``.  A coefficient that is not an ``int`` (a bool, a
    ``Fraction``, a float or text) raises ``TypeError``.  The dict is
    shared, not copied, and must not be mutated.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Term, int] | None = None):
        clean: dict[Term, int] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term {(i, j)}")
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} of term {(i, j)} is not an int")
            if c:
                clean[(i, j)] = c
        self.terms = clean

    @staticmethod
    def _raw(terms: dict[Term, int]) -> "Poly2":
        """Internal constructor: terms already int and zero-free."""
        p = object.__new__(Poly2)
        p.terms = terms
        return p

    # Construction helpers.

    @staticmethod
    def zero() -> "Poly2":
        return Poly2()

    @staticmethod
    def const(c: int) -> "Poly2":
        return Poly2({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, c: int = 1) -> "Poly2":
        return Poly2({(i, j): c})

    @staticmethod
    def x() -> "Poly2":
        return Poly2.monomial(1, 0)

    @staticmethod
    def y() -> "Poly2":
        return Poly2.monomial(0, 1)

    # Structure.

    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # Arithmetic.

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        _ip_add_scaled(out, other.terms, 1)
        return Poly2._raw(out)

    def __mul__(self, other: "Poly2") -> "Poly2":
        return Poly2._raw(_ip_mul(self.terms, other.terms))

    def __pow__(self, k: int) -> "Poly2":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return Poly2._raw(_ip_pow(self.terms, k))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly2({format_poly(self)!r})"


# --- integer-level machinery -------------------------------------------------
#
# The product, gcd, exact division and substitution work on plain dicts
# with int coefficients, which is what the terms of a Poly2 are:
#   ipoly:  dict[(i, j) -> int]  an element of Z[x, y]


_ONE = {(0, 0): 1}


class InexactDivisionError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


def _grlex_max(p: dict[Term, int]) -> Term:
    return max(p, key=lambda t: (t[0] + t[1], t[0]))


def _primitive(*sides: dict[Term, int]) -> list[dict[Term, int]]:
    """The sides over their joint integer content, signed so the last side's grlex-leading coefficient is positive.

    A side that is already so is returned as it stands; zero sides stay ``{}``.
    """
    c = math.gcd(*(v for p in sides for v in p.values()))
    if sides[-1] and sides[-1][_grlex_max(sides[-1])] < 0:
        c = -c
    return [p if c == 1 else {t: v // c for t, v in p.items()} for p in sides]


def _ip_mul(p: dict[Term, int], q: dict[Term, int]) -> dict[Term, int]:
    """Product in Z[x, y], one term pair at a time, with cancelled terms dropped.

    A factor 1 gives the other factor back as it stands, so the result may be
    an argument's own dict, shared and never mutated like every terms dict.
    """
    if q == _ONE:
        return p
    if p == _ONE:
        return q
    out: dict[Term, int] = {}
    get = out.get
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            t = (i1 + i2, j1 + j2)
            out[t] = get(t, 0) + c1 * c2
    return {t: c for t, c in out.items() if c}


def _ip_pow(p: dict[Term, int], k: int) -> dict[Term, int]:
    """p^k for k >= 0 by square-and-multiply; p^1 is p itself, with no product."""
    if k < 2:
        return p if k else _ONE
    half = _ip_pow(p, k // 2)
    square = _ip_mul(half, half)
    return _ip_mul(square, p) if k % 2 else square


def _ip_add_scaled(acc: dict[Term, int], p: dict[Term, int], c: int) -> None:
    """acc += c * p in place; cancelled terms are deleted."""
    get = acc.get
    for t, v in p.items():
        if s := get(t, 0) + c * v:
            acc[t] = s
        else:
            del acc[t]


def _ip_divexact(p: dict[Term, int], d: dict[Term, int]) -> dict[Term, int]:
    """Exact quotient p/d in Z[x, y] by grlex long division; raises InexactDivisionError otherwise.

    Each step takes the remainder's grlex-leading term over d's and
    subtracts that quotient term times d, which cancels the leading term.
    """
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    (li, lj), r, out = _grlex_max(d), dict(p), {}
    while r:
        i, j = _grlex_max(r)
        qc, rem = divmod(r[(i, j)], d[(li, lj)])
        if rem or i < li or j < lj:
            raise InexactDivisionError("inexact division in Z[x, y]")
        out[(i - li, j - lj)] = qc
        _ip_add_scaled(r, {(a + i - li, b + j - lj): c for (a, b), c in d.items()}, -qc)
    return out


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
    of that variable; the primitive candidate is checked by exact division
    of p and then of q, and the two quotients that prove it are the
    cofactors.  A candidate that fails, or an image that vanishes, raises xi
    and tries again, until a candidate divides both sides (see the comment
    above).
    """
    c = math.gcd(*p.values(), *q.values())
    f, g = (d if c == 1 else {t: a // c for t, a in d.items()} for d in (p, q))
    v = 1 if any(j for _, j in [*p, *q]) else 0
    deg = max(t[v] for t in [*p, *q])
    if not deg:
        return {(0, 0): c}, f, g
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    while True:
        fe, ge = _image(f, v, xi), _image(g, v, xi)
        if fe and ge:
            gamma = _heugcd(fe, ge)[0]
            [h] = _primitive({(i, k) if v else (k, i): d
                              for (i, _), a in gamma.items() for k, d in _balanced_digits(a, xi) if d})
            if h == _ONE:
                return {(0, 0): c}, f, g
            try:
                return {t: w * c for t, w in h.items()}, _ip_divexact(f, h), _ip_divexact(g, h)
            except InexactDivisionError:
                pass
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
    """(g, p/g, q/g) for p, q in Z[x, y], with g times each cofactor exactly its side.

    The cofactors have no common factor of positive degree; an integer
    content they share is left to the caller.  A zero side makes the other
    side g, so ``normalize`` of a zero numerator gets 0/1 from here.
    Otherwise there are two routes: a monomial side settles g as a monomial
    with coefficient 1 at once, and the cofactors are exponent shifts; every
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


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """Gcd up to units: primitive in Z[x, y] with a positive grlex-leading coefficient, 0 for two zeros."""
    return Poly2._raw(*_primitive(_ip_gcd(p.terms, q.terms)[0]))


def poly_divexact(p: Poly2, d: Poly2) -> Poly2:
    """Exact quotient p/d in Z[x, y]; raises InexactDivisionError when d does not divide p there."""
    return Poly2._raw(_ip_divexact(p.terms, d.terms))


# --- RatFunc2 ----------------------------------------------------------------


class ZeroDenominatorError(ZeroDivisionError):
    pass


class PoleAtPointError(DomainError, ZeroDivisionError):
    pass


class RatFunc2(Value):
    """Reduced fraction of integer bivariate polynomials.

    Canonical: num and den have no common factor in Z[x, y], integer
    content included, and den has a positive grlex-leading coefficient.
    The constructor trusts its inputs; :func:`normalize` reduces any
    fraction first.
    """

    __slots__ = ("num", "den")
    num: Poly2
    den: Poly2

    @staticmethod
    def from_poly(p: Poly2) -> "RatFunc2":
        return RatFunc2(p, Poly2.const(1))

    @staticmethod
    def x() -> "RatFunc2":
        return RatFunc2.from_poly(Poly2.x())

    @staticmethod
    def y() -> "RatFunc2":
        return RatFunc2.from_poly(Poly2.y())

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc2({format_ratfunc(self)!r})"


def normalize(num: Poly2, den: Poly2) -> RatFunc2:
    """Reduced canonical fraction num/den.

    The gcd cofactors of the two terms dicts come from one call, and are
    divided by their joint integer content, signed by the denominator's
    grlex-leading coefficient.
    """
    if not den:
        raise ZeroDenominatorError("denominator is identically zero")
    _, ip, iq = _ip_gcd(num.terms, den.terms)
    return RatFunc2(*map(Poly2._raw, _primitive(ip, iq)))


def substitute(r: RatFunc2, f: RatFunc2, g: RatFunc2) -> RatFunc2:
    """r(f, g) in canonical form.

    Both sides of r(f, g) are multiplied by fd^dx gd^dy, with dx and dy r's
    degrees in x and y, so each term c x^i y^j becomes the polynomial
    c fn^i fd^(dx - i) gn^j gd^(dy - j).  A zero r gives 0 at once; any other
    r whose denominator vanishes identically reaches ``normalize``, which
    raises ZeroDenominatorError.
    """
    if not r.num:
        return RatFunc2(Poly2.zero(), Poly2.const(1))
    rn, rd = r.num.terms, r.den.terms
    dx = max(i for i, _ in [*rn, *rd])
    dy = max(j for _, j in [*rn, *rd])
    # p^0 ... p^top, one running product per base.
    fn, fd = (list(itertools.accumulate(itertools.repeat(p.terms, dx), _ip_mul, initial=_ONE))
              for p in (f.num, f.den))
    gn, gd = (list(itertools.accumulate(itertools.repeat(p.terms, dy), _ip_mul, initial=_ONE))
              for p in (g.num, g.den))

    def cleared(p: dict[Term, int]) -> Poly2:
        total: dict[Term, int] = {}
        for (i, j), c in p.items():
            _ip_add_scaled(total, _ip_mul(fn[i], _ip_mul(fd[dx - i], _ip_mul(gn[j], gd[dy - j]))), c)
        return Poly2._raw(total)

    return normalize(cleared(rn), cleared(rd))


# --- pullbacks through the generators ----------------------------------------
#
# A monomial map (x, y) -> (x^B11 y^B12, x^B21 y^B22) is an automorphism of
# Z[x^+-1, y^+-1], and E^e = (x, y (1 + x)^-e) one of Z[x^+-1, y^+-1,
# (1 + x)^-1], so a reduced num/den pulled back through either can only gain
# common monomials and, for E^e, powers of 1 + x, which each E-step's row loop
# and the exit divide out with no gcd.  ``pullback`` holds each side as rows
# (j, lo, b), b[t] = (-1)^i c for the coefficient c of x^i y^j, i = lo + t:
# in these signs a product by 1 + x is b[t] - b[t - 1], and a quotient a
# running sum, exact when its last entry is 0; each side keeps its integer
# content (Gauss).  Row ends are nonzero and stay so, and a linear form in the
# exponents peaks at an end, so the exit reads the shift and the denominator's
# leading coefficient there in one pass, then steps along each row by (B11, B12),
# negating both sides when that coefficient is negative.


_MAT_ID = ((1, 0), (0, 1))

# The most terms one side of an E-step may build.  (r1*r2*r3)^3 needs 11925;
# (r1*r2*r3)^4 would need 216401 and (r1*r2*r3)^5 ran out of memory.
TERM_BUDGET = 12_000


class TermBudgetError(DomainError, ArithmeticError):
    """A pullback or ``dlog_ratio`` would go over ``TERM_BUDGET`` or ``PAIR_BUDGET``."""


def _monomial_step(sides, mat: tuple[Term, Term]):
    """Both sides, terms dicts or rows, pulled back through the monomial map ``mat``, as rows.

    x^i y^j becomes x^(B11 i + B21 j) y^(B12 i + B22 j), grouped in plain dicts by the new
    y-exponent; each dense row is built once and keeps its exponents, negative ones too.
    """
    (a, b), (c, d) = mat
    built = [[], []]
    for side, rows in zip(sides, built):
        g = {}
        if isinstance(side, dict):
            for (i, j), v in side.items():
                i2 = a * i + c * j
                g.setdefault(b * i + d * j, {})[i2] = -v if i2 & 1 else v
        else:
            for j, lo, row in side:
                for i, v in enumerate(row, lo):
                    if v:
                        i2 = a * i + c * j
                        g.setdefault(b * i + d * j, {})[i2] = -v if (i ^ i2) & 1 else v
        for j, row in g.items():
            lo = min(row)
            dense = [0] * (max(row) - lo + 1)
            for i, v in row.items():
                dense[i - lo] = v
            rows.append((j, lo, dense))
    return built


def _binomial_row(t: int) -> tuple[int, ...]:
    """(-1)^k C(t, k) for k = 0..t, the row of (1 + x)^t, by C(t, k + 1) = C(t, k) (t - k) / (k + 1)."""
    a = [1]
    for k in range(t):
        a.append(-a[-1] * (t - k) // (k + 1))
    return tuple(a)


def _times_one_plus_x(b: list[int], t: int) -> list[int]:
    """The row b times (1 + x)^t, t >= 0, by one convolution with the binomial row."""
    if t < 0:
        raise AssertionError(f"negative power {cut(t)} of 1 + x")
    a = _binomial_row(t)
    out = [0] * (len(b) + t)
    for s, c in enumerate(b):
        if c:
            for k, v in enumerate(a, s):
                out[k] += c * v
    return out


def _elementary_step(sides, e: int, den=()):
    """Both sides' rows pulled back through E^e, for a reduced num/den.

    Row j, R_j(x) y^j, becomes (1 + x)^(v_j - e j - k) Q_j y^j for Q_j = R_j / (1 + x)^v_j,
    with k the least v(R_j) - e j over both sides for the (1 + x)-valuation v.  One loop
    reads the bases -e j and k's start, the least len(R_j) - 1 - e j, as a row has fewer
    powers of 1 + x than terms.  Rows in increasing base then take one running sum a power
    while -e j + v_j < k: a row that stops below k lowers k to v_j - e j, one that reaches
    k stops there, and one with -e j >= k takes no sum, so every v_j - e j >= the final k.
    The denominator comes back empty if ``den``, the pass before's after this step, is -e j - k
    terms longer in its first row.  A quotient whose power is 0 is kept as it is.
    """
    rows, k = [], math.inf
    for j, _, b in itertools.chain(*sides):
        rows.append((-e * j, len(rows), b))
        if len(b) - 1 - e * j < k:
            k = len(b) - 1 - e * j
    rows.sort()
    found = [None] * len(rows)
    for base, n, b in rows:
        v = 0
        while base + v < k and not (q := list(itertools.accumulate(b))).pop():
            b, v = q, v + 1
        found[n] = v, b
        if base + v < k:
            k = base + v
    size = max(sum(len(b) - e * j - k for j, _, b in side) for side in sides)
    if size > TERM_BUDGET:
        raise TermBudgetError(f"a pullback through E^{e} would build {cut(size)} terms, over {TERM_BUDGET}")
    if den and len(den[0][2]) - len(sides[1][0][2]) == -e * sides[1][0][0] - k:
        sides = [sides[0], ()]
    quotients = iter(found)  # zip stops at each side's end
    return [[(j, lo, q if v == e * j + k else _times_one_plus_x(q, v - e * j - k))
             for (j, lo, _), (v, q) in zip(side, quotients)] for side in sides]


def pullback(rs: tuple[RatFunc2, ...], steps: list[int | tuple[Term, Term]]) -> list[RatFunc2]:
    """Each fraction of rs pulled back through each step in turn, in canonical form.

    A step is an int e, for E^e, or a 2x2 integer matrix, for the monomial map; the first
    matrix, or the identity, turns the terms dicts into rows, and the last is the exit.  The
    fractions run in turn; a pass whose denominator of more than one term is the next one's keeps
    its rows at each stage until that pass ends, which takes them while its denominator is still
    those rows: at monomial steps, at an E-step of equal k and at an exit of equal shift.
    """
    steps = list(steps)
    last = steps.pop() if steps and not isinstance(steps[-1], int) else _MAT_ID
    first = steps.pop(0) if steps and not isinstance(steps[0], int) else _MAT_ID
    (a, b), (c, d) = last
    pulled, trace = [], None
    for r, nxt in zip(rs, (*rs[1:], None)):
        prior, trace = trace, None
        if not r.num:
            pulled.append(r)
            continue
        trace = [r.den.terms] if nxt and len(r.den.terms) > 1 and nxt.den.terms == r.den.terms else None
        sides = [r.num.terms, prior[0] if prior else r.den.terms]
        for n, step in enumerate([first, *steps]):
            den = prior[n + 1] if prior and sides[1] is prior[n] else ()
            sides = (_elementary_step(sides, step, den) if isinstance(step, int)
                     else _monomial_step([sides[0], ()] if den else sides, step))
            sides[1] = sides[1] or den  # an empty denominator is the pass before's
            if trace:
                trace.append(sides[1])
        si = sj = math.inf
        for side in sides:  # the denominator's comes last, so ``lead`` ends as its leading coefficient
            top = (-math.inf, 0)
            for j, lo, row in side:
                for i, v in ((lo, row[0]), (lo + len(row) - 1, row[-1])):
                    i2, j2 = a * i + c * j, b * i + d * j
                    if i2 < si:
                        si = i2
                    if j2 < sj:
                        sj = j2
                    if (i2 + j2, i2) > top:
                        top, lead = (i2 + j2, i2), -v if i & 1 else v
        keep = prior and sides[1] is prior[-2] and prior[-1][0] == (si, sj)
        num, den, negate = {}, {}, lead < 0
        for out, side in zip((num, den), sides[:1] if keep else sides):
            for j, lo, row in side:
                i2, j2, flip = a * lo + c * j - si, b * lo + d * j - sj, (lo & 1) ^ negate
                for v in row:
                    if v:
                        out[i2, j2] = -v if flip else v
                    i2, j2, flip = i2 + a, j2 + b, flip ^ 1
        den = prior[-1][1] if keep else Poly2._raw(den)
        if trace:
            trace.append(((si, sj), den))
        pulled.append(RatFunc2(Poly2._raw(num), den))
    return pulled


def _euler_parts(num: dict[Term, int], den: dict[Term, int], base: int) -> dict[int, list[int]]:
    """{key: [v, vx, vy]}: v = num den, vx = Dx(num) den - num Dx(den), vy alike.

    A term pair c1 x^i1 y^j1, c2 x^i2 y^j2 adds c1 c2, c1 c2 (i1 - i2) and
    c1 c2 (j1 - j2); (i, j) is keyed by the int (i + j) * base + i, and keys
    add as monomials multiply while every x-degree stays below base.
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


def _dlog_pairs(sides, c: int) -> Fraction | None:
    """Fraction(c) if D = 0, else None, by one pass over the term pairs (see ``dlog_ratio``)."""
    # The x-degree of every product monomial stays below base, so keys add.
    base = 1 + sum(max(i for i, _ in p) for p in sides)
    fp, gp = _euler_parts(sides[0], sides[1], base), _euler_parts(sides[2], sides[3], base)
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


def _dlog_packed(sides, c: int, boxes, nx: int, nb: int) -> Fraction | None:
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
# would need 12.9 million, refused in about 0.1 s.  Packing wins while F G
# packs into at most 4 bits a pair, which also bounds the ints it builds.
PAIR_BUDGET = 1_000_000


def dlog_ratio(f: RatFunc2, g: RatFunc2) -> Fraction | None:
    """c with dlog f ^ dlog g = c dlog x ^ dlog y, or None when no constant c does.

    With Dx = x d/dx, F = fn fd, Px = Dx(fn) fd - fn Dx(fd), Py alike, and
    G, Qx, Qy from g, the claim is D = Px Qy - Py Qx - c F G = 0 in Z[x, y].
    Only the grlex-leading terms of the four sides reach the top monomial of
    F G, so c is the determinant of their exponent differences fn - fd and
    gn - gd, taken once for either route.  ``_dlog_pairs`` visits the term
    pairs; ``_dlog_packed``, for dense sides (F G packs into at most 4 bits
    a pair), shifts each side by its least exponents, which divides D by a
    monomial, and evaluates D at x = 2^B, y = 2^(B nx), nx above its
    x-degree, so each monomial has its own B-bit slot.  B is above |D|
    (``_packing``), so the lowest nonzero coefficient is no multiple of
    2^B: D packs to 0 only when D = 0.  f and g need not be reduced; a zero
    f or g gives None.
    """
    if not f.den or not g.den:
        raise ZeroDenominatorError("denominator is identically zero")
    if not f.num or not g.num:
        return None
    sides = fn, fd, gn, gd = f.num.terms, f.den.terms, g.num.terms, g.den.terms
    nf, ng = len(fn) * len(fd), len(gn) * len(gd)
    pairs = nf * ng
    if pairs > PAIR_BUDGET:
        pairs = max(nf, ng)
        if pairs <= PAIR_BUDGET:
            pairs = _support_size(fn, fd) * _support_size(gn, gd)
        if pairs > PAIR_BUDGET:
            raise TermBudgetError(f"dlog_ratio would visit {pairs} term pairs, over {PAIR_BUDGET}")
    (a, b), (a2, b2), (p, q), (p2, q2) = map(_grlex_max, sides)
    c = (a - a2) * (q - q2) - (b - b2) * (p - p2)
    *packing, bits = _packing(sides)
    if bits <= 4 * pairs:
        return _dlog_packed(sides, c, *packing)
    return _dlog_pairs(sides, c)


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
    dv = _value(r.den, a, b)
    if dv == 0:
        raise PoleAtPointError(f"pole at ({cut(a)}, {cut(b)})")
    return _value(r.num, a, b) / dv


def _value(p: Poly2, a: Fraction, b: Fraction) -> Fraction:
    """p at (a, b), with no budget: only ``evaluate`` calls it, once it has checked the budget."""
    return sum((c * a**i * b**j for (i, j), c in p.terms.items()), Fraction(0))


# --- textual form -------------------------------------------------------------


def format_poly(p: Poly2) -> str:
    if not p:
        return "0"
    keys = sorted(p.terms, key=lambda t: (t[0] + t[1], t[0]), reverse=True)
    parts = []
    for i, j in keys:
        c = p.terms[(i, j)]
        factors = []
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        if not factors or c != 1:
            factors.insert(0, str(c) if c > 0 else f"({c})")
        parts.append("*".join(factors))
    return " + ".join(parts)


def format_ratfunc(r: RatFunc2) -> str:
    if r.den.terms == _ONE:
        return format_poly(r.num)
    return f"({format_poly(r.num)}) / ({format_poly(r.den)})"
