"""Realizing words as exact birational maps of the torus.

The generators act on torus coordinates by

    E            (x, y) -> (x, y (1 + x)^-1)
    Linear(B)    (x, y) -> (x^B11 y^B12, x^B21 y^B22)

so a Linear generator moves boundary rays by its matrix B, and the
elementary transformation at ray n is the conjugate of E by the canonical
complement of n.  Words realize to reduced rational-function pairs, where
structural equality of canonical forms decides the word problem.

The group law needs two operations: ``realize``, the one fold over the
letters of a word, and ``compose``, the one product of two maps.  Both pull
a map's two fractions back through ``polyrat.pullback`` steps in one call,
which pulls a denominator they share back once wherever it can, and take
no gcd.  A monomial map is an automorphism of Z[x^+-1, y^+-1] and E^e one
of Z[x^+-1, y^+-1, (1 + x)^-1], so a reduced fraction pulled back through
a step can only gain monomials and powers of 1 + x as common factors,
which the kernels divide out exactly.  A map given by f and g alone has
no steps, so ``compose`` refuses it as the inner map (it still serves as
the outer one); composing into it is ``polyrat.substitute``, one call per
coordinate.

``boundary_limit`` computes the induced map between boundary components
letter by letter, as ``tropical_image`` moves the ray: the component at n
carries lambda = x^n2 y^-n1 (the distinguished point sits at lambda = -1),
a linear letter of ray matrix M sends lambda to lambda^det M, and E[n]^e
restricts to lambda -> lambda at every ray.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import Value
from .lattice import (
    MAT_ID,
    Mat,
    PLMap,
    Vec,
    complement_matrix,
    mat_inv,
    mat_mul,
    pl_compose,
    pl_elementary,
    require_primitive,
)
from .polyrat import RatFunc2, dlog_ratio, pullback
from .words import Letter, Linear, Word, generator_determinant, ray_image


# Entries kept by each word- and letter-keyed cache below but ``tropicalize``'s;
# a long session evicts the least recently used word instead of growing.
CACHE_SIZE = 1024


class BirationalMap(Value):
    """A pair of reduced rational functions: the semantic group element.

    ``steps``, which ``==``, ``hash`` and ``repr`` ignore, build the map from
    the identity by ``polyrat.pullback``; None for a map given by f and g alone.
    """

    __slots__ = ("f", "g", "steps")
    _fields = ("f", "g")
    f: RatFunc2
    g: RatFunc2
    steps: tuple[Mat | int, ...] | None

    def __init__(self, f: RatFunc2, g: RatFunc2, steps: tuple[Mat | int, ...] | None = None) -> None:
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "steps", steps)

    def __str__(self) -> str:
        return f"({self.f}, {self.g})"


IDENTITY_MAP = BirationalMap(RatFunc2.x(), RatFunc2.y(), ())


def _pull(m: BirationalMap, steps: Iterable[Mat | int]) -> BirationalMap:
    """m after the map that ``steps`` build, recording m's steps and then the merged ones.

    Adjacent monomial steps merge by their matrix product and adjacent
    powers of E add up, so E[n]^k costs one E-step; MAT_ID and E^0 drop out.
    """
    merged: list[Mat | int] = []
    for step in steps:
        if merged and isinstance(step, int) == isinstance(merged[-1], int):
            prev = merged.pop()
            step = prev + step if isinstance(step, int) else mat_mul(prev, step)
        if step != 0 and step != MAT_ID:
            merged.append(step)
    f, g = pullback((m.f, m.g), merged)
    return BirationalMap(f, g, None if m.steps is None else m.steps + tuple(merged))


def compose(outer: BirationalMap, inner: BirationalMap) -> BirationalMap:
    """outer after inner: outer pulled back through inner's steps.

    An inner map given by f and g alone raises ValueError; substitute into
    it with ``polyrat.substitute``, one call per coordinate.
    """
    if inner.steps is None:
        raise ValueError("inner map has no steps; compose into a map given by f and g with polyrat.substitute")
    return _pull(outer, inner.steps)


@lru_cache(maxsize=CACHE_SIZE)
def _letter_steps(letter: Letter) -> tuple[Mat | int, ...]:
    """The ``polyrat.pullback`` steps of one letter: its matrix, or mat_inv(c), e, c for the complement c of n."""
    gen, e = letter
    if isinstance(gen, Linear):
        return (gen.mat if e == 1 else mat_inv(gen.mat),)
    c = complement_matrix(gen.n)
    return (mat_inv(c), e, c)


@lru_cache(maxsize=CACHE_SIZE)
def realize(w: Word) -> BirationalMap:
    """l1 after ... after ln: ``IDENTITY_MAP`` pulled back through the letters' steps in order.

    A linear letter A[B] is one monomial step and E[n]^e the steps
    mat_inv(c), e, c for the complement c of n; ``_pull`` merges adjacent
    steps, so a power of one E[n] costs one E-step.  The empty word gives
    ``IDENTITY_MAP`` itself.
    """
    if not w.letters:
        return IDENTITY_MAP
    return _pull(IDENTITY_MAP, (step for letter in w.letters for step in _letter_steps(letter)))


def equal(w1: Word, w2: Word) -> bool:
    """The word-problem oracle: equality of canonical rational components.

    ``realize`` is a homomorphism, so u a v and u b v are equal exactly when
    a and b are: the longest common prefix and then suffix of the two
    reduced words cancel, and only the differing middles are realized.
    Subwords of reduced words are reduced, so a middle is never longer
    than its word.
    """
    a, b = w1.letters, w2.letters
    short = min(len(a), len(b))
    i = 0
    while i < short and a[i] == b[i]:
        i += 1
    j = 0
    while j < short - i and a[-1 - j] == b[-1 - j]:
        j += 1
    a, b = a[i : len(a) - j], b[i : len(b) - j]
    if not a and not b:
        return True
    return realize(Word(a)) == realize(Word(b))


def volume_character(w: Word) -> int:
    """The constant +-1 scaling the form dlog x ^ dlog y.

    ``polyrat.dlog_ratio`` proves the realized map's dlog f ^ dlog g a
    constant multiple of dlog x ^ dlog y in exact integer arithmetic, or
    shows that it is not.  Every word must come out exactly +1 or -1;
    anything else is a bug and raises AssertionError.
    """
    m = realize(w)
    value = dlog_ratio(m.f, m.g)
    if value is None:
        raise AssertionError(f"character of {w} is non-constant")
    if value not in (1, -1):
        raise AssertionError(f"character of {w} is {value}")
    return int(value)


def character_from_letters(w: Word) -> int:
    """Product of linear determinants; the cheap prediction for the character."""
    return reduce(lambda s, l: s * generator_determinant(l[0]), w.letters, 1)


@lru_cache(maxsize=CACHE_SIZE)
def letter_trop(letter: Letter) -> PLMap:
    """The piecewise-linear shadow of one letter."""
    gen, e = letter
    if isinstance(gen, Linear):
        return PLMap.linear(gen.mat if e == 1 else mat_inv(gen.mat))
    return pl_elementary(gen.n, e)


# A cache of size 0 holds no entry and only counts calls as misses: one of
# CACHE_SIZE scored no hit on the distinct words of ``bench/``'s word_queries
# and held about 1.3 MiB there.  The decorator stays because ``bench/`` reads
# its ``cache_info()`` (the cold-state guard and the traced run) and calls its
# ``cache_clear()``, so it can go only with a change to the benchmark.
@lru_cache(maxsize=0)
def tropicalize(w: Word) -> PLMap:
    """The piecewise-linear shadow, folded from the first letter as ``pl_compose(acc, letter)``."""
    return reduce(pl_compose, map(letter_trop, w.letters)) if w.letters else PLMap.identity()


def tropical_image(w: Word, v: Vec) -> Vec:
    """``pl_apply(tropicalize(w), v)``, moving v by ``ray_image`` one letter at a time.

    PL composition is exact, so this equals the image under the composite
    map; it never builds that map, whose piece count grows with the word.
    """
    for letter in reversed(w.letters):
        v = ray_image(letter, v)
    return v


# --- boundary limits ----------------------------------------------------------


class BoundaryAction(Value):
    """Image ray plus the induced boundary-coordinate map lambda -> c lambda^e."""

    __slots__ = ("ray", "coeff", "exponent")
    ray: Vec
    coeff: Fraction
    exponent: int

    def apply(self, lam: Fraction) -> Fraction:
        lam = Fraction(lam)
        return self.coeff * (lam if self.exponent == 1 else 1 / lam)

    def fixes_distinguished_point(self) -> bool:
        return self.apply(Fraction(-1)) == Fraction(-1)


def boundary_limit(w: Word, n: Vec) -> BoundaryAction:
    """The image ray of n and the induced action lambda -> lambda^+-1, read off the letters.

    A linear letter of ray matrix M sends lambda to lambda^det M, because
    M^T J M = det(M) J for J = ((0, 1), (-1, 0)), and E[n]^e sends lambda
    to lambda at every ray, so the restrictions compose to coefficient 1 and
    the product of the determinants as exponent: every group element fixes
    the distinguished point.
    """
    require_primitive(n)
    return BoundaryAction(tropical_image(w, n), Fraction(1), character_from_letters(w))
