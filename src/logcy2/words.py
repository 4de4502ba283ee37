"""Words in the generators of the volume-preserving birational transformations.

A generator is either a linear (monomial) map, recorded by the unimodular
matrix giving its action on boundary rays, or an elementary transformation
attached to a primitive lattice vector.  A word is a freely reduced sequence
of generators with exponents +1 or -1; words multiply by concatenation.

Matrix literals in the text grammar follow the torus-coordinate convention:
``A[a,b;c,d]`` acts by (x, y) -> (x^a y^c, x^b y^d).  The induced action on
boundary rays is by the *transpose* of the literal, so the parser stores
``Linear`` generators with the ray-action matrix (transposing once here keeps
every downstream formula matrix-times-vector).

The text grammar is ``GRAMMAR`` below.  Whitespace may stand between any
two tokens, and a power may expand to at most ``MAX_POWER_LETTERS`` letters.

Named macros:

    P  = E^-1 * A[0,-1;1,0]                      order-5 pentagon map
    r2 = A[1,0;0,-1] * E^2                       cubic-surface reflection
    r1 = W^-1 * r2 * W,  r3 = W * r2 * W^-1      where W = A[0,1;-1,-1],
                                                 an order-3 rotation of the
                                                 triangle of boundary rays
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator

from .errors import Value
from .lattice import (
    Mat,
    Vec,
    mat_det,
    mat_inv,
    mat_transpose,
    mat_vec,
    require_primitive,
    require_unimodular,
)


class Linear(Value):
    """Monomial map with ray action by ``mat`` (mat applies to column vectors)."""

    __slots__ = ("mat",)
    mat: Mat

    def __init__(self, mat: Mat) -> None:
        object.__setattr__(self, "mat", require_unimodular(mat))


class Elementary(Value):
    """Elementary transformation at the primitive ray ``n``.

    ``Elementary((0, 1))`` is the basic cluster map E; general n is its
    conjugate by the canonical complement matrix, moving one interior
    blow-up from ray n to ray -n.
    """

    __slots__ = ("n",)
    n: Vec

    def __init__(self, n: Vec) -> None:
        object.__setattr__(self, "n", require_primitive(n))


Generator = Linear | Elementary

Letter = tuple[Generator, int]


def _inverse_letter(letter: Letter) -> Letter:
    gen, e = letter
    return (gen, -e)


class Word(Value):
    """Freely reduced word; adjacent (g, +1)(g, -1) pairs cancel on construction."""

    __slots__ = ("letters",)
    letters: tuple[Letter, ...]

    def __init__(self, letters: tuple[Letter, ...] = ()) -> None:
        reduced: list[Letter] = []
        for gen, e in letters:
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {e}")
            if reduced and reduced[-1][0] == gen and reduced[-1][1] == -e:
                reduced.pop()
            else:
                reduced.append((gen, e))
        object.__setattr__(self, "letters", tuple(reduced))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(_inverse_letter(l) for l in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        # One free-reduction pass over the k-fold concatenation.
        return Word(self.letters * k) if self.letters else self

    def is_empty(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_text(self)


def linear_from_literal(a: int, b: int, c: int, d: int) -> Linear:
    """Generator for the grammar literal A[a,b;c,d], i.e. (x,y) -> (x^a y^c, x^b y^d)."""
    return Linear(mat_transpose(require_unimodular(((a, b), (c, d)))))  # an error names the literal as written


def literal_of_linear(gen: Linear) -> tuple[int, int, int, int]:
    (a, b), (c, d) = mat_transpose(gen.mat)
    return a, b, c, d


E = Word(((Elementary((0, 1)), 1),))


def elementary(n: Vec) -> Word:
    return Word(((Elementary(n), 1),))


def linear(mat: Mat) -> Word:
    """One-letter word for the monomial map acting on rays by ``mat``."""
    return Word(((Linear(mat), 1),))


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The longest word a power in the grammar may expand to.
MAX_POWER_LETTERS = 100_000

GRAMMAR = """word grammar:
  word := term ("*" term)*
  term := atom ("^" int)?
  atom := "E" | "E[n1,n2]" | "A[a,b;c,d]" | "P" | "r1" | "r2" | "r3" | "id" | "(" word ")"
A[a,b;c,d] acts by (x, y) -> (x^a y^c, x^b y^d); E[n1,n2] needs gcd(n1,n2) = 1."""

_INT = r"\s*(-?\d+)\s*"
# One match per token: a whole E[n1,n2] or A[a,b;c,d] literal with its
# integers, an integer, a name, a separator or parenthesis, or any other
# character.  Whitespace matches nothing, so ``finditer`` skips it.
_TOKEN = re.compile(
    rf"(?P<literal>E\s*\[{_INT},{_INT}\]|A\s*\[{_INT},{_INT};{_INT},{_INT}\])"
    r"|(?P<int>-?\d+)|\w+|[*^()]|(?P<other>\S)"
)


def _macro_words() -> dict[str, Word]:
    rot = linear(((0, -1), (1, -1)))  # ray rotation (1,0)->(0,1)->(-1,-1)
    flip_y = Word(((linear_from_literal(1, 0, 0, -1), 1),))
    p = E.inverse() * Word(((linear_from_literal(0, -1, 1, 0), 1),))
    r2 = flip_y * E * E
    r1 = rot.inverse() * r2 * rot
    r3 = rot * r2 * rot.inverse()
    return {"P": p, "r1": r1, "r2": r2, "r3": r3}


# The letters of each named atom.
_NAMED = {"E": E.letters, "id": (), **{name: w.letters for name, w in _macro_words().items()}}


def _unexpected(m: re.Match[str] | None, message: str) -> WordSyntaxError:
    """The error for token ``m`` (None at the end of the text) where the grammar wants another.

    A token longer than 40 characters is quoted by its first 40 and "...".
    """
    if m is None:
        return WordSyntaxError("unexpected end of input", -1)
    if m["other"] is not None:
        message = "unexpected character"
    tail = "..." if len(m[0]) > 40 else ""
    return WordSyntaxError(f"{message} {m[0][:40]!r}{tail}", m.start())


def _to_int(m: re.Match[str], group: int | str) -> int:
    try:
        return int(m[group])
    except ValueError:  # past the int-to-text digit limit
        raise WordSyntaxError(f"integer has more than {sys.get_int_max_str_digits()} digits", m.start(group)) from None


def _literal(m: re.Match[str]) -> tuple[Letter, ...]:
    """The letter of an ``E[n1,n2]`` or ``A[a,b;c,d]`` token."""
    n = [_to_int(m, g) for g in range(2, 8) if m[g] is not None]
    try:
        return ((Elementary(tuple(n)) if len(n) == 2 else linear_from_literal(*n), 1),)
    except ValueError as exc:
        raise WordSyntaxError(str(exc), m.start()) from exc


def _group(tokens: Iterator[re.Match[str]], close: str | None) -> Word:
    """The word read up to ``close``: the ")" of a group, or None for the end of the text."""
    # One free reduction over all the terms' letters, powers included:
    # reducing at each "*" would re-reduce the whole prefix, quadratic in a
    # long literal product.
    letters: list[Letter] = []
    for m in tokens:
        if m[0] == "(":
            atom = _group(tokens, ")").letters
        elif m["literal"] is not None:
            atom = _literal(m)
        elif m[0] in _NAMED:
            atom = _NAMED[m[0]]
        else:
            raise _unexpected(m, "unexpected token")
        m = next(tokens, None)
        if m is not None and m[0] == "^":
            m = next(tokens, None)
            if m is None or m["int"] is None:
                raise _unexpected(m, "expected integer, got")
            k = _to_int(m, "int")
            if len(atom) * abs(k) > MAX_POWER_LETTERS:
                raise WordSyntaxError(f"power has more than {MAX_POWER_LETTERS} letters", m.start())
            if atom:  # () * k overflows for k past sys.maxsize; an empty atom stays empty
                if k < 0:
                    atom, k = tuple(map(_inverse_letter, reversed(atom))), -k
                atom *= k
            m = next(tokens, None)
        letters += atom
        tok = m and m[0]  # None at the end of the text
        if tok == close:
            return Word(tuple(letters))
        if tok != "*":
            raise _unexpected(m, "trailing input" if close is None else "expected ')', got")
    raise WordSyntaxError("unexpected end of input", -1)


def parse_word(text: str) -> Word:
    """Parse ``GRAMMAR`` into a freely reduced word."""
    if text.strip() == "":
        return Word()
    try:
        return _group(_TOKEN.finditer(text), None)
    except RecursionError:  # _group recurses once per "("
        raise WordSyntaxError("parentheses nested too deeply", text.find("(")) from None


def _letter_text(gen: Generator) -> str:
    if isinstance(gen, Elementary):
        return "E" if gen.n == (0, 1) else f"E[{gen.n[0]},{gen.n[1]}]"
    a, b, c, d = literal_of_linear(gen)
    return f"A[{a},{b};{c},{d}]"


def word_to_text(w: Word) -> str:
    """Render a word; adjacent equal letters group into powers.  Round-trips."""
    if w.is_empty():
        return "id"
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        gen, e = letters[i]
        j = i
        while j < len(letters) and letters[j] == (gen, e):
            j += 1
        run = (j - i) * e
        base = _letter_text(gen)
        parts.append(base if run == 1 else f"{base}^{run}")
        i = j
    return " * ".join(parts)


def generator_determinant(gen: Generator) -> int:
    """det of the linear part: +-1 for Linear, +1 for Elementary."""
    return mat_det(gen.mat) if isinstance(gen, Linear) else 1


def ray_image(letter: Letter, v: Vec) -> Vec:
    """The image of v under one letter's tropicalization.

    A linear letter moves v by B^e.  E[n]^e fixes v when cross(n, v) <= 0
    and sends it to v + e cross(n, v) n otherwise.
    """
    gen, e = letter
    if isinstance(gen, Linear):
        return mat_vec(gen.mat if e == 1 else mat_inv(gen.mat), v)
    (n1, n2), (x, y) = gen.n, v
    c = n1 * y - n2 * x
    return v if c <= 0 else (x + e * c * n1, y + e * c * n2)
