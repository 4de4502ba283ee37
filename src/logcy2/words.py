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

Grammar (whitespace insignificant)::

    word := term ("*" term)*
    term := atom ("^" int)?                      at most MAX_POWER_LETTERS letters
    atom := "E" | "E[" int "," int "]" | "A[" int "," int ";" int "," int "]"
          | "P" | "r1" | "r2" | "r3" | "id" | "(" word ")"

Named macros:

    P  = E^-1 * A[0,-1;1,0]                      order-5 pentagon map
    r2 = A[1,0;0,-1] * E^2                       cubic-surface reflection
    r1 = W^-1 * r2 * W,  r3 = W * r2 * W^-1      where W = A[0,1;-1,-1],
                                                 an order-3 rotation of the
                                                 triangle of boundary rays
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lattice import (
    Mat,
    Vec,
    mat_det,
    mat_transpose,
    require_primitive,
    require_unimodular,
)


@dataclass(frozen=True)
class Linear:
    """Monomial map with ray action by ``mat`` (mat applies to column vectors)."""

    mat: Mat

    def __post_init__(self) -> None:
        require_unimodular(self.mat)


@dataclass(frozen=True)
class Elementary:
    """Elementary transformation at the primitive ray ``n``.

    ``Elementary((0, 1))`` is the basic cluster map E; general n is its
    conjugate by the canonical complement matrix, moving one interior
    blow-up from ray n to ray -n.
    """

    n: Vec

    def __post_init__(self) -> None:
        require_primitive(self.n)


Generator = Linear | Elementary

Letter = tuple[Generator, int]


def _inverse_letter(letter: Letter) -> Letter:
    gen, e = letter
    return (gen, -e)


@dataclass(frozen=True)
class Word:
    """Freely reduced word; adjacent (g, +1)(g, -1) pairs cancel on construction."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        reduced: list[Letter] = []
        for gen, e in self.letters:
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
    return Linear(mat_transpose(((a, b), (c, d))))


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

_TOKEN = re.compile(r"\s*(E|A|P|r1|r2|r3|id|\[|\]|,|;|\*|\^|\(|\)|-?\d+)")


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self) -> int:
        return self.toks[self.i][1] if self.i < len(self.toks) else -1

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.toks):
            raise WordSyntaxError("unexpected end of input", -1)
        tok, pos = self.toks[self.i]
        if expected is not None and tok != expected:
            raise WordSyntaxError(f"expected {expected!r}, got {tok!r}", pos)
        self.i += 1
        return tok

    def take_int(self) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise WordSyntaxError(f"expected integer, got {tok!r}", self.toks[self.i - 1][1])


def _macro_words() -> dict[str, Word]:
    rot = linear(((0, -1), (1, -1)))  # ray rotation (1,0)->(0,1)->(-1,-1)
    flip_y = Word(((linear_from_literal(1, 0, 0, -1), 1),))
    p = E.inverse() * Word(((linear_from_literal(0, -1, 1, 0), 1),))
    r2 = flip_y * E * E
    r1 = rot.inverse() * r2 * rot
    r3 = rot * r2 * rot.inverse()
    return {"P": p, "r1": r1, "r2": r2, "r3": r3}


_MACROS = _macro_words()


def _parse_atom(tk: _Tokens) -> Word:
    t = tk.peek()
    pos = tk.pos()
    if t is None:
        raise WordSyntaxError("unexpected end of input", -1)
    if t == "(":
        tk.take()
        w = _parse_word(tk)
        tk.take(")")
        return w
    if t == "id":
        tk.take()
        return Word()
    if t in _MACROS:
        tk.take()
        return _MACROS[t]
    if t == "E":
        tk.take()
        if tk.peek() == "[":
            tk.take()
            n1 = tk.take_int()
            tk.take(",")
            n2 = tk.take_int()
            tk.take("]")
            try:
                return elementary((n1, n2))
            except ValueError as exc:
                raise WordSyntaxError(str(exc), pos) from exc
        return E
    if t == "A":
        tk.take()
        tk.take("[")
        a = tk.take_int()
        tk.take(",")
        b = tk.take_int()
        tk.take(";")
        c = tk.take_int()
        tk.take(",")
        d = tk.take_int()
        tk.take("]")
        try:
            return Word(((linear_from_literal(a, b, c, d), 1),))
        except ValueError as exc:
            raise WordSyntaxError(str(exc), pos) from exc
    raise WordSyntaxError(f"unexpected token {t!r}", pos)


def _parse_term(tk: _Tokens) -> Word:
    w = _parse_atom(tk)
    if tk.peek() == "^":
        tk.take()
        pos = tk.pos()
        k = tk.take_int()
        if len(w) * abs(k) > MAX_POWER_LETTERS:
            raise WordSyntaxError(f"power has more than {MAX_POWER_LETTERS} letters", pos)
        return w**k
    return w


def _parse_word(tk: _Tokens) -> Word:
    # One free reduction over all the terms' letters: reducing at each "*"
    # would re-reduce the whole prefix, quadratic in a long literal product.
    letters = list(_parse_term(tk).letters)
    while tk.peek() == "*":
        tk.take()
        letters += _parse_term(tk).letters
    return Word(tuple(letters))


def parse_word(text: str) -> Word:
    """Parse the grammar above into a freely reduced word."""
    if text.strip() == "":
        return Word()
    tk = _Tokens(text)
    try:
        w = _parse_word(tk)
    except RecursionError:  # the parser recurses once per "("
        raise WordSyntaxError("parentheses nested too deeply", tk.pos()) from None
    if tk.peek() is not None:
        raise WordSyntaxError(f"trailing input {tk.peek()!r}", tk.pos())
    return w


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
