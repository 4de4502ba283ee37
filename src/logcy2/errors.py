"""Whose fault an exception is, decided in one place, digit-safe text,
rationals read from text, and the immutable base of the value classes.

A ``DomainError`` is a fault of the input: the CLI turns each one into exit
1 with one ``error:`` line, and any other exception is a library bug.
Python refuses to write an integer of more than
``sys.get_int_max_str_digits()`` digits as text and raises ``ValueError``;
``cut`` meets that limit in error messages and bounds the integers, items
and nesting quoted in them, and ``output`` meets it in results.
"""

import itertools
import sys
from fractions import Fraction
from operator import attrgetter


class DomainError(Exception):
    """A fault of the input, not of the library."""


class DigitLimitError(DomainError, ValueError):
    """An integer in the output has more digits than Python writes as text."""

    def __init__(self) -> None:
        super().__init__(f"an output integer has more than {sys.get_int_max_str_digits()} digits")


CUT_ITEMS = 5  # items of a container that a quote shows before "..."


def cut(value, depth: int = 3) -> str:
    """``str(value)`` bounded for an error message.

    Each integer in it, inside tuples, lists, dicts and fractions too, is cut
    to 40 characters and "...", each container to its first ``CUT_ITEMS``
    items and "...", and a container nested ``depth`` deep to "...".  A
    value whose text would hold an integer past the int-to-text digit limit
    is quoted by a stand-in.
    """
    if isinstance(value, (tuple, list, dict)):
        if not depth:
            return "..."
        if isinstance(value, dict):
            head = itertools.islice(value.items(), CUT_ITEMS)
            items = [f"{_cut_item(k, depth)}: {_cut_item(v, depth)}" for k, v in head]
        else:
            items = [_cut_item(x, depth) for x in value[:CUT_ITEMS]]
        text = ", ".join(items + ["..."] * (len(value) > CUT_ITEMS))
        brackets = "[]" if isinstance(value, list) else "{}" if isinstance(value, dict) else "()"
        return f"{brackets[0]}{text}{brackets[1]}"
    try:
        text = str(value)
    except ValueError:
        return f"<a value with an integer of more than {sys.get_int_max_str_digits()} digits>"
    return text if len(text) <= 40 else f"{text[:40]}..."


def _cut_item(x, depth: int) -> str:
    """An item as its container writes it, cut: a fraction as Fraction(p, q), a string quoted."""
    if isinstance(x, Fraction):
        return f"Fraction({cut(x.numerator)}, {cut(x.denominator)})"
    return cut(repr(x) if isinstance(x, str) else x, depth - 1)


def rational(x) -> int | Fraction:
    """x as an exact rational: an ``int`` when it is integral, else a ``Fraction``.

    Text is read by ``int`` first and by ``Fraction`` only when ``int`` refuses
    it, so integer text never builds a ``Fraction``; both read the same value
    wherever ``int`` accepts."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def rationals(*values) -> tuple[int | Fraction, ...]:
    """Each value by ``rational``: an ``int`` when integral, else a ``Fraction``.

    Text in exponent notation raises ``ValueError``, since ``Fraction("1e10000000")``
    would build 10^(10^7); other text ``Fraction`` refuses raises what ``Fraction``
    raises."""
    if any(isinstance(x, str) and "e" in x.lower() for x in values):
        raise ValueError("exponent notation is not accepted")
    return tuple(map(rational, values))


def output(render, *args):
    """``render(*args)``; an integer past the int-to-text digit limit raises ``DigitLimitError``."""
    try:
        return render(*args)
    except ValueError as exc:
        raise DigitLimitError() from exc


class Value:
    """An immutable value whose fields are the ``__slots__`` of its class.

    It equals only a value of the very same class with equal fields, hashes
    by its fields and reads as a frozen dataclass does; ``_fields``, every
    slot unless the class names fewer, are the fields that count, and
    ``self._key(self)`` reads them in C, as one value or a tuple.
    ``__init__`` sets each slot once through ``object.__setattr__``;
    ``copy`` and ``pickle`` call the class again on all slots.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = staticmethod(attrgetter(*cls._fields) if cls._fields else lambda self: ())

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])
