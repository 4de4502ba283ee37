"""Whose fault an exception is, decided in one place, and digit-safe text.

A ``DomainError`` is a fault of the input: the CLI turns each one into exit
1 with one ``error:`` line, and any other exception is a library bug.
Python refuses to write an integer of more than
``sys.get_int_max_str_digits()`` digits as text and raises ``ValueError``;
``shown`` meets that limit in error messages, ``output`` in results.
"""

import sys


class DomainError(Exception):
    """A fault of the input, not of the library."""


class DigitLimitError(DomainError, ValueError):
    """An integer in the output has more digits than Python writes as text."""

    def __init__(self) -> None:
        super().__init__(f"an output integer has more than {sys.get_int_max_str_digits()} digits")


def shown(value) -> str:
    """``str(value)`` for an error message; a stand-in if it holds an integer past the int-to-text digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"<a value with an integer of more than {sys.get_int_max_str_digits()} digits>"


def output(render, *args):
    """``render(*args)``; an integer past the int-to-text digit limit raises ``DigitLimitError``."""
    try:
        return render(*args)
    except ValueError as exc:
        raise DigitLimitError() from exc
