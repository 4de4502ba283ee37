"""One operation of each workload, and the canonical text it is checked by.

Shared by ``worker.py``, which times the operations, and ``record.py``,
which records their expected digests.  Library functions are looked up on
their modules at call time, so the span wrappers of a traced run see every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from logcy2 import birmap, lattice, words


def digest(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


# --- word_queries -------------------------------------------------------------


def word_query(text: str, rays: list[tuple[int, int]], partner: str):
    """parse, realize, character, tropical images and boundary limits, equality."""
    w = words.parse_word(text)
    m = birmap.realize(w)
    char = birmap.volume_character(w)
    trop = birmap.tropicalize(w)
    images = [lattice.pl_apply(trop, r) for r in rays]
    limits = [birmap.boundary_limit(w, r) for r in rays]
    same = birmap.equal(w, words.parse_word(partner))
    return m, char, images, limits, same


def word_query_text(m, images, limits) -> str:
    """Canonical form of the outputs of one query whose truth is not known by construction."""
    lims = ";".join(f"{b.ray[0]},{b.ray[1]}:{b.coeff}:{b.exponent}" for b in limits)
    return f"{m}|{images}|{lims}"


# --- reflection_enum ----------------------------------------------------------


def reflection_maps() -> list:
    """r1, r2, r3 realized as ``demo cubic`` realizes them."""
    return [birmap.realize(words.parse_word(f"r{i}")) for i in (1, 2, 3)]


# --- surface_cli --------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in process, with stdout and stderr captured."""
    from logcy2 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()
