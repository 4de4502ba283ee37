"""Seeded random generators for fuzz checks (words, matrices, surfaces).

Used by the command-line ``verify`` subcommand and by the test suite; the
seed comes from the LOGCY2_SEED environment variable so runs reproduce.
"""

from __future__ import annotations

import math
import os
import random
import sys

from .errors import DomainError, cut
from .lattice import Mat, Vec, mat_mul
from .surfaces import Surface, insert_ray, interior_blowup, p1xp1, p2
from .words import Elementary, Linear, Word

DEFAULT_SEED = 2024


def seed_from_env() -> int:
    """LOGCY2_SEED as an integer, DEFAULT_SEED when unset; any other text is a domain error."""
    text = os.environ.get("LOGCY2_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"LOGCY2_SEED is not an integer of at most {limit} digits: {cut(repr(text))}") from None


def rng_from_env(offset: int = 0) -> random.Random:
    return random.Random(seed_from_env() + offset)


def random_primitive(rng: random.Random, bound: int = 4) -> Vec:
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0) and math.gcd(v[0], v[1]) == 1:
            return v


def random_unimodular(rng: random.Random) -> Mat:
    """A product of at most two elementary shears, reflected (det -1) with probability 0.3.

    Entries stay small on purpose: words built from these feed exact
    composition, where monomial exponents multiply along the word.
    """
    m: Mat = ((1, 0), (0, 1))
    for _ in range(rng.randint(0, 2)):
        t = rng.choice([-1, 1])
        shear = ((1, t), (0, 1)) if rng.random() < 0.5 else ((1, 0), (t, 1))
        m = mat_mul(m, shear)
    if rng.random() < 0.3:
        m = mat_mul(m, ((0, 1), (1, 0)))
    return m


def random_letter(rng: random.Random) -> tuple:
    e = rng.choice([1, -1])
    kind = rng.random()
    if kind < 0.4:
        return (Elementary((0, 1)), e)
    if kind < 0.7:
        return (Elementary(random_primitive(rng, 2)), e)
    return (Linear(random_unimodular(rng)), e)


# The largest realized degree ``random_word`` lets a word reach.
DEGREE_CAP = 24


def realized_degree(w: Word) -> int:
    """The largest total degree of the four polynomials of ``realize(w)``."""
    from .birmap import realize

    m = realize(w)
    return max(p.total_degree() for p in (m.f.num, m.f.den, m.g.num, m.g.den))


def random_word(rng: random.Random, max_len: int) -> Word:
    """A word of at most ``max_len`` letters whose realization stays desk-scale.

    Letters are appended while the realized degree stays at most ``DEGREE_CAP``;
    monomial exponents multiply along a word, so an uncapped sampler
    occasionally produces compositions far beyond what exact expansion
    handles in reasonable time.
    """
    target = rng.randint(0, max_len)
    letters: list = []
    for _ in range(target):
        candidate = letters + [random_letter(rng)]
        if realized_degree(Word(tuple(candidate))) > DEGREE_CAP:
            break
        letters = candidate
    return Word(tuple(letters))


def random_surface(rng: random.Random, extra_rays: int = 2, blowups: int = 4) -> Surface:
    s = rng.choice([p2(), p1xp1()])
    for _ in range(rng.randint(0, extra_rays)):
        s = insert_ray(s, random_primitive(rng, 2))
    for _ in range(rng.randint(0, blowups)):
        s = interior_blowup(s, rng.choice(s.rays))
    return s


def random_elementary_setup(rng: random.Random) -> tuple[Surface, Vec]:
    """A surface and a ray on which the elementary move is regular."""
    s = random_surface(rng)
    n = rng.choice(s.rays)
    s = insert_ray(s, (-n[0], -n[1]))
    if s.multiplicity(n) == 0:
        s = interior_blowup(s, n)
    return s, n
