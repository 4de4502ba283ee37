"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
check is exact (integer or rational equality), and the two stated runtime
budgets are asserted.  Randomized criteria draw from the seeded samplers,
reproducible via LOGCY2_SEED.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from logcy2 import birmap, catalog, diagrams, surfaces
from logcy2.birmap import (
    boundary_limit,
    equal,
    realize,
    tropicalize,
    volume_character,
)
from logcy2.lattice import pl_apply, pl_compose
from logcy2.polyrat import Poly2, RatFunc2, normalize
from logcy2.sampling import (
    random_elementary_setup,
    random_primitive,
    random_surface,
    random_unimodular,
    random_word,
    rng_from_env,
)
from logcy2.surfaces import (
    boundary_form,
    cubic_surface,
    hirzebruch1,
    leq,
    numeric_invariants,
    p1xp1,
    p2,
    pushforward,
    resolve,
    to_json,
    toric_self_intersections,
)
from logcy2.words import Elementary, Linear, Word, parse_word
from test_surfaces import boundary_intersection_matrix


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): pass")


def test_01_pentagon_relation():
    with criterion(1, "A2 cluster relation"):
        start = time.monotonic()
        assert equal(parse_word("P^5"), parse_word("id"))
        for k in range(1, 5):
            assert not equal(parse_word(f"P^{k}"), parse_word("id"))
        assert time.monotonic() - start < 5.0


def test_02_cubic_demo():
    with criterion(2, "cubic reflections and free product"):
        start = time.monotonic()
        x, y, one = Poly2.x(), Poly2.y(), Poly2.const(1)
        assert realize(parse_word("r2")) == birmap.BirationalMap(
            RatFunc2.x(), normalize((one + x) ** 2, y)
        )
        names = ("r1", "r2", "r3")
        for name in names:
            w = parse_word(name)
            assert equal(w * w, Word())
        reflections = [realize(parse_word(n)) for n in names]
        frontier = [(birmap.IDENTITY_MAP, -1)]
        checked = 0
        for _ in range(6):
            next_frontier = []
            for m, last in frontier:
                for i, r in enumerate(reflections):
                    if i == last:
                        continue
                    extended = birmap.compose(m, r)
                    assert extended != birmap.IDENTITY_MAP
                    checked += 1
                    next_frontier.append((extended, i))
            frontier = next_frontier
        assert checked == 189
        assert time.monotonic() - start < 120.0


def test_03_pushforward_worked_example():
    with criterion(3, "elementary pushforward to the Hirzebruch surface"):
        s = p1xp1((0, 1, 0, 0))
        out = pushforward(parse_word("E"), s)
        assert out == hirzebruch1((0, 0, 0, 1))
        trop = tropicalize(parse_word("E"))
        before = {
            r: a - m
            for r, a, m in zip(s.rays, toric_self_intersections(s), s.m)
        }
        after = {
            r: a - m
            for r, a, m in zip(out.rays, toric_self_intersections(out), out.m)
        }
        for ray, value in before.items():
            assert after[pl_apply(trop, ray)] == value


def test_04_mirror_consistency():
    with criterion(4, "base-diagram moves mirror pushforward"):
        rng = rng_from_env(4)
        for _ in range(50):
            s, n = random_elementary_setup(rng)
            w = Word(((Elementary(n), 1),))
            moved = diagrams.elementary_move(diagrams.diagram(s), n)
            pushed = diagrams.diagram(pushforward(w, s))
            assert diagrams.to_json(moved) == diagrams.to_json(pushed)
        for _ in range(50):
            s = random_surface(rng)
            m = random_unimodular(rng)
            w = Word(((Linear(m), 1),))
            assert diagrams.to_json(
                diagrams.apply_linear(diagrams.diagram(s), m)
            ) == diagrams.to_json(diagrams.diagram(pushforward(w, s)))


def test_05_volume_character():
    with criterion(5, "volume character on random words"):
        rng = rng_from_env(5)
        for _ in range(100):
            w = random_word(rng, 6)
            value = volume_character(w)  # raises if not exactly +-1
            assert value == birmap.character_from_letters(w)


def test_06_tropical_functoriality_and_limits():
    with criterion(6, "tropicalization vs boundary limits"):
        rng = rng_from_env(6)
        for _ in range(100):
            w1, w2 = random_word(rng, 2), random_word(rng, 2)
            combined = tropicalize(w1 * w2)
            composed = pl_compose(tropicalize(w1), tropicalize(w2))
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert pl_apply(combined, v) == pl_apply(composed, v)
            n = random_primitive(rng, 3)
            assert boundary_limit(w1 * w2, n).ray == pl_apply(combined, n)
        generators = [
            parse_word("E"),
            parse_word("E^-1"),
            parse_word("E[1,0]"),
            parse_word("E[0,-1]"),
            parse_word("E[-1,2]"),
            parse_word("A[0,-1;1,0]"),
            parse_word("A[-1,0;0,1]"),
            parse_word("A[1,1;0,1]"),
        ]
        rays = [random_primitive(rng, 4) for _ in range(20)]
        for g in generators:
            for n in rays:
                act = boundary_limit(g, n)
                assert act.apply(Fraction(-1)) == Fraction(-1)


def test_07_resolution_soundness():
    with criterion(7, "resolution of indeterminacy"):
        rng = rng_from_env(7)
        for _ in range(50):
            w = random_word(rng, 4)
            s0 = p2()
            s = resolve(w, s0)
            assert leq(s0, s)
            current = s
            for letter in reversed(w.letters):
                current = pushforward(Word((letter,)), current)
            i0, i1 = numeric_invariants(s), numeric_invariants(current)
            assert (i0.k, i0.total_m, i0.b2) == (i1.k, i1.total_m, i1.b2)


def test_08_intersection_theory():
    with criterion(8, "toric intersection numbers"):
        assert toric_self_intersections(p2()) == (1, 1, 1)
        assert toric_self_intersections(p1xp1()) == (0, 0, 0, 0)
        f1 = hirzebruch1()
        by_ray = dict(zip(f1.rays, toric_self_intersections(f1)))
        assert by_ray == {(1, 0): 0, (0, 1): -1, (-1, 1): 0, (0, -1): 1}
        _, negdef = boundary_intersection_matrix(p2((4, 3, 3)))
        assert negdef and boundary_form(p2((4, 3, 3)))[1]
        _, negdef = boundary_intersection_matrix(p2((3, 3, 3)))
        assert not negdef and not boundary_form(p2((3, 3, 3)))[1]


def test_09_count_checks():
    with criterion(9, "exceptional and vanishing-cycle counts"):
        rng = rng_from_env(9)
        for _ in range(100):
            s = random_surface(rng)
            # The builders themselves, not check_counts, which counts by formula.
            length = len(catalog.exceptional_collection(s))
            assert length == len(catalog.vanishing_cycles(s)) == numeric_invariants(s).chi_y
            spheres = len(diagrams.visible_spheres(s))
            assert spheres == sum(max(m - 1, 0) for m in s.m)
            report = catalog.check_counts(s)
            assert (report.exceptional_count, report.vanishing_count, report.sphere_count) == (length, length, spheres)


SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(args, env, cwd):
    """Run ``python -m logcy2.cli`` on this repository's ``src``, from any ``cwd``.

    ``src`` goes first on the child's ``PYTHONPATH`` as an absolute path, so
    a relative entry such as ``PYTHONPATH=src`` cannot miss it when ``cwd``
    is elsewhere; existing entries follow.  A non-zero exit is re-raised
    with the child's stderr.
    """
    pythonpath = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "logcy2.cli", *args],
            capture_output=True,
            env=dict(env, PYTHONPATH=pythonpath),
            cwd=cwd,
            check=True,
        )
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace")
        raise AssertionError(
            f"logcy2 {' '.join(args)} exited {exc.returncode}; stderr:\n{stderr}"
        ) from exc
    return result.stdout


def test_10_determinism(tmp_path):
    with criterion(10, "byte-stable JSON and SVG output"):
        env = dict(os.environ, LOGCY2_SEED="42")
        pxp = tmp_path / "pxp.json"
        pxp.write_text(to_json(p1xp1((0, 1, 0, 0))))
        cubic = tmp_path / "cubic.json"
        cubic.write_text(to_json(cubic_surface()))
        commands = [
            ["surface", "pushforward", "E", str(pxp)],
            ["surface", "resolve", "r2", str(cubic)],
            ["hms", "counts", str(cubic)],
            ["verify", "relations"],
            ["demo", "cubic"],
        ]
        for args in commands:
            first = _cli(args, env, tmp_path)
            second = _cli(args, env, tmp_path)
            assert first == second, f"output of {args} not byte-stable"
        svg_outputs = []
        for run in (1, 2):
            svg = tmp_path / f"d{run}.svg"
            out = _cli(["atf", "diagram", str(cubic), "--svg", str(svg)], env, tmp_path)
            svg_outputs.append((out, svg.read_bytes()))
        assert svg_outputs[0] == svg_outputs[1]
        parsed = json.loads(svg_outputs[0][0])
        assert len(parsed["nodes"]) == 6
