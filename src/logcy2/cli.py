"""Command-line surface over the word algebra, surfaces, diagrams and catalogs.

Exit codes: 0 on success; 1 on every ``errors.DomainError`` (non-regular
words, poles, budgets, output past the digit limit, invalid input files)
and on unreadable input files, each with one ``error:`` line on stderr, and
on failed checks; 2 on usage errors (bad flags or flag values, word syntax;
the word grammar is reprinted on stderr).  Any other exception is a bug in
the library and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import birmap, catalog, diagrams, sampling, surfaces
from .errors import DomainError, output
from .polyrat import Poly2, RatFunc2, evaluate, normalize
from .surfaces import InvalidSurfaceError, Surface, cubic_surface
from .words import GRAMMAR, Word, WordSyntaxError, parse_word

# Faults of the input; any other exception is a library bug and propagates.
DOMAIN_ERRORS = (
    OSError,  # an input file that is missing or cannot be opened
    UnicodeDecodeError,  # an input file that is not UTF-8 text
    DomainError,
)


def _parse_int_pair(text: str) -> tuple[int, int]:
    """argparse type for 'a,b'; a malformed value is a usage error (exit 2)."""
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two integers 'a,b', got {text!r}") from None


def _parse_fraction_pair(text: str) -> tuple[Fraction, Fraction]:
    """argparse type for 'p,q'; a malformed value is a usage error (exit 2)."""
    try:
        p, q = text.split(",")
        if "e" in text.lower():  # Fraction("1e10000000") would build 10^(10^7)
            raise ValueError(text)
        return Fraction(p), Fraction(q)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected two rationals 'p,q', got {text!r}") from None


def _load_surface(path: str) -> Surface:
    with open(path, encoding="utf-8") as fh:
        return surfaces.from_json(fh.read())


def _load_diagram(path: str) -> diagrams.BaseDiagram:
    with open(path, encoding="utf-8") as fh:
        return diagrams.from_json(fh.read())


# --- word subcommands ---------------------------------------------------------


def cmd_word_equal(args) -> int:
    result = birmap.equal(parse_word(args.word1), parse_word(args.word2))
    print("true" if result else "false")
    return 0


def cmd_word_realize(args) -> int:
    print(output(str, birmap.realize(parse_word(args.word))))
    return 0


def cmd_word_character(args) -> int:
    value = birmap.volume_character(parse_word(args.word))
    print("+1" if value == 1 else "-1")
    return 0


def cmd_word_trop(args) -> int:
    image = birmap.tropical_image(parse_word(args.word), args.vector)
    print(output("{},{}".format, *image))
    return 0


def cmd_word_eval(args) -> int:
    m = birmap.realize(parse_word(args.word))
    vx, vy = evaluate(m.f, args.point), evaluate(m.g, args.point)
    print(output("{},{}".format, vx, vy))
    return 0


# --- surface subcommands ------------------------------------------------------


def cmd_surface_validate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    try:
        surfaces.from_json(text)
    except InvalidSurfaceError as err:
        for v in err.violations:
            print(f"violation: {v}")
        return 1
    print("ok")
    return 0


def cmd_surface_invariants(args) -> int:
    inv = surfaces.numeric_invariants(_load_surface(args.file))
    print(json.dumps(inv._asdict()))
    return 0


def cmd_surface_intersections(args) -> int:
    s = _load_surface(args.file)
    mat, negdef = surfaces.boundary_intersection_matrix(s)
    print(json.dumps({
        "self_intersections": list(surfaces.toric_self_intersections(s)),
        "matrix": [list(row) for row in mat],
        "negative_definite": negdef,
        "all_m_above_two": all(m > 2 for m in s.m),
    }))
    return 0


def cmd_surface_pushforward(args) -> int:
    s = surfaces.pushforward(parse_word(args.word), _load_surface(args.file))
    print(surfaces.to_json(s))
    return 0


def cmd_surface_resolve(args) -> int:
    s = surfaces.resolve(parse_word(args.word), _load_surface(args.file))
    print(surfaces.to_json(s))
    return 0


# --- atf subcommands ----------------------------------------------------------


def cmd_atf_diagram(args) -> int:
    d = diagrams.diagram(_load_surface(args.file))
    print(diagrams.to_json(d))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(diagrams.render_svg(d))
    return 0


def cmd_atf_move(args) -> int:
    d = _load_diagram(args.file)
    print(diagrams.to_json(diagrams.elementary_move(d, args.elementary)))
    return 0


# --- hms subcommand -----------------------------------------------------------


def cmd_hms_counts(args) -> int:
    report = catalog.check_counts(_load_surface(args.file))
    print(json.dumps({**{name: getattr(report, name) for name in report.__slots__}, "ok": report.ok}))
    return 0


# --- demo and verify ----------------------------------------------------------


def _check(label: str, ok: bool, failures: list[str]) -> None:
    print(f"{label}: {'pass' if ok else 'FAIL'}")
    if not ok:
        failures.append(label)


def _alternating_words_nontrivial(max_len: int) -> int:
    reflections = [birmap.realize(parse_word(name)) for name in ("r1", "r2", "r3")]
    identity = birmap.IDENTITY_MAP
    count = 0
    frontier = [(identity, -1)]
    for _ in range(max_len):
        next_frontier = []
        for m, last in frontier:
            for i, r in enumerate(reflections):
                if i == last:
                    continue
                extended = birmap.compose(m, r)
                if extended == identity:
                    raise AssertionError("alternating reflection word collapsed to id")
                count += 1
                next_frontier.append((extended, i))
        frontier = next_frontier
    return count


def cmd_demo_cubic(args) -> int:
    failures: list[str] = []
    xi = cubic_surface()
    print(f"surface: {surfaces.to_json(xi)}")
    x, y, one = Poly2.x(), Poly2.y(), Poly2.const(1)
    expected = {
        "r1": birmap.BirationalMap(normalize((one + y) ** 2, x), RatFunc2.y()),
        "r2": birmap.BirationalMap(RatFunc2.x(), normalize((one + x) ** 2, y)),
        "r3": birmap.BirationalMap(normalize(x, (x + y) ** 2), normalize(y, (x + y) ** 2)),
    }
    for name in ("r1", "r2", "r3"):
        w = parse_word(name)
        m = birmap.realize(w)
        print(f"{name} = {m}")
        _check(f"{name} matches its reflection formula", m == expected[name], failures)
        _check(f"{name}^2 = id", birmap.equal(w * w, Word()), failures)
        resolved = surfaces.resolve(w, xi)
        _check(
            f"resolving {name} adds corner rays only",
            resolved.total_m() == xi.total_m() and surfaces.leq(xi, resolved),
            failures,
        )
        _check(
            f"{name} maps its resolved surface to itself",
            surfaces.pushforward(w, resolved) == resolved,
            failures,
        )
        print(f"resolved for {name}: {surfaces.to_json(resolved)}")
    count = _alternating_words_nontrivial(6)
    _check(f"alternating reflection words nontrivial ({count} words)", count == 189, failures)
    return 1 if failures else 0


def cmd_verify_relations(args) -> int:
    failures: list[str] = []
    p = parse_word("P")
    _check("P^5 = id", birmap.equal(p**5, Word()), failures)
    for k in range(1, 5):
        _check(f"P^{k} != id", not birmap.equal(p**k, Word()), failures)
    _check(
        "A[-1,0;0,1] * E * A[-1,0;0,1] = A[1,1;0,1] * E",
        birmap.equal(parse_word("A[-1,0;0,1] * E * A[-1,0;0,1]"), parse_word("A[1,1;0,1] * E")),
        failures,
    )
    rng = sampling.rng_from_env()
    pairs = [(sampling.random_word(rng, 3), sampling.random_word(rng, 3)) for _ in range(20)]
    ok = all(
        birmap.volume_character(w1 * w2)
        == birmap.volume_character(w1) * birmap.volume_character(w2)
        for w1, w2 in pairs
    )
    _check("volume character multiplicative on 20 random pairs", ok, failures)
    ok = all(
        birmap.volume_character(w) == birmap.character_from_letters(w)
        for pair in pairs
        for w in pair
    )
    _check("volume character equals product of linear determinants", ok, failures)
    return 1 if failures else 0


# --- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and then shared.

    ``parse_args`` reads the parser and never changes it, so ``main`` can
    reuse one parser for every call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="logcy2",
        description="Exact word algebra and surface combinatorics for "
        "volume-preserving plane birational maps.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="word algebra").add_subparsers(
        dest="subcommand", required=True
    )
    eq = word.add_parser("equal", help="decide equality of two words")
    eq.add_argument("word1")
    eq.add_argument("word2")
    eq.set_defaults(func=cmd_word_equal)
    re_ = word.add_parser("realize", help="print the rational-map pair")
    re_.add_argument("word")
    re_.set_defaults(func=cmd_word_realize)
    ch = word.add_parser("character", help="print the volume character")
    ch.add_argument("word")
    ch.set_defaults(func=cmd_word_character)
    tr = word.add_parser("trop", help="apply the tropicalization to a vector")
    tr.add_argument("word")
    tr.add_argument("--vector", required=True, metavar="a,b", type=_parse_int_pair)
    tr.set_defaults(func=cmd_word_trop)
    ev = word.add_parser("eval", help="evaluate the map at an exact point")
    ev.add_argument("word")
    ev.add_argument("--point", required=True, metavar="p,q", type=_parse_fraction_pair)
    ev.set_defaults(func=cmd_word_eval)

    surf = sub.add_parser("surface", help="toric surface data").add_subparsers(
        dest="subcommand", required=True
    )
    for name, func, with_word in (
        ("validate", cmd_surface_validate, False),
        ("invariants", cmd_surface_invariants, False),
        ("intersections", cmd_surface_intersections, False),
        ("pushforward", cmd_surface_pushforward, True),
        ("resolve", cmd_surface_resolve, True),
    ):
        sp = surf.add_parser(name)
        if with_word:
            sp.add_argument("word")
        sp.add_argument("file")
        sp.set_defaults(func=func)

    atf = sub.add_parser("atf", help="almost-toric base diagrams").add_subparsers(
        dest="subcommand", required=True
    )
    dg = atf.add_parser("diagram", help="base diagram of a surface file")
    dg.add_argument("file")
    dg.add_argument("--svg", metavar="OUT.svg")
    dg.set_defaults(func=cmd_atf_diagram)
    mv = atf.add_parser("move", help="elementary move on a diagram file")
    mv.add_argument("file")
    mv.add_argument("--elementary", required=True, metavar="a,b", type=_parse_int_pair)
    mv.set_defaults(func=cmd_atf_move)

    hms = sub.add_parser("hms", help="mirror bookkeeping").add_subparsers(
        dest="subcommand", required=True
    )
    ct = hms.add_parser("counts", help="collection count checks for a surface file")
    ct.add_argument("file")
    ct.set_defaults(func=cmd_hms_counts)

    demo = sub.add_parser("demo", help="worked demonstrations").add_subparsers(
        dest="subcommand", required=True
    )
    cu = demo.add_parser("cubic", help="the open cubic surface and its reflections")
    cu.set_defaults(func=cmd_demo_cubic)

    verify = sub.add_parser("verify", help="relation checks").add_subparsers(
        dest="subcommand", required=True
    )
    rel = verify.add_parser("relations", help="pentagon and conjugation relations")
    rel.set_defaults(func=cmd_verify_relations)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse before 3.12 reads "--opt=--" as [] and skips the option's type
        parser.error("an option value cannot be '--'")
    try:
        return args.func(args)
    except WordSyntaxError as err:
        print(f"error: {err}", file=sys.stderr)
        print(GRAMMAR, file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
