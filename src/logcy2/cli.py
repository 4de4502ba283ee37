"""Command-line surface over the word algebra, surfaces, diagrams and catalogs.

``COMMANDS`` is the one table of commands, and ``build_parser`` registers
them all by one loop over it: ``{group: (help, {subcommand: (help, handler,
positional names, {option flag: add_argument keywords})})}``.  ``main``
parses a leaf argv, one that starts with a group and one of its
subcommands, with that subcommand's own parser, the one the nested parse
would reach; it parses any other argv, and a leaf argv with arguments left
over, with the whole parser, which reports them with its own usage line.

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
from .errors import DomainError, output, rationals
from .polyrat import Poly2, RatFunc2, evaluate
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


def _parse_fraction_pair(text: str) -> tuple[int | Fraction, int | Fraction]:
    """argparse type for 'p,q'; a malformed value is a usage error (exit 2)."""
    try:
        p, q = text.split(",")
        return rationals(p, q)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected two rationals 'p,q', got {text!r}") from None


def _load_surface(path: str) -> Surface:
    with open(path, encoding="utf-8") as fh:
        return surfaces.from_json(fh.read())


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
    try:
        _load_surface(args.file)
    except InvalidSurfaceError as err:
        for v in err.violations:
            print(f"violation: {v}")
        return 1
    print("ok")
    return 0


def cmd_surface_invariants(args) -> int:
    inv = surfaces.numeric_invariants(_load_surface(args.file))
    print(output(json.dumps, inv._asdict()))
    return 0


def cmd_surface_intersections(args) -> int:
    # Written one row at a time: only the self-intersections and the diagonal
    # can pass the digit limit, so they are rendered before the first byte.
    s = _load_surface(args.file)
    diag, negdef = surfaces.boundary_form(s)
    head, cells = output(lambda: (json.dumps(list(surfaces.toric_self_intersections(s))), [str(d) for d in diag]))
    write = sys.stdout.write
    write(f'{{"self_intersections": {head}, "matrix": [')
    for i in range(len(cells)):
        write(f'{", " if i else ""}[{", ".join(surfaces.cycle_row(cells, i, "0", "1"))}]')
    tail = {"negative_definite": negdef, "all_m_above_two": all(m > 2 for m in s.m)}
    write(f"], {output(json.dumps, tail)[1:]}\n")
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
    text = diagrams.to_json(d)
    if args.svg:  # written before the print, so a failure prints nothing
        svg = diagrams.render_svg(d)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    print(text)
    return 0


def cmd_atf_move(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        d = diagrams.from_json(fh.read())
    print(diagrams.to_json(diagrams.elementary_move(d, args.elementary)))
    return 0


# --- hms subcommand -----------------------------------------------------------


def cmd_hms_counts(args) -> int:
    report = catalog.check_counts(_load_surface(args.file))
    print(output(json.dumps, {**{name: getattr(report, name) for name in report.__slots__}, "ok": report.ok}))
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
    # Each fraction is reduced, with a denominator that leads with 1 in grlex: canonical, so no gcd.
    x, y, one = Poly2.x(), Poly2.y(), Poly2.const(1)
    expected = {
        "r1": birmap.BirationalMap(RatFunc2((one + y) ** 2, x), RatFunc2.y()),
        "r2": birmap.BirationalMap(RatFunc2.x(), RatFunc2((one + x) ** 2, y)),
        "r3": birmap.BirationalMap(RatFunc2(x, (x + y) ** 2), RatFunc2(y, (x + y) ** 2)),
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
    rng = sampling.rng_from_env()
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


COMMANDS = {
    "word": ("word algebra", {
        "equal": ("decide equality of two words", cmd_word_equal, "word1 word2", {}),
        "realize": ("print the rational-map pair", cmd_word_realize, "word", {}),
        "character": ("print the volume character", cmd_word_character, "word", {}),
        "trop": ("apply the tropicalization to a vector", cmd_word_trop, "word",
                 {"--vector": dict(required=True, metavar="a,b", type=_parse_int_pair)}),
        "eval": ("evaluate the map at an exact point", cmd_word_eval, "word",
                 {"--point": dict(required=True, metavar="p,q", type=_parse_fraction_pair)}),
    }),
    "surface": ("toric surface data", {
        "validate": ("list the violations of a surface file", cmd_surface_validate, "file", {}),
        "invariants": ("numeric invariants of a surface file", cmd_surface_invariants, "file", {}),
        "intersections": ("boundary intersection matrix of a surface file", cmd_surface_intersections, "file", {}),
        "pushforward": ("push a surface file forward along a word", cmd_surface_pushforward, "word file", {}),
        "resolve": ("resolve a word on a surface file", cmd_surface_resolve, "word file", {}),
    }),
    "atf": ("almost-toric base diagrams", {
        "diagram": ("base diagram of a surface file", cmd_atf_diagram, "file", {"--svg": dict(metavar="OUT.svg")}),
        "move": ("elementary move on a diagram file", cmd_atf_move, "file",
                 {"--elementary": dict(required=True, metavar="a,b", type=_parse_int_pair)}),
    }),
    "hms": ("mirror bookkeeping", {
        "counts": ("collection count checks for a surface file", cmd_hms_counts, "file", {}),
    }),
    "demo": ("worked demonstrations", {
        "cubic": ("the open cubic surface and its reflections", cmd_demo_cubic, "", {}),
    }),
    "verify": ("relation checks", {
        "relations": ("pentagon and conjugation relations", cmd_verify_relations, "", {}),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built from ``COMMANDS`` on the first call and then shared.

    ``parse_args`` reads the parser and never changes it, so ``main`` can
    reuse one parser for every call in a process.  The parser's ``_leaves``
    maps each (group, subcommand) to the subcommand's parser, the very
    object the nested parse reaches, which ``main`` parses a leaf argv with.
    """
    parser = argparse.ArgumentParser(
        prog="logcy2",
        description="Exact word algebra and surface combinatorics for "
        "volume-preserving plane birational maps.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    groups = parser.add_subparsers(dest="command", required=True)
    parser._leaves = {}
    for group, (group_help, subcommands) in COMMANDS.items():
        commands = groups.add_parser(group, help=group_help).add_subparsers(dest="subcommand", required=True)
        for name, (command_help, func, positionals, options) in subcommands.items():
            command = parser._leaves[group, name] = commands.add_parser(name, help=command_help)
            for positional in positionals.split():
                command.add_argument(positional)
            for flag, keywords in options.items():
                command.add_argument(flag, **keywords)
            command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    leaf = parser._leaves.get(tuple(argv[:2]))
    args, extras = leaf.parse_known_args(argv[2:]) if leaf else (None, None)
    if args is None or extras:  # not a leaf argv, or arguments left over that the whole parser reports
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
