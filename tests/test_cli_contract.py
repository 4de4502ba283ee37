"""Contract fuzz for ``surface validate|invariants|intersections|pushforward|resolve``,
``hms counts``, ``atf diagram|move``, ``word realize|equal|character|trop|eval``,
``demo`` and ``verify``.

Whatever the surface or diagram file, the words, the vector, the point and
any extra arguments, ``cli.main`` exits 0, 1 or 2, and no exception other
than argparse's ``SystemExit`` leaves it; a ``surface``, ``hms``, ``atf`` or
``word`` command that exits 1 on a domain error prints nothing on stdout and
one ``error:`` line on stderr, and only the command in ``REPORTS`` also exits
1 after a report on stdout.  The surface and diagram files are valid, valid
with one part mutated, or hostile, some with ray entries whose products
are past the int-to-text digit limit; a ``Surface`` validates itself when it
is read, and the commands that consume it check nothing again.
"""

import json
import random

from hypothesis import HealthCheck, example, given, settings, strategies as st

from cli_cases import M, N, run_cli
from logcy2 import diagrams
from logcy2.sampling import random_surface
from logcy2.surfaces import p2, to_json

ATOMS = ["E", "E[1,0]", "E[0,-1]", "E[2,1]", "E[-1,3]", "A[0,1;1,0]", "A[1,1;0,1]", "A[0,-1;1,0]",
         "P", "r1", "r2", "r3", "id"]

words = st.one_of(
    st.lists(st.tuples(st.sampled_from(ATOMS), st.sampled_from(["", "^-1"])).map("".join),
             min_size=1, max_size=12).map("*".join),
    # No "^": a power of a short text can expand to a long word.
    st.text(alphabet="EAPr123[],;*()-x ", max_size=12),
)

seeds = st.integers(0, 2**32)


def _valid(seed: int) -> dict:
    s = random_surface(random.Random(seed), extra_rays=8, blowups=6)
    return {"rays": [list(r) for r in s.rays], "m": list(s.m)}


entries = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40), st.booleans(),
                    st.floats(allow_nan=False), st.text(max_size=2), st.none())


@st.composite
def mutated(draw) -> dict:
    """A valid surface's JSON with one entry, ray or key changed."""
    data = _valid(draw(seeds))
    rays, m = data["rays"], data["m"]
    i = draw(st.integers(0, len(rays) - 1))
    kind = draw(st.sampled_from(["ray", "entry", "m", "drop", "repeat", "double", "key"]))
    if kind == "ray":
        rays[i] = draw(st.lists(entries, max_size=3))
    elif kind == "entry":
        rays[i][draw(st.integers(0, 1))] = draw(entries)
    elif kind == "m":
        m[i] = draw(entries)
    elif kind == "drop":
        del rays[i]
    elif kind == "repeat":
        rays.append(rays[i])
        m.append(0)
    elif kind == "double":
        data = {"rays": rays * 2, "m": m * 2}
    else:
        data[draw(st.sampled_from(["extra", "m"]))] = draw(entries)
        data.pop(draw(st.sampled_from(["rays", "m", "none"])), None)
    return data


json_values = st.recursive(
    entries, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["rays", "m", "x"]), inner),
    max_leaves=12,
)

# Entries within the int-to-text digit limit whose pairwise products are past it.
near_limit = st.integers(2200, 4299).map(lambda k: 10**k - 1)

hostile = st.fixed_dictionaries({
    "rays": st.lists(st.lists(st.integers(-3, 3) | st.integers(-(10**40), 10**40) | near_limit,
                              min_size=2, max_size=2), max_size=12),
    "m": st.lists(st.integers(-2, 3) | st.integers(0, 10**40) | st.booleans(), max_size=12),
})

surface_texts = st.one_of(
    seeds.map(_valid).map(json.dumps),
    mutated().map(json.dumps),
    hostile.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=30),
)


# The one command that exits 1 after a report on stdout and nothing on
# stderr: ``surface validate`` lists the violations.  ``hms counts`` exits 0
# after its report, so an exit 1 from it is a domain error.
REPORTS = {"surface validate"}


def _check_exit(command: str, argv: list[str], files: dict[str, str] | None = None) -> None:
    """``command`` run with ``argv`` exits 0, 1 or 2; exit 1 is a report or the one-line domain error."""
    code, out, err, _ = run_cli(argv, files)
    assert code in (0, 1, 2)
    if code == 1 and command in REPORTS and err == "":
        assert out != ""
    elif code == 1:  # a domain error: no output, one error line
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# A[N,...] and A[M,...] letters (``cli_cases.N`` and ``M``) stay in explicit examples below:
# ``insert_ray`` on the huge rays they make is slow.
SURFACE_COMMANDS = ["surface validate", "surface invariants", "surface intersections", "surface pushforward",
                    "surface resolve", "hms counts", "atf diagram"]


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SURFACE_COMMANDS), surface_texts, words)
@example("surface resolve", "[" * 100000, "E")
@example("surface validate", '{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [' + "1" * 5000 + ", 0, 0]}", "E")
@example("surface resolve", to_json(random_surface(random.Random(0))), "E[2,2]")
@example("surface pushforward", to_json(random_surface(random.Random(0))), "--help")
@example("hms counts", to_json(random_surface(random.Random(0))), "E")
@example("atf diagram", '{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 10000000, 0]}', "E")
@example("surface resolve", to_json(p2()), f"E*A[{M},1;-1,0]^2")
def test_surface_commands_exit_cleanly(command, text, word):
    with_word = command in ("surface pushforward", "surface resolve")
    _check_exit(command, command.split() + ([word] if with_word else []) + ["@input.json"], {"input.json": text})


# --- atf move ----------------------------------------------------------------


def _valid_diagram(seed: int) -> dict:
    s = random_surface(random.Random(seed), extra_rays=8, blowups=6)
    return json.loads(diagrams.to_json(diagrams.diagram(s)))


rationals = st.one_of(
    st.fractions(-4, 4, max_denominator=4).map(str),
    st.sampled_from(["1e10000000", "-2E3", "1.5e-3", "0.25", " 1 ", "1/0", "", "x", "1" * 5000]),
)
node_entries = st.one_of(entries, rationals)


@st.composite
def mutated_diagram(draw) -> dict:
    """A valid diagram's JSON with one entry, node or key changed."""
    data = _valid_diagram(draw(seeds))
    nodes = data["nodes"]
    if not nodes:
        return data
    node = nodes[draw(st.integers(0, len(nodes) - 1))]
    kind = draw(st.sampled_from(["position", "direction", "cut_sign", "drop_key", "drop_node", "repeat", "key"]))
    if kind == "position":
        node["position"][draw(st.integers(0, 1))] = draw(node_entries)
    elif kind == "direction":
        node["direction"][draw(st.integers(0, 1))] = draw(node_entries)
    elif kind == "cut_sign":
        node["cut_sign"] = draw(node_entries)
    elif kind == "drop_key":
        del node[draw(st.sampled_from(["position", "direction", "cut_sign"]))]
    elif kind == "drop_node":
        nodes.remove(node)
    elif kind == "repeat":
        nodes.append(dict(node))
    else:
        data[draw(st.sampled_from(["extra", "nodes"]))] = draw(entries)
    return data


hostile_diagram = st.fixed_dictionaries({
    "nodes": st.lists(st.fixed_dictionaries({
        "position": st.lists(rationals | st.integers(-3, 3), min_size=2, max_size=2),
        "direction": st.lists(st.integers(-3, 3) | st.integers(-(10**40), 10**40), min_size=2, max_size=2),
        "cut_sign": st.sampled_from([1, -1, 0, 2, True]),
    }), max_size=6),
})

diagram_texts = st.one_of(
    seeds.map(_valid_diagram).map(json.dumps),
    mutated_diagram().map(json.dumps),
    hostile_diagram.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=30),
)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(diagram_texts, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@example('{"nodes": [{"position": ["1e10000000", "0"], "direction": [1, 0], "cut_sign": 1}]}', (1, 0))
# 2000 nodes on one ray: the move relabels the line once, not one slide per node.
@example(json.dumps({"nodes": [{"position": [str(t), "0"], "direction": [1, 0], "cut_sign": 1} for t in range(1, 2001)]}),
         (1, 0))
def test_atf_move_exits_cleanly(text, n):
    _check_exit("atf move", ["atf", "move", "@input.json", f"--elementary={n[0]},{n[1]}"], {"input.json": text})


# --- word commands -----------------------------------------------------------

small = st.integers(-3, 3)
letters = st.one_of(
    st.sampled_from(["E", "P", "r1", "r2", "r3", "id"]),
    st.tuples(small, small).map(lambda n: f"E[{n[0]},{n[1]}]"),
    st.tuples(small, small, small, small).map(lambda a: f"A[{a[0]},{a[1]};{a[2]},{a[3]}]"),
)
# Malformed literals and integers past the int-to-text digit limit.
HUGE = "9" * 5000
malformed = st.sampled_from(["E[1,", "E[1 2]", "A[1,1;0]", "A[1,1,0,1]", "E[]", "A", f"E[{HUGE},1]",
                             f"A[1,0;0,{HUGE}]", HUGE, f"E^{HUGE}", f"E^-{HUGE}"])
# At most 8 letters and no "^" but on a huge exponent, so every word stays
# short; one letter may sit in more levels of parentheses than the recursion
# limit allows.
short_words = st.one_of(
    st.lists(letters, min_size=1, max_size=8).map("*".join),
    st.lists(letters | malformed, min_size=1, max_size=4).map("*".join),
    st.text(alphabet="EAPr123[],;*()-x \t", max_size=12),
    st.builds(lambda depth, letter: "(" * depth + letter + ")" * depth, st.integers(0, 3000), letters),
)
vectors = st.one_of(st.tuples(small, small).map(lambda v: f"{v[0]},{v[1]}"), st.text(alphabet="0123,-/ ", max_size=5))
points = st.one_of(
    st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 2).map(lambda p: f"{p[0]},{p[1]}"),
    st.text(alphabet="0123,-/ ", max_size=5),
)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["realize", "equal", "character", "trop", "eval"]), short_words, short_words, vectors, points)
@example("equal", "E[2,2]", "A[1,1;1,1]", "1,0", "0,0")
@example("eval", f"A[{N},1;-1,0]^3", "id", "1,0", "2,1")
@example("equal", "E", "(" * 2000 + "E" + ")" * 2000, "1,0", "0,0")
@example("trop", "E", "id", "--", "0,0")
@example("eval", "E", "id", "1,0", "--")
def test_word_commands_exit_cleanly(command, word, word2, vector, point):
    argv = ["word", command, word]
    if command == "equal":
        argv.append(word2)
    elif command == "trop":
        argv.append(f"--vector={vector}")
    elif command == "eval":
        argv.append(f"--point={point}")
    _check_exit(f"word {command}", argv)


# --- demo and verify -----------------------------------------------------------

# Each valid call takes about 0.1 s; nearly every generated argv is a usage error.
arguments = st.lists(
    st.sampled_from(["cubic", "relations", "word", "--help", "-h", "--", "-", "--vector=1,0", "x", ""])
    | st.text(max_size=6),
    max_size=3,
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["demo", "verify"]), arguments)
@example("verify", ["relations"])
@example("demo", ["cubic", "relations"])
@example("verify", [])
def test_demo_and_verify_exit_cleanly(command, args):
    assert run_cli([command, *args]).exit in (0, 1, 2)
