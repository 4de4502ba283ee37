"""Contract fuzz for ``surface validate|intersections|pushforward|resolve``
and ``word realize|equal|character|trop|eval``.

Whatever the surface file, the words, the vector and the point, ``cli.main``
exits 0, 1 or 2, and no exception other than argparse's ``SystemExit`` leaves
it.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from logcy2.cli import main
from logcy2.sampling import random_surface
from logcy2.surfaces import to_json

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

hostile = st.fixed_dictionaries({
    "rays": st.lists(st.lists(st.integers(-3, 3) | st.integers(-(10**40), 10**40), min_size=2, max_size=2),
                     max_size=12),
    "m": st.lists(st.integers(-2, 3) | st.integers(0, 10**40) | st.booleans(), max_size=12),
})

surface_texts = st.one_of(
    seeds.map(_valid).map(json.dumps),
    mutated().map(json.dumps),
    hostile.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=30),
)


@pytest.fixture(scope="module")
def surface_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "surface.json"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["validate", "intersections", "pushforward", "resolve"]), surface_texts, words)
@example("resolve", "[" * 100000, "E")
@example("validate", '{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [' + "1" * 5000 + ", 0, 0]}", "E")
@example("resolve", to_json(random_surface(random.Random(0))), "E[2,2]")
@example("pushforward", to_json(random_surface(random.Random(0))), "--help")
def test_surface_commands_exit_cleanly(surface_path, command, text, word):
    surface_path.write_text(text, encoding="utf-8")
    argv = ["surface", command] + ([word] if command in ("pushforward", "resolve") else []) + [str(surface_path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
            code = exc.code
    assert code in (0, 1, 2)


# --- word commands -----------------------------------------------------------

small = st.integers(-3, 3)
letters = st.one_of(
    st.sampled_from(["E", "P", "r1", "r2", "r3", "id"]),
    st.tuples(small, small).map(lambda n: f"E[{n[0]},{n[1]}]"),
    st.tuples(small, small, small, small).map(lambda a: f"A[{a[0]},{a[1]};{a[2]},{a[3]}]"),
)
# At most 8 letters and no "^", so every word stays short.
short_words = st.one_of(
    st.lists(letters, min_size=1, max_size=8).map("*".join),
    st.text(alphabet="EAPr123[],;*()-x ", max_size=12),
)
vectors = st.one_of(st.tuples(small, small).map(lambda v: f"{v[0]},{v[1]}"), st.text(alphabet="0123,-/ ", max_size=5))
points = st.one_of(
    st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 2).map(lambda p: f"{p[0]},{p[1]}"),
    st.text(alphabet="0123,-/ ", max_size=5),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["realize", "equal", "character", "trop", "eval"]), short_words, short_words, vectors, points)
@example("eval", "E", "id", "1,0", "-1,1")
@example("equal", "E[2,2]", "A[1,1;1,1]", "1,0", "0,0")
def test_word_commands_exit_cleanly(command, word, word2, vector, point):
    argv = ["word", command, word]
    if command == "equal":
        argv.append(word2)
    elif command == "trop":
        argv.append(f"--vector={vector}")
    elif command == "eval":
        argv.append(f"--point={point}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2
            code = exc.code
    assert code in (0, 1, 2)
