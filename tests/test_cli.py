import argparse
import contextlib
import hashlib
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

from cli_cases import CASES, CUBIC, GROUPS, PXP, check, run_cli
from logcy2 import polyrat, surfaces
from logcy2.birmap import tropicalize
from logcy2.cli import build_parser, main
from logcy2.lattice import pl_apply
from logcy2.surfaces import cubic_surface, to_json
from logcy2.words import parse_word


def test_atf_diagram_and_svg(tmp_path):
    svg_path = tmp_path / "out.svg"
    result = run_cli(["atf", "diagram", "@cubic.json", "--svg", str(svg_path)], CUBIC)
    assert result.exit == 0
    assert len(json.loads(result.stdout)["nodes"]) == 6
    assert svg_path.read_text().startswith("<?xml")


def test_atf_move_roundtrip():
    diagram = run_cli(["atf", "diagram", "@pxp.json"], PXP).stdout.strip().splitlines()[0]
    result = run_cli(["atf", "move", "@d.json", "--elementary", "0,1"], {"d.json": diagram})
    assert result.exit == 0
    assert json.loads(result.stdout)["nodes"][0]["position"] == ["0", "-1"]


def test_hms_counts_validates_its_surface_once(monkeypatch):
    # Read and validated by from_json; no operation under check_counts
    # validates it again.
    files = {"s.json": to_json(surfaces.insert_ray(cubic_surface(), (1, 1)))}
    calls = []
    real = surfaces.validate

    def spy(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(surfaces, "validate", spy)
    result = run_cli(["hms", "counts", "@s.json"], files)
    assert result.exit == 0 and json.loads(result.stdout)["ok"] is True
    assert len(calls) == 1


def test_diagram_svg_that_cannot_be_written_prints_nothing(tmp_path):
    result = run_cli(["atf", "diagram", "@cubic.json", "--svg", str(tmp_path)], CUBIC)  # a directory
    assert result.exit == 1 and result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_evaluation_past_the_bit_budget_exits_1(cli_env, monkeypatch):
    # The budget refuses before any power is built, so no polynomial is evaluated.
    refused, within = GROUPS["evaluation_past_the_bit_budget"]
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(polyrat, "_value", lambda p, a, b: calls.append((a, b)) or Fraction(1))
        assert check(refused) == []
    assert calls == []
    assert check(within) == []


def test_verify_relations():
    # At the default seed, unlike the row of ``cli_cases``.
    result = run_cli(["verify", "relations"])
    assert result.exit == 0
    assert "P^5 = id: pass" in result.stdout
    assert "FAIL" not in result.stdout


@pytest.mark.parametrize(
    "seed, quoted", [("abc", "'abc'"), ("9" * 5000, "'" + "9" * 39 + "...")], ids=["text", "5000_digits"]
)
def test_malformed_seed_exits_1_before_any_output(monkeypatch, seed, quoted):
    monkeypatch.setenv("LOGCY2_SEED", seed)
    result = run_cli(["verify", "relations"])
    limit = sys.get_int_max_str_digits()
    assert (result.exit, result.stdout) == (1, "")
    assert result.stderr == f"error: LOGCY2_SEED is not an integer of at most {limit} digits: {quoted}\n"


def test_exponent_notation_is_refused_at_once(cli_env, monkeypatch):
    # No Fraction is built from text in exponent notation: Fraction("1e10000000")
    # would build 10^(10^7), about 8 s.  The spy refuses such text at once.
    built = []
    new = Fraction.__new__

    def spy(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str) and "e" in numerator.lower():
            built.append(numerator)
            raise ValueError(numerator)
        return new(cls, numerator, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", spy)
        for case in GROUPS["exponent_notation_is_refused_at_once"]:
            assert check(case) == [], case.argv
    assert built == []


def test_internal_value_error_is_not_a_domain_error(monkeypatch, tmp_path):
    # A ValueError from inside the library is a bug, not bad input.
    def broken(*args):
        raise ValueError("internal bug")

    path = tmp_path / "pxp.json"
    path.write_text(PXP["pxp.json"])
    monkeypatch.setattr("logcy2.surfaces.numeric_invariants", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["surface", "invariants", str(path)])


def test_word_trop_builds_no_composite_map():
    text = "(E * A[0,-1;1,0])^60"
    w = parse_word(text)
    assert len(w) == 120
    before = tropicalize.cache_info().currsize
    result = run_cli(["word", "trop", text, "--vector", "1,0"])
    assert tropicalize.cache_info().currsize == before
    assert result.exit == 0
    assert result.stdout.strip() == "{},{}".format(*pl_apply(tropicalize(w), (1, 0)))


class _HashingSink:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def test_surface_intersections_holds_one_row_at_a_time(tmp_path):
    # The 803-ray fan's stdout is 1.9 MB, and its dense matrix as Python
    # lists about 15 MiB; rows written one at a time peak far below either.
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"rays": [[1, j] for j in range(801)] + [[0, 1], [-1, -1]], "m": [3] * 803}))
    build_parser()
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["surface", "intersections", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.sha256.hexdigest() == "13d02e7617939fb8f1fbb596ba623b6e8b081bd16fae5e47995318e99c3b4042"
    assert peak < 2 * 2**20, f"peak {peak} bytes"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    svg = tmp_path / "out.svg"
    first = run_cli(["atf", "diagram", "@pxp.json", "--svg", str(svg)], PXP)
    trop = run_cli(["word", "trop", "E", "--vector=-1,0"])
    svg.unlink()
    assert run_cli(["atf", "diagram", "@pxp.json", "--svg"], PXP).exit == 2
    assert run_cli(["atf", "diagram", "@pxp.json"], PXP) == first
    assert not svg.exists()  # --svg from an earlier call does not carry over
    assert run_cli(["word", "trop", "E", "--vector=-1,0"]) == trop


def test_leaf_parser_reads_each_leaf_row_as_the_whole_parser_does():
    # The nested parse alone sets ``command`` and ``subcommand``; every other
    # field, ``func`` among them, comes from the same leaf parser either way.
    parser = build_parser()
    seen = set()
    for case in CASES:
        key = tuple(case.argv[:2])
        if case.exit == 0 and key in parser._leaves and "--help" not in case.argv:
            leaf, extras = parser._leaves[key].parse_known_args(case.argv[2:])
            whole = vars(parser.parse_args(case.argv))
            assert extras == []
            assert (whole.pop("command"), whole.pop("subcommand")) == key
            assert vars(leaf) == whole, case.argv
            seen.add(key)
    assert seen == set(parser._leaves)


def test_main_runs_the_whole_parser_only_off_the_leaf_path(monkeypatch):
    parser = build_parser()
    calls = []
    real = argparse.ArgumentParser.parse_args

    def spy(self, args=None, namespace=None):
        calls.append((self, args))
        return real(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert run_cli(["word", "realize", "E"]).exit == 0
    assert calls == []
    assert run_cli(["word", "realize", "E", "--bogus"]).exit == 2
    assert calls == [(parser, ["word", "realize", "E", "--bogus"])]
