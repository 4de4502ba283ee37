import json
from fractions import Fraction

import pytest

from cli_cases import CUBIC, GROUPS, PXP, check, run_cli
from logcy2 import surfaces
from logcy2.birmap import tropicalize
from logcy2.cli import build_parser, main
from logcy2.lattice import pl_apply
from logcy2.polyrat import Poly2
from logcy2.surfaces import cubic_surface, to_json
from logcy2.words import parse_word


def _check(group: str) -> None:
    for case in GROUPS[group]:
        assert check(case) == [], case.argv[:3]


# Each test below that only calls ``_check`` is named after a group of
# ``cli_cases.GROUPS`` and checks its rows, which ``test_golden.test_cli_case``
# also checks one by one.


def test_word_equal_pentagon(cli_env):
    _check("word_equal_pentagon")


def test_word_realize_reflection(cli_env):
    _check("word_realize_reflection")


def test_word_equal_long_word_against_id(cli_env):
    _check("word_equal_long_word_against_id")


def test_word_realize_short_word_of_high_degree(cli_env):
    _check("word_realize_short_word_of_high_degree")


def test_word_character(cli_env):
    _check("word_character")


def test_word_trop(cli_env):
    _check("word_trop")


def test_word_eval(cli_env):
    _check("word_eval")


def test_word_syntax_error_exits_2(cli_env):
    _check("word_syntax_error_exits_2")


def test_deeply_nested_word_exits_2(cli_env):
    _check("deeply_nested_word_exits_2")


def test_oversized_power_exits_2(cli_env):
    _check("oversized_power_exits_2")


@pytest.mark.parametrize("case", GROUPS["word_over_the_term_budget_exits_1"], ids=["(r1*r2*r3)^5", "E^100000"])
def test_word_over_the_term_budget_exits_1(cli_env, case):
    assert check(case) == []


def test_surface_validate(cli_env):
    _check("surface_validate")


def test_surface_invariants(cli_env):
    _check("surface_invariants")


def test_surface_intersections(cli_env):
    _check("surface_intersections")


def test_surface_intersections_on_a_103_ray_fan(cli_env):
    _check("surface_intersections_on_a_103_ray_fan")


def test_surface_pushforward_worked_example(cli_env):
    _check("surface_pushforward_worked_example")


def test_surface_pushforward_not_regular(cli_env):
    _check("surface_pushforward_not_regular")


def test_surface_resolve(cli_env):
    _check("surface_resolve")


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


def test_hms_counts(cli_env):
    _check("hms_counts")


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


def test_output_past_the_digit_limit_exits_1(cli_env):
    _check("output_past_the_digit_limit_exits_1")


def test_diagram_svg_that_cannot_be_written_prints_nothing(tmp_path):
    result = run_cli(["atf", "diagram", "@cubic.json", "--svg", str(tmp_path)], CUBIC)  # a directory
    assert result.exit == 1 and result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", GROUPS["diagram_message_past_the_digit_limit_exits_1"], ids=["1", "2999"])
def test_diagram_message_past_the_digit_limit_exits_1(cli_env, case):
    assert check(case) == []


@pytest.mark.parametrize("case", GROUPS["word_output_past_the_digit_limit_exits_1"],
                         ids=[f"argv{i}" for i in range(5)])
def test_word_output_past_the_digit_limit_exits_1(cli_env, case):
    assert check(case) == []


@pytest.mark.parametrize("case", GROUPS["pullback_row_past_float_range_exits_1"], ids=["E[N,1]*E[1,N]", "E[N,1]"])
def test_pullback_row_past_float_range_exits_1(cli_env, case):
    assert check(case) == []


def test_surface_message_past_the_digit_limit_exits_1(cli_env):
    _check("surface_message_past_the_digit_limit_exits_1")


def test_messages_quote_at_most_40_characters_of_an_integer(cli_env):
    _check("messages_quote_at_most_40_characters_of_an_integer")


def test_diagram_errors_quote_records_and_lines_cut(cli_env):
    _check("diagram_errors_quote_records_and_lines_cut")


def test_evaluation_past_the_bit_budget_exits_1(cli_env, monkeypatch):
    # The budget refuses before any power is built, so no polynomial is evaluated.
    refused, within = GROUPS["evaluation_past_the_bit_budget"]
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(Poly2, "evaluate", lambda self, a, b: calls.append((a, b)) or Fraction(1))
        assert check(refused) == []
    assert calls == []
    assert check(within) == []


def test_character_past_the_pair_budget_exits_1(cli_env):
    _check("character_past_the_pair_budget_exits_1")


def test_insertion_past_the_ray_budget_exits_1(cli_env):
    _check("insertion_past_the_ray_budget_exits_1")


def test_blowups_past_the_budget_exit_1(cli_env):
    _check("blowups_past_the_budget_exit_1")


def test_verify_relations():
    # At the default seed, unlike the row of ``cli_cases``.
    result = run_cli(["verify", "relations"])
    assert result.exit == 0
    assert "P^5 = id: pass" in result.stdout
    assert "FAIL" not in result.stdout


def test_usage_error_exit_code(cli_env):
    _check("usage_error_exit_code")


def test_unknown_flag_rejected(cli_env):
    _check("unknown_flag_rejected")


def test_missing_file_is_domain_error(cli_env):
    _check("missing_file_is_domain_error")


def test_malformed_vector_or_point_is_usage_error(cli_env):
    _check("malformed_vector_or_point_is_usage_error")


MALFORMED_DIAGRAMS = GROUPS["malformed_diagram_file_is_domain_error"]


@pytest.mark.parametrize("case", MALFORMED_DIAGRAMS,
                         ids=[case.files["d.json"] for case in MALFORMED_DIAGRAMS])
def test_malformed_diagram_file_is_domain_error(cli_env, case):
    assert check(case) == []


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


def test_boolean_surface_file_is_domain_error(cli_env):
    _check("boolean_surface_file_is_domain_error")


def test_boolean_diagram_file_is_domain_error(cli_env):
    _check("boolean_diagram_file_is_domain_error")


def test_float_diagram_position_is_domain_error(cli_env):
    _check("float_diagram_position_is_domain_error")


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
