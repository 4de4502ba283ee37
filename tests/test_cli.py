import hashlib
import json
import sys
import time

import pytest

from logcy2 import surfaces
from logcy2.birmap import tropicalize
from logcy2.cli import build_parser, main
from logcy2.lattice import pl_apply
from logcy2.surfaces import cubic_surface, p1xp1, to_json
from logcy2.words import parse_word


@pytest.fixture
def pxp_file(tmp_path):
    path = tmp_path / "pxp.json"
    path.write_text(to_json(p1xp1((0, 1, 0, 0))))
    return str(path)


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(to_json(cubic_surface()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_equal_pentagon(capsys):
    code, out, _ = run(capsys, "word", "equal", "P^5", "id")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "word", "equal", "P^3", "id")
    assert code == 0 and out.strip() == "false"


def test_word_realize_reflection(capsys):
    code, out, _ = run(capsys, "word", "realize", "r2")
    assert code == 0
    assert out.strip() == "(x, (x^2 + 2*x + 1) / (y))"


def test_word_equal_long_word_against_id(capsys):
    code, out, _ = run(capsys, "word", "equal", "(r1*r2*r3)^2*r1", "id")
    assert code == 0 and out.strip() == "false"


def test_word_realize_short_word_of_high_degree(capsys):
    code, out, _ = run(capsys, "word", "realize", "A[1,0;0,1]^-1*E[1,0]*E[1,-1]*E[1,2]*E[-1,2]*E[1,2]")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "ede78fa06ee8e01af895da987367ddfa5abf4edf943eea89abe345d27d16e787"


def test_word_character(capsys):
    code, out, _ = run(capsys, "word", "character", "A[-1,0;0,1]")
    assert code == 0 and out.strip() == "-1"


def test_word_trop(capsys):
    code, out, _ = run(capsys, "word", "trop", "E", "--vector=-1,0")
    assert code == 0 and out.strip() == "-1,1"


def test_word_eval(capsys):
    code, out, _ = run(capsys, "word", "eval", "E", "--point=2,3")
    assert code == 0 and out.strip() == "2,1"
    code, _, err = run(capsys, "word", "eval", "E", "--point=-1,1")
    assert code == 1 and "pole" in err


def test_word_syntax_error_exits_2(capsys):
    code, _, err = run(capsys, "word", "realize", "E * *")
    assert code == 2
    assert "word grammar" in err


def test_deeply_nested_word_exits_2(capsys):
    code, out, err = run(capsys, "word", "realize", "(" * 2000 + "E" + ")" * 2000)
    assert code == 2 and out == ""
    assert "nested too deeply" in err


def test_oversized_power_exits_2(capsys):
    code, out, err = run(capsys, "word", "trop", "E^10000000", "--vector", "1,0")
    assert code == 2 and out == ""
    assert "letters" in err


@pytest.mark.parametrize("word", ["(r1*r2*r3)^5", "E^100000"])
def test_word_over_the_term_budget_exits_1(capsys, word):
    code, out, err = run(capsys, "word", "realize", word)
    assert code == 1 and out == ""
    assert "over 12000" in err


def test_surface_validate(capsys, tmp_path, pxp_file):
    code, out, _ = run(capsys, "surface", "validate", pxp_file)
    assert code == 0 and out.strip() == "ok"
    bad = tmp_path / "bad.json"
    bad.write_text('{"rays": [[1, 0], [0, 1], [-2, -1]], "m": [0, 0, 0]}')
    code, out, _ = run(capsys, "surface", "validate", str(bad))
    assert code == 1 and "violation" in out


def test_surface_invariants(capsys, cubic_file):
    code, out, _ = run(capsys, "surface", "invariants", cubic_file)
    assert code == 0
    assert json.loads(out) == {"k": 3, "total_m": 6, "b2": 7, "chi_y": 9, "chi_u": 6}


def test_surface_intersections(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [4, 3, 3]}')
    code, out, _ = run(capsys, "surface", "intersections", str(path))
    data = json.loads(out)
    assert code == 0
    assert data["negative_definite"] is True
    assert data["all_m_above_two"] is True
    assert sorted(data["self_intersections"]) == [1, 1, 1]


def test_surface_intersections_on_a_103_ray_fan(capsys, tmp_path):
    rays = [[1, j] for j in range(101)] + [[0, 1], [-1, -1]]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"rays": rays, "m": [3] * 103}))
    code, out, _ = run(capsys, "surface", "intersections", str(path))
    assert code == 0 and json.loads(out)["negative_definite"] is True
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3ececa6718dfe9bfeb87589c7ffd285fb5a682a81fb02384028fabcf3dcc01b6"


def test_surface_pushforward_worked_example(capsys, pxp_file):
    code, out, _ = run(capsys, "surface", "pushforward", "E", pxp_file)
    assert code == 0
    assert json.loads(out) == {
        "rays": [[-1, 1], [0, -1], [1, 0], [0, 1]],
        "m": [0, 1, 0, 0],
    }


def test_surface_pushforward_not_regular(capsys, tmp_path):
    path = tmp_path / "p2.json"
    path.write_text('{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 0, 0]}')
    code, _, err = run(capsys, "surface", "pushforward", "E", str(path))
    assert code == 1 and "missing ray" in err


def test_surface_resolve(capsys, tmp_path):
    path = tmp_path / "p2.json"
    path.write_text('{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 0, 0]}')
    code, out, _ = run(capsys, "surface", "resolve", "E", str(path))
    assert code == 0
    data = json.loads(out)
    assert [0, -1] in data["rays"] and sum(data["m"]) == 1


def test_atf_diagram_and_svg(capsys, cubic_file, tmp_path):
    svg_path = tmp_path / "out.svg"
    code, out, _ = run(capsys, "atf", "diagram", cubic_file, "--svg", str(svg_path))
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 6
    assert svg_path.read_text().startswith("<?xml")


def test_atf_move_roundtrip(capsys, tmp_path, pxp_file):
    code, out, _ = run(capsys, "atf", "diagram", pxp_file)
    diag_path = tmp_path / "d.json"
    diag_path.write_text(out.strip().splitlines()[0])
    code, out, _ = run(capsys, "atf", "move", str(diag_path), "--elementary", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["nodes"][0]["position"] == ["0", "-1"]


def test_hms_counts(capsys, cubic_file):
    code, out, _ = run(capsys, "hms", "counts", cubic_file)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["chi_y"] == 9


def test_hms_counts_validates_its_surface_once(capsys, monkeypatch, tmp_path):
    # Read and validated by from_json; no operation under check_counts
    # validates it again.
    path = tmp_path / "s.json"
    path.write_text(to_json(surfaces.insert_ray(cubic_surface(), (1, 1))))
    calls = []
    real = surfaces.validate

    def spy(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(surfaces, "validate", spy)
    code, out, _ = run(capsys, "hms", "counts", str(path))
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(calls) == 1


def _one_error_line(err: str) -> bool:
    return err.startswith("error:") and len(err.splitlines()) == 1


def test_output_past_the_digit_limit_exits_1(capsys, tmp_path):
    n = 10 ** (sys.get_int_max_str_digits() - 1)  # read back as it is
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"rays": [[1, 0], [n, 1], [-1 - n, -1]], "m": [0, 0, 0]}))
    code, out, err = run(capsys, "surface", "pushforward", "A[10,1;9,1]", str(path))
    assert code == 1 and out == "" and _one_error_line(err)
    path.write_text(json.dumps({"rays": [[1, 0], [n, 1], [-1 - n, -1]], "m": [0, 10, 0]}))
    code, out, err = run(capsys, "atf", "diagram", str(path))  # a node at 10 * (n, 1)
    assert code == 1 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("exponent", [1, 2999])
def test_diagram_message_past_the_digit_limit_exits_1(capsys, tmp_path, exponent):
    # The node's line coordinate 1/(a(a + 1)) is not a consecutive multiple.
    a = 10**exponent
    b = a + 1
    node = {"position": [f"1/{b}", f"1/{a}"], "direction": [a, b], "cut_sign": 1}
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"nodes": [node]}))
    code, out, err = run(capsys, "atf", "move", str(path), f"--elementary={a},{b}")
    assert code == 1 and out == "" and _one_error_line(err)
    if a == 10:  # numbers within the limit keep their text
        assert err == "error: nodes on ray (10, 11) not at consecutive multiples: [Fraction(1, 110)]\n"


# Within the int-to-text digit limit, but a product of two is past it.
N = "9" * 4000
M = "9" * 2500


@pytest.mark.parametrize("argv", [
    ["word", "trop", "A[2,1;1,1]^12000", "--vector", "1,0"],
    ["word", "eval", "A[2,1;1,1]^12", "--point", "2,1"],  # f = x^75025 y^46368
    ["word", "realize", "A[2,1;1,1]^12000"],
    # The term and bit counts in the budget errors' messages are past the limit.
    ["word", "realize", f"A[{N},1;-1,0]^3*E"],
    ["word", "eval", f"A[{N},1;-1,0]^3", "--point", "2,1"],
])
def test_word_output_past_the_digit_limit_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("word", [f"E[{N},1]*E[1,{N}]", f"E[{N},1]"], ids=["E[N,1]*E[1,N]", "E[N,1]"])
def test_pullback_row_past_float_range_exits_1(capsys, word):
    # An E-step row whose exponent is past float range; the term budget refuses it.
    code, out, err = run(capsys, "word", "realize", word)
    assert code == 1 and out == "" and _one_error_line(err) and "terms" in err


def test_surface_message_past_the_digit_limit_exits_1(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(f'{{"rays": [[{N}, 1], [1, {N}], [-1, -1]], "m": [0, 0, 0]}}')
    code, out, err = run(capsys, "surface", "validate", str(path))  # det((N, 1), (1, N)) = N^2 - 1
    lines = out.splitlines()
    assert code == 1 and err == "" and len(lines) == 3 and all(line.startswith("violation: det(") for line in lines)
    assert "digits>, expected 1" in out
    for argv in (["surface", "invariants"], ["surface", "intersections"], ["hms", "counts"], ["atf", "diagram"]):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1 and out == "" and _one_error_line(err)
    # resolve inserts E's ray pulled back through A^2, which is past the limit.
    path.write_text(to_json(surfaces.p2()))
    code, out, err = run(capsys, "surface", "resolve", f"E*A[{M},1;-1,0]^2", str(path))
    assert code == 1 and out == "" and _one_error_line(err) and "more than 1000 rays" in err


def test_messages_quote_at_most_40_characters_of_an_integer(capsys, tmp_path):
    big = str(3 * 10**3999)  # within the digit limit, so its full text could be quoted
    path = tmp_path / "s.json"
    path.write_text(f'{{"rays": [[{big}, 3], [0, 1], [-1, -1]], "m": [0, 0, 0]}}')
    code, out, err = run(capsys, "surface", "validate", str(path))
    assert code == 1 and err == "" and f"violation: ray ({big[:40]}..., 3) is not primitive" in out.splitlines()
    assert max(map(len, out.splitlines())) < 200
    path.write_text('{"nodes": []}')
    code, out, err = run(capsys, "atf", "move", str(path), f"--elementary={big},1")
    assert code == 1 and out == "" and err == f"error: no node at ({big[:40]}..., 1) to move\n"
    path.write_text(f'{{"nodes": [{{"position": [1, 0], "direction": [1, 0], "cut_sign": {big}}}]}}')
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary=1,0")
    assert code == 1 and out == "" and err == f"error: cut_sign must be +-1, got {big[:40]}...\n"
    code, out, err = run(capsys, "word", "eval", "E", f"--point=-1,{big}")
    assert code == 1 and out == "" and err == f"error: pole at (-1, {big[:40]}...)\n"


def test_diagram_errors_quote_records_and_lines_cut(capsys, tmp_path):
    # A node record with an extra key holding a 4000-digit integer, and a
    # bad position string, are quoted with each integer and string cut.
    big = 3 * 10**3999
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"nodes": [{"position": [1, 0], "direction": [1, 0], "cut_sign": 1, "extra": big}]}))
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary=1,0")
    assert code == 1 and out == "" and _one_error_line(err) and len(err) < 200
    assert err == (
        "error: bad node record: {'position': [1, 0], 'direction': [1, 0], 'cut_sign': 1, "
        f"'extra': {str(big)[:40]}...}}\n"
    )
    # Containers nested past three levels are quoted as "...".
    path.write_text(json.dumps({"nodes": [{"position": [1, 0], "extra": [[[[[[1]]]]]] * 400}]}))
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary=1,0")
    assert err == "error: bad node record: {'position': [1, 0], 'extra': [[...], [...], [...], [...], [...], ...]}\n"
    path.write_text(json.dumps({"nodes": [{"position": ["1/" + "x" * 5000, 0], "direction": [1, 0], "cut_sign": 1}]}))
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary=1,0")
    assert code == 1 and out == "" and _one_error_line(err) and len(err) < 200
    assert err.startswith("error: bad position ['1/xxxxxxxx")
    # 3000 nodes at 2, 4, .., 6000 times (1, 0) are not at consecutive
    # multiples; the message quotes the first few line coordinates.
    nodes = [{"position": [str(2 * t), "0"], "direction": [1, 0], "cut_sign": 1} for t in range(1, 3001)]
    path.write_text(json.dumps({"nodes": nodes}))
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary=1,0")
    assert code == 1 and out == "" and _one_error_line(err) and len(err) < 200
    assert err == (
        "error: nodes on ray (1, 0) not at consecutive multiples: [Fraction(2, 1), Fraction(4, 1), "
        "Fraction(6, 1), Fraction(8, 1), Fraction(10, 1), ...]\n"
    )


def test_evaluation_past_the_bit_budget_exits_1(capsys):
    # A[2,1;1,1]^30 realizes to x^2504730781961 y^1548008755920.
    start = time.perf_counter()
    code, out, err = run(capsys, "word", "eval", "A[2,1;1,1]^30", "--point", "2,1")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and _one_error_line(err) and "bits" in err
    # Terms near 3^3000 cancel down to the answer, within the budget.
    code, out, _ = run(capsys, "word", "eval", "E^-3000", "--point=-2,1")
    assert code == 0 and out.strip() == "-2,1"


def test_character_past_the_pair_budget_exits_1(capsys):
    # dlog_ratio's second pass would visit 12.9 million term pairs, about 19 s.
    code, out, err = run(capsys, "word", "character", "P*r3*r2*r1*E[0,1]*E[-3,2]")
    assert code == 1 and out == "" and _one_error_line(err) and "term pairs" in err


def test_insertion_past_the_ray_budget_exits_1(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"rays": [[1, 0], [10**7, 1], [-1 - 10**7, -1]], "m": [0, 0, 0]}))
    code, out, err = run(capsys, "surface", "resolve", "E", str(path))
    assert code == 1 and out == "" and _one_error_line(err)


def test_blowups_past_the_budget_exit_1(capsys, tmp_path):
    # atf diagram would build 10^40 nodes; hms counts as many sheaves.
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 10**40, 0]}))
    for argv in (["atf", "diagram"], ["hms", "counts"]):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1 and out == "" and _one_error_line(err) and "blow-ups" in err
    assert run(capsys, "surface", "invariants", str(path))[0] == 0


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "relations")
    assert code == 0
    assert "P^5 = id: pass" in out
    assert "FAIL" not in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["word", "equal"])  # missing argument
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["word", "realize", "E", "--bogus"])
    assert exc.value.code == 2


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "surface", "invariants", "/nonexistent/s.json")
    assert code == 1


def test_malformed_vector_or_point_is_usage_error(capsys):
    for argv in (
        ["word", "trop", "E", "--vector", "1"],
        ["word", "trop", "E", "--vector", "1,x"],
        ["word", "eval", "E", "--point", "1,2,3"],
        ["word", "eval", "E", "--point", "1/0,1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected two" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        b"not json",
        b"\xff\xfe not UTF-8",
        b'{"nodes": [{"position": ["1/0", "0"], "direction": [1, 0], "cut_sign": 1}]}',
        b'{"nodes": [{"position": ["1", "0"], "direction": [1, 0], "cut_sign": 2}]}',
    ],
)
def test_malformed_diagram_file_is_domain_error(capsys, tmp_path, data):
    path = tmp_path / "d.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary", "0,1")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_exponent_notation_is_refused_at_once(capsys, tmp_path):
    # Fraction("1e10000000") builds 10^(10^7): about 8 s, and a node there
    # then failed to format its own error message.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["word", "eval", "id", "--point", "1e10000000,1"])
    assert exc.value.code == 2 and "expected two" in capsys.readouterr().err
    path = tmp_path / "d.json"
    path.write_text('{"nodes": [{"position": ["1e10000000", "0"], "direction": [1, 0], "cut_sign": 1}]}')
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary", "1,0")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and _one_error_line(err) and "exponent" in err
    # Integers, p/q and decimals are still read.
    code, out, _ = run(capsys, "word", "eval", "id", "--point=-3,1/2")
    assert code == 0 and out.strip() == "-3,1/2"
    code, out, _ = run(capsys, "word", "eval", "id", "--point", "0.25,-1.5")
    assert code == 0 and out.strip() == "1/4,-3/2"
    path.write_text('{"nodes": [{"position": ["1.0", "0/7"], "direction": [1, 0], "cut_sign": 1}]}')
    assert run(capsys, "atf", "move", str(path), "--elementary", "1,0")[0] == 0


def test_boolean_surface_file_is_domain_error(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"rays": [[true, false], [false, true], [-1, -1]], "m": [0, false, 0]}')
    code, out, err = run(capsys, "surface", "pushforward", "id", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_boolean_diagram_file_is_domain_error(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"nodes": [{"position": ["0", "1"], "direction": [false, true], "cut_sign": true}]}')
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary", "0,1")
    assert code == 1 and out == ""
    assert err.startswith("error:")
    path.write_text('{"nodes": [{"position": ["0", "1"], "direction": [0, 1], "cut_sign": 1}]}')
    assert run(capsys, "atf", "move", str(path), "--elementary", "0,1")[0] == 0


def test_float_diagram_position_is_domain_error(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"nodes": [{"position": [0.1, 0], "direction": [1, 0], "cut_sign": 1}]}')
    code, out, err = run(capsys, "atf", "move", str(path), "--elementary", "1,0")
    assert code == 1 and out == ""
    assert err.startswith("error:")
    path.write_text('{"nodes": [{"position": [1, 0], "direction": [1, 0], "cut_sign": 1}]}')
    assert run(capsys, "atf", "move", str(path), "--elementary", "1,0")[0] == 0


def test_internal_value_error_is_not_a_domain_error(monkeypatch, pxp_file):
    # A ValueError from inside the library is a bug, not bad input.
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr("logcy2.surfaces.numeric_invariants", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["surface", "invariants", pxp_file])


def test_word_trop_builds_no_composite_map(capsys):
    text = "(E * A[0,-1;1,0])^60"
    w = parse_word(text)
    assert len(w) == 120
    before = tropicalize.cache_info().currsize
    code, out, _ = run(capsys, "word", "trop", text, "--vector", "1,0")
    assert tropicalize.cache_info().currsize == before
    assert code == 0
    assert out.strip() == "{},{}".format(*pl_apply(tropicalize(w), (1, 0)))


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_state_between_calls(capsys, pxp_file, tmp_path):
    svg = tmp_path / "out.svg"
    first = run(capsys, "atf", "diagram", pxp_file, "--svg", str(svg))
    trop = run(capsys, "word", "trop", "E", "--vector=-1,0")
    svg.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["atf", "diagram", pxp_file, "--svg"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "atf", "diagram", pxp_file) == first
    assert not svg.exists()  # --svg from an earlier call does not carry over
    assert run(capsys, "word", "trop", "E", "--vector=-1,0") == trop
