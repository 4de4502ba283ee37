import json

import pytest

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


def test_oversized_power_exits_2(capsys):
    code, out, err = run(capsys, "word", "trop", "E^10000000", "--vector", "1,0")
    assert code == 2 and out == ""
    assert "letters" in err


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
