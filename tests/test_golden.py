"""Recorded output digests of the benchmark's input pools, and every row of
the CLI's contract, checked in process.

The pool digests and the canonical text they are taken of come from
``bench/``: ``bench/data/*.json`` holds the pools, ``bench/ops.py`` runs one
operation and digests its output, and both are read here, never copied.
``test_cli_case`` checks each row of ``cli_cases.CASES``: the exit code,
stdout, stderr and raised exception class of one command line, including
the full-stdout digests, the help texts and the limit frontier.  The last
two tests check that every name ``bench/tracer.py`` wraps in a traced run
still exists, and that ``bench/smoke.py`` runs every workload, untraced and
traced, to its end.
"""

import hashlib
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import CASES, Case, FirstLine, Sha256, check
from logcy2 import birmap, words

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ops = _load_bench("ops")


def _pool(name: str):
    return json.loads((BENCH / "data" / name).read_text(encoding="utf-8"))


def test_surface_cli_pool_keeps_its_digests(tmp_path):
    pool = _pool("cli.json")
    for name, text in pool["files"].items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    svg = tmp_path / "out.svg"
    moved = []
    for case in pool["cases"]:
        argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in case["argv"]]
        if case["kind"] == "diagram":
            svg.unlink(missing_ok=True)
            argv += ["--svg", str(svg)]
        code, out = ops.run_cli(argv)
        svg_digest = ops.digest(svg.read_bytes()) if case["svg"] is not None and svg.exists() else None
        if (code, ops.digest(out), svg_digest) != (0, case["stdout"], case["svg"]):
            moved.append(" ".join(case["argv"]))
    assert len(pool["cases"]) == 740
    assert moved == [], f"{len(moved)} cases moved their digest, first: {moved[:3]}"


def test_word_pool_keeps_its_digests():
    # The digest covers the realized map, the tropical images and every
    # boundary limit, which ``boundary_limit`` reads off the letters, not off
    # the map; no CLI command reaches it.
    pool = _pool("words.json")
    moved = []
    for item in pool:
        rays = [tuple(r) for r in item["rays"]]
        m, char, images, limits, same = ops.word_query(item["word"], rays, item["equal_partner"])
        if not same:
            moved.append(f"{item['word']}: not equal to {item['equal_partner']}")
        if char != item["char"]:
            moved.append(f"{item['word']}: character {char}")
        if ops.digest(ops.word_query_text(m, images, limits)) != item["digest"]:
            moved.append(f"{item['word']}: digest")
        if birmap.equal(words.parse_word(item["word"]), words.parse_word(item["unequal_partner"])):
            moved.append(f"{item['word']}: equal to {item['unequal_partner']}")
    assert len(pool) == 1201
    assert moved == [], f"{len(moved)} queries moved, first: {moved[:3]}"


def test_reflection_pool_keeps_its_digests():
    # Each alternating word extends its parent on the right, parents first.
    pool = _pool("reflections.json")
    refl = ops.reflection_maps()
    maps = {"": birmap.IDENTITY_MAP}
    moved = []
    for key in sorted(pool, key=len):
        maps[key] = birmap.compose(maps[key[:-1]], refl[int(key[-1]) - 1])
        if ops.digest(str(maps[key])) != pool[key]:
            moved.append(key)
    assert len(pool) == 93
    assert moved == [], f"{len(moved)} reflection words moved their digest, first: {moved[:3]}"


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case.argv)[:60] for case in CASES])
def test_cli_case(cli_env, case):
    assert check(case) == []


def test_row_check_reports_each_wrong_field(cli_env):
    # A row that holds, and one copy of it wrong in each field.
    case = Case(["word", "eval", "E", "--point=-1,1"], 1, "", "error: pole at (-1, 1)\n", "PoleAtPointError")
    assert check(case) == []
    wrong = {
        "exit": case._replace(exit=0),
        "stdout": case._replace(stdout=Sha256(hashlib.sha256(b"-1,1\n").hexdigest())),
        "stderr": case._replace(stderr=FirstLine("error: pole at (1, -1)")),
        "raised": case._replace(raised="ValueError"),
    }
    for field, row in wrong.items():
        assert [line.partition(":")[0] for line in check(row)] == [field]


def test_every_traced_name_resolves():
    # The traced bench run wraps each name of ``tracer.WRAPPED`` in its layer
    # module by ``getattr`` (a method in its class's own dict), and its
    # cold-state guard reads the realize and tropicalize caches.
    tracer = _load_bench("tracer")
    missing = []
    for layer, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"logcy2.{layer}")
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                found = callable(vars(getattr(module, cls_name, object)).get(attr))
            else:
                found = callable(getattr(module, qual, None))
            if not found:
                missing.append(f"{layer}.{qual}")
    assert missing == []
    for fn in (birmap.realize, birmap.tropicalize):
        assert callable(getattr(fn, "cache_info", None)), fn.__name__


def test_bench_smoke_run_passes():
    # Every workload at a tiny size, untraced and traced, in a fresh process,
    # so a library change that breaks a bench run fails here.
    result = subprocess.run([sys.executable, str(BENCH / "smoke.py")], cwd=BENCH.parent,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "smoke: ok"
