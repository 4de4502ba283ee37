"""Recorded output digests of the benchmark's input pools and of three CLI
commands, checked in process.

The pool digests and the canonical text they are taken of come from
``bench/``: ``bench/data/*.json`` holds the pools, ``bench/ops.py`` runs one
operation and digests its output, and both are read here, never copied.
The CLI digests are the sha256 of the whole stdout.  The last test checks
that every name ``bench/tracer.py`` wraps in a traced run still exists.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

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
    # boundary limit; no CLI command reaches ``boundary_limit``.
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


CLI_SHA256 = {
    ("demo", "cubic"): "47d232bd332bbed85230946e094881dd78cf1397edbb703cac50288e92ca0c97",
    ("verify", "relations"): "5cc09b29609662c04e155ff5b440b38f65909936575c02482095bb841be729dd",
    ("word", "realize", "(r1*r2*r3)^3"): "09bac70282d539b782260d0e871f331d10ed5e24fd23ef7bbab39570a89d4d85",
}


def test_cli_commands_keep_their_stdout(monkeypatch):
    monkeypatch.setenv("LOGCY2_SEED", "42")
    moved = []
    for argv, expected in CLI_SHA256.items():
        code, out = ops.run_cli(list(argv))
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (0, expected):
            moved.append(" ".join(argv))
    assert moved == [], f"stdout moved for: {moved}"


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
