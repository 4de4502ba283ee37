"""Recorded output digests of the benchmark's input pools, checked in process.

The digests and the canonical text they are taken of come from ``bench/``:
``bench/data/*.json`` holds the pools, ``bench/ops.py`` runs one operation
and digests its output, and both are read here, never copied.
"""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_ops():
    spec = importlib.util.spec_from_file_location("bench_ops", BENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ops = _load_ops()


def test_surface_cli_pool_keeps_its_digests(tmp_path):
    pool = json.loads((BENCH / "data" / "cli.json").read_text(encoding="utf-8"))
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
