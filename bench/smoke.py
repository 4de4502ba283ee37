"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench/smoke.py              (or: python3 -m pytest bench/smoke.py)

Each workload runs with its batches cut to a few operations, untraced and
traced.  The test checks that the metric names printed match
``BENCHMARK.json``, that every check passed, and that the span wrappers
leave every binding they replaced as it was.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

OPS_PER_BATCH = 4


def _tiny(plan):
    def cut(seed, batches):
        return [dict(spec, ops=spec["ops"][:OPS_PER_BATCH]) for spec in plan(seed, batches)]

    return cut


def _run(workload: str, trace: int) -> dict:
    plans = dict(run.PLANS)
    run.PLANS.update({name: _tiny(plan) for name, plan in plans.items()})
    argv = sys.argv
    sys.argv = ["run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main()
    finally:
        sys.argv = argv
        run.PLANS.update(plans)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_metric_names_match_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], (workload, trace)


def test_wrappers_are_restored() -> None:
    import logcy2
    import logcy2.cli  # noqa: F401  every layer loaded, so every function is wrapped

    def bindings():
        mods = [m for n, m in sys.modules.items() if n == "logcy2" or n.startswith("logcy2.")]
        return {(m.__name__, k): v for m in mods for k, v in vars(m).items()} | {
            ("Poly2", k): v for k, v in vars(logcy2.Poly2).items()}

    before = bindings()
    t = tracer.Tracer()
    t.install()
    wrapped = sum(before[k] is not v for k, v in bindings().items())
    assert wrapped >= sum(len(v) for v in tracer.WRAPPED.values())
    logcy2.Poly2.x() * logcy2.Poly2.y()
    assert t.calls["polyrat.Poly2.__mul__"] == 1
    t.uninstall()
    assert t.restored()
    after = bindings()
    assert all(after[k] is v for k, v in before.items())


if __name__ == "__main__":
    test_wrappers_are_restored()
    test_metric_names_match_benchmark_json()
    print("smoke: ok")
