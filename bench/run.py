"""The logcy2 benchmark: three closed-loop workloads, one client, one thread.

    python3 bench/run.py --workload word_queries --seed 1 --seconds 15 --trace 0

Run it from the repository root.  The seed picks and orders the run's
inputs from the pools in ``bench/data`` (built by ``record.py``).  The run
is a fixed number of batches, set by the workload and ``--seconds`` alone
(see BATCH_SECONDS), each timed in a fresh interpreter by ``worker.py``.
Timings are in reference units (see CAL_NOMINAL_S); the report line before
the result gives them unscaled too.  The last line of stdout is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).
Every operation's output is checked; a failed check counts in ``failed``.

``--trace 1`` runs the first half of those batches, at least one, each
twice: untraced, then with span wrappers around the library's public
functions.  The per-layer metrics come from the traced copies, and the
tracing overhead from comparing the two.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".bench_work"  # scratch files and spans, relative to the checkout root

# Operations per batch, by kind.  Fixed counts per kind, drawn by stratified
# sampling over the pool ordered by recorded cost, keep the cost of a run
# nearly the same whatever the seed.
WORD_MIX = {"random": 200, "macro": 32}
CLI_MIX = {"resolve": 60, "pushforward": 30, "move": 30, "diagram": 30,
           "counts": 30, "intersections": 30, "trop": 18}
REFLECTION_DEPTH = 5  # all 93 alternating words; depth 6 alone takes about 34 s
# Nominal seconds of one batch at the commit that defined the benchmark.
# A run has max(1, round(seconds / BATCH_SECONDS)) batches, so its operation
# count, and with it the tail percentile, never depends on the machine's speed.
BATCH_SECONDS = {"word_queries": 7.0, "reflection_enum": 3.5, "surface_cli": 2.5}
SETUP_ONLY = 9  # extra workers per run that only set up, for the setup_s median
# On a shared two-core virtual machine, speed drifts by up to a factor of
# two over seconds to minutes (other tenants).  Every worker times a fixed
# reference computation (worker.calibration_s) before its first operation
# and after every 0.1 s of operations.  Each timing is reported in reference
# units: multiplied by CAL_NOMINAL_S over the mean of the reference times
# just before and just after it.  Over 24 repeats of one
# word_queries batch this cut the spread of the batch time (standard
# deviation of its log) from 0.17 to 0.05 in a noisy spell and from 0.068 to
# 0.018 in a quiet one.  The reference runs in the worker's own process, so
# a slowdown the library causes to the whole process (heap growth, memory
# layout) slows the reference too and partly cancels out; the report line
# gives the unscaled figures as ``unscaled``.
CAL_NOMINAL_S = 0.010
# The tail percentile per workload: the highest of 90, 95, 98, 99 with at
# least ten samples beyond it in a run of --seconds 15.
TAIL_PERCENTILE = {"word_queries": 95.0, "reflection_enum": 95.0, "surface_cli": 99.0}

E2E_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "peak_rss_mib": "MiB", "setup_s": "s"}


def load(name: str):
    with open(HERE / "data" / name, encoding="utf-8") as fh:
        return json.load(fh)


def stratified(rng: random.Random, items: list, m: int, cost) -> list:
    """One item from each of m equal strata of ``items`` ranked by ``cost(item)``.

    With m at most len(items) the picks are distinct.  With more, the strata
    are single items and each item fills a few consecutive strata.
    """
    ranked = sorted(items, key=cost)
    n = len(ranked)
    return [rng.choice(ranked[i * n // m:max((i + 1) * n // m, i * n // m + 1)]) for i in range(m)]


def deal(picks: list, batches: int) -> list[list]:
    """Pick i goes to batch i mod ``batches``: every batch gets a slice of each
    stratum range, and an item that fills consecutive strata lands in
    different batches, so no batch repeats one."""
    return [picks[b::batches] for b in range(batches)]


# --- run plans --------------------------------------------------------------------
# A run's batch specs depend only on (workload, seed, number of batches).
# Each kind of operation is drawn for the whole run at once and dealt out,
# so the run covers the pool's cost range evenly whatever the seed.


def plan_word_queries(seed: int, batches: int) -> list[dict]:
    rng = random.Random(f"word_queries/{seed}")
    pool = load("words.json")
    picks: list[list] = [[] for _ in range(batches)]
    for kind, k in WORD_MIX.items():
        # Half the words get their equal partner and half their unequal one,
        # each half stratified by the cost of the query with that partner;
        # the unequal half is drawn from the words the equal half left.
        items = [it for it in pool if it["kind"] == kind]
        equal_half = stratified(rng, items, batches * k // 2, lambda it: it["ms_equal"])
        chosen = {id(it) for it in equal_half}
        unequal_half = stratified(rng, [it for it in items if id(it) not in chosen],
                                  batches * k // 2, lambda it: it["ms_unequal"])
        for b, (eq, ne) in enumerate(zip(deal(equal_half, batches), deal(unequal_half, batches))):
            picks[b] += [(it, True) for it in eq] + [(it, False) for it in ne]
    plans = []
    for b, batch in enumerate(picks):
        rng.shuffle(batch)
        # Every batch starts with each long word, against its equal partner in
        # even batches and its unequal one in odd batches, whatever the seed.
        # Its cost grows with the heap left by earlier operations, so its
        # place is fixed too.
        batch[:0] = [(it, b % 2 == 0) for it in pool if it["kind"] == "long"]
        plans.append({"ops": [{
            "word": it["word"], "rays": it["rays"], "char": it["char"], "digest": it["digest"],
            "equal": equal, "partner": it["equal_partner" if equal else "unequal_partner"],
            "letters": it["letters"], "degree": it["degree"], "terms": it["terms"],
            "pieces": it["pieces"],
        } for it, equal in batch]})
    return plans


def plan_reflection_enum(seed: int, batches: int) -> list[dict]:
    rng = random.Random(f"reflection_enum/{seed}")
    digests = load("reflections.json")
    plans = []
    for _ in range(batches):
        order, level = [], [""]
        for _ in range(REFLECTION_DEPTH):
            level = [k + str(i) for k in level for i in (1, 2, 3) if not k.endswith(str(i))]
            rng.shuffle(level)
            order += level
        plans.append({"ops": [[k, digests[k]] for k in order]})
    return plans


def plan_surface_cli(seed: int, batches: int) -> list[dict]:
    rng = random.Random(f"surface_cli/{seed}")
    pool = load("cli.json")
    picks: list[list] = [[] for _ in range(batches)]
    for kind, k in CLI_MIX.items():
        drawn = stratified(rng, [c for c in pool["cases"] if c["kind"] == kind], batches * k,
                           lambda c: c["ms"])
        for b, share in enumerate(deal(drawn, batches)):
            picks[b] += share
    plans = []
    for batch in picks:
        rng.shuffle(batch)
        needed = {a[1:] for c in batch for a in c["argv"] if a.startswith("@")}
        plans.append({"ops": batch, "files": {n: pool["files"][n] for n in sorted(needed)}})
    return plans


PLANS = {"word_queries": plan_word_queries, "reflection_enum": plan_reflection_enum,
         "surface_cli": plan_surface_cli}


# --- running batches ------------------------------------------------------------------


def run_batch(workload: str, plan: dict, trace: bool, started: float) -> dict:
    spec = dict(plan, workload=workload, trace=trace,
                work_dir=f"{WORK}/{workload}", spans_path=f"{WORK}/spans-{workload}.tsv")
    budget = max(5.0, 175.0 - (time.monotonic() - started))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                          capture_output=True, text=True, timeout=budget, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    cal = result["calibration_s"]
    result["raw_latencies"] = result["latencies"]
    result["latencies"] = [x * 2 * CAL_NOMINAL_S / (cal[k] + cal[k + 1])
                           for x, k in zip(result["latencies"], result["before"])]
    result["raw_setup_s"] = result["setup_s"]
    result["setup_s"] *= 2 * CAL_NOMINAL_S / (result["calibration_before_setup_s"] + cal[0])
    result["scale"] = CAL_NOMINAL_S / statistics.median(cal)
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def batch_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BATCH_SECONDS[workload]))


def input_properties(workload: str, plans: list[dict]) -> dict:
    ops = [op for plan in plans for op in plan["ops"]]
    if workload == "reflection_enum":
        return {"words": len(ops), "max_reflections": max(len(k) for k, _ in ops)}
    if workload == "surface_cli":
        letters = {k: sorted(op["letters"] for op in ops if op["kind"] == k) for k in ("resolve", "trop")}
        return {f"{k}_letters_min_p50_max": [v[0], v[len(v) // 2], v[-1]] for k, v in letters.items() if v}
    letters = sorted(op["letters"] for op in ops)
    # Words realized in one process (query word and partner) that it had seen before.
    texts = [[t for op in plan["ops"] for t in (op["word"], op["partner"])] for plan in plans]
    repeated = sum(len(t) - len(set(t)) for t in texts)
    return {
        "equal_share": round(sum(op["equal"] for op in ops) / len(ops), 4),
        "repeated_share": round(repeated / sum(len(t) for t in texts), 4),
        "max_degree": max(op["degree"] for op in ops),
        "max_terms": max(op["terms"] for op in ops),
        "letters_p10_p50_p90_max": [letters[len(letters) // 10], letters[len(letters) // 2],
                                    letters[9 * len(letters) // 10], letters[-1]],
        "max_pl_pieces": max(op["pieces"] for op in ops),
    }


def end_to_end(workload: str, seed: int, seconds: float, started: float):
    plans = PLANS[workload](seed, batch_count(workload, seconds))
    results = [run_batch(workload, plan, False, started) for plan in plans]
    # Workers that set up and run no operation give setup_s more samples.
    setups = results + [run_batch(workload, dict(plans[i % len(plans)], ops=[]), False, started)
                        for i in range(SETUP_ONLY)]
    lat = sorted(x for r in results for x in r["latencies"])
    raw = sorted(x for r in results for x in r["raw_latencies"])
    p_tail = TAIL_PERCENTILE[workload]

    def timings(lat: list[float], setup: list[float]) -> dict:
        return {
            "throughput_ops_s": len(lat) / sum(lat),
            "latency_p50_ms": 1e3 * percentile(lat, 50),
            "latency_tail_ms": 1e3 * percentile(lat, p_tail),
            "setup_s": statistics.median(setup),
        }

    metrics = timings(lat, [r["setup_s"] for r in setups])
    metrics["peak_rss_mib"] = statistics.median(r["rss_mib"] for r in results)
    attempted = len(lat)
    failed = sum(r["failed"] for r in results)
    report = {
        "batches": len(plans), "operations": attempted,
        "unscaled": timings(raw, [r["raw_setup_s"] for r in setups]),
        "scale_min_median_max": [round(f(r["scale"] for r in results), 4) for f in (min, statistics.median, max)],
        "failed_ratio": failed / attempted, "tail_percentile": p_tail,
        "samples_beyond_tail": sum(x > percentile(lat, p_tail) for x in lat),
        "inputs": input_properties(workload, plans),
        "failures": [f for r in results for f in r["failures"]][:5],
    }
    units = {k: E2E_UNITS[k] for k in metrics}
    return metrics, units, attempted, failed, report, True


def per_layer(workload: str, seed: int, seconds: float, started: float):
    from tracer import WRAPPED  # the wrapped function list only; no library import

    # The first half of the untraced run's batches, at least one.
    n_batches = batch_count(workload, seconds)
    plain, traced = [], []
    for plan in PLANS[workload](seed, n_batches)[:max(1, n_batches // 2)]:
        plain.append(run_batch(workload, plan, False, started))
        traced.append(run_batch(workload, plan, True, started))
    calls, self_s, stats, maxima = {}, {}, {}, {}
    for r in traced:
        t = r["trace"]
        for name, v in t["calls"].items():
            calls[name] = calls.get(name, 0) + v
        for name, v in t["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in t["stats"].items():
            stats[name] = stats.get(name, 0) + v
        for name, v in t["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics, units = {}, {}
    for layer, names in WRAPPED.items():
        for qual in names:
            name = f"{layer}.{qual}"
            metrics[f"{name}.calls"], units[f"{name}.calls"] = calls.get(name, 0), "count"
            metrics[f"{name}.self_s"], units[f"{name}.self_s"] = self_s.get(name, 0.0), "s"
    rc = [sum(r["trace"]["realize_cache"][i] for r in traced) for i in (0, 1)]
    tc = [sum(r["trace"]["tropicalize_cache"][i] for r in traced) for i in (0, 1)]
    plain_s = sum(sum(r["latencies"]) for r in plain)
    traced_s = sum(sum(r["latencies"]) for r in traced)
    extra = {
        "polyrat.poly_gcd.nontrivial_ratio": (ratio(stats.get("polyrat.poly_gcd.nontrivial", 0),
                                                    calls.get("polyrat.poly_gcd", 0)), "ratio"),
        "polyrat.max_total_degree": (maxima.get("polyrat.max_total_degree", 0), "degree"),
        "polyrat.max_terms": (maxima.get("polyrat.max_terms", 0), "count"),
        "birmap.realize.cache_hit_ratio": (ratio(rc[0], rc[0] + rc[1]), "ratio"),
        "birmap.realize.cache_entries": (max(r["trace"]["realize_cache"][3] for r in traced), "count"),
        "birmap.tropicalize.cache_hit_ratio": (ratio(tc[0], tc[0] + tc[1]), "ratio"),
        "birmap.equal.true_ratio": (ratio(stats.get("birmap.equal.true", 0),
                                          calls.get("birmap.equal", 0)), "ratio"),
        "words.parse_word.letters": (stats.get("words.parse_word.letters", 0), "count"),
        "lattice.pl_compose.max_pieces": (maxima.get("lattice.pl_compose.max_pieces", 0), "count"),
        "surfaces.resolve.augmentations": (stats.get("surfaces.resolve.augmentations", 0), "count"),
        "trace.overhead_ratio": (ratio(traced_s, plain_s) - 1, "ratio"),
        "trace.coverage": (ratio(sum(r["trace"]["root_s"] for r in traced),
                                 sum(sum(r["raw_latencies"]) for r in traced)), "ratio"),
    }
    for name, (value, unit) in extra.items():
        metrics[name], units[name] = value, unit
    results = plain + traced
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(r["failed"] for r in results)
    invariant = calls.get("polyrat.normalize", 0) >= calls.get("polyrat.substitute", 0)
    restored = all(r["trace"]["restored"] for r in traced)
    report = {
        "batches": len(traced), "failed_ratio": failed / attempted,
        "normalize_calls_cover_substitute": invariant, "wrappers_restored": restored,
        "spans_file": f"{WORK}/spans-{workload}.tsv",
        "failures": [f for r in results for f in r["failures"]][:5],
    }
    return metrics, units, attempted, failed, report, invariant and restored


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "logcy2" / "__init__.py").is_file():
        raise SystemExit("no src/logcy2 in this checkout; run from the repository root")
    started = time.monotonic()
    os.makedirs(ROOT / WORK, exist_ok=True)
    if args.trace:
        (ROOT / WORK / f"spans-{args.workload}.tsv").write_text("op\tname\tstart\tend\tparent\n")
    measure = per_layer if args.trace else end_to_end
    metrics, units, attempted, failed, report, checks_ok = measure(
        args.workload, args.seed, args.seconds, started)
    report["wall_s"] = round(time.monotonic() - started, 3)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "report": report}))
    print(json.dumps({
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
