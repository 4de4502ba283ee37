"""Alternated pairs of benchmark runs, parent against change, written to one JSON file.

    python3 tools/compare.py --parent REV --workload surface_cli --pairs 10 --seconds 15 --out BENCH_n.json

Run it from the repository root.  Both sides are the files of a commit or
a tree, ``--parent`` and ``--change`` (default HEAD; ``git write-tree``
gives the tree of the staged files), extracted with ``git archive`` into
one fresh temporary directory as ``parent`` and ``change``: paths of the
same length, because the length of the checkout path moves
``peak_rss_mib``.  Pair k runs each side's own ``bench/run.py
--trace 0`` once with seed ``--seed`` + k, the parent first in even pairs
and the change first in odd ones.

The output names each side by its commit (null for a bare tree), its tree
and the tree of its ``src`` directory, the library the benchmark runs, and
holds every pair, each run as its result line plus the report
of the line before it, which gives the timings before scaling too; for each
end-to-end metric of the change's ``BENCHMARK.json``, each side's median
and quartiles and the number of pairs the change wins; the seeds,
``nproc``, the CPython version, the median wall time of ``python -c pass``
before the first pair, and whether every run reported ``correct``.  The
temporary directory is removed on exit, and each run is waited for, so none
is left running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")  # names of equal length


def rev_parse(spec: str) -> str | None:
    """The object name of spec, or None when it names no object."""
    run = subprocess.run(["git", "rev-parse", "--verify", "--quiet", spec], capture_output=True, text=True)
    return run.stdout.strip() or None


def extract(rev: str, dest: str) -> dict:
    """The files of rev, a commit or a tree, under dest; returns its commit, tree and ``src`` tree hashes."""
    tree = rev_parse(f"{rev}^{{tree}}")
    if tree is None:
        raise SystemExit(f"{rev} names no commit or tree")
    tar = subprocess.run(["git", "archive", "--format=tar", tree], check=True, capture_output=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)
    return {"commit": rev_parse(f"{rev}^{{commit}}"), "tree": tree, "src_tree": rev_parse(f"{tree}:src")}


def python_startup_ms(runs: int = 5) -> float:
    """Median wall time of ``python -c pass``, in ms."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return round(statistics.median(times), 2)


def bench(side_dir: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced ``bench/run.py`` run in side_dir, with the report line's details."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side_dir, capture_output=True, text=True)
    if run.returncode:
        raise SystemExit(f"{side_dir}: bench/run.py exited with {run.returncode}:\n{run.stderr[-2000:]}")
    *_, report, result = run.stdout.strip().splitlines()
    return {**json.loads(result), "report": json.loads(report)["report"]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles over the pairs, and the change's wins."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {"better": metric["better"], **{side: spread(values[side]) for side in SIDES},
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit or tree of the parent side")
    parser.add_argument("--change", default="HEAD", help="commit or tree of the change side (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True, help="number of pairs, at least 2")
    parser.add_argument("--seconds", type=float, required=True, help="--seconds of each bench/run.py run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--tmp", help="directory to extract both sides under (default: the system's)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    work = tempfile.mkdtemp(prefix="compare-", dir=args.tmp)
    try:
        dirs = {side: os.path.join(work, side) for side in SIDES}
        revisions = {side: extract(getattr(args, side), dirs[side]) for side in SIDES}
        with open(os.path.join(dirs["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)["end_to_end"]
        startup_ms = python_startup_ms()
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            runs = {side: bench(dirs[side], args.workload, seed, args.seconds) for side in order}
            pairs.append({"seed": seed, "first": order[0], **runs})
            print(f"pair {k + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} {runs[side]['metrics']['throughput_ops_s']['value']:.1f} ops/s" for side in SIDES),
                file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": args.workload, "seconds": args.seconds, "revisions": revisions,
        "seeds": [p["seed"] for p in pairs], "nproc": os.cpu_count(),
        "python": platform.python_version(), "python_c_pass_ms": startup_ms,
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "summary": summarize(pairs, metrics), "pairs": pairs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
