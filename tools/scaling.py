"""Growth of the fan-file CLI commands with the number of rays, each run a fresh process.

    python3 tools/scaling.py [--tree DIR] [--reps 3] [--out FILE]

Run it from the repository root.  It runs ``python -m logcy2.cli`` with
``DIR/src`` (default: this checkout) first on ``PYTHONPATH`` and
``PYTHONDONTWRITEBYTECODE=1``, so it writes no file into the tree.  The
input is the fan of the rays (1, j), j = 0 ... N, then (0, 1) and (-1, -1),
every multiplicity 3, at 803, 1603 and 3203 rays, written to a temporary
directory that is removed on exit.  The commands are the fan-file family:
every ``surface`` command (``pushforward`` along the linear letter
``A[0,-1;1,0]``, ``resolve`` of ``E``), ``hms counts``, ``atf diagram`` and
``atf diagram --svg``, which writes its SVG file into that directory, where
every child runs; the file is read and removed after each run.

Each command runs ``--reps`` times at each size, each time in a fresh
process, waited for with ``os.wait4``, which gives that child's own
resource usage.  A run records its wall time, the child's peak RSS
(``ru_maxrss``), the bytes and sha256 of its stdout, read as it is written,
its exit code, and the bytes and sha256 of the SVG file it wrote, if any.
For each command and size, the median wall time and peak RSS over the
runs; for each command, the exponent of a least-squares line through
log(metric) against log(rays), for wall time, peak RSS, stdout bytes and
SVG bytes.  It prints one JSON line per command and size and one per
fit, and writes everything, every run included, to ``--out`` when given,
with a sha256 of the library's source files in place of the tree's path.
Wall time and RSS depend on the machine and its load: compare two trees
only from runs made together, alternating.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SIZES = (803, 1603, 3203)
SVG = "diagram.svg"
COMMANDS = {
    "surface validate": ["surface", "validate"],
    "surface invariants": ["surface", "invariants"],
    "surface intersections": ["surface", "intersections"],
    "surface pushforward": ["surface", "pushforward", "A[0,-1;1,0]"],
    "surface resolve": ["surface", "resolve", "E"],
    "hms counts": ["hms", "counts"],
    "atf diagram": ["atf", "diagram"],
    "atf diagram --svg": ["atf", "diagram", "--svg", SVG],
}


def fan(rays: int) -> str:
    """The surface file of the fan (1, j), j = 0 ... rays - 3, then (0, 1) and (-1, -1), every m = 3."""
    return json.dumps({"rays": [[1, j] for j in range(rays - 2)] + [[0, 1], [-1, -1]], "m": [3] * rays})


def run_once(argv: list[str], env: dict[str, str], cwd: str) -> dict:
    """One fresh ``logcy2.cli`` process in cwd: wall time, peak RSS, stdout bytes and sha256, exit code, SVG file."""
    digest, size = hashlib.sha256(), 0
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "logcy2.cli", *argv], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {"wall_s": round(wall, 4), "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
           "stdout_bytes": size, "stdout_sha256": digest.hexdigest(), "exit": proc.returncode}
    svg = os.path.join(cwd, SVG)
    if os.path.exists(svg):
        with open(svg, "rb") as fh:
            data = fh.read()
        os.remove(svg)
        run.update(svg_bytes=len(data), svg_sha256=hashlib.sha256(data).hexdigest())
    return run


def source_digest(tree: str) -> str:
    """The sha256 of the names and bytes of the ``.py`` files under ``tree/src/logcy2``, in name order."""
    digest = hashlib.sha256()
    src = os.path.join(tree, "src", "logcy2")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def exponent(sizes, values: list[float]) -> float | None:
    """The slope of the least-squares line through (log n, log value); None if a value is not positive."""
    if min(values) <= 0:
        return None
    slope, _ = statistics.linear_regression([math.log(n) for n in sizes], [math.log(v) for v in values])
    return round(slope, 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=".", help="checkout whose src/ to run (default: .)")
    parser.add_argument("--reps", type=int, default=3, help="fresh processes per command and size (default 3)")
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args()
    tree = os.path.abspath(args.tree)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    runs, rows, fits = [], [], []
    with tempfile.TemporaryDirectory(prefix="scaling-") as tmp:
        paths = {}
        for n in SIZES:
            paths[n] = os.path.join(tmp, f"fan{n}.json")
            with open(paths[n], "w", encoding="utf-8") as fh:
                fh.write(fan(n))
        for name, argv in COMMANDS.items():
            for n in SIZES:
                done = [run_once([*argv, paths[n]], env, tmp) for _ in range(args.reps)]
                runs += [{"command": name, "rays": n, **r} for r in done]
                row = {"command": name, "rays": n, "exit": sorted({r["exit"] for r in done}),
                       "wall_s": statistics.median(r["wall_s"] for r in done),
                       "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in done),
                       "stdout_bytes": done[0]["stdout_bytes"],
                       "stdout_sha256": sorted({r["stdout_sha256"] for r in done})}
                if "svg_bytes" in done[0]:
                    row.update(svg_bytes=done[0]["svg_bytes"],
                               svg_sha256=sorted({r.get("svg_sha256", "") for r in done}))
                print(json.dumps(row), flush=True)
                rows.append(row)
            last = rows[-len(SIZES):]
            fit = {"command": name, **{f"exponent_{metric}": exponent(SIZES, [r[metric] for r in last])
                                       for metric in ("wall_s", "peak_rss_mib", "stdout_bytes", "svg_bytes")
                                       if all(metric in r for r in last)}}
            print(json.dumps(fit), flush=True)
            fits.append(fit)
    if args.out:
        result = {"src_sha256": source_digest(tree), "sizes": list(SIZES), "reps": args.reps,
                  "nproc": os.cpu_count(), "python": platform.python_version(),
                  "rows": rows, "fits": fits, "runs": runs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
