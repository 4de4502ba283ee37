"""One batch of one workload, timed in a fresh interpreter.

Reads a batch spec (JSON, written by ``run.py``) on stdin and prints one JSON
line: the set-up time, each operation's latency, the failed checks, the
peak resident memory and, for a traced batch, the per-function counts and
self times.  A fresh interpreter per batch means every batch starts with
the library's caches empty, which the cold-state guard asserts.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALIBRATE_EVERY_S = 0.1  # operation time between two calibration samples

_REF_INT = {(i, j): 7 * i - 3 * j + 1 for i in range(12) for j in range(12)}
_REF_FRAC = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}


def calibration_s() -> float:
    """Time of a fixed reference computation that shares nothing with the library.

    Sparse dict products over ints and Fractions, the library's own kind of
    work.  The machine's speed drifts by up to a factor of two over seconds
    (other tenants), and this reference drifts with it, so ``run.py`` scales
    every timing by it.  The collector is off while it runs, so a library
    that changes collector settings cannot change the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict = {}
        for (i1, j1), c1 in _REF_INT.items():
            for (i2, j2), c2 in _REF_INT.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        total = Fraction(0)
        for c in _REF_FRAC.values():
            for d in _REF_FRAC.values():
                total += c * d
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def cold_state_guard(cached) -> None:
    """The realize and tropicalize caches must be empty when timing starts."""
    for fn in cached:
        if fn.cache_info().currsize != 0:
            raise RuntimeError(f"{fn.__name__} cache is warm before the timed phase")


# Each set-up returns the batch's operations as (run, check) pairs: ``run``
# is timed, ``check(result)`` is not and returns an error text or None.


def word_queries(spec, work: Path):
    import ops

    def make(item):
        rays = [tuple(r) for r in item["rays"]]

        def run():
            return ops.word_query(item["word"], rays, item["partner"])

        def check(result):
            m, char, images, limits, same = result
            if same != item["equal"]:
                return f"equal({item['word']}, {item['partner']}) gave {same}"
            if char != item["char"]:
                return f"character of {item['word']} is {char}, determinants give {item['char']}"
            if ops.digest(ops.word_query_text(m, images, limits)) != item["digest"]:
                return f"outputs of {item['word']} differ from the recorded digest"
            return None

        return run, check

    return [make(item) for item in spec["ops"]]


def reflection_enum(spec, work: Path):
    import ops
    from logcy2 import birmap

    maps = {"": birmap.IDENTITY_MAP}
    refl = ops.reflection_maps()

    def make(key, expected):
        def run():  # extend the alternating word on the right, as ``demo cubic`` does
            return birmap.compose(maps[key[:-1]], refl[int(key[-1]) - 1])

        def check(result):
            maps[key] = result
            if result == birmap.IDENTITY_MAP:
                return f"alternating word {key} collapsed to the identity"
            if ops.digest(str(result)) != expected:
                return f"map of alternating word {key} differs from the recorded digest"
            return None

        return run, check

    return [make(key, expected) for key, expected in spec["ops"]]


def write_inputs(spec, work: Path) -> None:
    """The surface and diagram files the command lines read.

    Written before the set-up clock starts: they are generated inputs, not
    something the library builds, and writing them took anywhere from 15 to
    84 ms on the machine the benchmark was defined on.
    """
    work.mkdir(parents=True, exist_ok=True)
    for name, text in spec["files"].items():
        (work / f"{name}.json").write_text(text, encoding="utf-8")


def surface_cli(spec, work: Path):
    import ops

    svg = work / "out.svg"

    def make(case):
        argv = [str(work / f"{a[1:]}.json") if a.startswith("@") else a for a in case["argv"]]
        if case["kind"] == "diagram":
            argv += ["--svg", str(svg)]

        def run():
            return ops.run_cli(argv)

        def check(result):
            code, out = result
            if code != 0:
                return f"{' '.join(case['argv'])} exited {code}"
            if ops.digest(out) != case["stdout"]:
                return f"stdout of {' '.join(case['argv'])} differs from the recorded digest"
            if case["svg"] is not None and ops.digest(svg.read_bytes()) != case["svg"]:
                return f"SVG of {' '.join(case['argv'])} differs from the recorded digest"
            return None

        return run, check

    return [make(case) for case in spec["ops"]]


SETUPS = {"word_queries": word_queries, "reflection_enum": reflection_enum, "surface_cli": surface_cli}
# Library modules each workload imports before its first operation.
IMPORTS = {"word_queries": [], "reflection_enum": [], "surface_cli": ["logcy2.cli"]}


def main() -> None:
    spec = json.load(sys.stdin)
    workload = spec["workload"]
    work = ROOT / spec["work_dir"]

    if workload == "surface_cli":
        write_inputs(spec, work)
    before_setup = calibration_s()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    import logcy2
    from logcy2 import birmap

    for name in IMPORTS[workload]:
        importlib.import_module(name)
    t1 = time.perf_counter()
    if Path(logcy2.__file__).resolve().parent != ROOT / "src" / "logcy2":
        raise SystemExit(f"imported logcy2 from {logcy2.__file__}, not from this checkout")
    # The realize and tropicalize caches start empty in every workload; the
    # reflection set-up realizes r1, r2 and r3 itself and never times realize.
    cached = (birmap.realize, birmap.tropicalize)
    cold_state_guard(cached)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    operations = SETUPS[workload](spec, work)
    t3 = time.perf_counter()
    if workload != "reflection_enum":
        cold_state_guard(cached)

    clock = time.perf_counter
    latencies: list[float] = []
    failures: list[str] = []
    calibration = [calibration_s()]
    before: list[int] = []  # per operation, the calibration sample taken just before it
    since = 0.0
    for i, (run, check) in enumerate(operations):
        if since >= CALIBRATE_EVERY_S:
            calibration.append(calibration_s())
            since = 0.0
        before.append(len(calibration) - 1)
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            result = run()
        except (Exception, SystemExit) as exc:  # a raising operation is a failed one
            result = exc
        latencies.append(clock() - start)
        since += latencies[-1]
        if isinstance(result, BaseException):
            failures.append(f"op {i} raised {type(result).__name__}: {result}")
            continue
        try:
            problem = check(result)
        except Exception as exc:  # a check that cannot run counts the operation as failed
            problem = f"op {i} check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)

    calibration.append(calibration_s())
    out = {
        "setup_s": (t1 - t0) + (t3 - t2),
        "calibration_before_setup_s": before_setup,
        "latencies": latencies,
        "calibration_s": calibration,
        "before": before,
        "failed": len(failures),
        "failures": failures[:5],
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        realize, trop = cached
        out["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "stats": dict(tracer.stats),
            "maxima": dict(tracer.maxima),
            "root_s": tracer.root_s,
            "realize_cache": list(realize.cache_info()),
            "tropicalize_cache": list(trop.cache_info()),
            "restored": tracer.restored(),
        }
        tracer.write_spans(ROOT / spec["spans_path"])
    if workload == "surface_cli":
        for f in work.iterdir():
            f.unlink()
        work.rmdir()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
