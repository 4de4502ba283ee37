"""Build the benchmark's input pools and record their expected outputs.

Run from the repository root:

    python3 bench/record.py

It writes ``bench/data/words.json``, ``bench/data/cli.json`` and
``bench/data/reflections.json``.  The pools are drawn once from a fixed
seed; a benchmark run picks and orders its inputs from them with its own
``--seed``.  Candidates are screened here, by realized degree and by the
time one operation takes, so that a benchmark run never screens and never
warms a cache before it is timed; only the fixed long words (LONG_WORDS)
are kept unscreened.  The digests recorded here are what a
benchmark run checks every output against.
"""

from __future__ import annotations

import json
import math
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ops  # noqa: E402
from logcy2 import birmap, diagrams, surfaces, words  # noqa: E402

POOL_SEED = 2408_03764
DATA = HERE / "data"

RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
        (2, 1), (1, 2), (-1, 2), (2, -1), (-2, 1), (1, -2)]
# Long macro products, the inputs where the realize fold direction matters:
# (letter text, determinant) per factor.  ``(r1*r2*r3)^2`` is left out because
# one query on it takes 7 to 20 s.
LONG_WORDS = [[("P^5", 1), ("E^3", 1), ("A[1,1;0,1]", 1), ("E[1,0]^2", 1), ("E[-1,2]", 1)]]
RELATORS = ["P^5", "r1^2", "r2^2", "r3^2", "A[-1,0;0,1]*E*A[-1,0;0,1]*(A[1,1;0,1]*E)^-1"]


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def within(seconds: float, fn, *args):
    """fn(*args), or Timeout once ``seconds`` have passed."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# --- word text ------------------------------------------------------------------


def _primitive(rng: random.Random, bound: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) != (0, 0) and _gcd(a, b) == 1:
            return a, b


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 2)):
        t = rng.choice([-1, 1])
        if rng.random() < 0.5:
            a, b, c, d = a, a * t + b, c, c * t + d
        else:
            a, b, c, d = a + b * t, b, c + d * t, d
    if rng.random() < 0.3:
        a, b, c, d = b, a, d, c
    return a, b, c, d


def random_term(rng: random.Random) -> tuple[str, int]:
    """(text, determinant) of one generator letter, either sign."""
    inv = "^-1" if rng.random() < 0.5 else ""
    kind = rng.random()
    if kind < 0.4:
        return "E" + inv, 1
    if kind < 0.7:
        n1, n2 = _primitive(rng, 2)
        return f"E[{n1},{n2}]" + inv, 1
    a, b, c, d = _unimodular(rng)
    return f"A[{a},{b};{c},{d}]" + inv, a * d - b * c


def degree(m) -> int:
    return max(p.total_degree() for p in (m.f.num, m.f.den, m.g.num, m.g.den))


def terms(m) -> int:
    return max(len(p.terms) for p in (m.f.num, m.f.den, m.g.num, m.g.den))


def grow(rng: random.Random, max_len: int, cap: int) -> list[tuple[str, int]]:
    """Letters appended while the realized degree stays within ``cap``."""
    out: list[tuple[str, int]] = []
    for _ in range(rng.randint(1, max_len)):
        cand = out + [random_term(rng)]
        try:
            m = within(2.0, birmap.realize, words.parse_word("*".join(t for t, _ in cand)))
        except Timeout:
            break
        if degree(m) > cap:
            break
        out = cand
    return out


def with_relator(rng: random.Random, parts: list[str]) -> str:
    i = rng.randint(0, len(parts))
    return "*".join(parts[:i] + [f"({rng.choice(RELATORS)})"] + parts[i:])


def query_item(rng: random.Random, kind: str, parts: list[str], char: int, limit: float):
    """A screened pool entry for ``parts``, or None."""
    text = "*".join(parts)
    rays = rng.sample(RAYS, 3)
    equal_partner = with_relator(rng, parts)
    unequal_partner = f"({text})*E"
    birmap.realize.cache_clear()
    birmap.tropicalize.cache_clear()
    try:
        t0 = time.perf_counter()
        m, c, images, limits, same = within(limit, ops.word_query, text, rays, equal_partner)
        t1 = time.perf_counter()
        birmap.realize.cache_clear()
        birmap.tropicalize.cache_clear()
        t2 = time.perf_counter()
        _, _, _, _, differ = within(limit, ops.word_query, text, rays, unequal_partner)
        t3 = time.perf_counter()
    except (Timeout, ArithmeticError):
        return None
    if max(t1 - t0, t3 - t2) > limit:
        return None
    if c != char or not same or differ:
        raise AssertionError(f"construction check failed for {text}")
    w = words.parse_word(text)
    return {
        "kind": kind,
        "word": text,
        "rays": [list(r) for r in rays],
        "equal_partner": equal_partner,
        "unequal_partner": unequal_partner,
        "char": char,
        "digest": ops.digest(ops.word_query_text(m, images, limits)),
        "letters": len(w),
        "degree": degree(m),
        "terms": terms(m),
        "pieces": len(birmap.tropicalize(w).mats),
        "ms_equal": round(1e3 * (t1 - t0), 2),
        "ms_unequal": round(1e3 * (t3 - t2), 2),
    }


def long_items() -> list[dict]:
    """The fixed long macro words, unscreened: every batch queries them (``run.py``)."""
    out = []
    for i, letters in enumerate(LONG_WORDS):
        item = query_item(random.Random(POOL_SEED + i), "long", [t for t, _ in letters],
                          math.prod(d for _, d in letters), 60.0)
        if item is None:
            raise AssertionError(f"long word {letters} did not finish in 60 s")
        out.append(item)
    return out


def retime(pool: list[dict], repeats: int = 3, chunk: int = 200) -> None:
    """Set each screened word's ``ms_equal`` and ``ms_unequal`` to the median
    of ``repeats`` timings taken the way a benchmark run takes them: in
    fresh-interpreter batches, in reference units.  ``run.py`` stratifies by
    these costs, and single timings while screening are too noisy for that.
    """
    import run

    queries = {True: [], False: []}
    for it in pool:
        if it["kind"] == "long":
            continue
        for equal in (True, False):
            queries[equal].append({"word": it["word"], "rays": it["rays"], "char": it["char"],
                                   "digest": it["digest"], "equal": equal,
                                   "partner": it["equal_partner" if equal else "unequal_partner"]})
    times: dict = {}
    for r in range(repeats):
        for equal, ops_ in queries.items():  # a batch never holds one word twice
            order = random.Random(f"retime/{r}/{equal}").sample(ops_, len(ops_))
            for i in range(0, len(order), chunk):
                batch = order[i:i + chunk]
                result = run.run_batch("word_queries", {"ops": batch}, False, time.monotonic())
                if result["failed"]:
                    raise AssertionError(f"retiming failed: {result['failures']}")
                for op, x in zip(batch, result["latencies"]):
                    times.setdefault((op["word"], equal), []).append(x)
    for it in pool:
        for equal, key in ((True, "ms_equal"), (False, "ms_unequal")):
            if (it["word"], equal) in times:
                xs = sorted(times[(it["word"], equal)])
                it[key] = round(1e3 * xs[len(xs) // 2], 2)


def word_pool(rng: random.Random, n_random: int, n_macro: int) -> list[dict]:
    seen: set[str] = set()
    pool: list[dict] = []

    def add(kind: str, letters: list[tuple[str, int]], limit: float) -> None:
        if not letters:
            return
        parts = [t for t, _ in letters]
        canon = words.word_to_text(words.parse_word("*".join(parts)))
        if canon in seen or canon == "id":
            return
        char = 1
        for _, d in letters:
            char *= d
        item = query_item(rng, kind, parts, char, limit)
        if item is not None:
            seen.add(canon)
            pool.append(item)

    while sum(p["kind"] == "random" for p in pool) < n_random:
        add("random", grow(rng, 8, 24), 0.2)
    while sum(p["kind"] == "macro" for p in pool) < n_macro:
        add("macro", macro_letters(rng), 0.4)
    return pool


def macro_letters(rng: random.Random) -> list[tuple[str, int]]:
    """A long product of named macros: reflections, powers of P, P^5 prefixes."""
    shape = rng.random()
    if shape < 0.3:
        k, prev, out = rng.randint(2, 4), 0, []
        for _ in range(k):
            i = rng.choice([j for j in (1, 2, 3) if j != prev])
            out.append((f"r{i}", -1))
            prev = i
        return out
    if shape < 0.55:
        k = rng.randint(1, 4)
        tail = grow(rng, 3, 12)
        return [(f"P^{k}", 1)] + tail if rng.random() < 0.5 else tail + [(f"P^{k}", 1)]
    if shape < 0.7:
        i, j = rng.sample([1, 2, 3], 2)
        return [(f"(r{i}*r{j})^2", 1)]
    return [("P^5", 1)] + grow(rng, 6, 24)


# --- surface_cli ----------------------------------------------------------------


def random_surface(rng: random.Random):
    s = rng.choice([surfaces.p2(), surfaces.p1xp1(), surfaces.hirzebruch1()])
    for _ in range(rng.randint(0, 3)):
        s = surfaces.insert_ray(s, _primitive(rng, 2))
    for _ in range(rng.randint(1, 6)):
        s = surfaces.interior_blowup(s, rng.choice(s.rays))
    return s


def cli_pool(rng: random.Random, counts: dict[str, int]) -> dict:
    """Surface and diagram files plus command lines over them, with expected digests."""
    work = HERE.parent / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    cases: list[dict] = []
    seen: set[str] = set()

    def add_file(prefix: str, text: str) -> str:
        name = f"{prefix}{len(files)}"
        files[name] = text
        (work / f"{name}.json").write_text(text)
        return "@" + name

    def add_case(kind: str, argv: list[str], letters: int = 0) -> None:
        key = " ".join(argv)
        if key in seen:
            return
        real = [str(work / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
        svg = work / "out.svg"
        if kind == "diagram":
            real += ["--svg", str(svg)]
        birmap.realize.cache_clear()
        birmap.tropicalize.cache_clear()
        t0 = time.perf_counter()
        code, out = ops.run_cli(real)
        ms = 1e3 * (time.perf_counter() - t0)
        if code != 0 or ms > 300:
            return
        seen.add(key)
        cases.append({
            "kind": kind,
            "argv": argv,
            "stdout": ops.digest(out),
            "svg": ops.digest(svg.read_bytes()) if kind == "diagram" else None,
            "letters": letters,
            "ms": round(ms, 2),
        })

    def random_text(lo: int, hi: int) -> str:
        return "*".join(random_term(rng)[0] for _ in range(rng.randint(lo, hi)))

    surf = [random_surface(rng) for _ in range(120)]
    names = [add_file("s", surfaces.to_json(s)) for s in surf]
    have = lambda kind: sum(c["kind"] == kind for c in cases)  # noqa: E731
    while have("resolve") < counts["resolve"]:
        text = random_text(4, 16)
        add_case("resolve", ["surface", "resolve", text, rng.choice(names)], len(words.parse_word(text)))
    while have("pushforward") < counts["pushforward"]:
        text = random_text(4, 12)
        i = rng.randrange(len(surf))
        resolved = surfaces.resolve(words.parse_word(text), surf[i])
        add_case("pushforward", ["surface", "pushforward", text, add_file("s", surfaces.to_json(resolved))],
                 len(words.parse_word(text)))
    while have("move") < counts["move"]:
        s = random_surface(rng)
        n = rng.choice(s.rays)
        s = surfaces.insert_ray(s, (-n[0], -n[1]))
        if s.multiplicity(n) == 0:
            s = surfaces.interior_blowup(s, n)
        d = add_file("d", diagrams.to_json(diagrams.diagram(s)))
        add_case("move", ["atf", "move", d, f"--elementary={n[0]},{n[1]}"])
    for kind, argv in (("diagram", ["atf", "diagram"]), ("counts", ["hms", "counts"]),
                       ("intersections", ["surface", "intersections"])):
        while have(kind) < counts[kind]:
            add_case(kind, argv + [rng.choice(names)])
    while have("trop") < counts["trop"]:
        base = random_text(4, 12)
        size = len(words.parse_word(base))
        if size < 4:
            continue
        k = rng.randint(max(2, -(-24 // size)), max(2, 120 // size))
        text = f"({base})^{k}"
        v = _primitive(rng, 3)
        add_case("trop", ["word", "trop", text, f"--vector={v[0]},{v[1]}"], len(words.parse_word(text)))
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    return {"files": files, "cases": cases}


# --- reflection_enum -------------------------------------------------------------


def reflection_digests(depth: int) -> dict[str, str]:
    """Digest of every alternating reflection word up to ``depth``, keyed by its indices."""
    refl = ops.reflection_maps()
    out: dict[str, str] = {}
    frontier = [("", birmap.IDENTITY_MAP)]
    for _ in range(depth):
        nxt = []
        for key, m in frontier:
            for i in (1, 2, 3):
                if key.endswith(str(i)):
                    continue
                e = birmap.compose(m, refl[i - 1])
                out[key + str(i)] = ops.digest(str(e))
                nxt.append((key + str(i), e))
        frontier = nxt
    return out


def main() -> None:
    rng = random.Random(POOL_SEED)
    DATA.mkdir(exist_ok=True)
    (DATA / "reflections.json").write_text(json.dumps(reflection_digests(5), indent=0) + "\n")
    cli = cli_pool(rng, {"resolve": 200, "pushforward": 100, "move": 100, "diagram": 100,
                         "counts": 60, "intersections": 60, "trop": 120})
    (DATA / "cli.json").write_text(json.dumps(cli, indent=0) + "\n")
    pool = word_pool(rng, 1000, 200) + long_items()
    retime(pool)
    (DATA / "words.json").write_text(json.dumps(pool, indent=0) + "\n")


if __name__ == "__main__":
    main()
