"""In-process timings of library layers: the median of repeated runs, each with a sha256 of its outputs.

    python3 tools/layers.py [--tree DIR]

Run it from the repository root.  It imports the library from ``DIR/src``
and reads ``DIR/bench/data`` (default: this checkout), and writes no file.
Layers:

- ``compose``: the 93 alternating words in r1, r2 and r3 of
  ``bench/data/reflections.json``, shortest first, each one
  ``birmap.compose`` of its prefix's map with its last letter's map, as
  ``demo cubic`` and the ``reflection_enum`` workload build them;
- ``realize``: ``parse_word`` and ``birmap.realize`` over the 3603 texts of
  ``bench/data/words.json``, each word then its equal and its unequal
  partner, with ``realize``'s cache cleared before each repetition;
- ``dlog_ratio``: ``polyrat.dlog_ratio(m.f, m.g)`` for the maps m of those
  3603 texts, realized once before timing starts;
- ``format``: ``str`` of those 3603 maps, realized before timing starts,
  which is ``polyrat.format_poly`` on each side;
- ``boundary_limit``: ``birmap.boundary_limit(w, n)`` for the 1201 words w
  of ``bench/data/words.json`` at each of their recorded rays n, hashing
  the ray, coefficient and exponent of each action.  The maps are realized
  before timing starts, and ``birmap.realize`` reads them from a dict while
  the layer runs, because its cache holds only 1024 words;
- ``tropicalize``: ``birmap.tropicalize`` over the 3603 texts of
  ``bench/data/words.json``, parsed before timing starts, with
  ``tropicalize``'s cache cleared before each repetition, hashing the rays
  and matrices of every map;
- ``tropicalize_k30`` and ``tropicalize_k60``: ``birmap.tropicalize`` of
  the long word ``(E*E[1,0]*E[2,1]*E[-1,3])^k``, parsed before timing
  starts, from a cold cache, hashed the same way;
- ``svg``: ``diagrams.render_svg`` of the diagrams of the 220 surface files
  and the 100 diagram files of ``bench/data/cli.json``, parsed and built
  before timing starts, hashing the SVG texts.

Each layer runs ``REPS`` times, after a garbage collection each time, and
a repetition hashes ``str`` of every map or verdict it built, in order, with
sha256.  Each layer prints one JSON line: the tree, the layer, the number
of operations, the repetitions, the median and quartiles of a repetition's
wall time in ms, the sha256, and whether every repetition gave the same
one.  The ``dlog_ratio`` line also gives ``routes``, how many inputs take
the pair loop and how many the packed route, counted in one untimed pass.
To compare two trees, run it on each in turn, several times, alternating.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time


def compose_layer(data: str):
    """The compose layer: a function building and hashing the 93 reflection maps, and their count."""
    from logcy2 import birmap, words

    with open(os.path.join(data, "reflections.json"), encoding="utf-8") as fh:
        keys = sorted(json.load(fh), key=lambda key: (len(key), key))
    refl = [birmap.realize(words.parse_word(f"r{i}")) for i in (1, 2, 3)]

    def run() -> str:
        maps, h = {"": birmap.IDENTITY_MAP}, hashlib.sha256()
        for key in keys:
            maps[key] = birmap.compose(maps[key[:-1]], refl[int(key[-1]) - 1])
            h.update(f"{maps[key]}\n".encode())
        return h.hexdigest()

    return run, len(keys), {}


def realize_layer(data: str):
    """The realize layer: a function realizing and hashing the words.json texts from cold caches, and their count."""
    from logcy2 import birmap, words

    texts = word_texts(data)

    def run() -> str:
        birmap.realize.cache_clear()
        h = hashlib.sha256()
        for text in texts:
            h.update(f"{birmap.realize(words.parse_word(text))}\n".encode())
        return h.hexdigest()

    return run, len(texts), {}


def word_texts(data: str) -> list[str]:
    """The 3603 texts of words.json: each word, then its equal and its unequal partner."""
    with open(os.path.join(data, "words.json"), encoding="utf-8") as fh:
        return [item[part] for item in json.load(fh) for part in ("word", "equal_partner", "unequal_partner")]


def word_maps(data: str) -> list:
    """The realized maps of the 3603 texts of words.json, in order."""
    from logcy2 import birmap, words

    return [birmap.realize(words.parse_word(text)) for text in word_texts(data)]


def dlog_layer(data: str):
    """The dlog_ratio layer: a function deciding and hashing dlog_ratio of the realized word maps, their count, and the routes taken."""
    from logcy2 import polyrat

    maps = word_maps(data)

    def run() -> str:
        h = hashlib.sha256()
        for m in maps:
            h.update(f"{polyrat.dlog_ratio(m.f, m.g)}\n".encode())
        return h.hexdigest()

    routes = {"pairs": 0, "packed": 0}
    kept = polyrat._dlog_pairs, polyrat._dlog_packed

    def counted(name, route):
        def call(*args):
            routes[name] += 1
            return route(*args)

        return call

    polyrat._dlog_pairs, polyrat._dlog_packed = counted("pairs", kept[0]), counted("packed", kept[1])
    try:
        run()
    finally:
        polyrat._dlog_pairs, polyrat._dlog_packed = kept
    return run, len(maps), {"routes": routes}


def format_layer(data: str):
    """The format layer: a function printing and hashing the realized word maps, and their count."""
    maps = word_maps(data)

    def run() -> str:
        h = hashlib.sha256()
        for m in maps:
            h.update(f"{m}\n".encode())
        return h.hexdigest()

    return run, len(maps), {}


def boundary_limit_layer(data: str):
    """The boundary_limit layer: a function taking and hashing the limits of the words.json words at their rays, and their count."""
    from logcy2 import birmap, words

    with open(os.path.join(data, "words.json"), encoding="utf-8") as fh:
        queries = [(words.parse_word(item["word"]), [tuple(n) for n in item["rays"]]) for item in json.load(fh)]
    maps = {w: birmap.realize(w) for w, _ in queries}

    def run() -> str:
        h, kept = hashlib.sha256(), birmap.realize
        birmap.realize = maps.__getitem__
        try:
            for w, rays in queries:
                for n in rays:
                    act = birmap.boundary_limit(w, n)
                    h.update(f"{act.ray} {act.coeff} {act.exponent}\n".encode())
        finally:
            birmap.realize = kept
        return h.hexdigest()

    return run, sum(len(rays) for _, rays in queries), {}


def tropicalize_layer(texts: list[str]):
    """A function tropicalizing and hashing the words of texts from a cold cache, and their count."""
    from logcy2 import birmap, words

    ws = [words.parse_word(text) for text in texts]

    def run() -> str:
        birmap.tropicalize.cache_clear()
        h = hashlib.sha256()
        for w in ws:
            m = birmap.tropicalize(w)
            h.update(f"{m.rays} {m.mats}\n".encode())
        return h.hexdigest()

    return run, len(ws), {}


def long_word_layer(k: int):
    """The tropicalize layer of ``(E*E[1,0]*E[2,1]*E[-1,3])^k`` alone."""
    return lambda data: tropicalize_layer([f"(E*E[1,0]*E[2,1]*E[-1,3])^{k}"])


def svg_layer(data: str):
    """The svg layer: a function rendering and hashing the diagrams of the cli.json files, and their count."""
    from logcy2 import diagrams, surfaces

    with open(os.path.join(data, "cli.json"), encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    # A surface file's name starts with "s", a diagram file's with "d".
    ds = [diagrams.diagram(surfaces.from_json(text)) if name[0] == "s" else diagrams.from_json(text)
          for name, text in files.items()]

    def run() -> str:
        h = hashlib.sha256()
        for d in ds:
            h.update(diagrams.render_svg(d).encode())
        return h.hexdigest()

    return run, len(ds), {}


LAYERS = {"compose": compose_layer, "realize": realize_layer, "dlog_ratio": dlog_layer,
          "format": format_layer, "boundary_limit": boundary_limit_layer,
          "tropicalize": lambda data: tropicalize_layer(word_texts(data)),
          "tropicalize_k30": long_word_layer(30), "tropicalize_k60": long_word_layer(60), "svg": svg_layer}
REPS = 20


def measure(run, reps: int) -> tuple[list[float], set[str]]:
    """reps wall times of run() in ms, each after a garbage collection, and the hashes it returned."""
    times, hashes = [], set()
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        hashes.add(run())
        times.append((time.perf_counter() - start) * 1e3)
    return times, hashes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=".", help="checkout whose src/ and bench/data to use (default: .)")
    args = parser.parse_args()
    tree = os.path.abspath(args.tree)
    sys.path.insert(0, os.path.join(tree, "src"))
    for name, layer in LAYERS.items():
        run, count, extra = layer(os.path.join(tree, "bench", "data"))
        times, hashes = measure(run, REPS)
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        print(json.dumps({"tree": tree, "layer": name, "operations": count, "reps": REPS,
                          "median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2),
                          "sha256": min(hashes), "stable": len(hashes) == 1, **extra}))


if __name__ == "__main__":
    main()
