"""Recorded output digests of the benchmark's input pools and of three CLI
commands, checked in process.

The pool digests and the canonical text they are taken of come from
``bench/``: ``bench/data/*.json`` holds the pools, ``bench/ops.py`` runs one
operation and digests its output, and both are read here, never copied.
The CLI digests are the sha256 of the whole stdout.  ``LIMITS`` records
where the CLI refuses to answer.  The last test checks that every name
``bench/tracer.py`` wraps in a traced run still exists.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from logcy2 import birmap, cli, words

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


# The limit frontier: argv, exit code, the exception class and the start of
# the error line.  A change that lifts a limit moves its row to exit 0 (with
# the answer, where it is known); one that adds a refusal adds a row.  An
# "@name" argument is the file of LIMIT_FILES[name].
LIMIT_FILES = {
    "p2": {"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 0, 0]},
    "blown": {"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 10_001, 0]},
}
R182 = "(r1*r2*r3)^2*P^5*(r1*r2)^7*P^-5*(r1*r2)^-7*(r1*r2*r3)^-2"
LIMITS = [
    # TERM_BUDGET.  The answers are false, true and true.
    (["word", "equal", "(r1*r2*r3)^4", "id"], 1, "TermBudgetError", "a pullback through E^2 would build 31395 terms"),
    (["word", "equal", "(r1*r2*r3)^3*P^5*(r1*r2*r3)^-3", "id"], 1, "TermBudgetError", "a pullback through E^-1 would build 17943"),
    (["word", "equal", R182, "id"], 1, "TermBudgetError", "a pullback through E^2 would build 15433 terms"),
    (["word", "eval", "(r1*r2*r3)^4", "--point", "2,1"], 1, "TermBudgetError", "a pullback through E^2 would build 31395"),
    # PAIR_BUDGET
    (["word", "character", "E^20*E[1,0]^20"], 1, "TermBudgetError", "dlog_ratio would visit 1692621 term pairs"),
    # MAX_POWER_LETTERS, a usage error
    (["word", "realize", "E^100001"], 2, "WordSyntaxError", "power has more than 100000 letters"),
    # RAY_BUDGET: E[1,k] on P2 inserts the k rays (1, 1), .., (1, k)
    (["surface", "resolve", "E[1,1001]", "@p2"], 1, "RayBudgetError", "inserting ray (1, 1001) adds more than 1000 rays"),
    (["surface", "resolve", "E[1,1000]", "@p2"], 0, None, None),
    # BLOWUP_BUDGET
    (["hms", "counts", "@blown"], 1, "BlowupBudgetError", "more than 10000 interior blow-ups"),
    # The int-to-text digit limit: the image of (1, 0) has about 5000 digits.
    (["word", "trop", "A[2,1;1,1]^12000", "--vector", "1,0"], 1, "DigitLimitError", "an output integer has more than"),
]


class _Stderr(io.StringIO):
    """Captured stderr that notes the exception being handled when the CLI writes to it."""

    raised = None

    def write(self, text):
        self.raised = self.raised or sys.exc_info()[0]
        return super().write(text)


def test_limits_stay_where_recorded(tmp_path):
    for name, data in LIMIT_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
    moved = []
    for argv, code, error_class, error in LIMITS:
        err = _Stderr()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            got = cli.main([str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv])
        raised = err.raised and err.raised.__name__
        line = err.getvalue().partition("\n")[0]
        if (got, raised) != (code, error_class) or not (line.startswith(f"error: {error}") if error else not line):
            moved.append(f"{' '.join(argv)[:60]}: exit {got}, {raised}, {line[:80]!r}")
    assert moved == [], f"{len(moved)} limits moved: {moved}"


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
