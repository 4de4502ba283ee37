"""Recorded output digests of the benchmark's input pools, of three CLI
commands and of the CLI's help texts, checked in process.

The pool digests and the canonical text they are taken of come from
``bench/``: ``bench/data/*.json`` holds the pools, ``bench/ops.py`` runs one
operation and digests its output, and both are read here, never copied.
The CLI digests are the sha256 of the whole stdout, and the help digests
that of the exit code, stdout and stderr.  ``LIMITS`` records
where the CLI refuses to answer.  The last two tests check that every name
``bench/tracer.py`` wraps in a traced run still exists, and that
``bench/smoke.py`` runs every workload, untraced and traced, to its end.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import subprocess
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
    # Tall powers of E: y goes to y / (1 + x)^8000 and y (1 + x)^8000, one binomial row each.
    ("word", "realize", "E^8000"): "30cd0b934524f71bb394c799673538362ec620b85eb450ca4524b12adc129794",
    ("word", "realize", "E^-8000"): "bd509f3f2cfdd413e80110036211c6bf71fc53b0f347a44f276620feccc0396e",
}


def test_cli_commands_keep_their_stdout(monkeypatch):
    monkeypatch.setenv("LOGCY2_SEED", "42")
    moved = []
    for argv, expected in CLI_SHA256.items():
        code, out = ops.run_cli(list(argv))
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (0, expected):
            moved.append(" ".join(argv))
    assert moved == [], f"stdout moved for: {moved}"


# The sha256 of the exit code, stdout and stderr of each help text and of
# five usage errors, at a terminal 80 columns wide.
HELP_SHA256 = {
    ("--help",): "1b053c02a8d0d8ce3e05f16e9eda522d620acc48e7b235c05fff5f8cc8c69cf1",
    ("word", "--help"): "ce54453584ee749b7281b29b46f68830f7f35cd8e9aa30c2652a75b109b5b156",
    ("surface", "--help"): "ef6c59b938e5636a6b945d58bf19b508b74c56f107b5ebd37a922d4a1c20b12c",
    ("atf", "--help"): "7a6ef4d860b567262119d6cdde638b1ecb7c7f1a7d9fcc61bea38516565a43df",
    ("hms", "--help"): "5f1e782c3fdc8afad138d30057c1bc8c67c4b2415c52c8a4057c926323ac4bf2",
    ("demo", "--help"): "ca2a0f489bfa857074d5ab2a5dbef0ea83905a0272023602bf7b7218a711c13e",
    ("verify", "--help"): "d429bc9ef1934c50fef84bfe8a83ac47355ba339273d27f7dfa75caf23b8ead7",
    ("word", "equal", "--help"): "7a7f608e02a57b349ea50840a706ce0904b9b8ca1f26ec7c54103d926a6fc8d0",
    ("word", "realize", "--help"): "07628ec5f4f3eb86e5fc94d10d463cbececa9bafb6a28b841a830d7065d21c2f",
    ("word", "character", "--help"): "a42915229ce3e61c651e841c99374754f489828d011c50395c1e147c83c35ae4",
    ("word", "trop", "--help"): "6f9ac658808d3fccc1a91839cfa7ad93d416689cdc6d88651d891bfce02810cb",
    ("word", "eval", "--help"): "a721a0aa618261a4f38bcc1c5d8600ae56912fb2c5c78e01e6f5eeb0cf3bc2d5",
    ("surface", "validate", "--help"): "5c6da4287d25aa1c5ed2aa6ed006516da87f432c3801e6171ebca02b0f7b2d88",
    ("surface", "invariants", "--help"): "eef3ff6e9594e0006a52b8a299f651c26d28dc5d8492a388cd7b0ebde18a396f",
    ("surface", "intersections", "--help"): "57d14af999b2418b71db24c7d945f04277a92b9b5803883b172e8de28eb37d8b",
    ("surface", "pushforward", "--help"): "dfd1a2808b50e1f9b9150d5d0268ae3c5012a25404cef387a5e01ace37383640",
    ("surface", "resolve", "--help"): "4c0584db27a5a0f10c0a87399a5cd6325d383a826c2673f6434d8c0a5b4ebb2c",
    ("atf", "diagram", "--help"): "a319bb634610d0f5d45ba3bb91d6bc4d74fc28fa728b21c852f1592da6285626",
    ("atf", "move", "--help"): "12aaf857af1b4c7fc6d884ba4131271af38c65b6bf90fedaa361e022aa575348",
    ("hms", "counts", "--help"): "9cfffc922f020db32ae90ad7165ff75e27685aec0965d684d49c3a21acee4802",
    ("demo", "cubic", "--help"): "873fa82ad40252b0333de2a403f2f0eddedfcfb2f20d3f1a8171cf995ee72ea6",
    ("verify", "relations", "--help"): "4456859ddedb4aeb284e8e75b280eaf8a40fa9dc38f5c6170e73d564815ce66a",
    (): "a3368fb3d5cc29d772936b3fe7edf9528d4990aa7c6501ece93f3f49e4004e10",
    ("word",): "8b3f5b81b68ff1c5cb1a2699edd28e40cf644556d9a58618905b7213c7f67939",
    ("frobnicate",): "47d527ae1cd75eb8270a73b266042fe4249f3293117ef02f4167fbd926e547f8",
    ("word", "trop", "E"): "3f2c77410c83aae60c15732bdb777f4c32c6aac4c734cd2b83dcc6d73ab7ffed",
    ("word", "eval", "E", "--point", "x"): "b96e9bb9056be6e5c7db64501c73541a887938984c251d1e6252b0b3648e1f78",
}


def test_help_and_usage_errors_keep_their_text(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    moved = []
    for argv, expected in HELP_SHA256.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        text = f"{code}\n{out.getvalue()}\0{err.getvalue()}"
        if hashlib.sha256(text.encode()).hexdigest() != expected:
            moved.append(" ".join(argv))
    assert moved == [], f"help or usage text moved for: {moved}"


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


def test_bench_smoke_run_passes():
    # Every workload at a tiny size, untraced and traced, in a fresh process,
    # so a library change that breaks a bench run fails here.
    result = subprocess.run([sys.executable, str(BENCH / "smoke.py")], cwd=BENCH.parent,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "smoke: ok"
