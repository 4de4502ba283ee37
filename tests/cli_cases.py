"""The CLI's contract as data: one row per command line, and the one in-process runner.

A row (``Case``) gives an argv, the input files it names, and what the call
must do: its exit code, its stdout and stderr, and the class of the first
exception found being handled when the CLI wrote to stderr (``None`` when it
wrote nothing there, or only outside an ``except``).  An expected text is
exact when it is a plain ``str``, the sha256 hex digest of the text when it
is a ``Sha256``, and the start of its first line when it is a ``FirstLine``.
An ``@name`` argument is the path of ``files[name]``, written to a fresh
temporary directory for the call.  Expected values were recorded by running
each row; a row whose value moves is a change to the CLI's contract.

``GROUPS`` names each group of rows by what it pins, and ``CASES`` is every
row.  Every row runs under ``ENV``.  ``tests/test_golden.py::test_cli_case``
checks each row.  This module defines no test, so a runner outside pytest
can load it by path.

To add a row, put its argv and files in the group it belongs to, run it
once with ``run_cli`` under ``ENV``, and write down what it did.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from logcy2 import cli

# The seed reaches ``demo cubic`` and ``verify relations``; argparse wraps
# help and usage text to the terminal width.
ENV = {"LOGCY2_SEED": "42", "COLUMNS": "80"}


class Sha256(str):
    """An expected text given by the sha256 hex digest of its UTF-8 bytes."""


class FirstLine(str):
    """An expected text given by the start of its first line."""


class Result(NamedTuple):
    exit: int
    stdout: str
    stderr: str
    raised: str | None


class Case(NamedTuple):
    argv: list[str]
    exit: int
    stdout: str = ""
    stderr: str = ""
    raised: str | None = None
    files: dict[str, str | bytes] = {}


class _Stderr(io.StringIO):
    """Captured stderr that notes the exception being handled when the CLI writes to it."""

    raised = None

    def write(self, text):
        self.raised = self.raised or sys.exc_info()[0]
        return super().write(text)


def run_cli(argv: list[str], files: dict[str, str | bytes] | None = None) -> Result:
    """``cli.main(argv)`` in process, each ``@name`` argument read as the path of ``files[name]``.

    A ``SystemExit`` (argparse's usage errors and ``--help``) becomes the exit
    code; any other exception leaves the call.  Any argument that starts with
    "@" is read as a file name, whether or not ``files`` holds it.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in (files or {}).items():
            path = Path(tmp, name)
            if isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data, encoding="utf-8")
        argv = [str(Path(tmp, a[1:])) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), _Stderr()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return Result(code, out.getvalue(), err.getvalue(), err.raised and err.raised.__name__)


def _matches(value, expected) -> bool:
    if isinstance(expected, Sha256):
        return hashlib.sha256(value.encode()).hexdigest() == expected
    if isinstance(expected, FirstLine):
        return value.partition("\n")[0].startswith(expected)
    return value == expected


def check(case: Case) -> list[str]:
    """One line for each field of the call's ``Result`` that ``case`` does not expect; empty when it holds."""
    got = run_cli(case.argv, case.files)
    return [
        f"{field}: got {value!r:.120}, expected {expected!r:.120}"
        for field, value in zip(Result._fields, got)
        if not _matches(value, expected := getattr(case, field))
    ]


def _surface(rays, m) -> dict[str, str]:
    return {"s.json": json.dumps({"rays": rays, "m": m})}


def _nodes(*nodes) -> dict[str, str]:
    return {"d.json": json.dumps({"nodes": list(nodes)})}


def _off_multiples(a: int) -> dict[str, str]:
    """A node on ray (a, a + 1) whose line coordinate 1/(a(a + 1)) is not a consecutive multiple."""
    return _nodes({"position": [f"1/{a + 1}", f"1/{a}"], "direction": [a, a + 1], "cut_sign": 1})


# Python's int-to-text digit limit, 4300 unless the interpreter sets another;
# N, M and BIG are sized against the default.
LIMIT = sys.get_int_max_str_digits()
# Within the digit limit, but a product of two is past it.
N = "9" * 4000
M = "9" * 2500
# Within the digit limit, so its full text could be quoted.
BIG = str(3 * 10**3999)
R182 = "(r1*r2*r3)^2*P^5*(r1*r2)^7*P^-5*(r1*r2)^-7*(r1*r2*r3)^-2"

P2 = {"p2.json": '{"rays": [[1, 0], [0, 1], [-1, -1]], "m": [0, 0, 0]}'}
P2_WRITTEN = {"p2.json": '{"rays": [[-1, -1], [1, 0], [0, 1]], "m": [0, 0, 0]}'}  # as surfaces.to_json writes P2
PXP = {"pxp.json": '{"rays": [[-1, 0], [0, -1], [1, 0], [0, 1]], "m": [0, 0, 0, 1]}'}
CUBIC = {"cubic.json": '{"rays": [[-1, -1], [1, 0], [0, 1]], "m": [2, 2, 2]}'}
# det((N, 1), (1, N)) = N^2 - 1 is past the digit limit.
NEAR_LIMIT_FAN = _surface([[int(N), 1], [1, int(N)], [-1, -1]], [0, 0, 0])
# 10^40 interior blow-ups on one ray of P2.
HUGE_BLOWUP = _surface([[1, 0], [0, 1], [-1, -1]], [0, 10**40, 0])


GROUPS = {
    # The full stdout of three commands and of three words with tall powers of E.
    "stdout": [
        Case(["demo", "cubic"], 0, Sha256("47d232bd332bbed85230946e094881dd78cf1397edbb703cac50288e92ca0c97")),
        Case(["verify", "relations"],
             0, Sha256("5cc09b29609662c04e155ff5b440b38f65909936575c02482095bb841be729dd")),
        Case(["word", "realize", "(r1*r2*r3)^3"],
             0, Sha256("09bac70282d539b782260d0e871f331d10ed5e24fd23ef7bbab39570a89d4d85")),
        # Tall powers of E: y goes to y / (1 + x)^8000 and y (1 + x)^8000, one binomial row each.
        Case(["word", "realize", "E^8000"],
             0, Sha256("30cd0b934524f71bb394c799673538362ec620b85eb450ca4524b12adc129794")),
        Case(["word", "realize", "E^-8000"],
             0, Sha256("bd509f3f2cfdd413e80110036211c6bf71fc53b0f347a44f276620feccc0396e")),
        # The last E^-1 step divides no row by 1 + x more than once: k starts at 1.
        Case(["word", "realize", "E^4000*A[1,1;0,1]*E^-1"],
             0, Sha256("3f86bc214e3884eb64bd904bbfbfbd3b5b4e069f1f425bcf721c50e0ef107017")),
    ],
    # Each help text and five usage errors, at a terminal 80 columns wide.
    "help": [
        Case(["--help"], 0, Sha256("460753b711d3aa0643a48db51af23da6c423129a0c52a177378d64b443dcca78")),
        Case(["word", "--help"], 0, Sha256("fdfa912850211ce7796f40ab5e4c72c5a960724a0bdac30ba66410f960a7aec9")),
        Case(["surface", "--help"], 0, Sha256("d748f8dcea3308559a97026cdd121222ae9429aa8f7c132d769af89dd963de25")),
        Case(["atf", "--help"], 0, Sha256("4c71342759089fb86c3b74ffb7d8e4b56bbc80623ee01b1d5ef2a2b468aba156")),
        Case(["hms", "--help"], 0, Sha256("93d0c56e848e54d7d08534ca306166d21a6e735b0d1af568edfd9f5622db1b16")),
        Case(["demo", "--help"], 0, Sha256("bb181dd34c299311437c2bf2e9f06e818e3d399f3566f7598e1c38f89386eb91")),
        Case(["verify", "--help"], 0, Sha256("5f958160515746110f8c4cffff953aee983bf12bcd6e38c96166eff880029399")),
        Case(["word", "equal", "--help"],
             0, Sha256("667e4a84621ebbe630f727fe1d3bd9f123c8a44187c3ab31e1a675e01a41fbc8")),
        Case(["word", "realize", "--help"],
             0, Sha256("6a83570d84b3468672e2e18f8273f07ea7bed7d2b726a812961674022d689ed5")),
        Case(["word", "character", "--help"],
             0, Sha256("7b5a77719bda8330a95153e6572fec47b9f50fbd93e4d181d0573a07ab0d73c0")),
        Case(["word", "trop", "--help"],
             0, Sha256("02a9d486327c875b09d6a4ee06389c7640de9ed51a10796815beb9a203cde6ee")),
        Case(["word", "eval", "--help"],
             0, Sha256("b302753fc193005b4b544646a732690ee761149475dd48065be71ae1ea06ac25")),
        Case(["surface", "validate", "--help"],
             0, Sha256("e0eda9f6ea917f905fad6e172e878ec4205efb5f90c3103e14fc8744fc20debe")),
        Case(["surface", "invariants", "--help"],
             0, Sha256("2bcedbbd34fae34e0b607e39f1d83a9c4cb1ad231198f59f4f810c9766139cf3")),
        Case(["surface", "intersections", "--help"],
             0, Sha256("7a763efee30b4f0b3b2b33c0b72d62f10d4d6617893e803aba65afdcd2138c06")),
        Case(["surface", "pushforward", "--help"],
             0, Sha256("841a232e37ce54f1ea43acc45a547ac8eb7fe1df7228de2681f1dbefdb03f169")),
        Case(["surface", "resolve", "--help"],
             0, Sha256("33bf5a119964a3b5b269fcfe8463ce0e296c4dcb691c986707c44f164abc793f")),
        Case(["atf", "diagram", "--help"],
             0, Sha256("f7f166dbd34a20527d9bf1ba0a1b609aa72526a06b7c32e3e32d67be3940c68b")),
        Case(["atf", "move", "--help"],
             0, Sha256("8f2a970de662a7c2faf5917eb236b3ddad9abe379e02b515ccbacd21f22427e4")),
        Case(["hms", "counts", "--help"],
             0, Sha256("cc9b9368ce1b58bca90b3adced78a4fcf6eb5bdc4870a63a8963ad98ed5b44c2")),
        Case(["demo", "cubic", "--help"],
             0,
             "usage: logcy2 demo cubic [-h]\n"
             "\n"
             "options:\n"
             "  -h, --help  show this help message and exit\n"),
        Case(["verify", "relations", "--help"],
             0,
             "usage: logcy2 verify relations [-h]\n"
             "\n"
             "options:\n"
             "  -h, --help  show this help message and exit\n"),
        Case([],
             2, "",
             "usage: logcy2 [-h] {word,surface,atf,hms,demo,verify} ...\n"
             "logcy2: error: the following arguments are required: command\n"),
        Case(["word"],
             2, "",
             "usage: logcy2 word [-h] {equal,realize,character,trop,eval} ...\n"
             "logcy2 word: error: the following arguments are required: subcommand\n"),
        Case(["frobnicate"],
             2, "",
             "usage: logcy2 [-h] {word,surface,atf,hms,demo,verify} ...\n"
             "logcy2: error: argument command: invalid choice: 'frobnicate' (choose from 'word', "
             "'surface', 'atf', 'hms', 'demo', 'verify')\n",
             "ArgumentError"),
        Case(["word", "trop", "E"],
             2, "",
             "usage: logcy2 word trop [-h] --vector a,b word\n"
             "logcy2 word trop: error: the following arguments are required: --vector\n"),
        Case(["word", "eval", "E", "--point", "x"],
             2, "",
             "usage: logcy2 word eval [-h] --point p,q word\n"
             "logcy2 word eval: error: argument --point: expected two rationals 'p,q', got 'x'\n",
             "ArgumentError"),
    ],
    # The limit frontier: the start of the error line of each refusal.  A change
    # that lifts a limit moves its row to exit 0 (with the answer, where it is
    # known); one that adds a refusal adds a row.
    "limits": [
        # TERM_BUDGET.  The answers are false, true and true.
        Case(["word", "equal", "(r1*r2*r3)^4", "id"],
             1, "", FirstLine("error: a pullback through E^2 would build 31395 terms"), "TermBudgetError"),
        Case(["word", "equal", "(r1*r2*r3)^3*P^5*(r1*r2*r3)^-3", "id"],
             1, "", FirstLine("error: a pullback through E^-1 would build 17943"), "TermBudgetError"),
        Case(["word", "equal", R182, "id"],
             1, "", FirstLine("error: a pullback through E^2 would build 15433 terms"), "TermBudgetError"),
        Case(["word", "eval", "(r1*r2*r3)^4", "--point", "2,1"],
             1, "", FirstLine("error: a pullback through E^2 would build 31395"), "TermBudgetError"),
        # PAIR_BUDGET
        Case(["word", "character", "E^20*E[1,0]^20"],
             1, "", FirstLine("error: dlog_ratio would visit 1692621 term pairs"), "TermBudgetError"),
        # MAX_POWER_LETTERS, a usage error
        Case(["word", "realize", "E^100001"],
             2, "", FirstLine("error: power has more than 100000 letters"), "WordSyntaxError"),
        # RAY_BUDGET: E[1,k] on P2 inserts the k rays (1, 1), .., (1, k)
        Case(["surface", "resolve", "E[1,1001]", "@p2.json"],
             1, "", FirstLine("error: inserting ray (1, 1001) adds more than 1000 rays"), "RayBudgetError",
             files=P2),
        Case(["surface", "resolve", "E[1,1000]", "@p2.json"],
             0, Sha256("ae1060eaddf682614c2869be5122ab3d7b69ec570f538bf55e799b6d39bcdc4b"), files=P2),
        # BLOWUP_BUDGET
        Case(["hms", "counts", "@s.json"],
             1, "", FirstLine("error: more than 10000 interior blow-ups"), "BlowupBudgetError",
             files=_surface([[1, 0], [0, 1], [-1, -1]], [0, 10_001, 0])),
        # The int-to-text digit limit: the image of (1, 0) has about 5000 digits.
        Case(["word", "trop", "A[2,1;1,1]^12000", "--vector", "1,0"],
             1, "", FirstLine("error: an output integer has more than"), "DigitLimitError"),
    ],
    "word_equal_pentagon": [
        Case(["word", "equal", "P^5", "id"], 0, "true\n"),
        Case(["word", "equal", "P^3", "id"], 0, "false\n"),
    ],
    "word_realize_reflection": [
        Case(["word", "realize", "r2"], 0, "(x, (x^2 + 2*x + 1) / (y))\n"),
    ],
    "word_equal_long_word_against_id": [
        Case(["word", "equal", "(r1*r2*r3)^2*r1", "id"], 0, "false\n"),
    ],
    "word_realize_short_word_of_high_degree": [
        Case(["word", "realize", "A[1,0;0,1]^-1*E[1,0]*E[1,-1]*E[1,2]*E[-1,2]*E[1,2]"],
             0, Sha256("ede78fa06ee8e01af895da987367ddfa5abf4edf943eea89abe345d27d16e787")),
    ],
    "word_character": [
        Case(["word", "character", "A[-1,0;0,1]"], 0, "-1\n"),
        # dlog_ratio packs the dense sides of the heaviest -1 word of the
        # benchmark pool, and keeps the pair loop for exponents near 10^12
        # and for the spread sides of the last word.
        Case(["word", "character", "E*E[-2,-1]*E*A[2,1;1,0]^-1*E"], 0, "-1\n"),
        Case(["word", "character", "E*A[2,1;1,1]^30"], 0, "+1\n"),
        Case(["word", "character", "E*A[5,2;2,1]^3*E*A[1,1;0,1]"], 0, "+1\n"),
    ],
    "word_trop": [
        Case(["word", "trop", "E", "--vector=-1,0"], 0, "-1,1\n"),
    ],
    "word_eval": [
        Case(["word", "eval", "E", "--point=2,3"], 0, "2,1\n"),
        Case(["word", "eval", "E", "--point=-1,1"], 1, "", "error: pole at (-1, 1)\n", "PoleAtPointError"),
    ],
    "word_syntax_error_exits_2": [
        Case(["word", "realize", "E * *"],
             2, "", Sha256("1f08f28040fd6915116b10d03a8537d67635ecb0aca3b84c5fc9e67ce01793ff"), "WordSyntaxError"),
    ],
    "deeply_nested_word_exits_2": [
        Case(["word", "realize", "(" * 2000 + "E" + ")" * 2000],
             2, "", Sha256("a031aa958488c61a901688e31b5fcf4642813d18533e0694119b971de5ab7f02"), "WordSyntaxError"),
    ],
    "oversized_power_exits_2": [
        Case(["word", "trop", "E^10000000", "--vector", "1,0"],
             2, "", Sha256("1bac1aeb1775b9f710f1c0d64ba10ec3bc471c1b8bdd00dcce029d81195cc830"), "WordSyntaxError"),
    ],
    "word_over_the_term_budget_exits_1": [
        Case(["word", "realize", "(r1*r2*r3)^5"],
             1, "", "error: a pullback through E^2 would build 31395 terms, over 12000\n", "TermBudgetError"),
        Case(["word", "realize", "E^100000"],
             1, "", "error: a pullback through E^100000 would build 100001 terms, over 12000\n", "TermBudgetError"),
    ],
    "surface_validate": [
        Case(["surface", "validate", "@pxp.json"], 0, "ok\n", files=PXP),
        Case(["surface", "validate", "@s.json"],
             1, "violation: det((0, 1), (-2, -1)) = 2, expected 1\n",
             files=_surface([[1, 0], [0, 1], [-2, -1]], [0, 0, 0])),
    ],
    "surface_invariants": [
        Case(["surface", "invariants", "@cubic.json"],
             0, '{"k": 3, "total_m": 6, "b2": 7, "chi_y": 9, "chi_u": 6}\n', files=CUBIC),
    ],
    "surface_intersections": [
        Case(["surface", "intersections", "@s.json"],
             0,
             '{"self_intersections": [1, 1, 1], "matrix": [[-2, 1, 1], [1, -3, 1], [1, 1, -2]], '
             '"negative_definite": true, "all_m_above_two": true}\n',
             files=_surface([[1, 0], [0, 1], [-1, -1]], [4, 3, 3])),
    ],
    "surface_intersections_on_a_103_ray_fan": [
        Case(["surface", "intersections", "@s.json"],
             0, Sha256("3ececa6718dfe9bfeb87589c7ffd285fb5a682a81fb02384028fabcf3dcc01b6"),
             files=_surface([[1, j] for j in range(101)] + [[0, 1], [-1, -1]], [3] * 103)),
    ],
    "surface_pushforward_worked_example": [
        Case(["surface", "pushforward", "E", "@pxp.json"],
             0, '{"rays": [[-1, 1], [0, -1], [1, 0], [0, 1]], "m": [0, 1, 0, 0]}\n', files=PXP),
    ],
    "surface_pushforward_not_regular": [
        Case(["surface", "pushforward", "E", "@p2.json"],
             1, "", "error: missing ray at ray (0, -1) after 0 letters\n", "NotRegularError", files=P2),
    ],
    "surface_resolve": [
        Case(["surface", "resolve", "E", "@p2.json"],
             0, '{"rays": [[-1, -1], [0, -1], [1, 0], [0, 1]], "m": [0, 0, 0, 1]}\n', files=P2),
    ],
    "hms_counts": [
        Case(["hms", "counts", "@cubic.json"],
             0,
             '{"exceptional_count": 9, "vanishing_count": 9, "chi_y": 9, "sphere_count": 3, '
             '"expected_spheres": 3, "ok": true}\n',
             files=CUBIC),
    ],
    # An integer one digit short of the limit is read back as it is; the results hold one past it.
    "output_past_the_digit_limit_exits_1": [
        Case(["surface", "pushforward", "A[10,1;9,1]", "@s.json"],
             1, "", f"error: an output integer has more than {LIMIT} digits\n", "DigitLimitError",
             files=_surface([[1, 0], [10 ** (LIMIT - 1), 1], [-1 - 10 ** (LIMIT - 1), -1]], [0, 0, 0])),
        # A node at 10 * (n, 1).
        Case(["atf", "diagram", "@s.json"],
             1, "", f"error: an output integer has more than {LIMIT} digits\n", "DigitLimitError",
             files=_surface([[1, 0], [10 ** (LIMIT - 1), 1], [-1 - 10 ** (LIMIT - 1), -1]], [0, 10, 0])),
        # total_m = 2 (10^LIMIT - 1)
        Case(["surface", "invariants", "@s.json"],
             1, "", f"error: an output integer has more than {LIMIT} digits\n", "DigitLimitError",
             files=_surface([[1, 0], [0, 1], [-1, -1]], [10**LIMIT - 1, 10**LIMIT - 1, 0])),
        # A self-intersection of -10^LIMIT
        Case(["surface", "intersections", "@s.json"],
             1, "", f"error: an output integer has more than {LIMIT} digits\n", "DigitLimitError",
             files=_surface([[1, 0], [0, 1], [-1, 10**LIMIT - 1], [0, -1]], [0, 1, 0, 0])),
        # The view is 10^LIMIT wide.
        Case(["atf", "diagram", "--svg", "@out.svg", "@s.json"],
             1, "", f"error: an output integer has more than {LIMIT} digits\n", "DigitLimitError",
             files=_surface([[1, 0], [10**LIMIT - 2, 1], [1 - 10**LIMIT, -1]], [0, 1, 0])),
    ],
    # Numbers within the limit keep their text.
    "diagram_message_past_the_digit_limit_exits_1": [
        Case(["atf", "move", "@d.json", "--elementary=10,11"],
             1, "", "error: nodes on ray (10, 11) not at consecutive multiples: [Fraction(1, 110)]\n",
             "PreconditionFailedError", files=_off_multiples(10)),
        Case(["atf", "move", "@d.json", f"--elementary={10**2999},{10**2999 + 1}"],
             1, "",
             "error: nodes on ray (1000000000000000000000000000000000000000..., "
             "1000000000000000000000000000000000000000...) not at consecutive multiples: [Fraction(1, "
             f"<a value with an integer of more than {LIMIT} digits>)]\n",
             "PreconditionFailedError", files=_off_multiples(10**2999)),
    ],
    "word_output_past_the_digit_limit_exits_1": [
        Case(["word", "trop", "A[2,1;1,1]^12000", "--vector", "1,0"],
             1, "", f"error: an output integer has more than {LIMIT} digits\n", "DigitLimitError"),
        # f = x^75025 y^46368
        Case(["word", "eval", "A[2,1;1,1]^12", "--point", "2,1"],
             1, "", f"error: an output integer has more than {LIMIT} digits\n", "DigitLimitError"),
        Case(["word", "realize", "A[2,1;1,1]^12000"],
             1, "", f"error: an output integer has more than {LIMIT} digits\n", "DigitLimitError"),
        # The term and bit counts in the budget errors' messages are past the limit.
        Case(["word", "realize", f"A[{N},1;-1,0]^3*E"],
             1, "",
             "error: a pullback through E^1 would build <a value with an integer of more than "
             f"{LIMIT} digits> terms, over 12000\n",
             "TermBudgetError"),
        Case(["word", "eval", f"A[{N},1;-1,0]^3", "--point", "2,1"],
             1, "",
             f"error: an evaluation would build <a value with an integer of more than {LIMIT} digits> bits "
             "of powers, over 8388608\n",
             "EvalBudgetError"),
    ],
    # An E-step row whose exponent is past float range; the term budget refuses it.
    "pullback_row_past_float_range_exits_1": [
        Case(["word", "realize", f"E[{N},1]*E[1,{N}]"],
             1, "",
             "error: a pullback through E^1 would build 1000000000000000000000000000000000000000... "
             "terms, over 12000\n",
             "TermBudgetError"),
        Case(["word", "realize", f"E[{N},1]"],
             1, "",
             "error: a pullback through E^1 would build 1000000000000000000000000000000000000000... "
             "terms, over 12000\n",
             "TermBudgetError"),
    ],
    "surface_message_past_the_digit_limit_exits_1": [
        Case(["surface", "validate", "@s.json"],
             1, Sha256("41073dea2da55e60be21a118330933ad2833ef00d3a2bd878e0ff0ca519adc21"), files=NEAR_LIMIT_FAN),
        Case(["surface", "invariants", "@s.json"],
             1, "", Sha256("78b6f1a920937bbec66259277c65b0f8d1b2e632f00e69a3df1a26142906097b"),
             "InvalidSurfaceError", files=NEAR_LIMIT_FAN),
        Case(["surface", "intersections", "@s.json"],
             1, "", Sha256("78b6f1a920937bbec66259277c65b0f8d1b2e632f00e69a3df1a26142906097b"),
             "InvalidSurfaceError", files=NEAR_LIMIT_FAN),
        Case(["hms", "counts", "@s.json"],
             1, "", Sha256("78b6f1a920937bbec66259277c65b0f8d1b2e632f00e69a3df1a26142906097b"),
             "InvalidSurfaceError", files=NEAR_LIMIT_FAN),
        Case(["atf", "diagram", "@s.json"],
             1, "", Sha256("78b6f1a920937bbec66259277c65b0f8d1b2e632f00e69a3df1a26142906097b"),
             "InvalidSurfaceError", files=NEAR_LIMIT_FAN),
        # resolve inserts E's ray pulled back through A^2, which is past the limit.
        Case(["surface", "resolve", f"E*A[{M},1;-1,0]^2", "@p2.json"],
             1, "",
             "error: inserting ray (9999999999999999999999999999999999999999..., <a value with an "
             f"integer of more than {LIMIT} digits>) adds more than 1000 rays\n",
             "RayBudgetError", files=P2_WRITTEN),
    ],
    "messages_quote_at_most_40_characters_of_an_integer": [
        Case(["surface", "validate", "@s.json"],
             1, "violation: ray (3000000000000000000000000000000000000000..., 3) is not primitive\n",
             files=_surface([[int(BIG), 3], [0, 1], [-1, -1]], [0, 0, 0])),
        Case(["atf", "move", "@d.json", f"--elementary={BIG},1"],
             1, "", "error: no node at (3000000000000000000000000000000000000000..., 1) to move\n",
             "PreconditionFailedError", files=_nodes()),
        Case(["atf", "move", "@d.json", "--elementary=1,0"],
             1, "", "error: cut_sign must be +-1, got 3000000000000000000000000000000000000000...\n",
             "InvalidDiagramError", files=_nodes({"position": [1, 0], "direction": [1, 0], "cut_sign": int(BIG)})),
        Case(["word", "eval", "E", f"--point=-1,{BIG}"],
             1, "", "error: pole at (-1, 3000000000000000000000000000000000000000...)\n", "PoleAtPointError"),
        # The letter, the term budget and the evaluation budget quote an integer that grows with the input.
        Case(["surface", "pushforward", f"E[{N},1]", "@p2.json"],
             1, "", "error: missing ray at ray (9999999999999999999999999999999999999999..., 1) after 0 letters\n",
             "NotRegularError", files=P2_WRITTEN),
        Case(["word", "eval", f"A[{N},1;-1,0]", "--point=3,1"],
             1, "",
             "error: an evaluation would build 9999999999999999999999999999999999999999... bits of "
             "powers, over 8388608\n",
             "EvalBudgetError"),
    ],
    # A node record with an extra key holding a 4000-digit integer, and a bad
    # position string, are quoted with each integer and string cut.
    "diagram_errors_quote_records_and_lines_cut": [
        Case(["atf", "move", "@d.json", "--elementary=1,0"],
             1, "",
             "error: bad node record: {'position': [1, 0], 'direction': [1, 0], 'cut_sign': 1, 'extra': "
             "3000000000000000000000000000000000000000...}\n",
             "InvalidDiagramError",
             files=_nodes({"position": [1, 0], "direction": [1, 0], "cut_sign": 1, "extra": int(BIG)})),
        # Containers nested past three levels are quoted as "...".
        Case(["atf", "move", "@d.json", "--elementary=1,0"],
             1, "",
             "error: bad node record: {'position': [1, 0], 'extra': [[...], [...], [...], [...], [...], ...]}\n",
             "InvalidDiagramError", files=_nodes({"position": [1, 0], "extra": [[[[[[1]]]]]] * 400})),
        Case(["atf", "move", "@d.json", "--elementary=1,0"],
             1, "",
             "error: bad position ['1/xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx..., 0]: Invalid literal for "
             "Fraction: '1/xxxxxxx...\n",
             "InvalidDiagramError",
             files=_nodes({"position": ["1/" + "x" * 5000, 0], "direction": [1, 0], "cut_sign": 1})),
        # 3000 nodes at 2, 4, .., 6000 times (1, 0) are not at consecutive multiples;
        # the message quotes the first few line coordinates.
        Case(["atf", "move", "@d.json", "--elementary=1,0"],
             1, "",
             "error: nodes on ray (1, 0) not at consecutive multiples: [Fraction(2, 1), Fraction(4, 1), "
             "Fraction(6, 1), Fraction(8, 1), Fraction(10, 1), ...]\n",
             "PreconditionFailedError",
             files=_nodes(*[{"position": [str(2 * t), "0"], "direction": [1, 0], "cut_sign": 1}
                             for t in range(1, 3001)])),
    ],
    # A[2,1;1,1]^30 realizes to x^2504730781961 y^1548008755920.  Terms near
    # 3^3000 cancel down to the answer, within the budget.
    "evaluation_past_the_bit_budget": [
        Case(["word", "eval", "A[2,1;1,1]^30", "--point", "2,1"],
             1, "", "error: an evaluation would build 2504730781961 bits of powers, over 8388608\n",
             "EvalBudgetError"),
        Case(["word", "eval", "E^-3000", "--point=-2,1"], 0, "-2,1\n"),
    ],
    # dlog_ratio's second pass would visit 12.9 million term pairs, about 19 s.
    "character_past_the_pair_budget_exits_1": [
        Case(["word", "character", "P*r3*r2*r1*E[0,1]*E[-3,2]"],
             1, "", "error: dlog_ratio would visit 12938240 term pairs, over 1000000\n", "TermBudgetError"),
    ],
    "insertion_past_the_ray_budget_exits_1": [
        Case(["surface", "resolve", "E", "@s.json"],
             1, "", "error: inserting ray (0, 1) adds more than 1000 rays\n", "RayBudgetError",
             files=_surface([[1, 0], [10**7, 1], [-1 - 10**7, -1]], [0, 0, 0])),
    ],
    # atf diagram would build 10^40 nodes; hms counts as many sheaves.
    "blowups_past_the_budget_exit_1": [
        Case(["atf", "diagram", "@s.json"],
             1, "", "error: more than 10000 interior blow-ups\n", "BlowupBudgetError", files=HUGE_BLOWUP),
        Case(["hms", "counts", "@s.json"],
             1, "", "error: more than 10000 interior blow-ups\n", "BlowupBudgetError", files=HUGE_BLOWUP),
        Case(["surface", "invariants", "@s.json"],
             0,
             '{"k": 3, "total_m": 10000000000000000000000000000000000000000, "b2": '
             '10000000000000000000000000000000000000001, "chi_y": '
             '10000000000000000000000000000000000000003, "chi_u": 10000000000000000000000000000000000000000}\n',
             files=HUGE_BLOWUP),
    ],
    "usage_error_exit_code": [
        Case(["word", "equal"],
             2, "",
             "usage: logcy2 word equal [-h] word1 word2\n"
             "logcy2 word equal: error: the following arguments are required: word1, word2\n"),
    ],
    "unknown_flag_rejected": [
        Case(["word", "realize", "E", "--bogus"],
             2, "",
             "usage: logcy2 [-h] {word,surface,atf,hms,demo,verify} ...\n"
             "logcy2: error: unrecognized arguments: --bogus\n"),
    ],
    "missing_file_is_domain_error": [
        Case(["surface", "invariants", "/nonexistent/s.json"],
             1, "", "error: [Errno 2] No such file or directory: '/nonexistent/s.json'\n", "FileNotFoundError"),
    ],
    "malformed_vector_or_point_is_usage_error": [
        Case(["word", "trop", "E", "--vector", "1"],
             2, "",
             "usage: logcy2 word trop [-h] --vector a,b word\n"
             "logcy2 word trop: error: argument --vector: expected two integers 'a,b', got '1'\n",
             "ArgumentError"),
        Case(["word", "trop", "E", "--vector", "1,x"],
             2, "",
             "usage: logcy2 word trop [-h] --vector a,b word\n"
             "logcy2 word trop: error: argument --vector: expected two integers 'a,b', got '1,x'\n",
             "ArgumentError"),
        Case(["word", "eval", "E", "--point", "1,2,3"],
             2, "",
             "usage: logcy2 word eval [-h] --point p,q word\n"
             "logcy2 word eval: error: argument --point: expected two rationals 'p,q', got '1,2,3'\n",
             "ArgumentError"),
        Case(["word", "eval", "E", "--point", "1/0,1"],
             2, "",
             "usage: logcy2 word eval [-h] --point p,q word\n"
             "logcy2 word eval: error: argument --point: expected two rationals 'p,q', got '1/0,1'\n",
             "ArgumentError"),
    ],
    "malformed_diagram_file_is_domain_error": [
        Case(["atf", "move", "@d.json", "--elementary", "0,1"],
             1, "", "error: not valid JSON: Expecting value: line 1 column 1 (char 0)\n", "InvalidDiagramError",
             files={"d.json": b"not json"}),
        Case(["atf", "move", "@d.json", "--elementary", "0,1"],
             1, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
             "UnicodeDecodeError", files={"d.json": b"\xff\xfe not UTF-8"}),
        Case(["atf", "move", "@d.json", "--elementary", "0,1"],
             1, "", "error: bad position ['1/0', '0']: Fraction(1, 0)\n", "InvalidDiagramError",
             files={"d.json": b'{"nodes": [{"position": ["1/0", "0"], "direction": [1, 0], "cut_sign": 1}]}'}),
        Case(["atf", "move", "@d.json", "--elementary", "0,1"],
             1, "", "error: cut_sign must be +-1, got 2\n", "InvalidDiagramError",
             files={"d.json": b'{"nodes": [{"position": ["1", "0"], "direction": [1, 0], "cut_sign": 2}]}'}),
    ],
    # Fraction("1e10000000") builds 10^(10^7): about 8 s, and a node there then
    # failed to format its own error message.  Integers, p/q and decimals are still read.
    "exponent_notation_is_refused_at_once": [
        Case(["word", "eval", "id", "--point", "1e10000000,1"],
             2, "",
             "usage: logcy2 word eval [-h] --point p,q word\n"
             "logcy2 word eval: error: argument --point: expected two rationals 'p,q', got '1e10000000,1'\n",
             "ArgumentError"),
        Case(["atf", "move", "@d.json", "--elementary", "1,0"],
             1, "", "error: bad position ['1e10000000', '0']: exponent notation is not accepted\n",
             "InvalidDiagramError",
             files=_nodes({"position": ["1e10000000", "0"], "direction": [1, 0], "cut_sign": 1})),
        Case(["word", "eval", "id", "--point=-3,1/2"], 0, "-3,1/2\n"),
        Case(["word", "eval", "id", "--point", "0.25,-1.5"], 0, "1/4,-3/2\n"),
        Case(["atf", "move", "@d.json", "--elementary", "1,0"],
             0, '{"nodes": [{"position": ["-1", "0"], "direction": [1, 0], "cut_sign": -1}]}\n',
             files=_nodes({"position": ["1.0", "0/7"], "direction": [1, 0], "cut_sign": 1})),
    ],
    "boolean_surface_file_is_domain_error": [
        Case(["surface", "pushforward", "id", "@s.json"],
             1, "", "error: rays must be integer pairs and m a list of integers\n", "InvalidSurfaceError",
             files=_surface([[True, False], [False, True], [-1, -1]], [0, False, 0])),
    ],
    "boolean_diagram_file_is_domain_error": [
        Case(["atf", "move", "@d.json", "--elementary", "0,1"],
             1, "",
             "error: bad node record: {'position': ['0', '1'], 'direction': [False, True], 'cut_sign': True}\n",
             "InvalidDiagramError",
             files=_nodes({"position": ["0", "1"], "direction": [False, True], "cut_sign": True})),
        Case(["atf", "move", "@d.json", "--elementary", "0,1"],
             0, '{"nodes": [{"position": ["0", "-1"], "direction": [0, 1], "cut_sign": -1}]}\n',
             files=_nodes({"position": ["0", "1"], "direction": [0, 1], "cut_sign": 1})),
    ],
    "float_diagram_position_is_domain_error": [
        Case(["atf", "move", "@d.json", "--elementary", "1,0"],
             1, "", "error: bad node record: {'position': [0.1, 0], 'direction': [1, 0], 'cut_sign': 1}\n",
             "InvalidDiagramError", files=_nodes({"position": [0.1, 0], "direction": [1, 0], "cut_sign": 1})),
        Case(["atf", "move", "@d.json", "--elementary", "1,0"],
             0, '{"nodes": [{"position": ["-1", "0"], "direction": [1, 0], "cut_sign": -1}]}\n',
             files=_nodes({"position": [1, 0], "direction": [1, 0], "cut_sign": 1})),
    ],
}

CASES = [case for rows in GROUPS.values() for case in rows]
