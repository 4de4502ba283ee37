"""Span wrappers around the library's public functions, for the traced run.

``Tracer.install`` replaces every binding of each function in ``WRAPPED``
across the ``logcy2`` module namespaces (``surfaces`` holds its own
``tropicalize``, ``birmap`` its own ``normalize``), and class attributes
such as ``Poly2.__mul__`` on the class.  ``Tracer.uninstall`` puts every
original back.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Layer -> public functions timed in that layer.  ``sampling`` only makes
# fuzz inputs and is not a measured layer.
WRAPPED = {
    "polyrat": ["substitute", "normalize", "poly_gcd", "poly_divexact", "Poly2.__mul__"],
    "birmap": ["realize", "compose", "equal", "volume_character", "tropicalize", "boundary_limit"],
    "words": ["parse_word"],
    "lattice": ["pl_compose", "pl_apply"],
    "surfaces": ["resolve", "pushforward", "require_valid"],
    "diagrams": ["diagram", "elementary_move", "nodal_slide", "cut_transfer", "render_svg"],
    "catalog": ["check_counts"],
    "cli": ["main", "build_parser"],
}


def _poly_size(r) -> tuple[int, int]:
    return max(r.num.total_degree(), r.den.total_degree()), max(len(r.num.terms), len(r.den.terms))


class Tracer:
    """Call counts, self times, spans and a few result statistics per function."""

    def __init__(self) -> None:
        self.spans: list = []  # (op, name, start, end, parent span index)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.stats: Counter = Counter()
        self.maxima: Counter = Counter()
        self.root_s = 0.0  # time inside outermost spans of timed operations
        self.op = -1  # operation id; -1 during set-up
        self._stack: list = []
        self._replaced: list = []  # (holder, attribute, original)

    # -- result statistics --------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        if name == "polyrat.normalize":
            deg, size = _poly_size(result)
            self.maxima["polyrat.max_total_degree"] = max(self.maxima["polyrat.max_total_degree"], deg)
            self.maxima["polyrat.max_terms"] = max(self.maxima["polyrat.max_terms"], size)
        elif name == "polyrat.poly_gcd":
            self.stats["polyrat.poly_gcd.nontrivial"] += result.total_degree() > 0
        elif name == "birmap.equal":
            self.stats["birmap.equal.true"] += bool(result)
        elif name == "words.parse_word":
            self.stats["words.parse_word.letters"] += len(result)
        elif name == "lattice.pl_compose":
            self.maxima["lattice.pl_compose.max_pieces"] = max(
                self.maxima["lattice.pl_compose.max_pieces"], len(result.mats))
        elif name == "surfaces.resolve":
            s0 = args[1]
            self.stats["surfaces.resolve.augmentations"] += (
                len(result.rays) - len(s0.rays) + result.total_m() - s0.total_m())

    _OBSERVED = {"polyrat.normalize", "polyrat.poly_gcd", "birmap.equal", "words.parse_word",
                 "lattice.pl_compose", "surfaces.resolve"}

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        observe = self._observe if name in self._OBSERVED else None
        clock = time.perf_counter

        def span(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            frame = [0.0, index]  # time in child spans, own span index
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                elif self.op >= 0:
                    self.root_s += duration
                self_s[name] += duration - frame[0]
                calls[name] += 1
                spans[index] = (self.op, name, start, end, parent)
            if observe is not None:
                observe(name, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        """Wrap every binding; import the modules the workload uses first."""
        modules = [m for n, m in sys.modules.items() if n == "logcy2" or n.startswith("logcy2.")]
        for layer, names in WRAPPED.items():
            module = sys.modules.get(f"logcy2.{layer}")
            if module is None:  # not imported by this workload, so never called
                continue
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._replace(cls, attr, original, self._wrap(name, original))
                else:
                    original = getattr(module, qual)
                    wrapper = self._wrap(name, original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._replace(m, attr, original, wrapper)

    def _replace(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._replaced.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._replaced):
            setattr(holder, attr, original)

    def restored(self) -> bool:
        """Every binding install replaced holds its original again."""
        return bool(self._replaced) and all(
            vars(holder)[attr] is original for holder, attr, original in self._replaced)

    def write_spans(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
