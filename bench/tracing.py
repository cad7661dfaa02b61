"""Outside-in tracing of bwtk: wrappers around public functions, spans, self times.

Each wrapper is installed at the attribute its callers look up at call time
(`bwtk.cli.build_bwt`, because cli imports it by name; `RankIndex.rank` on
the class; each measure on `bwtk.kernels`), so no file under src/ changes.
Coarse calls record a span (name, start, end, parent). The two hot wavelet
queries are called millions of times, so they record only a call count and
summed seconds; each span also stores the hot seconds spent inside it, which
is enough to derive every layer's self time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import bwtk.cli
import bwtk.kernels
import bwtk.suffix
import bwtk.wavelet
from bwtk.suffix import BwtIndex
from bwtk.wavelet import RankIndex

from metrics import PAIR_KERNELS, SINGLE_MEASURES

HOT = {"wavelet.range_distinct": (RankIndex, "range_distinct"), "wavelet.rank": (RankIndex, "rank")}

# (owner, attribute, span name); BwtIndex.load is a classmethod, handled apart
COARSE = [
    (bwtk.cli, "run", "cli.run"),
    (bwtk.cli, "load_input", "text.load_input"),
    (bwtk.cli, "map_alphabet", "text.map_alphabet"),
    (bwtk.cli, "build_bwt", "suffix.build_bwt"),
    (bwtk.suffix, "build_bwt", "suffix.build_bwt"),
    # the suffix sort that build_bwt and suffix_array both call
    (bwtk.suffix, "_sort_suffixes", "suffix.suffix_array"),
    (BwtIndex, "dump", "suffix.dump"),
    (RankIndex, "__init__", "wavelet.build"),
    (bwtk.kernels, "enumerate_right_maximal", "enumerate.right_maximal"),
    (bwtk.kernels, "enumerate_maximal_repeats", "enumerate.maximal_repeats"),
    (bwtk.kernels, "enumerate_generalized", "enumerate.generalized"),
] + [
    (bwtk.kernels, fn, f"kernels.{fn}")
    for fn in [name for name, _ in SINGLE_MEASURES] + list(PAIR_KERNELS)
]


class Tracer:
    """Spans and hot-call counters of one traced iteration, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, hot seconds inside]
        self._open: list[int] = []
        self.hot = {name: [0, 0.0] for name in HOT}
        self.indexes: list[BwtIndex] = []  # every index a build_bwt wrapper returned

    def _hot_seconds(self) -> float:
        return sum(stat[1] for stat in self.hot.values())

    def open(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self._hot_seconds()])
        self._open.append(len(self.spans) - 1)

    def close(self) -> None:
        span = self.spans[self._open.pop()]
        span[4] = self._hot_seconds() - span[4]
        span[2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def _coarse(self, fn, name: str):
        keep = self.indexes.append if name == "suffix.build_bwt" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if keep is not None:
                keep(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrapper in, and restore the original attributes on exit."""
        patches = [(owner, attr, self._coarse(getattr(owner, attr), name)) for owner, attr, name in COARSE]
        load = BwtIndex.__dict__["load"]
        patches.append((BwtIndex, "load", classmethod(self._coarse(load.__func__, "suffix.load"))))
        for name, (owner, attr) in HOT.items():
            patches.append((owner, attr, _hot(self.hot[name], getattr(owner, attr))))
        saved = []
        try:
            for owner, attr, new in patches:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)


def _hot(stat: list, fn):
    clock = time.perf_counter

    def traced(*args):
        t0 = clock()
        out = fn(*args)
        stat[0] += 1
        stat[1] += clock() - t0
        return out

    return traced


def analyse(tracer: Tracer) -> dict:
    """Totals per span name, self time per span and layer, and root coverage.

    A span's self time is its duration minus its direct children's spans and
    minus the hot wavelet seconds spent in it outside those children; the hot
    seconds are the wavelet layer's self time.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    child_hot = [0.0] * len(spans)
    for name, start, end, parent, hot in spans:
        if parent is not None:
            child_s[parent] += end - start
            child_hot[parent] += hot
    total: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for i, (name, start, end, parent, hot) in enumerate(spans):
        dur = end - start
        own = dur - child_s[i] - (hot - child_hot[i])
        total[name] = total.get(name, 0.0) + dur
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    layer_self["wavelet"] = layer_self.get("wavelet", 0.0) + tracer._hot_seconds()
    roots = [i for i, span in enumerate(spans) if span[3] is None]
    root_s = sum(spans[i][2] - spans[i][1] for i in roots)
    covered = sum(child_s[i] for i in roots)
    return {
        "total_s": total,
        "self_s": self_by_name,
        "layer_self_s": layer_self,
        "coverage_frac": covered / root_s if root_s > 0 else 0.0,
    }
