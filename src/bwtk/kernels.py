"""Similarity and complexity measures, each a fold over one enumeration.

Every measure here folds over the batches of one enumeration.batched_pass:
same-depth nodes in flat arrays, with their blocks (right extensions) and
their kids (left extensions). It telescopes node contributions so that only
true k-mer or substring loci survive: a node adds its own term and
subtracts one term per child edge, and the strings that end on leaf edges
are covered by closed-form initializers. Frequencies come straight from
interval widths, so integer measures are computed in exact integer
arithmetic. Float terms are summed exactly, by one binned accumulator
(_ExactSum), and each float sum is rounded once, when it is read.

Folds that sum integer counts by depth, a string's length being its
node's depth, keep one int64 row of counts per depth (_bin), made when the
pass first reaches that depth: the k-mer, substring and length-weighted
kernels (_telescoped), kmer_profile, substring_complexity and markov's
exact baseline. visit() only adds a batch's counts to the row of its
depth, and the weight a count takes by its depth is applied in finish(),
when the rows are read, one by one or summed from the back (_tails).

Each measure's set-up, measure.fold, returns its Fold, which the measure
runs alone and run_folds with any others in one pass of a BwtIndex or, for
a pair measure, of a suffix.PairIndex, the index of T1 $ T2 #: every node
and block there has a width in each text (Side.texts), read from the text
bit's ranks, so no fold matches two texts' nodes. A pair measure itself
takes the two texts' indexes and builds their pair index.

The k-mer, substring and length-weighted kernels share one such fold,
_telescoped, whose rows hold each batch's integer terms; each kernel is a
reading of the rows. Uniform and band weights take integer coefficients
(the k-mer kernel at k is the band reading over [k, k]), and
exponential weights take geometric sums scaled by each side's heaviest
length, so no epsilon needs a path of its own. Per-character score weights
depend on the letters: each node builds its weight from its parent's, which
the batch carries (Batch.carry), as a float times a power of two, so no
score overflows. entropy_range and kl_divergence_range are readings of one
per-k fold, _per_k: an exact sum per depth, plus a closed form per k.
d2s and d2star telescope the other way, over the nodes shallower than k
(_d2_fold): every block there adds its term and every node but the root
takes its own back off, which cancels the block it is, so one block per
k-mer is left and the pass stops at depth k - 1. A term that is not finite
is counted with its sign, not summed, so cancelling pairs of them net 0.

A fused pass (run_folds) derives each batch quantity once: Side.texts,
each text's widths, for every pair fold; _pair_sums (Batch.derive) for the
k-mer, substring and length-weighted kernels; _Kids (Batch.derive) for the
MAW folds, the KL divergence and markov.

maw_words and maw_enumerate list words through one batch fold,
_maw_listing, so both report them in the same order: batch by batch, then
by the infix's node, then by a, then by b. The batches, and so the order,
are fixed for a given input, but a batch may merge nodes of several
parents (see enumerate.batched_pass). No fold depends on how nodes are
grouped into batches: integer sums are exact, and so are float sums until
their one rounding.

Conventions shared with the brute-force reference: alphabets of measures
range over [1..sigma] (terminators are delivered by the enumerator but
filtered here), f(empty) = n-1 where a ratio needs it, and logarithms are
base 2.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

# the per-node passes stay attributes of this module, where tracers find them
from .enumerate import (  # noqa: F401
    Batch,
    Side,
    batched_pass,
    enumerate_generalized,
    enumerate_maximal_repeats,
    enumerate_right_maximal,
    heads,
)
from .errors import BwtkError, ComputationError, InputError, ZeroDenominatorError, integer, real
from .params import WeightSpec, ZScoreParams, markov_g, validate_probs
from .suffix import _MAX_N, BwtIndex, PairIndex

__all__ = [
    "ProfileMatrix",
    "PerK",
    "Fold",
    "run_folds",
    "kmer_complexity",
    "kmer_kernel",
    "kmer_kernel_range",
    "kmer_profile",
    "entropy_range",
    "substring_complexity",
    "substring_kernel",
    "weighted_substring_kernel",
    "d2s_distance",
    "d2star_distance",
    "maw_count",
    "maw_enumerate",
    "maw_words",
    "maw_jaccard",
    "maw_cosine",
    "markov_kernel",
    "kl_divergence_range",
    "calibrate_kmax",
    "calibrate_kmin",
]


@dataclass
class ProfileMatrix:
    """Distinct k-mer counts by length and frequency, saturated at f2.

    held lists the counts of the k-mers that end inside a node, in rows of
    k = k1, k1 + 1, .. up to the deepest node the pass reached (at most
    k2), each over f = f1 .. min(f2, n), n being |T| + 1. The other k-mers
    each occur once, n - k of length k in all, and no k-mer occurs n
    times, so no slot is held for the cells past held. cell reads any cell
    of the matrix, k in [k1..k2] and f in [f1..f2], and raises InputError
    outside it; cells lists them all.
    """

    k1: int
    k2: int
    f1: int
    f2: int
    n: int
    held: list[list[int]]

    def cell(self, k: int, f: int) -> int:
        k, f = integer(k, "k", self.k1, self.k2), integer(f, "f", self.f1, self.f2)
        i, j = k - self.k1, f - self.f1
        count = self.held[i][j] if i < len(self.held) and j < len(self.held[i]) else 0
        return count + (self.n - k if f == 1 and k < self.n else 0)

    @property
    def cells(self) -> list[list[int]]:
        fs = range(self.f1, self.f2 + 1)
        return [[self.cell(k, f) for f in fs] for k in range(self.k1, self.k2 + 1)]


class PerK(list):
    """One value per k of [k1..k2], that of k at index k - k1.

    The list holds the values up to the deepest k a pass reached. len,
    indexing, slicing, iteration, reversal, == and repr see every k: a
    later one reads tail(k), its value past the deepest node (0 or a closed
    form), when asked, so a range far past the text holds no slot per k.
    Other list operations (+, copy, in, sort, ..) see the held values only;
    list(values) makes a plain list. It is a list so that callers that
    test for one accept it.
    """

    def __init__(self, k1: int, k2: int, held: list, tail: Callable[[int], Any]) -> None:
        super().__init__(held)
        self.k1, self.k2, self.tail = k1, k2, tail

    def __len__(self) -> int:
        return self.k2 - self.k1 + 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # negative indexes, and IndexError past the end
        return super().__getitem__(i) if i < super().__len__() else self.tail(self.k1 + i)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __reversed__(self):
        return map(self.__getitem__, range(len(self) - 1, -1, -1))

    def __eq__(self, other) -> bool:
        same = isinstance(other, list) and len(self) == len(other)
        return same and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"PerK(k1={self.k1}, k2={self.k2}, held={super().__getitem__(slice(None))!r})"


_LN2 = math.log(2.0)


def _node_sums(values: np.ndarray, node: np.ndarray, count: int) -> np.ndarray:
    """Per-node sums of values (node ascending), exact for integers."""
    total = np.zeros(values.size + 1, dtype=values.dtype)
    np.cumsum(values, out=total[1:])
    at = np.searchsorted(node, np.arange(count + 1))
    return total[at[1:]] - total[at[:-1]]


def _bin(bins: list, i: int, width: int = 1) -> np.ndarray:
    """bins[i], an int64 row of width zeros made when a pass first reaches its depth.

    A pass reaches a depth only after every shallower one, so rows are made in order.
    """
    if i == len(bins):
        bins.append(np.zeros(width, dtype=np.int64))
    return bins[i]


def _tails(bins: list) -> list:
    """bins summed from the back: entry i is bins[i] + bins[i + 1] + ..."""
    return list(itertools.accumulate(reversed(bins)))[::-1]


def _letters(side: Side) -> np.ndarray:
    """Blocks per node of one text, the terminator's left out."""
    count = side.nb - 1
    count[side.node[side.ch == 0]] -= 1
    return count


def _cosine(num: float, d1: float, d2: float) -> float:
    if d1 <= 0 or d2 <= 0:
        raise ZeroDenominatorError("zero denominator: a side has zero norm")
    den = math.sqrt(d1 * d2)
    if not (math.isfinite(num) and 0.0 < den < math.inf):
        raise ComputationError("weighted sums outside the floating-point range")
    return num / den


# terms one np.bincount adds up: each adds less than 2**27 to a bin, so up
# to 2**26 terms keep every bin an exact float64 integer below 2**53; fewer
# also bound the temporary arrays of one binning
_ROOM = 2**15
# terms add() gathers before it bins them, so that a fold's many small
# arrays cost a few NumPy passes, not a few per array
_GATHER = 2**14


class _ExactSum:
    """An exact sum of float64 terms, rounded once when read.

    Binning splits each term m * 2**e (np.frexp) into the top 27 and the low
    26 bits of its 53-bit integer mantissa, and np.bincount adds each half
    by e into float64 bins (Neal, "Fast exact summation using small and
    large superaccumulators", 2015), exact while they take at most _ROOM
    terms. The bins are then flushed into a Python int, and value() rounds
    that int once, through Python's correctly rounded int division. So the
    value is the correctly rounded sum, whatever the order or grouping of
    the terms. add() gathers arrays until they hold _GATHER terms and bins
    them together.

    inf and nan terms are summed apart, as floats: a sum with nan, or with
    inf and -inf, reads nan; one with an infinity reads that infinity; and
    a finite sum that rounds past the float range reads nan.
    """

    __slots__ = ("pending", "size", "exact", "unit", "special")

    def __init__(self) -> None:
        self.pending = None  # arrays not binned yet; made at the first add()
        self.size = 0  # the terms they hold
        self.exact, self.unit = 0, 0  # the binned sum, exact * 2**unit
        self.special = 0.0  # the sum of the inf and nan terms

    def add(self, values: np.ndarray, exps: np.ndarray | None = None) -> None:
        """Add values, or values * 2**exps with exps an integer array, exactly.

        The arrays are kept until they are binned, so they must not change.
        """
        if not values.size:
            return
        if self.pending is None:
            self.pending = []
        self.pending.append((values, exps))
        self.size += values.size
        if self.size >= _GATHER:
            self.settle()

    def add_ratio(self, num: int, den: int = 1) -> None:
        """Add num / den exactly, den a power of two (see float.as_integer_ratio)."""
        self.push(num, 1 - den.bit_length())

    def push(self, num: int, unit: int) -> None:
        """Add num * 2**unit."""
        if not self.exact:
            self.exact, self.unit = num, unit
            return
        if unit < self.unit:
            self.exact <<= self.unit - unit
            self.unit = unit
        self.exact += num << (unit - self.unit)

    def settle(self) -> tuple[int, int]:
        """Bin the pending terms; returns (exact, unit), the sum being exact * 2**unit."""
        if self.size:
            parts, self.pending, self.size = self.pending, [], 0
            values, exps = parts[0]
            if len(parts) > 1:
                values = np.concatenate([v for v, _ in parts])
                if any(x is not None for _, x in parts):
                    exps = np.concatenate(
                        [np.zeros(v.size, np.int64) if x is None else x for v, x in parts]
                    )
            for at in range(0, values.size, _ROOM):
                self.bin(values[at : at + _ROOM], None if exps is None else exps[at : at + _ROOM])
        return self.exact, self.unit

    def bin(self, values: np.ndarray, exps: np.ndarray | None) -> None:
        """Push the sum of at most _ROOM terms values * 2**exps."""
        if not values.size:
            return
        m, e = np.frexp(values)
        m *= 2.0**27
        hi = np.trunc(m)  # np.modf is several times slower
        with np.errstate(invalid="ignore"):  # inf - inf; hi flags it below
            lo = np.subtract(m, hi, out=m)  # the low half over 2**26
        if exps is not None:
            e = e + exps
        low = int(e.min())
        at = np.subtract(e, low, dtype=np.intp)  # as np.bincount takes it
        hi = np.bincount(at, hi)
        lo = np.bincount(at, lo)
        # an inf or nan term leaves inf or nan in its top half
        if not math.isfinite(hi.sum()):
            bad = ~np.isfinite(values)
            self.special = sum(values[bad].tolist(), self.special)
            keep = ~bad
            self.bin(values[keep], None if exps is None else exps[keep])
            return
        # bin i is 2**(i + low - 53) in the low half and 2**26 times that in
        # the top half; int64 holds each sum of the two, below 2**54, and a
        # limb of eight of them, below 2**62
        limbs = np.zeros(-(-(lo.size + 26) // 8) * 8, dtype=np.int64)
        limbs[: lo.size] = lo * 2.0**26
        limbs[26:][: hi.size] += hi.astype(np.int64)
        limbs = (limbs.reshape(-1, 8) * (1 << np.arange(8))).sum(axis=1)
        self.push(sum(v << 8 * i for i, v in enumerate(limbs.tolist()) if v), low - 53)

    def value(self) -> float:
        """The sum rounded to the nearest float (ties to even), or inf or nan."""
        num, unit = self.settle()
        if self.special:
            return self.special
        try:
            return float(num << unit) if unit >= 0 else num / (1 << -unit)
        except OverflowError:
            return math.nan

    def frexp(self) -> tuple[float, int]:
        """(m, e), the sum rounded once being m * 2**e, 0.5 <= |m| < 1 or m = 0.

        Unlike value(), it reads sums past the float range.
        """
        num, unit = self.settle()
        if self.special:
            return math.frexp(self.special)
        if not num:
            return 0.0, 0
        width = abs(num).bit_length()
        # the quotient lies in [0.5, 1]; frexp takes a rounding up to 1.0
        m, e = math.frexp(num / (1 << width))
        return m, e + width + unit


# ---------------------------------------------------------------------------
# every measure as a fold over one pass


class Fold(NamedTuple):
    """One measure as a fold over a batched_pass.

    visit(batch) runs at every batch of depth at most depth (None: every
    batch) and never raises; finish() then returns the value or raises.
    """

    visit: Callable[[Batch], None]
    finish: Callable[[], Any]
    depth: int | None = None

    def then(self, read) -> Fold:
        """This fold, its value read through read."""
        return self._replace(finish=lambda: read(self.finish()))


def run_folds(index: BwtIndex, calls) -> list:
    """Values of several measures from one pass over a BwtIndex or a PairIndex.

    calls lists tuples (setup, *args), setup being a measure's .fold:
    setup(index, *args) validates its arguments and returns a Fold. The
    result, or the error raised, is that of calling the measures one at a
    time in order: set-up stops at the first call that raises, the pass
    runs over the folds built before it, their finish() runs in order, and
    then the set-up error is raised.
    """
    folds = []
    error = None
    for setup, *args in calls:
        try:
            folds.append(setup(index, *args))
        except BwtkError as exc:
            error = exc
            break
    if folds:
        gated = [(fold.visit, math.inf if fold.depth is None else fold.depth) for fold in folds]
        deepest = max(last for _, last in gated)

        def visit(batch: Batch) -> None:
            for fn, last in gated:
                if batch.depth <= last:
                    fn(batch)

        batched_pass(index, visit, max_depth=None if deepest == math.inf else deepest)
    values = [fold.finish() for fold in folds]
    if error is not None:
        raise error
    return values


def _measure(texts: int):
    """setup's measure of one index, or of the pair of two (texts = 2), in a pass of its own.

    setup stays as .fold, which refuses an index of the other kind.
    """
    kind = PairIndex if texts == 2 else BwtIndex

    def wrap(setup):
        @functools.wraps(setup)
        def fold(index: BwtIndex, *args, **kwargs) -> Fold:
            if type(index) is not kind:
                raise InputError(f"{setup.__name__} takes a {kind.__name__}, not a {type(index).__name__}")
            return setup(index, *args, **kwargs)

        def one(index: BwtIndex, *args, **kwargs):
            return run_folds(index, [(functools.partial(fold, **kwargs), *args)])[0]

        def two(index1: BwtIndex, index2: BwtIndex, *args, **kwargs):
            return one(PairIndex.of(index1, index2), *args, **kwargs)

        measure = functools.wraps(setup)(two if texts == 2 else one)
        measure.fold = fold
        return measure

    return wrap


# ---------------------------------------------------------------------------
# k-mer measures


@_measure(1)
def kmer_complexity(index: BwtIndex, k: int):
    """Number of distinct k-mers over [1..sigma] occurring in the text."""
    k = integer(k, "k", 1)
    # the saturated f >= 1 cell counts every distinct k-mer
    return kmer_profile.fold(index, k, k, 1, 1).then(lambda profile: profile.cell(k, 1))


def _pair_sums(batch: Batch) -> tuple[int, int, int]:
    """The sums over the batch's nodes of fo ft - cross, fo^2 - s1 and ft^2 - s2.

    fo and ft are a node's frequencies in the two texts, cross sums the
    products of the two texts' widths of each block, and s1, s2 the squared
    widths of each text's blocks, terminators included ($ has width 0 in
    text 2 and # in text 1). The sums are exact integers.
    """
    f, w = batch.side.texts()
    sums = f @ f.T - w @ w.T  # every product of two texts' widths at once
    return int(sums[0, 1]), int(sums[0, 0]), int(sums[1, 1])


def _kmer_length(pair: PairIndex, k) -> int:
    """k as an int, if each text holds a k-mer; else ZeroDenominatorError."""
    k = integer(k, "k", 1)
    if min(pair.ns) <= k:
        raise ZeroDenominatorError(f"zero denominator: a string has fewer than k={k} symbols")
    return k


def _telescoped(lo: int, result) -> Fold:
    """Telescoped sums of f1 f2, f1^2 and f2^2 over substrings, binned by length.

    A node of depth d >= lo adds fo ft - cross, fo^2 - s1 and ft^2 - s2 (its
    own frequency products less those of its right extensions, as in
    _pair_sums) into the depth-d bin (_bin) of (num, den1, den2), as exact
    integers: every sum of them, over a depth or from the back, is at most
    n1 n2, which suffix._MAX_N keeps in int64. For every length L >= lo,
    the sum of f1(U) f2(U) over the length-L substrings U is then the sum
    of num[d] over d >= L (_tails), and that of f1(U)^2 is n1 - L plus the
    sum of den1[d] over d >= L (likewise for text 2). finish() returns
    result(num, den1, den2) of these sums as lists of ints, each L >= lo
    holding the sum at L and each L < lo that at lo; every length weighting
    is a reading of them.
    """
    bins = []

    def visit(batch: Batch) -> None:
        row = _bin(bins, batch.depth, 3)
        if batch.depth >= lo:
            row += batch.derive(_pair_sums)

    return Fold(visit, lambda: result(*np.reshape(_tails(bins), (-1, 3)).T.tolist()))


@_measure(2)
def kmer_kernel_range(pair: PairIndex, k1: int, k2: int):
    """Cosine of k-mer count vectors for every k in [k1..k2], one pass.

    The kernel at k is the band reading over [k, k]. Keys run ascending;
    those with an undefined kernel (a string with fewer than k symbols) are
    absent from the result.
    """
    k1 = integer(k1, "k1", 1)
    k2 = integer(k2, "k2", k1)
    ns = pair.ns
    top = min(k2, ns[0] - 1, ns[1] - 1)
    band = (WeightSpec("band", kmin=k, kmax=k) for k in range(k1, top + 1))
    readings = {spec.kmin: _length_reading(spec, ns) for spec in band}

    def result(*bins: list) -> dict[int, float]:
        return {k: read(*bins) for k, read in readings.items()}

    return _telescoped(k1, result)


@_measure(2)
def kmer_kernel(pair: PairIndex, k: int):
    """Cosine of the k-mer count vectors."""
    k = _kmer_length(pair, k)
    return kmer_kernel_range.fold(pair, k, k).then(operator.itemgetter(k))


@_measure(1)
def kmer_profile(index: BwtIndex, k1: int, k2: int, f1: int, f2: int):
    """Distinct k-mers per (length, frequency) cell.

    cells[k][f] counts k-mers occurring exactly f times for f < f2 and at
    least f2 times in the saturated last column. A node of depth d >= k1
    adds its count of 1 at its frequency, less 1 at each block's width,
    into the bin of depth min(d, k2) (_bin); row k of held is then the sum
    of the bins of depth k and deeper (_tails).
    """
    k1 = integer(k1, "k1", 1)
    k2 = integer(k2, "k2", k1)
    f1 = integer(f1, "f1", 1)
    f2 = integer(f2, "f2", f1)
    n = index.n
    # a k-mer occurs at most n - 1 times, so frequencies past n all count 0
    # and neither bound reaches NumPy past n
    top = min(f2, n)
    cols = max(top - f1 + 1, 0)
    bins = []  # from depth k1; the row of k2 takes the deeper nodes too

    def visit(batch: Batch) -> None:
        if batch.depth < k1:
            return
        row = _bin(bins, min(batch.depth, k2) - k1, cols)
        side = batch.side
        # a node adds one k-mer at its frequency, and each block takes one off
        for values, sign in ((side.freq, 1), (side.w, -1)):
            col = np.minimum(values, top) - f1
            counts = np.bincount(col[col >= 0])
            row[: counts.size] += sign * counts

    def finish() -> ProfileMatrix:
        held = [row.tolist() for row in _tails(bins)]
        return ProfileMatrix(k1, k2, f1, f2, n, held)

    # with no column to count, the pass need not leave the root, of depth 0 < k1
    return Fold(visit, finish, None if cols else 0)


def _per_k(k1: int, k2: int, lag: int, terms, closed, norm=1) -> Fold:
    """One value per k in [k1..k2], k1 >= lag, from exact sums over the nodes of depth k - lag.

    k's value is the sum of terms(batch), a batch's float terms, over its
    batches, plus closed(k), added exactly, rounded once and divided by
    norm. A k past the deepest node the pass reached reads closed(k) /
    norm, and nodes deeper than k2 - lag are not visited.
    """
    k1 = integer(k1, "k1", lag)
    k2 = integer(k2, "k2", k1)
    if k2 > _MAX_N:
        raise InputError(f"k2 {k2} is past the longest text an index holds ({_MAX_N} symbols)")
    sums = defaultdict(_ExactSum)  # by k, made at k's first batch

    def visit(batch: Batch) -> None:
        k = batch.depth + lag
        if k >= k1:
            sums[k].add(terms(batch))

    def value(k: int) -> float:
        sums[k].add_ratio(*closed(k).as_integer_ratio())
        return sums[k].value() / norm

    def finish() -> PerK:
        top = min(k2, max(sums, default=k1 - 1))
        return PerK(k1, k2, [value(k) for k in range(k1, top + 1)], lambda k: closed(k) / norm)

    return Fold(visit, finish, k2 - lag)


@_measure(1)
def entropy_range(index: BwtIndex, k1: int, k2: int):
    """Order-k empirical entropies H_k for k in [k1..k2], one pass.

    H_k averages, over text positions, the entropy of the follower-symbol
    distribution after each length-k context; the normalizer is n-1. Past
    the deepest node every context is followed by one letter, so H_k is 0.
    """

    def terms(batch: Batch) -> np.ndarray:
        side = batch.side
        letter = side.ch != 0
        node = side.node[letter]
        w = side.w[letter]
        # a context followed by one letter only has entropy 0
        keep = (_letters(side) >= 2)[node]
        node, w = node[keep], w[keep]
        fr = _node_sums(w, node, side.nb.size)[node]
        return w * np.log2(fr / w)

    return _per_k(k1, k2, 0, terms, lambda k: 0.0, index.n - 1)


# ---------------------------------------------------------------------------
# substring measures


@_measure(1)
def substring_complexity(index: BwtIndex):
    """Number of distinct non-empty substrings over [1..sigma].

    Every node of depth d adds d (1 - its number of blocks) to n (n - 1) /
    2, the count of substring occurrences in T (n = |T| + 1): visit() bins
    each batch's count of nodes less blocks at its depth (_bin), and
    finish() weighs the row of depth d by d.
    """
    n = index.n
    bins = []

    def visit(batch: Batch) -> None:
        _bin(bins, batch.depth)[0] += batch.side.nb.size - batch.side.ch.size

    return Fold(visit, lambda: (n - 1) * n // 2 + sum(d * int(row[0]) for d, row in enumerate(bins)))


@_measure(2)
def substring_kernel(pair: PairIndex):
    """Cosine of the full substring-count vectors."""
    return weighted_substring_kernel.fold(pair, WeightSpec("uniform"))


def _leaf_sum(n: int, lengths, ratio: float) -> float:
    """Sum of (n - j) ratio**i over the i-th length j, until ratio**i underflows."""
    total = 0.0
    xp = 1.0
    for j in lengths:
        if xp == 0.0:
            break
        total += (n - j) * xp
        xp *= ratio
    return total


def _length_reading(weights: WeightSpec, ns: tuple[int, int]):
    """finish() of a length-based weight kind: its cosine read off the sums.

    With x_L the squared weight of length L, the sums at L (see _telescoped)
    weigh x_L, and text i adds the leaf sum of (n_i - L) x_L over 1 <= L <
    n_i = ns[i]. Band and uniform weights are 0 or 1, so they add the sums
    over [kmin, kmax] as exact integers. Exponential weights take each bin d,
    the difference of the sums at d and d + 1, once, weighed by ps(d) = x_1
    + ... + x_d, the weights of the lengths it counts toward. Their sums
    are divided, on each side, by the squared weight of its heaviest length
    (1 when epsilon < 1, n_i - 1 when epsilon > 1) and, for the shared sum,
    by the geometric mean of the two: the cosine does not change, and no
    sum leaves the float range whatever the positive finite epsilon.
    """
    x = weights.epsilon * weights.epsilon if weights.kind == "exponential" else 1.0
    # the heaviest length of text 1, of text 2, and their mean for the shared sum
    tops = (1, 1, 1) if x <= 1.0 else (ns[0] - 1, ns[1] - 1, (ns[0] + ns[1]) / 2 - 1)
    if x == 1.0:
        band = weights.kind == "band"
        kmin, kmax = (weights.kmin, weights.kmax) if band else (1, max(ns))

        def leaf(n: int) -> int:
            # the sum of n - L over kmin <= L <= min(kmax, n - 1)
            hi = min(kmax, n - 1)
            return (hi - kmin + 1) * (2 * n - kmin - hi) // 2 if hi >= kmin else 0

        leaves = [leaf(n) for n in ns]

        def weigh(sums: list, top: float) -> int:
            # every weight is 0 or 1, so no scale is needed
            return sum(sums[kmin : kmax + 1])

    else:
        # r < 1 is the squared-weight ratio from the heaviest length outward
        r = x if x < 1.0 else 1.0 / x
        if x < 1.0:
            leaves = [_leaf_sum(n, range(1, n), r) for n in ns]
        else:
            leaves = [_leaf_sum(n, range(n - 1, 0, -1), r) for n in ns]

        def weigh(sums: list, top: float) -> float:
            # ps(d) / x**top, a geometric sum over lengths 1..d
            bins = map(operator.sub, sums, sums[1:] + [0])
            return sum(
                b * r ** max(top - d, 0) * (1.0 - r**d) / (1.0 - r)
                for d, b in enumerate(bins)
                if b
            )

    def result(num: list, den1: list, den2: list) -> float:
        return _cosine(
            weigh(num, tops[2]),
            leaves[0] + weigh(den1, tops[0]),
            leaves[1] + weigh(den2, tops[1]),
        )

    return result


def _charscore_denominator(text: list[int], sq: list[float]) -> tuple[float, int]:
    """(s, e): the squared weights of all substring occurrences are s * 2**e.

    From the back of the text, tail = sq[a] (1 + tail) sums the squared
    weights of the prefixes of the current suffix, and the total sums the
    tails. Each is a float times its own power of two, renormalized when
    the float strays far from 1, so neither overflows nor underflows; while
    both exponents are 0 the arithmetic is plain float arithmetic.
    """
    ldexp = math.ldexp
    tail, te = 0.0, 0  # tail * 2**te, te >= 0
    total, to = 0.0, 0  # total * 2**to
    for sym in reversed(text):
        tail = sq[sym - 1] * ((ldexp(1.0, -te) if te else 1.0) + tail)
        if tail > 2.0**600 or (te and tail < 2.0**-600):
            tail, shift = math.frexp(tail)
            te += shift
            if te < 0:
                tail, te = ldexp(tail, te), 0
        if te > to:
            total, to = ldexp(total, to - te), te
        total += tail if te == to else ldexp(tail, te - to)
    return total, to


def _charscore_fold(pair: PairIndex, scores) -> Fold:
    """The charscore kernel: node terms times their label's prefix weights.

    A node W's terms (as in _telescoped) count every prefix U of W that has
    not ended on a block, with weight w(U)^2, the product of the squared
    scores of U's letters. Their sum ps(W) follows ps(aW) = sq[a] (1 +
    ps(W)) from the parent, whose ps the batch carries (Batch.carry) as m *
    2**e; a, aW's first letter, is the symbol whose C-array rows hold aW's
    first suffix row. The terms enter each sum with their powers of two
    exactly, each side's sum is read as a float times its own power of two,
    and the shared sum is scaled by the mean of the two, so the cosine does
    not depend on how large the weights grow.
    """
    sq = [q * q for q in scores]
    if not all(math.isfinite(v) for v in sq):
        raise ComputationError("weighted sums outside the floating-point range")
    # by the pair's codes: # and $ weigh nothing, and letter a is code a + 1
    sqm, sqe = np.frexp(np.array([0.0] * pair.terminators + sq))
    sums = (_ExactSum(), _ExactSum(), _ExactSum())
    # every substring occurrence's squared weight, ending on a leaf edge or not
    for text, total in zip(pair.texts(), sums[1:]):
        tail, e = _charscore_denominator(text, sq)
        num, den = tail.as_integer_ratio()
        total.add_ratio(num << e, den)
    key = object()  # this fold's entry in Batch.carry

    def visit(batch: Batch) -> None:
        if not batch.depth:
            batch.carry[key] = (np.zeros(1), np.zeros(1, dtype=np.int64))
            return
        pm, pe = batch.carry[key]
        a = pair.first(batch.side.start)
        # (1 + ps(W)) / 2**s, exact in scale, then times sq[a]
        s = np.maximum(pe, 0)
        m, shift = np.frexp((np.ldexp(1.0, -s) + np.ldexp(pm, pe - s)) * sqm[a])
        e = s + sqe[a] + shift
        batch.carry[key] = (m, e)
        side = batch.side
        (f1, f2), (w1, w2) = side.texts()
        # each node's terms of _pair_sums
        products = zip((f1 * f2, f1 * f1, f2 * f2), (w1 * w2, w1 * w1, w2 * w2))
        for total, (own, blocks) in zip(sums, products):
            terms = own - _node_sums(blocks, side.node, side.nb.size)
            total.add(m * terms.astype(float), e)

    def finish() -> float:
        (num, ne), (d1, t1), (d2, t2) = (total.frexp() for total in sums)
        if d1 <= 0 or d2 <= 0:
            return _cosine(0.0, d1, d2)
        # the shared sum takes the geometric mean 2**((t1 + t2) / 2) of the scales
        if (t1 + t2) % 2:
            d2, t2 = d2 * 2.0, t2 - 1
        return _cosine(math.ldexp(num, ne - (t1 + t2) // 2), d1, d2)

    return Fold(visit, finish)


@_measure(2)
def weighted_substring_kernel(pair: PairIndex, weights: WeightSpec):
    """Cosine of weighted substring vectors g(|W|) f(W) or q-product weights.

    The length-based kinds read the depth bins of the telescoping fold.
    charscore weights depend on the letters, so each node's terms are
    scaled by the sum of the squared weights of its label's prefixes, built
    from the parent's sum, which the batch carries.
    """
    if not isinstance(weights, WeightSpec):
        raise InputError(f"weights must be a WeightSpec, not {weights!r}")
    weights = weights.validate(pair.letters)
    if weights.kind != "charscore":
        return _telescoped(1, _length_reading(weights, pair.ns))
    return _charscore_fold(pair, weights.scores)


# ---------------------------------------------------------------------------
# centered k-mer distances


def _row_products(index: BwtIndex, k: int, qs: np.ndarray) -> np.ndarray:
    """Per suffix row, the product of qs over its first k symbols; nan past T.

    psi (BwtIndex.psi) takes a row to the row one symbol on, and a row's
    first symbol is its F symbol (BwtIndex.first).
    The products double along psi at each bit of k after the leading one
    and take one more symbol in front at each set bit: O(n log k), in one
    order for every k-mer. qs[0] = nan marks the terminator.
    """
    psi = index.psi()
    first = qs[index.first()]
    prod, jump = first, psi  # products of m symbols, and psi applied m times
    bits = bin(k)[3:]
    for i, bit in enumerate(bits, 1):
        prod = prod * prod[jump]
        if bit == "1":
            prod = first * prod[psi]
        if i < len(bits):  # the last bit's jump would not be read
            jump = jump[jump]
            if bit == "1":
                jump = jump[psi]
    return prod


def _d2_fold(pair: PairIndex, k: int, q, phi, absent_coef):
    """Sum of phi(f1(W), f2(W), q(W)) over all k-mers W, absent ones in closed form.

    phi takes arrays. Every block of a node of depth below k adds phi at
    its widths in the two texts, and every node of depth 1 to k - 1 takes
    phi at its own widths back off. Such a node is one block of a shallower
    node, over the same rows, so the two terms cancel; what is left is one
    block per k-mer W, the block where W's edge leaves a node of depth
    below k, and the pass stops at depth k - 1. q(W) comes from one
    _row_products array of the pair, nan at $ and #, at the first row of
    the block or node: a row whose k symbols reach $ or # drops out, in a
    cancelling pair or alone. The terms cancel to a small value, so the phi
    and the q(W) terms are each summed exactly (_ExactSum) and rounded
    once, in finish(). An inf or nan phi is counted, +1 when added and -1
    when taken off, and not summed: a net count other than 0 (a k-mer's
    phi is not finite), or a sum past the float range, makes finish() raise.
    """
    total, q_present = _ExactSum(), _ExactSum()
    rows = _row_products(pair, k, np.array((math.nan,) * pair.terminators + q))
    bad = 0  # the signed count of inf and nan phi terms

    def visit(batch: Batch) -> None:
        nonlocal bad
        side = batch.side
        f, w = side.texts()
        # the blocks, then the nodes but the root
        nodes = f.shape[1] if batch.depth else 0
        qw = rows.take(np.concatenate((side.bd[:-1].compress(side.inside()[:-1]), side.start[:nodes])))
        x = np.concatenate((w, f[:, :nodes]), axis=1)
        sign = np.repeat((1.0, -1.0), (w.shape[1], nodes))
        keep = ~np.isnan(qw)
        x, qw, sign = x.compress(keep, axis=1), qw.compress(keep), sign.compress(keep)
        with np.errstate(all="ignore"):
            terms = phi(x[0], x[1], qw) * sign
        finite = np.isfinite(terms)
        bad += int(sign.compress(~finite).sum())
        total.add(terms.compress(finite))
        q_present.add(qw * sign)

    def finish() -> float:
        value = total.value() + absent_coef * (1.0 - q_present.value())
        if bad or not math.isfinite(value):
            raise ComputationError(
                f"k-mer probabilities too small at k={k}: the value is outside"
                " the floating-point range"
            )
        return value

    return Fold(visit, finish, k - 1)


def _d2_validate(pair: PairIndex, k: int, q) -> tuple:
    q = validate_probs(q, pair.letters)
    k = _kmer_length(pair, k)
    return k, q, pair.ns[0] - k, pair.ns[1] - k


@_measure(2)
def d2s_distance(pair: PairIndex, k: int, q):
    """Sum over all k-mers of t1 t2 / sqrt(t1^2 + t2^2) for centered counts.

    t_i(W) = f_i(W) - (n_i - k) q(W). Terms for k-mers absent from both
    strings are linear in q(W) and folded in as a closed-form correction.
    """
    k, q, e1, e2 = _d2_validate(pair, k, q)

    def phi(x1, x2, qw):
        t1 = x1 - e1 * qw
        t2 = x2 - e2 * qw
        dd = t1 * t1 + t2 * t2
        return np.where(dd == 0.0, 0.0, t1 * t2 / np.sqrt(dd))

    coef = e1 * e2 / math.sqrt(e1 * e1 + e2 * e2)
    return _d2_fold(pair, k, q, phi, coef)


@_measure(2)
def d2star_distance(pair: PairIndex, k: int, q):
    """Sum over all k-mers of t1 t2 / (sqrt((n1-k)(n2-k)) q(W))."""
    k, q, e1, e2 = _d2_validate(pair, k, q)
    scale = math.sqrt(e1 * e2)
    tiny = sys.float_info.min

    def phi(x1, x2, qw):
        t1 = x1 - e1 * qw
        t2 = x2 - e2 * qw
        # with one count 0, q(W) cancels: an underflowing q-product is harmless;
        # otherwise 1/q(W) may leave the float range (or 0 divides): nan, and
        # finish() raises
        out = t1 * t2 / (scale * qw)
        out[qw < tiny] = math.nan
        # -t1 e2 / scale where x2 = 0, else -t2 e1 / scale where x1 = 0
        for zero, t, e in ((x1 == 0, t2, e1), (x2 == 0, t1, e2)):
            out[zero] = t[zero] * -e / scale
        return out

    return _d2_fold(pair, k, q, phi, scale)


# ---------------------------------------------------------------------------
# minimal absent words


class _Kids:
    """What the MAW, KL and Markov folds read of a batch's letter kids.

    A text is maximal at a node W when W has two blocks and two left
    symbols there, its terminator included; only there can a kid aW with a
    letter a lack a letter b of W. maws[t] counts the batch's MAWs a W b of
    text t: for each kid aW in text t, the letters b of W there that aW
    lacks there. Over one text, on marks the kids aW with a letter a under
    a maximal node, and maws[1] and both are 0. Over a pair, wide marks the
    nodes with two rows in some text, the only ones that can be maximal
    (most batches past the shallow depths have none, and make no kid
    widths); shared counts per node the letters of W in both texts, and
    both the MAWs of both texts: a W b with b a letter of W in both texts
    that aW, in both, lacks in both.
    """

    def __init__(self, batch: Batch) -> None:
        side, kids, kn = batch.side, batch.kids, batch.kid_node
        count = side.nb.size
        if side.one is None:
            # every kid occurs, and every block has rows
            maximal = (side.nb >= 3) & (np.bincount(kn, minlength=count) >= 2)
            on = (batch.kid_sym != 0) & maximal[kn]
            self.on = [on]
            self.maws = [int(_letters(side)[kn[on]].sum() - _letters(kids)[on].sum()), 0]
            self.both = 0
            return
        f, w = side.texts()
        self.wide = (f > 1).any(axis=0)
        self.maws, self.both, self.shared = [0, 0], 0, np.zeros(count)
        if not self.wide.any():
            return
        # codes below PairIndex.terminators are # and $, the others letters;
        # kids run by symbol, so the letter kids come from the nt-th kid on,
        # and their blocks from the first-th kid block on
        nt = int(np.searchsorted(batch.kid_sym, PairIndex.terminators))
        self.first = first = int(kids.end[nt - 1]) - nt if nt else 0
        self.kid_letter = kids.ch[first:] >= PairIndex.terminators
        letter, has, (kf, kw) = side.ch >= PairIndex.terminators, w > 0, kids.texts()
        kn, occurs = kn[nt:], kf[:, nt:] > 0
        # per text, the letters of W there that a letter kid aW there lacks
        letters = np.array([np.bincount(side.node, x, count) for x in has & letter])
        lacks = (letters.take(kn, axis=1) * occurs).sum(axis=1)
        lacks -= np.count_nonzero((kw[:, first:] > 0) & self.kid_letter, axis=1)
        self.maws = [int(x) for x in lacks]
        in_both = letter & has[0] & has[1]
        self.shared = np.bincount(side.node, in_both, count)
        # the letters of W in both texts that a kid aW in both has in some text
        both = occurs[0] & occurs[1]
        seen = both.take(kids.node[first:] - nt) & in_both.take(batch.kid_blk[first:])
        self.both = int((self.shared.take(kn) * both).sum() - np.count_nonzero(seen & self.kid_letter))


def _maw_fold(result) -> Fold:
    """Fold whose finish() is result(|MAW(T1)|, |MAW(T2)|, |intersection|); over one text, T1."""
    counts = [0, 0, 0]

    def visit(batch: Batch) -> None:
        p = batch.derive(_Kids)
        counts[0] += p.maws[0]
        counts[1] += p.maws[1]
        counts[2] += p.both

    return Fold(visit, lambda: result(*counts))


@_measure(1)
def maw_count(index: BwtIndex):
    """Number of minimal absent words a W b with letter a, b."""
    return _maw_fold(lambda count, *_: count)


def _maw_listing(emit, finish) -> Fold:
    """Fold calling emit(batch, node, a, b) for the batches that hold a MAW a W b.

    node, a and b are parallel arrays, one entry per MAW, W being node
    node[i] of the batch; they run by node, then a, then b. Batches come in
    pass order, so this is the order of the listings.
    """

    def visit(batch: Batch) -> None:
        rows = batch.derive(_Kids).on[0].nonzero()[0]
        if not rows.size:
            return
        # kids run by a, then node: a stable sort by node keeps a ascending
        rows = rows[np.argsort(batch.kid_node[rows], kind="stable")]
        side = batch.side
        node = batch.kid_node[rows]
        # one candidate a W b per kid and block of W, in block (b) order
        width = side.nb[node] - 1
        off = width.cumsum() - width
        lead = (side.end - side.nb - np.arange(side.nb.size))[node]  # W's first block
        blk = lead.repeat(width) + np.arange(int(width.sum())) - off.repeat(width)
        absent = side.ch[blk] != 0
        # a W b occurs where aW has a block inside W's block b
        kid = batch.kids
        at = np.full(kid.nb.size, -1)
        at[rows] = np.arange(rows.size)
        seen = at[kid.node]
        has = seen >= 0
        seen = seen[has]
        absent[off[seen] + batch.kid_blk[has] - lead[seen]] = False
        hit = absent.nonzero()[0]
        kept = np.arange(rows.size).repeat(width)[hit]
        emit(batch, node[kept], batch.kid_sym[rows[kept]], side.ch[blk[hit]])

    return Fold(visit, finish)


@_measure(1)
def maw_enumerate(index: BwtIndex, visitor):
    """Fire visitor(a, sp, ep, depth, b) per MAW a W b; returns the count.

    (sp, ep) is the suffix-row interval of the infix W and depth is |W|. The
    MAWs come in maw_words' order.
    """
    count = 0

    def emit(batch: Batch, node, a, b) -> None:
        nonlocal count
        side = batch.side
        sp = side.start[node] + 1
        ep = side.bd[side.end[node] - 1]
        d = batch.depth
        for x, i, j, y in zip(a.tolist(), sp.tolist(), ep.tolist(), b.tolist()):
            visitor(x, i, j, d, y)
        count += node.size

    return _maw_listing(emit, lambda: count)


@_measure(1)
def maw_words(index: BwtIndex):
    """All minimal absent words as symbol tuples.

    They come in pass order: batch by batch (see enumerate.batched_pass;
    the batches may merge nodes of several parents, so the order is
    deterministic but not sorted), then by the infix's node within its
    batch, then by a, then by b. The infixes are read from F along psi.
    """
    out: list[tuple[int, ...]] = []
    psi, first = index.psi(), index.first()

    def emit(batch: Batch, node, a, b) -> None:
        rows = batch.side.start[node]
        words = np.empty((node.size, batch.depth + 2), dtype=np.int64)
        words[:, 0], words[:, -1] = a, b
        for i, sym in enumerate(heads(first, psi, rows, batch.depth), 1):
            words[:, i] = sym
        out.extend(map(tuple, words.tolist()))

    return _maw_listing(emit, lambda: out)


@_measure(2)
def maw_jaccard(pair: PairIndex):
    """Jaccard similarity of the two MAW sets; empty-empty counts as 1."""

    def jaccard(c1: int, c2: int, inter: int) -> float:
        union = c1 + c2 - inter
        if union == 0:
            return 1.0
        return inter / union

    return _maw_fold(jaccard)


@_measure(2)
def maw_cosine(pair: PairIndex):
    """Cosine of the binary MAW indicator vectors; empty-empty is 1."""

    def cosine(c1: int, c2: int, inter: int) -> float:
        if c1 == 0 and c2 == 0:
            return 1.0
        if c1 == 0 or c2 == 0:
            raise ZeroDenominatorError("zero denominator: one MAW set is empty")
        return inter / math.sqrt(c1 * c2)

    return _maw_fold(cosine)


# ---------------------------------------------------------------------------
# Markovian z-score kernel


@_measure(2)
def markov_kernel(pair: PairIndex, params: ZScoreParams):
    """Cosine of z-score vectors over strings a W b with letter a, b.

    z is g f(aWb) f(W) / (f(aW) f(Wb)) - 1 for occurring strings and -1 at
    minimal absent words. Nontrivial terms arise only where the infix W is
    a maximal repeat of a side; in exact-g mode the residual (g-1) baseline
    of every other occurring string is folded in through per-length prefix
    sums, exactly mirrored by a (g1-1)(g2-1) subtraction on shared terms.
    visit() bins the baseline's integer counts at each batch's depth
    (_bin), and finish() adds the counts of depth d times the prefix sum at
    d, each product exactly (float.as_integer_ratio).
    """
    if not isinstance(params, ZScoreParams):
        raise InputError(f"params must be a ZScoreParams, not {params!r}")
    params.validate()
    n1, n2 = pair.ns
    m1, m2 = n1 - 1, n2 - 1
    exact = params.g_mode == "exact"
    sums = num, den1, den2 = _ExactSum(), _ExactSum(), _ExactSum()
    bins = []
    if exact:
        # g at lengths 0..n (1 below 2), and prefix sums of the products of g - 1
        g1a, g2a = (markov_g(n, np.arange(n + 1.0)) for n in (n1, n2))
        g1a[:2] = g2a[:2] = 1.0
        e1, e2 = g1a - 1.0, g2a - 1.0
        limit = min(n1, n2) + 1
        ps = [np.cumsum(x) for x in (e1[:limit] * e2[:limit], e1 * e1, e2 * e2)]
        g1a, g2a = g1a.tolist(), g2a.tolist()
        den1.add(ps[1][:n1])
        den2.add(ps[2][:n2])

    def visit(batch: Batch) -> None:
        d = batch.depth
        side, kids = batch.side, batch.kids
        f, w = side.texts()
        p = batch.derive(_Kids)
        g1v = g2v = 1.0
        if exact:
            # the (g - 1) baseline counts: per node in both texts 1 less its
            # shared letters and, per node in a text, 1 less its blocks there
            lone = np.count_nonzero(f, axis=1) - np.count_nonzero(w, axis=1)
            _bin(bins, d, 3)[:] += (np.count_nonzero(f.all(axis=0)) - int(p.shared.sum()), *lone)
            g1v = g1a[d + 2] if d + 2 <= n1 else 1.0
            g2v = g2a[d + 2] if d + 2 <= n2 else 1.0
        # the minimal absent words, where z is -1
        for total, count in zip(sums, (p.both, *p.maws)):
            total.add_ratio(count)
        if not p.wide.any():
            return
        # the letter blocks of the kids aW with a letter a under a wide node:
        # elsewhere every z is g - 1, and every term 0
        on = p.wide.take(batch.kid_node).take(kids.node[p.first :])
        picked = (on & p.kid_letter).nonzero()[0] + p.first
        r = kids.node[picked]
        kf, kw = (x.take(at, axis=1) for x, at in zip(kids.texts(), (r, picked)))
        has = kw > 0
        # z of aWb against W's block of letter b, in each text, from exact
        # int64 products made in place; -1 where aW and Wb occur but aWb does
        # not, and not finite where aW or Wb is absent
        kw *= f.take(batch.kid_node[r], axis=1) if d else np.array([[m1], [m2]])
        kf *= w.take(batch.kid_blk[picked], axis=1)
        with np.errstate(all="ignore"):
            z = np.divide(kw, kf)
            del kf, kw
            if exact:
                z *= np.array([[g1v], [g2v]])
            z -= 1.0
            terms = z[0] * z[1]
        if exact:
            np.subtract(terms, (g1v - 1.0) * (g2v - 1.0), out=terms, where=has[0] & has[1])
        # aWb in both texts, or in one against a W b absent from the other,
        # where z1 z2 is -z of the one: where both z are finite
        num.add(terms.compress(np.isfinite(terms)))
        for den, zt, blocks, g in zip((den1, den2), z, has, (g1v, g2v)):
            zt = zt.compress(blocks)
            den.add(zt * zt - (g - 1.0) ** 2 if exact else zt * zt)

    def finish() -> float:
        # the (g - 1) baseline: each count at d times the prefix sum at d, exactly
        for (d, j), count in np.ndenumerate(bins):
            if count:
                top, bottom = ps[j][d].as_integer_ratio()
                sums[j].add_ratio(top * int(count), bottom)
        return _cosine(*(total.value() for total in sums))

    return Fold(visit, finish)


# ---------------------------------------------------------------------------
# relative entropy and calibration


@_measure(1)
def kl_divergence_range(index: BwtIndex, k1: int, k2: int):
    """KL divergence of k-mer probabilities from their Markov estimate.

    p(X) = f(X)/(n-k) against p(pre) p(suf) / p(mid) with each factor
    normalized by its own (n - length). Ratio terms differ from 1 only when
    the infix is a maximal repeat; all other k-mers contribute the length
    normalizer G(k), added in closed form. k beyond the text length gives 0.
    """
    n = index.n
    m = n - 1

    def terms(batch: Batch) -> np.ndarray:
        d = batch.depth
        k = d + 2
        side = batch.side
        kid = batch.kids
        # every letter block x of a letter kid aW of a maximal repeat W
        sel = batch.derive(_Kids).on[0][kid.node] & (kid.ch != 0)
        x = kid.w[sel]
        r = kid.node[sel]
        fa = kid.freq[r]
        fmid = side.freq[batch.kid_node[r]] if d else m
        wb = side.w[batch.kid_blk[sel]]
        # log2(x fmid / (fa wb)) through the exact difference of the two
        # products, so that ratios near 1 keep their digits
        below = fa * wb
        return (x / (n - k)) * (np.log1p((x * fmid - below) / below) / _LN2)

    def closed(k: int) -> float:
        # log2 of (n-k+1)^2 / ((n-k)(n-k+2)) = 1 + 1 / ((n-k)(n-k+2))
        return math.log1p(1 / ((n - k) * (n - k + 2))) / _LN2 if k <= m else 0.0

    # a k-mer's infix, of length k - 2, is a node's label
    return _per_k(k1, k2, 2, terms, closed)


@_measure(1)
def calibrate_kmax(index: BwtIndex, tau: float, kcap: int):
    """Smallest k in [2..kcap] whose KL tail sum drops below tau."""
    tau = real(tau, "tau")
    if not tau > 0:
        raise InputError("tau must be positive")
    # the KL of k >= n is 0, so the tail at k = n is below tau
    kcap = min(integer(kcap, "kcap", 2), index.n)

    def smallest(kls: PerK) -> int:
        # the tail at k sums kls from k to kcap, added from kcap down
        return next((k for k, tail in enumerate(_tails(kls), 2) if tail < tau), kcap + 1)

    return kl_divergence_range.fold(index, 2, kcap).then(smallest)


@_measure(1)
def calibrate_kmin(index: BwtIndex, kcap: int):
    """The k in [1..kcap] maximizing distinct k-mers of frequency >= 2, the least on a tie."""
    # no k-mer with k >= n occurs twice
    kcap = min(integer(kcap, "kcap", 1), index.n)

    def most_repeated(profile: ProfileMatrix) -> int:
        # max keeps the first of equal keys
        return max(range(1, kcap + 1), key=lambda k: profile.cell(k, 2))

    return kmer_profile.fold(index, 1, kcap, 2, 2).then(most_repeated)
