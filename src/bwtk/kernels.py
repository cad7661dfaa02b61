"""Similarity and complexity measures, each a fold over one enumeration.

Every function here consumes VisitEvents from the enumeration module and
telescopes node contributions so that only true k-mer or substring loci
survive: a node adds its own term and subtracts one term per child edge,
and the strings that end on leaf edges are covered by closed-form
initializers. Frequencies come straight from interval widths, so integer
measures are computed in exact integer arithmetic.

The k-mer, substring and length-weighted kernels share one such fold,
_telescoped, which bins each node's integer terms by its depth; each kernel
is a reading of the bins. The k-mer kernel takes suffix sums (every k of a
sweep at once), uniform and band weights take integer coefficients, and
exponential weights take geometric sums scaled by each side's heaviest
length, so no epsilon needs a path of its own. Only per-character score
weights, which depend on the letters, scale a node's terms as they come.

Conventions shared with the brute-force reference: alphabets of measures
range over [1..sigma] (terminators are delivered by the enumerator but
filtered here), f(empty) = n-1 where a ratio needs it, and logarithms are
base 2.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .enumerate import (
    Repr,
    VisitEvent,
    _distinct_extensions,
    enumerate_generalized,
    enumerate_maximal_repeats,
    enumerate_right_maximal,
)
from .errors import BwtkError, ComputationError, InputError, ZeroDenominatorError
from .params import WeightSpec, ZScoreParams, markov_g, validate_probs
from .suffix import BwtIndex

__all__ = [
    "ProfileMatrix",
    "PairFold",
    "run_pair_folds",
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
    """Distinct k-mer counts by length and frequency, saturated at f2."""

    k1: int
    k2: int
    f1: int
    f2: int
    cells: list[list[int]]

    def cell(self, k: int, f: int) -> int:
        return self.cells[k - self.k1][f - self.f1]


def _letter_blocks(r: Repr) -> dict[int, int]:
    first = r.first
    return {
        b: first[i + 1] - first[i] for i, b in enumerate(r.chars) if b != 0
    }


def _pair_sums(one: Repr, two: Repr) -> tuple[int, int, int]:
    """(shared-letter width products, side-1 widths squared, side-2)."""
    c1, f1 = one.chars, one.first
    c2, f2 = two.chars, two.first
    s1 = 0
    for i in range(len(c1)):
        w = f1[i + 1] - f1[i]
        s1 += w * w
    s2 = 0
    for j in range(len(c2)):
        w = f2[j + 1] - f2[j]
        s2 += w * w
    cross = 0
    i = j = 0
    n1, n2 = len(c1), len(c2)
    while i < n1 and j < n2:
        a, b = c1[i], c2[j]
        if a == b:
            if a != 0:
                cross += (f1[i + 1] - f1[i]) * (f2[j + 1] - f2[j])
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return cross, s1, s2


def _maximal_sides(ev: VisitEvent) -> tuple[bool, bool]:
    """Whether a generalized node is a maximal repeat of text 1, of text 2.

    A side needs two right extensions and two left extensions there, the
    terminators included.
    """
    g = ev.repr
    rm1 = len(g.one.chars) >= 2
    rm2 = len(g.two.chars) >= 2
    if not (rm1 or rm2):
        return False, False
    lm1 = lm2 = 0
    for kid in ev.children:
        lm1 += kid.one.present
        lm2 += kid.two.present
    return rm1 and lm1 >= 2, rm2 and lm2 >= 2


def _union_letters(c1: tuple[int, ...], c2: tuple[int, ...]) -> list[int]:
    out = sorted(set(c1) | set(c2))
    return out[1:] if out and out[0] == 0 else out


def _cosine(num: float, d1: float, d2: float) -> float:
    if d1 <= 0 or d2 <= 0:
        raise ZeroDenominatorError("zero denominator: a side has zero norm")
    den = math.sqrt(d1 * d2)
    if not (math.isfinite(num) and 0.0 < den < math.inf):
        raise ComputationError("weighted sums outside the floating-point range")
    return num / den


# ---------------------------------------------------------------------------
# pair measures as folds over one generalized pass


class PairFold(NamedTuple):
    """One pair measure as a fold over an enumerate_generalized pass.

    visit(ev) runs at every node and never raises; finish() then returns the
    value or raises.
    """

    visit: Callable[[VisitEvent], None]
    finish: Callable[[], Any]


def run_pair_folds(index1: BwtIndex, index2: BwtIndex, calls) -> list:
    """Values of several pair measures from one generalized pass.

    calls lists tuples (setup, *args), setup being the fold set-up of a
    pair measure such as kmer_kernel.fold: setup(index1, index2, *args)
    validates its arguments and returns a PairFold. The result, or the error
    raised, is that of calling the measures one at a time in order: set-up
    stops at the first call that raises, the pass runs over the folds built
    before it, their finish() runs in order, and then the set-up error is
    raised.
    """
    visits = []
    finishes = []
    error = None
    for setup, *args in calls:
        try:
            visit, finish = setup(index1, index2, *args)
        except BwtkError as exc:
            error = exc
            break
        visits.append(visit)
        finishes.append(finish)
    if visits:

        def visitor(ev: VisitEvent) -> None:
            for visit in visits:
                visit(ev)

        enumerate_generalized(index1, index2, visitor)
    values = [finish() for finish in finishes]
    if error is not None:
        raise error
    return values


def _pair_measure(setup):
    """setup's measure, computed in a pass of its own; setup stays as .fold."""

    @functools.wraps(setup)
    def measure(index1: BwtIndex, index2: BwtIndex, *args, **kwargs):
        call = (functools.partial(setup, **kwargs), *args)
        return run_pair_folds(index1, index2, [call])[0]

    measure.fold = setup
    return measure


# ---------------------------------------------------------------------------
# k-mer measures


def kmer_complexity(index: BwtIndex, k: int) -> int:
    """Number of distinct k-mers over [1..sigma] occurring in the text."""
    if k < 1:
        raise InputError("k must be at least 1")
    # the saturated f >= 1 cell counts every distinct k-mer
    return kmer_profile(index, k, k, 1, 1).cells[0][0]


def _telescoped(lo: int, result, coef=None) -> PairFold:
    """Telescoped sums of f1 f2, f1^2 and f2^2 over substrings, binned by length.

    A node of depth d >= lo adds fo ft - cross, fo^2 - s1 and ft^2 - s2 (its
    own frequency products less those of its right extensions) into bin d
    of (num, den1, den2): exact integers, or times coef(ev) when given. For
    every length L >= lo, the sum of f1(U) f2(U) over the length-L
    substrings U is then the sum of num[d] over d >= L, and that of f1(U)^2
    is n1 - L plus the sum of den1[d] over d >= L (likewise for text 2).
    Every length weighting is a reading of these bins; finish() returns
    result(num, den1, den2).
    """
    num, den1, den2 = bins = ([0] * lo, [0] * lo, [0] * lo)

    def visit(ev: VisitEvent) -> None:
        d = ev.depth
        if d < lo:
            return
        if d == len(num):
            # the pass is depth-first: a node's parent, one level up, came first
            num.append(0)
            den1.append(0)
            den2.append(0)
        g = ev.repr
        one, two = g.one, g.two
        cross, s1, s2 = _pair_sums(one, two)
        fo = one.freq
        ft = two.freq
        c = 1 if coef is None else coef(ev)
        num[d] += c * (fo * ft - cross)
        den1[d] += c * (fo * fo - s1)
        den2[d] += c * (ft * ft - s2)

    return PairFold(visit, lambda: result(*bins))


@_pair_measure
def kmer_kernel_range(index1: BwtIndex, index2: BwtIndex, k1: int, k2: int):
    """Cosine of k-mer count vectors for every k in [k1..k2], one pass.

    Keys with an undefined kernel (a string with fewer than k symbols) are
    absent from the result.
    """
    if not 1 <= k1 <= k2:
        raise InputError("range must satisfy 1 <= k1 <= k2")
    n1, n2 = index1.n, index2.n

    def result(b_num: list, b_one: list, b_two: list) -> dict[int, float]:
        # length k reads the bins d >= k: sum them from the deepest up
        top = min(k2, n1 - 1, n2 - 1)
        num, den1, den2 = (sum(b[top + 1 :]) for b in (b_num, b_one, b_two))
        out: dict[int, float] = {}
        for k in range(top, k1 - 1, -1):
            if k < len(b_num):
                num += b_num[k]
                den1 += b_one[k]
                den2 += b_two[k]
            out[k] = _cosine(num, n1 - k + den1, n2 - k + den2)
        return out

    return _telescoped(k1, result)


@_pair_measure
def kmer_kernel(index1: BwtIndex, index2: BwtIndex, k: int):
    """Cosine of the k-mer count vectors."""
    fold = kmer_kernel_range.fold(index1, index2, k, k)

    def finish() -> float:
        values = fold.finish()
        if k not in values:
            raise ZeroDenominatorError(
                f"zero denominator: a string has fewer than k={k} symbols"
            )
        return values[k]

    return fold._replace(finish=finish)


def kmer_profile(
    index: BwtIndex, k1: int, k2: int, f1: int, f2: int
) -> ProfileMatrix:
    """Distinct k-mers per (length, frequency) cell.

    cells[k][f] counts k-mers occurring exactly f times for f < f2 and at
    least f2 times in the saturated last column.
    """
    if not (1 <= k1 <= k2 and 1 <= f1 <= f2):
        raise InputError("bounds must satisfy 1 <= k1 <= k2 and 1 <= f1 <= f2")
    rows = k2 - k1 + 1
    cols = f2 - f1 + 1
    diff = [[0] * cols for _ in range(rows)]

    def visit(ev: VisitEvent) -> None:
        d = ev.depth
        if d < k1:
            return
        row = diff[(d if d < k2 else k2) - k1]
        r = ev.repr
        f = r.freq
        col = f if f < f2 else f2
        if col >= f1:
            row[col - f1] += 1
        first = r.first
        for i in range(len(r.chars)):
            w = first[i + 1] - first[i]
            col = w if w < f2 else f2
            if col >= f1:
                row[col - f1] -= 1

    enumerate_right_maximal(index, visit)
    cells = [[0] * cols for _ in range(rows)]
    acc = [0] * cols
    for r in range(rows - 1, -1, -1):
        row = diff[r]
        for j in range(cols):
            acc[j] += row[j]
        cells[r] = acc.copy()
    if f1 == 1:
        n = index.n
        for k in range(k1, k2 + 1):
            if n - k > 0:
                cells[k - k1][0] += n - k
    return ProfileMatrix(k1, k2, f1, f2, cells)


def entropy_range(index: BwtIndex, k1: int, k2: int) -> list[float]:
    """Order-k empirical entropies H_k for k in [k1..k2], one pass.

    H_k averages, over text positions, the entropy of the follower-symbol
    distribution after each length-k context; the normalizer is n-1.
    """
    if not 0 <= k1 <= k2:
        raise InputError("range must satisfy 0 <= k1 <= k2")
    sums = [0.0] * (k2 - k1 + 1)
    log2 = math.log2

    def visit(ev: VisitEvent) -> None:
        d = ev.depth
        if d < k1 or d > k2:
            return
        r = ev.repr
        first = r.first
        widths = [
            first[i + 1] - first[i] for i, b in enumerate(r.chars) if b != 0
        ]
        if len(widths) < 2:
            return
        fr = sum(widths)
        sums[d - k1] += sum(w * log2(fr / w) for w in widths)

    # contexts longer than k2 are never read, so the pass stops at depth k2
    enumerate_right_maximal(index, visit, max_depth=k2)
    m = index.n - 1
    return [s / m for s in sums]


# ---------------------------------------------------------------------------
# substring measures


def substring_complexity(index: BwtIndex) -> int:
    """Number of distinct non-empty substrings over [1..sigma]."""
    n = index.n
    total = (n - 1) * n // 2

    def visit(ev: VisitEvent) -> None:
        nonlocal total
        d = ev.depth
        if d:
            total += d * (1 - len(ev.repr.chars))

    enumerate_right_maximal(index, visit)
    return total


@_pair_measure
def substring_kernel(index1: BwtIndex, index2: BwtIndex):
    """Cosine of the full substring-count vectors."""
    return weighted_substring_kernel.fold(index1, index2, WeightSpec("uniform"))


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
    """finish() of a length-based weight kind: its cosine read off the bins.

    With x_L the squared weight of length L, bin d counts toward every
    length L <= d and so weighs ps(d) = x_1 + ... + x_d, and text i adds the
    leaf sum of (n_i - L) x_L over 1 <= L < n_i = ns[i]. Band and uniform
    weights are 0 or 1, so their sums stay exact integers. Exponential sums
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
        kmin, kmax = (weights.kmin, weights.kmax) if band else (1, math.inf)

        def leaf(n: int) -> int:
            # the sum of n - L over kmin <= L <= min(kmax, n - 1)
            hi = min(kmax, n - 1)
            return (hi - kmin + 1) * (2 * n - kmin - hi) // 2 if hi >= kmin else 0

        leaves = [leaf(n) for n in ns]

        def weigh(bins: list, top: float) -> int:
            # every weight is 0 or 1, so no scale is needed
            return sum(
                b * (min(d, kmax) - kmin + 1) for d, b in enumerate(bins) if d >= kmin
            )

    else:
        # r < 1 is the squared-weight ratio from the heaviest length outward
        r = x if x < 1.0 else 1.0 / x
        if x < 1.0:
            leaves = [_leaf_sum(n, range(1, n), r) for n in ns]
        else:
            leaves = [_leaf_sum(n, range(n - 1, 0, -1), r) for n in ns]

        def weigh(bins: list, top: float) -> float:
            # ps(d) / x**top, a geometric sum over lengths 1..d
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


def _charscore_denominator(text: list[int], scores: tuple[float, ...]) -> float:
    tail = 0.0
    total = 0.0
    for sym in reversed(text):
        q = scores[sym - 1]
        tail = q * q * (1.0 + tail)
        total += tail
    return total


@_pair_measure
def weighted_substring_kernel(index1: BwtIndex, index2: BwtIndex, weights: WeightSpec):
    """Cosine of weighted substring vectors g(|W|) f(W) or q-product weights.

    The length-based kinds read the depth bins of the telescoping fold.
    charscore weights depend on the letters, so each node's terms are
    scaled by the sum of the squared weights of its label's prefixes, built
    from the parent's sum.
    """
    if index1.sigma != index2.sigma:
        raise InputError("alphabet mismatch between the two indexes")
    weights.validate(index1.sigma)
    ns = (index1.n, index2.n)
    if weights.kind != "charscore":
        return _telescoped(1, _length_reading(weights, ns))
    scores = weights.scores
    sq = [0.0] + [q * q for q in scores]
    path_sums = [0.0] * max(ns)

    def coef(ev: VisitEvent) -> float:
        # sum of squared prefix weights of aW from that of W, the last node
        # visited one level up (the pass is depth-first)
        d = ev.depth
        c = path_sums[d] = sq[ev._path[d - 1]] * (1.0 + path_sums[d - 1])
        return c

    leaves = (
        _charscore_denominator(index1.text, scores),
        _charscore_denominator(index2.text, scores),
    )

    def result(num: list, den1: list, den2: list) -> float:
        return _cosine(sum(num), leaves[0] + sum(den1), leaves[1] + sum(den2))

    return _telescoped(1, result, coef)


# ---------------------------------------------------------------------------
# centered k-mer distances


def _window_products(text: list[int], k: int, q: tuple[float, ...]):
    """q-products of every length-k window, periodically recomputed."""
    m = len(text)
    if m < k:
        return
    prod = 1.0
    for j in range(k):
        prod *= q[text[j] - 1]
    yield prod
    for i in range(1, m - k + 1):
        if i & 1023:
            prod = prod / q[text[i - 1] - 1] * q[text[i + k - 1] - 1]
        else:
            prod = 1.0
            for j in range(i, i + k):
                prod *= q[text[j] - 1]
        yield prod


def _d2_fold(index1: BwtIndex, index2: BwtIndex, k: int, q, phi, absent_coef):
    """Sum of phi(f1(W), f2(W), q(W)) over all k-mers W, absent ones in closed form."""
    total = 0.0
    q_present = 0.0
    for qw in _window_products(index1.text, k, q):
        total += phi(1, 0, qw)
        q_present += qw
    for qw in _window_products(index2.text, k, q):
        total += phi(0, 1, qw)
        q_present += qw

    def visit(ev: VisitEvent) -> None:
        nonlocal total, q_present
        d = ev.depth
        if d < k:
            return
        qk = 1.0
        path = ev._path
        for j in range(d - k, d):
            qk *= q[path[j] - 1]
        g = ev.repr
        one, two = g.one, g.two
        acc = phi(one.freq, two.freq, qk)
        edges = 0
        c1, f1 = one.chars, one.first
        c2, f2 = two.chars, two.first
        i = j = 0
        if i < len(c1) and c1[0] == 0:
            acc -= phi(f1[1] - f1[0], 0, qk)
            edges += 1
            i = 1
        if j < len(c2) and c2[0] == 0:
            acc -= phi(0, f2[1] - f2[0], qk)
            edges += 1
            j = 1
        while i < len(c1) or j < len(c2):
            a = c1[i] if i < len(c1) else None
            b = c2[j] if j < len(c2) else None
            if b is None or (a is not None and a < b):
                acc -= phi(f1[i + 1] - f1[i], 0, qk)
                i += 1
            elif a is None or b < a:
                acc -= phi(0, f2[j + 1] - f2[j], qk)
                j += 1
            else:
                acc -= phi(f1[i + 1] - f1[i], f2[j + 1] - f2[j], qk)
                i += 1
                j += 1
            edges += 1
        total += acc
        q_present += qk * (1 - edges)

    def finish() -> float:
        value = total + absent_coef * (1.0 - q_present)
        if not math.isfinite(value):
            raise ComputationError(
                f"k-mer probabilities too small at k={k}: the value is outside"
                " the floating-point range"
            )
        return value

    return PairFold(visit, finish)


def _d2_validate(index1: BwtIndex, index2: BwtIndex, k: int, q) -> tuple:
    if k < 1:
        raise InputError("k must be at least 1")
    if index1.sigma != index2.sigma:
        raise InputError("alphabet mismatch between the two indexes")
    q = tuple(float(v) for v in q)
    validate_probs(q, index1.sigma)
    if index1.n <= k or index2.n <= k:
        raise ZeroDenominatorError(
            f"zero denominator: a string has fewer than k={k} symbols"
        )
    return q, index1.n - k, index2.n - k


@_pair_measure
def d2s_distance(index1: BwtIndex, index2: BwtIndex, k: int, q):
    """Sum over all k-mers of t1 t2 / sqrt(t1^2 + t2^2) for centered counts.

    t_i(W) = f_i(W) - (n_i - k) q(W). Terms for k-mers absent from both
    strings are linear in q(W) and folded in as a closed-form correction.
    """
    q, e1, e2 = _d2_validate(index1, index2, k, q)

    def phi(x1: int, x2: int, qw: float) -> float:
        t1 = x1 - e1 * qw
        t2 = x2 - e2 * qw
        dd = t1 * t1 + t2 * t2
        if dd == 0.0:
            return 0.0
        return t1 * t2 / math.sqrt(dd)

    coef = e1 * e2 / math.sqrt(e1 * e1 + e2 * e2)
    return _d2_fold(index1, index2, k, q, phi, coef)


@_pair_measure
def d2star_distance(index1: BwtIndex, index2: BwtIndex, k: int, q):
    """Sum over all k-mers of t1 t2 / (sqrt((n1-k)(n2-k)) q(W))."""
    q, e1, e2 = _d2_validate(index1, index2, k, q)
    scale = math.sqrt(e1 * e2)
    tiny = sys.float_info.min

    def phi(x1: int, x2: int, qw: float) -> float:
        # with one count 0, q(W) cancels: an underflowing q-product is harmless
        if not x2:
            return -(x1 - e1 * qw) * e2 / scale
        if not x1:
            return -(x2 - e2 * qw) * e1 / scale
        if qw < tiny:
            # 1/q(W) leaves the float range (or 0 divides); finish() raises
            return math.nan
        return (x1 - e1 * qw) * (x2 - e2 * qw) / (scale * qw)

    return _d2_fold(index1, index2, k, q, phi, scale)


# ---------------------------------------------------------------------------
# minimal absent words


def _maw_fold(index: BwtIndex, emit) -> None:
    """Call emit(ev, a, bs) once per left letter a of each maximal repeat W.

    bs lists, ascending, the right letters b of W with a W b absent from the
    text: each a W b is a minimal absent word (MAW), and only maximal
    repeats can be MAW infixes. Left letters a with no such b are skipped.
    """

    def visit(ev: VisitEvent) -> None:
        letters = [b for b in ev.repr.chars if b != 0]
        lefts = ev.lefts
        kids = ev.children
        for i in range(len(lefts)):
            a = lefts[i]
            if a == 0:
                continue
            have = set(kids[i].chars)
            bs = [b for b in letters if b not in have]
            if bs:
                emit(ev, a, bs)

    enumerate_maximal_repeats(index, visit)


def maw_count(index: BwtIndex) -> int:
    """Number of minimal absent words a W b with letter a, b."""
    total = 0

    def emit(ev: VisitEvent, a: int, bs: list[int]) -> None:
        nonlocal total
        total += len(bs)

    _maw_fold(index, emit)
    return total


def maw_enumerate(index: BwtIndex, visitor) -> int:
    """Fire visitor(a, sp, ep, depth, b) per MAW a W b; returns the count.

    (sp, ep) is the suffix-row interval of the infix W and depth is |W|.
    """
    count = 0

    def emit(ev: VisitEvent, a: int, bs: list[int]) -> None:
        nonlocal count
        sp, ep = ev.repr.interval()
        for b in bs:
            visitor(a, sp, ep, ev.depth, b)
        count += len(bs)

    _maw_fold(index, emit)
    return count


def maw_words(index: BwtIndex) -> list[tuple[int, ...]]:
    """All minimal absent words as symbol tuples, in traversal order."""
    out: list[tuple[int, ...]] = []

    def emit(ev: VisitEvent, a: int, bs: list[int]) -> None:
        head = (a,) + ev.label()
        out.extend(head + (b,) for b in bs)

    _maw_fold(index, emit)
    return out


def _maw_pair_fold(result) -> PairFold:
    """Fold whose finish() is result(|MAW(T1)|, |MAW(T2)|, |intersection|)."""
    c1 = c2 = inter = 0

    def visit(ev: VisitEvent) -> None:
        nonlocal c1, c2, inter
        mr1, mr2 = _maximal_sides(ev)
        if not (mr1 or mr2):
            return
        g = ev.repr
        ch1, ch2 = g.one.chars, g.two.chars
        kids = ev.children
        letters1 = [b for b in ch1 if b != 0]
        letters2 = [b for b in ch2 if b != 0]
        shared = [b for b in letters1 if b in letters2]
        lefts = ev.lefts
        for i in range(len(lefts)):
            if lefts[i] == 0:
                continue
            kid = kids[i]
            have1 = set(kid.one.chars)
            have2 = set(kid.two.chars)
            if mr1 and kid.one.present:
                c1 += sum(1 for b in letters1 if b not in have1)
            if mr2 and kid.two.present:
                c2 += sum(1 for b in letters2 if b not in have2)
            if mr1 and mr2 and kid.one.present and kid.two.present:
                inter += sum(
                    1 for b in shared if b not in have1 and b not in have2
                )

    return PairFold(visit, lambda: result(c1, c2, inter))


@_pair_measure
def maw_jaccard(index1: BwtIndex, index2: BwtIndex):
    """Jaccard similarity of the two MAW sets; empty-empty counts as 1."""

    def jaccard(c1: int, c2: int, inter: int) -> float:
        union = c1 + c2 - inter
        if union == 0:
            return 1.0
        return inter / union

    return _maw_pair_fold(jaccard)


@_pair_measure
def maw_cosine(index1: BwtIndex, index2: BwtIndex):
    """Cosine of the binary MAW indicator vectors; empty-empty is 1."""

    def cosine(c1: int, c2: int, inter: int) -> float:
        if c1 == 0 and c2 == 0:
            return 1.0
        if c1 == 0 or c2 == 0:
            raise ZeroDenominatorError("zero denominator: one MAW set is empty")
        return inter / math.sqrt(c1 * c2)

    return _maw_pair_fold(cosine)


# ---------------------------------------------------------------------------
# Markovian z-score kernel


@_pair_measure
def markov_kernel(index1: BwtIndex, index2: BwtIndex, params: ZScoreParams):
    """Cosine of z-score vectors over strings a W b with letter a, b.

    z is g f(aWb) f(W) / (f(aW) f(Wb)) - 1 for occurring strings and -1 at
    minimal absent words. Nontrivial terms arise only where the infix W is
    a maximal repeat of a side; in exact-g mode the residual (g-1) baseline
    of every other occurring string is folded in through per-length prefix
    sums, exactly mirrored by a (g1-1)(g2-1) subtraction on shared terms.
    """
    params.validate()
    if index1.sigma != index2.sigma:
        raise InputError("alphabet mismatch between the two indexes")
    n1, n2 = index1.n, index2.n
    m1, m2 = n1 - 1, n2 - 1
    exact = params.g_mode == "exact"
    if exact:
        g1a = [1.0, 1.0] + [markov_g(n1, j) for j in range(2, n1 + 1)]
        g2a = [1.0, 1.0] + [markov_g(n2, j) for j in range(2, n2 + 1)]
        ps1 = [0.0] * (n1 + 1)
        for j in range(2, n1 + 1):
            ps1[j] = ps1[j - 1] + (g1a[j] - 1.0) ** 2
        ps2 = [0.0] * (n2 + 1)
        for j in range(2, n2 + 1):
            ps2[j] = ps2[j - 1] + (g2a[j] - 1.0) ** 2
        limit = min(n1, n2)
        psb = [0.0] * (limit + 1)
        for j in range(2, limit + 1):
            psb[j] = psb[j - 1] + (g1a[j] - 1.0) * (g2a[j] - 1.0)
        den1 = sum(ps1[0:n1])
        den2 = sum(ps2[0:n2])
    else:
        g1a = g2a = ps1 = ps2 = psb = None
        den1 = den2 = 0.0
    num = 0.0

    def visit(ev: VisitEvent) -> None:
        nonlocal num, den1, den2
        d = ev.depth
        g = ev.repr
        one, two = g.one, g.two
        ch1, ch2 = one.chars, two.chars
        if exact:
            if one.present:
                den1 += ps1[d] * (1 - len(ch1))
            if two.present:
                den2 += ps2[d] * (1 - len(ch2))
            if one.present and two.present:
                shared = len(ch1) + len(ch2) - _distinct_extensions(ch1, ch2)
                num += psb[d] * (1 - shared)
        mr1, mr2 = _maximal_sides(ev)
        if not (mr1 or mr2):
            return
        kids = ev.children
        if exact:
            g1v = g1a[d + 2] if d + 2 <= n1 else 1.0
            g2v = g2a[d + 2] if d + 2 <= n2 else 1.0
            base_n = (g1v - 1.0) * (g2v - 1.0)
            base_1 = (g1v - 1.0) ** 2
            base_2 = (g2v - 1.0) ** 2
        else:
            g1v = g2v = 1.0
            base_n = base_1 = base_2 = 0.0
        f1 = one.freq if d else m1
        f2 = two.freq if d else m2
        w1 = _letter_blocks(one)
        w2 = _letter_blocks(two)
        letters = _union_letters(ch1, ch2)
        lefts = ev.lefts
        for i in range(len(lefts)):
            if lefts[i] == 0:
                continue
            kid = kids[i]
            fa1 = kid.one.freq
            fa2 = kid.two.freq
            x1d = _letter_blocks(kid.one)
            x2d = _letter_blocks(kid.two)
            for b in letters:
                wb1 = w1.get(b, 0)
                wb2 = w2.get(b, 0)
                x1 = x1d.get(b, 0)
                x2 = x2d.get(b, 0)
                z1 = g1v * (x1 * f1 / (fa1 * wb1)) - 1.0 if x1 else None
                z2 = g2v * (x2 * f2 / (fa2 * wb2)) - 1.0 if x2 else None
                if z1 is not None:
                    if z2 is not None:
                        num += z1 * z2 - base_n
                    elif fa2 and wb2:
                        num -= z1
                elif z2 is not None:
                    if fa1 and wb1:
                        num -= z2
                elif fa1 and wb1 and fa2 and wb2:
                    num += 1.0
                if mr1 and fa1:
                    if z1 is not None:
                        den1 += z1 * z1 - base_1
                    elif wb1:
                        den1 += 1.0
                if mr2 and fa2:
                    if z2 is not None:
                        den2 += z2 * z2 - base_2
                    elif wb2:
                        den2 += 1.0

    return PairFold(visit, lambda: _cosine(num, den1, den2))


# ---------------------------------------------------------------------------
# relative entropy and calibration


def kl_divergence_range(index: BwtIndex, k1: int, k2: int) -> list[float]:
    """KL divergence of k-mer probabilities from their Markov estimate.

    p(X) = f(X)/(n-k) against p(pre) p(suf) / p(mid) with each factor
    normalized by its own (n - length). Ratio terms differ from 1 only when
    the infix is a maximal repeat; all other k-mers contribute the length
    normalizer G(k), added in closed form. k beyond the text length gives 0.
    """
    if not 2 <= k1 <= k2:
        raise InputError("range must satisfy 2 <= k1 <= k2")
    n = index.n
    m = n - 1
    log2 = math.log2
    out = [0.0] * (k2 - k1 + 1)
    for k in range(k1, k2 + 1):
        if k <= m:
            out[k - k1] = log2((n - k + 1) ** 2 / ((n - k) * (n - k + 2)))

    def visit(ev: VisitEvent) -> None:
        d = ev.depth
        k = d + 2
        if k < k1 or k > k2 or k > m:
            return
        r = ev.repr
        fmid = r.freq if d else m
        blocks = _letter_blocks(r)
        denom = n - k
        slot = k - k1
        lefts = ev.lefts
        kids = ev.children
        for i in range(len(lefts)):
            if lefts[i] == 0:
                continue
            kid = kids[i]
            fa = kid.freq
            first = kid.first
            for j, b in enumerate(kid.chars):
                if b == 0:
                    continue
                x = first[j + 1] - first[j]
                out[slot] += (x / denom) * log2(x * fmid / (fa * blocks[b]))

    # a k-mer's infix has length k - 2 <= k2 - 2; deeper nodes add nothing
    enumerate_maximal_repeats(index, visit, max_depth=k2 - 2)
    return out


def calibrate_kmax(index: BwtIndex, tau: float, kcap: int) -> int:
    """Smallest k in [2..kcap] whose KL tail sum drops below tau."""
    if not tau > 0:
        raise InputError("tau must be positive")
    if kcap < 2:
        raise InputError("kcap must be at least 2")
    kls = kl_divergence_range(index, 2, kcap)
    tail = 0.0
    tails = [0.0] * (kcap + 1)
    for k in range(kcap, 1, -1):
        tail += kls[k - 2]
        tails[k] = tail
    for k in range(2, kcap + 1):
        if tails[k] < tau:
            return k
    return kcap + 1


def calibrate_kmin(index: BwtIndex, kcap: int) -> int:
    """The k in [1..kcap] maximizing distinct k-mers of frequency >= 2."""
    if kcap < 1:
        raise InputError("kcap must be at least 1")
    profile = kmer_profile(index, 1, kcap, 2, 2)
    best_k = 1
    best = -1
    for k in range(1, kcap + 1):
        count = profile.cells[k - 1][0]
        if count > best:
            best = count
            best_k = k
    return best_k
