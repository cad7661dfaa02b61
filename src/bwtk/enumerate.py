"""Depth-first enumeration of right-maximal substrings over one or two BWTs.

A substring W is represented without its label: repr(W) stores the sorted
right-extension symbols chars = (b_1 < ... < b_k) and interval boundaries
first, so that the suffix rows of W b_i are [first[i] .. first[i+1]-1] and
the rows of W itself are [first[0] .. first[-1]-1]. Left extension converts
repr(W) into repr(aW) for every symbol a preceding W at once, using one
wavelet-tree descent that ranks the k+1 boundaries of repr(W) together:
aW continues with b_i exactly where the rank of a rises across block i.

One depth-first loop, _traverse, serves every enumeration. A per-kind step
turns a node's repr into its left symbols, its children and the children to
push: the letter extensions that are right-maximal again. The loop pushes
them widest interval first so the narrowest pops first, which keeps the
stack at O(sigma log n) frames. A single-string pass may stop at a depth
bound: measures that read only short contexts skip the deeper nodes. The single-string step works on Repr; the
two-string step works on GenRepr and walks the generalized suffix tree of
the pair, where the two terminators count as distinct right extensions, so
a string followed by the end of both texts is right-maximal even when no
letter follows it.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import InputError
from .suffix import BwtIndex

__all__ = [
    "Repr",
    "GenRepr",
    "VisitEvent",
    "ABSENT",
    "extend_left",
    "extend_left_generalized",
    "enumerate_right_maximal",
    "enumerate_maximal_repeats",
    "enumerate_generalized",
]


class Repr:
    __slots__ = ("chars", "first")

    def __init__(self, chars: tuple[int, ...], first: tuple[int, ...]) -> None:
        self.chars = chars
        self.first = first

    @property
    def present(self) -> bool:
        return self.first[0] != 0

    @property
    def freq(self) -> int:
        return self.first[-1] - self.first[0]

    def interval(self) -> tuple[int, int]:
        return self.first[0], self.first[-1] - 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"Repr(chars={self.chars}, first={self.first})"


ABSENT = Repr((), (0,))


class GenRepr:
    """Per-string pair of representations; an absent side is ABSENT."""

    __slots__ = ("one", "two")

    def __init__(self, one: Repr, two: Repr) -> None:
        self.one = one
        self.two = two

    @property
    def freq(self) -> int:
        return self.one.freq + self.two.freq

    def __repr__(self) -> str:  # pragma: no cover
        return f"GenRepr({self.one!r}, {self.two!r})"


class VisitEvent:
    """One enumeration callback: the node plus all its left extensions.

    lefts[i] is a symbol a (possibly 0) preceding an occurrence of W and
    children[i] is repr(a W), in ascending symbol order. The event object is
    reused between visits; do not retain it.
    """

    __slots__ = ("depth", "repr", "lefts", "children", "_path")

    def __init__(self) -> None:
        self.depth = 0
        self.repr: Repr | GenRepr | None = None
        self.lefts: list[int] = []
        self.children: list = []
        self._path: list[int] = []

    def label(self) -> tuple[int, ...]:
        """The node string; _path[d-1] is the symbol prepended at depth d."""
        d = self.depth
        path = self._path
        return tuple(path[d - 1 - j] for j in range(d))


def _root_repr(index: BwtIndex) -> Repr:
    c = index.c
    chars = []
    first = []
    for a in range(index.sigma + 1):
        if c[a + 1] > c[a]:
            chars.append(a)
            first.append(c[a] + 1)
    first.append(index.n + 1)
    return Repr(tuple(chars), tuple(first))


def _extend(descend, c, r: Repr) -> tuple[list[int], list[Repr]]:
    """All (a, repr(aW)) from repr(W), symbols ascending, from one descent.

    descend ranks the boundaries first[i] - 1 of every block of W for each
    symbol a at once; aW continues with b_i exactly where a's rank rises
    across block i, and its rows start at c[a] + rank + 1.
    """
    chars = r.chars
    bounds = []
    for f in r.first:
        bounds.append(f - 1)
    lefts = []
    kids = []
    for a, ranks in descend(bounds):
        base = c[a] + 1
        lo = ranks[0]
        hi = ranks[-1]
        # the first block where the rank rises; the usual case is the only one
        i = bisect_right(ranks, lo)
        if ranks[i] == hi:
            kid = Repr((chars[i - 1],), (base + lo, base + hi))
        else:
            out_chars = []
            out_first = [base + lo]
            for b, x in zip(chars, ranks[1:]):
                if x > lo:
                    out_chars.append(b)
                    out_first.append(base + x)
                    lo = x
            kid = Repr(tuple(out_chars), tuple(out_first))
        lefts.append(a)
        kids.append(kid)
    return lefts, kids


def _check_repr(index: BwtIndex, r: Repr) -> None:
    """Reject a repr whose boundaries are not increasing rows in [1..n+1]."""
    first = r.first
    if not (
        len(first) == len(r.chars) + 1 >= 2
        and 1 <= first[0]
        and first[-1] <= index.n + 1
        and all(x < y for x, y in zip(first, first[1:]))
    ):
        raise InputError("malformed representation")


def extend_left(index: BwtIndex, r: Repr) -> list[tuple[int, Repr]]:
    """One entry per distinct symbol preceding W, with repr(aW)."""
    _check_repr(index, r)
    lefts, kids = _extend(index.ranks._descend, index.c, r)
    return list(zip(lefts, kids))


def extend_left_generalized(
    index1: BwtIndex, index2: BwtIndex, g: GenRepr
) -> list[tuple[int, GenRepr]]:
    if not (g.one.present or g.two.present):
        raise InputError("malformed representation: both sides absent")
    for index, r in ((index1, g.one), (index2, g.two)):
        if r.present:
            _check_repr(index, r)
    lefts, kids, _ = _generalized_step(index1, index2)(g)
    return list(zip(lefts, kids))


def _distinct_extensions(c1: tuple[int, ...], c2: tuple[int, ...]) -> int:
    """Distinct right-extension events, the two terminators kept apart."""
    count = 0
    i = 1 if c1 and c1[0] == 0 else 0
    j = 1 if c2 and c2[0] == 0 else 0
    count += i + j
    n1, n2 = len(c1), len(c2)
    while i < n1 and j < n2:
        a, b = c1[i], c2[j]
        count += 1
        if a <= b:
            i += 1
        if b <= a:
            j += 1
    count += (n1 - i) + (n2 - j)
    return count


def _single_step(index: BwtIndex):
    descend = index.ranks._descend
    c = index.c

    def step(r: Repr):
        lefts, kids = _extend(descend, c, r)
        push = []
        for i in range(len(lefts)):
            if lefts[i] != 0 and len(kids[i].chars) >= 2:
                push.append(i)
        return lefts, kids, push

    return step


def _generalized_step(index1: BwtIndex, index2: BwtIndex):
    descend1, c1 = index1.ranks._descend, index1.c
    descend2, c2 = index2.ranks._descend, index2.c

    def step(g: GenRepr):
        one = dict(zip(*_extend(descend1, c1, g.one))) if g.one.present else {}
        two = dict(zip(*_extend(descend2, c2, g.two))) if g.two.present else {}
        lefts = sorted(one.keys() | two.keys())
        kids = []
        push = []
        for i, a in enumerate(lefts):
            kid = GenRepr(one.get(a, ABSENT), two.get(a, ABSENT))
            kids.append(kid)
            if a != 0 and _distinct_extensions(kid.one.chars, kid.two.chars) >= 2:
                push.append(i)
        return lefts, kids, push

    return step


def _traverse(
    indexes, root, step, visitor, fire_all: bool, stats, max_depth=None
) -> int:
    """The one depth-first loop; returns the number of visitor calls.

    Nodes deeper than max_depth are never pushed, so a bounded pass visits
    the nodes of depth <= max_depth of the unbounded pass in the same order,
    each with all its left symbols and children.
    """
    for index in indexes:
        index.enumerations += 1
    last = math.inf if max_depth is None else max_depth
    ev = VisitEvent()
    path = ev._path
    stack = [(root, 0, 0)]
    visits = 0
    fired = 0
    peak = 1
    while stack:
        r, depth, a = stack.pop()
        if depth:
            if len(path) < depth:
                path.extend([0] * (depth - len(path)))
            path[depth - 1] = a
        lefts, kids, push = step(r)
        visits += 1
        if fire_all or len(lefts) >= 2:
            fired += 1
            ev.depth = depth
            ev.repr = r
            ev.lefts = lefts
            ev.children = kids
            visitor(ev)
        if push and depth < last:
            if len(push) > 1:
                push.sort(key=lambda i: kids[i].freq, reverse=True)
            nd = depth + 1
            for i in push:
                stack.append((kids[i], nd, lefts[i]))
            if len(stack) > peak:
                peak = len(stack)
    if stats is not None:
        stats["visits"] = visits
        stats["peak_frames"] = peak
    return fired


def enumerate_right_maximal(
    index: BwtIndex,
    visitor,
    *,
    stats: dict | None = None,
    max_depth: int | None = None,
) -> int:
    """Visit every right-maximal substring of T, the empty string included.

    With max_depth, only those of length at most max_depth. Returns the
    visit count.
    """
    root = _root_repr(index)
    step = _single_step(index)
    return _traverse((index,), root, step, visitor, True, stats, max_depth)


def enumerate_maximal_repeats(
    index: BwtIndex,
    visitor,
    *,
    stats: dict | None = None,
    max_depth: int | None = None,
) -> int:
    """As enumerate_right_maximal, but fire only at left-maximal nodes.

    Left-maximality asks for at least two distinct preceding symbols, the
    terminator included. Returns the number of visitor invocations.
    """
    root = _root_repr(index)
    step = _single_step(index)
    return _traverse((index,), root, step, visitor, False, stats, max_depth)


def enumerate_generalized(
    index1: BwtIndex, index2: BwtIndex, visitor, *, stats: dict | None = None
) -> int:
    """Visit the internal nodes of the generalized suffix tree of the pair.

    A node is any string right-maximal when the two texts' terminators count
    as distinct extensions. Terminator left-extensions are delivered but
    never pushed: strings through a terminator exist only by the circular
    convention and are not substrings of either text.
    """
    if index1.sigma != index2.sigma:
        raise InputError("alphabet mismatch between the two indexes")
    root = GenRepr(_root_repr(index1), _root_repr(index2))
    step = _generalized_step(index1, index2)
    return _traverse((index1, index2), root, step, visitor, True, stats)
