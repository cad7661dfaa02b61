"""Enumeration of right-maximal substrings over one or two BWTs.

A substring W is represented without its label: repr(W) stores the sorted
right-extension symbols chars = (b_1 < ... < b_k) and interval boundaries
first, so that the suffix rows of W b_i are [first[i] .. first[i+1]-1] and
the rows of W itself are [first[0] .. first[-1]-1]. Left extension converts
repr(W) into repr(aW) for every symbol a preceding W at once, using one
wavelet-tree descent that ranks the k+1 boundaries of repr(W) together:
aW continues with b_i exactly where the rank of a rises across block i.

One engine walks the tree: batched_pass takes same-depth nodes a batch at a
time, each batch held in flat NumPy arrays (Side, Batch), and extends all
of them with one wavelet descent that ranks every boundary of the batch per
wavelet node (RankIndex.descend). It goes depth-first over batches and
splits a batch past _CAP boundaries, lightest piece first. Below the split
depths most batches are small, so a batch under half the cap waits, parked
with the others of its depth, until they are merged into one batch: each
depth then costs about one batch, not one per split piece. Between two
visits the parked batches hold at most twice the cap; each pass reports
its peak of pending boundaries, which the tests hold to sigma log2 n times
the cap. A pass may stop at a depth bound, so that measures that read only
short contexts skip the deeper nodes.

No node keeps its label or a link to its parent. A label is read from T
when asked for: psi takes a suffix row to the row one symbol on, so heads
walks it from a node's first row. A fold that builds a value from the
parent's carries it on the batch (Batch.carry), per node, and the pass
moves it with the nodes into their kids, pieces and merged batches.

The per-node API reads the same pass. enumerate_* call a visitor with a
VisitEvent, a view of one node of the current batch, in pass order: batch
by batch, then node by node within a batch. The order is deterministic,
but which batch a node falls in depends on the cap, so only the multiset
of nodes is the same at every cap. extend_left* extend one repr as a
one-node batch, through the same _extend_batch.

A pair pass walks the generalized suffix tree of the two texts, where the
two terminators count as distinct right extensions, so a string followed by
the end of both texts is right-maximal even when no letter follows it.
"""

from __future__ import annotations

import math

import numpy as np

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
    "Side",
    "Batch",
    "batched_pass",
    "heads",
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


# ---------------------------------------------------------------------------
# the batched engine

_CAP = 2**14  # boundaries per batch before it is split


class Side:
    """One text's half of a batch: its nodes as flat arrays.

    bd holds every node's boundaries first - 1 (BWT positions), nb[j] of
    them for node j in node order, and node j's blocks are the row ranges
    between consecutive boundaries; ch gives each block's right symbol,
    ascending within a node. A node that does not occur in the text has one
    boundary and no block. Derived: end (cumulative nb), freq per node, and
    w (width) and node (owner) per block.
    """

    __slots__ = ("bd", "nb", "ch", "end", "freq", "_w", "_node")

    def __init__(self, bd: np.ndarray, nb: np.ndarray, ch: np.ndarray) -> None:
        self.bd = bd
        self.nb = nb
        self.ch = ch
        self.end = end = nb.cumsum()
        self.freq = bd[end - 1] - bd[end - nb]
        # per-block arrays are made when first read, not while a batch waits
        self._w = self._node = None

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            inside = np.ones(max(self.bd.size - 1, 0), dtype=bool)
            inside[self.end[:-1] - 1] = False
            self._w = np.diff(self.bd)[inside]
        return self._w

    @property
    def node(self) -> np.ndarray:
        if self._node is None:
            self._node = np.arange(self.nb.size).repeat(self.nb - 1)
        return self._node

    def take(self, rows: np.ndarray) -> Side:
        """The nodes where the boolean mask rows is set."""
        return Side(
            self.bd[rows.repeat(self.nb)],
            self.nb[rows],
            self.ch[rows.repeat(self.nb - 1)],
        )


class Batch:
    """Same-depth nodes of a batched pass, with every left extension.

    sides[i] holds the nodes in text i. The kids are every (node, a) with aW
    occurring in some text, ordered by a and then by node: kid_node[r] is
    the node, kid_sym[r] the symbol a, kid_sides[i] the children aW in text
    i, and kid_blk[i] the block of the node that each child block lies in
    (aWb occurs only where Wb does). For a pair, match (derived when first
    read) and kid_match are the index arrays of the blocks of text 1 and of
    text 2 that carry the same letter in the same node; terminators never
    match. shared holds what several folds of one pass derive from the
    batch, computed once. carry maps a fold's key to a tuple of per-node
    arrays: on entry they hold each node's parent's values, and the fold
    replaces them with the node's own for the kids to read.
    """

    __slots__ = (
        "depth", "sides", "carry", "shared",
        "kid_node", "kid_sym", "kid_sides", "kid_blk", "kid_match",
    )

    def __init__(self, depth: int, sides: tuple[Side, ...], carry: dict | None = None) -> None:
        self.depth = depth
        self.sides = sides
        self.carry: dict = {} if carry is None else carry
        self.shared: dict = {}

    def derive(self, fn):
        """fn(self), computed by the first fold that asks for it."""
        if fn not in self.shared:
            self.shared[fn] = fn(self)
        return self.shared[fn]

    @property
    def match(self) -> tuple[np.ndarray, np.ndarray]:
        return self.derive(_sides_match)

    @property
    def size(self) -> int:
        """Boundaries held."""
        return sum(side.bd.size for side in self.sides)


def heads(codes: np.ndarray, psi: np.ndarray, rows: np.ndarray, k: int):
    """The int64 arrays of W[0], W[1], .., W[k-1] over nodes W of depth >= k.

    rows holds a suffix row (0-based) of each W in the text whose BWT is
    codes, and psi is that text's BwtIndex.psi(): the suffix at the row
    starts with W, and psi steps it one symbol on.
    """
    for _ in range(k):
        rows = psi[rows]
        yield codes[rows].astype(np.int64)


def first_rows(batch: Batch, nodes=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Per node, its first suffix row (0-based) and whether that row is text 2's.

    The row is bd[end - nb], in text 1 where the node occurs there and in
    text 2 otherwise. nodes, an index or index array, selects some nodes.
    """
    one = batch.sides[0]
    two = one.freq[nodes] == 0
    rows = one.bd[one.end[nodes] - one.nb[nodes]]
    if len(batch.sides) > 1:
        # an absent node holds one boundary, 0, so both reads stay in range
        other = batch.sides[1]
        rows = np.where(two, other.bd[other.end[nodes] - other.nb[nodes]], rows)
    return rows, two


def _match(one: Side, two: Side) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of one and two with the same letter in the same node."""
    l1 = one.ch.nonzero()[0]
    l2 = two.ch.nonzero()[0]
    if not (l1.size and l2.size):
        return l1[:0], l2[:0]
    width = int(max(one.ch[l1].max(), two.ch[l2].max())) + 1
    k1 = one.node[l1] * width + one.ch[l1]
    k2 = two.node[l2] * width + two.ch[l2]
    at = np.minimum(np.searchsorted(k2, k1), k2.size - 1)
    hit = k2[at] == k1
    return l1[hit], l2[at[hit]]


def _check_keys(indexes) -> None:
    """Reject a pair whose packed (symbol, node) keys could overflow int64.

    A batch's nodes, and its kids, number at most n1 + n2, so the keys of
    _match and _extend_batch stay below (largest code + 1) (n1 + n2).
    """
    top = max(int(index.syms[-1]) for index in indexes) + 1
    if top * sum(index.n for index in indexes) >= 2**63:
        raise InputError("symbol codes too large for a pair: (largest + 1) (n1 + n2) >= 2**63")


def _sides_match(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    return _match(*batch.sides)


def _side_kids(side: Side, index: BwtIndex):
    """(node, sym, bd, nb, ch, blk) of every left extension in one text.

    One descent ranks all boundaries of the nodes that occur in the text.
    For symbol a, aW continues with W's block b exactly where a's rank rises
    across it, so the child keeps the node's first boundary and the end of
    every block where the rank rises, each shifted to a's rows by C[a];
    blk gives the node's block that each child block lies in.
    """
    occurs = side.freq > 0
    live = occurs.nonzero()[0]
    if not live.size:
        empty = live[:0]
        return empty, empty, empty, empty, empty, empty
    x, nb = side.bd, side.nb
    if live.size < nb.size:
        x, nb = x[occurs.repeat(nb)], nb[live]
    syms, ids, nbs, ranks = index.ranks.descend(x, nb)
    per = [i.size for i in ids]
    sym = np.repeat(np.array(syms, dtype=np.int64), per)
    base = index.c[np.searchsorted(index.syms, syms)]
    node = live[np.concatenate(ids)]
    knb = np.concatenate(nbs)
    r = np.concatenate(ranks) + np.repeat(base, per).repeat(knb)
    end = knb.cumsum()
    beg = end - knb
    rise = np.empty(r.size, dtype=bool)
    np.greater(r[1:], r[:-1], out=rise[1:])
    rise[beg] = False  # beg[0] is 0
    keep = rise.copy()
    keep[beg] = True
    count = keep.cumsum()
    cnb = count[end - 1] - count[beg] + 1
    # a rise at the node's (t+1)-th boundary ends its t-th block
    shift = side.end[node] - side.nb[node] - node - 1 - beg
    blk = rise.nonzero()[0] + shift.repeat(knb)[rise]
    return node, sym, r[keep], cnb, side.ch[blk], blk


def _spread(bd: np.ndarray, nb: np.ndarray, at: np.ndarray, rows: int):
    """Boundaries of nodes placed at rows at of rows; the other rows absent."""
    if nb.size == rows:
        return bd, nb
    out_nb = np.ones(rows, dtype=np.int64)
    out_nb[at] = nb
    end = out_nb.cumsum()
    out = np.zeros(int(end[-1]), dtype=np.int64)
    out[(end[at] - nb.cumsum()).repeat(nb) + np.arange(bd.size)] = bd
    return out, out_nb


def _extend_batch(batch: Batch, indexes) -> None:
    """Fill in the batch's kids, one descent per text."""
    parts = [_side_kids(side, index) for side, index in zip(batch.sides, indexes)]
    if len(parts) == 1:
        node, sym, bd, nb, ch, blk = parts[0]
        batch.kid_node, batch.kid_sym = node, sym
        batch.kid_sides, batch.kid_blk = (Side(bd, nb, ch),), (blk,)
        return
    count = batch.sides[0].nb.size
    keys = [sym * count + node for node, sym, *_ in parts]
    rows = keys[0]
    if not np.array_equal(rows, keys[1]):
        # a merge of two sorted runs, then one copy of each key
        rows = np.sort(np.concatenate(keys), kind="stable")
        rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
    batch.kid_node = rows % count
    batch.kid_sym = rows // count
    batch.kid_sides = tuple(
        Side(*_spread(bd, nb, np.searchsorted(rows, key), rows.size), ch)
        for (_, _, bd, nb, ch, _), key in zip(parts, keys)
    )
    batch.kid_blk = tuple(part[5] for part in parts)
    batch.kid_match = _match(*batch.kid_sides)


def _gather(carry: dict, rows: np.ndarray) -> dict:
    """carry's per-node arrays at rows, a mask or an index array of nodes."""
    return {key: tuple(a[rows] for a in arrays) for key, arrays in carry.items()}


def _next_batch(batch: Batch) -> Batch | None:
    """The kids to visit next: letter extensions that are right-maximal."""
    sides = batch.kid_sides
    push = batch.kid_sym != 0
    if len(sides) == 1:
        push &= sides[0].nb >= 3
    else:
        one, two = sides
        shared = np.bincount(one.node[batch.kid_match[0]], minlength=one.nb.size)
        # distinct right extensions, the two terminators apart
        push &= one.nb + two.nb - 2 - shared >= 2
    if not np.count_nonzero(push):
        return None
    # each kid starts from its parent node's values
    carry = _gather(batch.carry, batch.kid_node[push]) if batch.carry else {}
    return Batch(batch.depth + 1, tuple(side.take(push) for side in sides), carry)


def _split(batch: Batch, cap: int | None) -> list[Batch]:
    """Pieces of at most cap boundaries (or one node), in push order.

    The lightest piece (fewest suffix rows) comes last and so is visited
    first: a piece visited while another is pending holds at most half of
    its parent's rows, so a descent that merges nothing holds pending pieces
    at no more than log2 n depths. Pieces under half the cap are parked by
    batched_pass, not stacked.
    """
    if cap is None or batch.size <= cap:
        return [batch]
    size = sum(side.nb for side in batch.sides)
    group = (size.cumsum() - size) // cap
    cuts = (np.flatnonzero(np.diff(group)) + 1).tolist()
    bounds = [0, *cuts, size.size]
    pieces = []
    for r0, r1 in zip(bounds, bounds[1:]):
        rows = np.zeros(size.size, dtype=bool)
        rows[r0:r1] = True
        sides = tuple(side.take(rows) for side in batch.sides)
        pieces.append(Batch(batch.depth, sides, _gather(batch.carry, rows)))
    mass = [sum(int(s.freq.sum()) for s in piece.sides) for piece in pieces]
    order = sorted(range(len(pieces)), key=mass.__getitem__, reverse=True)
    return [pieces[i] for i in order]


def _merge(parts: list[Batch]) -> Batch:
    """One batch of the nodes of same-depth parts, in order."""
    if len(parts) == 1:
        return parts[0]
    sides = []
    for group in zip(*(part.sides for part in parts)):
        arrays = zip(*((side.bd, side.nb, side.ch) for side in group))
        sides.append(Side(*map(np.concatenate, arrays)))
    carry = {
        key: tuple(map(np.concatenate, zip(*(part.carry[key] for part in parts))))
        for key in parts[0].carry
    }
    return Batch(parts[0].depth, tuple(sides), carry)


class _Parked:
    """Small batches waiting, by depth, to be merged into one batch per depth."""

    def __init__(self) -> None:
        self.parts: dict[int, list[Batch]] = {}
        self.load: dict[int, int] = {}  # boundaries per depth
        self.total = 0

    def add(self, batch: Batch) -> int:
        """Park batch; returns the boundaries now parked at its depth."""
        self.parts.setdefault(batch.depth, []).append(batch)
        self.load[batch.depth] = self.load.get(batch.depth, 0) + batch.size
        self.total += batch.size
        return self.load[batch.depth]

    def pop(self, depth: int) -> Batch:
        """The batches parked at depth, merged into one and no longer parked."""
        self.total -= self.load.pop(depth)
        return _merge(self.parts.pop(depth))


def batched_pass(
    indexes, visit, *, max_depth: int | None = None, _cap=_CAP
) -> tuple[int, int]:
    """Call visit(batch) over the nodes of a pass; returns (visits, peak).

    One index gives the right-maximal substrings of T, the empty string
    included, and two the internal nodes of the generalized suffix tree of
    the pair: strings right-maximal when the two terminators count as
    distinct extensions. Each node is visited once, in batches of one depth,
    depth-first over batches. Terminator left extensions are delivered as
    kids but never visited: strings through a terminator exist only by the
    circular convention. Nodes deeper than max_depth are not visited. What
    visit leaves in a batch's carry reaches each kid, whichever piece or
    merged batch it lands in. peak is the largest number of boundaries the
    pending batches held at once. A pair raises InputError
    when (largest code + 1) (n1 + n2) reaches 2**63 (see _check_keys).

    The children of a batch are one batch of the next depth; past _cap
    boundaries it is split (_split). A batch or piece under half the cap is
    not stacked but parked with the other small batches of its depth, and
    these are merged (_merge) into one batch once they hold half the cap,
    which therefore holds under the cap and is never split. When the stack
    runs empty, the shallowest parked depth is merged and stacked, so that
    its children can join the batches parked one depth down. When the
    parked batches hold more than twice the cap in all, the deepest parked
    depths are merged and stacked until they hold at most that; their
    children lie deeper than any parked batch.
    """
    if len(indexes) == 2:
        if indexes[0].sigma != indexes[1].sigma:
            raise InputError("alphabet mismatch between the two indexes")
        _check_keys(indexes)
    for index in indexes:
        index.enumerations += 1
    # the root's blocks are the symbols that occur in T#
    sides = [Side(index.c, np.array([index.c.size]), index.syms) for index in indexes]
    root = Batch(0, tuple(sides))
    last = math.inf if max_depth is None else max_depth
    small = 0 if _cap is None else _cap // 2
    bound = math.inf if _cap is None else 2 * _cap
    stack = [root]
    parked = _Parked()
    held = peak = root.size
    visits = 0
    while stack or parked.parts:
        if not stack:
            stack.append(parked.pop(min(parked.parts)))
        batch = stack.pop()
        held -= batch.size
        _extend_batch(batch, indexes)
        visits += batch.sides[0].nb.size
        visit(batch)
        nxt = _next_batch(batch) if batch.depth < last else None
        if nxt is None:
            continue
        held += nxt.size
        peak = max(peak, held)
        for piece in _split(nxt, _cap):
            if piece.size >= small:
                stack.append(piece)
            elif parked.add(piece) >= small:
                stack.append(parked.pop(piece.depth))
        while parked.total > bound:
            stack.append(parked.pop(max(parked.parts)))
    return visits, peak


# ---------------------------------------------------------------------------
# the per-node API


class VisitEvent:
    """One visitor call: node j of the current batch, and its left extensions.

    depth is |W|. repr is repr(W) (a GenRepr in a pair pass); lefts[i] is a
    symbol a (possibly 0) preceding an occurrence of W and children[i] is
    repr(aW), in ascending symbol order; label() is W. They are computed
    when first read in a batch, so a visitor pays only for what it reads;
    the first label() of a pass makes a psi array for the text it reads.
    The object is reused between visits; do not retain it.
    """

    __slots__ = ("depth", "_batch", "_j", "_indexes", "_psi")

    def __init__(self, indexes) -> None:
        self.depth = 0
        self._batch: Batch | None = None
        self._j = 0
        self._indexes = indexes
        self._psi = [None] * len(indexes)

    @property
    def repr(self) -> Repr | GenRepr:
        return self._batch.derive(_node_reprs)[self._j]

    @property
    def lefts(self) -> list[int]:
        return self._batch.derive(_kids)[0][self._j]

    @property
    def children(self) -> list:
        return self._batch.derive(_kids)[1][self._j]

    def label(self) -> tuple[int, ...]:
        """W[0], W[1], .., read from T along psi (see heads), one row at a time."""
        row, i = map(int, first_rows(self._batch, self._j))
        if self._psi[i] is None:
            self._psi[i] = self._indexes[i].psi()
        psi, codes = self._psi[i], self._indexes[i].codes
        out = []
        for _ in range(self.depth):
            row = psi.item(row)
            out.append(codes.item(row))
        return tuple(out)


def _reprs(sides) -> list:
    """The repr of every node of one Side, or the GenRepr over two.

    A node that does not occur in a text is ABSENT there.
    """
    out = []
    for side in sides:
        first = (side.bd + 1).tolist()
        ch = side.ch.tolist()
        reprs = []
        s = 0
        for j, nb in enumerate(side.nb.tolist()):
            # the j nodes before node j hold s - j blocks
            chars = tuple(ch[s - j : s - j + nb - 1])
            reprs.append(Repr(chars, tuple(first[s : s + nb])) if nb > 1 else ABSENT)
            s += nb
        out.append(reprs)
    return out[0] if len(out) == 1 else list(map(GenRepr, *out))


def _node_reprs(batch: Batch) -> list:
    return _reprs(batch.sides)


def _kids(batch: Batch) -> tuple[list, list]:
    """Per node of the batch: its left symbols and its children."""
    count = batch.sides[0].nb.size
    lefts = [[] for _ in range(count)]
    children = [[] for _ in range(count)]
    # kids run by symbol, so each node's come out ascending
    kids = zip(batch.kid_node.tolist(), batch.kid_sym.tolist(), _reprs(batch.kid_sides))
    for j, a, kid in kids:
        lefts[j].append(a)
        children[j].append(kid)
    return lefts, children


def _visit_nodes(indexes, visitor, fire, stats, max_depth=None) -> int:
    """Call visitor once per node of a batched_pass where fire(batch) is set.

    Returns the number of calls. stats, when given, receives the pass's
    visits and its peak pending boundaries as peak_frames.
    """
    ev = VisitEvent(indexes)
    fired = 0

    def visit(batch: Batch) -> None:
        nonlocal fired
        ev._batch = batch
        ev.depth = batch.depth
        if fire is None:
            nodes = range(batch.sides[0].nb.size)
        else:
            nodes = fire(batch).nonzero()[0].tolist()
        for j in nodes:
            ev._j = j
            visitor(ev)
        fired += len(nodes)

    visits, peak = batched_pass(indexes, visit, max_depth=max_depth)
    if stats is not None:
        stats["visits"] = visits
        stats["peak_frames"] = peak
    return fired


def _left_maximal(batch: Batch) -> np.ndarray:
    """Nodes with two distinct left symbols, the terminator included."""
    return np.bincount(batch.kid_node, minlength=batch.sides[0].nb.size) >= 2


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
    return _visit_nodes((index,), visitor, None, stats, max_depth)


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
    return _visit_nodes((index,), visitor, _left_maximal, stats, max_depth)


def enumerate_generalized(
    index1: BwtIndex, index2: BwtIndex, visitor, *, stats: dict | None = None
) -> int:
    """Visit the internal nodes of the generalized suffix tree of the pair.

    A node is any string right-maximal when the two texts' terminators count
    as distinct extensions. Terminator left-extensions are delivered but
    never visited. Returns the visit count.
    """
    return _visit_nodes((index1, index2), visitor, None, stats)


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


def _extend_one(indexes, reprs) -> list[tuple[int, Repr | GenRepr]]:
    """(a, kid) per left symbol a of one node, a ascending: a one-node batch."""
    sides = [
        Side(np.array(r.first) - 1, np.array([len(r.first)]), np.array(r.chars, dtype=np.int64))
        for r in reprs
    ]
    batch = Batch(0, tuple(sides))
    _extend_batch(batch, indexes)
    lefts, children = _kids(batch)
    return list(zip(lefts[0], children[0]))


def extend_left(index: BwtIndex, r: Repr) -> list[tuple[int, Repr]]:
    """One entry per distinct symbol a preceding W, with repr(aW), a ascending."""
    _check_repr(index, r)
    return _extend_one((index,), (r,))


def extend_left_generalized(
    index1: BwtIndex, index2: BwtIndex, g: GenRepr
) -> list[tuple[int, GenRepr]]:
    """extend_left on both sides at once; a side absent for aW is ABSENT."""
    if not (g.one.present or g.two.present):
        raise InputError("malformed representation: both sides absent")
    _check_keys((index1, index2))
    sides = []
    for index, r in ((index1, g.one), (index2, g.two)):
        if r.present:
            _check_repr(index, r)
        sides.append(r if r.present else ABSENT)
    return _extend_one((index1, index2), sides)
