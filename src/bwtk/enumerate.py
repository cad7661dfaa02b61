"""Enumeration of right-maximal substrings over one BWT.

A substring W is represented without its label: repr(W) stores the sorted
right-extension symbols chars = (b_1 < ... < b_k) and interval boundaries
first, so that the suffix rows of W b_i are [first[i] .. first[i+1]-1] and
the rows of W itself are [first[0] .. first[-1]-1]. Left extension converts
repr(W) into repr(aW) for every symbol a preceding W at once, using one
wavelet-tree descent that ranks the k+1 boundaries of repr(W) together:
aW continues with b_i exactly where the rank of a rises across block i.

One engine walks the tree: batched_pass takes same-depth nodes a batch at a
time, each batch held in flat NumPy arrays (Side, Batch). A batch's kids
are made when something first reads them, all at once, by one wavelet
descent that ranks every boundary of the batch per wavelet node
(RankIndex.descend); a pass whose folds read only the nodes never extends
the batches at its depth bound. The descent carries a wavelet child's
boundaries down whole, nodes without a symbol of the child included, while
more than a quarter of its nodes hold one, and otherwise cuts them to those
nodes by one gather the size of its output. The kids are read off the
rises of every leaf's ranks laid end to end: aW has a block wherever a's
rank rises across a block of W. Selections use compress or index gathers,
never boolean-mask indexing. The pass goes depth-first over batches and
splits a batch past _CAP boundaries, lightest piece first, into runs of
consecutive nodes. Below the split depths most batches are small, so a
batch under half the cap waits, parked with the others of its depth, until
they are merged into one batch: each depth then costs about one batch, not
one per split piece. Between two visits the parked batches hold at most
twice the cap; each pass reports its peak of pending boundaries, which the
tests hold to sigma log2 n times the cap. A pass may stop at a depth bound,
so that measures that read only short contexts skip the deeper nodes.

A pair of texts is one index too (suffix.PairIndex): the BWT of T1 $ T2 #,
letters shifted up by one, with the separator $ = 1 below them and # = 0.
A string through $ occurs once, so the internal nodes of the generalized
suffix tree of T1 and T2 are exactly the right-maximal strings of T1 $ T2 #
that the same pass visits, $ and # counting as distinct right extensions.
A block of right extension $ ends in T1 and one of # ends in T2. The text
bit marks text 1's suffix rows; each boundary also carries its rank there
(Side.one), the rows of text 1 before it. So every node and block has a
width in each text, and a boundary x is boundary one in text 1's own index
and x - one in text 2's (T1's rows keep their order from T1 #). Left
extensions by # and $ are the circular ones, kids that are never pushed:
#W is text 1's terminator extension and $W text 2's, and the pass counts
their one row in that text whatever the bit says of rows 0 and 1.

No node keeps its label or a link to its parent. A label is read from T
when asked for: psi takes a suffix row to the row one symbol on, so heads
walks it from a node's first row. A fold that builds a value from the
parent's carries it on the batch (Batch.carry), per node, and the pass
moves it with the nodes into their kids, pieces and merged batches.

The per-node API reads the same pass. enumerate_* call a visitor with a
VisitEvent, a view of one node of the current batch, in pass order: batch
by batch, then node by node within a batch. The order is deterministic,
but which batch a node falls in depends on the cap, so only the multiset
of nodes is the same at every cap. A pair's events report each text's
repr in that text's own rows and symbols, through the same rank.
extend_left extends one repr as a one-node batch, through the same
_extend_batch, and extend_left_generalized merges it over the two texts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, integer, sequence
from .suffix import BwtIndex, PairIndex

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
    """Nodes as flat arrays: a batch's nodes, or its kids.

    bd holds every node's boundaries first - 1 (BWT positions), nb[j] of
    them for node j in node order, and node j's blocks are the row ranges
    between consecutive boundaries; ch gives each block's right symbol,
    ascending within a node. Over a PairIndex, one holds the rank of the
    text bit at each boundary, the rows of text 1 before it (None over one
    text). Derived: end (cumulative nb), freq and start (first boundary)
    per node, w (width) and node (owner) per block, and texts(), each
    text's widths.
    """

    __slots__ = ("bd", "nb", "ch", "one", "end", "_freq", "_inside", "_w", "_node", "_texts")

    def __init__(self, bd: np.ndarray, nb: np.ndarray, ch: np.ndarray, one=None) -> None:
        self.bd, self.nb, self.ch, self.one = bd, nb, ch, one
        # the ufunc, as the cumsum method costs about 1 us more a call, twice a batch
        self.end = np.add.accumulate(nb)
        # derived arrays are made when first read, not while a batch waits
        self._freq = self._inside = self._w = self._node = self._texts = None

    @property
    def freq(self) -> np.ndarray:
        """Per node, its number of suffix rows."""
        if self._freq is None:
            self._freq = self.bd[self.end - 1] - self.start
        return self._freq

    @property
    def start(self) -> np.ndarray:
        """Per node, its first boundary: the 0-based row of its first suffix."""
        return self.bd[self.end - self.nb]

    def inside(self) -> np.ndarray:
        """Per boundary, whether it and the next bound a block of one node."""
        if self._inside is None:
            # boundary b is entry b + 1, so the last boundaries are the entries at end
            buf = np.empty(self.bd.size + 1, dtype=bool)
            buf.fill(True)
            buf[self.end] = False
            self._inside = buf[1:]
        return self._inside

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            self._w = np.diff(self.bd).compress(self.inside()[:-1])
        return self._w

    @property
    def node(self) -> np.ndarray:
        if self._node is None:
            self._node = np.arange(self.nb.size).repeat(self.nb - 1)
        return self._node

    def texts(self) -> tuple:
        """(f, w): per text, the node widths f[t] and block widths w[t] in that text's rows.

        f and w have one row per text, text 1's first; a block's width is 0
        in a text where it has no row.
        """
        if self._texts is None:
            if self.one is None:
                self._texts = self.freq[None], self.w[None]
            else:
                # text 1's widths from the ranks of the text bit, and text 2's
                # as the rest, written in place: np.stack would copy
                f = np.empty((2, self.nb.size), dtype=np.int64)
                w = np.empty((2, max(self.bd.size - 1, 0)), dtype=np.int64)
                ends = self.end - 1, self.end - self.nb
                for t, x in enumerate((self.one, self.bd)):
                    np.subtract(*(x.take(at) for at in ends), out=f[t])
                    np.subtract(x[1:], x[:-1], out=w[t])
                f[1] -= f[0]
                w[1] -= w[0]
                self._texts = f, w.compress(self.inside()[:-1], axis=1)
        return self._texts

    def take(self, rows: np.ndarray) -> Side:
        """The nodes where the boolean mask rows is set, with the widths already made of them."""
        keep, blocks = rows.repeat(self.nb), rows.repeat(self.nb - 1)
        one = None if self.one is None else self.one.compress(keep)
        kept = Side(self.bd.compress(keep), self.nb.compress(rows), self.ch.compress(blocks), one)
        if self._freq is not None or self._w is not None or self._texts is not None:
            # each derived array already made, and the mask of its entries kept
            f, w = self._texts or (None, None)
            made = (self._freq, rows), (self._w, blocks), (f, rows), (w, blocks)
            kept._freq, kept._w, f, w = (x if x is None else x.compress(m, axis=-1) for x, m in made)
            kept._texts = None if f is None else (f, w)
        return kept


class Batch:
    """Same-depth nodes of a batched pass over index, with every left extension.

    side holds the nodes. The kids are every (node, a) with aW occurring,
    ordered by a and then by node: kid_node[r] is the node, kid_sym[r] the
    symbol a, kids the children aW as one Side, and kid_blk the block of
    the node that each kid block lies in (aWb occurs only where Wb does).
    They are made (_extend_batch) when one of them is first read, so a
    batch whose kids nothing reads is never extended. shared holds what
    several folds of one pass derive from the batch, computed once. carry
    maps a fold's key to a tuple of per-node arrays: on entry they hold
    each node's parent's values, and the fold replaces them with the
    node's own for the kids to read.
    """

    __slots__ = ("index", "depth", "side", "carry", "shared", "kid_node", "kid_sym", "kids", "kid_blk")

    def __init__(self, index: BwtIndex, depth: int, side: Side, carry: dict | None = None) -> None:
        self.index, self.depth, self.side = index, depth, side
        self.carry: dict = {} if carry is None else carry
        self.shared: dict = {}

    def __getattr__(self, name: str):
        # reached only for a slot not yet set: the kid arrays, before the first read
        if name.startswith("kid"):
            _extend_batch(self)
        return object.__getattribute__(self, name)

    def derive(self, fn):
        """fn(self), computed by the first fold that asks for it."""
        if fn not in self.shared:
            self.shared[fn] = fn(self)
        return self.shared[fn]

    @property
    def size(self) -> int:
        """Boundaries held."""
        return self.side.bd.size


def heads(first: np.ndarray, psi: np.ndarray, rows: np.ndarray, k: int):
    """The int64 arrays of W[0], W[1], .., W[k-1] over nodes W of depth >= k.

    rows holds a suffix row (0-based) of each W in an index, first is the
    index's first column F (BwtIndex.first()) and psi its psi(): the
    suffix at the row starts with W, F gives its first symbol, and psi
    steps it one symbol on.
    """
    for _ in range(k):
        yield first[rows]
        rows = psi[rows]


def _extend_batch(batch: Batch) -> None:
    """Fill in the batch's kids, every left extension of its nodes.

    One descent ranks the boundaries of the nodes, and the kids are read
    off all its leaves at once, laid end to end with each symbol a's ranks
    shifted to its rows by C[a]. Block p of the batch (between its
    boundaries p and p + 1, of node j) holds a exactly where a's rank
    rises across it, so the kid aW keeps a's rank at j's first boundary
    and at the end of each block where it rises, and blk gives p - j, the
    block of the batch that each kid block lies in. Over a pair, the kids'
    boundaries are also ranked in the text bit.
    """
    side, index = batch.side, batch.index
    start = side.end - side.nb
    leaves = index.ranks.descend(side.bd, start, side.end - 1)
    base = index.c[index.syms.searchsorted([c for c, _, _ in leaves])]
    # written in place: a copy of each leaf shifted by C[a] would be one more allocation each
    r, o = np.empty(sum(x.size for _, _, x in leaves), dtype=np.int64), 0
    for (_, _, x), c in zip(leaves, base):
        o += np.add(x, c, out=r[o : o + x.size]).size
    # only where each leaf's ranks lie is read past here: the ranks themselves are freed
    leaves = [g for _, g, _ in leaves]
    # boundary indexes fit int32, which halves the one array as long as r
    every, inside = np.arange(side.bd.size, dtype=np.int32), side.inside()
    at = np.concatenate([every if g is None else g.astype(np.int32) for g in leaves])
    # a rise counts where both ends are boundaries of one node, never across two
    rise = np.concatenate([inside if g is None else inside[g] for g in leaves])
    rise[:-1] &= r[1:] > r[:-1]
    i = rise[:-1].nonzero()[0]
    p = at[i]
    node = np.arange(side.nb.size).repeat(side.nb)[p]
    # the entry of r at the first boundary of the rise's node: one per kid
    head = i - p + start[node]
    # a kid starts at each change of head; edges closes the last kid too
    new = np.empty(i.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(head[1:], head[:-1], out=new[1:-1])
    edges = new.nonzero()[0]
    first = head[edges[:-1]]
    keep = np.zeros(r.size, dtype=bool)
    keep[1:][i] = True
    keep[first] = True
    bd, one = r.compress(keep), None
    nb = edges[1:] - edges[:-1] + 1
    # a kid's first row starts with its symbol
    batch.kid_sym = index.first(r[first])
    if isinstance(index, PairIndex):
        one = index.bit.ones(bd)
        # #W (rows [0, 1]) is text 1's and $W (rows [1, 2]) text 2's, though
        # the bit gives row 0 to text 2 and row 1 to text 1: swap the two.
        # Kids run by symbol, so theirs are the first boundaries, of at most
        # two kids, as # and $ each occur once in the BWT.
        cut = nb[: batch.kid_sym.searchsorted(index.terminators)].sum()
        one[:cut] = bd[:cut] - one[:cut]
    batch.kid_node, batch.kid_blk = node[edges[:-1]], p - node
    batch.kids = Side(bd, nb, side.ch[batch.kid_blk], one)


def _gather(carry: dict, rows) -> dict:
    """carry's per-node arrays at rows, an index array or a slice of nodes."""
    return {key: tuple(a[rows] for a in arrays) for key, arrays in carry.items()}


def _next_batch(batch: Batch) -> Batch | None:
    """The kids to visit next: extensions by a letter that are right-maximal."""
    push = batch.kids.nb >= 3
    # kids run by symbol, so the terminators' come first
    push[: batch.kid_sym.searchsorted(batch.index.terminators)] = False
    node = batch.kid_node.compress(push)
    if not node.size:
        return None
    # each kid starts from its parent node's values
    carry = _gather(batch.carry, node) if batch.carry else {}
    return Batch(batch.index, batch.depth + 1, batch.kids.take(push), carry)


def _split(batch: Batch, cap: int | None) -> list[Batch]:
    """Pieces whose nodes start within cap boundaries of their first, in push order.

    Each piece is a run of consecutive nodes, and its arrays and carry are
    slices of the batch's. The lightest piece (fewest suffix rows) comes
    last and so is visited first: a piece visited while another is pending
    holds at most half of its parent's rows, so a descent that merges
    nothing holds pending pieces at no more than log2 n depths. Pieces
    under half the cap are parked by batched_pass, not stacked.
    """
    if cap is None or batch.size <= cap:
        return [batch]
    side = batch.side
    group = (side.end - side.nb) // cap
    cuts = (group[1:] > group[:-1]).nonzero()[0] + 1
    rows = [0, *cuts.tolist(), side.nb.size]
    # node r's boundaries start at end[r - 1] and its blocks r places earlier
    ends = [0, *side.end[cuts - 1].tolist(), side.bd.size]
    pieces = []
    for r0, r1, b0, b1 in zip(rows, rows[1:], ends, ends[1:]):
        one = None if side.one is None else side.one[b0:b1]
        piece = Side(side.bd[b0:b1], side.nb[r0:r1], side.ch[b0 - r0 : b1 - r1], one)
        pieces.append(Batch(batch.index, batch.depth, piece, _gather(batch.carry, slice(r0, r1))))
    mass = [int(piece.side.freq.sum()) for piece in pieces]
    order = sorted(range(len(pieces)), key=mass.__getitem__, reverse=True)
    return [pieces[i] for i in order]


def _merge(parts: list[Batch]) -> Batch:
    """One batch of the nodes of same-depth parts, in order."""
    if len(parts) == 1:
        return parts[0]
    sides = [part.side for part in parts]
    one = None if sides[0].one is None else np.concatenate([s.one for s in sides])
    arrays = zip(*((s.bd, s.nb, s.ch) for s in sides))
    carry = {
        key: tuple(map(np.concatenate, zip(*(part.carry[key] for part in parts))))
        for key in parts[0].carry
    }
    return Batch(parts[0].index, parts[0].depth, Side(*map(np.concatenate, arrays), one), carry)


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
    index: BwtIndex, visit, *, max_depth: int | None = None, _cap=_CAP
) -> tuple[int, int]:
    """Call visit(batch) over the nodes of a pass; returns (visits, peak).

    The nodes are the right-maximal substrings of the index's text made of
    letters, the empty string included: those of T, or over a PairIndex
    the internal nodes of the generalized suffix tree of T1 and T2. Each
    node is visited once, in batches of one depth, depth-first over
    batches. Terminator left extensions (# and, in a pair, $) are delivered
    as kids but never visited: strings through a terminator exist only by
    the circular convention. Nodes deeper than max_depth are not visited.
    What visit leaves in a batch's carry reaches each kid, whichever piece
    or merged batch it lands in. peak is the largest number of boundaries
    the pending batches held at once. The pass counts in the enumerations
    of the index and of its parts.

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
    for counted in (index, *index.parts):
        counted.enumerations += 1
    # the root's blocks are the symbols that occur in the text
    one = index.bit.ones(index.c) if isinstance(index, PairIndex) else None
    root = Batch(index, 0, Side(index.c, np.array([index.c.size]), index.syms, one))
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
        visits += batch.side.nb.size
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
    the first label() of a pass makes a psi array and the first column F
    of the index, which the pass holds until it ends.
    The object is reused between visits; do not retain it.
    """

    __slots__ = ("depth", "_batch", "_j", "_index", "_walk")

    def __init__(self, index: BwtIndex) -> None:
        self.depth = 0
        self._batch: Batch | None = None
        self._j = 0
        self._index = index
        self._walk = None

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
        """W[0], W[1], .., read from F along psi (see heads), one row at a time."""
        side, j = self._batch.side, self._j
        row = side.bd.item(side.end.item(j) - side.nb.item(j))
        if self._walk is None:
            self._walk = self._index.psi(), self._index.first()
        psi, first = self._walk
        # a pair's letters are shifted up by one
        shift = self._index.terminators - 1
        out = []
        for _ in range(self.depth):
            out.append(first.item(row) - shift)
            row = psi.item(row)
        return tuple(out)


def _text_reprs(bd: np.ndarray, nb: np.ndarray, ch: np.ndarray) -> list[Repr]:
    """The repr of every node of one text; a node with no block is ABSENT."""
    first = (bd + 1).tolist()
    ch = ch.tolist()
    reprs = []
    s = 0
    for j, count in enumerate(nb.tolist()):
        # the j nodes before node j hold s - j blocks
        chars = tuple(ch[s - j : s - j + count - 1])
        reprs.append(Repr(chars, tuple(first[s : s + count])) if count > 1 else ABSENT)
        s += count
    return reprs


def _in_text(side: Side, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bd, nb, ch) of a pair's nodes in text t's own index: its rows and symbols.

    A node keeps its first boundary and the end of each block with rows in
    the text; $ and # become that text's terminator 0.
    """
    x = side.one if t == 0 else side.bd - side.one
    kept = side.texts()[1][t] > 0
    keep = np.zeros(x.size, dtype=bool)
    keep[side.end - side.nb] = True
    keep[np.flatnonzero(side.inside())[kept] + 1] = True
    nb = 1 + np.bincount(side.node[kept], minlength=side.nb.size)
    ch = side.ch[kept]
    return x[keep], nb, np.where(ch > 1, ch - 1, 0)


def _reprs(side: Side) -> list:
    """The repr of every node of side; over a pair, the GenRepr of both texts."""
    if side.one is None:
        return _text_reprs(side.bd, side.nb, side.ch)
    return list(map(GenRepr, *(_text_reprs(*_in_text(side, t)) for t in (0, 1))))


def _node_reprs(batch: Batch) -> list:
    return _reprs(batch.side)


def _kids(batch: Batch) -> tuple[list, list]:
    """Per node of the batch: its left symbols and its children.

    Over a pair, #W (text 1's) and $W (text 2's) are the one left symbol 0,
    and a letter a + 1 is a.
    """
    count = batch.side.nb.size
    lefts = [[] for _ in range(count)]
    children = [[] for _ in range(count)]
    pair = batch.kids.one is not None
    # kids run by symbol, so each node's come out ascending
    kids = zip(batch.kid_node.tolist(), batch.kid_sym.tolist(), _reprs(batch.kids))
    for j, a, kid in kids:
        if pair:
            if a == 1 and lefts[j] == [0]:
                children[j][0] = GenRepr(children[j][0].one, kid.two)
                continue
            a = max(a - 1, 0)
        lefts[j].append(a)
        children[j].append(kid)
    return lefts, children


def _visit_nodes(index: BwtIndex, visitor, fire, stats) -> int:
    """Call visitor once per node of a batched_pass where fire(batch) is set.

    Returns the number of calls. stats, when given, receives the pass's
    visits and its peak pending boundaries as peak_frames.
    """
    ev = VisitEvent(index)
    fired = 0

    def visit(batch: Batch) -> None:
        nonlocal fired
        ev._batch = batch
        ev.depth = batch.depth
        if fire is None:
            nodes = range(batch.side.nb.size)
        else:
            nodes = fire(batch).nonzero()[0].tolist()
        for j in nodes:
            ev._j = j
            visitor(ev)
        fired += len(nodes)

    visits, peak = batched_pass(index, visit)
    if stats is not None:
        stats["visits"] = visits
        stats["peak_frames"] = peak
    return fired


def _left_maximal(batch: Batch) -> np.ndarray:
    """Nodes with two distinct left symbols, the terminator included."""
    return np.bincount(batch.kid_node, minlength=batch.side.nb.size) >= 2


def enumerate_right_maximal(index: BwtIndex, visitor, *, stats: dict | None = None) -> int:
    """Visit every right-maximal substring of T, the empty string included.

    Returns the visit count.
    """
    return _visit_nodes(index, visitor, None, stats)


def enumerate_maximal_repeats(index: BwtIndex, visitor, *, stats: dict | None = None) -> int:
    """As enumerate_right_maximal, but fire only at left-maximal nodes.

    Left-maximality asks for at least two distinct preceding symbols, the
    terminator included. Returns the number of visitor invocations.
    """
    return _visit_nodes(index, visitor, _left_maximal, stats)


def enumerate_generalized(
    index1: BwtIndex, index2: BwtIndex, visitor, *, stats: dict | None = None
) -> int:
    """Visit the internal nodes of the generalized suffix tree of the pair.

    A node is any string right-maximal when the two texts' terminators count
    as distinct extensions; the pass runs over the PairIndex of the two
    texts. Terminator left-extensions are delivered but never visited.
    Returns the visit count.
    """
    return _visit_nodes(PairIndex.of(index1, index2), visitor, None, stats)


def _check_repr(index: BwtIndex, r: Repr) -> tuple[list, list]:
    """r's chars and boundaries, once its chars are symbols and its boundaries increasing rows in [1..n+1]."""
    chars, first = (sequence(x, "a repr") for x in (r.chars, r.first)) if isinstance(r, Repr) else ((), ())
    if not len(first) == len(chars) + 1 >= 2:
        raise InputError("malformed representation")
    for a in chars:
        integer(a, "a char of a representation", 0, index.sigma)
    row = 0
    for x in first:
        row = integer(x, "a boundary of a representation", row + 1, index.n + 1)
    return chars, first


def extend_left(index: BwtIndex, r: Repr) -> list[tuple[int, Repr]]:
    """One entry per distinct symbol a preceding W, with repr(aW), a ascending."""
    ch, bd = (np.array(x, dtype=np.int64) for x in _check_repr(index, r))
    side = Side(bd - 1, np.array([bd.size]), ch)
    lefts, children = _kids(Batch(index, 0, side))
    return list(zip(lefts[0], children[0]))


def extend_left_generalized(
    index1: BwtIndex, index2: BwtIndex, g: GenRepr
) -> list[tuple[int, GenRepr]]:
    """extend_left on both sides, merged by symbol; a side absent for aW is ABSENT."""
    try:
        present = g.one.present, g.two.present
    except (AttributeError, TypeError, IndexError):  # no GenRepr, or a side with no first boundary
        raise InputError("malformed representation") from None
    if not any(present):
        raise InputError("malformed representation: both sides absent")
    kids: dict[int, list[Repr]] = {}
    for t, (index, r) in enumerate(((index1, g.one), (index2, g.two))):
        if present[t]:
            for a, kid in extend_left(index, r):
                kids.setdefault(a, [ABSENT, ABSENT])[t] = kid
    return [(a, GenRepr(*kids[a])) for a in sorted(kids)]
