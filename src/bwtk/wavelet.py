"""Rank and rangeDistinct queries over a symbol array.

The array is stored as a binary wavelet tree over [0..maxsym]: each node
splits its symbol range at the midpoint and keeps one bit per element in
NumPy 64-bit words, ranked through a uint16 count per word (a quarter bit
per bit) over an int32 count per 2**16-bit superblock, int64 past 2**31
bits (González, Grabowski, Mäkinen and Navarro 2005); every rank leaves
this module as int64. A root split at `split` keeps the rows of the few
codes below it as positions, so a BWT's letters cost ceil(log2 sigma) bits
per row and its terminators none. The tree is all that is kept of the
array: decode reads it back in O(n log maxsym) on each call. One descent,
RankIndex.descend, carries a batch of nodes, each a run of ascending
boundaries, down the tree at once and reports, for every symbol that some
node's range holds, its ranks at the boundaries of whole nodes, every node
that holds it among them. A child's boundaries go down whole, nodes that
hold none of its symbols included, while more than a quarter of its nodes
hold one; otherwise one gather the size of its output cuts them to those
nodes. distinct_ranks, range_distinct, counts (the node [0, n]) and access
(the node [i-1, i]) are one-node descents; rank, for backward search,
walks one position down the same nodes. BitVector is a wavelet node's bits
alone.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .errors import InputError, integer

# a wavelet child whose live nodes are at most 1/_COMPACT of its input's is
# cut to them (RankIndex.descend). Of 2, 3, 4 and 8 on bare passes at sigma
# 4, 20 and 255, 3 and 4 read alike; 2 was slower at sigma 4, 8 at 20 and 255
_COMPACT = 4
_WORD_MASKS = np.array([(1 << r) - 1 for r in range(64)], dtype=np.uint64)


def _pack(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bits as little-endian 64-bit words, and their two-level rank directory.

    One zero word past the last bit keeps every position in 0..len(bits)
    valid, a 64-aligned length included. sup counts the 1s before each
    superblock of 1,024 words (2**16 bits), int32 below 2**31 bits; rel
    counts those before each word since its superblock's start, at most
    1,023 * 64 = 65,472, as uint16. Both come from one cumsum.
    """
    packed = np.packbits(bits, bitorder="little")
    pad = (-packed.size) % 8 + 8
    words = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)]).view("<u8")
    before = np.zeros(words.size, dtype=np.int64)
    np.cumsum(np.bitwise_count(words[:-1]), out=before[1:], dtype=np.int64)
    rel = (before - before[::1024].repeat(1024)[: before.size]).astype(np.uint16)
    return words, before[::1024].astype(np.int32 if bits.size < 2**31 else np.int64), rel


def _ones(words: np.ndarray, sup: np.ndarray, rel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of 1 bits among the first x bits, as int64, for every position of the array x."""
    q = x >> 6
    # at most 65,472 + 63, so the word's count and its popcount add in uint16
    ones = (rel[q] + np.bitwise_count(words[q] & _WORD_MASKS[x & 63])).astype(np.int64)
    ones += sup[x >> 16]
    return ones


class BitVector:
    """A bit vector with rank over arrays of positions, in _pack's layout."""

    __slots__ = ("n", "words", "sup", "rel")

    def __init__(self, bits: np.ndarray) -> None:
        self.n = int(bits.size)
        self.words, self.sup, self.rel = _pack(bits)

    def ones(self, x: np.ndarray) -> np.ndarray:
        """1s among the first x bits, for each entry of x in [0..n]."""
        return _ones(self.words, self.sup, self.rel, x)

    def one(self, i: int) -> int:
        """1s among the first i bits, 0 <= i <= n."""
        q = i >> 6
        word = self.words.item(q) & ((1 << (i & 63)) - 1)
        return self.sup.item(q >> 10) + self.rel.item(q) + word.bit_count()

    def bits(self) -> np.ndarray:
        """The bits, as a bool array."""
        return np.unpackbits(self.words.view(np.uint8), count=self.n, bitorder="little").view(bool)


class _Node(BitVector):
    """One wavelet node: symbols lo..hi, split after mid.

    It is the BitVector of its elements, set where the symbol is above mid.
    A leaf, and a node over a range with no element, has no children and no
    bits: every rank there is 0 or the position itself, and no descent goes
    below it.
    """

    __slots__ = ("lo", "mid", "left", "right")

    def __init__(self, lo: int, mid: int, bits: np.ndarray | None = None) -> None:
        self.lo, self.mid = lo, mid
        self.left = self.right = None
        if bits is not None:
            super().__init__(bits)


class _SplitRoot(_Node):
    """A root that keeps its few 0 bits, the elements up to mid, as int64 rows, not words."""

    __slots__ = ("rows",)

    def __init__(self, lo: int, mid: int, bits: np.ndarray) -> None:
        super().__init__(lo, mid)
        self.n = int(bits.size)
        self.rows = np.flatnonzero(~bits)

    def ones(self, x: np.ndarray) -> np.ndarray:
        return x - self.rows.searchsorted(x)

    def one(self, i: int) -> int:
        return i - bisect_left(self.rows, i)

    def bits(self) -> np.ndarray:
        bits = np.ones(self.n, dtype=bool)
        bits[self.rows] = False
        return bits


class RankIndex:
    """Wavelet tree over symbols in [0..maxsym] with 1-based positions.

    With split > 0 the root is a _SplitRoot over codes 0..split-1 and
    split..maxsym, and below it each node splits at its midpoint.
    """

    __slots__ = ("n", "maxsym", "root")

    def __init__(self, data, maxsym: int, split: int = 0) -> None:
        maxsym = integer(maxsym, "maxsym", 0)
        split = integer(split, "split", 0, maxsym)
        # integer and bool codes keep their own dtype, so no int64 copy is made of them
        try:
            arr = np.asarray(data)
        except ValueError:  # a ragged nest of sequences
            arr = np.empty((0, 0))
        if arr.ndim != 1:
            raise InputError("data must be one-dimensional")
        # decode reads every symbol back as int64
        top = min(maxsym, 2**63 - 1)
        if arr.size and (arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() > top):
            raise InputError(f"data must be integers in [0..{top}]")
        self.n = int(arr.size)
        self.maxsym = maxsym
        self.root = self._build(arr, 0, maxsym, split)

    def _build(self, arr: np.ndarray, lo: int, hi: int, split: int = 0) -> _Node:
        if lo == hi or not arr.size:
            return _Node(lo, lo)
        mid = split - 1 if split else (lo + hi) // 2
        bits = arr > mid
        node = (_SplitRoot if split else _Node)(lo, mid, bits)
        # compress, as a boolean mask of random bits is several times slower
        node.left = self._build(arr.compress(~bits), lo, mid)
        node.right = self._build(arr.compress(bits), mid + 1, hi)
        return node

    def rank(self, c: int, i: int) -> int:
        """Occurrences of c among the first i entries; rank(c, 0) = 0."""
        c = integer(c, "symbol", 0, self.maxsym)
        i = integer(i, "position", 0, self.n)
        node = self.root
        while node.left is not None:
            ones = node.one(i)
            if c <= node.mid:
                i -= ones
                node = node.left
            else:
                i = ones
                node = node.right
        return i

    def access(self, i: int) -> int:
        """The symbol at position i in [1..n]: the one symbol of the node [i-1, i]."""
        i = integer(i, "position", 1, self.n)
        return self.descend(np.array([i - 1, i]), np.array([0]), np.array([1]))[0][0]

    def counts(self) -> tuple[list[int], list[int]]:
        """The symbols that occur, ascending, and how many times each does.

        It is the descent of the one node [0, n], whose ranks at n are the
        counts: two ranks per wavelet node it reaches, and no element read.
        """
        ranks = self.distinct_ranks([0, self.n])
        return [c for c, _ in ranks], [r[1] for _, r in ranks]

    def decode(self) -> np.ndarray:
        """The array, in the smallest integer dtype that holds maxsym, read from the tree.

        Each node's elements are its children's, placed at the positions of
        its 1 and 0 bits: one pass per level, O(n log maxsym) time.
        """
        # every symbol fits int64, whatever maxsym is declared
        dtype = np.min_scalar_type(min(self.maxsym, 2**63 - 1))

        def elements(node: _Node, size: int) -> np.ndarray:
            if not size:
                return np.empty(0, dtype=dtype)
            if node.left is None:
                return np.full(size, node.lo, dtype=dtype)
            bits = node.bits()
            out = np.empty(size, dtype=dtype)
            # index arrays, as a boolean mask of random bits is several times slower
            at = np.flatnonzero(bits)
            out[at] = elements(node.right, at.size)
            at = np.flatnonzero(~bits)
            out[at] = elements(node.left, at.size)
            return out

        return elements(self.root, self.n)

    def distinct_ranks(self, bounds) -> list[tuple[int, list[int]]]:
        """Every symbol c of positions [bounds[0]+1 .. bounds[-1]], ascending.

        bounds is a non-decreasing list of positions in [0..n], so blocks
        between equal boundaries are empty; each entry is
        (c, [rank(c, x) for x in bounds]).
        """
        bounds = [integer(x, "boundary", 0, self.n) for x in bounds]
        if not bounds or any(x > y for x, y in zip(bounds, bounds[1:])):
            raise InputError(f"invalid boundaries {bounds} over [0..{self.n}]")
        if bounds[-1] == bounds[0]:
            return []
        leaves = self.descend(np.array(bounds, dtype=np.int64), np.array([0]), np.array([len(bounds) - 1]))
        return [(c, r.tolist()) for c, _, r in leaves]

    def range_distinct(self, i: int, j: int) -> list[tuple[int, int, int]]:
        """Distinct symbols of positions [i..j] in ascending order.

        Each tuple is (c, rank(c, p_c), rank(c, q_c)) for the first and last
        occurrence p_c/q_c of c inside the range, which equals
        (c, rank(c, i-1) + 1, rank(c, j)).
        """
        i = integer(i, "position", 1, self.n)
        j = integer(j, "position", i, self.n)
        return [(c, x + 1, y) for c, (x, y) in self.distinct_ranks([i - 1, j])]

    def descend(self, x: np.ndarray, first: np.ndarray, last: np.ndarray) -> list:
        """Ranks of every symbol of every node's range, for a batch of nodes.

        x holds the boundaries of the nodes, x[first[j]] .. x[last[j]] the
        ascending ones of node j, whose range [x[first[j]]+1 .. x[last[j]]]
        must be non-empty. Returns one entry (c, at, r) per symbol c that
        occurs in some node's range, in ascending c: r holds the ranks of c
        at the boundaries x[at], or at all of x when at is None. at is
        ascending and takes whole nodes, every node whose range holds c
        among them; a node it takes whose range lacks c has equal ranks at
        all its boundaries. Each wavelet node ranks all the boundaries it
        receives in one step. A child's array goes down whole, nodes that
        hold none of its symbols included, while more than 1/_COMPACT of its
        nodes hold one; otherwise it is cut to those nodes by one gather the
        size of its output.
        """
        out = []
        stack = [(self.root, x, None, first, last)]
        while stack:
            node, x, at, first, last = stack.pop()
            if node.left is None:
                out.append((node.lo, at, x))
                continue
            ones = node.ones(x)
            # the right child is stacked first, so symbols come out ascending
            for child, y in ((node.right, ones), (node.left, x - ones)):
                alive = y[last] > y[first]
                live = np.count_nonzero(alive)
                if live * _COMPACT > alive.size:
                    stack.append((child, y, at, first, last))
                elif live:
                    size = (last - first + 1).compress(alive)
                    end = size.cumsum()
                    pick = np.arange(end[-1]) + (first.compress(alive) - end + size).repeat(size)
                    stack.append((child, y[pick], pick if at is None else at[pick], end - size, end - 1))
        return out
