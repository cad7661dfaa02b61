"""Rank and rangeDistinct queries over a symbol array.

The array is stored as a binary wavelet tree over [0..maxsym]: each node
splits its symbol range at the midpoint and keeps one bit per element.
Queries walk the tree, so a rank costs O(log maxsym) word operations. One
descent, distinct_ranks, carries any number of ascending boundaries down
the tree at once and reports, for every symbol between the first and the
last, its ranks at all of them; range_distinct is its two-boundary case.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_LOW_MASKS = tuple((1 << r) - 1 for r in range(64))
_WORD_MASKS = np.array(_LOW_MASKS, dtype=np.uint64)


class _Node:
    __slots__ = ("lo", "hi", "mid", "blocks", "left", "right")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.mid = (lo + hi) // 2
        self.blocks: list[int] | None = None
        self.left: _Node | None = None
        self.right: _Node | None = None


def _pack(bits: np.ndarray) -> list[int]:
    """Bit array to 64-bit blocks, each with the count of 1s before it.

    Block w holds bits 64w .. 64w+63 little-endian in its low 64 bits and
    the number of 1s among the first 64w bits above them, so the rank at i
    is one lookup and one popcount of blocks[i >> 6]. One zero block past
    the last bit keeps every i in 0..len(bits) valid, a 64-aligned length
    included.
    """
    packed = np.packbits(bits, bitorder="little")
    pad = (-packed.size) % 8 + 8
    packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    words = np.frombuffer(packed.tobytes(), dtype="<u8")
    cums = np.zeros(words.size, dtype=np.int64)
    np.cumsum(np.bitwise_count(words[:-1]), out=cums[1:])
    return [(c << 64) | w for c, w in zip(cums.tolist(), words.tolist())]


def _rank1(blocks: list[int], i: int) -> int:
    # number of 1 bits among the first i bits, 0 <= i <= len(bits)
    e = blocks[i >> 6]
    return (e >> 64) + (e & _LOW_MASKS[i & 63]).bit_count()


class RankIndex:
    """Wavelet tree over symbols in [0..maxsym] with 1-based positions."""

    __slots__ = ("n", "maxsym", "root")

    def __init__(self, data, maxsym: int) -> None:
        if maxsym < 0:
            raise InputError("maxsym must be non-negative")
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 1:
            raise InputError("data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() > maxsym):
            raise InputError("symbol outside [0..maxsym]")
        self.n = int(arr.size)
        self.maxsym = maxsym
        self.root = self._build(arr, 0, maxsym)

    def _build(self, arr: np.ndarray, lo: int, hi: int) -> _Node:
        node = _Node(lo, hi)
        if lo == hi or not arr.size:
            # no blocks: a leaf, or an empty range, where every rank is 0 and
            # which no descent enters
            return node
        bits = arr > node.mid
        node.blocks = _pack(bits)
        node.left = self._build(arr[~bits], lo, node.mid)
        node.right = self._build(arr[bits], node.mid + 1, hi)
        return node

    def _check_symbol(self, c: int) -> None:
        if not 0 <= c <= self.maxsym:
            raise InputError(f"symbol {c} outside [0..{self.maxsym}]")

    def rank(self, c: int, i: int) -> int:
        """Occurrences of c among the first i entries; rank(c, 0) = 0."""
        self._check_symbol(c)
        if not 0 <= i <= self.n:
            raise InputError(f"position {i} outside [0..{self.n}]")
        node = self.root
        while node.blocks is not None:
            ones = _rank1(node.blocks, i)
            if c <= node.mid:
                i -= ones
                node = node.left
            else:
                i = ones
                node = node.right
        return i

    def access(self, i: int) -> int:
        """The symbol at position i in [1..n]."""
        if not 1 <= i <= self.n:
            raise InputError(f"position {i} outside [1..{self.n}]")
        node = self.root
        i -= 1
        while node.blocks is not None:
            bit = (node.blocks[i >> 6] >> (i & 63)) & 1
            ones = _rank1(node.blocks, i)
            if bit:
                i = ones
                node = node.right
            else:
                i -= ones
                node = node.left
        return node.lo

    def distinct_ranks(self, bounds) -> list[tuple[int, list[int]]]:
        """Every symbol c of positions [bounds[0]+1 .. bounds[-1]], ascending.

        bounds is a non-decreasing list of positions in [0..n], so blocks
        between equal boundaries are empty; each entry is
        (c, [rank(c, x) for x in bounds]).
        """
        bounds = list(bounds)
        if not bounds or bounds[0] < 0 or bounds[-1] > self.n or any(
            x > y for x, y in zip(bounds, bounds[1:])
        ):
            raise InputError(f"invalid boundaries {bounds} over [0..{self.n}]")
        if bounds[-1] == bounds[0]:
            return []
        return self._descend(bounds)

    def range_distinct(self, i: int, j: int) -> list[tuple[int, int, int]]:
        """Distinct symbols of positions [i..j] in ascending order.

        Each tuple is (c, rank(c, p_c), rank(c, q_c)) for the first and last
        occurrence p_c/q_c of c inside the range, which equals
        (c, rank(c, i-1) + 1, rank(c, j)).
        """
        if not 1 <= i <= j <= self.n:
            raise InputError(f"invalid range [{i}..{j}] over [1..{self.n}]")
        return [(c, x + 1, y) for c, (x, y) in self._descend([i - 1, j])]

    def _descend(self, xs: list[int]) -> list[tuple[int, list[int]]]:
        """distinct_ranks without the checks, for a non-empty range.

        The one descent loop. Each boundary is ranked once per wavelet
        node, and a child whose whole range [xs[0]+1 .. xs[-1]] is empty is
        not entered. The loop walks on into the left child and stacks the
        right one, so the symbols come out ascending.
        """
        masks = _LOW_MASKS
        out: list[tuple[int, list[int]]] = []
        stack = []
        node = self.root
        while True:
            blocks = node.blocks
            if blocks is None:
                out.append((node.lo, xs))
                if not stack:
                    return out
                node, xs = stack.pop()
                continue
            # one plain loop for both children: cheaper than comprehensions
            ones = []
            zeros = []
            for x in xs:
                e = blocks[x >> 6]
                o = (e >> 64) + (e & masks[x & 63]).bit_count()
                ones.append(o)
                zeros.append(x - o)
            if zeros[-1] > zeros[0]:
                if ones[-1] > ones[0]:
                    stack.append((node.right, ones))
                node = node.left
                xs = zeros
            else:
                node = node.right
                xs = ones


class Frontier:
    """One batched pass's NumPy copy of a RankIndex.

    Each wavelet node becomes (lo, words, counts, left, right), with the
    64-bit words and the count of 1s before each word as arrays; a leaf has
    words None. The copy lives as long as the pass that made it.
    """

    __slots__ = ("root",)

    def __init__(self, index: RankIndex) -> None:
        self.root = _arrays(index.root)

    def descend(self, x: np.ndarray, nb: np.ndarray):
        """Ranks of every symbol of every node's range, for a batch of nodes.

        x holds the boundaries of the nodes, nb[j] ascending positions for
        node j, whose range [first+1 .. last] must be non-empty. Returns
        parallel lists, one entry per symbol c that occurs in some node's
        range, in ascending c: c, the indexes of those nodes, their nb and
        the ranks of c at their boundaries. Each wavelet node ranks all the
        boundaries it receives in one step, and a node whose range holds no
        symbol of a child does not follow the batch into it.
        """
        syms, ids_out, nbs, ranks = [], [], [], []
        stack = [(self.root, x, nb, np.arange(nb.size), _ends(nb))]
        while stack:
            (lo, words, counts, left, right), x, nb, ids, (first, last) = stack.pop()
            if words is None:
                syms.append(lo)
                ids_out.append(ids)
                nbs.append(nb)
                ranks.append(x)
                continue
            q = x >> 6
            ones = counts[q] + np.bitwise_count(words[q] & _WORD_MASKS[x & 63])
            # the right child is stacked first, so symbols come out ascending
            for child, y in ((right, ones), (left, x - ones)):
                alive = y[last] > y[first]
                count = np.count_nonzero(alive)
                if count == alive.size:
                    stack.append((child, y, nb, ids, (first, last)))
                elif count:
                    kept = nb[alive]
                    stack.append((child, y[alive.repeat(nb)], kept, ids[alive], _ends(kept)))
        return syms, ids_out, nbs, ranks


def _ends(nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indexes of each node's first and last boundary."""
    last = nb.cumsum() - 1
    return last - (nb - 1), last


def _arrays(node: _Node) -> tuple:
    if node.blocks is None:
        return (node.lo, None, None, None, None)
    mask = (1 << 64) - 1
    words = np.array([e & mask for e in node.blocks], dtype=np.uint64)
    counts = np.array([e >> 64 for e in node.blocks], dtype=np.int64)
    return (node.lo, words, counts, _arrays(node.left), _arrays(node.right))
