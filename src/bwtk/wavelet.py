"""Rank and rangeDistinct queries over a symbol array.

The array is stored as a binary wavelet tree over [0..maxsym]: each node
splits its symbol range at the midpoint and keeps one bit per element,
packed into NumPy 64-bit words with the count of 1s before each word, so a
rank costs O(log maxsym) word operations. The counts are int32 while a
node holds fewer than 2**31 bits (half a bit per bit) and int64 past that,
as _sort_suffixes sizes its arrays; every rank that leaves this module is
int64 either way. The tree is all that is kept of the array: decode reads
it back in O(n log maxsym) on each call. One descent, RankIndex.descend,
carries a batch of nodes, each a run of ascending boundaries, down the
tree at once and reports, for every symbol of every node's range, its
ranks at all of that node's boundaries; distinct_ranks and range_distinct
are its one-node case. rank and access walk one position down the same
arrays. BitVector keeps one plain bit vector in a wavelet node's layout.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_WORD_MASKS = np.array([(1 << r) - 1 for r in range(64)], dtype=np.uint64)


def _pack(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """bits as little-endian 64-bit words, and the count of 1s before each word.

    One zero word past the last bit keeps every position in 0..len(bits)
    valid, a 64-aligned length included. No count exceeds len(bits), so
    they are int32 below 2**31 bits.
    """
    packed = np.packbits(bits, bitorder="little")
    pad = (-packed.size) % 8 + 8
    words = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)]).view("<u8")
    counts = np.zeros(words.size, dtype=np.int32 if bits.size < 2**31 else np.int64)
    np.cumsum(np.bitwise_count(words[:-1]), out=counts[1:], dtype=counts.dtype)
    return words, counts


def _ones(words: np.ndarray, counts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of 1 bits among the first x bits, as int64, for every position of the array x."""
    q = x >> 6
    return np.add(counts[q], np.bitwise_count(words[q] & _WORD_MASKS[x & 63]), dtype=np.int64)


def _bits(words: np.ndarray, size: int) -> np.ndarray:
    """The first size bits of words, as a bool array."""
    return np.unpackbits(words.view(np.uint8), count=size, bitorder="little").view(bool)


class BitVector:
    """A bit vector with rank over arrays of positions, laid out as a wavelet node."""

    __slots__ = ("n", "words", "counts")

    def __init__(self, bits: np.ndarray) -> None:
        self.n = int(bits.size)
        self.words, self.counts = _pack(bits)

    def ones(self, x: np.ndarray) -> np.ndarray:
        """1s among the first x bits, for each entry of x in [0..n]."""
        return _ones(self.words, self.counts, x)

    def bits(self) -> np.ndarray:
        """The bits, as a bool array."""
        return _bits(self.words, self.n)


class _Node:
    """One wavelet node: symbols lo..hi, split at mid.

    words holds one bit per element (set when the symbol is above mid),
    and counts the 1s before each word, as _pack lays them out. A leaf,
    and a node over a range with no element, has words None: every rank
    there is 0 or the position itself, and no descent goes below it.
    """

    __slots__ = ("lo", "mid", "words", "counts", "left", "right")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.mid = (lo + hi) // 2
        self.words: np.ndarray | None = None
        self.counts: np.ndarray | None = None
        self.left: _Node | None = None
        self.right: _Node | None = None

    def ones(self, i: int) -> int:
        """Number of 1 bits among the first i bits, 0 <= i <= len(bits)."""
        q = i >> 6
        return self.counts.item(q) + (self.words.item(q) & ((1 << (i & 63)) - 1)).bit_count()


class RankIndex:
    """Wavelet tree over symbols in [0..maxsym] with 1-based positions."""

    __slots__ = ("n", "maxsym", "root")

    def __init__(self, data, maxsym: int) -> None:
        if maxsym < 0:
            raise InputError("maxsym must be non-negative")
        # integer codes keep their own dtype, so no int64 copy is made of them
        arr = np.asarray(data)
        if arr.dtype.kind not in "iu":
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
            return node
        bits = arr > node.mid
        node.words, node.counts = _pack(bits)
        # compress, as a boolean mask of random bits is several times slower
        node.left = self._build(arr.compress(~bits), lo, node.mid)
        node.right = self._build(arr.compress(bits), node.mid + 1, hi)
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
        while node.words is not None:
            ones = node.ones(i)
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
        while node.words is not None:
            ones = node.ones(i)
            if node.words.item(i >> 6) >> (i & 63) & 1:
                i = ones
                node = node.right
            else:
                i -= ones
                node = node.left
        return node.lo

    def counts(self) -> tuple[list[int], list[int]]:
        """The symbols that occur, ascending, and how many times each does.

        A node's elements split into its children's by the 1s among its
        bits, so this reads one count per wavelet node and no element.
        """
        syms, counts = [], []
        stack = [(self.root, self.n)]
        while stack:
            node, size = stack.pop()
            if node.words is None:
                if size:
                    syms.append(node.lo)
                    counts.append(size)
                continue
            ones = node.ones(size)
            # the right child is stacked first, so symbols come out ascending
            stack += ((node.right, ones), (node.left, size - ones))
        return syms, counts

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
            if node.words is None:
                return np.full(size, node.lo, dtype=dtype)
            bits = _bits(node.words, size)
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
        bounds = list(bounds)
        if not bounds or bounds[0] < 0 or bounds[-1] > self.n or any(
            x > y for x, y in zip(bounds, bounds[1:])
        ):
            raise InputError(f"invalid boundaries {bounds} over [0..{self.n}]")
        if bounds[-1] == bounds[0]:
            return []
        syms, _, _, ranks = self.descend(
            np.array(bounds, dtype=np.int64), np.array([len(bounds)])
        )
        return [(c, r.tolist()) for c, r in zip(syms, ranks)]

    def range_distinct(self, i: int, j: int) -> list[tuple[int, int, int]]:
        """Distinct symbols of positions [i..j] in ascending order.

        Each tuple is (c, rank(c, p_c), rank(c, q_c)) for the first and last
        occurrence p_c/q_c of c inside the range, which equals
        (c, rank(c, i-1) + 1, rank(c, j)).
        """
        if not 1 <= i <= j <= self.n:
            raise InputError(f"invalid range [{i}..{j}] over [1..{self.n}]")
        return [(c, x + 1, y) for c, (x, y) in self.distinct_ranks([i - 1, j])]

    def descend(self, x: np.ndarray, nb: np.ndarray):
        """Ranks of every symbol of every node's range, for a batch of nodes.

        x holds the boundaries of the nodes, nb[j] ascending positions for
        node j, whose range [first+1 .. last] must be non-empty. Returns
        parallel lists, one entry per symbol c that occurs in some node's
        range, in ascending c: c, the indexes of those nodes, their nb and
        the ranks of c at their boundaries. Each wavelet node ranks all the
        boundaries it receives in one step, and a node whose range holds no
        symbol of a child does not follow the batch into it: the batch is
        compacted by compress and index gathers, never by boolean-mask
        indexing.
        """
        syms, ids_out, nbs, ranks = [], [], [], []
        stack = [(self.root, x, nb, np.arange(nb.size), _ends(nb))]
        while stack:
            node, x, nb, ids, (first, last) = stack.pop()
            if node.words is None:
                syms.append(node.lo)
                ids_out.append(ids)
                nbs.append(nb)
                ranks.append(x)
                continue
            ones = _ones(node.words, node.counts, x)
            # the right child is stacked first, so symbols come out ascending
            for child, y in ((node.right, ones), (node.left, x - ones)):
                alive = y[last] > y[first]
                at = alive.nonzero()[0]
                if at.size == alive.size:
                    stack.append((child, y, nb, ids, (first, last)))
                elif at.size:
                    kept = nb[at]
                    stack.append((child, y.compress(alive.repeat(nb)), kept, ids[at], _ends(kept)))
        return syms, ids_out, nbs, ranks


def _ends(nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indexes of each node's first and last boundary."""
    last = nb.cumsum() - 1
    return last - (nb - 1), last
