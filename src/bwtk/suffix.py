"""Burrows-Wheeler transform construction and the queryable index around it.

The terminator is encoded as 0 and sorts below every alphabet symbol, so the
transformed string T# has length n = |T| + 1 and its BWT contains exactly
one 0. Construction makes T# once, in the smallest dtype that holds its
codes, and sorts suffixes by prefix doubling from a packed start: one
in-place sort of uint64 keys, each h symbols above its row's bits, orders
every suffix by its first h symbols (19 at sigma=4 for n = 2e5), and each
later round doubles the sorted prefix with one numpy argsort of a single
int64 key over only the rows still tied. Loading checks that the BWT is
that of a text by pointer jumping over LF, in about log2 n numpy rounds.

An index keeps only the C array and a wavelet tree of the BWT, terminator
rows apart at its root: ceil(log2 sigma) bits per row plus a quarter bit
per bit of counts. BWT, psi and text are made on each call and not kept.
PairIndex holds two texts in one such index, that of T1 $ T2 #.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InputError, integer, sequence
from .text import Sequence, symbol_array
from .wavelet import BitVector, RankIndex

_MAGIC = b"BWTK1"
# the largest |T#| whose sort key n**2 + n - 1 fits int64; within it, so does
# every sum of frequency products a measure forms, at most n1 n2
_MAX_N = 3_037_000_499


def _sort_suffixes(s: np.ndarray) -> np.ndarray:
    """0-based suffix order of s, which ends in a 0 that occurs nowhere else.

    The first round sorts every suffix by its first h symbols with one plain
    sort. The codes are first replaced by their ranks among the codes that
    occur (0 stays 0), so the base b is the number of distinct codes, at most
    n. One uint64 key per row packs h symbols in base b, 0 past the end of s,
    above the row itself in the low r = (n - 1).bit_length() bits. The key
    stays below b**h * 2**r <= 2**64, and h is as large as that allows, up
    to n: 19 at sigma=4 and 10 at sigma=20 for n = 2e5. As n <= _MAX_N <
    2**32, r <= 32 and b <= n <= 2**r <= 2**(64 - r), so one code always fits
    beside the row. The keys are distinct, so an unstable in-place sort is
    enough, and the order is read back from their low bits; rows that tie on
    all h symbols are refined by the later rounds. The packing doubles: with
    key[i] packing s[i : i + w], key[i] * b**m plus the first m symbols of
    key[i + w] packs w + m, so h symbols take ceil(log2 h) steps.

    A row's rank is the head slot of its group, the first slot in the
    order that its ties occupy. Each later round, k the prefix length sorted
    so far, re-sorts only the rows still tied (Larsson and Sadakane, "Faster
    suffix sorting", TCS 2007) by one int64 key, rank * (n + 1) + second + 1
    with second the rank k places on, in one stable argsort; finished
    groups are never touched again. A tied row has more than k symbols
    before the terminator, so k places on lies inside s. Ranks lie in
    [0, n) and second + 1 in [1, n], so the key, below n**2 + n, orders
    (rank, second) as a two-key sort would while it fits int64: an s longer
    than _MAX_N raises InputError.
    """
    n = int(s.size)
    if n > _MAX_N:
        raise InputError(f"text too long: {n} symbols with the terminator, over {_MAX_N}")
    if int(s.max()) >= n:
        s = np.unique(s, return_inverse=True)[1]
    else:
        seen = np.bincount(s) > 0
        if not seen.all():
            s = (np.cumsum(seen) - 1).astype(s.dtype)[s]
        del seen
    b = int(s.max()) + 1
    r = (n - 1).bit_length()
    h = 1
    while h < n and b ** (h + 1) <= 2 ** (64 - r):
        h += 1
    key = s.astype(np.uint64)
    del s
    # tail[i] is the first m symbols that key[i + width] packs, 0 past the end
    tail = np.zeros(n, dtype=np.uint64)
    width = 1
    while width < h:
        m = min(width, h - width)
        np.floor_divide(key[width:], b ** (width - m), out=tail[: n - width])
        tail[n - width :] = 0
        key *= b**m
        key += tail
        width += m
    del tail
    # ranks, rows and slots lie below n; int32 halves their memory
    dtype = np.int32 if n < 2**31 else np.int64
    slots = np.arange(n, dtype=dtype)
    key <<= r
    np.bitwise_or(key, slots, out=key, dtype=np.uint64, casting="unsafe")
    key.sort()
    order = np.empty(n, dtype=dtype)
    np.bitwise_and(key, 2**r - 1, out=order, casting="unsafe")
    key >>= r
    rank = np.empty(n, dtype=dtype)
    tied = _regroup(rank, order, slots, key)
    del key, slots
    k = h
    # each round holds one int64 key and a few int32 arrays of the tied rows' size
    # (take gathers through int32 indexes without widening them first)
    while tied.size:
        rows = order.take(tied)
        key = rank.take(rows).astype(np.int64)
        key *= n + 1
        rows += k
        key += rank.take(rows)
        key += 1
        del rows
        by = np.argsort(key, kind="stable")
        key = key[by]
        by = tied[by]
        rows = order.take(by)
        del by
        order[tied] = rows
        tied = _regroup(rank, rows, tied, key)
        k *= 2
    return order


def _regroup(rank: np.ndarray, rows: np.ndarray, slots: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rank rows, sorted by key into the ascending slots, by their groups' head slots.

    Returns the slots of the rows that still share their key with another.
    When no row does, the ranks are left as they were: no round reads them.
    """
    fresh = np.empty(key.size, dtype=bool)
    fresh[0] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    if fresh.all():
        return slots[:0]
    head = np.where(fresh, slots, 0)
    np.maximum.accumulate(head, out=head)
    rank[rows] = head
    del head
    np.logical_not(fresh, out=fresh)
    fresh[:-1] |= fresh[1:]
    return slots[fresh]


def _joined(*texts: np.ndarray) -> np.ndarray:
    """T#, or T1 $ T2 # of two texts, made once in the smallest dtype that holds its codes.

    With k texts, letter a is code a + k - 1 and the terminator after text i
    (from 0) is k - 1 - i: # is 0 and $ is 1, below every letter. The shift
    is added in the dtype of T#, so a letter at the top of a text's own
    dtype does not wrap.
    """
    shift = len(texts) - 1
    top = max(int(t.max()) for t in texts) + shift
    s = np.empty(sum(t.size for t in texts) + len(texts), dtype=np.min_scalar_type(top))
    end = 0
    for i, t in enumerate(texts):
        np.add(t, shift, out=s[end : end + t.size], dtype=s.dtype, casting="unsafe")
        end += t.size + 1
        s[end - 1] = shift - i
    return s


def suffix_array(seq: Sequence) -> list[int]:
    """1-based starting positions of the sorted suffixes of T#, T being seq's array."""
    return (_sort_suffixes(_joined(symbol_array(seq.array, seq.sigma))) + 1).tolist()


def build_bwt(seq: Sequence) -> "BwtIndex":
    """The index of seq's array, read as it is: an array is checked in place, not copied."""
    return BwtIndex(seq.array, seq.sigma, name=seq.name)


class BwtIndex:
    """BWT of T#, kept only as a wavelet tree, and its C array.

    T is a list or 1-D integer array over [1..sigma], checked as a Sequence
    checks it (text.symbol_array); build_bwt passes a Sequence's array.
    ranks, a wavelet.RankIndex of the BWT, is the whole index besides n,
    sigma and the C array, which one descent reads off the tree (counts).
    The C array covers only the symbols that occur: syms is them in
    ascending order, the terminator 0 first, and c[k] counts the symbols of
    T# below syms[k], with c[-1] = n, so the suffix rows starting with
    syms[k] are exactly [c[k]+1 .. c[k+1]]. A declared sigma, or a code,
    far above the others costs next to nothing: the sort ranks the codes
    that occur, and the wavelet tree gives each a leaf.
    Everything else is computed on each call and not kept:
    - codes (and bwt, its list) decodes the tree, O(n log sigma);
    - psi() is the stable argsort of that decode, O(n log sigma);
    - first(rows) reads the first column F from the C array, O(log sigma)
      per row;
    - text (and to_sequence) inverts the BWT by pointer jumping over LF,
      O(n log n).
    enumerations counts how many traversal passes have touched this index
    (used by tests).
    """

    __slots__ = ("syms", "c", "n", "sigma", "ranks", "name", "enumerations")
    # codes below it are terminators: # here, # and $ in a PairIndex
    terminators = 1
    # the indexes whose texts a PairIndex was built from
    parts: tuple = ()

    def __init__(self, symbols, sigma: int, name: str = "") -> None:
        s = _joined(symbol_array(symbols, sigma))
        order = _sort_suffixes(s)
        self._install(s[order - 1], int(sigma), name)

    def _install(self, codes: np.ndarray, sigma: int, name: str) -> None:
        """Index the BWT codes; the tree is built in their dtype and they are not kept."""
        self.n = int(codes.size)
        self.sigma = sigma
        self.ranks = RankIndex(codes, sigma, self.terminators)
        syms, counts = self.ranks.counts()
        self.syms = np.array(syms, dtype=np.int64)
        self.c = np.concatenate(([0], np.cumsum(counts)))
        self.name = name
        self.enumerations = 0

    @property
    def codes(self) -> np.ndarray:
        """The BWT, decoded from the tree on each read: O(n log sigma)."""
        return self.ranks.decode()

    @property
    def bwt(self) -> list[int]:
        return self.codes.tolist()

    @property
    def text(self) -> list[int]:
        """T, inverted from the BWT on each read (see _invert)."""
        return self._invert().tolist()

    def __len__(self) -> int:
        return self.n

    def rank(self, c: int, i: int) -> int:
        return self.ranks.rank(c, i)

    def access(self, i: int) -> int:
        return self.ranks.access(i)

    def interval(self, word) -> tuple[int, int] | None:
        """Suffix-row interval of word via backward search; None if absent."""
        word = [integer(sym, "symbol", 1, self.sigma) for sym in sequence(word, "word")]
        sp, ep = 1, self.n
        for sym in reversed(word):
            k = int(np.searchsorted(self.syms, sym))
            if k == self.syms.size or self.syms[k] != sym:
                return None  # sym does not occur
            base = int(self.c[k])
            sp = base + self.ranks.rank(sym, sp - 1) + 1
            ep = base + self.ranks.rank(sym, ep)
            if sp > ep:
                return None
        return sp, ep

    def count(self, word) -> int:
        iv = self.interval(word)
        return 0 if iv is None else iv[1] - iv[0] + 1

    # ------------------------------------------------------------------
    # binary round trip

    def dump(self, path: str) -> None:
        """Write magic, n, sigma, then the BWT as packed fixed-width codes."""
        width = self.sigma.bit_length()
        codes = self.codes
        bits = ((codes[:, None] >> np.arange(width, dtype=codes.dtype)) & 1).astype(np.uint8)
        packed = np.packbits(bits.reshape(-1), bitorder="little")
        try:
            with open(path, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(struct.pack("<QQ", self.n, self.sigma))
                fh.write(packed.tobytes())
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from None

    @classmethod
    def load(cls, path: str) -> "BwtIndex":
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror}") from None
        if len(blob) < len(_MAGIC) + 16 or not blob.startswith(_MAGIC):
            raise InputError(f"{path}: not a BWTK1 index")
        n, sigma = struct.unpack_from("<QQ", blob, len(_MAGIC))
        if n < 2 or not 1 <= sigma < 2**63:
            raise InputError(f"{path}: corrupt header")
        if n > _MAX_N:
            raise InputError(f"{path}: {n} symbols with the terminator, over {_MAX_N}")
        width = int(sigma).bit_length()
        payload = np.frombuffer(blob, dtype=np.uint8, offset=len(_MAGIC) + 16)
        nbits = n * width
        if payload.size != (nbits + 7) // 8:
            raise InputError(f"{path}: payload size mismatch")
        bits = np.unpackbits(payload, bitorder="little")
        # dump writes zero pad bits, so a file that loads dumps back identically
        if bits[nbits:].any():
            raise InputError(f"{path}: non-zero padding after the BWT payload")
        # one bit column at a time, so no (n, width) integer matrix is made
        bits = bits[:nbits].reshape(n, width)
        # 2**width - 1 fits the smallest dtype that holds sigma
        dtype = np.min_scalar_type(sigma)
        codes = np.zeros(n, dtype=dtype)
        for j in range(width):
            column = bits[:, j].astype(dtype)
            column <<= j
            codes |= column
        del bits, column
        if codes.max() > sigma or int((codes == 0).sum()) != 1:
            raise InputError(f"{path}: corrupt BWT payload")
        index = cls.__new__(cls)
        index._install(codes, int(sigma), "")
        del codes
        index._walk_lf(distances=False)  # raises unless LF is one cycle
        return index

    def first(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The first column F at 0-based suffix rows, as int64; all of F when rows is None.

        Rows c[k] .. c[k+1] - 1 start with syms[k], so F comes from the C
        array alone.
        """
        if rows is None:
            return np.repeat(self.syms, np.diff(self.c))
        return self.syms[self.c[1:].searchsorted(rows, "right")]

    def psi(self) -> np.ndarray:
        """Per suffix row (0-based), the row of the suffix one symbol on.

        Equal symbols keep their BWT order in the first column F, so a stable
        argsort of the BWT inverts LF, and row r's suffix starts with F[r]
        (first). Each call decodes the tree and makes a fresh array, in
        O(n log sigma); the index keeps none.
        """
        return np.argsort(self.codes, kind="stable")

    def _walk_lf(self, distances: bool = True) -> np.ndarray | None:
        """Every row's distance to row 0 along LF, or None when not asked for.

        BWT row i holds the symbol a that precedes the suffix of row i, and
        lf[i] is the row of the suffix that starts with that a: LF inverts
        psi. Row 0 is the suffix #, and the row of the suffix at position p
        of T reaches it in p + 1 steps along LF. Pointer jumping (Wyllie
        1979), with row 0 absorbing, takes every row to row 0 in
        ceil(log2(n - 1)) rounds, and adds up the distances on the way when
        asked to. A row that never reaches row 0 lies on a second cycle of
        LF, which the BWT of no text has: InputError. O(n log n) time.
        """
        n = self.n
        by = self.psi()
        # rows and distances lie below n; int32 halves the gathers' traffic
        dtype = np.int32 if n < 2**31 else np.int64
        hop = np.empty(n, dtype=dtype)
        hop[by] = np.arange(n, dtype=dtype)
        del by
        hop[0] = 0
        dist = None
        if distances:
            dist = np.ones(n, dtype=dtype)
            dist[0] = 0
        step = np.empty(n, dtype=dtype)
        # after r rounds a row has moved 2**r steps or stopped at row 0, and
        # no distance exceeds n - 1
        for _ in range((n - 2).bit_length()):
            if dist is not None:
                np.take(dist, hop, out=step)
                dist += step
            np.take(hop, hop, out=step)
            hop, step = step, hop
        if hop.any():
            raise InputError("LF has more than one cycle; index is corrupt")
        return dist

    def _invert(self) -> np.ndarray:
        """T, recovered along LF, in the smallest dtype that holds sigma.

        T[p] is the F symbol of the row at distance p + 1 from row 0 (see
        _walk_lf). The index keeps nothing of it.
        """
        dist = self._walk_lf()
        text = np.empty(self.n - 1, dtype=np.min_scalar_type(self.sigma))
        text[dist[1:] - 1] = self.first()[1:]
        return text

    def to_sequence(self, name: str | None = None) -> Sequence:
        return Sequence(self._invert(), self.sigma, name=self.name if name is None else name)


class PairIndex(BwtIndex):
    """One index of a pair of texts: the BWT of T1 $ T2 #, and each row's text.

    Codes are shifted up by one so that the separator $ sorts below every
    letter: letter a of [1..sigma] is code a + 1, $ is 1 and # is 0, and
    the index's sigma is the texts' sigma + 1. As $ occurs once, T1's
    suffixes T1[i..] $ T2 # compare as T1[i..] # do, and T2's are those of
    T2 #, so each text's rows keep the order they have in its own index.
    bit marks text 1's rows, those of the suffixes that start in T1 $: a
    text-1 row r is row bit.ones(r) of T1's BwtIndex and a text-2 row r is
    row r - bit.ones(r) of T2's. The row of $ T2 # plays T1's row of #, so
    a block of right extension $ ends in T1 and one of # in T2. The left
    extensions by # and $ are the circular ones: #W is text 1's terminator
    extension and $W text 2's, whatever the bit says of their rows 0 and 1.

    parts holds the two indexes the pair was built from (see of); a pass
    over the pair counts as a pass over each of them. The pair keeps its
    wavelet tree, C array and bit, as a BwtIndex does, and no text: texts()
    inverts the pair's BWT on each call.
    """

    __slots__ = ("split", "bit", "parts")
    terminators = 2

    def __init__(self, symbols1, symbols2, sigma: int, parts: tuple = ()) -> None:
        sigma = integer(sigma, "sigma of a pair", 1, 2**63 - 2)
        one, two = symbol_array(symbols1, sigma), symbol_array(symbols2, sigma)
        n = one.size + two.size + 2
        if n > _MAX_N:
            raise InputError(f"pair too long: {n} symbols with $ and #, over {_MAX_N}")
        self.split = one.size + 1
        s = _joined(one, two)
        del one, two
        order = _sort_suffixes(s)
        self._install(s[order - 1], sigma + 1, "")
        self.bit = BitVector(order < self.split)
        self.parts = parts

    @classmethod
    def of(cls, index1: BwtIndex, index2: BwtIndex) -> "PairIndex":
        """The pair index of two indexes' texts, each inverted from its BWT (see _invert)."""
        if type(index1) is not BwtIndex or type(index2) is not BwtIndex:
            raise InputError("a pair index is built from two one-text BwtIndexes")
        if index1.sigma != index2.sigma:
            raise InputError("alphabet mismatch between the two indexes")
        return cls(index1._invert(), index2._invert(), index1.sigma, (index1, index2))

    @property
    def letters(self) -> int:
        """The texts' sigma."""
        return self.sigma - 1

    @property
    def ns(self) -> tuple[int, int]:
        """Each text's length with its terminator: n of its own BwtIndex."""
        return self.split, self.n - self.split

    def texts(self) -> tuple[list[int], list[int]]:
        """The symbols of T1 and T2, from one inversion of the pair's BWT."""
        text = self._invert() - 1
        return text[: self.split - 1].tolist(), text[self.split :].tolist()
