"""Burrows-Wheeler transform construction and the queryable index around it.

The terminator is encoded as 0 and sorts below every alphabet symbol, so the
transformed string T# has length n = |T| + 1 and its BWT contains exactly
one 0. Construction sorts suffixes by prefix doubling, one numpy argsort of
a single int64 key per round, which is O(n log^2 n) and entirely adequate
at the intended scales.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InputError
from .text import Sequence
from .wavelet import RankIndex

_MAGIC = b"BWTK1"
# the largest |T#| whose sort key n**2 + n - 1 fits int64; within it, so does
# every sum of frequency products a measure forms, at most n1 n2
_MAX_N = 3_037_000_499


def _sort_suffixes(s: np.ndarray) -> np.ndarray:
    """0-based suffix order of s, all symbols distinct-terminated.

    Each round of prefix doubling sorts one int64 key, rank * (n + 1) +
    second + 1, where second is the rank k places on (-1 past the end), with
    one stable argsort. Ranks lie in [0, n) and second + 1 in [0, n], so the
    key, at most n**2 + n - 1, orders (rank, second) as a two-key sort would
    while it fits int64: an s longer than _MAX_N raises InputError.
    """
    n = int(s.size)
    if n > _MAX_N:
        raise InputError(f"text too long: {n} symbols with the terminator, over {_MAX_N}")
    rank = s.astype(np.int64)
    if int(rank.max()) >= n:
        rank = np.unique(rank, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        key = rank * (n + 1)
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key, kind="stable")
        ko = key[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        np.not_equal(ko[1:], ko[:-1], out=changed[1:])
        fresh = np.cumsum(changed)
        if fresh[-1] == n - 1:
            return order
        rank = np.empty(n, dtype=np.int64)
        rank[order] = fresh
        k *= 2


def suffix_array(seq: Sequence) -> list[int]:
    """1-based starting positions of the sorted suffixes of T#."""
    s = np.concatenate([np.asarray(seq.symbols, dtype=np.int64), [0]])
    return (_sort_suffixes(s) + 1).tolist()


def build_bwt(seq: Sequence) -> "BwtIndex":
    return BwtIndex(seq.symbols, seq.sigma, name=seq.name)


class BwtIndex:
    """BWT of T#, its C array, a rank structure, and the original symbols.

    codes holds the BWT once, as np.min_scalar_type(sigma) codes, and T is
    held once in the same dtype; bwt and text read them back as lists. The
    C array covers only the symbols that occur: syms is them in ascending
    order, the terminator 0 first, and c[k] counts the symbols of T#
    strictly smaller than syms[k], with c[-1] = n, so the suffix rows
    starting with syms[k] are exactly [c[k]+1 .. c[k+1]]. A declared sigma,
    or a code, far above the others costs nothing.
    enumerations counts how many traversal passes have touched this index
    (used by tests).
    """

    __slots__ = ("codes", "syms", "c", "n", "sigma", "ranks", "_text", "name", "enumerations")

    def __init__(self, symbols: list[int], sigma: int, name: str = "") -> None:
        if sigma < 1:
            raise InputError("sigma must be at least 1")
        if not symbols:
            raise InputError("empty input")
        s = np.concatenate([np.asarray(symbols, dtype=np.int64), [0]])
        if s[:-1].min() < 1 or s[:-1].max() > sigma:
            raise InputError(f"symbols outside [1..{sigma}]")
        order = _sort_suffixes(s)
        self._install(s[order - 1], sigma, name)
        self._text = s[:-1].astype(self.codes.dtype)

    def _install(self, codes: np.ndarray, sigma: int, name: str) -> None:
        self.codes = codes.astype(np.min_scalar_type(sigma))
        self.n = int(codes.size)
        self.sigma = sigma
        syms, counts = np.unique(codes, return_counts=True)
        self.syms = syms.astype(np.int64)
        self.c = np.concatenate(([0], np.cumsum(counts)))
        self.ranks = RankIndex(codes, sigma)
        self.name = name
        self.enumerations = 0

    @property
    def bwt(self) -> list[int]:
        return self.codes.tolist()

    @property
    def text(self) -> list[int]:
        return self._text.tolist()

    def __len__(self) -> int:
        return self.n

    def rank(self, c: int, i: int) -> int:
        return self.ranks.rank(c, i)

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise InputError(f"position {i} outside [1..{self.n}]")
        return int(self.codes[i - 1])

    def interval(self, word) -> tuple[int, int] | None:
        """Suffix-row interval of word via backward search; None if absent."""
        sp, ep = 1, self.n
        for sym in reversed(tuple(word)):
            if not 1 <= sym <= self.sigma:
                raise InputError(f"symbol {sym} outside [1..{self.sigma}]")
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
        # codes are held as int64 while the tree is built
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
        codes = (
            (bits[:nbits].reshape(n, width).astype(np.int64) * (1 << np.arange(width)))
            .sum(axis=1)
        )
        if codes.max() > sigma or int((codes == 0).sum()) != 1:
            raise InputError(f"{path}: corrupt BWT payload")
        index = cls.__new__(cls)
        index._install(codes, int(sigma), "")
        index._text = index._invert()
        return index

    def _invert(self) -> np.ndarray:
        """Recover T by walking the LF mapping from the terminator row.

        BWT row i holds the symbol a that precedes the suffix of row i, and
        lf[i] is the row of the suffix that starts with that a: equal
        symbols keep their BWT order in the first column, so one stable
        argsort of the codes gives LF. The walk starts at row 0, the suffix
        #, whose BWT symbol is the last of T, and stops at the terminator.
        """
        lf = np.empty(self.n, dtype=np.int64)
        lf[np.argsort(self.codes, kind="stable")] = np.arange(self.n)
        lf = lf.tolist()
        end = int(np.flatnonzero(self.codes == 0)[0])
        rows = []
        row = 0
        # lf[end] is 0, so the walk from row 0 reaches end
        while row != end:
            rows.append(row)
            row = lf[row]
        if len(rows) != self.n - 1:
            raise InputError("LF walk length mismatch; index is corrupt")
        return self.codes[rows[::-1]]

    def to_sequence(self, name: str | None = None) -> Sequence:
        return Sequence(self.text, self.sigma, name=self.name if name is None else name)
