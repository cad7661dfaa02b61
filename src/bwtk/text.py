"""Input loading, alphabet mapping and the one check of a text's symbols.

A Sequence holds its symbols in [1..sigma] as one integer array, in the
smallest dtype that holds sigma (uint8 below 256), checked once when it is
made; 0 is reserved for the terminator the index builder appends and never
appears in a Sequence. Parsing makes that array with NumPy from the bytes,
and a build reads it as it is, so no Python object per symbol is made
between the file and the suffix sort.
"""

from __future__ import annotations

import array
import operator
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InputError, integer, sequence

# raw-mode bytes must be printable ASCII unless an explicit alphabet admits them
_PRINTABLE_LO = 33
_PRINTABLE_HI = 126
# the ASCII whitespace bytes, as bytes.strip() removes them
_SPACE = b" \t\n\r\x0b\x0c"


@dataclass(frozen=True)
class AlphabetMap:
    """Bijection between input bytes and integer symbols 1..sigma."""

    byte_to_symbol: dict[int, int]
    symbol_to_byte: dict[int, int]

    @property
    def sigma(self) -> int:
        return len(self.byte_to_symbol)

    def encode(self, data: bytes) -> np.ndarray:
        """The symbols of data's bytes, in the smallest dtype that holds sigma."""
        table = np.zeros(256, dtype=np.min_scalar_type(self.sigma))
        table[list(self.byte_to_symbol)] = list(self.byte_to_symbol.values())
        symbols = table[np.frombuffer(data, dtype=np.uint8)]
        # 0 marks a byte outside the alphabet
        if symbols.size and not symbols.all():
            bad = data[int(np.argmin(symbols))]
            raise InputError(f"byte {bad!r} is not in the alphabet")
        return symbols

    def decode(self, symbols) -> bytes:
        try:
            s2b = self.symbol_to_byte
            return bytes(s2b[s] for s in symbols)
        except KeyError as exc:
            raise InputError(f"symbol {exc.args[0]!r} is not in the alphabet") from None


def symbol_array(symbols, sigma) -> np.ndarray:
    """symbols checked as a non-empty 1-D integer array over [1..sigma], sigma in [1..2**63 - 1].

    sigma is bounded so that an index of the text dumps and loads back. An
    integer array is checked in place and returned as it is, not copied.
    Anything else is read as a list, whose entries must all be ints,
    NumPy's included: a bool, a float such as 2.0, a str or None anywhere
    raises InputError. The values are read in one C-level pass, into uint8
    below sigma 256 and into int64 above: bytearray and array take each
    entry through __index__, so they refuse every entry that is not an int
    or a bool, and one past their dtype. They read False as 0, which the
    range check refuses, and True as 1, which an identity scan of the list
    refuses.
    """
    sigma = integer(sigma, "sigma", 1, 2**63 - 1)
    if isinstance(symbols, np.ndarray) and symbols.dtype.kind in "iu":
        s = symbols
    else:
        if not isinstance(symbols, list):
            symbols = sequence(symbols, "symbols")
        try:
            if sigma < 256:
                s = np.frombuffer(bytearray(symbols), dtype=np.uint8)
            else:
                s = np.frombuffer(array.array("q", symbols), dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"symbols must be integers in [1..{sigma}]") from None
        if any(map(operator.is_, symbols, repeat(True))):
            raise InputError(f"symbols must be integers in [1..{sigma}]")
    if s.ndim != 1 or not s.size:
        raise InputError("symbols must be a non-empty one-dimensional sequence")
    if s.min() < 1 or s.max() > sigma:
        raise InputError(f"symbols must be integers in [1..{sigma}]")
    return s


class Sequence:
    """A named string over the integer alphabet [1..sigma].

    array holds the symbols, checked by symbol_array when the Sequence is
    made, in the smallest dtype that holds sigma; it is the Sequence's text,
    which builds and the oracles read, and len() is its size. symbols is the
    list the Sequence was made from, kept as it was given and not copied, so
    that list must not be changed afterwards: a change shows in symbols but
    not in array. Made from anything else, such as an array or a tuple, the
    Sequence keeps no list, and each read of symbols makes a new one from
    the array, in O(n) time and n Python ints.
    """

    __slots__ = ("array", "sigma", "name", "alphabet", "_list")

    def __init__(self, symbols, sigma: int, name: str = "", alphabet: AlphabetMap | None = None) -> None:
        s = symbol_array(symbols, sigma)
        self.sigma = int(sigma)
        self.array = s.astype(np.min_scalar_type(self.sigma), copy=False)
        self.name = name
        self.alphabet = alphabet
        self._list = symbols if isinstance(symbols, list) else None

    @property
    def symbols(self) -> list[int]:
        return self.array.tolist() if self._list is None else self._list

    def __len__(self) -> int:
        return self.array.size

    def __repr__(self) -> str:
        return f"Sequence(symbols={self.symbols!r}, sigma={self.sigma!r}, name={self.name!r})"


def load_input(path: str, fmt: str = "auto") -> list[tuple[str, bytes]]:
    """Read a FASTA or raw text file into (name, bytes) records.

    Raw mode yields a single record named "" with all whitespace stripped.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    if not data.strip():
        raise InputError(f"{path}: empty input")
    if fmt == "auto":
        fmt = "fasta" if data.lstrip()[:1] == b">" else "raw"
    if fmt == "fasta":
        return _parse_fasta(data, path)
    if fmt == "raw":
        payload = data.translate(None, _SPACE)
        if not payload:
            raise InputError(f"{path}: no sequence data")
        return [("", payload)]
    raise InputError(f"unknown input format {fmt!r}")


def _parse_fasta(data: bytes, path: str) -> list[tuple[str, bytes]]:
    lines_of: list[tuple[str, list[bytes]]] = []  # each record's name and lines
    for line in data.splitlines():
        line = line.strip()
        if line[:1] == b">":
            lines_of.append((line[1:].strip().decode("ascii", "replace"), []))
        elif line:
            if not lines_of:
                raise InputError(f"{path}: sequence data before FASTA header")
            lines_of[-1][1].append(line)
    if not lines_of:
        raise InputError(f"{path}: no FASTA header found")
    records = [(name, b"".join(lines).translate(None, _SPACE)) for name, lines in lines_of]
    for rec_name, payload in records:
        if not payload:
            raise InputError(f"{path}: record {rec_name!r} has no sequence data")
    return records


def map_alphabet(
    records: list[tuple[str, bytes]], alphabet: bytes | None = None
) -> list[Sequence]:
    """Map byte records onto [1..sigma] sequences sharing one alphabet.

    Without an explicit alphabet, symbols are assigned to the distinct bytes in
    ascending byte order, so integer lexicographic order matches byte order.
    An explicit alphabet fixes both membership and assignment order.
    """
    if alphabet is not None:
        if not alphabet:
            raise InputError("explicit alphabet is empty")
        if len(set(alphabet)) != len(alphabet):
            raise InputError("explicit alphabet has duplicate bytes")
        ordered = list(alphabet)
    else:
        # the distinct bytes, from one bincount of each payload
        seen = np.zeros(256, dtype=bool)
        for _, payload in records:
            seen |= np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256) > 0
        ordered = np.flatnonzero(seen).tolist()
        for b in ordered:
            if not _PRINTABLE_LO <= b <= _PRINTABLE_HI:
                raise InputError(
                    f"byte {b!r} outside printable ASCII; pass an explicit alphabet"
                )
    b2s = {b: i + 1 for i, b in enumerate(ordered)}
    amap = AlphabetMap(b2s, {v: k for k, v in b2s.items()})
    out = []
    for name, payload in records:
        out.append(Sequence(amap.encode(payload), amap.sigma, name, amap))
    return out


def oracle_guard(default: int = 4096) -> int:
    """Input-size guard for brute-force references; BWTK_GUARD overrides it."""
    raw = os.environ.get("BWTK_GUARD")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"BWTK_GUARD must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError("BWTK_GUARD must be positive")
    return value
