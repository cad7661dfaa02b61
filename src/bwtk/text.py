"""Input loading and alphabet mapping.

Sequences are held as integer symbols in [1..sigma]; 0 is reserved for the
terminator appended by the index builder and never appears in a Sequence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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

    def encode(self, data: bytes) -> list[int]:
        # symbols by byte value, 0 for bytes outside the alphabet
        table = np.zeros(256, dtype=np.min_scalar_type(self.sigma))
        table[list(self.byte_to_symbol)] = list(self.byte_to_symbol.values())
        symbols = table[np.frombuffer(data, dtype=np.uint8)]
        if symbols.size and not symbols.all():
            bad = data[int(np.argmin(symbols))]
            raise InputError(f"byte {bad!r} is not in the alphabet")
        return symbols.tolist()

    def decode(self, symbols: list[int]) -> bytes:
        try:
            s2b = self.symbol_to_byte
            return bytes(s2b[s] for s in symbols)
        except KeyError as exc:
            raise InputError(f"symbol {exc.args[0]!r} is not in the alphabet") from None


@dataclass
class Sequence:
    """A named string over the integer alphabet [1..sigma]."""

    symbols: list[int]
    sigma: int
    name: str = ""
    alphabet: AlphabetMap | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # an index holds codes below 2**63, as suffix._text requires
        self.sigma = integer(self.sigma, "sigma", 1, 2**63 - 1)
        if not isinstance(self.symbols, list):
            self.symbols = sequence(self.symbols, "symbols")
        if not self.symbols:
            raise InputError("empty sequence")
        try:
            distinct = set(self.symbols)
        except TypeError:  # an unhashable entry, such as a list
            raise InputError(f"symbols must be integers in [1..{self.sigma}]") from None
        for symbol in distinct:
            integer(symbol, "symbol", 1, self.sigma)

    def __len__(self) -> int:
        return len(self.symbols)


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
        seen: set[int] = set()
        for _, payload in records:
            seen.update(payload)
        for b in seen:
            if not _PRINTABLE_LO <= b <= _PRINTABLE_HI:
                raise InputError(
                    f"byte {b!r} outside printable ASCII; pass an explicit alphabet"
                )
        ordered = sorted(seen)
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
