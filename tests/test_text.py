import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtk.errors import InputError
from bwtk.oracle import oracle_substring_complexity, substring_counts
from bwtk.suffix import BwtIndex, build_bwt
from bwtk.text import Sequence, load_input, map_alphabet, oracle_guard


def test_map_alphabet_infers_ascending_byte_order():
    seqs = map_alphabet([("s", b"cabba")])
    s = seqs[0]
    assert s.sigma == 3
    assert s.symbols == [3, 1, 2, 2, 1]
    assert s.alphabet.decode(s.symbols) == b"cabba"


def test_map_alphabet_shares_one_alphabet_across_records():
    s1, s2 = map_alphabet([("x", b"ac"), ("y", b"bb")])
    assert s1.sigma == s2.sigma == 3
    assert s1.symbols == [1, 3]
    assert s2.symbols == [2, 2]


def test_map_alphabet_explicit_order_controls_symbols():
    # explicit alphabets assign symbols by position, not by byte value
    s = map_alphabet([("s", b"ab")], alphabet=b"ba")[0]
    assert s.symbols == [2, 1]
    assert s.sigma == 2


def test_map_alphabet_rejects_bytes_outside_explicit_alphabet():
    with pytest.raises(InputError):
        map_alphabet([("s", b"abc")], alphabet=b"ab")


def test_map_alphabet_rejects_duplicate_explicit_bytes():
    with pytest.raises(InputError):
        map_alphabet([("s", b"ab")], alphabet=b"aba")


def test_map_alphabet_rejects_unprintable_without_explicit():
    with pytest.raises(InputError):
        map_alphabet([("s", bytes([1, 2]))])
    seqs = map_alphabet([("s", bytes([1, 2]))], alphabet=bytes([1, 2]))
    assert seqs[0].symbols == [1, 2]


def test_sequence_validation():
    with pytest.raises(InputError):
        Sequence([], 2)
    with pytest.raises(InputError):
        Sequence([0], 2)
    with pytest.raises(InputError):
        Sequence([3], 2)
    with pytest.raises(InputError):
        Sequence([1], 0)
    symbols = [1, 2]
    s = Sequence(symbols, 2)
    assert len(s) == 2 and s.symbols is symbols  # a list is kept, not copied
    bad = (([1], "a"), ("ab", 3), ([1, None], 2), ([[1], [2]], 3), ([1, 2.5], 3), ([1, 2], 2.0))
    for symbols, sigma in bad:
        with pytest.raises(InputError):
            Sequence(symbols, sigma)
    # a bool or a float anywhere in a list is refused, though it equals a symbol
    with pytest.raises(InputError):
        BwtIndex([1, True], 4)
    with pytest.raises(InputError):
        Sequence([2, 2.0, 1], 3)
    # True after many 1s, and in a list of mostly 1s
    for symbols in ([2] * 20_000 + [1] * 5_000 + [True], [1] * 5_000 + [True]):
        with pytest.raises(InputError):
            Sequence(symbols, 300)
        with pytest.raises(InputError):
            Sequence(symbols, 4)
    # made from an array, a Sequence keeps no list and holds the smallest dtype
    s = Sequence(np.array([1, 2, 2], dtype=np.int64), 2)
    assert len(s) == 3 and s.array.dtype == np.uint8
    assert s.symbols == [1, 2, 2] and s.symbols is not s.symbols


def test_a_list_changed_after_the_sequence_is_made_changes_neither_build_nor_oracle():
    # the Sequence's text is the array checked when it was made: the index and
    # the oracles both read it, even after the kept list holds a value past sigma
    symbols = [1, 2, 1, 2]
    s = Sequence(symbols, 3)
    symbols[0] = 4
    assert s.symbols is symbols and s.array.tolist() == [1, 2, 1, 2]
    assert build_bwt(s).text == [1, 2, 1, 2]
    assert substring_counts(s) == substring_counts(Sequence([1, 2, 1, 2], 3))
    assert oracle_substring_complexity(s) == 7


# what sigma, one symbol or the whole symbols of a valid call are swapped for
SWAPS = (2.5, "3", None, [1], True, np.float64(2.0), 2**70)
# 1 and 2 included: a list with True or 2.0 swapped in must be refused
VALID = ([3, 1, 2, 5, 4, 3], 5)


def _outcome(symbols, sigma):
    """Sequence(symbols, sigma)'s symbols as ints, sigma and substring complexity; or InputError."""
    try:
        s = Sequence(symbols, sigma)
    except InputError:
        return InputError
    assert type(s.sigma) is int and isinstance(s.symbols, list)
    return [int(c) for c in s.symbols], s.sigma, oracle_substring_complexity(s)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_a_sequence_given_a_malformed_sigma_or_symbol_raises_input_error(data):
    # sigma, one symbol or the whole symbols swapped: a malformed value raises
    # InputError, and NumPy integers give the valid call's outcome
    symbols, sigma = list(VALID[0]), VALID[1]
    part = data.draw(st.sampled_from(("sigma", "symbol", "symbols")))
    at = data.draw(st.integers(0, len(symbols) - 1))
    if data.draw(st.booleans()):
        if part == "sigma":
            sigma = np.int64(sigma)
        elif part == "symbol":
            symbols[at] = np.int64(symbols[at])
        else:
            symbols = np.array(symbols)
        assert _outcome(symbols, sigma) == _outcome(*VALID)
        return
    swap = data.draw(st.sampled_from(SWAPS))
    if part == "sigma":
        sigma = swap
    elif part == "symbol":
        symbols[at] = swap
    else:
        symbols = swap
    # the whole symbols swapped for [1] is a valid one-symbol text
    want = ([1], 5, 1) if part == "symbols" and isinstance(swap, list) else InputError
    assert _outcome(symbols, sigma) == want

def test_load_input_raw_strips_whitespace(tmp_path):
    p = tmp_path / "in.txt"
    p.write_bytes(b"ab ba\ncc\t\n")
    records = load_input(str(p))
    assert records == [("", b"abbacc")]


def test_load_input_fasta_autodetected(tmp_path):
    p = tmp_path / "in.fa"
    p.write_bytes(b">first rec\nAC\nGT\n>second\nTT\n")
    records = load_input(str(p))
    assert records == [("first rec", b"ACGT"), ("second", b"TT")]


def test_load_input_forced_raw_keeps_angle_bracket(tmp_path):
    p = tmp_path / "in.txt"
    p.write_bytes(b">abc")
    assert load_input(str(p), fmt="raw") == [("", b">abc")]


def test_load_input_errors(tmp_path):
    p = tmp_path / "bad.fa"
    p.write_bytes(b"data\n>late header\nAC\n")
    with pytest.raises(InputError):
        load_input(str(p), fmt="fasta")
    p.write_bytes(b">empty\n")
    with pytest.raises(InputError):
        load_input(str(p))
    p.write_bytes(b"   \n")
    with pytest.raises(InputError):
        load_input(str(p))
    with pytest.raises(InputError):
        load_input(str(tmp_path / "missing.txt"))
    p.write_bytes(b"ok")
    with pytest.raises(InputError):
        load_input(str(p), fmt="tsv")


def test_oracle_guard_env_override(monkeypatch):
    monkeypatch.delenv("BWTK_GUARD", raising=False)
    assert oracle_guard() == 4096
    monkeypatch.setenv("BWTK_GUARD", "128")
    assert oracle_guard() == 128
    monkeypatch.setenv("BWTK_GUARD", "zero")
    with pytest.raises(InputError):
        oracle_guard()
    monkeypatch.setenv("BWTK_GUARD", "0")
    with pytest.raises(InputError):
        oracle_guard()


SPACE = b" \t\n\r\x0b\x0c"


def reference_records(data: bytes, fmt: str) -> list[tuple[str, bytes]] | None:
    """load_input's records by a per-byte whitespace filter; None where it must fail."""
    if fmt == "raw":
        payload = bytes(b for b in data if b not in SPACE)
        return [("", payload)] if payload else None
    records, name, chunks = [], None, []
    for line in data.splitlines():
        line = line.strip()
        if not line:
            continue
        if line[:1] == b">":
            if name is not None:
                records.append((name, b"".join(chunks)))
            name, chunks = line[1:].strip().decode("ascii", "replace"), []
        elif name is None:
            return None
        else:
            chunks.append(bytes(b for b in line if b not in SPACE))
    if name is None:
        return None
    records.append((name, b"".join(chunks)))
    return records if all(payload for _, payload in records) else None


@st.composite
def spaced_input(draw) -> bytes:
    """FASTA or raw text with every whitespace byte, CRLF, CR or LF ends and blank lines."""
    space = st.sampled_from([bytes([b]) for b in SPACE])
    end = st.sampled_from((b"\n", b"\r\n", b"\r"))
    letters = st.lists(st.sampled_from((b"A", b"C", b"G", b"T")) | space, max_size=12).map(b"".join)
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        header = draw(st.lists(st.sampled_from((b"x", b"y", b" ", b"\t")), max_size=5))
        lines.append(b">" + b"".join(header))
        lines += draw(st.lists(letters | space, max_size=4))
    lines += draw(st.lists(letters, max_size=3))  # raw text, or data after the last header
    return b"".join(line + draw(end) for line in lines)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spaced_input(), st.sampled_from(("auto", "fasta", "raw")))
def test_whitespace_is_stripped_as_a_per_byte_filter(data, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_bytes(data)
        if not data.strip():
            want = None
        else:
            kind = fmt
            if fmt == "auto":
                kind = "fasta" if data.lstrip()[:1] == b">" else "raw"
            want = reference_records(data, kind)
        if want is None:
            with pytest.raises(InputError):
                load_input(str(path), fmt)
        else:
            assert load_input(str(path), fmt) == want


def reference_map(records, alphabet):
    """map_alphabet's (name, symbols, sigma) by a per-byte dict, or the InputError message it must raise."""
    if alphabet is not None:
        if not alphabet:
            return "explicit alphabet is empty"
        if len(set(alphabet)) != len(alphabet):
            return "explicit alphabet has duplicate bytes"
        ordered = list(alphabet)
    else:
        ordered = sorted({b for _, payload in records for b in payload})
        for b in ordered:
            if not 33 <= b <= 126:
                return f"byte {b!r} outside printable ASCII; pass an explicit alphabet"
    table = {b: i + 1 for i, b in enumerate(ordered)}
    out = []
    for name, payload in records:
        for b in payload:
            if b not in table:
                return f"byte {b!r} is not in the alphabet"
        out.append((name, [table[b] for b in payload], len(ordered)))
    return out


# payload bytes: mostly DNA letters, and any byte that is neither whitespace
# nor a FASTA header mark, unprintable ones included
PAYLOAD = st.lists(
    st.sampled_from(b"ACGT") | st.integers(0, 255).filter(lambda b: b not in SPACE and b != ord(">")),
    min_size=1,
    max_size=30,
).map(bytes)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_map_alphabet_matches_a_per_byte_mapping(data):
    fmt = data.draw(st.sampled_from(("fasta", "raw")))
    if fmt == "fasta":
        names = data.draw(st.lists(st.sampled_from(("a", "b", "c d")), min_size=1, max_size=3))
        records = [(name, data.draw(PAYLOAD)) for name in names]
        text = b"".join(b">" + name.encode() + b"\n" + payload + b"\n" for name, payload in records)
    else:
        records = [("", data.draw(PAYLOAD))]
        text = records[0][1]
    alphabet = data.draw(
        st.none()
        | st.just(b"ACGT")
        | st.lists(st.sampled_from(b"ACGTN\x00\xff"), max_size=6).map(bytes)
        | st.just(bytes(sorted({b for _, payload in records for b in payload})))
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_bytes(text)
        loaded = load_input(str(path), fmt)
    assert loaded == records
    want = reference_map(records, alphabet)
    if isinstance(want, str):
        with pytest.raises(InputError) as exc:
            map_alphabet(loaded, alphabet)
        assert str(exc.value) == want
        return
    got = map_alphabet(loaded, alphabet)
    assert [(s.name, s.symbols, s.sigma) for s in got] == want
    for s, (_, payload) in zip(got, loaded):
        assert s.array.dtype == np.min_scalar_type(s.sigma)
        assert s.alphabet.decode(s.array) == payload
