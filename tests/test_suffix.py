import gc
import random
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import idx, rand_seq, seq
from hypothesis import given, settings
from hypothesis import strategies as st

import bwtk.suffix
from bwtk.enumerate import heads
from bwtk.errors import InputError
from bwtk.suffix import (
    _MAGIC,
    BwtIndex,
    PairIndex,
    _sort_suffixes,
    _text,
    build_bwt,
    suffix_array,
)
from bwtk.text import Sequence


def test_suffix_array_hand_values():
    assert suffix_array(seq("abab")) == [5, 3, 1, 4, 2]
    assert suffix_array(seq("aa")) == [3, 2, 1]
    assert suffix_array(seq("a")) == [2, 1]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_suffix_array_matches_sorted_suffixes(data):
    # the first round packs as many symbols as fit beside the row bits, fewer
    # as n grows: 55 at sigma=1 and 23 at sigma=4 for n = 300. Runs and
    # periods longer than that keep groups tied through later rounds; T# of
    # 2**j - 1, 2**j and 2**j + 1 symbols has the row bits grow by one between
    # the last two; sparse codes such as {1, 2**20} and codes of 2**40 are
    # replaced by dense ranks before packing
    sigma = data.draw(st.sampled_from((1, 2, 4, 20, 255, 2**20, 2**40)))
    letter = st.sampled_from((1, 2**20)) if sigma == 2**20 else st.integers(1, sigma)
    shape = data.draw(st.sampled_from(("random", "periodic", "runs", "power")))
    if shape == "random":
        text = data.draw(st.lists(letter, min_size=1, max_size=120))
    elif shape == "periodic":
        text = data.draw(st.lists(letter, min_size=1, max_size=6)) * data.draw(st.integers(1, 40))
    elif shape == "runs":
        runs = data.draw(st.lists(st.tuples(letter, st.integers(1, 150)), min_size=1, max_size=3))
        text = [a for a, length in runs for _ in range(length)]
    else:
        n = max(2, 2 ** data.draw(st.integers(1, 9)) + data.draw(st.sampled_from((-1, 0, 1))))
        period = data.draw(st.lists(letter, min_size=1, max_size=n - 1))
        text = (period * n)[: n - 1]
    t = text + [0]
    expect = sorted(range(len(t)), key=lambda i: t[i:])
    assert _sort_suffixes(np.array(t, dtype=np.int64)).tolist() == expect
    assert suffix_array(Sequence(text, sigma)) == [i + 1 for i in expect]


def test_smallest_texts_sort_with_one_and_two_row_bits():
    # T# of 2 and 3 symbols keeps its rows in 1 and 2 bits below the symbols
    letters = (1, 2, 3, 2**20)
    texts = [[a] for a in letters] + [[a, b] for a in letters for b in letters]
    for text in texts:
        t = text + [0]
        expect = sorted(range(len(t)), key=lambda i: t[i:])
        assert _sort_suffixes(np.array(t, dtype=np.int64)).tolist() == expect
        assert suffix_array(Sequence(text, 2**20)) == [i + 1 for i in expect]


def test_bwt_hand_values():
    assert idx("abab").bwt == [2, 2, 0, 1, 1]
    assert idx("banana").bwt == [1, 3, 3, 2, 0, 1, 1]
    assert idx("a").bwt == [1, 0]
    assert idx("aab").bwt == [2, 0, 1, 1]
    assert idx("abb").bwt == [2, 0, 2, 1]


def test_c_array():
    ix = idx("abab")
    assert (ix.syms.tolist(), ix.c.tolist()) == ([0, 1, 2], [0, 1, 3, 5])
    ix = idx("banana")
    assert (ix.syms.tolist(), ix.c.tolist()) == ([0, 1, 2, 3], [0, 1, 4, 5, 7])
    # only the symbols that occur have an entry
    ix = build_bwt(Sequence([3, 1, 3], 5))
    assert (ix.syms.tolist(), ix.c.tolist()) == ([0, 1, 3], [0, 1, 2, 4])


def test_rank_access_roundtrip():
    ix = idx("banana")
    assert [ix.access(i) for i in range(1, ix.n + 1)] == ix.bwt
    for c in range(ix.sigma + 1):
        run = 0
        for i in range(1, ix.n + 1):
            run += ix.bwt[i - 1] == c
            assert ix.rank(c, i) == run


def test_interval_and_count_against_naive():
    rng = random.Random(77)
    for _ in range(25):
        s = rand_seq(rng, rng.randint(2, 28), rng.choice([2, 3, 4]))
        ix = build_bwt(s)
        syms = s.symbols
        seen = set()
        for i in range(len(syms)):
            for j in range(i + 1, min(len(syms), i + 6) + 1):
                seen.add(tuple(syms[i:j]))
        for w in seen:
            naive = sum(
                1
                for i in range(len(syms) - len(w) + 1)
                if tuple(syms[i : i + len(w)]) == w
            )
            sp, ep = ix.interval(list(w))
            assert ep - sp + 1 == naive
            assert ix.count(list(w)) == naive
        absent = tuple([s.sigma] * (len(syms) + 1))
        assert ix.interval(list(absent)) is None
        assert ix.count(list(absent)) == 0


def test_interval_validates_symbols():
    ix = idx("abab")
    with pytest.raises(InputError):
        ix.interval([3])
    with pytest.raises(InputError):
        ix.interval([0])
    # the empty word matches every suffix row
    assert ix.interval([]) == (1, ix.n)
    # a declared symbol past the last one that occurs matches no row
    assert idx("abab", sigma=3).interval([3, 1]) is None


def test_text_recovery_via_lf_walk():
    rng = random.Random(1234)
    for _ in range(40):
        s = rand_seq(rng, rng.randint(1, 60), rng.choice([1, 2, 4, 8]))
        ix = build_bwt(s)
        assert ix.text == s.symbols


def test_dump_load_round_trip(tmp_path):
    rng = random.Random(55)
    cases = [
        rand_seq(rng, rng.randint(1, 40), rng.choice([1, 2, 3, 8])) for _ in range(12)
    ]
    # codes above 65535 need more than 16 bits while packing
    cases.append(Sequence([1, 70000, 2, 3], 70000))
    # a 31-byte file declaring sigma = 2**40 - 1: c covers only the codes that occur
    cases.append(Sequence([1], 2**40 - 1))
    # a 32-byte file whose one symbol is 2**40: loads in O(n + distinct symbols)
    cases.append(Sequence([2**40], 2**40))
    for t, s in enumerate(cases):
        ix = build_bwt(s)
        path = tmp_path / f"ix{t}.bwtk"
        ix.dump(str(path))
        back = BwtIndex.load(str(path))
        again = tmp_path / f"again{t}.bwtk"
        back.dump(str(again))
        assert again.read_bytes() == path.read_bytes()
        assert back.bwt == ix.bwt
        assert back.syms.tolist() == ix.syms.tolist()
        assert back.c.tolist() == ix.c.tolist()
        assert back.n == ix.n
        assert back.sigma == ix.sigma
        assert back.text == s.symbols


@pytest.mark.parametrize(
    "symbols, sigma, pair_sigma",
    [
        ([1, 2], 2**63, 2**63 - 1),
        ([1, 2**63], 2**63 - 1, 2**63 - 2),
        ([1, 2**64], 2**63 - 1, 2**63 - 2),
        (np.array([1, 2**63], dtype=np.uint64), 2**63 - 1, 2**63 - 2),
        ([1.0, 2.0], 4, 4),
        (np.array([1.5, 2.0]), 4, 4),
        ([[1, 2]], 4, 4),
        (np.array([[1, 2], [2, 1]]), 4, 4),
        ([], 4, 4),
        (np.array([], dtype=np.int64), 4, 4),
        ([0, 1], 4, 4),
        ([1, 5], 4, 4),
        ([[1], [1, 2]], 4, 4),
        ([1, 2], 4.0, 4.0),
        ([1, 2], True, True),
        ([1, 2], np.float64(4.0), np.float64(4.0)),
        ([True, True], 4, 4),
        ([1, 2.5], 4, 4),
        ([1, "2"], 4, 4),
        ([1, None], 4, 4),
        ([1, [2]], 4, 4),
        ([-(2**64), 1], 4, 4),
    ],
    ids=[
        "sigma-2**63", "symbol-2**63", "symbol-2**64", "uint64-2**63", "floats",
        "float-array", "2-D", "2-D-array", "empty", "empty-array", "zero", "past-sigma",
        "ragged", "float-sigma", "bool-sigma", "numpy-float-sigma", "bools", "float-entry",
        "str-entry", "none-entry", "list-entry", "symbol-minus-2**64",
    ],
)
def test_one_text_check_refuses_bad_input_in_every_constructor(symbols, sigma, pair_sigma):
    # BwtIndex, suffix_array and both texts of a PairIndex share one check;
    # suffix_array reads any object's symbols and sigma, as a Sequence checks
    # only some of these
    builds = (
        lambda: BwtIndex(symbols, sigma),
        lambda: suffix_array(SimpleNamespace(symbols=symbols, sigma=sigma)),
        lambda: PairIndex(symbols, [1], pair_sigma),
        lambda: PairIndex([1], symbols, pair_sigma),
    )
    for build in builds:
        with pytest.raises(InputError):
            build()


def test_integer_arrays_build_the_index_of_their_list(tmp_path):
    rng = random.Random(63)
    one = [rng.randint(1, 4) for _ in range(300)]
    two = [rng.randint(1, 4) for _ in range(200)]
    want = BwtIndex(one, 4)
    pair = PairIndex(one, two, 4)
    for dtype in (np.uint8, np.int32, np.uint64, np.int64):
        ix = BwtIndex(np.array(one, dtype=dtype), 4)
        assert (ix.bwt, ix.syms.tolist(), ix.c.tolist()) == (
            want.bwt, want.syms.tolist(), want.c.tolist()
        )
        got = PairIndex(np.array(one, dtype=dtype), np.array(two, dtype=dtype), 4)
        assert got.bwt == pair.bwt
        assert got.bit.bits().tolist() == pair.bit.bits().tolist()
        arr = SimpleNamespace(symbols=np.array(one, dtype=dtype), sigma=4)
        assert suffix_array(arr) == suffix_array(Sequence(one, 4))
    # an int64 text is checked in place, not copied
    text = np.array(one, dtype=np.int64)
    assert _text(text, 4) is text
    # the largest sigma a dump holds: 63-bit codes that load and dump back
    top = BwtIndex([1, 2**63 - 1, 5, 2**63 - 1], 2**63 - 1)
    path, again = tmp_path / "top.bwtk", tmp_path / "again.bwtk"
    top.dump(str(path))
    back = BwtIndex.load(str(path))
    back.dump(str(again))
    assert again.read_bytes() == path.read_bytes()
    assert (back.sigma, back.text) == (2**63 - 1, [1, 2**63 - 1, 5, 2**63 - 1])


def test_load_rejects_corrupt_files(tmp_path):
    s = seq("abracadabra", sigma=26)
    ix = build_bwt(s)
    path = tmp_path / "good.bwtk"
    ix.dump(str(path))
    blob = path.read_bytes()

    bad = tmp_path / "bad.bwtk"
    bad.write_bytes(b"NOTBK" + blob[5:])
    with pytest.raises(InputError):
        BwtIndex.load(str(bad))
    bad.write_bytes(blob[:10])
    with pytest.raises(InputError):
        BwtIndex.load(str(bad))
    bad.write_bytes(blob + b"x")
    with pytest.raises(InputError):
        BwtIndex.load(str(bad))
    with pytest.raises(InputError):
        BwtIndex.load(str(tmp_path / "missing.bwtk"))
    # sigma >= 2**63 with a payload of the declared size: 2 codes of 64 bits
    for sigma in (2**63, 2**64 - 1):
        codes = sigma.to_bytes(8, "little") + bytes(8)
        bad.write_bytes(b"BWTK1" + struct.pack("<QQ", 2, sigma) + codes)
        with pytest.raises(InputError, match="corrupt header"):
            BwtIndex.load(str(bad))


def test_length_bound_is_checked(monkeypatch, tmp_path):
    # past _MAX_N symbols, the terminator counted, the int64 sort key could wrap
    path = tmp_path / "ix.bwtk"
    build_bwt(seq("abracadabra")).dump(str(path))
    monkeypatch.setattr(bwtk.suffix, "_MAX_N", 11)
    assert build_bwt(seq("abracadabr")).text == seq("abracadabr").symbols
    for make in (
        lambda: build_bwt(seq("abracadabra")),
        lambda: suffix_array(seq("abracadabra")),
        lambda: BwtIndex.load(str(path)),
    ):
        with pytest.raises(InputError, match="12 symbols with the terminator, over 11"):
            make()


def test_load_rejects_header_payload_mismatch(tmp_path):
    # corrupt the sigma field so the declared bit width disagrees with payload
    ix = build_bwt(seq("abab"))
    path = tmp_path / "ix.bwtk"
    ix.dump(str(path))
    blob = bytearray(path.read_bytes())
    blob[13] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError):
        BwtIndex.load(str(path))


def test_load_rejects_nonzero_pad_bits(tmp_path):
    # abab packs 5 codes of 2 bits into 2 bytes: the last 6 bits are padding
    path = tmp_path / "ix.bwtk"
    build_bwt(seq("abab")).dump(str(path))
    blob = path.read_bytes()
    for bit in range(2, 8):
        path.write_bytes(blob[:-1] + bytes([blob[-1] | 1 << bit]))
        with pytest.raises(InputError, match="padding"):
            BwtIndex.load(str(path))


@pytest.mark.parametrize("shape", ["random", "repetitive"])
def test_build_peak_memory(shape):
    # blocks copied from a few distinct ones with sparse substitutions keep
    # most rows tied for many rounds of the sort; the bounds leave some room
    # over the 22.1 and 36.8 bytes per symbol this build peaks at
    rng = np.random.default_rng(13)
    if shape == "random":
        sigma, codes = 4, rng.integers(0, 4, size=50_000)
    else:
        sigma, block, spacing = 20, 1_000, 999
        pool = rng.integers(0, 20, size=(4, block))
        codes = pool[rng.integers(0, 4, size=50)].reshape(-1)
        pos = rng.integers(0, spacing) + spacing * np.arange(codes.size // spacing)
        codes[pos] = (codes[pos] + rng.integers(1, 20, size=pos.size)) % 20
    symbols = (codes + 1).tolist()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        BwtIndex(symbols, sigma)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= (32 if shape == "random" else 40) * len(symbols)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_derived_reads_match_the_plain_arrays(data):
    # the index keeps only its wavelet tree: psi, access and text are made
    # from it on each call and must equal what the plain BWT gives
    sigma = data.draw(st.sampled_from((1, 2, 4, 20, 2**40)))
    text = st.lists(st.integers(1, sigma), min_size=1, max_size=60)
    one = data.draw(text)
    if data.draw(st.booleans()):
        ix, want = build_bwt(Sequence(one, sigma)), one
    else:
        two = data.draw(text)
        ix = PairIndex(one, two, sigma)
        want = [a + 1 for a in one] + [1] + [a + 1 for a in two]
        assert ix.texts() == (one, two)
    bwt = np.array(ix.bwt)
    assert ix.psi().tolist() == np.argsort(bwt, kind="stable").tolist()
    assert [ix.access(i) for i in range(1, ix.n + 1)] == bwt.tolist()
    assert ix.first(np.arange(ix.n)).tolist() == np.sort(bwt).tolist()
    assert ix.text == want


def test_retained_index_is_at_most_0_35_bytes_per_symbol_and_a_pair_0_55():
    # the letters' wavelet tree, 2 bits per row at sigma=4, with a uint16
    # count per 64-bit word; the terminators are rows of the split root and
    # a pair adds its text bit; no BWT or text array stays behind
    rng = np.random.default_rng(4)
    symbols = (rng.integers(0, 4, size=200_000) + 1).tolist()
    halves = symbols[:100_000], symbols[100_000:]
    cases = ((lambda: BwtIndex(symbols, 4), 0.35), (lambda: PairIndex(*halves, 4), 0.55))
    for make, bound in cases:
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ix = make()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert ix.n == len(symbols) + ix.terminators
        assert kept <= bound * len(symbols)
        del ix


def _write_index(path, codes, sigma):
    """A BWTK1 file holding codes as its BWT, packed as dump packs them."""
    bits = [c >> j & 1 for c in codes for j in range(sigma.bit_length())]
    payload = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes()
    path.write_bytes(_MAGIC + struct.pack("<QQ", len(codes), sigma) + payload)


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_mutated_index_is_rejected_or_dumps_back_identically(mutant_dir, data):
    # one bit flipped, one byte set or the tail cut off a dumped index; a
    # huge sigma gives codes near 2**40, which must load in O(n + distinct)
    sigma = data.draw(st.sampled_from((1, 2, 4, 20, 2**40)))
    text = data.draw(st.lists(st.integers(1, sigma), min_size=1, max_size=30))
    path = mutant_dir / "ix.bwtk"
    build_bwt(Sequence(text, sigma)).dump(str(path))
    blob = bytearray(path.read_bytes())
    how = data.draw(st.sampled_from(("flip", "set", "cut")))
    if how == "flip":
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << bit % 8
    elif how == "set":
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    else:
        del blob[data.draw(st.integers(0, len(blob) - 1)) :]
    path.write_bytes(blob)
    try:
        back = BwtIndex.load(str(path))
    except InputError:
        return
    again = mutant_dir / "again.bwtk"
    back.dump(str(again))
    assert again.read_bytes() == bytes(blob)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_load_inverts_dumped_text(mutant_dir, data):
    sigma = data.draw(st.sampled_from((1, 2, 4, 20, 255, 2**40)))
    text = data.draw(st.lists(st.integers(1, sigma), min_size=1, max_size=200))
    path = mutant_dir / "round.bwtk"
    build_bwt(Sequence(text, sigma)).dump(str(path))
    assert BwtIndex.load(str(path)).text == text


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_psi_walks_each_row_through_its_suffix(mutant_dir, data):
    # psi, of the index as built and as loaded, is a permutation, and heads
    # from a row reads the suffix that a naive sort puts at that row
    sigma = data.draw(st.sampled_from((1, 2, 4, 20, 2**40)))
    text = data.draw(st.lists(st.integers(1, sigma), min_size=1, max_size=80))
    t = text + [0]
    n = len(t)
    order = sorted(range(n), key=lambda i: t[i:])
    built = build_bwt(Sequence(text, sigma))
    path = mutant_dir / "psi.bwtk"
    built.dump(str(path))
    for ix in (built, BwtIndex.load(str(path))):
        psi = ix.psi()
        assert sorted(psi.tolist()) == list(range(n))
        # row r's n symbols on, one row per line
        read = np.array(list(heads(ix.first(), psi, np.arange(n), n))).T
        for row, p in enumerate(order):
            assert read[row, : n - p].tolist() == t[p:]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_load_rejects_lf_with_two_cycles(mutant_dir, data):
    # any arrangement of one 0 and n - 1 letters: it is the BWT of a text
    # exactly when LF, walked from row 0, comes back only after all n rows
    sigma = data.draw(st.sampled_from((1, 2, 4, 20)))
    letters = data.draw(st.lists(st.integers(1, sigma), min_size=1, max_size=40))
    codes = data.draw(st.permutations(letters + [0]))
    lf = [0] * len(codes)
    for row, i in enumerate(sorted(range(len(codes)), key=codes.__getitem__)):
        lf[i] = row
    rows = [0]
    while lf[rows[-1]] != 0:
        rows.append(lf[rows[-1]])
    path = mutant_dir / "shuffled.bwtk"
    _write_index(path, codes, sigma)
    if len(rows) < len(codes):
        with pytest.raises(InputError, match="index is corrupt"):
            BwtIndex.load(str(path))
    else:
        # the walk meets T backwards, and its last row is the terminator's
        assert BwtIndex.load(str(path)).text == [codes[r] for r in reversed(rows[:-1])]


def test_to_sequence():
    s = seq("banana")
    ix = build_bwt(s)
    back = ix.to_sequence()
    assert back.symbols == s.symbols
    assert back.sigma == s.sigma
