import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtk.errors import InputError
from bwtk.suffix import BwtIndex, PairIndex, _sort_suffixes
from bwtk.wavelet import BitVector, RankIndex, _ones, _SplitRoot


def test_rank_hand_values():
    # bb#aa as symbols over [0..2]
    rix = RankIndex([2, 2, 0, 1, 1], maxsym=2)
    assert rix.rank(1, 5) == 2
    assert rix.rank(2, 2) == 2
    assert rix.rank(0, 2) == 0
    assert rix.rank(0, 3) == 1
    assert rix.rank(2, 0) == 0


def test_range_distinct_hand_values():
    rix = RankIndex([2, 2, 0, 1, 1], maxsym=2)
    assert rix.range_distinct(1, 5) == [(0, 1, 1), (1, 1, 2), (2, 1, 2)]
    assert rix.range_distinct(1, 2) == [(2, 1, 2)]
    # banana as 2,1,3,1,3,1
    rix = RankIndex([2, 1, 3, 1, 3, 1], maxsym=3)
    assert rix.range_distinct(1, 6) == [(1, 1, 3), (2, 1, 1), (3, 1, 2)]
    assert rix.range_distinct(3, 5) == [(1, 2, 2), (3, 1, 2)]


def test_access():
    data = [2, 2, 0, 1, 1]
    rix = RankIndex(data, maxsym=2)
    assert [rix.access(i) for i in range(1, 6)] == data


def test_against_naive_random():
    rng = random.Random(2024)
    for _ in range(30):
        maxsym = rng.randint(0, 9)
        n = rng.randint(1, 200)
        data = [rng.randint(0, maxsym) for _ in range(n)]
        rix = RankIndex(data, maxsym=maxsym)
        for _ in range(40):
            c = rng.randint(0, maxsym)
            i = rng.randint(0, n)
            assert rix.rank(c, i) == data[:i].count(c)
        for _ in range(20):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            got = rix.range_distinct(i, j)
            expect = [
                (c, data[: i - 1].count(c) + 1, data[:j].count(c))
                for c in sorted(set(data[i - 1 : j]))
            ]
            assert got == expect
            # reported rank spans cover the range exactly
            assert sum(r2 - r1 + 1 for _, r1, r2 in got) == j - i + 1
        i = rng.randint(1, n)
        assert rix.access(i) == data[i - 1]


def test_long_runs_cross_word_boundaries():
    # exercises the packed 64-bit words well past one word per node
    data = ([0] * 70 + [1] * 70 + [0, 1] * 70)
    rix = RankIndex(data, maxsym=1)
    for i in (1, 63, 64, 65, 127, 128, 129, len(data)):
        assert rix.rank(1, i) == data[:i].count(1)
    assert rix.range_distinct(1, 70) == [(0, 1, 70)]


def test_validation_errors():
    rix = RankIndex([0, 1, 2], maxsym=2)
    with pytest.raises(InputError):
        rix.rank(3, 1)
    with pytest.raises(InputError):
        rix.rank(1, 4)
    with pytest.raises(InputError):
        rix.rank(1, -1)
    with pytest.raises(InputError):
        rix.access(0)
    with pytest.raises(InputError):
        rix.access(4)
    with pytest.raises(InputError):
        rix.range_distinct(2, 1)
    with pytest.raises(InputError):
        rix.range_distinct(0, 2)
    with pytest.raises(InputError):
        RankIndex([0, 3], maxsym=2)
    with pytest.raises(InputError):
        RankIndex([0], maxsym=-1)
    with pytest.raises(InputError):
        RankIndex([[0, 1]], maxsym=1)
    with pytest.raises(InputError):
        RankIndex([[1], [1, 2]], maxsym=2)
    # object arrays (Python ints past uint64), floats, strings, and uint64
    # codes past the int64 that decode reads back
    for data, maxsym in (
        ([2**64], 2**64),
        ([1.5], 3),
        (np.array([1.5, 2.0]), 3),
        (["a"], 3),
        ([2**63], 2**63),
        (np.array([0, 2**63], dtype=np.uint64), 2**64),
    ):
        with pytest.raises(InputError):
            RankIndex(data, maxsym)


def test_a_float_maxsym_raises_input_error():
    # it built a tree that decoded the codes to float16
    with pytest.raises(InputError):
        RankIndex([1, 2, 0, 2], 3.0)


def test_integer_and_bool_arrays_build_as_their_list():
    want = RankIndex([3, 0, 2, 2, 1], 3)
    for dtype in (np.uint8, np.int16, np.uint64, np.int64):
        rix = RankIndex(np.array([3, 0, 2, 2, 1], dtype=dtype), 3)
        assert rix.decode().tolist() == want.decode().tolist()
        assert rix.counts() == want.counts() == ([0, 1, 2, 3], [1, 1, 2, 1])
    flags = RankIndex(np.array([True, False, True]), 1)
    assert flags.decode().tolist() == [1, 0, 1]
    assert [flags.rank(1, i) for i in range(4)] == [0, 1, 1, 2]
    top = RankIndex([2**63 - 1, 0], 2**64)
    assert top.decode().tolist() == [2**63 - 1, 0]
    assert RankIndex([], 0).counts() == ([], [])


def test_single_symbol_alphabet():
    rix = RankIndex([0, 0, 0], maxsym=0)
    assert rix.rank(0, 3) == 3
    assert rix.range_distinct(1, 3) == [(0, 1, 3)]
    assert rix.access(2) == 0


@pytest.mark.parametrize("maxsym", [0, 1, 4, 20])
def test_distinct_ranks_match_rank_at_every_boundary(maxsym):
    rng = random.Random(4100 + maxsym)
    for n in (64, 128, 320):
        # n a multiple of 64: the boundary n reads the block past the last bit
        data = [rng.randint(0, maxsym) for _ in range(n)]
        rix = RankIndex(data, maxsym=maxsym)
        for _ in range(40):
            size = rng.randint(2, 6)
            # repeated positions give empty blocks; the ends hit 0 and n often
            pool = [0, n] + [rng.randint(0, n) for _ in range(3)]
            bounds = sorted(rng.choice(pool) for _ in range(size))
            got = rix.distinct_ranks(bounds)
            present = sorted(set(data[bounds[0] : bounds[-1]]))
            assert [c for c, _ in got] == present
            for c, ranks in got:
                assert ranks == [rix.rank(c, x) for x in bounds]
                assert ranks == [data[:x].count(c) for x in bounds]
        assert rix.rank(maxsym, n) == data.count(maxsym)
    assert rix.distinct_ranks([5, 5]) == []
    for bad in ([], [-1, 3], [3, 2], [0, n + 1]):
        with pytest.raises(InputError):
            rix.distinct_ranks(bad)


def test_rank_directory_is_uint16_word_counts_under_int32_superblock_counts():
    # a uint16 count per word and an int32 count per 2**16-bit superblock
    # below 2**31 bits; every rank handed out is int64, so products of
    # ranks (frequency products of a pair) cannot wrap at 2**31
    rng = np.random.default_rng(31)
    data = rng.integers(0, 6, size=3_000).astype(np.uint8)
    rix = RankIndex(data, maxsym=5)
    x = np.arange(0, data.size + 1, 7)
    node = rix.root
    assert node.rel.dtype == np.uint16
    assert node.sup.dtype == np.int32
    assert _ones(node.words, node.sup, node.rel, x).dtype == np.int64
    bit = BitVector(data > 2)
    assert bit.rel.dtype == np.uint16
    assert bit.sup.dtype == np.int32
    ones = bit.ones(x)
    assert ones.dtype == np.int64
    assert ones.tolist() == [int((data[:i] > 2).sum()) for i in x.tolist()]
    leaves = rix.descend(np.array([0, 1_000, data.size]), np.array([0]), np.array([2]))
    assert [c for c, _, _ in leaves] == sorted(set(data.tolist()))
    for c, at, r in leaves:
        assert at is None and r.dtype == np.int64
        assert r.tolist() == [int((data[:i] == c).sum()) for i in (0, 1_000, data.size)]


@pytest.mark.parametrize("pattern", ["random", "ones", "zeros", "alternating"])
def test_ones_match_prefix_sums_across_superblocks(pattern):
    # three 2**16-bit superblocks and part of a fourth; all ones takes the
    # uint16 word counts to their largest value, 65,472
    n = 3 * 2**16 + 37
    bits = {
        "random": np.random.default_rng(16).integers(0, 2, size=n) == 1,
        "ones": np.ones(n, dtype=bool),
        "zeros": np.zeros(n, dtype=bool),
        "alternating": np.arange(n) % 2 == 1,
    }[pattern]
    want = np.concatenate(([0], np.cumsum(bits)))
    edges = np.arange(2**16, n, 2**16)[:, None] + np.arange(-70, 71)
    x = np.unique(np.clip(np.concatenate([edges.ravel(), np.arange(n - 100, n + 1)]), 0, n))
    bit = BitVector(bits)
    node = RankIndex(bits.astype(np.uint8), 1).root
    for got in (_ones(bit.words, bit.sup, bit.rel, x), bit.ones(x), node.ones(x)):
        assert got.dtype == np.int64
        assert got.tolist() == want[x].tolist()
    assert [node.one(i) for i in x.tolist()] == want[x].tolist()
    assert bit.bits().tolist() == bits.tolist()
    if pattern == "ones":
        assert int(bit.rel.max()) == 65_472


def _bwt_and_index(pair: bool, size: int):
    """A seeded sigma=4 BwtIndex of size letters, or a PairIndex of two halves.

    Returns the index, its BWT and its suffix order, both from _sort_suffixes.
    """
    rng = np.random.default_rng(size)
    if pair:
        one, two = rng.integers(1, 5, size=(2, size // 2))
        s = np.concatenate([one + 1, [1], two + 1, [0]])
        index = PairIndex(one, two, 4)
    else:
        text = rng.integers(1, 5, size=size)
        s = np.concatenate([text, [0]])
        index = BwtIndex(text.tolist(), 4)
    order = _sort_suffixes(s)
    return index, s[order - 1], order


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
def test_index_reads_match_the_bwt_across_superblocks(pair):
    index, bwt, order = _bwt_and_index(pair, 200_000)
    rix, n = index.ranks, index.n
    assert rix.decode().tolist() == bwt.tolist()
    syms, counts = np.unique(bwt, return_counts=True)
    assert rix.counts() == (syms.tolist(), counts.tolist())
    prefix = {c: np.concatenate(([0], np.cumsum(bwt == c))) for c in syms.tolist()}
    # one node whose boundaries are every row ranks every position of every wavelet node
    leaves = rix.descend(np.arange(n + 1), np.array([0]), np.array([n]))
    assert [c for c, _, _ in leaves] == syms.tolist()
    for c, at, r in leaves:
        assert at is None and r.dtype == np.int64
        assert np.array_equal(r, prefix[c])
    # scalar reads near the superblock edges of every wavelet node (each
    # counts the rows of a symbol range) and around the terminator rows
    near = [np.flatnonzero(bwt < index.terminators)[:, None] + np.arange(-3, 4)]
    for lo in range(rix.maxsym + 1):
        for hi in range(lo, rix.maxsym + 1):
            inside = np.concatenate(([0], np.cumsum((bwt >= lo) & (bwt <= hi))))
            at = np.searchsorted(inside, np.arange(2**16, inside[-1] + 1, 2**16))
            near.append(at[:, None] + np.arange(-70, 71))
    x = np.unique(np.clip(np.concatenate([a.ravel() for a in near]), 0, n)).tolist()
    for c in syms.tolist():
        assert [rix.rank(c, i) for i in x] == prefix[c][x].tolist()
    assert [rix.access(i) for i in x if i] == bwt[[i - 1 for i in x if i]].tolist()
    if pair:
        text1 = order < index.split
        want = np.concatenate(([0], np.cumsum(text1)))
        assert np.array_equal(index.bit.ones(np.arange(n + 1)), want)


@pytest.mark.parametrize(
    "make, rows",
    [
        (lambda: BwtIndex([2] + [1] * 62, 2), [63]),
        (lambda: BwtIndex([2] + [1] * 63, 2), [64]),
        (lambda: BwtIndex([4, 1, 1, 1], 4), [4]),
        (lambda: PairIndex([2] + [1] * 58, [1, 1, 1], 2), [6, 63]),
        (lambda: PairIndex([2] + [1] * 59, [1, 1, 1], 2), [6, 64]),
        (lambda: PairIndex([2, 1], [2, 2], 2), [4, 5]),
    ],
    ids=["single-63", "single-64", "single-last", "pair-63", "pair-64", "pair-last"],
)
def test_split_root_keeps_exactly_the_terminator_rows(make, rows):
    # row 0 of a BWT is the suffix # and holds the text's last letter, so
    # the rows fall on word edges and at the last row; row 0 is covered below
    index = make()
    bwt = np.array(index.bwt)
    root = index.ranks.root
    assert root.rows.dtype == np.int64
    assert root.rows.tolist() == np.flatnonzero(bwt < index.terminators).tolist() == rows
    assert root.mid == index.terminators - 1 and root.right.lo == index.terminators
    for c in range(index.ranks.maxsym + 1):
        want = np.concatenate(([0], np.cumsum(bwt == c))).tolist()
        assert [index.rank(c, i) for i in range(index.n + 1)] == want
    assert [index.access(i) for i in range(1, index.n + 1)] == bwt.tolist()


@pytest.mark.parametrize("split", [1, 2, 3])
def test_split_root_matches_the_plain_tree(split):
    # split-off codes at row 0, on a word edge and at the last row
    rng = np.random.default_rng(split)
    data = rng.integers(split, 6, size=130)
    data[[0, 64, 129]] = rng.integers(0, split, size=3)
    split_ix, plain = RankIndex(data, 5, split), RankIndex(data, 5)
    assert isinstance(split_ix.root, _SplitRoot) and not isinstance(plain.root, _SplitRoot)
    assert split_ix.root.rows.tolist() == [0, 64, 129]
    assert split_ix.decode().tolist() == plain.decode().tolist() == data.tolist()
    assert split_ix.counts() == plain.counts()
    for c in range(6):
        assert [split_ix.rank(c, i) for i in range(131)] == [plain.rank(c, i) for i in range(131)]
    assert [split_ix.access(i) for i in range(1, 131)] == data.tolist()
    x, first, last = np.array([0, 1, 64, 65, 65, 100, 129, 130]), np.array([0, 3, 5]), np.array([2, 4, 7])
    for a, b in zip(split_ix.descend(x, first, last), plain.descend(x, first, last), strict=True):
        assert [np.asarray(v).tolist() for v in a] == [np.asarray(v).tolist() for v in b]
    with pytest.raises(InputError):
        RankIndex(data, 5, 6)
    with pytest.raises(InputError):
        RankIndex(data, 5, -1)


def test_bwt_tree_spends_log_sigma_bits_per_letter_row():
    # terminators are rows of the split root, not bits: at sigma=4 the
    # letters' tree holds exactly 2 bits per row
    for index in _bwt_and_index(False, 5_000)[0], _bwt_and_index(True, 5_000)[0]:
        stack, bits = [index.ranks.root.right], 0
        while stack:
            node = stack.pop()
            if node.left is not None:
                bits += node.n
                stack += (node.left, node.right)
        assert bits == 2 * (index.n - index.terminators)


@pytest.mark.parametrize("maxsym", [0, 1, 5, 20, 2**40])
def test_decode_and_counts_read_the_array_back(maxsym):
    rng = np.random.default_rng(maxsym % 97)
    for n in (0, 1, 63, 64, 65, 500):
        data = np.minimum(rng.integers(0, 21, size=n), maxsym)
        if maxsym == 2**40:
            data[::3] = maxsym
        rix = RankIndex(data, maxsym)
        assert rix.decode().tolist() == data.tolist()
        syms, counts = np.unique(data, return_counts=True)
        assert rix.counts() == (syms.tolist(), counts.tolist())
        assert [rix.access(i) for i in range(1, n + 1)] == data.tolist()


@st.composite
def descent_inputs(draw):
    """A BWT over sigma in {1, 2, 4, 20, 255} and a batch of nodes over its rows.

    The text uses a drawn subset of the letters; nodes run from the whole
    range down to one row, so a wavelet child is followed by every node of
    the batch, by some, or by none.
    """
    sigma = draw(st.sampled_from((1, 2, 4, 20, 255)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    letters = rng.sample(range(1, sigma + 1), draw(st.integers(1, min(sigma, 6))))
    index = BwtIndex([rng.choice(letters) for _ in range(draw(st.integers(1, 200)))], sigma)
    n = index.n
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        lo = draw(st.just(0) | st.integers(0, n - 1))
        hi = draw(st.just(n) | st.integers(lo + 1, n))
        inner = draw(st.lists(st.integers(lo, hi), max_size=4))
        nodes.append([lo, *sorted(inner), hi])
    return index, nodes


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(descent_inputs())
def test_descend_matches_prefix_counts_of_the_decoded_bwt(case):
    # one entry per symbol that some node's range holds; it ranks the symbol
    # at the boundaries of whole nodes, every node that holds it among them
    index, nodes = case
    codes = index.codes.astype(np.int64)
    x = np.array([x for node in nodes for x in node], dtype=np.int64)
    last = np.cumsum([len(node) for node in nodes]) - 1
    first = last - [len(node) - 1 for node in nodes]
    owner = np.arange(len(nodes)).repeat([len(node) for node in nodes])
    prefix = {c: np.concatenate(([0], np.cumsum(codes == c))) for c in range(index.ranks.maxsym + 1)}
    live = {c: [j for j, node in enumerate(nodes) if p[node[-1]] > p[node[0]]] for c, p in prefix.items()}
    leaves = index.ranks.descend(x, first, last)
    assert [c for c, _, _ in leaves] == [c for c in prefix if live[c]]
    for c, at, r in leaves:
        at = np.arange(x.size) if at is None else at
        assert r.dtype == np.int64
        assert r.tolist() == prefix[c][x[at]].tolist()
        taken = sorted(set(owner[at].tolist()))
        assert at.tolist() == [b for j in taken for b in range(first[j], last[j] + 1)]
        assert set(live[c]) <= set(taken)


def test_sparse_codes_cost_a_leaf_each():
    # a range whose elements are all one code is a leaf of that code, and a
    # range whose elements all fall in one half gives way to the narrowest
    # that splits them: 2,000 codes below 2**40 take under 4 nodes each,
    # not a node per level of the 40
    rng = np.random.default_rng(40)
    codes = rng.choice(2**40, size=2_000, replace=False)
    data = codes[rng.integers(0, codes.size, size=20_000)]
    rix = RankIndex(data, 2**40 - 1)
    nodes, stack = 0, [rix.root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.left is not None:
            stack += (node.left, node.right)
    assert nodes < 4 * codes.size
    assert rix.decode().tolist() == data.tolist()
    present = np.unique(data)
    absent = [0, 2**40 - 1, *np.setdiff1d(rng.choice(2**40, size=20), present).tolist()]
    x = [0, 1, 777, 10_000, 19_999, 20_000]
    for c in [*rng.choice(present, size=30).tolist(), *absent]:
        assert [rix.rank(c, i) for i in x] == [int(np.count_nonzero(data[:i] == c)) for i in x]
    for bounds in ([0, 20_000], [0, 5, 5, 9_000, 20_000], [12_345, 12_400, 12_999]):
        window = data[bounds[0] : bounds[-1]]
        want = [(c, [int(np.count_nonzero(data[:b] == c)) for b in bounds]) for c in np.unique(window).tolist()]
        assert rix.distinct_ranks(bounds) == want
