import functools
import math
import random
from collections import Counter

import numpy as np
import pytest
from conftest import (
    draw_repetitive,
    fibonacci,
    idx,
    merged_batches,
    mutate,
    one_index,
    rand_seq,
)
from hypothesis import given, settings, target
from hypothesis import strategies as st

import bwtk.enumerate
from bwtk.enumerate import (
    ABSENT,
    Batch,
    GenRepr,
    Repr,
    Side,
    _merge,
    _split,
    batched_pass,
    enumerate_generalized,
    enumerate_maximal_repeats,
    enumerate_right_maximal,
    extend_left,
    extend_left_generalized,
)
from bwtk.errors import InputError
from bwtk.kernels import entropy_range, maw_count, run_folds
from bwtk.oracle import (
    oracle_generalized_right_maximal_set,
    oracle_maximal_repeat_set,
    oracle_right_maximal_set,
)
from bwtk.suffix import PairIndex, build_bwt
from bwtk.text import Sequence


def collect_labels(run, *indexes) -> list[tuple[int, ...]]:
    labels = []
    run(*indexes, lambda ev: labels.append(ev.label()))
    return labels


def test_root_repr_abab():
    ix = idx("abab")
    labels = {}

    def visit(ev):
        labels[ev.label()] = (ev.repr.chars, ev.repr.first)

    enumerate_right_maximal(ix, visit)
    assert labels[()] == ((0, 1, 2), (1, 2, 4, 6))
    assert labels[(1, 2)] == ((0, 1), (2, 3, 4))
    assert labels[(2,)] == ((0, 1), (4, 5, 6))


def test_extend_left_hand_values():
    ix = idx("abab")
    root = Repr((0, 1, 2), (1, 2, 4, 6))
    got = extend_left(ix, root)
    assert [a for a, _ in got] == [0, 1, 2]
    by_sym = {a: r for a, r in got}
    # repr(a) covers rows 2..3, split between ab-rows only
    assert by_sym[1].interval() == (2, 3)
    assert by_sym[1].chars == (2,)
    # repr(b) covers rows 4..5 with extensions # and a
    assert by_sym[2].interval() == (4, 5)
    assert by_sym[2].chars == (0, 1)
    # the terminator left-extension lands on the terminator suffix row
    assert by_sym[0].interval() == (1, 1)


def test_extend_left_rejects_malformed():
    ix = idx("abab")
    with pytest.raises(InputError):
        extend_left(ix, Repr((), (0,)))
    with pytest.raises(InputError):
        extend_left(ix, Repr((1,), (4, 2)))
    with pytest.raises(InputError):
        extend_left(ix, Repr((1, 2), (1, 2)))
    # boundaries past the n + 1 = 6 rows of abab#, or repeated
    with pytest.raises(InputError):
        extend_left(ix, Repr((1, 2), (2, 4, 7)))
    with pytest.raises(InputError):
        extend_left(ix, Repr((1, 2), (2, 2, 4)))
    with pytest.raises(InputError):
        extend_left_generalized(ix, ix, GenRepr(Repr((1,), (4, 2)), Repr((1,), (2, 4))))


def test_visited_sets_match_oracle():
    rng = random.Random(31)
    for _ in range(40):
        s = rand_seq(rng, rng.randint(1, 24), rng.choice([1, 2, 3, 4]))
        ix = build_bwt(s)
        got = set(collect_labels(enumerate_right_maximal, ix))
        assert got == oracle_right_maximal_set(s)
        got = set(collect_labels(enumerate_maximal_repeats, ix))
        assert got == oracle_maximal_repeat_set(s)


def test_generalized_visited_sets_match_oracle():
    rng = random.Random(32)
    for _ in range(30):
        sigma = rng.choice([2, 3, 4])
        s1 = rand_seq(rng, rng.randint(1, 18), sigma)
        s2 = rand_seq(rng, rng.randint(1, 18), sigma)
        i1, i2 = build_bwt(s1), build_bwt(s2)
        got = set(collect_labels(enumerate_generalized, i1, i2))
        assert got == oracle_generalized_right_maximal_set(s1, s2)


def test_generalized_self_pair_includes_shared_suffix():
    # distinct terminators keep the common suffix right-maximal
    i1, i2 = idx("ab"), idx("ab")
    got = set(collect_labels(enumerate_generalized, i1, i2))
    assert got == {(), (2,), (1, 2)}


def test_generalized_disjoint_alphabets():
    rng = random.Random(5)
    s1 = Sequence([rng.randint(1, 2) for _ in range(12)], 3, "lo")
    s2 = Sequence([3] * 12, 3, "hi")
    i1, i2 = build_bwt(s1), build_bwt(s2)
    labels = collect_labels(enumerate_generalized, i1, i2)
    # no shared substrings: every non-root node is from one side only
    for lab in labels:
        if lab:
            assert set(lab) <= {1, 2} or set(lab) == {3}
    got = set(labels)
    assert got == oracle_generalized_right_maximal_set(s1, s2)


def test_generalized_requires_matching_sigma():
    i1 = build_bwt(rand_seq(random.Random(1), 5, 2))
    i2 = build_bwt(rand_seq(random.Random(2), 5, 3))
    with pytest.raises(InputError):
        enumerate_generalized(i1, i2, lambda ev: None)


def test_children_partition_parent_interval():
    rng = random.Random(33)
    for _ in range(20):
        s = rand_seq(rng, rng.randint(2, 30), rng.choice([2, 4]))
        ix = build_bwt(s)

        def visit(ev):
            f = ev.repr.freq
            total = sum(kid.freq for kid in ev.children)
            assert total == f
            assert ev.lefts == sorted(ev.lefts)

        enumerate_right_maximal(ix, visit)


def test_event_intervals_match_backward_search():
    rng = random.Random(34)
    for _ in range(15):
        s = rand_seq(rng, rng.randint(2, 20), rng.choice([2, 3]))
        ix = build_bwt(s)

        def visit(ev):
            if ev.depth:
                assert ev.repr.interval() == ix.interval(list(ev.label()))

        enumerate_right_maximal(ix, visit)


def test_extend_left_generalized_pairs_sides():
    i1, i2 = idx("aab"), idx("abb")
    pair = GenRepr(Repr((0, 1, 2), (1, 2, 4, 5)), Repr((0, 1, 2), (1, 2, 3, 5)))
    rows = extend_left_generalized(i1, i2, pair)
    assert [a for a, _ in rows] == [0, 1, 2]
    root = {a: g for a, g in rows}
    assert root[1].one.freq == 2 and root[1].two.freq == 1
    assert root[2].one.freq == 1 and root[2].two.freq == 2
    with pytest.raises(InputError):
        extend_left_generalized(i1, i2, GenRepr(Repr((), (0,)), Repr((), (0,))))


def test_traversal_is_deterministic():
    ix = idx("abracadabra")
    first = collect_labels(enumerate_right_maximal, ix)
    second = collect_labels(enumerate_right_maximal, ix)
    assert first == second


@pytest.mark.parametrize("pair", [False, True], ids=["right_maximal", "generalized"])
def test_visit_count_and_peak_bound(pair):
    rng = random.Random(35)
    run = enumerate_generalized if pair else enumerate_right_maximal
    for _ in range(25):
        sigma = rng.choice([2, 3, 4, 8])
        s = rand_seq(rng, rng.randint(2, 64), sigma)
        indexes = [build_bwt(s)]
        if pair:
            indexes.append(build_bwt(rand_seq(rng, rng.randint(2, 64), sigma)))
        stats = {}
        run(*indexes, lambda ev: None, stats=stats)
        # n counts the leaves of the (generalized) suffix tree
        n = sum(ix.n for ix in indexes)
        assert stats["visits"] <= n
        # the per-node passes report the batched pass they read
        visits, peak = batched_pass(one_index(indexes), lambda b: None)
        assert (stats["visits"], stats["peak_frames"]) == (visits, peak)


def test_enumeration_counters():
    i1, i2 = idx("aab"), idx("abb")
    enumerate_right_maximal(i1, lambda ev: None)
    assert (i1.enumerations, i2.enumerations) == (1, 0)
    enumerate_maximal_repeats(i1, lambda ev: None)
    assert (i1.enumerations, i2.enumerations) == (2, 0)
    enumerate_generalized(i1, i2, lambda ev: None)
    assert (i1.enumerations, i2.enumerations) == (3, 1)


@pytest.mark.parametrize(
    "run",
    [enumerate_right_maximal, enumerate_generalized],
    ids=["right_maximal", "generalized"],
)
def test_depth_sums_follow_the_path(run):
    # every node's label is its parent's with one of the parent's left
    # symbols prepended: the link the charscore and d2 folds build labels on
    indexes = [idx("abracadabra")]
    if run is enumerate_generalized:
        indexes.append(idx("cadabraabra"))
    lefts = {}

    def visit(ev):
        label = ev.label()
        assert len(label) == ev.depth
        lefts[label] = ev.lefts

    run(*indexes, visit)
    assert () in lefts
    for label in lefts:
        if label:
            assert label[0] in lefts[label[1:]]


def test_label_symbols_are_letters():
    rng = random.Random(36)
    for _ in range(10):
        s = rand_seq(rng, rng.randint(2, 40), 3)
        ix = build_bwt(s)

        def visit(ev):
            assert all(sym != 0 for sym in ev.label())

        enumerate_right_maximal(ix, visit)


def _oracle_events(texts, max_depth=None) -> Counter:
    """Per node, by window scans: depth, frequencies, left symbols, kids' frequencies.

    The empty string starts at each of 0 .. |T|, one per row of T#, and the
    left symbol of an occurrence at the start of T is the terminator 0.
    """
    if len(texts) == 1:
        nodes = oracle_right_maximal_set(texts[0])
    else:
        nodes = oracle_generalized_right_maximal_set(*texts)
    out = Counter()
    for w in nodes:
        if max_depth is not None and len(w) > max_depth:
            continue
        lefts = []
        for s in texts:
            t = tuple(s.symbols)
            starts = [i for i in range(len(t) - len(w) + 1) if t[i : i + len(w)] == w]
            lefts.append(Counter(t[i - 1] if i else 0 for i in starts))
        freqs = tuple(left.total() for left in lefts)
        syms = tuple(sorted(set().union(*lefts)))
        kids = tuple(tuple(left[a] for left in lefts) for a in syms)
        out[len(w), freqs, syms, kids] += 1
    return out


def _batched_events(indexes, cap, max_depth=None) -> tuple[Counter, int, int]:
    out = Counter()
    pair = len(indexes) > 1

    def visit(batch):
        freqs = list(zip(*batch.side.texts()[0].tolist()))
        kid_freqs = list(zip(*batch.kids.texts()[0].tolist()))
        kids = [[] for _ in freqs]
        for r, (j, a) in enumerate(zip(batch.kid_node.tolist(), batch.kid_sym.tolist())):
            if pair:
                # a pair's letters are shifted up by one; # and $ are the
                # terminator extensions of text 1 and of text 2
                a = max(a - 1, 0)
                if kids[j] and kids[j][-1][0] == a:
                    a, f = kids[j].pop()
                    kid_freqs[r] = tuple(map(sum, zip(f, kid_freqs[r])))
            kids[j].append((a, kid_freqs[r]))
        for j, f in enumerate(freqs):
            lefts = tuple(a for a, _ in kids[j])
            assert lefts == tuple(sorted(lefts))
            out[batch.depth, f, lefts, tuple(k for _, k in kids[j])] += 1

    visits, peak = batched_pass(one_index(indexes), visit, max_depth=max_depth, _cap=cap)
    return out, visits, peak


@st.composite
def pass_inputs(draw):
    """One or two texts over sigma in {1, 2, 4, 20}: runs, periods, Fibonacci words."""
    sigma = draw(st.sampled_from((1, 2, 4, 20)))

    def text() -> Sequence:
        if sigma > 1 and draw(st.booleans()):
            a, b = draw(st.lists(st.integers(1, sigma), min_size=2, max_size=2, unique=True))
            return Sequence(fibonacci(a, b, draw(st.integers(1, 60))), sigma)
        return draw_repetitive(draw, sigma)

    texts = [text() for _ in range(draw(st.integers(1, 2)))]
    max_depth = draw(st.none() | st.integers(0, 12)) if len(texts) == 1 else None
    return sigma, texts, max_depth


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(pass_inputs())
def test_batched_pass_matches_the_oracle_at_every_cap(case):
    # the batch cap B changes only how nodes are grouped, never what is visited
    sigma, texts, max_depth = case
    indexes = [build_bwt(s) for s in texts]
    want = _oracle_events(texts, max_depth)
    rows = sum(ix.n for ix in indexes)
    widest = len(indexes) * (sigma + 2)  # boundaries of one node, both texts
    for cap in (1, 2, 7, None):
        got, visits, peak = _batched_events(indexes, cap, max_depth)
        assert got == want
        assert visits == sum(want.values())
        if cap is not None:
            # at most log2(rows) groups of pending pieces, each the children
            # (at most sigma per node) of one piece of under cap + widest
            assert peak <= math.log2(rows) * sigma * (cap + widest)
    for index in indexes:
        assert index.enumerations == 4  # one batched pass per cap


def _peak_bound(indexes, sigma: int, cap: int) -> float:
    # at most log2(rows) groups of pending pieces, each the children (at
    # most sigma per node) of one piece of under cap + widest
    rows = sum(ix.n for ix in indexes)
    widest = len(indexes) * (sigma + 2)
    return math.log2(rows) * sigma * (cap + widest)


@st.composite
def merge_inputs(draw):
    """Random texts wide enough to split at small caps; a pair is a text and a mutant."""
    sigma = draw(st.sampled_from((2, 4, 20)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    texts = [rand_seq(rng, draw(st.integers(20, 200)), sigma)]
    if draw(st.booleans()):
        texts.append(mutate(rng, texts[0], draw(st.sampled_from((0.02, 0.05, 0.3)))))
    max_depth = draw(st.none() | st.integers(0, 12)) if len(texts) == 1 else None
    return sigma, texts, max_depth


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(merge_inputs(), st.sampled_from((8, 16, 32, 64)))
def test_merged_batches_match_the_unsplit_pass(case, cap):
    # caps at which small batches are parked and merged, unlike 1, 2 and 7;
    # the unsplit pass (cap None) is judged against the oracle above. The
    # search steers toward inputs whose peak comes closest to the bound
    sigma, texts, max_depth = case
    indexes = [build_bwt(s) for s in texts]
    want, visits, _ = _batched_events(indexes, None, max_depth)
    got, merged_visits, peak = _batched_events(indexes, cap, max_depth)
    assert got == want
    assert merged_visits == visits
    target(peak / _peak_bound(indexes, sigma, cap), label="peak / bound")
    assert peak <= _peak_bound(indexes, sigma, cap)


@pytest.mark.parametrize("pair", [False, True], ids=["right_maximal", "generalized"])
def test_merged_batches_keep_every_node_and_label(monkeypatch, pair):
    rng = random.Random(38)
    texts = [rand_seq(rng, 300, 4)]
    if pair:
        texts.append(mutate(rng, texts[0], 0.05))
    indexes = [build_bwt(s) for s in texts]
    tables = [tuple(s.symbols) for s in texts]
    run = enumerate_generalized if pair else enumerate_right_maximal
    unmerged = _batched_events(indexes, None)[0]
    labels = Counter()

    def visit(ev):
        w = ev.label()
        labels[w] += 1
        sides = (ev.repr.one, ev.repr.two) if pair else (ev.repr,)
        for ix, t, r in zip(indexes, tables, sides):
            want = _repr_by_scan(ix, t, w)
            assert (r.chars, r.first) == (want.chars, want.first)

    for cap in (16, 64):
        assert merged_batches(indexes, cap) > 0
        got, _, peak = _batched_events(indexes, cap)
        assert got == unmerged
        assert peak <= _peak_bound(indexes, 4, cap)
        # the per-node API at this cap: every node once, its label by window scans
        labels.clear()
        monkeypatch.setattr(
            bwtk.enumerate, "batched_pass", functools.partial(batched_pass, _cap=cap)
        )
        run(*indexes, visit)
        monkeypatch.undo()
        assert max(labels.values()) == 1
        assert labels.keys() == set(collect_labels(run, *indexes))


@pytest.mark.parametrize("cap", [1024, bwtk.enumerate._CAP], ids=["cap1024", "default"])
def test_peak_bound_on_a_deep_merged_descent(cap):
    # a 2e4-symbol pair 0.1% apart descends thousands of depths, most of
    # them one merged batch, far deeper than the texts above
    rng = random.Random(11)
    texts = [rand_seq(rng, 20_000, 4)]
    texts.append(mutate(rng, texts[0], 0.001))
    indexes = [build_bwt(s) for s in texts]
    depths = Counter()
    index = one_index(indexes)
    _, peak = batched_pass(index, lambda batch: depths.update((batch.depth,)), _cap=cap)
    assert sum(count == 1 for count in depths.values()) > 2_000
    assert peak <= _peak_bound(indexes, 4, cap)


def test_batched_pass_never_ranks_one_symbol_at_a_time(monkeypatch):
    s = rand_seq(random.Random(37), 500, 4)
    ix = build_bwt(s)

    def refuse(*args):
        raise AssertionError("rank called")

    monkeypatch.setattr(type(ix.ranks), "rank", refuse)
    monkeypatch.setattr(type(ix.ranks), "range_distinct", refuse)
    visits, _ = batched_pass(ix, lambda batch: None)
    assert visits == len(oracle_right_maximal_set(s))


@st.composite
def extension_inputs(draw):
    """One or two texts over sigma in {1, 2, 4, 20}: random, runs, periods, Fibonacci words."""
    sigma = draw(st.sampled_from((1, 2, 4, 20)))

    def text() -> Sequence:
        kind = draw(st.sampled_from(("random", "repetitive", "fibonacci")))
        if kind == "fibonacci" and sigma > 1:
            a, b = draw(st.lists(st.integers(1, sigma), min_size=2, max_size=2, unique=True))
            return Sequence(fibonacci(a, b, draw(st.integers(1, 60))), sigma)
        if kind == "random":
            return Sequence(draw(st.lists(st.integers(1, sigma), min_size=1, max_size=40)), sigma)
        return draw_repetitive(draw, sigma)

    return [text() for _ in range(draw(st.integers(1, 2)))]


def _scan(t: tuple, w: tuple) -> tuple[list[int], Counter]:
    """Left neighbours (0 at the start of t) and right-neighbour counts (0 at its end) of w."""
    starts = [i for i in range(len(t) - len(w) + 1) if t[i : i + len(w)] == w]
    end = len(w)
    rights = Counter(t[i + end] if i + end < len(t) else 0 for i in starts)
    return [t[i - 1] if i else 0 for i in starts], rights


def _repr_by_scan(ix, t: tuple, w: tuple) -> Repr:
    """repr(w) from its window scan, its rows starting where ix.interval puts them."""
    _, rights = _scan(t, w)
    if not rights:
        return ABSENT
    chars = tuple(sorted(rights))
    first = [ix.interval(list(w))[0]]
    for b in chars:
        first.append(first[-1] + rights[b])
    return Repr(chars, tuple(first))


def _check_kid(ix, t: tuple, a: int, w: tuple, kid: Repr) -> None:
    """kid is repr(aW): ix.interval(aW) and the right extensions of aW in t.

    a = 0 is the terminator before t, so 0W has the one row of the suffix
    # and is followed by what follows the prefix W of t.
    """
    if a == 0:
        if t[: len(w)] != w:
            assert kid is ABSENT
            return
        assert kid.interval() == (1, 1)
        assert kid.chars == (t[len(w)] if len(w) < len(t) else 0,)
        return
    _, rights = _scan(t, (a,) + w)
    if not rights:
        assert kid is ABSENT
        return
    assert kid.interval() == ix.interval([a, *w])
    assert kid.chars == tuple(sorted(rights))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(extension_inputs())
def test_extend_left_matches_backward_search_and_window_scans(texts):
    indexes = [build_bwt(s) for s in texts]
    tables = [tuple(s.symbols) for s in texts]
    if len(texts) == 1:
        nodes = oracle_right_maximal_set(texts[0])
    else:
        nodes = oracle_generalized_right_maximal_set(*texts)
    for w in nodes:
        reprs = [_repr_by_scan(ix, t, w) for ix, t in zip(indexes, tables)]
        lefts = set().union(*(_scan(t, w)[0] for t in tables))
        if len(texts) == 1:
            kids = [(a, (kid,)) for a, kid in extend_left(indexes[0], reprs[0])]
        else:
            got = extend_left_generalized(*indexes, GenRepr(*reprs))
            kids = [(a, (g.one, g.two)) for a, g in got]
        assert [a for a, _ in kids] == sorted(lefts)
        for a, sides in kids:
            for ix, t, kid in zip(indexes, tables, sides):
                _check_kid(ix, t, a, w, kid)


@st.composite
def mapped_pairs(draw):
    """Two texts over sigma in 2..20: unrelated, identical, nested, or one of length 1."""
    sigma = draw(st.integers(2, 20))
    text = st.lists(st.integers(1, sigma), min_size=1, max_size=30)
    t1 = draw(text)
    shape = draw(st.sampled_from(("random", "identical", "inside", "single")))
    if shape == "identical":
        t2 = list(t1)
    elif shape == "inside":
        i = draw(st.integers(0, len(t1) - 1))
        t2 = t1[i : draw(st.integers(i + 1, len(t1)))]
    elif shape == "single":
        t2 = [draw(st.integers(1, sigma))]
    else:
        t2 = draw(text)
    if draw(st.booleans()):
        t1, t2 = t2, t1
    return Sequence(t1, sigma), Sequence(t2, sigma)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(mapped_pairs())
def test_pair_events_map_to_each_texts_own_rows(pair):
    # the pass runs over one index of T1 $ T2 #; each event reports both
    # texts in their own indexes' rows, through the rank of the text bit
    indexes = [build_bwt(s) for s in pair]
    tables = [tuple(s.symbols) for s in pair]
    labels = []

    def visit(ev):
        w = ev.label()
        labels.append(w)
        for ix, t, r in zip(indexes, tables, (ev.repr.one, ev.repr.two)):
            if r is ABSENT:
                assert ix.interval(list(w)) is None
            else:
                assert r.interval() == ix.interval(list(w))
                want = _repr_by_scan(ix, t, w)
                assert (r.chars, r.first) == (want.chars, want.first)
        # the merged extend_left of each text's own index
        merged = extend_left_generalized(*indexes, ev.repr)
        assert ev.lefts == [a for a, _ in merged]
        for kid, (_, want) in zip(ev.children, merged):
            for got, expect in ((kid.one, want.one), (kid.two, want.two)):
                assert (got.chars, got.first) == (expect.chars, expect.first)

    enumerate_generalized(*indexes, visit)
    assert len(labels) == len(set(labels))
    assert set(labels) == oracle_generalized_right_maximal_set(*pair)


@st.composite
def random_sides(draw):
    """An index over one text or a pair, and random nodes over its rows.

    Each node has two or more increasing boundaries in [0..n]; ch holds a
    random symbol per block, and over a pair one holds the text bit's rank.
    At sigma=255 a wavelet child often holds a symbol of few of the nodes.
    """
    sigma = draw(st.sampled_from((1, 2, 4, 20, 255)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    texts = [rand_seq(rng, draw(st.integers(1, 120)), sigma)]
    if draw(st.booleans()):
        near = sigma > 1 and draw(st.booleans())
        texts.append(mutate(rng, texts[0], 0.05) if near else rand_seq(rng, 40, sigma))
    index = one_index([build_bwt(s) for s in texts])
    bd, nb = [], []
    for _ in range(draw(st.integers(1, 8))):
        count = draw(st.integers(2, min(6, index.n + 1)))
        bd += sorted(rng.sample(range(index.n + 1), count))
        nb.append(count)
    bd, nb = np.array(bd, dtype=np.int64), np.array(nb)
    ch = np.array([rng.randint(0, sigma + 1) for _ in range(bd.size - nb.size)], dtype=np.int64)
    one = index.bit.ones(bd) if isinstance(index, PairIndex) else None
    return index, Side(bd, nb, ch, one)


def _brute_kids(index, side: Side) -> tuple[list, ...]:
    """Every left extension aW of side's nodes, by a then by node, from the BWT's prefix counts."""
    codes = index.codes.astype(np.int64)
    ones = None
    if isinstance(index, PairIndex):
        ones = np.concatenate(([0], np.cumsum(index.bit.bits())))
    nodes, s = [], 0
    for j, count in enumerate(side.nb.tolist()):
        # node j's blocks start s - j blocks in
        nodes.append((side.bd[s : s + count].tolist(), s - j))
        s += count
    kid_node, kid_sym, kid_blk, bd, nb, one = [], [], [], [], [], []
    for a in np.unique(codes).tolist():
        # aW's rows start after those of every symbol below a
        prefix = np.concatenate(([0], np.cumsum(codes == a))) + np.count_nonzero(codes < a)
        for j, (x, blk0) in enumerate(nodes):
            r = prefix[x].tolist()
            if r[-1] == r[0]:
                continue
            rises = [t for t in range(1, len(r)) if r[t] > r[t - 1]]
            kid = [r[0]] + [r[t] for t in rises]
            kid_node.append(j)
            kid_sym.append(a)
            kid_blk += [blk0 + t - 1 for t in rises]
            bd += kid
            nb.append(len(kid))
            if ones is not None:
                # #W is text 1's (one row of it), $W text 2's
                one += [int(ones[y]) if a >= index.terminators else y - int(ones[y]) for y in kid]
    return kid_node, kid_sym, kid_blk, bd, nb, one


def _check_kids(index, batch: Batch) -> None:
    """The batch's kids, as read from it, are _brute_kids of its nodes."""
    side, kids = batch.side, batch.kids
    kid_node, kid_sym, kid_blk, bd, nb, one = _brute_kids(index, side)
    assert batch.kid_node.tolist() == kid_node
    assert batch.kid_sym.tolist() == kid_sym
    assert batch.kid_blk.tolist() == kid_blk
    assert (kids.bd.tolist(), kids.nb.tolist()) == (bd, nb)
    assert kids.ch.tolist() == side.ch[kid_blk].tolist()
    assert (kids.one is None) == (side.one is None)
    if kids.one is not None:
        assert kids.one.tolist() == one


def test_kids_match_a_brute_force_left_extension():
    # the descent cuts a wavelet child to its live nodes or carries it whole,
    # dead nodes included: both must run over the drawn sides
    ran = set()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(random_sides())
    def check(case):
        index, side = case
        _check_kids(index, Batch(index, 0, side))
        start, last = side.end - side.nb, side.end - 1
        for _, at, r in index.ranks.descend(side.bd, start, last):
            ran.add("cut" if at is not None else "whole")
            if at is None and np.any(r[start] == r[last]):
                ran.add("whole with dead nodes")

    check()
    assert ran == {"cut", "whole", "whole with dead nodes"}


def test_a_pass_of_side_only_folds_extends_no_batch_at_its_depth_bound(monkeypatch):
    # entropy_range reads only batch.side, so its pass, bounded at k2 = 3,
    # makes one descent per batch above that depth and none at it; fused with
    # maw_count, which reads the kids, it extends every depth it visits
    index = build_bwt(rand_seq(random.Random(24), 3_000, 4))
    extended = Counter()
    extend = bwtk.enumerate._extend_batch

    def counted(batch):
        extended[batch.depth] += 1
        extend(batch)

    monkeypatch.setattr(bwtk.enumerate, "_extend_batch", counted)
    visited = Counter()
    batched_pass(index, lambda batch: visited.update([batch.depth]), max_depth=3)
    assert sorted(visited) == [0, 1, 2, 3]
    assert extended == {d: visited[d] for d in (0, 1, 2)}
    extended.clear()
    alone = entropy_range(index, 0, 3), maw_count(index)
    extended.clear()
    entropy_range(index, 0, 3)
    assert extended == {d: visited[d] for d in (0, 1, 2)}
    extended.clear()
    fused = run_folds(index, [(entropy_range.fold, 0, 3), (maw_count.fold,)])
    assert tuple(fused) == alone
    assert extended[3] == visited[3] and max(extended) > 3
    # the kids read at the bound are still every left extension
    read = []

    def visit(batch):
        if batch.depth == 3:
            _check_kids(index, batch)
            read.append(batch.depth)

    batched_pass(index, visit, max_depth=3)
    assert len(read) == visited[3]


def _arrays(side: Side) -> list:
    return [a.tolist() for a in (side.bd, side.nb, side.ch, side.one) if a is not None]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(random_sides(), st.data())
def test_take_matches_a_mask_reference(case, data):
    _, side = case
    count = side.nb.size
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    at = rows.repeat(side.nb)
    one = None if side.one is None else side.one[at]
    want = Side(side.bd[at], side.nb[rows], side.ch[rows.repeat(side.nb - 1)], one)
    assert _arrays(side.take(rows)) == _arrays(want)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(random_sides(), st.data())
def test_split_pieces_merge_back_into_the_batch(case, data):
    _, side = case
    key = object()
    count = side.nb.size
    weights = np.arange(count) * 0.5
    batch = Batch(None, 3, side, {key: (np.arange(count), weights)})
    cap = data.draw(st.none() | st.integers(1, side.bd.size + 1))
    pieces = _split(batch, cap)
    for piece in pieces:
        assert piece.depth == 3
        # every node of a piece starts within cap boundaries of its first
        assert cap is None or piece.size - piece.side.nb[-1] < cap
    mass = [int(piece.side.freq.sum()) for piece in pieces]
    assert mass == sorted(mass, reverse=True)
    # the pieces are runs of consecutive nodes: back in node order they merge into the batch
    pieces.sort(key=lambda piece: piece.carry[key][0][0])
    merged = _merge(pieces)
    assert _arrays(merged.side) == _arrays(side)
    assert merged.carry[key][0].tolist() == list(range(count))
    assert merged.carry[key][1].tolist() == weights.tolist()
