import dataclasses
import functools
import math
import random
import struct
import time
from collections import Counter

import numpy as np
import pytest
from conftest import (
    draw_repetitive,
    fibonacci,
    idx,
    merged_batches,
    mutate,
    rand_seq,
    repetitive_text,
    same_value_or_same_error,
    seq,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bwtk.kernels
import bwtk.oracle as orc
import bwtk.suffix
from bwtk.enumerate import _CAP, batched_pass, enumerate_generalized
from bwtk.errors import BwtkError, ComputationError, InputError, ZeroDenominatorError
from bwtk.kernels import (
    calibrate_kmax,
    calibrate_kmin,
    d2s_distance,
    d2star_distance,
    entropy_range,
    kl_divergence_range,
    kmer_complexity,
    kmer_kernel,
    kmer_kernel_range,
    kmer_profile,
    markov_kernel,
    maw_cosine,
    maw_count,
    maw_enumerate,
    maw_jaccard,
    maw_words,
    run_folds,
    substring_complexity,
    substring_kernel,
    weighted_substring_kernel,
)
from bwtk.enumerate import GenRepr, Repr, extend_left, extend_left_generalized
from bwtk.kernels import Fold, PerK, ProfileMatrix, _pair_sums
from bwtk.params import WeightSpec, ZScoreParams
from bwtk.suffix import BwtIndex, PairIndex, build_bwt
from bwtk.text import Sequence
from bwtk.wavelet import RankIndex


def test_complexity_hand_values():
    ab = idx("abab")
    assert kmer_complexity(ab, 1) == 2
    assert kmer_complexity(ab, 2) == 2
    assert kmer_complexity(ab, 4) == 1
    assert kmer_complexity(ab, 9) == 0
    assert substring_complexity(ab) == 7
    assert substring_complexity(idx("aaa")) == 3
    assert substring_complexity(idx("a")) == 1
    with pytest.raises(InputError):
        kmer_complexity(ab, 0)


def test_kmer_kernel_hand_values():
    a, b = idx("aab"), idx("abb")
    assert kmer_kernel(a, b, 1) == pytest.approx(0.8, abs=1e-12)
    assert kmer_kernel(a, b, 2) == pytest.approx(0.5, abs=1e-12)
    assert kmer_kernel(a, b, 3) == 0.0
    with pytest.raises(ZeroDenominatorError):
        kmer_kernel(a, b, 4)
    with pytest.raises(InputError):
        kmer_kernel(a, b, 0)


def test_kmer_kernel_range_drops_undefined_lengths():
    a, b = idx("aab"), idx("abbbb")
    got = kmer_kernel_range(a, b, 1, 5)
    # aab supports k up to 3 only
    assert sorted(got) == [1, 2, 3]
    for k in got:
        assert got[k] == pytest.approx(kmer_kernel(a, b, k), abs=1e-15)


def test_profile_hand_value_and_invariants():
    prof = kmer_profile(idx("abab"), 1, 2, 1, 2)
    assert prof.cells == [[0, 2], [1, 1]]
    assert prof.cell(2, 1) == 1
    rng = random.Random(404)
    for _ in range(15):
        s = rand_seq(rng, rng.randint(2, 24), rng.choice([2, 3]))
        ix = build_bwt(s)
        prof = kmer_profile(ix, 1, 4, 1, 3)
        # row sums with f1=1 count all distinct k-mers
        for k in range(1, 5):
            assert sum(prof.cells[k - 1]) == kmer_complexity(ix, k)
    with pytest.raises(InputError):
        kmer_profile(idx("abab"), 2, 1, 1, 2)
    with pytest.raises(InputError):
        kmer_profile(idx("abab"), 1, 2, 0, 2)


def test_profile_cell_refuses_a_cell_outside_the_matrix():
    # k below k1 or f below f1 once read another cell through a negative
    # index: cell(1, 2) read the last held row, though no 1-mer occurs twice
    # (1 occurs 5 times and 2 occurs 4 times), and cell(2, 1) the saturated column
    symbols = [1, 2, 1, 2, 1, 1, 2, 2, 1]
    prof = kmer_profile(BwtIndex(symbols, 2), 2, 4, 2, 3)
    for k, f in ((1, 2), (2, 1), (5, 2), (2, 4), (0, 0), (-1, 2), (2, -1)):
        with pytest.raises(InputError):
            prof.cell(k, f)
    want = orc.oracle_kmer_profile(Sequence(symbols, 2), 2, 4, 2, 3)
    assert [[prof.cell(k, f) for f in (2, 3)] for k in (2, 3, 4)] == prof.cells == want


def test_lengths_and_frequencies_past_any_index_give_a_value_or_input_error():
    # k2 past the longest indexable text is refused as the CLI refuses it;
    # frequencies past n count 0 and never reach NumPy
    s = seq("abaababaab")
    ix = build_bwt(s)
    for call in (
        lambda: entropy_range(ix, 0, 2**63)[0],
        lambda: kl_divergence_range(ix, 2, 2**64)[0],
    ):
        with pytest.raises(InputError, match="past the longest text an index holds"):
            call()
    assert entropy_range(ix, 0, bwtk.suffix._MAX_N)[-1] == 0.0
    assert kl_divergence_range(ix, 2, bwtk.suffix._MAX_N)[-1] == 0.0
    want = orc.oracle_kmer_profile(s, 1, 2, 1, ix.n)
    for f2 in (2**63, 2**64):
        prof = kmer_profile(ix, 1, 2, 1, f2)
        assert [[prof.cell(k, f) for f in range(1, ix.n + 1)] for k in (1, 2)] == want
        assert prof.cell(1, f2) == prof.cell(2, f2) == 0
    for f1 in (ix.n + 1, 2**63, 2**70):
        prof = kmer_profile(ix, 1, 2, f1, f1 + 1)
        assert prof.held == []
        assert prof.cells == [[0, 0], [0, 0]]
    assert kmer_complexity(ix, 2**70) == 0


def test_entropy_hand_values():
    expect = (2 * math.log2(3 / 2) + math.log2(3)) / 3
    assert entropy_range(idx("aab"), 0, 0)[0] == pytest.approx(expect, abs=1e-6)
    assert entropy_range(idx("aaaa"), 1, 1)[0] == 0.0
    hs = entropy_range(idx("abab"), 0, 5)
    assert len(hs) == 6
    with pytest.raises(InputError):
        entropy_range(idx("abab"), -1, 2)


def test_substring_kernel_self_and_disjoint():
    assert substring_kernel(idx("abab"), idx("abab")) == pytest.approx(1.0, abs=1e-12)
    a = build_bwt(seq("aaa", sigma=2))
    b = build_bwt(Sequence([2, 2, 2], 2, "bbb"))
    assert substring_kernel(a, b) == 0.0


def _assert_integer_readings_agree(i1, i2, ks) -> None:
    # uniform and band weights read the same exact integer sums as the
    # substring and k-mer kernels, so the floats are equal, not just close
    uniform = WeightSpec(kind="uniform")
    assert weighted_substring_kernel(i1, i2, uniform) == substring_kernel(i1, i2)
    for k in ks:
        band = WeightSpec(kind="band", kmin=k, kmax=k)
        try:
            expect = kmer_kernel(i1, i2, k)
        except ZeroDenominatorError:
            with pytest.raises(ZeroDenominatorError):
                weighted_substring_kernel(i1, i2, band)
            continue
        assert weighted_substring_kernel(i1, i2, band) == expect


def test_weighted_band_equals_plain_kmer():
    rng = random.Random(71)
    for _ in range(20):
        sigma = rng.choice([2, 3])
        s1 = rand_seq(rng, rng.randint(2, 24), sigma)
        s2 = rand_seq(rng, rng.randint(2, 24), sigma)
        _assert_integer_readings_agree(build_bwt(s1), build_bwt(s2), (1, 2, 3))
    a = build_bwt(rand_seq(rng, 3000, 4))
    b = build_bwt(rand_seq(rng, 2000, 4))
    _assert_integer_readings_agree(a, b, (1, 4, 8))


def test_tiny_epsilon_reads_the_one_mer_kernel():
    # the squared weights 1e-200**L underflow without a rescale; the limit
    # of the exponential kernel as epsilon falls is the 1-mer kernel
    rng = random.Random(74)
    i1 = build_bwt(rand_seq(rng, 300, 4))
    i2 = build_bwt(rand_seq(rng, 300, 4))
    expect = kmer_kernel(i1, i2, 1)
    for eps in (1e-100, 1e-170, 1e-200):
        spec = WeightSpec(kind="exponential", epsilon=eps)
        assert weighted_substring_kernel(i1, i2, spec) == pytest.approx(expect, rel=1e-9)


def test_weight_spec_rejects_non_finite_values():
    a, b = idx("aab"), idx("abb")
    for eps in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(InputError):
            weighted_substring_kernel(a, b, WeightSpec(kind="exponential", epsilon=eps))
    for scores in ((math.inf, 1.0), (1.0, math.nan), (0.0, 1.0)):
        with pytest.raises(InputError):
            weighted_substring_kernel(a, b, WeightSpec(kind="charscore", scores=scores))
    # epsilon is read only by exponential weights
    WeightSpec(kind="uniform", epsilon=math.inf).validate(2)


def test_exponential_weights_above_one_do_not_overflow():
    # the squared weight 40**(2L) overflows a float once L passes ~96
    rng = random.Random(72)
    s = rand_seq(rng, 3000, 4)
    spec = WeightSpec(kind="exponential", epsilon=40)
    got = weighted_substring_kernel(build_bwt(s), build_bwt(s), spec)
    assert got == pytest.approx(1.0, abs=1e-12)
    huge = WeightSpec(kind="charscore", scores=(1e200,) * 4)
    with pytest.raises(ComputationError):
        weighted_substring_kernel(build_bwt(s), build_bwt(s), huge)


def test_exponential_weights_above_one_scale_each_side():
    # one common scale underflowed the shorter side's norm to 0
    rng = random.Random(73)
    short = build_bwt(rand_seq(rng, 100, 4))
    long = build_bwt(rand_seq(rng, 3000, 4))
    for eps in (2, 40):
        got = weighted_substring_kernel(short, long, WeightSpec("exponential", eps))
        assert 0.0 <= got <= 1e-9
        assert weighted_substring_kernel(long, long, WeightSpec("exponential", eps)) == (
            pytest.approx(1.0, abs=1e-12)
        )
    for _ in range(30):
        sigma = rng.choice([2, 3])
        s1 = rand_seq(rng, rng.randint(1, 12), sigma)
        s2 = rand_seq(rng, rng.randint(12, 40), sigma)
        i1, i2 = build_bwt(s1), build_bwt(s2)
        for eps in (1.5, 3.0):
            spec = WeightSpec(kind="exponential", epsilon=eps)
            expect = orc.oracle_weighted_substring_kernel(s1, s2, spec)
            got = weighted_substring_kernel(i1, i2, spec)
            assert got == pytest.approx(expect, rel=1e-9)
            assert weighted_substring_kernel(i2, i1, spec) == pytest.approx(got, rel=1e-9)


def test_d2star_underflowing_q_product_is_a_computation_error():
    rng = random.Random(600)
    a = build_bwt(rand_seq(rng, 3000, 4))
    b = build_bwt(rand_seq(rng, 3000, 4))
    # 0.25**600 underflows, but no 600-mer occurs in both texts, so every
    # term has a zero count and q cancels: the exact value is -2401
    assert d2star_distance(a, b, 600, (0.25,) * 4) == pytest.approx(-2401, rel=1e-9)
    # a shared 600-mer's term f1 f2 / q(W) really leaves the float range
    with pytest.raises(ComputationError, match="floating-point range"):
        d2star_distance(a, a, 600, (0.25,) * 4)
    # d2s divides by no q-product and stays defined
    assert math.isfinite(d2s_distance(a, b, 600, (0.25,) * 4))
    assert math.isfinite(d2s_distance(a, a, 600, (0.25,) * 4))


def test_d2star_terms_past_the_float_range_are_a_computation_error():
    # q(W) = 4e-308 is a normal float, but f1 f2 / q(W) overflows to inf for
    # the 2-mers over letters 1 and 2 in both texts: their terms are not finite
    rng = random.Random(601)
    a = build_bwt(rand_seq(rng, 3000, 4))
    b = build_bwt(rand_seq(rng, 3000, 4))
    q = (2e-154, 2e-154, 0.5, 0.5)
    with pytest.raises(ComputationError, match="floating-point range"):
        d2star_distance(a, b, 2, q)
    assert math.isfinite(d2s_distance(a, b, 2, q))


def test_d2_pass_stops_at_depth_k_minus_1(monkeypatch):
    # the fold visits depth k - 1 at most, so a pass of d2s or d2star alone
    # extends every batch above that depth and none at it
    rng = random.Random(25)
    s = rand_seq(rng, 3_000, 4)
    pair = PairIndex.of(build_bwt(s), build_bwt(mutate(rng, s, 0.01)))
    q = (0.1, 0.2, 0.3, 0.4)
    extended = Counter()
    extend = bwtk.enumerate._extend_batch

    def counted(batch):
        extended[batch.depth] += 1
        extend(batch)

    monkeypatch.setattr(bwtk.enumerate, "_extend_batch", counted)
    for k in (1, 2, 5):
        visited = Counter()
        batched_pass(pair, lambda batch: visited.update([batch.depth]), max_depth=k - 1)
        assert max(visited) == k - 1
        for measure in (d2s_distance, d2star_distance):
            assert measure.fold(pair, k, q).depth == k - 1
            extended.clear()
            run_folds(pair, [(measure.fold, k, q)])
            assert extended == {d: visited[d] for d in range(k - 1)}


def test_d2_fused_with_a_full_depth_fold_is_bit_for_bit_its_value_alone():
    # substring_kernel visits every depth, d2s and d2star only those below k
    rng = random.Random(26)
    s = rand_seq(rng, 2_000, 4)
    q = (0.1, 0.2, 0.3, 0.4)
    for other in (s, mutate(rng, s, 0.01)):
        pair = PairIndex.of(build_bwt(s), build_bwt(other))
        for k in (1, 3, 8):
            calls = [(substring_kernel.fold,), (d2s_distance.fold, k, q), (d2star_distance.fold, k, q)]
            alone = [run_folds(pair, [call])[0] for call in calls]
            assert _hexed(run_folds(pair, calls)) == _hexed(alone)


def test_weighted_kernel_validates_spec():
    a, b = idx("aab"), idx("abb")
    with pytest.raises(InputError):
        weighted_substring_kernel(a, b, WeightSpec(kind="poly"))
    with pytest.raises(InputError):
        weighted_substring_kernel(a, b, WeightSpec(kind="charscore"))
    with pytest.raises(InputError):
        weighted_substring_kernel(a, b, WeightSpec(kind="band", kmin=3, kmax=2))


def test_d2_hand_values_and_preconditions():
    a, b = idx("aab"), idx("abb")
    q = (0.5, 0.5)
    assert d2s_distance(a, b, 1, q) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    assert d2star_distance(a, b, 1, q) == pytest.approx(-1 / 3, abs=1e-12)
    # keyword calls reach the fold set-up too
    assert d2star_distance(index1=a, index2=b, k=1, q=q) == d2star_distance(a, b, 1, q)
    with pytest.raises(ZeroDenominatorError):
        d2s_distance(a, b, 4, q)
    with pytest.raises(ZeroDenominatorError):
        d2star_distance(a, b, 4, q)
    with pytest.raises(InputError):
        d2s_distance(a, b, 1, (0.5, 0.4))
    with pytest.raises(InputError):
        d2s_distance(a, b, 0, q)


def test_d2_matches_oracle_with_random_q_on_long_texts():
    # q far from uniform, on thousands of windows per text
    rng = random.Random(90)
    for _ in range(6):
        s1 = rand_seq(rng, rng.randint(1500, 3000), 4)
        s2 = rand_seq(rng, rng.randint(1500, 3000), 4)
        if rng.random() < 0.5:
            s2 = mutate(rng, s1, 0.1)
        w = [rng.expovariate(1.0) + 0.01 for _ in range(4)]
        q = tuple(x / sum(w) for x in w)
        i1, i2 = build_bwt(s1), build_bwt(s2)
        for k in (3, 7, 8):
            assert d2s_distance(i1, i2, k, q) == pytest.approx(orc.oracle_d2s(s1, s2, k, q), rel=1e-9)
            assert d2star_distance(i1, i2, k, q) == pytest.approx(
                orc.oracle_d2star(s1, s2, k, q), rel=1e-9
            )


@st.composite
def d2_case(draw):
    """A pair over one alphabet, a k up to past the shorter text, and a q.

    The pair is repetitive, or random over sigma in {2, 4} with a partner
    that is random or the first text with a few letters changed. k keeps
    sigma**k <= 4,096, so that the oracle scans every k-mer quickly.
    """
    if draw(st.booleans()):
        sigma = draw(st.sampled_from((1, 2, 4)))
        s1, s2 = draw_repetitive(draw, sigma), draw_repetitive(draw, sigma)
    else:
        sigma = draw(st.sampled_from((2, 4)))
        letters = st.integers(1, sigma)
        one = draw(st.lists(letters, min_size=1, max_size=60))
        if draw(st.booleans()):
            two = list(one)
            spots = st.tuples(st.integers(0, len(one) - 1), letters)
            for at, a in draw(st.lists(spots, max_size=3)):
                two[at] = a
        else:
            two = draw(st.lists(letters, min_size=1, max_size=60))
        s1, s2 = Sequence(one, sigma), Sequence(two, sigma)
    top = min(len(s1), len(s2)) + 2
    while sigma**top > 4096:
        top -= 1
    k = draw(st.integers(1, top))
    w = draw(st.lists(st.floats(0.05, 1.0), min_size=sigma, max_size=sigma))
    return s1, s2, k, tuple(x / sum(w) for x in w)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(d2_case())
def test_d2_matches_oracle_at_any_k(case):
    # k with several set bits, k-mers of text 2 only, and windows that
    # reach the terminator all read the q-products of the suffix rows
    s1, s2, k, q = case
    i1, i2 = build_bwt(s1), build_bwt(s2)
    same_value_or_same_error(
        lambda: d2s_distance(i1, i2, k, q), lambda: orc.oracle_d2s(s1, s2, k, q)
    )
    same_value_or_same_error(
        lambda: d2star_distance(i1, i2, k, q), lambda: orc.oracle_d2star(s1, s2, k, q)
    )


def test_maw_hand_values():
    ab = idx("abab")
    assert maw_count(ab) == 3
    assert sorted(maw_words(ab)) == [(1, 1), (2, 1, 2, 1), (2, 2)]
    assert maw_count(idx("a")) == 1
    a, b = idx("aab"), idx("abb")
    assert sorted(maw_words(a)) == [(1, 1, 1), (2, 1), (2, 2)]
    assert maw_jaccard(a, b) == pytest.approx(0.2, abs=1e-12)
    assert maw_cosine(a, b) == pytest.approx(1 / 3, abs=1e-12)


def test_maw_enumerate_intervals_resolve_to_words():
    # rebuild each word from the reported infix interval and verify absence
    rng = random.Random(88)
    for _ in range(15):
        s = rand_seq(rng, rng.randint(2, 20), rng.choice([2, 3]))
        ix = build_bwt(s)
        words = []

        def visitor(a, sp, ep, depth, b):
            assert 1 <= sp <= ep <= ix.n
            words.append((a, sp, ep, depth, b))

        total = maw_enumerate(ix, visitor)
        assert total == len(words) == maw_count(ix)
        via_words = maw_words(ix)
        assert len(via_words) == total
        for (a, sp, ep, depth, b), w in zip(words, via_words):
            assert w[0] == a and w[-1] == b and len(w) == depth + 2
            # the infix interval matches backward search, the word is absent
            if depth:
                assert ix.interval(list(w[1:-1])) == (sp, ep)
            assert ix.count(list(w)) == 0
            assert ix.count(list(w[:-1])) > 0
            assert ix.count(list(w[1:])) > 0


def test_maw_readers_agree():
    # the count, the listing and the pair folds read one record of the kids;
    # the 4e4-symbol pair 5% apart merges batches at the default cap
    rng = random.Random(89)
    pairs = []
    for _ in range(8):
        sigma = rng.choice([2, 3, 4, 20])
        pairs.append(tuple(rand_seq(rng, rng.randint(20, 400), sigma) for _ in range(2)))
    pairs.append((Sequence(fibonacci(1, 2, 610), 2), Sequence(fibonacci(2, 1, 500), 2)))
    pairs.append((Sequence(fibonacci(1, 3, 987), 4), Sequence(fibonacci(1, 2, 987), 4)))
    s1 = rand_seq(rng, 40_000, 4)
    pairs.append((s1, mutate(rng, s1, 0.05)))
    for s1, s2 in pairs:
        i1, i2 = build_bwt(s1), build_bwt(s2)
        words1, words2 = maw_words(i1), maw_words(i2)
        c1, c2 = maw_count(i1), maw_count(i2)
        assert (c1, c2) == (len(words1), len(words2))
        assert c1 and c2
        inter = len(set(words1) & set(words2))
        assert maw_jaccard(i1, i2) == inter / (c1 + c2 - inter)
        assert maw_cosine(i1, i2) == inter / math.sqrt(c1 * c2)


def test_maw_pair_degenerate():
    one = idx("a")
    other = idx("a")
    assert maw_jaccard(one, other) == 1.0
    assert maw_cosine(one, other) == 1.0
    # aaa and bbb over sigma=2 have the singleton MAW sets {aaaa} and {bbbb}
    i1 = build_bwt(seq("aaa", sigma=2))
    i2 = build_bwt(Sequence([2, 2, 2], 2, "bbb"))
    assert maw_words(i1) == [(1, 1, 1, 1)]
    assert maw_words(i2) == [(2, 2, 2, 2)]
    assert maw_jaccard(i1, i2) == 0.0
    assert maw_cosine(i1, i2) == 0.0


def test_markov_kernel_hand_value():
    a, b = idx("aab"), idx("abb")
    v = markov_kernel(a, b, ZScoreParams(g_mode="unit"))
    assert v == pytest.approx(1.75 / 4.3125, abs=1e-12)
    with pytest.raises(InputError):
        markov_kernel(a, b, ZScoreParams(g_mode="gamma"))


def test_kl_hand_values():
    assert kl_divergence_range(idx("aaaa"), 2, 2)[0] == pytest.approx(
        math.log2(0.8), abs=1e-12
    )
    # k beyond the string length contributes exactly zero
    out = kl_divergence_range(idx("ab"), 2, 5)
    assert out[1:] == [0.0, 0.0, 0.0]
    with pytest.raises(InputError):
        kl_divergence_range(idx("abab"), 1, 3)


def test_calibrations():
    assert calibrate_kmin(idx("abab"), 3) == 1
    assert calibrate_kmax(idx("abab"), 1e9, 4) == 2
    assert calibrate_kmax(idx("abab"), 1e-12, 4) == 5
    with pytest.raises(InputError):
        calibrate_kmax(idx("abab"), 0.0, 4)
    with pytest.raises(InputError):
        calibrate_kmin(idx("abab"), 0)


def test_alphabet_mismatch_rejected():
    a = idx("aab")
    c = idx("abc")
    with pytest.raises(InputError):
        kmer_kernel(a, c, 1)
    with pytest.raises(InputError):
        markov_kernel(a, c, ZScoreParams())
    with pytest.raises(InputError):
        d2s_distance(a, c, 1, (0.5, 0.5))


def test_single_string_measures_match_oracle():
    rng = random.Random(9001)
    for _ in range(60):
        sigma = rng.choice([1, 2, 3, 4, 8])
        s = rand_seq(rng, rng.randint(1, 32), sigma)
        ix = build_bwt(s)
        for k in (1, 2, 3, 5):
            assert kmer_complexity(ix, k) == orc.oracle_kmer_complexity(s, k)
        assert substring_complexity(ix) == orc.oracle_substring_complexity(s)
        assert maw_count(ix) == orc.oracle_maw_count(s)
        assert sorted(maw_words(ix)) == sorted(orc.oracle_maw_set(s))
        assert kmer_profile(ix, 1, 3, 1, 2).cells == orc.oracle_kmer_profile(
            s, 1, 3, 1, 2
        )
        hs = entropy_range(ix, 0, 4)
        for k in range(5):
            assert hs[k] == pytest.approx(orc.oracle_entropy(s, k), abs=1e-9)
        kls = kl_divergence_range(ix, 2, 5)
        for k in range(2, 6):
            assert kls[k - 2] == pytest.approx(orc.oracle_kl(s, k), abs=1e-9)
        assert calibrate_kmin(ix, 4) == orc.oracle_calibrate_kmin(s, 4)
        assert calibrate_kmax(ix, 0.25, 5) == orc.oracle_calibrate_kmax(s, 0.25, 5)


def test_pair_measures_match_oracle():
    rng = random.Random(9002)
    for _ in range(40):
        sigma = rng.choice([2, 3, 4])
        s1 = rand_seq(rng, rng.randint(2, 24), sigma)
        s2 = rand_seq(rng, rng.randint(2, 24), sigma)
        i1, i2 = build_bwt(s1), build_bwt(s2)
        for k in (1, 2, 4):
            try:
                expect = orc.oracle_kmer_kernel(s1, s2, k)
            except ZeroDenominatorError:
                with pytest.raises(ZeroDenominatorError):
                    kmer_kernel(i1, i2, k)
                continue
            assert kmer_kernel(i1, i2, k) == pytest.approx(expect, abs=1e-9)
        assert substring_kernel(i1, i2) == pytest.approx(
            orc.oracle_substring_kernel(s1, s2), abs=1e-9
        )
        scores = tuple(round(rng.uniform(0.2, 1.2), 3) for _ in range(sigma))
        for spec in (
            WeightSpec(kind="uniform"),
            WeightSpec(kind="exponential", epsilon=0.5),
            WeightSpec(kind="band", kmin=2, kmax=4),
            WeightSpec(kind="charscore", scores=scores),
        ):
            try:
                expect = orc.oracle_weighted_substring_kernel(s1, s2, spec)
            except ZeroDenominatorError:
                with pytest.raises(ZeroDenominatorError):
                    weighted_substring_kernel(i1, i2, spec)
                continue
            got = weighted_substring_kernel(i1, i2, spec)
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)
        q = tuple(1.0 / sigma for _ in range(sigma))
        for k in (1, 2):
            if i1.n > k and i2.n > k:
                assert d2s_distance(i1, i2, k, q) == pytest.approx(
                    orc.oracle_d2s(s1, s2, k, q), rel=1e-9, abs=1e-9
                )
                assert d2star_distance(i1, i2, k, q) == pytest.approx(
                    orc.oracle_d2star(s1, s2, k, q), rel=1e-9, abs=1e-9
                )
        assert maw_jaccard(i1, i2) == pytest.approx(
            orc.oracle_maw_jaccard(s1, s2), abs=1e-12
        )
        for mode in ("unit", "exact"):
            params = ZScoreParams(g_mode=mode)
            try:
                expect = orc.oracle_markov_kernel(s1, s2, params)
            except ZeroDenominatorError:
                with pytest.raises(ZeroDenominatorError):
                    markov_kernel(i1, i2, params)
                continue
            assert markov_kernel(i1, i2, params) == pytest.approx(
                expect, rel=1e-9, abs=1e-9
            )


@st.composite
def repetitive_pair(draw):
    """Two texts over one alphabet, each one symbol repeated, runs or a period."""
    sigma = draw(st.integers(1, 3))
    return draw_repetitive(draw, sigma), draw_repetitive(draw, sigma)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(repetitive_pair())
def test_telescoping_and_maw_folds_match_oracle_on_repetitive_text(pair):
    s1, s2 = pair
    i1, i2 = build_bwt(s1), build_bwt(s2)
    sweep = kmer_kernel_range(i1, i2, 1, 4)
    for k in range(1, 5):
        if k in sweep:
            expect = orc.oracle_kmer_kernel(s1, s2, k)
            assert sweep[k] == pytest.approx(expect, rel=1e-9)
        else:
            with pytest.raises(ZeroDenominatorError):
                orc.oracle_kmer_kernel(s1, s2, k)
    assert substring_kernel(i1, i2) == pytest.approx(
        orc.oracle_substring_kernel(s1, s2), rel=1e-9
    )
    for spec in (
        WeightSpec(kind="uniform"),
        WeightSpec(kind="band", kmin=2, kmax=3),
        WeightSpec(kind="exponential", epsilon=0.5),
        WeightSpec(kind="exponential", epsilon=2),
        WeightSpec(kind="charscore", scores=(0.7, 1.3, 0.9)[: s1.sigma]),
    ):
        try:
            expect = orc.oracle_weighted_substring_kernel(s1, s2, spec)
        except ZeroDenominatorError:
            with pytest.raises(ZeroDenominatorError):
                weighted_substring_kernel(i1, i2, spec)
            continue
        got = weighted_substring_kernel(i1, i2, spec)
        assert got == pytest.approx(expect, rel=1e-9)
    # Fibonacci words have deep, narrow suffix-link trees: one batch per depth
    size = len(s1) + len(s2)
    fib = (Sequence(fibonacci(1, 2, size), 2), Sequence(fibonacci(20, 3, size), 20))
    for s in (s1, s2, *fib):
        ix = build_bwt(s)
        fired = []
        count = maw_enumerate(ix, lambda *maw: fired.append(maw))
        words = maw_words(ix)
        expect = orc.oracle_maw_set(s)
        assert maw_count(ix) == len(words) == count == len(fired) == len(expect)
        assert set(words) == expect
        # both listings fire in one order, each infix interval resolving to its word
        for (a, sp, ep, depth, b), w in zip(fired, words):
            assert w == (a, *w[1:-1], b) and len(w) == depth + 2
            assert ix.interval(list(w[1:-1])) == (sp, ep)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(repetitive_pair())
def test_integer_readings_agree_on_repetitive_text(pair):
    s1, s2 = pair
    _assert_integer_readings_agree(build_bwt(s1), build_bwt(s2), (1, 2, 3, 5))


@st.composite
def uneven_pair(draw):
    """A short and a longer text over one alphabet, random or repetitive."""
    sigma = draw(st.integers(1, 4))
    letters = st.integers(1, sigma)
    short = Sequence(draw(st.lists(letters, min_size=1, max_size=12)), sigma)
    if draw(st.booleans()):
        return short, draw_repetitive(draw, sigma)
    return short, Sequence(draw(st.lists(letters, min_size=12, max_size=60)), sigma)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(uneven_pair())
def test_exponential_weights_match_oracle_at_any_epsilon(pair):
    s1, s2 = pair
    i1, i2 = build_bwt(s1), build_bwt(s2)
    for eps in (1e-5, 0.5, 1.0, 1.5, 2.0, 40.0):
        spec = WeightSpec(kind="exponential", epsilon=eps)
        got = weighted_substring_kernel(i1, i2, spec)
        assert weighted_substring_kernel(i2, i1, spec) == pytest.approx(got, rel=1e-9)
        assert 0.0 <= got <= 1.0 + 1e-12
        try:
            expect = orc.oracle_weighted_substring_kernel(s1, s2, spec)
        except ComputationError:
            continue  # the oracle's own float sums left the range; it cannot judge
        assert got == pytest.approx(expect, rel=1e-9)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(repetitive_text(), st.data())
def test_depth_bounded_entropy_and_kl_match_oracle(s, data):
    # the passes stop at depth k2 and k2 - 2; k2 may pass the text length
    ix = build_bwt(s)
    k1 = data.draw(st.integers(0, len(s) + 2))
    k2 = data.draw(st.integers(k1, len(s) + 3))
    hs = entropy_range(ix, k1, k2)
    for k in range(k1, k2 + 1):
        expect = orc.oracle_entropy(s, k)
        assert hs[k - k1] == pytest.approx(expect, rel=1e-9)
    k1, k2 = max(k1, 2), max(k2, 2)
    kls = kl_divergence_range(ix, k1, k2)
    for k in range(k1, k2 + 1):
        expect = orc.oracle_kl(s, k)
        assert kls[k - k1] == pytest.approx(expect, rel=1e-9)


def test_self_kernels_are_one():
    rng = random.Random(9003)
    for _ in range(20):
        s = rand_seq(rng, rng.randint(2, 48), rng.choice([2, 4]))
        i1, i2 = build_bwt(s), build_bwt(s)
        assert substring_kernel(i1, i2) == pytest.approx(1.0, abs=1e-12)
        if i1.n > 2:
            assert kmer_kernel(i1, i2, 2) == pytest.approx(1.0, abs=1e-12)
        spec = WeightSpec(kind="exponential", epsilon=0.5)
        assert weighted_substring_kernel(i1, i2, spec) == pytest.approx(
            1.0, abs=1e-12
        )
        assert maw_jaccard(i1, i2) == pytest.approx(1.0, abs=1e-12)


# every one-text measure's fold, with arguments for a text over 5 letters
SINGLE_FOLDS = [
    (kmer_complexity.fold, 2),
    (substring_complexity.fold,),
    (kmer_profile.fold, 1, 3, 1, 2),
    (entropy_range.fold, 0, 3),
    (maw_count.fold,),
    (maw_words.fold,),
    (maw_enumerate.fold, lambda *maw: None),
    (kl_divergence_range.fold, 2, 4),
    (calibrate_kmin.fold, 6),
    (calibrate_kmax.fold, 0.5, 6),
]
# every pair measure's fold, likewise
PAIR_FOLDS = [
    (kmer_kernel.fold, 2),
    (kmer_kernel_range.fold, 1, 4),
    (substring_kernel.fold,),
    (weighted_substring_kernel.fold, WeightSpec(kind="uniform")),
    (d2s_distance.fold, 2, (0.2,) * 5),
    (d2star_distance.fold, 2, (0.2,) * 5),
    (maw_jaccard.fold,),
    (maw_cosine.fold,),
    (markov_kernel.fold, ZScoreParams(g_mode="exact")),
]


def test_every_measure_enumerates_each_index_once():
    i1, i2 = idx("abracadabra"), idx("abracadaca", sigma=5)
    single = [
        lambda: kmer_complexity(i1, 2),
        lambda: substring_complexity(i1),
        lambda: kmer_profile(i1, 1, 3, 1, 2),
        lambda: entropy_range(i1, 0, 3),
        lambda: maw_count(i1),
        lambda: maw_words(i1),
        lambda: maw_enumerate(i1, lambda *maw: None),
        lambda: kl_divergence_range(i1, 2, 4),
        lambda: calibrate_kmin(i1, 6),
        lambda: calibrate_kmax(i1, 0.5, 6),
        # every one-text fold, fused
        lambda: run_folds(i1, SINGLE_FOLDS),
    ]
    for fn in single:
        before = i1.enumerations
        fn()
        assert i1.enumerations == before + 1
    paired = [
        lambda: kmer_kernel(i1, i2, 2),
        lambda: kmer_kernel_range(i1, i2, 1, 4),
        lambda: substring_kernel(i1, i2),
        lambda: weighted_substring_kernel(i1, i2, WeightSpec(kind="uniform")),
        lambda: d2s_distance(i1, i2, 2, (0.2,) * 5),
        lambda: d2star_distance(i1, i2, 2, (0.2,) * 5),
        lambda: maw_jaccard(i1, i2),
        lambda: maw_cosine(i1, i2),
        lambda: markov_kernel(i1, i2, ZScoreParams(g_mode="exact")),
    ]
    for fn in paired:
        b1, b2 = i1.enumerations, i2.enumerations
        fn()
        assert (i1.enumerations, i2.enumerations) == (b1 + 1, b2 + 1)


def test_every_measure_of_the_module_has_a_fold_listed_here():
    listed = {setup.__name__ for setup, *_ in SINGLE_FOLDS + PAIR_FOLDS}
    measures = {
        name
        for name in bwtk.kernels.__all__
        if callable(getattr(bwtk.kernels, name)) and not isinstance(getattr(bwtk.kernels, name), type)
    }
    assert measures - {"run_folds"} == listed
    assert all(getattr(bwtk.kernels, name).fold.__name__ == name for name in listed)


@pytest.mark.parametrize(
    "call, pair",
    [(call, False) for call in SINGLE_FOLDS] + [(call, True) for call in PAIR_FOLDS],
    ids=lambda x: x[0].__name__ if isinstance(x, tuple) else None,
)
def test_a_fold_given_the_other_index_kind_raises_input_error(call, pair):
    # a one-text fold given a PairIndex, and a pair fold given a BwtIndex,
    # directly and through run_folds
    i1, i2 = idx("abracadabra"), idx("abracadaca", sigma=5)
    setup, *args = call
    both = PairIndex.of(i1, i2)
    wrong = i1 if pair else both
    with pytest.raises(InputError, match="takes"):
        setup(wrong, *args)
    with pytest.raises(InputError, match="takes"):
        run_folds(wrong, [call])
    # and through the measure: a one-text measure given the PairIndex, and a
    # pair measure given it for either of its two indexes
    measure = getattr(bwtk.kernels, setup.__name__)
    for indexes in [(i1, both), (both, i1)] if pair else [(both,)]:
        with pytest.raises(InputError):
            measure(*indexes, *args)
    # no pass starts, over either index or their pair
    assert (i1.enumerations, i2.enumerations) == (0, 0)


def test_run_folds_visits_each_fold_to_its_own_depth():
    # a fold bounded at depth 2 sees no deeper batch, though the pass that an
    # unbounded fold fused with it makes goes deeper
    index = BwtIndex(fibonacci(1, 2, 200), 2)
    seen = {2: [], None: []}

    def probe(ix, depth):
        return Fold(lambda batch: seen[depth].append(batch.depth), lambda: None, depth)

    run_folds(index, [(probe, 2), (probe, None)])
    assert max(seen[2]) == 2 < max(seen[None])
    assert sorted(seen[2]) == sorted(d for d in seen[None] if d <= 2)


# what one argument of a call is swapped for; the valid value as a NumPy
# number is drawn too
SWAPS = (2.5, 2.0, True, None, "3", np.float64(2.0), 2**70)
# each measure's valid arguments past its indexes, for texts over 5 letters,
# and what each one is: an integer, a real, a tuple of reals, a parameter
# object or a callback, which is not swapped
MEASURE_ARGS = [
    ("kmer_complexity", (2,), ("int",)),
    ("substring_complexity", (), ()),
    ("maw_count", (), ()),
    ("maw_words", (), ()),
    ("maw_enumerate", (lambda *maw: None,), ("callback",)),
    ("kmer_profile", (1, 3, 1, 2), ("int",) * 4),
    ("entropy_range", (0, 3), ("int", "int")),
    ("kl_divergence_range", (2, 4), ("int", "int")),
    ("calibrate_kmin", (6,), ("int",)),
    ("calibrate_kmax", (0.5, 6), ("real", "int")),
    ("kmer_kernel", (2,), ("int",)),
    ("kmer_kernel_range", (1, 4), ("int", "int")),
    ("weighted_substring_kernel", (WeightSpec("exponential", epsilon=0.5),), ("object",)),
    ("weighted_substring_kernel", (WeightSpec("band", kmin=1, kmax=3),), ("object",)),
    ("weighted_substring_kernel", (WeightSpec("charscore", scores=(0.5, 1, 2, 1.5, 1)),), ("object",)),
    ("d2s_distance", (2, (0.2,) * 5), ("int", "reals")),
    ("d2star_distance", (2, (0.2,) * 5), ("int", "reals")),
    ("markov_kernel", (ZScoreParams("exact"),), ("object",)),
    ("substring_kernel", (), ()),
    ("maw_jaccard", (), ()),
    ("maw_cosine", (), ()),
]
# the numbers of a WeightSpec of each kind, and what each one is
SPEC_FIELDS = {
    "exponential": {"epsilon": "real"},
    "band": {"kmin": "int", "kmax": "int"},
    "charscore": {"scores": "reals"},
}
# the index entry points, each reading "abracadabra" or [1, 2, 0, 2]; a word,
# a representation's chars and its boundaries are swapped whole or one entry
# at a time, and a representation or a pair of them whole or one field at a time
_TEXT, _OTHER = idx("abracadabra"), idx("abracadaca", sigma=5)
_CODES = RankIndex([1, 2, 0, 2], 3, 1)
_PROFILE = kmer_profile(_TEXT, 1, 3, 1, 2)
ENTRY_ARGS = [
    ("BwtIndex", lambda sigma: BwtIndex([1, 2, 1, 3], sigma).bwt, (3,), ("int",)),
    ("PairIndex", lambda sigma: PairIndex([1, 2], [2, 3, 1], sigma).bwt, (3,), ("int",)),
    ("BwtIndex.rank", _TEXT.rank, (2, 7), ("int", "int")),
    ("BwtIndex.access", _TEXT.access, (4,), ("int",)),
    ("BwtIndex.interval", lambda *word: _TEXT.interval(word), (1, 2), ("int", "int")),
    ("BwtIndex.count", lambda *word: _TEXT.count(word), (1, 2, 1), ("int",) * 3),
    ("RankIndex", lambda *bounds: RankIndex([1, 2, 0, 2], *bounds).decode().tolist(), (3, 1), ("int", "int")),
    ("RankIndex.rank", _CODES.rank, (2, 3), ("int", "int")),
    ("RankIndex.access", _CODES.access, (2,), ("int",)),
    ("RankIndex.range_distinct", _CODES.range_distinct, (1, 3), ("int", "int")),
    ("ProfileMatrix.cell", _PROFILE.cell, (2, 1), ("int", "int")),
    (
        "extend_left",
        lambda chars, first: [(a, r.chars, r.first) for a, r in extend_left(_TEXT, Repr(chars, first))],
        ((0, 1, 2, 3, 4, 5), (1, 2, 7, 9, 10, 11, 13)),
        ("ints", "ints"),
    ),
    ("extend_left", lambda r: len(extend_left(_TEXT, r)), (Repr((1, 2), (2, 4, 6)),), ("object",)),
    ("BwtIndex.interval", lambda word: _TEXT.interval(word), ((1, 2),), ("ints",)),
    ("BwtIndex.count", lambda word: _TEXT.count(word), ((1, 2, 1),), ("ints",)),
    (
        "extend_left_generalized",
        lambda g: [(a, k.one.first, k.two.first) for a, k in extend_left_generalized(_TEXT, _OTHER, g)],
        (GenRepr(Repr((1, 2), (2, 4, 6)), Repr((1, 2), (2, 4, 6))),),
        ("object",),
    ),
]


def _swapped(data, value, kind):
    """(value with it or one of its parts swapped, malformed?, the valid value as a NumPy number?)."""
    if kind in ("reals", "ints") and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(value) - 1))
        part, malformed, same = _swapped(data, value[at], kind[:-1])
        return value[:at] + (part, *value[at + 1 :]), malformed, same
    if kind == "object" and isinstance(value, (Repr, GenRepr)) and data.draw(st.booleans()):
        fields = type(value).__slots__
        field = data.draw(st.sampled_from(fields))
        part, malformed, same = _swapped(data, getattr(value, field), "ints" if isinstance(value, Repr) else "object")
        return type(value)(*(part if f == field else getattr(value, f) for f in fields)), malformed, same
    if kind == "object" and isinstance(value, WeightSpec) and data.draw(st.booleans()):
        fields = SPEC_FIELDS[value.kind]
        field = data.draw(st.sampled_from(sorted(fields)))
        part, malformed, same = _swapped(data, getattr(value, field), fields[field])
        return dataclasses.replace(value, **{field: part}), malformed, same
    numpy = np.int64(value) if kind == "int" else np.float64(value) if kind == "real" else None
    swap = data.draw(st.sampled_from(SWAPS + ((numpy,) if numpy is not None else ())))
    if numpy is not None and swap is numpy:
        return swap, False, True
    # a real argument may be any int or float; the other kinds take neither
    number = isinstance(swap, (int, float)) and not isinstance(swap, bool)
    malformed = kind not in ("int", "real") or not number or kind == "int" and not isinstance(swap, int)
    return swap, malformed, False


def _kept(compute):
    """compute()'s value, or the class of the BwtkError it raises; a range of k as its repr.

    A PerK or a ProfileMatrix over a range far past the text holds only
    the values a pass reached, and its repr reads no more.
    """
    try:
        value = compute()
    except BwtkError as exc:
        return type(exc)
    return repr(value) if isinstance(value, (PerK, ProfileMatrix)) else _hexed(value)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_an_entry_point_given_a_malformed_argument_raises_input_error_alone_and_fused(data):
    # one argument of a valid call swapped, an index of a measure included: a
    # malformed one raises InputError, the others give a value or a
    # BwtkError, and the valid value as a NumPy number gives the valid call's
    # outcome; a measure fused with every other fold of its index kind gives
    # its outcome alone
    name, *call, valid, kinds = data.draw(st.sampled_from(MEASURE_ARGS + ENTRY_ARGS))
    run = call[0] if call else getattr(bwtk.kernels, name)
    pair = any(setup is getattr(run, "fold", None) for setup, *_ in PAIR_FOLDS)
    indexes = () if call else (_TEXT, _OTHER) if pair else (_TEXT,)
    valid, kinds = indexes + valid, ("index",) * len(indexes) + kinds
    at = data.draw(st.sampled_from([i for i, kind in enumerate(kinds) if kind != "callback"]))
    swap, malformed, same = _swapped(data, valid[at], kinds[at])
    args = valid[:at] + (swap, *valid[at + 1 :])
    outcome = _kept(lambda: run(*args))
    if malformed:
        assert outcome is InputError
    if same:
        assert outcome == _kept(lambda: run(*valid))
    if indexes and at >= len(indexes):
        calls = [(_caught(setup), *rest) for setup, *rest in (PAIR_FOLDS if pair else SINGLE_FOLDS)]
        place = data.draw(st.integers(0, len(calls)))
        calls.insert(place, (_caught(run.fold, _kept), *args[len(indexes) :]))
        assert run_folds(PairIndex.of(*indexes) if pair else _TEXT, calls)[place] == outcome


def test_kernel_values_are_bounded():
    rng = random.Random(9004)
    for _ in range(25):
        sigma = rng.choice([2, 3])
        s1 = rand_seq(rng, rng.randint(3, 30), sigma)
        s2 = rand_seq(rng, rng.randint(3, 30), sigma)
        i1, i2 = build_bwt(s1), build_bwt(s2)
        assert 0.0 <= substring_kernel(i1, i2) <= 1.0 + 1e-12
        assert 0.0 <= kmer_kernel(i1, i2, 2) <= 1.0 + 1e-12
        assert 0.0 <= maw_jaccard(i1, i2) <= 1.0
        v = markov_kernel(i1, i2, ZScoreParams(g_mode="unit"))
        assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def _coded_pair(rng: random.Random, n: int, codes: tuple[int, ...]):
    """A random pair over codes, and the same pair relabelled 1, 2, ..."""
    texts = [[rng.choice(codes) for _ in range(n)] for _ in range(2)]
    label = {c: i + 1 for i, c in enumerate(sorted(codes))}
    relabelled = [Sequence([label[c] for c in t], len(codes)) for t in texts]
    return [Sequence(t, max(codes)) for t in texts], relabelled


def _coded_pair_values(i1, i2) -> list:
    return [
        kmer_kernel(i1, i2, 3),
        kmer_kernel_range(i1, i2, 1, 6),
        substring_kernel(i1, i2),
        weighted_substring_kernel(i1, i2, WeightSpec("exponential", epsilon=0.5)),
        weighted_substring_kernel(i1, i2, WeightSpec("band", kmin=2, kmax=5)),
        maw_jaccard(i1, i2),
        maw_cosine(i1, i2),
        markov_kernel(i1, i2, ZScoreParams("unit")),
        markov_kernel(i1, i2, ZScoreParams("exact")),
    ]


def test_large_pair_codes_match_the_relabelled_pair_or_raise():
    # codes far apart give the relabelled pair's values and visits, as below.
    # Only a code that the pair index's shift past $ takes to 2**63 raises,
    # though each text alone is fine. d2s, d2star and charscore weights take
    # one parameter per symbol of [1..sigma], so they cannot be called at
    # these codes at all
    for n, codes in ((3000, (1, 2, 2**56)), (40, (1, 2**62))):
        coded, relabelled = _coded_pair(random.Random(7), n, codes)
        want = _coded_pair_values(*map(build_bwt, relabelled))
        i1, i2 = map(build_bwt, coded)
        assert _coded_pair_values(i1, i2) == want
        visits = [
            enumerate_generalized(*map(build_bwt, texts), lambda ev: None)
            for texts in (coded, relabelled)
        ]
        assert visits[0] == visits[1]
    coded, _ = _coded_pair(random.Random(7), 40, (1, 2**63 - 1))
    i1, i2 = map(build_bwt, coded)
    calls = (
        lambda: kmer_kernel(i1, i2, 3),
        lambda: maw_jaccard(i1, i2),
        lambda: markov_kernel(i1, i2, ZScoreParams("exact")),
        lambda: enumerate_generalized(i1, i2, lambda ev: None),
    )
    for fn in calls:
        with pytest.raises(InputError, match="sigma of a pair"):
            fn()
    assert maw_count(i1) > 0


@pytest.mark.parametrize(
    "n, codes",
    [(3000, (1, 2, 2**48)), (40, (1, 2, 2**40)), (40, (3, 2**20, 2**40 - 1))],
)
def test_pair_codes_within_the_key_bound_match_the_relabelled_pair(n, codes):
    coded, relabelled = _coded_pair(random.Random(7), n, codes)
    want = _coded_pair_values(*map(build_bwt, relabelled))
    assert _coded_pair_values(*map(build_bwt, coded)) == want
    if n <= 40:
        s1, s2 = relabelled
        assert _agree(want[0], orc.oracle_kmer_kernel(s1, s2, 3))
        assert _agree(want[2], orc.oracle_substring_kernel(s1, s2))
        assert _agree(want[5], orc.oracle_maw_jaccard(s1, s2))
        assert _agree(want[8], orc.oracle_markov_kernel(s1, s2, ZScoreParams("exact")))


def _agree(got, want) -> bool:
    """Equal integers and containers, floats within 1e-9 relative."""
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9)
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_agree(got[k], want[k]) for k in want)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(_agree, got, want))
    return type(got) is type(want) and got == want


def test_merged_batches_give_the_unsplit_values(monkeypatch):
    # a 4e4-symbol pair 5% apart, and its first text alone, split their wide
    # depths at the default cap, and the thin descents below the pieces are
    # merged again
    rng = random.Random(76)
    s1 = rand_seq(rng, 40_000, 4)
    i1, i2 = build_bwt(s1), build_bwt(mutate(rng, s1, 0.05))
    assert merged_batches((i1, i2), _CAP) > 0
    assert merged_batches((i1,), _CAP) > 0
    q = (0.1, 0.2, 0.3, 0.4)
    pair = [
        (kmer_kernel.fold, 8),
        (kmer_kernel_range.fold, 2, 12),
        (substring_kernel.fold,),
        (weighted_substring_kernel.fold, WeightSpec(kind="uniform")),
        (weighted_substring_kernel.fold, WeightSpec(kind="exponential", epsilon=0.5)),
        (weighted_substring_kernel.fold, WeightSpec(kind="band", kmin=3, kmax=9)),
        (weighted_substring_kernel.fold, WeightSpec(kind="charscore", scores=(0.5, 1.5, 0.9, 2.0))),
        (d2s_distance.fold, 8, q),
        (d2star_distance.fold, 8, q),
        (markov_kernel.fold, ZScoreParams(g_mode="unit")),
        (markov_kernel.fold, ZScoreParams(g_mode="exact")),
        (maw_jaccard.fold,),
        (maw_cosine.fold,),
    ]

    def values():
        found = []
        maw_enumerate(i1, lambda *maw: found.append(maw))
        return (
            run_folds(PairIndex.of(i1, i2), pair),
            kmer_complexity(i1, 12),
            substring_complexity(i1),
            kmer_profile(i1, 1, 12, 1, 4).cells,
            entropy_range(i1, 0, 8),
            maw_count(i1),
            kl_divergence_range(i1, 2, 8),
            # the listings keep a pass order; merging may change it, not the words
            Counter(maw_words(i1)),
            Counter(found),
        )

    def split(found):
        # d2s, d2star, both markov modes, the entropies and the KL values sum
        # their floats exactly, so no grouping moves even their last digit
        pairs, kmers, substrings, profile, entropy, maws, kl, *listings = found
        exact = [v.hex() for v in (*pairs[7:11], *entropy, *kl)]
        return exact, (pairs[:7] + pairs[11:], kmers, substrings, profile, maws, *listings)

    merged = split(values())
    monkeypatch.setattr(bwtk.kernels, "batched_pass", functools.partial(batched_pass, _cap=None))
    unsplit = split(values())
    assert merged[0] == unsplit[0]
    assert _agree(merged[1], unsplit[1])


def _hexed(value):
    """value with each float as float.hex, in lists too; a ProfileMatrix as its cells."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, ProfileMatrix):
        return value.cells
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def _unhexed(value):
    """_hexed's value with each float.hex string read back."""
    if isinstance(value, str):
        return float.fromhex(value)
    if isinstance(value, list):
        return [_unhexed(v) for v in value]
    return value


def _outcome(compute):
    """compute()'s value, _hexed, or the class of the BwtkError it raises."""
    try:
        return _hexed(compute())
    except BwtkError as exc:
        return type(exc)


def _caught(setup, read=_outcome):
    """setup, with its own error and its fold's finish() read as an _outcome, or by read."""

    def caught(pair, *args):
        try:
            fold = setup(pair, *args)
        except BwtkError as exc:
            return Fold(lambda batch: None, functools.partial(type, exc))
        return fold._replace(finish=lambda: read(fold.finish))

    return caught


@st.composite
def cli_pair(draw):
    """Two texts of 1..60 symbols over 1..5 letters: random, equal, one-letter or disjoint."""
    sigma = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "equal", "one-letter", "disjoint"]))
    letters = [range(1, sigma + 1)] * 2
    if kind == "one-letter":
        letters = [[draw(st.integers(1, sigma))] for _ in range(2)]
    elif kind == "disjoint" and sigma > 1:
        cut = draw(st.integers(1, sigma - 1))
        letters = [range(1, cut + 1), range(cut + 1, sigma + 1)]
    texts = [draw(st.lists(st.sampled_from(list(a)), min_size=1, max_size=60)) for a in letters]
    if kind == "equal":
        texts[1] = texts[0]
    return [Sequence(t, sigma) for t in texts], draw(st.integers(1, 4))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(cli_pair())
def test_each_cli_fold_fused_gives_its_value_alone_and_the_oracles(case):
    # the six folds of the CLI's kernel command: fused in one pass, each
    # gives bit for bit its value alone, and that is the oracle's value or
    # the oracle's error
    (s1, s2), k = case
    sigma = s1.sigma
    q = tuple(1.0 / sigma for _ in range(sigma))
    exponential = WeightSpec(kind="exponential")
    folds = [
        (kmer_kernel.fold, (k,), lambda: orc.oracle_kmer_kernel(s1, s2, k)),
        (substring_kernel.fold, (), lambda: orc.oracle_substring_kernel(s1, s2)),
        (
            weighted_substring_kernel.fold,
            (exponential,),
            lambda: orc.oracle_weighted_substring_kernel(s1, s2, exponential),
        ),
        (d2star_distance.fold, (k, q), lambda: orc.oracle_d2star(s1, s2, k, q)),
        (
            markov_kernel.fold,
            (ZScoreParams(g_mode="unit"),),
            lambda: orc.oracle_markov_kernel(s1, s2, ZScoreParams(g_mode="unit")),
        ),
        (maw_jaccard.fold, (), lambda: orc.oracle_maw_jaccard(s1, s2)),
    ]
    pair = PairIndex(s1.symbols, s2.symbols, sigma)
    calls = [(_caught(setup), *args) for setup, args, _ in folds]
    fused = run_folds(pair, calls)
    for call, got, (*_, oracle) in zip(calls, fused, folds):
        assert run_folds(pair, [call]) == [got]
        try:
            want = oracle()
        except BwtkError as exc:
            assert got is type(exc)
            continue
        assert isinstance(got, str)
        assert float.fromhex(got) == pytest.approx(want, rel=1e-9, abs=1e-9)


@st.composite
def single_case(draw):
    """A random or repetitive text of 1..60 symbols over 1..5 letters, and measure arguments.

    The arguments are k of kmer_complexity, the profile's k1, k2, f1 and
    f2, the entropies' and the KL values' k1 and k2, the kcap of each
    calibration, and tau; k = 0, a KL k1 of 1 and a kcap below 1 or 2 are
    errors.
    """
    sigma = draw(st.integers(1, 5))
    if draw(st.booleans()):
        s = Sequence(draw(st.lists(st.integers(1, sigma), min_size=1, max_size=60)), sigma)
    else:
        s = draw_repetitive(draw, sigma)
    k1, f1, e1, l1 = (draw(st.integers(lo, 4)) for lo in (1, 1, 0, 1))
    k2, f2, e2, l2 = (lo + draw(st.integers(0, 3)) for lo in (k1, f1, e1, l1))
    k, kmin_cap, kmax_cap = (draw(st.integers(lo, 8)) for lo in (0, 0, 1))
    tau = draw(st.sampled_from((0.05, 0.5, 2.0)))
    return s, (k, (k1, k2, f1, f2), (e1, e2), (l1, l2), kmin_cap, kmax_cap), tau


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(single_case())
def test_each_single_text_fold_fused_gives_its_value_alone_and_the_oracles(case):
    # the one-text folds fused in one pass, the depth-bounded ones (the
    # entropies, the KL values and calibrate_kmax) among unbounded ones:
    # each gives bit for bit its value alone, and that is the oracle's value
    # or the oracle's error
    s, (k, profile, (e1, e2), (l1, l2), kmin_cap, kmax_cap), tau = case
    folds = [
        (kmer_complexity.fold, (k,), lambda: orc.oracle_kmer_complexity(s, k)),
        (substring_complexity.fold, (), lambda: orc.oracle_substring_complexity(s)),
        (kmer_profile.fold, profile, lambda: orc.oracle_kmer_profile(s, *profile)),
        (entropy_range.fold, (e1, e2), lambda: [orc.oracle_entropy(s, j) for j in range(e1, e2 + 1)]),
        (maw_count.fold, (), lambda: orc.oracle_maw_count(s)),
        (kl_divergence_range.fold, (l1, l2), lambda: [orc.oracle_kl(s, j) for j in range(l1, l2 + 1)]),
        (calibrate_kmin.fold, (kmin_cap,), lambda: orc.oracle_calibrate_kmin(s, kmin_cap)),
        (calibrate_kmax.fold, (tau, kmax_cap), lambda: orc.oracle_calibrate_kmax(s, tau, kmax_cap)),
    ]
    index = build_bwt(s)
    calls = [(_caught(setup), *args) for setup, args, _ in folds]
    fused = run_folds(index, calls)
    for call, got, (*_, oracle) in zip(calls, fused, folds):
        assert run_folds(index, [call]) == [got]
        try:
            want = oracle()
        except BwtkError as exc:
            assert got is type(exc)
            continue
        if isinstance(want, list) and isinstance(want[0], float):
            assert _unhexed(got) == pytest.approx(want, rel=1e-9, abs=1e-9)
        else:
            assert got == want


def test_charscore_scores_above_one_do_not_overflow():
    # the squared weights of long prefixes pass 1e308 at scores of 10
    rng = random.Random(76)
    s = rand_seq(rng, 3000, 4)
    spec = WeightSpec(kind="charscore", scores=(10.0,) * 4)
    got = weighted_substring_kernel(build_bwt(s), build_bwt(s), spec)
    assert got == pytest.approx(1.0, abs=1e-9)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_charscore_matches_oracle_for_scores_up_to_ten(data):
    sigma = data.draw(st.sampled_from((1, 2, 3, 4)))
    s1, s2 = (
        Sequence(data.draw(st.lists(st.integers(1, sigma), min_size=1, max_size=30)), sigma)
        for _ in range(2)
    )
    scores = tuple(data.draw(st.floats(0.1, 10.0)) for _ in range(sigma))
    spec = WeightSpec(kind="charscore", scores=scores)
    got = weighted_substring_kernel(build_bwt(s1), build_bwt(s2), spec)
    assert got == pytest.approx(orc.oracle_weighted_substring_kernel(s1, s2, spec), rel=1e-9)


def _near_pair(seed: int) -> tuple[Sequence, Sequence]:
    """A 2,000-symbol pair 0.1% apart: a descent about a thousand depths deep."""
    rng = random.Random(seed)
    s = rand_seq(rng, 2000, 4)
    return s, mutate(rng, s, 0.001)


@st.composite
def deep_pair(draw):
    """Prefixes of one Fibonacci word, or a repetitive pair."""
    if draw(st.booleans()):
        a, b = draw(st.permutations((1, 2)))
        return tuple(Sequence(fibonacci(a, b, draw(st.integers(1, 150))), 2) for _ in range(2))
    return draw(repetitive_pair())


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(deep_pair())
@example(_near_pair(11))
def test_carried_weights_and_labels_do_not_depend_on_the_cap(pair):
    # the charscore prefix weights ride on Batch.carry and labels are read
    # along psi; neither may depend on how nodes are split and merged
    s1, s2 = pair
    i1, i2 = build_bwt(s1), build_bwt(s2)
    spec = WeightSpec(kind="charscore", scores=(0.5, 1.5, 0.9, 2.0)[: s1.sigma])

    def readings():
        events = Counter()
        enumerate_generalized(i1, i2, lambda ev: events.update([(ev.depth, ev.label())]))
        return weighted_substring_kernel(i1, i2, spec).hex(), Counter(maw_words(i1)), events

    got = []
    for cap in (1, 2, 7, 16, None):
        with pytest.MonkeyPatch.context() as mp:
            for module in (bwtk.kernels, bwtk.enumerate):
                mp.setattr(module, "batched_pass", functools.partial(batched_pass, _cap=cap))
            got.append(readings())
    assert all(g == got[-1] for g in got)
    if len(s1) + len(s2) <= 300:
        want = orc.oracle_weighted_substring_kernel(s1, s2, spec)
        assert float.fromhex(got[-1][0]) == pytest.approx(want, rel=1e-9)


def test_huge_declared_sigma_costs_only_the_symbols_that_occur(tmp_path):
    # 26 bytes: magic, n = 2, sigma = 2**18 - 1, and the 18-bit codes of s, #
    sigma = 2**18 - 1
    path = tmp_path / "wide.bwtk"
    path.write_bytes(b"BWTK1" + struct.pack("<QQ", 2, sigma) + sigma.to_bytes(5, "little"))
    assert path.stat().st_size == 26
    start = time.perf_counter()
    ix = BwtIndex.load(str(path))
    assert ix.text == [sigma]
    assert kmer_complexity(ix, 1) == 1
    assert substring_complexity(ix) == 1
    assert kmer_profile(ix, 1, 2, 1, 2).cells == [[1, 0], [0, 0]]
    assert entropy_range(ix, 0, 2) == [0.0, 0.0, 0.0]
    assert maw_count(ix) == 1
    assert maw_words(ix) == [(sigma, sigma)]
    assert maw_enumerate(ix, lambda *maw: None) == 1
    assert kl_divergence_range(ix, 2, 3) == [0.0, 0.0]
    assert calibrate_kmin(ix, 3) == 1
    assert calibrate_kmax(ix, 0.5, 3) == 2
    assert time.perf_counter() - start < 1.0


def test_pair_sums_do_not_wrap_at_int32():
    # the root's frequencies are about 7e4 in each text, so f1 @ f1 is past
    # 2**31; the ranks behind the widths must be int64, not the wavelet
    # nodes' int32 counts
    rng = np.random.default_rng(16)
    one, two = (rng.integers(1, 5, size=70_000) for _ in range(2))
    pair = PairIndex(one, two, 4)
    checked = 0

    def visit(batch):
        nonlocal checked
        if batch.depth > 1:
            return
        (f1, f2), (w1, w2) = (a.tolist() for a in batch.side.texts())

        def dot(x, y):
            return sum(a * b for a, b in zip(x, y))

        want = (dot(f1, f2) - dot(w1, w2), dot(f1, f1) - dot(w1, w1), dot(f2, f2) - dot(w2, w2))
        assert _pair_sums(batch) == want
        checked += 1

    batched_pass(pair, visit, max_depth=1)
    assert checked >= 2
