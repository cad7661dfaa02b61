"""End-to-end acceptance checks.

Seven independent checks cover oracle equivalence (integer and real
measures), hand-derived micro-cases, structural invariants, single-pass
discipline, scaling, and BWT inversion.  Each prints one PASS/FAIL line;
run with `pytest tests/test_acceptance.py -v -s` to see them all.
"""

import functools
import math
import random
import time

import pytest
from conftest import same_value_or_same_error

import bwtk.oracle as orc
from bwtk.enumerate import enumerate_generalized, enumerate_right_maximal
from bwtk.errors import ZeroDenominatorError
from bwtk.kernels import (
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
from bwtk.params import WeightSpec, ZScoreParams
from bwtk.suffix import BwtIndex, PairIndex, build_bwt
from bwtk.text import Sequence

SIGMAS = (2, 3, 4, 8)


def reported(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[{num}/7] {name}: FAIL", flush=True)
                raise
            print(f"[{num}/7] {name}: PASS ({detail})", flush=True)

        return run

    return wrap


def rand_pair(rng):
    sigma = rng.choice(SIGMAS)
    mk = lambda: Sequence(
        [rng.randint(1, sigma) for _ in range(rng.randint(2, 64))], sigma
    )
    return mk(), mk()


@reported(1, "integer measures vs oracle")
def test_integer_measures_match_oracle():
    rng = random.Random(20101)
    start = time.perf_counter()
    for _ in range(200):
        sigma = rng.choice(SIGMAS)
        s = Sequence(
            [rng.randint(1, sigma) for _ in range(rng.randint(2, 64))], sigma
        )
        ix = build_bwt(s)
        for k in range(1, 9):
            assert kmer_complexity(ix, k) == orc.oracle_kmer_complexity(s, k)
        assert substring_complexity(ix) == orc.oracle_substring_complexity(s)
        assert maw_count(ix) == orc.oracle_maw_count(s)
        assert set(maw_words(ix)) == orc.oracle_maw_set(s)
        assert kmer_profile(ix, 1, 6, 1, 3).cells == orc.oracle_kmer_profile(
            s, 1, 6, 1, 3
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return f"200 strings, k in 1..8, {elapsed:.1f} s"


@reported(2, "real measures vs oracle, 1e-9 relative")
def test_real_measures_match_oracle():
    rng = random.Random(20202)
    for _ in range(100):
        s1, s2 = rand_pair(rng)
        sigma = s1.sigma
        i1, i2 = build_bwt(s1), build_bwt(s2)
        m1, m2 = len(s1.symbols), len(s2.symbols)

        sweep = kmer_kernel_range(i1, i2, 1, 8)
        for k in range(1, 9):
            if min(m1, m2) >= k:
                assert sweep[k] == pytest.approx(
                    orc.oracle_kmer_kernel(s1, s2, k), rel=1e-9, abs=1e-9
                )
                assert kmer_kernel(i1, i2, k) == pytest.approx(
                    sweep[k], abs=1e-12
                )
            else:
                assert k not in sweep
                with pytest.raises(ZeroDenominatorError):
                    kmer_kernel(i1, i2, k)

        assert substring_kernel(i1, i2) == pytest.approx(
            orc.oracle_substring_kernel(s1, s2), rel=1e-9, abs=1e-9
        )

        scores = tuple(round(rng.uniform(0.2, 1.4), 3) for _ in range(sigma))
        for spec in (
            WeightSpec(kind="uniform"),
            WeightSpec(kind="exponential", epsilon=0.5),
            WeightSpec(kind="band", kmin=2, kmax=4),
            WeightSpec(kind="charscore", scores=scores),
        ):
            same_value_or_same_error(
                lambda: weighted_substring_kernel(i1, i2, spec),
                lambda: orc.oracle_weighted_substring_kernel(s1, s2, spec),
            )

        q = (1.0 / sigma,) * sigma
        for k in (1, 2):
            same_value_or_same_error(
                lambda: d2s_distance(i1, i2, k, q),
                lambda: orc.oracle_d2s(s1, s2, k, q),
            )
            same_value_or_same_error(
                lambda: d2star_distance(i1, i2, k, q),
                lambda: orc.oracle_d2star(s1, s2, k, q),
            )

        assert maw_jaccard(i1, i2) == pytest.approx(
            orc.oracle_maw_jaccard(s1, s2), rel=1e-9, abs=1e-9
        )
        assert maw_cosine(i1, i2) == pytest.approx(
            orc.oracle_maw_cosine(s1, s2), rel=1e-9, abs=1e-9
        )

        for mode in ("unit", "exact"):
            params = ZScoreParams(g_mode=mode)
            same_value_or_same_error(
                lambda: markov_kernel(i1, i2, params),
                lambda: orc.oracle_markov_kernel(s1, s2, params),
            )

        hs1 = entropy_range(i1, 0, 5)
        for k in range(6):
            assert hs1[k] == pytest.approx(
                orc.oracle_entropy(s1, k), rel=1e-9, abs=1e-9
            )
        kls2 = kl_divergence_range(i2, 2, 6)
        for k in range(2, 7):
            assert kls2[k - 2] == pytest.approx(
                orc.oracle_kl(s2, k), rel=1e-9, abs=1e-9
            )
    return "100 pairs, all real-valued measures"


@reported(3, "hand-derived micro-cases")
def test_micro_cases():
    abab = build_bwt(Sequence([1, 2, 1, 2], 2))
    assert kmer_complexity(abab, 1) == 2
    assert kmer_complexity(abab, 2) == 2
    assert substring_complexity(abab) == 7
    # exhaustive check finds three: aa, bb, and the length-4 word baba
    assert maw_count(abab) == 3
    assert kmer_profile(abab, 1, 2, 1, 2).cells == [[0, 2], [1, 1]]

    aab = build_bwt(Sequence([1, 1, 2], 2))
    abb = build_bwt(Sequence([1, 2, 2], 2))
    assert kmer_kernel(aab, abb, 1) == pytest.approx(0.8, abs=1e-12)
    assert maw_jaccard(aab, abb) == pytest.approx(0.2, abs=1e-12)
    assert maw_cosine(aab, abb) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert entropy_range(aab, 0, 0)[0] == pytest.approx(0.918296, abs=1e-6)
    return "abab / aab / abb values hold"


@reported(4, "structural invariants")
def test_structural_invariants():
    rng = random.Random(20404)
    for _ in range(50):
        sigma = rng.choice(SIGMAS)
        s = Sequence(
            [rng.randint(1, sigma) for _ in range(rng.randint(2, 64))], sigma
        )
        ix = build_bwt(s)
        m = len(s.symbols)

        stats = {}
        enumerate_right_maximal(ix, lambda ev: None, stats=stats)
        assert stats["visits"] <= m  # = (n - 1 internal nodes) + root

        j1, j2 = build_bwt(s), build_bwt(s)
        assert substring_kernel(j1, j2) == pytest.approx(1.0, abs=1e-12)
        if m >= 2:
            assert kmer_kernel(j1, j2, 2) == pytest.approx(1.0, abs=1e-12)
        spec = WeightSpec(kind="exponential", epsilon=0.5)
        assert weighted_substring_kernel(j1, j2, spec) == pytest.approx(
            1.0, abs=1e-12
        )
        assert maw_jaccard(j1, j2) == pytest.approx(1.0, abs=1e-12)
        assert maw_cosine(j1, j2) == pytest.approx(1.0, abs=1e-12)
        assert markov_kernel(j1, j2, ZScoreParams()) == pytest.approx(
            1.0, abs=1e-12
        )

        for h in entropy_range(ix, 0, 5):
            assert -1e-12 <= h <= math.log2(sigma) + 1e-12

    for _ in range(50):
        s1, s2 = rand_pair(rng)
        i1, i2 = build_bwt(s1), build_bwt(s2)
        kk = kmer_kernel_range(i1, i2, 1, 4)
        for k, value in kk.items():
            assert -1e-12 <= value <= 1.0 + 1e-12
            band = weighted_substring_kernel(
                i1, i2, WeightSpec(kind="band", kmin=k, kmax=k)
            )
            assert band == pytest.approx(value, abs=1e-12)
        assert 0.0 <= maw_jaccard(i1, i2) <= 1.0
        assert 0.0 <= maw_cosine(i1, i2) <= 1.0
        assert 0.0 <= substring_kernel(i1, i2) <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= markov_kernel(i1, i2, ZScoreParams()) <= 1.0 + 1e-12
    return "visits, self-kernels, ranges, band == kmer"


@reported(5, "single-pass and stack discipline")
def test_single_pass_discipline():
    rng = random.Random(20505)
    s1, s2 = rand_pair(rng)
    i1, i2 = build_bwt(s1), build_bwt(s2)
    q = (1.0 / s1.sigma,) * s1.sigma
    single = [
        lambda: kmer_complexity(i1, 2),
        lambda: substring_complexity(i1),
        lambda: kmer_profile(i1, 1, 3, 1, 2),
        lambda: entropy_range(i1, 0, 3),
        lambda: maw_count(i1),
        lambda: maw_words(i1),
        lambda: maw_enumerate(i1, lambda *maw: None),
        lambda: kl_divergence_range(i1, 2, 4),
    ]
    for fn in single:
        before = i1.enumerations
        fn()
        assert i1.enumerations == before + 1
    paired = [
        lambda: kmer_kernel(i1, i2, 1),
        lambda: kmer_kernel_range(i1, i2, 1, 4),
        lambda: substring_kernel(i1, i2),
        lambda: weighted_substring_kernel(i1, i2, WeightSpec(kind="uniform")),
        lambda: d2s_distance(i1, i2, 1, q),
        lambda: d2star_distance(i1, i2, 1, q),
        lambda: maw_jaccard(i1, i2),
        lambda: maw_cosine(i1, i2),
        lambda: markov_kernel(i1, i2, ZScoreParams(g_mode="exact")),
    ]
    for fn in paired:
        b1, b2 = i1.enumerations, i2.enumerations
        fn()
        assert (i1.enumerations, i2.enumerations) == (b1 + 1, b2 + 1)
    # the same nine as folds of one fused pass, with the same values
    fused = [
        (kmer_kernel.fold, 1),
        (kmer_kernel_range.fold, 1, 4),
        (substring_kernel.fold,),
        (weighted_substring_kernel.fold, WeightSpec(kind="uniform")),
        (d2s_distance.fold, 1, q),
        (d2star_distance.fold, 1, q),
        (maw_jaccard.fold,),
        (maw_cosine.fold,),
        (markov_kernel.fold, ZScoreParams(g_mode="exact")),
    ]
    b1, b2 = i1.enumerations, i2.enumerations
    values = run_folds(PairIndex.of(i1, i2), fused)
    assert (i1.enumerations, i2.enumerations) == (b1 + 1, b2 + 1)
    assert values == [fn() for fn in paired]

    worst = 0.0
    for _ in range(50):
        sigma = rng.choice(SIGMAS)
        s = Sequence(
            [rng.randint(1, sigma) for _ in range(rng.randint(2, 64))], sigma
        )
        ix = build_bwt(s)
        stats = {}
        enumerate_right_maximal(ix, lambda ev: None, stats=stats)
        bound = 4.0 * sigma * max(2.0, math.log2(len(s.symbols)))
        assert stats["peak_frames"] < bound
        worst = max(worst, stats["peak_frames"] / bound)
        stats = {}
        enumerate_generalized(ix, build_bwt(s), lambda ev: None, stats=stats)
        assert stats["peak_frames"] < 2.0 * bound
    return (
        f"17 measures enumerate once, 9 fused in one pass; peak/bound <= {worst:.3f} (c=4)"
    )


@reported(6, "scaling smoke test")
def test_scaling_smoke():
    rng = random.Random(20606)
    times = {}
    for n in (10**5, 10**6):
        s = Sequence([rng.randint(1, 4) for _ in range(n)], 4)
        ix = build_bwt(s)
        start = time.perf_counter()
        value = substring_complexity(ix)
        times[n] = time.perf_counter() - start
        assert value > n  # sanity: far more substrings than symbols
        assert times[n] < 120.0
    ratio = times[10**6] / times[10**5]
    assert ratio <= 15.0
    return f"1e5: {times[10**5]:.2f} s, 1e6: {times[10**6]:.2f} s, ratio {ratio:.1f}"


@reported(7, "BWT round trip")
def test_bwt_round_trip(tmp_path):
    rng = random.Random(20707)
    target = tmp_path / "round.bwtk"
    for _ in range(200):
        sigma = rng.choice(SIGMAS)
        s = Sequence(
            [rng.randint(1, sigma) for _ in range(rng.randint(1, 64))], sigma
        )
        build_bwt(s).dump(str(target))
        loaded = BwtIndex.load(str(target))
        assert loaded.text == s.symbols
        assert loaded.sigma == s.sigma
    return "200 strings inverted exactly"