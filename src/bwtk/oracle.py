"""Brute-force reference implementations used to validate the index path.

Everything here works from explicit substring tables built by direct window
scans over the input symbols. No suffix sorting, BWT, or rank machinery is
used, so these results are an independent check on the index-based measures.
All functions enforce a length guard (default 4096, BWTK_GUARD overrides)
because time and memory grow quadratically with input length.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import GuardLimitError, InputError, ZeroDenominatorError
from .params import WeightSpec, ZScoreParams, markov_g, validate_probs
from .text import Sequence, oracle_guard

Word = tuple[int, ...]

# distinct end-of-string events for extension sets; real symbols are >= 1
_END = 0
_END_1 = -1
_END_2 = -2


def _check_guard(seq: Sequence) -> None:
    guard = oracle_guard()
    if len(seq) > guard:
        raise GuardLimitError(
            f"oracle guard: length {len(seq)} exceeds {guard} (set BWTK_GUARD to raise)"
        )


def substring_counts(seq: Sequence) -> dict[Word, int]:
    """Occurrence count of every substring of the symbol string."""
    _check_guard(seq)
    syms = tuple(seq.symbols)
    m = len(syms)
    counts: dict[Word, int] = {}
    for length in range(1, m + 1):
        for start in range(m - length + 1):
            w = syms[start : start + length]
            counts[w] = counts.get(w, 0) + 1
    return counts


def _freq(counts: dict[Word, int], w: Word, m: int) -> int:
    if not w:
        return m
    return counts.get(w, 0)


# ---------------------------------------------------------------------------
# complexity measures


def oracle_kmer_complexity(seq: Sequence, k: int) -> int:
    if k < 1:
        raise InputError("k must be at least 1")
    _check_guard(seq)
    syms = tuple(seq.symbols)
    return len({syms[p : p + k] for p in range(len(syms) - k + 1)})


def oracle_substring_complexity(seq: Sequence) -> int:
    return len(substring_counts(seq))


def oracle_kmer_profile(
    seq: Sequence, k1: int, k2: int, f1: int, f2: int
) -> list[list[int]]:
    """Counts of k-mers per (length, frequency) cell, saturated at f2."""
    if not (1 <= k1 <= k2 and 1 <= f1 <= f2):
        raise InputError("profile bounds must satisfy 1 <= k1 <= k2, 1 <= f1 <= f2")
    counts = substring_counts(seq)
    cells = [[0] * (f2 - f1 + 1) for _ in range(k2 - k1 + 1)]
    for w, f in counts.items():
        if k1 <= len(w) <= k2 and f >= f1:
            cells[len(w) - k1][min(f, f2) - f1] += 1
    return cells


def oracle_entropy(seq: Sequence, k: int) -> float:
    """Order-k empirical entropy from the distribution of follower symbols."""
    if k < 0:
        raise InputError("k must be non-negative")
    _check_guard(seq)
    syms = tuple(seq.symbols)
    m = len(syms)
    followers: dict[Word, dict[int, int]] = {}
    for p in range(m - k):
        w = syms[p : p + k]
        bucket = followers.setdefault(w, {})
        nxt = syms[p + k]
        bucket[nxt] = bucket.get(nxt, 0) + 1
    total = 0.0
    for bucket in followers.values():
        seen = sum(bucket.values())
        for cnt in bucket.values():
            total += cnt * math.log2(seen / cnt)
    return total / m


# ---------------------------------------------------------------------------
# kernels


def _cosine(num: float, d1: float, d2: float) -> float:
    if d1 <= 0 or d2 <= 0:
        raise ZeroDenominatorError("zero denominator: a side has zero norm")
    return num / math.sqrt(d1 * d2)


def _kmer_vector(seq: Sequence, k: int) -> dict[Word, int]:
    syms = tuple(seq.symbols)
    vec: dict[Word, int] = {}
    for p in range(len(syms) - k + 1):
        w = syms[p : p + k]
        vec[w] = vec.get(w, 0) + 1
    return vec


def oracle_kmer_kernel(seq1: Sequence, seq2: Sequence, k: int) -> float:
    if k < 1:
        raise InputError("k must be at least 1")
    _check_guard(seq1)
    _check_guard(seq2)
    if len(seq1) < k or len(seq2) < k:
        raise ZeroDenominatorError("zero denominator: a string is shorter than k")
    v1 = _kmer_vector(seq1, k)
    v2 = _kmer_vector(seq2, k)
    num = sum(f * v2[w] for w, f in v1.items() if w in v2)
    return _cosine(
        float(num),
        float(sum(f * f for f in v1.values())),
        float(sum(f * f for f in v2.values())),
    )


def oracle_substring_kernel(seq1: Sequence, seq2: Sequence) -> float:
    c1 = substring_counts(seq1)
    c2 = substring_counts(seq2)
    num = sum(f * c2[w] for w, f in c1.items() if w in c2)
    return _cosine(
        float(num),
        float(sum(f * f for f in c1.values())),
        float(sum(f * f for f in c2.values())),
    )


def oracle_weighted_substring_kernel(
    seq1: Sequence, seq2: Sequence, weights: WeightSpec
) -> float:
    weights.validate(seq1.sigma)
    c1 = substring_counts(seq1)
    c2 = substring_counts(seq2)
    num = 0.0
    for w, f in c1.items():
        if w in c2:
            g = weights.word_weight(w)
            num += (g * f) * (g * c2[w])
    d1 = sum((weights.word_weight(w) * f) ** 2 for w, f in c1.items())
    d2 = sum((weights.word_weight(w) * f) ** 2 for w, f in c2.items())
    return _cosine(num, d1, d2)


def _centered_kmer_stats(
    seq1: Sequence, seq2: Sequence, k: int, q: tuple[float, ...]
) -> tuple[dict[Word, int], dict[Word, int], int, int]:
    if k < 1:
        raise InputError("k must be at least 1")
    sigma = seq1.sigma
    if seq2.sigma != sigma:
        raise InputError("sequences must share an alphabet")
    validate_probs(q, sigma)
    _check_guard(seq1)
    _check_guard(seq2)
    if len(seq1) < k or len(seq2) < k:
        raise ZeroDenominatorError("zero denominator: a string is shorter than k")
    if sigma**k > 1 << 20:
        raise GuardLimitError(f"oracle guard: sigma**k = {sigma**k} exceeds 2**20")
    return _kmer_vector(seq1, k), _kmer_vector(seq2, k), len(seq1), len(seq2)


def oracle_d2s(
    seq1: Sequence, seq2: Sequence, k: int, q: tuple[float, ...]
) -> float:
    v1, v2, m1, m2 = _centered_kmer_stats(seq1, seq2, k, q)
    e1 = m1 - k + 1
    e2 = m2 - k + 1
    total = 0.0
    for w in product(range(1, seq1.sigma + 1), repeat=k):
        qw = 1.0
        for c in w:
            qw *= q[c - 1]
        t1 = v1.get(w, 0) - e1 * qw
        t2 = v2.get(w, 0) - e2 * qw
        den = math.sqrt(t1 * t1 + t2 * t2)
        if den > 0:
            total += t1 * t2 / den
    return total


def oracle_d2star(
    seq1: Sequence, seq2: Sequence, k: int, q: tuple[float, ...]
) -> float:
    v1, v2, m1, m2 = _centered_kmer_stats(seq1, seq2, k, q)
    e1 = m1 - k + 1
    e2 = m2 - k + 1
    scale = math.sqrt(e1 * e2)
    total = 0.0
    for w in product(range(1, seq1.sigma + 1), repeat=k):
        qw = 1.0
        for c in w:
            qw *= q[c - 1]
        t1 = v1.get(w, 0) - e1 * qw
        t2 = v2.get(w, 0) - e2 * qw
        total += t1 * t2 / (scale * qw)
    return total


# ---------------------------------------------------------------------------
# minimal absent words


def oracle_maw_set(seq: Sequence) -> set[Word]:
    """All minimal absent words aWb with a, b in [1..sigma]."""
    counts = substring_counts(seq)
    sigma = seq.sigma
    longest_repeat = max((len(w) for w, f in counts.items() if f >= 2), default=0)
    infixes: list[Word] = [()]
    infixes.extend(w for w, f in counts.items() if f >= 2)
    maws: set[Word] = set()
    for w in infixes:
        for a in range(1, sigma + 1):
            left = (a,) + w
            if left not in counts:
                continue
            for b in range(1, sigma + 1):
                if w + (b,) in counts and left + (b,) not in counts:
                    maws.add(left + (b,))
    # the infix of a MAW repeats, so one length past the longest repeat is empty
    for w, f in counts.items():
        if len(w) == longest_repeat + 1 and f == 1:
            for a in range(1, sigma + 1):
                left = (a,) + w
                if left not in counts:
                    continue
                for b in range(1, sigma + 1):
                    assert not (w + (b,) in counts and left + (b,) not in counts)
    return maws


def oracle_maw_count(seq: Sequence) -> int:
    return len(oracle_maw_set(seq))


def oracle_maw_jaccard(seq1: Sequence, seq2: Sequence) -> float:
    s1 = oracle_maw_set(seq1)
    s2 = oracle_maw_set(seq2)
    if not s1 and not s2:
        return 1.0
    return len(s1 & s2) / len(s1 | s2)


def oracle_maw_cosine(seq1: Sequence, seq2: Sequence) -> float:
    s1 = oracle_maw_set(seq1)
    s2 = oracle_maw_set(seq2)
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        raise ZeroDenominatorError("zero denominator: one MAW set is empty")
    return len(s1 & s2) / math.sqrt(len(s1) * len(s2))


# ---------------------------------------------------------------------------
# Markovian scores and relative entropy


def oracle_zscore_vector(seq: Sequence, params: ZScoreParams) -> dict[Word, float]:
    """Nonzero z-scores over strings aWb with a, b in [1..sigma]."""
    params.validate()
    counts = substring_counts(seq)
    m = len(seq)
    n = m + 1
    vec: dict[Word, float] = {}
    for w, f in counts.items():
        k = len(w)
        if k < 2:
            continue
        g = markov_g(n, k) if params.g_mode == "exact" else 1.0
        mid = _freq(counts, w[1:-1], m)
        ratio = f * mid / (counts[w[:-1]] * counts[w[1:]])
        z = g * ratio - 1.0
        if z != 0.0:
            vec[w] = z
    for w in oracle_maw_set(seq):
        vec[w] = -1.0
    return vec


def oracle_markov_kernel(
    seq1: Sequence, seq2: Sequence, params: ZScoreParams
) -> float:
    z1 = oracle_zscore_vector(seq1, params)
    z2 = oracle_zscore_vector(seq2, params)
    num = sum(v * z2[w] for w, v in z1.items() if w in z2)
    d1 = sum(v * v for v in z1.values())
    d2 = sum(v * v for v in z2.values())
    return _cosine(num, d1, d2)


def oracle_kl(seq: Sequence, k: int) -> float:
    """Relative entropy of the k-mer distribution against its Markov estimate."""
    if k < 2:
        raise InputError("k must be at least 2")
    counts = substring_counts(seq)
    m = len(seq)
    n = m + 1
    if k > m:
        return 0.0
    total = 0.0
    for w, f in counts.items():
        if len(w) != k:
            continue
        p = f / (n - k)
        p_pre = counts[w[:-1]] / (n - k + 1)
        p_suf = counts[w[1:]] / (n - k + 1)
        p_mid = _freq(counts, w[1:-1], m) / (n - k + 2)
        approx = p_pre * p_suf / p_mid
        total += p * (math.log2(p) - math.log2(approx))
    return total


def oracle_calibrate_kmax(seq: Sequence, tau: float, kcap: int) -> int:
    if kcap < 2:
        raise InputError("kcap must be at least 2")
    if not tau > 0:
        raise InputError("tau must be positive")
    kls = [oracle_kl(seq, k) for k in range(2, kcap + 1)]
    for k in range(2, kcap + 1):
        if sum(kls[k - 2 :]) < tau:
            return k
    return kcap + 1


def oracle_calibrate_kmin(seq: Sequence, kcap: int) -> int:
    if kcap < 1:
        raise InputError("kcap must be at least 1")
    counts = substring_counts(seq)
    best_k = 1
    best = -1
    for k in range(1, kcap + 1):
        repeated = sum(1 for w, f in counts.items() if len(w) == k and f >= 2)
        if repeated > best:
            best = repeated
            best_k = k
    return best_k


# ---------------------------------------------------------------------------
# reference node sets for the traversal tests


def _neighbours(seq: Sequence, end: int) -> dict[Word, tuple[set[int], set[int]]]:
    """Left and right neighbour symbols of every substring, the empty one included.

    One window scan; end stands for the text's start on the left and its end
    on the right. Every symbol neighbours some empty occurrence.
    """
    _check_guard(seq)
    syms = tuple(seq.symbols)
    m = len(syms)
    out: dict[Word, tuple[set[int], set[int]]] = {(): (set(syms) | {end}, set(syms) | {end})}
    for length in range(1, m + 1):
        for p in range(m - length + 1):
            w = syms[p : p + length]
            sides = out.get(w)
            if sides is None:
                sides = out[w] = (set(), set())
            sides[0].add(syms[p - 1] if p else end)
            sides[1].add(syms[p + length] if p + length < m else end)
    return out


def oracle_right_maximal_set(seq: Sequence) -> set[Word]:
    return {w for w, (_, right) in _neighbours(seq, _END).items() if len(right) >= 2}


def oracle_maximal_repeat_set(seq: Sequence) -> set[Word]:
    return {
        w
        for w, (left, right) in _neighbours(seq, _END).items()
        if len(left) >= 2 and len(right) >= 2
    }


def oracle_generalized_right_maximal_set(
    seq1: Sequence, seq2: Sequence
) -> set[Word]:
    """Strings right-maximal in the pair, counting the two end markers apart."""
    n1 = _neighbours(seq1, _END_1)
    n2 = _neighbours(seq2, _END_2)
    empty = (set(), set())
    return {
        w
        for w in n1.keys() | n2.keys()
        if len(n1.get(w, empty)[1] | n2.get(w, empty)[1]) >= 2
    }
