"""Output checks that share no code with the BWT path.

- bwtk.oracle (plain substring scans) on 400-symbol slices of the inputs;
- numpy k-mer counts at full size for the k-mer measures (k <= 12);
- a naive sort of the suffixes of a slice for the suffix layer.

Integers must match exactly and reals within 1e-9 relative. Each checker
returns a list of messages, one per mismatch; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

from bwtk import kernels
from bwtk import oracle
from bwtk.kernels import ProfileMatrix
from bwtk.params import WeightSpec, ZScoreParams
from bwtk.suffix import BwtIndex, build_bwt, suffix_array
from bwtk.text import Sequence

SLICE = 400


def close(got, want) -> bool:
    """Exact for ints and lists of ints; 1e-9 relative for reals (1e-12 absolute near 0)."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(close, got, want))
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return got == want


def plain(value):
    """A measure's result as plain ints, floats and lists, for comparing."""
    return value.cells if isinstance(value, ProfileMatrix) else value


def _compare(label: str, compute, want_fn) -> list[str]:
    try:
        got = plain(compute())
        want = want_fn()
    except Exception as exc:  # a raising measure is a failed check, not a crash
        return [f"{label}: raised {exc!r}"]
    return [] if close(got, want) else [f"{label}: got {got!r}, oracle {want!r}"]


def single_vs_oracle(seq: Sequence) -> dict[str, list[str]]:
    """The six dna_single measures against the oracle, keyed by measure."""
    ix = build_bwt(seq)
    cases = {
        "kmer_complexity": (lambda: kernels.kmer_complexity(ix, 12), lambda: oracle.oracle_kmer_complexity(seq, 12)),
        "substring_complexity": (lambda: kernels.substring_complexity(ix), lambda: oracle.oracle_substring_complexity(seq)),
        "kmer_profile": (lambda: kernels.kmer_profile(ix, 1, 12, 1, 4), lambda: oracle.oracle_kmer_profile(seq, 1, 12, 1, 4)),
        "entropy_range": (lambda: kernels.entropy_range(ix, 0, 8), lambda: [oracle.oracle_entropy(seq, j) for j in range(0, 9)]),
        "maw_count": (lambda: kernels.maw_count(ix), lambda: oracle.oracle_maw_count(seq)),
        "kl_divergence_range": (lambda: kernels.kl_divergence_range(ix, 2, 8), lambda: [oracle.oracle_kl(seq, j) for j in range(2, 9)]),
    }
    bad = {name: _compare(name, *fns) for name, fns in cases.items()}
    return {name: msgs for name, msgs in bad.items() if msgs}


def pair_vs_oracle(s1: Sequence, s2: Sequence) -> list[str]:
    """The six pair_cli kernels against the oracle."""
    i1, i2 = build_bwt(s1), build_bwt(s2)
    q = (0.25,) * 4
    spec = WeightSpec("exponential", epsilon=0.5)
    params = ZScoreParams("unit")
    cases = [
        ("kmer_kernel", lambda: kernels.kmer_kernel(i1, i2, 8), lambda: oracle.oracle_kmer_kernel(s1, s2, 8)),
        ("substring_kernel", lambda: kernels.substring_kernel(i1, i2), lambda: oracle.oracle_substring_kernel(s1, s2)),
        ("weighted_substring_kernel", lambda: kernels.weighted_substring_kernel(i1, i2, spec),
         lambda: oracle.oracle_weighted_substring_kernel(s1, s2, spec)),
        ("d2star_distance", lambda: kernels.d2star_distance(i1, i2, 8, q), lambda: oracle.oracle_d2star(s1, s2, 8, q)),
        ("markov_kernel", lambda: kernels.markov_kernel(i1, i2, params), lambda: oracle.oracle_markov_kernel(s1, s2, params)),
        ("maw_jaccard", lambda: kernels.maw_jaccard(i1, i2), lambda: oracle.oracle_maw_jaccard(s1, s2)),
    ]
    return [msg for name, got, want in cases for msg in _compare(name, got, want)]


def suffix_vs_naive(seq: Sequence) -> list[str]:
    """Suffix array and BWT of a slice against sorting its suffixes directly."""
    t = tuple(seq.symbols) + (0,)
    order = sorted(range(len(t)), key=lambda i: t[i:])
    problems = []
    try:
        if suffix_array(seq) != [i + 1 for i in order]:
            problems.append("suffix_array differs from the naive suffix sort")
        if BwtIndex(seq.symbols, seq.sigma).bwt != [t[i - 1] for i in order]:
            problems.append("BWT differs from the naive suffix sort")
    except Exception as exc:
        problems.append(f"suffix sort raised {exc!r}")
    return problems


def kmer_codes(symbols: np.ndarray, sigma: int, k: int) -> np.ndarray:
    """Base-sigma code of every length-k window of symbols in [1..sigma]."""
    s = symbols.astype(np.int64) - 1
    m = s.size - k + 1
    codes = np.zeros(max(m, 0), dtype=np.int64)
    for j in range(k):
        codes = codes * sigma + s[j : j + m]
    return codes


def numpy_kmer_complexity(symbols: np.ndarray, sigma: int, k: int) -> int:
    return int(np.unique(kmer_codes(symbols, sigma, k)).size)


def numpy_kmer_profile(symbols: np.ndarray, sigma: int, k1: int, k2: int, f1: int, f2: int) -> list[list[int]]:
    cells = []
    for k in range(k1, k2 + 1):
        _, counts = np.unique(kmer_codes(symbols, sigma, k), return_counts=True)
        counts = np.minimum(counts, f2)
        cells.append([int((counts == f).sum()) for f in range(f1, f2 + 1)])
    return cells


def numpy_kmer_kernel(a: np.ndarray, b: np.ndarray, sigma: int, k: int) -> float:
    v1 = np.bincount(kmer_codes(a, sigma, k), minlength=sigma**k)
    v2 = np.bincount(kmer_codes(b, sigma, k), minlength=sigma**k)
    return int(v1 @ v2) / math.sqrt(int(v1 @ v1) * int(v2 @ v2))
