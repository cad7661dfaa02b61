"""Alignment-free string comparison over Burrows-Wheeler transforms.

The library builds a BWT-based index per input string, or one for a pair
of strings, and computes k-mer, substring, minimal-absent-word, Markovian,
and entropy measures in single passes over the suffix-link-tree
enumeration of right-maximal substrings.
"""

from .errors import (
    BwtkError,
    ComputationError,
    GuardLimitError,
    InputError,
    ZeroDenominatorError,
)
from .params import WeightSpec, ZScoreParams
from .text import AlphabetMap, Sequence, load_input, map_alphabet
from .suffix import BwtIndex, PairIndex, build_bwt, suffix_array
from .wavelet import RankIndex
from .enumerate import (
    GenRepr,
    Repr,
    VisitEvent,
    enumerate_generalized,
    enumerate_maximal_repeats,
    enumerate_right_maximal,
    extend_left,
    extend_left_generalized,
)
from .kernels import (
    ProfileMatrix,
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
    substring_complexity,
    substring_kernel,
    weighted_substring_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetMap",
    "BwtIndex",
    "BwtkError",
    "ComputationError",
    "GenRepr",
    "GuardLimitError",
    "InputError",
    "PairIndex",
    "ProfileMatrix",
    "RankIndex",
    "Repr",
    "Sequence",
    "VisitEvent",
    "WeightSpec",
    "ZScoreParams",
    "ZeroDenominatorError",
    "build_bwt",
    "calibrate_kmax",
    "calibrate_kmin",
    "d2s_distance",
    "d2star_distance",
    "entropy_range",
    "enumerate_generalized",
    "enumerate_maximal_repeats",
    "enumerate_right_maximal",
    "extend_left",
    "extend_left_generalized",
    "kl_divergence_range",
    "kmer_complexity",
    "kmer_kernel",
    "kmer_kernel_range",
    "kmer_profile",
    "load_input",
    "map_alphabet",
    "markov_kernel",
    "maw_cosine",
    "maw_count",
    "maw_enumerate",
    "maw_jaccard",
    "maw_words",
    "substring_complexity",
    "substring_kernel",
    "suffix_array",
    "weighted_substring_kernel",
]
