"""Parameter objects shared by the measure implementations and the oracle.

Only measure *definitions* live here (weighting schemes, the Markov length
correction). Algorithmic machinery stays in the dedicated modules so the
brute-force oracle and the index-based path remain independent.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .errors import InputError, integer, real

WEIGHT_KINDS = ("uniform", "exponential", "band", "charscore")
G_MODES = ("unit", "exact")


@dataclass(frozen=True)
class WeightSpec:
    """Substring weighting scheme for weighted kernels.

    uniform:      every substring weighs 1
    exponential:  a substring of length L weighs epsilon**L
    band:         weight 1 for kmin <= L <= kmax, else 0
    charscore:    a word weighs the product of per-symbol scores
    """

    kind: str
    epsilon: float = 0.5
    kmin: int = 1
    kmax: int = 1
    scores: tuple[float, ...] | None = None

    def validate(self, sigma: int) -> WeightSpec:
        """This spec, its numbers as Python ints and floats; InputError if it is malformed."""
        if self.kind not in WEIGHT_KINDS:
            raise InputError(f"unknown weight kind {self.kind!r}")
        if self.kind == "exponential":
            epsilon = real(self.epsilon, "epsilon")
            if not 0 < epsilon < math.inf:
                raise InputError("epsilon must be positive and finite")
            return replace(self, epsilon=epsilon)
        if self.kind == "band":
            kmin = integer(self.kmin, "kmin", 1)
            return replace(self, kmin=kmin, kmax=integer(self.kmax, "kmax", kmin))
        if self.kind == "charscore":
            scores = _reals(self.scores, "scores", sigma)
            if any(not 0 < s < math.inf for s in scores):
                raise InputError("charscore scores must be positive and finite")
            return replace(self, scores=scores)
        return self

    def length_weight(self, length: int) -> float:
        """Weight of any substring of the given length (length-based kinds)."""
        if self.kind == "uniform":
            return 1.0
        if self.kind == "exponential":
            return self.epsilon**length
        if self.kind == "band":
            return 1.0 if self.kmin <= length <= self.kmax else 0.0
        raise InputError("charscore weights depend on the word, not its length")

    def word_weight(self, word: tuple[int, ...]) -> float:
        if self.kind == "charscore":
            assert self.scores is not None
            w = 1.0
            for c in word:
                w *= self.scores[c - 1]
            return w
        return self.length_weight(len(word))


@dataclass(frozen=True)
class ZScoreParams:
    """Controls the length correction applied to Markovian z-scores."""

    g_mode: str = "unit"

    def validate(self) -> None:
        if self.g_mode not in G_MODES:
            raise InputError(f"unknown g mode {self.g_mode!r}")


def markov_g(x: int, y: int) -> float:
    """Length-correction factor for a string of length y in a text of length x."""
    d = x - y
    return (d + 2) * (d + 2) / ((d + 1) * (d + 3))


def _reals(values, name: str, count: int) -> tuple[float, ...]:
    """values, count numbers, as a tuple of floats (see errors.real)."""
    values = tuple(values) if isinstance(values, Iterable) else ()
    if len(values) != count:
        raise InputError(f"need exactly {count} {name}")
    return tuple(real(v, f"each of the {name}") for v in values)


def validate_probs(q, sigma: int) -> tuple[float, ...]:
    """q as floats, if it is a positive probability vector over [1..sigma]."""
    q = _reals(q, "probabilities", sigma)
    if any(not p > 0 for p in q):
        raise InputError("probabilities must be positive")
    if abs(sum(q) - 1.0) > 1e-9:
        raise InputError("probabilities must sum to 1")
    return q
