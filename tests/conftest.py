"""Shared builders for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import strategies as st

from bwtk.enumerate import batched_pass
from bwtk.errors import ZeroDenominatorError
from bwtk.suffix import BwtIndex, PairIndex, build_bwt
from bwtk.text import Sequence


def seq(text: str, sigma: int | None = None, name: str | None = None) -> Sequence:
    """Distinct letters to symbols in sorted order: banana -> 2,1,3,1,3,1."""
    order = {ch: i + 1 for i, ch in enumerate(sorted(set(text)))}
    symbols = [order[ch] for ch in text]
    return Sequence(symbols, sigma or len(order), name if name is not None else text)


def idx(text: str, sigma: int | None = None) -> BwtIndex:
    return build_bwt(seq(text, sigma))


def rand_seq(rng: random.Random, n: int, sigma: int, name: str = "rand") -> Sequence:
    return Sequence([rng.randint(1, sigma) for _ in range(n)], sigma, name)


def mutate(rng: random.Random, s: Sequence, rate: float) -> Sequence:
    """s with a fraction rate of its positions changed to another letter."""
    symbols = list(s.symbols)
    for i in rng.sample(range(len(symbols)), round(rate * len(symbols))):
        symbols[i] = rng.choice([a for a in range(1, s.sigma + 1) if a != symbols[i]])
    return Sequence(symbols, s.sigma)


def one_index(indexes) -> BwtIndex:
    """The index a pass over one text, or over the pair of two, runs on."""
    return indexes[0] if len(indexes) == 1 else PairIndex.of(*indexes)


def merged_batches(indexes, cap) -> int:
    """Batches of a pass at cap whose nodes descend from two or more visited batches.

    Each visited batch carries its serial number to its kids, so a batch
    holds on entry the serials of the batches its nodes came from.
    """
    key = object()
    serial = merged = 0

    def visit(batch):
        nonlocal serial, merged
        if batch.depth:
            merged += np.unique(batch.carry[key][0]).size > 1
        serial += 1
        batch.carry[key] = (np.full(batch.side.nb.size, serial),)

    batched_pass(one_index(indexes), visit, _cap=cap)
    return merged


def fibonacci(a: int, b: int, n: int) -> list[int]:
    """The first n symbols of the Fibonacci word over letters a, b."""
    prev, word = [a], [a, b]
    while len(word) < n:
        prev, word = word, word + prev
    return word[:n]


def draw_repetitive(draw, sigma: int) -> Sequence:
    """A hypothesis-drawn text over [1..sigma]: letter runs or a period."""
    letter = st.integers(1, sigma)
    shape = draw(st.sampled_from(("runs", "periodic")))
    if shape == "runs":
        runs = draw(st.lists(st.tuples(letter, st.integers(1, 12)), min_size=1, max_size=4))
        symbols = [a for a, length in runs for _ in range(length)]
    else:
        period = draw(st.lists(letter, min_size=1, max_size=4))
        symbols = (period * 40)[: draw(st.integers(1, 40))]
    return Sequence(symbols, sigma)


@st.composite
def repetitive_text(draw) -> Sequence:
    """Runs or a period over sigma in {1, 2, 4}."""
    return draw_repetitive(draw, draw(st.sampled_from((1, 2, 4))))


def same_value_or_same_error(compute, expect_fn, rel=1e-9, abs_tol=1e-9):
    """compute() gives expect_fn()'s value, or both raise ZeroDenominatorError."""
    try:
        expect = expect_fn()
    except ZeroDenominatorError:
        with pytest.raises(ZeroDenominatorError):
            compute()
        return None
    got = compute()
    assert got == pytest.approx(expect, rel=rel, abs=abs_tol)
    return got
