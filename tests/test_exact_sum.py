"""The exact float accumulator behind every float fold of bwtk.kernels."""

import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bwtk.kernels
from bwtk.kernels import _ExactSum

_MAX = sys.float_info.max
_bincount = np.bincount
_TERMS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # subnormals and zeros
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),
    # next to the top of the float range, where a sum of two overflows
    st.floats(min_value=1.7e308, max_value=_MAX),
    st.floats(min_value=-_MAX, max_value=-1.7e308),
    # integers past 2**53, which carry into the upper mantissa half
    st.integers(-(2**62), 2**62).map(float),
)


def _rounded(exact: Fraction) -> float:
    """exact rounded to the nearest float, or nan past the float range."""
    try:
        return float(exact)
    except OverflowError:
        return math.nan


def _chunks(data, terms: list) -> list:
    cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=6)))
    return [terms[a:b] for a, b in zip([0, *cuts], [*cuts, len(terms)])]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_sum_is_the_correctly_rounded_sum_whatever_the_split(data):
    terms = data.draw(st.lists(_TERMS, max_size=40))
    if terms:
        # exact cancellations: the negatives of some of the terms
        terms += [-x for x in data.draw(st.lists(st.sampled_from(terms), max_size=10))]
        terms = data.draw(st.permutations(terms))
    # small limits make add() bin its gathered terms, and binning split
    # them, within a few terms
    room, gather = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 16))
    sizes = []

    def bincount(at, weights):
        sizes.append(at.size)
        return _bincount(at, weights)

    total = _ExactSum()
    with mock.patch.multiple(bwtk.kernels, _ROOM=room, _GATHER=gather):
        with mock.patch.object(np, "bincount", bincount):
            for chunk in _chunks(data, terms):
                total.add(np.array(chunk, dtype=float))
                assert total.size < gather
            got = total.value()
    # no bincount adds more than room terms, so its bins stay exact
    assert max(sizes, default=0) <= room
    want = _rounded(sum(map(Fraction, terms), Fraction(0)))
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got.hex() == want.hex()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_powers_of_two_enter_exactly_past_the_float_range(data):
    terms = data.draw(st.lists(_TERMS, max_size=30))
    exps = data.draw(st.lists(st.integers(-5000, 5000), min_size=len(terms), max_size=len(terms)))
    total = _ExactSum()
    for chunk in _chunks(data, list(zip(terms, exps))):
        values, powers = zip(*chunk) if chunk else ((), ())
        total.add(np.array(values, dtype=float), np.array(powers, dtype=np.int64))
    m, e = total.frexp()
    exact = sum((Fraction(x) * Fraction(2) ** k for x, k in zip(terms, exps)), Fraction(0))
    if exact == 0:
        assert (m, e) == (0.0, 0)
    else:
        assert 0.5 <= abs(m) < 1.0
        assert m == float(exact / Fraction(2) ** e)


@pytest.mark.parametrize(
    "chunks, want",
    [
        ([[1.0, math.inf]], math.inf),
        ([[-math.inf], [2.0]], -math.inf),
        ([[math.inf, 1.0], [-math.inf]], math.nan),
        ([[1.0], [math.nan, 1.0]], math.nan),
        # the exact sum is past the float range, however the terms are grouped
        ([[_MAX], [_MAX]], math.nan),
        ([[_MAX, _MAX], [-_MAX]], _MAX),
        ([[_MAX, _MAX], [math.inf]], math.inf),
        ([], 0.0),
    ],
)
def test_inf_nan_and_overflow_read_as_documented(chunks, want):
    total = _ExactSum()
    for chunk in chunks:
        total.add(np.array(chunk))
    got = total.value()
    assert math.isnan(got) if math.isnan(want) else got == want


def test_integer_ratios_enter_exactly():
    total = _ExactSum()
    total.add(np.array([0.1, 2.0**-1074]))
    num, den = (0.1).as_integer_ratio()
    total.add_ratio(-3 * num, den)
    total.add_ratio(7)
    assert total.value() == float(Fraction(0.1) * -2 + 2 ** Fraction(-1074) + 7)
