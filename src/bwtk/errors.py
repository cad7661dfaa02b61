"""Exception types shared across the toolkit, and the one check of each kind of number.

integer() reads every integer argument (a length, frequency, symbol,
position or sigma), and real() every real one (tau, epsilon, a score or a
probability). An int or, for real(), a float, NumPy's included, becomes a
Python int or float; anything else, a bool included, raises InputError.
sequence() reads a sequence argument (a word, a representation's chars or
boundaries) as a list, whose entries the caller then checks; a value that
cannot be iterated raises InputError.
"""

import numbers
import operator


class BwtkError(Exception):
    """Base class for toolkit errors."""


class InputError(BwtkError, ValueError):
    """Malformed or unusable input (files, alphabets, parameters)."""


class ComputationError(BwtkError, ArithmeticError):
    """A measure could not be evaluated on the given inputs."""


class ZeroDenominatorError(ComputationError):
    """Raised when a similarity denominator is zero."""


class GuardLimitError(ComputationError):
    """Raised when a brute-force reference exceeds its input-size guard."""


def integer(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as a Python int in [lo..hi], with no upper bound when hi is None."""
    try:
        number = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        number = None
    if number is None or number < lo or hi is not None and number > hi:
        bounds = f"[{lo}..{'' if hi is None else hi}]"
        raise InputError(f"{name} must be an integer in {bounds}, not {value!r}")
    return number


def real(value, name: str) -> float:
    """value as a float: an int or a float, NumPy's included, but not a bool."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise InputError(f"{name} must be an int or a float in the float range, not {value!r}")


def sequence(value, name: str) -> list:
    """value's entries as a list; a value that cannot be iterated, such as a number, raises InputError."""
    try:
        return list(value)
    except TypeError:
        raise InputError(f"{name} must be a sequence, not {value!r}") from None
