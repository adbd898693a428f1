"""Exception types, and the two type rules of every argument from outside.

The integer rule of every count, size, seed and node id, :func:`as_int`: a
Python or numpy integer is taken; anything else, bool and 3.0 too, is refused.
The real-number rule of every probability and factor, :func:`as_real`: a
Python or numpy integer or float is taken as the equal float; a bool, a
string, None, a complex number or an array is refused.  Each caller checks
the range itself.
"""

import operator

import numpy as np


class BeepMISError(Exception):
    """Base class for all beepmis errors."""


class InvalidParameter(BeepMISError, ValueError):
    """A function argument is outside its documented domain."""


class ParseError(BeepMISError, ValueError):
    """Malformed text input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TooLarge(BeepMISError, ValueError):
    """Input exceeds a hard size guard (e.g. exhaustive enumeration)."""


class EmptySample(BeepMISError, ValueError):
    """A statistic was requested over zero records."""


def as_int(value, label: str, minimum: int | None = None) -> int:
    """``value`` as a Python int, refused unless it is an integer of at least ``minimum``."""
    integer = type(value) is not bool and isinstance(value, (int, np.integer))
    if not integer or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParameter(f"{label} must be an integer{bound}, got {value!r}")
    return operator.index(value)


def as_real(value, label: str) -> float:
    """``value`` as the equal Python float, refused unless it is a real number
    that a float holds (an int past the double range has no equal float)."""
    if type(value) is not bool and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidParameter(f"{label} must be a real number, got {value!r}")


def as_node_ids(values, label: str, node_count: int) -> np.ndarray:
    """``values`` (any nesting) as an int64 array of ids in [0, node_count); an
    ndarray is judged by its dtype alone, anything else by :func:`as_int` per element."""
    if not isinstance(values, np.ndarray):
        values = np.array(list(values), dtype=object)
        for example in dict(zip(map(type, values.flat), values.flat)).values():
            as_int(example, label)  # one element of each type
    elif values.size and values.dtype.kind not in "iu":
        raise InvalidParameter(f"{label} must be an integer, got an array of {values.dtype}")
    # Before the cast: a negative id would wrap around, an int past 2^63 would overflow.
    outside = (values < 0) | (values >= node_count)
    if outside.any():
        raise InvalidParameter(f"{label} {values[outside][0]} out of range for {node_count} nodes")
    return values.astype(np.int64)
