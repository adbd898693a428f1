"""Exception types, and the type rules of every argument from outside.

The integer rule of every count, size, seed and node id, :func:`as_int`: a
Python or numpy integer is taken; anything else, bool and 3.0 too, is refused.
The real-number rule of every probability and factor, :func:`as_real`: a
Python or numpy integer or float is taken as the equal float; a bool, a
string, None, a complex number or an array is refused.  Each caller checks
the range itself.  Every number read from text (flags, BEEPMIS_SEED, graph
and policy specs, edge-list, set and CSV files) is ASCII decimal: an integer
by :func:`parse_decimal`, a real number by :func:`parse_real`.  Every file
beepmis reads (edge-list, set and CSV files) is decoded by :func:`read_text`,
and edge-list and set files split by :func:`text_lines` and :func:`text_fields`.
"""

import operator
import re

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


_DECIMAL = re.compile("-?[0-9]+")
_FIELD = re.compile("[^ \t]+")
_REAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")


def parse_decimal(text: str) -> int:
    """``text`` as an int if it is ASCII decimal, ``-?[0-9]+``; anything else
    ``int()`` takes, such as ``+1``, ``1_0`` or a non-ASCII digit, raises ParseError.
    The minus sign leaves the range check to the caller."""
    if not _DECIMAL.fullmatch(text):
        raise ParseError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def read_text(path: str) -> str:
    """The file's text, strict UTF-8 and no newline translation; a bad byte is a ParseError with its line."""
    with open(path, "rb") as f:
        data = f.read()
    try:  # decoded whole, so the first bad byte's offset is in the file and names its line
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {data[exc.start:exc.end]!r}", data.count(b"\n", 0, exc.start) + 1) from None


def text_lines(text: str) -> list[str]:
    """The lines of a text file: split at LF only, one CR before each LF dropped
    (so CRLF reads as LF), and a final LF ends the last line.  Any other line
    break ``str.splitlines`` knows, a bare CR or U+2028, stays inside its line."""
    lines = text.split("\n")
    last = lines.pop()
    lines = [line.removesuffix("\r") for line in lines]
    return lines + [last] if last else lines


def text_fields(line: str) -> list[str]:
    """The fields of a line, split at runs of ASCII spaces and tabs; any other
    white space ``str.split`` knows, such as a no-break space, stays in its field."""
    return _FIELD.findall(line)


def parse_real(text: str) -> float:
    """``text`` as a float if it is an ASCII decimal real, as every ``%g`` and ``repr`` of a
    finite float is; anything else ``float()`` takes, such as ``inf``, ``nan``, ``+1``, ``1_0``
    or a non-ASCII digit, raises ParseError.  ``1e400`` reads as inf, for the caller's range check."""
    if not _REAL.fullmatch(text):
        raise ParseError(f"not an ASCII decimal real: {text!r}")
    return float(text)


# The reader of each type name a text field is declared with (graph-spec fields, CSV columns).
TEXT_READERS = {"str": str, "int": parse_decimal, "float": parse_real}


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
    """``values`` (any nesting; a scalar, None or 0-d array is refused, not read as a set of one)
    as int64 ids in [0, node_count); an ndarray is judged by its dtype, else :func:`as_int` per element."""
    if not hasattr(values, "__iter__") or getattr(values, "ndim", 1) == 0:
        raise InvalidParameter(f"{label}s must be given as an iterable, got {values!r}")
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
