"""Beep-probability policies: the local feedback rule and global schedules.

A policy makes all per-run probability state with ``initial_state``.  A
schedule (global sweep, constant) is node-independent: each round the engine
asks ``uniform_probability(state)`` for the probability every active node
beeps with, and afterwards calls ``end_round(state)``.  Local feedback is a
rule, not a protocol: its state is the array of per-node probabilities, which
the engine indexes itself, and in each round ``adjust(p, heard)`` gives the
active nodes' next probabilities from whether each heard a beep.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, ldexp

import numpy as np

from .errors import InvalidParameter, as_int, as_real

# Floor for every adjustment factor, so probabilities stay strictly positive
# and never become subnormal even on adversarially long runs.
_MIN_PROBABILITY = 2.0 ** -64


def _exact(x: float) -> str:
    """x in %g form when that reads back as x, else as its round-trip repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


class LocalFeedback:
    """Each node adapts its own beep probability from what it heard.

    The state is one float64 array of per-node probabilities.  A node that
    heard at least one beep in a round divides its probability by the
    adjustment factor, floored at 2^-64; a node that heard silence multiplies
    it by the same factor, clamped at the cap.  With the defaults (factor 2,
    start 1/2, cap 1/2) every probability is exactly 2^-e for an integer
    e >= 1, because halving and doubling a float above the floor is exact.
    """

    def __init__(self, factor: float = 2.0, initial: float = 0.5, cap: float = 0.5):
        self.factor = factor = as_real(factor, "adjustment factor")
        self.initial = initial = as_real(initial, "initial probability")
        self.cap = cap = as_real(cap, "probability cap")
        if not factor > 1.0:
            raise InvalidParameter(f"adjustment factor must be > 1, got {factor!r}")
        if not 0.0 < cap < 1.0:
            raise InvalidParameter(f"probability cap must be in (0, 1), got {cap!r}")
        if not _MIN_PROBABILITY <= initial <= cap:
            raise InvalidParameter(f"initial probability must be in [2^-64, cap], got {initial!r}")

    @property
    def name(self) -> str:
        if (self.factor, self.initial, self.cap) == (2.0, 0.5, 0.5):
            return "feedback"
        return f"feedback:f={_exact(self.factor)},init={_exact(self.initial)},cap={_exact(self.cap)}"

    def initial_state(self, node_count: int) -> np.ndarray:
        return np.full(node_count, self.initial)

    def adjust(self, p: np.ndarray, heard: np.ndarray) -> np.ndarray:
        """Next probabilities of the nodes at ``p``; ``heard`` flags who heard a beep."""
        return np.where(heard, np.maximum(p / self.factor, _MIN_PROBABILITY),
                        np.minimum(p * self.factor, self.cap))


def sweep_phase_position(step: int) -> tuple[int, int]:
    """Locate a 1-based global step in the sweep schedule.

    Phase k (k >= 1) consists of k+1 steps and starts at step
    1 + (k-1)(k+2)/2, a triangular number, so the phase index is recovered
    exactly with an integer square root.  Returns (phase, position) where
    position counts 0..k within the phase.
    """
    step = as_int(step, "sweep step", 1)
    k = (isqrt(8 * step + 1) - 1) // 2
    start = 1 + (k - 1) * (k + 2) // 2
    return k, step - start


@dataclass
class ScheduleState:
    """Global step counter of a node-independent schedule (1-based)."""

    step: int = 1


class Schedule:
    """Node-independent policy: in global step s every active node beeps with
    probability ``at(s)``."""

    def at(self, step: int) -> float:
        raise NotImplementedError

    def initial_state(self, node_count: int) -> ScheduleState:
        return ScheduleState()

    def uniform_probability(self, state: ScheduleState) -> float:
        return self.at(state.step)

    def end_round(self, state: ScheduleState) -> None:
        state.step += 1


class GlobalSweep(Schedule):
    """Preset schedule: probability 1 at the start of each phase, halved on
    every following step of the phase; phase k has k+1 steps.

    Produces the sequence 1, 1/2, 1, 1/2, 1/4, 1, 1/2, 1/4, 1/8, ...
    """

    name = "sweep"

    def at(self, step: int) -> float:
        # 2^-1074 is the smallest positive double: the probability stays > 0.
        return ldexp(1.0, -min(sweep_phase_position(step)[1], 1074))


class Constant(Schedule):
    """Control policy: every node beeps with the same fixed probability."""

    def __init__(self, probability: float):
        self.probability = probability = as_real(probability, "probability")
        if not 0.0 < probability <= 1.0:
            raise InvalidParameter(f"probability must be in (0, 1], got {probability!r}")

    @property
    def name(self) -> str:
        return f"const:{_exact(self.probability)}"

    def at(self, step: int) -> float:
        return self.probability


_FEEDBACK_KEYS = {"f": "factor", "init": "initial", "cap": "cap"}


def parse_policy(text: str):
    """Parse a policy selection string.

    Grammar: ``feedback`` | ``feedback:f=<float>,init=<float>,cap=<float>``
    (keys optional, any subset, each at most once) | ``sweep`` |
    ``const:<float>``.
    """
    head, sep, rest = text.partition(":")
    if head == "feedback":
        kwargs = {}
        if sep:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                if not eq:
                    raise InvalidParameter(f"bad feedback option {item!r}, expected key=value")
                try:
                    number = float(value)
                except ValueError:
                    raise InvalidParameter(f"bad feedback value {value!r}") from None
                if key not in _FEEDBACK_KEYS:
                    raise InvalidParameter(f"unknown feedback option {key!r}")
                if _FEEDBACK_KEYS[key] in kwargs:
                    raise InvalidParameter(f"feedback option {key!r} is given twice")
                kwargs[_FEEDBACK_KEYS[key]] = number
        return LocalFeedback(**kwargs)
    if text == "sweep":
        return GlobalSweep()
    if head == "const" and sep:
        try:
            p = float(rest)
        except ValueError:
            raise InvalidParameter(f"bad constant probability {rest!r}") from None
        return Constant(p)
    raise InvalidParameter(f"unknown policy {text!r}")
