"""Deterministic 64-bit seed derivation for experiment trials.

Every trial seed is a pure function of (master_seed, n, trial_index), so trial
workloads can be distributed in any order, or re-run individually, without
changing a single byte of output.  The graph sampler and the protocol run of
one trial use separately derived sub-seeds so their random streams never
overlap.
"""

from __future__ import annotations

from .errors import as_int

MASK64 = (1 << 64) - 1

# Salts for the per-trial sub-streams; arbitrary odd 64-bit constants.
_GRAPH_SALT = 0x9E2F_6E1B_35C9_A1D5
_RUN_SALT = 0x4CF5_AD43_2745_937F


def seed_word(value: int, label: str = "seed") -> int:
    """An integer seed (see :func:`~beepmis.errors.as_int`) taken mod 2^64, as a 64-bit word."""
    return as_int(value, label) & MASK64


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (public domain constants)."""
    x = (seed_word(x, "splitmix64 x") + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def stable_mix(master_seed: int, n: int, trial_index: int) -> int:
    """Per-trial seed: splitmix64 chained over the three inputs.

    stable_mix(m, n, t) = splitmix64(splitmix64(splitmix64(m) ^ n) ^ t),
    all words taken mod 2^64.  The chaining is asymmetric, so swapping n and
    t yields unrelated seeds.
    """
    h = splitmix64(seed_word(master_seed, "master_seed"))
    h = splitmix64(h ^ seed_word(n, "n"))
    return splitmix64(h ^ seed_word(trial_index, "trial_index"))


def graph_seed(trial_seed: int) -> int:
    """Sub-seed that drives random graph sampling for one trial."""
    return splitmix64(seed_word(trial_seed, "trial seed") ^ _GRAPH_SALT)


def run_seed(trial_seed: int) -> int:
    """Sub-seed that drives the protocol's beep draws for one trial."""
    return splitmix64(seed_word(trial_seed, "trial seed") ^ _RUN_SALT)
