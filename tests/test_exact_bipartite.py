"""The exact round-count law on complete bipartite graphs, as an oracle for the engine.

In K_{a,b} every node of a side hears the same thing: whether some node of
the other side beeped.  Under the default feedback rule both sides start at
1/2 and move together, so before the first join the whole graph shares one
exponent k (q = 2^-k) on the chain of ``test_exact``: both sides silent, with
(1-q)^(a+b), moves it down; both sides beeping moves it up.  When only side
A beeps, every beeper of A joins and all of B drops; the r silent nodes of A
are left isolated, heard silence, and so start one level down, max(k-1, 1),
and each joins at its first beep while climbing to the cap.  If y is the
chance that such a node is still active s rounds later, the chance that A
alone beeps and all of A is done within those s rounds is

    (1-q)^b · ((1 - (1-q)·y)^a - ((1-q)·(1-y))^a),

each node of A either beeping or staying silent and joining in time, less
the case where none of A beeps.  Summed over the join round, its level and
the side, that gives P(R <= t).  A global schedule gives the same law with
the schedule's p_t in place of the chain and y = ∏ (1 - p_u) over the rounds
after the join.

Stars are the extreme hub graphs, and a balanced K_{32,32} is the first
oracle whose runs reach the bottom-up heard test's rest scan under both
policies.  A rest scan finds a beeper only when the other side's beepers all
lie past the window, in a few rounds of hundreds of runs, too few to move the
law; so the runs are also checked round by round against the rule the law
rests on: a beeper joins exactly when no node of the other side beeped.
"""

from functools import lru_cache

import numpy as np
import pytest

from beepmis import GlobalSweep, Graph, LocalFeedback, run
from beepmis.seeding import stable_mix
from test_exact import KS_BOUND, LEVELS, MASTER_SEED, Z_BOUND, feedback_step

HORIZON = 400  # rounds summed; every tail below is checked to be < 1e-12

# A star, a lopsided and a balanced K_{a,b}; trials, seeds and bounds were
# fixed before the first run.
SIMULATED = ((1, 16), (2, 40), (32, 32))
TRIALS = 600
POLICIES = {"feedback": LocalFeedback(), "sweep": GlobalSweep()}


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: side A is nodes 0..a-1, side B nodes a..a+b-1."""
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def side_joins(q, a: int, b: int, y):
    """P(only the side of a nodes beeps, at q, and its silent nodes, each
    still active with probability y, are all done)."""
    return (1 - q) ** b * ((1 - (1 - q) * y) ** a - ((1 - q) * (1 - y)) ** a)


def either_side_joins(q, a: int, b: int, y):
    return side_joins(q, a, b, y) + side_joins(q, b, a, y)


def feedback_done(a: int, b: int) -> np.ndarray:
    """P(R <= t), t = 0..HORIZON, on K_{a,b} under default feedback."""
    k = np.arange(1, LEVELS + 1)
    q = 2.0 ** -k
    # y[k, s]: an isolated node left by a join at level k is still active
    # s rounds later; its u-th round beeps at 2^-max(k-1-u, 1).
    climb = np.maximum(k[:, None] - 1 - np.arange(HORIZON), 1)
    y = np.ones((LEVELS, HORIZON + 1))
    y[:, 1:] = np.cumprod(1 - 2.0 ** -climb, axis=1)
    joins = either_side_joins(q[:, None], a, b, y)
    silent = (1 - q) ** (a + b)
    collide = (1 - (1 - q) ** a) * (1 - (1 - q) ** b)
    mass = np.zeros(LEVELS)
    mass[0] = 1.0  # every node starts at 1/2
    done = np.zeros(HORIZON + 1)
    for t in range(1, HORIZON + 1):
        done[t:] += mass @ joins[:, :HORIZON + 1 - t]  # first join in round t
        mass = feedback_step(mass, silent, collide)
    return done


def schedule_done(policy, a: int, b: int) -> np.ndarray:
    """P(R <= t), t = 0..HORIZON, on K_{a,b} under a node-independent schedule."""
    state = policy.initial_state(a + b)
    p = np.zeros(HORIZON + 1)  # p[t] for round t
    for t in range(1, HORIZON + 1):
        p[t] = policy.uniform_probability(state)
        policy.end_round(state)
    t = np.arange(HORIZON + 1)
    # y[t1, t]: an isolated node left by a round-t1 join is still active after round t.
    y = np.cumprod(np.where(t > t[:, None], 1 - p, 1.0), axis=1)
    no_join = np.cumprod(np.concatenate([[1.0], 1 - either_side_joins(p[1:], a, b, 0.0)]))
    first_join_reached = np.concatenate([[0.0], no_join[:-1]])  # no join before round t1
    return first_join_reached @ np.triu(either_side_joins(p[:, None], a, b, y))


@lru_cache(maxsize=None)
def bipartite_done(policy: str, a: int, b: int) -> np.ndarray:
    done = feedback_done(a, b) if policy == "feedback" else schedule_done(POLICIES[policy], a, b)
    assert np.all(np.diff(done) >= -1e-15) and 1 - done[-1] < 1e-12
    return done


def bipartite_mean_rounds(policy: str, a: int, b: int) -> float:
    return float(np.sum(1 - bipartite_done(policy, a, b)))


def follows_side_rule(result, a: int, b: int) -> bool:
    """Whether a K_{a,b} run ended on a whole side, the only maximal
    independent sets, and in every round the joiners were exactly the beepers
    of a side whose other side stayed silent."""
    for outcome in result.trace:
        on_a = {v for v in outcome.beeped if v < a}
        on_b = outcome.beeped - on_a
        if outcome.joined_mis != (set() if on_b else on_a) | (set() if on_a else on_b):
            return False
    return result.terminated and result.mis in (frozenset(range(a)), frozenset(range(a, a + b)))


@pytest.fixture(scope="module")
def simulated():
    """{(policy, a, b): (round counts, seed indices of runs that broke the side
    rule)} over TRIALS runs at seeds stable_mix(MASTER_SEED, 1000a + b, s)."""
    results = {}
    for a, b in SIMULATED:
        g = complete_bipartite(a, b)
        for name, policy in POLICIES.items():
            rounds, broken = np.zeros(TRIALS, dtype=int), []
            for s in range(TRIALS):
                result = run(g, policy, stable_mix(MASTER_SEED, 1000 * a + b, s), keep_trace=True)
                rounds[s] = result.rounds
                if not follows_side_rule(result, a, b):
                    broken.append(s)
            results[name, a, b] = rounds, broken
    return results


def test_k11_matches_criterion_5_oracle():
    assert bipartite_mean_rounds("feedback", 1, 1) == pytest.approx(2.1249649065167778, abs=1e-12)


@pytest.mark.parametrize("policy, a, b, mean", [
    ("feedback", 1, 16, 6.4126), ("feedback", 2, 40, 8.6161), ("feedback", 32, 32, 14.2764),
    ("sweep", 1, 16, 4.7626), ("sweep", 2, 40, 6.3316), ("sweep", 32, 32, 21.9737),
])
def test_exact_bipartite_means(policy, a, b, mean):
    assert bipartite_mean_rounds(policy, a, b) == pytest.approx(mean, abs=5e-5)


def test_simulated_runs_follow_the_side_rule(simulated):
    # the rule the law rests on, round by round: a run whose heard test
    # misses a beeper in the rest of a row breaks it in that round
    broken = {key: seeds for key, (_, seeds) in simulated.items() if seeds}
    assert not broken


def test_simulated_bipartite_means_match_exact_law(simulated):
    z = {}
    for key, (rounds, _) in simulated.items():
        sem = rounds.std(ddof=1) / rounds.size ** 0.5
        z[key] = (rounds.mean() - bipartite_mean_rounds(*key)) / sem
    assert all(abs(score) <= Z_BOUND for score in z.values()), z


def test_simulated_bipartite_round_law_matches_exact_law(simulated):
    # Kolmogorov-Smirnov over the whole law: sqrt(N)·max_t |F_sim(t) - P(R <= t)|
    scores = {}
    for key, (rounds, _) in simulated.items():
        empirical = np.searchsorted(np.sort(rounds), np.arange(HORIZON + 1), side="right") / rounds.size
        scores[key] = rounds.size ** 0.5 * np.abs(empirical - bipartite_done(*key)).max()
    assert all(score <= KS_BOUND for score in scores.values()), scores
