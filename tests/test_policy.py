import numpy as np
import pytest
from hypothesis import given, strategies as st

from beepmis import (
    Constant,
    GlobalSweep,
    Graph,
    InvalidParameter,
    LocalFeedback,
    engine,
    parse_policy,
    sweep_phase_position,
)

from conftest import BEEP, SILENT, scripted_round


def sweep_schedule_oracle(steps):
    """Direct simulation of the phase description: phase k has k+1 steps,
    probability 1 at the phase start, halved on each following step."""
    out = []
    k = 1
    while len(out) < steps:
        p = 1.0
        for _ in range(k + 1):
            out.append(p)
            if len(out) == steps:
                break
            p /= 2
        k += 1
    return out


GOLDEN_20 = [
    1, 1 / 2,
    1, 1 / 2, 1 / 4,
    1, 1 / 2, 1 / 4, 1 / 8,
    1, 1 / 2, 1 / 4, 1 / 8, 1 / 16,
    1, 1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32,
]


class TestGlobalSweep:
    def collect(self, steps):
        policy = GlobalSweep()
        state = policy.initial_state(4)
        values = []
        for _ in range(steps):
            values.append(policy.uniform_probability(state))
            policy.end_round(state)
        return values

    def test_golden_schedule_20(self):
        values = self.collect(20)
        assert values == GOLDEN_20
        assert values == sweep_schedule_oracle(20)
        assert values[:5] == [1, 1 / 2, 1, 1 / 2, 1 / 4]

    def test_step_10_starts_phase_4(self):
        assert sweep_phase_position(10) == (4, 0)
        policy = GlobalSweep()
        state = policy.initial_state(1)
        state.step = 10
        assert policy.uniform_probability(state) == 1.0

    def test_closed_form_matches_oracle(self):
        oracle = sweep_schedule_oracle(300)
        assert self.collect(300) == oracle

    def test_advance_examples(self):
        policy = GlobalSweep()
        state = policy.initial_state(1)
        state.step = 2
        policy.end_round(state)
        assert state.step == 3 and policy.uniform_probability(state) == 1.0
        state.step = 5
        policy.end_round(state)
        assert state.step == 6 and policy.uniform_probability(state) == 1.0

    def test_node_independent(self):
        policy = GlobalSweep()
        state = policy.initial_state(7)
        state.step = 13
        assert policy.uniform_probability(state) == policy.at(13)

    def test_phase_starts_are_triangular(self):
        for k in range(1, 30):
            start = k * (k + 1) // 2
            assert sweep_phase_position(start) == (k, 0)
            assert sweep_phase_position(start + k) == (k, k)

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidParameter):
            sweep_phase_position(0)


def scalar_rule(p, heard, factor, cap):
    """The feedback rule on one probability, in Python floats."""
    return max(p / factor, 2.0 ** -64) if heard else min(p * factor, cap)


class TestLocalFeedback:
    def test_fresh_probability_is_half(self):
        policy = LocalFeedback()
        state = policy.initial_state(5)
        assert all(state[v] == 0.5 for v in range(5))
        assert state.tolist() == [0.5] * 5

    def test_floor_at_one(self):
        policy = LocalFeedback()
        state = policy.initial_state(1)
        state = policy.adjust(state, np.array([False]))
        assert state[0] == 0.5

    def test_heard_increments(self):
        policy = LocalFeedback()
        state = policy.initial_state(1)
        state = policy.adjust(state, np.array([True]))
        assert state[0] == 0.25
        assert state.tolist() == [0.25]

    def test_silence_decrements(self):
        policy = LocalFeedback()
        state = policy.initial_state(1)
        state[0] = 0.125
        state = policy.adjust(state, np.array([False]))
        assert state[0] == 0.25
        assert state.tolist() == [0.25]

    @given(st.lists(st.booleans(), max_size=60))
    def test_exponent_trajectory(self, heard_sequence):
        # the float rule equals the integer-exponent rule p = 2^-e: e starts
        # at 1, goes up 1 on a beep, down 1 on silence, but not below 1
        policy = LocalFeedback()
        state = policy.initial_state(1)
        e = 1
        for heard in heard_sequence:
            state = policy.adjust(state, np.array([heard]))
            e = e + 1 if heard else max(e - 1, 1)
            assert state[0] == 2.0 ** -e
            assert 0.0 < state[0] <= 0.5

    def test_default_floor(self):
        policy = LocalFeedback()
        state = policy.initial_state(1)
        for _ in range(100):
            state = policy.adjust(state, np.array([True]))
        assert state[0] == 2.0 ** -64
        state = policy.adjust(state, np.array([False]))
        assert state[0] == 2.0 ** -63

    def test_round_adjusts_every_node_of_the_round(self):
        # K_2 on {0, 1} collides, 2 joins alone and drops its neighbour 3, 4
        # is silent: the colliders and 3 halve, 2 stays at the cap, 4 doubles
        g = Graph(5, [(0, 1), (2, 3)])
        state = engine._new_state(g, LocalFeedback())
        state.policy_state[[3, 4]] = 0.125
        scripted_round(state, g, [BEEP, BEEP, BEEP, SILENT, SILENT])
        assert state.active.tolist() == [0, 1, 4]
        assert state.policy_state.tolist() == [0.25, 0.25, 0.5, 0.0625, 0.25]

    def test_generalized_factor(self):
        policy = LocalFeedback(factor=3.0, initial=0.3, cap=0.4)
        state = policy.initial_state(1)
        assert state[0] == 0.3
        state = policy.adjust(state, np.array([True]))
        assert state[0] == pytest.approx(0.1)
        state = policy.adjust(state, np.array([False]))
        assert state[0] == pytest.approx(0.3)
        state = policy.adjust(state, np.array([False]))
        assert state[0] == 0.4  # capped

    def test_generalized_floor(self):
        policy = LocalFeedback(factor=4.0, initial=0.25, cap=0.5)
        state = policy.initial_state(1)
        for _ in range(100):
            state = policy.adjust(state, np.array([True]))
        assert state[0] >= 2.0**-64

    @given(st.data(), st.floats(min_value=1.0, exclude_min=True, allow_nan=False),
           st.floats(min_value=2.0 ** -64, max_value=1.0, exclude_max=True))
    def test_adjust_equals_scalar_rule(self, data, factor, cap):
        # bit for bit: each element goes through the same two IEEE operations
        size = data.draw(st.integers(min_value=0, max_value=20))
        p = data.draw(st.lists(st.floats(min_value=2.0 ** -64, max_value=cap),
                               min_size=size, max_size=size))
        heard = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        p_array = np.array(p, dtype=float)
        got = LocalFeedback(factor, cap, cap).adjust(p_array, np.array(heard, dtype=bool))
        want = [scalar_rule(x, h, factor, cap) for x, h in zip(p, heard)]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
        assert p_array.tolist() == p  # pure: the input is left as it was

    def test_rejects_bad_config(self):
        with pytest.raises(InvalidParameter):
            LocalFeedback(factor=1.0)
        with pytest.raises(InvalidParameter):
            LocalFeedback(initial=0.0)
        with pytest.raises(InvalidParameter):
            LocalFeedback(initial=0.6, cap=0.5)
        with pytest.raises(InvalidParameter):
            LocalFeedback(cap=1.0)
        # below the 2^-64 floor, hearing a beep would raise the probability
        with pytest.raises(InvalidParameter):
            LocalFeedback(initial=1e-30)
        assert LocalFeedback(initial=2.0 ** -64).initial == 2.0 ** -64


class TestConstant:
    def test_fixed_probability(self):
        policy = Constant(0.3)
        state = policy.initial_state(3)
        assert policy.uniform_probability(state) == 0.3

    def test_rejects_zero_and_above_one(self):
        with pytest.raises(InvalidParameter):
            Constant(0.0)
        with pytest.raises(InvalidParameter):
            Constant(1.5)
        Constant(1.0)  # boundary allowed


class TestParsePolicy:
    def test_feedback_default(self):
        policy = parse_policy("feedback")
        assert isinstance(policy, LocalFeedback)
        assert policy.name == "feedback"

    def test_feedback_options(self):
        policy = parse_policy("feedback:f=2.5,init=0.4,cap=0.45")
        assert policy.factor == 2.5
        assert policy.initial == 0.4
        assert policy.cap == 0.45
        assert policy.name == "feedback:f=2.5,init=0.4,cap=0.45"

    def test_sweep(self):
        assert isinstance(parse_policy("sweep"), GlobalSweep)

    def test_const(self):
        policy = parse_policy("const:0.3")
        assert isinstance(policy, Constant)
        assert policy.probability == 0.3
        assert policy.name == "const:0.3"

    def test_rejects_unknown(self):
        for bad in ("bogus", "const:", "const:x", "feedback:f", "feedback:q=2", "feedback:f=x",
                    "const:0.0"):
            with pytest.raises(InvalidParameter):
                parse_policy(bad)

    def test_rejects_repeated_feedback_key(self):
        # a repeated key used to let the last value win silently
        for bad in ("feedback:f=2,f=3", "feedback:cap=0.4,init=0.2,cap=0.3"):
            with pytest.raises(InvalidParameter, match="given twice"):
                parse_policy(bad)


class TestPolicyNames:
    def test_names_in_use_unchanged(self):
        for text, name in (("const:0.5", "const:0.5"), ("const:0.50", "const:0.5"),
                           ("const:1.0", "const:1"), ("feedback:f=2,init=0.5", "feedback"),
                           ("feedback:f=3,init=0.3,cap=0.4", "feedback:f=3,init=0.3,cap=0.4")):
            assert parse_policy(text).name == name

    def test_names_are_exact(self):
        # six significant digits would make both of these const:0.123457
        assert parse_policy("const:0.1234567").name == "const:0.1234567"
        assert parse_policy("const:0.1234568").name == "const:0.1234568"
        assert parse_policy("feedback:f=2.0000001").name == "feedback:f=2.0000001,init=0.5,cap=0.5"

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_const_name_reads_back(self, p):
        assert parse_policy(Constant(p).name).probability == p

    @given(st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
           st.floats(min_value=2.0 ** -64, max_value=0.5))
    def test_feedback_name_reads_back(self, factor, initial):
        policy = LocalFeedback(factor, initial, 0.5)
        again = parse_policy(policy.name)
        assert (again.factor, again.initial, again.cap) == (factor, initial, 0.5)
