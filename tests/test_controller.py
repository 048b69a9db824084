"""Per-bucket EMA controller dynamics, prefix selection, and the prefix pool."""

import math
import re
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from passband.controller import (
    BucketControllerState,
    ControllerParams,
    PrefixPool,
    PrefixRecord,
    initial_controller_state,
    prefix_pool_memory_bound,
    replay_boundary,
    select_prefix,
    update_controller,
)
from passband.env import TaskColumns, sample_rerollout_group
from passband.errors import ContractError, DomainError
from passband.groups import BucketKind, classify_bucket, controlled_buckets


HARD, EASY = BucketKind.HARD, BucketKind.EASY
PARAMS = ControllerParams()


def run_updates(state, observations, params=PARAMS):
    states = [state]
    for obs in observations:
        states.append(update_controller(states[-1], obs, params))
    return states


class TestControllerParams:
    def test_defaults(self):
        assert PARAMS.alpha == 0.05
        assert PARAMS.deadzone == 0.03
        assert PARAMS.step_size == 0.05
        assert PARAMS.ratio_min == 0.05
        assert PARAMS.ratio_max == 0.95
        assert PARAMS.cooldown == 5
        assert PARAMS.initial_ratio == 0.5
        assert PARAMS.target == 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            ControllerParams(alpha=0.0)
        with pytest.raises(DomainError):
            ControllerParams(ratio_min=0.9, ratio_max=0.1)
        with pytest.raises(DomainError):
            ControllerParams(cooldown=-1)
        with pytest.raises(DomainError):
            ControllerParams(initial_ratio=1.5)


class TestInitialState:
    def test_values(self):
        state = initial_controller_state(HARD, PARAMS)
        assert state.kind is HARD
        assert state.ratio == 0.5
        assert state.ema == 0.5
        assert state.cooldown_remaining == 0
        assert state.updates_seen == 0

    def test_balanced_rejected(self):
        with pytest.raises(ContractError):
            initial_controller_state(classify_bucket(4, 8), PARAMS)


class TestStateRecord:
    def test_fields_and_defaults(self):
        assert BucketControllerState._fields == (
            "kind", "ratio", "ema", "cooldown_remaining", "updates_seen"
        )
        assert BucketControllerState(HARD, 0.5, 0.5) == (HARD, 0.5, 0.5, 0, 0)

    def test_immutable_and_hashable(self):
        state = initial_controller_state(HARD, PARAMS)
        for field in BucketControllerState._fields:
            with pytest.raises(AttributeError):
                setattr(state, field, getattr(state, field))
        assert hash(state) == hash(initial_controller_state(HARD, PARAMS))

    def test_update_returns_exact_type(self):
        # Both branches: the ratio step re-arms the cooldown, which the
        # next update then counts down.
        state = BucketControllerState(kind=HARD, ratio=0.5, ema=0.9)
        for _ in range(2):
            state = update_controller(state, 1.0, PARAMS)
            assert type(state) is BucketControllerState
        assert state.cooldown_remaining == PARAMS.cooldown - 1

    def test_degenerate_buckets_rejected(self):
        # The balanced bucket is TestInitialState's case.
        for k in (0, 8):
            with pytest.raises(ContractError):
                initial_controller_state(classify_bucket(k, 8), PARAMS)


class TestEmaDynamics:
    def test_single_update_formula(self):
        state = initial_controller_state(HARD, PARAMS)
        nxt = update_controller(state, 1.0, PARAMS)
        assert_allclose(nxt.ema, 0.95 * 0.5 + 0.05 * 1.0, rtol=1e-15)
        assert nxt.updates_seen == 1

    def test_contraction_towards_constant_input(self):
        states = run_updates(initial_controller_state(HARD, PARAMS), [0.8] * 200)
        gaps = [abs(s.ema - 0.8) for s in states]
        assert gaps[-1] < 1e-4
        # Gap shrinks by (1 - alpha) per update, up to rounding of the
        # update itself once the gap nears machine epsilon.
        for a, b in zip(gaps, gaps[1:]):
            assert_allclose(b, 0.95 * a, rtol=1e-12, atol=1e-15)

    def test_half_crossing_update_count(self):
        # From ema 1.0 with constant 0.0 input: ema after u updates is 0.95^u.
        # 0.95^13 > 0.5 > 0.95^14, so the half line is crossed at update 14.
        assert 0.95**13 == 0.5133420832795048
        assert 0.95**14 == 0.48767497911552954
        states = run_updates(
            BucketControllerState(kind=HARD, ratio=0.5, ema=1.0), [0.0] * 20
        )
        below = [i for i, s in enumerate(states) if s.ema < 0.5]
        assert below[0] == 14


class TestRatioSteps:
    def test_deadzone_is_fixed_point(self):
        # Inputs inside target +- deadzone never move the ratio.
        state = initial_controller_state(HARD, PARAMS)
        for obs in (0.5, 0.52, 0.48, 0.529, 0.471):
            state = update_controller(state, obs, PARAMS)
            assert state.ratio == 0.5
            assert state.cooldown_remaining == 0

    def test_hard_lowers_ratio_when_passing_too_often(self):
        state = initial_controller_state(HARD, PARAMS)
        nxt = update_controller(state, 1.0, PARAMS)
        # ema jumps to 0.525 < 0.53: still inside the deadzone.
        assert nxt.ratio == 0.5
        nxt = update_controller(nxt, 1.0, PARAMS)
        # ema now 0.54875 > 0.53: hard bucket lowers the replay share.
        assert_allclose(nxt.ratio, 0.45, rtol=1e-15)
        assert nxt.cooldown_remaining == PARAMS.cooldown

    def test_hard_raises_ratio_when_failing_too_often(self):
        state = BucketControllerState(kind=HARD, ratio=0.5, ema=0.4)
        nxt = update_controller(state, 0.0, PARAMS)
        assert_allclose(nxt.ratio, 0.55, rtol=1e-15)

    def test_easy_direction_inverted(self):
        high = BucketControllerState(kind=EASY, ratio=0.5, ema=0.6)
        nxt = update_controller(high, 1.0, PARAMS)
        assert_allclose(nxt.ratio, 0.55, rtol=1e-15)
        low = BucketControllerState(kind=EASY, ratio=0.5, ema=0.4)
        nxt = update_controller(low, 0.0, PARAMS)
        assert_allclose(nxt.ratio, 0.45, rtol=1e-15)

    def test_cooldown_blocks_consecutive_steps(self):
        state = BucketControllerState(kind=HARD, ratio=0.5, ema=0.9)
        states = run_updates(state, [1.0] * 12)
        changes = [
            i
            for i, (a, b) in enumerate(zip(states, states[1:]), start=1)
            if a.ratio != b.ratio
        ]
        # At least cooldown + 1 updates between consecutive changes.
        assert changes, "expected at least one ratio change"
        for a, b in zip(changes, changes[1:]):
            assert b - a >= PARAMS.cooldown + 1

    def test_cooldown_counts_down(self):
        state = BucketControllerState(kind=HARD, ratio=0.5, ema=0.9)
        nxt = update_controller(state, 1.0, PARAMS)
        assert nxt.cooldown_remaining == 5
        for expected in (4, 3, 2, 1, 0):
            nxt = update_controller(nxt, 1.0, PARAMS)
            assert nxt.cooldown_remaining == expected
            # Ratio frozen while cooling down.
        states = run_updates(state, [1.0] * 6)
        assert states[1].ratio == states[6].ratio

    def test_clamp_to_lower_bound(self):
        state = BucketControllerState(kind=HARD, ratio=0.07, ema=0.9)
        nxt = update_controller(state, 1.0, PARAMS)
        assert nxt.ratio == PARAMS.ratio_min
        assert nxt.cooldown_remaining == PARAMS.cooldown

    def test_at_bound_no_cooldown_rearm(self):
        # Already clamped: the step is a no-op and must not re-arm cooldown.
        state = BucketControllerState(kind=HARD, ratio=PARAMS.ratio_min, ema=0.9)
        nxt = update_controller(state, 1.0, PARAMS)
        assert nxt.ratio == PARAMS.ratio_min
        assert nxt.cooldown_remaining == 0

    def test_step_size_zero_freezes_ratio(self):
        params = ControllerParams(step_size=0.0)
        state = BucketControllerState(kind=HARD, ratio=0.3, ema=0.9)
        states = run_updates(state, [1.0, 0.0] * 20, params)
        assert all(s.ratio == 0.3 for s in states)
        # EMA still tracks the inputs.
        assert states[-1].ema != 0.9

    def test_observation_domain(self):
        state = initial_controller_state(HARD, PARAMS)
        with pytest.raises(DomainError):
            update_controller(state, 1.2, PARAMS)
        with pytest.raises(DomainError):
            update_controller(state, -0.1, PARAMS)


def replace_update(state, observed_pass_rate, params):
    """The controller update written with _replace, as a reference."""
    ema = (1.0 - params.alpha) * state.ema + params.alpha * observed_pass_rate
    updates = state.updates_seen + 1
    if state.cooldown_remaining > 0:
        return state._replace(
            ema=ema,
            cooldown_remaining=state.cooldown_remaining - 1,
            updates_seen=updates,
        )
    direction = 0
    if ema > params.target + params.deadzone:
        direction = -1 if state.kind is BucketKind.HARD else +1
    elif ema < params.target - params.deadzone:
        direction = +1 if state.kind is BucketKind.HARD else -1
    ratio = min(
        params.ratio_max,
        max(params.ratio_min, state.ratio + direction * params.step_size),
    )
    cooldown = params.cooldown if ratio != state.ratio else 0
    return state._replace(
        ratio=ratio, ema=ema, cooldown_remaining=cooldown, updates_seen=updates
    )


unit = st.floats(0.0, 1.0)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
controlled = st.sampled_from((HARD, EASY))


@st.composite
def controller_params(draw, max_cooldown=10**6) -> ControllerParams:
    ratio_min = draw(open_unit)
    ratio_max = draw(st.floats(ratio_min, 1.0, exclude_max=True))
    return ControllerParams(
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
        deadzone=draw(st.floats(0.0, 0.5, exclude_max=True)),
        step_size=draw(st.floats(0.0, 1.0)),
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        cooldown=draw(st.integers(0, max_cooldown)),
        initial_ratio=draw(st.floats(ratio_min, ratio_max)),
        target=draw(open_unit),
    )


@st.composite
def states_and_params(draw):
    params = draw(controller_params())
    state = BucketControllerState(
        draw(controlled),
        # A hand-built ratio may lie outside the bounds; the update clamps it
        # on every path but the cooldown, even when the ratio does not move.
        draw(st.one_of(st.floats(params.ratio_min, params.ratio_max), unit)),
        draw(unit),
        draw(st.integers(0, 10**6)),
        draw(st.integers(0, 2**63)),
    )
    return state, params


class TestUpdateProperties:
    @given(states_and_params(), unit)
    @example((BucketControllerState(HARD, 0.99, 0.5), PARAMS), 0.5)
    @example((BucketControllerState(EASY, 0.01, 0.5), PARAMS), 0.5)
    @example((BucketControllerState(HARD, 0.99, 0.5, 2, 7), PARAMS), 1.0)
    def test_matches_replace_reference(self, state_params, observation):
        state, params = state_params
        got = update_controller(state, observation, params)
        want = replace_update(state, observation, params)
        assert type(got) is BucketControllerState
        for field in BucketControllerState._fields:
            a, b = getattr(got, field), getattr(want, field)
            assert type(a) is type(b), field
            # Floats compare exactly: the update must round as the reference.
            assert a == b, field

    @given(
        controller_params(max_cooldown=10),
        controlled,
        st.lists(unit, max_size=200),
    )
    @example(PARAMS, HARD, [1.0] * 40)
    def test_bounds_and_cooldown_spacing(self, params, kind, observations):
        states = run_updates(initial_controller_state(kind, params), observations, params)
        changes = []
        for update, (old, new) in enumerate(zip(states, states[1:]), start=1):
            assert params.ratio_min <= new.ratio <= params.ratio_max
            assert new.updates_seen == update
            if new.ratio != old.ratio:
                changes.append(update)
        for a, b in zip(changes, changes[1:]):
            assert b - a >= params.cooldown + 1


class TestPrefixRecord:
    def test_contracts(self):
        # sample_rerollout_group knows the group size, so it checks that a
        # record's source bucket is controlled; that bucket sets the outcome.
        tasks = TaskColumns(
            task_id=np.array(["t"], object),
            uid=np.array([zlib.crc32(b"t")], np.uint64),
            base_logit=np.zeros(1),
            prefix_sensitivity=np.array([3.0]),
            length_range=np.array([[4, 8]]),
        )

        def rerollout(source_bucket, length=3, n=8):
            record = PrefixRecord(0, source_bucket, length)
            return sample_rerollout_group(tasks, record, 1, n, rng_seed=0)

        assert rerollout(1).parent_bucket == 1
        assert rerollout(7).parent_bucket == 7
        assert rerollout(3, n=12).parent_bucket == 3
        for source_bucket, kind in (
            (4, "balanced"), (3, "balanced"), (0, "degenerate"), (8, "degenerate")
        ):
            with pytest.raises(ContractError, match=f"bucket {source_bucket}/8 is {kind} "):
                rerollout(source_bucket)
        # An empty prefix admits no boundary 1 <= m < 0.
        with pytest.raises(ContractError):
            rerollout(1, length=0)
        for source_bucket in (-1, 9, 1.5):
            with pytest.raises(DomainError):
                rerollout(source_bucket)

    def test_length(self):
        rec = PrefixRecord(task_row=0, source_bucket=1, length=4)
        assert rec.length == 4
        assert PrefixRecord._fields == ("task_row", "source_bucket", "length")


def select_one(rewards, base=3):
    """select_prefix's saves, as (key, length) pairs, of one fresh group of
    step 0 whose rollout i has length base + i, so a save's length tells
    which rollout was picked."""
    lengths = base + np.arange(len(rewards), dtype=np.int64)
    return list(select_prefix([0], [0], np.array([rewards]) == 1, lengths[None]).items())


class TestSelectPrefix:
    def test_hard_picks_first_success(self):
        rewards = [0, 0, 1, 0, 0, 1, 0, 0]
        [((_, _, k), length)] = select_one(rewards)
        assert length == 3 + 2
        assert rewards[length - 3] == 1
        assert k == 2

    def test_easy_picks_first_failure(self):
        rewards = [1, 1, 1, 0, 1, 1, 1, 1]
        [((_, _, k), length)] = select_one(rewards, base=4)
        assert length == 4 + 3
        assert rewards[length - 4] == 0
        assert k == 7

    @pytest.mark.parametrize(
        "rewards",
        [[1, 1, 1, 1, 0, 0, 0, 0], [1] * 8, [0] * 8],
        ids=["balanced", "all-pass", "all-fail"],
    )
    def test_balanced_and_degenerate_save_nothing(self, rewards):
        assert select_one(rewards) == []

    @pytest.mark.parametrize("count", [7, 9])
    @pytest.mark.parametrize("rewards", [(1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1)])
    def test_rollout_count_must_match_group(self, rewards, count):
        # One length per reward: lengths of too few rollouts must not pick
        # from the wrong one or fail on an index, and too many must not be cut.
        lengths = 3 + np.arange(count, dtype=np.int64)[None]
        want = (
            rf"need 1 steps, 1 task rows and lengths of shape \(1, 8\), "
            rf"got 1, 1 and \(1, {count}\)"
        )
        with pytest.raises(ContractError, match=want):
            select_prefix([0], [0], np.array([rewards]) == 1, lengths)

    def test_task_count_must_match_groups(self):
        rewards = np.zeros((2, 8), bool)
        lengths = np.full((2, 8), 3, np.int64)
        want = r"need 2 steps, 2 task rows and lengths of shape \(2, 8\), got 2, 1 and \(2, 8\)"
        with pytest.raises(ContractError, match=want):
            select_prefix([0, 0], [0], rewards, lengths)
        # A step per group, too.
        with pytest.raises(ContractError, match=r"got 1, 2 and \(2, 8\)"):
            select_prefix([0], [0, 1], rewards, lengths)

    @pytest.mark.parametrize(
        "steps, task_rows, got",
        [
            (5, [0], r"got shape \(\), 1 and \(1, 8\)"),
            ([0], np.int64(3), r"got 1, shape \(\) and \(1, 8\)"),
            ([[0]], [0], r"got shape \(1, 1\), 1 and \(1, 8\)"),
            ([0], [[0]], r"got 1, shape \(1, 1\) and \(1, 8\)"),
        ],
        ids=["scalar-steps", "scalar-task-rows", "2d-steps", "2d-task-rows"],
    )
    def test_keys_must_be_flat(self, steps, task_rows, got):
        # A scalar failed with len()'s bare TypeError; a (G, 1) column made
        # list keys, which a dict cannot hold.
        rewards = np.array([[1, 0, 0, 0, 0, 0, 0, 0]])
        lengths = np.full((1, 8), 3, np.int64)
        want = r"need 1 steps, 1 task rows and lengths of shape \(1, 8\), " + got
        with pytest.raises(ContractError, match=want):
            select_prefix(steps, task_rows, rewards, lengths)

    @pytest.mark.parametrize("rewards", [[1, 0, 0, 0, 0, 0, 0, 0], [[[1, 0, 0, 0]]]])
    def test_rewards_must_be_a_matrix(self, rewards):
        # One group's rewards are a (1, N) row, not a flat sequence.
        lengths = np.full((1, 8), 3, np.int64)
        with pytest.raises(ContractError, match=r"rewards must be \(G, N\)"):
            select_prefix([0], [0], rewards, lengths)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_rewards_must_be_binary(self, bad):
        # A reward other than 0 and 1 would count into the pass count.
        lengths = np.full((1, 8), 3, np.int64)
        with pytest.raises(DomainError, match="rewards must be binary"):
            select_prefix([0], [0], [[bad, 0, 0, 0, 0, 0, 0, 0]], lengths)

    @pytest.mark.parametrize(
        "steps, task_rows, lengths, what",
        [
            ([0.5], [0], np.full((1, 8), 3), "steps"),
            ([True], [0], np.full((1, 8), 3), "steps"),
            ([0], [2.7], np.full((1, 8), 3), "task rows"),
            ([0], np.array([True]), np.full((1, 8), 3), "task rows"),
            ([0], [0], np.full((1, 8), 3.5), "lengths"),
            ([0], [0], [[True] + [3] * 7], "lengths"),
        ],
        ids=["float-step", "bool-step", "float-row", "bool-row", "float-length", "bool-length"],
    )
    def test_keys_and_lengths_are_ints(self, steps, task_rows, lengths, what):
        # A float step, task row or length used to come back in the key or as
        # the length ({(0.5, 2.7, 1): 3.5}), and a bool step as True.
        rewards = np.array([[1, 0, 0, 0, 0, 0, 0, 0]]) == 1
        with pytest.raises(DomainError, match=f"^{what} must be integers"):
            select_prefix(steps, task_rows, rewards, lengths)

    def test_binary_rewards_of_any_dtype(self):
        # A bool array is binary by construction; any other dtype may hold 0 and 1.
        lengths = 3 + np.arange(8, dtype=np.int64)[None]
        want = {(4, 0, 1): 4}
        for dtype in (bool, np.int8, np.int64, float):
            rewards = np.array([[0, 1, 0, 0, 0, 0, 0, 0]], dtype)
            assert select_prefix([4], [0], rewards, lengths) == want
        assert select_prefix([4], [0], [[0, 1, 0, 0, 0, 0, 0, 0]], lengths) == want


class TestPrefixRecords:
    """A block's saves are those of its groups taken one at a time."""

    @given(
        rewards=st.lists(
            st.lists(st.booleans(), min_size=8, max_size=8), min_size=0, max_size=12
        ),
        lengths=st.lists(st.integers(1, 5), min_size=96, max_size=96),
        easy=st.booleans(),
    )
    def test_step_equals_groups_of_one(self, rewards, lengths, easy):
        kinds = (BucketKind.HARD, BucketKind.EASY) if easy else (BucketKind.HARD,)
        rewards = np.array(rewards, dtype=bool).reshape(-1, 8)
        lengths = np.array(lengths[: rewards.size], np.int64).reshape(-1, 8)
        # Rows and steps as the loop passes them: int64 arrays, repeats allowed.
        task_rows = 5 * np.arange(len(rewards), dtype=np.int64) % 7
        steps = np.arange(len(rewards), dtype=np.int64) // 3
        want = {}
        for j, row in enumerate(rewards):
            want.update(select_prefix(
                steps[j:j + 1], task_rows[j:j + 1], row[None], lengths[j:j + 1], kinds
            ))
        got = select_prefix(steps, task_rows, rewards, lengths, kinds)
        assert list(got.items()) == list(want.items())
        for (step, task_row, k), length in got.items():
            assert all(type(value) is int for value in (step, task_row, k, length))
            assert classify_bucket(k, 8) in kinds

    def test_only_controlled_kinds_save(self):
        rewards = np.array([[True] * 4 + [False] * 4])
        lengths = np.full((1, 8), 3, np.int64)
        with pytest.raises(ContractError, match="only hard and easy buckets"):
            select_prefix([0], [0], rewards, lengths, (BucketKind.BALANCED,))

    @given(
        half=st.integers(2, 8),
        rows=st.lists(st.integers(0, 2**16 - 1), max_size=12),
    )
    def test_outcome_follows_source_bucket(self, half, rows):
        # A saved rollout passed exactly for hard buckets, and only controlled
        # buckets save. Rollout r = j * n + i has length r + 2.
        n = 2 * half
        rewards = (np.array(rows, np.int64)[:, None] >> np.arange(n) & 1).astype(bool)
        lengths = np.arange(len(rows) * n, dtype=np.int64).reshape(-1, n) + 2
        saved = select_prefix([0] * len(rows), list(range(len(rows))), rewards, lengths)
        for (step, task_row, k), length in saved.items():
            assert step == 0
            assert k in controlled_buckets(n)
            r = length - 2
            assert r // n == task_row
            assert rewards.ravel()[r] == (classify_bucket(k, n) is BucketKind.HARD)


class TestReplayBoundary:
    def test_examples(self):
        assert replay_boundary(0.5, 10) == 5
        assert replay_boundary(0.5, 7) == 3
        assert replay_boundary(0.05, 4) == 1
        assert replay_boundary(0.95, 10) == 9

    def test_clamped_into_interior(self):
        for length in range(2, 30):
            for ratio in (0.0, 0.01, 0.05, 0.5, 0.95, 0.99, 1.0):
                m = replay_boundary(ratio, length)
                assert 1 <= m <= length - 1

    @given(
        ratio=st.floats(0.0, 1.0),
        length=st.one_of(st.integers(2, 64), st.integers(2, 2**40)),
    )
    @example(ratio=0.0, length=2)
    @example(ratio=1.0, length=2)
    @example(ratio=1.0, length=2**40)
    def test_interior_property(self, ratio, length):
        assert 1 <= replay_boundary(ratio, length) <= length - 1

    @given(
        ratio=st.floats(0.0, 1.0),
        length=st.one_of(st.integers(2, 64), st.integers(2, 2**31 - 1)),
        kind=st.sampled_from([int, np.int64, np.uint64, np.int32]),
    )
    @example(ratio=1.0, length=2, kind=np.int32)
    @example(ratio=1.0, length=2**62, kind=np.uint64)
    def test_equals_clamped_floor(self, ratio, length, kind):
        # The compare clamp gives min(T - 1, max(1, floor(r T))) for Python
        # and numpy ints alike.
        t = kind(length)
        assert replay_boundary(ratio, t) == min(t - 1, max(1, math.floor(ratio * t)))

    def test_lengths_below_two_rejected(self):
        # No boundary keeps both a replayed and a fresh step: 1 <= m < T is empty.
        for length in (0, 1):
            for ratio in (0.0, 0.5, 1.0):
                with pytest.raises(DomainError, match=f"length must be >= 2, got {length}$"):
                    replay_boundary(ratio, length)

    def test_domain(self):
        with pytest.raises(DomainError):
            replay_boundary(0.5, 0)
        with pytest.raises(DomainError):
            replay_boundary(1.5, 10)

    @pytest.mark.parametrize(
        "length", [3.5, 10.0, np.float64(4.0), True, "8", None, False, np.bool_(True)]
    )
    def test_non_int_length_rejected(self, length):
        # A float length gave a boundary that is no step count: 0.9 * 3.5 -> 2.5.
        want = re.escape(f"length must be an int, got {length!r}") + "$"
        with pytest.raises(DomainError, match=want):
            replay_boundary(0.9, length)
        assert replay_boundary(0.9, np.int64(4)) == 3


class TestMemoryBound:
    def test_reference_cases(self):
        mib = 1024 * 1024
        # batch * (prompt + 0.95 * response) * 4 bytes, exact by construction.
        assert_allclose(prefix_pool_memory_bound(64, 512, 2048) / mib, 0.6, rtol=1e-12)
        assert_allclose(
            prefix_pool_memory_bound(128, 2048, 16384) / mib, 8.6, atol=0.05
        )
        assert_allclose(
            prefix_pool_memory_bound(64, 4096, 32768) / mib, 8.6, atol=0.05
        )
        assert_allclose(
            prefix_pool_memory_bound(64, 4096, 65536) / mib, 16.2, atol=0.05
        )

    def test_zero_batch(self):
        assert prefix_pool_memory_bound(0, 512, 2048) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError, match=r"^batch_size must be an int >= 0, got -1$"):
            prefix_pool_memory_bound(-1, 512, 2048)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("value", [1.5, True, "a", None])
    def test_sizes_must_be_ints(self, position, value):
        # 1.5 and True were sized as numbers (29.1 and 19.4 bytes for 2 and
        # 3), and "a" failed with a bare TypeError.
        args = [1, 2, 3]
        args[position] = value
        name = ("batch_size", "max_prompt", "max_response")[position]
        want = re.escape(f"{name} must be an int >= 0, got {value!r}") + "$"
        with pytest.raises(DomainError, match=f"^{want}"):
            prefix_pool_memory_bound(*args)


class TestPrefixPool:
    def _record(self, task_row, bucket=1, length=2):
        return PrefixRecord(task_row=task_row, source_bucket=bucket, length=length)

    def test_save_and_drain(self):
        pool = PrefixPool()
        pool.save(self._record(3))
        pool.save(self._record(0, 2))
        assert len(pool) == 2
        drained = pool.drain()
        assert [r.task_row for r in drained] == [3, 0]
        assert len(pool) == 0
        assert pool.drain() == []

    def test_newest_wins(self):
        pool = PrefixPool()
        pool.save(self._record(0, length=1))
        pool.save(self._record(0, length=2))
        assert len(pool) == 1
        assert pool.drain()[0].length == 2

    def test_same_task_different_bucket_kept_separately(self):
        pool = PrefixPool()
        pool.save(self._record(0, 1))
        pool.save(self._record(0, 2))
        assert len(pool) == 2
