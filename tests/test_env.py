"""Synthetic task environment: determinism, distributions, and replay fidelity."""

import zlib
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit, logit
from scipy.stats import beta, binom, chisquare

from passband import env
from passband.controller import PrefixOutcome, PrefixRecord, select_prefix
from passband.env import (
    _PURPOSE_FRESH,
    _PURPOSE_REROLLOUT,
    PopulationSpec,
    TaskColumns,
    _key_hash,
    _words,
    conditioned_pass_probability,
    draw_fresh_groups,
    draw_rerollout_groups,
    draw_step_ids,
    make_task_population,
    rollout_rewards,
    sample_fresh_group,
    sample_rerollout_group,
    stream_integer_rows,
    stream_uniforms,
)
from passband.errors import ContractError, DomainError
from passband.groups import BucketKind, classify_bucket
from passband.harness import _TASK_STREAM


def same_float(a: float, b: float) -> bool:
    """Equal bits as float64 (so -0.0 is not 0.0), or both nan."""
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (a != a and b != b)


def rollout_steps(sample):
    """Each rollout's drawn step ids, cut from the sample's flat steps:
    rollout i drew lengths[i] - boundary of them."""
    drawn = [length - sample.boundary for length in sample.lengths]
    return [sample.steps[end - length:end] for end, length in zip(accumulate(drawn), drawn)]


def rollouts(sample):
    """(step ids, reward) of every rollout of a sample."""
    return list(zip(rollout_steps(sample), sample.rewards))


def step_groups(draws):
    """Every group of a step's heads as a (lengths, steps, uniforms) tuple;
    one draw_step_ids call draws all groups' step ids, back to back."""
    steps = draw_step_ids(draws.keys, draws.lengths).tolist()
    ends = list(accumulate(draws.lengths.sum(axis=1).tolist(), initial=0))
    return [
        (tuple(lengths), tuple(steps[start:end]), tuple(uniforms))
        for lengths, uniforms, start, end in zip(
            draws.lengths.tolist(), draws.uniforms.tolist(), ends, ends[1:]
        )
    ]


def completed(draw, p):
    """(step ids, reward) of every rollout of a (lengths, steps, uniforms)
    draw, each outcome decided at p."""
    lengths, steps, uniforms = draw
    ends = accumulate(lengths)
    return [
        (steps[end - length:end], int(u < p))
        for end, length, u in zip(ends, lengths, uniforms)
    ]


# A pure-Python SplitMix64 reference of the generator, in Python ints.
MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def ref_mix(x):
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK64
    return x ^ (x >> 31)


def ref_hash(key):
    h = 0
    for entry in key:
        words = [entry & MASK64]
        while entry := entry >> 64:
            words.append(entry & MASK64)
        for w in words:
            h = ref_mix((h ^ w) + GAMMA & MASK64)
    return h


def ref_word(key_hash, c):
    return ref_mix(key_hash + (c + 1) * GAMMA & MASK64)


def ref_below(key, count, bound):
    """Words 0 .. count-1 of key's stream below bound, by 32-bit multiply-shift."""
    h = ref_hash(key)
    return [(ref_word(h, c) >> 32) * bound >> 32 for c in range(count)]


def reference_draw(key, purpose, tasks, row, n):
    """A group of task row of tasks as (lengths, steps, uniforms) from the
    reference: rollout i is keyed key + (purpose, crc32(task id), i)."""
    lo, hi = tasks.length_range[row].tolist()
    lengths, steps, uniforms = [], [], []
    for i in range(n):
        h = ref_hash(key + (purpose, zlib.crc32(tasks.task_id[row].encode()), i))
        length = lo + ((ref_word(h, 0) >> 32) * (hi - lo + 1) >> 32)
        lengths.append(length)
        uniforms.append((ref_word(h, 1) >> 11) * 2.0**-53)
        steps.extend(ref_word(h, c) >> 2 for c in range(2, length + 2))
    return tuple(lengths), tuple(steps), tuple(uniforms)


def reference_draws(key, purpose, tasks, row, p, n):
    """(step ids, reward) of every rollout of a group, from the reference."""
    return completed(reference_draw(key, purpose, tasks, row, n), p)


def make_task(p0=0.5, sensitivity=4.0, lengths=(4, 12), task_id="t0"):
    """Columns of one hand-built task; p0 = 1 and 0 give base logits of
    +-inf."""
    with np.errstate(divide="ignore"):
        base_logit = logit(np.array([p0], float))
    return TaskColumns(
        task_id=np.array([task_id], object),
        uid=np.array([zlib.crc32(task_id.encode("utf-8"))], np.uint64),
        base_logit=base_logit,
        prefix_sensitivity=np.array([sensitivity], float),
        length_range=np.array([lengths], np.int64),
    )


def stack(tasks):
    """The columns of several one-task columns, in their order."""
    return TaskColumns(*map(np.concatenate, zip(*tasks)))


def fresh_p(tasks, row=0):
    """Fresh pass probability of task row."""
    return float(expit(tasks.base_logit[row]))


def conditioned(tasks, outcome, ratio, row=0):
    """conditioned_pass_probability of task row of tasks."""
    return conditioned_pass_probability(
        tasks.base_logit[row], tasks.prefix_sensitivity[row], outcome, ratio
    )


def step_draws(draw_groups, tasks, n, seed):
    """One group per task, group j of task j keyed seed + (j,)."""
    slots = np.arange(len(tasks.task_id))
    return draw_groups(tasks, slots, n, seed, slots[:, None])


# Long rollouts: 20 groups of 8 rollouts of 100 to 300 steps.
LONG_TASKS = stack(
    [make_task(0.3 + 0.02 * i, lengths=(100, 300), task_id=f"t{i}") for i in range(20)]
)
FAILURE_PREFIX = PrefixRecord(task_row=0, source_bucket=7, length=12)


class TestSyntheticTask:
    """A synthetic task is one row of a population's columns."""

    def test_fresh_pass_probability(self):
        # A task's fresh pass probability is expit of its base logit: p0 back.
        half = PopulationSpec(preset="single", size=4, p0=0.5)
        assert expit(make_task_population(half, rng_seed=3).base_logit).tolist() == [0.5] * 4
        assert_allclose(fresh_p(make_task(0.125)), 0.125, rtol=1e-12)

    def test_validation(self):
        # The smallest task a spec admits, zero sensitivity and lengths 2..2,
        # comes out as such; one step past either edge is rejected.
        edge = PopulationSpec(
            preset="single", size=3, sensitivity_min=0.0, sensitivity_max=0.0,
            length_min=2, length_max=2,
        )
        tasks = make_task_population(edge, rng_seed=0)
        assert tasks.prefix_sensitivity.tolist() == [0.0] * 3
        assert tasks.length_range.tolist() == [[2, 2]] * 3
        with pytest.raises(DomainError, match="sensitivity_min"):
            PopulationSpec(sensitivity_min=-1e-9, sensitivity_max=0.0)
        for length_min, length_max in ((1, 2), (3, 2)):
            with pytest.raises(DomainError, match="length_min <= length_max"):
                PopulationSpec(length_min=length_min, length_max=length_max)


class TestFreshSampling:
    def test_deterministic(self):
        task = make_task(0.3)
        a = sample_fresh_group(task, 0, 8, rng_seed=(7, 0, 0))
        b = sample_fresh_group(task, 0, 8, rng_seed=(7, 0, 0))
        assert a.rewards == b.rewards
        assert (a.lengths, a.steps) == (b.lengths, b.steps)

    def test_seed_sensitivity(self):
        task = make_task(0.5)
        a = sample_fresh_group(task, 0, 8, rng_seed=(7, 0, 0))
        b = sample_fresh_group(task, 0, 8, rng_seed=(7, 0, 1))
        assert (
            a.rewards != b.rewards
            or (a.lengths, a.steps) != (b.lengths, b.steps)
        )

    def test_structure(self):
        task = make_task(0.5, lengths=(4, 12))
        sample = sample_fresh_group(task, 0, 8, rng_seed=11)
        # run.jsonl's fields in its order, then the rollouts' step ids.
        assert sample._fields == (
            "task_id", "rewards", "parent_bucket", "lengths", "steps", "boundary"
        )
        assert sample.parent_bucket is None
        assert len(sample.rewards) == len(sample.lengths) == 8
        assert set(sample.rewards) <= {0, 1}
        assert sample.boundary == 0
        assert len(sample.steps) == sum(sample.lengths)
        for length in sample.lengths:
            assert 4 <= length <= 12

    def test_extreme_probabilities(self):
        always = sample_fresh_group(make_task(1.0), 0, 8, rng_seed=3)
        never = sample_fresh_group(make_task(0.0), 0, 8, rng_seed=3)
        assert sum(always.rewards) == 8
        assert sum(never.rewards) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_fresh_group(make_task(), 0, 1, rng_seed=0)

    @pytest.mark.parametrize("n", [1, 2.5, 8.0, np.float64(8.0), True])
    def test_group_size_outside_domain(self, n):
        # numpy failed on a float group size with a bare TypeError.
        tasks = stack([make_task(), make_task(task_id="t1")])
        for draw in (
            lambda: step_draws(draw_fresh_groups, tasks, n, (3, 0)),
            lambda: step_draws(draw_rerollout_groups, tasks, n, (3, 0)),
            lambda: sample_fresh_group(tasks, 0, n, rng_seed=3),
        ):
            with pytest.raises(DomainError, match="group size must be an int >= 2"):
                draw()

    def test_pass_count_distribution(self):
        # Chi-squared against Binomial(8, 0.5) pooled over fresh groups.
        # 50k groups keeps the smallest expected cell near 150 while staying
        # well under the acceptance-run budget. Group i of the step is keyed
        # (99, 0, i), so one call draws the same groups as 50k calls of
        # sample_fresh_group; TestRolloutSeeding and TestRolloutKernel check
        # both paths against the pure-Python reference of the generator.
        n_groups = 50_000
        slots = np.arange(n_groups)
        draws = draw_fresh_groups(
            make_task(0.5), np.zeros(n_groups, np.int64), 8, (99, 0), slots[:, None]
        )
        ks = rollout_rewards(draws.uniforms, np.full(n_groups, 0.5)).sum(axis=1)
        counts = np.bincount(ks, minlength=9)
        expected = binom.pmf(np.arange(9), 8, 0.5) * n_groups
        assert expected.min() >= 5.0
        result = chisquare(counts, expected)
        assert result.pvalue > 0.001


class TestConditionedProbability:
    def test_landmark_value(self):
        got = conditioned_pass_probability(logit(0.125), 4.0, PrefixOutcome.SUCCESS, 0.5)
        assert_allclose(got, expit(logit(0.125) + 4.0 * 0.5), rtol=1e-12)
        assert_allclose(got, 0.5135191667978681, rtol=1e-12)

    def test_failure_prefix_lowers(self):
        got = conditioned_pass_probability(0.0, 3.0, PrefixOutcome.FAILURE, 0.5)
        assert_allclose(got, expit(-1.5), rtol=1e-12)

    def test_monotone_in_replay_share(self):
        base = logit(0.25)
        grid = np.linspace(0.0, 1.0, 21)
        up = [conditioned_pass_probability(base, 4.0, PrefixOutcome.SUCCESS, r) for r in grid]
        down = [conditioned_pass_probability(base, 4.0, PrefixOutcome.FAILURE, r) for r in grid]
        assert all(a < b for a, b in zip(up, up[1:]))
        assert all(a > b for a, b in zip(down, down[1:]))

    def test_zero_share_recovers_fresh_rate(self):
        for outcome in PrefixOutcome:
            got = conditioned_pass_probability(logit(0.3), 5.0, outcome, 0.0)
            assert_allclose(got, 0.3, rtol=1e-12)

    def test_zero_sensitivity_is_flat(self):
        for r in (0.0, 0.5, 1.0):
            got = conditioned_pass_probability(logit(0.3), 0.0, PrefixOutcome.SUCCESS, r)
            assert_allclose(got, 0.3, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            conditioned_pass_probability(0.0, 4.0, PrefixOutcome.SUCCESS, 1.5)
        with pytest.raises(DomainError):
            conditioned_pass_probability(0.0, 4.0, PrefixOutcome.SUCCESS, -0.1)

    @settings(max_examples=400)
    @given(
        base=st.floats(), sensitivity=st.floats(), ratio=st.floats(0.0, 1.0),
        outcome=st.sampled_from(PrefixOutcome), numpy_floats=st.booleans(),
    )
    @example(base=-709.78, sensitivity=0.0, ratio=0.0, outcome=PrefixOutcome.SUCCESS,
             numpy_floats=False)
    @example(base=-700.0, sensitivity=20.0, ratio=1.0, outcome=PrefixOutcome.FAILURE,
             numpy_floats=True)
    @example(base=-0.0, sensitivity=0.0, ratio=0.0, outcome=PrefixOutcome.SUCCESS,
             numpy_floats=False)
    def test_equals_scipy_expit(self, base, sensitivity, ratio, outcome, numpy_floats):
        # The formula on one float gives expit's bits wherever the run's
        # floats can land, and a DomainError where expit gives nan.
        if numpy_floats:
            base, sensitivity, ratio = map(np.float64, (base, sensitivity, ratio))
        sign = 1.0 if outcome is PrefixOutcome.SUCCESS else -1.0
        # numpy floats warn where an overflow, inf * 0 or inf - inf makes an inf or a nan.
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(expit(base + sign * (sensitivity * ratio)))
            if np.isnan(want):
                with pytest.raises(DomainError, match="base logit .* and sensitivity"):
                    conditioned_pass_probability(base, sensitivity, outcome, ratio)
                return
            got = conditioned_pass_probability(base, sensitivity, outcome, ratio)
        assert type(got) is float
        assert same_float(got, want)

    @pytest.mark.parametrize(
        "base",
        [-709.78, -709.79, -710.0, -745.13, -746.0, -1e308, -np.inf, np.inf, np.nan, -0.0,
         0.0, 5e-324, 36.0, 710.0, 1e308, np.float64(-710.0), np.float64(-0.0)],
    )
    def test_overflow_band_and_special_values(self, base):
        # exp(-x) overflows for x below about -709.78, where expit gives 0.0;
        # a nan base logit has no pass probability.
        for outcome in PrefixOutcome:
            if np.isnan(base):
                with pytest.raises(DomainError, match="base logit nan"):
                    conditioned_pass_probability(base, 0.0, outcome, 0.5)
                continue
            got = conditioned_pass_probability(base, 0.0, outcome, 0.5)
            assert same_float(got, float(expit(base)))

    @pytest.mark.parametrize(
        "base, sensitivity, ratio",
        [(np.nan, 1.0, 0.5), (0.0, np.inf, 0.0), (0.0, np.nan, 1.0)],
        ids=["nan-base", "inf-sensitivity-at-share-0", "nan-sensitivity"],
    )
    def test_nan_probability_is_a_domain_error(self, base, sensitivity, ratio):
        # These used to return nan, which every uniform then fails against.
        want = f"base logit {base} and sensitivity {sensitivity} give pass probability nan"
        for outcome in PrefixOutcome:
            with pytest.raises(DomainError, match=want):
                conditioned_pass_probability(base, sensitivity, outcome, ratio)

    @pytest.mark.parametrize("outcome", ["success", BucketKind.HARD, None])
    def test_outcome_must_be_a_prefix_outcome(self, outcome):
        # Anything but PrefixOutcome.SUCCESS used to fall through to the
        # failure branch: expit(0 - 2 * 0.5) = 0.2689 for a "success".
        with pytest.raises(DomainError, match="prefix_outcome must be a PrefixOutcome"):
            conditioned_pass_probability(0.0, 2.0, outcome, 0.5)


class TestRerolloutSampling:
    def _prefix(self, length=8):
        return PrefixRecord(task_row=0, source_bucket=1, length=length)

    def test_prefix_replayed_verbatim(self):
        # Every rollout counts the 5 replayed steps in its length and holds
        # only its drawn steps, 4 to 12 of them.
        task = make_task(0.125, sensitivity=4.0)
        prefix = self._prefix(8)
        sample = sample_rerollout_group(task, prefix, m=5, n=8, rng_seed=(1, 2, 3))
        assert sample.boundary == 5
        assert len(sample.steps) == sum(sample.lengths) - 8 * 5
        for length, steps in zip(sample.lengths, rollout_steps(sample)):
            assert length == 5 + len(steps)
            assert 4 <= len(steps) <= 12

    def test_group_metadata(self):
        task = make_task(0.125)
        sample = sample_rerollout_group(task, self._prefix(), 4, 8, rng_seed=5)
        assert sample.parent_bucket == 1
        assert sample.task_id == "t0"

    def test_deterministic(self):
        task = make_task(0.125)
        a = sample_rerollout_group(task, self._prefix(), 4, 8, rng_seed=(2, 2))
        b = sample_rerollout_group(task, self._prefix(), 4, 8, rng_seed=(2, 2))
        assert a.rewards == b.rewards
        assert (a.lengths, a.steps) == (b.lengths, b.steps)

    def test_continuations_differ_across_rollouts(self):
        task = make_task(0.5)
        sample = sample_rerollout_group(task, self._prefix(), 4, 8, rng_seed=9)
        tails = set(rollout_steps(sample))
        assert len(tails) > 1

    def test_boundary_contract(self):
        task = make_task(0.5)
        with pytest.raises(ContractError):
            sample_rerollout_group(task, self._prefix(8), m=8, n=8, rng_seed=0)
        with pytest.raises(ContractError):
            sample_rerollout_group(task, self._prefix(8), m=0, n=8, rng_seed=0)
        # A boundary that is not an int cannot count replayed steps.
        with pytest.raises(ContractError, match="must be an int"):
            sample_rerollout_group(task, self._prefix(8), m=2.5, n=8, rng_seed=0)

    def test_success_prefix_raises_pass_rate(self):
        # MC check: a half-replayed success prefix on a hard task should lift
        # the pass rate from 0.125 towards the conditioned value 0.5135.
        task = make_task(0.125, sensitivity=4.0)
        prefix = self._prefix(8)
        total = passed = 0
        for i in range(400):
            sample = sample_rerollout_group(task, prefix, 4, 8, rng_seed=(7, i))
            passed += sum(sample.rewards)
            total += 8
        rate = passed / total
        want = conditioned(task, PrefixOutcome.SUCCESS, 0.5)
        se = np.sqrt(want * (1 - want) / total)
        assert abs(rate - want) < 4 * se


class TestStreamPins:
    """Literal outputs of the generator. A numpy upgrade or a refactor that
    moves the stream, and with it every trace, fails here loudly."""

    WORDS_OF_KEY_5 = [0xFAD6E24671254235, 0x1B1A399B7FC87089, 0xDD2622E06671D6A5]

    def test_reference_words(self):
        assert [ref_word(ref_hash((5,)), c) for c in range(3)] == self.WORDS_OF_KEY_5

    def test_kernel_words(self):
        counters = np.arange(3, dtype=np.uint64)
        assert _words(_key_hash(5), counters).tolist() == self.WORDS_OF_KEY_5

    def test_public_streams(self):
        words = self.WORDS_OF_KEY_5
        assert stream_uniforms((5,), 3).tolist() == [(w >> 11) * 2.0**-53 for w in words]
        subkeys = (0, 7, 2**64 - 1)
        for bound in (1, 7, 1000, 2**32):
            rows = stream_integer_rows(5, np.array(subkeys, np.uint64)[:, None], 3, bound)
            assert rows.tolist() == [ref_below((5, k), 3, bound) for k in subkeys]

    @pytest.mark.parametrize("bound", [0, -1, 1.5, 2**32 + 1, 2**33, True])
    def test_integer_bound_outside_domain(self, bound):
        # Multiply-shift on 32 bits draws below at most 2**32.
        with pytest.raises(DomainError, match="bound must be an int in"):
            stream_integer_rows(5, np.array([[0]]), 3, bound)

    @pytest.mark.parametrize("count", [-1, 1.5, 2.5, np.float64(2.0), True])
    def test_count_outside_domain(self, count):
        # np.arange would give an empty or a rounded-up stream without an error.
        with pytest.raises(DomainError, match="count must be an int >= 0"):
            stream_uniforms(5, count)
        with pytest.raises(DomainError, match="count must be an int >= 0"):
            stream_integer_rows(5, np.array([[0]]), count, 7)

    def test_population_values(self):
        tasks = make_task_population(PopulationSpec(), 5)
        assert tasks.task_id[0] == "task-00000"
        assert tasks.base_logit[0] == 2.0368401453937257
        assert tasks.prefix_sensitivity[0] == 2.6963751628841157


def left_unchanged(call, *inputs):
    """Call call(*inputs) and assert that it wrote into none of its array
    inputs, the columns of a TaskColumns included."""
    arrays = [x for item in inputs for x in (item if isinstance(item, tuple) else (item,))]
    arrays = [x for x in arrays if isinstance(x, np.ndarray)]
    before = [x.copy() for x in arrays]
    call(*inputs)
    for want, got in zip(before, arrays):
        assert_array_equal(got, want)


class TestInPlaceFinaliser:
    """The finaliser mixes in place, only ever in an array its caller has
    just built: no function writes into an array it was given."""

    SEED = np.array([5, 2**63 + 1], np.uint64)

    def test_hashing_leaves_inputs_unchanged(self):
        h = _key_hash((5, 2**64 + 1))
        column = np.arange(3, dtype=np.uint64)
        left_unchanged(env._extend, np.repeat(h, 3), column)
        left_unchanged(env._extend, h, column)
        left_unchanged(_words, h[:, None], column)
        left_unchanged(_key_hash, self.SEED)

    def test_draws_leave_inputs_unchanged(self):
        tasks = stack([make_task(0.3, lengths=(2, 9), task_id=f"t{i}") for i in range(3)])
        rows = np.array([2, 0, 2, 1])
        subkeys = np.column_stack((rows, np.arange(4)))
        keys = env._group_keys(self.SEED, subkeys)
        for draw_groups in (draw_fresh_groups, draw_rerollout_groups):
            left_unchanged(draw_groups, tasks, rows, 8, self.SEED, subkeys)
        draws = env._draw_groups(tasks, rows, 8, _PURPOSE_FRESH, keys)
        left_unchanged(env._draw_groups, tasks, rows, 8, _PURPOSE_FRESH, keys)
        left_unchanged(draw_step_ids, draws.keys, draws.lengths)
        left_unchanged(stream_integer_rows, self.SEED, subkeys, 5, 7)
        left_unchanged(make_task_population, PopulationSpec(size=4), self.SEED)


class TestRolloutSeeding:
    """Each rollout's stream is the reference's for a tuple of seed entries;
    entries of 2**64 and above span several 64-bit words."""

    SEED_ENTRIES = (0, 2**32 - 1, 2**32, 2**64 + 5)

    @pytest.mark.parametrize("entry", SEED_ENTRIES)
    def test_fresh_matches_tuple_entropy(self, entry):
        task = make_task(0.5)
        seed_tuple = (entry, 3, entry)
        sample = sample_fresh_group(task, 0, 8, rng_seed=seed_tuple)
        assert rollouts(sample) == reference_draws(
            seed_tuple, _PURPOSE_FRESH, task, 0, 0.5, 8
        )

    @pytest.mark.parametrize("entry", SEED_ENTRIES)
    def test_rerollout_matches_tuple_entropy(self, entry):
        task = make_task(0.5)
        prefix = PrefixRecord(task_row=0, source_bucket=1, length=8)
        sample = sample_rerollout_group(task, prefix, 3, 8, rng_seed=entry)
        p = conditioned(task, PrefixOutcome.SUCCESS, 3 / 8)
        want = reference_draw((entry,), _PURPOSE_REROLLOUT, task, 0, 8)
        assert sample.lengths == tuple(3 + length for length in want[0])
        assert rollouts(sample) == completed(want, p)


class TestRolloutKernel:
    """The array kernel against the pure-Python reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        # Entries of 2**64 and above are two words; draw them often.
        seed=st.lists(
            st.integers(0, 2**70) | st.integers(2**64, 2**70), min_size=1, max_size=4
        ),
        n=st.integers(2, 16),
        ranges=st.lists(
            st.tuples(st.integers(2, 40), st.one_of(st.just(0), st.integers(0, 40))),
            min_size=1,
            max_size=6,
        ),
    )
    def test_matches_reference_stream(self, seed, n, ranges):
        tasks = stack([
            make_task(0.2 + 0.1 * j, lengths=(lo, lo + extra), task_id=f"t{j}")
            for j, (lo, extra) in enumerate(ranges)
        ])
        fresh = step_draws(draw_fresh_groups, tasks, n, seed)
        rerollouts = step_draws(draw_rerollout_groups, tasks, n, seed)
        assert fresh.lengths.shape == rerollouts.lengths.shape == (len(ranges), n)
        fresh_groups, rerollout_groups = step_groups(fresh), step_groups(rerollouts)
        for j in range(len(ranges)):
            key = tuple(seed) + (j,)
            assert fresh_groups[j] == reference_draw(key, _PURPOSE_FRESH, tasks, j, n)
            assert rerollout_groups[j] == reference_draw(key, _PURPOSE_REROLLOUT, tasks, j, n)

    def test_batches_match_reference_per_group(self):
        # Long rollouts under a seed of three words; group j is keyed seed + (j,).
        seed = (2**70 + 3, 1)
        fresh = step_draws(draw_fresh_groups, LONG_TASKS, 8, seed)
        groups = step_groups(fresh)
        rewards = rollout_rewards(fresh.uniforms, expit(LONG_TASKS.base_logit))
        for j, rewarded in enumerate(rewards.astype(int).tolist()):
            want = reference_draw(seed + (j,), _PURPOSE_FRESH, LONG_TASKS, j, 8)
            assert groups[j] == want
            assert rewarded == [int(u < fresh_p(LONG_TASKS, j)) for u in want[2]]

    def test_rerollout_draws_complete_like_the_sampler(self):
        task = make_task(0.4)
        prefix = PrefixRecord(task_row=0, source_bucket=1, length=10)
        draws = draw_rerollout_groups(task, np.zeros(3, np.int64), 8, 5, np.arange(3)[:, None])
        groups = step_groups(draws)
        for j, m in enumerate((1, 5, 9)):
            want = sample_rerollout_group(task, prefix, m, 8, rng_seed=(5, j))
            p = conditioned(task, PrefixOutcome.SUCCESS, m / prefix.length)
            assert completed(groups[j], p) == rollouts(want)
            assert want.lengths == tuple((m + draws.lengths[j]).tolist())
            assert want.boundary == m


class TestStepIds:
    """draw_step_ids draws any rollouts' step ids from their key hashes and
    lengths alone: a rollout's ids are words 2 .. length + 1 of its stream,
    whichever rollouts it is drawn with, in whatever order. How a caller
    splits its rollouts over calls is checked where the harness splits them
    (tests/test_harness.py, TestBlocks)."""

    TASKS = stack([make_task(lengths=(2, 9), task_id=f"t{j}") for j in range(3)])

    @settings(max_examples=60, deadline=None)
    @given(
        picked=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 12)), max_size=12),
    )
    @example(picked=[(11, 12), (0, 0), (11, 3), (4, 1)])
    def test_any_rollouts_and_lengths(self, picked):
        draws = step_draws(draw_fresh_groups, self.TASKS, 4, (7, 1))
        keys = draws.keys.ravel()
        # Rollout r = 4 * j + i of task j is keyed (7, 1, j, purpose, uid, i).
        longest = [
            [ref_word(ref_hash((7, 1, r // 4, _PURPOSE_FRESH, uid, r % 4)), c) >> 2
             for c in range(2, 14)]
            for r, uid in enumerate(np.repeat(self.TASKS.uid, 4).tolist())
        ]
        rows = [r for r, _ in picked]
        lengths = np.array([length for _, length in picked], np.int64)
        got = draw_step_ids(keys[rows], lengths)
        assert got.dtype == np.int64
        assert got.tolist() == [s for r, length in picked for s in longest[r][:length]]

    @pytest.mark.parametrize(
        "keys, lengths, error",
        [
            ([1, 2], [3], ContractError),
            ([1], [[3], [4]], ContractError),
            ([1, 2], [3, -1], DomainError),
            ([1], [2.5], DomainError),
            ([1], np.array([2.0]), DomainError),
            ([1], [True], DomainError),
            ([1, 2], [3, True], DomainError),
            ([1], np.array([True]), DomainError),
            ([1], ["3"], DomainError),
        ],
    )
    def test_bad_lengths_rejected(self, keys, lengths, error):
        # Lengths are ints >= 0, as errors.is_int has them (no bool, no
        # float), one per key hash.
        with pytest.raises(error):
            draw_step_ids(np.array(keys, np.uint64), lengths)

    @pytest.mark.parametrize(
        "keys",
        [[1.5], np.array([2.0]), [True], [1, True], np.array([True]), np.array([-1]), [-1],
         [2**64], ["3"]],
        ids=["float", "float-array", "bool", "bool-in-list", "bool-array", "negative-array",
             "negative", "too-large", "str"],
    )
    def test_bad_keys_rejected(self, keys):
        # Key hashes are ints in [0, 2**64): a float key used to truncate, a
        # bool to count as 1 and a negative int64 to wrap mod 2**64.
        with pytest.raises(DomainError, match="key hashes must be"):
            draw_step_ids(keys, [2] * len(keys))

    def test_key_too_wide_is_named(self):
        # numpy holds an int of 2**64 or more in an object array: the error
        # names the value. An object array of anything else is no int array.
        wide = f"^key hashes must be integers that fit in 64 bits, got {2**64}$"
        with pytest.raises(DomainError, match=wide):
            draw_step_ids([2**64], [2])
        with pytest.raises(DomainError, match="^key hashes must be integers, got dtype object$"):
            draw_step_ids([2**64, 1.5], [2, 2])

    def test_uint64_length_above_int64_is_named(self):
        # Cast to int64, a length of 2**64 - 1 read as -1 and numpy raised a
        # bare ValueError: negative dimensions are not allowed.
        want = f"^step id lengths must be integers below 2\\*\\*63, got {2**64 - 1}$"
        with pytest.raises(DomainError, match=want):
            draw_step_ids([1, 2], np.array([2, 2**64 - 1], np.uint64))

    def test_int_keys_of_any_dtype(self):
        keys = [0, 7, 2**63 - 1]
        want = draw_step_ids(np.array(keys, np.uint64), [3, 1, 2])
        for given_keys in (keys, np.array(keys, np.int64)):
            assert_array_equal(draw_step_ids(given_keys, [3, 1, 2]), want)
        assert_array_equal(draw_step_ids([2**64 - 1], [2]),
                           draw_step_ids(np.array([2**64 - 1], np.uint64), [2]))


class TestBlockDraws:
    """The run loop draws a block of steps per call: group j of step s is
    keyed (seed, s, j), fresh and rerollout alike, and each step's task picks
    come from the stream (seed, 1001, s)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        first=st.integers(0, 2**40),
        per_step=st.lists(st.integers(0, 4), min_size=1, max_size=5),
        n=st.integers(2, 9),
    )
    @example(seed=5, first=0, per_step=[3, 0, 1, 2], n=8)
    @example(seed=5, first=12, per_step=[0, 0, 0], n=8)
    @example(seed=2**64 - 1, first=2**40, per_step=[0, 2], n=9)
    def test_ragged_block_matches_reference(self, seed, first, per_step, n):
        tasks = stack([
            make_task(0.2 + 0.1 * i, lengths=(2 + i, 4 + 3 * i), task_id=f"t{i}")
            for i in range(5)
        ])
        steps = np.repeat(first + np.arange(len(per_step)), per_step)
        slots = np.arange(len(steps)) - np.repeat(np.cumsum(per_step) - per_step, per_step)
        rows = 3 * np.arange(len(steps)) % len(tasks.task_id)
        for draw_groups, purpose in (
            (draw_fresh_groups, _PURPOSE_FRESH),
            (draw_rerollout_groups, _PURPOSE_REROLLOUT),
        ):
            draws = draw_groups(tasks, rows, n, seed, np.column_stack((steps, slots)))
            assert draws.lengths.shape == draws.uniforms.shape == (len(steps), n)
            groups = step_groups(draws)
            keys = zip(steps.tolist(), slots.tolist(), rows.tolist())
            for g, (step, slot, row) in enumerate(keys):
                want = reference_draw((seed, step, slot), purpose, tasks, row, n)
                assert groups[g] == want

    @pytest.mark.parametrize("seed", [0, 2**64 + 7])
    def test_task_picks_are_per_step_streams(self, seed):
        steps = np.arange(40, 45)
        picks = stream_integer_rows((seed, _TASK_STREAM), steps[:, None], 64, 1000)
        assert picks.shape == (5, 64)
        for step, row in zip(steps.tolist(), picks.tolist()):
            assert row == ref_below((seed, _TASK_STREAM, step), 64, 1000)

    @pytest.mark.parametrize(
        "subkeys, rows, error",
        [
            (np.array([[1, -1]]), [0], DomainError),
            (np.array([1]), [0], DomainError),
            (np.zeros((1, 0), np.int64), [0], DomainError),
            (np.array([[0.5]]), [0], DomainError),
            (np.array([[True]]), [0], DomainError),
            (np.array([[1], [2]]), [0], ContractError),
            (np.array([[1]]), [1], ContractError),
            (np.array([[1]]), [-1], ContractError),
            (np.array([[1]]), [0.0], DomainError),
            (np.array([[1], [2]]), [True, 0], DomainError),
            ([[True, 0]], [0], DomainError),
            (np.array([[1]]), [2**64], DomainError),
        ],
    )
    def test_bad_keys_or_rows_rejected(self, subkeys, rows, error):
        for draw_groups in (draw_fresh_groups, draw_rerollout_groups):
            with pytest.raises(error):
                draw_groups(make_task(), rows, 8, 3, subkeys)

    @pytest.mark.parametrize(
        "subkeys, rows, message",
        [
            (np.array([[1], [2]]), [True, 0], "task rows must be integers, got a bool"),
            ([[True, 0]], [0], "subkeys must be integers, got a bool"),
            (np.array([[1]]), [2**64],
             f"task rows must be integers that fit in 64 bits, got {2**64}"),
            ([[2**64]], [0], f"subkeys must be integers that fit in 64 bits, got {2**64}"),
            (np.array([[1]]), np.array([2**64 - 1], np.uint64),
             f"task rows must be integers below 2\\*\\*63, got {2**64 - 1}"),
        ],
        ids=["bool-row", "bool-subkey", "wide-row", "wide-subkey", "uint64-row"],
    )
    def test_bad_ints_name_their_argument(self, subkeys, rows, message):
        # numpy reads [True, 0] as the ints [1, 0] and holds 2**64 in an object array.
        with pytest.raises(DomainError, match=f"^{message}$"):
            draw_fresh_groups(make_task(), rows, 8, 3, subkeys)


class TestDistributions:
    """Goodness of fit at level 0.001 for draws no other test covers."""

    def test_lengths_uniform(self):
        lo, hi = 3, 13
        slots = np.arange(2000)
        draws = draw_fresh_groups(
            make_task(lengths=(lo, hi)), np.zeros(2000, np.int64), 8, 17, slots[:, None]
        )
        lengths = draws.lengths.ravel()
        assert lengths.min() >= lo and lengths.max() <= hi
        counts = np.bincount(lengths - lo, minlength=hi - lo + 1)
        assert chisquare(counts).pvalue > 0.001

    def test_hard_skewed_mixture(self):
        # p0 ~ 0.75 Beta(1, 8) + 0.25 Beta(8, 1), clipped to [0.05, 0.95]: the
        # outer bins are the two clip atoms. The tolerance absorbs the
        # logit/expit round trip at the atoms.
        size = 20_000
        tasks = make_task_population(PopulationSpec(size=size), rng_seed=23)
        ps = expit(tasks.base_logit)
        clip = 0.05
        inner = np.linspace(clip, 1.0 - clip, 19)
        edges = np.concatenate(
            [[0.0], inner[:1] + 1e-12, inner[1:-1], inner[-1:] - 1e-12, [1.0]]
        )
        counts = np.histogram(ps, bins=edges)[0]

        def cdf(x):
            return 0.75 * beta.cdf(x, 1, 8) + 0.25 * beta.cdf(x, 8, 1)

        cuts = np.concatenate([[0.0], inner, [1.0]])
        expected = np.diff(cdf(cuts)) * size
        assert expected.min() >= 5.0
        assert chisquare(counts, expected).pvalue > 0.001


class TestBatchKeys:
    """A step's draw takes one seed and keys its group j as seed + (j,)."""

    @pytest.mark.parametrize("seed", [(5, 6, 7), (2**40 + 1, 2)])
    def test_fresh_batch_is_groups_of_one(self, seed):
        fresh = step_draws(draw_fresh_groups, LONG_TASKS, 8, seed)
        assert fresh.lengths.shape == (20, 8)
        for j, group in enumerate(step_groups(fresh)):
            sample = sample_fresh_group(LONG_TASKS, j, 8, seed + (j,))
            assert sample.task_id == f"t{j}"
            assert completed(group, fresh_p(LONG_TASKS, j)) == rollouts(sample)
            assert sample.boundary == 0

    @pytest.mark.parametrize("seed", [(5, 6, 7), (2**40 + 1, 2)])
    def test_rerollout_batch_is_groups_of_one(self, seed):
        rerollouts = step_draws(draw_rerollout_groups, LONG_TASKS, 8, seed)
        assert rerollouts.lengths.shape == (20, 8)
        for j, group in enumerate(step_groups(rerollouts)):
            m = 1 + j % 11
            prefix = FAILURE_PREFIX._replace(task_row=j)
            sample = sample_rerollout_group(LONG_TASKS, prefix, m, 8, seed + (j,))
            assert sample.task_id == f"t{j}"
            p = conditioned(LONG_TASKS, PrefixOutcome.FAILURE, m / FAILURE_PREFIX.length, j)
            assert completed(group, p) == rollouts(sample)
            assert sample.lengths == tuple((m + rerollouts.lengths[j]).tolist())
            assert sample.boundary == m

    def test_empty_batch(self):
        # No task, no group to key: both draws are empty and so are their rewards.
        none = np.zeros(0, np.int64)
        fresh = draw_fresh_groups(make_task(), none, 8, (1, 2), none[:, None])
        rerollouts = draw_rerollout_groups(make_task(), none, 8, 3, none[:, None])
        for draws in (fresh, rerollouts):
            assert len(draws.lengths) == 0
            assert rollout_rewards(draws.uniforms, np.zeros(0)).shape == (0, 8)


class TestStepArrays:
    """A step's arrays against the per-group views: group j of
    draw_fresh_groups and draw_rerollout_groups under one seed and subkeys
    (j,) is the group that sample_fresh_group and sample_rerollout_group draw
    under seed + (j,)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.lists(st.integers(0, 2**70), min_size=1, max_size=3),
        n=st.integers(2, 12),
        ranges=st.lists(
            st.tuples(st.integers(2, 30), st.integers(0, 20)), min_size=1, max_size=6
        ),
        prefix_length=st.integers(2, 40),
    )
    def test_groups_match_views(self, seed, n, ranges, prefix_length):
        seed = tuple(seed)
        tasks = stack([
            make_task(0.15 + 0.12 * j, lengths=(lo, lo + extra), task_id=f"t{j}")
            for j, (lo, extra) in enumerate(ranges)
        ])
        fresh = step_draws(draw_fresh_groups, tasks, n, seed)
        rerollouts = step_draws(draw_rerollout_groups, tasks, n, seed)
        for draws in (fresh, rerollouts):
            assert draws.keys.shape == (len(ranges), n) and draws.keys.dtype == np.uint64
            assert draw_step_ids(draws.keys, draws.lengths).dtype == np.int64
        fresh_groups, rerollout_groups = step_groups(fresh), step_groups(rerollouts)
        rewards = fresh.uniforms < expit(tasks.base_logit)[:, None]
        for j in range(len(ranges)):
            prefix = PrefixRecord(task_row=j, source_bucket=1, length=prefix_length)
            lengths, steps, uniforms = fresh_groups[j]
            view = sample_fresh_group(tasks, j, n, seed + (j,))
            assert lengths == view.lengths
            assert steps == view.steps
            assert tuple(rewards[j].astype(int).tolist()) == view.rewards
            assert view.boundary == 0
            # The arrays hold the reference's full step ids, not reduced ones.
            _, want_steps, want_uniforms = reference_draw(
                seed + (j,), _PURPOSE_FRESH, tasks, j, n
            )
            assert steps == want_steps
            assert uniforms == want_uniforms

            m = 1 + j % (prefix_length - 1)
            p = conditioned(tasks, PrefixOutcome.SUCCESS, m / prefix_length, j)
            want = reference_draw(seed + (j,), _PURPOSE_REROLLOUT, tasks, j, n)
            assert rerollout_groups[j] == want
            if n < 4 or n % 2:
                # No bucket, so no prefix, exists at a group size bucketing rejects.
                with pytest.raises(DomainError):
                    sample_rerollout_group(tasks, prefix, m, n, seed + (j,))
                continue
            view = sample_rerollout_group(tasks, prefix, m, n, seed + (j,))
            assert tuple((rerollouts.lengths[j] + m).tolist()) == view.lengths
            assert view.steps == want[1]
            assert tuple((rerollouts.uniforms[j] < p).astype(int).tolist()) == (
                view.rewards
            )
            assert view.boundary == m

    def test_empty_step(self):
        none = np.zeros(0, np.int64)
        for draws in (
            draw_fresh_groups(make_task(), none, 8, (1, 2), none[:, None]),
            draw_rerollout_groups(make_task(), none, 8, 3, none[:, None]),
        ):
            assert draws.lengths.shape == draws.uniforms.shape == draws.keys.shape == (0, 8)
            steps = draw_step_ids(draws.keys, draws.lengths)
            assert steps.shape == (0,) and steps.dtype == np.int64


class TestGroupSampleInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**40),
        lengths=st.tuples(st.integers(2, 12), st.integers(0, 12)),
        m=st.integers(1, 11),
    )
    def test_flat_steps_and_shared_boundary(self, seed, lengths, m):
        lo, extra = lengths
        task = make_task(0.4, lengths=(lo, lo + extra))
        prefix = FAILURE_PREFIX
        fresh = sample_fresh_group(task, 0, 8, seed)
        child = sample_rerollout_group(task, prefix, m, 8, seed)
        for sample in (fresh, child):
            assert len(sample.lengths) == len(sample.rewards) == 8
            assert len(sample.steps) == sum(sample.lengths) - 8 * sample.boundary
        assert fresh.boundary == 0
        assert child.boundary == m
        for length in child.lengths:
            assert lo <= length - m <= lo + extra


class TestSeedValidation:
    @pytest.mark.parametrize(
        "seed",
        [
            "12",
            b"12",
            1.5,
            np.float64(3.0),
            True,
            None,
            (),
            [],
            (1, 2.7),
            (1, True),
            (1, "2"),
            -1,
            (3, -1),
        ],
    )
    def test_bad_seed_is_a_domain_error(self, seed):
        with pytest.raises(DomainError):
            sample_fresh_group(make_task(), 0, 8, rng_seed=seed)

    def test_numpy_integers_are_ints(self):
        task = make_task()
        want = sample_fresh_group(task, 0, 8, rng_seed=(7, 3))
        assert sample_fresh_group(task, 0, 8, rng_seed=(np.uint32(7), np.int64(3))) == want
        assert sample_fresh_group(task, 0, 8, rng_seed=np.array([7, 3])) == want
        assert sample_fresh_group(task, 0, 8, rng_seed=np.int64(7)) == sample_fresh_group(
            task, 0, 8, rng_seed=7
        )


class TestSelectThenRerollout:
    def test_end_to_end_prefix_flow(self):
        task = make_task(0.2, sensitivity=3.0)
        sample = None
        for i in range(50):
            candidate = sample_fresh_group(task, 0, 8, rng_seed=(31, i))
            bucket = classify_bucket(sum(candidate.rewards), 8)
            if bucket is BucketKind.HARD:
                sample = candidate
                break
        assert sample is not None
        [((step, task_row, k), length)] = select_prefix(
            [0], [0], np.array([sample.rewards]) == 1, np.array([sample.lengths])
        ).items()
        assert (step, task_row, k) == (0, 0, sum(sample.rewards))
        assert length == sample.lengths[sample.rewards.index(1)]
        record = PrefixRecord(task_row, k, length)
        child = sample_rerollout_group(task, record, 2, 8, rng_seed=(31, 777))
        assert child.parent_bucket == sum(sample.rewards)
        assert child.boundary == 2
        for length, steps in zip(child.lengths, rollout_steps(child)):
            assert length == 2 + len(steps)


class TestPopulation:
    def test_size_and_ids(self):
        spec = PopulationSpec(size=10)
        tasks = make_task_population(spec, rng_seed=0)
        assert isinstance(tasks, TaskColumns)
        ids = [f"task-{i:05d}" for i in range(10)]
        assert tasks.task_id.dtype == object and tasks.task_id.tolist() == ids
        assert tasks.uid.dtype == np.uint64
        assert tasks.uid.tolist() == [zlib.crc32(task_id.encode()) for task_id in ids]
        assert tasks.base_logit.shape == tasks.prefix_sensitivity.shape == (10,)
        assert tasks.length_range.dtype == np.int64 and tasks.length_range.shape == (10, 2)

    def test_deterministic(self):
        spec = PopulationSpec(size=50)
        a = make_task_population(spec, rng_seed=4)
        b = make_task_population(spec, rng_seed=4)
        for want, got in zip(a, b):
            assert_array_equal(want, got)

    def test_parameter_ranges(self):
        spec = PopulationSpec(size=200)
        tasks = make_task_population(spec, rng_seed=1)
        p = expit(tasks.base_logit)
        assert ((spec.p_min <= p) & (p <= spec.p_max)).all()
        assert (spec.sensitivity_min <= tasks.prefix_sensitivity).all()
        assert (tasks.prefix_sensitivity <= spec.sensitivity_max).all()
        assert (tasks.length_range == (spec.length_min, spec.length_max)).all()

    def test_hard_skewed_shape(self):
        # Exact expected shares under the sampled pass rates: the preset must
        # produce many degenerate groups and a thin target band at N=8.
        tasks = make_task_population(PopulationSpec(size=1000), rng_seed=6)
        ps = expit(tasks.base_logit)
        ks = np.arange(9)
        pmf = binom.pmf(ks[None, :], 8, ps[:, None])
        degenerate = (pmf[:, 0] + pmf[:, 8]).mean()
        band = pmf[:, 3:6].sum(axis=1).mean()
        assert degenerate > 0.40
        assert band < 0.25
        # Skew: more mass below half than above.
        assert (ps < 0.5).mean() > 0.55

    def test_uniform_preset(self):
        spec = PopulationSpec(preset="uniform", size=300, p_min=0.2, p_max=0.8)
        ps = expit(make_task_population(spec, rng_seed=2).base_logit)
        assert ps.min() >= 0.2 and ps.max() <= 0.8
        assert np.mean(ps) == pytest.approx(0.5, abs=0.06)

    def test_single_preset_with_mirror(self):
        spec = PopulationSpec(preset="single", size=4, p0=0.125)
        probs = expit(make_task_population(spec, rng_seed=3).base_logit)
        assert_allclose(probs, 0.125, rtol=1e-12)
        flipped = PopulationSpec(preset="single", size=4, p0=0.125, mirror=True)
        probs = expit(make_task_population(flipped, rng_seed=3).base_logit)
        assert_allclose(probs, 0.875, rtol=1e-12)

    def test_population_spec_validation(self):
        with pytest.raises(DomainError):
            PopulationSpec(size=0)
        with pytest.raises(DomainError):
            PopulationSpec(p_min=0.9, p_max=0.1)
        with pytest.raises(DomainError):
            PopulationSpec(preset="unknown")
        # A task's sensitivity and length range are checked here, where
        # every population's columns come from.
        with pytest.raises(DomainError, match="sensitivity_min"):
            PopulationSpec(sensitivity_min=-1.0)
        for length_min, length_max in ((1, 12), (12, 4)):
            with pytest.raises(DomainError, match="length_min <= length_max"):
                PopulationSpec(length_min=length_min, length_max=length_max)
