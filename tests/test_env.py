"""Synthetic task environment: determinism, distributions, and replay fidelity."""

import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit, logit
from scipy.stats import binom, chisquare

from passband.controller import PrefixOutcome, PrefixRecord, select_prefix
from passband.env import (
    _PURPOSE_FRESH,
    _PURPOSE_REROLLOUT,
    PopulationSpec,
    SyntheticTask,
    conditioned_pass_probability,
    make_task_population,
    sample_fresh_group,
    sample_rerollout_group,
)
from passband.errors import ContractError, DomainError
from passband.groups import BucketKind, GroupOrigin, classify_bucket, pass_count


def make_task(p0=0.5, sensitivity=4.0, lengths=(4, 12), task_id="t0"):
    return SyntheticTask(
        task_id=task_id,
        base_logit=float(logit(p0)) if 0 < p0 < 1 else (np.inf if p0 == 1 else -np.inf),
        prefix_sensitivity=sensitivity,
        length_range=lengths,
    )


class TestSyntheticTask:
    def test_fresh_pass_probability(self):
        assert make_task(0.5).fresh_pass_probability == 0.5
        assert_allclose(make_task(0.125).fresh_pass_probability, 0.125, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_task(sensitivity=-1.0)
        with pytest.raises(DomainError):
            make_task(lengths=(1, 12))
        with pytest.raises(DomainError):
            make_task(lengths=(12, 4))


class TestFreshSampling:
    def test_deterministic(self):
        task = make_task(0.3)
        a = sample_fresh_group(task, 8, rng_seed=(7, 0, 0))
        b = sample_fresh_group(task, 8, rng_seed=(7, 0, 0))
        assert a.group.rewards == b.group.rewards
        assert [t.steps for t in a.trajectories] == [t.steps for t in b.trajectories]

    def test_seed_sensitivity(self):
        task = make_task(0.5)
        a = sample_fresh_group(task, 8, rng_seed=(7, 0, 0))
        b = sample_fresh_group(task, 8, rng_seed=(7, 0, 1))
        assert (
            a.group.rewards != b.group.rewards
            or [t.steps for t in a.trajectories] != [t.steps for t in b.trajectories]
        )

    def test_structure(self):
        task = make_task(0.5, lengths=(4, 12))
        sample = sample_fresh_group(task, 8, rng_seed=11)
        assert sample.group.origin is GroupOrigin.FRESH
        assert sample.group.parent_bucket is None
        assert len(sample.trajectories) == 8
        for reward, traj in zip(sample.group.rewards, sample.trajectories):
            assert traj.success == bool(reward)
            assert traj.replay_boundary == 0
            assert 4 <= traj.length <= 12

    def test_extreme_probabilities(self):
        always = sample_fresh_group(make_task(1.0), 8, rng_seed=3)
        never = sample_fresh_group(make_task(0.0), 8, rng_seed=3)
        assert pass_count(always.group) == 8
        assert pass_count(never.group) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_fresh_group(make_task(), 1, rng_seed=0)

    def test_pass_count_distribution(self):
        # Chi-squared against Binomial(8, 0.5) pooled over fresh groups.
        # 50k groups keeps the smallest expected cell near 150 while staying
        # well under the acceptance-run budget.
        task = make_task(0.5)
        n_groups = 50_000
        counts = np.zeros(9, dtype=int)
        for i in range(n_groups):
            sample = sample_fresh_group(task, 8, rng_seed=(99, 0, i))
            counts[pass_count(sample.group)] += 1
        expected = binom.pmf(np.arange(9), 8, 0.5) * n_groups
        assert expected.min() >= 5.0
        result = chisquare(counts, expected)
        assert result.pvalue > 0.001


class TestConditionedProbability:
    def test_landmark_value(self):
        task = make_task(0.125, sensitivity=4.0)
        got = conditioned_pass_probability(task, PrefixOutcome.SUCCESS, 0.5)
        assert_allclose(got, expit(logit(0.125) + 4.0 * 0.5), rtol=1e-12)
        assert_allclose(got, 0.5135191667978681, rtol=1e-12)

    def test_failure_prefix_lowers(self):
        task = make_task(0.5, sensitivity=3.0)
        got = conditioned_pass_probability(task, PrefixOutcome.FAILURE, 0.5)
        assert_allclose(got, expit(-1.5), rtol=1e-12)

    def test_monotone_in_replay_share(self):
        task = make_task(0.25, sensitivity=4.0)
        grid = np.linspace(0.0, 1.0, 21)
        up = [
            conditioned_pass_probability(task, PrefixOutcome.SUCCESS, r) for r in grid
        ]
        down = [
            conditioned_pass_probability(task, PrefixOutcome.FAILURE, r) for r in grid
        ]
        assert all(a < b for a, b in zip(up, up[1:]))
        assert all(a > b for a, b in zip(down, down[1:]))

    def test_zero_share_recovers_fresh_rate(self):
        task = make_task(0.3, sensitivity=5.0)
        for outcome in PrefixOutcome:
            got = conditioned_pass_probability(task, outcome, 0.0)
            assert_allclose(got, task.fresh_pass_probability, rtol=1e-12)

    def test_zero_sensitivity_is_flat(self):
        task = make_task(0.3, sensitivity=0.0)
        for r in (0.0, 0.5, 1.0):
            got = conditioned_pass_probability(task, PrefixOutcome.SUCCESS, r)
            assert_allclose(got, 0.3, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            conditioned_pass_probability(make_task(), PrefixOutcome.SUCCESS, 1.5)
        with pytest.raises(DomainError):
            conditioned_pass_probability(make_task(), PrefixOutcome.SUCCESS, -0.1)


class TestRerolloutSampling:
    def _prefix(self, length=8):
        return PrefixRecord(
            task_id="t0",
            source_bucket=classify_bucket(1, 8),
            outcome=PrefixOutcome.SUCCESS,
            steps=tuple(range(100, 100 + length)),
        )

    def test_prefix_replayed_verbatim(self):
        task = make_task(0.125, sensitivity=4.0)
        prefix = self._prefix(8)
        sample = sample_rerollout_group(task, prefix, m=5, n=8, rng_seed=(1, 2, 3))
        for traj in sample.trajectories:
            assert traj.steps[:5] == prefix.steps[:5]
            assert traj.replay_boundary == 5
            assert traj.length > 5

    def test_group_metadata(self):
        task = make_task(0.125)
        sample = sample_rerollout_group(task, self._prefix(), 4, 8, rng_seed=5)
        assert sample.group.origin is GroupOrigin.REROLLOUT
        assert sample.group.parent_bucket == classify_bucket(1, 8)
        assert sample.group.task_id == "t0"

    def test_deterministic(self):
        task = make_task(0.125)
        a = sample_rerollout_group(task, self._prefix(), 4, 8, rng_seed=(2, 2))
        b = sample_rerollout_group(task, self._prefix(), 4, 8, rng_seed=(2, 2))
        assert a.group.rewards == b.group.rewards
        assert [t.steps for t in a.trajectories] == [t.steps for t in b.trajectories]

    def test_continuations_differ_across_rollouts(self):
        task = make_task(0.5)
        sample = sample_rerollout_group(task, self._prefix(), 4, 8, rng_seed=9)
        tails = {t.steps[4:] for t in sample.trajectories}
        assert len(tails) > 1

    def test_boundary_contract(self):
        task = make_task(0.5)
        with pytest.raises(ContractError):
            sample_rerollout_group(task, self._prefix(8), m=8, n=8, rng_seed=0)
        with pytest.raises(ContractError):
            sample_rerollout_group(task, self._prefix(8), m=0, n=8, rng_seed=0)

    def test_success_prefix_raises_pass_rate(self):
        # MC check: a half-replayed success prefix on a hard task should lift
        # the pass rate from 0.125 towards the conditioned value 0.5135.
        task = make_task(0.125, sensitivity=4.0)
        prefix = self._prefix(8)
        total = passed = 0
        for i in range(400):
            sample = sample_rerollout_group(task, prefix, 4, 8, rng_seed=(7, i))
            passed += pass_count(sample.group)
            total += 8
        rate = passed / total
        want = conditioned_pass_probability(task, PrefixOutcome.SUCCESS, 0.5)
        se = np.sqrt(want * (1 - want) / total)
        assert abs(rate - want) < 4 * se


class TestRolloutSeeding:
    """Each rollout's stream is numpy's for a tuple of seed entries, however
    the entropy is handed to SeedSequence; entries of 2**32 and above span
    several 32-bit words."""

    SEED_ENTRIES = (0, 2**32 - 1, 2**32, 2**64 + 5)

    @staticmethod
    def reference_draws(seed_tuple, purpose, task, p, n, prefix_steps=()):
        lo, hi = task.length_range
        out = []
        for index in range(n):
            entropy = seed_tuple + (purpose, zlib.crc32(task.task_id.encode()), index)
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            length = int(rng.integers(lo, hi + 1))
            success = int(rng.random() < p)
            fresh = rng.integers(0, 2**62, size=length)
            out.append((prefix_steps + tuple(int(x) for x in fresh), success))
        return out

    @pytest.mark.parametrize("entry", SEED_ENTRIES)
    def test_fresh_matches_tuple_entropy(self, entry):
        task = make_task(0.5)
        seed_tuple = (entry, 3, entry)
        sample = sample_fresh_group(task, 8, rng_seed=seed_tuple)
        assert [(t.steps, t.success) for t in sample.trajectories] == self.reference_draws(
            seed_tuple, _PURPOSE_FRESH, task, 0.5, 8
        )

    @pytest.mark.parametrize("entry", SEED_ENTRIES)
    def test_rerollout_matches_tuple_entropy(self, entry):
        task = make_task(0.5)
        prefix = PrefixRecord(
            task_id="t0",
            source_bucket=classify_bucket(1, 8),
            outcome=PrefixOutcome.SUCCESS,
            steps=tuple(range(100, 108)),
        )
        sample = sample_rerollout_group(task, prefix, 3, 8, rng_seed=entry)
        p = conditioned_pass_probability(task, prefix.outcome, 3 / 8)
        assert [(t.steps, t.success) for t in sample.trajectories] == self.reference_draws(
            (entry,), _PURPOSE_REROLLOUT, task, p, 8, prefix.steps[:3]
        )


class TestSelectThenRerollout:
    def test_end_to_end_prefix_flow(self):
        task = make_task(0.2, sensitivity=3.0)
        sample = None
        for i in range(50):
            candidate = sample_fresh_group(task, 8, rng_seed=(31, i))
            bucket = classify_bucket(pass_count(candidate.group), 8)
            if bucket.kind is BucketKind.HARD:
                sample = candidate
                break
        assert sample is not None
        record = select_prefix(sample.group, sample.trajectories)
        child = sample_rerollout_group(task, record, 2, 8, rng_seed=(31, 777))
        assert child.group.parent_bucket == classify_bucket(
            pass_count(sample.group), 8
        )
        for traj in child.trajectories:
            assert traj.steps[:2] == record.steps[:2]


class TestPopulation:
    def test_size_and_ids(self):
        spec = PopulationSpec(size=10)
        tasks = make_task_population(spec, rng_seed=0)
        assert len(tasks) == 10
        assert [t.task_id for t in tasks] == [f"task-{i:05d}" for i in range(10)]

    def test_deterministic(self):
        spec = PopulationSpec(size=50)
        a = make_task_population(spec, rng_seed=4)
        b = make_task_population(spec, rng_seed=4)
        assert [(t.base_logit, t.prefix_sensitivity, t.length_range) for t in a] == [
            (t.base_logit, t.prefix_sensitivity, t.length_range) for t in b
        ]

    def test_parameter_ranges(self):
        spec = PopulationSpec(size=200)
        for task in make_task_population(spec, rng_seed=1):
            p = task.fresh_pass_probability
            assert spec.p_min <= p <= spec.p_max
            assert spec.sensitivity_min <= task.prefix_sensitivity
            assert task.prefix_sensitivity <= spec.sensitivity_max
            assert task.length_range == (spec.length_min, spec.length_max)

    def test_hard_skewed_shape(self):
        # Exact expected shares under the sampled pass rates: the preset must
        # produce many degenerate groups and a thin target band at N=8.
        tasks = make_task_population(PopulationSpec(size=1000), rng_seed=6)
        ps = np.array([t.fresh_pass_probability for t in tasks])
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
        ps = [t.fresh_pass_probability for t in make_task_population(spec, rng_seed=2)]
        assert min(ps) >= 0.2 and max(ps) <= 0.8
        assert np.mean(ps) == pytest.approx(0.5, abs=0.06)

    def test_single_preset_with_mirror(self):
        spec = PopulationSpec(preset="single", size=4, p0=0.125)
        probs = [
            t.fresh_pass_probability for t in make_task_population(spec, rng_seed=3)
        ]
        assert_allclose(probs, 0.125, rtol=1e-12)
        flipped = PopulationSpec(preset="single", size=4, p0=0.125, mirror=True)
        probs = [
            t.fresh_pass_probability
            for t in make_task_population(flipped, rng_seed=3)
        ]
        assert_allclose(probs, 0.875, rtol=1e-12)

    def test_population_spec_validation(self):
        with pytest.raises(DomainError):
            PopulationSpec(size=0)
        with pytest.raises(DomainError):
            PopulationSpec(p_min=0.9, p_max=0.1)
        with pytest.raises(DomainError):
            PopulationSpec(preset="unknown")
        with pytest.raises(DomainError):
            PopulationSpec(length_min=1)
