"""Closed-loop harness: step metrics, transitions, runs, and trace emission."""

import hashlib
import itertools
import json
import math
import re
import sys
import tempfile
import tracemalloc
import zlib
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import log_softmax
from test_env import ref_below, ref_hash, ref_word
from test_loss_kernel import reference_loss

from passband import env, harness
from passband.config import (
    SAVING_KINDS,
    Arm,
    ExperimentConfig,
    arm_controller_params,
    parse_config,
)
from passband.controller import (
    ControllerParams,
    PrefixPool,
    PrefixRecord,
    initial_controller_state,
    replay_boundary,
    select_prefix,
    update_controller,
)
from passband.errors import ContractError, DomainError
from passband.groups import BucketKind, bucket_label, classify_bucket, controlled_buckets
from passband.harness import (
    aggregate_run,
    compare_arms,
    compute_step_metrics,
    compute_transition_matrix,
    emit_traces,
    run_experiment,
)

TRACE_FILES = ["metrics.csv", "controller.csv", "transitions.csv", "run.jsonl"]

# A config that sets at least one key at the top level and in every section.
EVERY_SECTION = (
    "arm = ps-fix\n"
    "steps = 3\n"
    "seed = 11\n"
    "fixed_ratio = 0.3\n"
    "controller.alpha = 0.1\n"
    "controller.cooldown = 2\n"
    "loss.length_normalized = true\n"
    "population.preset = uniform\n"
    "population.size = 50\n"
    "population.mirror = true\n"
)


def small_config(**overrides):
    entries = {"steps": 10, "batch_size": 16, "population.size": 100}
    entries.update({k.replace("__", "."): v for k, v in overrides.items()})
    return parse_config("\n".join(f"{k} = {v}" for k, v in entries.items()))


def columns(fresh=(), rerollouts=(), n=8, step=0):
    """One step's GroupColumns from fresh pass counts and (parent, pass
    count) rerollouts, fresh groups first; a group of pass count k passes
    its first k rollouts. The parent column is a list, as a caller may pass."""
    ks = [*fresh, *(k for _, k in rerollouts)]
    rows = len(ks)
    return harness.GroupColumns(
        task_id=np.array([f"t{i}" for i in range(rows)], object),
        rewards=(np.arange(n) < np.reshape(np.array(ks, np.int64), (-1, 1))).view(np.int8),
        parent_bucket=[-1] * len(fresh) + [parent for parent, _ in rerollouts],
        step=np.full(rows, step),
        lengths=np.full((rows, n), 4),
        boundary=np.zeros(rows, np.int64),
    )


def one_step(groups, n=8):
    """The one StepMetrics of one-step columns."""
    (m,) = compute_step_metrics(groups, n, [0.0])
    return m


def step_metrics(fresh, rerollouts, n=8):
    """The StepMetrics of one step of these groups (see columns)."""
    return one_step(columns(fresh, rerollouts, n), n)


class TestComputeStepMetrics:
    def test_hand_fixture(self):
        hard1, easy6 = 1, 6
        groups = columns([0, 1, 4, 8, 3], [(hard1, 4), (hard1, 5), (easy6, 2)], step=3)
        m = compute_step_metrics(groups, 8, [9.0, 9.0, 9.0, -0.5])[3]
        assert m.step == 3
        assert m.audit_loss == -0.5
        assert m.valid_groups == 6
        assert m.fresh.count == 5
        assert m.fresh.degenerate_share == 0.4
        assert m.fresh.target_band_share == 0.4
        assert m.fresh.exact_half_share == 0.2
        assert_allclose(m.fresh.mean_distance, 2.4, rtol=1e-15)
        assert m.rerollout.count == 3
        assert m.rerollout.degenerate_share == 0.0
        assert_allclose(m.rerollout.target_band_share, 2 / 3, rtol=1e-15)
        assert_allclose(m.rerollout.mean_distance, 1.0, rtol=1e-15)
        assert m.bucket_pass_rates == {"1/8": 4.5 / 8, "6/8": 0.25}
        assert m.bucket_group_counts == {"1/8": 2, "6/8": 1}

    def test_all_degenerate(self):
        m = step_metrics([0, 8], [])
        assert m.valid_groups == 0
        assert m.fresh.degenerate_share == 1.0
        assert m.rerollout.count == 0
        assert math.isnan(m.rerollout.mean_distance)

    def test_empty_batch_needs_size(self):
        # The group size is an argument, so a step without groups still has
        # one and gives empty cohorts with nan shares.
        m = step_metrics([], [])
        assert m.valid_groups == 0
        assert m.fresh.count == m.rerollout.count == 0
        assert math.isnan(m.fresh.degenerate_share)
        assert m.bucket_pass_rates == m.bucket_group_counts == {}

    def test_steps_score_their_own_rows(self):
        # Step 1 has no rows; steps 0 and 2 score exactly their own groups.
        first, last = columns([1, 4], [(2, 3)]), columns([8], [(7, 5), (1, 0)], step=2)
        run = harness.GroupColumns(*(np.concatenate((a, b)) for a, b in zip(first, last)))
        metrics = compute_step_metrics(run, 8, [0.25, 0.5, 0.75])
        assert [m.step for m in metrics] == [0, 1, 2]
        assert [m.audit_loss for m in metrics] == [0.25, 0.5, 0.75]
        (alone,) = compute_step_metrics(last._replace(step=np.zeros(3, np.int64)), 8, [0.75])
        assert metrics[2] == alone._replace(step=2)
        assert metrics[0] == step_metrics([1, 4], [(2, 3)])._replace(audit_loss=0.25)
        assert metrics[1].fresh.count == metrics[1].rerollout.count == 0
        assert math.isnan(metrics[1].fresh.mean_distance)

    @pytest.mark.parametrize("parent", [99, 4])
    def test_parent_must_be_a_controlled_bucket(self, parent):
        # 99 lies outside [0, 8]; 4/8 is balanced, so nothing replays it.
        with pytest.raises(ContractError, match=f"got parent {parent}/8"):
            step_metrics([1], [(1, 3), (parent, 3)])

    def test_size_claim_must_match(self):
        # Rewards eight wide cannot come from groups of the claimed size 4.
        with pytest.raises(ContractError, match=r"^rewards of shape \(2, 8\) for group size 4$"):
            compute_step_metrics(columns([6, 1]), 4, [0.0])

    def test_row_counts_must_agree(self):
        groups = columns([1, 2], [(1, 3)])._replace(step=np.zeros(2, np.int64))
        with pytest.raises(ContractError, match="^3 rewards, 3 parents, 2 steps$"):
            compute_step_metrics(groups, 8, [0.0])

    @pytest.mark.parametrize("step", [1, 5, -1])
    def test_step_needs_an_audit_loss(self, step):
        # One audit loss per step: a step at or beyond their count, or below
        # 0, has none.
        with pytest.raises(
            ContractError, match=fr"^step {step} outside \[0, 1\), the steps with a loss$"
        ):
            compute_step_metrics(columns([1, 2], step=step), 8, [0.0])

    def test_pass_count_outside_range(self):
        # A pass count outside [0, n] needs a reward other than 0 or 1.
        for reward in (2, -1):
            groups = columns([1], [(1, 3)])
            groups.rewards[1, 0] = reward
            with pytest.raises(DomainError, match="^rewards must be 0 or 1$"):
                one_step(groups)

    @pytest.mark.parametrize(
        "fresh, rerollouts, what, dtype",
        [
            ([2, 3], [(1, 1)], "rewards", "float64"),
            ([2, 3], [], "rewards", "bool"),
            ([2, 3], [], "rewards", "object"),
            ([2, 3], [(1.7, 1)], "parent_bucket", "float64"),
            ([2, 3], [(True, 1)], "parent_bucket", "bool"),
        ],
    )
    def test_non_integer_dtype_rejected(self, fresh, rerollouts, what, dtype):
        # A cast to int64 would truncate the parent 1.7 to the bucket 1; the
        # list [-1, -1, True] is an int64 array to numpy. An empty parent
        # list stays valid: a run without rerollouts may pass one.
        groups = columns(fresh, rerollouts)
        if what == "rewards":
            groups = groups._replace(rewards=groups.rewards.astype(dtype))
        with pytest.raises(
            DomainError, match=f"^{what} must be integers, got (dtype |a ){dtype}$"
        ):
            one_step(groups)

    @pytest.mark.parametrize(
        "column, values, what",
        [
            ("step", [0, True], "step"),
            ("parent_bucket", [-1, True], "parent_bucket"),
            ("rewards", [[1] * 7 + [0], [True] + [0] * 7], "rewards"),
        ],
    )
    def test_bool_in_a_list_column_rejected(self, column, values, what):
        # numpy reads a list that mixes True with ints as int64, so the guard
        # looks at the list's elements.
        assert np.asarray(values).dtype == np.int64
        groups = columns([1, 2])._replace(**{column: values})
        with pytest.raises(DomainError, match=f"^{what} must be integers, got a bool$"):
            one_step(groups)
        with pytest.raises(DomainError, match=f"^{what} must be integers, got a bool$"):
            compute_transition_matrix(groups, 8)

    @settings(max_examples=200, deadline=None)
    @given(
        half=st.integers(2, 8),
        data=st.data(),
    )
    def test_counts_match_float_means(self, half, data):
        # The shares come from integer counts of |2k - n|; the float means
        # over the groups are the reference and must agree to the last bit.
        n = 2 * half
        ks = data.draw(st.lists(st.integers(0, n), max_size=80))
        n_fresh = data.draw(st.integers(0, len(ks)))
        parents = data.draw(
            st.lists(st.sampled_from(controlled_buckets(n)),
                     min_size=len(ks) - n_fresh, max_size=len(ks) - n_fresh)
        )
        m = step_metrics(ks[:n_fresh], list(zip(parents, ks[n_fresh:])), n=n)

        def reference(cohort):
            arr = np.asarray(cohort, dtype=float)
            distance = np.abs(arr - n / 2)
            if not len(cohort):
                return [0] + ["nan"] * 4
            return [len(cohort)] + [
                repr(float(x)) for x in (
                    np.mean((arr == 0) | (arr == n)), np.mean(distance <= 1.0),
                    np.mean(arr == n / 2), distance.mean(),
                )
            ]

        for stats, cohort in ((m.fresh, ks[:n_fresh]), (m.rerollout, ks[n_fresh:])):
            got = [stats.count] + [
                repr(x) for x in (stats.degenerate_share, stats.target_band_share,
                                  stats.exact_half_share, stats.mean_distance)
            ]
            assert got == reference(cohort)
        assert m.valid_groups == sum(0 < k < n for k in ks)
        by_bucket: dict[str, list[int]] = {}
        for parent, k in zip(parents, ks[n_fresh:]):
            by_bucket.setdefault(bucket_label(parent, n), []).append(k)
        assert m.bucket_pass_rates == {
            label: float(np.mean(v)) / n for label, v in sorted(by_bucket.items())
        }
        assert list(m.bucket_pass_rates) == sorted(by_bucket)


class TestRecordTypes:
    def test_fields_and_immutability(self):
        # Plain immutable records: field names and order as before, no assignment.
        assert harness.CohortStats._fields == (
            "count", "degenerate_share", "target_band_share", "exact_half_share", "mean_distance",
        )
        assert harness.ControllerRow._fields == ("step", "bucket", "r_b", "ema", "cooldown_remaining")
        assert harness.StepMetrics._fields == (
            "step", "valid_groups", "fresh", "rerollout", "bucket_pass_rates",
            "bucket_group_counts", "audit_loss",
        )
        row = harness.ControllerRow(0, "1/8", 0.5, 0.5, 0)
        stats = harness.CohortStats(1, 0.0, 1.0, 1.0, 0.0)
        metrics = step_metrics([1], [])
        for record, field in ((row, "ema"), (stats, "count"), (metrics, "audit_loss")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


def transition_rows(tmp_path, counts):
    """transitions.csv of a run whose transition counts are counts: its
    header and a dict from each row's bucket label to the cells after it."""
    emit_traces(replace(run_experiment(small_config(steps=0)), transitions=counts), tmp_path)
    header, *lines = (tmp_path / "transitions.csv").read_text().splitlines()
    return header.split(","), {
        line.split(",")[0]: line.split(",")[1:] for line in lines
    }


def transitions(pairs, n=8):
    """compute_transition_matrix of one step's rerollouts, one per (parent,
    pass count) pair."""
    return compute_transition_matrix(columns((), pairs, n), n)


class TestTransitionMatrix:
    def test_single_pair_point_mass(self, tmp_path):
        counts = transitions([(1, 4)])
        expected = np.zeros((4, 9), np.int64)
        expected[0, 4] = 1
        assert counts.dtype == np.int64
        assert_array_equal(counts, expected)
        header, rows = transition_rows(tmp_path, counts)
        assert header == [
            "bucket", "count", "mean_child_pass_count", "target_band_share",
            *(f"child_{k}" for k in range(9)),
        ]
        assert list(rows) == ["1/8", "2/8", "6/8", "7/8"]
        # Count, mean child k, band share, then the child distribution.
        assert rows["1/8"] == ["1", "4.0", "1.0"] + ["0.0"] * 4 + ["1.0"] + ["0.0"] * 4

    def test_empty_row_is_nan(self, tmp_path):
        # Fresh groups are no transitions.
        counts = compute_transition_matrix(columns([0, 3, 8]), 8)
        assert counts.shape == (4, 9)
        assert counts.sum() == 0
        assert_array_equal(transitions([]), counts)
        _, rows = transition_rows(tmp_path, counts)
        assert rows["2/8"] == ["0"] + ["nan"] * 11

    def test_row_probabilities_normalized(self, tmp_path):
        pairs = [(2, k) for k in (0, 3, 4, 4, 5, 8)]
        counts = transitions(pairs)
        assert counts[1].tolist() == [1, 0, 0, 1, 2, 1, 0, 0, 1]
        _, rows = transition_rows(tmp_path, counts)
        total, mean, band_share, *distribution = map(float, rows["2/8"])
        assert total == 6
        assert mean == 4.0
        assert_allclose(band_share, 4 / 6, rtol=1e-15)
        assert_allclose(sum(distribution), 1.0, rtol=1e-12)

    def test_contracts(self):
        # -1 marks a fresh group; any other parent must be a controlled bucket.
        for parent in (0, 4, 8, 9, -2):
            with pytest.raises(ContractError, match=f"got parent {parent}/8$"):
                transitions([(1, 4), (parent, 4)])
        # A child pass count outside [0, 8] needs a reward other than 0 or 1.
        for reward in (2, -1):
            groups = columns((), [(1, 4), (7, 4)])
            groups.rewards[1, 0] = reward
            with pytest.raises(DomainError, match="^rewards must be 0 or 1$"):
                compute_transition_matrix(groups, 8)
        with pytest.raises(ContractError, match=r"^rewards of shape \(1, 8\) for group size 4$"):
            compute_transition_matrix(columns((), [(1, 4)]), 4)

    @pytest.mark.parametrize(
        "pairs, dtype",
        [([(1.9, 2)], "float64"), ([(True, 2)], "bool"), ([(None, 2)], "object")],
    )
    def test_non_integer_dtype_rejected(self, pairs, dtype):
        # A cast to int64 would count the parent 1.9 as the bucket 1.
        with pytest.raises(DomainError, match=f"got dtype {dtype}$"):
            transitions(pairs)


class TestRunExperiment:
    def test_shapes_and_counts(self):
        config = small_config()
        result = run_experiment(config)
        assert len(result.metrics) == 10
        # One controller row per controlled bucket per step.
        assert len(result.controller_rows) == 40
        for m in result.metrics:
            assert m.fresh.count == config.batch_size
            assert m.valid_groups <= m.fresh.count + m.rerollout.count
        assert set(result.final_states) == {"1/8", "2/8", "6/8", "7/8"}

    def test_valid_groups_counts_non_degenerate(self):
        result = run_experiment(small_config(steps=4))
        by_step: dict[int, list[dict]] = {}
        for record in result.group_records:
            by_step.setdefault(record["step"], []).append(record)
        for m in result.metrics:
            records = by_step[m.step]
            non_degenerate = sum(1 for r in records if 0 < sum(r["rewards"]) < 8)
            assert m.valid_groups == non_degenerate
            assert len(records) == m.fresh.count + m.rerollout.count

    def test_baseline_never_replays(self):
        result = run_experiment(small_config(arm="baseline"))
        assert result.controller_rows == ()
        assert result.transitions.sum() == 0
        assert all(r["origin"] == "fresh" for r in result.group_records)
        for m in result.metrics:
            assert m.rerollout.count == 0

    def test_ps_ada_replays_both_sides(self):
        result = run_experiment(small_config())
        parents = {
            r["parent_bucket"]
            for r in result.group_records
            if r["origin"] == "rerollout"
        }
        assert parents & {"1/8", "2/8"}
        assert parents & {"6/8", "7/8"}

    def test_hard_only_skips_easy_buckets(self, tmp_path):
        result = run_experiment(small_config(arm="ps-ada-hard-only"))
        parents = {
            r["parent_bucket"]
            for r in result.group_records
            if r["origin"] == "rerollout"
        }
        assert parents
        assert not parents & {"6/8", "7/8"}
        # Easy controllers exist but never see an update.
        for label in ("6/8", "7/8"):
            state = result.final_states[label]
            assert state.updates_seen == 0
            assert state.ema == 0.5
        # Rows 2 and 3 are the easy buckets 6/8 and 7/8.
        assert result.transitions[2:].sum() == 0
        emit_traces(result, tmp_path)
        lines = (tmp_path / "transitions.csv").read_text().splitlines()
        assert lines[3:] == [f"{label},0" + ",nan" * 11 for label in ("6/8", "7/8")]

    @pytest.mark.parametrize(
        "overrides", [{}, {"arm": "ps-ada-hard-only", "same_step_rerollout": "false"}]
    )
    def test_transitions_match_rerollout_rows(self, overrides):
        # The counts array recounted from the run.jsonl columns: one
        # (parent k, child k) pair per rerollout row.
        result = run_experiment(small_config(**overrides))
        labels = [bucket_label(k, 8) for k in controlled_buckets(8)]
        expected = np.zeros((len(labels), 9), np.int64)
        for parent, rewards in zip(result.groups.parent_bucket, result.groups.rewards):
            if parent >= 0:
                expected[labels.index(bucket_label(parent, 8)), rewards.sum()] += 1
        assert expected.sum() > 0
        assert result.transitions.dtype == np.int64
        assert_array_equal(result.transitions, expected)

    def test_record_structure(self):
        result = run_experiment(small_config(steps=3))
        for record in result.group_records:
            assert set(record) == {
                "task_id", "rewards", "origin", "parent_bucket", "step",
                "lengths", "boundary",
            }
            assert len(record["rewards"]) == 8
            assert len(record["lengths"]) == 8
            if record["origin"] == "fresh":
                assert record["boundary"] == 0
                assert record["parent_bucket"] is None
            else:
                assert record["boundary"] >= 1
                assert record["parent_bucket"] in {"1/8", "2/8", "6/8", "7/8"}
                # Replay keeps at least one fresh step on every trajectory.
                assert all(
                    length > record["boundary"] for length in record["lengths"]
                )

    def test_next_step_mode_delays_replay(self):
        result = run_experiment(small_config(same_step_rerollout="false"))
        assert result.metrics[0].rerollout.count == 0
        assert sum(m.rerollout.count for m in result.metrics[1:]) > 0

    def test_zero_steps(self):
        result = run_experiment(small_config(steps=0))
        assert result.metrics == ()
        assert list(result.group_records) == []
        assert result.transitions.sum() == 0

    def test_loop_calls_the_benchmarked_step_functions(self, monkeypatch):
        # The benchmark times these layers by replacing the module attributes
        # the loop looks up, so the loop must call them by these names. The
        # metrics and transitions are computed from the columns once per run,
        # and select_prefix once per block: these 3 steps fit one.
        calls = Counter()
        for name in ("compute_step_metrics", "compute_transition_matrix", "select_prefix"):
            def counted(*args, _real=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(harness, name, counted)
        run_experiment(small_config(steps=3, arm="ps-ada"))
        assert calls == {
            "compute_step_metrics": 1, "compute_transition_matrix": 1, "select_prefix": 1,
        }

    @pytest.mark.parametrize("overrides", [{"arm": "ps-ada"}, {"same_step_rerollout": "false"}])
    def test_recurrence_calls_each_helper_once_per_rerollout(self, monkeypatch, overrides):
        # The benchmark times replay_boundary on the harness, so the loop
        # calls it, and the pass probability, for every rerollout in order.
        boundaries, probabilities = [], []

        def boundary(*args, _real=harness.replay_boundary):
            boundaries.append(_real(*args))
            return boundaries[-1]

        def probability(*args, _real=env.conditioned_pass_probability):
            probabilities.append(_real(*args))
            return probabilities[-1]

        monkeypatch.setattr(harness, "replay_boundary", boundary)
        monkeypatch.setattr(env, "conditioned_pass_probability", probability)
        groups = run_experiment(small_config(steps=6, **overrides)).groups
        rerolled = groups.parent_bucket >= 0
        assert rerolled.sum() > 0
        assert len(boundaries) == len(probabilities) == rerolled.sum()
        assert boundaries == groups.boundary[rerolled].tolist()
        assert all(type(m) is int for m in boundaries)
        assert all(type(p) is float and 0.0 < p < 1.0 for p in probabilities)

    def test_deterministic(self):
        a = run_experiment(small_config(steps=5))
        b = run_experiment(small_config(steps=5))
        assert list(a.group_records) == list(b.group_records)
        assert a.controller_rows == b.controller_rows


BLOCK_OVERRIDES = [
    {},
    # The pending pool carries prefixes across block edges.
    {"same_step_rerollout": "false"},
    {"group_size": 16},
    {"population__length_min": 2, "population__length_max": 2},
    {"loss__length_normalized": "true", "loss__group_reduction": "mean"},
]
BLOCK_IDS = ["default", "next-step-rerollout", "n16", "length-2", "mean-normalized"]


class TestBlocks:
    """The loop walks a run in blocks of steps; where a block ends must not
    show in anything the run records."""

    @pytest.mark.parametrize("overrides", BLOCK_OVERRIDES, ids=BLOCK_IDS)
    def test_block_edges_are_invisible(self, monkeypatch, overrides):
        config = small_config(steps=7, **overrides)
        step_words = config.batch_size * config.group_size * (config.population.length_max + 2)
        draws = Counter()
        real = harness.env_mod.draw_fresh_groups

        def counted(*args):
            draws[steps_per_block] += 1
            return real(*args)

        monkeypatch.setattr(harness.env_mod, "draw_fresh_groups", counted)
        runs = []
        # One step per block, three with a ragged last block, the whole run.
        for steps_per_block in (1, 3, config.steps):
            monkeypatch.setattr(harness, "_BLOCK_WORDS", steps_per_block * step_words)
            runs.append(run_experiment(config))
        assert draws == {1: 7, 3: 3, 7: 1}
        first, *others = runs
        assert first.groups.parent_bucket.max() >= 0
        for other in others:
            for want, got in zip(first.groups, other.groups):
                assert got.dtype == want.dtype
                assert_array_equal(got, want)
            losses = [np.array([m.audit_loss for m in run.metrics]) for run in (first, other)]
            assert losses[0].tobytes() == losses[1].tobytes()
            assert other.controller_rows == first.controller_rows
            assert other.final_states == first.final_states

    @pytest.mark.parametrize("overrides", BLOCK_OVERRIDES, ids=BLOCK_IDS)
    def test_scoring_chunks_are_invisible(self, monkeypatch, overrides):
        # A block scores its live groups a chunk of whole groups at a time:
        # one group per chunk, ragged chunks of a few groups and the default
        # budget leave every column, audit-loss byte and controller row as
        # they are.
        config = small_config(steps=7, **overrides)
        calls = Counter()
        real = harness.env_mod.draw_step_ids

        def counted(keys, lengths):
            calls[budget] += 1
            return real(keys, lengths)

        monkeypatch.setattr(harness.env_mod, "draw_step_ids", counted)
        runs = []
        for budget in (1, 300, harness._SCORE_WORDS):
            monkeypatch.setattr(harness, "_SCORE_WORDS", budget)
            runs.append(run_experiment(config))
        k = runs[0].groups.rewards.sum(axis=1)
        # One call per live group at a budget of 1, fewer at each larger one.
        live = np.count_nonzero((k > 0) & (k < config.group_size))
        assert calls[1] == live > calls[300] > calls[harness._SCORE_WORDS] >= 1
        first, *others = runs
        for other in others:
            for want, got in zip(first.groups, other.groups):
                assert got.dtype == want.dtype
                assert_array_equal(got, want)
            losses = [np.array([m.audit_loss for m in run.metrics]) for run in (first, other)]
            assert losses[0].tobytes() == losses[1].tobytes()
            assert other.controller_rows == first.controller_rows

    @pytest.mark.parametrize(
        "overrides", [{}, {"same_step_rerollout": "false"}], ids=["default", "next-step-rerollout"]
    )
    def test_blocks_draw_step_ids_of_their_live_groups_once(self, monkeypatch, overrides):
        # A degenerate group's loss is a zero, so each block draws the step
        # ids of its other groups only, once each, in run.jsonl order: each
        # step's fresh groups, then its rerollouts, each rollout by its stream
        # key (seed, step, slot, purpose, crc32(task id), i) and drawn length.
        # A call holds whole groups of one block: as many as fit the scoring
        # budget, and one if none fits.
        config = small_config(steps=7, arm="ps-ada", **overrides)
        n = config.group_size
        step_words = config.batch_size * n * (config.population.length_max + 2)
        monkeypatch.setattr(harness, "_BLOCK_WORDS", 3 * step_words)
        calls = []
        real = harness.env_mod.draw_step_ids

        def recorded(keys, lengths):
            calls.append((np.array(keys).tolist(), np.array(lengths).tolist()))
            return real(keys, lengths)

        monkeypatch.setattr(harness.env_mod, "draw_step_ids", recorded)
        groups = run_experiment(config).groups
        k = groups.rewards.sum(axis=1)
        rerolled = groups.parent_bucket >= 0
        assert ((k == 0) | (k == n)).any() and rerolled.any()
        slots = np.zeros(len(k), np.int64)
        for origin in (~rerolled, rerolled):
            rows = np.flatnonzero(origin)
            steps = groups.step[rows]
            slots[rows] = np.arange(len(rows)) - np.searchsorted(steps, steps)
        want = []
        for first in range(0, config.steps, 3):
            block = []
            in_block = (groups.step >= first) & (groups.step < first + 3) & (k > 0) & (k < n)
            for r in np.flatnonzero(in_block).tolist():
                purpose = env._PURPOSE_REROLLOUT if rerolled[r] else env._PURPOSE_FRESH
                uid = zlib.crc32(groups.task_id[r].encode("utf-8"))
                key = (config.seed, int(groups.step[r]), int(slots[r]), purpose, uid)
                keys = [ref_hash(key + (i,)) for i in range(n)]
                block.append((keys, (groups.lengths[r] - groups.boundary[r]).tolist()))
            want.append(block)
        assert all(want)
        for budget in (1, 300, harness._SCORE_WORDS):
            monkeypatch.setattr(harness, "_SCORE_WORDS", budget)
            calls.clear()
            run_experiment(config)
            got = iter(calls)
            for block in want:
                while block:
                    call_keys, call_lengths = next(got)
                    size = len(call_lengths)
                    assert list(zip(call_keys, call_lengths)) == block[:size]
                    words = sum(map(sum, call_lengths))
                    assert size == 1 or words <= budget
                    if size < len(block):
                        assert words + sum(block[size][1]) > budget
                    block = block[size:]
            assert next(got, None) is None
        # The default budget holds each of these blocks in one call.
        assert len(calls) == len(want)

    @pytest.mark.parametrize("arm, p0", [("baseline", 1e-9), ("ps-ada", 0.999999999)])
    def test_run_without_live_groups_draws_no_step_ids(self, monkeypatch, arm, p0):
        # Every group fails or passes whole, so no group has a loss to score
        # and every step's audit loss is the empty sum, +0.0.
        def unexpected(keys, lengths):
            raise AssertionError("draw_step_ids called")

        monkeypatch.setattr(harness.env_mod, "draw_step_ids", unexpected)
        config = small_config(
            steps=3, arm=arm, population__preset="single", population__p0=p0
        )
        result = run_experiment(config)
        k = result.groups.rewards.sum(axis=1)
        assert len(k) and ((k == 0) | (k == config.group_size)).all()
        assert [repr(m.audit_loss) for m in result.metrics] == ["0.0"] * 3


@st.composite
def prefix_blocks(draw):
    """A run's fresh groups for prefix selection: N even in 4-8, 1-6 groups a
    step, 0-8 steps walked 1-4 at a time, any saving kinds, and rerollouts in
    the saving step or the next. Populations down to one task, and rewards
    from at most three patterns, so that one step often saves under a key,
    then another, then the first again."""
    n, g, steps = 2 * draw(st.integers(2, 4)), draw(st.integers(1, 6)), draw(st.integers(0, 8))
    rows = steps * g
    patterns = draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=3
    ))
    return {
        "g": g, "steps": steps, "span": draw(st.integers(1, 4)), "lag": draw(st.integers(0, 1)),
        "kinds": tuple(draw(st.lists(
            st.sampled_from([BucketKind.HARD, BucketKind.EASY]), unique=True
        ))),
        "task_rows": np.array(draw(st.lists(
            st.integers(0, draw(st.integers(0, 2))), min_size=rows, max_size=rows
        )), np.int64),
        "rewards": np.array(patterns, bool)[draw(st.lists(
            st.integers(0, len(patterns) - 1), min_size=rows, max_size=rows
        ))].reshape(rows, n),
        "lengths": np.array(draw(st.lists(
            st.integers(2, 9), min_size=rows * n, max_size=rows * n
        )), np.int64).reshape(rows, n),
    }


class TestBlockPrefixes:
    """A block's prefixes, selected in one call, are what a PrefixPool saved
    and drained every step would hand out: each (task row, pass count) key in
    the order of its first save with the length of its last, at the saving
    step or the next, across block edges, and none past the last step."""

    # Nine groups of one task, three a step, saving under (task, 1), (task, 3)
    # and (task, 1) again with growing lengths, in blocks of two steps: the
    # pool keeps the first key first with its last length, and the next-step
    # rerollouts of step 1 cross the block edge.
    ABA = {
        "g": 3, "steps": 3, "span": 2, "kinds": (BucketKind.HARD, BucketKind.EASY),
        "task_rows": np.zeros(9, np.int64),
        "rewards": np.tile(np.array([[1, 0, 0, 0], [1, 1, 0, 1], [0, 0, 1, 0]], bool), (3, 1)),
        "lengths": np.arange(36, dtype=np.int64).reshape(9, 4) + 2,
    }

    @settings(max_examples=50, deadline=None)
    @given(run=prefix_blocks())
    @example(run={**ABA, "lag": 0})
    @example(run={**ABA, "lag": 1})
    def test_blocks_match_a_pool_drained_per_step(self, run):
        g, lag, kinds = run["g"], run["lag"], run["kinds"]
        task_rows, rewards, lengths = run["task_rows"], run["rewards"], run["lengths"]
        pool, want = PrefixPool(), []
        for s in range(run["steps"]):
            if lag:
                want += [(s, *record) for record in pool.drain()]
            # One group per call, so that select_prefix has no key to merge.
            for j in range(s * g, (s + 1) * g):
                for (step, task_row, k), length in select_prefix(
                    [s], task_rows[j:j + 1], rewards[j:j + 1], lengths[j:j + 1], kinds
                ).items():
                    assert step == s
                    pool.save(PrefixRecord(task_row, k, length))
            if not lag:
                want += [(s, *record) for record in pool.drain()]
        carry, got = {}, []
        for first in range(0, run["steps"], run["span"]):
            steps = np.arange(first, min(first + run["span"], run["steps"]))
            rows = slice(first * g, (steps[-1] + 1) * g)
            keys, saved_lengths, carry = harness._block_prefixes(
                carry, steps[-1], np.repeat(steps, g) + lag, task_rows[rows], rewards[rows],
                lengths[rows], kinds,
            )
            assert keys.dtype == np.int64 and keys.shape == (len(saved_lengths), 3)
            got += [(*key, length) for key, length in zip(keys.tolist(), saved_lengths)]
            assert all(step == steps[-1] + 1 for step, _, _ in carry)
        assert got == want


class TestEmitTraces:
    def test_files_written(self, tmp_path):
        result = run_experiment(small_config(steps=3))
        written = emit_traces(result, tmp_path / "run")
        assert [p.name for p in written] == TRACE_FILES + ["meta.json"]
        for path in written:
            assert path.is_file()

    def test_controller_csv_schema(self, tmp_path):
        result = run_experiment(small_config(steps=3))
        emit_traces(result, tmp_path)
        lines = (tmp_path / "controller.csv").read_text().splitlines()
        assert lines[0] == "step,bucket,r_b,ema,cooldown_remaining"
        assert len(lines) == 1 + 3 * 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] in {"1/8", "2/8", "6/8", "7/8"}

    def test_metrics_csv_schema(self, tmp_path):
        result = run_experiment(small_config(steps=2))
        emit_traces(result, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["step", "valid_groups"]
        assert "fresh_degenerate_share" in header
        assert "rerollout_mean_distance" in header
        assert "audit_loss" in header
        assert "rerollout_rate_1_8" in header
        assert len(lines) == 3

    def test_jsonl_round_trips(self, tmp_path):
        result = run_experiment(small_config(steps=2))
        emit_traces(result, tmp_path)
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(lines) == len(result.group_records)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["step"] == 0
        assert set(parsed[0]) == set(result.group_records[0])

    def test_zero_step_run_emits_headers(self, tmp_path):
        result = run_experiment(small_config(steps=0))
        emit_traces(result, tmp_path)
        assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 1
        assert (tmp_path / "run.jsonl").read_text() == ""
        # Transition rows always cover the four controlled buckets.
        assert len((tmp_path / "transitions.csv").read_text().splitlines()) == 5

    def test_interrupted_write_leaves_destination_as_it_was(self, tmp_path, monkeypatch):
        old = tmp_path / "old"
        emit_traces(run_experiment(small_config(steps=2)), old)
        before = {path.name: path.read_bytes() for path in old.iterdir()}
        result = run_experiment(small_config(steps=3))
        real_lines = harness._record_lines

        def lines_failing_mid_jsonl(groups):
            yield from itertools.islice(real_lines(groups), 3)
            raise OSError("disk full")

        # Chunks of 2 rows, so that the failure comes after 3 real chunks and
        # before the last.
        monkeypatch.setattr(harness, "_LINE_CHUNK_ROWS", 2)
        assert len(result.group_records) > 3 * 2
        monkeypatch.setattr(harness, "_record_lines", lines_failing_mid_jsonl)
        for destination in (old, tmp_path / "new"):
            with pytest.raises(OSError, match="disk full"):
                emit_traces(result, destination)
        monkeypatch.undo()
        assert {path.name: path.read_bytes() for path in old.iterdir()} == before
        # No new destination, no partial file and no temporary directory.
        assert [path.name for path in tmp_path.iterdir()] == ["old"]

    @pytest.mark.parametrize(
        "text, digest",
        [
            ("", "89a7ff2fdf70a163ce285cde99f026122c87fd2ad639c87ae03ea1aaa33b8168"),
            (
                EVERY_SECTION,
                "38156b5df880fe3ff1033a5a945bbb763b670f18df3d255ccbaeacefa708a6b6",
            ),
        ],
        ids=["default", "every-section"],
    )
    def test_meta_json_bytes_are_pinned(self, tmp_path, text, digest):
        # meta.json echoes every config key; a change to the key set, a key's
        # name or a value's rendering changes these bytes.
        emit_traces(run_experiment(parse_config(text)), tmp_path)
        assert hashlib.sha256((tmp_path / "meta.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "config, text",
        [
            (ExperimentConfig(steps=np.int64(0)), "steps = 0"),
            (
                ExperimentConfig(steps=0, controller=ControllerParams(alpha=np.float32(0.25))),
                "steps = 0\ncontroller.alpha = 0.25",
            ),
            (
                ExperimentConfig(steps=0, controller=ControllerParams(step_size=0)),
                "steps = 0\ncontroller.step_size = 0",
            ),
        ],
        ids=["int64", "float32", "int-in-float-field"],
    )
    def test_meta_json_echoes_values_as_parsed(self, tmp_path, config, text):
        # The dataclasses accept numpy numbers and an int in a float field;
        # meta.json writes them as the equal parsed config's values.
        parsed = parse_config(text)
        assert config == parsed
        emit_traces(run_experiment(config), tmp_path / "built")
        emit_traces(run_experiment(parsed), tmp_path / "parsed")
        meta = (tmp_path / "built" / "meta.json").read_bytes()
        assert meta == (tmp_path / "parsed" / "meta.json").read_bytes()

    @pytest.mark.parametrize(
        "name, dtype",
        [("lengths", float), ("boundary", bool), ("step", float), ("parent_bucket", float),
         ("rewards", bool)],
    )
    def test_int_columns_are_checked(self, tmp_path, name, dtype):
        # A float lengths column used to fail inside the formatter with
        # numpy's bare TypeError, and a bool boundary column was written as 0/1.
        result = run_experiment(small_config(steps=2))
        assert result.groups.boundary.max() > 1
        column = getattr(result.groups, name).astype(dtype)
        bad = replace(result, groups=result.groups._replace(**{name: column}))
        message = f"^{name} must be integers, got dtype {column.dtype}$"
        with pytest.raises(DomainError, match=message):
            emit_traces(bad, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "fresh, boundary, column",
        [(True, 1, "boundary"), (True, -1, "boundary"), (False, 0, "boundary"),
         (False, -5, "boundary"), (True, None, "lengths"), (False, None, "lengths")],
    )
    def test_boundaries_and_lengths_are_checked(self, tmp_path, fresh, boundary, column):
        # A fresh group replays nothing, a rerollout at least one step, and
        # every rollout has a step past its boundary: a group's boundary set
        # to the given value, or one length set to its boundary, fails. A
        # boundary of -5 and negated lengths were written as they were.
        result = run_experiment(small_config(steps=2))
        groups = result.groups
        row = int(np.flatnonzero((groups.parent_bucket < 0) == fresh)[0])
        boundaries, lengths = groups.boundary.copy(), groups.lengths.copy()
        if boundary is None:
            lengths[row, -1] = boundaries[row]
        else:
            boundaries[row] = boundary
        old = tmp_path / "old"
        emit_traces(result, old)
        before = {path.name: path.read_bytes() for path in old.iterdir()}
        bad = replace(result, groups=groups._replace(boundary=boundaries, lengths=lengths))
        message = {
            "boundary": "^boundary must be 0 for a fresh group and >= 1 for a rerollout$",
            "lengths": r"^lengths must be >= boundary \+ 1$",
        }[column]
        for destination in (old, tmp_path / "new"):
            with pytest.raises(DomainError, match=message):
                emit_traces(bad, destination)
        assert {path.name: path.read_bytes() for path in old.iterdir()} == before
        assert [path.name for path in tmp_path.iterdir()] == ["old"]

    def test_byte_identical_across_repeats(self, tmp_path):
        config = small_config(steps=4)
        emit_traces(run_experiment(config), tmp_path / "a")
        emit_traces(run_experiment(config), tmp_path / "b")
        for name in TRACE_FILES + ["meta.json"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    @pytest.mark.parametrize("reward", [2, -1])
    def test_non_binary_rewards_rejected(self, tmp_path, reward):
        result = run_experiment(small_config(steps=2))
        rewards = result.groups.rewards.copy()
        rewards[1, 0] = reward
        bad = replace(result, groups=result.groups._replace(rewards=rewards))
        with pytest.raises(DomainError, match="^rewards must be 0 or 1$"):
            emit_traces(bad, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    def test_lengths_need_one_per_rollout(self, tmp_path):
        # Lengths one short of the group size failed inside the formatter
        # with numpy's bare ValueError.
        result = run_experiment(small_config(steps=2))
        lengths = result.groups.lengths[:, 1:]
        bad = replace(result, groups=result.groups._replace(lengths=lengths))
        want = rf"^lengths of shape \({len(lengths)}, 7\) for group size 8$"
        with pytest.raises(ContractError, match=want):
            emit_traces(bad, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "column, edit, message",
        [
            ("parent_bucket", {"rerollout": 4},
             "rerollouts come only from controlled buckets, got parent 4/8"),
            ("parent_bucket", {"rerollout": 9},
             "rerollouts come only from controlled buckets, got parent 9/8"),
            ("step", {"fresh": -4}, "step -4 outside [0, 3), the steps with a loss"),
            ("step", {"fresh": 3}, "step 3 outside [0, 3), the steps with a loss"),
            ("step", "short", "R rewards, R parents, R-1 steps"),
            ("task_id", "short", "R rewards, R parents, R steps, R-1 task ids"),
            ("lengths", "short", "R rewards, R parents, R steps, R-1 lengths"),
            ("boundary", "short", "R rewards, R parents, R steps, R-1 boundaries"),
        ],
        ids=["parent-4", "parent-9", "step-minus-4", "step-3", "short-step", "short-task-ids",
             "short-lengths", "short-boundaries"],
    )
    def test_emission_checks_columns_as_the_metrics_do(self, tmp_path, column, edit, message):
        # run.jsonl used to label a parent that no run controls ("4/8"), write
        # a step outside the run, and fail on a short column with numpy's
        # bare ValueError or IndexError, where the step metrics reject each.
        result = run_experiment(small_config(steps=3))
        groups, rows = result.groups, len(result.groups.step)
        values = getattr(groups, column).copy()
        if edit == "short":
            values = values[:-1]
        else:
            ((origin, value),) = edit.items()
            values[np.flatnonzero((groups.parent_bucket < 0) == (origin == "fresh"))[0]] = value
        bad = replace(result, groups=groups._replace(**{column: values}))
        want = "^" + re.escape(message.replace("R-1", str(rows - 1)).replace("R", str(rows))) + "$"
        losses = [m.audit_loss for m in result.metrics]
        with pytest.raises(ContractError, match=want):
            compute_step_metrics(bad.groups, 8, losses)
        with pytest.raises(ContractError, match=want):
            emit_traces(bad, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("column", ["step", "parent_bucket", "lengths", "boundary"])
    def test_uint64_above_int64_is_named(self, tmp_path, column):
        # Cast to int64, a uint64 of 2**64 - 1 read as -1: a fresh group's
        # parent, "step -1", or a length of -1 written to run.jsonl.
        result = run_experiment(small_config(steps=3))
        values = getattr(result.groups, column).astype(np.uint64)
        values.flat[0] = 2**64 - 1
        bad = replace(result, groups=result.groups._replace(**{column: values}))
        want = f"^{column} must be integers below 2\\*\\*63, got {2**64 - 1}$"
        if column in ("step", "parent_bucket"):
            with pytest.raises(DomainError, match=want):
                compute_step_metrics(bad.groups, 8, [m.audit_loss for m in result.metrics])
        with pytest.raises(DomainError, match=want):
            emit_traces(bad, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []


def read_columns(path, n):
    """run.jsonl's records read back into GroupColumns."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    parents = [r["parent_bucket"] for r in records]
    assert [r["origin"] for r in records] == [
        "fresh" if parent is None else "rerollout" for parent in parents
    ]
    return harness.GroupColumns(
        task_id=np.array([r["task_id"] for r in records], object),
        rewards=np.array([r["rewards"] for r in records], np.int8).reshape(-1, n),
        parent_bucket=np.array(
            [-1 if parent is None else int(parent.split("/")[0]) for parent in parents], np.int64
        ),
        step=np.array([r["step"] for r in records], np.int64),
        lengths=np.array([r["lengths"] for r in records], np.int64).reshape(-1, n),
        boundary=np.array([r["boundary"] for r in records], np.int64),
    )


@st.composite
def small_configs(draw):
    """Configs of any arm, small enough to run many: N even in 4-16, 1-8
    groups, 0-12 steps, lengths down to 2..2 and populations down to one task,
    so that one step often saves twice for the same task and bucket."""
    length_min = draw(st.integers(2, 6))
    entries = {
        "arm": draw(st.sampled_from([arm.value for arm in Arm])),
        "group_size": 2 * draw(st.integers(2, 8)),
        "batch_size": draw(st.integers(1, 8)),
        "steps": draw(st.integers(0, 12)),
        "seed": draw(st.integers(0, 2**40)),
        "fixed_ratio": draw(st.sampled_from([0.05, 0.3, 0.5, 0.95])),
        "same_step_rerollout": draw(st.booleans()),
        "controller.step_size": draw(st.sampled_from([0.0, 0.05, 0.2])),
        "controller.cooldown": draw(st.integers(0, 3)),
        "population.preset": draw(st.sampled_from(["single", "uniform", "hard_skewed"])),
        "population.size": draw(st.integers(1, 12)),
        "population.length_min": length_min,
        "population.length_max": length_min + draw(st.integers(0, 6)),
        "population.mirror": draw(st.booleans()),
    }
    return parse_config("\n".join(f"{k} = {v}" for k, v in entries.items()))


def drawn_words(config, steps, slots, purpose, task_ids, count, bound):
    """Words 0 .. count-1 below bound of every rollout of groups keyed
    (seed, step, slot) for these tasks, as (G, N, count): rollout i's stream
    is keyed (seed, step, slot, purpose, crc32(task id), i)."""
    n = config.group_size
    uids = [zlib.crc32(task_id.encode("utf-8")) for task_id in task_ids]
    subkeys = np.array(
        [(s, j, purpose, uid, i) for s, j, uid in zip(steps, slots, uids) for i in range(n)],
        np.int64,
    ).reshape(-1, 5)
    return env.stream_integer_rows(config.seed, subkeys, count, bound).reshape(-1, n, count)


def assert_traces_explain_run(config):
    """Assert that the trace files explain the run, and return the run:
    run.jsonl and the audit losses hold everything metrics.csv and
    transitions.csv say, each step's rerollouts are the prefixes its drain
    window saved, every group's draws are keyed by its step and slot, each
    step's audit loss follows from run.jsonl and the reference generator,
    and controller.csv is the controller replayed over run.jsonl's
    rerollouts."""
    n = config.group_size
    lo, hi = config.population.length_min, config.population.length_max
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        result = run_experiment(config)
        emit_traces(result, out / "run")
        groups = read_columns(out / "run" / "run.jsonl", n)
        rescored = replace(
            result,
            metrics=compute_step_metrics(groups, n, [m.audit_loss for m in result.metrics]),
            transitions=compute_transition_matrix(groups, n),
            groups=groups,
        )
        emit_traces(rescored, out / "rescored")
        for name in ("metrics.csv", "transitions.csv", "run.jsonl"):
            rescored_bytes = (out / "rescored" / name).read_bytes()
            assert rescored_bytes == (out / "run" / name).read_bytes(), name
        controller_lines = (out / "run" / "controller.csv").read_text().splitlines()[1:]
        metrics_lines = (out / "run" / "metrics.csv").read_text().splitlines()

    # ps-fix is ps-ada with a zero step size started at the fixed ratio, and
    # one step per block, scored one group at a time, runs as the whole run in
    # one block (these configs fit one): the same columns, audit losses,
    # transitions and controller rows, from which the four trace files other
    # than meta.json are written.
    assert harness._BLOCK_WORDS // (n * config.batch_size * (hi + 2)) >= config.steps
    fix = run_experiment(replace(config, arm=Arm.PS_FIX))
    ada = run_experiment(replace(config, arm=Arm.PS_ADA, controller=replace(
        config.controller, step_size=0.0, initial_ratio=config.fixed_ratio
    )))
    with mock.patch.multiple(harness, _BLOCK_WORDS=1, _SCORE_WORDS=1):
        stepwise = run_experiment(config)
    for a, b in ((fix, ada), (result, stepwise)):
        for want, got in zip(a.groups, b.groups):
            assert want.dtype == got.dtype
            assert_array_equal(want, got)
        losses = [np.array([m.audit_loss for m in run.metrics]) for run in (a, b)]
        assert losses[0].tobytes() == losses[1].tobytes()
        assert_array_equal(a.transitions, b.transitions)
        assert a.controller_rows == b.controller_rows

    saving = SAVING_KINDS[config.arm]
    task_ids, parents = groups.task_id.tolist(), groups.parent_bucket.tolist()
    ks = groups.rewards.sum(axis=1).tolist()
    rerolled = groups.parent_bucket >= 0
    # Each step's fresh groups, then its rerollouts.
    assert groups.step.tolist() == sorted(groups.step.tolist())
    assert (np.diff(rerolled.astype(int))[np.diff(groups.step) == 0] >= 0).all()
    if config.arm is Arm.BASELINE:
        assert not rerolled.any()
    if config.arm is Arm.PS_ADA_HARD_ONLY:
        assert (groups.parent_bucket[rerolled] < n / 2).all()

    # Every group's length and reward draws, keyed (seed, step, slot) with the
    # slot counted within the step's fresh groups or its rerollouts; a group's
    # passes are its rollouts of lowest uniforms (compared by top 32 bits).
    origins = ((~rerolled, env._PURPOSE_FRESH), (rerolled, env._PURPOSE_REROLLOUT))
    group_slots = np.zeros(len(groups.step), np.int64)
    for origin, purpose in origins:
        rows = np.flatnonzero(origin)
        steps = groups.step[rows]
        slots = group_slots[rows] = np.arange(len(rows)) - np.searchsorted(steps, steps)
        ids = groups.task_id[rows].tolist()
        lengths = drawn_words(config, steps, slots, purpose, ids, 1, hi - lo + 1)[..., 0]
        assert_array_equal(groups.lengths[rows] - groups.boundary[rows, None], lo + lengths)
        tops = drawn_words(config, steps, slots, purpose, ids, 2, 2**32)[..., 1]
        passed = groups.rewards[rows] == 1
        highest_pass = np.where(passed, tops, 0).max(axis=1, initial=0)
        lowest_fail = np.where(passed, 2**32, tops).min(axis=1, initial=2**32)
        assert (highest_pass <= lowest_fail).all()
    for s in range(config.steps):
        picks = ref_below((config.seed, harness._TASK_STREAM, s), config.batch_size,
                          config.population.size)
        fresh_ids = groups.task_id[(groups.step == s) & ~rerolled].tolist()
        assert fresh_ids == [f"task-{i:05d}" for i in picks]

    # Each step's audit loss from run.jsonl alone: the audit policy's logits
    # are words 0 .. 127 of the stream (seed, 1002) as uniforms, a rollout's
    # tokens after its boundary m are words 2 .. T - m + 1 of its stream & 15,
    # and each step adds its groups' reference losses left to right from 0.0.
    policy = ref_hash((config.seed, harness._POLICY_STREAM))
    logits = [(ref_word(policy, c) >> 11) * 2.0**-53 for c in range(8 * 16)]
    log_probs = log_softmax(np.reshape(logits, (8, 16)), axis=1)
    audit = [0.0] * config.steps
    records = zip(groups.step.tolist(), group_slots.tolist(), task_ids, parents,
                  groups.rewards.tolist(), groups.lengths.tolist(), groups.boundary.tolist())
    for s, slot, task_id, parent, rewards, lengths, m in records:
        purpose = env._PURPOSE_FRESH if parent < 0 else env._PURPOSE_REROLLOUT
        key = (config.seed, s, slot, purpose, zlib.crc32(task_id.encode("utf-8")))
        trajectories = []
        for i, length in enumerate(lengths):
            h = ref_hash(key + (i,))
            drawn = [ref_word(h, c) >> 2 & 15 for c in range(2, length - m + 2)]
            trajectories.append(([0] * m + drawn, m))
        k = sum(rewards)
        advantages = [r - (k - r) / (n - 1) for r in map(float, rewards)]
        audit[s] += reference_loss(trajectories, advantages, log_probs, **vars(config.loss))
    column = metrics_lines[0].split(",").index("audit_loss")
    assert [line.split(",")[column] for line in metrics_lines[1:]] == list(map(repr, audit))

    # Step s drains the saves of its own fresh groups, or of step s - 1's
    # when rerollouts wait a step: one per (task, bucket), in the order of
    # first save, from the last save's group.
    params = arm_controller_params(config)
    states = {
        k: initial_controller_state(classify_bucket(k, n), params) for k in controlled_buckets(n)
    }
    replayed = []
    for s in range(config.steps):
        window = s if config.same_step_rerollout else s - 1
        saves = {}
        for r in np.flatnonzero((groups.step == window) & ~rerolled).tolist():
            if classify_bucket(ks[r], n) in saving:
                saves[(task_ids[r], ks[r])] = r
        step_rerollouts = np.flatnonzero((groups.step == s) & rerolled).tolist()
        assert [(task_ids[r], parents[r]) for r in step_rerollouts] == list(saves)
        for r, source in zip(step_rerollouts, saves.values()):
            # The saved rollout: the source group's first with the saved outcome.
            state = states[parents[r]]
            success = state.kind is BucketKind.HARD
            length = groups.lengths[source][np.argmax(groups.rewards[source] == success)]
            assert groups.boundary[r] == replay_boundary(state.ratio, int(length))
            states[parents[r]] = update_controller(state, ks[r] / n, params)
        if saving:
            replayed += [
                ",".join(map(str, (s, bucket_label(k, n), b.ratio, b.ema, b.cooldown_remaining)))
                for k, b in states.items()
            ]
    assert controller_lines == replayed
    return result


@pytest.mark.parametrize(
    "overrides", [{}, {"arm": "ps-ada-hard-only", "same_step_rerollout": "false"}]
)
def test_metrics_and_transitions_rederive_from_run_jsonl(overrides):
    result = assert_traces_explain_run(small_config(**overrides))
    assert result.transitions.sum() > 0


# One task, small groups and short lengths: steps save under the same (task,
# pass count) key more than once, so that a selection which keeps the first
# save's length or orders keys by their last save changes these runs.
NEWEST_WINS = (
    "arm = ps-ada\ngroup_size = 4\nbatch_size = 8\nsteps = 6\nseed = 3\n"
    "population.preset = uniform\npopulation.size = 1\n"
    "population.length_min = 2\npopulation.length_max = 8\n"
)


@settings(max_examples=20, deadline=None)
@given(config=small_configs())
@example(config=parse_config(NEWEST_WINS + "same_step_rerollout = true"))
@example(config=parse_config(NEWEST_WINS + "same_step_rerollout = false"))
def test_traces_explain_run_over_small_configs(config):
    assert_traces_explain_run(config)


def encoded(records) -> str:
    """The text of run.jsonl for these records."""
    return "".join(harness._RECORD_ENCODER.encode(record) + "\n" for record in records)


def chunked_text(groups) -> str:
    """_record_lines's output joined, after checking its chunks: one per
    _LINE_CHUNK_ROWS rows begun, none holding more lines than that."""
    chunks = list(harness._record_lines(groups))
    rows, chunk_rows = len(groups.step), harness._LINE_CHUNK_ROWS
    assert len(chunks) == -(-rows // chunk_rows)
    assert all(0 < chunk.count("\n") <= chunk_rows for chunk in chunks)
    return "".join(chunks)


class TestRecordLines:
    """run.jsonl's formatter against the encoder whose bytes it gives: the
    file is _RECORD_ENCODER.encode(record) + "\n" for each of the view's
    records, formatted _LINE_CHUNK_ROWS rows at a time."""

    # 4096 rows hold each of these runs in one chunk, as the default does.
    @pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"arm": "baseline"},
            {"arm": "ps-ada-hard-only", "same_step_rerollout": "false"},
            {"group_size": 16},
        ],
    )
    def test_run_lines_match_encoder(self, tmp_path, monkeypatch, overrides, chunk_rows):
        monkeypatch.setattr(harness, "_LINE_CHUNK_ROWS", chunk_rows)
        result = run_experiment(small_config(steps=6, **overrides))
        emit_traces(result, tmp_path)
        text = encoded(result.group_records)
        assert len(result.group_records) > 0
        assert (tmp_path / "run.jsonl").read_text(encoding="utf-8") == text
        assert chunked_text(result.groups) == text

    def test_escaped_ids_and_labels(self, monkeypatch):
        # Task ids are free text; a parent label is always "k/n", formatted
        # from the int parent column.
        monkeypatch.setattr(harness, "_LINE_CHUNK_ROWS", 2)
        odd = ['q"uote', "back\\slash", "sl/ash", "n\u00efve \u2028\U0001f600", "tab\t"]
        groups = harness.GroupColumns(
            task_id=np.array(["plain"] + odd, object),
            rewards=np.array([[1, 0, 0], [0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 1], [0, 0, 1]],
                             np.int8),
            parent_bucket=np.array([-1, 2, 1, 2, 1, 1]),
            step=np.array([0, 0, 1, 1, 1, 4]),
            lengths=np.array([[3, 4, 5]] * 5 + [[2**40, 7, 8]]),
            boundary=np.array([0, 2, 1, 2, 1, 1]),
        )
        text = chunked_text(groups)
        assert text == encoded(harness._GroupRecords(groups))
        lines = text.splitlines()
        assert [json.loads(line)["task_id"] for line in lines] == ["plain"] + odd
        assert json.loads(lines[0])["origin"] == "fresh"
        assert json.loads(lines[0])["parent_bucket"] is None
        assert json.loads(lines[1])["parent_bucket"] == "2/3"
        assert json.loads(lines[5])["lengths"] == [2**40, 7, 8]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), chunk_rows=st.integers(1, 5))
    def test_any_columns_match_encoder(self, data, n, chunk_rows):
        # Free-text ids, with quotes, backslashes, control and non-BMP
        # characters made likely, steps anywhere in int64 and lengths up to
        # its top, in chunks of 1 to 5 rows. A fresh group's boundary is 0 and
        # a rerollout's lies in [1, its shortest length).
        rows = data.draw(st.integers(0, 20))

        def draw(values, shape):
            size = int(np.prod(shape))
            drawn = data.draw(st.lists(values, min_size=size, max_size=size))
            return np.array(drawn, np.int64).reshape(shape)

        chars = st.one_of(st.sampled_from('"\\/\t\n\x00\x7f\u2028\U0001f600'), st.characters())
        ids = data.draw(st.lists(st.text(chars), min_size=rows, max_size=rows))
        parents = draw(st.integers(-1, n), rows)
        lengths = draw(st.integers(2, 2**63 - 1), (rows, n))
        boundary = [
            0 if parent < 0 else data.draw(st.integers(1, int(shortest) - 1))
            for parent, shortest in zip(parents, lengths.min(axis=1))
        ]
        groups = harness.GroupColumns(
            task_id=np.array(ids, object),
            rewards=draw(st.integers(0, 1), (rows, n)).astype(np.int8),
            parent_bucket=parents,
            step=draw(st.integers(-2**63, 2**63 - 1), rows),
            lengths=lengths,
            boundary=np.array(boundary, np.int64),
        )
        with mock.patch.object(harness, "_LINE_CHUNK_ROWS", chunk_rows):
            assert chunked_text(groups) == encoded(harness._GroupRecords(groups))


    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(), n=st.one_of(st.integers(4, 16), st.sampled_from([63, 64, 130])),
        wide=st.booleans(), chunk_rows=st.sampled_from([1, 3, 1024]),
    )
    def test_reward_patterns_match_encoder(self, data, n, wide, chunk_rows):
        # One cell per line holds its rewards, chosen by the row's pattern:
        # all-0, all-1 and mixed rows, at group sizes past the 63 bits one
        # pattern code holds, through the one-table path (narrow ints) and
        # the per-chunk np.unique fallback (one length of 2**40).
        kinds = data.draw(st.lists(st.sampled_from(["zeros", "ones", "mixed"]),
                                   min_size=1, max_size=12))
        rows = len(kinds)
        rewards = np.zeros((rows, n), np.int8)
        for row, kind in enumerate(kinds):
            if kind == "ones":
                rewards[row] = 1
            elif kind == "mixed":
                bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                rewards[row] = bits
        parents = np.array([-1 if row % 2 else 1 for row in range(rows)])
        boundary = np.where(parents < 0, 0, 1 + np.arange(rows) % 3)
        lengths = boundary[:, None] + 1 + np.arange(n) % 2
        if wide:
            lengths[0, -1] = 2**40
        groups = harness.GroupColumns(
            task_id=np.array([f"t{row % 3}" for row in range(rows)], object),
            rewards=rewards,
            parent_bucket=parents,
            step=np.arange(rows) // 2,
            lengths=lengths,
            boundary=boundary,
        )
        tables = []
        real = harness._int_table

        def recorded(values):
            # The step, length and boundary tables; the rewards' is (0, 1).
            if values != (0, 1):
                tables.append(values)
            return real(values)

        with mock.patch.object(harness, "_LINE_CHUNK_ROWS", chunk_rows), \
                mock.patch.object(harness, "_int_table", recorded):
            text = chunked_text(groups)
        assert text.splitlines(keepends=True) == [
            harness._RECORD_ENCODER.encode(record) + "\n"
            for record in harness._GroupRecords(groups)
        ]
        assert all(isinstance(values, range) != wide for values in tables)
        assert len(tables) == (-(-rows // chunk_rows) if wide else 1)


class TestRunResultReads:
    """What the benchmark's worker reads from a RunResult: the group count,
    every record's rewards, final controller states by label and the
    per-step bucket rates and counts."""

    def test_worker_reads(self):
        result = run_experiment(small_config(steps=8))
        records = result.group_records
        assert len(records) == sum(m.fresh.count + m.rerollout.count for m in result.metrics)
        seen = 0
        for record in records:
            assert list(record) == [
                "task_id", "rewards", "origin", "parent_bucket", "step", "lengths", "boundary",
            ]
            assert all(r in (0, 1) and type(r) is int for r in record["rewards"])
            seen += 1
        assert seen == len(records)
        assert set(result.final_states) == {"1/8", "2/8", "6/8", "7/8"}
        for label, state in result.final_states.items():
            assert state.kind is classify_bucket(int(label.split("/")[0]), 8)
            assert 0.0 <= state.ema <= 1.0
        for m in result.metrics:
            assert set(m.bucket_pass_rates) == set(m.bucket_group_counts)
            assert sum(m.bucket_group_counts.values()) == m.rerollout.count
            for label, rate in m.bucket_pass_rates.items():
                assert label in result.final_states
                assert 0.0 <= rate <= 1.0

    def test_columns_and_view(self):
        result = run_experiment(small_config(steps=4))
        groups = result.groups
        rows = len(groups.step)
        assert groups.task_id.shape == groups.parent_bucket.shape == (rows,)
        assert groups.step.shape == groups.boundary.shape == (rows,)
        assert groups.rewards.shape == groups.lengths.shape == (rows, 8)
        assert groups.rewards.dtype == np.int8
        assert groups.parent_bucket.dtype == np.int64
        assert np.all(np.diff(groups.step) >= 0)
        records = result.group_records
        assert records[-1] == list(records)[-1]
        assert records[1:3] == [records[1], records[2]]
        with pytest.raises(IndexError):
            records[rows]
        with pytest.raises(TypeError):
            records[0] = {}


class TestRunColumns:
    """A run's columns are allocated once at its bound, steps·G rows and
    twice that when the arm saves, and trimmed in place to the rows written."""

    def test_steer_run_peak_memory(self):
        # The criterion-6 run. Each block's columns were kept until one
        # concatenation copied them: a tracemalloc peak of 8.03 MiB, against
        # 6.63 MiB with the blocks writing into the run's columns.
        config = parse_config("steps = 360\nseed = 5\n")
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.3 * 2**20

    @pytest.mark.parametrize("overrides", [
        {"arm": "ps-ada"}, {"arm": "baseline"}, {"same_step_rerollout": "false"}, {"steps": 0},
    ])
    def test_columns_hold_exactly_the_rows_written(self, overrides):
        result = run_experiment(small_config(**overrides))
        rows = sum(m.fresh.count + m.rerollout.count for m in result.metrics)
        for column in result.groups:
            assert len(column) == rows
            # Each column owns its data, no view of the allocation at the bound.
            # The trim's resize runs without numpy's reference check, so this
            # is what holds that no view of a column outlives it.
            assert column.flags.c_contiguous and column.flags.owndata and column.base is None

    @pytest.mark.parametrize("hook, current", [
        (sys.setprofile, sys.getprofile), (sys.settrace, sys.gettrace),
    ])
    def test_a_profiler_or_tracer_changes_no_byte(self, hook, current, tmp_path):
        # Under a profile or trace function a bound method holds one more
        # reference, and resize's reference check refused the trim of a
        # saving arm's columns, which always shrink.
        config = small_config(arm="ps-ada", steps=20)
        emit_traces(run_experiment(config), tmp_path / "plain")
        # A hook already set, such as cProfile's, serves: it may not be one
        # that the setter takes back.
        own = current() is None
        if own:
            hook(lambda *args: None)
        try:
            result = run_experiment(config)
        finally:
            if own:
                hook(None)
        emit_traces(result, tmp_path / "hooked")
        for name in TRACE_FILES + ["meta.json"]:
            assert (tmp_path / "hooked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_more_saves_than_groups_are_refused(self, monkeypatch):
        # One step of G = 16 groups with same-step replay has room for 32
        # rows: 16 fresh groups and at most 16 rerollouts, not 17 or more.
        drawn = []

        def too_many(steps, *args, _real=select_prefix):
            return {**_real(steps, *args), **{(int(steps[0]), row, 1): 5 for row in range(17)}}

        def rerollouts(*args, _real=env.draw_rerollout_groups):
            drawn.append(args)
            return _real(*args)

        monkeypatch.setattr(harness, "select_prefix", too_many)
        monkeypatch.setattr(env, "draw_rerollout_groups", rerollouts)
        with pytest.raises(ContractError, match=r"^\d+ groups by step 0, past the run's bound of 32$"):
            run_experiment(small_config(steps=1))
        # Refused before the block draws its rerollouts or writes a row.
        assert drawn == []


class TestArmNesting:
    def test_fixed_arm_equals_frozen_adaptive_arm(self, tmp_path):
        # ps-fix is ps-ada with a zero step size started at the fixed ratio,
        # so their trace files must agree byte for byte (metadata differs
        # only in the arm name).
        fix = small_config(arm="ps-fix", steps=5, fixed_ratio=0.5)
        ada = parse_config(
            "steps = 5\nbatch_size = 16\npopulation.size = 100\n"
            "arm = ps-ada\ncontroller.step_size = 0.0\n"
            "controller.initial_ratio = 0.5\n"
        )
        emit_traces(run_experiment(fix), tmp_path / "fix")
        emit_traces(run_experiment(ada), tmp_path / "ada")
        for name in TRACE_FILES:
            a = (tmp_path / "fix" / name).read_bytes()
            b = (tmp_path / "ada" / name).read_bytes()
            assert a == b, f"{name} differs between nested arms"


class TestAggregateAndCompare:
    def test_aggregate_run(self):
        result = run_experiment(small_config(steps=5))
        agg = aggregate_run(result)
        assert_allclose(
            agg["mean_valid_groups"],
            np.mean([m.valid_groups for m in result.metrics]),
            rtol=1e-15,
        )
        assert agg["fresh_count"] == 5 * 16
        assert 0.0 <= agg["fresh_degenerate_share"] <= 1.0
        assert agg["rerollout_count"] > 0

    def test_compare_arms_rows_and_files(self, tmp_path):
        config = small_config(steps=3, batch_size=8)
        rows = compare_arms(
            config,
            seeds=[0, 1],
            destination=tmp_path,
            arms=(Arm.BASELINE, Arm.PS_ADA),
        )
        assert len(rows) == 4
        assert {(r["arm"], r["seed"]) for r in rows} == {
            ("baseline", 0), ("baseline", 1), ("ps-ada", 0), ("ps-ada", 1),
        }
        assert (tmp_path / "summary.csv").is_file()
        for arm in ("baseline", "ps-ada"):
            for seed in (0, 1):
                run_dir = tmp_path / f"{arm}-seed{seed}"
                for name in TRACE_FILES + ["meta.json"]:
                    assert (run_dir / name).is_file()
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header.startswith("arm,seed,mean_valid_groups")

    def test_summary_csv_bytes_are_pinned(self, tmp_path):
        # The baseline rows hold the nan cells of an arm without rerollouts;
        # a change to how any cell is rendered changes these bytes.
        compare_arms(
            small_config(steps=3, batch_size=8),
            seeds=[0, 1],
            destination=tmp_path,
            arms=(Arm.BASELINE, Arm.PS_ADA),
        )
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"arm,seed,mean_valid_groups,fresh_count,fresh_degenerate_share,"
            b"fresh_target_band_share,fresh_mean_distance,rerollout_count,"
            b"rerollout_degenerate_share,rerollout_target_band_share,rerollout_mean_distance\n"
            b"baseline,0,5.0,24.0,0.375,0.16666666666666666,2.7916666666666665,0.0,nan,nan,nan\n"
            b"baseline,1,5.0,24.0,0.375,0.16666666666666666,2.8333333333333335,0.0,nan,nan,nan\n"
            b"ps-ada,0,8.666666666666666,24.0,0.375,0.16666666666666666,2.7916666666666665,"
            b"11.0,0.0,0.7272727272727273,1.1818181818181819\n"
            b"ps-ada,1,8.333333333333334,24.0,0.375,0.16666666666666666,2.8333333333333335,"
            b"10.0,0.0,0.5,1.7\n"
        )

    def test_interrupted_summary_write_leaves_the_earlier_one(self, tmp_path, monkeypatch):
        config = small_config(steps=2, batch_size=8)
        compare_arms(config, seeds=[0, 1], destination=tmp_path, arms=(Arm.BASELINE,))
        before = (tmp_path / "summary.csv").read_bytes()
        names = sorted(path.name for path in tmp_path.iterdir())
        real_write_csv = harness._write_csv

        def summary_failing_midway(path, header, rows):
            if path.name != "summary.csv":
                return real_write_csv(path, header, rows)
            real_write_csv(path, header, rows[:1])
            raise OSError("disk full")

        monkeypatch.setattr(harness, "_write_csv", summary_failing_midway)
        with pytest.raises(OSError, match="disk full"):
            compare_arms(config, seeds=[0, 1], destination=tmp_path, arms=(Arm.BASELINE,))
        assert (tmp_path / "summary.csv").read_bytes() == before
        # No temporary file or directory is left next to the runs.
        assert sorted(path.name for path in tmp_path.iterdir()) == names

    def test_compare_arms_no_destination(self):
        rows = compare_arms(
            small_config(steps=2, batch_size=8), seeds=[0], arms=(Arm.BASELINE,)
        )
        assert len(rows) == 1
        assert rows[0]["arm"] == "baseline"
