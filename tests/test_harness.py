"""Closed-loop harness: step metrics, transitions, runs, and trace emission."""

import hashlib
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from passband import harness
from passband.config import Arm, ExperimentConfig, parse_config
from passband.errors import ContractError, DomainError
from passband.groups import (
    GroupOrigin,
    RolloutGroup,
    bucket_label,
    classify_bucket,
    controlled_buckets,
)
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


def make_group(k, n=8, task_id="t", origin=GroupOrigin.FRESH, parent=None):
    return RolloutGroup(
        task_id=task_id,
        rewards=tuple([1] * k + [0] * (n - k)),
        origin=origin,
        parent_bucket=parent,
    )


def small_config(**overrides):
    entries = {"steps": 10, "batch_size": 16, "population.size": 100}
    entries.update({k.replace("__", "."): v for k, v in overrides.items()})
    return parse_config("\n".join(f"{k} = {v}" for k, v in entries.items()))


class TestComputeStepMetrics:
    def test_hand_fixture(self):
        hard1, easy6 = 1, 6
        batch = [
            make_group(0, task_id="a"),
            make_group(1, task_id="b"),
            make_group(4, task_id="c"),
            make_group(8, task_id="d"),
            make_group(3, task_id="e"),
            make_group(4, task_id="f", origin=GroupOrigin.REROLLOUT, parent=hard1),
            make_group(5, task_id="g", origin=GroupOrigin.REROLLOUT, parent=hard1),
            make_group(2, task_id="h", origin=GroupOrigin.REROLLOUT, parent=easy6),
        ]
        m = compute_step_metrics(batch, step=3)
        assert m.step == 3
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
        m = compute_step_metrics([make_group(0), make_group(8)])
        assert m.valid_groups == 0
        assert m.fresh.degenerate_share == 1.0
        assert m.rerollout.count == 0
        assert math.isnan(m.rerollout.mean_distance)

    def test_empty_batch_needs_size(self):
        m = compute_step_metrics([], group_size=8)
        assert m.valid_groups == 0
        assert m.fresh.count == 0
        with pytest.raises(ContractError):
            compute_step_metrics([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ContractError):
            compute_step_metrics([make_group(1, 8), make_group(1, 4)])

    def test_size_claim_must_match(self):
        with pytest.raises(ContractError):
            compute_step_metrics([make_group(1, 8)], group_size=4)

    @pytest.mark.parametrize("parent", [99, 4])
    def test_parent_must_be_a_controlled_bucket(self, parent):
        # 99 lies outside [0, 8]; 4/8 is balanced, so nothing replays it.
        rerollout = make_group(3, origin=GroupOrigin.REROLLOUT, parent=parent)
        with pytest.raises(ContractError, match=f"got parent {parent}/8"):
            compute_step_metrics([make_group(1), rerollout])

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 16),
        data=st.data(),
    )
    def test_counts_match_float_means(self, n, data):
        # The shares come from integer counts of |2k - n|; the float means
        # over the groups are the reference and must agree to the last bit.
        ks = data.draw(st.lists(st.integers(0, n), max_size=80))
        n_fresh = data.draw(st.integers(0, len(ks)))
        parents = data.draw(
            st.lists(st.sampled_from(["1/8", "2/8", "6/8"]),
                     min_size=len(ks) - n_fresh, max_size=len(ks) - n_fresh)
        )
        m = harness._step_metrics(0, n, np.array(ks, dtype=np.int64), n_fresh, parents, 0.0)

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
        for label, k in zip(parents, ks[n_fresh:]):
            by_bucket.setdefault(label, []).append(k)
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
        row = harness.ControllerRow(0, "1/8", 0.5, 0.5, 0)
        stats = harness.CohortStats(1, 0.0, 1.0, 1.0, 0.0)
        for record, field in ((row, "ema"), (stats, "count")):
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


class TestTransitionMatrix:
    def test_single_pair_point_mass(self, tmp_path):
        counts = compute_transition_matrix([(1, 4)], 8)
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
        counts = compute_transition_matrix([], 8)
        assert counts.shape == (4, 9)
        assert counts.sum() == 0
        _, rows = transition_rows(tmp_path, counts)
        assert rows["2/8"] == ["0"] + ["nan"] * 11

    def test_row_probabilities_normalized(self, tmp_path):
        pairs = [(2, k) for k in (0, 3, 4, 4, 5, 8)]
        counts = compute_transition_matrix(pairs, 8)
        assert counts[1].tolist() == [1, 0, 0, 1, 2, 1, 0, 0, 1]
        _, rows = transition_rows(tmp_path, counts)
        total, mean, band_share, *distribution = map(float, rows["2/8"])
        assert total == 6
        assert mean == 4.0
        assert_allclose(band_share, 4 / 6, rtol=1e-15)
        assert_allclose(sum(distribution), 1.0, rtol=1e-12)

    def test_contracts(self):
        for parent in (0, 4, 8, 9, -1):
            with pytest.raises(ContractError, match=f"got {parent}/8"):
                compute_transition_matrix([(1, 4), (parent, 4)], 8)
        for child in (9, -1):
            with pytest.raises(DomainError, match=f"child pass count {child} "):
                compute_transition_matrix([(1, 4), (7, child)], 8)


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
            if parent is not None:
                expected[labels.index(parent), rewards.sum()] += 1
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

    def test_deterministic(self):
        a = run_experiment(small_config(steps=5))
        b = run_experiment(small_config(steps=5))
        assert list(a.group_records) == list(b.group_records)
        assert a.controller_rows == b.controller_rows


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

    def test_byte_identical_across_repeats(self, tmp_path):
        config = small_config(steps=4)
        emit_traces(run_experiment(config), tmp_path / "a")
        emit_traces(run_experiment(config), tmp_path / "b")
        for name in TRACE_FILES + ["meta.json"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


class TestRecordLines:
    """run.jsonl's formatter against the encoder whose bytes it gives: every
    line is _RECORD_ENCODER.encode(record) + "\n" for the view's record."""

    @pytest.mark.parametrize("chunk_rows", [7, harness._LINE_CHUNK_ROWS])
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
        lines = (tmp_path / "run.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == len(result.group_records) > 0
        assert lines == [
            harness._RECORD_ENCODER.encode(record) + "\n" for record in result.group_records
        ]

    def test_escaped_ids_and_labels(self, monkeypatch):
        monkeypatch.setattr(harness, "_LINE_CHUNK_ROWS", 2)
        odd = ['q"uote', "back\\slash", "sl/ash", "n\u00efve \u2028\U0001f600", "tab\t"]
        groups = harness.GroupColumns(
            task_id=np.array(["plain"] + odd, object),
            rewards=np.array([[1, 0, 0], [0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 1], [0, 0, 1]],
                             np.int8),
            parent_bucket=np.array([None] + odd[::-1], object),
            step=np.array([0, 0, 1, 1, 1, 4]),
            lengths=np.array([[3, 4, 5]] * 5 + [[2**40, 7, 8]]),
            boundary=np.array([0, 2, 1, 2, 1, 1]),
        )
        records = harness._GroupRecords(groups)
        lines = list(harness._record_lines(groups))
        assert lines == [harness._RECORD_ENCODER.encode(r) + "\n" for r in records]
        assert [json.loads(line)["task_id"] for line in lines] == ["plain"] + odd
        assert json.loads(lines[0])["origin"] == "fresh"
        assert json.loads(lines[1])["parent_bucket"] == odd[-1]


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
        assert np.all(np.diff(groups.step) >= 0)
        records = result.group_records
        assert records[-1] == list(records)[-1]
        assert records[1:3] == [records[1], records[2]]
        with pytest.raises(IndexError):
            records[rows]
        with pytest.raises(TypeError):
            records[0] = {}


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

    def test_compare_arms_no_destination(self):
        rows = compare_arms(
            small_config(steps=2, batch_size=8), seeds=[0], arms=(Arm.BASELINE,)
        )
        assert len(rows) == 1
        assert rows[0]["arm"] == "baseline"
