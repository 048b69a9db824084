"""Closed-loop experiment driver over the synthetic environment.

One step of the replay pipeline:

1. sample a fresh rollout group for every task in the batch
2. classify each group's bucket and discard degenerates
3. skewed fresh groups save one prefix each (hard: a success, easy: a
   failure) into the pending pool
4. consume pending prefixes: compute the replay boundary from the source
   bucket's current ratio, sample a rerollout group, and feed its pass
   rate to that bucket's controller
5. form the mixed batch of non-degenerate fresh and rerollout groups and
   evaluate the masked surrogate on it for audit (nothing is trained)
6. record step metrics, controller snapshots, and parent-to-child
   transitions

Four arms share this loop: the baseline disables replay entirely, the
fixed-ratio arm runs the controller with a zero step size, the hard-only
arm ignores easy buckets, and the adaptive arm runs everything.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import env as env_mod
# The run loop calls the loss kernel directly; masked_grpo_loss, its
# object-level form, stays importable from here for code that looks the
# audit loss up on this module.
from .advantages import (  # noqa: F401
    ToyPolicy,
    masked_grpo_loss,
    masked_loss_kernel,
    rloo_advantages,
)
from .config import Arm, ExperimentConfig, arm_controller_params, config_to_flat_dict
from .controller import (
    BucketControllerState,
    PrefixPool,
    initial_controller_state,
    replay_boundary,
    select_prefix,
    update_controller,
)
from .errors import ContractError, DomainError
from .groups import (
    Bucket,
    BucketKind,
    GroupOrigin,
    RolloutGroup,
    classify_bucket,
    controlled_buckets,
    pass_count,
)

__all__ = [
    "CohortStats",
    "StepMetrics",
    "ControllerRow",
    "TransitionMatrix",
    "RunResult",
    "compute_step_metrics",
    "compute_transition_matrix",
    "run_experiment",
    "emit_traces",
    "compare_arms",
    "aggregate_run",
]

_TASK_STREAM = 1001
_POLICY_STREAM = 1002

_AUDIT_CONTEXTS = 8
_AUDIT_VOCAB = 16


@dataclass(frozen=True)
class CohortStats:
    """Share statistics of one origin cohort within a step."""

    count: int
    degenerate_share: float
    target_band_share: float
    exact_half_share: float
    mean_distance: float


@dataclass(frozen=True)
class StepMetrics:
    """Per-step aggregates over every group the step produced."""

    step: int
    valid_groups: int
    fresh: CohortStats
    rerollout: CohortStats
    bucket_pass_rates: dict[str, float]
    bucket_group_counts: dict[str, int]
    audit_loss: float


@dataclass(frozen=True)
class ControllerRow:
    """End-of-step snapshot of one bucket's controller."""

    step: int
    bucket: str
    r_b: float
    ema: float
    cooldown_remaining: int


@dataclass(frozen=True)
class TransitionMatrix:
    """Parent-bucket to child-pass-count empirical transition counts."""

    group_size: int
    labels: tuple[str, ...]
    counts: np.ndarray

    def row_total(self, label: str) -> int:
        return int(self.counts[self.labels.index(label)].sum())

    def row_probabilities(self, label: str) -> np.ndarray:
        row = self.counts[self.labels.index(label)]
        total = row.sum()
        if total == 0:
            return np.full(row.size, np.nan)
        return row / total

    def row_mean(self, label: str) -> float:
        row = self.counts[self.labels.index(label)]
        total = row.sum()
        if total == 0:
            return float("nan")
        return float((row * np.arange(row.size)).sum() / total)

    def row_band_share(self, label: str) -> float:
        row = self.counts[self.labels.index(label)]
        total = row.sum()
        if total == 0:
            return float("nan")
        half = self.group_size / 2
        in_band = [
            c for k, c in enumerate(row) if abs(k - half) <= 1.0
        ]
        return float(sum(in_band) / total)


@dataclass(frozen=True)
class RunResult:
    """Everything one run produces, ready for emission or analysis."""

    config: ExperimentConfig
    metrics: tuple[StepMetrics, ...]
    controller_rows: tuple[ControllerRow, ...]
    transitions: TransitionMatrix
    final_states: dict[str, BucketControllerState]
    group_records: tuple[dict, ...]


def _cohort_stats(ks: list[int], n: int) -> CohortStats:
    count = len(ks)
    if count == 0:
        nan = float("nan")
        return CohortStats(0, nan, nan, nan, nan)
    arr = np.asarray(ks, dtype=float)
    distance = np.abs(arr - n / 2)
    return CohortStats(
        count=count,
        degenerate_share=float(np.mean((arr == 0) | (arr == n))),
        target_band_share=float(np.mean(distance <= 1.0)),
        exact_half_share=float(np.mean(arr == n / 2)),
        mean_distance=float(distance.mean()),
    )


def compute_step_metrics(
    batch: list[RolloutGroup],
    *,
    step: int = 0,
    audit_loss: float = float("nan"),
    group_size: int | None = None,
) -> StepMetrics:
    """Aggregate one step's groups (pre-filter, both cohorts) into metrics."""
    sizes = {g.group_size for g in batch}
    if len(sizes) > 1:
        raise ContractError(f"mixed group sizes in one batch: {sorted(sizes)}")
    if sizes:
        n = sizes.pop()
        if group_size is not None and group_size != n:
            raise ContractError(
                f"groups have size {n} but group_size={group_size} was claimed"
            )
    elif group_size is not None:
        n = group_size
    else:
        raise ContractError("empty batch needs an explicit group_size")
    fresh_ks: list[int] = []
    re_ks: list[int] = []
    by_bucket: dict[str, list[int]] = {}
    valid = 0
    for group in batch:
        k = pass_count(group)
        if 0 < k < n:
            valid += 1
        if group.origin is GroupOrigin.FRESH:
            fresh_ks.append(k)
        else:
            re_ks.append(k)
            by_bucket.setdefault(group.parent_bucket.label, []).append(k)
    rates = {
        label: float(np.mean(ks)) / n for label, ks in sorted(by_bucket.items())
    }
    counts = {label: len(ks) for label, ks in sorted(by_bucket.items())}
    return StepMetrics(
        step=step,
        valid_groups=valid,
        fresh=_cohort_stats(fresh_ks, n),
        rerollout=_cohort_stats(re_ks, n),
        bucket_pass_rates=rates,
        bucket_group_counts=counts,
        audit_loss=audit_loss,
    )


def compute_transition_matrix(
    pairs: list[tuple[Bucket, int]], n: int
) -> TransitionMatrix:
    """Row-normalizable counts of (source bucket, child pass count) pairs."""
    buckets = controlled_buckets(n)
    labels = tuple(b.label for b in buckets)
    index = {b: i for i, b in enumerate(buckets)}
    counts = np.zeros((len(buckets), n + 1), dtype=np.int64)
    for bucket, child_k in pairs:
        if bucket not in index:
            raise ContractError(
                f"transitions are recorded only for controlled buckets, "
                f"got {bucket.label}"
            )
        if not 0 <= child_k <= n:
            raise DomainError(f"child pass count {child_k} outside [0, {n}]")
        counts[index[bucket], child_k] += 1
    return TransitionMatrix(group_size=n, labels=labels, counts=counts)


def _audit_policy(seed: int) -> ToyPolicy:
    shape = (_AUDIT_CONTEXTS, _AUDIT_VOCAB)
    logits = env_mod.stream_uniforms((seed, _POLICY_STREAM), shape[0] * shape[1])
    return ToyPolicy(logits.reshape(shape))


def _audit_loss(samples, log_probs: np.ndarray, config: ExperimentConfig) -> float:
    """Masked surrogate summed over the mixed batch (audit only)."""
    total = 0.0
    for sample in samples:
        group = sample.group
        k = pass_count(group)
        if k == 0 or k == group.group_size:
            continue
        total += masked_loss_kernel(
            np.array(sample.steps, dtype=np.int64) % _AUDIT_VOCAB,
            sample.lengths,
            [sample.boundary] * group.group_size,
            rloo_advantages(group.rewards),
            log_probs,
            length_normalized=config.loss.length_normalized,
            group_reduction=config.loss.group_reduction,
        )
    return total


def _rollouts(sample) -> list[tuple[int, ...]]:
    """Each rollout's step ids, cut from the sample's flat steps."""
    ends = accumulate(sample.lengths)
    return [sample.steps[end - length:end] for end, length in zip(ends, sample.lengths)]


def _group_record(sample, step: int) -> dict:
    """One run.jsonl record: a group observed at a step, with its lengths
    and replay boundary (shared by every rollout of the group)."""
    group = sample.group
    parent = group.parent_bucket
    return {
        "task_id": group.task_id,
        "rewards": list(group.rewards),
        "origin": group.origin.value,
        "parent_bucket": None if parent is None else parent.label,
        "step": step,
        "lengths": list(sample.lengths),
        "boundary": sample.boundary,
    }


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run one arm for the configured number of steps. Deterministic."""
    n = config.group_size
    seed = config.seed
    params = arm_controller_params(config)
    replay_enabled = config.arm is not Arm.BASELINE
    easy_enabled = config.arm in (Arm.PS_FIX, Arm.PS_ADA)
    population = env_mod.make_task_population(config.population, seed)
    task_by_id = {task.task_id: task for task in population}
    states: dict[Bucket, BucketControllerState] = {
        bucket: initial_controller_state(bucket, params)
        for bucket in controlled_buckets(n)
    }
    log_probs = _audit_policy(seed).log_probs()
    pool = PrefixPool()
    metrics: list[StepMetrics] = []
    controller_rows: list[ControllerRow] = []
    transition_pairs: list[tuple[Bucket, int]] = []
    group_records: list[dict] = []

    for step in range(config.steps):
        picks = env_mod.stream_integers(
            (seed, _TASK_STREAM, step), config.batch_size, len(population)
        )
        # Group j of a step's batch is keyed (seed, step, j).
        tasks = [population[i] for i in picks.tolist()]
        fresh = env_mod.sample_fresh_groups(tasks, n, (seed, step))
        pending = [] if config.same_step_rerollout else pool.drain()
        if replay_enabled:
            for sample in fresh:
                bucket = classify_bucket(pass_count(sample.group), n)
                if bucket.kind is BucketKind.HARD or (
                    bucket.kind is BucketKind.EASY and easy_enabled
                ):
                    pool.save(select_prefix(sample.group, _rollouts(sample)))
            if config.same_step_rerollout:
                pending = pool.drain()
        # The random draws do not depend on the replay boundary, so they are
        # made for the whole step before the controllers move.
        pending_tasks = [task_by_id[record.task_id] for record in pending]
        draws = env_mod.draw_rerollout_groups(pending_tasks, n, (seed, step))
        rerollouts = []
        for record, task, draw in zip(pending, pending_tasks, draws):
            state = states[record.source_bucket]
            m = replay_boundary(state.ratio, record.length)
            sample = env_mod.rerollout_group(task, record, m, draw)
            rerollouts.append(sample)
            child_k = pass_count(sample.group)
            states[record.source_bucket] = update_controller(
                state, child_k / n, params
            )
            transition_pairs.append((record.source_bucket, child_k))
        samples = fresh + rerollouts
        loss = _audit_loss(samples, log_probs, config)
        metrics.append(
            compute_step_metrics(
                [s.group for s in samples],
                step=step,
                audit_loss=loss,
                group_size=n,
            )
        )
        if replay_enabled:
            for bucket in controlled_buckets(n):
                state = states[bucket]
                controller_rows.append(
                    ControllerRow(
                        step=step,
                        bucket=bucket.label,
                        r_b=state.ratio,
                        ema=state.ema,
                        cooldown_remaining=state.cooldown_remaining,
                    )
                )
        group_records.extend(_group_record(sample, step) for sample in samples)

    return RunResult(
        config=config,
        metrics=tuple(metrics),
        controller_rows=tuple(controller_rows),
        transitions=compute_transition_matrix(transition_pairs, n),
        final_states={b.label: s for b, s in states.items()},
        group_records=tuple(group_records),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _metrics_rows(result: RunResult) -> tuple[list[str], list[list]]:
    n = result.config.group_size
    bucket_labels = [b.label for b in controlled_buckets(n)]
    header = ["step", "valid_groups"]
    for cohort in ("fresh", "rerollout"):
        header += [
            f"{cohort}_count",
            f"{cohort}_degenerate_share",
            f"{cohort}_target_band_share",
            f"{cohort}_exact_half_share",
            f"{cohort}_mean_distance",
        ]
    header.append("audit_loss")
    for label in bucket_labels:
        tag = label.replace("/", "_")
        header += [f"rerollout_rate_{tag}", f"rerollout_n_{tag}"]
    rows = []
    for m in result.metrics:
        row: list = [m.step, m.valid_groups]
        for cohort in (m.fresh, m.rerollout):
            row += [
                cohort.count,
                cohort.degenerate_share,
                cohort.target_band_share,
                cohort.exact_half_share,
                cohort.mean_distance,
            ]
        row.append(m.audit_loss)
        for label in bucket_labels:
            row.append(m.bucket_pass_rates.get(label, float("nan")))
            row.append(m.bucket_group_counts.get(label, 0))
        rows.append(row)
    return header, rows


_TRACE_FILES = (
    "metrics.csv", "controller.csv", "transitions.csv", "run.jsonl", "meta.json"
)


def emit_traces(result: RunResult, destination) -> list[Path]:
    """Write metrics.csv, controller.csv, transitions.csv, run.jsonl, and
    meta.json under the destination directory. Byte-stable given a seed.

    The files are written into a temporary directory next to the destination
    and then moved into place, so an interrupted write leaves the destination
    as it was.
    """
    dest = Path(destination)
    dest.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{dest.name}-", dir=dest.parent))
    try:
        _write_traces(result, staging)
        dest.mkdir(exist_ok=True)
        for name in _TRACE_FILES:
            os.replace(staging / name, dest / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return [dest / name for name in _TRACE_FILES]


def _write_traces(result: RunResult, out: Path) -> None:
    _write_csv(out / "metrics.csv", *_metrics_rows(result))
    _write_csv(
        out / "controller.csv",
        ["step", "bucket", "r_b", "ema", "cooldown_remaining"],
        [
            [r.step, r.bucket, r.r_b, r.ema, r.cooldown_remaining]
            for r in result.controller_rows
        ],
    )

    n = result.config.group_size
    trans = result.transitions
    trans_rows = []
    for label in trans.labels:
        probs = trans.row_probabilities(label)
        trans_rows.append(
            [label, trans.row_total(label), trans.row_mean(label),
             trans.row_band_share(label)]
            + [float(p) for p in probs]
        )
    _write_csv(
        out / "transitions.csv",
        ["bucket", "count", "mean_child_pass_count", "target_band_share"]
        + [f"child_{k}" for k in range(n + 1)],
        trans_rows,
    )

    with (out / "run.jsonl").open("w", encoding="utf-8") as fh:
        for record in result.group_records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    (out / "meta.json").write_text(
        json.dumps(config_to_flat_dict(result.config), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )


def aggregate_run(result: RunResult) -> dict[str, float]:
    """Whole-run aggregates: mean valid groups and pooled cohort shares."""
    out: dict[str, float] = {
        "mean_valid_groups": float(
            np.mean([m.valid_groups for m in result.metrics])
        )
        if result.metrics
        else float("nan"),
    }
    for cohort in ("fresh", "rerollout"):
        stats = [getattr(m, cohort) for m in result.metrics]
        total = sum(s.count for s in stats)
        out[f"{cohort}_count"] = float(total)
        for name in ("degenerate_share", "target_band_share", "mean_distance"):
            if total == 0:
                out[f"{cohort}_{name}"] = float("nan")
            else:
                out[f"{cohort}_{name}"] = float(
                    sum(getattr(s, name) * s.count for s in stats if s.count)
                    / total
                )
    return out


def compare_arms(
    config: ExperimentConfig,
    seeds: list[int],
    destination=None,
    arms: tuple[Arm, ...] = tuple(Arm),
) -> list[dict]:
    """Run several arms on matched seeds; optionally emit every trace set.

    Returns one summary row per (arm, seed) with whole-run aggregates,
    and writes summary.csv plus per-run subdirectories when a destination
    is given.
    """
    rows: list[dict] = []
    out = None if destination is None else Path(destination)
    for arm in arms:
        for seed in seeds:
            run_config = replace(config, arm=arm, seed=seed)
            result = run_experiment(run_config)
            row: dict = {"arm": arm.value, "seed": seed}
            row.update(aggregate_run(result))
            rows.append(row)
            if out is not None:
                emit_traces(result, out / f"{arm.value}-seed{seed}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        header = list(rows[0].keys()) if rows else ["arm", "seed"]
        _write_csv(
            out / "summary.csv", header, [[row[h] for h in header] for row in rows]
        )
    return rows
