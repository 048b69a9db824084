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

A step is held as arrays, not per-group objects: env's StepDraws, (G, N)
rewards, and the pass counts, RLOO advantages and one padded audit-loss
term matrix computed from them. Only the rerollouts' boundaries, pass
probabilities and controller updates run group by group, since each
depends on the controller state the step's earlier rerollouts left.
A run's groups stay arrays too: RunResult.groups holds run.jsonl's fields
as columns, one row per group, and run.jsonl is formatted from them.

Four arms share this loop, which takes their semantics from config's
SAVING_KINDS and arm_controller_params: the baseline saves no prefix, so
nothing replays; the fixed-ratio arm runs the controller with a zero step
size, the hard-only arm ignores easy buckets, and the adaptive arm runs
everything.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import expit

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
from .config import (
    SAVING_KINDS,
    Arm,
    ExperimentConfig,
    LossOptions,
    arm_controller_params,
    config_to_flat_dict,
)
# select_prefix is the object-level form of the loop's prefix picks; it
# stays importable from here for code that looks it up on this module.
from .controller import (  # noqa: F401
    BucketControllerState,
    PrefixPool,
    initial_controller_state,
    prefix_records,
    replay_boundary,
    select_prefix,
    update_controller,
)
from .errors import ContractError, DomainError
from .groups import (
    GroupOrigin,
    RolloutGroup,
    bucket_label,
    classify_bucket,
    controlled_buckets,
    pass_count,
)

__all__ = [
    "CohortStats",
    "StepMetrics",
    "ControllerRow",
    "GroupColumns",
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
_FRESH = GroupOrigin.FRESH.value
_REROLLOUT = GroupOrigin.REROLLOUT.value


class CohortStats(NamedTuple):
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


class ControllerRow(NamedTuple):
    """End-of-step snapshot of one bucket's controller."""

    step: int
    bucket: str
    r_b: float
    ema: float
    cooldown_remaining: int


class GroupColumns(NamedTuple):
    """run.jsonl's fields as columns, one row per group in file order: object
    arrays of task ids and parent labels (None for a fresh group; the origin
    follows from it), rewards (R, N) int8, steps, lengths (R, N), boundaries."""

    task_id: np.ndarray
    rewards: np.ndarray
    parent_bucket: np.ndarray
    step: np.ndarray
    lengths: np.ndarray
    boundary: np.ndarray


class _GroupRecords(Sequence):
    """Read-only view of a run's groups as run.jsonl records, each built on
    access."""

    def __init__(self, groups: GroupColumns):
        self._groups = groups

    def __len__(self) -> int:
        return len(self._groups.step)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        task_id, rewards, parent, step, lengths, boundary = (c[i] for c in self._groups)
        return {
            "task_id": task_id, "rewards": rewards.tolist(),
            "origin": _FRESH if parent is None else _REROLLOUT, "parent_bucket": parent,
            "step": int(step), "lengths": lengths.tolist(), "boundary": int(boundary),
        }


@dataclass(frozen=True)
class RunResult:
    """Everything one run produces, ready for emission or analysis."""

    config: ExperimentConfig
    metrics: tuple[StepMetrics, ...]
    controller_rows: tuple[ControllerRow, ...]
    # compute_transition_matrix's counts of the run's rerollouts.
    transitions: np.ndarray
    final_states: dict[str, BucketControllerState]
    groups: GroupColumns

    @property
    def group_records(self) -> Sequence[dict]:
        """One run.jsonl record dict per group, built on access."""
        return _GroupRecords(self.groups)


def _cohort_stats(counts: list[int], n: int) -> CohortStats:
    """Shares of a cohort whose counts[d] groups have |2k - n| = d. Each is
    an exact integer over the cohort size, so it equals the float mean over
    the groups."""
    count = sum(counts)
    if count == 0:
        nan = float("nan")
        return CohortStats(0, nan, nan, nan, nan)
    return CohortStats(
        count=count,
        degenerate_share=counts[n] / count,
        target_band_share=sum(counts[:3]) / count,
        exact_half_share=counts[0] / count,
        mean_distance=sum(d * c for d, c in enumerate(counts)) / (2 * count),
    )


def _step_metrics(
    step: int, n: int, ks: np.ndarray, n_fresh: int, parents: list[str], audit_loss: float
) -> StepMetrics:
    """Metrics of one step from its groups' pass counts, fresh groups first,
    and each rerollout's parent bucket label."""
    by_bucket: dict[str, list[int]] = {}
    for label, k in zip(parents, ks[n_fresh:].tolist()):
        by_bucket.setdefault(label, []).append(k)
    distances = np.abs(2 * ks - n)
    fresh = np.bincount(distances[:n_fresh], minlength=n + 1).tolist()
    rerollout = np.bincount(distances[n_fresh:], minlength=n + 1).tolist()
    return StepMetrics(
        step=step,
        valid_groups=len(ks) - fresh[n] - rerollout[n],
        fresh=_cohort_stats(fresh, n),
        rerollout=_cohort_stats(rerollout, n),
        bucket_pass_rates={
            label: sum(v) / len(v) / n for label, v in sorted(by_bucket.items())
        },
        bucket_group_counts={label: len(v) for label, v in sorted(by_bucket.items())},
        audit_loss=audit_loss,
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
    fresh = [pass_count(g) for g in batch if g.origin is GroupOrigin.FRESH]
    rerollouts = [g for g in batch if g.origin is not GroupOrigin.FRESH]
    controlled = controlled_buckets(n)
    for g in rerollouts:
        if g.parent_bucket not in controlled:
            raise ContractError(
                f"rerollouts come only from controlled buckets, "
                f"got parent {bucket_label(g.parent_bucket, n)}"
            )
    ks = np.array(fresh + [pass_count(g) for g in rerollouts], dtype=np.int64)
    parents = [bucket_label(g.parent_bucket, n) for g in rerollouts]
    return _step_metrics(step, n, ks, len(fresh), parents, audit_loss)


def compute_transition_matrix(pairs, n: int) -> np.ndarray:
    """Counts of (source bucket k, child pass count) pairs as an int64 array
    of shape (len(controlled_buckets(n)), n + 1): row i counts the children of
    bucket controlled_buckets(n)[i], column c those with pass count c."""
    ks = np.array(controlled_buckets(n))
    parents, children = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    uncontrolled = parents[~np.isin(parents, ks)]
    if uncontrolled.size:
        raise ContractError(
            f"transitions are recorded only for controlled buckets, "
            f"got {bucket_label(uncontrolled[0], n)}"
        )
    outside = children[(children < 0) | (children > n)]
    if outside.size:
        raise DomainError(f"child pass count {outside[0]} outside [0, {n}]")
    counts = np.zeros((len(ks), n + 1), dtype=np.int64)
    np.add.at(counts, (np.searchsorted(ks, parents), children), 1)
    return counts


def _audit_policy(seed: int) -> ToyPolicy:
    shape = (_AUDIT_CONTEXTS, _AUDIT_VOCAB)
    logits = env_mod.stream_uniforms((seed, _POLICY_STREAM), shape[0] * shape[1])
    return ToyPolicy(logits.reshape(shape))


def _audit_loss(
    tokens, boundaries, counts, advantages, log_probs: np.ndarray, options: LossOptions
) -> float:
    """Masked surrogate of a step's groups (masked_loss_kernel's arguments),
    added left to right from 0.0 (audit only). A degenerate group has
    all-zero RLOO advantages, so its loss is a zero of either sign and
    leaves the sum as it is: the sum is that of the non-degenerate groups."""
    losses = masked_loss_kernel(
        tokens, boundaries, counts, advantages, log_probs,
        length_normalized=options.length_normalized,
        group_reduction=options.group_reduction,
    )
    return float(np.add.accumulate(np.concatenate(([0.0], losses)))[-1])


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run one arm for the configured number of steps. Deterministic."""
    n = config.group_size
    seed = config.seed
    params = arm_controller_params(config)
    population = env_mod.make_task_population(config.population, seed)
    task_by_id = {task.task_id: task for task in population}
    base_logits = np.array([task.base_logit for task in population])
    saving = SAVING_KINDS[config.arm]
    states: dict[int, BucketControllerState] = {
        k: initial_controller_state(classify_bucket(k, n), params) for k in controlled_buckets(n)
    }
    bucket_labels = {k: bucket_label(k, n) for k in states}
    log_probs = _audit_policy(seed).log_probs()
    pool = PrefixPool()
    metrics: list[StepMetrics] = []
    controller_rows: list[ControllerRow] = []
    transition_pairs: list[tuple[int, int]] = []
    # run.jsonl's columns, one part per step after an empty one that holds
    # their dtypes and shapes for a run without steps.
    empty = np.zeros((0, n), np.int64)
    step_groups = [GroupColumns(
        task_id=np.zeros(0, object), rewards=empty.astype(np.int8),
        parent_bucket=np.zeros(0, object), step=empty[:, 0], lengths=empty, boundary=empty[:, 0],
    )]

    for step in range(config.steps):
        picks = env_mod.stream_integers(
            (seed, _TASK_STREAM, step), config.batch_size, len(population)
        )
        # Group j of a step's batch is keyed (seed, step, j).
        tasks = [population[i] for i in picks.tolist()]
        fresh = env_mod.draw_fresh_step(tasks, n, (seed, step))
        fresh_rewards = env_mod.rollout_rewards(fresh.uniforms, expit(base_logits[picks]))
        pending = [] if config.same_step_rerollout else pool.drain()
        for record in prefix_records(
            [task.task_id for task in tasks], fresh_rewards, fresh.steps, fresh.offsets, saving
        ):
            pool.save(record)
        if config.same_step_rerollout:
            pending = pool.drain()
        # The random draws do not depend on the replay boundary, so they are
        # made for the whole step before the controllers move.
        pending_tasks = [task_by_id[record.task_id] for record in pending]
        draws = env_mod.draw_rerollout_step(pending_tasks, n, (seed, step))
        rewards = np.concatenate((fresh_rewards, np.zeros(draws.uniforms.shape, bool)))
        boundaries = np.zeros((len(rewards), 1), np.int64)
        for j, (record, task, uniforms) in enumerate(
            zip(pending, pending_tasks, draws.uniforms), len(tasks)
        ):
            state = states[record.source_bucket]
            m = boundaries[j, 0] = replay_boundary(state.ratio, record.length)
            p = env_mod.rerollout_probability(task, record, m)
            row = rewards[j] = env_mod.rollout_rewards(uniforms, p)
            states[record.source_bucket] = update_controller(state, int(row.sum()) / n, params)
        ks = rewards.sum(axis=1)
        parents = [record.source_bucket for record in pending]
        transition_pairs.extend(zip(parents, ks[len(tasks):].tolist()))
        counts = np.concatenate((fresh.lengths, draws.lengths))
        loss = _audit_loss(
            np.concatenate((fresh.steps, draws.steps)) % _AUDIT_VOCAB,
            boundaries,
            counts,
            rloo_advantages(rewards),
            log_probs,
            config.loss,
        )
        labels = [bucket_labels[k] for k in parents]
        metrics.append(_step_metrics(step, n, ks, len(tasks), labels, loss))
        if saving:
            controller_rows.extend(
                ControllerRow(step, bucket_labels[k], s.ratio, s.ema, s.cooldown_remaining)
                for k, s in states.items()
            )
        # One run.jsonl row per group; its rollouts share its boundary.
        step_groups.append(GroupColumns(
            task_id=np.array([task.task_id for task in tasks + pending_tasks], object),
            rewards=rewards.view(np.int8),
            parent_bucket=np.array([None] * len(tasks) + labels, object),
            step=np.full(len(rewards), step),
            lengths=counts + boundaries,
            boundary=boundaries[:, 0],
        ))

    return RunResult(
        config=config,
        metrics=tuple(metrics),
        controller_rows=tuple(controller_rows),
        transitions=compute_transition_matrix(transition_pairs, n),
        final_states={bucket_labels[k]: s for k, s in states.items()},
        groups=GroupColumns(*map(np.concatenate, zip(*step_groups))),
    )


def _write_csv(path: Path, header, rows) -> None:
    """One line per row of Python ints, floats and strs; str(float) is its
    repr, so a float's cell reads back as the same float."""
    lines = [",".join(map(str, row)) for row in [header, *rows]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _metrics_rows(result: RunResult) -> tuple[list[str], list[list]]:
    n = result.config.group_size
    bucket_labels = [bucket_label(k, n) for k in controlled_buckets(n)]
    header = ["step", "valid_groups"]
    for cohort in ("fresh", "rerollout"):
        header += [f"{cohort}_{name}" for name in CohortStats._fields]
    header.append("audit_loss")
    for label in bucket_labels:
        tag = label.replace("/", "_")
        header += [f"rerollout_rate_{tag}", f"rerollout_n_{tag}"]
    rows = []
    for m in result.metrics:
        row: list = [m.step, m.valid_groups, *m.fresh, *m.rerollout, m.audit_loss]
        for label in bucket_labels:
            row.append(m.bucket_pass_rates.get(label, float("nan")))
            row.append(m.bucket_group_counts.get(label, 0))
        rows.append(row)
    return header, rows


# One compact encoder for every run.jsonl record; _record_lines writes its
# bytes from the columns, turning this many rows into lists at a time.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))
_LINE_CHUNK_ROWS = 4096
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
    _write_csv(out / "controller.csv", ControllerRow._fields, result.controller_rows)

    # Every row at once; an empty row divides 0 by 0 into nan cells.
    counts = result.transitions
    n = counts.shape[1] - 1
    totals = counts.sum(axis=1)
    child_k = np.arange(n + 1)
    with np.errstate(invalid="ignore"):
        means = (counts * child_k).sum(axis=1) / totals
        band_shares = counts[:, np.abs(child_k - n / 2) <= 1.0].sum(axis=1) / totals
        distributions = counts / totals[:, None]
    _write_csv(
        out / "transitions.csv",
        ["bucket", "count", "mean_child_pass_count", "target_band_share"]
        + [f"child_{k}" for k in range(n + 1)],
        [
            [bucket_label(k, n), total, mean, share, *distribution]
            for k, total, mean, share, distribution in zip(
                controlled_buckets(n), totals.tolist(), means.tolist(),
                band_shares.tolist(), distributions.tolist(),
            )
        ],
    )

    # Streamed line by line: one join of every line would hold the whole
    # file in memory at once.
    with (out / "run.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(_record_lines(result.groups))

    (out / "meta.json").write_text(
        json.dumps(config_to_flat_dict(result.config), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )


def _record_lines(groups: GroupColumns) -> Iterator[str]:
    """_RECORD_ENCODER.encode(record) + "\\n" for each group's record, with
    each distinct task id and parent label encoded once."""
    encode = _RECORD_ENCODER.encode
    ids = {task_id: encode(task_id) for task_id in set(groups.task_id)}
    origins = {
        parent: f'"origin":{encode(_FRESH if parent is None else _REROLLOUT)},'
        f'"parent_bucket":{encode(parent)}'
        for parent in set(groups.parent_bucket)
    }
    for start in range(0, len(groups.step), _LINE_CHUNK_ROWS):
        chunk = (column[start:start + _LINE_CHUNK_ROWS].tolist() for column in groups)
        for task_id, rewards, parent, step, lengths, boundary in zip(*chunk):
            yield (
                f'{{"task_id":{ids[task_id]},"rewards":{str(rewards).replace(" ", "")},'
                f'{origins[parent]},"step":{step},'
                f'"lengths":{str(lengths).replace(" ", "")},"boundary":{boundary}}}\n'
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
