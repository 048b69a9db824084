"""Closed-loop experiment driver over the synthetic environment.

One step of the replay pipeline:

1. sample a fresh rollout group for every task in the batch
2. classify each group's bucket and discard degenerates
3. skewed fresh groups save one prefix each (hard: a success, easy: a
   failure), one per (task, pass count), the newest kept
4. replay each saved prefix: compute the replay boundary from the source
   bucket's current ratio, sample a rerollout group, and feed its pass
   rate to that bucket's controller
5. form the mixed batch of non-degenerate fresh and rerollout groups and
   evaluate the masked surrogate on it for audit (nothing is trained)
6. record the step's groups as columns, its audit loss and the
   controllers' snapshots

The loop walks the run in blocks of consecutive steps, as many as fit a
budget of drawn words (_BLOCK_WORDS), and at least one. Only the
controllers carry state that a rerollout's outcome changes, and nothing
drawn depends on them: the task picks, every fresh and rerollout draw
(group j of step s keyed (seed, s, j)) and the prefixes that fresh groups
save. So a block draws its task picks, its fresh groups and its rerollouts
with one env call each, from the population's columns (env.TaskColumns),
and one select_prefix call picks every prefix it saves, keyed by the step
that replays it: the saving step, or the next one without
same_step_rerollout, whose saves past the block carry over to the next
block. Then the rerollouts' boundaries, pass probabilities and controller
updates run one by one, in step order, since each depends on the state the
earlier ones left, and each step ends with its controller rows. The
block's rerollout base logits and sensitivities are gathered from the
columns with one index each. Last, one stable sort by step puts the block's
groups in run.jsonl order, which all that follows reads: its non-degenerate
groups, the only ones whose loss can change a step's sum, are scored a
chunk of whole groups at a time (_SCORE_WORDS), one env.draw_step_ids and
one masked_loss_kernel call per chunk, and each step's audit loss adds its
groups' losses left to right from 0.0. Where blocks and chunks end shows in
nothing a run records.

A block is held as arrays, not per-group objects: env's StepDraws heads,
(G, N) rewards, RLOO advantages and one audit-loss term row per scored
group. A run's groups stay arrays too: RunResult.groups holds run.jsonl's
fields as columns, one row per group, allocated once at the most rows a run
can produce; each block writes its rows into the next slice, and the loop
trims the columns in place to the rows written. After the loop,
the step metrics and the parent-to-child transitions are counted from them
in one pass each, and run.jsonl is formatted from them a chunk of rows at
a time: each chunk's cells are gathered from text tables built once per
run and joined once.

Four arms share this loop, which takes their semantics from config's
SAVING_KINDS and arm_controller_params: the baseline saves no prefix, so
nothing replays; the fixed-ratio arm runs the controller with a zero step
size, the hard-only arm ignores easy buckets, and the adaptive arm runs
everything.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import shutil
import tempfile
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import env as env_mod
# The run loop calls the loss kernel directly; masked_grpo_loss, its
# object-level form, stays importable from here for code that looks the
# audit loss up on this module.
from .advantages import (  # noqa: F401
    ToyPolicy,
    _left_to_right_sums,
    masked_grpo_loss,
    masked_loss_kernel,
    rloo_advantages,
)
from .config import (
    SAVING_KINDS,
    Arm,
    ExperimentConfig,
    arm_controller_params,
    config_to_flat_dict,
)
from .controller import (
    SAVED_OUTCOME,
    BucketControllerState,
    initial_controller_state,
    replay_boundary,
    select_prefix,
    update_controller,
)
from .errors import ContractError, DomainError, int64_array, int_array, signed_array
from .groups import bucket_label, classify_bucket, controlled_buckets
from .special import expit, per_element

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

# Sizes a block: a step counts G·N·(length_max + 2) words, its fresh rollouts'
# heads and step ids. A block draws only heads, a few words per rollout, and its
# step ids a scoring chunk at a time, so this bounds the rollouts it holds. A
# block takes as many steps as fit and at least one: 18 on steer, 1 on long-audit.
_BLOCK_WORDS = 2**17
# Most step positions a block scores at once: its live groups are scored in
# chunks of whole groups, as many as fit and at least one, so that per-token
# arrays stay in cache. Chosen by a 2**13 .. 2**17 sweep on steer and long-audit.
_SCORE_WORDS = 2**14

_AUDIT_CONTEXTS = 8
_AUDIT_VOCAB = 16
_FRESH = "fresh"
_REROLLOUT = "rerollout"


class CohortStats(NamedTuple):
    """Share statistics of one origin cohort within a step."""

    count: int
    degenerate_share: float
    target_band_share: float
    exact_half_share: float
    mean_distance: float


class StepMetrics(NamedTuple):
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
    """run.jsonl's fields as columns, one row per group in file order: an
    object array of task ids, rewards (R, N) int8, each group's parent pass
    count (-1 for a fresh group; the origin follows from it), steps, lengths
    (R, N), boundaries. A run's parents and steps are int64, and its lengths
    and boundaries the narrowest signed int that holds 2·length_max (int8 up
    to length_max 63, int16 up to 16383, int32 above), since every value is
    below it; the readers take any int dtype. A run's columns are C-ordered,
    hold exactly R rows and own their data: run_experiment trims them in place
    (ndarray.resize, its reference check off, so a profiler or tracer does not
    make it refuse) from the bound it allocated them at, so none is a view of
    a larger array."""

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
            "origin": _FRESH if parent < 0 else _REROLLOUT,
            "parent_bucket": None if parent < 0 else bucket_label(parent, len(rewards)),
            "step": int(step), "lengths": lengths.tolist(), "boundary": int(boundary),
        }


@dataclass(frozen=True)
class RunResult:
    """Everything one run produces, ready for emission or analysis. metrics
    and transitions are computed from groups once the loop is done."""

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


def _narrowest(top: int) -> np.dtype:
    """The narrowest signed int dtype that holds top >= 0, as it holds -1 - top."""
    return np.min_scalar_type(-1 - top)


def _columns(groups: GroupColumns, n: int, steps: int | None = None):
    """(step, pass count, parent) of every group, step and parent int64 and
    the pass counts of dtype _narrowest(2n), from checked columns (step and
    parent by errors.int64_array); steps, when given, bounds the step column.
    Every column must hold one row per group, and the message names the
    counts of rewards, parents and steps and of any other column that
    differs (ContractError). The rewards are summed as they are, not copied."""
    rewards = int_array(groups.rewards, "rewards")
    step = int64_array(groups.step, "step")
    parent = int64_array(groups.parent_bucket, "parent_bucket")
    if rewards.ndim != 2 or rewards.shape[1] != n:
        raise ContractError(f"rewards of shape {rewards.shape} for group size {n}")
    rows = len(rewards)
    others = [(len(column), noun) for column, noun in (
        (groups.task_id, "task ids"), (groups.lengths, "lengths"), (groups.boundary, "boundaries")
    ) if len(column) != rows]
    if others or not rows == len(parent) == len(step):
        counts = [(rows, "rewards"), (len(parent), "parents"), (len(step), "steps"), *others]
        raise ContractError(", ".join(f"{count} {noun}" for count, noun in counts))
    if rewards.size and (rewards.min() < 0 or rewards.max() > 1):
        raise DomainError("rewards must be 0 or 1")
    if steps is not None:
        outside = step[(step < 0) | (step >= steps)]
        if outside.size:
            raise ContractError(f"step {outside[0]} outside [0, {steps}), the steps with a loss")
    uncontrolled = parent[(parent != -1) & ~np.isin(parent, controlled_buckets(n))]
    if uncontrolled.size:
        raise ContractError(f"rerollouts come only from controlled buckets, "
                            f"got parent {bucket_label(uncontrolled[0], n)}")
    return step, rewards.sum(axis=1, dtype=_narrowest(2 * n)), parent


def _table(rows, cols, shape, weights=None) -> np.ndarray:
    """Counts (or summed weights) of the (row, col) pairs as an array of shape."""
    return np.bincount(rows * shape[1] + cols, weights, shape[0] * shape[1]).reshape(shape)


def _cohort_stats(counts: np.ndarray, n: int) -> list[CohortStats]:
    """One CohortStats per row of counts, whose cell d counts the groups with
    |2k - n| = d. Each share is an exact integer over the row's size, so it
    equals the float mean over the groups; an empty row's shares are nan."""
    count = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        shares = (counts[:, n] / count, counts[:, :3].sum(axis=1) / count,
                  counts[:, 0] / count, counts @ np.arange(n + 1) / (2 * count))
    return [CohortStats(*row) for row in zip(count.tolist(), *(s.tolist() for s in shares))]


def compute_step_metrics(groups: GroupColumns, n: int, audit_losses) -> tuple[StepMetrics, ...]:
    """The metrics of every step of a run from its columns: step s scores
    the groups whose step is s, with audit loss audit_losses[s]."""
    steps = len(audit_losses)
    step, k, parent = _columns(groups, n, steps)
    rerolled = parent >= 0
    # Rows 2s and 2s + 1 count step s's fresh and rerollout groups by |2k - n|,
    # which k's dtype holds: the bin code is built in place, so that it is the
    # one int64 array of the run's length alive.
    code = 2 * step
    code += rerolled
    code *= n + 1
    distance = 2 * k
    distance -= n
    code += np.abs(distance, out=distance)
    del distance
    cohorts = np.bincount(code, minlength=2 * steps * (n + 1)).reshape(2 * steps, n + 1)
    del code
    valid = cohorts[:, :n].sum(axis=1).reshape(steps, 2).sum(axis=1).tolist()
    stats = _cohort_stats(cohorts, n)
    # Rerollout groups and their passes per (step, parent bucket), binned by
    # one code built in place.
    code = step[rerolled]
    code *= n + 1
    code += parent[rerolled]
    counts = np.bincount(code, minlength=steps * (n + 1)).reshape(steps, n + 1)
    passes = np.bincount(code, k[rerolled], steps * (n + 1)).reshape(steps, n + 1)
    del code
    with np.errstate(invalid="ignore"):
        rates = (passes / counts / n).tolist()
    by_label = sorted((bucket_label(b, n), b) for b in controlled_buckets(n))
    return tuple(
        StepMetrics(
            s, valid[s], stats[2 * s], stats[2 * s + 1],
            bucket_pass_rates={label: rate[b] for label, b in by_label if count[b]},
            bucket_group_counts={label: count[b] for label, b in by_label if count[b]},
            audit_loss=loss,
        )
        for s, (rate, count, loss) in enumerate(zip(rates, counts.tolist(), audit_losses))
    )


def compute_transition_matrix(groups: GroupColumns, n: int) -> np.ndarray:
    """Counts of the rerollouts in a run's columns by (parent bucket, pass
    count) as an int64 array of shape (len(controlled_buckets(n)), n + 1):
    row i counts the children of bucket controlled_buckets(n)[i], column c
    those with pass count c."""
    _, k, parent = _columns(groups, n)
    ks = controlled_buckets(n)
    rerolled = parent >= 0
    return _table(np.searchsorted(ks, parent[rerolled]), k[rerolled], (len(ks), n + 1))


def _block_prefixes(carry: dict, last_step: int, *selection):
    """The saves a block ending at last_step replays, carry's (made for its
    first step by the block before) and select_prefix(*selection)'s, as
    (R, 3) int64 (step, task row, pass count) rows in step order and their
    lengths; then the saves for later steps, which the next block carries."""
    saves = {**carry, **select_prefix(*selection)}
    keys = np.fromiter(itertools.chain.from_iterable(saves), np.int64, 3 * len(saves))
    held = int(np.searchsorted(keys[::3], last_step, side="right"))
    items = list(saves.items())
    return keys.reshape(-1, 3)[:held], [length for _, length in items[:held]], dict(items[held:])


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run one arm for the configured number of steps. Deterministic."""
    n = config.group_size
    g = config.batch_size
    seed = config.seed
    params = arm_controller_params(config)
    tasks = env_mod.make_task_population(config.population, seed)
    fresh_p = per_element(expit, tasks.base_logit)
    saving = SAVING_KINDS[config.arm]
    states: dict[int, BucketControllerState] = {
        k: initial_controller_state(classify_bucket(k, n), params) for k in controlled_buckets(n)
    }
    bucket_labels = {k: bucket_label(k, n) for k in states}
    saved_outcomes = {k: SAVED_OUTCOME[s.kind] for k, s in states.items()}
    logits = env_mod.stream_uniforms((seed, _POLICY_STREAM), _AUDIT_CONTEXTS * _AUDIT_VOCAB)
    log_probs = ToyPolicy(logits.reshape(_AUDIT_CONTEXTS, _AUDIT_VOCAB)).log_probs()
    lag = 0 if config.same_step_rerollout else 1  # steps from a save to its replay
    carry: dict[tuple[int, int, int], int] = {}
    audit_losses: list[float] = []
    controller_rows: list[ControllerRow] = []
    # run.jsonl's columns at the most rows a run can produce: G fresh groups a
    # step and, when the arm saves, at most G rerollouts, since each fresh group
    # saves at most one prefix and each save is replayed once.
    capacity = config.steps * g * (2 if saving else 1)
    # A rerollout's lengths are its drawn ones plus a boundary below its saved
    # length, so no length or boundary reaches 2·length_max.
    narrow = _narrowest(2 * config.population.length_max)
    groups = GroupColumns(
        task_id=np.empty(capacity, object), rewards=np.empty((capacity, n), np.int8),
        parent_bucket=np.empty(capacity, np.int64), step=np.empty(capacity, np.int64),
        lengths=np.empty((capacity, n), narrow), boundary=np.empty(capacity, narrow),
    )
    written = 0
    span = max(1, _BLOCK_WORDS // (g * n * (config.population.length_max + 2)))

    for first in range(0, config.steps, span):
        # A block of steps. Its task picks, its draws and the prefixes its
        # fresh groups save do not depend on the controllers, so they are
        # made for the whole block first; group j of step s is keyed
        # (seed, s, j), fresh and rerollout alike.
        steps = np.arange(first, min(first + span, config.steps))
        picks = env_mod.stream_integer_rows(
            (seed, _TASK_STREAM), steps[:, None], g, len(tasks.task_id)
        ).ravel().astype(np.int64)
        fresh_step = np.repeat(steps, g)
        fresh_slot = np.tile(np.arange(g), len(steps))
        fresh = env_mod.draw_fresh_groups(
            tasks, picks, n, seed, np.column_stack((fresh_step, fresh_slot))
        )
        fresh_rewards = env_mod.rollout_rewards(fresh.uniforms, fresh_p[picks])
        keys, saved_lengths, carry = _block_prefixes(
            carry, steps[-1], fresh_step + lag, picks, fresh_rewards, fresh.lengths, saving
        )
        rerollout_step, rerolled, parents = keys.T
        into = slice(written, written + len(picks) + len(keys))
        if into.stop > capacity:
            raise ContractError(f"{into.stop} groups by step {steps[-1]}, "
                                f"past the run's bound of {capacity}")
        per_step = np.bincount(rerollout_step - first, minlength=len(steps))
        slots = np.arange(len(keys)) - np.searchsorted(rerollout_step, rerollout_step)
        draws = env_mod.draw_rerollout_groups(
            tasks, rerolled, n, seed, np.column_stack((rerollout_step, slots))
        )
        # The controllers move rerollout by rerollout, in step order, and
        # each step ends with a controller row per bucket. A rerollout's pass
        # count at p is the number of its uniforms below p.
        ms: list[int] = []
        ps: list[float] = []
        rollouts = zip(
            parents.tolist(), saved_lengths, tasks.base_logit[rerolled].tolist(),
            tasks.prefix_sensitivity[rerolled].tolist(), np.sort(draws.uniforms, axis=1).tolist(),
        )
        for step, count in zip(steps.tolist(), per_step.tolist()):
            for parent, length, logit, sensitivity, uniforms in itertools.islice(rollouts, count):
                state = states[parent]
                # 1 <= m < T: every population's lengths are at least 2.
                m = replay_boundary(state.ratio, length)
                p = env_mod.conditioned_pass_probability(
                    logit, sensitivity, saved_outcomes[parent], m / length
                )
                passed = bisect.bisect_left(uniforms, p)
                states[parent] = update_controller(state, passed / n, params)
                ms.append(m)
                ps.append(p)
            if saving:
                controller_rows.extend(
                    ControllerRow(step, bucket_labels[k], s.ratio, s.ema, s.cooldown_remaining)
                    for k, s in states.items()
                )
        # The block's groups in run.jsonl order, each step's fresh groups and
        # then its rerollouts: one stable sort by step orders every column.
        order = np.argsort(np.concatenate((fresh_step, rerollout_step)), kind="stable")
        block_step, task_rows, parent_bucket, boundary, rewards, lengths, keys = (
            np.concatenate(parts)[order] for parts in (
                (fresh_step, rerollout_step), (picks, rerolled),
                (np.full_like(picks, -1), parents), (np.zeros_like(picks), np.array(ms, np.int64)),
                (fresh_rewards, env_mod.rollout_rewards(draws.uniforms, np.array(ps, float))),
                (fresh.lengths, draws.lengths), (fresh.keys, draws.keys),
            )
        )
        # A degenerate group's RLOO advantages are all zero, so its loss is a
        # zero of either sign, which leaves a step's sum as it is: only the
        # other groups' step ids are drawn and scored.
        passes = rewards.sum(axis=1)
        live = np.flatnonzero((passes > 0) & (passes < n))
        advantages = rloo_advantages(rewards[live])
        ends = np.cumsum(lengths[live].sum(axis=1))
        losses = np.empty(len(live))
        a = start = 0
        while a < len(live):
            # Live groups a .. b - 1: as many as fit _SCORE_WORDS, at least one.
            b = max(a + 1, int(np.searchsorted(ends, start + _SCORE_WORDS, "right")))
            rows = live[a:b]
            tokens = env_mod.draw_step_ids(keys[rows], lengths[rows])
            # Step ids are >= 0 and _AUDIT_VOCAB is a power of two, so the
            # mask takes them mod the vocabulary.
            tokens &= _AUDIT_VOCAB - 1
            losses[a:b] = masked_loss_kernel(
                tokens, boundary[rows, None], lengths[rows], advantages[a:b], log_probs,
                length_normalized=config.loss.length_normalized,
                group_reduction=config.loss.group_reduction,
            )
            a, start = b, ends[b - 1]
        live_per_step = np.bincount(block_step[live] - first, minlength=len(steps))
        audit_losses.extend(_left_to_right_sums(losses, live_per_step).tolist())
        # One run.jsonl row per group; its rollouts share its boundary.
        groups.task_id[into] = tasks.task_id[task_rows]
        groups.rewards[into] = rewards
        groups.parent_bucket[into] = parent_bucket
        groups.step[into] = block_step
        np.add(lengths, boundary[:, None], out=groups.lengths[into])
        groups.boundary[into] = boundary
        written = into.stop

    # Trimmed in place by realloc, not viewed: a view would keep every row of
    # the bound alive with the result. resize's reference check is off: under
    # a profiler or tracer the bound method holds one more reference, and the
    # check refuses. No view of a column outlives the write it was taken for.
    for i in range(len(groups)):
        groups[i].resize((written, *groups[i].shape[1:]), refcheck=False)
    return RunResult(
        config=config,
        metrics=compute_step_metrics(groups, n, audit_losses),
        controller_rows=tuple(controller_rows),
        transitions=compute_transition_matrix(groups, n),
        final_states={bucket_labels[k]: s for k, s in states.items()},
        groups=groups,
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
    return header, [
        [m.step, m.valid_groups, *m.fresh, *m.rerollout, m.audit_loss, *(
            cell for label in bucket_labels for cell in
            (m.bucket_pass_rates.get(label, float("nan")), m.bucket_group_counts.get(label, 0))
        )]
        for m in result.metrics
    ]


# One compact encoder for every run.jsonl record; _record_lines writes its
# bytes from the columns, this many rows per string. The chunk bounds the
# memory emission adds: on long-audit (1,536 rows of N = 16) emit_traces
# peaks at 0.65 MiB traced, 1.08 MiB at 1,024 rows, and no higher over twice
# the rows. Steer emits as fast at 512 rows as at 1,024.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))
_LINE_CHUNK_ROWS = 512
# The text after each kind of int cell of a run.jsonl line: a length but the
# last, the step, the last length and the boundary.
_INT_SUFFIXES = (",", ',"lengths":[', '],"boundary":', "}\n")
_TRACE_FILES = ("metrics.csv", "controller.csv", "transitions.csv", "run.jsonl", "meta.json")


def emit_traces(result: RunResult, destination) -> list[Path]:
    """Write metrics.csv, controller.csv, transitions.csv, run.jsonl, and
    meta.json under the destination directory. Byte-stable given a seed.

    The columns are checked first, and a failed check writes nothing:
    _columns checks them as compute_step_metrics does, with steps in
    [0, len(metrics)); then lengths must be (R, N) (ContractError), and
    lengths and boundaries int arrays, read in their own dtype (unsigned ones
    as int64, errors.signed_array), a fresh group's boundary 0, a rerollout's
    >= 1 and every length >= boundary + 1 (DomainError naming the column).
    The files are written into a temporary directory next to the destination
    and then moved into place, so an interrupted write leaves the destination
    as it was.
    """
    groups, n = result.groups, result.config.group_size
    step, _, parent = _columns(groups, n, len(result.metrics))
    lengths = signed_array(groups.lengths, "lengths")
    boundary = signed_array(groups.boundary, "boundary")
    if lengths.shape != (len(step), n):
        raise ContractError(f"lengths of shape {lengths.shape} for group size {n}")
    if np.any(np.where(parent < 0, boundary != 0, boundary < 1)):
        raise DomainError("boundary must be 0 for a fresh group and >= 1 for a rerollout")
    if np.any(lengths <= boundary[:, None]):
        raise DomainError("lengths must be >= boundary + 1")
    groups = groups._replace(rewards=np.asarray(groups.rewards), parent_bucket=parent,
                             step=step, lengths=lengths, boundary=boundary)
    dest = Path(destination)
    dest.parent.mkdir(parents=True, exist_ok=True)
    with _staged(dest, dest.parent, _TRACE_FILES) as staging:
        _write_traces(replace(result, groups=groups), staging)
    return [dest / name for name in _TRACE_FILES]


@contextmanager
def _staged(dest: Path, near: Path, names) -> Iterator[Path]:
    """A new temporary directory in near to write the named files into; on a
    clean exit they are moved into dest. An interrupted write leaves dest as
    it was and no temporary file behind."""
    staging = Path(tempfile.mkdtemp(prefix=f".{dest.name}-", dir=near))
    try:
        yield staging
        dest.mkdir(exist_ok=True)
        for name in names:
            os.replace(staging / name, dest / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


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

    # Streamed a chunk of lines at a time: one join of every line would hold
    # the whole file in memory at once.
    with (out / "run.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(_record_lines(result.groups))

    (out / "meta.json").write_text(
        json.dumps(config_to_flat_dict(result.config), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )


def _int_table(values) -> np.ndarray:
    """Row i holds each value's text followed by _INT_SUFFIXES[i]."""
    return np.array([[f"{v}{suffix}" for v in values] for suffix in _INT_SUFFIXES], object)


def _record_lines(groups: GroupColumns) -> Iterator[str]:
    """_RECORD_ENCODER.encode(record) + "\\n" for each group's record, joined
    _LINE_CHUNK_ROWS rows at a time, so only the chunk grows with the run.
    Each distinct task id and parent is encoded once per run, and so is each
    int of [min, max] of the other int columns, indexed by value - min;
    columns of a wider range than their int cells (hand-built, or a few groups
    of long rollouts) use a table of each chunk's distinct ints. A line's
    rewards are one text cell per byte of np.packbits. A chunk's cells are
    gathered and joined at once. It checks nothing: every column but the task
    ids is an int array, as emit_traces checks them."""
    if not len(groups.step):
        return
    encode = _RECORD_ENCODER.encode
    rewards = groups.rewards
    n = rewards.shape[1]
    heads = {
        task_id: f'{{"task_id":{encode(task_id)},"rewards":['
        for task_id in set(groups.task_id)
    }
    origins = {
        parent: f'"origin":{encode(_FRESH if parent < 0 else _REROLLOUT)},'
        f'"parent_bucket":{encode(None if parent < 0 else bucket_label(parent, n))},"step":'
        for parent in set(groups.parent_bucket.tolist())
    }
    # Each byte's text as a line's rewards: row 0 a full byte's, "b0,...,b7,"
    # with the first reward in the top bit; row 1 a line's last byte, its top
    # n - 8·(ceil(n/8) - 1) bits and "],".
    bits = [",".join(f"{byte:08b}") for byte in range(256)]
    last = 2 * (n - 8 * ((n - 1) // 8)) - 1
    reward_table = np.array([[f"{b}," for b in bits], [f"{b[:last]}]," for b in bits]], object)
    byte_rows = [0] * ((n - 1) // 8) + [1]
    # A line's cells: its head, reward bytes and origin, then the step, n
    # lengths and the boundary, whose text is the int table's row of their suffix.
    ints_at = len(byte_rows) + 2
    suffixes = np.array([1] + [0] * (n - 1) + [2, 3])
    columns = (groups.step[:, None], groups.lengths, groups.boundary[:, None])
    lo = min(int(column.min()) for column in columns)
    hi = max(int(column.max()) for column in columns)
    one_table = hi - lo < len(groups.step) * (n + 2)
    if one_table:
        table = _int_table(range(lo, hi + 1))
    for start in range(0, len(groups.step), _LINE_CHUNK_ROWS):
        rows = slice(start, start + _LINE_CHUNK_ROWS)
        ints = np.concatenate([column[rows] for column in columns], axis=1, dtype=np.int64)
        if one_table:
            index = ints - lo
        else:
            values, index = np.unique(ints, return_inverse=True)
            table = _int_table(values.tolist())
            index = index.reshape(ints.shape)
        cells = np.empty((len(ints), ints_at + n + 2), object)
        cells[:, 0] = list(map(heads.__getitem__, groups.task_id[rows]))
        cells[:, 1:ints_at - 1] = reward_table[byte_rows, np.packbits(rewards[rows], axis=1)]
        cells[:, ints_at - 1] = list(map(origins.__getitem__, groups.parent_bucket[rows].tolist()))
        cells[:, ints_at:] = table[suffixes, index]
        yield "".join(cells.ravel().tolist())


def aggregate_run(result: RunResult) -> dict[str, float]:
    """Whole-run aggregates: mean valid groups per step and the cohort
    shares of the run's groups pooled over its steps."""
    n = result.config.group_size
    steps = len(result.metrics)
    _, k, parent = _columns(result.groups, n, steps)
    cohorts = _table(parent >= 0, np.abs(2 * k - n), (2, n + 1))
    out = {"mean_valid_groups": float(cohorts[:, :n].sum() / steps) if steps else float("nan")}
    for cohort, stats in zip(("fresh", "rerollout"), _cohort_stats(cohorts, n)):
        out[f"{cohort}_count"] = float(stats.count)
        for name in ("degenerate_share", "target_band_share", "mean_distance"):
            out[f"{cohort}_{name}"] = getattr(stats, name)
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
    is given. summary.csv is replaced whole: an interrupted write leaves the
    earlier one as it was.
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
        with _staged(out, out, ["summary.csv"]) as staging:
            _write_csv(staging / "summary.csv", header, [[row[h] for h in header] for row in rows])
    return rows
