"""Prefix selection, replay boundaries, and the per-bucket pass-rate controller.

Skewed fresh groups seed replay material: a hard group (mostly failures)
saves one successful trajectory, an easy group (mostly successes) saves
one failing trajectory, tagged with its bucket: the group's pass count k.
Rerollouts restart from the first M = floor(r_b T) steps of the saved
trajectory, where r_b is a per-bucket prefix ratio. A continuation's pass
probability reads only the replayed share M / T, and the audit loss scores
only the continuation's steps, so a saved trajectory is kept as its task
row, its bucket and its length T, without its step ids.

Each controlled bucket b runs an independent feedback loop on its
rerollout pass rate:

    ema <- (1 - alpha) ema + alpha p_new

with a deadzone around the 0.5 target, a fixed adjustment step, ratio
bounds, and a cooldown of several controller updates between consecutive
ratio changes. Hard buckets lower r_b when rerollouts pass too often
(shorter successful head start) and raise it when they pass too rarely;
easy buckets invert the direction because their prefixes are failing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .advantages import _binary_rewards
from .errors import ContractError, DomainError, check_field_types, is_int
from .groups import BucketKind, classify_bucket

__all__ = [
    "PrefixOutcome",
    "ControllerParams",
    "BucketControllerState",
    "initial_controller_state",
    "update_controller",
    "select_prefix",
    "replay_boundary",
    "prefix_pool_memory_bound",
]


class PrefixOutcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


# The outcome each controlled bucket kind saves for replay: a hard bucket its
# rare success, an easy bucket its rare failure.
SAVED_OUTCOME = {
    BucketKind.HARD: PrefixOutcome.SUCCESS,
    BucketKind.EASY: PrefixOutcome.FAILURE,
}


class PrefixRecord(NamedTuple):
    """A saved trajectory eligible for replay: its task's row, its source
    bucket (the pass count of the fresh group it came from) and its length T.
    Its outcome is SAVED_OUTCOME of the source bucket's kind at the group size.
    Not exported: it stays while PrefixPool and env.sample_rerollout_group do."""

    task_row: int
    source_bucket: int
    length: int


@dataclass(frozen=True)
class ControllerParams:
    """Feedback parameters shared by all buckets of one run."""

    alpha: float = 0.05
    deadzone: float = 0.03
    step_size: float = 0.05
    ratio_min: float = 0.05
    ratio_max: float = 0.95
    cooldown: int = 5
    initial_ratio: float = 0.5
    target: float = 0.5

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.deadzone < 0.5:
            raise DomainError(f"deadzone must lie in [0, 0.5), got {self.deadzone}")
        if not 0.0 <= self.step_size < math.inf:
            raise DomainError(f"step_size must be finite and >= 0, got {self.step_size}")
        if not 0.0 < self.ratio_min <= self.ratio_max < 1.0:
            raise DomainError(
                f"ratio bounds must satisfy 0 < min <= max < 1, "
                f"got [{self.ratio_min}, {self.ratio_max}]"
            )
        if not self.ratio_min <= self.initial_ratio <= self.ratio_max:
            raise DomainError(
                f"initial ratio {self.initial_ratio} outside bounds "
                f"[{self.ratio_min}, {self.ratio_max}]"
            )
        if self.cooldown < 0:
            raise DomainError(f"cooldown must be >= 0, got {self.cooldown}")
        if not 0.0 < self.target < 1.0:
            raise DomainError(f"target must lie in (0, 1), got {self.target}")


class BucketControllerState(NamedTuple):
    """One bucket's kind, ratio, smoothed pass rate, and cooldown bookkeeping."""

    kind: BucketKind
    ratio: float
    ema: float
    cooldown_remaining: int = 0
    updates_seen: int = 0


def initial_controller_state(
    kind: BucketKind, params: ControllerParams = ControllerParams()
) -> BucketControllerState:
    """Neutral starting state of a hard or easy bucket: ratio and EMA both
    at their initial values."""
    if kind not in SAVED_OUTCOME:
        raise ContractError(f"{kind.value} buckets are not controlled")
    return BucketControllerState(kind=kind, ratio=params.initial_ratio, ema=params.target)


# update_controller builds its result as NamedTuple._make does; HARD is a global.
_HARD = BucketKind.HARD


def update_controller(
    state: BucketControllerState,
    observed_pass_rate: float,
    params: ControllerParams = ControllerParams(),
) -> BucketControllerState:
    """Fold one completed rerollout's pass rate into the bucket's state.

    The EMA always absorbs the observation. The ratio moves by one step
    only when the fresh EMA sits outside the deadzone and no cooldown is
    pending; an actual ratio change re-arms the cooldown.
    """
    if not 0.0 <= observed_pass_rate <= 1.0:
        raise DomainError(f"observed pass rate must lie in [0, 1], got {observed_pass_rate}")
    kind, ratio, ema, cooldown, updates = state
    ema = (1.0 - params.alpha) * ema + params.alpha * observed_pass_rate
    if cooldown > 0:
        return tuple.__new__(BucketControllerState, (kind, ratio, ema, cooldown - 1, updates + 1))
    moved = ratio
    if ema > params.target + params.deadzone:
        moved = ratio - params.step_size if kind is _HARD else ratio + params.step_size
    elif ema < params.target - params.deadzone:
        moved = ratio + params.step_size if kind is _HARD else ratio - params.step_size
    # The clamp also holds a hand-built ratio outside the bounds at direction 0.
    if not params.ratio_min <= moved <= params.ratio_max:
        moved = min(params.ratio_max, max(params.ratio_min, moved))
    cooldown = params.cooldown if moved != ratio else 0
    return tuple.__new__(BucketControllerState, (kind, moved, ema, cooldown, updates + 1))


def select_prefix(
    steps, task_rows, rewards, lengths: np.ndarray, kinds=tuple(SAVED_OUTCOME)
) -> dict[tuple[int, int, int], int]:
    """The replay material of G fresh groups, group j of task row task_rows[j]
    saving for step steps[j], with (G, N) binary rewards and (G, N) rollout
    lengths: each group whose bucket kind is in kinds saves its lowest-index
    rollout with the kind's SAVED_OUTCOME, as {(step, task row, pass count):
    length}. A key saved again keeps its first save's place and its last
    save's length, as PrefixPool does."""
    if not set(kinds) <= SAVED_OUTCOME.keys():
        raise ContractError(f"only hard and easy buckets save prefixes, got {kinds!r}")
    if np.ndim(rewards) != 2:
        raise ContractError(f"rewards must be (G, N), got shape {np.shape(rewards)}")
    rewards = _binary_rewards(rewards)
    g, n = rewards.shape
    lengths = np.asarray(lengths)
    if not len(steps) == len(task_rows) == g or lengths.shape != (g, n):
        raise ContractError(
            f"{g} groups of {n} rollouts need {g} steps, {g} task rows and lengths of "
            f"shape {(g, n)}, got {len(steps)}, {len(task_rows)} and {lengths.shape}"
        )
    by_k = [classify_bucket(k, n) for k in range(n + 1)]
    ks = rewards.sum(axis=1).astype(np.int64)
    saving = np.flatnonzero(np.array([kind in kinds for kind in by_k])[ks])
    success = np.array([SAVED_OUTCOME.get(kind) is PrefixOutcome.SUCCESS for kind in by_k])
    picked = np.argmax(rewards[saving] == success[ks[saving], None], axis=1)
    keys = zip(*(np.asarray(column)[saving].tolist() for column in (steps, task_rows, ks)))
    return dict(zip(keys, lengths[saving, picked].tolist()))


def replay_boundary(ratio: float, length: int) -> int:
    """Number of replayed steps M = floor(ratio * length), clamped to
    [1, length - 1] so every replay keeps at least one replayed and one fresh
    step. A trajectory shorter than 2 steps admits no such boundary."""
    if not is_int(length):
        raise DomainError(f"trajectory length must be an int, got {length!r}")
    if length < 2:
        raise DomainError(f"trajectory length must be >= 2, got {length}")
    if not 0.0 <= ratio <= 1.0:
        raise DomainError(f"replay ratio must lie in [0, 1], got {ratio}")
    return min(length - 1, max(1, math.floor(ratio * length)))


def prefix_pool_memory_bound(
    batch_size: int, max_prompt: int, max_response: int
) -> float:
    """Worst-case bytes to hold one batch of text prefixes.

    Each saved prefix stores at most the prompt plus the longest possible
    replayed share (ratio bound 0.95) of the response, at 4 bytes per
    token: batch_size * (max_prompt + 0.95 * max_response) * 4.
    """
    for name, value in (
        ("batch_size", batch_size),
        ("max_prompt", max_prompt),
        ("max_response", max_response),
    ):
        if value < 0:
            raise DomainError(f"{name} must be >= 0, got {value}")
    return batch_size * (max_prompt + 0.95 * max_response) * 4.0


class PrefixPool:
    """Replay material, at most one record per (task, source bucket k):
    saving again for a key replaces its record (newest wins), and draining
    hands out every record in insertion order and empties the pool. No run
    reaches it: the loop takes a block's material from select_prefix, already
    de-duplicated so. Not exported, it stays as the tests' reference and as
    perfbench/workloads.py's timing site, until ROADMAP items 1 and 2."""

    def __init__(self) -> None:
        self._records: dict[tuple[int, int], PrefixRecord] = {}

    def save(self, record: PrefixRecord) -> None:
        self._records[(record.task_row, record.source_bucket)] = record

    def drain(self) -> list[PrefixRecord]:
        records = list(self._records.values())
        self._records.clear()
        return records

    def __len__(self) -> int:
        return len(self._records)
