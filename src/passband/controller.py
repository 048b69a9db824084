"""Prefix selection, replay boundaries, and the per-bucket pass-rate controller.

Skewed fresh groups seed replay material: a hard group (mostly failures)
saves one successful trajectory, an easy group (mostly successes) saves
one failing trajectory, tagged with its bucket: the group's pass count k.
Rerollouts restart from the first M = floor(r_b T) steps of the saved
trajectory, where r_b is a per-bucket prefix ratio.

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
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError, check_field_types
from .groups import BucketKind, GroupOrigin, RolloutGroup, classify_bucket, pass_count

__all__ = [
    "PrefixOutcome",
    "PrefixRecord",
    "ControllerParams",
    "BucketControllerState",
    "initial_controller_state",
    "update_controller",
    "select_prefix",
    "prefix_records",
    "replay_boundary",
    "prefix_pool_memory_bound",
    "PrefixPool",
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
    """A saved trajectory eligible for replay: its task, its source bucket
    (the pass count of the fresh group it came from), its outcome and its
    step ids. Each bucket kind saves its SAVED_OUTCOME;
    sample_rerollout_group, which knows the group size, rejects any other
    pairing."""

    task_id: str
    source_bucket: int
    outcome: PrefixOutcome
    steps: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.steps)


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
        raise DomainError(
            f"observed pass rate must lie in [0, 1], got {observed_pass_rate}"
        )
    ema = (1.0 - params.alpha) * state.ema + params.alpha * observed_pass_rate
    updates = state.updates_seen + 1
    if state.cooldown_remaining > 0:
        return BucketControllerState(
            state.kind, state.ratio, ema, state.cooldown_remaining - 1, updates
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
    return BucketControllerState(state.kind, ratio, ema, cooldown, updates)


def select_prefix(group: RolloutGroup, rollouts) -> PrefixRecord | None:
    """prefix_records of one fresh group, or None if it saves nothing.
    rollouts[i] holds the step ids of the rollout behind group.rewards[i].
    Degenerate or rerollout groups must not be offered."""
    if group.origin is not GroupOrigin.FRESH:
        raise ContractError("rerollout groups never seed prefixes")
    if classify_bucket(pass_count(group), group.group_size) is BucketKind.DEGENERATE:
        raise ContractError("degenerate groups carry no replay material")
    if len(rollouts) != group.group_size:
        raise ContractError(
            f"got {len(rollouts)} rollouts for a group of {group.group_size}"
        )
    steps = np.fromiter(chain.from_iterable(rollouts), dtype=np.int64)
    offsets = list(accumulate((len(rollout) for rollout in rollouts), initial=0))
    records = prefix_records([group.task_id], np.array([group.rewards]) == 1, steps, offsets)
    return records[0] if records else None


def prefix_records(
    task_ids, rewards: np.ndarray, steps: np.ndarray, offsets, kinds=tuple(SAVED_OUTCOME)
) -> list[PrefixRecord]:
    """The replay material of G fresh groups with (G, N) bool rewards, whose
    rollout r = j * N + i spans steps[offsets[r]:offsets[r + 1]]. A group
    whose bucket kind is in kinds saves one trajectory: its lowest-index
    rollout with the kind's SAVED_OUTCOME."""
    if not set(kinds) <= SAVED_OUTCOME.keys():
        raise ContractError(f"only hard and easy buckets save prefixes, got {kinds!r}")
    n = rewards.shape[1]
    by_k = [classify_bucket(k, n) for k in range(n + 1)]
    saved = [SAVED_OUTCOME.get(kind) for kind in by_k]
    ks = rewards.sum(axis=1)
    saving = np.flatnonzero(np.array([kind in kinds for kind in by_k])[ks])
    success = np.array([o is PrefixOutcome.SUCCESS for o in saved])[ks[saving]]
    picked = saving * n + np.argmax(rewards[saving] == success[:, None], axis=1)
    return [
        PrefixRecord(
            task_ids[j], k, saved[k], tuple(steps[offsets[r]:offsets[r + 1]].tolist())
        )
        for j, k, r in zip(saving.tolist(), ks[saving].tolist(), picked.tolist())
    ]


def replay_boundary(ratio: float, length: int) -> int:
    """Number of replayed steps M = floor(ratio * length).

    For lengths of at least 2 the result is clamped to [1, length - 1] so
    every replay keeps at least one replayed and one fresh step. A length-1
    trajectory admits no valid boundary and returns the bare floor.
    """
    if length < 1:
        raise DomainError(f"trajectory length must be >= 1, got {length}")
    if not 0.0 <= ratio <= 1.0:
        raise DomainError(f"replay ratio must lie in [0, 1], got {ratio}")
    m = math.floor(ratio * length)
    if length >= 2:
        m = min(length - 1, max(1, m))
    return m


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
    """Pending replay material, at most one record per (task, source bucket k).

    Saving again for the same key replaces the old record (newest wins);
    draining hands out every record in insertion order and empties the
    pool, so each record is consumed exactly once.
    """

    def __init__(self) -> None:
        self._records: dict[tuple[str, int], PrefixRecord] = {}

    def save(self, record: PrefixRecord) -> None:
        self._records[(record.task_id, record.source_bucket)] = record

    def drain(self) -> list[PrefixRecord]:
        records = list(self._records.values())
        self._records.clear()
        return records

    def __len__(self) -> int:
        return len(self._records)
