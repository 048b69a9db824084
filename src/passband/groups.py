"""Rollout groups and pass-count bucketing.

A rollout group is one task's N binary-reward rollouts. A bucket is a
group's pass count k at group size N, named "k/N" by bucket_label, and its
kind routes it:

* degenerate  k in {0, N}        discarded, no within-group contrast
* hard        k in {1 .. ceil(N/4)}
* easy        k in {N - ceil(N/4) .. N-1}
* balanced    everything between

For N = 8 this gives the partition {0,8} / {1,2} / {3,4,5} / {6,7}. Hard
and easy buckets are the controlled ones: they seed prefix replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ContractError, DomainError, is_int

__all__ = [
    "BucketKind",
    "GroupOrigin",
    "RolloutGroup",
    "bucket_label",
    "classify_bucket",
    "controlled_buckets",
    "pass_count",
]


class BucketKind(Enum):
    DEGENERATE = "degenerate"
    HARD = "hard"
    BALANCED = "balanced"
    EASY = "easy"


class GroupOrigin(Enum):
    FRESH = "fresh"
    REROLLOUT = "rerollout"


@dataclass(frozen=True)
class RolloutGroup:
    """One task's N binary-reward rollouts plus origin metadata: a rerollout
    group carries the pass count of the fresh group its prefix came from.

    The group itself never embeds trajectories; whatever produced it holds
    them in reward order.
    """

    task_id: str
    rewards: tuple[int, ...]
    origin: GroupOrigin = GroupOrigin.FRESH
    parent_bucket: int | None = None

    def __post_init__(self) -> None:
        if len(self.rewards) == 0:
            raise ContractError("a rollout group must contain at least one rollout")
        if any(r not in (0, 1) for r in self.rewards):
            raise ContractError(f"rewards must be binary, got {self.rewards!r}")
        if (self.parent_bucket is not None) != (self.origin is GroupOrigin.REROLLOUT):
            raise ContractError(
                "parent_bucket must be set exactly when origin is rerollout"
            )

    @property
    def group_size(self) -> int:
        return len(self.rewards)


def pass_count(group: RolloutGroup) -> int:
    """Number of successful rollouts in the group."""
    return sum(group.rewards)


def _hard_upper(n: int) -> int:
    # Lowest quartile excluding 0; reproduces hard = {1, 2} at N = 8.
    if not (is_int(n) and n >= 4 and n % 2 == 0):
        raise DomainError(f"bucketing requires an even int group size N >= 4, got {n!r}")
    return math.ceil(n / 4)


def bucket_label(k: int, n: int) -> str:
    """The bucket's name in traces and reports: "k/n"."""
    return f"{k}/{n}"


def classify_bucket(k: int, n: int) -> BucketKind:
    """The kind of pass count k at an even group size n >= 4."""
    hard_hi = _hard_upper(n)
    if not (is_int(k) and 0 <= k <= n):
        raise DomainError(f"pass count k must be an int in [0, {n}], got {k!r}")
    if k == 0 or k == n:
        return BucketKind.DEGENERATE
    if k <= hard_hi:
        return BucketKind.HARD
    if k >= n - hard_hi:
        return BucketKind.EASY
    return BucketKind.BALANCED


def controlled_buckets(n: int) -> tuple[int, ...]:
    """The hard and easy pass counts of group size n, in ascending order."""
    hard_hi = _hard_upper(n)
    return (*range(1, hard_hi + 1), *range(n - hard_hi, n))
