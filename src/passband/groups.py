"""Rollout groups and pass-count bucketing.

A rollout group is one task's N binary-reward rollouts. Groups are routed
by pass count k into buckets:

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

from .errors import ContractError, DomainError

__all__ = [
    "BucketKind",
    "Bucket",
    "GroupOrigin",
    "RolloutGroup",
    "classify_bucket",
    "controlled_buckets",
    "pass_count",
]


class BucketKind(Enum):
    DEGENERATE = "degenerate"
    HARD = "hard"
    BALANCED = "balanced"
    EASY = "easy"


@dataclass(frozen=True)
class Bucket:
    """One routing class of the pass-count partition for a given group size.

    Degenerate, hard, and easy variants carry the single pass count they
    cover; the balanced variant covers a range and carries none.
    """

    kind: BucketKind
    group_size: int
    pass_count: int | None = None

    def __post_init__(self) -> None:
        if (self.pass_count is None) != (self.kind is BucketKind.BALANCED):
            raise ContractError(
                "pass_count is required for degenerate/hard/easy buckets "
                "and forbidden for balanced"
            )

    @property
    def label(self) -> str:
        if self.pass_count is None:
            return "balanced"
        return f"{self.pass_count}/{self.group_size}"

    @property
    def is_controlled(self) -> bool:
        return self.kind in (BucketKind.HARD, BucketKind.EASY)


class GroupOrigin(Enum):
    FRESH = "fresh"
    REROLLOUT = "rerollout"


@dataclass(frozen=True)
class RolloutGroup:
    """One task's N binary-reward rollouts plus origin metadata.

    The group itself never embeds trajectories; whatever produced it holds
    them in reward order.
    """

    task_id: str
    rewards: tuple[int, ...]
    origin: GroupOrigin = GroupOrigin.FRESH
    parent_bucket: Bucket | None = None

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
    return math.ceil(n / 4)


def classify_bucket(k: int, n: int) -> Bucket:
    """Map a pass count to its bucket for an even group size n >= 4."""
    if n < 4 or n % 2 != 0:
        raise DomainError(f"bucketing requires even group size N >= 4, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"pass count k must lie in [0, {n}], got {k}")
    hard_hi = _hard_upper(n)
    if k == 0 or k == n:
        return Bucket(BucketKind.DEGENERATE, n, k)
    if k <= hard_hi:
        return Bucket(BucketKind.HARD, n, k)
    if k >= n - hard_hi:
        return Bucket(BucketKind.EASY, n, k)
    return Bucket(BucketKind.BALANCED, n)


def controlled_buckets(n: int) -> tuple[Bucket, ...]:
    """The hard and easy buckets of group size n, in ascending pass count."""
    hard_hi = _hard_upper(n)
    if n < 4 or n % 2 != 0:
        raise DomainError(f"bucketing requires even group size N >= 4, got {n}")
    hard = [Bucket(BucketKind.HARD, n, k) for k in range(1, hard_hi + 1)]
    easy = [Bucket(BucketKind.EASY, n, k) for k in range(n - hard_hi, n)]
    return tuple(hard + easy)
