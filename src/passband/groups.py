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
from enum import Enum

from .errors import DomainError, is_int

__all__ = [
    "BucketKind",
    "bucket_label",
    "classify_bucket",
    "controlled_buckets",
]


class BucketKind(Enum):
    DEGENERATE = "degenerate"
    HARD = "hard"
    BALANCED = "balanced"
    EASY = "easy"


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
