"""Synthetic rollout environment with prefix-conditioned resampling.

Each task carries a latent base logit b, so its fresh pass probability is
p0 = expit(b). Replaying the first M steps of a saved trajectory shifts
the continuation's pass probability monotonically in the replayed share
r = M / T:

    success prefix:  p(r) = expit(b + s * r)
    failure prefix:  p(r) = expit(b - s * r)

where s >= 0 is the task's prefix sensitivity. A longer successful head
start raises the pass rate, a longer failing one lowers it, which is the
response the replay controller relies on.

Sampling is deterministic: every rollout draws from its own random stream,
keyed by (caller seed entries, purpose, task, rollout index), so results
are independent of scheduling order. A step's draw takes one seed and keys
its group j as seed + (j,), so group j of draw_fresh_step(tasks, n, seed)
is the group sample_fresh_group(tasks[j], n, seed + (j,)) draws. Every
stream, the population's and the harness's task picks and audit policy
included, comes from one keyed SplitMix64 counter generator in uint64 array
arithmetic, so no numpy Generator stands behind any trace.

A step's draws are arrays (StepDraws): lengths and uniforms (G, N), and
every rollout's step ids in one flat int64 array with offsets. The closed
loop uses them as they are; the per-group samplers are G = 1 views of them.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np
from scipy.special import expit, logit

from .controller import SAVED_OUTCOME, PrefixOutcome, PrefixRecord
from .errors import ContractError, DomainError, check_field_types, is_int
from .groups import GroupOrigin, RolloutGroup, bucket_label, classify_bucket

__all__ = [
    "SyntheticTask",
    "GroupSample",
    "PopulationSpec",
    "StepDraws",
    "sample_fresh_group",
    "draw_fresh_step",
    "draw_rerollout_step",
    "conditioned_pass_probability",
    "sample_rerollout_group",
    "rerollout_probability",
    "rollout_rewards",
    "make_task_population",
    "stream_uniforms",
    "stream_integers",
    "MAX_TRAJECTORY_LENGTH",
    "MAX_POPULATION_SIZE",
]

# Longest trajectory a population may ask for. The rollout kernel computes
# all random words of at least one group at once, so this bounds the size
# of its temporary arrays.
MAX_TRAJECTORY_LENGTH = 2**16
# Largest population: task picks draw below the population size with
# 32-bit multiply-shift.
MAX_POPULATION_SIZE = 2**32

_PURPOSE_POPULATION = 1
_PURPOSE_FRESH = 2
_PURPOSE_REROLLOUT = 3


@dataclass(frozen=True)
class SyntheticTask:
    """A simulated task: base pass logit, prefix sensitivity, length range."""

    task_id: str
    base_logit: float
    prefix_sensitivity: float
    length_range: tuple[int, int]

    def __post_init__(self) -> None:
        if self.prefix_sensitivity < 0.0:
            raise DomainError(
                f"prefix sensitivity must be >= 0, got {self.prefix_sensitivity}"
            )
        lo, hi = self.length_range
        if lo < 2 or hi < lo:
            raise DomainError(
                f"length range must satisfy 2 <= min <= max, got {self.length_range}"
            )

    @property
    def fresh_pass_probability(self) -> float:
        return float(expit(self.base_logit))


class GroupSample(NamedTuple):
    """A rollout group and its rollouts, in reward order.

    steps holds every rollout's step ids back to back and lengths[i] is
    rollout i's length. The first `boundary` steps of every rollout were
    replayed from a prefix; fresh groups have boundary 0.
    """

    group: RolloutGroup
    lengths: tuple[int, ...]
    steps: tuple[int, ...]
    boundary: int


def _seed_base(rng_seed) -> tuple[int, ...]:
    """Seed entries as a tuple of non-negative ints.

    A seed is one int or a non-empty sequence of ints; numpy integers count
    as ints, bools, floats and strings do not.
    """
    if is_int(rng_seed):
        entries = (rng_seed,)
    elif isinstance(rng_seed, Iterable) and not isinstance(rng_seed, (str, bytes)):
        entries = tuple(rng_seed)
    else:
        raise DomainError(f"seed must be an int or a sequence of ints, got {rng_seed!r}")
    if not entries:
        raise DomainError("seed must have at least one entry")
    if not all(is_int(x) for x in entries):
        raise DomainError(f"seed entries must be ints, got {rng_seed!r}")
    base = tuple(int(x) for x in entries)
    if any(x < 0 for x in base):
        raise DomainError(f"seed entries must be >= 0, got {rng_seed!r}")
    return base


def _task_uid(task_id: str) -> int:
    return zlib.crc32(task_id.encode("utf-8"))


# Every random draw behind a trace comes from one keyed counter-based
# generator (the style of Salmon et al., SC'11). mix is SplitMix64's
# finaliser (Steele, Lea & Flood, OOPSLA 2014). A key's hash folds in its
# 64-bit words w one at a time, h = mix((h ^ w) + GAMMA) from h = 0, and
# word c of its stream is mix(hash + (c + 1) * GAMMA), all mod 2**64. No
# word depends on another, so a whole step's words take a few array
# operations, in any order.
_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MASK64 = (1 << 64) - 1
# Rough upper bound on the 64-bit words one rollout-kernel call computes,
# which bounds the size of its temporary arrays.
_CHUNK_WORDS = 16384


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def _extend(h: np.ndarray, word) -> np.ndarray:
    """Key hashes with one more 64-bit word folded in (broadcasting)."""
    return _mix((h ^ word) + _GAMMA)


def _key_hash(rng_seed) -> np.ndarray:
    """Hash of a seed's entries, shape (1,). Each entry is split into 64-bit
    little-endian words; 0 is one zero word."""
    h = np.zeros(1, dtype=_U64)
    for value in _seed_base(rng_seed):
        h = _extend(h, _U64(value & _MASK64))
        while value := value >> 64:
            h = _extend(h, _U64(value & _MASK64))
    return h


def _words(h: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Words at uint64 `counters` of the streams keyed by hashes h (broadcasting)."""
    return _mix(h + (counters + _U64(1)) * _GAMMA)


def _uniform(words: np.ndarray) -> np.ndarray:
    return (words >> _U64(11)) * 2.0**-53


def _below(words: np.ndarray, bound) -> np.ndarray:
    """Integers in [0, bound) by multiply-shift on the top 32 bits; bound <= 2**32."""
    return ((words >> _U64(32)) * np.asarray(bound, dtype=_U64)) >> _U64(32)


def _counters(count) -> np.ndarray:
    """Word counters 0 .. count-1 of a stream."""
    if not (is_int(count) and count >= 0):
        raise DomainError(f"count must be an int >= 0, got {count!r}")
    return np.arange(count, dtype=_U64)


def stream_uniforms(rng_seed, count: int) -> np.ndarray:
    """Uniforms in [0, 1) from words 0 .. count-1 of the seed's stream."""
    return _uniform(_words(_key_hash(rng_seed), _counters(count)))


def stream_integers(rng_seed, count: int, bound: int) -> np.ndarray:
    """Integers in [0, bound) from words 0 .. count-1 of the seed's stream."""
    if not (is_int(bound) and 1 <= bound <= 2**32):
        raise DomainError(f"bound must be an int in [1, 2**32], got {bound!r}")
    return _below(_words(_key_hash(rng_seed), _counters(count)), bound)


class StepDraws(NamedTuple):
    """The random part of G groups of N rollouts, as arrays: lengths and
    uniforms (G, N), and steps, every rollout's drawn step ids back to back
    as int64, rollout r = j * N + i spanning steps[offsets[r]:offsets[r + 1]]."""

    lengths: np.ndarray
    uniforms: np.ndarray
    steps: np.ndarray
    offsets: np.ndarray


def _batch_keys(rng_seed, count: int) -> np.ndarray:
    """Key hashes of a batch's groups: group j is keyed by seed + (j,)."""
    return _extend(_key_hash(rng_seed), np.arange(count, dtype=_U64))


def _draw_groups(
    tasks: Sequence[SyntheticTask], n: int, purpose: int, keys: np.ndarray
) -> StepDraws:
    """Draws of one group per task: rollout i of group j is keyed by
    keys[j] + (purpose, crc32(task id), i), where keys holds the groups' key
    hashes. Word 0 of a rollout's stream gives its length, word 1 its
    uniform and words 2 .. length + 1 its step ids."""
    if not (is_int(n) and n >= 2):
        raise DomainError(f"group size must be an int >= 2, got {n!r}")
    longest = max((task.length_range[1] for task in tasks), default=0)
    per_chunk = max(1, _CHUNK_WORDS // (n * (longest + 2)))
    lengths, uniforms, steps = [np.zeros(0, np.int64)], [np.zeros(0)], [np.zeros(0, _U64)]
    for start in range(0, len(tasks), per_chunk):
        chunk = tasks[start:start + per_chunk]
        uids = np.array([_task_uid(task.task_id) for task in chunk], dtype=_U64)
        groups = _extend(_extend(keys[start:start + len(chunk)], _U64(purpose)), uids)
        rows = _extend(groups[:, None], np.arange(n, dtype=_U64)).ravel()
        lo, hi = np.repeat([task.length_range for task in chunk], n, axis=0).T
        head = _words(rows[:, None], np.arange(2, dtype=_U64))
        drawn = lo + _below(head[:, 0], hi - lo + 1).astype(np.int64)
        # Step ids: words 2 .. length + 1 of every rollout, back to back.
        starts = np.cumsum(drawn) - drawn
        counters = np.arange(drawn.sum()) - np.repeat(starts - 2, drawn)
        steps.append(_words(np.repeat(rows, drawn), counters.astype(_U64)) >> _U64(2))
        lengths.append(drawn)
        uniforms.append(_uniform(head[:, 1]))
    lengths = np.concatenate(lengths)
    return StepDraws(
        lengths=lengths.reshape(-1, n),
        uniforms=np.concatenate(uniforms).reshape(-1, n),
        steps=np.concatenate(steps).astype(np.int64),
        offsets=np.concatenate(([0], np.cumsum(lengths))),
    )


def rollout_rewards(uniforms, p) -> np.ndarray:
    """Rewards as a bool array: a rollout succeeds iff its uniform is below
    its group's pass probability. uniforms (G, N) with p (G,), or one
    group's (N,) with a scalar p."""
    return np.asarray(uniforms) < np.asarray(p)[..., None]


def _group_sample(
    task: SyntheticTask,
    p: float,
    prefix_steps: tuple[int, ...],
    draw: StepDraws,
    parent_bucket=None,
) -> GroupSample:
    """The group of a one-group draw, prefix_steps replayed ahead of each rollout."""
    lengths, steps = tuple(draw.lengths[0].tolist()), tuple(draw.steps.tolist())
    boundary = len(prefix_steps)
    if boundary:
        steps = tuple(chain.from_iterable(
            prefix_steps + steps[end - length:end]
            for end, length in zip(accumulate(lengths), lengths)
        ))
        lengths = tuple(boundary + length for length in lengths)
    group = RolloutGroup(
        task_id=task.task_id,
        rewards=tuple(rollout_rewards(draw.uniforms[0], p).astype(int).tolist()),
        origin=GroupOrigin.FRESH if parent_bucket is None else GroupOrigin.REROLLOUT,
        parent_bucket=parent_bucket,
    )
    return GroupSample(group, lengths, steps, boundary)


def draw_fresh_step(tasks: Sequence[SyntheticTask], n: int, rng_seed) -> StepDraws:
    """One fresh group's draws per task, as arrays; group j is the one
    sample_fresh_group(tasks[j], n, rng_seed + (j,)) draws."""
    return _draw_groups(tasks, n, _PURPOSE_FRESH, _batch_keys(rng_seed, len(tasks)))


def draw_rerollout_step(tasks: Sequence[SyntheticTask], n: int, rng_seed) -> StepDraws:
    """draw_fresh_step for rerollouts: group j is the one sample_rerollout_group
    draws under rng_seed + (j,). They do not depend on the replay boundary,
    so a step's draws can precede its boundaries."""
    return _draw_groups(tasks, n, _PURPOSE_REROLLOUT, _batch_keys(rng_seed, len(tasks)))


def sample_fresh_group(task: SyntheticTask, n: int, rng_seed) -> GroupSample:
    """Sample n independent fresh rollouts of a task."""
    draw = _draw_groups([task], n, _PURPOSE_FRESH, _key_hash(rng_seed))
    return _group_sample(task, task.fresh_pass_probability, (), draw)


def conditioned_pass_probability(
    task: SyntheticTask, prefix_outcome: PrefixOutcome, ratio: float
) -> float:
    """Continuation pass probability after replaying a share of a prefix."""
    if not 0.0 <= ratio <= 1.0:
        raise DomainError(f"replayed share must lie in [0, 1], got {ratio}")
    shift = task.prefix_sensitivity * ratio
    if prefix_outcome is PrefixOutcome.SUCCESS:
        return float(expit(task.base_logit + shift))
    return float(expit(task.base_logit - shift))


def rerollout_probability(task: SyntheticTask, prefix: PrefixRecord, m: int) -> float:
    """Pass probability of a continuation after the prefix's first m steps."""
    if not 1 <= m < prefix.length:
        raise ContractError(
            f"replay boundary m must satisfy 1 <= m < {prefix.length}, got {m}"
        )
    return conditioned_pass_probability(task, prefix.outcome, m / prefix.length)


def sample_rerollout_group(
    task: SyntheticTask, prefix: PrefixRecord, m: int, n: int, rng_seed
) -> GroupSample:
    """Sample n rollouts that all restart from the prefix's first m steps.

    The replayed steps are copied verbatim; each continuation draws its
    own length from the task's range and an independent outcome at the
    conditioned pass probability for share m / len(prefix). Only a hard
    bucket's success or an easy bucket's failure is replayed.
    """
    kind = classify_bucket(prefix.source_bucket, n)
    if prefix.outcome is not SAVED_OUTCOME.get(kind):
        raise ContractError(
            f"bucket {bucket_label(prefix.source_bucket, n)} is {kind.value} and "
            f"saves no {prefix.outcome.value} prefix"
        )
    draw = _draw_groups([task], n, _PURPOSE_REROLLOUT, _key_hash(rng_seed))
    p = rerollout_probability(task, prefix, m)
    return _group_sample(task, p, prefix.steps[:m], draw, prefix.source_bucket)


@dataclass(frozen=True)
class PopulationSpec:
    """Distribution over synthetic tasks.

    Presets:
      single       every task has pass probability p0
      uniform      p0 ~ Uniform(p_min, p_max)
      hard_skewed  mixture 0.75 Beta(1, 8) + 0.25 Beta(8, 1), clipped to
                   [0.05, 0.95] so every task stays steerable within the
                   ratio bounds; most fresh groups land outside the target
                   band, the regime replay is meant to fix

    mirror flips every base probability p0 to 1 - p0 after generation.
    Sensitivities are Uniform(sensitivity_min, sensitivity_max).
    """

    preset: str = "hard_skewed"
    size: int = 1000
    p0: float = 0.5
    p_min: float = 0.05
    p_max: float = 0.95
    sensitivity_min: float = 2.5
    sensitivity_max: float = 4.5
    length_min: int = 4
    length_max: int = 12
    mirror: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.preset not in ("single", "uniform", "hard_skewed"):
            raise DomainError(f"unknown population preset {self.preset!r}")
        if not 1 <= self.size <= MAX_POPULATION_SIZE:
            raise DomainError(
                f"population size must lie in [1, {MAX_POPULATION_SIZE}], "
                f"got {self.size}"
            )
        if not 0.0 < self.p0 < 1.0:
            raise DomainError(f"p0 must lie in (0, 1), got {self.p0}")
        if not 0.0 < self.p_min <= self.p_max < 1.0:
            raise DomainError(
                f"need 0 < p_min <= p_max < 1, got [{self.p_min}, {self.p_max}]"
            )
        if not 0.0 <= self.sensitivity_min <= self.sensitivity_max < np.inf:
            raise DomainError(
                f"need 0 <= sensitivity_min <= sensitivity_max < inf, got "
                f"[{self.sensitivity_min}, {self.sensitivity_max}]"
            )
        if self.length_min < 2 or self.length_max < self.length_min:
            raise DomainError(
                f"need 2 <= length_min <= length_max, got "
                f"[{self.length_min}, {self.length_max}]"
            )
        if self.length_max > MAX_TRAJECTORY_LENGTH:
            raise DomainError(
                f"length_max must be <= {MAX_TRAJECTORY_LENGTH}, "
                f"got {self.length_max}"
            )


_HARD_SKEWED_LOW_WEIGHT = 0.75
_HARD_SKEWED_BETA = 8.0
_HARD_SKEWED_CLIP = 0.05


def make_task_population(spec: PopulationSpec, rng_seed) -> list[SyntheticTask]:
    """Draw a deterministic task population from a spec."""
    # Task i is keyed by seed + (purpose, i); words 0 .. 3 are its uniforms.
    key = _extend(_key_hash(rng_seed), _U64(_PURPOSE_POPULATION))
    keys = _extend(key, np.arange(spec.size, dtype=_U64))
    u0, u1, u2, u3 = _uniform(_words(keys[:, None], np.arange(4, dtype=_U64))).T
    n = spec.size
    if spec.preset == "single":
        p0 = np.full(n, spec.p0)
    elif spec.preset == "uniform":
        p0 = spec.p_min + (spec.p_max - spec.p_min) * u0
    else:
        # Inverse CDFs: Beta(1, b) from 1 - (1 - u)**(1/b), Beta(b, 1) from u**(1/b).
        low = 1.0 - (1.0 - u0) ** (1.0 / _HARD_SKEWED_BETA)
        high = u1 ** (1.0 / _HARD_SKEWED_BETA)
        p0 = np.where(u2 < _HARD_SKEWED_LOW_WEIGHT, low, high)
        p0 = np.clip(p0, _HARD_SKEWED_CLIP, 1.0 - _HARD_SKEWED_CLIP)
    if spec.mirror:
        p0 = 1.0 - p0
    sens = spec.sensitivity_min + (spec.sensitivity_max - spec.sensitivity_min) * u3
    return [
        SyntheticTask(
            task_id=f"task-{i:05d}",
            base_logit=float(logit(p0[i])),
            prefix_sensitivity=float(sens[i]),
            length_range=(spec.length_min, spec.length_max),
        )
        for i in range(n)
    ]
