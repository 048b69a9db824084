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

Sampling is deterministic: every rollout draws from its own generator
seeded by (caller seed tuple, purpose, task, rollout index), so results
are independent of scheduling order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .controller import PrefixOutcome, PrefixRecord
from .errors import ContractError, DomainError
from .groups import GroupOrigin, RolloutGroup

__all__ = [
    "SyntheticTask",
    "Trajectory",
    "GroupSample",
    "PopulationSpec",
    "sample_fresh_group",
    "conditioned_pass_probability",
    "sample_rerollout_group",
    "make_task_population",
]

_PURPOSE_POPULATION = 1
_PURPOSE_FRESH = 2
_PURPOSE_REROLLOUT = 3

_STEP_ID_BOUND = 2**62


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


@dataclass(frozen=True)
class Trajectory:
    """An ordered sequence of opaque step identifiers with a binary outcome.

    replay_boundary marks how many leading steps were replayed from a
    prefix; fresh trajectories carry 0.
    """

    steps: tuple[int, ...]
    success: int
    replay_boundary: int = 0

    def __post_init__(self) -> None:
        if self.success not in (0, 1):
            raise ContractError(f"success must be binary, got {self.success!r}")
        if not 0 <= self.replay_boundary <= len(self.steps):
            raise ContractError(
                f"replay boundary {self.replay_boundary} outside "
                f"[0, {len(self.steps)}]"
            )

    @property
    def length(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class GroupSample:
    """A rollout group together with the trajectories its refs point into."""

    group: RolloutGroup
    trajectories: tuple[Trajectory, ...]


def _seed_base(rng_seed) -> tuple[int, ...]:
    if isinstance(rng_seed, (int, np.integer)):
        base = (int(rng_seed),)
    else:
        base = tuple(int(x) for x in rng_seed)
    if any(x < 0 for x in base):
        raise DomainError(f"seed entries must be >= 0, got {rng_seed!r}")
    return base


def _task_uid(task_id: str) -> int:
    return zlib.crc32(task_id.encode("utf-8"))


def _uint32_words(entries) -> list[int]:
    """Split non-negative ints into 32-bit little-endian words, as
    SeedSequence does with a tuple of ints (0 is one zero word)."""
    words = []
    for value in entries:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return words


def _rollout_rngs(base: tuple[int, ...], purpose: int, task_id: str, n: int):
    """One generator per rollout index, seeded by (base, purpose, task, index).

    The entropy goes to SeedSequence as a uint32 word array, which gives the
    same stream as the tuple of ints without numpy's per-int coercion.
    """
    head = _uint32_words(base + (purpose, _task_uid(task_id)))
    for index in range(n):
        entropy = np.array(head + _uint32_words((index,)), dtype=np.uint32)
        yield np.random.default_rng(np.random.SeedSequence(entropy))


def _draw_trajectory(rng, task: SyntheticTask, p: float,
                     prefix_steps: tuple[int, ...]) -> Trajectory:
    lo, hi = task.length_range
    length = int(rng.integers(lo, hi + 1))
    success = int(rng.random() < p)
    fresh = rng.integers(0, _STEP_ID_BOUND, size=length)
    steps = prefix_steps + tuple(fresh.tolist())
    return Trajectory(steps=steps, success=success,
                      replay_boundary=len(prefix_steps))


def sample_fresh_group(task: SyntheticTask, n: int, rng_seed) -> GroupSample:
    """Sample n independent fresh rollouts of a task."""
    if n < 2:
        raise DomainError(f"group size must be >= 2, got {n}")
    base = _seed_base(rng_seed)
    p0 = task.fresh_pass_probability
    trajectories = tuple(
        _draw_trajectory(rng, task, p0, ())
        for rng in _rollout_rngs(base, _PURPOSE_FRESH, task.task_id, n)
    )
    group = RolloutGroup(
        task_id=task.task_id,
        rewards=tuple(t.success for t in trajectories),
        origin=GroupOrigin.FRESH,
    )
    return GroupSample(group=group, trajectories=trajectories)


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


def sample_rerollout_group(
    task: SyntheticTask, prefix: PrefixRecord, m: int, n: int, rng_seed
) -> GroupSample:
    """Sample n rollouts that all restart from the prefix's first m steps.

    The replayed steps are copied verbatim; each continuation draws its
    own length from the task's range and an independent outcome at the
    conditioned pass probability for share m / len(prefix).
    """
    if n < 2:
        raise DomainError(f"group size must be >= 2, got {n}")
    if not 1 <= m < prefix.length:
        raise ContractError(
            f"replay boundary m must satisfy 1 <= m < {prefix.length}, got {m}"
        )
    base = _seed_base(rng_seed)
    p = conditioned_pass_probability(task, prefix.outcome, m / prefix.length)
    replayed = prefix.steps[:m]
    trajectories = tuple(
        _draw_trajectory(rng, task, p, replayed)
        for rng in _rollout_rngs(base, _PURPOSE_REROLLOUT, task.task_id, n)
    )
    group = RolloutGroup(
        task_id=task.task_id,
        rewards=tuple(t.success for t in trajectories),
        origin=GroupOrigin.REROLLOUT,
        parent_bucket=prefix.source_bucket,
    )
    return GroupSample(group=group, trajectories=trajectories)


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
        if self.preset not in ("single", "uniform", "hard_skewed"):
            raise DomainError(f"unknown population preset {self.preset!r}")
        if self.size < 1:
            raise DomainError(f"population size must be >= 1, got {self.size}")
        if not 0.0 < self.p0 < 1.0:
            raise DomainError(f"p0 must lie in (0, 1), got {self.p0}")
        if not 0.0 < self.p_min <= self.p_max < 1.0:
            raise DomainError(
                f"need 0 < p_min <= p_max < 1, got [{self.p_min}, {self.p_max}]"
            )
        if not 0.0 <= self.sensitivity_min <= self.sensitivity_max:
            raise DomainError(
                f"need 0 <= sensitivity_min <= sensitivity_max, got "
                f"[{self.sensitivity_min}, {self.sensitivity_max}]"
            )
        if self.length_min < 2 or self.length_max < self.length_min:
            raise DomainError(
                f"need 2 <= length_min <= length_max, got "
                f"[{self.length_min}, {self.length_max}]"
            )


_HARD_SKEWED_LOW_WEIGHT = 0.75
_HARD_SKEWED_BETA = 8.0
_HARD_SKEWED_CLIP = 0.05


def make_task_population(spec: PopulationSpec, rng_seed) -> list[SyntheticTask]:
    """Draw a deterministic task population from a spec."""
    base = _seed_base(rng_seed)
    rng = np.random.default_rng(
        np.random.SeedSequence(base + (_PURPOSE_POPULATION,))
    )
    n = spec.size
    if spec.preset == "single":
        p0 = np.full(n, spec.p0)
    elif spec.preset == "uniform":
        p0 = rng.uniform(spec.p_min, spec.p_max, size=n)
    else:
        low = rng.beta(1.0, _HARD_SKEWED_BETA, size=n)
        high = rng.beta(_HARD_SKEWED_BETA, 1.0, size=n)
        pick_low = rng.random(n) < _HARD_SKEWED_LOW_WEIGHT
        p0 = np.where(pick_low, low, high)
        p0 = np.clip(p0, _HARD_SKEWED_CLIP, 1.0 - _HARD_SKEWED_CLIP)
    if spec.mirror:
        p0 = 1.0 - p0
    sens = rng.uniform(spec.sensitivity_min, spec.sensitivity_max, size=n)
    return [
        SyntheticTask(
            task_id=f"task-{i:05d}",
            base_logit=float(logit(p0[i])),
            prefix_sensitivity=float(sens[i]),
            length_range=(spec.length_min, spec.length_max),
        )
        for i in range(n)
    ]
