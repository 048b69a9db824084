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
keyed by (group key, purpose, task uid, rollout index), so results are
independent of scheduling order and of how many groups one call draws.
Every stream, the population's and the harness's task picks and audit
policy included, comes from one keyed SplitMix64 counter generator in
uint64 array arithmetic, so no numpy Generator stands behind any trace.

A population is its columns (TaskColumns): row i holds task i's id, uid
(the crc32 of its id), base logit, prefix sensitivity and length range.
make_task_population draws them as arrays, and every sampler takes tasks
by row. One head kernel draws every group: per group, a key hash and its
task's uid and length range, all arrays. draw_fresh_groups and
draw_rerollout_groups key group g as seed + tuple(subkeys[g]); the loop
passes (step, j) subkeys for a whole block of steps at once, and
stream_integer_rows draws the block's task picks the same way. The
per-group samplers are G = 1 views keyed by the seed alone, so group g of
draw_fresh_groups(tasks, rows, n, seed, subkeys) is the group
sample_fresh_group(tasks, rows[g], n, seed + tuple(subkeys[g])) draws.

Draws come in two passes. draw_fresh_groups and draw_rerollout_groups
draw a block's heads as arrays (StepDraws): each rollout's length, its
uniform and its stream's key hash, all (G, N). draw_step_ids(keys, lengths)
then draws the step ids of whichever rollouts need them, back to back, from
their key hashes alone, so a caller draws them once rewards are known and
only for the rollouts it scores. A rerollout draws only its continuation:
its prefix is replayed by length alone, and nothing reads a replayed step's
id.

Rollout r's step j, at flat position t = starts[r] + j of the step ids, is
word j + 2 of its stream, so its word is mix(base[r] + t * GAMMA) for one
per-rollout base. draw_step_ids computes them _CHUNK_WORDS positions at a
time, which bounds its temporary arrays: a chunk's step words are one
repeat of the bases, one add of the strides and one finaliser pass, made in
place in the output.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit, logit

from .controller import SAVED_OUTCOME, PrefixOutcome, PrefixRecord
from .errors import ContractError, DomainError, check_field_types, is_int
from .groups import bucket_label, classify_bucket

__all__ = [
    "PopulationSpec",
    "StepDraws",
    "TaskColumns",
    "draw_fresh_groups",
    "draw_rerollout_groups",
    "draw_step_ids",
    "conditioned_pass_probability",
    "rollout_rewards",
    "make_task_population",
    "stream_uniforms",
    "stream_integer_rows",
    "MAX_TRAJECTORY_LENGTH",
    "MAX_POPULATION_SIZE",
]

# Longest trajectory a population may ask for. The harness scores at least
# one step's rollouts at once, so this bounds the size of its per-token arrays.
MAX_TRAJECTORY_LENGTH = 2**16
# Largest population: task picks draw below the population size with
# 32-bit multiply-shift.
MAX_POPULATION_SIZE = 2**32

_PURPOSE_POPULATION = 1
_PURPOSE_FRESH = 2
_PURPOSE_REROLLOUT = 3


class GroupSample(NamedTuple):
    """One task's group of N rollouts: run.jsonl's fields plus the drawn step ids.

    rewards[i] is rollout i's 0/1 reward and lengths[i] its length. The
    first `boundary` steps of every rollout were replayed from a prefix;
    fresh groups have boundary 0. steps holds every rollout's drawn step
    ids back to back, lengths[i] - boundary of them for rollout i: the
    steps the audit loss scores. parent_bucket is the pass count of the
    fresh group a rerollout's prefix came from, None for a fresh group.
    No run reaches it or the per-group samplers. They stay, unexported, for
    perfbench/workloads.py and the tests, and go with ROADMAP items 1 and 2.
    """

    task_id: str
    rewards: tuple[int, ...]
    parent_bucket: int | None
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
# Most step words draw_step_ids computes at a time: it fills its output in
# chunks of this many positions, which bounds the size of its temporary
# arrays. Chosen by timing draws of 128-256-step rollouts: smaller chunks
# make more rounds of per-chunk calls, and 2**18 was slower.
_CHUNK_WORDS = 2**17


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, computed in place: x is a uint64 array that
    the caller has just built and owns. Returns x."""
    shifted = x >> _U64(30)
    x ^= shifted
    x *= _U64(0xBF58476D1CE4E5B9)
    np.right_shift(x, _U64(27), out=shifted)
    x ^= shifted
    x *= _U64(0x94D049BB133111EB)
    np.right_shift(x, _U64(31), out=shifted)
    x ^= shifted
    return x


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


def stream_integer_rows(rng_seed, subkeys, count: int, bound: int) -> np.ndarray:
    """Integers in [0, bound) from words 0 .. count-1 of several streams, as a
    (B, count) array: row b draws from the stream keyed rng_seed +
    tuple(subkeys[b]), for a (B, K) array of subkeys, ints in [0, 2**64)."""
    keys = _group_keys(rng_seed, subkeys)[:, None]
    if not (is_int(bound) and 1 <= bound <= 2**32):
        raise DomainError(f"bound must be an int in [1, 2**32], got {bound!r}")
    return _below(_words(keys, _counters(count)), bound)


class StepDraws(NamedTuple):
    """The heads of G groups of N rollouts, as (G, N) arrays: each rollout's
    length, its uniform and its stream's key hash (uint64), from which
    draw_step_ids draws its step ids."""

    lengths: np.ndarray
    uniforms: np.ndarray
    keys: np.ndarray


class TaskColumns(NamedTuple):
    """A task population as columns, row i for task i: an object array of
    task ids, their uids (crc32 of the id, as uint64), base logits b, prefix
    sensitivities s and length ranges (P, 2) int64; task i's fresh pass
    probability is expit(b[i]). make_task_population's columns satisfy
    PopulationSpec's checks (s >= 0, 2 <= min <= max); hand-built columns
    are trusted, as masked_loss_kernel's inputs are."""

    task_id: np.ndarray
    uid: np.ndarray
    base_logit: np.ndarray
    prefix_sensitivity: np.ndarray
    length_range: np.ndarray


def _group_keys(rng_seed, subkeys) -> np.ndarray:
    """Key hashes of groups keyed rng_seed + tuple(subkeys[g]), for a (G, K)
    array of ints in [0, 2**64) with K >= 1."""
    words = np.asarray(subkeys)
    if words.ndim != 2 or not words.shape[1] or words.dtype.kind not in "iu":
        raise DomainError(
            f"subkeys must be a (G, K) int array with K >= 1, "
            f"got shape {words.shape} of dtype {words.dtype}"
        )
    if words.size and words.min() < 0:
        raise DomainError(f"subkeys must be >= 0, got minimum {words.min()}")
    h = _key_hash(rng_seed)
    for column in words.T.astype(_U64):
        h = _extend(h, column)
    return h


def _draw_groups(
    tasks: TaskColumns, rows, n: int, purpose: int, keys: np.ndarray
) -> StepDraws:
    """Heads of one group per entry of rows, for task rows[g] of tasks:
    rollout i of group g is keyed keys[g] + (purpose, uid, i), where keys
    holds the groups' key hashes and uid is the task's. Word 0 of a
    rollout's stream gives its length and word 1 its uniform."""
    if not (is_int(n) and n >= 2):
        raise DomainError(f"group size must be an int >= 2, got {n!r}")
    rows = np.asarray(rows)
    if rows.size and rows.dtype.kind not in "iu":
        raise DomainError(f"task rows must be ints, got dtype {rows.dtype}")
    rows = rows.astype(np.int64, copy=False)
    if rows.size and not 0 <= rows.min() <= rows.max() < len(tasks.uid):
        raise ContractError(f"task rows must lie in [0, {len(tasks.uid)})")
    if len(keys) != len(rows):
        raise ContractError(f"{len(rows)} task rows but {len(keys)} group keys")
    lo, hi = tasks.length_range[rows].T[:, :, None]
    groups = _extend(_extend(keys, _U64(purpose)), tasks.uid[rows])
    ids = _extend(groups[:, None], np.arange(n, dtype=_U64))
    head = _words(ids[..., None], np.arange(2, dtype=_U64))
    lengths = lo + _below(head[..., 0], hi - lo + 1).astype(np.int64)
    return StepDraws(lengths=lengths, uniforms=_uniform(head[..., 1]), keys=ids)


def draw_step_ids(keys, lengths) -> np.ndarray:
    """Step ids of the rollouts whose stream key hashes are keys, back to
    back as int64: rollout r's lengths[r] step ids are words 2 ..
    lengths[r] + 1 of its stream, each shifted right by 2. keys and lengths
    are matching arrays, as StepDraws holds them, read in C order."""
    keys = np.asarray(keys, _U64).ravel()
    lengths = np.asarray(lengths, np.int64).ravel()
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # Step j of rollout r, at flat position t = starts[r] + j, is word j + 2
    # of its stream, the mix of keys[r] + (j + 3) * GAMMA = base[r] + t * GAMMA.
    base = keys + (_U64(3) - starts.astype(_U64)) * _GAMMA
    out = np.empty(int(ends[-1]) if len(ends) else 0, _U64)
    for a in range(0, len(out), _CHUNK_WORDS):
        b = min(a + _CHUNK_WORDS, len(out))
        # The rollouts with a step in [a, b), and how many steps each has there.
        first = int(np.searchsorted(ends, a, side="right"))
        last = int(np.searchsorted(ends, b)) + 1
        counts = np.minimum(ends[first:last], b) - np.maximum(starts[first:last], a)
        chunk = out[a:b]
        np.multiply(np.arange(a, b, dtype=_U64), _GAMMA, out=chunk)
        chunk += np.repeat(base[first:last], counts)
        _mix(chunk)
    out >>= _U64(2)
    return out.view(np.int64)


def rollout_rewards(uniforms, p) -> np.ndarray:
    """Rewards as a bool array: a rollout succeeds iff its uniform is below
    its group's pass probability. uniforms (G, N) with p (G,), or one
    group's (N,) with a scalar p."""
    return np.asarray(uniforms) < np.asarray(p)[..., None]


def _group_sample(
    task_id: str, p: float, draw: StepDraws, boundary: int = 0, parent_bucket=None
) -> GroupSample:
    """The group of a one-group draw, `boundary` replayed steps ahead of each rollout."""
    rewards = tuple(rollout_rewards(draw.uniforms[0], p).astype(int).tolist())
    lengths = tuple((boundary + draw.lengths[0]).tolist())
    steps = tuple(draw_step_ids(draw.keys, draw.lengths).tolist())
    return GroupSample(task_id, rewards, parent_bucket, lengths, steps, boundary)


def draw_fresh_groups(tasks: TaskColumns, rows, n: int, rng_seed, subkeys) -> StepDraws:
    """The heads of one fresh group of n rollouts per entry of rows: group g
    is drawn for task rows[g] of tasks and keyed rng_seed + tuple(subkeys[g]),
    subkeys being a (G, K) array of ints in [0, 2**64)."""
    return _draw_groups(tasks, rows, n, _PURPOSE_FRESH, _group_keys(rng_seed, subkeys))


def draw_rerollout_groups(tasks: TaskColumns, rows, n: int, rng_seed, subkeys) -> StepDraws:
    """draw_fresh_groups for rerollouts. The draws do not depend on the
    replay boundary, so they can precede the boundaries."""
    return _draw_groups(tasks, rows, n, _PURPOSE_REROLLOUT, _group_keys(rng_seed, subkeys))


def sample_fresh_group(tasks: TaskColumns, row: int, n: int, rng_seed) -> GroupSample:
    """Sample n independent fresh rollouts of task row of tasks. Not exported:
    kept for perfbench/workloads.py and the tests, as GroupSample is."""
    draw = _draw_groups(tasks, [row], n, _PURPOSE_FRESH, _key_hash(rng_seed))
    p = float(expit(tasks.base_logit[row]))
    return _group_sample(tasks.task_id[row], p, draw)


def conditioned_pass_probability(
    base_logit: float, sensitivity: float, prefix_outcome: PrefixOutcome, ratio: float
) -> float:
    """Continuation pass probability of a task with base logit b and prefix
    sensitivity s after replaying a share of a prefix: expit(b + s * ratio)
    after a success, expit(b - s * ratio) after a failure."""
    if not isinstance(prefix_outcome, PrefixOutcome):
        raise DomainError(f"prefix_outcome must be a PrefixOutcome, got {prefix_outcome!r}")
    if not 0.0 <= ratio <= 1.0:
        raise DomainError(f"replayed share must lie in [0, 1], got {ratio}")
    shift = sensitivity * ratio
    if prefix_outcome is PrefixOutcome.SUCCESS:
        return float(expit(base_logit + shift))
    return float(expit(base_logit - shift))


def sample_rerollout_group(
    tasks: TaskColumns, prefix: PrefixRecord, m: int, n: int, rng_seed
) -> GroupSample:
    """Sample n rollouts of the prefix's task that all restart from the
    prefix's first m steps.

    Each continuation draws its own length from the task's range, its step
    ids and an independent outcome at the conditioned pass probability for
    share m / prefix.length, with the outcome its source bucket saves: a hard
    bucket's success, an easy bucket's failure. A rollout's length counts
    its m replayed steps; its steps are the drawn ones only. Not exported:
    kept for perfbench/workloads.py and the tests, as GroupSample is.
    """
    kind = classify_bucket(prefix.source_bucket, n)
    if kind not in SAVED_OUTCOME:
        label = bucket_label(prefix.source_bucket, n)
        raise ContractError(f"bucket {label} is {kind.value} and saves no prefix")
    row = prefix.task_row
    draw = _draw_groups(tasks, [row], n, _PURPOSE_REROLLOUT, _key_hash(rng_seed))
    if not (is_int(m) and 1 <= m < prefix.length):
        raise ContractError(
            f"replay boundary m must be an int with 1 <= m < {prefix.length}, got {m!r}"
        )
    p = conditioned_pass_probability(
        tasks.base_logit[row], tasks.prefix_sensitivity[row], SAVED_OUTCOME[kind],
        m / prefix.length,
    )
    return _group_sample(tasks.task_id[row], p, draw, m, prefix.source_bucket)


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


def make_task_population(spec: PopulationSpec, rng_seed) -> TaskColumns:
    """Draw a deterministic task population from a spec: task i is
    task-{i:05d}."""
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
    task_ids = [f"task-{i:05d}" for i in range(n)]
    return TaskColumns(
        task_id=np.array(task_ids, object),
        uid=np.array([zlib.crc32(task_id.encode("utf-8")) for task_id in task_ids], _U64),
        base_logit=logit(p0),
        prefix_sensitivity=sens,
        length_range=np.tile(np.array([spec.length_min, spec.length_max], np.int64), (n, 1)),
    )
