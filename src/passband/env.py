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
are independent of scheduling order. A batch call takes one seed and keys
its group j as seed + (j,), so sample_fresh_groups(tasks, n, seed)[j]
equals sample_fresh_group(tasks[j], n, seed + (j,)). The stream is the one
np.random.default_rng(np.random.SeedSequence(key)) produces, computed by
passband's own array kernel for many keys at once, so rollouts do not
depend on the installed numpy's Generator.
"""

from __future__ import annotations

import functools
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np
from scipy.special import expit, logit

from .controller import PrefixOutcome, PrefixRecord
from .errors import ContractError, DomainError
from .groups import GroupOrigin, RolloutGroup

__all__ = [
    "SyntheticTask",
    "GroupSample",
    "PopulationSpec",
    "RolloutDraw",
    "sample_fresh_group",
    "sample_fresh_groups",
    "conditioned_pass_probability",
    "sample_rerollout_group",
    "draw_rerollout_groups",
    "rerollout_group",
    "make_task_population",
    "MAX_TRAJECTORY_LENGTH",
]

# Longest trajectory a population may ask for. The rollout kernel keeps a
# jump table with one row per output word, which grows with the length.
MAX_TRAJECTORY_LENGTH = 2**16

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


def _is_seed_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _seed_base(rng_seed) -> tuple[int, ...]:
    """Seed entries as a tuple of non-negative ints.

    A seed is one int or a non-empty sequence of ints; numpy integers count
    as ints, bools, floats and strings do not.
    """
    if _is_seed_int(rng_seed):
        entries = (rng_seed,)
    elif isinstance(rng_seed, Iterable) and not isinstance(rng_seed, (str, bytes)):
        entries = tuple(rng_seed)
    else:
        raise DomainError(f"seed must be an int or a sequence of ints, got {rng_seed!r}")
    if not entries:
        raise DomainError("seed must have at least one entry")
    if not all(_is_seed_int(x) for x in entries):
        raise DomainError(f"seed entries must be ints, got {rng_seed!r}")
    base = tuple(int(x) for x in entries)
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


# The rollout kernel below computes, for many seeds at once, the stream of
# np.random.default_rng(np.random.SeedSequence(words)): SeedSequence's
# entropy mixing and generate_state(4, uint64), PCG64 seeding, and PCG64's
# XSL-RR outputs, in uint32/uint64 array arithmetic. Constants and the order
# of operations are numpy's (bit_generator.pyx, pcg64.h).
_U32 = np.uint32
_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = _U32(0xCA01F9DD)
_MIX_MULT_R = _U32(0x4973F715)
_POOL_SIZE = 4
_OTHER_POOL_WORDS = tuple(
    np.array([d for d in range(_POOL_SIZE) if d != src]) for src in range(_POOL_SIZE)
)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
# Rough upper bound on the 64-bit outputs one kernel call computes, which
# bounds the size of its temporary arrays.
_CHUNK_WORDS = 16384


def _hash_powers(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    powers = np.array(out, dtype=_U32)
    powers.flags.writeable = False
    return powers


@functools.lru_cache(maxsize=8)
def _entropy_constants(width: int) -> np.ndarray:
    """SeedSequence's hash constants for mixing `width` >= 4 entropy words."""
    return _hash_powers(_INIT_A, _MULT_A, _POOL_SIZE * width + 1)


# generate_state's hash constants for 8 uint32 words.
_STATE_CONSTANTS = _hash_powers(_INIT_B, _MULT_B, 9)


@functools.lru_cache(maxsize=8)
def _jump_tables(size: int) -> np.ndarray:
    """Jump-ahead coefficients of PCG64 outputs 0 .. size-1, shape (4, 2, size).

    Seeding leaves the state at M y + inc, where y = seed + inc, and output k
    is taken after k + 1 more steps, from A y + G inc with A = M^(k+2) and
    G = 1 + M + ... + M^(k+1), all mod 2**128. The first axis holds the hi
    and lo 64-bit halves and the lo half's low and high 32 bits; the second
    axis is A, G.
    """
    a = _PCG_MULT * _PCG_MULT & _MASK128
    g = _PCG_MULT + 1
    rows = []
    for _ in range(size):
        rows.append([
            [x >> 64, x & 0xFFFFFFFFFFFFFFFF, x & 0xFFFFFFFF, (x >> 32) & 0xFFFFFFFF]
            for x in (a, g)
        ])
        a = a * _PCG_MULT & _MASK128
        g = (g * _PCG_MULT + 1) & _MASK128
    table = np.array(rows, dtype=_U64).transpose(2, 1, 0).copy()
    table.flags.writeable = False
    return table


def _hashmix(value, const, next_const):
    value = (value ^ const) * next_const
    return value ^ (value >> _U32(16))


def _mix(x, y):
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ (value >> _U32(16))


def _pcg_streams(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The PCG64 stream each row of at least 4 uint32 entropy words seeds,
    as the hi and lo 64-bit halves of (y, inc), each shape (2, rows);
    y = seed + inc (see _jump_tables)."""
    rows, width = words.shape
    h = _entropy_constants(width)
    pool = _hashmix(words[:, :_POOL_SIZE], h[:_POOL_SIZE], h[1:_POOL_SIZE + 1])
    t = _POOL_SIZE
    for src, dst in enumerate(_OTHER_POOL_WORDS):
        # For one source word, its three hashes go to the other pool words in
        # ascending order; the source itself is not changed meanwhile.
        hashed = _hashmix(pool[:, src:src + 1], h[t:t + 3], h[t + 1:t + 4])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        t += 3
    # Each further entropy word is hashed once per pool word and mixed in.
    extra = width - _POOL_SIZE
    consts = h[t:-1].reshape(extra, _POOL_SIZE)
    nexts = h[t + 1:].reshape(extra, _POOL_SIZE)
    hashed = _hashmix(words[:, _POOL_SIZE:, None], consts, nexts)
    for j in range(extra):
        pool = _mix(pool, hashed[:, j])
    hb = _STATE_CONSTANTS
    state = _hashmix(np.concatenate([pool, pool], axis=1), hb[:8], hb[1:]).astype(_U64)
    # generate_state(4, uint64): seed hi, seed lo, sequence hi, sequence lo.
    v = state[:, 0::2] | (state[:, 1::2] << _U64(32))
    hi = np.empty((2, rows), dtype=_U64)
    lo = np.empty((2, rows), dtype=_U64)
    # inc = (sequence << 1) | 1, y = seed + inc
    hi[1] = (v[:, 2] << _U64(1)) | (v[:, 3] >> _U64(63))
    lo[1] = (v[:, 3] << _U64(1)) | _U64(1)
    lo[0] = v[:, 1] + lo[1]
    hi[0] = v[:, 0] + hi[1] + (lo[0] < lo[1])
    return hi, lo


def _mul128(a_hi, a_lo, a0, a1, b_hi, b_lo):
    """(a * b) mod 2**128 as (hi, lo) uint64; a0, a1 are a_lo's 32-bit halves."""
    b0 = b_lo & _MASK32
    b1 = b_lo >> _U64(32)
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = (
        a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
        + a_lo * b_hi + a_hi * b_lo
    )
    return hi, a_lo * b_lo


def _pcg_outputs(streams, first: int, count: int) -> np.ndarray:
    """Raw 64-bit outputs first .. first+count-1 of every stream, shape
    (streams, count)."""
    y_hi, y_lo = (s[:, :, None] for s in streams)
    # Table sizes are powers of two, so that few of them are cached.
    size = max(64, 1 << (first + count - 1).bit_length())
    a_hi, a_lo, a0, a1 = _jump_tables(size)[:, :, None, first:first + count]
    # One product per axis-0 entry: A y and G inc.
    m_hi, m_lo = _mul128(a_hi, a_lo, a0, a1, y_hi, y_lo)
    lo = m_lo[0] + m_lo[1]
    hi = m_hi[0] + m_hi[1] + (lo < m_lo[1])
    # XSL-RR: xor the halves, rotate right by the top 6 bits of the state.
    value = hi ^ lo
    rot = hi >> _U64(58)
    return (value >> rot) | (value << ((_U64(64) - rot) & _U64(63)))


def _draw_lengths(streams, block: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Each stream's integers(lo, hi + 1) draw: (lengths, 64-bit words used).

    block holds the streams' first outputs; later ones are computed if
    rejections run past it. numpy draws ranges below 2**32 with the 32-bit
    Lemire method, taking the 32-bit halves of 64-bit outputs low half
    first; a single-value range returns lo and uses no word.
    """
    lengths = lo.copy()
    used = np.zeros(lo.shape, dtype=np.int64)
    span = (hi - lo + 1).astype(_U64)
    threshold = (_U64(1 << 32) - span) % span
    pending = np.flatnonzero(span > _U64(1))
    draw = 0
    while pending.size:
        col = draw // 2
        if draw % 2 == 1:
            half = word >> _U64(32)
        else:
            if col >= block.shape[1]:
                block = _pcg_outputs(streams, 0, col + 1)
            word = block[pending, col]
            half = word & _MASK32
        scaled = half * span[pending]
        ok = (scaled & _MASK32) >= threshold[pending]
        done = pending[ok]
        lengths[done] += (scaled[ok] >> _U64(32)).astype(np.int64)
        used[done] = col + 1
        pending = pending[~ok]
        word = word[~ok]
        draw += 1
    return lengths, used


def _rollout_draws(words: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Draw every row's rollout from the stream its entropy words seed.

    A row draws, exactly as numpy's Generator would, its length with
    integers(lo, hi + 1), a uniform with random() and its step ids with
    integers(0, 2**62, size=length). Returns (lengths, uniforms, step ids
    of all rows concatenated in row order).
    """
    streams = _pcg_streams(words)
    # Without rejections the length draw uses at most one word.
    block = _pcg_outputs(streams, 0, int(hi.max()) + 2)
    lengths, used = _draw_lengths(streams, block, lo, hi)
    need = int((used + lengths).max()) + 1
    if need > block.shape[1]:
        block = _pcg_outputs(streams, 0, need)
    # random() is the top 53 bits of the next output. integers(0, 2**62) is
    # a 64-bit Lemire draw, output * 2**62 >> 64, which never rejects at a
    # power-of-two range.
    rows = np.arange(len(words))
    uniforms = (block[rows, used] >> _U64(11)) * 2.0**-53
    k = np.arange(block.shape[1])
    steps = block[(k > used[:, None]) & (k <= (used + lengths)[:, None])] >> _U64(2)
    return lengths, uniforms, steps.astype(np.int64)


class RolloutDraw(NamedTuple):
    """The random part of one group: each rollout's freshly drawn length,
    the drawn step ids of all rollouts back to back, and each rollout's
    uniform, which decides its outcome (success iff uniform < p)."""

    lengths: tuple[int, ...]
    steps: tuple[int, ...]
    uniforms: tuple[float, ...]


def _seed_words(rng_seed) -> np.ndarray:
    return np.array(_uint32_words(_seed_base(rng_seed)), dtype=_U32)


def _batch_keys(rng_seed, count: int) -> np.ndarray:
    """Key words of a batch's groups: group j is keyed by seed + (j,)."""
    head = _seed_words(rng_seed)
    keys = np.empty((count, head.size + 1), dtype=_U32)
    keys[:, :-1] = head
    # A group index below 2**32 is one word.
    keys[:, -1] = np.arange(count)
    return keys


def _draw_groups(
    tasks: Sequence[SyntheticTask], n: int, purpose: int, keys: np.ndarray
) -> list[RolloutDraw]:
    """One RolloutDraw per task: rollout i of group j draws from the stream
    of SeedSequence(keys[j] + [purpose, crc32(task id), i]), where keys[j]
    is the group's key as uint32 words."""
    if n < 2:
        raise DomainError(f"group size must be >= 2, got {n}")
    width = keys.shape[1] + 3
    longest = max((task.length_range[1] for task in tasks), default=0)
    per_chunk = max(1, _CHUNK_WORDS // (n * (longest + 2)))
    draws = []
    for start in range(0, len(tasks), per_chunk):
        chunk = tasks[start:start + per_chunk]
        words = np.empty((len(chunk), n, width), dtype=_U32)
        words[:, :, :-3] = keys[start:start + len(chunk), None]
        # Purpose, task uid and rollout index are one word each.
        words[:, :, -3] = purpose
        words[:, :, -2] = np.array([[_task_uid(task.task_id)] for task in chunk])
        words[:, :, -1] = np.arange(n)
        lo, hi = np.repeat([task.length_range for task in chunk], n, axis=0).T
        lengths, uniforms, steps = _rollout_draws(words.reshape(-1, width), lo, hi)
        lengths = lengths.tolist()
        uniforms = uniforms.tolist()
        steps = steps.tolist()
        offsets = list(accumulate(lengths, initial=0))
        for r in range(0, len(lengths), n):
            draws.append(RolloutDraw(
                lengths=tuple(lengths[r:r + n]),
                steps=tuple(steps[offsets[r]:offsets[r + n]]),
                uniforms=tuple(uniforms[r:r + n]),
            ))
    return draws


def _group_sample(
    task: SyntheticTask,
    p: float,
    prefix_steps: tuple[int, ...],
    draw: RolloutDraw,
    parent_bucket=None,
) -> GroupSample:
    lengths, steps = draw.lengths, draw.steps
    boundary = len(prefix_steps)
    if boundary:
        steps = tuple(chain.from_iterable(
            prefix_steps + steps[end - length:end]
            for end, length in zip(accumulate(lengths), lengths)
        ))
        lengths = tuple(boundary + length for length in lengths)
    group = RolloutGroup(
        task_id=task.task_id,
        rewards=tuple(int(u < p) for u in draw.uniforms),
        origin=GroupOrigin.FRESH if parent_bucket is None else GroupOrigin.REROLLOUT,
        parent_bucket=parent_bucket,
    )
    return GroupSample(group, lengths, steps, boundary)


def sample_fresh_groups(
    tasks: Sequence[SyntheticTask], n: int, rng_seed
) -> list[GroupSample]:
    """Fresh groups of every task in one batch; group j equals
    sample_fresh_group(tasks[j], n, rng_seed + (j,))."""
    draws = _draw_groups(tasks, n, _PURPOSE_FRESH, _batch_keys(rng_seed, len(tasks)))
    return [
        _group_sample(task, task.fresh_pass_probability, (), draw)
        for task, draw in zip(tasks, draws)
    ]


def sample_fresh_group(task: SyntheticTask, n: int, rng_seed) -> GroupSample:
    """Sample n independent fresh rollouts of a task."""
    (draw,) = _draw_groups([task], n, _PURPOSE_FRESH, _seed_words(rng_seed)[None])
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


def draw_rerollout_groups(
    tasks: Sequence[SyntheticTask], n: int, rng_seed
) -> list[RolloutDraw]:
    """The random part of a batch of rerollouts; completing draw j with
    rerollout_group equals sample_rerollout_group(..., rng_seed + (j,)).

    It does not depend on the replay boundary, so a whole step's rerollouts
    can be drawn before their boundaries are known.
    """
    return _draw_groups(tasks, n, _PURPOSE_REROLLOUT, _batch_keys(rng_seed, len(tasks)))


def rerollout_group(
    task: SyntheticTask, prefix: PrefixRecord, m: int, draw: RolloutDraw
) -> GroupSample:
    """Replay the prefix's first m steps ahead of each drawn continuation and
    decide each outcome at the conditioned pass probability for m / len(prefix)."""
    if not 1 <= m < prefix.length:
        raise ContractError(
            f"replay boundary m must satisfy 1 <= m < {prefix.length}, got {m}"
        )
    p = conditioned_pass_probability(task, prefix.outcome, m / prefix.length)
    return _group_sample(task, p, prefix.steps[:m], draw, prefix.source_bucket)


def sample_rerollout_group(
    task: SyntheticTask, prefix: PrefixRecord, m: int, n: int, rng_seed
) -> GroupSample:
    """Sample n rollouts that all restart from the prefix's first m steps.

    The replayed steps are copied verbatim; each continuation draws its
    own length from the task's range and an independent outcome at the
    conditioned pass probability for share m / len(prefix).
    """
    (draw,) = _draw_groups([task], n, _PURPOSE_REROLLOUT, _seed_words(rng_seed)[None])
    return rerollout_group(task, prefix, m, draw)


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
