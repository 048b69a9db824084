"""Group-relative advantages, prefix masking, and the masked surrogate loss.

Advantages come in two flavors for a group of binary rewards r_1..r_N with
k successes:

* leave-one-out (RLOO):  A_i = (N-k)/(N-1) for successes, -k/(N-1) for
  failures; each rollout is baselined by the mean of the other N-1.
* mean-centered:         A_i = r_i - k/N; zero-mean within the group.

Trajectories replayed from a saved prefix must not train on the replayed
tokens: the response mask is zero before the replay boundary t_cont and
one from it onward. The surrogate

    L = - sum_i A_i * sum_{t >= t_cont,i} log pi(token_{i,t} | context_t)

is evaluated against a small tabular softmax policy whose gradient is
analytic, so the masking contract (no gradient from prefix tokens) can be
checked exactly and against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "TokenTrajectory",
    "ToyPolicy",
    "rloo_advantages",
    "mean_centered_advantages",
    "masked_loss_kernel",
    "masked_grpo_loss",
    "loss_gradient",
]


def _binary_rewards(rewards) -> np.ndarray:
    """Rewards as floats, one group (N,) or a step's groups (G, N). A bool
    array, as a compare produces, is binary by construction: only its shape
    is checked."""
    shape_rule = "rewards must be a flat sequence or a (G, N) array"
    try:
        arr = np.asarray(rewards)
    except ValueError:  # numpy's "inhomogeneous shape": a ragged list of groups
        raise DomainError(shape_rule) from None
    if arr.ndim not in (1, 2):
        raise DomainError(shape_rule)
    if arr.dtype != bool and not np.all((arr == 0) | (arr == 1)):
        raise DomainError(f"rewards must be binary, got {arr.tolist()!r}")
    return arr.astype(float)


def rloo_advantages(rewards) -> np.ndarray:
    """Leave-one-out advantages: reward minus the mean of the other N-1,
    for one group (N,) or for every group of a (G, N) array at once."""
    arr = _binary_rewards(rewards)
    n = arr.shape[-1]
    if n < 2:
        raise DomainError(f"RLOO needs at least 2 rollouts, got {n}")
    k = arr.sum(axis=-1, keepdims=True)
    return arr - (k - arr) / (n - 1)


def mean_centered_advantages(rewards) -> np.ndarray:
    """Advantages centered by the group mean: r_i - k/N. Sums to zero."""
    arr = _binary_rewards(rewards)
    if arr.shape[-1] < 1:
        raise DomainError("mean centering needs at least 1 rollout")
    return arr - arr.mean(axis=-1, keepdims=True)


@dataclass(frozen=True)
class TokenTrajectory:
    """A tokenized trajectory with a replay boundary.

    Positions before replay_boundary are replayed prefix tokens and carry
    mask 0; positions at or after it are current-policy tokens with mask 1.
    A bool token id is a DomainError here; the loss checks the rest.
    """

    token_ids: tuple[int, ...]
    replay_boundary: int = 0

    def __post_init__(self) -> None:
        # A bool would index the policy as token 0 or 1.
        if any(isinstance(v, (bool, np.bool_)) for v in self.token_ids):
            raise DomainError(f"token ids must be ints, got {self.token_ids!r}")
        length = len(self.token_ids)
        if not 0 <= self.replay_boundary <= length:
            raise DomainError(
                f"replay boundary must lie in [0, {length}], got {self.replay_boundary}"
            )

    @property
    def response_mask(self) -> tuple[int, ...]:
        """0 for each replayed position, 1 for each current-policy one."""
        m = self.replay_boundary
        return (0,) * m + (1,) * (len(self.token_ids) - m)

    def __len__(self) -> int:
        return len(self.token_ids)


class ToyPolicy:
    """Tabular softmax policy: one categorical over a small vocabulary per
    context class, with positions bucketed by min(t, n_contexts - 1).

    Small enough that log-probabilities and the surrogate gradient are
    exact, which is the whole point: it stands in for the real policy so
    the masking contract is checkable.
    """

    def __init__(self, logits) -> None:
        arr = np.array(logits, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise DomainError(
                "logits must be a (contexts x vocabulary) matrix with vocab >= 2"
            )
        self.logits = arr

    @property
    def n_contexts(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[1]

    def context_of(self, t: int) -> int:
        return min(t, self.n_contexts - 1)

    def log_probs(self) -> np.ndarray:
        return _log_softmax(self.logits)

    def probs(self) -> np.ndarray:
        """scipy 1.17's softmax(logits, axis=1), op for op: row max,
        subtract, exp, divide by the row sum."""
        shifted = np.exp(self.logits - self.logits.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """scipy 1.17's log_softmax(logits, axis=-1), op for op, minus its
    dispatch: each table of a (K, C, V) stack gets the bits it would alone."""
    top = logits.max(axis=-1, keepdims=True)
    shifted = logits - np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check_group(group_trajectories, advantages, policy: ToyPolicy) -> np.ndarray:
    if len(group_trajectories) == 0:
        raise DomainError("the trajectory group must not be empty")
    adv = np.asarray(advantages, dtype=float)
    if adv.ndim != 1 or adv.size != len(group_trajectories):
        raise ContractError(
            f"got {len(group_trajectories)} trajectories but "
            f"{adv.size} advantages"
        )
    ids = np.array([v for t in group_trajectories for v in t.token_ids])
    vocab = policy.vocab_size
    if ids.size and not (ids.dtype.kind in "iu" and 0 <= ids.min() <= ids.max() < vocab):
        raise DomainError(f"token ids must be ints in [0, {vocab}), got {ids.tolist()!r}")
    return adv


def _scale(value, n_trajectories: int, n_unmasked,
           length_normalized: bool, group_reduction: str):
    if group_reduction not in ("sum", "mean"):
        raise DomainError(
            f"group_reduction must be 'sum' or 'mean', got {group_reduction!r}"
        )
    if group_reduction == "mean":
        value = value / n_trajectories
    if length_normalized:
        # Dividing by 1 leaves a group without unmasked tokens as it is.
        value = value / np.maximum(n_unmasked, 1)
    return value


def _left_to_right_sums(values: np.ndarray, sizes) -> np.ndarray:
    """Sums of consecutive runs of values, sizes[i] of them in run i, each
    added left to right from 0.0 as a plain loop adds: np.sum adds pairwise,
    which changes the last bits of byte-stable traces. Each run is a row
    padded with 0.0, which changes at most the sign of a zero partial sum; the
    final + 0.0, the loop's 0.0 start, turns a sum of negative zeros into +0.0.
    np.add.reduce down axis 0 of a transposed (width, G) layout is faster (the
    criterion-6 run's sums 13.8 -> 9.1 ms on a 2-CPU Xeon) but keeps this order
    only for G > 1: for G = 1 numpy adds pairwise, which changed 7 of
    long-audit's 301 chunk sums and 21 of its 24 step sums at seed 5."""
    sizes = np.asarray(sizes)
    g, width = len(sizes), int(sizes.max(initial=0))
    rows = np.zeros((g, width))
    rows[np.arange(width) < sizes[:, None]] = values
    return np.add.accumulate(rows, axis=1, out=rows)[:, -1] + 0.0 if width else np.zeros(g)


def masked_loss_kernel(
    tokens: np.ndarray,
    boundaries,
    counts,
    advantages: np.ndarray,
    log_probs: np.ndarray,
    *,
    length_normalized: bool = False,
    group_reduction: str = "sum",
) -> np.ndarray:
    """Masked surrogate of each of G groups of N trajectories: a (G,) array.

    tokens holds every trajectory's unmasked tokens back to back, group by
    group and trajectory by trajectory. counts and advantages are (G, N):
    each trajectory's number of unmasked tokens and its advantage.
    boundaries are the replay boundaries, (G, N), or (G, 1) for one per
    group: unmasked token j of a trajectory sits at position boundary + j.
    log_probs is the policy's (contexts x vocabulary) log-softmax table.
    Inputs are trusted: masked_grpo_loss validates them.
    """
    counts = np.asarray(counts)
    g, n = counts.shape
    flat = counts.ravel()
    # Token t of trajectory r sits at position boundary_r + (t - start_r).
    shift = (boundaries - (np.cumsum(flat) - flat).reshape(g, n)).ravel()
    # Each token's cell of the log-prob table, built in place: the per-token
    # arrays are the kernel's largest.
    cells = np.arange(flat.sum())
    cells += np.repeat(shift, flat)
    np.minimum(cells, log_probs.shape[0] - 1, out=cells)
    cells *= log_probs.shape[1]
    cells += tokens
    terms = log_probs.ravel()[cells]
    terms *= np.repeat(advantages.ravel(), flat)
    sizes = counts.sum(axis=1)
    return _scale(-_left_to_right_sums(terms, sizes), n, sizes, length_normalized, group_reduction)


def masked_grpo_loss(
    group_trajectories,
    advantages,
    policy: ToyPolicy,
    *,
    length_normalized: bool = False,
    group_reduction: str = "sum",
) -> float:
    """Masked policy-gradient surrogate of one group.

    Only tokens at or after each trajectory's replay boundary contribute.
    A fully masked trajectory contributes nothing, including to the
    length-normalization denominator (the count of unmasked tokens).
    """
    adv = _check_group(group_trajectories, advantages, policy)
    (loss,) = _group_losses(
        group_trajectories, adv, policy.log_probs()[None],
        length_normalized=length_normalized, group_reduction=group_reduction,
    )
    return float(loss)


def _group_losses(group_trajectories, adv: np.ndarray, tables: np.ndarray,
                  **loss_options) -> np.ndarray:
    """The masked surrogate of one checked group under each log-softmax
    table of a (K, C, V) stack: a (K,) array. The tables sit side by side as
    one (C, K*V) table, and copy k of the group reads table k through its
    tokens offset by k*V, so each copy adds the terms a one-table call adds."""
    k, c, v = tables.shape
    tokens = np.fromiter(
        chain.from_iterable(t.token_ids[t.replay_boundary:] for t in group_trajectories),
        dtype=np.intp,
    )
    copies = np.add.outer(np.arange(k) * v, tokens).ravel()
    return masked_loss_kernel(
        copies,
        np.tile([t.replay_boundary for t in group_trajectories], (k, 1)),
        np.tile([len(t) - t.replay_boundary for t in group_trajectories], (k, 1)),
        np.tile(adv, (k, 1)),
        tables.transpose(1, 0, 2).reshape(c, k * v),
        **loss_options,
    )


def loss_gradient(
    group_trajectories,
    advantages,
    policy: ToyPolicy,
    *,
    length_normalized: bool = False,
    group_reduction: str = "sum",
) -> np.ndarray:
    """Analytic gradient of masked_grpo_loss with respect to every logit.

    With p_c = softmax(logits[c]), each unmasked token (context c, token v,
    advantage a) contributes a * (p_c - e_v) to row c; masked tokens
    contribute nothing, so a context touched only by prefix tokens has an
    exactly zero gradient block.
    """
    adv = _check_group(group_trajectories, advantages, policy)
    weight = np.zeros_like(policy.logits)
    row_total = np.zeros(policy.n_contexts)
    n_unmasked = 0
    for traj, a in zip(group_trajectories, adv):
        for t in range(traj.replay_boundary, len(traj)):
            c = policy.context_of(t)
            weight[c, traj.token_ids[t]] += a
            row_total[c] += a
            n_unmasked += 1
    grad = policy.probs() * row_total[:, None] - weight
    return _scale(grad, len(group_trajectories), n_unmasked,
                  length_normalized, group_reduction)
