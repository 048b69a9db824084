"""The masked-loss array kernel against a reference Python loop.

The audit loss lands in byte-stable traces, so the kernel must round
exactly as the loop below does: every comparison is on the float's bytes,
not approximate. The run loop scores a block of steps with one kernel call,
and each step's audit loss must still round exactly as adding each of its
groups' losses to 0.0, group by group.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passband.advantages import (
    TokenTrajectory,
    ToyPolicy,
    _left_to_right_sums,
    masked_grpo_loss,
    masked_loss_kernel,
    rloo_advantages,
)
from passband.errors import DomainError


def reference_loss(trajectories, advantages, log_probs, length_normalized, group_reduction):
    """Sum a * log pi over unmasked tokens, trajectory by trajectory, then
    token by token, from a 0.0 start; then negate and scale."""
    last_context = log_probs.shape[0] - 1
    total = 0.0
    n_unmasked = 0
    for (tokens, boundary), a in zip(trajectories, advantages):
        for t in range(boundary, len(tokens)):
            total += a * log_probs[min(t, last_context), tokens[t]]
            n_unmasked += 1
    value = -total
    if group_reduction == "mean":
        value = value / len(trajectories)
    if length_normalized and n_unmasked > 0:
        value = value / n_unmasked
    return float(value)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def groups(draw):
    n_contexts = draw(st.integers(1, 8))
    vocab = draw(st.integers(2, 16))
    logits = draw(
        st.lists(
            st.floats(-8.0, 8.0), min_size=n_contexts * vocab, max_size=n_contexts * vocab
        )
    )
    trajectories = []
    for _ in range(draw(st.integers(1, 8))):
        tokens = tuple(draw(st.lists(st.integers(0, vocab - 1), max_size=24)))
        boundary = draw(
            st.one_of(
                st.just(0), st.just(len(tokens)), st.integers(0, len(tokens))
            )
        )
        trajectories.append((tokens, boundary))
    advantage = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
    advantages = draw(
        st.one_of(
            st.just([0.0] * len(trajectories)),
            st.lists(advantage, min_size=len(trajectories), max_size=len(trajectories)),
        )
    )
    policy = ToyPolicy(np.reshape(logits, (n_contexts, vocab)))
    return policy, trajectories, np.array(advantages)


_ZERO_POLICY = ToyPolicy(np.zeros((2, 3)))


@settings(max_examples=300, deadline=None)
@given(
    group=groups(),
    length_normalized=st.booleans(),
    group_reduction=st.sampled_from(["sum", "mean"]),
)
@example(
    group=(_ZERO_POLICY, [((0, 1, 2), 0)], np.array([1.0])),
    length_normalized=False,
    group_reduction="sum",
)
@example(
    group=(_ZERO_POLICY, [((0, 1, 2), 3), ((2, 1), 2)], np.array([1.0, -1.0])),
    length_normalized=True,
    group_reduction="mean",
)
@example(
    group=(_ZERO_POLICY, [((0, 1, 2), 1), ((2, 1, 0, 0), 0)], np.array([0.0, 0.0])),
    length_normalized=True,
    group_reduction="sum",
)
def test_kernel_matches_reference_loop_bitwise(group, length_normalized, group_reduction):
    policy, trajectories, advantages = group
    log_probs = policy.log_probs()
    expected = reference_loss(
        trajectories, advantages, log_probs, length_normalized, group_reduction
    )
    options = {"length_normalized": length_normalized, "group_reduction": group_reduction}

    public = masked_grpo_loss(
        [TokenTrajectory(tokens, boundary) for tokens, boundary in trajectories],
        advantages,
        policy,
        **options,
    )
    (direct,) = masked_loss_kernel(
        np.array([t for tokens, b in trajectories for t in tokens[b:]], dtype=np.int64),
        [[boundary for _, boundary in trajectories]],
        [[len(tokens) - boundary for tokens, boundary in trajectories]],
        advantages[None],
        log_probs,
        **options,
    )
    assert bits(public) == bits(expected)
    assert bits(direct) == bits(expected)


@st.composite
def blocks(draw):
    """A block of G groups of N trajectories with ragged lengths, boundaries
    from 0 to T - 1, and degenerate groups (all rewards equal) interleaved,
    cut into steps of ragged sizes (some possibly empty), and the shuffled
    order in which the kernel gets the groups. kind "all-degenerate" makes
    every group degenerate, and "zero" replaces the RLOO advantages by zeros."""
    n_contexts = draw(st.integers(1, 8))
    vocab = draw(st.integers(2, 16))
    logits = draw(
        st.lists(
            st.floats(-8.0, 8.0), min_size=n_contexts * vocab, max_size=n_contexts * vocab
        )
    )
    kind = draw(st.sampled_from(["mixed", "all-degenerate", "zero"]))
    n = draw(st.integers(2, 8))
    # One boundary per group, as the run loop passes it, or one per trajectory.
    shared = draw(st.booleans())
    equal = st.sampled_from([[0] * n, [1] * n])
    any_rewards = st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
    length = st.integers(1, 24)
    # Token values only need to vary; a seeded generator draws them faster.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = []
    for _ in range(draw(st.integers(1, 12))):
        # Equal lengths leave a group's term row without padding.
        lengths = [draw(length)] * n if draw(st.booleans()) else [draw(length) for _ in range(n)]
        if shared:
            boundaries = [draw(st.integers(0, min(lengths) - 1))] * n
        else:
            boundaries = [draw(st.integers(0, t - 1)) for t in lengths]
        tokens = [tuple(rng.integers(0, vocab, t).tolist()) for t in lengths]
        rewards = draw(equal if kind == "all-degenerate" else equal | any_rewards)
        groups.append((tokens, boundaries, rewards))
    cuts = sorted(draw(st.lists(st.integers(0, len(groups)), max_size=4)))
    sizes = np.diff([0, *cuts, len(groups)])
    shuffled = draw(st.permutations(range(len(groups))))
    policy = ToyPolicy(np.reshape(logits, (n_contexts, vocab)))
    return policy, groups, kind, shared, sizes, shuffled


@settings(max_examples=200, deadline=None)
@given(
    block=blocks(),
    length_normalized=st.booleans(),
    group_reduction=st.sampled_from(["sum", "mean"]),
)
def test_step_loss_adds_group_losses_left_to_right(block, length_normalized, group_reduction):
    policy, groups, kind, shared, sizes, shuffled = block
    log_probs = policy.log_probs()
    options = {"length_normalized": length_normalized, "group_reduction": group_reduction}
    # Kernel argument i is group shuffled[i]; order[g] is group g's argument.
    kernel_groups = [groups[i] for i in shuffled]
    order = np.argsort(shuffled)
    rewards = np.array([r for _, _, r in kernel_groups], dtype=bool)
    advantages = rloo_advantages(rewards)
    if kind == "zero":
        advantages = np.zeros_like(advantages)
    tokens = np.array(
        [t for traj, bs, _ in kernel_groups for tok, b in zip(traj, bs) for t in tok[b:]],
        dtype=np.int64,
    )
    boundaries = np.array([bs[:1] if shared else bs for _, bs, _ in kernel_groups])
    counts = np.array([[len(tok) - b for tok, b in zip(traj, bs)] for traj, bs, _ in kernel_groups])
    losses = masked_loss_kernel(tokens, boundaries, counts, advantages, log_probs, **options)
    got = _left_to_right_sums(losses[order], sizes)

    assert got.shape == sizes.shape
    ends = np.cumsum(sizes)
    for s, (start, end) in enumerate(zip(ends - sizes, ends)):
        public = reference = 0.0
        for g in range(start, end):
            traj, bs, r = groups[g]
            adv = advantages[order[g]]
            trajectories = list(zip(traj, bs))
            want = reference_loss(trajectories, adv, log_probs, **options)
            assert bits(losses[order[g]]) == bits(want)
            if 0 < sum(r) < len(r):
                public += masked_grpo_loss(
                    [TokenTrajectory(tok, b) for tok, b in trajectories], adv, policy, **options
                )
                reference += want
        assert bits(got[s]) == bits(public) == bits(reference)
        if kind != "mixed":
            assert bits(got[s]) == bits(0.0)


@pytest.mark.parametrize("shape", [(), (2, 3, 4)])
def test_bool_rewards_of_other_ranks_are_rejected(shape):
    # A compare's bool output skips the binary check, never the shape check.
    with pytest.raises(DomainError):
        rloo_advantages(np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("sizes", [[3000], [60 + i % 41 for i in range(250)]],
                         ids=["one-group-of-3000", "250-groups-of-about-80"])
def test_sums_add_left_to_right_at_run_sizes(sizes):
    # A long-audit chunk holds one group of thousands of terms, a steer block
    # hundreds of groups of tens. np.add.reduce down a transposed (width, G)
    # layout adds row by row only while G > 1: for one group it adds pairwise,
    # and its sum's bits differ from the loop's.
    rng = np.random.default_rng(35)
    values = rng.normal(size=sum(sizes)) * 10.0 ** rng.integers(-3, 4, sum(sizes))
    want, start = [], 0
    for size in sizes:
        total = 0.0
        for x in values[start:start + size].tolist():
            total += x
        want.append(total)
        start += size
    assert list(map(bits, _left_to_right_sums(values, sizes).tolist())) == list(map(bits, want))
