"""The masked-loss array kernel against a reference Python loop.

The audit loss lands in byte-stable traces, so the kernel must round
exactly as the loop below does: every comparison is on the float's bytes,
not approximate.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passband.advantages import (
    TokenTrajectory,
    ToyPolicy,
    masked_grpo_loss,
    masked_loss_kernel,
)


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
    direct = masked_loss_kernel(
        np.array([t for tokens, _ in trajectories for t in tokens], dtype=np.int64),
        [len(tokens) for tokens, _ in trajectories],
        [boundary for _, boundary in trajectories],
        advantages,
        log_probs,
        **options,
    )
    assert bits(public) == bits(expected)
    assert bits(direct) == bits(expected)
