"""Advantage formulas, trajectory masking, and the masked surrogate loss."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import log_softmax, softmax

from passband import verification
from passband.advantages import (
    TokenTrajectory,
    ToyPolicy,
    _log_softmax,
    loss_gradient,
    masked_grpo_loss,
    mean_centered_advantages,
    rloo_advantages,
)
from passband.errors import ContractError, DomainError
from passband.signals import mean_centered_advantage_variance, rloo_advantage_energy
from passband.verification import finite_difference_gradient


class TestRlooAdvantages:
    def test_balanced_8(self):
        adv = rloo_advantages([1, 1, 1, 1, 0, 0, 0, 0])
        assert_allclose(adv[:4], 4 / 7)
        assert_allclose(adv[4:], -4 / 7)

    def test_single_pass(self):
        adv = rloo_advantages([1, 0, 0, 0, 0, 0, 0, 0])
        assert adv[0] == 1.0
        assert_allclose(adv[1:], -1 / 7)

    def test_degenerate_zero(self):
        assert_allclose(rloo_advantages([1] * 8), 0.0)
        assert_allclose(rloo_advantages([0] * 8), 0.0)

    def test_sign_structure(self):
        adv = rloo_advantages([1, 0, 1, 0, 0, 0, 0, 0])
        rewards = np.array([1, 0, 1, 0, 0, 0, 0, 0])
        assert np.all(adv[rewards == 1] > 0)
        assert np.all(adv[rewards == 0] < 0)

    def test_energy_matches_signal_formula(self):
        for n in (2, 4, 8, 12):
            for k in range(n + 1):
                adv = rloo_advantages([1] * k + [0] * (n - k))
                assert_allclose(
                    np.mean(adv**2), rloo_advantage_energy(k, n), atol=1e-12
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            rloo_advantages([1])
        with pytest.raises(DomainError):
            rloo_advantages([1, 2])


@pytest.mark.parametrize("advantages", [rloo_advantages, mean_centered_advantages])
@pytest.mark.parametrize("rewards", [[[1, 0], [1]], [[1, 0], 1]], ids=["short-group", "bare-reward"])
def test_ragged_rewards_are_a_domain_error(advantages, rewards):
    # numpy used to raise its own ValueError about an inhomogeneous shape.
    with pytest.raises(DomainError, match=r"rewards must be a flat sequence or a \(G, N\) array"):
        advantages(rewards)


class TestMeanCenteredAdvantages:
    def test_single_pass(self):
        adv = mean_centered_advantages([1, 0, 0, 0, 0, 0, 0, 0])
        assert adv[0] == 0.875
        assert_allclose(adv[1:], -0.125)

    def test_zero_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rewards = rng.integers(0, 2, size=8)
            assert abs(mean_centered_advantages(rewards).mean()) < 1e-15

    def test_variance_matches_signal_formula(self):
        for k in range(9):
            adv = mean_centered_advantages([1] * k + [0] * (8 - k))
            assert_allclose(
                np.mean(adv**2), mean_centered_advantage_variance(k, 8), atol=1e-12
            )


class TestTokenTrajectory:
    def test_auto_mask(self):
        t = TokenTrajectory(token_ids=(3, 1, 4, 1), replay_boundary=2)
        assert t.response_mask == (0, 0, 1, 1)
        assert len(t) == 4

    def test_zero_boundary_all_live(self):
        t = TokenTrajectory(token_ids=(5, 5, 5))
        assert t.response_mask == (1, 1, 1)

    def test_apply_prefix_mask(self):
        # Re-masking a trajectory at a boundary keeps its tokens.
        t = TokenTrajectory(token_ids=(3, 1, 4, 1, 5))
        masked = TokenTrajectory(t.token_ids, 3)
        assert masked.token_ids == t.token_ids
        assert masked.replay_boundary == 3
        assert masked.response_mask == (0, 0, 0, 1, 1)
        # Idempotent at the same boundary.
        again = TokenTrajectory(masked.token_ids, masked.replay_boundary)
        assert again == masked

    def test_mask_monotone_in_boundary(self):
        # Re-masking the same tokens at each boundary m of 0 .. 6.
        t = TokenTrajectory(token_ids=tuple(range(6)))
        prev = 6
        for m in range(7):
            mask = TokenTrajectory(t.token_ids, m).response_mask
            assert mask == (0,) * m + (1,) * (6 - m)
            live = sum(mask)
            assert live == 6 - m
            assert live <= prev
            prev = live

    def test_boundary_out_of_range(self):
        with pytest.raises(DomainError):
            TokenTrajectory(token_ids=(1, 2), replay_boundary=3)
        with pytest.raises(DomainError):
            TokenTrajectory(token_ids=(1, 2), replay_boundary=-1)


class TestToyPolicy:
    def test_uniform_log_probs(self):
        policy = ToyPolicy(logits=np.zeros((2, 4)))
        assert_allclose(policy.log_probs(), np.log(0.25))
        assert_allclose(policy.probs().sum(axis=1), 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(), contexts=st.integers(1, 6), vocab=st.integers(2, 8),
    )
    @example(data=None, contexts=2, vocab=3)
    def test_log_probs_equal_scipy_log_softmax(self, data, contexts, vocab):
        # Bit for bit, nan, inf and rows of -inf included, where scipy's
        # log_softmax gives nan or inf too.
        special = st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308, -0.0, 5e-324])
        values = st.one_of(st.floats(), special)
        size = contexts * vocab
        drawn = ([-np.inf] * size if data is None else
                 data.draw(st.lists(values, min_size=size, max_size=size)))
        logits = np.reshape(drawn, (contexts, vocab))
        with np.errstate(all="ignore"):
            got = ToyPolicy(logits).log_probs()
            want = log_softmax(logits, axis=1)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(), contexts=st.integers(1, 6), vocab=st.integers(2, 8),
    )
    @example(data=None, contexts=2, vocab=3)
    def test_probs_equal_scipy_softmax(self, data, contexts, vocab):
        # Bit for bit, nan, inf and rows of -inf included, where scipy's
        # softmax gives nan too.
        special = st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308, -0.0, 5e-324])
        values = st.one_of(st.floats(), special)
        size = contexts * vocab
        drawn = ([-np.inf] * size if data is None else
                 data.draw(st.lists(values, min_size=size, max_size=size)))
        logits = np.reshape(drawn, (contexts, vocab))
        with np.errstate(all="ignore"):
            got = ToyPolicy(logits).probs()
            want = softmax(logits, axis=1)
        assert got.tobytes() == want.tobytes()

    def test_context_clamping(self):
        policy = ToyPolicy(logits=np.zeros((3, 4)))
        assert policy.context_of(0) == 0
        assert policy.context_of(2) == 2
        assert policy.context_of(9) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            ToyPolicy(logits=np.zeros((3,)))
        with pytest.raises(DomainError):
            ToyPolicy(logits=np.zeros((3, 1)))


class TestMaskedLoss:
    def test_hand_value_uniform_policy(self):
        # Two tokens live under a uniform 2-token vocabulary: each costs log 2,
        # advantage 1 scales the sum, so the loss is exactly 2 log 2.
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        traj = TokenTrajectory(token_ids=(0, 1, 0, 1), replay_boundary=2)
        loss = masked_grpo_loss([traj], np.array([1.0]), policy)
        assert_allclose(loss, 2 * np.log(2), rtol=1e-15)

    def test_boundary_zero_counts_everything(self):
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        traj = TokenTrajectory(token_ids=(0, 1, 0, 1))
        loss = masked_grpo_loss([traj], np.array([1.0]), policy)
        assert_allclose(loss, 4 * np.log(2), rtol=1e-15)

    def test_negative_advantage_flips_sign(self):
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        traj = TokenTrajectory(token_ids=(0, 1), replay_boundary=1)
        up = masked_grpo_loss([traj], np.array([1.0]), policy)
        down = masked_grpo_loss([traj], np.array([-1.0]), policy)
        assert_allclose(up, -down, rtol=1e-15)

    def test_mean_reduction(self):
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        trajs = [
            TokenTrajectory(token_ids=(0, 1), replay_boundary=1),
            TokenTrajectory(token_ids=(0, 1), replay_boundary=1),
        ]
        total = masked_grpo_loss(trajs, np.array([1.0, 1.0]), policy)
        mean = masked_grpo_loss(
            trajs, np.array([1.0, 1.0]), policy, group_reduction="mean"
        )
        assert_allclose(mean, total / 2, rtol=1e-15)

    def test_length_normalization(self):
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        trajs = [
            TokenTrajectory(token_ids=(0, 1, 0, 1), replay_boundary=1),
            TokenTrajectory(token_ids=(0, 1), replay_boundary=1),
        ]
        raw = masked_grpo_loss(trajs, np.array([1.0, 1.0]), policy)
        normed = masked_grpo_loss(
            trajs, np.array([1.0, 1.0]), policy, length_normalized=True
        )
        # 3 + 1 live tokens total.
        assert_allclose(normed, raw / 4, rtol=1e-15)

    def test_fully_masked_trajectory_contributes_nothing(self):
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        live = TokenTrajectory(token_ids=(0, 1), replay_boundary=1)
        dead = TokenTrajectory(token_ids=(0, 1), replay_boundary=2)
        with_dead = masked_grpo_loss(
            [live, dead], np.array([1.0, 5.0]), policy, length_normalized=True
        )
        alone = masked_grpo_loss(
            [live], np.array([1.0]), policy, length_normalized=True
        )
        assert_allclose(with_dead, alone, rtol=1e-15)

    def test_all_masked_is_zero(self):
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        dead = TokenTrajectory(token_ids=(0, 1), replay_boundary=2)
        assert masked_grpo_loss([dead], np.array([1.0]), policy) == 0.0

    def test_contract_errors(self):
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        traj = TokenTrajectory(token_ids=(0, 1))
        with pytest.raises(DomainError):
            masked_grpo_loss([], np.array([]), policy)
        with pytest.raises(ContractError):
            masked_grpo_loss([traj], np.array([1.0, 2.0]), policy)
        with pytest.raises(DomainError):
            masked_grpo_loss([traj], np.array([1.0]), policy, group_reduction="median")

    @pytest.mark.parametrize("loss_fn", [masked_grpo_loss, loss_gradient])
    @pytest.mark.parametrize(
        "tokens, boundary",
        [((0, 1, -1), 0), ((0, 1, 2), 0), ((-1, 0, 1), 1), ((2, 0), 1), ((0, 1.5, 1), 0)],
    )
    def test_token_ids_outside_vocabulary(self, loss_fn, tokens, boundary):
        # Vocabulary 2: -1 would read the last column, 2 would raise IndexError
        # and 1.5 would be cut to 1 by the loss; a replayed token must be a
        # token of the vocabulary too.
        policy = ToyPolicy(logits=np.zeros((2, 2)))
        traj = TokenTrajectory(token_ids=tokens, replay_boundary=boundary)
        with pytest.raises(DomainError, match=r"token ids must be ints in \[0, 2\)"):
            loss_fn([traj], np.array([1.0]), policy)

    @pytest.mark.parametrize("tokens", [(True, 1), (0, np.True_), (False,)])
    def test_bool_token_ids_rejected(self, tokens):
        # The loss and its gradient used to read True as token 1; a
        # trajectory rejects a bool once, where it is built.
        with pytest.raises(DomainError, match="^token ids must be ints, got"):
            TokenTrajectory(token_ids=tokens)


@st.composite
def gradient_instances(draw, max_vocab=8, max_trajectories=6):
    """A policy, a group of masked trajectories and their advantages."""
    n_contexts = draw(st.integers(1, 8))
    vocab = draw(st.integers(2, max_vocab))
    logits = draw(
        st.lists(st.floats(-8.0, 8.0), min_size=n_contexts * vocab, max_size=n_contexts * vocab)
    )
    trajectories = []
    for _ in range(draw(st.integers(1, max_trajectories))):
        tokens = tuple(draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=12)))
        boundary = draw(st.integers(0, len(tokens)))
        trajectories.append(TokenTrajectory(token_ids=tokens, replay_boundary=boundary))
    advantages = draw(
        st.lists(st.floats(-4.0, 4.0), min_size=len(trajectories), max_size=len(trajectories))
    )
    return ToyPolicy(np.reshape(logits, (n_contexts, vocab))), trajectories, np.array(advantages)


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            policy = ToyPolicy(logits=rng.normal(size=(4, 5)))
            trajs = []
            advs = []
            for _ in range(3):
                length = int(rng.integers(3, 8))
                ids = tuple(int(v) for v in rng.integers(0, 5, size=length))
                boundary = int(rng.integers(0, length))
                trajs.append(TokenTrajectory(token_ids=ids, replay_boundary=boundary))
                advs.append(float(rng.normal()))
            advs = np.array(advs)
            analytic = loss_gradient(trajs, advs, policy)
            numeric = finite_difference_gradient(trajs, advs, policy)
            assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_prefix_only_contexts_exactly_zero(self):
        # Boundary 3 on a 5-token trajectory: contexts 0..2 only ever appear
        # inside the replayed prefix, so their gradient block is exactly zero.
        policy = ToyPolicy(logits=np.linspace(-1, 1, 30).reshape(5, 6))
        traj = TokenTrajectory(
            token_ids=(0, 1, 2, 3, 4), replay_boundary=3
        )
        grad = loss_gradient([traj], np.array([1.5]), policy)
        assert np.all(grad[:3] == 0.0)
        assert np.any(grad[3:] != 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        instance=gradient_instances(),
        length_normalized=st.booleans(),
        group_reduction=st.sampled_from(["sum", "mean"]),
    )
    @example(
        instance=(
            ToyPolicy(logits=np.linspace(-1, 1, 30).reshape(5, 6)),
            [TokenTrajectory((0, 1, 2, 3, 4), 3), TokenTrajectory((5, 4, 3, 2, 1, 0), 2)],
            np.array([1.5, -0.5]),
        ),
        length_normalized=True,
        group_reduction="mean",
    )
    def test_masked_only_contexts_exactly_zero_property(
        self, instance, length_normalized, group_reduction
    ):
        policy, trajectories, advantages = instance
        grad = loss_gradient(
            trajectories, advantages, policy,
            length_normalized=length_normalized, group_reduction=group_reduction,
        )
        last = policy.logits.shape[0] - 1
        live = {
            min(t, last) for traj in trajectories
            for t in range(traj.replay_boundary, len(traj))
        }
        masked = {
            min(t, last) for traj in trajectories for t in range(traj.replay_boundary)
        }
        for c in masked - live:
            assert np.all(grad[c] == 0.0)

    def test_zero_advantages_zero_gradient(self):
        policy = ToyPolicy(logits=np.linspace(-1, 1, 12).reshape(3, 4))
        traj = TokenTrajectory(token_ids=(0, 1, 2, 3))
        grad = loss_gradient([traj], np.array([0.0]), policy)
        assert np.all(grad == 0.0)

    def test_gradient_shape(self):
        policy = ToyPolicy(logits=np.zeros((3, 4)))
        traj = TokenTrajectory(token_ids=(0, 1, 2))
        assert loss_gradient([traj], np.array([1.0]), policy).shape == (3, 4)


def loop_finite_differences(trajectories, advantages, policy, step=1e-5, **options):
    """Central differences one perturbed policy at a time, two
    masked_grpo_loss calls per logit: the reference the batches must equal."""
    base = policy.logits
    grad = np.zeros_like(base)
    for idx in np.ndindex(*base.shape):
        up = base.copy()
        up[idx] += step
        down = base.copy()
        down[idx] -= step
        grad[idx] = (
            masked_grpo_loss(trajectories, advantages, ToyPolicy(up), **options)
            - masked_grpo_loss(trajectories, advantages, ToyPolicy(down), **options)
        ) / (2.0 * step)
    return grad


FIXED_INSTANCE = (
    ToyPolicy(logits=np.linspace(-1, 1, 30).reshape(5, 6)),
    [TokenTrajectory((0, 1, 2, 3, 4), 3), TokenTrajectory((5, 4, 3), 3),
     TokenTrajectory((5, 4, 3, 2, 1, 0, 1, 2, 3), 1)],
    np.array([1.5, -0.5, 0.25]),
)


class TestFiniteDifferences:
    """finite_difference_gradient scores every perturbed policy of a group in
    batches, each loss with the bits of its own masked_grpo_loss call."""

    @settings(max_examples=100, deadline=None)
    @given(
        instance=gradient_instances(max_vocab=16, max_trajectories=8),
        length_normalized=st.booleans(),
        group_reduction=st.sampled_from(["sum", "mean"]),
    )
    @example(instance=FIXED_INSTANCE, length_normalized=True, group_reduction="mean")
    @example(
        instance=(ToyPolicy(np.zeros((2, 3))), [TokenTrajectory((0, 2), 2)], np.array([1.0])),
        length_normalized=True, group_reduction="sum",
    )
    def test_equals_the_loop_bitwise(self, instance, length_normalized, group_reduction):
        policy, trajectories, advantages = instance
        options = {"length_normalized": length_normalized, "group_reduction": group_reduction}
        got = finite_difference_gradient(trajectories, advantages, policy, **options)
        want = loop_finite_differences(trajectories, advantages, policy, **options)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), tables=st.integers(1, 6), contexts=st.integers(1, 6),
           vocab=st.integers(2, 8))
    def test_stacked_log_softmax_equals_each_table(self, data, tables, contexts, vocab):
        special = st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308, -0.0, 5e-324])
        size = tables * contexts * vocab
        drawn = data.draw(st.lists(st.one_of(st.floats(), special), min_size=size, max_size=size))
        stack = np.reshape(drawn, (tables, contexts, vocab))
        with np.errstate(all="ignore"):
            got = _log_softmax(stack)
            for k in range(tables):
                assert got[k].tobytes() == ToyPolicy(stack[k]).log_probs().tobytes()

    @pytest.mark.parametrize("per_batch", [1, 7, 59])
    def test_batches_change_no_bit(self, monkeypatch, per_batch):
        # 5 x 6 logits give 60 perturbed policies; each costs its 30-cell
        # table plus the group's 10 unmasked tokens of the budget.
        policy, trajectories, advantages = FIXED_INSTANCE
        want = loop_finite_differences(trajectories, advantages, policy)
        calls = []

        def counted(*args, _real=verification._group_losses, **options):
            calls.append(len(args[2]))
            return _real(*args, **options)

        monkeypatch.setattr(verification, "_FD_FLOATS", per_batch * (30 + 10))
        monkeypatch.setattr(verification, "_group_losses", counted)
        got = finite_difference_gradient(trajectories, advantages, policy)
        assert got.tobytes() == want.tobytes()
        assert calls == [per_batch] * (60 // per_batch) + [60 % per_batch] * (60 % per_batch > 0)

    @pytest.mark.parametrize("step", [0.0, 0, -1e-5, np.nan, np.inf, True, "1e-5"])
    def test_step_is_a_finite_real_above_zero(self, step):
        policy, trajectories, advantages = FIXED_INSTANCE
        with pytest.raises(DomainError, match="^step must be a finite real > 0"):
            finite_difference_gradient(trajectories, advantages, policy, step=step)
