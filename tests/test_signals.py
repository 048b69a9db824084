"""Signal quantity closed forms against frozen values and brute force."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from passband.errors import DomainError
from passband.signals import (
    SignalReport,
    contrastive_pair_count,
    expected_pair_count,
    group_survival_probability,
    max_pair_count,
    mean_centered_advantage_variance,
    reward_entropy,
    rloo_advantage_energy,
    signal_report,
)

# Frozen reference values, full precision.
H_QUARTER = 0.8112781244591328
H_EIGHTH = 0.5435644431995964
SURV_HALF_8 = 0.9921875
SURV_QUARTER_8 = 0.899871826171875
SURV_EIGHTH_8 = 0.6563910245895386


class TestRewardEntropy:
    def test_reference_values(self):
        assert reward_entropy(0.5) == 1.0
        assert_allclose(reward_entropy(0.25), H_QUARTER, rtol=1e-13)
        assert_allclose(reward_entropy(0.125), H_EIGHTH, rtol=1e-13)
        assert abs(reward_entropy(0.25) - 0.8113) < 1e-4
        assert abs(reward_entropy(0.125) - 0.5436) < 1e-4

    def test_degenerate_limits(self):
        assert reward_entropy(0.0) == 0.0
        assert reward_entropy(1.0) == 0.0

    def test_symmetry_in_p(self):
        grid = np.linspace(0.0, 1.0, 101)
        assert_allclose(reward_entropy(grid), reward_entropy(grid[::-1]), atol=1e-14)

    def test_array_input(self):
        out = reward_entropy(np.array([0.0, 0.5, 1.0]))
        assert_allclose(out, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            reward_entropy(bad)


class TestGroupSurvival:
    def test_reference_values(self):
        assert group_survival_probability(0.5, 8) == SURV_HALF_8
        assert group_survival_probability(0.25, 8) == SURV_QUARTER_8
        assert_allclose(group_survival_probability(0.125, 8), SURV_EIGHTH_8, rtol=1e-13)
        assert abs(group_survival_probability(0.5, 8) - 0.9922) < 1e-4
        assert abs(group_survival_probability(0.25, 8) - 0.8999) < 1e-4
        assert abs(group_survival_probability(0.125, 8) - 0.6564) < 1e-4

    def test_degenerate_p(self):
        assert group_survival_probability(0.0, 8) == 0.0
        assert group_survival_probability(1.0, 8) == 0.0

    def test_matches_binomial_tail_sum(self):
        # Independent oracle: sum the interior binomial pmf directly.
        from scipy.stats import binom

        for p in (0.1, 0.3, 0.5, 0.8):
            interior = binom.pmf(np.arange(1, 8), 8, p).sum()
            assert_allclose(group_survival_probability(p, 8), interior, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            group_survival_probability(0.5, 0)
        with pytest.raises(DomainError):
            group_survival_probability(-0.2, 8)


class TestRlooEnergy:
    def test_reference_values(self):
        assert rloo_advantage_energy(4, 8) == 16.0 / 49.0
        assert rloo_advantage_energy(2, 8) == 12.0 / 49.0
        assert rloo_advantage_energy(1, 8) == 7.0 / 49.0
        assert rloo_advantage_energy(0, 8) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            rloo_advantage_energy(9, 8)
        with pytest.raises(DomainError):
            rloo_advantage_energy(1, 1)


class TestPairCounts:
    def test_full_table_n8(self):
        assert [contrastive_pair_count(k, 8) for k in range(9)] == [
            0, 7, 12, 15, 16, 15, 12, 7, 0,
        ]

    def test_relative_values(self):
        assert signal_report(3, 8).pair_count_relative == 15 / 16
        assert signal_report(1, 8).pair_count_relative == 7 / 16
        assert round(15 / 16, 2) == 0.94
        assert round(7 / 16, 2) == 0.44

    def test_max_pair_count(self):
        assert max_pair_count(8) == 16
        assert max_pair_count(7) == 12
        assert max_pair_count(2) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            contrastive_pair_count(-1, 8)

    @pytest.mark.parametrize("k", [1.5, np.array([1.0, 2.5]), float("nan")])
    def test_pass_count_must_be_whole(self, k):
        for quantity in (
            contrastive_pair_count,
            rloo_advantage_energy,
            mean_centered_advantage_variance,
            signal_report,
        ):
            with pytest.raises(DomainError, match="whole number"):
                quantity(k, 8)

    @pytest.mark.parametrize("k", [True, False, np.bool_(True), np.array([True, False])])
    def test_pass_count_is_no_bool(self, k):
        # contrastive_pair_count(True, 8) returned 7 and signal_report(True, 8)
        # reported a pass count of 1.
        want = "^" + re.escape(f"pass count k must be a whole number in [0, 8], got {k!r}") + "$"
        for quantity in (
            contrastive_pair_count,
            rloo_advantage_energy,
            mean_centered_advantage_variance,
            signal_report,
        ):
            with pytest.raises(DomainError, match=want):
                quantity(k, 8)

    @pytest.mark.parametrize("k", [[True, 2], (2, np.bool_(False)), [[1, 2], [3, True]]])
    @pytest.mark.parametrize(
        "quantity",
        [contrastive_pair_count, rloo_advantage_energy, mean_centered_advantage_variance,
         signal_report],
    )
    def test_bool_in_a_list_is_no_pass_count(self, quantity, k):
        # numpy reads [True, 2] as int64: contrastive_pair_count([True, 2], 8)
        # returned [7, 12], where errors.int_array rejects the same list.
        want = "^" + re.escape(f"pass count k must be a whole number in [0, 8], got {k!r}") + "$"
        with pytest.raises(DomainError, match=want):
            quantity(k, 8)

    def test_whole_floats_still_count(self):
        assert contrastive_pair_count(2.0, 8) == 12
        assert rloo_advantage_energy(np.array([2.0, 4.0]), 8).tolist() == [12 / 49, 16 / 49]
        assert contrastive_pair_count([1, 2.0], 8).tolist() == [7, 12]
        assert mean_centered_advantage_variance((4, np.int64(2)), 8).tolist() == [0.25, 0.1875]


@pytest.mark.parametrize("n", [8.5, True, np.float64(8.0), "8"])
@pytest.mark.parametrize(
    "quantity",
    [
        lambda n: group_survival_probability(0.5, n),
        lambda n: rloo_advantage_energy(1, n),
        lambda n: contrastive_pair_count(2, n),
        lambda n: expected_pair_count(0.5, n),
        lambda n: mean_centered_advantage_variance(2, n),
        lambda n: max_pair_count(n),
        lambda n: signal_report(2, n),
    ],
    ids=[
        "survival", "rloo_energy", "pair_count", "expected_pairs",
        "centered_variance", "max_pairs", "signal_report",
    ],
)
def test_group_size_must_be_an_int(quantity, n):
    # True would otherwise read as N = 1, and 8.5 as a group of 8.5 rollouts.
    with pytest.raises(DomainError, match="group size N must be an int"):
        quantity(n)


@pytest.mark.parametrize(
    "quantity, p",
    [
        (reward_entropy, True),
        (reward_entropy, np.True_),
        (reward_entropy, "0.5"),
        (reward_entropy, [True, 0.5]),
        (reward_entropy, np.array(["0.5"])),
        (lambda p: group_survival_probability(p, 8), True),
        (lambda p: expected_pair_count(p, 8), True),
    ],
    ids=[
        "entropy-bool", "entropy-numpy-bool", "entropy-string", "entropy-bool-in-list",
        "entropy-string-array", "survival-bool", "expected_pairs-bool",
    ],
)
def test_probability_is_a_number(quantity, p):
    # numpy reads True as 1.0 and "0.5" as 0.5: the entropy of True was 0.0
    # and of "0.5" 1.0 bit, and [True, 0.5] gave [0.0, 1.0].
    with pytest.raises(DomainError, match=r"p must be a number in \[0, 1\]"):
        quantity(p)


def test_numeric_probabilities_still_count():
    assert reward_entropy(np.float32(0.5)) == 1.0
    assert reward_entropy(1) == 0.0
    assert reward_entropy([0, 0.5, np.int64(1)]).tolist() == [0.0, 1.0, 0.0]
    assert group_survival_probability(np.array([0, 1], np.uint8), 8).tolist() == [0.0, 0.0]


def test_numpy_int_group_size_counts():
    assert contrastive_pair_count(2, np.int64(8)) == 12
    assert max_pair_count(np.int32(8)) == 16


class TestExpectedPairCount:
    def test_reference_values(self):
        assert expected_pair_count(0.5, 8) == 14.0
        assert expected_pair_count(0.25, 8) == 10.5
        assert expected_pair_count(0.0, 8) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_pair_count(0.5, 1)


class TestMeanCenteredVariance:
    def test_reference_values(self):
        assert mean_centered_advantage_variance(4, 8) == 0.25
        assert mean_centered_advantage_variance(0, 8) == 0.0
        assert mean_centered_advantage_variance(2, 8) == 0.1875

    def test_brute_force_2_of_8(self):
        # Mean-center two ones and six zeros by hand, average the squares.
        rewards = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
        centered = rewards - rewards.mean()
        assert_allclose(np.mean(centered**2), 0.1875, rtol=1e-15)


class TestSignalReport:
    def test_fields(self):
        assert SignalReport._fields == (
            "pass_count", "group_size", "entropy_bits", "survival_prob",
            "rloo_energy", "pair_count", "pair_count_relative",
        )
        with pytest.raises(AttributeError):
            signal_report(4, 8).pair_count = 0

    def test_balanced_group(self):
        rep = signal_report(4, 8)
        assert rep.entropy_bits == 1.0
        assert_allclose(rep.survival_prob, 0.9922, atol=1e-4)
        assert rep.rloo_energy == 16.0 / 49.0
        assert rep.pair_count == 16
        assert rep.pair_count_relative == 1.0

    def test_degenerate_group(self):
        rep = signal_report(8, 8)
        assert rep.entropy_bits == 0.0
        assert rep.rloo_energy == 0.0
        assert rep.pair_count == 0

    def test_hard_group(self):
        rep = signal_report(2, 8)
        assert_allclose(rep.entropy_bits, H_QUARTER, rtol=1e-13)
        assert rep.rloo_energy == 12.0 / 49.0
        assert rep.pair_count == 12
        assert rep.pair_count_relative == 0.75

    def test_internal_consistency(self):
        for n in (4, 8, 10):
            for k in range(n + 1):
                rep = signal_report(k, n)
                assert rep.pair_count == k * (n - k)
                assert_allclose(
                    rep.rloo_energy, rep.pair_count / (n - 1) ** 2, rtol=1e-15
                )
                assert 0.0 <= rep.pair_count_relative <= 1.0


class TestSymmetryAndMaxima:
    def test_report_symmetric_in_k(self):
        # k/n and 1 - (n-k)/n can differ by one ulp, so the float fields get
        # a tolerance; the combinatorial fields must match exactly.
        for n in (4, 6, 8, 12):
            for k in range(n + 1):
                a, b = signal_report(k, n), signal_report(n - k, n)
                assert_allclose(a.entropy_bits, b.entropy_bits, rtol=1e-12)
                assert_allclose(a.survival_prob, b.survival_prob, rtol=1e-12)
                assert a.rloo_energy == b.rloo_energy
                assert a.pair_count == b.pair_count

    def test_unique_maximum_over_k(self):
        for n in (4, 6, 8, 10, 12):
            ks = np.arange(n + 1)
            energy = [rloo_advantage_energy(k, n) for k in ks]
            pairs = [contrastive_pair_count(k, n) for k in ks]
            for values in (energy, pairs):
                best = max(values)
                assert values.index(best) == n // 2
                assert sum(v == best for v in values) == 1

    def test_maximum_over_p_grid(self):
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
        for fn in (
            reward_entropy,
            lambda p: group_survival_probability(p, 8),
            lambda p: expected_pair_count(p, 8),
        ):
            values = np.array([fn(p) for p in grid])
            assert grid[int(np.argmax(values))] == 0.5
