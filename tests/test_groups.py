"""Bucket classification and group contracts."""

import pytest

from passband.errors import ContractError, DomainError
from passband.groups import (
    Bucket,
    BucketKind,
    GroupOrigin,
    RolloutGroup,
    classify_bucket,
    controlled_buckets,
    pass_count,
)


def make_group(k, n, origin=GroupOrigin.FRESH, parent=None):
    rewards = tuple([1] * k + [0] * (n - k))
    return RolloutGroup(
        task_id="t", rewards=rewards, origin=origin, parent_bucket=parent
    )


class TestClassifyBucket:
    def test_n8_full_partition(self):
        # Balanced buckets drop the pass count; every other kind keeps it.
        expected = {
            0: (BucketKind.DEGENERATE, 0),
            1: (BucketKind.HARD, 1),
            2: (BucketKind.HARD, 2),
            3: (BucketKind.BALANCED, None),
            4: (BucketKind.BALANCED, None),
            5: (BucketKind.BALANCED, None),
            6: (BucketKind.EASY, 6),
            7: (BucketKind.EASY, 7),
            8: (BucketKind.DEGENERATE, 8),
        }
        for k, (kind, pc) in expected.items():
            bucket = classify_bucket(k, 8)
            assert bucket.kind is kind
            assert bucket.pass_count == pc

    def test_labels(self):
        assert classify_bucket(1, 8).label == "1/8"
        assert classify_bucket(2, 8).label == "2/8"
        assert classify_bucket(6, 8).label == "6/8"
        assert classify_bucket(7, 8).label == "7/8"
        assert classify_bucket(4, 8).label == "balanced"
        assert classify_bucket(0, 8).label == "0/8"
        assert classify_bucket(8, 8).label == "8/8"

    def test_n12_scaling(self):
        hard = [k for k in range(13) if classify_bucket(k, 12).kind is BucketKind.HARD]
        easy = [k for k in range(13) if classify_bucket(k, 12).kind is BucketKind.EASY]
        assert hard == [1, 2, 3]
        assert easy == [9, 10, 11]

    def test_partition_property(self):
        # Every k lands in exactly one bucket kind for all even sizes.
        for n in range(4, 17, 2):
            kinds = [classify_bucket(k, n).kind for k in range(n + 1)]
            assert kinds[0] is BucketKind.DEGENERATE
            assert kinds[-1] is BucketKind.DEGENERATE
            assert kinds.count(BucketKind.HARD) == kinds.count(BucketKind.EASY)
            assert BucketKind.BALANCED in kinds

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_bucket(1, 7)
        with pytest.raises(DomainError):
            classify_bucket(1, 2)
        with pytest.raises(DomainError):
            classify_bucket(9, 8)


class TestControlledBuckets:
    def test_n8(self):
        buckets = controlled_buckets(8)
        assert [b.label for b in buckets] == ["1/8", "2/8", "6/8", "7/8"]
        assert all(b.is_controlled for b in buckets)

    def test_balanced_not_controlled(self):
        assert not classify_bucket(4, 8).is_controlled
        assert not classify_bucket(0, 8).is_controlled


class TestBucketContracts:
    def test_pass_count_required_for_controlled(self):
        with pytest.raises(ContractError):
            Bucket(kind=BucketKind.HARD, group_size=8)

    def test_pass_count_forbidden_for_balanced(self):
        with pytest.raises(ContractError):
            Bucket(kind=BucketKind.BALANCED, group_size=8, pass_count=4)

    def test_hashable_and_equal(self):
        a = classify_bucket(2, 8)
        b = classify_bucket(2, 8)
        assert a == b
        assert len({a, b}) == 1


class TestRolloutGroup:
    def test_basic(self):
        g = make_group(3, 8)
        assert pass_count(g) == 3
        assert g.group_size == 8

    def test_reward_values_checked(self):
        with pytest.raises(ContractError):
            RolloutGroup(task_id="t", rewards=(0, 1, 2, 0, 0, 0, 0, 0))

    def test_rerollout_requires_parent(self):
        with pytest.raises(ContractError):
            make_group(3, 8, origin=GroupOrigin.REROLLOUT)

    def test_fresh_forbids_parent(self):
        with pytest.raises(ContractError):
            make_group(3, 8, parent=classify_bucket(1, 8))

    def test_rerollout_with_parent(self):
        g = make_group(3, 8, origin=GroupOrigin.REROLLOUT, parent=classify_bucket(1, 8))
        assert g.parent_bucket.label == "1/8"

