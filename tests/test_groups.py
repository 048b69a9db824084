"""Bucket classification."""

import numpy as np
import pytest

from passband.errors import DomainError
from passband.groups import BucketKind, bucket_label, classify_bucket, controlled_buckets


class TestClassifyBucket:
    def test_n8_full_partition(self):
        d, h, b, e = BucketKind.DEGENERATE, BucketKind.HARD, BucketKind.BALANCED, BucketKind.EASY
        assert [classify_bucket(k, 8) for k in range(9)] == [d, h, h, b, b, b, e, e, d]
        assert [classify_bucket(np.int64(k), np.int64(8)) for k in (1, 7)] == [h, e]

    def test_labels(self):
        assert bucket_label(1, 8) == "1/8"
        assert bucket_label(2, 8) == "2/8"
        assert bucket_label(6, 8) == "6/8"
        assert bucket_label(7, 8) == "7/8"
        assert bucket_label(np.int64(3), 12) == "3/12"

    def test_n12_scaling(self):
        hard = [k for k in range(13) if classify_bucket(k, 12) is BucketKind.HARD]
        easy = [k for k in range(13) if classify_bucket(k, 12) is BucketKind.EASY]
        assert hard == [1, 2, 3]
        assert easy == [9, 10, 11]

    def test_partition_property(self):
        # Every k lands in exactly one bucket kind for all even sizes.
        for n in range(4, 17, 2):
            kinds = [classify_bucket(k, n) for k in range(n + 1)]
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

    @pytest.mark.parametrize("k, n", [(1.5, 8), (1, 8.0), (1.0, 8), (True, 8), ("1", 8), (1, None)])
    def test_whole_numbers_only(self, k, n):
        with pytest.raises(DomainError):
            classify_bucket(k, n)


class TestControlledBuckets:
    def test_n8(self):
        assert controlled_buckets(8) == (1, 2, 6, 7)
        assert controlled_buckets(12) == (1, 2, 3, 9, 10, 11)
        for n in range(4, 17, 2):
            assert controlled_buckets(n) == tuple(
                k for k in range(n + 1)
                if classify_bucket(k, n) in (BucketKind.HARD, BucketKind.EASY)
            )

    def test_balanced_not_controlled(self):
        assert not {0, 3, 4, 5, 8} & set(controlled_buckets(8))

    def test_domain(self):
        for n in (2, 7, 8.0):
            with pytest.raises(DomainError):
                controlled_buckets(n)
