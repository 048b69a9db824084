"""The scalar int check every size, count and bound of the package goes
through: an int in [low, high], numpy ints included, never a bool; and the
int64 read of an int column, which names a uint64 value the cast would wrap."""

import re

import numpy as np
import pytest

from passband.errors import DomainError, check_int, int64_array, signed_array

INT_TYPES = [int, np.int64, np.int32]


@pytest.mark.parametrize("kind", INT_TYPES)
@pytest.mark.parametrize("low, high", [(0, None), (2, None), (-3, 5), (1, 2**31 - 1)])
def test_ints_in_range_pass(kind, low, high):
    inside = [low, low + 1] if high is None else [low, high]
    for value in inside:
        assert check_int(kind(value), "x", low, high) is None
    assert check_int(np.uint64(max(low, 0)), "x", low, high) is None


@pytest.mark.parametrize("kind", INT_TYPES)
@pytest.mark.parametrize(
    "value, low, high, bounds",
    [
        (-1, 0, None, ">= 0"),
        (1, 2, None, ">= 2"),
        (-4, -3, 5, "in [-3, 5]"),
        (6, -3, 5, "in [-3, 5]"),
        (0, 1, 2**31 - 1, "in [1, 2147483647]"),
    ],
)
def test_ints_outside_range_fail(kind, value, low, high, bounds):
    value = kind(value)
    want = re.escape(f"count must be an int {bounds}, got {value!r}") + "$"
    with pytest.raises(DomainError, match=f"^{want}"):
        check_int(value, "count", low, high)


def test_python_int_beyond_numpy_range():
    # A Python int past 64 bits is still an int, and its bound is checked.
    check_int(2**70, "x", 0)
    with pytest.raises(DomainError, match=re.escape(f"in [0, {2**64}], got {2**70}")):
        check_int(2**70, "x", 0, 2**64)


@pytest.mark.parametrize("high", [None, 10])
@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), 1.0, np.float64(2.0), "1", None]
)
def test_non_ints_fail(value, high):
    # A bool is an int to Python and a float may be whole: neither counts.
    bounds = ">= 0" if high is None else "in [0, 10]"
    want = re.escape(f"size must be an int {bounds}, got {value!r}") + "$"
    with pytest.raises(DomainError, match=f"^{want}"):
        check_int(value, "size", 0, high)


@pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.int32, np.uint8])
def test_int64_array_reads_every_int_dtype(dtype):
    values = np.array([0, 7, 127], dtype)
    got = int64_array(values, "x")
    assert got.dtype == np.int64
    assert got.tolist() == [0, 7, 127]
    assert int64_array(np.array([2**63 - 1], np.uint64), "x").tolist() == [2**63 - 1]


@pytest.mark.parametrize("big", [2**63, 2**64 - 1])
def test_int64_array_names_a_uint64_the_cast_would_wrap(big):
    with pytest.raises(DomainError, match=f"^step must be integers below 2\\*\\*63, got {big}$"):
        int64_array(np.array([1, big, 2], np.uint64), "step")


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_signed_array_keeps_a_signed_array_as_it_is(dtype):
    # A run's narrow length columns are checked where they are, not copied.
    values = np.array([[0, 7], [-3, 127]], dtype)
    assert signed_array(values, "x") is values


@pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
def test_signed_array_reads_an_unsigned_array_as_int64(dtype):
    got = signed_array(np.array([0, 7, 255], dtype), "x")
    assert got.dtype == np.int64
    assert got.tolist() == [0, 7, 255]
